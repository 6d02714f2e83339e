"""Conservative time-window coordinator for sharded runs.

Window protocol (proof sketch in DESIGN.md section 14).  Let ``W`` be the
plan lookahead — the minimum delay on any boundary-crossing link.  The
coordinator repeatedly:

1. computes ``t_next`` = the minimum over every worker's next local event
   time and every not-yet-delivered cross-shard message time (``inf``
   means global quiescence — stop);
2. sets the window end ``E = min(t_next + W, until)``;
3. hands each worker its sorted inbox (messages and ledger notices that
   fell due) and lets it drain its kernel through ``_run_kernel(E)``
   — the repo kernel executes events with ``time <= E`` inclusively;
4. collects each worker's outboxes, notices, and next-event peek.

Safety: any cross-shard message generated inside window ``k`` is stamped
``>= t_gen + W > E_{k-1} + W >= E_k``... more precisely ``t_gen >= t_next``
and message time ``>= t_gen + W >= t_next + W >= E``, so it can never be
due inside the window that produced it; exchanging at barriers is
sufficient.  A message stamped exactly ``E`` is scheduled at the barrier
and executes first thing next window at its correct simulated time.
Messages are sorted by ``(time, origin_shard, origin_index)`` before
scheduling, so the merged order is a pure function of (seed, shards) —
two runs with the same pair are bit-identical regardless of backend.

Progress: every window executes at least the event at ``t_next``
somewhere (or delivers the message that defines it), and window ends
strictly increase until ``until`` is reached, so the loop terminates.

Backends: ``inline`` runs every worker in-process (tests, debugging);
``process`` forks one OS process per shard and exchanges batched pickled
tuples over pipes (the default).  Both produce identical bytes.
"""

from __future__ import annotations

import math
import multiprocessing
import traceback
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ShardingUnsupportedError
from repro.shard.plan import ShardPlan
from repro.shard.runtime import Message, Notice, ShardContext

__all__ = ["run_sharded"]

_INF = math.inf

# (when, packet) injections grouped per shard, in global submit order.
_Injections = List[Tuple[float, Any]]
_WindowResult = Tuple[List[List[Message]], List[List[Notice]], float]


class _ShardWorker:
    """One shard: a private network replica bound to a ShardContext."""

    def __init__(
        self,
        recipe: Tuple[Any, Dict[str, Any]],
        plan: ShardPlan,
        shard: int,
        injections: _Injections,
        next_pid: int,
    ) -> None:
        cls, kwargs = recipe
        self.net = cls(**kwargs)
        ctx = ShardContext(
            shard,
            plan.n_shards,
            plan.host_shard,
            plan.stage_shard,
            plan.cut_delay_ns,
        )
        self.net._shard_bind(ctx, int(kwargs.get("seed", 0)))
        self.net._shard_resubmit(injections, next_pid)

    def peek(self) -> float:
        return float(self.net.env.peek())

    def window(
        self,
        end: Optional[float],
        messages: List[Message],
        notices: List[Notice],
    ) -> _WindowResult:
        """Apply one barrier exchange, then drain the kernel to ``end``.

        ``end=None`` is the post-loop flush: schedule/apply the leftovers
        without advancing the clock (they lie beyond the horizon).
        """
        net = self.net
        if notices:
            net._shard_apply_notices(notices)
        if messages:
            net._shard_schedule_inbox(messages)
        if end is not None and end > net.env.now:
            net._run_kernel(end)
        out, notes = net._shard_ctx.take()
        return out, notes, float(net.env.peek())

    def finalize(self) -> Dict[str, Any]:
        return dict(self.net._shard_export())


def _worker_main(
    conn: Any,
    recipe: Tuple[Any, Dict[str, Any]],
    plan: ShardPlan,
    shard: int,
    injections: _Injections,
    next_pid: int,
) -> None:
    """Forked worker process: serve window commands over a pipe."""
    try:
        worker = _ShardWorker(recipe, plan, shard, injections, next_pid)
        conn.send(("ready", worker.peek()))
        while True:
            cmd = conn.recv()
            op = cmd[0]
            if op == "window":
                conn.send(("ok", worker.window(cmd[1], cmd[2], cmd[3])))
            elif op == "finalize":
                conn.send(("ok", worker.finalize()))
                break
            else:  # pragma: no cover - protocol bug
                raise RuntimeError(f"unknown shard command {op!r}")
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        conn.close()


class _InlineBackend:
    """All shards in this process; used by tests and as the fork fallback."""

    def __init__(
        self,
        recipe: Tuple[Any, Dict[str, Any]],
        plan: ShardPlan,
        injections: List[_Injections],
        next_pid: int,
    ) -> None:
        self.workers = [
            _ShardWorker(recipe, plan, shard, injections[shard], next_pid)
            for shard in range(plan.n_shards)
        ]

    def start(self) -> List[float]:
        return [w.peek() for w in self.workers]

    def window(
        self,
        end: Optional[float],
        inboxes: List[List[Message]],
        notice_boxes: List[List[Notice]],
    ) -> List[_WindowResult]:
        return [
            w.window(end, inboxes[i], notice_boxes[i])
            for i, w in enumerate(self.workers)
        ]

    def finalize(self) -> List[Dict[str, Any]]:
        return [w.finalize() for w in self.workers]

    def close(self) -> None:
        self.workers = []


class _ProcessBackend:
    """One forked OS process per shard, star-wired to the coordinator.

    Fork (not spawn) is required: worker construction re-uses the live
    topology object and any packet-filter callables by COW inheritance
    instead of pickling them.
    """

    def __init__(
        self,
        recipe: Tuple[Any, Dict[str, Any]],
        plan: ShardPlan,
        injections: List[_Injections],
        next_pid: int,
    ) -> None:
        ctx = multiprocessing.get_context("fork")
        self.conns: List[Any] = []
        self.procs: List[Any] = []
        for shard in range(plan.n_shards):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child, recipe, plan, shard, injections[shard], next_pid),
                daemon=True,
            )
            proc.start()
            child.close()
            self.conns.append(parent)
            self.procs.append(proc)

    def _recv(self, shard: int) -> Any:
        try:
            tag, payload = self.conns[shard].recv()
        except EOFError:
            raise ConfigurationError(
                f"shard worker {shard} died without reporting an error"
            ) from None
        if tag == "error":
            raise ConfigurationError(
                f"shard worker {shard} failed:\n{payload}"
            )
        return payload

    def start(self) -> List[float]:
        return [float(self._recv(s)) for s in range(len(self.conns))]

    def window(
        self,
        end: Optional[float],
        inboxes: List[List[Message]],
        notice_boxes: List[List[Notice]],
    ) -> List[_WindowResult]:
        for s, conn in enumerate(self.conns):
            conn.send(("window", end, inboxes[s], notice_boxes[s]))
        return [self._recv(s) for s in range(len(self.conns))]

    def finalize(self) -> List[Dict[str, Any]]:
        for conn in self.conns:
            conn.send(("finalize",))
        payloads = [self._recv(s) for s in range(len(self.conns))]
        self.close()
        return payloads

    def close(self) -> None:
        for conn in self.conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        for proc in self.procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=5.0)
        self.conns = []
        self.procs = []


def _extract_injections(net: Any, plan: ShardPlan) -> List[_Injections]:
    """Pull the submitted-but-unrun injection events off the parent kernel.

    ``submit``/``submit_batch`` leave ``(when, seq, net._inject, (packet,))``
    entries on the environment.  Anything else pending means the caller
    scheduled custom events the shards cannot replay — refuse loudly.
    """
    entries: List[Tuple[float, int, Any]] = []
    for when, seq, fn, args in net.env.pending():
        if fn != net._inject or len(args) != 1:
            raise ShardingUnsupportedError(
                "sharded run requires a pending event queue containing only "
                f"plain packet injections; found {getattr(fn, '__qualname__', fn)!r}"
            )
        entries.append((when, seq, args[0]))
    entries.sort(key=lambda e: (e[0], e[1]))
    per_shard: List[_Injections] = [[] for _ in range(plan.n_shards)]
    for when, _seq, packet in entries:
        per_shard[plan.host_shard[packet.src]].append((when, packet))
    return per_shard


def _check_unsharded_state(net: Any) -> None:
    """Refuse configurations the sharded engine cannot honor."""
    reasons = []
    if net.receive_hook is not None:
        reasons.append("receive_hook (closed-loop workloads)")
    if net.tracer is not None:
        reasons.append("an attached tracer")
    if net.metrics is not None:
        reasons.append("an attached metrics registry")
    if net.fault_injector is not None:
        reasons.append("fault injection")
    if net.env._profile is not None:
        reasons.append("kernel profiling")
    if net.env.now != 0:
        reasons.append("a non-zero simulation clock (run() already called)")
    if reasons:
        raise ShardingUnsupportedError(
            "cannot shard this run: " + "; ".join(reasons)
        )


def _route(
    results: Sequence[_WindowResult], n_shards: int
) -> Tuple[List[List[Message]], List[List[Notice]], float]:
    """Merge worker outboxes into deterministic per-shard inboxes.

    Inboxes sort by ``(time, origin_shard, origin_index)``; notices
    concatenate in origin-shard order.  Returns the minimum pending
    message time (drives window skipping).
    """
    inboxes: List[List[Tuple[float, int, int, Message]]] = [
        [] for _ in range(n_shards)
    ]
    notice_boxes: List[List[Notice]] = [[] for _ in range(n_shards)]
    pending_min = _INF
    for origin in range(n_shards):
        out, notes, _peek = results[origin]
        for dest in range(n_shards):
            for idx, msg in enumerate(out[dest]):
                when = float(msg[1])
                if when < pending_min:
                    pending_min = when
                inboxes[dest].append((when, origin, idx, msg))
            notice_boxes[dest].extend(notes[dest])
    sorted_inboxes: List[List[Message]] = []
    for box in inboxes:
        box.sort(key=lambda e: (e[0], e[1], e[2]))
        sorted_inboxes.append([e[3] for e in box])
    return sorted_inboxes, notice_boxes, pending_min


def run_sharded(
    net: Any,
    shards: int,
    until: Optional[float] = None,
    shard_latency_ns: float = 0.0,
    backend: str = "process",
) -> Any:
    """Execute ``net``'s submitted workload across ``shards`` kernels.

    Called by ``NetworkSimulator.run(shards=N)``; returns the merged
    :class:`~repro.netsim.stats.LatencyStats` after a global ``audit()``.

    ``shard_latency_ns`` adds extra fiber delay on cut inter-stage hops
    (stage-cut plans only) — 0.0 preserves single-cabinet physics and is
    the default; the benchmark passes 100.0 ns (inter-cabinet fiber,
    paper Table VI) to widen the lookahead window.

    ``backend`` is ``"process"`` (default; requires fork) or ``"inline"``.
    Both are bit-identical.
    """
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    if shards == 1:
        raise ConfigurationError(
            "run_sharded requires shards >= 2; shards=1 uses the "
            "single-kernel path in NetworkSimulator.run"
        )
    if until is not None and (until < 0 or not math.isfinite(until)):
        raise ConfigurationError(f"until must be finite and >= 0, got {until}")
    _check_unsharded_state(net)
    net._shard_check_supported()
    reason = getattr(net, "_shard_exec_unsupported_reason", None)
    if reason is not None:
        raise ShardingUnsupportedError(
            f"{type(net).__name__} cannot run sharded: {reason}"
        )
    plan = net.shard_plan(shards, shard_latency_ns=shard_latency_ns)
    lookahead = plan.lookahead_ns
    if lookahead != _INF and not lookahead > 0:
        raise ShardingUnsupportedError(
            f"plan for {type(net).__name__} has zero lookahead; "
            "conservative windows would never advance"
        )
    injections = _extract_injections(net, plan)
    recipe = net.shard_recipe()

    if backend == "process" and "fork" not in multiprocessing.get_all_start_methods():
        backend = "inline"  # pragma: no cover - non-POSIX fallback
    if backend == "process":
        engine: Any = _ProcessBackend(recipe, plan, injections, net._next_pid)
    elif backend == "inline":
        engine = _InlineBackend(recipe, plan, injections, net._next_pid)
    else:
        raise ConfigurationError(
            f"unknown shard backend {backend!r} (expected 'process' or 'inline')"
        )

    try:
        peeks = engine.start()
        inboxes: List[List[Message]] = [[] for _ in range(shards)]
        notice_boxes: List[List[Notice]] = [[] for _ in range(shards)]
        pending_min = _INF
        horizon = _INF if until is None else float(until)
        while True:
            t_next = min(min(peeks), pending_min)
            if t_next == _INF or t_next > horizon:
                break
            end = t_next + lookahead
            if end > horizon:
                end = horizon
            results = engine.window(end, inboxes, notice_boxes)
            peeks = [r[2] for r in results]
            inboxes, notice_boxes, pending_min = _route(results, shards)
        # Post-loop flush: schedule/apply leftovers beyond the horizon so
        # the conservation ledger closes; clocks do not advance and (by
        # the lookahead argument) no new cross-shard traffic can appear.
        if any(inboxes) or any(notice_boxes):
            results = engine.window(None, inboxes, notice_boxes)
            for out, notes, _peek in results:
                if any(out) or any(notes):  # pragma: no cover - protocol bug
                    raise ConfigurationError(
                        "shard flush produced new cross-shard traffic"
                    )
        payloads = engine.finalize()
    finally:
        engine.close()

    net._shard_absorb(payloads, plan, until)
    net.audit()
    return net.stats
