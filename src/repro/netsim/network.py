"""Uniform network-simulator driver shared by Baldur and the baselines.

Every network exposes the same API:

* :meth:`NetworkSimulator.submit` -- inject a message at a given time;
* :meth:`NetworkSimulator.run` -- advance the simulation;
* ``stats`` -- a :class:`~repro.netsim.stats.LatencyStats`;
* ``receive_hook`` -- optional callback fired on each delivery (used by
  closed-loop workloads like ping_pong).

Open-loop experiments pre-schedule all messages; closed-loop experiments
submit from inside the hook.

The base class also owns two cross-cutting resilience facilities used by
:mod:`repro.faults`:

* a **packet ledger** -- every submitted data packet is tracked until it is
  delivered, terminally dropped, or given up; :meth:`NetworkSimulator.audit`
  checks the conservation invariant ``injected = delivered + terminal_drops
  + given_up + in_flight`` after every run and raises
  :class:`~repro.errors.InvariantViolationError` on a leak;
* **fault attachment** -- :meth:`NetworkSimulator.attach_faults` installs a
  :class:`~repro.faults.FaultInjector` and wires its fail-stop/corruption/
  slow-gate checks into every switch the network exposes via
  :meth:`NetworkSimulator.iter_switches`.

A third cross-cutting facility is the **observability plane**
(:mod:`repro.obs`): :meth:`NetworkSimulator.attach_tracer` and
:meth:`NetworkSimulator.attach_metrics` hang a packet-lifecycle
:class:`~repro.obs.Tracer` and/or a windowed per-switch
:class:`~repro.obs.MetricsRegistry` off the same ``iter_switches``
plumbing faults use.  Both default to ``None`` and cost a single
``is None`` check per hook site when detached; attached observers are
strictly passive (no RNG draws, no state writes), so they can never
change simulation results.
"""

from __future__ import annotations

import functools

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro import constants as C
from repro.errors import (
    ConfigurationError,
    InvariantViolationError,
    ShardingUnsupportedError,
)
from repro.netsim.packet import Packet
from repro.netsim.stats import LatencyStats
from repro.shard.runtime import NOTICE_DELIVERED, NOTICE_TERMINAL
from repro.sim import Environment

__all__ = ["NetworkSimulator"]


class NetworkSimulator:
    """Base class: clock, stats, packet-id allocation, delivery plumbing."""

    # Slots keep hot-path attribute reads (tracer, metrics, fault_injector
    # are checked on every hop of every simulator) out of an instance
    # dict.  Subclasses that declare no __slots__ of their own still get a
    # dict for their extra attributes; BaldurNetwork declares slots too.
    __slots__ = (
        "n_nodes",
        "env",
        "stats",
        "receive_hook",
        "_next_pid",
        "fault_injector",
        "tracer",
        "metrics",
        "_outstanding",
        "_shard_ctx",
        "_ledger_corrections",
    )

    # Networks whose event model cannot be executed sharded set this to a
    # human-readable reason (the buffered electrical fabrics: zero-latency
    # credit feedback means zero conservative lookahead, DESIGN.md sec. 14).
    # None means run(shards=N) may proceed if the class defines a plan.
    _shard_exec_unsupported_reason: Optional[str] = None

    def __init__(self, n_nodes: int):
        if n_nodes < 2:
            raise ConfigurationError("a network needs at least 2 nodes")
        self.n_nodes = n_nodes
        self.env = Environment()
        self.stats = LatencyStats()
        self.receive_hook: Optional[Callable[[Packet, float], None]] = None
        self._next_pid = 0
        self.fault_injector = None
        # Observability plane (repro.obs); None = zero-overhead hook sites.
        self.tracer = None
        self.metrics = None
        # Conservation ledger: pids of data packets whose fate is still open.
        self._outstanding: Set[int] = set()
        # Sharded execution (repro.shard).  _shard_ctx is None except on a
        # worker replica inside a sharded run; every hot-path branch tests
        # `is None` first so the single-kernel path is byte-identical.
        self._shard_ctx: Optional[Any] = None
        # Cross-shard outcome conflicts resolved at barriers (a packet both
        # delivered remotely and given up locally inside one lookahead
        # window); audit() balances the ledger with this term.
        self._ledger_corrections = 0

    # -- message injection ------------------------------------------------------

    def submit(
        self,
        src: int,
        dst: int,
        size_bytes: int = C.PACKET_SIZE_BYTES,
        time: float = 0.0,
    ) -> Packet:
        """Create a packet from ``src`` to ``dst`` at ``time`` and inject it.

        Injection is scheduled, so :meth:`submit` may be called before
        :meth:`run` (open loop) or from a delivery hook (closed loop).

        Validate-then-commit: a rejected submission (bad endpoints or a
        past timestamp) raises *before* any state is touched, so the
        stats ledger, the conservation ledger, and the pid counter are
        exactly as they were -- a failed submit never poisons a later
        :meth:`audit`.
        """
        self._validate_endpoints(src, dst)
        if time < self.env.now:
            raise ConfigurationError(
                f"cannot submit in the past: t={time} < now={self.env.now}"
            )
        packet = Packet(
            pid=self._alloc_pid(),
            src=src,
            dst=dst,
            size_bytes=size_bytes,
            create_time=time,
        )
        self.stats.record_injection()
        self._outstanding.add(packet.pid)
        self.env.schedule_at(time, self._inject, packet)
        return packet

    def submit_batch(self, entries) -> List[Packet]:
        """Inject many messages at once: ``(src, dst, size_bytes, time)``.

        Equivalent to calling :meth:`submit` per entry in iteration order
        (identical pids, stats, ledger, and event ordering -- byte-
        identical results), but funnels the injections through
        :meth:`~repro.sim.Environment.schedule_batch`, which heapifies
        once instead of pushing one event at a time when the queue is
        empty -- the open-loop pre-scheduling case.

        The batch is all-or-nothing: every entry is validated before any
        state is committed, so one bad entry (out-of-range endpoint or a
        past timestamp) raises with stats, pids, the conservation
        ledger, and the event queue untouched -- never a half-submitted
        batch that a later :meth:`audit` flags as a leak.
        """
        now = self.env.now
        batch = list(entries)
        # Pass 1: validate everything; nothing below this loop can fail.
        for src, dst, _size_bytes, time in batch:
            self._validate_endpoints(src, dst)
            if time < now:
                raise ConfigurationError(
                    f"cannot submit in the past: t={time} < now={now}"
                )
        # Pass 2: commit -- same pid allocation, stats, ledger, and event
        # order per entry as pass-free submission, so successful batches
        # are byte-identical to the pre-validation behaviour.
        record_injection = self.stats.record_injection
        outstanding_add = self._outstanding.add
        inject = self._inject
        packets: List[Packet] = []
        to_schedule = []
        for src, dst, size_bytes, time in batch:
            packet = Packet(
                pid=self._alloc_pid(),
                src=src,
                dst=dst,
                size_bytes=size_bytes,
                create_time=time,
            )
            record_injection()
            outstanding_add(packet.pid)
            packets.append(packet)
            to_schedule.append((time, inject, (packet,)))
        self.env.schedule_batch(to_schedule)
        return packets

    def _validate_endpoints(self, src: int, dst: int) -> None:
        if not 0 <= src < self.n_nodes or not 0 <= dst < self.n_nodes:
            raise ConfigurationError(
                f"endpoints ({src}, {dst}) out of range [0, {self.n_nodes})"
            )
        if src == dst:
            raise ConfigurationError("src and dst must differ")

    def _alloc_pid(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def _inject(self, packet: Packet) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- delivery and the conservation ledger -----------------------------------

    def _on_delivered(self, packet: Packet, time: float) -> None:
        """Record the delivery and fire the closed-loop hook."""
        ctx = self._shard_ctx
        if ctx is not None:
            # Worker replica: the conservation-ledger entry lives on the
            # shard owning the packet's *source* host.  Delivery stats are
            # recorded here (the destination shard) and the per-delivery
            # latency is logged with its timestamp for the global merge.
            owner = ctx.host_shard[packet.src]
            if owner != ctx.shard:
                ctx.notify(owner, NOTICE_DELIVERED, packet.pid)
            else:
                try:
                    self._outstanding.remove(packet.pid)
                except KeyError:
                    self._resolve(packet, "delivered")
            latency = time - packet.create_time
            self.stats.record_delivery(latency)
            ctx.latency_log.append((time, latency))
            return
        try:
            # Inlined _resolve: this runs once per delivery on every
            # network, and the extra frame was measurable.
            self._outstanding.remove(packet.pid)
        except KeyError:
            self._resolve(packet, "delivered")  # raises the ledger error
        self.stats.record_delivery(time - packet.create_time)
        if self.tracer is not None:
            self.tracer.record(time, "deliver", packet)
        if self.receive_hook is not None:
            self.receive_hook(packet, time)

    def _record_terminal_drop(self, packet: Packet) -> None:
        """A data packet was lost for good (no retransmission will follow)."""
        ctx = self._shard_ctx
        if ctx is not None:
            owner = ctx.host_shard[packet.src]
            if owner != ctx.shard:
                ctx.notify(owner, NOTICE_TERMINAL, packet.pid)
                self.stats.record_terminal_drop()
                return
        self._resolve(packet, "terminally dropped")
        self.stats.record_terminal_drop()

    def _record_give_up(self, packet: Packet) -> None:
        """A data packet was abandoned undelivered after max retries."""
        self._resolve(packet, "given up")
        self.stats.record_give_up()
        if self.tracer is not None:
            self.tracer.record(self.env.now, "give_up", packet)

    def _resolve(self, packet: Packet, outcome: str) -> None:
        try:
            self._outstanding.remove(packet.pid)
        except KeyError:
            raise InvariantViolationError(
                f"packet {packet.pid} ({packet.src}->{packet.dst}) "
                f"{outcome} but it was already resolved or never submitted"
            ) from None

    def audit(self) -> Dict[str, int]:
        """Check the packet-conservation invariant and return the ledger.

        ``injected = delivered + terminal_drops + given_up + in_flight``
        must hold at any instant (in-flight packets are the still-open
        ledger entries: queued, streaming, or awaiting a retransmission
        timeout).  Raises :class:`InvariantViolationError` on a leak.
        """
        self.stats.in_flight = len(self._outstanding)
        ledger = self.stats.conservation()
        corrections = self._ledger_corrections
        if corrections:
            # Sharded runs only: a packet can be both delivered (counted at
            # the destination shard) and given up (counted at the source
            # shard) inside one lookahead window; each conflict was
            # resolved at a barrier and balances one ledger unit here.
            # Unsharded runs always have corrections == 0 and an
            # unchanged ledger dict.
            ledger["conflict_corrections"] = corrections
        if ledger["balance"] + corrections != 0:
            raise InvariantViolationError(
                f"packet conservation violated ({type(self).__name__}): "
                + ", ".join(f"{k}={v}" for k, v in sorted(ledger.items()))
            )
        return ledger

    # -- fault injection ---------------------------------------------------------

    def iter_switches(self) -> Iterable:
        """The switch objects faults can attach to (overridden by the
        electrical networks; Baldur consults the injector directly)."""
        return ()

    def switch_ids(self) -> List[int]:
        """Flat ids of every switch that can be failed in this network."""
        return [switch.sid for switch in self.iter_switches()]

    def attach_faults(self, injector) -> None:
        """Install a :class:`~repro.faults.FaultInjector` on this network."""
        self.fault_injector = injector
        self._install_faults()

    def _install_faults(self) -> None:
        for switch in self.iter_switches():
            switch.fault_hook = self._switch_fault_check
            switch.extra_latency_fn = self._switch_extra_latency
            switch.drop_fn = self._switch_fault_drop

    def _switch_fault_check(self, switch, packet: Packet) -> bool:
        injector = self.fault_injector
        return injector is not None and injector.check_drop(
            switch.sid, self.env.now
        )

    def _switch_extra_latency(self, switch) -> float:
        injector = self.fault_injector
        if injector is None:
            return 0.0
        return injector.extra_latency_ns(switch.sid, self.env.now)

    def _switch_fault_drop(self, packet: Packet, switch=None) -> None:
        """A buffered electrical switch discarded a packet due to a fault:
        there is no retransmission layer, so the loss is terminal.  The
        dropping switch is passed for per-switch attribution."""
        self.stats.record_drop(is_ack=packet.is_ack)
        sid = switch.sid if switch is not None else None
        if self.tracer is not None:
            self.tracer.record(
                self.env.now, "drop", packet, switch=sid, note="fault"
            )
        if self.metrics is not None and sid is not None:
            self.metrics.incr("drops", sid, self.env.now)
        if not packet.is_ack:
            self._record_terminal_drop(packet)

    # -- observability -----------------------------------------------------------

    def attach_tracer(self, tracer) -> None:
        """Install a :class:`~repro.obs.Tracer` on this network.

        Mirrors :meth:`attach_faults`: the base class wires the shared
        switch-level hooks; simulators with non-switch machinery (Baldur's
        bufferless stages, the retransmission layer) also consult
        ``self.tracer`` inline.  Pass ``None`` to detach.
        """
        self.tracer = tracer
        self._install_obs()

    def attach_metrics(self, registry) -> None:
        """Install a :class:`~repro.obs.MetricsRegistry` on this network.

        Pass ``None`` to detach.
        """
        self.metrics = registry
        self._install_obs()

    def _install_obs(self) -> None:
        """(Re)wire observability hooks into every exposed switch.

        Idempotent; when both tracer and metrics are detached the hooks
        are reset to ``None`` so the hot path pays nothing again.
        """
        observing = self.tracer is not None or self.metrics is not None
        for switch in self.iter_switches():
            switch.arrival_hook = self._obs_switch_arrival if observing else None
            for port in switch.ports:
                port.stall_hook = (
                    functools.partial(self._obs_credit_stall, switch.sid)
                    if observing
                    else None
                )

    def _obs_switch_arrival(self, switch, packet: Packet) -> None:
        """Passive observer for electrical switch header arrivals."""
        now = self.env.now
        if self.tracer is not None:
            self.tracer.record(
                now,
                "stage_arrival",
                packet,
                switch=switch.sid,
                stage=switch.meta.get("stage"),
            )
        if self.metrics is not None:
            self.metrics.incr("arrivals", switch.sid, now)
            self.metrics.observe_max(
                "occupancy_bytes",
                switch.sid,
                now,
                sum(port.queued_bytes for port in switch.ports),
            )

    def _obs_credit_stall(self, sid: int, packet: Packet) -> None:
        """Passive observer for head-of-line credit stalls."""
        now = self.env.now
        if self.tracer is not None:
            self.tracer.record(
                now, "credit_stall", packet, switch=sid
            )
        if self.metrics is not None:
            self.metrics.incr("credit_stalls", sid, now)

    # -- execution ----------------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        shards: int = 1,
        shard_latency_ns: float = 0.0,
    ) -> LatencyStats:
        """Run to completion (or to ``until`` ns), audit packet
        conservation, and return the stats.

        ``shards > 1`` executes the submitted workload on that many
        event kernels in parallel worker processes, synchronized with
        conservative lookahead windows (:mod:`repro.shard`, DESIGN.md
        section 14).  ``shards=1`` is the single-kernel path, untouched.
        ``shard_latency_ns`` adds inter-cabinet fiber delay on cut
        inter-stage hops (stage-cut plans only; 0.0 keeps single-cabinet
        physics and a lookahead of one switch latency).
        """
        if shards != 1:
            from repro.shard.engine import run_sharded

            result: LatencyStats = run_sharded(
                self, shards, until=until, shard_latency_ns=shard_latency_ns
            )
            return result
        self._run_kernel(until)
        self.audit()
        return self.stats

    def _run_kernel(self, until: Optional[float]) -> None:
        """Advance the event kernel to ``until`` (or to exhaustion): the
        one loop step that single-kernel runs and shard workers share."""
        self.env.run(until=until)

    # -- sharded execution hooks (repro.shard) -----------------------------------
    #
    # The window engine drives worker replicas of this network through the
    # hooks below; networks that support sharded execution override
    # shard_plan/shard_recipe (and the inbox handler) while the generic
    # ledger/stats merge lives here.  See DESIGN.md section 14.

    def shard_plan(self, n_shards: int, shard_latency_ns: float = 0.0) -> Any:
        """Partition plan for this network (see :mod:`repro.shard.plan`)."""
        raise ShardingUnsupportedError(
            f"{type(self).__name__} defines no shard partition plan"
        )

    def _shard_check_supported(self) -> None:
        """Veto hook: subclasses raise ShardingUnsupportedError for
        subclass-specific state the worker replicas cannot reproduce
        (e.g. Baldur's injected faults or diagnosis modes)."""

    def shard_recipe(self) -> Tuple[Any, Dict[str, Any]]:
        """``(cls, ctor_kwargs)`` used to build worker replicas.  The
        kwargs reuse the live topology object (inherited copy-on-write by
        forked workers, never pickled)."""
        raise ShardingUnsupportedError(
            f"{type(self).__name__} cannot build shard worker replicas"
        )

    def _shard_bind(self, ctx: Any, root_seed: int) -> None:
        """Attach a worker replica to its ShardContext.  Subclasses with
        RNG streams rebind them here to the documented per-shard contract
        ``derive_seed(root_seed, f"shard:{i}")``."""
        self._shard_ctx = ctx

    def _shard_resubmit(
        self, injections: Sequence[Tuple[float, Packet]], next_pid: int
    ) -> None:
        """Replay this shard's slice of the submitted workload, preserving
        the parent-assigned pids (global uniqueness) and the global pid
        counter (locally allocated ACK pids start past every data pid)."""
        record_injection = self.stats.record_injection
        outstanding_add = self._outstanding.add
        inject = self._inject
        to_schedule = []
        for when, packet in injections:
            record_injection()
            outstanding_add(packet.pid)
            to_schedule.append((when, inject, (packet,)))
        self.env.schedule_batch(to_schedule)
        self._next_pid = next_pid

    def _shard_schedule_inbox(self, messages: Sequence[Any]) -> None:
        """Turn one window's cross-shard messages into local events.
        Messages arrive sorted by (time, origin shard, origin index)."""
        raise ShardingUnsupportedError(
            f"{type(self).__name__} defines no cross-shard message handler"
        )

    def _shard_apply_notices(self, notices: Sequence[Tuple[int, int]]) -> None:
        """Apply one window's ledger notices (barrier metadata, never
        simulated events, so a delivery just before the horizon still
        closes its ledger entry)."""
        outstanding = self._outstanding
        for kind, pid in notices:
            if kind == NOTICE_DELIVERED:
                if pid in outstanding:
                    outstanding.remove(pid)
                    self._shard_note_remote_delivery(pid)
                else:
                    self._shard_unmatched_delivery_notice(pid)
            elif kind == NOTICE_TERMINAL:
                if pid in outstanding:
                    outstanding.remove(pid)
                else:
                    raise InvariantViolationError(
                        f"terminal-drop notice for packet {pid} which was "
                        "already resolved on its source shard"
                    )
            else:  # pragma: no cover - protocol bug
                raise ConfigurationError(f"unknown ledger notice kind {kind}")

    def _shard_note_remote_delivery(self, pid: int) -> None:
        """A packet owned here was delivered on another shard (subclasses
        with retransmission mark it delivered so timeouts stand down)."""

    def _shard_unmatched_delivery_notice(self, pid: int) -> None:
        """Delivery notice for a pid no longer outstanding: a leak unless
        a subclass can prove a benign outcome conflict (see Baldur)."""
        raise InvariantViolationError(
            f"delivery notice for packet {pid} which was already resolved "
            "on its source shard"
        )

    def _shard_export(self) -> Dict[str, Any]:
        """Worker-side final payload: counters, open ledger entries, and
        the timestamped latency log for the deterministic global merge."""
        st = self.stats
        ctx = self._shard_ctx
        assert ctx is not None
        return {
            "now": self.env.now,
            "injected": st.injected,
            "delivered": st.delivered,
            "drops": st.drops,
            "ack_drops": st.ack_drops,
            "retransmissions": st.retransmissions,
            "terminal_drops": st.terminal_drops,
            "given_up": st.given_up,
            "outstanding": sorted(self._outstanding),
            "corrections": self._ledger_corrections,
            "latency_log": ctx.latency_log,
            "next_pid": self._next_pid,
        }

    def _shard_absorb(
        self,
        payloads: Sequence[Dict[str, Any]],
        plan: Any,
        until: Optional[float],
    ) -> None:
        """Merge worker payloads back into this (parent) network.

        Latencies are rebuilt ordered by ``(deliver_time, shard, local
        index)`` — a pure function of (seed, shard count), so the merged
        stats (and their digest) are deterministic.  The parent kernel's
        pending injections are cleared (the workers executed them) and
        its clock is advanced to the horizon.
        """
        st = self.stats
        for field in (
            "injected",
            "delivered",
            "drops",
            "ack_drops",
            "retransmissions",
            "terminal_drops",
            "given_up",
        ):
            setattr(st, field, sum(p[field] for p in payloads))
        merged: List[Tuple[float, int, int, float]] = []
        for shard, payload in enumerate(payloads):
            for idx, (when, latency) in enumerate(payload["latency_log"]):
                merged.append((when, shard, idx, latency))
        merged.sort(key=lambda e: (e[0], e[1], e[2]))
        st.latencies = [e[3] for e in merged]
        self._outstanding = set()
        for payload in payloads:
            self._outstanding.update(payload["outstanding"])
        self._ledger_corrections = sum(p["corrections"] for p in payloads)
        self._next_pid = max(p["next_pid"] for p in payloads)
        env = self.env
        env._queue.clear()
        env._run = []
        env._ridx = 0
        env._now = (
            float(until)
            if until is not None
            else max(float(p["now"]) for p in payloads)
        )
