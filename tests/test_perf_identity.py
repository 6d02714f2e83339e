"""Drained/instrumented identity tests.

The hot-path work (DESIGN.md section 10) gave Baldur one fast hop
handler -- ``BaldurNetwork._drain``, a copy of the kernel's merge loop
with an allocation-free arbitration scan inlined, taken by plain runs
and shard workers alike -- and one instrumented handler,
``_arrive_stage``, which builds the explicit free-port list and serves
every hop the drain cannot take (tracer, metrics, faults, masks, test
mode, path recording, a kernel profile).  It also split the kernel's
event sources into a heap, a sorted batch list and constant-delay FIFO
lanes.  None of that may change simulation *results*: these tests pin
the drained runs byte-identical -- same ``StatsSummary`` including the
per-packet latency digest, same ``audit()`` ledger, same recorded
paths -- to the instrumented ones on a contended cell.
"""

import tracemalloc
from heapq import heappush

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.analysis.experiments import pattern_destinations, run_open_loop
from repro.core.baldur_network import BaldurNetwork
from repro.faults import FaultInjector, SlowGateDrift
from repro.netsim.stats import StatsSummary
from repro.obs import MetricsRegistry, Tracer
from repro.shard import run_sharded
from repro.traffic import (
    inject_open_loop,
    ping_pong1_pairs,
    run_ping_pong,
    transpose,
)
from repro.zoo import build_network

# Small but contended: random permutation at load 0.9 on 64 nodes
# exercises arbitration ties, drops, retransmissions, and ACK traffic in
# under a second.
CELL = dict(
    n_nodes=64, pattern="random_permutation", load=0.9, packets_per_node=10
)


def _summary(tracer=None, metrics=None) -> dict:
    stats = run_open_loop(
        "baldur", CELL["n_nodes"], CELL["pattern"], CELL["load"],
        CELL["packets_per_node"], seed=3, tracer=tracer, metrics=metrics,
    )
    return StatsSummary.from_stats(stats).to_dict()


class TestFastSlowPathIdentity:
    def test_metrics_slow_path_is_byte_identical(self):
        """Attaching metrics forces the list-building arbitration path;
        results (including the latency digest) must not move."""
        fast = _summary()
        slow = _summary(metrics=MetricsRegistry(window_ns=1000.0))
        assert fast == slow

    def test_tracer_takes_instrumented_handler_with_same_results(self):
        """A tracer moves every hop from the drain to ``_arrive_stage``;
        results must not move."""
        fast = _summary()
        traced = _summary(tracer=Tracer(capacity=100_000))
        assert fast == traced

    def test_fully_instrumented_run_is_byte_identical(self):
        fast = _summary()
        instrumented = _summary(
            tracer=Tracer(capacity=100_000),
            metrics=MetricsRegistry(window_ns=1000.0),
        )
        assert fast == instrumented
        # The cell must actually exercise the contended paths, or the
        # assertions above prove nothing.
        assert instrumented["drops"] + instrumented["ack_drops"] > 0
        assert instrumented["retransmissions"] > 0


# -- the hop lane and the fused drain ---------------------------------------------
#
# Three ways to execute the same cell:
#   drain    BaldurNetwork.run as shipped: the drain loop, hops on the lane;
#   general  a kernel profile attached, so the drain never starts and
#            Environment.run's lane-merging loop calls _arrive_stage per hop;
#   heap     general, with every hop push forced onto the heap -- the
#            pre-lane kernel, and the reference the other two must equal.

ENGINES = ("drain", "general", "heap")


class _HeapLane:
    """Stands in for the hop lane; what is appended goes onto the heap."""

    def __init__(self, env):
        self._queue = env._queue

    def append(self, item):
        # The item was built by an audited push site; only its queue changes.
        heappush(self._queue, item)  # repro-lint: disable=FAST-001

    def popleft(self):
        raise AssertionError("nothing ever waits on this lane")

    def __len__(self):
        return 0


def _build(n_nodes: int, engine: str, seed: int = 3) -> BaldurNetwork:
    net = BaldurNetwork(n_nodes, seed=seed)
    if engine == "heap":
        net._hop_lane = _HeapLane(net.env)
    if engine != "drain":
        net.env.enable_profiling()
    return net


def _open_loop(n_nodes: int, engine: str, seed: int = 3) -> BaldurNetwork:
    net = _build(n_nodes, engine, seed)
    inject_open_loop(
        net, pattern_destinations(CELL["pattern"], n_nodes, seed),
        CELL["load"], CELL["packets_per_node"], seed=seed,
    )
    return net


def _outcome(net) -> dict:
    return {
        "summary": StatsSummary.from_stats(net.stats).to_dict(),
        "ledger": net.audit(),
        "paths": net.paths,
        "now": net.env.now,
    }


def _mid_run(net) -> float:
    """A time with about half of the injections on either side of it."""
    times = sorted(item[0] for item in net.env.pending())
    return times[len(times) // 2]


# What a scheduled callback does to the network mid-run.  Each leaves
# ``_fast`` false, so the drain must hand over at that very event; each
# (but the tracer, which is passive) changes what later hops do, so a
# drain that kept going would also get the physics wrong.
def _attach_tracer(net):
    net.attach_tracer(Tracer(capacity=1_000_000))


def _mask_switch(net):
    net.mask_switch(2, 5)


def _inject_fault(net):
    net.inject_fault(3, 7)


def _slow_gates(net):
    # Every stage-1 switch stretches its hops: those keys overtake later
    # plain hops, which is what keeps them off the (append-only) lane.
    sps = net.topology.switches_per_stage
    net.attach_faults(FaultInjector(
        SlowGateDrift(sps + s, extra_latency_ns=4.0) for s in range(sps)
    ))


def _test_mode(net):
    net.enable_test_mode(1)


MUTATIONS = (_attach_tracer, _mask_switch, _inject_fault, _slow_gates,
             _test_mode)


class TestDrainAndLaneIdentity:
    @pytest.mark.parametrize("n_nodes", [64, 256])
    def test_drain_general_and_heap_engines_agree(
        self, n_nodes, stages_called
    ):
        outcomes = {}
        for engine in ENGINES:
            stages_called.clear()
            net = _open_loop(n_nodes, engine)
            net.run()
            outcomes[engine] = _outcome(net)
            # The drain inlines every hop, off the lane or (first hops,
            # pushed by _transmit) off the heap.
            assert stages_called == (
                set() if engine == "drain"
                else set(range(net.topology.n_stages))
            )
        assert outcomes["drain"] == outcomes["heap"]
        assert outcomes["general"] == outcomes["heap"]
        summary = outcomes["heap"]["summary"]
        assert summary["drops"] + summary["ack_drops"] > 0
        assert summary["retransmissions"] > 0

    @pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("n_nodes", [64, 256])
    def test_drain_hands_over_at_a_mid_run_mutation(
        self, n_nodes, mutate, stages_called
    ):
        outcomes = {}
        for engine in ENGINES:
            stages_called.clear()
            net = _open_loop(n_nodes, engine)

            def callback(net=net, engine=engine):
                assert stages_called == (
                    set() if engine == "drain"
                    else set(range(net.topology.n_stages))
                )
                mutate(net)
                net.record_paths = True

            net.env.schedule_at(_mid_run(net), callback)
            net.run()
            outcomes[engine] = _outcome(net)
            outcomes[engine]["traced"] = (
                net.tracer.counts if net.tracer is not None else None
            )
            # After the hand-over every hop is a call again.
            assert stages_called == set(range(net.topology.n_stages))
            assert net.paths
        assert outcomes["drain"] == outcomes["heap"]
        assert outcomes["general"] == outcomes["heap"]

    def test_overridden_hop_handler_sees_every_hop(self):
        """The drain inlines BaldurNetwork's own handler, so it steps
        aside for a subclass that replaces it."""
        seen = set()

        class Subclass(BaldurNetwork):
            __slots__ = ()

            def _arrive_stage(self, packet, stage, switch):
                seen.add(stage)
                super()._arrive_stage(packet, stage, switch)

        net = Subclass(64, seed=3)
        inject_open_loop(
            net, pattern_destinations(CELL["pattern"], 64, 3),
            CELL["load"], CELL["packets_per_node"], seed=3,
        )
        net.run()
        assert seen == set(range(net.topology.n_stages))
        reference = _open_loop(64, "heap")
        reference.run()
        assert _outcome(net) == _outcome(reference)

    @pytest.mark.parametrize("n_nodes", [64, 256])
    def test_run_in_pieces_equals_one_run(self, n_nodes):
        whole = _open_loop(n_nodes, "heap")
        whole.run()
        for engine in ("drain", "general"):
            net = _open_loop(n_nodes, engine)
            t1 = _mid_run(net)
            net.run(until=t1)
            assert net.env.now == t1
            net.run(until=2 * t1)
            assert net.env.now == 2 * t1
            net.run()
            assert _outcome(net) == _outcome(whole)

    def test_horizon_is_inclusive_and_leaves_the_rest_pending(self):
        """run(until=t) dispatches a hop stamped exactly t, and nothing
        later -- from the lane, the heap or the batch list."""
        times = {}
        for engine in ENGINES:
            net = _open_loop(64, engine)
            net.run(until=_mid_run(net))
            # Stop exactly on a pending hop's timestamp.
            hop_time = min(
                t for t, _, fn, _ in net.env.pending()
                if fn == net._arrive_stage
            )
            net.run(until=hop_time)
            pending = sorted(t for t, *_ in net.env.pending())
            assert pending[0] > hop_time
            assert net.env.peek() == pending[0]
            times[engine] = (hop_time, pending)
        assert times["drain"] == times["general"] == times["heap"]

    @pytest.mark.parametrize("n_nodes", [64, 256])
    def test_closed_loop_receive_hook_submits(self, n_nodes):
        outcomes = {}
        for engine in ENGINES:
            net = _build(n_nodes, engine)
            run_ping_pong(net, ping_pong1_pairs(n_nodes, seed=3), rounds=4)
            outcomes[engine] = _outcome(net)
        assert outcomes["drain"] == outcomes["heap"]
        assert outcomes["general"] == outcomes["heap"]
        assert outcomes["heap"]["ledger"]["delivered"] > n_nodes

    @pytest.mark.parametrize("n_nodes", [64, 256])
    def test_two_inline_shards_match_single_kernel_uncontended(self, n_nodes):
        def cell():
            net = BaldurNetwork(n_nodes, seed=5)
            inject_open_loop(net, transpose(n_nodes), 0.2, 3, seed=5)
            return net

        ref = cell().run()
        assert ref.drops == 0  # uncontended, or the RNG streams matter
        net = cell()
        stats = run_sharded(net, 2, backend="inline")
        assert stats.conservation() == ref.conservation()
        assert sorted(stats.latencies) == sorted(ref.latencies)


# -- any sequence of API calls: drained == instrumented --------------------------

# How far each step runs both copies: up to about a third of the cell.
DELTA = st.integers(0, 1500)


class DrainedEqualsInstrumented(RuleBasedStateMachine):
    """Random steps applied alike to two copies of one contended cell.

    ``drained`` is the network as shipped: its hops take the drain
    whenever ``_fast`` allows.  ``instrumented`` has a kernel profile
    attached, so every one of its hops takes ``_arrive_stage``.  Each
    step changes something -- attaches or detaches an observer, masks or
    faults a switch, switches test mode or path recording, submits a
    packet, or nothing -- and then runs both copies ``delta`` ns further,
    so every change is a point where the drain must hand over (or may
    resume) with events still to dispatch.  After every step both copies
    must agree on everything observable, with a balanced ledger.
    """

    def __init__(self):
        super().__init__()
        self.drained = _open_loop(64, "drain")
        self.instrumented = _open_loop(64, "general")
        self.nets = (self.drained, self.instrumented)
        topology = self.drained.topology
        self.n_stages = topology.n_stages
        self.sps = topology.switches_per_stage

    def _step(self, change, delta):
        for net in self.nets:
            change(net)
            net.run(until=net.env.now + delta)

    @rule(attach=st.booleans(), delta=DELTA)
    def tracer(self, attach, delta):
        self._step(lambda net: net.attach_tracer(
            Tracer(capacity=1_000_000) if attach else None
        ), delta)

    @rule(attach=st.booleans(), delta=DELTA)
    def metrics(self, attach, delta):
        self._step(lambda net: net.attach_metrics(
            MetricsRegistry(window_ns=1000.0) if attach else None
        ), delta)

    @rule(stage=st.integers(0, 63), switch=st.integers(0, 63),
          mask=st.booleans(), delta=DELTA)
    def mask_switch(self, stage, switch, mask, delta):
        at = (stage % self.n_stages, switch % self.sps)
        self._step(lambda net: (
            net.mask_switch(*at) if mask else net.unmask_switch(*at)
        ), delta)

    @rule(stage=st.integers(0, 63), switch=st.integers(0, 63), delta=DELTA)
    def inject_fault(self, stage, switch, delta):
        at = (stage % self.n_stages, switch % self.sps)
        self._step(lambda net: net.inject_fault(*at), delta)

    @rule(flat=st.integers(0, 1023), delta=DELTA)
    def slow_gate(self, flat, delta):
        flat %= self.n_stages * self.sps
        self._step(lambda net: net.attach_faults(FaultInjector(
            [SlowGateDrift(flat, extra_latency_ns=4.0)]
        )), delta)

    @rule(port=st.integers(0, 3), delta=DELTA)
    def test_mode(self, port, delta):
        self._step(lambda net: net.enable_test_mode(port), delta)

    @rule(on=st.booleans(), delta=DELTA)
    def record_paths(self, on, delta):
        self._step(lambda net: setattr(net, "record_paths", on), delta)

    @rule(src=st.integers(0, 63), offset=st.integers(1, 63),
          delay=st.integers(0, 500), delta=DELTA)
    def submit(self, src, offset, delay, delta):
        self._step(lambda net: net.submit(
            src, (src + offset) % 64, time=net.env.now + delay
        ), delta)

    @rule(delta=DELTA)
    def run_piece(self, delta):
        self._step(lambda net: None, delta)

    @invariant()
    def copies_agree(self):
        drained, instrumented = (_outcome(net) for net in self.nets)
        # repr: before the first delivery the latency averages are NaN.
        assert repr(drained) == repr(instrumented)
        assert drained["ledger"]["balance"] == 0
        assert (
            self.drained.tracer is None and self.instrumented.tracer is None
            or self.drained.tracer.counts == self.instrumented.tracer.counts
        )


TestDrainedEqualsInstrumented = DrainedEqualsInstrumented.TestCase
TestDrainedEqualsInstrumented.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)


class TestCostGolden:
    """Deterministic cost of one cell on Baldur and on the electrical
    multi-butterfly (ROADMAP 4(d) and 8(c), first slices).

    Event counts are exact and host-independent, so unlike wall time a
    change in them can block: they move only when the event model does.
    The peak counts *pending events* wherever they wait, so the numbers
    are the same with hops on the lane and with every push on the heap.
    The electrical rows also pin how many ports ever allocate a FIFO,
    and bound what building the fabric allocates per port.
    """

    EVENTS = 10_318
    PEAK_PENDING = 919
    DELIVERED = 640

    @pytest.mark.parametrize("engine", ["general", "heap"])
    def test_64_node_cell_event_counts(self, engine):
        net = _open_loop(64, engine, seed=0)
        stats = net.run()
        profile = net.env.profile
        assert profile.events_dispatched == self.EVENTS
        assert profile.max_heap_depth == self.PEAK_PENDING
        assert stats.delivered == self.DELIVERED
        assert round(self.EVENTS / self.DELIVERED, 3) == 16.122

    # The electrical multi-butterfly on the same cell (random permutation,
    # load 0.9, 10 packets per node, seed 0).
    MB_EVENTS = 13_440
    MB_PEAK_PENDING = 827
    MB_PORTS = 1_408
    MB_PORTS_WITH_FIFO = 510

    @staticmethod
    def _mb_ports(net):
        return [port for sw in net.switches for port in sw.ports] + [
            host.nic for host in net.hosts
        ]

    def test_64_node_multibutterfly_cell_counts(self):
        net = build_network("multibutterfly", 64, seed=0)
        net.env.enable_profiling()
        inject_open_loop(
            net, pattern_destinations(CELL["pattern"], 64, 0),
            CELL["load"], CELL["packets_per_node"], seed=0,
        )
        stats = net.run()
        profile = net.env.profile
        assert profile.events_dispatched == self.MB_EVENTS
        assert profile.max_heap_depth == self.MB_PEAK_PENDING
        assert stats.delivered == self.DELIVERED
        ports = self._mb_ports(net)
        assert len(ports) == self.MB_PORTS
        # A port holds a FIFO only once a packet has been queued on it.
        assert sum(port.queue is not None for port in ports) == (
            self.MB_PORTS_WITH_FIFO
        )

    def test_multibutterfly_build_bytes_per_port(self):
        """An idle port costs its slots and its buffer, not an empty FIFO
        (a ``deque`` alone is 760 bytes)."""
        tracemalloc.start()
        try:
            net = build_network("multibutterfly", 256, seed=0)
            allocated, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert allocated / len(self._mb_ports(net)) <= 600
