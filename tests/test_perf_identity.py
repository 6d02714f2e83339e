"""Fast-path/slow-path identity tests.

The hot-path work (DESIGN.md section 10) split Baldur's arbitration into
an allocation-free fast path and an instrumented slow path (taken when
test mode, degraded mode, or metrics are active), and split the kernel's
event sources into a heap plus a sorted batch list.  None of that may
change simulation *results*: these tests pin the optimized paths
byte-identical -- same ``StatsSummary`` including the per-packet latency
digest -- to the instrumented ones on a contended cell.
"""

from repro.analysis.experiments import run_open_loop
from repro.netsim.stats import StatsSummary
from repro.obs import MetricsRegistry, Tracer

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

    def test_tracer_keeps_fast_path_and_results(self):
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
