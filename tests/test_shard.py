"""The sharded multi-kernel engine (``repro.shard``, DESIGN.md sec. 14).

Contract under test:

* **equivalence** -- on uncontended cells (no drops, no retransmissions)
  a sharded run delivers exactly the single-kernel packets: same
  conservation ledger, same latency multiset;
* **determinism** -- repeated sharded runs are bit-identical, the inline
  and process backends are bit-identical to each other, and the result
  is independent of IPC arrival order by construction;
* **conservation** -- ``audit()`` holds globally even under contention,
  where per-shard RNG streams legitimately change drop/retransmission
  outcomes relative to the single kernel;
* **refusal** -- configurations the conservative-lookahead protocol
  cannot honor (zero-lookahead electrical fabrics, attached
  observability, closed-loop hooks) raise ``ShardingUnsupportedError``
  instead of silently diverging.
"""

import pytest

from repro.analysis.experiments import build_network
from repro.core.baldur_network import BaldurNetwork
from repro.errors import ConfigurationError, ShardingUnsupportedError
from repro.netsim.stats import StatsSummary
from repro.shard import run_sharded, shard_stream_seed
from repro.sim.rand import derive_seed
from repro.traffic import inject_open_loop, transpose


def _cell(network, n_nodes=16, load=0.2, packets_per_node=3, seed=5):
    net = build_network(network, n_nodes, seed)
    inject_open_loop(
        net, transpose(n_nodes), load, packets_per_node, seed=seed
    )
    return net


SHARDABLE = ("baldur",)
ELECTRICAL = ("multibutterfly", "dragonfly", "fattree")


class TestEquivalence:
    """Uncontended cells: sharded == single-kernel, packet for packet."""

    @pytest.mark.parametrize("network", SHARDABLE)
    def test_matches_single_kernel(self, network):
        ref = _cell(network).run()
        stats = _cell(network).run(shards=3)
        assert stats.conservation() == ref.conservation()
        assert sorted(stats.latencies) == sorted(ref.latencies)

    @pytest.mark.parametrize("network", SHARDABLE)
    def test_two_shards_match_four(self, network):
        two = _cell(network).run(shards=2)
        four = _cell(network).run(shards=4)
        assert sorted(two.latencies) == sorted(four.latencies)


class TestDeterminism:
    def test_contended_runs_identical(self):
        # Heavy transpose load: drops, BEB retransmissions, and ACKs all
        # cross shard boundaries; the two runs must still be identical.
        kwargs = dict(n_nodes=32, load=0.7, packets_per_node=10, seed=3)
        a = _cell("baldur", **kwargs).run(shards=4)
        b = _cell("baldur", **kwargs).run(shards=4)
        assert a.latencies == b.latencies
        assert a.conservation() == b.conservation()
        assert a.retransmissions == b.retransmissions

    def test_inline_and_process_backends_identical(self):
        kwargs = dict(n_nodes=32, load=0.7, packets_per_node=10, seed=3)
        inline = run_sharded(_cell("baldur", **kwargs), 4,
                             backend="inline")
        proc = run_sharded(_cell("baldur", **kwargs), 4,
                           backend="process")
        assert inline.latencies == proc.latencies
        assert inline.conservation() == proc.conservation()

    def test_shard_latency_widens_lookahead_deterministically(self):
        kwargs = dict(n_nodes=32, load=0.7, packets_per_node=10, seed=3)
        a = _cell("baldur", **kwargs).run(shards=4, shard_latency_ns=100.0)
        b = _cell("baldur", **kwargs).run(shards=4, shard_latency_ns=100.0)
        assert a.latencies == b.latencies
        # The extra inter-cabinet fiber is real simulated delay.
        zero = _cell("baldur", **kwargs).run(shards=4)
        assert min(a.latencies) > min(zero.latencies)

    def test_rng_stream_contract(self):
        # Documented contract: shard i draws from derive_seed(root,
        # "shard:i"), nothing else.
        assert shard_stream_seed(7, 2) == derive_seed(7, "shard:2")
        assert shard_stream_seed(7, 2) != shard_stream_seed(7, 3)
        assert shard_stream_seed(7, 2) != shard_stream_seed(8, 2)


class TestContendedPin:
    """Exact output of one contended sharded cell, committed.

    Sharded runs draw per-shard RNG streams, so under contention only
    these committed values -- not the single kernel -- say what the
    right answer is.  Shard workers dispatch every hop through
    ``BaldurNetwork._drain``; the instrumented ``_arrive_stage`` has no
    cross-shard sends, so the spy must see no call at all.
    """

    LEDGER = {"injected": 2400, "delivered": 2400, "terminal_drops": 0,
              "given_up": 0, "in_flight": 0, "balance": 0}

    @pytest.mark.parametrize("shard_latency_ns, summary", [
        (0.0, {"drops": 15, "ack_drops": 11, "retransmissions": 26,
               "latency_digest": "bd0472d9be2183b1adf66be3dfefd0a4"
                                 "105579bfcd3d6cad3dc6a267189805fd"}),
        (20.0, {"drops": 16, "ack_drops": 11, "retransmissions": 27,
                "latency_digest": "775c65280b485734c7370e5d4f5cb6f0"
                                  "878d4f1b8a5e730234737d170ea20b4f"}),
    ])
    def test_two_inline_shards_256_nodes(
        self, shard_latency_ns, summary, stages_called
    ):
        net = BaldurNetwork(256, seed=7)
        inject_open_loop(net, transpose(256), 0.7, 10, seed=7)
        stats = run_sharded(net, 2, backend="inline",
                            shard_latency_ns=shard_latency_ns)
        got = StatsSummary.from_stats(stats).to_dict()
        assert {key: got[key] for key in summary} == summary
        assert got["delivered"] == got["n_latencies"] == 2400
        assert net.audit() == self.LEDGER
        assert stages_called == set()


class TestConservation:
    def test_audit_holds_under_contention(self):
        net = _cell("baldur", n_nodes=32, load=0.9, packets_per_node=10,
                    seed=1)
        stats = net.run(shards=4)
        ledger = net.audit()
        assert ledger["balance"] + ledger.get("conflict_corrections", 0) == 0
        assert stats.injected == ledger["injected"] > 0

    def test_unsharded_audit_unchanged(self):
        net = _cell("baldur")
        net.run()
        ledger = net.audit()
        assert "conflict_corrections" not in ledger
        assert ledger["balance"] == 0


class TestRefusal:
    @pytest.mark.parametrize("network", ELECTRICAL)
    def test_electrical_fabrics_refuse(self, network):
        net = _cell(network)
        with pytest.raises(ShardingUnsupportedError,
                           match="flow-control credits"):
            net.run(shards=2)

    def test_ideal_refuses(self):
        net = _cell("ideal")
        with pytest.raises(ShardingUnsupportedError,
                           match="defines no shard partition plan"):
            net.run(shards=2)

    def test_attached_tracer_refuses(self):
        from repro.obs import Tracer

        net = _cell("baldur")
        net.attach_tracer(Tracer())
        with pytest.raises(ShardingUnsupportedError):
            net.run(shards=2)

    def test_receive_hook_refuses(self):
        net = _cell("baldur")
        net.receive_hook = lambda packet, time: None
        with pytest.raises(ShardingUnsupportedError):
            net.run(shards=2)

    def test_started_clock_refuses(self):
        net = _cell("baldur")
        net.run(until=50.0)
        with pytest.raises(ShardingUnsupportedError):
            net.run(shards=2)

    def test_shards_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            _cell("baldur").run(shards=0)

    def test_masked_switch_refuses(self):
        net = _cell("baldur")
        net.mask_switch(1, 0)
        with pytest.raises(ShardingUnsupportedError):
            net.run(shards=2)

    def test_overridden_hop_handler_refuses(self):
        # Workers drain every hop, so a replacement handler would never run.
        class Subclass(BaldurNetwork):
            __slots__ = ()

            def _arrive_stage(self, packet, stage, switch):
                super()._arrive_stage(packet, stage, switch)

        net = Subclass(16, seed=5)
        inject_open_loop(net, transpose(16), 0.2, 3, seed=5)
        with pytest.raises(ShardingUnsupportedError, match="hop handler"):
            net.run(shards=2)


class TestRunnerIntegration:
    def test_workload_kind_rejects_shards(self):
        from repro.runner.jobs import execute_job

        with pytest.raises(ConfigurationError, match="closed-loop"):
            execute_job("workload", {
                "workload": "hotspot", "network": "baldur", "n_nodes": 16,
                "packets_per_node": 4, "seed": 0, "until": 1e6,
                "ping_pong_rounds": 2, "shards": 2,
            })

    def test_resilience_kind_rejects_shards(self):
        from repro.runner.jobs import execute_job

        with pytest.raises(ConfigurationError, match="faults"):
            execute_job("resilience", {
                "network": "baldur", "n_nodes": 16, "k": 1, "load": 0.3,
                "packets_per_node": 4, "seed": 0, "until": 1e6,
                "shards": 2,
            })

    def test_cli_rejects_shards_on_closed_loop_commands(self):
        from repro.cli import main

        # The flag is only registered on table5 and zoo.
        for command in ("fig6", "fig7", "fig9", "resilience"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--shards", "2"])
            assert exc.value.code == 2

    def test_open_loop_spec_threads_shards(self):
        from repro.analysis.experiments import figure6_spec
        from repro.runner import run_sweep

        def sweep_with(**kw):
            spec = figure6_spec(n_nodes=16, loads=(0.2,),
                                patterns=("random_permutation",),
                                packets_per_node=3, networks=("baldur",),
                                seed=5, **kw)
            sweep = run_sweep(spec, jobs=1, use_cache=False)
            assert sweep.ok
            return sweep.outcomes[0].result

        # Uncontended cell: the sharded sweep result equals the plain one
        # (the spec key differs, but the simulated physics do not).
        sharded = sweep_with(shards=3)
        plain = sweep_with()
        assert sharded["delivered"] == plain["delivered"] > 0
        assert sharded["avg_latency_ns"] == plain["avg_latency_ns"]

    def test_default_specs_unchanged_without_shards(self):
        from repro.analysis.experiments import figure6_spec, table5_spec

        for spec in (figure6_spec(), table5_spec(),
                     figure6_spec(networks=("baldur",))):
            assert "shards" not in spec.fixed
            assert "shard_latency_ns" not in spec.fixed
