"""Tests for the power models against the paper's published anchors."""

from pathlib import Path

import pytest

from repro import constants as C
from repro.power import (
    FIG8_SCALES,
    NETWORK_POWER_MODELS,
    awgr_comparison,
    baldur_power,
    baldur_switch_power_per_node,
    dragonfly_power,
    electrical_2x2_switch_power_w,
    electrical_internal_power_w,
    fattree_power,
    multibutterfly_power,
    power_scaling_sweep,
    scaled_power,
    sensitivity_ratios,
    tl_switch_power_w,
)


class TestCalibrationAnchors:
    def test_966x_anchor_exact(self):
        # Abstract: the 2x2 electrical switch consumes 96.6X more power
        # than the TL switch.
        ratio = electrical_2x2_switch_power_w(4) / tl_switch_power_w(4)
        assert ratio == pytest.approx(C.ELECTRICAL_TO_TL_SWITCH_POWER_RATIO)

    def test_tl_switch_power_from_gates(self):
        assert tl_switch_power_w(4) == pytest.approx(
            1112 * 0.406e-3, rel=0.01
        )

    def test_internal_power_quadratic(self):
        assert electrical_internal_power_w(16) == pytest.approx(
            4 * electrical_internal_power_w(8)
        )

    def test_internal_power_validation(self):
        with pytest.raises(ValueError):
            electrical_internal_power_w(1)


class TestMultiButterflyAnchor:
    def test_emb_1k_near_2235_w(self):
        # Sec. II-A: 223.5 W per node at 1,024 nodes.
        total = multibutterfly_power(1024).total
        assert total == pytest.approx(C.EMB_POWER_PER_NODE_1K_W, rel=0.05)

    def test_emb_oeo_serdes_fraction_near_417pct(self):
        frac = multibutterfly_power(1024).oeo_serdes_fraction
        assert frac == pytest.approx(C.EMB_OEO_SERDES_FRACTION, abs=0.03)

    def test_emb_6x_fattree_at_1k(self):
        ratio = multibutterfly_power(1024).total / fattree_power(1024).total
        assert ratio == pytest.approx(
            C.EMB_TO_FATTREE_POWER_RATIO_1K, rel=0.2
        )

    def test_emb_growth_2x_to_1m(self):
        # Fig. 8: eMB per-node power doubles from 1K to 1M (10 -> 20
        # stages at fixed multiplicity).
        growth = (
            multibutterfly_power(2**20).total
            / multibutterfly_power(1024).total
        )
        assert growth == pytest.approx(
            C.POWER_GROWTH_1K_TO_1M["multibutterfly"], rel=0.05
        )


class TestSec2AAsPrinted:
    def test_experiments_prints_what_the_code_computes(self):
        """EXPERIMENTS.md Sec. II-A, recomputed at its printed precision."""
        emb = multibutterfly_power(1024)
        ft_1k = fattree_power(1024).total
        values = {
            "220.1": f"{emb.total:.1f}",
            "40.8": f"{100 * emb.oeo_serdes_fraction:.1f}",
            "5.2": f"{emb.total / ft_1k:.1f}",
            "4.05": f"{fattree_power(128_000).total / ft_1k:.2f}",
        }
        assert list(values) == list(values.values())
        doc = (Path(__file__).parents[1] / "EXPERIMENTS.md").read_text(
            encoding="utf-8"
        )
        section = doc.split("## Sec. II-A")[1].split("\n## ")[0]
        assert all(printed in section for printed in values)


class TestBaldurPower:
    def test_baldur_cheapest_at_every_scale(self):
        for scale in FIG8_SCALES:
            baldur = baldur_power(scale).total
            for name, model in NETWORK_POWER_MODELS.items():
                if name != "baldur":
                    assert model(scale).total > baldur, (name, scale)

    def test_advantage_range_at_1k(self):
        # Fig. 8: 3.2X-26.4X at the 1K-2K scale.
        baldur = baldur_power(1024).total
        ratios = [
            NETWORK_POWER_MODELS[n](1024).total / baldur
            for n in ("dragonfly", "fattree", "multibutterfly")
        ]
        assert min(ratios) == pytest.approx(
            C.BALDUR_POWER_ADVANTAGE_1K[0], rel=0.25
        )
        assert max(ratios) == pytest.approx(
            C.BALDUR_POWER_ADVANTAGE_1K[1], rel=0.25
        )

    def test_advantage_range_at_1m(self):
        baldur = baldur_power(2**20).total
        ratios = [
            NETWORK_POWER_MODELS[n](2**20).total / baldur
            for n in ("dragonfly", "fattree", "multibutterfly")
        ]
        assert min(ratios) == pytest.approx(
            C.BALDUR_POWER_ADVANTAGE_1M[0], rel=0.25
        )
        assert max(ratios) == pytest.approx(
            C.BALDUR_POWER_ADVANTAGE_1M[1], rel=0.25
        )

    def test_baldur_growth_17x(self):
        growth = baldur_power(2**20).total / baldur_power(1024).total
        assert growth == pytest.approx(
            C.POWER_GROWTH_1K_TO_1M["baldur"], rel=0.1
        )

    def test_multiplicity_bump_at_16k(self):
        # Sec. VI-A: the benefit dips at 16K because m goes 4 -> 5.
        per_switch_8k = baldur_power(8192).detail["multiplicity"]
        per_switch_16k = baldur_power(16384).detail["multiplicity"]
        assert (per_switch_8k, per_switch_16k) == (4, 5)

    def test_retx_buffer_included(self):
        assert baldur_power(1024).retx_buffer == pytest.approx(0.741)

    def test_explicit_multiplicity_override(self):
        assert baldur_power(1024, 5).total > baldur_power(1024, 4).total


class TestFatTreeAndDragonfly:
    def test_fattree_growth_near_9x(self):
        growth = fattree_power(2**20).total / fattree_power(1024).total
        assert growth == pytest.approx(
            C.POWER_GROWTH_1K_TO_1M["fattree"], rel=0.2
        )

    def test_dragonfly_growth_near_78x(self):
        growth = dragonfly_power(2**20).total / dragonfly_power(1024).total
        assert growth == pytest.approx(
            C.POWER_GROWTH_1K_TO_1M["dragonfly"], rel=0.3
        )

    def test_dragonfly_local_links_go_optical_at_83k(self):
        below = dragonfly_power(32_768)
        above = dragonfly_power(120_000)
        assert below.detail["local_links_optical"] == 0.0
        assert above.detail["local_links_optical"] == 1.0

    def test_fattree_128k_growth_vs_1k(self):
        # Sec. II-A: radix-80 fat-tree at 128K uses several times more
        # power per node than the radix-16 tree at 1K (paper: 6.4X).
        growth = fattree_power(128_000).total / fattree_power(1024).total
        assert 3.0 < growth < 7.0

    def test_sweep_covers_all_networks(self):
        sweep = power_scaling_sweep([1024, 4096])
        assert set(sweep) == set(NETWORK_POWER_MODELS)
        assert all(len(v) == 2 for v in sweep.values())


class TestSensitivity:
    def test_pessimistic_case_still_favors_baldur(self):
        # Fig. 9: even with electrical halved and optical doubled, Baldur
        # wins by 5.1X / 8.2X / 14.7X at the 1M scale.
        ratios = sensitivity_ratios(2**20, "pessimistic")
        for name, paper in C.SENSITIVITY_PESSIMISTIC_RATIOS.items():
            assert ratios[name] == pytest.approx(paper, rel=0.35)
            assert ratios[name] > 3.0

    def test_optimistic_case_increases_advantage(self):
        base = sensitivity_ratios(2**20, "baseline")
        optimistic = sensitivity_ratios(2**20, "optimistic")
        for name in base:
            assert optimistic[name] > base[name]

    def test_scaled_power_unknown_network(self):
        with pytest.raises(KeyError):
            scaled_power("token-ring", 1024, 1.0, 1.0)


class TestAWGR:
    def test_baldur_07_w_at_32_nodes(self):
        power = baldur_switch_power_per_node(32)
        assert power == pytest.approx(
            C.BALDUR_32NODE_POWER_PER_NODE_W, rel=0.1
        )

    def test_awgr_42_w_at_32_nodes(self):
        report = awgr_comparison()
        assert report["awgr_w_per_node"] == pytest.approx(
            C.AWGR_32NODE_POWER_PER_NODE_W, rel=0.01
        )

    def test_awgr_latency_disadvantage(self):
        report = awgr_comparison()
        assert report["awgr_header_latency_ns"] > 50 * (
            report["baldur_switch_latency_ns"]
        )

    def test_awgr_wavelength_validation(self):
        from repro.errors import ConfigurationError
        from repro.power.awgr import AWGRPowerModel
        with pytest.raises(ConfigurationError):
            AWGRPowerModel(wavelengths=0)
