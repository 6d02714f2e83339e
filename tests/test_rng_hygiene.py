"""RNG hygiene at runtime.

Reproducibility rests on every random draw flowing through explicitly
seeded generators (``repro.sim.rand.stream`` / per-test ``random.Random``
instances).  The static half -- no ``random.seed(...)`` or module-level
draw anywhere in the source, test, benchmark or example trees -- is
``repro-lint``'s RNG-001, run here on its own over those trees.  The
rest checks the runtime half: the stream factory is stateless and a
simulation leaves the global RNG untouched.
"""

import random
from pathlib import Path

import pytest

from repro.lint import DEFAULT_EXCLUDED_DIRS, run_lint
from repro.lint.report import render_text
from repro.sim import rand

REPO = Path(__file__).resolve().parent.parent
SCANNED_TREES = ("src/repro", "tests", "benchmarks")


def test_no_global_rng_use_anywhere():
    """RNG-001 alone over every tree: no global seeding or draw."""
    report = run_lint(
        [REPO / tree for tree in SCANNED_TREES + ("examples",)],
        select=["RNG-001"], exclude_dirs=DEFAULT_EXCLUDED_DIRS,
    )
    assert report.findings == [], (
        "global RNG state used; route draws through repro.sim.rand.stream "
        "or a local random.Random instance:\n" + render_text(report)
    )


@pytest.mark.parametrize("tree", SCANNED_TREES)
def test_scan_covers_nonempty_trees(tree):
    """Guard the audit itself: if a tree moves, the scan must fail loudly
    rather than silently scanning nothing."""
    report = run_lint([REPO / tree], select=["RNG-001"],
                      exclude_dirs=DEFAULT_EXCLUDED_DIRS)
    assert report.n_files > 0, tree


def test_rand_module_holds_no_shared_generator():
    """``repro.sim.rand`` must be a pure factory: no module-level Random
    (or numpy Generator) instance that draws could be routed through."""
    for name in dir(rand):
        value = getattr(rand, name)
        assert not isinstance(value, random.Random), name
        assert type(value).__name__ != "Generator", name


def test_streams_are_independent():
    """Draws from one stream never perturb another (same or different
    name): each call mints a fresh, independently seeded generator."""
    a1 = rand.stream(5, "alpha")
    b = rand.stream(5, "beta")
    _ = [b.random() for _ in range(100)]  # interleaved draws elsewhere
    a2 = rand.stream(5, "alpha")
    assert [a1.random() for _ in range(10)] == [a2.random() for _ in range(10)]


def test_derive_seed_is_pure():
    assert rand.derive_seed(3, "x") == rand.derive_seed(3, "x")
    assert rand.derive_seed(3, "x") != rand.derive_seed(4, "x")
    assert rand.derive_seed(3, "x") != rand.derive_seed(3, "y")


class TestRandomStreams:
    def test_derive_seed_deterministic(self):
        assert rand.derive_seed(1, "traffic") == rand.derive_seed(1, "traffic")

    def test_derive_seed_distinguishes_names(self):
        assert rand.derive_seed(1, "traffic") != rand.derive_seed(1, "wiring")

    def test_derive_seed_distinguishes_masters(self):
        assert rand.derive_seed(1, "traffic") != rand.derive_seed(2, "traffic")

    def test_stream_returns_random_instance(self):
        rng = rand.stream(0, "x")
        assert isinstance(rng, random.Random)

    def test_stream_reproducible(self):
        a = [rand.stream(5, "s").random() for _ in range(3)]
        b = [rand.stream(5, "s").random() for _ in range(3)]
        assert a == b

    def test_numpy_stream_reproducible(self):
        a = rand.numpy_stream(5, "s").standard_normal(4)
        b = rand.numpy_stream(5, "s").standard_normal(4)
        assert (a == b).all()

    def test_adjacent_seeds_decorrelated(self):
        # SHA-based derivation should make adjacent master seeds unrelated.
        a = rand.stream(100, "t").random()
        b = rand.stream(101, "t").random()
        assert abs(a - b) > 1e-12


def test_global_random_state_untouched_by_a_simulation():
    """Running a full experiment cell must not consume from (or reseed)
    the process-global RNG."""
    from repro.analysis.experiments import run_open_loop

    before = random.getstate()
    try:
        run_open_loop("baldur", 16, "transpose", 0.5, 2, seed=0)
        assert random.getstate() == before
    finally:
        random.setstate(before)

