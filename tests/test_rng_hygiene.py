"""RNG-hygiene audit.

Reproducibility rests on every random draw flowing through explicitly
seeded generators (``repro.sim.rand.stream`` / per-test ``random.Random``
instances).  A single ``random.seed(...)`` or module-level draw anywhere
in the source or test tree silently couples unrelated tests and breaks
the serial-vs-parallel determinism guarantee, so this suite greps for it
at test time and also checks the stream factory really is stateless.
"""

import random
import re
from pathlib import Path

import pytest

from repro.sim import rand

REPO = Path(__file__).resolve().parent.parent
SCANNED_TREES = ("src/repro", "tests", "benchmarks")

GLOBAL_RNG_PATTERNS = (
    # Seeding or drawing from the process-global stdlib RNG.  The
    # lookbehind lets instance calls through (e.g. ``self._rng.random()``,
    # ``np.random.Generator`` annotations) while catching module-level use.
    re.compile(
        r"(?<![.\w])random\.(seed|random|randint|randrange|choice|choices"
        r"|shuffle|sample|uniform|expovariate|gauss|getrandbits)\s*\("
    ),
    # The numpy legacy global RNG.
    re.compile(r"\bnp\.random\.(seed|rand|randn|randint|choice|shuffle)\s*\("),
    re.compile(r"\bnumpy\.random\.(seed|rand|randn|randint|choice|shuffle)\s*\("),
)


def python_sources():
    for tree in SCANNED_TREES:
        for path in sorted((REPO / tree).rglob("*.py")):
            # The lint fixture corpus is deliberately full of RNG
            # violations (repro-lint's RNG-001 true positives); the
            # lint engine excludes it for the same reason.
            if "lint_fixtures" in path.parts:
                continue
            yield path


def test_no_global_rng_use_anywhere():
    me = Path(__file__).resolve()
    offenders = []
    for path in python_sources():
        if path.resolve() == me:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for pattern in GLOBAL_RNG_PATTERNS:
                if pattern.search(line):
                    rel = path.relative_to(REPO)
                    offenders.append(f"{rel}:{lineno}: {line.strip()}")
    assert not offenders, (
        "global RNG state used; route draws through repro.sim.rand.stream "
        "or a local random.Random instance:\n" + "\n".join(offenders)
    )


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

    random.seed(12345)  # noqa: local to this test, restored below
    before = random.getstate()
    run_open_loop("baldur", 16, "transpose", 0.5, 2, seed=0)
    assert random.getstate() == before
    random.seed()


@pytest.mark.parametrize("tree", SCANNED_TREES)
def test_scan_covers_nonempty_trees(tree):
    """Guard the audit itself: if a tree moves, the scan must fail loudly
    rather than silently scanning nothing."""
    assert any((REPO / tree).rglob("*.py")), tree
