"""Shared pytest plumbing: export observability artifacts on failure,
and the ``stages_called`` spy on Baldur's instrumented hop handler.

Tests that drive a simulator with a tracer or metrics registry attached
can ``repro.obs.artifacts.register(...)`` the live objects; if the test
then fails, the hook below dumps each one as JSONL under
``$REPRO_TEST_ARTIFACTS_DIR`` (default ``test-artifacts/``) so CI can
upload packet-level evidence alongside the red build.
"""

import pytest

from repro.core.baldur_network import BaldurNetwork
from repro.obs import artifacts as obs_artifacts


@pytest.fixture(autouse=True)
def _fresh_obs_artifact_registry():
    """The artifact registry is process-global; isolate it per test."""
    obs_artifacts.clear()
    yield
    obs_artifacts.clear()


@pytest.fixture
def stages_called(monkeypatch):
    """The stages that reached ``BaldurNetwork._arrive_stage`` (the
    instrumented hop handler) as a Python call; empty while every hop is
    drained."""
    seen = set()
    real = BaldurNetwork._arrive_stage

    def spy(self, packet, stage, switch):
        seen.add(stage)
        real(self, packet, stage, switch)

    monkeypatch.setattr(BaldurNetwork, "_arrive_stage", spy)
    return seen


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or not report.failed:
        return
    written = obs_artifacts.export_all(item.nodeid)
    if written:
        report.sections.append(
            (
                "observability artifacts",
                "\n".join(str(path) for path in written),
            )
        )
