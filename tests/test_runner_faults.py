"""Fault-tolerant sweep execution: timeouts, retries, crash recovery,
checkpoint/resume.

Every test drives the real engine with scripted faults: ``_make_pool``
is replaced by a factory whose executors wrap each submitted job in
:func:`_scripted`, which fails, returns a corrupt result, hangs (a real
sleep) or crashes its worker (a real ``os._exit`` in a real process) as
a per-key, per-dispatch script says.  The headline guarantee of
DESIGN.md section 12 is asserted throughout: a faulty run that recovers
produces ``to_json`` output *byte-identical* to an undisturbed serial
run.
"""

import collections
import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.analysis.experiments import figure6_spec
from repro.errors import ConfigurationError, SweepExecutionError
from repro.obs import artifacts as obs_artifacts
from repro.runner import FaultPolicy, SweepJournal, canonical_json, run_sweep
from repro.runner import engine

SPEC_KWARGS = dict(
    n_nodes=16,
    loads=(0.3, 0.7),
    patterns=("transpose",),
    packets_per_node=3,
    networks=("baldur", "ideal"),
    seed=0,
)

RECORD = FaultPolicy(on_error="record", backoff_base_s=0.0)


def small_spec(**overrides):
    kwargs = {**SPEC_KWARGS, **overrides}
    return figure6_spec(**kwargs)


def job_keys(spec):
    return [job.key for job in spec.expand()]


class InjectedWorkerFault(Exception):
    """What a scripted ``fail`` raises; module-level, so it pickles back
    from a worker process."""


CORRUPT_RESULT = ("__corrupt__",)


def _scripted(action, hang_s, fn, *args):
    """Worker side of one scripted dispatch: misbehave, then run the job."""
    if action == "fail":
        raise InjectedWorkerFault("injected failure")
    if action == "crash":
        # os._exit skips atexit/finally machinery: the pool sees the
        # worker vanish exactly as it would on a segfault or OOM kill.
        os._exit(139)
    if action == "corrupt":
        return CORRUPT_RESULT, 0.0
    if action == "hang":
        time.sleep(hang_s)
    return fn(*args)


class Script:
    """Actions by job key and dispatch number (1-based), counted in the
    supervisor so the count survives pool rebuilds.  Dispatches past the
    end of a key's sequence, and keys not named, run normally."""

    def __init__(self, spec, actions, hang_s):
        self.keys = {canonical_json(job.params): job.key
                     for job in spec.expand()}
        self.actions = actions
        self.hang_s = hang_s
        self.dispatches = collections.Counter()

    def submit(self, submit, fn, kind, params):
        key = self.keys[canonical_json(params)]
        self.dispatches[key] += 1
        plan = self.actions.get(key, ())
        n = self.dispatches[key]
        action = plan[n - 1] if n <= len(plan) else "ok"
        return submit(_scripted, action, self.hang_s, fn, kind, params)


class ScriptedPool(ProcessPoolExecutor):
    def __init__(self, script, max_workers):
        super().__init__(max_workers=max_workers)
        self.script = script

    def submit(self, fn, *args):
        return self.script.submit(super().submit, fn, *args)


class ScriptedInline(engine._InlineExecutor):
    def __init__(self, script):
        self.script = script

    def submit(self, fn, *args):
        return self.script.submit(super().submit, fn, *args)


def script_faults(monkeypatch, spec, actions, hang_s=600.0,
                  pool_unavailable=False):
    """Script ``actions`` into every executor the engine builds from now
    on; ``pool_unavailable`` forces the announced serial fallback."""
    script = Script(spec, actions, hang_s)

    def make_pool(workers, n_jobs):
        if workers < 2 or n_jobs < 2:
            return ScriptedInline(script)
        if pool_unavailable:
            return None
        return ScriptedPool(script, min(workers, n_jobs))

    monkeypatch.setattr(engine, "_make_pool", make_pool)
    monkeypatch.setattr(engine, "_InlineExecutor",
                        lambda: ScriptedInline(script))


class FakeClock:
    """Stands in for the engine's clock seams: time moves only when the
    supervisor sleeps."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


@pytest.fixture(scope="module")
def clean_json():
    """to_json of an undisturbed serial run -- the byte-identity oracle."""
    return run_sweep(small_spec(), jobs=1).to_json()


class TestFaultPolicy:
    def test_defaults_are_backward_compatible(self):
        policy = FaultPolicy()
        assert policy.on_error == "raise"
        assert policy.max_attempts == 1
        assert policy.job_timeout_s is None
        assert policy.deadline_s is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(on_error="ignore"),
            dict(max_attempts=0),
            dict(crash_retries=-1),
            dict(max_pool_rebuilds=-1),
            dict(job_timeout_s=0.0),
            dict(deadline_s=-5.0),
            dict(backoff_base_s=-0.1),
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultPolicy(**kwargs)

    def test_backoff_is_deterministic_and_bounded(self):
        policy = FaultPolicy(backoff_base_s=0.1, backoff_cap_s=1.0)
        for attempt in (2, 3, 4, 9):
            a = policy.backoff_s("open_loop/load=0.3", attempt)
            b = policy.backoff_s("open_loop/load=0.3", attempt)
            assert a == b  # pure function of (key, attempt)
            nominal = min(1.0, 0.1 * 2.0 ** (attempt - 2))
            assert 0.5 * nominal <= a < nominal

    def test_backoff_varies_by_key(self):
        policy = FaultPolicy(backoff_base_s=0.1)
        delays = {policy.backoff_s(f"job-{n}", 2) for n in range(16)}
        assert len(delays) > 1  # jitter actually spreads retries out

    def test_zero_base_means_immediate_retry(self):
        assert RECORD.backoff_s("any", 2) == 0.0


class TestRetryAndQuarantine:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_transient_failures_retry_to_identical_results(
        self, jobs, clean_json, monkeypatch
    ):
        spec = small_spec()
        victim = job_keys(spec)[0]
        script_faults(monkeypatch, spec, {victim: ("fail", "fail")})
        sweep = run_sweep(
            spec, jobs=jobs,
            policy=FaultPolicy(max_attempts=3, backoff_base_s=0.0),
        )
        assert sweep.ok
        assert sweep.report.retries == 2
        assert sweep.to_json() == clean_json

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_poison_job_quarantined_others_kept(self, jobs, monkeypatch):
        spec = small_spec()
        keys = job_keys(spec)
        script_faults(monkeypatch, spec, {keys[0]: ("fail",) * 5})
        sweep = run_sweep(
            spec, jobs=jobs,
            policy=FaultPolicy(max_attempts=3, backoff_base_s=0.0,
                               on_error="record"),
        )
        assert not sweep.ok
        statuses = {o.job.key: o.status for o in sweep.outcomes}
        assert statuses[keys[0]] == "quarantined"
        assert all(statuses[key] == "ok" for key in keys[1:])
        (bad,) = sweep.failures()
        assert bad.attempts == 3
        assert bad.error["type"] == "InjectedWorkerFault"
        assert "injected failure" in bad.error["message"]
        assert sweep.report.quarantined == 1

    def test_single_attempt_failure_is_failed_not_quarantined(
        self, monkeypatch
    ):
        spec = small_spec()
        victim = job_keys(spec)[0]
        script_faults(monkeypatch, spec, {victim: ("fail",)})
        sweep = run_sweep(spec, jobs=1, policy=RECORD)
        (bad,) = sweep.failures()
        assert bad.status == "failed"
        assert sweep.report.failed == 1

    def test_raise_mode_propagates_the_job_exception(self, monkeypatch):
        spec = small_spec()
        victim = job_keys(spec)[0]
        script_faults(monkeypatch, spec, {victim: ("fail",)})
        with pytest.raises(InjectedWorkerFault):
            run_sweep(spec, jobs=1)

    def test_corrupt_result_consumes_an_attempt(self, clean_json,
                                                monkeypatch):
        spec = small_spec()
        victim = job_keys(spec)[1]
        script_faults(monkeypatch, spec, {victim: ("corrupt",)})
        sweep = run_sweep(
            spec, jobs=1,
            policy=FaultPolicy(max_attempts=2, backoff_base_s=0.0,
                               on_error="record"),
        )
        assert sweep.ok  # the retry ran the job normally
        assert sweep.report.retries == 1
        assert sweep.to_json() == clean_json

    def test_corrupt_result_without_retry_budget_fails(self, monkeypatch):
        spec = small_spec()
        victim = job_keys(spec)[1]
        script_faults(monkeypatch, spec, {victim: ("corrupt",)})
        sweep = run_sweep(spec, jobs=1, policy=RECORD)
        (bad,) = sweep.failures()
        assert bad.status == "failed"
        assert "not a result dict" in bad.error["message"]


    def test_record_mode_bytes_match_across_executors(self, monkeypatch):
        # One retried and one quarantined job: the same document from
        # the inline executor, a process pool, and the serial fallback.
        spec = small_spec()
        keys = job_keys(spec)
        actions = {keys[0]: ("fail",), keys[1]: ("fail", "fail")}
        policy = FaultPolicy(max_attempts=2, backoff_base_s=0.0,
                             on_error="record")
        docs = []
        for jobs, unavailable in ((1, False), (2, False), (2, True)):
            script_faults(monkeypatch, spec, actions,
                          pool_unavailable=unavailable)
            if unavailable:
                with pytest.warns(RuntimeWarning, match="falling back"):
                    sweep = run_sweep(spec, jobs=jobs, policy=policy)
            else:
                sweep = run_sweep(spec, jobs=jobs, policy=policy)
            assert sweep.report.fallback == ("serial" if unavailable
                                             else None)
            assert sweep.report.retries == 2
            assert [o.status for o in sweep.outcomes] == [
                "ok", "quarantined", "ok", "ok"]
            docs.append(sweep.to_json())
        assert docs[0] == docs[1] == docs[2]


class TestCrashRecovery:
    def test_worker_crash_rebuilds_pool_and_recovers(self, clean_json,
                                                       monkeypatch):
        spec = small_spec()
        victim = job_keys(spec)[2]
        script_faults(monkeypatch, spec, {victim: ("crash",)})
        sweep = run_sweep(spec, jobs=2, policy=RECORD)
        assert sweep.ok
        assert sweep.report.worker_crashes >= 1
        assert sweep.report.pool_rebuilds >= 1
        assert sweep.to_json() == clean_json

    def test_repeatedly_crashing_job_is_quarantined(self, monkeypatch):
        spec = small_spec()
        keys = job_keys(spec)
        script_faults(monkeypatch, spec, {keys[0]: ("crash",) * 8})
        sweep = run_sweep(
            spec, jobs=2,
            policy=FaultPolicy(on_error="record", crash_retries=2,
                               backoff_base_s=0.0),
        )
        statuses = {o.job.key: o.status for o in sweep.outcomes}
        assert statuses[keys[0]] == "quarantined"
        # Innocent bystanders re-dispatched and completed.
        assert all(statuses[key] == "ok" for key in keys[1:])
        assert sweep.report.pool_rebuilds >= 3

    def test_bystander_in_flight_at_every_crash_is_not_quarantined(
        self, monkeypatch
    ):
        # keys[1] sleeps through each of its first dispatches, so it is
        # still in flight whenever keys[0] kills the pool next to it.
        spec = small_spec()
        keys = job_keys(spec)
        script_faults(
            monkeypatch, spec,
            {keys[0]: ("crash",) * 8, keys[1]: ("hang",) * 3},
            hang_s=0.4,
        )
        sweep = run_sweep(
            spec, jobs=2,
            policy=FaultPolicy(on_error="record", crash_retries=2,
                               backoff_base_s=0.0),
        )
        statuses = {o.job.key: o.status for o in sweep.outcomes}
        assert statuses[keys[0]] == "quarantined"
        assert all(statuses[key] == "ok" for key in keys[1:])


    def test_pool_breaking_at_submit_is_recovered(self, clean_json,
                                                  monkeypatch):
        # A worker can die after wait() returned another job's result;
        # the next submit() then raises BrokenProcessPool itself.
        submits = []

        class RacyPool(ProcessPoolExecutor):
            def submit(self, fn, *args):
                submits.append(args)
                if len(submits) == 3:
                    raise BrokenProcessPool("worker died before submit")
                return super().submit(fn, *args)

        monkeypatch.setattr(
            engine, "_make_pool",
            lambda workers, n_jobs: RacyPool(min(workers, n_jobs)))
        spec = small_spec()
        sweep = run_sweep(spec, jobs=2, policy=RECORD)
        assert sweep.ok
        assert sweep.report.worker_crashes == 1
        assert sweep.report.pool_rebuilds == 1
        assert sweep.to_json() == clean_json
        # The job whose submit raised never ran: it was not charged.
        attempts = {o.job.key: o.attempts for o in sweep.outcomes}
        assert attempts[job_keys(spec)[2]] == 1


class TestTimeouts:
    def test_hung_job_cancelled_within_budget_others_kept(self, monkeypatch):
        spec = small_spec()
        keys = job_keys(spec)
        script_faults(monkeypatch, spec, {keys[1]: ("hang",)}, hang_s=60.0)
        start = time.monotonic()
        sweep = run_sweep(
            spec, jobs=2,
            policy=FaultPolicy(job_timeout_s=0.5, on_error="record",
                               backoff_base_s=0.0),
        )
        wall = time.monotonic() - start
        assert wall < 30.0  # cancelled, not joined for hang_s
        statuses = {o.job.key: o.status for o in sweep.outcomes}
        assert statuses[keys[1]] == "timeout"
        assert all(statuses[k] == "ok" for k in keys if k != keys[1])
        (bad,) = sweep.failures()
        assert bad.error["type"] == "JobTimeout"
        assert bad.elapsed_s >= 0.5
        assert sweep.report.timeouts == 1

    def test_sweep_deadline_fails_pending_jobs(self, monkeypatch):
        spec = small_spec()
        keys = job_keys(spec)
        script_faults(monkeypatch, spec, {key: ("hang",) for key in keys},
                      hang_s=60.0)
        sweep = run_sweep(
            spec, jobs=2,
            policy=FaultPolicy(deadline_s=0.5, on_error="record",
                               backoff_base_s=0.0),
        )
        assert not sweep.ok
        statuses = {o.status for o in sweep.outcomes}
        # In-flight jobs time out; never-started jobs fail outright.
        assert statuses <= {"timeout", "failed"}
        assert "timeout" in statuses
        errors = {o.error["type"] for o in sweep.failures()}
        assert errors == {"Deadline"}


    @pytest.mark.parametrize("jobs", [1, 2])
    def test_deadline_during_backoff_times_out_the_retrying_job(
        self, jobs, monkeypatch
    ):
        # Time moves only when the supervisor sleeps, so the deadline
        # expires while keys[0], already dispatched once, backs off.
        spec = small_spec()
        keys = job_keys(spec)
        script_faults(monkeypatch, spec, {keys[0]: ("fail",)})
        clock = FakeClock()
        monkeypatch.setattr(engine, "_clock", clock)
        monkeypatch.setattr(engine, "_sleep", clock.sleep)
        sweep = run_sweep(
            spec, jobs=jobs,
            policy=FaultPolicy(max_attempts=2, backoff_base_s=1.0,
                               deadline_s=0.5, on_error="record"),
        )
        (bad,) = sweep.failures()
        assert bad.job.key == keys[0]
        assert bad.status == "timeout"
        assert bad.error["message"] == "sweep deadline expired mid-retry"
        assert clock.now == 0.5


class TestCheckpointResume:
    def test_resume_skips_journaled_jobs_byte_identically(
        self, tmp_path, clean_json, monkeypatch
    ):
        spec = small_spec()
        journal_path = tmp_path / "sweep.journal.jsonl"
        keys = job_keys(spec)
        # First run is interrupted after job 0 by a poison job: only the
        # completed cells land in the journal.
        script_faults(monkeypatch, spec, {keys[1]: ("fail",)})
        partial = run_sweep(spec, jobs=1, policy=RECORD,
                            resume=journal_path)
        obs_artifacts.register(
            "sweep-journal", SweepJournal(journal_path, spec)
        )
        assert not partial.ok
        resumed = run_sweep(spec, jobs=1, resume=journal_path)
        assert resumed.ok
        assert resumed.report.resumed == 3
        assert resumed.report.executed == 1
        assert resumed.to_json() == clean_json

    def test_sigkilled_run_resumes_byte_identically(
        self, tmp_path, clean_json
    ):
        """Acceptance: SIGKILL a sweep mid-flight, resume, compare bytes."""
        journal_path = tmp_path / "killed.journal.jsonl"
        script = textwrap.dedent(
            """
            import os, signal
            from repro.analysis.experiments import figure6_spec
            from repro.runner import run_sweep

            spec = figure6_spec(
                n_nodes=16, loads=(0.3, 0.7), patterns=("transpose",),
                packets_per_node=3, networks=("baldur", "ideal"), seed=0,
            )
            done = []

            def kill_after_two(event):
                if "event" in event:
                    return
                done.append(event["key"])
                if len(done) == 2:
                    os.kill(os.getpid(), signal.SIGKILL)

            run_sweep(spec, jobs=1, resume={path!r},
                      progress=kill_after_two)
            raise SystemExit("sweep survived the injected SIGKILL")
            """
        ).format(path=str(journal_path))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(_src_dir())},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        # The journal survived the kill: header plus the completed jobs.
        lines = journal_path.read_text().splitlines()
        assert len(lines) == 3
        obs_artifacts.register(
            "killed-journal", SweepJournal(journal_path, small_spec())
        )
        resumed = run_sweep(small_spec(), jobs=1, resume=journal_path)
        assert resumed.ok
        assert resumed.report.resumed == 2
        assert resumed.report.executed == 2
        assert resumed.to_json() == clean_json

    def test_torn_journal_tail_is_tolerated(self, tmp_path, clean_json):
        spec = small_spec()
        journal_path = tmp_path / "torn.journal.jsonl"
        run_sweep(spec, jobs=1, resume=journal_path)
        with open(journal_path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "open_loop/truncated-by-')  # torn write
        resumed = run_sweep(spec, jobs=1, resume=journal_path)
        assert resumed.report.resumed == 4
        assert resumed.to_json() == clean_json

    def test_stale_journal_from_other_spec_is_ignored(self, tmp_path):
        journal_path = tmp_path / "stale.journal.jsonl"
        run_sweep(small_spec(), jobs=1, resume=journal_path)
        other = small_spec(seed=7)
        sweep = run_sweep(other, jobs=1, resume=journal_path)
        assert sweep.report.resumed == 0
        assert sweep.report.executed == 4
        # ... and the journal was rewritten for the new spec.
        rerun = run_sweep(other, jobs=1, resume=journal_path)
        assert rerun.report.resumed == 4

    def test_journal_exports_as_jsonl_artifact(self, tmp_path):
        spec = small_spec(loads=(0.3,))
        journal_path = tmp_path / "export.journal.jsonl"
        run_sweep(spec, jobs=1, resume=journal_path)
        journal = SweepJournal(journal_path, spec)
        target = tmp_path / "artifact.jsonl"
        n = journal.to_jsonl(target)
        assert n == len(target.read_text().splitlines())
        for line in target.read_text().splitlines():
            json.loads(line)  # every exported line is intact JSON


class TestPartialResultsSurface:
    def test_to_json_carries_failure_payloads(self, monkeypatch):
        spec = small_spec()
        keys = job_keys(spec)
        script_faults(monkeypatch, spec, {keys[0]: ("fail",)})
        sweep = run_sweep(spec, jobs=1, policy=RECORD)
        doc = json.loads(sweep.to_json())
        by_key = {entry["key"]: entry for entry in doc["jobs"]}
        bad = by_key[keys[0]]
        assert set(bad) == {"key", "status", "error"}
        assert bad["status"] == "failed"
        assert bad["error"]["type"] == "InjectedWorkerFault"
        for key in keys[1:]:
            assert set(by_key[key]) == {"key", "result"}

    def test_reshapers_skip_failed_cells(self, monkeypatch):
        from repro.analysis.experiments import (
            figure7_ratios,
            reshape_figure6,
        )

        spec = small_spec()
        keys = job_keys(spec)
        script_faults(monkeypatch, spec, {keys[0]: ("fail",)})
        sweep = run_sweep(spec, jobs=1, policy=RECORD)
        grids = reshape_figure6(sweep)
        flat = {
            (pattern, network, load)
            for pattern, per_net in grids.items()
            for network, per_load in per_net.items()
            for load in per_load
        }
        assert len(flat) == 3  # 4 cells minus the failed one
        # figure7_ratios tolerates cells that are absent entirely, the
        # shape a partial sweep reshapes into.
        some_pattern = next(iter(grids))
        some_network = next(iter(grids[some_pattern]))
        some_load = next(iter(grids[some_pattern][some_network]))
        summary = grids[some_pattern][some_network][some_load]
        results = {"w": {"baldur": summary}}
        with pytest.warns(RuntimeWarning, match="skipping cell"):
            ratios = figure7_ratios(results,
                                    networks=("baldur", "ideal"))
        assert ratios == {"w": {"baldur": 1.0}}

    def test_describe_mentions_fault_counts(self, monkeypatch):
        spec = small_spec()
        keys = job_keys(spec)
        script_faults(monkeypatch, spec, {keys[0]: ("fail", "fail")})
        sweep = run_sweep(
            spec, jobs=1,
            policy=FaultPolicy(max_attempts=2, backoff_base_s=0.0,
                               on_error="record"),
        )
        text = sweep.report.describe()
        assert "1 quarantined" in text
        assert "1 retries" in text

    def test_raise_mode_deadline_aborts_with_sweep_error(self, monkeypatch):
        spec = small_spec()
        script_faults(monkeypatch, spec,
                      {key: ("hang",) for key in job_keys(spec)},
                      hang_s=60.0)
        with pytest.raises(SweepExecutionError):
            run_sweep(
                spec, jobs=2,
                policy=FaultPolicy(deadline_s=0.5, backoff_base_s=0.0),
            )


def _src_dir():
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
