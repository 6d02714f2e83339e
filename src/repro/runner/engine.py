"""Sweep execution: cache lookup, worker-pool dispatch, result assembly.

:func:`run_sweep` is the single entry point every experiment driver and
CLI command goes through.  It expands the spec, satisfies what it can
from the resume journal and the cache, runs the rest through one
supervisor loop (on a ``ProcessPoolExecutor``, or in-process for one
worker), and reassembles results **in expansion order** -- so the output
is byte-identical no matter how many workers ran it or in which order
they finished.

The execution layer is fault tolerant (DESIGN.md section 12):

* **Worker-crash recovery** -- a ``BrokenProcessPool`` never loses the
  sweep: the pool is rebuilt and only the in-flight jobs re-dispatched.
* **Timeouts** -- an optional per-job wall-clock budget (hung jobs are
  cancelled by terminating their worker) and a sweep-level deadline.
* **Retry + quarantine** -- failing jobs retry with deterministic
  exponential backoff (jitter derived from the job key, never the wall
  clock or global RNG) and are quarantined after ``max_attempts``.
* **Checkpoint/resume** -- with ``resume=<path>`` every completion is
  fsynced to an append-only JSONL journal; re-running with the same
  path skips completed jobs and reproduces the uninterrupted output
  byte-for-byte.
* **Graceful partial results** -- with ``FaultPolicy(on_error="record")``
  failures become typed :class:`JobOutcome` statuses (``ok`` / ``failed``
  / ``timeout`` / ``quarantined``) instead of aborting the grid.
"""

from __future__ import annotations

import contextlib
import os
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.errors import ConfigurationError, SweepExecutionError
from repro.obs.metrics import RunnerCounters
from repro.runner.cache import ResultCache
from repro.runner.jobs import execute_job
from repro.runner.journal import SweepJournal
from repro.runner.policy import FaultPolicy
from repro.runner.spec import Job, SweepSpec, canonical_json

__all__ = [
    "JobOutcome",
    "SweepReport",
    "SweepResult",
    "resolve_jobs",
    "run_sweep",
]

JOBS_ENV_VAR = "REPRO_JOBS"
"""Environment default for worker count (used when ``jobs`` is None)."""

ProgressFn = Callable[[Dict[str, Any]], None]

_WorkerResult = Tuple[Any, float]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Worker count: explicit argument, else ``$REPRO_JOBS``, else 1."""
    if jobs is None:
        jobs = int(os.environ.get(JOBS_ENV_VAR, "1") or "1")
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    return jobs


@dataclass(frozen=True)
class JobOutcome:
    """One finished grid point: the job, its result, and how it ran.

    ``status`` is ``"ok"`` (``result`` holds the payload), ``"failed"``
    (the executor raised or returned a corrupt result with no retry
    budget left, the pool could not be rebuilt, or the sweep deadline
    expired before the job was ever dispatched), ``"timeout"`` (cancelled
    by the per-job budget, or the sweep deadline expired while it ran or
    while it waited to retry), or ``"quarantined"`` (a poison job: it
    exhausted ``max_attempts`` retries or repeatedly crashed its worker).
    Non-``ok`` outcomes carry a JSON-safe ``error`` payload instead of a
    ``result``.
    """

    job: Job
    result: Optional[Dict[str, Any]]
    cached: bool
    elapsed_s: float
    status: str = "ok"
    error: Optional[Dict[str, Any]] = None
    attempts: int = 1
    resumed: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class SweepReport:
    """Observability rollup for one :func:`run_sweep` call."""

    n_jobs: int = 0
    executed: int = 0
    cached: int = 0
    poisoned: int = 0
    workers: int = 1
    parallel: bool = False
    elapsed_s: float = 0.0
    job_times_s: Dict[str, float] = field(default_factory=dict)
    failed: int = 0
    timeouts: int = 0
    quarantined: int = 0
    retries: int = 0
    resumed: int = 0
    worker_crashes: int = 0
    pool_rebuilds: int = 0
    fallback: Optional[str] = None
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def sim_time_s(self) -> float:
        """Total simulation wall time across jobs (> elapsed when parallel)."""
        return sum(sorted(self.job_times_s.values()))

    @property
    def ok(self) -> bool:
        """True when every job produced a result."""
        return not (self.failed or self.timeouts or self.quarantined)

    def describe(self) -> str:
        """One-line human summary (what the CLI prints after a sweep)."""
        return (
            f"{self.n_jobs} jobs ({self.executed} executed, "
            f"{self.cached} cached"
            + (f", {self.resumed} resumed" if self.resumed else "")
            + (f", {self.poisoned} poisoned" if self.poisoned else "")
            + (f", {self.failed} failed" if self.failed else "")
            + (f", {self.timeouts} timed out" if self.timeouts else "")
            + (f", {self.quarantined} quarantined" if self.quarantined
               else "")
            + (f", {self.retries} retries" if self.retries else "")
            + f") in {self.elapsed_s:.2f}s with {self.workers} worker"
            + ("s" if self.workers != 1 else "")
            + (f" [{self.fallback} fallback]" if self.fallback else "")
        )


class SweepResult:
    """Ordered outcomes of a sweep plus its spec and execution report."""

    def __init__(self, spec: SweepSpec, outcomes: List[JobOutcome],
                 report: SweepReport) -> None:
        self.spec = spec
        self.outcomes = outcomes
        self.report = report

    @property
    def ok(self) -> bool:
        """True when every grid point has a result."""
        return all(outcome.ok for outcome in self.outcomes)

    def failures(self) -> List[JobOutcome]:
        """The non-``ok`` outcomes, in expansion order."""
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def results(self) -> List[Dict[str, Any]]:
        """Result dicts of the ``ok`` jobs in expansion (row-major) order.

        Failed/timed-out/quarantined cells are skipped, the same way
        ``figure7_ratios`` skips cells with no deliveries: a partial
        sweep still reshapes into partial tables.
        """
        return [
            outcome.result for outcome in self.outcomes
            if outcome.ok and outcome.result is not None
        ]

    def index(
        self,
        *axis_names: str,
        value: Callable[[Dict[str, Any]], Any] = lambda result: result,
    ) -> Dict[Any, Any]:
        """Nest results by the given axes: ``index('pattern', 'network')``
        returns ``{pattern: {network: value(result)}}``.  Non-``ok``
        cells are omitted, so partial sweeps nest into partial tables."""
        names = axis_names or tuple(self.spec.axes)
        nested: Dict[Any, Any] = {}
        for outcome in self.outcomes:
            if not outcome.ok or outcome.result is None:
                continue
            level = nested
            for name in names[:-1]:
                level = level.setdefault(outcome.job.params[name], {})
            level[outcome.job.params[names[-1]]] = value(outcome.result)
        return nested

    def obs(self) -> Dict[str, Dict[str, Any]]:
        """Observability rollups by job key (jobs run with ``obs`` set).

        Empty when the sweep ran without observability -- the common case.
        """
        return {
            outcome.job.key: outcome.result["obs"]
            for outcome in self.outcomes
            if outcome.ok and isinstance(outcome.result, dict)
            and "obs" in outcome.result
        }

    def to_json(self) -> str:
        """Canonical results document: deterministic for a given spec,
        root seed, and code version -- independent of worker count,
        cache temperature, resume state, and timing (which live in
        ``report`` only).  ``ok`` jobs serialize exactly as they always
        have (``{"key", "result"}``); failed cells carry ``{"key",
        "status", "error"}`` instead, so a fully successful sweep's
        bytes are unchanged by the fault-tolerance layer."""
        jobs: List[Dict[str, Any]] = []
        for outcome in self.outcomes:
            if outcome.ok:
                jobs.append({"key": outcome.job.key,
                             "result": outcome.result})
            else:
                jobs.append({"key": outcome.job.key,
                             "status": outcome.status,
                             "error": outcome.error})
        return canonical_json({"spec": self.spec.payload(), "jobs": jobs})


def _timed_execute(kind: str, params: Dict[str, Any]) -> _WorkerResult:
    """Worker-side wrapper: run one job and measure its wall time."""
    start = time.perf_counter()
    result = execute_job(kind, params)
    return result, time.perf_counter() - start


class _InlineExecutor:
    """The supervisor's in-process executor (one worker, or one job).

    ``submit`` runs the job before returning an already-finished future,
    so ``wait`` returns at once and a per-job timeout never fires: a
    running job cannot be preempted without a worker process to kill.
    ``Exception``s land on the future like a worker's would;
    ``BaseException`` (Ctrl-C) propagates and aborts the sweep.
    """

    def submit(self, fn: Callable[..., _WorkerResult],
               *args: Any) -> Future[_WorkerResult]:
        future: Future[_WorkerResult] = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True,
                 cancel_futures: bool = False) -> None:
        pass


_Executor = Union[ProcessPoolExecutor, _InlineExecutor]


def _make_pool(workers: int, n_jobs: int) -> Optional[_Executor]:
    """A process pool for two or more workers and jobs, else the inline
    executor; ``None`` when a process pool cannot be created."""
    if workers < 2 or n_jobs < 2:
        return _InlineExecutor()
    try:
        return ProcessPoolExecutor(max_workers=min(workers, n_jobs))
    except (OSError, PermissionError, ValueError):
        return None


# Clock seams: the supervisor reads time and sleeps only through these,
# so a test can run it on a fake clock.
_clock = time.monotonic
_sleep = time.sleep


def _terminate_pool(pool: _Executor) -> None:
    """Kill a pool *now*, including hung workers.

    ``shutdown(cancel_futures=True)`` alone would still join workers that
    are busy (a hung job would block forever), so the worker processes
    are terminated first.  ``_processes`` is private executor API, hence
    the defensive access; losing the kill only delays shutdown.
    """
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        with contextlib.suppress(Exception):
            proc.terminate()
    pool.shutdown(wait=False, cancel_futures=True)


class _SweepState:
    """Mutable per-run bookkeeping of one sweep."""

    def __init__(
        self,
        expanded: List[Job],
        policy: FaultPolicy,
        report: SweepReport,
        counters: RunnerCounters,
        progress: Optional[ProgressFn],
        cache: Optional[ResultCache],
        cache_keys: List[Optional[str]],
        journal: Optional[SweepJournal],
    ) -> None:
        self.expanded = expanded
        self.policy = policy
        self.report = report
        self.counters = counters
        self.progress = progress
        self.cache = cache
        self.cache_keys = cache_keys
        self.journal = journal
        n = len(expanded)
        self.results: List[Optional[Dict[str, Any]]] = [None] * n
        self.status: List[Optional[str]] = [None] * n
        self.errors: List[Optional[Dict[str, Any]]] = [None] * n
        self.elapsed = [0.0] * n
        self.cached_flags = [False] * n
        self.resumed_flags = [False] * n
        self.dispatches = [0] * n
        self.failures = [0] * n
        self.crashes = [0] * n
        self.deadline_at: Optional[float] = (
            _clock() + policy.deadline_s
            if policy.deadline_s is not None else None
        )

    # -- events --------------------------------------------------------------

    def emit(self, event: Dict[str, Any]) -> None:
        """Send a structured non-job event to the progress callback."""
        if self.progress is not None:
            self.progress(event)

    def _finished(self, i: int) -> None:
        self.report.job_times_s[self.expanded[i].key] = self.elapsed[i]
        if self.progress is not None:
            self.progress({
                "index": i,
                "total": len(self.expanded),
                "key": self.expanded[i].key,
                "cached": self.cached_flags[i],
                "elapsed_s": self.elapsed[i],
                "status": self.status[i],
            })

    # -- terminal transitions ------------------------------------------------

    def finish_ok(
        self,
        i: int,
        result: Dict[str, Any],
        elapsed: float,
        cached: bool = False,
        resumed: bool = False,
    ) -> None:
        """Record a completed job; checkpoint it to cache and journal."""
        self.results[i] = result
        self.status[i] = "ok"
        self.elapsed[i] = elapsed
        self.cached_flags[i] = cached
        self.resumed_flags[i] = resumed
        executed = not cached and not resumed
        if executed and self.cache is not None:
            cache_key = self.cache_keys[i]
            if cache_key is not None:
                self.cache.put(cache_key, self.expanded[i], result)
        if not resumed and self.journal is not None:
            self.journal.record(self.expanded[i].key, result)
        self._finished(i)

    def finish_bad(
        self,
        i: int,
        status: str,
        error_type: str,
        message: str,
        exc: Optional[BaseException] = None,
    ) -> None:
        """Record a terminal failure -- or abort, under ``on_error="raise"``.

        In raise mode the job's own exception propagates when there is
        one (preserving the pre-fault-tolerant contract) and
        :class:`SweepExecutionError` is raised for engine-level failures
        (timeout, deadline, broken pool).
        """
        key = self.expanded[i].key
        if not self.policy.record_failures:
            if exc is not None:
                raise exc
            raise SweepExecutionError(
                f"job {key!r} {status}: {message} "
                "(use FaultPolicy(on_error='record') for partial results)"
            )
        self.status[i] = status
        self.errors[i] = {
            "type": error_type,
            "message": message,
            "attempts": max(1, self.dispatches[i]),
        }
        if status == "timeout":
            self.report.timeouts += 1
        elif status == "quarantined":
            self.report.quarantined += 1
        else:
            self.report.failed += 1
        self.counters.incr(f"jobs_{status}")
        self._finished(i)

    # -- failure/crash accounting --------------------------------------------

    def record_failure(self, i: int, exc: Optional[BaseException],
                       message: str) -> Optional[float]:
        """One failed attempt.  Returns the backoff delay (seconds) before
        the next attempt, or ``None`` when the job is now terminal."""
        self.failures[i] += 1
        key = self.expanded[i].key
        if self.failures[i] >= self.policy.max_attempts:
            status = "failed" if self.policy.max_attempts == 1 \
                else "quarantined"
            error_type = type(exc).__name__ if exc is not None \
                else "CorruptResult"
            self.finish_bad(i, status, error_type, message, exc=exc)
            return None
        self.report.retries += 1
        self.counters.incr("retries")
        delay = self.policy.backoff_s(key, self.dispatches[i] + 1)
        self.emit({
            "event": "retry", "key": key,
            "attempt": self.failures[i], "backoff_s": delay,
            "error": message,
        })
        return delay

    def record_crash(self, i: int) -> bool:
        """One worker crash while ``i`` was in flight.  Returns True when
        the job may be re-dispatched, False when it is now terminal."""
        self.crashes[i] += 1
        if self.crashes[i] > self.policy.crash_retries:
            self.finish_bad(
                i, "quarantined", "WorkerCrash",
                f"worker pool broke {self.crashes[i]} times while this "
                "job was in flight",
            )
            return False
        return True


def run_sweep(
    spec: SweepSpec,
    jobs: Optional[int] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    use_cache: bool = True,
    progress: Optional[ProgressFn] = None,
    policy: Optional[FaultPolicy] = None,
    resume: Optional[Union[str, Path]] = None,
) -> SweepResult:
    """Execute every job of ``spec`` and return the assembled results.

    ``jobs`` > 1 uses a process pool (``None`` consults ``$REPRO_JOBS``);
    ``cache_dir`` enables the on-disk result cache; ``use_cache=False``
    ignores any cache entirely.  ``progress`` is called once per finished
    job with ``{index, total, key, cached, elapsed_s, status}`` plus
    structured engine events carrying an ``"event"`` key (``fallback``,
    ``retry``, ``pool-rebuild``).

    ``policy`` configures fault tolerance (:class:`FaultPolicy`:
    timeouts, deadline, retries, record-vs-raise); ``resume`` names an
    append-only journal file -- completed jobs found there are not
    re-executed, and every completion is checkpointed to it.
    """
    workers = resolve_jobs(jobs)
    policy = policy if policy is not None else FaultPolicy()
    cache = ResultCache(cache_dir) if (cache_dir and use_cache) else None
    expanded = spec.expand()
    start = time.perf_counter()
    report = SweepReport(n_jobs=len(expanded), workers=workers)
    counters = RunnerCounters()

    journal: Optional[SweepJournal] = None
    resumed_records: Dict[str, Dict[str, Any]] = {}
    if resume is not None:
        journal = SweepJournal(resume, spec)
        resumed_records = journal.load()

    cache_keys: List[Optional[str]] = [None] * len(expanded)
    state = _SweepState(expanded, policy, report, counters, progress,
                        cache, cache_keys, journal)
    to_run: List[int] = []

    try:
        if journal is not None:
            journal.begin()
        for i, job in enumerate(expanded):
            record = resumed_records.get(job.key)
            if record is not None:
                report.resumed += 1
                counters.incr("jobs_resumed")
                state.finish_ok(i, record, 0.0, resumed=True)
                continue
            if cache is not None:
                cache_keys[i] = cache.job_cache_key(job)
                hit = cache.get(cache_keys[i])
                if hit is not None:
                    report.cached += 1
                    state.finish_ok(i, hit, 0.0, cached=True)
                    continue
            to_run.append(i)

        if to_run:
            report.executed = len(to_run)
            _supervise(state, to_run, workers)
    finally:
        if journal is not None:
            journal.close()

    if cache is not None:
        report.poisoned = cache.poisoned
    report.elapsed_s = time.perf_counter() - start
    report.counters = counters.snapshot()

    outcomes: List[JobOutcome] = []
    for i, job in enumerate(expanded):
        status = state.status[i]
        assert status is not None  # every job reached a terminal state
        outcomes.append(JobOutcome(
            job=job,
            result=state.results[i],
            cached=state.cached_flags[i],
            elapsed_s=state.elapsed[i],
            status=status,
            error=state.errors[i],
            attempts=max(1, state.dispatches[i]),
            resumed=state.resumed_flags[i],
        ))
    return SweepResult(spec, outcomes, report)


class _PendingJob:
    """A job awaiting (re-)dispatch, possibly held back by backoff."""

    __slots__ = ("index", "ready_at")

    def __init__(self, index: int, ready_at: float = 0.0) -> None:
        self.index = index
        self.ready_at = ready_at


def _supervise(state: _SweepState, to_run: List[int], workers: int) -> None:
    """Run the pending jobs to terminal statuses on a rebuildable executor.

    :func:`_make_pool` supplies a process pool, or the in-process
    :class:`_InlineExecutor` for one worker or one job.  If a pool cannot
    be created at all -- e.g. sandboxed environments without
    process-spawn rights -- the fallback is *announced*
    (RuntimeWarning + ``fallback`` progress event +
    ``SweepReport.fallback``), never silent, and this same loop runs on
    the inline executor.  Retries, backoff, the deadline, crash
    attribution and record/raise are thus implemented once; per-job
    timeouts only fire on a pool, since an inline future has finished
    before its clock is checked.
    """
    policy = state.policy
    pool = _make_pool(workers, len(to_run))
    if pool is None:
        warnings.warn(
            "process pool unavailable; sweep falling back to serial "
            "execution (parallelism disabled, results unaffected)",
            RuntimeWarning,
            stacklevel=3,
        )
        state.counters.incr("serial_fallbacks")
        state.emit({"event": "fallback", "mode": "serial",
                    "reason": "process pool unavailable"})
        state.report.fallback = "serial"
        workers = 1
        pool = _InlineExecutor()
    state.report.parallel = workers > 1 and len(to_run) > 1

    pending: Deque[_PendingJob] = deque(_PendingJob(i) for i in to_run)
    in_flight: Dict[Future[_WorkerResult], Tuple[int, float]] = {}
    rebuilds = 0
    # Jobs lost together to one pool break: any of them may be the culprit.
    suspects: Set[int] = set()

    def requeue(i: int, delay: float = 0.0) -> None:
        pending.append(_PendingJob(i, _clock() + delay))

    def rebuild(reason: str) -> bool:
        """Replace a broken/poisoned pool.  False when the budget is gone:
        every pending job has then failed with ``BrokenPool``."""
        nonlocal pool, rebuilds
        assert pool is not None
        _terminate_pool(pool)
        pool = None
        rebuilds += 1
        state.report.pool_rebuilds += 1
        state.counters.incr("pool_rebuilds")
        state.emit({"event": "pool-rebuild", "reason": reason,
                    "rebuilds": rebuilds})
        if rebuilds <= policy.max_pool_rebuilds:
            pool = _make_pool(workers, len(to_run))
        if pool is not None:
            return True
        for item in pending:
            state.finish_bad(item.index, "failed", "BrokenPool",
                             "worker pool broke more than "
                             f"{policy.max_pool_rebuilds} times")
        pending.clear()
        return False

    def pool_broke(lost: List[int], blame: bool) -> bool:
        """Requeue every job a pool break lost, then :func:`rebuild`.

        Only a job alone in flight at a break seen by ``wait`` (``blame``)
        is charged the crash.  Several lost jobs are unattributable: they
        charge nobody and become suspects, re-dispatched one at a time.
        """
        state.report.worker_crashes += 1
        state.counters.incr("worker_crashes")
        lost += [i for i, _ in in_flight.values()]
        in_flight.clear()
        if blame and len(lost) == 1:
            if not state.record_crash(lost[0]):
                lost = []  # killed its worker once too often: quarantined
        else:
            suspects.update(lost)
        # Lost jobs go first, so isolation ends soonest.
        pending.extendleft(
            _PendingJob(i) for i in sorted(lost, reverse=True))
        return rebuild("worker crash")

    try:
        while pending or in_flight:
            now = _clock()

            # Sweep-level deadline: cancel in-flight, fail pending.
            if state.deadline_at is not None and now >= state.deadline_at:
                assert pool is not None
                _terminate_pool(pool)
                pool = None
                for i, started in in_flight.values():
                    state.elapsed[i] = now - started
                    state.finish_bad(i, "timeout", "Deadline",
                                     "sweep deadline expired while this "
                                     "job was running")
                in_flight.clear()
                for item in pending:
                    if state.dispatches[item.index]:
                        state.finish_bad(item.index, "timeout", "Deadline",
                                         "sweep deadline expired mid-retry")
                    else:
                        state.finish_bad(item.index, "failed", "Deadline",
                                         "sweep deadline expired before "
                                         "this job started")
                pending.clear()
                return

            # Dispatch every ready pending job into free worker slots --
            # one slot while a suspect is unfinished, so the next pool
            # break has exactly one job to blame.
            suspects = {i for i in suspects if state.status[i] is None}
            slots = 1 if suspects else workers
            broke_at_submit = False
            for _ in range(len(pending)):
                if len(in_flight) >= slots:
                    break
                item = pending.popleft()
                if item.ready_at > now:
                    pending.append(item)  # still backing off; rotate
                    continue
                i = item.index
                job = state.expanded[i]
                state.dispatches[i] += 1
                assert pool is not None
                try:
                    future = pool.submit(_timed_execute, job.kind,
                                         dict(job.params))
                except BrokenProcessPool:
                    # The pool broke after the last wait(): this job was
                    # never in flight, so it goes back first, uncharged.
                    state.dispatches[i] -= 1
                    pending.appendleft(item)
                    broke_at_submit = True
                    break
                in_flight[future] = (i, _clock())
            if broke_at_submit:
                if not pool_broke([], blame=False):
                    return
                continue

            if not in_flight:
                # Everything pending is backing off; sleep to readiness.
                wake = min(p.ready_at for p in pending)
                if state.deadline_at is not None:
                    wake = min(wake, state.deadline_at)
                _sleep(max(0.0, wake - _clock()))
                continue

            # Collect completions.  Wait -- bounded only when a clock
            # matters -- if none is in yet; an inline future always is,
            # so a serial sweep never scans the queue for bounds.
            done = {future for future in in_flight if future.done()}
            if not done:
                bounds: List[float] = []
                if policy.job_timeout_s is not None:
                    bounds.extend(
                        started + policy.job_timeout_s - now
                        for _, started in in_flight.values()
                    )
                if state.deadline_at is not None:
                    bounds.append(state.deadline_at - now)
                bounds.extend(p.ready_at - now for p in pending
                              if p.ready_at > now)
                timeout = max(0.0, min(bounds)) + 0.01 if bounds else None
                done, _ = wait(set(in_flight), timeout=timeout,
                               return_when=FIRST_COMPLETED)

            lost: List[int] = []
            for future in done:
                i, started = in_flight.pop(future)
                exc = future.exception()
                if isinstance(exc, BrokenProcessPool):
                    lost.append(i)
                    continue
                if exc is None:
                    result, dt = future.result()
                    if isinstance(result, dict):
                        state.finish_ok(i, result, dt)
                        continue
                    message = (f"executor returned {type(result).__name__}"
                               ", not a result dict")
                else:
                    message = str(exc)
                delay = state.record_failure(i, exc, message)
                if delay is not None:
                    requeue(i, delay)
            if lost:
                if not pool_broke(lost, blame=True):
                    return
                continue

            # Per-job wall-clock timeouts: cancelling a running task
            # requires terminating its worker, which breaks the pool --
            # so time out, re-dispatch the innocent in-flight jobs, and
            # rebuild.
            if policy.job_timeout_s is not None and in_flight:
                now = _clock()
                expired = [
                    (future, i, started)
                    for future, (i, started) in in_flight.items()
                    if now - started >= policy.job_timeout_s
                ]
                if expired:
                    for future, i, started in expired:
                        del in_flight[future]
                        state.elapsed[i] = now - started
                        state.counters.incr("job_timeouts")
                        state.finish_bad(
                            i, "timeout", "JobTimeout",
                            f"still running after "
                            f"{policy.job_timeout_s:g}s "
                            f"(job_timeout_s)",
                        )
                    for i, _ in in_flight.values():
                        requeue(i)
                    in_flight.clear()
                    if not rebuild("job timeout"):
                        return
    except BaseException:
        # Abort path (on_error="raise", Ctrl-C, ...): a plain shutdown
        # would join hung workers forever, so kill the pool outright.
        if pool is not None:
            _terminate_pool(pool)
            pool = None
        raise
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
