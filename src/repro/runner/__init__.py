"""Parallel sweep-execution subsystem.

Every paper figure is a grid of independent packet-level simulations
(network x traffic x load x seed).  This package turns such grids into
declarative :class:`~repro.runner.spec.SweepSpec` objects, expands them
into jobs with deterministically derived per-job RNG seeds, executes the
jobs through one supervisor (on worker processes or in process), and caches
completed results on disk keyed by a content hash of the job parameters
plus a fingerprint of the simulator source code.

Guarantees:

* **Determinism** -- a job's seed is ``derive_seed(root_seed, job.key)``,
  a pure function of the sweep's root seed and the job's position in the
  grid, so serial and parallel execution produce bit-identical results
  and adding a point to a sweep never perturbs the other points.
* **Cache safety** -- cache entries embed a digest of their own payload
  and are keyed by the code fingerprint; corrupted, tampered, or stale
  entries are detected and recomputed, never served; writes are atomic
  (temp file + fsync + ``os.replace``), so a killed worker can never
  leave a truncated entry.
* **Fault tolerance** -- worker crashes rebuild the pool and re-dispatch
  only the in-flight jobs; :class:`~repro.runner.policy.FaultPolicy`
  adds per-job timeouts, a sweep deadline, deterministic retry/backoff
  with poison-job quarantine, and record-instead-of-raise partial
  results; ``resume=<journal>`` checkpoints completions to an
  append-only JSONL journal (:class:`~repro.runner.journal.SweepJournal`)
  so an interrupted campaign resumes byte-identically.
* **Observability** -- every run returns a :class:`~repro.runner.engine.
  SweepReport` with per-job wall times, executed/cached/resumed/poisoned
  counts, fault counters (retries, crashes, rebuilds, fallbacks), and
  accepts a progress callback that also receives structured engine
  events.
"""

from repro.runner.cache import ResultCache, code_fingerprint
from repro.runner.engine import (
    JobOutcome,
    SweepReport,
    SweepResult,
    resolve_jobs,
    run_sweep,
)
from repro.runner.jobs import JOB_KINDS, execute_job
from repro.runner.journal import SweepJournal
from repro.runner.policy import FaultPolicy
from repro.runner.spec import Job, SweepSpec, canonical_json

__all__ = [
    "FaultPolicy",
    "Job",
    "JobOutcome",
    "JOB_KINDS",
    "ResultCache",
    "SweepJournal",
    "SweepReport",
    "SweepResult",
    "SweepSpec",
    "canonical_json",
    "code_fingerprint",
    "execute_job",
    "resolve_jobs",
    "run_sweep",
]
