"""Fault-tolerance policy for sweep execution.

A :class:`FaultPolicy` bundles every knob of the fault-tolerant execution
layer: per-job wall-clock timeouts, a sweep-level deadline budget, retry
counts with deterministic exponential backoff, worker-crash re-dispatch
limits, and whether failures abort the sweep or become recorded
:class:`~repro.runner.engine.JobOutcome` statuses.

Backoff discipline: retry delays are a pure function of the job key and
the attempt number -- the jitter is derived through
:func:`repro.sim.rand.derive_seed`, never the global RNG or the wall
clock, so ``repro-lint``'s RNG-001/CLK-001 contracts hold and two runs
of the same failing sweep back off identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.sim.rand import derive_seed

__all__ = ["FaultPolicy"]

_ON_ERROR_MODES = ("raise", "record")


@dataclass(frozen=True)
class FaultPolicy:
    """How :func:`~repro.runner.engine.run_sweep` treats failing jobs.

    The default policy is backward compatible with the pre-fault-tolerant
    engine: no timeouts, no retries, exceptions propagate -- except that
    worker crashes (``BrokenProcessPool``) are always recovered by
    rebuilding the pool and re-dispatching the in-flight jobs, up to
    ``crash_retries`` re-dispatches per job.

    ``on_error="record"`` turns every terminal failure into a typed
    :class:`~repro.runner.engine.JobOutcome` (``failed`` / ``timeout`` /
    ``quarantined``) so one poisoned cell cannot lose the rest of the
    grid; ``on_error="raise"`` aborts the sweep on the first terminal
    failure (re-raising the job's own exception where there is one,
    :class:`~repro.errors.SweepExecutionError` otherwise).
    """

    job_timeout_s: Optional[float] = None
    """Per-job wall-clock budget.  A job still running after this many
    seconds is cancelled (its worker is terminated and the pool rebuilt)
    and reported as ``status="timeout"``.  Only enforceable with worker
    processes; serial execution cannot preempt a running job and ignores
    it (the deadline is still checked between jobs)."""

    deadline_s: Optional[float] = None
    """Sweep-level wall-clock budget.  Once exceeded, in-flight jobs are
    cancelled (``timeout``) and pending jobs are recorded as ``failed``
    with a ``deadline`` error instead of being started."""

    max_attempts: int = 1
    """Execution attempts per job before it is quarantined.  An attempt is
    consumed by an exception from the executor or a corrupt (non-dict)
    result.  ``1`` means no retries; a job that exhausts ``max_attempts >
    1`` is reported as ``status="quarantined"`` (a poison job)."""

    crash_retries: int = 2
    """Re-dispatches a job may receive after crashing its worker.  A pool
    break that loses several jobs cannot be attributed, so it charges
    nobody: all of them re-run one at a time, and only a job that is
    alone in flight when the pool breaks advances its crash counter.  A
    repeatedly crashing poison job is quarantined after ``crash_retries``
    such re-dispatches while innocent bystanders simply re-run."""

    max_pool_rebuilds: int = 8
    """Total pool rebuilds (crashes + timeouts) per sweep before the
    engine stops trusting process pools and falls back to serial
    execution for the remaining jobs."""

    backoff_base_s: float = 0.05
    """First-retry backoff; attempt ``n`` waits ``base * 2**(n-1)``
    (capped) times a deterministic jitter in ``[0.5, 1.0)``.  Set to 0
    to retry immediately (tests do)."""

    backoff_cap_s: float = 2.0
    """Upper bound on a single backoff delay."""

    on_error: str = "raise"
    """``"raise"``: first terminal failure aborts the sweep (the
    pre-fault-tolerant contract).  ``"record"``: failures become typed
    partial-result outcomes and the sweep completes."""

    def __post_init__(self) -> None:
        if self.on_error not in _ON_ERROR_MODES:
            raise ConfigurationError(
                f"on_error must be one of {_ON_ERROR_MODES}, "
                f"got {self.on_error!r}"
            )
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.crash_retries < 0:
            raise ConfigurationError(
                f"crash_retries must be >= 0, got {self.crash_retries}"
            )
        if self.max_pool_rebuilds < 0:
            raise ConfigurationError(
                f"max_pool_rebuilds must be >= 0, "
                f"got {self.max_pool_rebuilds}"
            )
        for name in ("job_timeout_s", "deadline_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigurationError(
                    f"{name} must be positive, got {value}"
                )
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ConfigurationError("backoff delays must be >= 0")

    @property
    def record_failures(self) -> bool:
        """True when terminal failures become outcomes, not exceptions."""
        return self.on_error == "record"

    def backoff_s(self, key: str, attempt: int) -> float:
        """Deterministic backoff before retry ``attempt`` (>= 2) of ``key``.

        ``min(cap, base * 2**(attempt-2))`` scaled by a jitter factor in
        ``[0.5, 1.0)`` derived from ``(attempt, key)`` -- no wall clock,
        no global RNG, so the schedule is a pure function of the job.
        """
        if self.backoff_base_s <= 0:
            return 0.0
        raw = min(
            self.backoff_cap_s,
            self.backoff_base_s * (2.0 ** max(0, attempt - 2)),
        )
        jitter = 0.5 + (derive_seed(attempt, key) % 4096) / 8192.0
        return raw * jitter
