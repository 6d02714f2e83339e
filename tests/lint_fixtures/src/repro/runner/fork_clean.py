"""FORK-001 clean twin: functions only read module state."""

from repro.workerstate import LIMITS

_SEEN = []
_SEEN.append("boot")  # import-time registration is exempt


def snapshot(counts):
    local = dict(counts, limit=LIMITS["jobs"])
    local["seen"] = len(_SEEN)
    return local
