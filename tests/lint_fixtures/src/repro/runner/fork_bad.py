"""FORK-001 true positives: functions writing module-level state.

One finding per write form: a container write through a module alias,
a ``global`` rebind, a mutator call on the module's own global, and a
mutator call on a name bound by a function-level from-import.
"""

import repro.workerstate as ws

COUNTS = {}
_TOTAL = 0


def through_alias(params):
    ws.COUNTS["jobs"] = 1


def rebind():
    global _TOTAL
    _TOTAL += 1


def record(name):
    COUNTS.setdefault(name, 0)


def local_import():
    from repro.workerstate import PENDING

    PENDING.clear()


COUNTS["boot"] = 0  # import time runs before any fork: exempt
