"""Kernel profiling: opt-in counters for the discrete-event hot loop.

ROADMAP wants the simulators "as fast as the hardware allows"; before a
hot loop can be optimized it has to be measured.  A :class:`KernelProfile`
is enabled on an :class:`~repro.sim.Environment` via
:meth:`~repro.sim.Environment.enable_profiling` and then observes every
dispatched callback:

* ``events_dispatched`` -- total events dispatched;
* ``max_heap_depth`` -- peak number of *pending events* (memory pressure
  proxy): the heap plus the unconsumed ``schedule_batch`` list plus every
  FIFO lane, so the count does not depend on which of the three an event
  waits in -- despite the name, it is not the heap's length;
* per-callback-type call counts and accumulated wall time, keyed by the
  callback's ``__qualname__`` (``BaldurNetwork._arrive_stage``,
  ``OutputPort._on_sent``, ...), which is exactly the breakdown needed to
  decide *which* simulator path to optimize next.

Profiling is off by default and costs nothing when disabled: the kernel's
``run()`` does a single ``is None`` check per event.  Wall times come from
``time.perf_counter`` and are *not* deterministic -- they never feed back
into simulation state, only into this report.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["KernelProfile"]


class KernelProfile:
    """Accumulates kernel dispatch statistics for one Environment."""

    __slots__ = ("events_dispatched", "max_heap_depth", "calls", "wall_s")

    def __init__(self) -> None:
        self.events_dispatched = 0
        self.max_heap_depth = 0
        self.calls: Dict[str, int] = {}
        self.wall_s: Dict[str, float] = {}

    def dispatch(
        self, fn: Callable[..., Any], args: Tuple[Any, ...], depth: int
    ) -> None:
        """Run one callback under measurement (called by the kernel).

        ``depth`` is the number of pending events, this one included.
        """
        self.events_dispatched += 1
        if depth > self.max_heap_depth:
            self.max_heap_depth = depth
        name = getattr(fn, "__qualname__", None) or repr(fn)
        start = perf_counter()
        try:
            fn(*args)
        finally:
            elapsed = perf_counter() - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.wall_s[name] = self.wall_s.get(name, 0.0) + elapsed

    def hottest(self, top: int = 10) -> List[Tuple[str, float, int]]:
        """(callback, wall seconds, calls), by wall time descending."""
        return sorted(
            (
                (name, self.wall_s[name], self.calls[name])
                for name in self.wall_s
            ),
            key=lambda row: (-row[1], row[0]),
        )[:top]

    def summary(self) -> Dict[str, Any]:
        """JSON-safe rollup of the profile."""
        return {
            "events_dispatched": self.events_dispatched,
            "max_heap_depth": self.max_heap_depth,
            "callbacks": {
                name: {
                    "calls": self.calls[name],
                    "wall_s": self.wall_s[name],
                }
                for name in sorted(self.calls)
            },
        }

    def describe(self) -> str:
        """Multi-line human summary (hottest callbacks first)."""
        lines = [
            f"kernel: {self.events_dispatched} events dispatched, "
            f"peak heap depth {self.max_heap_depth}"
        ]
        for name, wall, calls in self.hottest():
            lines.append(f"  {wall * 1e3:9.2f} ms  {calls:>9} calls  {name}")
        return "\n".join(lines)
