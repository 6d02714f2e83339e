"""A small discrete-event simulation kernel.

This is the substrate every simulator in the library runs on: a clock and
a heap of callbacks.  :meth:`Environment.schedule` (and ``schedule_at`` /
``schedule_batch``) queue a plain callable to run at a future time, and
:meth:`Environment.run` dispatches them in ``(time, seq)`` order.

Time is a float; the unit is chosen by the caller (network simulators use
nanoseconds, the gate-level circuit simulator uses picoseconds).

Hot-path engineering (see DESIGN.md section 10): the event queue is a heap of
``(time, seq, fn, args)`` tuples where ``seq`` is a plain integer sequence
(FIFO tie-break for simultaneous events, no ``itertools.count`` indirection),
and :meth:`Environment.run` drains the heap with ``heappop`` and the queue
bound to locals.  None of this changes event ordering: the ``(time, seq)``
keys -- and therefore the dispatch sequence -- are identical to the naive
implementation, which is what keeps simulation results byte-identical.
"""

from __future__ import annotations

import heapq
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.errors import SimulationError

if TYPE_CHECKING:
    from repro.obs.profile import KernelProfile

__all__ = ["Environment"]

_INF = float("inf")

# One scheduled entry: (absolute time, FIFO tie-break seq, callback, args).
_QueueItem = Tuple[float, int, Callable[..., Any], Tuple[Any, ...]]


class Environment:
    """The simulation clock and event queue."""

    __slots__ = ("_now", "_queue", "_seq", "_profile", "_run", "_ridx",
                 "_running")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[_QueueItem] = []
        # FIFO tie-break for simultaneous events: a plain int sequence
        # (cheaper than itertools.count and picklable if ever needed).
        self._seq = 0
        # Bulk-scheduled events (schedule_batch) live in this sorted list
        # and are merged with the heap at dispatch time.  Keeping the
        # open-loop pre-schedule out of the heap keeps the heap small, and
        # every sift during the run is O(log heap) of the *dynamic* event
        # population only.  _ridx is the cursor of the next unconsumed
        # entry.
        self._run: List[_QueueItem] = []
        self._ridx = 0
        # True while run() is draining (schedule_batch then must push into
        # the heap: run() holds the sorted list in locals).
        self._running = False
        # Opt-in kernel profiling (repro.obs.KernelProfile); None keeps the
        # dispatch loop on its unobserved fast path.
        self._profile: Optional[KernelProfile] = None

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def profile(self) -> Optional[KernelProfile]:
        """The attached :class:`~repro.obs.KernelProfile`, or ``None``."""
        return self._profile

    def enable_profiling(self) -> KernelProfile:
        """Attach (and return) a kernel profile counting every dispatch.

        Idempotent: repeated calls return the same profile.  Profiling
        observes the kernel only -- it cannot change event order or
        simulation results (wall times are reported, never consumed).
        """
        if self._profile is None:
            from repro.obs.profile import KernelProfile

            self._profile = KernelProfile()
        return self._profile

    def disable_profiling(self) -> Optional[KernelProfile]:
        """Detach the kernel profile (returns it for final inspection)."""
        profile, self._profile = self._profile, None
        return profile

    # -- scheduling --------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` time units (fast path).

        ``delay`` must be finite and non-negative: NaN or infinite delays
        would silently corrupt the heap order (every comparison against
        NaN is False), so they are rejected eagerly.
        """
        when = self._now + delay
        if not (delay >= 0.0 and when < _INF):
            raise SimulationError(
                f"delay must be finite and >= 0, got {delay!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (when, seq, fn, args))

    def schedule_at(
        self, when: float, fn: Callable[..., Any], *args: Any
    ) -> None:
        """Run ``fn(*args)`` at absolute time ``when`` (finite, >= now)."""
        if not (self._now <= when < _INF):
            raise SimulationError(
                f"cannot schedule at t={when!r} (now={self._now}): "
                f"time must be finite and >= now"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (when, seq, fn, args))

    def schedule_batch(
        self,
        entries: Iterable[Tuple[float, Callable[..., Any], Tuple[Any, ...]]],
    ) -> int:
        """Bulk-schedule ``(when, fn, args)`` triples at absolute times.

        Equivalent to calling :meth:`schedule_at` once per entry in
        iteration order (identical FIFO tie-break sequence, identical
        dispatch order), but validates everything up front and -- when
        nothing else is scheduled, the common open-loop pre-scheduling
        case -- sorts the batch once into a side list that :meth:`run`
        merges with the heap by ``(time, seq)``.  The heap then only ever
        holds dynamically scheduled events, so every push/pop during the
        run sifts through a much smaller heap.  Dispatch order is
        identical either way.  Returns the number of entries scheduled.
        """
        now = self._now
        seq = self._seq
        items: List[_QueueItem] = []
        append = items.append
        for when, fn, args in entries:
            if not (now <= when < _INF):
                raise SimulationError(
                    f"cannot schedule at t={when!r} (now={now}): "
                    f"time must be finite and >= now"
                )
            append((when, seq, fn, args))
            seq += 1
        queue = self._queue
        if self._running or queue or self._ridx < len(self._run):
            push = heapq.heappush
            for item in items:
                push(queue, item)
        else:
            # Sorting compares (when, seq, ...) tuples; seq is unique, so
            # callbacks are never compared.
            items.sort()
            self._run = items
            self._ridx = 0
        self._seq = seq
        return len(items)

    # -- execution ----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Run until nothing remains scheduled, or until time ``until``.

        When ``until`` is given (finite and >= now), the clock is advanced
        to exactly ``until`` even if the queue empties earlier.

        This is the kernel's hottest loop: the queue, ``heappop``, and the
        dispatch logic are inlined with locals so each event costs one pop
        and one call.  Events come from two sources merged by
        ``(time, seq)``: the heap of dynamically scheduled events and the
        sorted :meth:`schedule_batch` list.  The merge pops whichever head
        is smaller, which is exactly the order one big heap would produce,
        so the split cannot change simulation results.
        """
        queue = self._queue
        pop = heapq.heappop
        run_list = self._run
        rlen = len(run_list)
        ridx = self._ridx
        self._running = True
        try:
            if until is None:
                while True:
                    if ridx < rlen:
                        item = run_list[ridx]
                        if queue and queue[0] < item:
                            item = pop(queue)
                        else:
                            ridx += 1
                            self._ridx = ridx
                    elif queue:
                        item = pop(queue)
                    else:
                        break
                    when, _, fn, args = item
                    self._now = when
                    profile = self._profile
                    if profile is None:
                        fn(*args)
                    else:
                        profile.dispatch(
                            fn, args, len(queue) + (rlen - ridx) + 1
                        )
                return
            if not (self._now <= until < _INF):
                raise SimulationError(
                    f"cannot run until t={until!r} (now={self._now}): "
                    f"time must be finite and >= now"
                )
            while True:
                if ridx < rlen:
                    item = run_list[ridx]
                    if queue and queue[0] < item:
                        if queue[0][0] > until:
                            break
                        item = pop(queue)
                    else:
                        if item[0] > until:
                            break
                        ridx += 1
                        self._ridx = ridx
                elif queue:
                    if queue[0][0] > until:
                        break
                    item = pop(queue)
                else:
                    break
                when, _, fn, args = item
                self._now = when
                profile = self._profile
                if profile is None:
                    fn(*args)
                else:
                    profile.dispatch(fn, args, len(queue) + (rlen - ridx) + 1)
            self._now = float(until)
        finally:
            self._running = False
            self._ridx = ridx
            if ridx >= rlen:
                # Batch fully consumed: drop it so the next
                # schedule_batch can take the sorted-list path again.
                self._run = []
                self._ridx = 0

    def peek(self) -> float:
        """Time of the next scheduled item, or +inf if nothing remains."""
        queue = self._queue
        when = queue[0][0] if queue else _INF
        ridx = self._ridx
        run_list = self._run
        if ridx < len(run_list) and run_list[ridx][0] < when:
            return run_list[ridx][0]
        return when

    def empty(self) -> bool:
        """True if nothing remains scheduled."""
        return not self._queue and self._ridx >= len(self._run)
