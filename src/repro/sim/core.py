"""A small discrete-event simulation kernel.

This is the substrate every simulator in the library runs on: a clock and
a heap of callbacks.  :meth:`Environment.schedule` (and ``schedule_at`` /
``schedule_batch`` / ``schedule_lane``) queue a plain callable to run at a
future time, and :meth:`Environment.run` dispatches them in ``(time, seq)``
order.

Time is a float; the unit is chosen by the caller (network simulators use
nanoseconds, the gate-level circuit simulator uses picoseconds).

Hot-path engineering (see DESIGN.md section 10): the event queue is a heap of
``(time, seq, fn, args)`` tuples where ``seq`` is a plain integer sequence
(FIFO tie-break for simultaneous events, no ``itertools.count`` indirection),
and :meth:`Environment.run` drains the heap with ``heappop`` and the queue
bound to locals.  Events that are born sorted need no heap at all: a bulk
pre-schedule lives in one sorted side list, and a stream of constant-delay
events lives in a FIFO *lane* (:meth:`Environment.lane`); ``run`` merges
their heads with the heap.  None of this changes event ordering: the
``(time, seq)`` keys -- and therefore the dispatch sequence -- are
identical to the naive implementation, which is what keeps simulation
results byte-identical.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import chain, islice
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Iterable,
    Iterator,
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

# A FIFO of entries in non-decreasing (time, seq) order; see Environment.lane.
_Lane = Deque[_QueueItem]


class Environment:
    """The simulation clock and event queue."""

    __slots__ = ("_now", "_queue", "_seq", "_profile", "_run", "_ridx",
                 "_running", "_lanes")

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
        # Constant-delay FIFOs handed out by lane(); empty for most
        # environments, which then run the lane-less loops of run().
        self._lanes: List[_Lane] = []
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
        if self._running or not self.empty():
            push = heapq.heappush
            queue = self._queue
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

    def lane(self) -> _Lane:
        """A new FIFO *lane*: a queue for events that are born sorted.

        A lane holds ordinary ``(time, seq, fn, args)`` entries appended
        in non-decreasing ``(time, seq)`` order -- which is what a stream
        of ``now + constant`` delays produces, since ``now`` never goes
        backwards -- so its head is always its earliest entry and neither
        push nor pop sifts anything.  :meth:`run` merges lane heads with
        the heap by ``(time, seq)``, exactly the order one big heap gives.
        Append through :meth:`schedule_lane`, which keeps the order
        invariant whatever the caller passes.  Lanes are created at set-up
        time, not from a running callback.
        """
        if self._running:
            raise SimulationError("cannot create a lane while run() is active")
        lane: _Lane = deque()
        self._lanes.append(lane)
        return lane

    def schedule_lane(
        self, lane: _Lane, delay: float, fn: Callable[..., Any], *args: Any
    ) -> None:
        """:meth:`schedule` onto ``lane`` (one of this environment's).

        Same validation, same ``seq``.  The entry joins the lane only if
        that keeps the lane sorted (``seq`` always grows, so: its time is
        not before the lane's tail); otherwise it goes onto the heap,
        which orders anything.  A lane therefore cannot reorder events.
        """
        when = self._now + delay
        if not (delay >= 0.0 and when < _INF):
            raise SimulationError(
                f"delay must be finite and >= 0, got {delay!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        if lane and when < lane[-1][0]:
            heapq.heappush(self._queue, (when, seq, fn, args))
        else:
            lane.append((when, seq, fn, args))

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
        so the split cannot change simulation results.  An environment
        with lanes merges their heads the same way (:meth:`_run_lanes`).
        """
        if until is not None and not (self._now <= until < _INF):
            raise SimulationError(
                f"cannot run until t={until!r} (now={self._now}): "
                f"time must be finite and >= now"
            )
        queue = self._queue
        pop = heapq.heappop
        run_list = self._run
        rlen = len(run_list)
        ridx = self._ridx
        self._running = True
        try:
            if self._lanes:
                self._run_lanes(until)
            elif until is None:
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
            else:
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
                        profile.dispatch(
                            fn, args, len(queue) + (rlen - ridx) + 1
                        )
            if until is not None:
                self._now = float(until)
        finally:
            self._running = False
            if self._ridx >= rlen:
                # Batch fully consumed: drop it so the next
                # schedule_batch can take the sorted-list path again.
                self._run = []
                self._ridx = 0

    def _run_lanes(self, until: Optional[float]) -> None:
        """The dispatch loop of :meth:`run` for an environment with lanes.

        One more kind of source, same rule: dispatch the smallest head.
        Every lane is sorted, so the smallest of the heads is the smallest
        pending ``(time, seq)`` overall.
        """
        queue = self._queue
        pop = heapq.heappop
        run_list = self._run
        rlen = len(run_list)
        ridx = self._ridx
        lanes = self._lanes
        limit = _INF if until is None else until
        while True:
            item = queue[0] if queue else None
            source: Any = queue
            if ridx < rlen:
                head = run_list[ridx]
                if item is None or head < item:
                    item = head
                    source = run_list
            for lane in lanes:
                if lane:
                    head = lane[0]
                    if item is None or head < item:
                        item = head
                        source = lane
            if item is None or item[0] > limit:
                break
            if source is queue:
                pop(queue)
            elif source is run_list:
                ridx += 1
                self._ridx = ridx
            else:
                source.popleft()
            when, _, fn, args = item
            self._now = when
            profile = self._profile
            if profile is None:
                fn(*args)
            else:
                profile.dispatch(
                    fn, args,
                    len(queue) + (rlen - ridx) + sum(map(len, lanes)) + 1,
                )

    # peek()/empty() and pending() enumerate the same three places an
    # undispatched item can wait; a fourth belongs in both.

    def _heads(self) -> Iterator[_QueueItem]:
        """The earliest item of each non-empty source."""
        if self._queue:
            yield self._queue[0]
        if self._ridx < len(self._run):
            yield self._run[self._ridx]
        for lane in self._lanes:
            if lane:
                yield lane[0]

    def pending(self) -> Iterator[_QueueItem]:
        """Every scheduled, not yet dispatched item (in no useful order)."""
        return chain(
            self._queue, islice(self._run, self._ridx, None), *self._lanes
        )

    def peek(self) -> float:
        """Time of the next scheduled item, or +inf if nothing remains."""
        return min((head[0] for head in self._heads()), default=_INF)

    def empty(self) -> bool:
        """True if nothing remains scheduled."""
        for _ in self._heads():
            return False
        return True
