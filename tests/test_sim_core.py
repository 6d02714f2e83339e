"""Tests for the discrete-event kernel (repro.sim.core)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim
from repro.electrical import IdealNetwork
from repro.errors import SimulationError
from repro.sim import Environment


class TestScheduling:
    def test_initial_time_is_zero(self):
        env = Environment()
        assert env.now == 0.0

    def test_initial_time_custom(self):
        env = Environment(initial_time=42.0)
        assert env.now == 42.0

    def test_schedule_runs_callback_at_delay(self):
        env = Environment()
        fired = []
        env.schedule(5.0, lambda: fired.append(env.now))
        env.run()
        assert fired == [5.0]

    def test_schedule_with_args(self):
        env = Environment()
        got = []
        env.schedule(1.0, lambda a, b: got.append((a, b)), 1, 2)
        env.run()
        assert got == [(1, 2)]

    def test_schedule_at_absolute_time(self):
        env = Environment()
        fired = []
        env.schedule_at(7.5, lambda: fired.append(env.now))
        env.run()
        assert fired == [7.5]

    def test_schedule_negative_delay_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.schedule(-1.0, lambda: None)

    def test_schedule_at_past_raises(self):
        env = Environment(initial_time=10.0)
        with pytest.raises(SimulationError):
            env.schedule_at(5.0, lambda: None)

    def test_fifo_order_for_simultaneous_events(self):
        env = Environment()
        order = []
        env.schedule(1.0, lambda: order.append("first"))
        env.schedule(1.0, lambda: order.append("second"))
        env.run()
        assert order == ["first", "second"]

    def test_time_ordering(self):
        env = Environment()
        order = []
        env.schedule(3.0, lambda: order.append(3))
        env.schedule(1.0, lambda: order.append(1))
        env.schedule(2.0, lambda: order.append(2))
        env.run()
        assert order == [1, 2, 3]

    def test_run_until_advances_clock_past_empty_queue(self):
        env = Environment()
        env.run(until=100.0)
        assert env.now == 100.0

    def test_run_until_does_not_run_later_events(self):
        env = Environment()
        fired = []
        env.schedule(5.0, lambda: fired.append("early"))
        env.schedule(50.0, lambda: fired.append("late"))
        env.run(until=10.0)
        assert fired == ["early"]
        assert env.now == 10.0

    def test_run_until_past_raises(self):
        env = Environment(initial_time=5.0)
        with pytest.raises(SimulationError):
            env.run(until=1.0)

    def test_peek_and_empty(self):
        env = Environment()
        assert env.empty()
        assert env.peek() == float("inf")
        env.schedule(2.0, lambda: None)
        assert env.peek() == 2.0
        assert not env.empty()

    def test_nested_scheduling(self):
        env = Environment()
        fired = []

        def outer():
            fired.append(("outer", env.now))
            env.schedule(3.0, lambda: fired.append(("inner", env.now)))

        env.schedule(1.0, outer)
        env.run()
        assert fired == [("outer", 1.0), ("inner", 4.0)]


def test_public_names_are_environment_and_rand_helpers():
    assert sorted(repro.sim.__all__) == [
        "Environment", "derive_seed", "numpy_stream", "stream",
    ]


class TestNonFiniteDelays:
    """NaN/inf delays would corrupt heap order (every NaN comparison is
    False); the kernel must reject them eagerly."""

    @pytest.mark.parametrize("delay", [
        float("nan"), float("inf"), -float("inf"),
    ])
    def test_schedule_rejects_non_finite(self, delay):
        env = Environment()
        with pytest.raises(SimulationError):
            env.schedule(delay, lambda: None)

    @pytest.mark.parametrize("when", [
        float("nan"), float("inf"), -float("inf"),
    ])
    def test_schedule_at_rejects_non_finite(self, when):
        env = Environment()
        with pytest.raises(SimulationError):
            env.schedule_at(when, lambda: None)

    @pytest.mark.parametrize("until", [
        float("nan"), float("inf"), -float("inf"),
    ])
    def test_run_until_rejects_non_finite(self, until):
        env = Environment()
        fired = []
        env.schedule(1.0, fired.append, 1.0)
        with pytest.raises(SimulationError):
            env.run(until=until)
        # Refused before dispatching: the clock and queue are untouched.
        assert fired == []
        assert env.now == 0.0
        env.run()
        assert fired == [1.0]

    def test_network_run_until_nan_is_rejected(self):
        net = IdealNetwork(4)
        net.submit(0, 1, time=0.0)
        with pytest.raises(SimulationError):
            net.run(until=float("nan"))
        assert net.run().delivered == 1

    def test_schedule_batch_rejects_non_finite(self):
        env = Environment()
        nop = lambda: None  # noqa: E731
        for bad in (float("nan"), float("inf")):
            with pytest.raises(SimulationError):
                env.schedule_batch([(1.0, nop, ()), (bad, nop, ())])

    def test_huge_but_finite_delay_is_fine(self):
        env = Environment()
        env.schedule(1e300, lambda: None)
        env.run()
        assert env.now == 1e300


class TestScheduleBatch:
    """schedule_batch must dispatch exactly like per-entry schedule_at."""

    def test_batch_matches_sequential_order(self):
        entries = [
            (3.0, "a"), (1.0, "b"), (2.0, "c"), (1.0, "d"), (3.0, "e"),
        ]
        runs = []
        for use_batch in (False, True):
            env = Environment()
            order = []

            def cb(tag, env=env, order=order):
                order.append((env.now, tag))

            if use_batch:
                n = env.schedule_batch(
                    [(when, cb, (tag,)) for when, tag in entries]
                )
                assert n == len(entries)
            else:
                for when, tag in entries:
                    env.schedule_at(when, cb, tag)
            env.run()
            runs.append(order)
        # Identical times AND identical FIFO tie-breaks (b before d,
        # a before e).
        assert runs[0] == runs[1]
        assert runs[0] == [
            (1.0, "b"), (1.0, "d"), (2.0, "c"), (3.0, "a"), (3.0, "e"),
        ]

    def test_batch_merges_with_dynamic_events(self):
        """Events scheduled *during* the run interleave with the batch by
        (time, seq) exactly as one big heap would order them."""
        env = Environment()
        order = []

        def batch_cb(tag):
            order.append((env.now, tag))
            if tag == "b1":
                # Dynamic events both before and after the next batch entry.
                env.schedule(0.5, batch_cb, "dyn-1.5")
                env.schedule(2.5, batch_cb, "dyn-3.5")

        env.schedule_batch([
            (1.0, batch_cb, ("b1",)),
            (2.0, batch_cb, ("b2",)),
            (4.0, batch_cb, ("b3",)),
        ])
        env.run()
        assert order == [
            (1.0, "b1"), (1.5, "dyn-1.5"), (2.0, "b2"),
            (3.5, "dyn-3.5"), (4.0, "b3"),
        ]

    def test_batch_into_nonempty_queue(self):
        env = Environment()
        order = []

        def cb(tag):
            order.append((env.now, tag))

        env.schedule(1.5, cb, "heap")
        env.schedule_batch([(1.0, cb, ("batch-1",)),
                            (2.0, cb, ("batch-2",))])
        env.run()
        assert order == [(1.0, "batch-1"), (1.5, "heap"), (2.0, "batch-2")]

    def test_batch_respects_run_until(self):
        env = Environment()
        order = []

        def cb(tag):
            order.append(tag)

        env.schedule_batch([(1.0, cb, ("a",)), (5.0, cb, ("b",))])
        env.run(until=2.0)
        assert order == ["a"]
        assert env.now == 2.0
        assert not env.empty()
        assert env.peek() == 5.0
        env.run()
        assert order == ["a", "b"]
        assert env.empty()

    def test_peek_empty_step_see_the_batch(self):
        env = Environment()
        fired = []
        env.schedule_batch([(2.0, fired.append, (2.0,))])
        env.schedule(3.0, fired.append, 3.0)
        assert not env.empty()
        assert env.peek() == 2.0
        env.run(until=2.0)
        assert fired == [2.0]
        assert env.peek() == 3.0
        env.run()
        assert fired == [2.0, 3.0]
        assert env.empty()

    def test_second_batch_after_drain(self):
        env = Environment()
        order = []
        env.schedule_batch([(1.0, order.append, ("first",))])
        env.run()
        env.schedule_batch([(2.0, order.append, ("second",))])
        env.run()
        assert order == ["first", "second"]
        assert env.now == 2.0

    def test_batch_scheduled_from_inside_a_callback(self):
        """A callback bulk-scheduling mid-run must not lose events."""
        env = Environment()
        order = []

        def first():
            order.append("first")
            env.schedule_batch([
                (2.0, order.append, ("late",)),
                (1.5, order.append, ("early",)),
            ])

        env.schedule(1.0, first)
        env.run()
        assert order == ["first", "early", "late"]


# -- FIFO lanes -----------------------------------------------------------------

# Few distinct delays, so a lane sees equal, rising and *falling* keys and
# the sources tie often.
_DELAYS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.5])
_LEAF = st.one_of(
    st.tuples(st.just("schedule"), _DELAYS),
    st.tuples(st.just("schedule_at"), _DELAYS),
    st.tuples(st.just("lane"), _DELAYS, st.integers(0, 1)),
    st.tuples(st.just("batch"), st.lists(_DELAYS, max_size=4)),
)
# A step schedules something whose callback schedules `children`, or runs
# the environment for a while.
_STEP = st.one_of(
    st.tuples(_LEAF, st.lists(_LEAF, max_size=3)),
    st.tuples(st.just("run"), _DELAYS),
)


def _drive(program, use_lanes):
    """Execute ``program``; lane pushes go to real lanes or to the heap."""
    env = Environment()
    lanes = [env.lane(), env.lane()] if use_lanes else []
    log = []
    tags = itertools.count()

    def callback(children=()):
        tag = next(tags)

        def fire():
            log.append((env.now, tag))
            for child in children:
                issue(child)

        return fire

    def issue(leaf, children=()):
        kind, arg = leaf[0], leaf[1]
        if kind == "schedule":
            env.schedule(arg, callback(children))
        elif kind == "schedule_at":
            env.schedule_at(env.now + arg, callback(children))
        elif kind == "lane" and use_lanes:
            env.schedule_lane(lanes[leaf[2]], arg, callback(children))
        elif kind == "lane":
            env.schedule(arg, callback(children))
        else:
            env.schedule_batch(
                [(env.now + d, callback(children), ()) for d in arg]
            )

    def snapshot():
        pending = sorted((t, seq) for t, seq, _, _ in env.pending())
        return ("state", env.now, env.peek(), env.empty(), pending)

    for step in program:
        if step[0] == "run":
            env.run(until=env.now + step[1])
        else:
            issue(*step)
        log.append(snapshot())
    env.run()
    log.append(snapshot())
    for lane in lanes:
        assert not lane
    return log


class TestLanes:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_STEP, max_size=25))
    def test_lanes_cannot_reorder(self, program):
        """Same program, same dispatch sequence and same peek()/empty()/
        pending() after every step, whether lane pushes wait on lanes or
        on the heap -- including pushes that would un-sort a lane."""
        assert _drive(program, True) == _drive(program, False)

    def test_lane_events_run_in_time_then_fifo_order(self):
        env = Environment()
        lane = env.lane()
        order = []
        env.schedule(2.0, order.append, "heap-2")
        env.schedule_lane(lane, 1.0, order.append, "lane-1")
        env.schedule_lane(lane, 2.0, order.append, "lane-2")
        env.schedule_batch([(1.0, order.append, ("batch-1",))])
        assert env.peek() == 1.0
        assert len(list(env.pending())) == 4
        env.run(until=1.0)
        assert order == ["lane-1", "batch-1"]
        assert not env.empty() and env.peek() == 2.0
        env.run()
        assert order == ["lane-1", "batch-1", "heap-2", "lane-2"]
        assert env.empty()

    def test_out_of_order_push_falls_back_to_the_heap(self):
        env = Environment()
        lane = env.lane()
        env.schedule_lane(lane, 5.0, lambda: None)
        env.schedule_lane(lane, 1.0, lambda: None)  # before the lane's tail
        env.schedule_lane(lane, 5.0, lambda: None)  # equal keys may follow
        assert [item[0] for item in lane] == [5.0, 5.0]
        assert env.peek() == 1.0

    @pytest.mark.parametrize("delay", [
        float("nan"), float("inf"), -float("inf"), -1.0,
    ])
    def test_schedule_lane_rejects_bad_delays(self, delay):
        env = Environment()
        lane = env.lane()
        with pytest.raises(SimulationError):
            env.schedule_lane(lane, delay, lambda: None)
        assert not lane and env.empty()

    def test_lane_cannot_be_created_mid_run(self):
        env = Environment()
        env.schedule(1.0, env.lane)
        with pytest.raises(SimulationError):
            env.run()

    def test_profile_depth_counts_lane_entries(self):
        env = Environment()
        lane = env.lane()
        profile = env.enable_profiling()
        for _ in range(3):
            env.schedule_lane(lane, 1.0, lambda: None)
        env.schedule(1.0, lambda: None)
        env.run()
        assert profile.events_dispatched == 4
        assert profile.max_heap_depth == 4
