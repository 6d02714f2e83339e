"""Model check of the sweep supervisor (DESIGN.md section 12).

A hypothesis state machine runs real :func:`run_sweep` calls on a thread
against a fake executor, a fake ``wait`` and a fake clock.  Whenever the
supervisor submits a job or waits for one, it stops, and the machine
decides what happens next: the submit goes through or finds the pool
broken; one job completes, raises or returns a corrupt result; time
passes; a worker dies and takes every in-flight job with it; or nothing
finishes before the wait times out (a hang).  Only one of the two
threads runs at a time, so every example is deterministic.  When a sweep
is over, the machine checks it and starts the next one under a freshly
drawn policy.

After every step the machine checks what the supervisor promises under
``on_error="record"``: nothing escapes, every job reaches exactly one
terminal status, ``ok`` results are the serial run's bytes, a crash is
charged only to a job alone in flight, and the pool is rebuilt at most
``max_pool_rebuilds + 1`` times.
"""

import collections
import contextlib
import copy
import functools
import queue
import threading
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from unittest import mock

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.analysis.experiments import figure6_spec
from repro.runner import FaultPolicy, canonical_json, run_sweep
from repro.runner import engine

SPEC = figure6_spec(
    n_nodes=16, loads=(0.3, 0.5, 0.7), patterns=("transpose",),
    packets_per_node=3, networks=("baldur", "ideal"), seed=0,
)
KEYS = {canonical_json(job.params): job.key for job in SPEC.expand()}
ORDER = {job.key: n for n, job in enumerate(SPEC.expand())}
TERMINAL = {"ok", "failed", "timeout", "quarantined"}
HANDOFF_S = 30.0  # real seconds one thread waits for the other

SWEEPS = dict(
    policy=st.builds(
        FaultPolicy,
        on_error=st.just("record"),
        max_attempts=st.integers(1, 3),
        crash_retries=st.integers(0, 2),
        max_pool_rebuilds=st.integers(0, 3),
        job_timeout_s=st.sampled_from([None, 1.0]),
        deadline_s=st.sampled_from([None, 3.0]),
        backoff_base_s=st.sampled_from([0.0, 0.5]),
    ),
    workers=st.sampled_from([2, 3]),
    deaths=st.integers(0, 6),
    spawns=st.sampled_from([None, 2]),
)


@functools.lru_cache(maxsize=None)
def serial_results():
    """Results of an undisturbed serial run, by job key."""
    return {
        outcome.job.key: outcome.result
        for outcome in run_sweep(SPEC, jobs=1).outcomes
    }


def key_of(future):
    return future.job_key


class FakePool:
    """An executor whose submits the state machine answers."""

    def __init__(self, machine):
        self.machine = machine
        self.futures = []

    def submit(self, fn, kind, params):
        if self.machine.ask("submit", params) == "broken":
            self.break_all()
            raise BrokenProcessPool("a worker died before submit")
        future = Future()
        future.job_key = KEYS[canonical_json(params)]
        self.futures.append(future)
        return future

    def break_all(self):
        for future in self.futures:
            if not future.done():
                future.set_exception(BrokenProcessPool("a worker died"))

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class SupervisorMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.serial = serial_results()
        machine = self

        class RecordedState(engine._SweepState):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                machine.state = self

        self.patches = contextlib.ExitStack()
        for name, fake in (
            ("_SweepState", RecordedState),
            ("_make_pool", self.make_pool),
            ("wait", self.wait),
            ("_clock", lambda: self.now),
            ("_sleep", self.advance),
        ):
            self.patches.enter_context(mock.patch.object(engine, name, fake))
        self.now = 0.0
        self.request = ("done", None)

    def begin(self, policy, workers, deaths, spawns):
        """Start one sweep.  ``deaths`` caps the worker deaths it may
        script; pool creation fails after ``spawns`` pools (never when
        None)."""
        self.policy = policy
        self.deaths_left = deaths
        self.spawns_left = spawns
        self.lone_deaths = collections.Counter()
        self.submitted = collections.Counter()
        self.finished = []
        self.sweep = None
        self.escaped = None
        self.requests = queue.Queue()
        self.replies = queue.Queue()
        self.thread = threading.Thread(
            target=self.run, args=(workers,), daemon=True)
        self.thread.start()
        self.next_request()

    # -- the supervisor's side ----------------------------------------------

    def run(self, workers):
        try:
            self.sweep = run_sweep(SPEC, jobs=workers, policy=self.policy,
                                   progress=self.progress)
        except BaseException as exc:  # checked by nothing_escapes
            self.escaped = exc
        finally:
            self.requests.put(("done", None))

    def ask(self, kind, payload):
        self.requests.put((kind, payload))
        return self.replies.get(timeout=HANDOFF_S)

    def make_pool(self, workers, n_jobs):
        if self.spawns_left == 0:
            return None
        if self.spawns_left is not None:
            self.spawns_left -= 1
        self.pool = FakePool(self)
        return self.pool

    def wait(self, futures, timeout=None, return_when=None):
        return self.ask("wait", (futures, timeout))

    def advance(self, seconds):
        self.now += seconds

    def progress(self, event):
        if "event" not in event:
            self.finished.append((event["key"], event["status"]))

    # -- the machine's side -------------------------------------------------

    def next_request(self):
        self.request = self.requests.get(timeout=HANDOFF_S)
        self.asked_at = self.now

    def answer(self, reply):
        self.replies.put(reply)
        self.next_request()

    def waiting_until(self):
        """When the pending ``wait`` times out (None: never)."""
        timeout = self.request[1][1]
        return None if timeout is None else self.asked_at + timeout

    def in_flight(self):
        return sorted(self.request[1][0], key=lambda f: ORDER[key_of(f)])

    def at(kind, death=False):
        return precondition(lambda self: self.request[0] == kind and (
            not death or self.deaths_left > 0))

    @initialize(**SWEEPS)
    def first_sweep(self, policy, workers, deaths, spawns):
        self.begin(policy, workers, deaths, spawns)

    @at("done")
    @rule(**SWEEPS)
    def next_sweep(self, policy, workers, deaths, spawns):
        self.check_finished_sweep()
        self.begin(policy, workers, deaths, spawns)

    @at("submit")
    @rule()
    def submit_goes_through(self):
        self.submitted[KEYS[canonical_json(self.request[1])]] += 1
        self.answer("ok")

    @at("submit", death=True)
    @rule()
    def worker_died_before_submit(self):
        self.deaths_left -= 1
        self.answer("broken")

    @precondition(lambda self: self.request[0] == "wait" and (
        self.waiting_until() is None
        or self.now + 0.3 < self.waiting_until()))
    @rule()
    def time_passes(self):
        self.advance(0.3)

    @at("wait")
    @rule(pick=st.integers(0, 3),
          outcome=st.sampled_from(["ok", "error", "corrupt"]))
    def job_finishes(self, pick, outcome):
        futures = self.in_flight()
        future = futures[pick % len(futures)]
        if outcome == "ok":
            result = copy.deepcopy(self.serial[key_of(future)])
            future.set_result((result, 0.0))
        elif outcome == "error":
            future.set_exception(RuntimeError("scripted failure"))
        else:
            future.set_result((("__corrupt__",), 0.0))
        self.answer(({future}, set(futures) - {future}))

    @at("wait", death=True)
    @rule()
    def worker_dies_at_wait(self):
        self.deaths_left -= 1
        futures = self.in_flight()
        if len(futures) == 1:
            self.lone_deaths[key_of(futures[0])] += 1
        self.pool.break_all()
        self.answer((set(futures), set()))

    @precondition(lambda self: self.request[0] == "wait"
                  and self.waiting_until() is not None)
    @rule()
    def nothing_finishes_in_time(self):
        self.now = self.waiting_until()
        self.answer((set(), set(self.in_flight())))

    del at

    # -- invariants -----------------------------------------------------------

    @invariant()
    def nothing_escapes(self):
        assert self.escaped is None, repr(self.escaped)

    @invariant()
    def each_job_reaches_one_terminal_status(self):
        counts = collections.Counter(key for key, _ in self.finished)
        assert all(n == 1 for n in counts.values()), counts
        assert all(status in TERMINAL for _, status in self.finished)

    @invariant()
    def ok_results_are_serial_bytes(self):
        state = self.state
        for i, job in enumerate(state.expanded):
            if state.status[i] == "ok":
                assert canonical_json(state.results[i]) == \
                    canonical_json(self.serial[job.key])

    @invariant()
    def only_a_lone_job_is_charged_a_crash(self):
        state = self.state
        for i, job in enumerate(state.expanded):
            assert state.crashes[i] == self.lone_deaths[job.key]

    @invariant()
    def attempts_count_only_submits_that_went_through(self):
        asking = (KEYS[canonical_json(self.request[1])]
                  if self.request[0] == "submit" else None)
        state = self.state
        for i, job in enumerate(state.expanded):
            assert state.dispatches[i] == \
                self.submitted[job.key] + (job.key == asking)

    @invariant()
    def rebuilds_are_bounded(self):
        assert self.state.report.pool_rebuilds <= \
            self.policy.max_pool_rebuilds + 1

    def check_finished_sweep(self):
        self.thread.join(HANDOFF_S)
        assert not self.thread.is_alive()
        self.nothing_escapes()
        self.each_job_reaches_one_terminal_status()
        assert sorted(key for key, _ in self.finished) == sorted(self.serial)
        for outcome in self.sweep.outcomes:
            assert outcome.status in TERMINAL
            if outcome.ok:
                assert canonical_json(outcome.result) == \
                    canonical_json(self.serial[outcome.job.key])

    def teardown(self):
        """Let every remaining job succeed, then check the last sweep."""
        try:
            for _ in range(1000):
                if self.request[0] == "done":
                    break
                if self.request[0] == "submit":
                    self.submit_goes_through()
                else:
                    self.job_finishes(0, "ok")
            self.check_finished_sweep()
        finally:
            self.patches.close()


TestSupervisorMachine = SupervisorMachine.TestCase
TestSupervisorMachine.settings = settings(
    max_examples=60, stateful_step_count=60, deadline=None,
    derandomize=True, database=None,
)
