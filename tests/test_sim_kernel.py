"""Unit and property tests for the unified discrete-event kernel."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ConfigurationError, SimulationError
from repro.sim import (
    EventQueue,
    Priority,
    Scenario,
    SimClock,
    SimKernel,
    clamp_warmup,
    smoke_scale,
)


class TestSimClock:
    def test_starts_at_zero_and_advances(self):
        clock = SimClock()
        assert clock.now == 0.0
        clock.advance_to(2.5)
        assert clock.now == 2.5

    def test_cannot_move_backwards(self):
        clock = SimClock()
        clock.advance_to(3.0)
        with pytest.raises(SimulationError):
            clock.advance_to(2.0)


class TestEventQueue:
    def test_orders_by_time_then_priority_then_seq(self):
        queue = EventQueue()
        queue.push(2.0, Priority.FAILURE, lambda: None, "late-failure")
        queue.push(1.0, Priority.STEP, lambda: None, "early-step")
        queue.push(1.0, Priority.FAILURE, lambda: None, "early-failure")
        queue.push(1.0, Priority.STEP, lambda: None, "early-step-2")
        labels = [queue.pop().label for _ in range(4)]
        assert labels == [
            "early-failure", "early-step", "early-step-2", "late-failure",
        ]

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_declared_priority_order(self):
        # The ordering contract the scenario sources rely on: failures
        # before scheduling triggers before step execution before stream
        # drains; completions before arrivals before dispatches.
        assert Priority.FAILURE < Priority.TRIGGER < Priority.STEP
        assert (
            Priority.COMPLETION
            < Priority.ARRIVAL
            < Priority.STEP
            < Priority.STREAM
        )


@settings(max_examples=80, deadline=None)
@given(
    events=st.lists(
        st.tuples(
            st.floats(0.0, 100.0, allow_nan=False),
            st.sampled_from(list(Priority)),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_queue_pops_stable_sorted_order(events):
    """Pop order == stable sort by (time, priority, insertion order)."""
    queue = EventQueue()
    for index, (time, priority) in enumerate(events):
        queue.push(time, priority, lambda: None, label=str(index))
    popped = [queue.pop() for _ in range(len(events))]
    expected = sorted(
        range(len(events)), key=lambda i: (events[i][0], int(events[i][1]), i)
    )
    assert [int(ev.label) for ev in popped] == expected


class SerialKernel(SimKernel):
    """The reference drain: one heap pop per dispatched event.

    The kernel's only drain pops whole same-timestamp groups and merges
    in same-time reschedules from a side buffer; this subclass is the
    obviously-correct one-at-a-time drain it must match event for event.
    It never sets the drain's same-time window, so every reschedule goes
    through the heap.
    """

    def run(self, until=None, max_events=5_000_000):
        queue = self.queue
        while queue:
            if self._processed >= max_events:
                raise SimulationError(
                    f"event budget exhausted after {max_events} events"
                )
            if until is not None and queue.peek().time > until:
                self.clock.advance_to(until)
                return self.now
            event = queue.pop()
            self.clock.advance_to(event.time)
            self._processed += 1
            if self._sink is not None:
                self._sink.observe(
                    event.time, event.priority, event.seq, event.label
                )
            event.callback()
        if until is not None:
            self.clock.advance_to(max(self.now, until))
        return self.now


def run_scenario_serially(scenario, record_trace=True):
    """:meth:`Scenario.run` on the reference drain."""
    kernel = SerialKernel(record_trace=record_trace)
    for source in scenario.sources:
        source.prime(kernel, scenario)
    kernel.run(until=scenario.duration)
    return kernel


class TestSimKernel:
    def test_simultaneous_events_resolve_by_priority(self):
        kernel = SimKernel()
        seen = []
        # Scheduled in the WRONG order on purpose.
        kernel.schedule_at(1.0, lambda: seen.append("step"), Priority.STEP)
        kernel.schedule_at(1.0, lambda: seen.append("trigger"), Priority.TRIGGER)
        kernel.schedule_at(1.0, lambda: seen.append("failure"), Priority.FAILURE)
        # Same time AND priority: first scheduled fires first.
        kernel.schedule_at(1.0, lambda: seen.append("step2"), Priority.STEP)
        kernel.schedule(3.0, lambda: seen.append("late"))
        kernel.schedule(2.0, lambda: seen.append("mid"))
        kernel.run()
        assert seen == ["failure", "trigger", "step", "step2", "mid", "late"]

    def test_cannot_schedule_into_past(self):
        kernel = SimKernel()
        with pytest.raises(SimulationError):
            kernel.schedule(-1.0, lambda: None)
        kernel.schedule_at(2.0, lambda: None)
        assert kernel.run() == 2.0
        assert kernel.now == 2.0
        with pytest.raises(SimulationError):
            kernel.schedule_at(1.0, lambda: None)
        # schedule_at is absolute, schedule relative to the clock.
        kernel.schedule_at(4.0, lambda: None)
        assert kernel.run() == 4.0
        kernel.schedule(4.0, lambda: None)
        assert kernel.run() == 8.0

    def test_run_until_leaves_future_events(self):
        kernel = SimKernel()
        seen = []
        kernel.schedule_at(1.0, lambda: seen.append("early"))
        kernel.schedule_at(10.0, lambda: seen.append("late"))
        assert kernel.run(until=5.0) == 5.0
        assert seen == ["early"]
        assert len(kernel) == 1
        kernel.run()
        assert seen == ["early", "late"]

    def test_callbacks_schedule_followups(self):
        kernel = SimKernel()
        seen = []

        def first():
            seen.append("first")
            kernel.schedule(1.0, lambda: seen.append("second"))

        kernel.schedule_at(1.0, first)
        assert kernel.run() == 2.0
        assert seen == ["first", "second"]

    def test_event_budget_guard(self):
        kernel = SimKernel()

        def recur():
            kernel.schedule(1.0, recur)

        kernel.schedule(1.0, recur)
        with pytest.raises(SimulationError):
            kernel.run(max_events=50)

    def test_trace_records_processed_events(self):
        kernel = SimKernel(record_trace=True)
        kernel.schedule_at(1.0, lambda: None, Priority.STEP, label="b")
        kernel.schedule_at(1.0, lambda: None, Priority.FAILURE, label="a")
        kernel.run()
        assert [entry[3] for entry in kernel.trace] == ["a", "b"]
        assert kernel.processed_events == 2


class _SeededSource:
    """Toy source: schedules seeded-jittered events across the horizon."""

    def prime(self, kernel, scenario):
        rng = np.random.default_rng(scenario.seed)
        for index, time in enumerate(
            rng.uniform(0.0, scenario.duration, size=25)
        ):
            kernel.schedule_at(
                time,
                lambda: None,
                priority=int(rng.integers(0, 50)),
                label=f"jitter[{index}]",
            )


class TestScenario:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Scenario(name="", sources=(_SeededSource(),))
        with pytest.raises(ConfigurationError):
            Scenario(name="x", sources=())
        with pytest.raises(ConfigurationError):
            Scenario(name="x", sources=(_SeededSource(),), duration=0)

    def test_same_seed_scenarios_identical_event_orderings(self):
        """The kernel determinism guarantee: byte-identical traces."""
        def trace(seed):
            scenario = Scenario(
                name="det", sources=(_SeededSource(),), duration=10.0, seed=seed
            )
            return scenario.run(record_trace=True).trace

        assert trace(7) == trace(7)
        assert trace(7) != trace(8)

    def test_run_honours_duration(self):
        scenario = Scenario(
            name="horizon", sources=(_SeededSource(),), duration=10.0
        )
        kernel = scenario.run()
        assert kernel.now == 10.0

    def test_smoke_scales_duration(self):
        scenario = Scenario(
            name="s", sources=(_SeededSource(),), duration=100.0
        )
        assert scenario.smoke().duration == 25.0
        assert scenario.smoke(floor=80).duration == 80.0
        unbounded = Scenario(name="s", sources=(_SeededSource(),))
        assert unbounded.smoke().duration is None


class TestSmokeHelpers:
    def test_smoke_scale_ints_and_floats(self):
        assert smoke_scale(80, floor=25) == 25
        assert smoke_scale(400, floor=10) == 100
        assert isinstance(smoke_scale(400, floor=10), int)
        assert smoke_scale(100.0, floor=8) == 25.0
        with pytest.raises(ConfigurationError):
            smoke_scale(-1)

    def test_smoke_scale_never_enlarges(self):
        """A run already at CI scale must not grow under --smoke (a
        seconds-unit horizon would otherwise blow up against the
        step-unit default floor)."""
        assert smoke_scale(10, floor=150) == 10
        assert smoke_scale(0.0115, floor=8) == 0.0115
        scenario = Scenario(
            name="tiny", sources=(_SeededSource(),), duration=0.5
        )
        assert scenario.smoke().duration == 0.5

    def test_experiment_scale_smoke_is_the_shared_policy(self):
        from repro.bench.harness import FULL, SMOKE

        assert SMOKE == FULL.smoke()
        assert SMOKE.num_steps == 25
        assert SMOKE.warmup == 8
        assert SMOKE.quality_steps == 150
        assert SMOKE.seeds == 1

    def test_clamp_warmup(self):
        assert clamp_warmup(5, 10) == 5
        assert clamp_warmup(10, 5) == 4
        assert clamp_warmup(3, 0) == 0


def _paired_kernels(record_trace=True):
    """The kernel plus the reference drain, both fresh."""
    return (
        SimKernel(record_trace=record_trace),
        SerialKernel(record_trace=record_trace),
    )


class TestBatchDrain:
    """The kernel's batched same-timestamp drain is trace-identical to
    the one-at-a-time reference drain (:class:`SerialKernel`)."""

    def test_tied_group_dispatches_in_priority_then_seq_order(self):
        for kernel in _paired_kernels():
            seen = []
            kernel.schedule_at(1.0, lambda: seen.append("step"), Priority.STEP)
            kernel.schedule_at(
                1.0, lambda: seen.append("fail"), Priority.FAILURE
            )
            kernel.schedule_at(
                1.0, lambda: seen.append("arrive"), Priority.ARRIVAL
            )
            kernel.schedule_at(1.0, lambda: seen.append("step2"), Priority.STEP)
            kernel.run()
            assert seen == ["fail", "arrive", "step", "step2"]

    def test_reschedule_at_current_time_joins_the_group(self):
        """The dispatch-at-now idiom: an event scheduled at the current
        time from inside a callback fires within the same timestamp, in
        (priority, seq) position, under both drains."""
        runs = {}
        for kernel in _paired_kernels():
            seen = []

            def arrival(kernel=kernel, seen=seen):
                seen.append("arrival")
                kernel.schedule_at(
                    kernel.now,
                    lambda: seen.append("dispatch"),
                    Priority.STEP,
                )

            def completion(kernel=kernel, seen=seen):
                seen.append("completion")

            kernel.schedule_at(2.0, arrival, Priority.ARRIVAL)
            kernel.schedule_at(2.0, completion, Priority.COMPLETION)
            kernel.schedule_at(2.0, lambda: seen.append("stream"), Priority.STREAM)
            kernel.run()
            runs[type(kernel) is SimKernel] = (seen, kernel.trace)
        assert runs[True][0] == ["completion", "arrival", "dispatch", "stream"]
        assert runs[True][0] == runs[False][0]
        assert runs[True][1] == runs[False][1]

    def test_budget_exhaustion_mid_group_restores_remainder(self):
        kernel = SimKernel()
        seen = []
        for i in range(6):
            kernel.schedule_at(1.0, lambda i=i: seen.append(i), Priority.STEP)
        with pytest.raises(SimulationError):
            kernel.run(max_events=3)
        assert seen == [0, 1, 2]
        # The undispatched half of the group went back to the heap and a
        # resumed run drains it in the original order.
        assert len(kernel) == 3
        kernel.run()
        assert seen == [0, 1, 2, 3, 4, 5]

    def test_callback_exception_restores_undispatched_events(self):
        kernel = SimKernel()
        seen = []

        def boom():
            seen.append("boom")
            kernel.schedule_at(kernel.now, lambda: seen.append("buffered"))
            raise RuntimeError("callback failed")

        kernel.schedule_at(1.0, boom, Priority.FAILURE)
        kernel.schedule_at(1.0, lambda: seen.append("tied"), Priority.STEP)
        with pytest.raises(RuntimeError):
            kernel.run()
        # Both the tied group remainder AND the same-time event the
        # failing callback buffered survive for a resumed run, which
        # drains them in (priority, seq) order: "tied" (seq 1) before
        # the later-scheduled "buffered" (seq 2) -- exactly what the
        # serial drain would have done.
        assert len(kernel) == 2
        kernel.run()
        assert seen == ["boom", "tied", "buffered"]

    def test_run_until_leaves_future_events(self):
        for kernel in _paired_kernels(record_trace=False):
            seen = []
            kernel.schedule_at(1.0, lambda: seen.append("a"))
            kernel.schedule_at(1.0, lambda: seen.append("b"), Priority.FAILURE)
            kernel.schedule_at(10.0, lambda: seen.append("late"))
            assert kernel.run(until=5.0) == 5.0
            assert seen == ["b", "a"]
            assert len(kernel) == 1

    def test_singleton_groups_match_serial(self):
        runs = {}
        for kernel in _paired_kernels():
            def tick(t, kernel=kernel):
                if t < 5.0:
                    kernel.schedule(1.0, lambda: tick(t + 1.0))

            kernel.schedule_at(0.0, lambda: tick(0.0))
            kernel.run()
            runs[type(kernel) is SimKernel] = kernel.trace
        assert runs[True] == runs[False]
        assert len(runs[True]) == 6


@settings(max_examples=120, deadline=None)
@given(
    events=st.lists(
        st.tuples(
            # A tiny time domain forces heavy timestamp collisions.
            st.sampled_from([0.0, 1.0, 2.0]),
            st.sampled_from(list(Priority)),
            # Whether the callback re-schedules a follow-up at now.
            st.booleans(),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_batch_drain_trace_matches_serial(events):
    """Property: for random tie-heavy schedules whose callbacks may
    re-schedule at the current instant, the batched drain dispatches the
    exact (time, priority, seq) sequence of the reference drain."""
    traces = {}
    for kernel in _paired_kernels():

        def make(index, reschedule):
            def callback():
                if reschedule:
                    kernel.schedule_at(
                        kernel.now,
                        lambda: None,
                        Priority.STREAM,
                        label=f"follow-{index}",
                    )

            return callback

        for index, (time, priority, reschedule) in enumerate(events):
            kernel.schedule_at(
                time, make(index, reschedule), priority, label=str(index)
            )
        kernel.run()
        traces[type(kernel) is SimKernel] = kernel.trace
    assert traces[True] == traces[False]
