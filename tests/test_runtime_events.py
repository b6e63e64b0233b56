"""The discrete-event loop contract, run on the one event loop the
runtime has: :class:`repro.sim.SimKernel`."""

import pytest

from repro.exceptions import SimulationError
from repro.sim import SimKernel


class TestEventLoop:
    def test_runs_in_time_order(self):
        loop = SimKernel()
        seen = []
        loop.schedule(2.0, lambda: seen.append("b"))
        loop.schedule(1.0, lambda: seen.append("a"))
        loop.schedule(3.0, lambda: seen.append("c"))
        loop.run()
        assert seen == ["a", "b", "c"]

    def test_fifo_among_simultaneous(self):
        loop = SimKernel()
        seen = []
        loop.schedule(1.0, lambda: seen.append(1))
        loop.schedule(1.0, lambda: seen.append(2))
        loop.run()
        assert seen == [1, 2]

    def test_clock_advances(self):
        loop = SimKernel()
        loop.schedule(5.0, lambda: None)
        assert loop.run() == 5.0
        assert loop.now == 5.0

    def test_callbacks_can_schedule_more(self):
        loop = SimKernel()
        seen = []

        def first():
            seen.append("first")
            loop.schedule(1.0, lambda: seen.append("second"))

        loop.schedule(1.0, first)
        loop.run()
        assert seen == ["first", "second"]
        assert loop.now == 2.0

    def test_run_until_leaves_future_events(self):
        loop = SimKernel()
        seen = []
        loop.schedule(1.0, lambda: seen.append("early"))
        loop.schedule(10.0, lambda: seen.append("late"))
        loop.run(until=5.0)
        assert seen == ["early"]
        assert len(loop) == 1
        loop.run()
        assert seen == ["early", "late"]

    def test_schedule_at_absolute(self):
        loop = SimKernel()
        loop.schedule_at(4.0, lambda: None)
        assert loop.run() == 4.0

    def test_cannot_schedule_into_past(self):
        loop = SimKernel()
        with pytest.raises(SimulationError):
            loop.schedule(-1.0, lambda: None)
        loop.schedule(2.0, lambda: None)
        loop.run()
        with pytest.raises(SimulationError):
            loop.schedule_at(1.0, lambda: None)

    def test_event_budget_guard(self):
        loop = SimKernel()

        def recur():
            loop.schedule(1.0, recur)

        loop.schedule(1.0, recur)
        with pytest.raises(SimulationError):
            loop.run(max_events=100)
