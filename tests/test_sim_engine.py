"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.engine import SimulationEngine, SimulationError, ms


class TestScheduling:
    def test_events_fire_in_time_order(self):
        eng = SimulationEngine()
        order = []
        eng.schedule_at(2.0, lambda: order.append("b"))
        eng.schedule_at(1.0, lambda: order.append("a"))
        eng.schedule_at(3.0, lambda: order.append("c"))
        eng.run()
        assert order == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        eng = SimulationEngine()
        order = []
        for tag in range(5):
            eng.schedule_at(1.0, lambda t=tag: order.append(t))
        eng.run()
        assert order == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        eng = SimulationEngine()
        seen = []
        eng.schedule_at(5.5, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [5.5]
        assert eng.now == 5.5

    def test_schedule_after_is_relative(self):
        eng = SimulationEngine()
        seen = []
        eng.schedule_at(10.0, lambda: eng.schedule_at(eng.now + 2.5, lambda: seen.append(eng.now)))
        eng.run()
        assert seen == [12.5]

    def test_scheduling_into_past_raises(self):
        eng = SimulationEngine()
        eng.schedule_at(5.0, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.schedule_at(1.0, lambda: None)

    def test_negative_delay_raises(self):
        eng = SimulationEngine()
        with pytest.raises(SimulationError):
            eng.schedule_at(eng.now - 1.0, lambda: None)

    def test_nan_time_raises(self):
        eng = SimulationEngine()
        with pytest.raises(SimulationError):
            eng.schedule_at(float("nan"), lambda: None)

    def test_events_scheduled_during_run_execute(self):
        eng = SimulationEngine()
        order = []

        def first():
            order.append("first")
            eng.schedule_at(eng.now + 1.0, lambda: order.append("second"))

        eng.schedule_at(0.0, first)
        eng.run()
        assert order == ["first", "second"]

    def test_event_at_current_time_during_run_executes(self):
        eng = SimulationEngine()
        order = []
        eng.schedule_at(1.0, lambda: eng.schedule_at(eng.now, lambda: order.append("x")))
        eng.run()
        assert order == ["x"]


class TestDispatchOrder:
    def test_ties_dispatch_in_schedule_order(self):
        engine, log = SimulationEngine(), []
        for i in range(5):
            engine.schedule_at(1.0, lambda i=i: log.append(i))
        engine.schedule_at(0.5, lambda: log.append("early"))
        engine.schedule_at(2.0, lambda: log.append("late"))
        engine.run()
        assert log == ["early", 0, 1, 2, 3, 4, "late"]
        assert engine.events_processed == 7

    def test_interleaved_times_and_ties(self):
        engine, log = SimulationEngine(), []
        times = [0.25, 0.75, 0.25, 0.5, 0.75, 0.25]
        for i, t in enumerate(times):
            engine.schedule_at(t, lambda i=i, t=t: log.append((t, i)))
        engine.run()
        assert log == sorted(log, key=lambda pair: (pair[0], pair[1]))

    def test_same_time_scheduling_from_running_callback(self):
        """An event scheduled *at the current time* by a running callback
        fires after every event already queued at that time."""
        engine, log = SimulationEngine(), []

        def first():
            log.append("first")
            engine.schedule_at(1.0, lambda: log.append("spawned"))

        engine.schedule_at(1.0, first)
        engine.schedule_at(1.0, lambda: log.append("second"))
        engine.run()
        assert log == ["first", "second", "spawned"]

    def test_until_boundary(self):
        engine, log = SimulationEngine(), []
        engine.schedule_at(1.0, lambda: log.append(1))
        engine.schedule_at(2.0, lambda: log.append(2))
        engine.schedule_at(3.0, lambda: log.append(3))
        end = engine.run(until=2.0)
        assert log == [1, 2]  # events at exactly `until` execute
        assert end == 2.0
        assert engine.pending_live == 1

    def test_step(self):
        engine, log = SimulationEngine(), []
        engine.schedule_at(1.0, lambda: log.append("a"))
        engine.schedule_at(1.0, lambda: log.append("b"))
        assert engine.step() and log == ["a"]
        assert engine.step() and log == ["a", "b"]
        assert not engine.step()

    def test_periodic_timer(self):
        """A periodic timer is one pending event that reschedules itself
        when it fires (as an ASAP refresh tick does); cancelling the
        pending event stops it."""
        engine, log, pending = SimulationEngine(), [], []

        def tick():
            log.append(engine.now)
            pending[:] = [engine.schedule_at(engine.now + 1.0, tick)]

        pending.append(engine.schedule_at(1.0, tick))
        engine.run(until=3.5)
        pending[0].cancel()
        assert log == [1.0, 2.0, 3.0]
        engine.run(until=10.0)
        assert log == [1.0, 2.0, 3.0]
        assert engine.pending_live == 0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        eng = SimulationEngine()
        fired = []
        ev = eng.schedule_at(1.0, lambda: fired.append(1))
        ev.cancel()
        eng.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        eng = SimulationEngine()
        ev = eng.schedule_at(1.0, lambda: None)
        ev.cancel()
        ev.cancel()
        eng.run()

    def test_pending_excludes_cancelled(self):
        eng = SimulationEngine()
        eng.schedule_at(1.0, lambda: None)
        ev = eng.schedule_at(2.0, lambda: None)
        ev.cancel()
        assert eng.pending_live == 1

    def test_cancel_before_run(self):
        engine, log = SimulationEngine(), []
        ev = engine.schedule_at(1.0, lambda: log.append("x"))
        engine.schedule_at(1.0, lambda: log.append("y"))
        ev.cancel()
        assert engine.pending_live == 1
        assert engine.pending_events == 2  # raw depth keeps the corpse
        engine.run()
        assert log == ["y"]
        assert engine.events_processed == 1
        assert engine.pending_live == 0

    def test_cancel_by_earlier_same_time_event_with_observer(self):
        """An event cancelled by an earlier event at its own timestamp must
        not count as processed and must not fire observer hooks."""

        class Recorder:
            def __init__(self):
                self.begun: list = []

            def event_begin(self, event):
                self.begun.append(event.name)

            def event_end(self, event):
                pass

        engine, log = SimulationEngine(), []
        recorder = Recorder()
        engine.set_observer(recorder)
        targets = []

        def kill_all():
            log.append("killer")
            for t in targets:
                t.cancel()

        engine.schedule_at(1.0, kill_all, name="killer")
        for i in range(3):
            targets.append(
                engine.schedule_at(1.0, lambda i=i: log.append(i), name=f"victim-{i}")
            )
        engine.schedule_at(2.0, lambda: log.append("after"), name="after")
        engine.run()
        assert log == ["killer", "after"]
        assert engine.events_processed == 2  # killer + after only
        assert recorder.begun == ["killer", "after"]
        assert engine.pending_live == 0
        assert engine.pending_events == 0

    def test_cancel_by_earlier_same_time_event_without_observer(self):
        engine, log = SimulationEngine(), []
        victim = None

        def killer():
            log.append("killer")
            victim.cancel()

        engine.schedule_at(1.0, killer)
        victim = engine.schedule_at(1.0, lambda: log.append("victim"))
        engine.schedule_at(1.0, lambda: log.append("survivor"))
        engine.run()
        assert log == ["killer", "survivor"]
        assert engine.events_processed == 2
        assert engine.pending_live == 0
        assert engine.pending_events == 0

    def test_cancel_after_execution_is_noop(self):
        engine, log = SimulationEngine(), []
        ev = engine.schedule_at(1.0, lambda: log.append("ran"))
        engine.run()
        ev.cancel()  # must not touch the (empty) queue accounting
        assert engine.pending_live == 0 and engine.pending_events == 0
        engine.schedule_at(2.0, lambda: log.append("later"))
        engine.run()
        assert log == ["ran", "later"]


class TestRunControl:
    def test_run_until_bounds_clock(self):
        eng = SimulationEngine()
        fired = []
        eng.schedule_at(1.0, lambda: fired.append(1))
        eng.schedule_at(10.0, lambda: fired.append(10))
        eng.run(until=5.0)
        assert fired == [1]
        assert eng.now == 5.0  # clock advanced to the bound

    def test_event_exactly_at_until_fires(self):
        eng = SimulationEngine()
        fired = []
        eng.schedule_at(5.0, lambda: fired.append(5))
        eng.run(until=5.0)
        assert fired == [5]

    def test_run_resumes_after_until(self):
        eng = SimulationEngine()
        fired = []
        eng.schedule_at(10.0, lambda: fired.append(10))
        eng.run(until=5.0)
        eng.run()
        assert fired == [10]

    def test_step_executes_single_event(self):
        eng = SimulationEngine()
        fired = []
        eng.schedule_at(1.0, lambda: fired.append(1))
        eng.schedule_at(2.0, lambda: fired.append(2))
        assert eng.step() is True
        assert fired == [1]
        assert eng.step() is True
        assert eng.step() is False

    def test_events_processed_counts_fired_only(self):
        eng = SimulationEngine()
        eng.schedule_at(1.0, lambda: None)
        ev = eng.schedule_at(2.0, lambda: None)
        ev.cancel()
        eng.run()
        assert eng.events_processed == 1

    def test_reentrant_run_rejected(self):
        eng = SimulationEngine()

        def reenter():
            with pytest.raises(SimulationError):
                eng.run()

        eng.schedule_at(1.0, reenter)
        eng.run()


class TestSchedulerStub:
    def test_only_the_heap_is_accepted(self):
        assert SimulationEngine(scheduler="heap").pending_events == 0
        with pytest.raises(SimulationError):
            SimulationEngine(scheduler="calendar")


def test_ms_converts_to_seconds():
    assert ms(50.0) == 0.05
    assert ms(0.0) == 0.0
