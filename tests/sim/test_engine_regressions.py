"""Regression tests for engine time/timeout accounting bugs.

Each test here pins a specific historical bug:

* ``run(until_ps=...)`` returned the last event's time instead of the
  bound when the heap drained early;
* winner-takes-all races (``first_of``) leaked the loser's scheduled
  event, padding drain-mode runs to the stale timer's full expiry;
* cancelled events advanced the clock and the processed-events counter;
* multi-process drivers polled ``all(p.done for p in procs)`` after
  every ``step()``; :meth:`Engine.run_all` must stop on exactly the same
  event and name every unfinished process when the queues drain.
"""

import random

import pytest

from repro.errors import SimulationError
from repro.sim.core import Engine, Signal, dispatch_mode, first_of


class TestRunUntilAdvancesOnEarlyDrain:
    """run(until_ps=X) must leave the clock at X even if events run out."""

    def test_clock_advances_to_bound_when_heap_drains(self, engine):
        # The original bug: one event at 100, run(until_ps=10_000)
        # returned 100 -- every caller computing "quiet time until the
        # horizon" under-reported by the drained gap.
        engine.after(100, lambda: None)
        stopped = engine.run(until_ps=10_000)
        assert stopped == 10_000
        assert engine.now_ps == 10_000

    def test_clock_advances_on_empty_schedule(self, engine):
        assert engine.run(until_ps=777) == 777
        assert engine.now_ps == 777

    def test_scheduling_after_early_drain_respects_new_now(self, engine):
        engine.run(until_ps=5_000)
        # 4_000 is now in the past; the engine must say so.
        with pytest.raises(SimulationError):
            engine.at(4_000, lambda: None)

    def test_unbounded_run_still_stops_at_last_event(self, engine):
        engine.after(300, lambda: None)
        engine.run()
        assert engine.now_ps == 300


class TestEventCancellation:
    def test_cancelled_timer_never_runs(self, engine):
        fired = []
        token = engine.after(1_000, fired.append, "x")
        engine.cancel_event(token)
        engine.run()
        assert fired == []

    def test_cancelled_event_leaves_no_trace_on_drain(self, engine):
        # A cancelled timer must not advance the clock of a drain-mode
        # run, nor count as a processed event.
        engine.after(10, lambda: None)
        token = engine.after(1_000_000, lambda: None)
        engine.cancel_event(token)
        engine.run()
        assert engine.now_ps == 10
        assert engine.events_processed == 1

    def test_cancelled_call_soon_skipped(self, engine):
        ran = []
        keep = engine.call_soon(ran.append, "keep")
        drop = engine.call_soon(ran.append, "drop")
        engine.cancel_event(drop)
        engine.run()
        assert ran == ["keep"]
        assert keep != drop

    def test_cancel_after_run_is_harmless(self, engine):
        token = engine.after(5, lambda: None)
        engine.run()
        engine.cancel_event(token)  # stale token: ignored
        engine.after(10, lambda: None)
        engine.run()
        assert engine.now_ps == 15

    def test_until_ps_reached_when_only_cancelled_events_remain(self, engine):
        token = engine.after(50_000, lambda: None)
        engine.cancel_event(token)
        assert engine.run(until_ps=20_000) == 20_000
        assert engine.events_processed == 0


class TestSignalCancel:
    def test_cancel_voids_scheduled_fire(self, engine):
        sig = engine.signal("victim")
        sig.fire_after(1_000_000)
        sig.cancel()
        engine.run()
        # The whole point: no stale event pads the drain to 1 us.
        assert engine.now_ps == 0
        assert not sig.fired

    def test_cancel_drops_waiters(self, engine):
        sig = engine.signal()
        woken = []
        sig.add_callback(woken.append)
        sig.cancel()
        sig.fire()  # post-cancel fire is a no-op, not an error
        engine.run()
        assert woken == []
        assert not sig.fired

    def test_add_callback_after_cancel_is_noop(self, engine):
        sig = engine.signal()
        sig.cancel()
        woken = []
        sig.add_callback(woken.append)
        engine.run()
        assert woken == []

    def test_cancel_fired_signal_is_noop(self, engine):
        sig = engine.signal()
        sig.fire(7)
        sig.cancel()
        assert sig.fired and sig.value == 7

    def test_double_cancel_is_harmless(self, engine):
        sig = engine.signal()
        sig.fire_after(100)
        sig.cancel()
        sig.cancel()
        engine.run()
        assert engine.now_ps == 0


class TestFirstOfLoserCancellation:
    """The wait-with-timeout pattern must not leak the losing timer."""

    def test_cancelled_loser_does_not_pad_drain(self, engine):
        # The original leak, in miniature: a 500 ps winner raced against
        # a 1 ms timer padded every subsequent engine.run() to 1 ms.
        done = engine.signal("done")
        done.fire_after(500, "value")
        timer = engine.signal("timeout")
        timer.fire_after(1_000_000)
        outcome = []

        def waiter():
            index, value = yield first_of(engine, [done, timer])
            if index == 0:
                timer.cancel()
            outcome.append((index, value))

        engine.process(waiter())
        engine.run()
        assert outcome == [(0, "value")]
        assert engine.now_ps == 500

    def test_uncancelled_loser_still_fires_harmlessly(self, engine):
        # first_of itself never cancels: a shared loser must stay usable.
        done = engine.signal("done")
        done.fire_after(500, "v")
        timer = engine.signal("timeout")
        timer.fire_after(2_000)
        engine.process(self._race(engine, done, timer))
        engine.run()
        assert engine.now_ps == 2_000
        assert timer.fired

    @staticmethod
    def _race(engine, done, timer):
        yield first_of(engine, [done, timer])


class TestReadyHeapInterleaving:
    """call_soon's FIFO fast path must keep global (time, seq) order."""

    def test_same_time_heap_and_ready_interleave_by_sequence(self, engine):
        order = []
        engine.after(0, order.append, "heap-0")
        engine.call_soon(order.append, "soon-0")
        engine.after(0, order.append, "heap-1")
        engine.call_soon(order.append, "soon-1")
        engine.run()
        assert order == ["heap-0", "soon-0", "heap-1", "soon-1"]

    def test_call_soon_runs_before_future_heap_events(self, engine):
        order = []
        engine.after(10, order.append, "later")
        engine.call_soon(order.append, "now")
        engine.run()
        assert order == ["now", "later"]

    def test_call_soon_from_callback_runs_at_same_time(self, engine):
        times = []

        def outer():
            engine.call_soon(lambda: times.append(engine.now_ps))

        engine.after(40, outer)
        engine.after(50, lambda: None)
        engine.run()
        assert times == [40]

    def test_mixed_schedule_is_deterministic(self):
        def build():
            eng = Engine()
            order = []
            for i in range(5):
                eng.after(i % 2, order.append, ("at", i))
                eng.call_soon(order.append, ("soon", i))
            eng.run()
            return order

        assert build() == build()


class TestCancelRetiredEvent:
    """cancel_event on an already-retired token is a documented no-op.

    The historical bug: cancelling a timer that had already fired left
    its token in the cancellation set, and because the set was only
    pruned entry-by-entry, a long-lived engine accumulated stale tokens
    -- and a hypothetical token reuse would have suppressed a live
    event.  Now sequence numbers are never reused and the set is cleared
    wholesale when the queues drain, so a stale cancel can never touch
    future traffic.
    """

    def test_cancel_after_fire_is_noop(self, engine):
        fired = []
        token = engine.after(10, fired.append, "a")
        engine.run()
        assert fired == ["a"]
        engine.cancel_event(token)  # retired: must not raise
        engine.after(5, fired.append, "b")
        engine.run()
        assert fired == ["a", "b"]

    def test_stale_token_never_suppresses_future_events(self, engine):
        fired = []
        token = engine.after(1, fired.append, "first")
        engine.run()
        engine.cancel_event(token)
        # Schedule plenty of follow-on traffic; none may be swallowed.
        for i in range(5):
            engine.after(i + 1, fired.append, i)
        engine.run()
        assert fired == ["first", 0, 1, 2, 3, 4]

    def test_double_cancel_is_noop(self, engine):
        fired = []
        token = engine.after(10, fired.append, "doomed")
        engine.cancel_event(token)
        engine.cancel_event(token)  # second cancel: no-op
        engine.after(20, fired.append, "kept")
        engine.run()
        assert fired == ["kept"]
        assert engine.events_processed == 1

    def test_cancellation_set_drains_with_queues(self, engine):
        tokens = [engine.after(10 + i, lambda: None) for i in range(4)]
        for token in tokens:
            engine.cancel_event(token)
        engine.run()
        # Every remembered token was stale by the time the queues
        # drained, so the set must be empty again.
        assert not engine._cancelled


def _poll_until_done(engine, procs):
    """The retired driver loop, kept as the oracle for ``run_all``."""
    while not all(p.done for p in procs):
        if not engine.step():
            raise SimulationError("deadlock")
    return engine.now_ps


def _out_of_order_scenario(engine, seed):
    """Workers that finish out of list order, with traffic left queued.

    Mixes timers, bare-int delays, a signal relay, call_soon work and a
    cancelled timer; a background process keeps running past the point
    where the last worker finishes.
    """
    rng = random.Random(seed)
    relay = engine.signal("relay")

    def worker(delays, wait_relay):
        for delay in delays:
            yield delay
        if wait_relay:
            yield relay
        return engine.now_ps

    def background():
        for i in range(200):
            yield rng.randrange(1, 9)
            if i == 40:
                relay.fire(i)
            if i % 7 == 0:
                engine.call_soon(lambda: None)

    engine.process(background(), name="background")
    doomed = engine.after(75, lambda: None)
    engine.cancel_event(doomed)
    procs = [engine.process(worker([rng.randrange(0, 60)
                                    for _ in range(rng.randrange(1, 6))],
                                   wait_relay=(i == 1)),
                            name=f"w{i}")
             for i in range(6)]
    # Spawn order is not finish order.
    rng.shuffle(procs)
    return procs


def _state(engine):
    """Everything the stop point determines: clock, count, queues."""
    pending = sorted([(time_ps, seq) for time_ps, seq, _, _ in engine._heap]
                     + [(engine.now_ps, seq) for seq, _, _ in engine._ready])
    return (engine.now_ps, engine.events_processed, engine._sequence,
            pending, sorted(engine._cancelled))


def _reference_engine():
    with dispatch_mode("reference"):
        engine = Engine()
    assert engine.dispatch == "reference"
    return engine


ENGINES = pytest.mark.parametrize(
    "make_engine", [Engine, _reference_engine], ids=["fast", "reference"])


class TestRunAllStopPoint:
    """run_all(procs) stops exactly where the polling loop stopped."""

    @pytest.mark.parametrize("seed", range(6))
    @ENGINES
    def test_same_stop_point_as_polling_loop(self, make_engine, seed):
        polled, fused = make_engine(), make_engine()
        polled_procs = _out_of_order_scenario(polled, seed)
        fused_procs = _out_of_order_scenario(fused, seed)
        stopped = fused.run_all(fused_procs)
        assert stopped == _poll_until_done(polled, polled_procs)
        assert _state(fused) == _state(polled)
        assert [p.result for p in fused_procs] == \
            [p.result for p in polled_procs]
        # Traffic is still queued, and it continues identically.
        assert fused._heap or fused._ready
        fused.run()
        polled.run()
        assert _state(fused) == _state(polled)

    def test_already_done_procs_dispatch_nothing(self, engine):
        def quick():
            yield 5

        procs = [engine.process(quick()), engine.process(quick())]
        engine.run_all(procs)
        engine.after(100, lambda: None)
        before = _state(engine)
        assert engine.run_all(procs) == before[0]
        assert _state(engine) == before

    def test_empty_procs_dispatch_nothing(self, engine):
        engine.after(100, lambda: None)
        engine.call_soon(lambda: None)
        before = _state(engine)
        assert engine.run_all([]) == 0
        assert _state(engine) == before

    def test_run_process_is_run_all_of_one(self):
        def job(engine):
            yield 10
            late = engine.signal("late")
            late.fire_after(5)
            yield late
            return engine.now_ps

        direct, fused = Engine(), Engine()
        result = direct.run_process(job(direct), name="job")
        proc = fused.process(job(fused), name="job")
        fused.run_all((proc,))
        assert proc.result == result
        assert _state(fused) == _state(direct)


class TestRunAllDeadlock:
    """A drained queue names every process that is still waiting."""

    @ENGINES
    def test_error_names_every_waiting_process(self, make_engine):
        engine = make_engine()
        never = engine.signal("never")

        def stuck():
            yield never

        def finishes():
            yield 10

        procs = [engine.process(stuck(), name="flow0"),
                 engine.process(finishes(), name="flow1"),
                 engine.process(stuck(), name="flow3")]
        with pytest.raises(SimulationError) as info:
            engine.run_all(procs)
        message = str(info.value)
        assert message == ("deadlock: processes 'flow0', 'flow3' are still "
                           "waiting but no events remain")
        assert "flow1" not in message

    def test_single_waiting_process_message(self, engine):
        never = engine.signal("never")

        def stuck():
            yield never

        procs = [engine.process(stuck(), name="flow3")]
        with pytest.raises(SimulationError,
                           match=r"^deadlock: process 'flow3' is still "
                                 r"waiting but no events remain$"):
            engine.run_all(procs)

    def test_run_process_deadlock_names_the_process(self, engine):
        never = engine.signal("never")

        def stuck():
            yield never

        with pytest.raises(SimulationError,
                           match="deadlock: process 'observe' is still"):
            engine.run_process(stuck(), name="observe")
