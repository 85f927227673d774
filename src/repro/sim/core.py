"""Discrete-event engine, signals and coroutine processes.

Design notes
------------
* Event order is defined by ``(time_ps, sequence)``; the monotonically
  increasing sequence number makes simultaneous events fire in the order
  they were scheduled, which keeps runs deterministic.
* Processes are plain generators.  They may yield:

  - an ``int`` or :class:`Delay` — resume after that many picoseconds,
  - a :class:`Signal` — resume when it fires (receiving its value),
  - another :class:`Process` — resume when it finishes (receiving its
    return value); exceptions raised by the child are re-raised in the
    waiter.

* There is deliberately no wall-clock anywhere: simulated time only.

Dispatch modes
--------------
The engine ships two schedulers that produce **bit-identical** event
orders (see ``docs/performance.md`` for the invariants and the proof
sketch; ``tests/sim/test_dispatch_equivalence.py`` checks every registry
experiment byte-for-byte):

* ``"reference"`` — a pure heap scheduler: every event, including
  :meth:`Engine.call_soon`, is pushed onto the ``(time_ps, sequence)``
  heap.  Slow, obviously correct, and the oracle the differential tests
  compare against.
* ``"fast"`` (the default) — the production path: a FIFO ready deque as
  the *now bucket* for :meth:`Engine.call_soon` (the dominant scheduling
  call — every signal fire lands there and never needs heap ordering), the
  heap only for future timers, fused dispatch loops in
  :meth:`Engine.run` / :meth:`Engine.run_all`, and a batch-advance
  trampoline in :class:`Process` that keeps a resumed coroutine on the
  stack whenever its wakeup is provably the next event.

The default comes from the ``TCA_SIM_DISPATCH`` environment variable and
can be changed per-call-tree with :func:`set_default_dispatch` /
:func:`dispatch_mode`, or per engine with ``Engine(dispatch=...)``.
"""

from __future__ import annotations

import heapq
import os
from collections import deque
from contextlib import contextmanager
from typing import (Any, Callable, Deque, Dict, Generator, Iterable, Iterator,
                    List, Optional, Sequence, Set, Tuple)

from repro.errors import SimulationError
from repro.units import PS_PER_NS

ProcessGen = Generator[Any, Any, Any]

#: Recognised scheduler implementations (see module docstring).
DISPATCH_MODES = ("fast", "reference")

#: Sentinel horizon for unbounded runs: far beyond any simulated time the
#: experiments reach, so the batch-advance clock check is a plain integer
#: compare instead of a ``None`` test on the hot path.
_NO_HORIZON = 1 << 200

_default_dispatch = os.environ.get("TCA_SIM_DISPATCH", "fast")
if _default_dispatch not in DISPATCH_MODES:
    raise SimulationError(
        f"TCA_SIM_DISPATCH={_default_dispatch!r} is not one of "
        f"{DISPATCH_MODES}")


def default_dispatch() -> str:
    """The dispatch mode new :class:`Engine` instances get by default."""
    return _default_dispatch


def set_default_dispatch(mode: str) -> str:
    """Set the process-wide default dispatch mode; returns the previous one."""
    global _default_dispatch
    if mode not in DISPATCH_MODES:
        raise SimulationError(
            f"unknown dispatch mode {mode!r}; expected one of "
            f"{DISPATCH_MODES}")
    previous = _default_dispatch
    _default_dispatch = mode
    return previous


@contextmanager
def dispatch_mode(mode: str) -> Iterator[None]:
    """Context manager: every engine built inside uses ``mode``.

    This is how the differential tests run a whole experiment — which
    constructs its engines internally — under the reference scheduler.
    """
    previous = set_default_dispatch(mode)
    try:
        yield
    finally:
        set_default_dispatch(previous)


class Delay:
    """Yieldable timeout of ``duration_ps`` picoseconds."""

    __slots__ = ("duration_ps",)

    def __init__(self, duration_ps: int):
        if duration_ps < 0:
            raise SimulationError(f"negative delay: {duration_ps}")
        self.duration_ps = int(duration_ps)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Delay({self.duration_ps}ps)"


class Signal:
    """A one-shot event that processes can wait on.

    A signal remembers that it fired, so waiting on an already-fired signal
    resumes immediately with the stored value.  Firing twice is an error —
    it almost always indicates a protocol bug in a hardware model.

    A pending signal can be cancelled via :meth:`cancel`: its scheduled fire (if any)
    is withdrawn from the event heap, waiters are dropped, and later fires
    become no-ops.  This is how the loser of a wait-with-timeout race is
    retired without padding drain-mode runs to the timer's expiry.
    """

    __slots__ = ("engine", "fired", "cancelled", "value", "_waiters", "name",
                 "_timer")

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.fired = False
        self.cancelled = False
        self.value: Any = None
        self.name = name
        # Lazily allocated: most signals fire before anyone waits, and a
        # fresh list per signal shows up in profiles (one Signal per
        # queue operation on the hot path).
        self._waiters: Optional[List[Callable[[Any], None]]] = None
        self._timer: Optional[int] = None

    @classmethod
    def fired_signal(cls, engine: "Engine", name: str = "",
                     value: Any = None) -> "Signal":
        """Build a signal that is already fired with ``value``.

        Equivalent to ``Signal(engine, name)`` followed by ``fire(value)``
        on a signal nobody has waited on yet — which is the common case in
        the queue primitives (an accepted put, an immediate get, a granted
        slot).  Constructing it fired skips a call layer per operation on
        the hottest allocation path in the simulator.
        """
        signal = cls.__new__(cls)
        signal.engine = engine
        signal.fired = True
        signal.cancelled = False
        signal.value = value
        signal.name = name
        signal._waiters = None
        signal._timer = None
        return signal

    def fire(self, value: Any = None) -> None:
        """Fire the signal now; waiters resume at the current time."""
        if self.cancelled:
            return
        if self.fired:
            raise SimulationError(f"signal {self.name!r} fired twice")
        self.fired = True
        self.value = value
        self._timer = None
        waiters = self._waiters
        if waiters is not None:
            self._waiters = None
            engine = self.engine
            if engine.fast_dispatch:
                # Inlined call_soon: identical sequence allocation, one
                # ready entry per waiter, minus a method call per fire.
                append = engine._ready.append
                sequence = engine._sequence
                for callback in waiters:
                    append((sequence, callback, (value,)))
                    sequence += 1
                engine._sequence = sequence
            else:
                for callback in waiters:
                    engine.call_soon(callback, value)

    def fire_after(self, delay_ps: int, value: Any = None) -> None:
        """Schedule the signal to fire ``delay_ps`` from now."""
        self._timer = self.engine.after(delay_ps, self.fire, value)

    def cancel(self) -> None:
        """Retire a pending signal: drop waiters, void any scheduled fire.

        Cancelling an already-fired signal is a no-op (the race was lost
        anyway); cancelling twice is harmless.
        """
        if self.fired or self.cancelled:
            return
        self.cancelled = True
        self._waiters = None
        if self._timer is not None:
            self.engine.cancel_event(self._timer)
            self._timer = None

    def add_callback(self, callback: Callable[[Any], None]) -> None:
        """Run ``callback(value)`` when the signal fires (or now if it has)."""
        if self.fired:
            self.engine.call_soon(callback, self.value)
        elif not self.cancelled:
            if self._waiters is None:
                self._waiters = [callback]
            else:
                self._waiters.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = ("fired" if self.fired
                 else "cancelled" if self.cancelled else "pending")
        return f"Signal({self.name!r}, {state})"


class Process:
    """A running coroutine process; itself yieldable from other processes."""

    __slots__ = ("engine", "generator", "name", "done", "result", "error",
                 "_waiters")

    def __init__(self, engine: "Engine", generator: ProcessGen, name: str = ""):
        self.engine = engine
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.done = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._waiters: List[Callable[[Any], None]] = []
        engine.call_soon(self._step, None)

    # -- wiring ------------------------------------------------------------

    def add_callback(self, callback: Callable[[Any], None]) -> None:
        """Run ``callback(result)`` on completion (signal-compatible API)."""
        if self.done:
            self.engine.call_soon(callback, self.result)
        else:
            self._waiters.append(callback)

    def _finish(self, result: Any, error: Optional[BaseException]) -> None:
        self.done = True
        self.result = result
        self.error = error
        waiters, self._waiters = self._waiters, []
        for callback in waiters:
            self.engine.call_soon(callback, result)
        if error is not None and not waiters:
            # Nobody is waiting; surface the failure instead of losing it.
            raise error

    def _step(self, send_value: Any, throw: Optional[BaseException] = None) -> None:
        """Resume the generator; batch-advance while it stays runnable.

        The loop is the fast path's **batch-advance trampoline**.  When
        the generator yields a delay (or an already-fired signal) and its
        wakeup is *provably* the next event — ready deque empty, heap head
        strictly later, horizon not crossed — the scheduler round-trip is
        skipped and the generator resumed right here, after performing
        exactly the bookkeeping dispatch would have: one sequence number
        consumed, the clock advanced to the wakeup time, one event
        counted.  Because every observable the scheduler maintains
        (``(time, sequence)`` order, ``events_processed``, ``now_ps`` at
        each resume) is preserved, a batched run is bit-identical to the
        reference scheduler by construction.  Batching is disabled while
        a ``max_events`` bound is counting steps (see
        :attr:`Engine._batch`).
        """
        engine = self.engine
        generator = self.generator
        send = generator.send
        while True:
            try:
                if throw is not None:
                    exc, throw = throw, None
                    yielded = generator.throw(exc)
                else:
                    yielded = send(send_value)
            except StopIteration as stop:
                self._finish(stop.value, None)
                return
            except BaseException as exc:  # noqa: BLE001 - propagate to waiters
                self._finish(None, exc)
                return
            # Exact-class dispatch ordered by hot-path frequency (signals
            # from queue operations and bare-int delays dominate); the
            # isinstance chain below keeps the reference semantics for
            # subclasses and bool.
            cls = yielded.__class__
            if cls is Signal:
                if yielded.fired:
                    if engine._batch and not engine._ready:
                        heap = engine._heap
                        if not heap or heap[0][0] > engine._now_ps:
                            engine._sequence += 1
                            engine.events_processed += 1
                            send_value = yielded.value
                            continue
                    engine.call_soon(self._step, yielded.value)
                    return
                if yielded.cancelled:
                    # Reference semantics: add_callback on a cancelled
                    # signal drops the waiter (the process parks forever
                    # unless something else resumes the simulation).
                    return
                waiters = yielded._waiters
                if waiters is None:
                    yielded._waiters = [self._step]
                else:
                    waiters.append(self._step)
                return
            if cls is int or cls is Delay:
                delay_ps = yielded if cls is int else yielded.duration_ps
                if delay_ps >= 0 and engine._batch and not engine._ready:
                    time_ps = engine._now_ps + delay_ps
                    heap = engine._heap
                    if ((not heap or heap[0][0] > time_ps)
                            and time_ps <= engine._horizon):
                        engine._sequence += 1
                        engine._now_ps = time_ps
                        engine.events_processed += 1
                        send_value = None
                        continue
                engine.after(delay_ps, self._step, None)
                return
            if cls is Process:
                self._wait_child(yielded)
                return
            if isinstance(yielded, int):
                engine.after(yielded, self._step, None)
                return
            if isinstance(yielded, Signal):
                yielded.add_callback(self._step)
                return
            if isinstance(yielded, Delay):
                engine.after(yielded.duration_ps, self._step, None)
                return
            if isinstance(yielded, Process):
                self._wait_child(yielded)
                return
            bad = type(yielded).__name__
            throw = SimulationError(
                f"process {self.name!r} yielded unsupported {bad}")
            send_value = None

    def _wait_child(self, child: "Process") -> None:
        def resume(result: Any, _child: "Process" = child) -> None:
            if _child.error is not None:
                self._step(None, throw=_child.error)
            else:
                self._step(result)

        child.add_callback(resume)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done else "running"
        return f"Process({self.name!r}, {state})"


#: Callbacks invoked with every newly constructed :class:`Engine`.  An
#: observability session registers one to install its tracer/metrics on
#: each engine the experiments create (see :mod:`repro.obs.session`).
_engine_observers: List[Callable[["Engine"], None]] = []


def register_engine_observer(callback: Callable[["Engine"], None]) -> None:
    """Call ``callback(engine)`` for every Engine constructed from now on."""
    _engine_observers.append(callback)


def unregister_engine_observer(callback: Callable[["Engine"], None]) -> None:
    """Remove a previously registered engine observer (no-op if absent)."""
    try:
        _engine_observers.remove(callback)
    except ValueError:
        pass


class Engine:
    """The event loop: an integer-picosecond scheduler.

    In the default ``"fast"`` mode two internal queues carry events:

    * the **heap**, ordered by ``(time_ps, sequence)``, for anything
      scheduled at a future time;
    * the **ready deque**, a FIFO *now bucket* for :meth:`call_soon` — the
      dominant scheduling call (every signal fire goes through it), which
      never needs heap ordering because it always targets *now*.

    The global sequence number spans both queues, and :meth:`step` always
    picks the lowest ``(time, sequence)`` across them, so the event order
    is bit-identical to a pure-heap scheduler — just cheaper.  In
    ``"reference"`` mode :meth:`call_soon` pushes onto the heap instead and
    the ready deque stays empty: that *is* the pure-heap scheduler, kept
    as the oracle for the differential tests.
    """

    def __init__(self, dispatch: Optional[str] = None) -> None:
        if dispatch is None:
            dispatch = _default_dispatch
        elif dispatch not in DISPATCH_MODES:
            raise SimulationError(
                f"unknown dispatch mode {dispatch!r}; expected one of "
                f"{DISPATCH_MODES}")
        #: Which scheduler this engine runs ("fast" or "reference").
        self.dispatch = dispatch
        self.fast_dispatch = dispatch == "fast"
        self._now_ps = 0
        self._sequence = 0
        self._heap: List[Tuple[int, int, Callable[..., None], tuple]] = []
        #: call_soon fast path: (sequence, callback, args), all at now.
        self._ready: Deque[Tuple[int, Callable[..., None], tuple]] = deque()
        #: Sequence numbers of cancelled events, discarded lazily at pop
        #: and cleared wholesale whenever the queues drain (every token
        #: left at that point is stale — see :meth:`cancel_event`).
        self._cancelled: Set[int] = set()
        self.events_processed = 0
        #: Batch-advance gate for the :class:`Process` trampoline: true
        #: only when this is a fast-dispatch engine and no ``max_events``
        #: bound is counting individual steps.  Kept as one precomputed
        #: flag so the trampoline check is a single attribute load.
        self._batch = self.fast_dispatch
        #: Clock bound for batch-advance; ``run(until_ps=...)`` lowers it
        #: so a batched delay never carries the clock past the bound.
        self._horizon = _NO_HORIZON
        #: Optional observability hook (repro.sim.trace.Tracer); hardware
        #: models emit routing/DMA/IRQ events through it when set.
        self.tracer = None
        #: Optional metrics hook (repro.obs.metrics.MetricsRegistry);
        #: components sample counters/gauges through it when set.  Like
        #: the tracer, a ``None`` check is the whole disabled-path cost.
        self.metrics = None
        #: Optional collective recorder
        #: (repro.obs.critpath.CollectiveRecorder).  Unlike the tracer,
        #: only the ``coll-*`` emit sites of repro.collectives.ring feed
        #: it, so recording a collective costs the hardware models nothing.
        self.recorder = None
        #: Optional fault-injection hook (repro.faults.FaultInjector).
        #: Hardware models consult it at their fault points; when ``None``
        #: (the default) every fault path is skipped entirely, so an
        #: un-faulted run is picosecond-identical to an unhooked one.
        self.faults = None
        #: Passive waits armed on this engine (insertion-ordered keys,
        #: e.g. :class:`repro.hw.memory.WordWatch`).  A process parked on
        #: one has no queued event, so a run that drains while any is
        #: armed names them in its deadlock error.
        self.watches: Dict[Any, None] = {}
        for callback in list(_engine_observers):
            callback(self)

    def trace(self, component: str, kind: str, **detail: Any) -> None:
        """Emit a trace event if a tracer is installed (cheap when not)."""
        if self.tracer is not None:
            self.tracer.emit(self._now_ps, component, kind, **detail)

    # -- time --------------------------------------------------------------

    @property
    def now_ps(self) -> int:
        """Current simulated time in picoseconds."""
        return self._now_ps

    @property
    def now_ns(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now_ps / PS_PER_NS

    # -- scheduling ----------------------------------------------------------

    def at(self, time_ps: int, callback: Callable[..., None], *args: Any) -> int:
        """Run ``callback(*args)`` at absolute simulated time ``time_ps``.

        Returns an opaque token accepted by :meth:`cancel_event`.
        """
        if time_ps < self._now_ps:
            raise SimulationError(
                f"cannot schedule in the past ({time_ps} < {self._now_ps})")
        token = self._sequence
        heapq.heappush(self._heap, (int(time_ps), token, callback, args))
        self._sequence += 1
        return token

    def after(self, delay_ps: int, callback: Callable[..., None], *args: Any) -> int:
        """Run ``callback(*args)`` after ``delay_ps`` picoseconds.

        Returns an opaque token accepted by :meth:`cancel_event`.
        """
        if delay_ps < 0:
            raise SimulationError(f"negative delay: {delay_ps}")
        token = self._sequence
        heapq.heappush(self._heap,
                       (self._now_ps + int(delay_ps), token, callback, args))
        self._sequence += 1
        return token

    def call_soon(self, callback: Callable[..., None], *args: Any) -> int:
        """Run ``callback(*args)`` at the current time, after pending events.

        Returns an opaque token accepted by :meth:`cancel_event`.
        """
        token = self._sequence
        if self.fast_dispatch:
            self._ready.append((token, callback, args))
        else:
            heapq.heappush(self._heap,
                           (self._now_ps, token, callback, args))
        self._sequence += 1
        return token

    def cancel_event(self, token: int) -> None:
        """Withdraw a scheduled event before it runs.

        The event's queue entry is discarded lazily when it reaches the
        front, **without** advancing the clock or counting it in
        ``events_processed`` — a cancelled timer leaves no trace on a
        drain-mode run.

        Cancelling an event that already ran — or one that was already
        cancelled — is a documented no-op: sequence numbers are never
        reused, so a stale token can never suppress a future event.  Stale
        tokens are remembered only until the queues next drain, at which
        point the cancellation set is cleared wholesale (every token left
        in it is, by construction, stale).
        """
        self._cancelled.add(token)

    # -- factories -----------------------------------------------------------

    def signal(self, name: str = "") -> Signal:
        """Create a fresh one-shot :class:`Signal`."""
        return Signal(self, name)

    def process(self, generator: ProcessGen, name: str = "") -> Process:
        """Start a coroutine process from a generator."""
        return Process(self, generator, name)

    # -- running ---------------------------------------------------------------

    def step(self) -> bool:
        """Process one event; return False if no runnable event remains.

        Picks the lowest ``(time, sequence)`` across the ready deque and
        the heap; cancelled entries are discarded without running, without
        advancing the clock and without counting.  Note that one ``step``
        may execute more than one *event* when batch-advance is active —
        ``events_processed`` is the authoritative event count.
        """
        ready = self._ready
        heap = self._heap
        cancelled = self._cancelled
        while True:
            if ready and (not heap or heap[0][0] > self._now_ps
                          or heap[0][1] > ready[0][0]):
                seq, callback, args = ready.popleft()
                time_ps = self._now_ps
            elif heap:
                time_ps, seq, callback, args = heapq.heappop(heap)
            else:
                if cancelled:
                    cancelled.clear()
                return False
            if cancelled and seq in cancelled:
                cancelled.discard(seq)
                continue
            self._now_ps = time_ps
            self.events_processed += 1
            callback(*args)
            return True

    def run(self, until_ps: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Run until the queues drain, ``until_ps`` passes, or ``max_events``.

        Returns the simulated time (ps) when the loop stopped.  With
        ``until_ps`` the clock always lands exactly on ``until_ps`` when
        the loop stops for time — whether the next event lies beyond the
        bound or the queues drained early — so drain-to-a-deadline runs
        report consistent windows.  Stopping on ``max_events`` leaves the
        clock at the last processed event.
        """
        if until_ps is None and max_events is None:
            # Unbounded drain — the hot case.  Fused dispatch loop: the
            # step() body inlined with the queues bound to locals, one
            # Python frame for the whole run instead of one per event.
            ready = self._ready
            heap = self._heap
            cancelled = self._cancelled
            pop_ready = ready.popleft
            heappop = heapq.heappop
            while True:
                if ready and (not heap or heap[0][0] > self._now_ps
                              or heap[0][1] > ready[0][0]):
                    seq, callback, args = pop_ready()
                    time_ps = self._now_ps
                elif heap:
                    time_ps, seq, callback, args = heappop(heap)
                else:
                    break
                if cancelled and seq in cancelled:
                    cancelled.discard(seq)
                    continue
                self._now_ps = time_ps
                self.events_processed += 1
                callback(*args)
            if cancelled:
                cancelled.clear()
            return self._now_ps
        # Bounded run.  An until_ps bound lowers the batch-advance horizon
        # so a batched delay cannot carry the clock past it; a max_events
        # bound counts individual steps, so batch-advance (which executes
        # several events inside one step) is suspended for the duration.
        if until_ps is not None:
            self._horizon = until_ps
        if max_events is not None:
            self._batch = False
        try:
            processed = 0
            while True:
                # Discard cancelled heads so the until_ps peek below (and
                # the drained-queue exit) only ever see live events.
                ready = self._ready
                cancelled = self._cancelled
                while ready and cancelled and ready[0][0] in cancelled:
                    cancelled.discard(ready.popleft()[0])
                if not ready:
                    heap = self._heap
                    while heap and cancelled and heap[0][1] in cancelled:
                        cancelled.discard(heapq.heappop(heap)[1])
                    if not heap:
                        break
                    if until_ps is not None and heap[0][0] > until_ps:
                        break
                if max_events is not None and processed >= max_events:
                    return self._now_ps
                if not self.step():
                    break
                processed += 1
            if until_ps is not None and self._now_ps < until_ps:
                self._now_ps = until_ps
            return self._now_ps
        finally:
            if until_ps is not None:
                self._horizon = _NO_HORIZON
            if max_events is not None:
                self._batch = self.fast_dispatch

    def run_all(self, procs: Sequence[Process]) -> int:
        """Run the engine until every process in ``procs`` is done.

        Returns the simulated time (ps) when the loop stopped.  This is
        the one run-to-completion loop: :meth:`run_process` and every
        multi-process driver (ring collectives, contention, bisection,
        ...) goes through it.

        The loop stops on exactly the event after which the last of
        ``procs`` finished — the same stop point as polling
        ``all(p.done for p in procs)`` after every :meth:`step` — because
        ``done`` never reverts: once the loop has moved past a process it
        stays finished, so checking only the current one is enough and
        the scan costs O(1) amortised per event instead of O(N).  Later
        events stay queued for the caller.  No joiner process or
        :func:`all_of` signal is involved, so the run consumes no extra
        sequence numbers and counts no extra events.

        Raises :class:`SimulationError` naming every unfinished process
        and every armed watch (:attr:`watches`) if the queues drain
        first.
        """
        # Fused dispatch loop; see run() for the rationale.
        ready = self._ready
        heap = self._heap
        cancelled = self._cancelled
        pop_ready = ready.popleft
        heappop = heapq.heappop
        for proc in procs:
            while not proc.done:
                if ready and (not heap or heap[0][0] > self._now_ps
                              or heap[0][1] > ready[0][0]):
                    seq, callback, args = pop_ready()
                    time_ps = self._now_ps
                elif heap:
                    time_ps, seq, callback, args = heappop(heap)
                else:
                    cancelled.clear()
                    raise self._deadlock(procs)
                if cancelled and seq in cancelled:
                    cancelled.discard(seq)
                    continue
                self._now_ps = time_ps
                self.events_processed += 1
                callback(*args)
        return self._now_ps

    def _deadlock(self, procs: Sequence[Process]) -> SimulationError:
        waiting = [p.name for p in procs if not p.done]
        names = ", ".join(repr(name) for name in waiting)
        if len(waiting) == 1:
            message = (f"deadlock: process {names} is still waiting but "
                       "no events remain")
        else:
            message = (f"deadlock: processes {names} are still waiting "
                       "but no events remain")
        if self.watches:
            message += "; armed watches: " + ", ".join(
                str(watch) for watch in self.watches)
        return SimulationError(message)

    def run_process(self, generator: ProcessGen, name: str = "") -> Any:
        """Start a process and run the engine until it completes.

        This is the main entry point for "measure one transfer" experiments.
        """
        proc = self.process(generator, name)
        self.run_all((proc,))
        if proc.error is not None:
            raise proc.error
        return proc.result


def all_of(engine: Engine, waitables: Iterable[Any]) -> Signal:
    """Signal that fires (with a list of results) when every waitable has.

    Accepts :class:`Signal` and :class:`Process` objects.
    """
    items = list(waitables)
    done = engine.signal("all_of")
    if not items:
        done.fire([])
        return done
    results: List[Any] = [None] * len(items)
    remaining = [len(items)]

    def make_callback(index: int) -> Callable[[Any], None]:
        def callback(value: Any) -> None:
            results[index] = value
            remaining[0] -= 1
            if remaining[0] == 0:
                done.fire(list(results))

        return callback

    for i, item in enumerate(items):
        item.add_callback(make_callback(i))
    return done


def first_of(engine: Engine, waitables: Iterable[Any]) -> Signal:
    """Signal that fires with ``(index, value)`` of the first waitable.

    Later finishers are ignored (their callbacks find the race already
    decided).  This is the primitive behind every wait-with-timeout: race
    the interesting signal against a timer.

    ``first_of`` never cancels the losers itself — a loser may be shared
    (the completion signal of a chain that outlives one timeout round) —
    but a caller that *owns* a losing :class:`Signal` should
    :meth:`~Signal.cancel` it, or its scheduled events stay in the heap
    and pad drain-mode runs to the timer's full expiry.
    """
    items = list(waitables)
    if not items:
        raise SimulationError("first_of needs at least one waitable")
    done = engine.signal("first_of")

    def make_callback(index: int) -> Callable[[Any], None]:
        def callback(value: Any) -> None:
            if not done.fired:
                done.fire((index, value))

        return callback

    for i, item in enumerate(items):
        item.add_callback(make_callback(i))
    return done
