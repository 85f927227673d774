"""Blocking FIFO queues and counted resources for hardware models.

:class:`Store` models a buffer between a producer and a consumer (e.g. a
DMA channel's prefetched descriptors); :class:`Resource` models a pool of identical
execution slots (e.g. the maximum number of outstanding PCIe read requests
a completer allows).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.errors import SimulationError
from repro.sim.core import Engine, Signal


class Store:
    """FIFO queue with optional capacity; puts and gets return signals.

    ``put`` returns a signal that fires when the item has been accepted
    (immediately if below capacity).  ``get`` returns a signal that fires
    with the next item.  Ordering is strictly FIFO for both sides.
    """

    def __init__(self, engine: Engine, capacity: Optional[int] = None,
                 name: str = ""):
        if capacity is not None and capacity <= 0:
            raise SimulationError("store capacity must be positive")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        # Signal names are built once here, not per operation: puts and
        # gets run once per TLP, and the f-string shows up in profiles.
        self._put_name = f"{name}.put"
        self._get_name = f"{name}.get"
        self._items: Deque[Any] = deque()
        self._getters: Deque[Signal] = deque()
        self._putters: Deque[tuple] = deque()  # (signal, item)

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Signal:
        """Offer an item; the returned signal fires once it is enqueued."""
        if self._getters:
            # Hand the item straight to the oldest waiting getter.  The
            # accepted signal is born fired — nobody can have waited on a
            # signal that does not exist yet, so this is exactly
            # ``Signal(...)`` + ``fire()`` minus two calls per put.
            self._getters.popleft().fire(item)
            return Signal.fired_signal(self.engine, self._put_name)
        if self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            return Signal.fired_signal(self.engine, self._put_name)
        accepted = Signal(self.engine, self._put_name)
        self._putters.append((accepted, item))
        return accepted

    def get(self) -> Signal:
        """Request the next item; the returned signal fires with it."""
        if self._items:
            item = self._items.popleft()
            if self._putters:
                self._admit_waiting_putter()
            return Signal.fired_signal(self.engine, self._get_name, item)
        got = Signal(self.engine, self._get_name)
        self._getters.append(got)
        return got

    def try_get(self) -> tuple:
        """Non-blocking get; returns (True, item) or (False, None)."""
        if not self._items:
            return False, None
        item = self._items.popleft()
        self._admit_waiting_putter()
        return True, item

    def _admit_waiting_putter(self) -> None:
        if self._putters and (self.capacity is None
                              or len(self._items) < self.capacity):
            accepted, item = self._putters.popleft()
            self._items.append(item)
            accepted.fire()


class Latch:
    """Countdown latch: wait until the in-flight count drains to zero.

    Used as a DMA scoreboard — every issued read increments, every arrived
    completion decrements, and the chain-completion logic waits for zero.
    """

    def __init__(self, engine: Engine, name: str = ""):
        self.engine = engine
        self.name = name
        self._zero_name = f"{name}.zero"
        self.count = 0
        self._waiters: Deque[Signal] = deque()

    def up(self, n: int = 1) -> None:
        """Add ``n`` in-flight items."""
        if n < 0:
            raise SimulationError("latch increment must be non-negative")
        self.count += n

    def down(self, n: int = 1) -> None:
        """Retire ``n`` items; wakes waiters at zero."""
        self.count -= n
        if self.count < 0:
            raise SimulationError(f"latch {self.name!r} went negative")
        if self.count == 0:
            waiters, self._waiters = self._waiters, deque()
            for waiter in waiters:
                waiter.fire()

    def wait_zero(self) -> Signal:
        """Signal that fires when the count is (or becomes) zero."""
        if self.count == 0:
            return Signal.fired_signal(self.engine, self._zero_name)
        done = self.engine.signal(self._zero_name)
        self._waiters.append(done)
        return done


class Resource:
    """A pool of ``capacity`` identical slots with FIFO acquisition.

    ``acquire`` returns a signal that fires when a slot is granted;
    ``release`` frees a slot and wakes the oldest waiter.
    """

    def __init__(self, engine: Engine, capacity: int, name: str = ""):
        if capacity <= 0:
            raise SimulationError("resource capacity must be positive")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._acquire_name = f"{name}.acquire"
        self.in_use = 0
        self._waiters: Deque[Signal] = deque()

    @property
    def available(self) -> int:
        """Number of free slots right now."""
        return self.capacity - self.in_use

    def acquire(self) -> Signal:
        """Request a slot; the returned signal fires once granted."""
        if self.in_use < self.capacity:
            self.in_use += 1
            return Signal.fired_signal(self.engine, self._acquire_name)
        granted = Signal(self.engine, self._acquire_name)
        self._waiters.append(granted)
        return granted

    def release(self) -> None:
        """Free a slot previously granted by :meth:`acquire`."""
        if self.in_use <= 0:
            raise SimulationError(f"resource {self.name!r} released too often")
        if self._waiters:
            # Hand the slot directly to the oldest waiter.
            self._waiters.popleft().fire()
        else:
            self.in_use -= 1
