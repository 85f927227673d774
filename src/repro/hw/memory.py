"""Byte-addressable backing stores and the host memory controller.

Memories are sparse: 4-KiB numpy pages materialize on first write, so a
"128-Gbyte" DRAM costs only what the workload actually touches, while
every simulated transfer still moves real bytes that tests can verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from repro.errors import AddressError, ConfigError
from repro.model.calibration import CALIB
from repro.pcie.address import Region
from repro.pcie.device import Device
from repro.pcie.port import Port, PortRole
from repro.pcie.tlp import TLP, TLPKind, make_completion
from repro.sim.core import Engine
from repro.sim.queues import Resource

PAGE_SIZE = 4096


class BackingStore:
    """Sparse byte store of a fixed size (zero-filled until written)."""

    def __init__(self, size: int, name: str = ""):
        if size <= 0:
            raise AddressError(f"backing store {name!r} size must be positive")
        self.size = size
        self.name = name
        self._pages: Dict[int, np.ndarray] = {}
        #: Word offset -> the :class:`WordWatch` objects armed on it.
        self.watches: Dict[int, List["WordWatch"]] = {}

    @property
    def resident_bytes(self) -> int:
        """Bytes of actually-materialized pages."""
        return len(self._pages) * PAGE_SIZE

    def _check(self, offset: int, nbytes: int) -> None:
        if offset < 0 or offset + nbytes > self.size:
            raise AddressError(
                f"{self.name}: access [{offset:#x}, {offset + nbytes:#x}) "
                f"outside store of {self.size:#x} bytes")

    def write(self, offset: int, data: np.ndarray) -> None:
        """Write ``data`` (uint8) at ``offset``."""
        data = np.ascontiguousarray(data, dtype=np.uint8)
        self._check(offset, len(data))
        pos = 0
        while pos < len(data):
            page_no, page_off = divmod(offset + pos, PAGE_SIZE)
            take = min(len(data) - pos, PAGE_SIZE - page_off)
            page = self._pages.get(page_no)
            if page is None:
                page = np.zeros(PAGE_SIZE, dtype=np.uint8)
                self._pages[page_no] = page
            page[page_off:page_off + take] = data[pos:pos + take]
            pos += take
        watches = self.watches
        if watches:
            end = offset + len(data)
            for word, armed in watches.items():
                if offset - 4 < word < end:
                    for watch in armed:
                        watch.notify()

    def read(self, offset: int, nbytes: int) -> np.ndarray:
        """Read ``nbytes`` at ``offset`` as a fresh uint8 array."""
        self._check(offset, nbytes)
        out = np.zeros(nbytes, dtype=np.uint8)
        pos = 0
        while pos < nbytes:
            page_no, page_off = divmod(offset + pos, PAGE_SIZE)
            take = min(nbytes - pos, PAGE_SIZE - page_off)
            page = self._pages.get(page_no)
            if page is not None:
                out[pos:pos + take] = page[page_off:page_off + take]
            pos += take
        return out

    def read_u32(self, offset: int) -> int:
        """Read the little-endian 32-bit word at ``offset``.

        Equal to ``int.from_bytes(read(offset, 4).tobytes(), "little")``
        (bounds-checked the same way, 0 on a page never written) without
        building a zero-filled array per call: this is the flag-poll
        load, issued once per poll interval by every waiting receiver.
        """
        self._check(offset, 4)
        page_no, page_off = divmod(offset, PAGE_SIZE)
        if page_off > PAGE_SIZE - 4:
            # The word straddles a page boundary.
            return int.from_bytes(self.read(offset, 4).tobytes(), "little")
        page = self._pages.get(page_no)
        if page is None:
            return 0
        return int.from_bytes(page[page_off:page_off + 4].tobytes(), "little")


class WordWatch:
    """One armed :meth:`HostMemory.wait_u32`: the parked waiter's tick clock.

    :meth:`BackingStore.write` calls :meth:`notify` after every write
    covering the word.  A write that satisfies ``done`` schedules one
    check on the first poll tick ``t0 + k * poll_ps`` (k >= 1) at or
    after it; the check re-reads the word, resumes the waiter if it
    still holds, and otherwise stays armed for the next write.
    ``notify`` never mutates the store's watch table, so the store can
    walk it directly.
    """

    __slots__ = ("memory", "address", "offset", "done", "poll_ps", "t0",
                 "signal", "pending")

    def __init__(self, memory: "HostMemory", address: int, offset: int,
                 done: Callable[[int], bool], poll_ps: int):
        self.memory = memory
        self.address = address
        self.offset = offset
        self.done = done
        self.poll_ps = poll_ps
        engine = memory.engine
        self.t0 = engine.now_ps
        self.signal = engine.signal(f"{memory.name}.wait@{address:#x}")
        self.pending = False
        memory.store.watches.setdefault(offset, []).append(self)
        engine.watches[self] = None

    def notify(self) -> None:
        if self.pending or not self.done(
                self.memory.store.read_u32(self.offset)):
            return
        engine = self.memory.engine
        poll = self.poll_ps
        ticks = max(1, -(-(engine.now_ps - self.t0) // poll))
        self.pending = True
        engine.at(self.t0 + ticks * poll, self._check)

    def _check(self) -> None:
        self.pending = False
        value = self.memory.store.read_u32(self.offset)
        if not self.done(value):
            return  # undone by a later write: stay armed
        armed = self.memory.store.watches[self.offset]
        armed.remove(self)
        if not armed:
            del self.memory.store.watches[self.offset]
        del self.memory.engine.watches[self]
        self.signal.fire(value)

    def __str__(self) -> str:
        value = self.memory.store.read_u32(self.offset)
        return f"{self.memory.name} @{self.address:#x} = {value:#x}"


@dataclass(frozen=True)
class MemoryParams:
    """Timing of a memory completer on the PCIe fabric."""

    read_latency_ps: int = CALIB.host_mem_read_latency_ps
    write_commit_ps: int = CALIB.host_mem_write_commit_ps
    max_outstanding_reads: int = CALIB.host_mem_max_reads
    completion_chunk: int = CALIB.mps_bytes


class HostMemory(Device):
    """DDR3 host memory behind the root complex.

    Writes sink at line rate and become poll-visible ``write_commit_ps``
    after arrival; reads are serviced by a bounded completer pipeline and
    answered with Completions-with-Data in MPS-sized chunks.
    """

    def __init__(self, engine: Engine, name: str, size: int,
                 params: MemoryParams = MemoryParams()):
        super().__init__(engine, name)
        self.store = BackingStore(size, name=name)
        self.params = params
        self.region: Region = Region(0, size, name)  # reassigned by the node
        self.port = Port(engine, f"{name}.port", PortRole.INTERNAL, self,
                         rx_credits=64)
        self._readers = Resource(engine, params.max_outstanding_reads,
                                 name=f"{name}.readers")
        self.bytes_written = 0
        self.bytes_read = 0

    # -- fabric-facing --------------------------------------------------------

    def handle_tlp(self, port: Port, tlp: TLP):
        """Memory-controller ingress: sink writes, serve reads."""
        if tlp.kind is TLPKind.MWR:
            offset = self.region.offset_of(tlp.address)
            self.engine.after(self.params.write_commit_ps,
                              self._commit, offset, tlp.payload)
            return None
        if tlp.kind is TLPKind.MRD:
            self.engine.process(self._serve_read(tlp),
                                name=f"{self.name}.read")
            return None
        raise AddressError(f"{self.name}: unexpected {tlp}")

    def _commit(self, offset: int, payload: np.ndarray) -> None:
        self.store.write(offset, payload)
        self.bytes_written += len(payload)
        if self.engine.tracer is not None:
            self.engine.trace(self.name, "mem-commit", offset=offset,
                              bytes=len(payload))
        if self.engine.metrics is not None:
            self.engine.metrics.counter(
                f"mem.{self.name}.bytes_written").inc(len(payload))

    def _serve_read(self, request: TLP):
        yield self._readers.acquire()
        try:
            yield self.params.read_latency_ps
            offset = self.region.offset_of(request.address)
            data = self.store.read(offset, request.length)
            self.bytes_read += request.length
            chunk = self.params.completion_chunk
            for start in range(0, len(data), chunk):
                piece = data[start:start + chunk]
                accepted = self.port.send(make_completion(request, piece))
                if not accepted.fired:
                    yield accepted
        finally:
            self._readers.release()

    # -- zero-time host-software access (loads/stores by the local CPU) ------

    def cpu_read(self, address: int, nbytes: int) -> np.ndarray:
        """Local CPU load (used by polling driver code)."""
        return self.store.read(self.region.offset_of(address), nbytes)

    def cpu_read_u32(self, address: int) -> int:
        """Local CPU load of one little-endian 32-bit word (a flag poll)."""
        return self.store.read_u32(self.region.offset_of(address))

    def wait_u32(self, address: int, done: Callable[[int], bool],
                 poll_ps: int):
        """Process body: wait until ``done(word)`` holds; returns the word.

        Tick-exact equivalent of the spin loop ::

            while not done(self.cpu_read_u32(address)):
                yield poll_ps

        started at ``t0``: it resumes on exactly the poll tick
        ``t0 + k * poll_ps`` (k >= 1) at which that loop would first
        read a satisfying value, and returns the same value — without an
        event per poll.  A word already satisfied on entry returns with
        no event at all, like the loop.  Instead of polling, the waiter
        parks on a :class:`WordWatch` that every write to the word
        notifies.

        Tie rule: a write landing exactly on a poll tick is visible to
        that poll.  That is the loop's order for every fabric write,
        because a committed TLP write is scheduled ``write_commit_ps``
        (48.2 ns) before it lands — longer than every poll interval — so
        its event precedes the poll scheduled one interval earlier.

        A word nobody writes leaves no event queued: the engine drains
        and :meth:`~repro.sim.core.Engine.run_all` names the armed watch
        in its deadlock error instead of spinning forever.
        """
        if poll_ps <= 0:
            raise ConfigError(f"{self.name}: poll interval must be "
                              f"positive, got {poll_ps}")
        offset = self.region.offset_of(address)
        value = self.store.read_u32(offset)
        if done(value):
            return value
        watch = WordWatch(self, address, offset, done, poll_ps)
        return (yield watch.signal)

    def cpu_write(self, address: int, data: np.ndarray) -> None:
        """Local CPU store directly into DRAM (driver buffer setup)."""
        self.store.write(self.region.offset_of(address),
                         np.ascontiguousarray(data, dtype=np.uint8))
