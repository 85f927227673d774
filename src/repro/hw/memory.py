"""Byte-addressable backing stores and the host memory controller.

Memories are sparse: 4-KiB numpy pages materialize on first write, so a
"128-Gbyte" DRAM costs only what the workload actually touches, while
every simulated transfer still moves real bytes that tests can verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.errors import AddressError
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

    def cpu_write(self, address: int, data: np.ndarray) -> None:
        """Local CPU store directly into DRAM (driver buffer setup)."""
        self.store.write(self.region.offset_of(address),
                         np.ascontiguousarray(data, dtype=np.uint8))
