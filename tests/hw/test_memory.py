"""Unit tests for backing stores and the host memory controller."""

import numpy as np
import pytest

from repro.errors import AddressError
from repro.hw.memory import BackingStore, HostMemory, MemoryParams, PAGE_SIZE
from repro.pcie.link import LinkParams, PCIeLink
from repro.pcie.port import PortRole
from repro.pcie.tlp import make_read, make_write
from repro.units import GiB, ns
from tests.pcie.helpers import RequesterDevice


class TestBackingStore:
    def test_roundtrip(self):
        store = BackingStore(1 << 20, "s")
        data = np.arange(100, dtype=np.uint8)
        store.write(1234, data)
        assert np.array_equal(store.read(1234, 100), data)

    def test_unwritten_reads_zero(self):
        store = BackingStore(1 << 20, "s")
        assert not store.read(5000, 16).any()

    def test_cross_page_write(self):
        store = BackingStore(1 << 20, "s")
        data = np.arange(PAGE_SIZE, dtype=np.int64).astype(np.uint8)
        store.write(PAGE_SIZE - 100, data)
        assert np.array_equal(store.read(PAGE_SIZE - 100, len(data)), data)

    def test_sparse_residency(self):
        store = BackingStore(128 * GiB, "big")
        store.write(64 * GiB, np.ones(10, dtype=np.uint8))
        assert store.resident_bytes == PAGE_SIZE

    def test_out_of_bounds_rejected(self):
        store = BackingStore(1000, "s")
        with pytest.raises(AddressError):
            store.write(999, np.zeros(2, dtype=np.uint8))
        with pytest.raises(AddressError):
            store.read(-1, 1)

    def test_invalid_size(self):
        with pytest.raises(AddressError):
            BackingStore(0, "s")

    def test_overwrite(self):
        store = BackingStore(4096, "s")
        store.write(0, np.full(16, 1, dtype=np.uint8))
        store.write(8, np.full(16, 2, dtype=np.uint8))
        assert store.read(0, 8).tolist() == [1] * 8
        assert store.read(8, 16).tolist() == [2] * 16


def as_u32(store, offset):
    return int.from_bytes(store.read(offset, 4).tobytes(), "little")


class TestReadU32:
    """The flag-poll word load equals the generic four-byte read."""

    def test_unwritten_page_reads_zero(self):
        store = BackingStore(1 << 20, "s")
        store.write(0, np.full(8, 0xFF, dtype=np.uint8))
        assert store.read_u32(5 * PAGE_SIZE + 12) == 0
        assert store.resident_bytes == PAGE_SIZE

    def test_little_endian_word(self):
        store = BackingStore(1 << 20, "s")
        store.write(100, np.array([0x01, 0x00, 0xEF, 0xBE], dtype=np.uint8))
        assert store.read_u32(100) == 0xBEEF0001

    @pytest.mark.parametrize("offset", [PAGE_SIZE - 3, PAGE_SIZE - 2,
                                        PAGE_SIZE - 1, PAGE_SIZE - 4])
    def test_page_straddling_word(self, offset):
        store = BackingStore(1 << 20, "s")
        store.write(offset, np.array([0x11, 0x22, 0x33, 0x44],
                                     dtype=np.uint8))
        assert store.read_u32(offset) == 0x44332211

    def test_straddle_into_unwritten_page(self):
        store = BackingStore(1 << 20, "s")
        store.write(PAGE_SIZE - 2, np.array([0xAA, 0xBB], dtype=np.uint8))
        assert store.read_u32(PAGE_SIZE - 2) == 0xBBAA
        store = BackingStore(1 << 20, "s")
        store.write(PAGE_SIZE, np.array([0xCC, 0xDD], dtype=np.uint8))
        assert store.read_u32(PAGE_SIZE - 2) == 0xDDCC0000

    @pytest.mark.parametrize("offset", [-1, 997, 1000, 1 << 30])
    def test_out_of_range_rejected(self, offset):
        store = BackingStore(1000, "s")
        with pytest.raises(AddressError):
            store.read_u32(offset)

    def test_equals_generic_read_everywhere(self):
        store = BackingStore(3 * PAGE_SIZE, "s")
        rng = np.random.default_rng(7)
        store.write(PAGE_SIZE - 300, rng.integers(0, 256, 600,
                                                  dtype=np.uint8))
        store.write(2 * PAGE_SIZE + 50, rng.integers(0, 256, 20,
                                                     dtype=np.uint8))
        for offset in range(0, 3 * PAGE_SIZE - 3):
            assert store.read_u32(offset) == as_u32(store, offset), offset


def build_memory(engine, params=None):
    mem = HostMemory(engine, "dram", 1 << 24, params or MemoryParams())
    req = RequesterDevice(engine, "req", role=PortRole.INTERNAL)
    mem.port.role = PortRole.INTERNAL
    PCIeLink(engine, req.port, mem.port, LinkParams(latency_ps=ns(5)))
    return mem, req


class TestHostMemory:
    def test_write_commits_after_delay(self, engine):
        mem, req = build_memory(engine)
        data = np.arange(64, dtype=np.uint8)
        req.port.send(make_write(0x100, data, requester_id=req.device_id))
        engine.run()
        assert np.array_equal(mem.cpu_read(0x100, 64), data)
        assert mem.bytes_written == 64

    def test_read_returns_completions(self, engine):
        mem, req = build_memory(engine)
        mem.cpu_write(0x200, np.arange(100, dtype=np.uint8))

        def proc():
            tag, done = req.tags.issue(100)
            req.port.send(make_read(0x200, 100,
                                    requester_id=req.device_id, tag=tag))
            data = yield done
            return data

        data = engine.run_process(proc())
        assert data == bytes(range(100))
        assert mem.bytes_read == 100

    def test_large_read_split_into_mps_completions(self, engine):
        mem, req = build_memory(engine)
        mem.cpu_write(0, np.arange(1024, dtype=np.int64).astype(np.uint8))

        def proc():
            tag, done = req.tags.issue(1024)
            req.port.send(make_read(0, 1024, requester_id=req.device_id,
                                    tag=tag))
            data = yield done
            return data

        data = engine.run_process(proc())
        assert len(data) == 1024

    def test_read_latency_applied(self, engine):
        params = MemoryParams(read_latency_ps=ns(300))
        mem, req = build_memory(engine, params)

        def proc():
            tag, done = req.tags.issue(4)
            req.port.send(make_read(0, 4, requester_id=req.device_id,
                                    tag=tag))
            yield done
            return engine.now_ps

        assert engine.run_process(proc()) >= ns(300)

    def test_outstanding_read_limit_throttles(self, engine):
        slow = MemoryParams(read_latency_ps=ns(1000),
                            max_outstanding_reads=1)
        mem, req = build_memory(engine, slow)

        def proc():
            waits = []
            for i in range(4):
                tag, done = req.tags.issue(4)
                req.port.send(make_read(i * 64, 4,
                                        requester_id=req.device_id, tag=tag))
                waits.append(done)
            for w in waits:
                if not w.fired:
                    yield w
            return engine.now_ps

        # 4 serialized reads of 1 us each.
        assert engine.run_process(proc()) >= 4 * ns(1000)

    def test_cpu_access_outside_region(self, engine):
        mem, _ = build_memory(engine)
        with pytest.raises(AddressError):
            mem.cpu_read(1 << 25, 4)

    def test_cpu_read_u32_matches_cpu_read(self, engine):
        mem, _ = build_memory(engine)
        mem.region = type(mem.region)(0x10_0000, mem.store.size, "dram")
        mem.cpu_write(0x10_0040, np.array([4, 3, 2, 1], dtype=np.uint8))
        word = mem.cpu_read(0x10_0040, 4)
        assert mem.cpu_read_u32(0x10_0040) == 0x01020304 == \
            int.from_bytes(word.tobytes(), "little")
        with pytest.raises(AddressError):
            mem.cpu_read_u32(0x0F_FFFF)
        with pytest.raises(AddressError):
            mem.cpu_read_u32(0x10_0000 + mem.store.size - 2)
