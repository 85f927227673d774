"""Unit tests for backing stores and the host memory controller."""

import numpy as np
import pytest

from repro.errors import AddressError, ConfigError, SimulationError
from repro.hw.memory import BackingStore, HostMemory, MemoryParams, PAGE_SIZE
from repro.hw.node import NodeParams
from repro.pcie.link import LinkParams, PCIeLink
from repro.pcie.port import PortRole
from repro.pcie.tlp import make_read, make_write
from repro.sim.core import Engine, dispatch_mode
from repro.sim.trace import Tracer
from repro.tca.comm import TCAComm
from repro.tca.notify import FlagPool
from repro.tca.subcluster import TCASubCluster
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


# -- HostMemory.wait_u32 against the spin loop it replaces ----------------

FLAG = 0x40
POLL = ns(20)


def u32_write(req, value):
    data = np.frombuffer(value.to_bytes(4, "little"), dtype=np.uint8)
    req.port.send(make_write(FLAG, data.copy(), requester_id=req.device_id))


def commit_delay_ps():
    """Send-to-commit time of a 4-byte write on the idle test link."""
    engine = Engine()
    mem, req = build_memory(engine)
    engine.tracer = Tracer(enabled=True)
    u32_write(req, 1)
    engine.run()
    [commit] = [r for r in engine.tracer.records if r.kind == "mem-commit"]
    return commit.time_ps


def run_waiter(use_watch, writes, done, start_ps, dispatch, poll_ps=POLL):
    """Resume time, returned word and event count of one flag wait.

    ``writes`` are ``(send_ps, value)`` TLP writes to the flag word; the
    waiter starts at ``start_ps`` and is either the inline spin loop
    (the oracle) or :meth:`HostMemory.wait_u32`.
    """
    with dispatch_mode(dispatch):
        engine = Engine()
    mem, req = build_memory(engine)
    for send_ps, value in writes:
        engine.at(send_ps, u32_write, req, value)

    def waiter():
        yield start_ps
        if use_watch:
            value = yield from mem.wait_u32(FLAG, done, poll_ps)
        else:
            while not done(mem.cpu_read_u32(FLAG)):
                yield poll_ps
            value = mem.cpu_read_u32(FLAG)
        return engine.now_ps, value

    return engine.run_process(waiter()), mem


@pytest.fixture(scope="module")
def commit_ps():
    return commit_delay_ps()


class TestWaitU32:
    """Same resume tick and value as the polling loop, in both modes."""

    def check(self, writes, done, start_ps, expect_value):
        for dispatch in ("fast", "reference"):
            oracle, _ = run_waiter(False, writes, done, start_ps, dispatch)
            watched, mem = run_waiter(True, writes, done, start_ps,
                                      dispatch)
            assert watched == oracle, dispatch
            assert oracle[1] == expect_value
            assert (oracle[0] - start_ps) % POLL == 0
            assert not mem.store.watches  # disarmed on resume
            assert not mem.engine.watches
        return oracle

    def test_commit_between_ticks(self, commit_ps):
        send = ns(300)
        start = send + commit_ps - 3 * POLL - ns(7)
        now, _ = self.check([(send, 5)], lambda w: w == 5, start, 5)
        assert now == start + 4 * POLL

    def test_commit_exactly_on_a_tick(self, commit_ps):
        # Tie rule: the commit lands before the poll on the same tick.
        send = ns(300)
        start = send + commit_ps - 4 * POLL
        now, _ = self.check([(send, 5)], lambda w: w == 5, start, 5)
        assert now == send + commit_ps

    def test_already_satisfied_on_entry_costs_no_event(self, engine):
        mem, _ = build_memory(engine)
        mem.cpu_write(FLAG, np.array([9, 0, 0, 0], dtype=np.uint8))
        engine.run()
        before = engine.events_processed
        wait = mem.wait_u32(FLAG, lambda w: w == 9, POLL)
        with pytest.raises(StopIteration) as stop:
            next(wait)
        assert stop.value.value == 9
        engine.run()
        assert engine.events_processed == before
        assert not mem.store.watches and not engine.watches

    def test_overwritten_before_the_tick_rearms(self, commit_ps):
        # 7 lands 1 ns after a tick, 9 overwrites it before the next
        # one, 7 comes back much later: the first check must re-arm.
        send = ns(300)
        start = send + commit_ps - 2 * POLL - ns(1)
        writes = [(send, 7), (send + ns(5), 9), (send + ns(400), 7)]
        now, _ = self.check(writes, lambda w: w == 7, start, 7)
        assert now > send + ns(400) + commit_ps - POLL

    def test_sequence_wait(self, commit_ps):
        send = ns(300)
        start = send + commit_ps - 5 * POLL - ns(3)
        writes = [(send, 1), (send + ns(90), 2), (send + ns(250), 4)]
        now, _ = self.check(writes, lambda w: w >= 3, start, 4)
        assert now > send + ns(250)

    def test_rejects_non_positive_poll(self, engine):
        mem, _ = build_memory(engine)
        with pytest.raises(ConfigError):
            next(mem.wait_u32(FLAG, lambda w: w == 1, 0))


class TestLostFlag:
    """A flag nobody writes drains the engine into a named deadlock."""

    def test_deadlock_names_the_armed_watch(self, engine):
        mem, _ = build_memory(engine)
        proc = engine.process(mem.wait_u32(FLAG, lambda w: w == 1, POLL),
                              name="flag-wait")
        # Bounded: a spinning poll would use up the budget and leave
        # its next tick queued.
        engine.run(max_events=10_000)
        assert engine.events_processed < 10_000
        assert not engine._ready and not engine._heap
        with pytest.raises(SimulationError) as err:
            engine.run_all((proc,))
        assert str(err.value) == (
            "deadlock: process 'flag-wait' is still waiting but no events "
            "remain; armed watches: dram @0x40 = 0x0")

    def test_lost_flag_pool_signal(self):
        cluster = TCASubCluster(2, node_params=NodeParams(num_gpus=1))
        engine = cluster.engine
        flags = FlagPool(cluster, TCAComm(cluster))
        proc = engine.process(flags.wait(1, 3, 1), name="waiter")
        engine.run(max_events=100_000)
        assert not engine._ready and not engine._heap
        with pytest.raises(SimulationError,
                           match=r"'waiter'.*armed watches: "
                                 r"\S*dram @0x[0-9a-f]+ = 0x0$"):
            engine.run_all((proc,))
