"""Unit tests for the CPU complex and GPU endpoint models."""

import numpy as np
import pytest

from repro.errors import ConfigError, DriverError
from repro.hw.cpu import CPU, MSI_REGION
from repro.hw.gpu import GPU, GPUParams
from repro.pcie.address import Region
from repro.pcie.link import LinkParams, PCIeLink
from repro.pcie.port import PortRole
from repro.pcie.tlp import make_msi, make_read, make_write
from repro.units import GiB, MiB, ns
from tests.pcie.helpers import SinkDevice


class TestCPU:
    def test_tsc_is_engine_time(self, engine):
        cpu = CPU(engine, "cpu")
        engine.after(ns(100), lambda: None)
        engine.run()
        assert cpu.read_tsc() == ns(100)

    def test_store_posts_write(self, engine):
        cpu = CPU(engine, "cpu")
        sink = SinkDevice(engine, "sink", role=PortRole.INTERNAL)
        PCIeLink(engine, cpu.port, sink.port, LinkParams(latency_ps=ns(10)))
        cpu.store_u32(0x1000, 0xCAFE)
        engine.run()
        assert len(sink.received) == 1
        tlp = sink.received[0][1]
        assert tlp.length == 4
        assert int.from_bytes(tlp.payload.tobytes(), "little") == 0xCAFE

    def test_msi_dispatches_handler(self, engine):
        cpu = CPU(engine, "cpu")
        sink = SinkDevice(engine, "dev", role=PortRole.INTERNAL)
        PCIeLink(engine, cpu.port, sink.port, LinkParams(latency_ps=ns(10)))
        fired = []
        cpu.register_irq_handler(42, fired.append)
        sink.port.send(make_msi(MSI_REGION.base, 42))
        engine.run()
        assert fired == [42]
        assert cpu.interrupts_received == 1

    def test_unhandled_msi_ignored(self, engine):
        cpu = CPU(engine, "cpu")
        sink = SinkDevice(engine, "dev", role=PortRole.INTERNAL)
        PCIeLink(engine, cpu.port, sink.port, LinkParams(latency_ps=ns(1)))
        sink.port.send(make_msi(MSI_REGION.base, 7))
        engine.run()
        assert cpu.interrupts_received == 1

    def test_duplicate_irq_vector_rejected(self, engine):
        cpu = CPU(engine, "cpu")
        cpu.register_irq_handler(1, lambda v: None)
        with pytest.raises(ConfigError):
            cpu.register_irq_handler(1, lambda v: None)
        cpu.unregister_irq_handler(1)
        cpu.register_irq_handler(1, lambda v: None)


def make_gpu(engine, params=None):
    gpu = GPU(engine, "gpu", params or GPUParams(memory_bytes=64 * MiB))
    gpu.assign_bar1(Region(8 * GiB, 8 * GiB, "gpu.bar1"))
    driver = SinkDevice(engine, "rc", role=PortRole.RC)
    PCIeLink(engine, driver.port, gpu.port, LinkParams(latency_ps=ns(10)))
    return gpu, driver


class TestGPU:
    def test_bar_translation(self, engine):
        gpu, _ = make_gpu(engine)
        assert gpu.bar_to_offset(8 * GiB + 0x100) == 0x100
        assert gpu.offset_to_bar(0x100) == 8 * GiB + 0x100

    def test_bar_too_small_rejected(self, engine):
        gpu = GPU(engine, "g", GPUParams(memory_bytes=64 * MiB))
        with pytest.raises(DriverError):
            gpu.assign_bar1(Region(0, 32 * MiB, "small"))

    def test_unpinned_write_rejected(self, engine):
        gpu, rc = make_gpu(engine)
        rc.port.send(make_write(8 * GiB, np.zeros(8, dtype=np.uint8)))
        with pytest.raises(DriverError, match="unpinned"):
            engine.run()

    def test_pinned_write_lands(self, engine):
        gpu, rc = make_gpu(engine)
        gpu.pin_pages(0, 4096)
        data = np.arange(16, dtype=np.uint8)
        rc.port.send(make_write(8 * GiB + 64, data))
        engine.run()
        assert np.array_equal(gpu.memory.read(64, 16), data)

    def test_pin_rounds_to_pages(self, engine):
        gpu, _ = make_gpu(engine)
        gpu.pin_pages(100, 50)
        assert gpu.is_pinned(0, 4096)
        assert not gpu.is_pinned(4096, 1)

    def test_kernel_roofline_timing(self, engine):
        gpu = GPU(engine, "g", GPUParams(memory_bytes=64 * MiB))
        # Memory-bound kernel: 1 MB moved at 208 GB/s ≈ 4.8 us + 5 us launch.
        t = gpu.kernel_time_ps(flops=1e3, bytes_moved=1e6)
        assert 9_000_000 < t < 11_000_000
        # Compute-bound: 1 GFlop at 1.17 TFlops ≈ 855 us.
        t = gpu.kernel_time_ps(flops=1e9, bytes_moved=1e3)
        assert 800_000_000 < t < 900_000_000

    def test_unpin(self, engine):
        gpu, _ = make_gpu(engine)
        gpu.pin_pages(0, 4096)
        gpu.unpin_pages(0, 4096)
        assert not gpu.is_pinned(0, 8)
        with pytest.raises(DriverError):
            gpu.unpin_pages(0, 4096)

    def test_read_completer_limit_gives_830mbytes(self, engine):
        """The §IV-A2 GPU-read ceiling emerges from the 4-deep pipeline."""
        from repro.units import bw_gbytes_per_s
        from tests.pcie.helpers import RequesterDevice

        gpu = GPU(engine, "gpu", GPUParams(memory_bytes=64 * MiB))
        gpu.assign_bar1(Region(8 * GiB, 8 * GiB, "bar1"))
        gpu.pin_pages(0, 1 * MiB)
        req = RequesterDevice(engine, "req", role=PortRole.RC)
        PCIeLink(engine, req.port, gpu.port, LinkParams(latency_ps=ns(110)))

        def proc():
            total = 48 * 1024  # 192 requests: inside the 256-tag space
            waits = []
            for off in range(0, total, 256):
                tag, done = req.tags.issue(256)
                req.port.send(make_read(8 * GiB + off, 256,
                                        requester_id=req.device_id, tag=tag))
                waits.append(done)
            for w in waits:
                if not w.fired:
                    yield w
            return total

        total = engine.run_process(proc())
        bw = bw_gbytes_per_s(total, engine.now_ps)
        assert 0.7 < bw < 0.95
