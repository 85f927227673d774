"""Unit tests for the device base and tag pool."""

import numpy as np
import pytest

from repro.errors import PCIeError, SimulationError
from repro.pcie.device import Device, TagPool, allocate_device_id
from repro.pcie.link import LinkParams, PCIeLink
from repro.pcie.port import Port, PortRole
from repro.pcie.tlp import make_completion, make_read, make_write
from tests.pcie.helpers import SinkDevice


def test_device_ids_unique():
    assert allocate_device_id() != allocate_device_id()


class TestTagPool:
    def test_issue_and_complete(self, engine):
        pool = TagPool(engine, "t")
        tag, done = pool.issue(8)
        request = make_read(0, 8, requester_id=1, tag=tag)
        pool.complete(make_completion(request,
                                      np.arange(8, dtype=np.uint8)))
        assert done.fired
        assert done.value == bytes(range(8))
        assert pool.outstanding == 0

    def test_split_completions_reassembled(self, engine):
        pool = TagPool(engine, "t")
        tag, done = pool.issue(8)
        request = make_read(0, 8, requester_id=1, tag=tag)
        pool.complete(make_completion(request, np.array([1, 2, 3, 4],
                                                        dtype=np.uint8)))
        assert not done.fired
        pool.complete(make_completion(request, np.array([5, 6, 7, 8],
                                                        dtype=np.uint8)))
        assert done.fired
        assert done.value == bytes([1, 2, 3, 4, 5, 6, 7, 8])

    def test_unknown_tag_rejected(self, engine):
        pool = TagPool(engine, "t")
        request = make_read(0, 4, requester_id=1, tag=9)
        with pytest.raises(PCIeError, match="unknown tag"):
            pool.complete(make_completion(request,
                                          np.zeros(4, dtype=np.uint8)))

    def test_over_completion_rejected(self, engine):
        pool = TagPool(engine, "t")
        tag, _ = pool.issue(4)
        request = make_read(0, 8, requester_id=1, tag=tag)
        with pytest.raises(PCIeError, match="over-completed"):
            pool.complete(make_completion(request,
                                          np.zeros(8, dtype=np.uint8)))

    def test_non_completion_rejected(self, engine):
        pool = TagPool(engine, "t")
        with pytest.raises(PCIeError):
            pool.complete(make_write(0, np.zeros(4, dtype=np.uint8)))

    def test_tags_recycle(self, engine):
        pool = TagPool(engine, "t")
        for _ in range(600):  # more than the 256 tag space, sequentially
            tag, done = pool.issue(1)
            request = make_read(0, 1, requester_id=1, tag=tag)
            pool.complete(make_completion(request,
                                          np.zeros(1, dtype=np.uint8)))
        assert pool.outstanding == 0

    def test_tag_space_exhaustion(self, engine):
        pool = TagPool(engine, "t")
        for _ in range(TagPool.MAX_TAGS):
            pool.issue(1)
        with pytest.raises(PCIeError, match="exhausted"):
            pool.issue(1)


class TestHandlerContract:
    """The port drives a multi-step handler inline: int delays and
    Signals only."""

    def make_pair(self, engine, device):
        src = SinkDevice(engine, "src", role=PortRole.RC)
        PCIeLink(engine, src.port, device.port, LinkParams(latency_ps=1000))
        return src

    def test_unsupported_yield_names_port_and_type(self, engine):
        class Confused(Device):
            def __init__(self, engine):
                super().__init__(engine, "confused")
                self.port = Port(engine, "confused.port", PortRole.EP, self)

            def handle_tlp(self, port, tlp):
                return self._steps()

            def _steps(self):
                yield 1000
                yield 2.5  # not an int delay, not a Signal

        device = Confused(engine)
        src = self.make_pair(engine, device)
        src.port.send(make_write(0, np.zeros(4, dtype=np.uint8)))
        with pytest.raises(SimulationError) as raised:
            engine.run()
        assert "confused.port" in str(raised.value)
        assert "float" in str(raised.value)

    def test_delays_and_signals_run_in_order(self, engine):
        gate = engine.signal("gate")

        class Stepper(Device):
            def __init__(self, engine):
                super().__init__(engine, "stepper")
                self.port = Port(engine, "stepper.port", PortRole.EP, self)
                self.log = []

            def handle_tlp(self, port, tlp):
                return self._steps(int(tlp.payload[0]))

            def _steps(self, n):
                self.log.append(("start", n, engine.now_ps))
                yield 500
                value = yield gate
                self.log.append(("done", n, engine.now_ps, value))

        device = Stepper(engine)
        src = self.make_pair(engine, device)
        for n in range(2):
            src.port.send(make_write(0, np.full(4, n, dtype=np.uint8)))
        engine.after(50_000, gate.fire, "open")
        engine.run()
        starts = [entry for entry in device.log if entry[0] == "start"]
        # The second TLP waits for the first handler, which waits for
        # the gate; the fired gate then lets the second run straight on.
        assert [entry[1] for entry in device.log] == [0, 0, 1, 1]
        assert starts[0][2] < starts[1][2] == 50_000
        assert device.log[1] == ("done", 0, 50_000, "open")
        assert device.log[3] == ("done", 1, 50_500, "open")
