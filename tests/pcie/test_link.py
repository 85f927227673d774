"""Unit tests for PCIe links: serialization, latency, credits, roles."""

import numpy as np
import pytest

from repro.errors import LinkError, SimulationError
from repro.pcie.device import Device
from repro.pcie.gen import PCIeGen
from repro.pcie.link import LinkParams, PCIeLink
from repro.pcie.port import Port, PortRole
from repro.pcie.tlp import make_write
from repro.units import ns
from tests.pcie.helpers import SinkDevice


def make_pair(engine, params=None, sink_service=0, rx_credits=32):
    a = SinkDevice(engine, "a", role=PortRole.RC)
    b = SinkDevice(engine, "b", role=PortRole.EP, service_ps=sink_service,
                   rx_credits=rx_credits)
    link = PCIeLink(engine, a.port, b.port,
                    params or LinkParams(latency_ps=ns(100)), name="l")
    return a, b, link


def test_single_tlp_delivery_time(engine):
    a, b, link = make_pair(engine)
    tlp = make_write(0, np.zeros(256, dtype=np.uint8))
    a.port.send(tlp)
    engine.run()
    arrival, received = b.received[0]
    # 280 wire bytes at 4 GB/s = 70 ns, plus 100 ns link latency.
    assert arrival == ns(170)
    assert received is tlp


def test_wire_serialization_back_to_back(engine):
    a, b, link = make_pair(engine)
    for _ in range(3):
        a.port.send(make_write(0, np.zeros(256, dtype=np.uint8)))
    engine.run()
    times = [t for t, _ in b.received]
    # Deliveries spaced by wire time (70 ns), not by latency.
    assert times[1] - times[0] == ns(70)
    assert times[2] - times[1] == ns(70)


def test_full_duplex_no_interference(engine):
    a, b, link = make_pair(engine)
    a.port.send(make_write(0, np.zeros(256, dtype=np.uint8)))
    b.port.send(make_write(0, np.zeros(256, dtype=np.uint8)))
    engine.run()
    assert len(a.received) == 1 and len(b.received) == 1
    assert a.received[0][0] == b.received[0][0] == ns(170)


def test_role_pairing_enforced(engine):
    a = SinkDevice(engine, "a", role=PortRole.RC)
    b = SinkDevice(engine, "b", role=PortRole.RC)
    with pytest.raises(LinkError, match="cannot train"):
        PCIeLink(engine, a.port, b.port, LinkParams())


def test_internal_pairs_with_internal_only(engine):
    a = SinkDevice(engine, "a", role=PortRole.INTERNAL)
    b = SinkDevice(engine, "b", role=PortRole.EP)
    with pytest.raises(LinkError):
        PCIeLink(engine, a.port, b.port, LinkParams())


def test_send_without_link(engine):
    a = SinkDevice(engine, "a")
    with pytest.raises(LinkError, match="not connected"):
        a.port.send(make_write(0, np.zeros(4, dtype=np.uint8)))


def test_double_attach_rejected(engine):
    a, b, link = make_pair(engine)
    c = SinkDevice(engine, "c", role=PortRole.EP)
    with pytest.raises(LinkError, match="already linked"):
        PCIeLink(engine, a.port, c.port, LinkParams())


def test_link_down_rejects_traffic(engine):
    a, b, link = make_pair(engine)
    link.take_down()
    with pytest.raises(LinkError, match="down"):
        a.port.send(make_write(0, np.zeros(4, dtype=np.uint8)))
    link.bring_up()
    a.port.send(make_write(0, np.zeros(4, dtype=np.uint8)))
    engine.run()
    assert len(b.received) == 1


def test_credit_backpressure_slows_sender(engine):
    # Sink takes 1 us per packet with only 2 rx credits: the 10-packet
    # burst must finish no earlier than ~10 * 1 us.
    a, b, link = make_pair(engine, sink_service=ns(1000), rx_credits=2)
    for _ in range(10):
        a.port.send(make_write(0, np.zeros(64, dtype=np.uint8)))
    engine.run()
    assert len(b.received) == 10
    assert engine.now_ps >= 10 * ns(1000)


def test_counters(engine):
    a, b, link = make_pair(engine)
    tlp = make_write(0, np.zeros(100, dtype=np.uint8))
    a.port.send(tlp)
    engine.run()
    assert link.tlps_carried == 1
    assert link.bytes_carried == 124
    assert a.port.tlps_sent == 1
    assert b.port.tlps_received == 1


def test_ordering_preserved(engine):
    a, b, link = make_pair(engine)
    payloads = [np.full(8, i, dtype=np.uint8) for i in range(20)]
    for p in payloads:
        a.port.send(make_write(0, p))
    engine.run()
    got = [int(tlp.payload[0]) for _, tlp in b.received]
    assert got == list(range(20))


def test_gen3_faster_than_gen2(engine):
    fast = LinkParams(gen=PCIeGen.GEN3, lanes=8, latency_ps=0)
    a, b, _ = make_pair(engine, params=fast)
    a.port.send(make_write(0, np.zeros(256, dtype=np.uint8)))
    engine.run()
    assert b.received[0][0] < ns(40)  # ~35.5 ns vs 70 ns on Gen2


class StuckSink(Device):
    """Its handler waits on a signal that never fires."""

    def __init__(self, engine):
        super().__init__(engine, "stuck")
        self.port = Port(engine, "stuck.port", PortRole.EP, self,
                         rx_credits=1)
        self.never = engine.signal("never")

    def handle_tlp(self, port, tlp):
        return self._wait()

    def _wait(self):
        yield self.never


def test_deadlock_names_the_parked_fabric_elements(engine):
    a = SinkDevice(engine, "a", role=PortRole.RC)
    stuck = StuckSink(engine)
    link = PCIeLink(engine, a.port, stuck.port, LinkParams(latency_ps=ns(10)),
                    name="l")

    def sender():
        for _ in range(8):
            accepted = a.port.send(make_write(0, np.zeros(64, dtype=np.uint8)))
            if not accepted.fired:
                yield accepted

    proc = engine.process(sender(), name="sender")
    with pytest.raises(SimulationError) as raised:
        engine.run_all([proc])
    message = str(raised.value)
    assert "'sender'" in message
    # The first TLP blocks the handler, the second fills the one-credit
    # receive buffer, the third waits for its credit.
    assert "port stuck.port blocked in its handler" in message
    assert "1 TLP(s) queued" in message
    assert "link l:a->b waiting for credit (0/1 free)" in message
    # Parked elements leave the watch list once they move again.
    stuck.never.fire()
    engine.run()
    assert proc.done and not engine.watches
    assert link.tlps_carried == 8 and stuck.port.tlps_received == 8


def test_dead_link_egress_drop_is_not_counted_as_sent(engine):
    from repro.faults import FaultInjector, FaultPlan
    from repro.pcie.forwarding import EgressQueue

    FaultInjector(FaultPlan.preset("none")).arm(engine)
    a, b, link = make_pair(engine)
    queue = EgressQueue(engine, a.port, ns(50))
    link.take_down()
    queue.submit(make_write(0, np.zeros(64, dtype=np.uint8)))
    engine.run()
    # The egress stage dropped the TLP before any link saw it.
    assert a.port.tlps_sent == 0
    assert queue.tlps_dropped == 1
    assert link.tlps_carried == 0
