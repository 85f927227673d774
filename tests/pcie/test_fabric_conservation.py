"""Conservation on small fabrics run until they drain.

Each scenario records every link direction, port and egress stage it
builds, runs its traffic to completion, drains the engine and then
checks the fabric's physical invariants:

* per direction, every TLP serialized toward delivery is delivered or
  dropped, each counted once, and every retransmission is one replay;
* every flow-control credit is back in its pool;
* no TLP is queued or in service at any tx, ingress or egress stage;
* no injection is held by the bubble rule.

Occupancy is read through the public ``idle`` properties, never through
the stages' internals.
"""

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.hw.node import NodeParams
from repro.pcie import forwarding, link, port
from repro.pcie.address import Region
from repro.pcie.port import PortRole
from repro.pcie.qpi import QPIBridge
from repro.pcie.switch import PCIeSwitch
from repro.pcie.tlp import make_write
from repro.peach2.descriptor import DMADescriptor
from repro.sim.core import Engine
from repro.tca.subcluster import TCASubCluster
from repro.units import ns
from tests.pcie.helpers import SinkDevice


class Fabric:
    """Every direction, port and egress stage built while recording."""

    def __init__(self):
        self.directions = []
        self.ports = []
        self.egress = []


@pytest.fixture
def record(monkeypatch):
    """Record fabric elements; ``rx_credits`` clamps every port's pool."""

    def start(rx_credits=None):
        fabric = Fabric()

        def wrap(cls, bucket, clamp=False):
            init = cls.__init__

            def recording_init(self, *args, **kwargs):
                if clamp and rx_credits is not None:
                    kwargs["rx_credits"] = min(
                        kwargs.get("rx_credits", 32), rx_credits)
                init(self, *args, **kwargs)
                bucket.append(self)

            monkeypatch.setattr(cls, "__init__", recording_init)

        wrap(link._Direction, fabric.directions)
        wrap(port.Port, fabric.ports, clamp=True)
        wrap(forwarding.EgressQueue, fabric.egress)
        return fabric

    return start


def assert_drained(fabric):
    assert fabric.directions and fabric.ports
    for d in fabric.directions:
        where = d.name
        # Serialized toward delivery = delivered + dropped, once each.
        assert d.tlps_carried == d.sink.tlps_received + d.tlps_dropped, where
        assert d.source.tlps_sent == d.tlps_carried, where
        # Every extra serialization on the wire is one counted replay.
        assert d.wire_tlps_carried == d.tlps_carried + d.replays, where
        assert d.credits_free == d.credit_limit, where
        assert d.idle, where
    for p in fabric.ports:
        assert p.idle, p.name
    for q in fabric.egress:
        assert q.injections_waiting == 0, q.name
        assert q.free_slots == q.capacity, q.name
        assert q.idle, q.name


def ring_shift(num_nodes, shift, plan=None, descriptors=6):
    """All nodes DMA to the node ``shift`` hops east at once, to drain.

    Returns the cluster and the fault injector armed with ``plan``.
    """
    cluster = TCASubCluster(num_nodes, node_params=NodeParams(num_gpus=1))
    engine = cluster.engine
    injector = None
    if plan is not None:
        injector = FaultInjector(plan).arm(engine)
        injector.attach_cluster(cluster)
    procs = []
    for src in range(num_nodes):
        dst = (src + shift) % num_nodes
        chip = cluster.board(src).chip
        target = cluster.address_map.global_address(
            dst, 2, cluster.driver(dst).dma_buffer(0))
        chain = [DMADescriptor(chip.bar2.base + i * 4096, target + i * 4096,
                               4096) for i in range(descriptors)]
        procs.append(engine.process(cluster.driver(src).run_chain(0, chain),
                                    name=f"shift{src}"))
    engine.run_all(procs)
    engine.run()
    return cluster, injector


@pytest.mark.parametrize("num_nodes,shift", [(4, 2), (8, 3)])
def test_ring_shift_with_tiny_credit_pools_drains_clean(record, num_nodes,
                                                        shift):
    fabric = record(rx_credits=2)
    ring_shift(num_nodes, shift)
    assert all(d.credit_limit <= 2 for d in fabric.directions)
    assert sum(d.tlps_carried for d in fabric.directions) > 0
    # The shift really crossed the ring under the bubble rule.
    assert sum(q.injections_held for q in fabric.egress) > 0
    assert all(d.tlps_dropped == 0 for d in fabric.directions)
    assert_drained(fabric)


def test_flaky_links_count_every_drop_once(record):
    fabric = record(rx_credits=2)
    _, injector = ring_shift(4, 2, FaultPlan.preset("flaky-links", seed=3))
    replays = sum(d.replays for d in fabric.directions)
    naks = sum(d.naks for d in fabric.directions)
    corrupted = injector.counters.get("tlps_corrupted", 0)
    lost = injector.counters.get("tlps_dropped_wire", 0)
    assert corrupted and lost, injector.counters
    # Each corrupted or lost serialization is exactly one replay.
    assert replays == corrupted + lost
    assert naks == corrupted
    assert_drained(fabric)


def test_switch_to_qpi_into_slow_sink_drains_clean(record):
    fabric = record(rx_credits=1)
    engine = Engine()
    switch = PCIeSwitch(engine, "sw")
    bridge = QPIBridge(engine, "qpi")
    source = SinkDevice(engine, "cpu", role=PortRole.INTERNAL)
    sink = SinkDevice(engine, "slow", role=PortRole.INTERNAL,
                      service_ps=ns(400))
    up = switch.new_port("up", PortRole.INTERNAL)
    across = switch.new_port("qpi", PortRole.INTERNAL)
    link.PCIeLink(engine, source.port, up, link.LinkParams(latency_ps=ns(10)))
    link.PCIeLink(engine, across, bridge.port_a,
                  link.LinkParams(latency_ps=ns(10)))
    link.PCIeLink(engine, bridge.port_b, sink.port,
                  link.LinkParams(latency_ps=ns(10)))
    switch.map_region(Region(0x1000, 0x1000, "far"), across)

    def producer():
        for i in range(40):
            accepted = source.port.send(
                make_write(0x1000, np.full(64, i, dtype=np.uint8)))
            if not accepted.fired:
                yield accepted

    engine.run_all([engine.process(producer(), name="producer")])
    engine.run()
    assert [int(t.payload[0]) for _, t in sink.received] == list(range(40))
    # The slow sink paced the whole path: backpressure reached the source.
    assert engine.now_ps >= 40 * ns(400)
    assert_drained(fabric)
