"""Fault-injection: random cable failures, healing, and traffic survival."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LinkError
from repro.hw.node import NodeParams
from repro.tca.comm import TCAComm
from repro.tca.subcluster import TCASubCluster


@settings(max_examples=10)
@given(st.integers(min_value=3, max_value=8), st.data())
def test_any_single_cable_failure_is_survivable(n, data):
    """Cut any one ring cable, heal, and verify all-pairs PIO delivery."""
    cluster = TCASubCluster(n, node_params=NodeParams(num_gpus=1))
    comm = TCAComm(cluster)
    cut_at = data.draw(st.integers(0, n - 1))
    cluster.cut_ring_cable(cut_at)
    chain = cluster.heal()
    assert len(chain) == n

    src = data.draw(st.integers(0, n - 1))
    dst = data.draw(st.integers(0, n - 1))
    if src == dst:
        dst = (dst + 1) % n
    payload = np.frombuffer(
        data.draw(st.binary(min_size=4, max_size=64)), dtype=np.uint8).copy()
    target = comm.host_global(dst, cluster.driver(dst).dma_buffer(0x200))
    cluster.node(src).cpu.store(target, payload)
    cluster.engine.run()
    got = cluster.driver(dst).read_dma_buffer(0x200, len(payload))
    assert np.array_equal(got, payload)


def test_traffic_in_flight_when_cable_dies():
    """A put whose path dies mid-stream surfaces a link error rather than
    silently losing data."""
    cluster = TCASubCluster(4, node_params=NodeParams(num_gpus=1))
    comm = TCAComm(cluster)
    engine = cluster.engine
    data = np.ones(256 * 1024, dtype=np.uint8)
    src = cluster.driver(0).dma_buffer(0)
    cluster.node(0).dram.cpu_write(src, data)
    dst = comm.host_global(1, cluster.driver(1).dma_buffer(0))
    engine.process(comm.put_dma(0, src, dst, len(data)), name="doomed")
    engine.run(until_ps=50_000_000)  # mid-transfer
    cluster.cut_ring_cable(0)
    with pytest.raises(LinkError):
        engine.run()


def test_heal_then_full_collectives():
    """After healing, a whole allgather still self-checks."""
    from repro.collectives import ring_allgather

    cluster = TCASubCluster(4, node_params=NodeParams(num_gpus=1))
    cluster.cut_ring_cable(2)
    cluster.heal()
    ring_allgather(cluster, block_bytes=1024)  # self-checking


def test_nios_console_reflects_failure_and_heal():
    cluster = TCASubCluster(3, node_params=NodeParams(num_gpus=1))
    cluster.cut_ring_cable(0)
    chain = cluster.heal()
    console = cluster.board(0).chip.console
    assert "E=down" in console.execute("links")
    routes = console.execute("routes")
    assert "-> W" in routes or "-> E" in routes
    assert chain[0] == 1  # the node whose W cable died leads the chain