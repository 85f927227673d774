"""Application-level benchmarks on the sub-cluster (ping-pong, collectives,
halo exchange) — the workloads the paper's applications motivate (§II)."""

import pytest

from benchmarks.conftest import record_table
from repro.collectives import ring_allgather
from repro.apps.halo import HaloExchange2D
from repro.apps.pingpong import pingpong_rtt_ns
from repro.hw.node import NodeParams
from repro.tca.subcluster import TCASubCluster


def _cluster(n):
    return TCASubCluster(n, node_params=NodeParams(num_gpus=1))


def test_pingpong(benchmark):
    def cell():
        return pingpong_rtt_ns(_cluster(2), iterations=8)

    rtt = benchmark.pedantic(cell, rounds=3, iterations=1)
    record_table(f"PIO ping-pong RTT (2 nodes): {rtt:.0f} ns "
                 f"(one-way {rtt / 2:.0f} ns)")
    assert rtt < 1800


def test_allgather_4nodes(benchmark):
    def cell():
        cluster = _cluster(4)
        ring_allgather(cluster, block_bytes=4096)
        return cluster.engine.now_ns

    sim_ns = benchmark.pedantic(cell, rounds=3, iterations=1)
    record_table(f"ring allgather, 4 nodes x 4 KiB blocks: "
                 f"{sim_ns / 1000:.1f} us simulated")
    assert sim_ns > 0


def test_halo_exchange(benchmark):
    def cell():
        cluster = _cluster(4)
        halo = HaloExchange2D(cluster, rows=32, cols_per_node=16)
        stats = halo.run(2)
        return stats

    stats = benchmark.pedantic(cell, rounds=2, iterations=1)
    record_table(
        f"2-D halo exchange (4 nodes, 32x16 strips, 2 iters): "
        f"{stats.total_ns / 1000:.1f} us simulated, "
        f"{stats.exchange_fraction * 100:.0f}% exchange")
    assert stats.iterations == 2
