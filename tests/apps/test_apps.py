"""Unit tests for the mini-applications."""

import numpy as np
import pytest

from repro.collectives import ring_allgather
from repro.apps.pingpong import pingpong_rtt_ns
from repro.errors import ConfigError
from repro.hw.node import NodeParams
from repro.tca.subcluster import TCASubCluster


def small_cluster(n):
    return TCASubCluster(n, node_params=NodeParams(num_gpus=1))


class TestPingPong:
    def test_rtt_about_twice_one_way(self, cluster2):
        rtt = pingpong_rtt_ns(cluster2, iterations=4)
        # One way is 782 ns + poll granularity; RTT ~1.6 us.
        assert 1500 < rtt < 1800

    def test_iterations_validated(self, cluster2):
        with pytest.raises(ConfigError):
            pingpong_rtt_ns(cluster2, iterations=0)

    def test_farther_nodes_larger_rtt(self):
        near = pingpong_rtt_ns(small_cluster(8), 0, 1, iterations=2)
        far = pingpong_rtt_ns(small_cluster(8), 0, 4, iterations=2)
        assert far > near


class TestAllgather:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_allgather_selfchecks(self, n):
        results = ring_allgather(small_cluster(n), block_bytes=512)
        assert len(results) == n
        assert all(len(r) == 512 * n for r in results)

    def test_allgather_deterministic(self):
        a = ring_allgather(small_cluster(3), block_bytes=256, seed=1)
        b = ring_allgather(small_cluster(3), block_bytes=256, seed=1)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_oversized_blocks_rejected(self):
        with pytest.raises(ConfigError):
            ring_allgather(small_cluster(2), block_bytes=11 * 1024 * 1024)

