"""Unit tests for the mini-applications."""

import numpy as np
import pytest

from repro.collectives import ring_allgather
from repro.apps.halo import HaloExchange2D
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


class TestHalo:
    def test_heat_diffuses_rightward(self):
        cluster = small_cluster(3)
        halo = HaloExchange2D(cluster, rows=16, cols_per_node=4)
        # Heat needs ~cols iterations to cross a strip and one exchange
        # to enter the neighbour.
        halo.run(6)
        strip1 = halo.read_grid(1)
        assert strip1[:, 1:-1].sum() > 0

    def test_no_exchange_means_no_propagation(self):
        """Sanity: the heat in strip 1 really arrives via the ring."""
        cluster = small_cluster(3)
        halo = HaloExchange2D(cluster, rows=16, cols_per_node=8)
        strip1_before = halo.read_grid(1)
        assert strip1_before[:, 1:-1].sum() == 0

    def test_matches_serial_reference(self):
        """Distributed Jacobi equals the single-array serial reference.

        The ring of strips makes the domain horizontally *periodic*:
        node 0's left ghost is node n-1's right edge.
        """
        rows, cols, n, iters = 12, 6, 3, 3
        cluster = small_cluster(n)
        halo = HaloExchange2D(cluster, rows=rows, cols_per_node=cols)
        halo.run(iters)

        width = n * cols
        ref = np.zeros((rows, width))
        ref[:, 0] = 100.0
        for _ in range(iters):
            padded = np.hstack([ref[:, -1:], ref, ref[:, :1]])
            new = ref.copy()
            new[1:-1, :] = 0.25 * (padded[:-2, 1:-1] + padded[2:, 1:-1]
                                   + padded[1:-1, :-2] + padded[1:-1, 2:])
            ref = new
            ref[:, 0] = 100.0  # pinned hot wall

        glued = np.hstack([halo.read_grid(r)[:, 1:-1] for r in range(n)])
        assert np.allclose(glued, ref)

    def test_stats(self):
        cluster = small_cluster(2)
        halo = HaloExchange2D(cluster, rows=8, cols_per_node=4)
        stats = halo.run(2)
        assert stats.iterations == 2
        assert stats.total_ns > 0
        assert 0 < stats.exchange_fraction <= 1.0

    def test_grid_too_small(self):
        with pytest.raises(ConfigError):
            HaloExchange2D(small_cluster(2), rows=1, cols_per_node=4)
