"""Smoke tests: every experiment entry point runs with tiny parameters.

The full-fidelity runs are ``tca-bench suite`` entries checked against
the anchor table; these keep the harness itself covered by the fast unit
suite, with a few shape claims of the paper no anchor reads.
"""

import pytest

from repro.bench import experiments
from repro.units import KiB


def test_tables_and_theory():
    assert "802 TFlops" in experiments.table1()
    assert "K20" in experiments.table2()
    assert experiments.theory()["eq1_peak_gbytes"] == pytest.approx(
        3.66, abs=0.01)


def rises(series) -> bool:
    ys = [y for _, y in sorted(series.points)]
    return all(a < b for a, b in zip(ys, ys[1:]))


def test_fig7_tiny():
    table = experiments.fig7(sizes=(64, 256, 1 * KiB, 4 * KiB), count=4)
    assert set(table.series) == {"CPU (write)", "CPU (read)",
                                 "GPU (write)", "GPU (read)"}
    assert all(s.y_at(256) > 0 for s in table.series.values())
    # Fig. 7: bandwidth rises with the data size up to the 4-KB peak.
    assert rises(table.series["CPU (write)"])


def test_fig8_tiny():
    table = experiments.fig8(sizes=(1 * KiB, 4 * KiB, 32 * KiB))
    assert table.series["CPU (write)"].y_at(1 * KiB) < 1.0
    # Fig. 8: a single DMA recovers steadily through the 8-KB knee.
    assert rises(table.series["CPU (write)"])


def test_fig9_tiny():
    table = experiments.fig9(counts=(1, 2))
    assert (table.series["CPU (write)"].y_at(2)
            > table.series["CPU (write)"].y_at(1))


def test_fig12_tiny():
    table = experiments.fig12(sizes=(512,), count=4)
    assert (table.series["remote CPU"].y_at(512)
            < table.series["local CPU (write)"].y_at(512))
    # Fig. 12: remote GPU bandwidth equals the in-node one at every size,
    # not only at the 256-B point the anchor reads.
    assert table.series["remote GPU"].y_at(512) == pytest.approx(
        table.series["local GPU (write)"].y_at(512), rel=0.05)


def test_latency():
    numbers = experiments.latency()
    assert numbers["pio_one_way_ns"] == pytest.approx(782.0, abs=1.0)


def test_comparison_host_tiny():
    table = experiments.comparison_host(sizes=(64,))
    assert table.series["tca-pio"].y_at(64) < table.series["mpi-ib"].y_at(64)


def test_crossover_tiny():
    table = experiments.pio_dma_crossover(sizes=(64, 8 * KiB))
    assert table.series["tca-pio"].y_at(64) < table.series["tca-dma"].y_at(64)
    assert (table.series["tca-dma"].y_at(8 * KiB)
            < table.series["tca-pio"].y_at(8 * KiB))


def test_ablation_dmac_tiny():
    table = experiments.ablation_dmac(sizes=(32 * KiB,))
    assert (table.series["tca-dma-pipelined"].y_at(32 * KiB)
            > table.series["tca-dma"].y_at(32 * KiB))


def test_ablation_ring_tiny():
    table = experiments.ablation_ring(ring_sizes=(2, 4))
    lat = table.series["one-way latency"]
    assert lat.y_at(2) < lat.y_at(4)


def test_contention_tiny():
    table = experiments.contention(ring_sizes=(4,), nbytes=16 * KiB)
    ring4 = table.series["4-node ring"]
    assert ring4.y_at(2) < ring4.y_at(1)


def test_collectives_tiny():
    table = experiments.collectives(block_sizes=(1 * KiB,), num_nodes=2)
    assert table.series["tca"].y_at(1 * KiB) > 0
    assert table.series["mpi-ib"].y_at(1 * KiB) > 0


def test_hierarchy_tiny():
    table = experiments.hierarchy(sizes=(64,))
    assert (table.series["local (TCA)"].y_at(64)
            < table.series["global (IB)"].y_at(64))


def test_ablation_ntb():
    numbers = experiments.ablation_ntb()
    assert numbers["ntb_hosts_require_reboot_after_unplug"] is True
