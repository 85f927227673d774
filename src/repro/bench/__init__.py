"""Benchmark harness: one module per paper table/figure, plus a CLI.

Every experiment can be regenerated standalone::

    python -m repro.bench fig7
    tca-bench latency

and ``tca-bench suite`` runs them all against the anchor table.
"""

from repro.bench.series import Series, SweepTable
from repro.bench.loopback import LoopbackRig

__all__ = ["Series", "SweepTable", "LoopbackRig"]
