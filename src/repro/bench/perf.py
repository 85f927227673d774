"""Wall-clock performance harness for the simulator itself.

Every other module in :mod:`repro.bench` measures *simulated* time; this
one measures *host* time — how fast the event loop chews through a
representative slice of the paper's experiments.  It exists so that
performance work on the engine has a trajectory: run ``tca-bench perf``
before and after a change, compare events/second, and commit the JSON
document (``tca-bench perf --bench-json BENCH_PR9.json``, the baseline
CI gates against) so the next change has a baseline to beat.

Each experiment is timed twice — **bare** (no observability attached) and
**instrumented** (a full :class:`~repro.obs.session.Observability` session:
tracing + metrics on every engine) — because the instrumented path is the
one humans actually iterate with, and its overhead factor is itself a
regression target.  Engines are collected via the same
:func:`~repro.sim.core.register_engine_observer` hook the observability
session uses, so the harness adds zero events to any engine: wall-clock
numbers vary run to run, but every simulated-time output stays
picosecond-identical to an unharnessed run.
"""

from __future__ import annotations

import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.bench import experiments
from repro.sim.core import (Engine, register_engine_observer,
                            unregister_engine_observer)

#: What ``tca-bench perf`` times: a PIO sweep (fig7), a DMA chain sweep
#: (fig9), the cross-technology comparison (comparison-gpu) and the
#: many-flow congestion scenario (contention) — together they exercise
#: every hot path: stores, links, switches, DMA engines and collectives.
PERF_EXPERIMENTS: Dict[str, Callable[[], object]] = {
    "fig7": experiments.fig7,
    "fig9": experiments.fig9,
    "comparison-gpu": experiments.comparison_gpu,
    "contention": experiments.contention,
}

#: Version tag of the JSON document written by ``--bench-json``.
SCHEMA = "tca-bench-perf/1"


@dataclass
class PerfSample:
    """One timed run of one experiment in one mode."""

    experiment: str
    mode: str  # "bare" | "instrumented"
    wall_s: float
    events: int
    engines: int

    @property
    def events_per_s(self) -> float:
        """Throughput; 0.0 for a degenerate zero-duration run."""
        if self.wall_s <= 0:
            return 0.0
        return self.events / self.wall_s

    def to_dict(self) -> Dict[str, Any]:
        return {
            "experiment": self.experiment,
            "mode": self.mode,
            "wall_s": round(self.wall_s, 4),
            "events": self.events,
            "engines": self.engines,
            "events_per_s": round(self.events_per_s, 1),
        }


@dataclass
class PerfReport:
    """All samples of one harness run plus environment provenance."""

    samples: List[PerfSample] = field(default_factory=list)
    unix_time: float = 0.0

    def overhead(self, experiment: str) -> Optional[float]:
        """Instrumented/bare wall-clock ratio for one experiment."""
        bare = inst = None
        for s in self.samples:
            if s.experiment == experiment:
                if s.mode == "bare":
                    bare = s.wall_s
                elif s.mode == "instrumented":
                    inst = s.wall_s
        if not bare or inst is None:
            return None
        return inst / bare

    def overall_overhead(self) -> Optional[float]:
        """Aggregate instrumented/bare wall ratio across all experiments."""
        bare = sum(s.wall_s for s in self.samples if s.mode == "bare")
        inst = sum(s.wall_s for s in self.samples
                   if s.mode == "instrumented")
        if not bare or not inst:
            return None
        return inst / bare

    def to_dict(self) -> Dict[str, Any]:
        """The ``--bench-json`` document (see docs/performance.md)."""
        totals = {
            "wall_s": round(sum(s.wall_s for s in self.samples), 4),
            "events": sum(s.events for s in self.samples),
        }
        wall = totals["wall_s"]
        totals["events_per_s"] = round(totals["events"] / wall, 1) if wall else 0.0
        overall = self.overall_overhead()
        if overall is not None:
            totals["overhead_ratio"] = round(overall, 3)
        return {
            "schema": SCHEMA,
            "unix_time": round(self.unix_time, 3),
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "results": [s.to_dict() for s in self.samples],
            "totals": totals,
        }

    def __str__(self) -> str:
        header = (f"{'experiment':<16} {'mode':<13} {'wall_s':>8} "
                  f"{'events':>10} {'events/s':>12} {'overhead':>9}")
        lines = [header, "-" * len(header)]
        for s in self.samples:
            ratio = (self.overhead(s.experiment)
                     if s.mode == "instrumented" else None)
            overhead = f"x{ratio:.2f}" if ratio is not None else ""
            lines.append(f"{s.experiment:<16} {s.mode:<13} {s.wall_s:>8.2f} "
                         f"{s.events:>10} {s.events_per_s:>12.0f} "
                         f"{overhead:>9}")
        ratios = []
        for name in dict.fromkeys(s.experiment for s in self.samples):
            ratio = self.overhead(name)
            if ratio is not None:
                ratios.append(f"{name} x{ratio:.2f}")
        if ratios:
            lines.append("")
            lines.append("observability overhead: " + ", ".join(ratios))
        return "\n".join(lines)


def _timed(fn: Callable[[], object], instrumented: bool) -> PerfSample:
    """Run ``fn`` once, collecting every engine it constructs.

    Engines built in this process are seen by the observer hook; engines
    built inside fork workers (``TCA_ENGINE_WORKERS`` > 1) are invisible
    here, so their ``(events, engines)`` tally is drained from the
    executor instead — the two sources are disjoint by construction.
    """
    from repro.sim import executor as engine_executor

    engines: List[Engine] = []
    collect = engines.append
    engine_executor.consume_stats()  # drop any stale pre-run tally
    register_engine_observer(collect)
    try:
        if instrumented:
            from repro.obs import Observability

            obs = Observability()
            start = time.perf_counter()
            with obs.session():
                fn()
            wall = time.perf_counter() - start
        else:
            start = time.perf_counter()
            fn()
            wall = time.perf_counter() - start
    finally:
        unregister_engine_observer(collect)
    worker_events, worker_engines = engine_executor.consume_stats()
    return PerfSample(
        experiment="", mode="instrumented" if instrumented else "bare",
        wall_s=wall,
        events=sum(e.events_processed for e in engines) + worker_events,
        engines=len(engines) + worker_engines)


def run_perf(names: Optional[Sequence[str]] = None) -> PerfReport:
    """Time each experiment bare and instrumented; returns the report.

    ``names`` defaults to every entry of :data:`PERF_EXPERIMENTS`; unknown
    names raise ``KeyError`` so typos fail loudly rather than silently
    shrinking the benchmark.
    """
    names = list(PERF_EXPERIMENTS) if names is None else list(names)
    report = PerfReport(unix_time=time.time())
    for name in names:
        fn = PERF_EXPERIMENTS[name]
        for instrumented in (False, True):
            sample = _timed(fn, instrumented)
            sample.experiment = name
            report.samples.append(sample)
    return report


def run_profile(names: Optional[Sequence[str]] = None) -> Dict[str, Any]:
    """Run each experiment once under a :class:`LayerSampler`.

    Returns ``{experiment: ProfileReport}`` — the ``perf --profile``
    payload.  Each experiment gets its own sampler, so its layer shares
    are not diluted by the others'.
    """
    from repro.obs.profile import LayerSampler

    names = list(PERF_EXPERIMENTS) if names is None else list(names)
    reports: Dict[str, Any] = {}
    for name in names:
        fn = PERF_EXPERIMENTS[name]
        with LayerSampler() as sampler:
            fn()
        reports[name] = sampler.report(label=name)
    return reports
