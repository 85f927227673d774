"""The benchmark's workloads and the checks on every point they produce.

A *point* is one registry entry's payload from one pass.  Every point
is hashed and compared with the digest recorded in ``reference.json``,
and points of anchor-carrying modes are held to their anchors
(:func:`repro.model.anchors.anchors_for`); any mismatch, exception or
failed anchor is a failed point.

Each pass of a workload has a *cold* part, which simulates, and a
*warm* part: a :func:`repro.bench.suite.run_suite` rerun of the same
entries against a result cache that already holds them, which is what a
user pays to get the same payloads a second time.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Workload:
    """One named set of registry entries and how they are driven."""

    name: str
    mode: str
    entries: Tuple[str, ...]
    #: Run the cold part inside an ``Observability()`` session.
    observed: bool = False
    #: Run the cold part through ``run_suite`` on a fork pool of
    #: ``nproc`` workers instead of calling ``run_entry`` in-process.
    suite: bool = False


WORKLOAD_NAMES = ("dma-sweep", "fabric-shift", "dma-sweep-observed",
                  "suite-tiny")


def workload(name: str) -> Workload:
    """The definition of one of :data:`WORKLOAD_NAMES`."""
    from repro.bench.experiments import REGISTRY

    dma_sweep = ("fig7", "fig9")
    return {
        "dma-sweep": Workload(name, "full", dma_sweep),
        "fabric-shift": Workload(
            name, "smoke", ("contention", "bisection", "collective-torus")),
        "dma-sweep-observed": Workload(name, "full", dma_sweep,
                                       observed=True),
        "suite-tiny": Workload(name, "tiny", tuple(REGISTRY), suite=True),
    }[name]


def digest(payload_json: str) -> str:
    return hashlib.sha256(payload_json.encode("utf-8")).hexdigest()


class Checker:
    """Counts checked points and keeps a reason for every failed one."""

    def __init__(self, reference: dict):
        self.digests: Dict[str, str] = reference["payload_sha256"]
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, label: str, ok: bool, why: str) -> bool:
        """Count one check; record ``why`` under ``label`` if it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {why}")
        return ok

    def point(self, name: str, mode: str, payload_json: Optional[str],
              error: Optional[str] = None, part: str = "cold") -> None:
        """Check one payload against its digest and its anchors."""
        from repro.model.anchors import anchors_for

        label = f"{part} {name}:{mode}"
        if payload_json is None:
            self.check(label, False, error or "no payload")
            return
        expected = self.digests.get(f"{name}:{mode}")
        actual = digest(payload_json)
        if not self.check(label, actual == expected,
                          f"payload sha256 {actual[:12]} != reference "
                          f"{str(expected)[:12]}"):
            return
        if mode == "tiny":
            return  # tiny sweeps are too reduced for anchor values
        payload = json.loads(payload_json)
        failed = [a.name for a in anchors_for(name)
                  if a.check(payload).status == "fail"]
        self.check(label, not failed, "anchors failed: " + ", ".join(failed))


@dataclass
class PassResult:
    """Host-time measurements and side counts of one pass.

    Times are first kept as ``time.perf_counter`` intervals so that
    :meth:`normalize` can turn them into reference seconds
    (:mod:`hostclock`) once the run's last host-speed sample is in.
    """

    cold_span: Tuple[float, float]
    cold_cpu_s: float
    warm_spans: List[Tuple[float, float]]
    trace_records: int = 0
    trace_dropped: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    retries: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    warm_s: Tuple[float, ...] = ()
    raw_wall_s: float = 0.0

    def normalize(self, clock) -> None:
        """Wall, CPU and warm times in reference seconds."""
        a, b = self.cold_span
        self.raw_wall_s = clock.raw_seconds(a, b)
        self.wall_s = clock.seconds(a, b)
        # The kernel runs on this process's CPU inside the cold span.
        kernel_s = (b - a) - self.raw_wall_s
        self.cpu_s = ((self.cold_cpu_s - kernel_s)
                      * self.wall_s / self.raw_wall_s)
        self.warm_s = tuple(clock.seconds(a, b) for a, b in self.warm_spans)


def _cpu_s() -> float:
    """CPU seconds of this process and its waited-for children."""
    return sum(u.ru_utime + u.ru_stime
               for u in (resource.getrusage(resource.RUSAGE_SELF),
                         resource.getrusage(resource.RUSAGE_CHILDREN)))


def run_pass(workload: Workload, seed: int, tmp: Path, checker: Checker,
             clock, run_entry: Callable, nproc: int, warm_seconds: float,
             observed: Optional[bool] = None) -> PassResult:
    """A cold part, then warm reruns for ``warm_seconds``; all checked.

    ``run_entry`` is called for each in-process point (the traced run
    passes its own); ``observed`` overrides the workload's session flag
    so the traced run can time the same entries bare.
    """
    observed = workload.observed if observed is None else observed
    tmp = Path(tempfile.mkdtemp(prefix="pass-", dir=tmp))
    try:
        return _run_pass(workload, seed, tmp, checker, clock, run_entry,
                         nproc, warm_seconds, observed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        gc.collect()


def _run_pass(workload, seed, tmp, checker, clock, run_entry, nproc,
              warm_seconds, observed) -> PassResult:
    from repro.bench.cache import ResultCache
    from repro.bench.suite import run_suite

    cache = ResultCache(tmp / "cache")
    names = list(workload.entries)
    result = PassResult(cold_span=(0.0, 0.0), cold_cpu_s=0.0, warm_spans=[])

    cpu0 = _cpu_s()
    start = time.perf_counter()
    if workload.suite:
        with clock.quiet():  # the fork pool keeps every core busy
            report = run_suite(names, shards=nproc, mode=workload.mode,
                               cache=cache, seed=seed,
                               journal_dir=tmp / "journal")
        cold = {e.name: (e.payload_json, e.error) for e in report.entries}
        result.retries = (report.robustness.get("retries", 0)
                          + report.robustness.get("requeues", 0))
    elif observed:
        from repro.obs import Observability

        obs = Observability()
        with obs.session():
            cold = _run_entries(names, workload.mode, seed, run_entry)
        result.trace_records = obs.total_records
        result.trace_dropped = obs.total_dropped
        del obs
    else:
        cold = _run_entries(names, workload.mode, seed, run_entry)
    result.cold_span = (start, time.perf_counter())
    result.cold_cpu_s = _cpu_s() - cpu0

    for name in names:
        payload_json, error = cold.get(name, (None, "entry missing"))
        checker.point(name, workload.mode, payload_json, error)
    if not workload.suite:
        _fill_cache(cache, names, workload.mode, seed, cold)

    warm_until = time.perf_counter() + warm_seconds
    while time.perf_counter() < warm_until:
        start = time.perf_counter()
        report = run_suite(names, shards=1, mode=workload.mode,
                           cache=cache, seed=seed)
        result.warm_spans.append((start, time.perf_counter()))
        for e in report.entries:
            checker.check(f"warm {e.name}", e.cache == "hit",
                          f"cache {e.cache} on a warm rerun")
            checker.point(e.name, workload.mode, e.payload_json, e.error,
                          part="warm")
    result.cache_hits, result.cache_misses = cache.hits, cache.misses
    return result


def _run_entries(names, mode, seed, run_entry):
    out = {}
    for name in names:
        try:
            out[name] = (run_entry(name, mode, seed)[0], None)
        except Exception as exc:  # noqa: BLE001 - a failed point
            out[name] = (None, f"{type(exc).__name__}: {exc}")
    return out


def _fill_cache(cache, names, mode, seed, cold) -> None:
    """Store cold payloads under the keys ``run_suite`` looks up."""
    from repro.bench.cache import cache_key, sources_fingerprint
    from repro.bench.experiments import REGISTRY
    from repro.model.anchors import calibration_fingerprint

    calib, sources = calibration_fingerprint(), sources_fingerprint()
    for name in names:
        payload_json = cold[name][0]
        if payload_json is not None:
            key = cache_key(name, REGISTRY[name].params_for(mode), calib,
                            sources, seed)
            cache.put(key, name, payload_json, meta={"mode": mode})
