#!/usr/bin/env python3
"""Host-time benchmark of the TCA/PEACH2 simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dma-sweep --seed 1 --seconds 10 --trace 0

``--trace 0`` times the workload with no instrumentation and prints the
end-to-end metrics; ``--trace 1`` times it once bare, then once more with
every layer wrapped (:mod:`layers`) and prints the per-layer metrics.
Every payload is checked against ``reference.json``.  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the exit status is non-zero when any check failed.  A detailed
record of the run (provenance, every pass, the per-function span
aggregate of a traced run) is written to ``.perfbench/`` in the
checkout.  See ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hostclock import HostClock
from workloads import WORKLOAD_NAMES, Checker, run_pass, workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

#: Engine knobs the workloads must run without; their values at start
#: are recorded and then removed from the environment.
ENV_VARS = ("TCA_SIM_DISPATCH", "TCA_ENGINE_WORKERS")

#: Fresh interpreters timed per run for ``setup_s`` (median reported).
SETUP_PROBES = 5

#: Seconds of warm reruns per pass (each rerun a ``warm_s`` sample): a
#: few host-speed samples land among them.
WARM_SECONDS = 0.5

#: Per-layer counts of simulated work: a change to host code only must
#: leave them exactly as recorded in ``reference.json``.
SIMULATED_WORK = ("pcie.tlps_carried", "pcie.wire_tlps_carried",
                  "pcie.tlps_dropped", "pcie.injections_held",
                  "peach2.tlps_routed", "peach2.dma_chains",
                  "peach2.dma_bytes", "hw.bytes_written",
                  "collectives.submits", "obs.trace_records")

#: Units of the metrics whose unit the name's suffix does not give.
UNITS = {"peak_rss_mb": "MB", "sim.ns_per_event": "ns",
         "sim.events_per_tlp": "events/TLP", "peach2.dma_bytes": "bytes",
         "hw.bytes_written": "bytes", "error_rate": "ratio"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--reference", type=Path, default=REFERENCE,
                        help="payload digests and simulated-work counts")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(reference_path: Path):
    """Imports, reference loading, the temporary directory, the clock."""
    import repro.bench.suite  # noqa: F401 - the registry and the harness
    import repro.model.anchors  # noqa: F401
    import repro.obs  # noqa: F401

    reference = json.loads(reference_path.read_text())
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    tempfile.tempdir = tmp  # the suite's spill files stay in the checkout
    return reference, Path(tmp), HostClock()


def probe_setup(args) -> list:
    """Seconds from interpreter start to the end of :func:`set_up`.

    Raw wall seconds: the host clock's kernel does not follow process
    start-up (scaling by it widened the spread of ``setup_s``).
    """
    samples = []
    for _ in range(SETUP_PROBES):
        spawned = time.time()
        done = subprocess.run(
            [sys.executable, __file__, "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0",
             "--reference", str(args.reference)],
            capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(done.stdout.split()[-1]) - spawned)
    return samples


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any waited-for child."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def timed_run(args, reference, tmp, clock, checker, details):
    """Passes until ``--seconds`` is spent; medians of the samples."""
    import repro.bench.suite as suite

    setup = probe_setup(args)
    wl = workload(args.workload)
    passes = []
    clock.start()
    start = time.perf_counter()
    try:
        while True:
            passes.append(run_pass(wl, args.seed, tmp, checker, clock,
                                   suite.run_entry, nproc(), WARM_SECONDS))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) > args.seconds:
                break
    finally:
        clock.stop()
    for p in passes:
        p.normalize(clock)
    details.update(passes=[vars(p) for p in passes], setup_s=setup,
                   host_speed=clock.speeds())
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(setup),
        "warm_s": statistics.median(s for p in passes for s in p.warm_s),
    }


def traced_run(args, reference, tmp, clock, checker, details):
    """One bare pass, then one pass with every layer wrapped.

    Layer times are scaled to reference seconds by the traced pass's
    host speed (its reference over its raw seconds); the fork workers'
    times by the same factor.
    """
    import repro.bench.suite as suite
    from layers import (LayerTracer, add_counts, harvest,
                        traced_suite_runner, worker_snapshots)

    wl = workload(args.workload)
    bare = None
    clock.start()
    try:
        if wl.observed:
            bare = run_pass(wl, args.seed, tmp, checker, clock,
                            suite.run_entry, nproc(), WARM_SECONDS,
                            observed=False)
        untraced = run_pass(wl, args.seed, tmp, checker, clock,
                            suite.run_entry, nproc(), WARM_SECONDS)

        tracer = LayerTracer()
        tracer.install()
        clock.on_kernel = tracer.exclude
        spill = tmp / "workers"
        spill.mkdir()
        runner = traced_suite_runner(tracer, suite.run_entry, spill)
        suite.run_entry = runner  # what run_suite hands its fork workers
        try:
            traced = run_pass(wl, args.seed, tmp, checker, clock, runner,
                              nproc(), WARM_SECONDS)
        finally:
            tracer.uninstall()
    finally:
        clock.stop()
    for p in (bare, untraced, traced):
        if p is not None:
            p.normalize(clock)
    processes = [tracer.snapshot()] + worker_snapshots(spill)

    self_s, calls, totals, counts = {}, {}, {}, harvest({})
    for proc in processes:
        for table, into in ((proc["layer_self_s"], self_s),
                            (proc["calls"], calls), (proc["totals"], totals)):
            for key, value in table.items():
                into[key] = into.get(key, 0) + value
        add_counts(counts, proc["counts"])
        checker.check(
            f"self time of process {proc['pid']}",
            sum(proc["layer_self_s"].values()) <= proc["window_s"],
            f"layer self times sum to {sum(proc['layer_self_s'].values())} s"
            f" in a {proc['window_s']} s window")

    scale = traced.wall_s / traced.raw_wall_s
    self_s = {k: v * scale for k, v in self_s.items()}
    totals = {k: v * scale for k, v in totals.items()}
    events = counts["sim.events"]
    metrics = {
        "sim.events": events,
        "sim.engines": counts["sim.engines"],
        "sim.process_spawns": calls["sim.process_spawns"],
        "sim.step_calls": calls["sim.step_calls"],
        "sim.run_self_s": self_s["sim"],
        "sim.ns_per_event": untraced.wall_s * 1e9 / max(events, 1),
        "sim.events_per_tlp": events / max(counts["pcie.tlps_carried"], 1),
        "pcie.tlps_carried": counts["pcie.tlps_carried"],
        "pcie.wire_tlps_carried": counts["pcie.wire_tlps_carried"],
        "pcie.goodput_ratio": (counts["pcie.tlps_carried"]
                               / max(counts["pcie.wire_tlps_carried"], 1)),
        "pcie.tlps_dropped": counts["pcie.tlps_dropped"],
        "pcie.injections_held": counts["pcie.injections_held"],
        "pcie.self_s": self_s["pcie"],
        "peach2.tlps_routed": counts["peach2.tlps_routed"],
        "peach2.dma_chains": counts["peach2.dma_chains"],
        "peach2.dma_bytes": counts["peach2.dma_bytes"],
        "peach2.self_s": self_s["peach2"],
        "drivers.chains": calls["drivers.chains"],
        "drivers.retries": counts["drivers.retries"],
        "drivers.self_s": self_s["drivers"],
        "hw.bytes_written": counts["hw.bytes_written"],
        "hw.self_s": self_s["hw"],
        "tca.build_s": totals.get("tca.build_s", 0.0),
        "tca.self_s": self_s["tca"],
        "collectives.submits": calls["collectives.submits"],
        "collectives.queued_high_water":
            counts["collectives.queued_high_water"],
        "collectives.self_s": self_s["collectives"],
        "obs.trace_records": traced.trace_records,
        "obs.trace_dropped": traced.trace_dropped,
        "obs.self_s": self_s["obs"],
        "obs.overhead_ratio": (untraced.wall_s / bare.wall_s
                               if bare is not None else 0.0),
        "bench.self_s": self_s["bench"],
        "bench.cache_get_s": totals.get("bench.cache_get_s", 0.0),
        "bench.cache_put_s": totals.get("bench.cache_put_s", 0.0),
        "bench.journal_s": totals.get("bench.journal_s", 0.0),
        "bench.cache_hits": traced.cache_hits,
        "bench.cache_misses": traced.cache_misses,
        "bench.retries": traced.retries,
        "other.self_s": self_s["other"],
        "trace.overhead_ratio": traced.wall_s / untraced.wall_s,
    }

    work = {key: metrics[key] for key in SIMULATED_WORK}
    expected = reference["simulated_work"].get(args.workload)
    changed = {key: [expected.get(key) if expected else None, value]
               for key, value in work.items()
               if not expected or expected.get(key) != value}
    checker.check("simulated work", not changed,
                  "counts differ from reference.json "
                  "([reference, measured]): " + json.dumps(changed))
    entry_events = {label: c["sim.events"]
                    for proc in processes
                    for label, c in proc["entry_counts"].items()}
    details.update(
        passes={"bare": bare and vars(bare), "untraced": vars(untraced),
                "traced": vars(traced)},
        host_speed=clock.speeds(),
        simulated_work={"reference": expected, "changed": changed},
        entry_events={label: [reference["sim_events"].get(label), value]
                      for label, value in sorted(entry_events.items())},
        processes=processes)
    return metrics


def git_commit():
    """The checked-out commit, or None outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} is missing; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    env = {name: os.environ.pop(name, None) for name in ENV_VARS}
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        _, tmp, _ = set_up(args.reference)
        print(repr(time.time()))
        shutil.rmtree(tmp)
        return 0

    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        return 2
    reference, tmp, clock = set_up(args.reference)
    checker = Checker(reference)
    from repro.bench.cache import sources_fingerprint

    details = {"provenance": {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "nproc": nproc(),
        "python": platform.python_version(),
        "platform": platform.platform(), "commit": git_commit(),
        "sources_fingerprint": sources_fingerprint(), "env": env}}
    try:
        if args.trace:
            values = traced_run(args, reference, tmp, clock, checker,
                                details)
            values["error_rate"] = (len(checker.failures)
                                    / max(checker.attempted, 1))
        else:
            values = timed_run(args, reference, tmp, clock, checker,
                               details)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = {name: {"value": value, "unit": unit_of(name)}
               for name, value in values.items()}
    details.update(failures=checker.failures, metrics=metrics)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(details, indent=1, default=str))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={nproc()} commit={details['provenance']['commit']}")
    for name, metric in metrics.items():
        print(f"  {name:<32} {metric['value']:>16.6g} {metric['unit']}")
    for failure in checker.failures:
        print(f"  FAILED {failure}")
    print(f"  record: {record}")
    print(json.dumps({"correct": not checker.failures,
                      "attempted": checker.attempted,
                      "failed": len(checker.failures),
                      "metrics": metrics}))
    return 1 if checker.failures else 0


if __name__ == "__main__":
    sys.exit(main())
