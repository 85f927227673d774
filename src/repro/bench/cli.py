"""Command-line entry point: regenerate any paper table or figure.

Usage::

    python -m repro.bench <command> [...]
    tca-bench --list
    tca-bench all --json
    tca-bench latency --trace trace.json --metrics metrics.json
    tca-bench suite --smoke --shards 2 --report report.json
    tca-bench perf --bench-json bench.json
    tca-bench report --html dashboard.html

Every registry entry (E1-E23), ``validate`` and ``all`` is a subcommand
taking the experiment options; ``suite``, ``perf`` and ``report`` take
only the options they read, so a misplaced option is a usage error
(exit 2) rather than silently ignored.

``validate`` runs the ``latency``, ``fig7`` and ``fig9`` entries in smoke
mode and checks every anchor that reads them against the anchor table
(:mod:`repro.model.anchors`); it exits 1, naming each anchor, when any
check does not pass.

``--trace`` / ``--metrics`` run the experiments under an observability
session (see :mod:`repro.obs`): every engine the experiments build gets a
tracer and a metrics registry, and the union is exported afterwards — a
Perfetto-loadable trace-event file and a per-engine metrics document.

``--fault-plan`` additionally arms a fault-injection plan (see
:mod:`repro.faults`) on every engine: ``--fault-plan chaos:7`` runs the
experiments over marginal links with a lost IRQ and a stuck doorbell,
seeded deterministically.  Combined with ``--metrics``, the injected
fault counts and every recovery counter (replays, NAKs, drops, IRQ
timeouts) land in the metrics document.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Callable, Dict, List

from repro.bench.experiments import REGISTRY
from repro.bench.series import SweepTable
from repro.errors import ReproError
from repro.model.anchors import AnchorCheck


def _registry_runner(spec) -> Callable[[], object]:
    return lambda: spec.run("full")


#: What ``all`` runs, in order: the E1-E23 registry plus the utility
#: commands.  ``suite`` orchestrates the registry on its own.
EXPERIMENTS: Dict[str, Callable[[], object]] = {
    **{name: _registry_runner(spec) for name, spec in REGISTRY.items()},
    "validate": lambda: _validate(),
    "perf": lambda: _perf(),
}


def _perf():
    from repro.bench.perf import run_perf

    return run_perf()


#: The registry entries ``validate`` runs in smoke mode: the 782 ns PIO
#: path, the Fig. 7 peaks and GPU-read ceiling, Fig. 9's request curve.
VALIDATE_ENTRIES = ("latency", "fig7", "fig9")


class Validation:
    """The anchors of :data:`VALIDATE_ENTRIES`, checked against smoke runs."""

    def __init__(self, checks: List[AnchorCheck]):
        self.checks = checks

    @property
    def failed(self) -> List[AnchorCheck]:
        """Every check that is not ``pass``.  A ``skipped`` check counts:
        it means the smoke params lost a point the anchor reads."""
        return [c for c in self.checks if c.status != "pass"]

    def to_dict(self) -> Dict[str, object]:
        return {"passed": len(self.checks) - len(self.failed),
                "total": len(self.checks),
                "anchors": [c.to_dict() for c in self.checks]}

    def __str__(self) -> str:
        lines = [str(c) for c in self.checks]
        lines.append(f"{len(self.checks) - len(self.failed)}/"
                     f"{len(self.checks)} anchors pass")
        return "\n".join(lines)


def _validate() -> Validation:
    from repro.bench.suite import check_anchors

    return Validation(check_anchors(
        {name: to_payload(REGISTRY[name].run("smoke"))
         for name in VALIDATE_ENTRIES}))


def _suite_main(args) -> int:
    """The ``tca-bench suite`` subcommand (see docs/experiments.md).

    SIGINT/SIGTERM are handled: workers are terminated, the journal and
    any requested ``--report`` are flushed with ``interrupted: true``,
    and the exit code is 128+signum — never a traceback.
    """
    import signal

    from repro.bench.cache import ResultCache
    from repro.bench.ioutil import atomic_write_json, atomic_write_text
    from repro.bench.suite import (DEFAULT_JOURNAL_DIR,
                                   render_experiments_md, run_suite)

    mode = "smoke" if args.smoke else "tiny" if args.tiny else "full"
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    journal_dir = (None if args.no_journal
                   else args.journal_dir or DEFAULT_JOURNAL_DIR)
    runlog = None
    if args.trace_out:
        from repro.obs.runlog import RunLog

        runlog = RunLog(label="suite")

    # A termination signal becomes KeyboardInterrupt, which the job
    # layer already turns into an orderly partial run.
    caught: list = []

    def _on_signal(signum, frame):
        if not caught:
            caught.append(signum)
            raise KeyboardInterrupt

    old_int = signal.signal(signal.SIGINT, _on_signal)
    old_term = signal.signal(signal.SIGTERM, _on_signal)
    try:
        report = run_suite(shards=args.shards, mode=mode, cache=cache,
                           force=args.force, seed=args.seed,
                           log=lambda msg: print(msg, file=sys.stderr),
                           runlog=runlog,
                           journal_dir=journal_dir, resume=args.resume)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Interrupted outside the job layer (startup/teardown): there
        # is no report to flush, but still no traceback.
        signum = caught[0] if caught else signal.SIGINT
        print(f"interrupted (signal {signum}) before any result; "
              "nothing to flush", file=sys.stderr)
        return 128 + signum
    finally:
        signal.signal(signal.SIGINT, old_int)
        signal.signal(signal.SIGTERM, old_term)

    if runlog is not None:
        try:
            runlog.write_trace(args.trace_out)
        except OSError as exc:
            print(f"error: cannot write trace: {exc}", file=sys.stderr)
            return 1
        print(f"run trace -> {args.trace_out} "
              "(Perfetto; 1 wall ns = 1000 trace ps)", file=sys.stderr)

    if args.report:
        try:
            atomic_write_json(args.report, report.to_dict())
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 1
        print(f"conformance report -> {args.report}", file=sys.stderr)

    if args.render_md and not report.interrupted:
        try:
            with open(args.render_md, "r", encoding="utf-8") as fh:
                text = fh.read()
            text, updated = render_experiments_md(report.payloads, text)
            atomic_write_text(args.render_md, text)
        except OSError as exc:
            print(f"error: cannot render tables: {exc}", file=sys.stderr)
            return 1
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"regenerated {len(updated)} tables -> {args.render_md}",
              file=sys.stderr)

    if args.json:
        sys.stdout.write(report.payloads_json())
        print()
    else:
        print(report.render())
    if report.interrupted:
        return 128 + (caught[0] if caught else signal.SIGINT)
    return 0 if report.ok else 1


def _load_json(path: str, what: str):
    """Load one JSON document or print a CLI error; returns None on it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {what} {path!r}: {exc}",
              file=sys.stderr)
        return None


def _perf_main(args) -> int:
    """``tca-bench perf``: time, profile, gate and record the simulator."""
    import os

    from repro.bench import history as hist
    from repro.bench.perf import PERF_EXPERIMENTS, run_perf, run_profile

    names = None
    if args.perf_experiments:
        names = [n.strip() for n in args.perf_experiments.split(",")
                 if n.strip()]
        unknown = [n for n in names if n not in PERF_EXPERIMENTS]
        if unknown:
            print(f"error: unknown perf experiments: "
                  f"{', '.join(unknown)}", file=sys.stderr)
            return 2

    threshold = (hist.DEFAULT_THRESHOLD if args.threshold is None
                 else args.threshold)
    budget = (hist.DEFAULT_OVERHEAD_BUDGET
              if args.overhead_budget is None else args.overhead_budget)

    baseline = None
    if args.check:
        baseline = _load_json(args.baseline, "baseline")
        if baseline is None:
            return 2
        problem = hist.validate_perf_doc(
            baseline, f"baseline {args.baseline!r}")
        if problem is not None:
            print(f"error: {problem}", file=sys.stderr)
            return 2

    payload: Dict[str, object] = {}
    rc = 0
    report = None
    # --profile alone skips the bare/instrumented timing pass; any
    # gate/history/baseline work needs the timed report.
    if args.check or args.history or args.bench_json or not args.profile:
        report = run_perf(names)
        payload["perf"] = report.to_dict()
        if not args.json:
            print(report)

    if args.profile:
        profiles = run_profile(names)
        payload["profile"] = {name: rep.to_dict()
                              for name, rep in profiles.items()}
        if not args.json:
            for name, rep in profiles.items():
                print(f"==== profile: {name} ====")
                print(rep.render())
                print()

    if report is not None and args.bench_json:
        from repro.bench.ioutil import atomic_write_json

        try:
            atomic_write_json(args.bench_json, report.to_dict())
        except OSError as exc:
            print(f"error: cannot write benchmark output: {exc}",
                  file=sys.stderr)
            return 1
        print(f"benchmark -> {args.bench_json}", file=sys.stderr)

    if report is not None and args.history:
        try:
            hist.append_run(args.history, report.to_dict())
        except OSError as exc:
            print(f"error: cannot append history: {exc}", file=sys.stderr)
            return 1
        print(f"history -> {args.history}", file=sys.stderr)

    if report is not None and baseline is not None:
        gate = hist.check_against_baseline(
            report.to_dict(), baseline,
            baseline_name=os.path.basename(args.baseline),
            threshold=threshold, overhead_budget=budget,
            events_floor=args.events_floor)
        payload["gate"] = gate.to_dict()
        if not args.json:
            print(gate.render())
        if not gate.ok:
            rc = 1

    if args.json:
        json.dump(payload, sys.stdout, indent=2, default=str)
        print()
    return rc


def _report_main(args) -> int:
    """``tca-bench report --html``: render the perf dashboard."""
    import os

    from repro.bench import history as hist

    history = hist.load_history(args.history) if args.history else []

    perf_doc = gate = None
    if args.perf_json:
        perf_doc = _load_json(args.perf_json, "perf document")
        if perf_doc is None:
            return 2
        problem = hist.validate_perf_doc(
            perf_doc, f"perf document {args.perf_json!r}")
        if problem is not None:
            print(f"error: {problem}", file=sys.stderr)
            return 2
    if perf_doc is not None and os.path.exists(args.baseline):
        baseline = _load_json(args.baseline, "baseline")
        if baseline is None:
            return 2
        problem = hist.validate_perf_doc(
            baseline, f"baseline {args.baseline!r}")
        if problem is not None:
            print(f"error: {problem}", file=sys.stderr)
            return 2
        threshold = (hist.DEFAULT_THRESHOLD if args.threshold is None
                     else args.threshold)
        budget = (hist.DEFAULT_OVERHEAD_BUDGET
                  if args.overhead_budget is None
                  else args.overhead_budget)
        gate = hist.check_against_baseline(
            perf_doc, baseline,
            baseline_name=os.path.basename(args.baseline),
            threshold=threshold, overhead_budget=budget)

    suite_doc = None
    if args.suite_report:
        suite_doc = _load_json(args.suite_report, "suite report")
        if suite_doc is None:
            return 2

    profiles = None
    if args.profile_json:
        doc = _load_json(args.profile_json, "profile document")
        if doc is None:
            return 2
        # Accept both the bare {name: profile} map and the full
        # 'perf --profile --json' stdout document wrapping it.
        profiles = doc.get("profile", doc) if isinstance(doc, dict) \
            else doc
        problem = hist.validate_profile_doc(
            profiles, f"profile document {args.profile_json!r}")
        if problem is not None:
            print(f"error: {problem}", file=sys.stderr)
            return 2

    page = hist.render_dashboard(history=history, perf_doc=perf_doc,
                                 gate=gate, suite_doc=suite_doc,
                                 profiles=profiles)
    from repro.bench.ioutil import atomic_write_text

    try:
        atomic_write_text(args.html, page)
    except OSError as exc:
        print(f"error: cannot write dashboard: {exc}", file=sys.stderr)
        return 1
    print(f"dashboard -> {args.html}", file=sys.stderr)
    return 0


def render(result: object, chart: bool = False) -> str:
    """Uniform rendering for tables, sweeps and scalar dicts."""
    if isinstance(result, SweepTable):
        text = result.render()
        if chart:
            text += "\n\n" + result.render_chart()
        return text
    if isinstance(result, dict):
        if not result:
            return "(no results)"
        width = max(len(str(k)) for k in result)
        return "\n".join(f"{k:<{width}} : {v}" for k, v in result.items())
    return str(result)


def to_payload(result: object) -> object:
    """JSON-friendly form of one experiment's result."""
    if isinstance(result, SweepTable):
        return result.to_dict()
    if isinstance(result, dict):
        return result
    to_dict = getattr(result, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    return {"text": str(result)}


def _experiments_main(args) -> int:
    """Run registry entries (or ``validate``/``all``) and render them."""
    obs = None
    if args.trace or args.metrics:
        from repro.obs import Observability

        obs = Observability()

    faults = None
    if args.fault_plan:
        from repro.faults import FaultPlan, FaultSession

        try:
            faults = FaultSession(FaultPlan.parse(args.fault_plan))
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    results: Dict[str, object] = {}
    with contextlib.ExitStack() as stack:
        if obs is not None:
            stack.enter_context(obs.session())
        if faults is not None:
            stack.enter_context(faults.session())
        for name in args.names:
            try:
                results[name] = EXPERIMENTS[name]()
            except ReproError as exc:
                print(f"error: {name}: {exc}", file=sys.stderr)
                return 1

    if faults is not None:
        print(faults.summary(), file=sys.stderr)

    if obs is not None:
        try:
            if args.trace:
                obs.write_trace(args.trace)
                print(f"trace: {obs.total_records} events -> {args.trace}"
                      + (f" ({obs.total_dropped} dropped)"
                         if obs.total_dropped else ""),
                      file=sys.stderr)
            if args.metrics:
                if args.metrics.endswith(".json"):
                    obs.write_metrics(args.metrics)
                else:
                    with open(args.metrics, "w", encoding="utf-8") as fh:
                        fh.write(obs.render_metrics() + "\n")
                print(f"metrics -> {args.metrics}", file=sys.stderr)
        except OSError as exc:
            print(f"error: cannot write observability output: {exc}",
                  file=sys.stderr)
            return 1

    if args.json:
        payload = {name: to_payload(result)
                   for name, result in results.items()}
        json.dump(payload, sys.stdout, indent=2, default=str)
        print()
    else:
        for name, result in results.items():
            print(f"==== {name} ====")
            print(render(result, chart=args.chart))
            print()

    failed = results["validate"].failed if "validate" in results else []
    for check in failed:
        print(f"error: validate: {check}"
              + (f" ({check.detail})" if check.detail else ""),
              file=sys.stderr)
    return 1 if failed else 0


def _options(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """A help-less parent parser: options shared by several subcommands."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def build_parser() -> argparse.ArgumentParser:
    """The ``tca-bench`` grammar: one subcommand per runnable name."""
    parser = argparse.ArgumentParser(
        prog="tca-bench",
        description="Regenerate the paper's tables and figures from the "
                    "TCA/PEACH2 simulation.")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")

    as_json = _options()
    as_json.add_argument("--json", action="store_true",
                         help="emit results as a JSON document on stdout")
    workers = _options()
    workers.add_argument("--engine-workers", type=int, default=None,
                         metavar="N",
                         help="run multi-engine sweeps (fig7, fig9) across "
                              "N fork workers; output stays byte-identical "
                              "to the inline run (default: "
                              "TCA_ENGINE_WORKERS or inline)")
    experiment = _options(as_json, workers)
    experiment.add_argument("--chart", action="store_true",
                            help="also render sweeps as ASCII charts")
    experiment.add_argument("--trace", metavar="PATH", default=None,
                            help="write a Perfetto trace-event JSON file")
    experiment.add_argument("--metrics", metavar="PATH", default=None,
                            help="write collected metrics (JSON; text for "
                                 "paths not ending in .json)")
    experiment.add_argument("--fault-plan", metavar="PLAN", default=None,
                            help="arm a fault-injection plan on every "
                                 "engine: a preset (none, flaky-links, "
                                 "lost-irq, chaos), optionally NAME:SEED, "
                                 "or a JSON plan file "
                                 "(see docs/robustness.md)")
    runnable = [(name, f"{spec.eid}: {spec.title}")
                for name, spec in REGISTRY.items()]
    runnable += [("validate", "check the latency, fig7 and fig9 anchors "
                              "on smoke runs"),
                 ("all", "every experiment, then validate and perf")]
    for name, text in runnable:
        sub = commands.add_parser(name, parents=[experiment], help=text)
        sub.set_defaults(run=_experiments_main,
                         names=list(EXPERIMENTS) if name == "all"
                         else [name])

    suite = commands.add_parser(
        "suite", parents=[as_json, workers],
        help="run the registry and check every paper anchor "
             "(see docs/experiments.md)")
    suite.set_defaults(run=_suite_main)
    suite.add_argument("--shards", type=int, default=1, metavar="N",
                       help="number of worker processes (default 1)")
    modes = suite.add_mutually_exclusive_group()
    modes.add_argument("--smoke", action="store_true",
                       help="reduced sweeps that keep every anchor point")
    modes.add_argument("--tiny", action="store_true",
                       help="minimal sweeps (determinism testing; most "
                            "anchors are skipped)")
    suite.add_argument("--cache-dir", metavar="PATH", default=None,
                       help="result-cache directory (default "
                            "$TCA_BENCH_CACHE_DIR or .tca-bench-cache)")
    suite.add_argument("--no-cache", action="store_true",
                       help="disable the result cache entirely")
    suite.add_argument("--force", action="store_true",
                       help="ignore cache hits but still store results")
    suite.add_argument("--seed", type=int, default=0,
                       help="suite seed, folded into every entry seed "
                            "and cache key (default 0)")
    suite.add_argument("--report", metavar="PATH", default=None,
                       help="write the tca-bench-suite/1 conformance "
                            "report JSON to PATH")
    suite.add_argument("--render-md", metavar="PATH", nargs="?",
                       const="EXPERIMENTS.md", default=None,
                       help="regenerate the marked tables of EXPERIMENTS.md"
                            " (or PATH) from the live results")
    suite.add_argument("--trace-out", metavar="PATH", default=None,
                       help="write a wall-clock Perfetto trace of the "
                            "suite run itself (worker timelines, cache "
                            "latencies)")
    suite.add_argument("--journal-dir", metavar="PATH", default=None,
                       help="crash-safe run-journal directory (default "
                            ".tca-bench-journal)")
    journal = suite.add_mutually_exclusive_group()
    journal.add_argument("--no-journal", action="store_true",
                         help="disable the run journal (and --resume)")
    journal.add_argument("--resume", metavar="RUN_ID", default=None,
                         help="resume a journalled run: restore its "
                              "finished payloads and re-execute only the "
                              "unfinished entries")

    gate = _options()
    gate.add_argument("--baseline", metavar="PATH",
                      default="BENCH_PR9.json",
                      help="committed tca-bench-perf/1 baseline to gate "
                           "against (default BENCH_PR9.json)")
    gate.add_argument("--threshold", type=float, default=None,
                      metavar="FRAC",
                      help="allowed bare events/s regression "
                           "(default 0.15)")
    gate.add_argument("--overhead-budget", type=float, default=None,
                      metavar="RATIO",
                      help="maximum instrumented/bare overhead ratio "
                           "(default 3.0)")
    gate.add_argument("--history", metavar="PATH", default=None,
                      help="perf-history JSONL: 'perf' appends this run; "
                           "'report' plots the trend")

    perf = commands.add_parser(
        "perf", parents=[as_json, gate],
        help="time the simulator itself, bare and instrumented "
             "(see docs/performance.md)")
    perf.set_defaults(run=_perf_main)
    perf.add_argument("--profile", action="store_true",
                      help="sample host CPU time per experiment and "
                           "print its layer shares and top hotspots")
    perf.add_argument("--check", action="store_true",
                      help="gate this run against --baseline; exit "
                           "nonzero on regression")
    perf.add_argument("--events-floor", type=float, default=None,
                      metavar="N",
                      help="with --check: absolute floor on the run's "
                           "overall bare events/s (catches slow erosion "
                           "the relative gate cannot)")
    perf.add_argument("--perf-experiments", metavar="NAMES", default=None,
                      help="comma-separated subset of the perf "
                           "experiments (tiny CI budgets)")
    perf.add_argument("--bench-json", metavar="PATH", default=None,
                      help="write the wall-clock benchmark document to "
                           "PATH")

    report = commands.add_parser(
        "report", parents=[gate],
        help="render the self-contained perf dashboard")
    report.set_defaults(run=_report_main)
    report.add_argument("--html", metavar="PATH", required=True,
                        help="write the self-contained dashboard HTML to "
                             "PATH")
    report.add_argument("--perf-json", metavar="PATH", default=None,
                        help="latest tca-bench-perf/1 document (overhead "
                             "ratios; gated against --baseline when that "
                             "file exists)")
    report.add_argument("--suite-report", metavar="PATH", default=None,
                        help="tca-bench-suite/1 report JSON (anchor "
                             "pass/fail)")
    report.add_argument("--profile-json", metavar="PATH", default=None,
                        help="profile document from "
                             "'perf --profile --json' (hotspots)")
    return parser


def command_names(parser: argparse.ArgumentParser) -> List[str]:
    """Every subcommand of ``parser``, in ``--list`` order."""
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    return list(sub.choices)


def main(argv=None) -> int:
    """CLI entry point; usage errors return 2 instead of raising."""
    parser = build_parser()
    names = command_names(parser)
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and not argv[0].startswith("-") and argv[0] not in names:
        print(f"unknown experiment {argv[0]!r}; use --list",
              file=sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage error (2) or --help (0)
        return exc.code

    if args.list or args.command is None:
        print("available experiments:")
        for name in names:
            print(f"  {name}")
        return 0

    if getattr(args, "engine_workers", None) is not None:
        from repro.sim.executor import set_default_workers

        try:
            set_default_workers(args.engine_workers)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return args.run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
