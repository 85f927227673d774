#!/usr/bin/env python3
"""Regenerate ``reference.json`` from the checked-out code.

Run from the root of a checkout, only when the model is meant to change
what it computes::

    python3 perfbench/record_reference.py

It records the sha256 of every workload point's canonical payload for
seeds 0 and 1 and refuses to write unless both seeds agree, then runs
each workload traced once and records its simulated-work counts and the
events of each point.  Takes a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from run import OUT, REFERENCE, SIMULATED_WORK  # noqa: E402
from workloads import WORKLOAD_NAMES, digest, workload  # noqa: E402

NOTE = ("Digests are of repro.bench.suite.payload_json for each point. "
        "Payloads do not depend on the seed: record_reference.py ran every "
        "point with seeds 0 and 1 and wrote this file only because both "
        "gave the same digest. sim_events for fig7:full and fig9:full "
        "match BENCH_PR9.json (1074355 and 1001700).")


def main() -> int:
    from repro.bench.suite import run_entry

    points = sorted({(name, workload(w).mode) for w in WORKLOAD_NAMES
                     for name in workload(w).entries})
    digests = {}
    for name, mode in points:
        seen = {digest(run_entry(name, mode, seed)[0]) for seed in (0, 1)}
        if len(seen) != 1:
            print(f"{name}:{mode}: payload depends on the seed",
                  file=sys.stderr)
            return 1
        digests[f"{name}:{mode}"] = seen.pop()
        print(f"{name}:{mode} {digests[f'{name}:{mode}']}", flush=True)

    reference = {"note": NOTE, "payload_sha256": digests,
                 "simulated_work": {}, "sim_events": {}}
    draft = OUT / "reference-draft.json"
    OUT.mkdir(exist_ok=True)
    draft.write_text(json.dumps(reference))
    for name in WORKLOAD_NAMES:
        subprocess.run([sys.executable, str(HERE / "run.py"),
                        "--workload", name, "--seed", "0", "--seconds", "1",
                        "--trace", "1", "--reference", str(draft)],
                       check=False, timeout=900)
        record = json.loads((OUT / f"{name}-seed0-trace1.json").read_text())
        others = [f for f in record["failures"]
                  if not f.startswith("simulated work")]
        if others:
            print(f"{name}: {others}", file=sys.stderr)
            return 1
        metrics = record["metrics"]
        reference["simulated_work"][name] = {
            key: metrics[key]["value"] for key in SIMULATED_WORK}
        for label, (_, events) in record["entry_events"].items():
            reference["sim_events"][label] = events
    draft.unlink()
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                         + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
