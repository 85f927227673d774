"""Self-tests of the benchmark's own checks.

Run from the repository root: ``python3 -m pytest perfbench -q``.  They
drive ``run.py`` on the cheapest workload (``suite-tiny``) as the
benchmark is run, in subprocesses, and take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"


def run_bench(*extra, cwd=ROOT, script=HERE / "run.py"):
    done = subprocess.run(
        [sys.executable, str(script), "--workload", "suite-tiny",
         "--seed", "7", "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return done, result


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def untraced():
    return run_bench("--trace", "0")


@pytest.fixture(scope="module")
def traced():
    done, result = run_bench("--trace", "1")
    record = json.loads((OUT / "suite-tiny-seed7-trace1.json").read_text())
    return done, result, record


def test_reference_run_is_correct(untraced, traced):
    for done, result in (untraced, traced[:2]):
        assert done.returncode == 0, done.stdout + done.stderr
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] > 0


def test_corrupted_digest_fails_the_point_and_the_exit_status(tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())
    reference["payload_sha256"]["theory:tiny"] = "0" * 64
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(reference))
    done, result = run_bench("--trace", "0", "--reference", str(corrupted))
    assert done.returncode != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert "theory:tiny: payload sha256" in done.stdout


def test_every_metric_is_declared_with_its_unit(declared, untraced, traced):
    for section, (_, result) in (("end_to_end", untraced),
                                 ("per_layer", traced[:2])):
        expected = {m["name"]: m["unit"] for m in declared[section]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == expected, section
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], (int, float))


def test_traced_self_times_fit_in_wall_time(traced):
    _, result, record = traced
    for proc in record["processes"]:
        total = sum(proc["layer_self_s"].values())
        assert 0 < total <= proc["window_s"], proc["pid"]
    # The suite's worker pool ran every entry: their events are counted.
    assert result["metrics"]["sim.events"]["value"] > 0
    assert result["metrics"]["bench.cache_misses"]["value"] == 24


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done, result = run_bench("--trace", "0", cwd=tmp_path,
                             script=tmp_path / HERE.name / "run.py")
    assert done.returncode != 0
    assert result is None
