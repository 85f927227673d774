"""tca-bench CLI: --json, --trace/--metrics export, and exit codes."""

import json

import pytest

from repro.bench.cli import main, to_payload
from repro.bench.series import SweepTable


def test_unknown_experiment_exits_2(capsys):
    assert main(["nosuch"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_list_exits_0(capsys):
    assert main(["--list"]) == 0
    assert "latency" in capsys.readouterr().out


def test_json_output_parses(capsys):
    assert main(["theory", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "theory" in payload
    assert payload["theory"]["eq1_peak_gbytes"] == pytest.approx(3.657, abs=1e-3)


def test_trace_and_metrics_files(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    assert main(["latency", "--trace", str(trace_path),
                 "--metrics", str(metrics_path)]) == 0

    trace = json.loads(trace_path.read_text())
    assert trace["traceEvents"]
    # The latency-attribution track must sum to the reported 782 ns.
    spans = [e for e in trace["traceEvents"]
             if e["ph"] == "X" and "dur_ns" in e.get("args", {})]
    by_pid = {}
    for span in spans:
        by_pid.setdefault(span["pid"], 0.0)
        by_pid[span["pid"]] += span["args"]["dur_ns"]
    assert any(total == pytest.approx(782.0, abs=0.01)
               for total in by_pid.values())

    metrics = json.loads(metrics_path.read_text())
    assert metrics["engines"]

    err = capsys.readouterr().err
    assert "trace:" in err and "metrics ->" in err


@pytest.mark.parametrize("argv", [
    ["theory", "--shards", "2"],      # suite option on an experiment
    ["suite", "--smoke", "--tiny"],   # mutually exclusive modes
    ["report"],                       # --html is required
    ["fig7", "--html", "x"],          # report option on an experiment
])
def test_options_are_scoped_per_command(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_unwritable_trace_path_exits_1(capsys):
    assert main(["theory", "--trace", "/nonexistent-dir/x.json"]) == 1
    assert "cannot write" in capsys.readouterr().err


def test_metrics_text_format(tmp_path):
    out = tmp_path / "metrics.txt"
    assert main(["latency", "--metrics", str(out)]) == 0
    assert "[counter]" in out.read_text()


def test_sweep_table_payload():
    table = SweepTable("t", x_label="size", y_label="GB/s")
    table.add("write", 64, 1.5)
    payload = to_payload(table)
    assert payload["series"]["write"] == [[64, 1.5]]
    assert to_payload("text") == {"text": "text"}
