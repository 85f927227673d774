"""Perf history store, the regression gate, and the HTML dashboard."""

import json

import pytest

from repro.bench.cli import main
from repro.bench.history import (DEFAULT_OVERHEAD_BUDGET, DEFAULT_THRESHOLD,
                                 HISTORY_SCHEMA, append_run,
                                 check_against_baseline, experiment_stats,
                                 load_history, render_dashboard,
                                 validate_perf_doc, validate_profile_doc)


def profile_doc():
    """A minimal but schema-complete tca-bench-profile/2 report."""
    return {
        "schema": "tca-bench-profile/2", "label": "fig9", "samples": 40,
        "attributed_fraction": 1.0, "layers": {"sim": 0.75, "pcie": 0.25},
        "hotspots": [{"layer": "sim", "samples": 30, "share": 0.75,
                      "site": "repro.sim.core.Process._step"}],
    }


def perf_doc(bare_eps=100_000.0, overhead=2.0, name="fig9"):
    """A minimal but schema-complete tca-bench-perf/1 document."""
    bare_wall = 10.0
    events = int(bare_eps * bare_wall)
    return {
        "schema": "tca-bench-perf/1",
        "unix_time": 1_700_000_000.0,
        "python": "3.11.7",
        "platform": "test",
        "results": [
            {"experiment": name, "mode": "bare", "wall_s": bare_wall,
             "events": events, "engines": 2, "events_per_s": bare_eps},
            {"experiment": name, "mode": "instrumented",
             "wall_s": bare_wall * overhead, "events": events,
             "engines": 2, "events_per_s": bare_eps / overhead},
        ],
        "totals": {"wall_s": bare_wall * (1 + overhead), "events": 2 * events,
                   "events_per_s": bare_eps, "overhead_ratio": overhead},
    }


class TestHistory:
    def test_append_and_load_round_trip(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        assert load_history(path) == []
        entry = append_run(path, perf_doc(), label="pr6")
        append_run(path, perf_doc(bare_eps=90_000.0))
        loaded = load_history(path)
        assert len(loaded) == 2
        assert loaded[0] == entry
        assert loaded[0]["schema"] == HISTORY_SCHEMA
        assert loaded[0]["label"] == "pr6"
        assert loaded[0]["experiments"]["fig9"]["overhead_ratio"] == 2.0

    def test_history_lines_are_compact_jsonl(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        append_run(path, perf_doc())
        (line,) = (tmp_path / "history.jsonl").read_text().splitlines()
        assert "\n" not in line and ": " not in line  # one compact line
        assert json.loads(line)["totals"]["overhead_ratio"] == 2.0

    def test_experiment_stats(self):
        stats = experiment_stats(perf_doc(bare_eps=50_000.0, overhead=1.5))
        assert stats["fig9"]["bare_events_per_s"] == 50_000.0
        assert stats["fig9"]["overhead_ratio"] == 1.5


class TestGate:
    def test_identical_run_passes(self):
        doc = perf_doc()
        gate = check_against_baseline(doc, doc)
        assert gate.ok
        assert {c.metric for c in gate.checks} == {"events_per_s",
                                                   "overhead_ratio"}

    def test_regression_beyond_threshold_fails(self):
        baseline = perf_doc(bare_eps=100_000.0)
        slow = perf_doc(bare_eps=100_000.0 * (1 - DEFAULT_THRESHOLD) - 1)
        gate = check_against_baseline(slow, baseline)
        assert not gate.ok
        (failure,) = gate.failures
        assert failure.metric == "events_per_s"

    def test_regression_within_threshold_passes(self):
        baseline = perf_doc(bare_eps=100_000.0)
        ok_run = perf_doc(bare_eps=90_000.0)  # -10% < 15% threshold
        assert check_against_baseline(ok_run, baseline).ok

    def test_overhead_over_budget_fails(self):
        doc = perf_doc(overhead=DEFAULT_OVERHEAD_BUDGET + 0.5)
        gate = check_against_baseline(doc, perf_doc())
        assert not gate.ok
        (failure,) = gate.failures
        assert failure.metric == "overhead_ratio"

    def test_empty_intersection_fails_loudly(self):
        gate = check_against_baseline(perf_doc(name="fig9"),
                                      perf_doc(name="fig7"))
        assert not gate.ok
        (failure,) = gate.failures
        assert failure.metric == "coverage"

    def test_subset_run_gates_against_full_baseline(self):
        baseline = perf_doc(name="fig9")
        baseline["results"] += perf_doc(name="fig7")["results"]
        gate = check_against_baseline(perf_doc(name="fig9"), baseline)
        assert gate.ok  # fig7 missing from the run is fine

    def test_events_floor_pass_and_fail(self):
        doc = perf_doc(bare_eps=100_000.0)
        ok = check_against_baseline(doc, doc, events_floor=50_000.0)
        assert ok.ok
        assert any(c.metric == "events_floor" for c in ok.checks)
        bad = check_against_baseline(doc, doc, events_floor=200_000.0)
        assert not bad.ok
        (failure,) = bad.failures
        assert failure.metric == "events_floor"
        assert failure.experiment == "(overall)"

    def test_events_floor_absent_by_default(self):
        gate = check_against_baseline(perf_doc(), perf_doc())
        assert not any(c.metric == "events_floor" for c in gate.checks)

    def test_gate_dict_and_render(self):
        gate = check_against_baseline(perf_doc(), perf_doc(),
                                      baseline_name="BENCH_PR6.json")
        doc = gate.to_dict()
        assert doc["schema"] == "tca-bench-gate/1"
        assert doc["ok"] is True
        text = gate.render()
        assert "BENCH_PR6.json" in text
        assert text.endswith("gate: PASS (0 of 2 checks failed)")


class TestCLIGate:
    """The acceptance criterion: ``perf --check`` exits nonzero on an
    injected regression."""

    @pytest.fixture
    def tiny_perf(self, monkeypatch):
        from repro.bench import perf as perf_mod
        from repro.bench.loopback import LoopbackRig

        def tiny_experiment():
            LoopbackRig().pio_commit_latency_ns()

        monkeypatch.setattr(perf_mod, "PERF_EXPERIMENTS",
                            {"tiny": tiny_experiment})

    def test_check_fails_on_injected_regression(self, tiny_perf, tmp_path,
                                                capsys):
        baseline = tmp_path / "baseline.json"
        doc = perf_doc(name="tiny", bare_eps=1e12)  # impossibly fast
        baseline.write_text(json.dumps(doc))
        rc = main(["perf", "--check", "--baseline", str(baseline)])
        assert rc == 1
        assert "gate: FAIL" in capsys.readouterr().out

    def test_check_passes_against_slow_baseline(self, tiny_perf, tmp_path,
                                                capsys):
        baseline = tmp_path / "baseline.json"
        doc = perf_doc(name="tiny", bare_eps=0.001, overhead=1.0)
        baseline.write_text(json.dumps(doc))
        rc = main(["perf", "--check", "--baseline", str(baseline),
                   "--overhead-budget", "1000"])
        assert rc == 0
        assert "gate: PASS" in capsys.readouterr().out

    def test_missing_baseline_exits_2(self, tiny_perf, tmp_path, capsys):
        rc = main(["perf", "--check",
                   "--baseline", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_unknown_perf_experiment_exits_2(self, capsys):
        rc = main(["perf", "--perf-experiments", "nosuch"])
        assert rc == 2
        assert "unknown perf experiment" in capsys.readouterr().err

    def test_history_appended_via_cli(self, tiny_perf, tmp_path):
        history = tmp_path / "history.jsonl"
        assert main(["perf", "--history", str(history)]) == 0
        assert main(["perf", "--history", str(history)]) == 0
        assert len(load_history(str(history))) == 2

    def test_json_includes_gate_document(self, tiny_perf, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(perf_doc(name="tiny",
                                                bare_eps=0.001,
                                                overhead=1.0)))
        rc = main(["perf", "--check", "--baseline", str(baseline),
                   "--overhead-budget", "1000", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gate"]["schema"] == "tca-bench-gate/1"
        assert payload["perf"]["schema"] == "tca-bench-perf/1"


class TestDashboard:
    def _history(self, n=3):
        return [json.loads(json.dumps({
            "schema": HISTORY_SCHEMA, "unix_time": 1_700_000_000.0 + i,
            "label": f"run{i}", "python": "3.11.7",
            "totals": {"events_per_s": 100_000.0 + i * 1000},
            "experiments": {"fig9": {"bare_events_per_s": 100_000.0 + i,
                                     "overhead_ratio": 2.0}},
        })) for i in range(n)]

    def test_dashboard_is_self_contained(self):
        page = render_dashboard(history=self._history(),
                                perf_doc=perf_doc(),
                                gate=check_against_baseline(perf_doc(),
                                                            perf_doc()))
        assert page.startswith("<!doctype html>")
        assert "<script" not in page
        assert "http://" not in page and "https://" not in page
        assert "<svg" in page  # the trend chart rendered
        assert "light-dark(" in page  # dark mode is selected, not flipped

    def test_dashboard_sections_follow_inputs(self):
        bare = render_dashboard()
        assert "Throughput trend" not in bare
        assert "Gate checks" not in bare
        suite_doc = {"summary": {"anchors_pass": 5, "anchors_fail": 0},
                     "anchors": [{"name": "a", "section": "§V",
                                  "paper": 1.0, "measured": 1.0,
                                  "status": "pass"}]}
        profiles = {"fig9": profile_doc()}
        full = render_dashboard(history=self._history(),
                                perf_doc=perf_doc(),
                                gate=check_against_baseline(perf_doc(),
                                                            perf_doc()),
                                suite_doc=suite_doc, profiles=profiles)
        for section in ("Anchors", "Throughput trend", "Recorded runs",
                        "Observability overhead", "Gate checks",
                        "Top hotspots"):
            assert section in full, section

    def test_single_run_history_skips_trend(self):
        page = render_dashboard(history=self._history(1))
        assert "Throughput trend" not in page
        assert "Recorded runs" in page

    def test_status_color_always_paired_with_text(self):
        gate = check_against_baseline(perf_doc(bare_eps=1.0),
                                      perf_doc(bare_eps=1e9))
        page = render_dashboard(perf_doc=perf_doc(bare_eps=1.0), gate=gate)
        assert "FAIL" in page  # never color alone

    def test_report_cli_writes_dashboard(self, tmp_path, capsys):
        out = tmp_path / "dash.html"
        perf_path = tmp_path / "perf.json"
        perf_path.write_text(json.dumps(perf_doc()))
        rc = main(["report", "--html", str(out),
                   "--perf-json", str(perf_path),
                   "--baseline", str(tmp_path / "absent.json")])
        assert rc == 0
        assert "dashboard ->" in capsys.readouterr().err
        assert out.read_text().startswith("<!doctype html>")

    def test_report_cli_requires_html(self, capsys):
        assert main(["report"]) == 2
        assert "--html" in capsys.readouterr().err


class TestValidatePerfDoc:
    """Malformed perf/baseline documents get one-line errors, not KeyErrors."""

    def test_valid_document_passes(self):
        assert validate_perf_doc(perf_doc()) is None

    def test_non_object_rejected(self):
        assert "not a JSON object" in validate_perf_doc([1, 2, 3])
        assert "not a JSON object" in validate_perf_doc("text")

    def test_wrong_schema_rejected(self):
        doc = perf_doc()
        doc["schema"] = "tca-bench-perf/999"
        problem = validate_perf_doc(doc, "baseline 'b.json'")
        assert "tca-bench-perf/999" in problem
        assert "baseline 'b.json'" in problem
        assert "regenerate" in problem

    def test_missing_results_rejected(self):
        doc = perf_doc()
        doc["results"] = []
        assert "no 'results' rows" in validate_perf_doc(doc)
        del doc["results"]
        assert "no 'results' rows" in validate_perf_doc(doc)

    def test_incomplete_row_rejected(self):
        doc = perf_doc()
        del doc["results"][1]["events_per_s"]
        del doc["results"][1]["wall_s"]
        problem = validate_perf_doc(doc)
        assert "results[1]" in problem
        assert "wall_s" in problem and "events_per_s" in problem

    def test_perf_check_rejects_malformed_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"schema": "something-else/1"}))
        rc = main(["perf", "--check", "--baseline", str(baseline)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "regenerate" in err
        assert "Traceback" not in err

    def test_report_rejects_malformed_perf_json(self, tmp_path, capsys):
        bad = tmp_path / "perf.json"
        bad.write_text(json.dumps({"results": "not-a-list"}))
        rc = main(["report", "--html", str(tmp_path / "d.html"),
                   "--perf-json", str(bad)])
        assert rc == 2
        assert "regenerate" in capsys.readouterr().err


class TestValidateProfileDoc:
    """Malformed profile documents get one-line errors, not KeyErrors."""

    def test_valid_document_passes(self):
        assert validate_profile_doc({"fig9": profile_doc()}) is None

    def test_v1_document_rejected(self):
        doc = {"fig9": {"schema": "tca-bench-profile/1", "hotspots": [
            {"component": "flow", "kind": "process", "calls": 10,
             "wall_ns": 5_000_000, "site": "x"}]}}
        problem = validate_profile_doc(doc)
        assert "'tca-bench-profile/1'" in problem and "regenerate" in problem

    def test_truncated_hotspot_rejected(self):
        doc = profile_doc()
        doc["hotspots"] = [{}]
        problem = validate_profile_doc({"fig9": doc})
        assert "hotspots[0]" in problem and "site" in problem

    @pytest.mark.parametrize("doc", [
        {"fig7": {"schema": "tca-bench-profile/1", "window_ns": 1,
                  "hotspots": [{"component": "flow", "wall_ns": 1}]}},
        {"fig7": {"hotspots": [{}]}},
        {"fig7": dict(profile_doc(), hotspots=[{}])},
        {"fig7": dict(profile_doc(), layers={"sim": "most"})},
        {"fig7": dict(profile_doc(), samples=None)},
        [profile_doc()],
        "text",
        {},
    ], ids=["v1", "no-schema", "truncated-hotspot", "bad-share", "no-samples",
            "list", "string", "empty"])
    def test_report_rejects_malformed_profile_json(self, tmp_path, capsys,
                                                   doc):
        bad = tmp_path / "profile.json"
        bad.write_text(json.dumps(doc))
        rc = main(["report", "--html", str(tmp_path / "d.html"),
                   "--profile-json", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "regenerate" in err
        assert "Traceback" not in err
        assert not (tmp_path / "d.html").exists()

    def test_report_accepts_perf_profile_json_output(self, tmp_path):
        good = tmp_path / "profile.json"
        good.write_text(json.dumps({"profile": {"fig9": profile_doc()}}))
        out = tmp_path / "d.html"
        rc = main(["report", "--html", str(out),
                   "--profile-json", str(good)])
        assert rc == 0
        page = out.read_text()
        assert "Top hotspots" in page and "sim 75.0%" in page
        assert "repro.sim.core.Process._step" in page
