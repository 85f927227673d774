"""The wall-clock perf harness and its CLI wiring."""

import json

import pytest

from repro.bench.cli import main, render, to_payload
from repro.bench.perf import (PERF_EXPERIMENTS, PerfReport, PerfSample,
                              run_perf)
from repro.sim.core import Engine


def tiny_experiment():
    """A milliseconds-scale stand-in for a real sweep: two engines."""
    for _ in range(2):
        engine = Engine()

        def worker():
            for _step in range(50):
                yield 100

        engine.process(worker())
        engine.run()


@pytest.fixture
def tiny_perf(monkeypatch):
    monkeypatch.setattr("repro.bench.perf.PERF_EXPERIMENTS",
                        {"tiny": tiny_experiment})


class TestRender:
    def test_empty_dict_renders_instead_of_crashing(self):
        # Regression: max() over an empty dict's keys raised ValueError,
        # so any experiment with nothing to report crashed the CLI.
        assert render({}) == "(no results)"

    def test_scalar_renders_as_string(self):
        assert render(3.25) == "3.25"
        assert render("plain text") == "plain text"

    def test_nonempty_dict_still_aligned(self):
        assert "a : 1" in render({"a": 1})


class TestPerfReport:
    def _report(self):
        return PerfReport(samples=[
            PerfSample("fig7", "bare", 2.0, 1_000_000, 28),
            PerfSample("fig7", "instrumented", 4.0, 1_000_000, 28),
        ], unix_time=123.0)

    def test_events_per_s(self):
        sample = PerfSample("x", "bare", 2.0, 1_000_000, 1)
        assert sample.events_per_s == pytest.approx(500_000.0)
        assert PerfSample("x", "bare", 0.0, 5, 1).events_per_s == 0.0

    def test_overhead_ratio(self):
        report = self._report()
        assert report.overhead("fig7") == pytest.approx(2.0)
        assert report.overhead("nope") is None

    def test_to_dict_schema(self):
        doc = self._report().to_dict()
        assert doc["schema"] == "tca-bench-perf/1"
        assert doc["totals"]["events"] == 2_000_000
        assert doc["totals"]["wall_s"] == pytest.approx(6.0)
        assert len(doc["results"]) == 2
        first = doc["results"][0]
        assert set(first) == {"experiment", "mode", "wall_s", "events",
                              "engines", "events_per_s"}

    def test_str_renders_table_and_overhead(self):
        text = str(self._report())
        assert "fig7" in text and "instrumented" in text
        assert "observability overhead" in text and "x2.00" in text

    def test_to_payload_uses_to_dict(self):
        payload = to_payload(self._report())
        assert payload["schema"] == "tca-bench-perf/1"


class TestRunPerf:
    def test_default_experiments_are_registered(self):
        assert set(PERF_EXPERIMENTS) == {"fig7", "fig9", "comparison-gpu",
                                         "contention"}

    def test_times_bare_and_instrumented(self, tiny_perf):
        report = run_perf()
        assert [s.mode for s in report.samples] == ["bare", "instrumented"]
        for sample in report.samples:
            assert sample.experiment == "tiny"
            assert sample.engines == 2
            # 50 delays + 1 bootstrap call_soon, per engine.
            assert sample.events == 102
            assert sample.wall_s > 0
        # Instrumentation never changes the event schedule.
        assert report.samples[0].events == report.samples[1].events

    def test_unknown_name_fails_loudly(self, tiny_perf):
        with pytest.raises(KeyError):
            run_perf(names=["typo"])


class TestPerfCLI:
    def test_perf_writes_bench_json(self, tiny_perf, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["perf", "--bench-json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "tca-bench-perf/1"
        assert doc["results"][0]["experiment"] == "tiny"
        assert capsys.readouterr().out.count("tiny") >= 2

    def test_bench_json_requires_perf_experiment(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["theory", "--bench-json", str(out)]) == 2
        assert ("unrecognized arguments: --bench-json"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_perf_json_payload(self, tiny_perf, capsys):
        assert main(["perf", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["perf"]["schema"] == "tca-bench-perf/1"


class TestOverheadTotals:
    def _report(self, experiments=("fig7", "fig9")):
        samples = []
        for i, name in enumerate(experiments):
            samples.append(PerfSample(name, "bare", 1.0 + i, 1_000_000, 4))
            samples.append(PerfSample(name, "instrumented", 2.0 + 2 * i,
                                      1_000_000, 4))
        return PerfReport(samples=samples, unix_time=123.0)

    def test_overall_overhead_is_wall_weighted(self):
        report = self._report()
        # (2.0 + 4.0) instrumented over (1.0 + 2.0) bare.
        assert report.overall_overhead() == pytest.approx(2.0)

    def test_totals_carry_overhead_ratio(self):
        doc = self._report().to_dict()
        assert doc["totals"]["overhead_ratio"] == pytest.approx(2.0)
        # Per-row schema is unchanged: overhead lives only in totals.
        for row in doc["results"]:
            assert "overhead_ratio" not in row

    def test_totals_omit_overhead_when_uncomputable(self):
        report = PerfReport(samples=[
            PerfSample("fig7", "bare", 2.0, 1_000_000, 4)])
        assert report.overall_overhead() is None
        assert "overhead_ratio" not in report.to_dict()["totals"]

    def test_table_has_overhead_column(self):
        text = str(self._report(experiments=("fig7",)))
        header, _, bare_row, inst_row = text.splitlines()[:4]
        assert "overhead" in header
        assert "x2.00" in inst_row
        assert "x" not in bare_row  # bare rows leave the column blank
