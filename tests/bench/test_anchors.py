"""Tier-1 anchor regressions: the headline paper numbers stay pinned.

These re-measure the E3/E4/E7/E8 canonical anchors against the
machine-checked table in :mod:`repro.model.anchors`, so a calibration
regression fails the fast unit suite — not just the nightly
``tca-bench suite``.  Only the anchor cells are measured (reduced
sweeps), which keeps this affordable for tier-1.  ``tca-bench validate``
checks the same table, and must fail when any of its anchors does.
"""

import json
from dataclasses import replace

import pytest

from repro.bench import experiments
from repro.bench.cli import main
from repro.bench.experiments import REGISTRY
from repro.model.anchors import (ANCHORS, Anchor, anchor, anchors_for,
                                 calibration_fingerprint)
from repro.units import KiB

K4 = 4 * KiB

#: Smoke-shaped payloads of the three entries ``validate`` runs, meeting
#: every anchor that reads them: a failing case needs no simulation.
CANNED = {
    "latency": {"pio_one_way_ns": 782.0, "pio_polled_ns": 800.0},
    "fig7": {"series": {"CPU (write)": [[256, 1.0], [K4, 3.27]],
                        "CPU (read)": [[256, 0.67], [K4, 3.2373]],
                        "GPU (write)": [[K4, 3.27]],
                        "GPU (read)": [[K4, 0.829]]}},
    "fig9": {"series": {"CPU (write)": [[2, 1.57], [4, 2.1255],
                                        [255, 3.27]]}},
}


def assert_all_pass(experiment: str, payload) -> None:
    checks = [a.check(payload) for a in anchors_for(experiment)]
    assert checks, f"no anchors read {experiment!r}"
    failed = [str(c) for c in checks if c.status != "pass"]
    assert not failed, "\n".join(failed)


class TestHeadlineAnchors:
    def test_e3_theory(self):
        assert_all_pass("theory", experiments.theory())

    def test_e4_fig7_anchor_cells(self):
        # The smoke sweep keeps exactly the cells the anchors read.
        payload = experiments.fig7(**REGISTRY["fig7"].params_for("smoke"))
        assert_all_pass("fig7", payload.to_dict())

    def test_e7_limits(self):
        assert_all_pass("limits", experiments.limits())

    def test_e8_latency(self):
        assert_all_pass("latency", experiments.latency())


class TestAnchorTable:
    def test_names_unique(self):
        names = [a.name for a in ANCHORS]
        assert len(names) == len(set(names))

    def test_every_anchor_reads_a_registry_entry(self):
        for a in ANCHORS:
            assert a.experiment in REGISTRY, a.name

    def test_every_experiment_id_is_anchored(self):
        anchored = {REGISTRY[a.experiment].eid for a in ANCHORS}
        expected = {spec.eid for spec in REGISTRY.values()}
        assert anchored == expected

    def test_cmp_modes_are_known(self):
        assert {a.cmp for a in ANCHORS} <= {"near", "le", "ge", "truthy"}

    def test_lookup(self):
        assert anchor("latency-pio-one-way").paper == 782.0
        with pytest.raises(KeyError):
            anchor("no-such-anchor")

    def test_check_outcomes(self):
        from repro.model.anchors import scalar

        a = Anchor("t", "latency", "d", lambda p: scalar(p, "v"),
                   100.0, 0.01)
        assert a.check({"v": 100.5}).status == "pass"
        assert a.check({"v": 150.0}).status == "fail"
        skipped = a.check({"other": 1})
        assert skipped.status == "skipped" and skipped.ok

    def test_check_to_dict_roundtrips(self):
        check = anchor("latency-pio-one-way").check({"pio_one_way_ns": 782.0})
        doc = check.to_dict()
        assert doc["status"] == "pass" and doc["paper"] == 782.0
        assert doc["experiment"] == "latency"


class TestCalibrationFingerprint:
    def test_stable_for_same_constants(self):
        assert calibration_fingerprint() == calibration_fingerprint()

    def test_covers_every_field(self):
        from dataclasses import fields, replace

        from repro.model.calibration import CALIB, Calibration

        base = calibration_fingerprint(CALIB)
        for f in fields(Calibration):
            bumped = replace(CALIB, **{f.name: getattr(CALIB, f.name) + 1})
            assert calibration_fingerprint(bumped) != base, f.name


class TestValidateCommand:
    def test_checks_every_latency_fig7_fig9_anchor(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        names = [a.name for e in ("latency", "fig7", "fig9")
                 for a in anchors_for(e)]
        assert len(names) == 10
        for name in names:
            assert f"[ok ] {name}:" in out
        assert "10/10 anchors pass" in out

    @staticmethod
    def canned(monkeypatch, fig9_write):
        """Serve canned payloads, with fig9's CPU-write series replaced."""
        payloads = dict(CANNED, fig9={"series": {"CPU (write)": fig9_write}})
        for name, payload in payloads.items():
            monkeypatch.setitem(REGISTRY, name, replace(
                REGISTRY[name], fn=lambda payload=payload, **_: payload))

    @pytest.mark.parametrize("json_flag", [False, True])
    def test_failing_anchor_fails_the_command(self, monkeypatch, capsys,
                                              json_flag):
        # 4 requests at 1.5 of a 3.27 peak: 46 %, not the paper's 65 %.
        self.canned(monkeypatch, [[2, 1.57], [4, 1.5], [255, 3.27]])
        argv = ["validate"] + (["--json"] if json_flag else [])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines() == [
            "error: validate: [FAIL] fig9-four-request-fraction: "
            "paper=0.65 measured=0.4587"]
        if json_flag:
            doc = json.loads(captured.out)["validate"]
            assert (doc["passed"], doc["total"]) == (9, 10)
            failed = [a for a in doc["anchors"] if a["status"] != "pass"]
            assert [a["name"] for a in failed] == [
                "fig9-four-request-fraction"]
        else:
            assert "9/10 anchors pass" in captured.out

    def test_skipped_anchor_fails_the_command(self, monkeypatch, capsys):
        # A smoke sweep that lost the 4-request point cannot check Fig. 9.
        self.canned(monkeypatch, [[2, 1.57], [255, 3.27]])
        assert main(["validate"]) == 1
        err = capsys.readouterr().err
        assert "[skip] fig9-four-request-fraction" in err
