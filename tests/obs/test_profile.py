"""Host-time layer sampler: classification, timer hygiene, invariance,
report schema."""

import contextlib
import json
import signal
import sys
import time

import pytest

from repro import units
from repro.bench.loopback import LoopbackRig
from repro.obs.profile import SCHEMA, LayerSampler, ProfileReport
from repro.sim.core import Engine, Process

# Python 3.10 has no co_qualname; the sampler then reports co_name.
_STEP = Process._step.__code__
STEP_SITE = "repro.sim.core." + getattr(_STEP, "co_qualname", _STEP.co_name)


def _sample_here(sampler):
    sampler.sample(sys._getframe())


class _RoundProbe:
    """Samples from inside ``round()`` as called by ``repro.units.ps``."""

    def __init__(self, sampler):
        self.sampler = sampler

    def __round__(self):
        _sample_here(self.sampler)
        return 0


def _sampled_in_process(body):
    """Run ``body`` inside an engine process (repro frames below it)."""
    def proc():
        body()
        yield 1

    Engine().run_process(proc(), "probe")


def _burn_cpu(seconds):
    """Loopback runs until ``seconds`` of process CPU time have passed."""
    start = time.process_time()
    while time.process_time() - start < seconds:
        LoopbackRig().pio_commit_latency_ns()


# -- classification on real stacks -------------------------------------------

def test_innermost_repro_frame_sets_layer_and_site():
    sampler = LayerSampler()
    # units.ps (a top-level module) runs inside Process._step (sim):
    # the innermost repro frame wins, and top-level modules are "other".
    _sampled_in_process(lambda: units.ps(_RoundProbe(sampler)))
    assert sampler.sites == {("other", "repro.units.ps"): 1}
    assert sampler.samples == 1


def test_non_repro_frames_are_walked_past():
    sampler = LayerSampler()

    @contextlib.contextmanager
    def probe():
        _sample_here(sampler)
        yield

    def body():
        with probe():  # contextlib's frame sits between probe and repro
            pass

    _sampled_in_process(body)
    assert sampler.sites == {("sim", STEP_SITE): 1}


def test_stack_without_repro_frame_is_unattributed():
    sampler = LayerSampler()
    _sample_here(sampler)
    report = sampler.report()
    assert report.samples == 1
    assert report.attributed == 0
    assert report.attributed_fraction == 0.0
    assert report.layers() == {}


# -- the timer and the handler ------------------------------------------------

def test_disabled_by_default():
    before = signal.getsignal(signal.SIGPROF)
    LayerSampler()
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is before


@pytest.mark.parametrize("raises", [False, True], ids=["clean", "raising"])
def test_exit_restores_previous_handler_and_timer(raises):
    def prior(signum, frame):
        pass

    old_handler = signal.signal(signal.SIGPROF, prior)
    signal.setitimer(signal.ITIMER_PROF, 100.0, 50.0)
    try:
        expected = (pytest.raises(RuntimeError) if raises
                    else contextlib.nullcontext())
        with expected:
            with LayerSampler():
                assert signal.getsignal(signal.SIGPROF) is not prior
                assert signal.getitimer(signal.ITIMER_PROF)[1] < 1.0
                if raises:
                    raise RuntimeError("body failed")
        assert signal.getsignal(signal.SIGPROF) is prior
        value, interval = signal.getitimer(signal.ITIMER_PROF)
        assert interval == pytest.approx(50.0)
        assert value == pytest.approx(100.0, abs=1.0)  # kernel-rounded
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, old_handler)


def test_profiled_run_is_ps_identical():
    bare = LoopbackRig()
    bare_ns = bare.pio_commit_latency_ns()
    with LayerSampler():
        rig = LoopbackRig()
        sampled_ns = rig.pio_commit_latency_ns()
    assert sampled_ns == bare_ns
    assert rig.engine.now_ps == bare.engine.now_ps
    assert rig.engine.events_processed == bare.engine.events_processed


def test_attributes_at_least_95_percent_of_window():
    # 0.3 s of CPU time is ~75 ticks of a 4 ms kernel tick; the count
    # is only required to be nonzero.
    with LayerSampler() as sampler:
        _burn_cpu(0.3)
    report = sampler.report()
    assert report.samples > 0
    assert report.attributed_fraction >= 0.95
    assert sum(report.layers().values()) == pytest.approx(1.0)


# -- the report --------------------------------------------------------------

def _fed_report():
    """Three sim samples, one 'other', one unattributed."""
    sampler = LayerSampler()
    for _ in range(3):
        _sampled_in_process(lambda: _sample_here(sampler))
    units.ps(_RoundProbe(sampler))
    _sample_here(sampler)
    return sampler.report(label="fed")


def test_report_dict_schema_and_render():
    doc = _fed_report().to_dict(top_n=5)
    assert doc["schema"] == SCHEMA == "tca-bench-profile/2"
    assert doc["label"] == "fed"
    assert doc["samples"] == 5
    assert doc["attributed_fraction"] == 0.8
    assert doc["layers"] == {"sim": 0.75, "other": 0.25}
    assert doc["hotspots"] == [
        {"layer": "sim", "site": STEP_SITE, "samples": 3, "share": 0.75},
        {"layer": "other", "site": "repro.units.ps",
         "samples": 1, "share": 0.25},
    ]
    json.loads(json.dumps(doc))  # round-trips
    text = _fed_report().render(top_n=1)
    assert "sim 75.0%" in text and STEP_SITE in text
    assert "repro.units.ps" not in text  # cut by top_n
    assert "5 samples, 80.0% in repro frames" in text


def test_top_is_sorted_by_samples():
    report = ProfileReport(10, {("pcie", "b"): 2, ("sim", "a"): 5,
                                ("hw", "c"): 2, ("obs", "d"): 1})
    assert report.top(3) == [("sim", "a", 5), ("pcie", "b", 2),
                             ("hw", "c", 2)]
    assert list(report.layers()) == ["sim", "pcie", "hw", "obs"]


def test_run_profile_covers_perf_experiments(monkeypatch):
    from repro.bench import perf

    monkeypatch.setattr(perf, "PERF_EXPERIMENTS",
                        {"tiny": lambda: _burn_cpu(0.2)})
    reports = perf.run_profile()
    assert set(reports) == {"tiny"}
    assert isinstance(reports["tiny"], ProfileReport)
    assert reports["tiny"].label == "tiny"
    assert reports["tiny"].samples > 0
    assert reports["tiny"].to_dict()["schema"] == SCHEMA
