"""Collective critical-path analysis (§III-D schedule lengths)."""

import json

import numpy as np
import pytest

from repro.collectives import TCACollectives
from repro.collectives.ring import (FLAG_AG, FLAG_BARRIER, FLAG_RS,
                                    ring_barrier)
from repro.hw.node import NodeParams
from repro.obs import Observability
from repro.obs.critpath import (COMPONENTS, CollectiveRecorder, analyze,
                                decode_flag, record_collective,
                                trace_collective)
from repro.sim.trace import Tracer
from repro.tca.subcluster import DUAL_RING, TCASubCluster


def make_cluster(n, topology="ring"):
    return TCASubCluster(n, topology=topology,
                         node_params=NodeParams(num_gpus=1))


def vectors(n, words, seed=11):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 1 << 32, words, dtype=np.uint32)
            for _ in range(n)]


def allreduce_report(n, topology="ring", words=256):
    cluster = make_cluster(n, topology)
    coll = TCACollectives(cluster)
    results, report = trace_collective(
        cluster.engine, lambda: coll.allreduce(vectors(n, words)))
    return results, report


class TestDecodeFlag:
    def test_phases(self):
        assert decode_flag(FLAG_RS) == ("reduce-scatter", 0)
        assert decode_flag(FLAG_RS + 3) == ("reduce-scatter", 3)
        assert decode_flag(FLAG_AG) == ("allgather", 0)
        assert decode_flag(FLAG_BARRIER + 1) == ("barrier", 1)


class TestScheduleLength:
    def test_dual_ring_allreduce_has_n_minus_1_steps(self):
        # The §III-D argument in trace form: the hierarchical dual-ring
        # schedule serializes exactly N-1 steps...
        _, report = allreduce_report(8, DUAL_RING)
        assert report.step_count == 7

    def test_flat_ring_allreduce_has_2n_minus_2_steps(self):
        # ...while the flat ring needs (N-1) reduce-scatter + (N-1)
        # allgather steps.
        _, report = allreduce_report(8, "ring")
        assert report.step_count == 14

    def test_phases_partition_the_flat_schedule(self):
        _, report = allreduce_report(4, "ring")
        phases = [s.phase for s in report.steps]
        assert phases == ["reduce-scatter"] * 3 + ["allgather"] * 3
        assert [s.step for s in report.steps] == [0, 1, 2, 0, 1, 2]

    def test_steps_are_time_ordered_and_decomposed(self):
        _, report = allreduce_report(4, "ring")
        starts = [s.start_ps for s in report.steps]
        assert starts == sorted(starts)
        for step in report.steps:
            assert step.dur_ps > 0
            assert step.dominant in COMPONENTS
            assert step.queue_ps >= 0
            assert step.wire_ps > 0  # every allreduce step moves bytes
            assert step.stall_ps >= 0
            # The critical node has zero slack; every entry non-negative.
            assert step.slack_ps[step.critical_node] == 0
            assert all(v >= 0 for v in step.slack_ps.values())

    def test_results_unchanged_by_recording(self):
        cluster = make_cluster(4)
        expected = TCACollectives(cluster).allreduce(vectors(4, 256))
        traced, _ = allreduce_report(4)
        for a, b in zip(expected, traced):
            assert np.array_equal(a, b)

    def test_barrier_rounds_are_pure_stall(self):
        cluster = make_cluster(4)
        _, report = trace_collective(
            cluster.engine, lambda: ring_barrier(cluster))
        assert report.step_count >= 1
        for step in report.steps:
            assert step.phase == "barrier"
            assert step.queue_ps == step.wire_ps == 0
            assert step.dominant == "flag-stall"


class TestReportShape:
    def test_to_dict_schema_round_trips(self):
        _, report = allreduce_report(4)
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["schema"] == "tca-bench-critpath/1"
        assert doc["step_count"] == len(doc["steps"])
        assert sum(doc["dominant"].values()) == doc["step_count"]
        for step in doc["steps"]:
            assert set(step) == {"phase", "step", "flag", "start_ps",
                                 "dur_ps", "critical_node", "queue_ps",
                                 "wire_ps", "stall_ps", "dominant",
                                 "slack_ps"}

    def test_render_mentions_every_phase(self):
        _, report = allreduce_report(4)
        text = report.render()
        assert "reduce-scatter" in text and "allgather" in text
        assert "serialized steps" in text

    def test_empty_analysis(self):
        report = analyze([])
        assert report.step_count == 0
        assert report.total_ps == 0


class TestRecorder:
    def test_keeps_only_collective_records(self):
        cluster = make_cluster(2)
        with record_collective(cluster.engine) as recorder:
            TCACollectives(cluster).allreduce(vectors(2, 256))
        assert recorder.records
        assert all(r.kind.startswith("coll-") for r in recorder.records)
        assert cluster.engine.tracer is None  # restored

    def test_forwards_to_chained_tracer(self):
        cluster = make_cluster(2)
        full = Tracer(enabled=True, max_records=None)
        cluster.engine.tracer = full
        with record_collective(cluster.engine) as recorder:
            TCACollectives(cluster).allreduce(vectors(2, 256))
        assert cluster.engine.tracer is full
        kinds = {r.kind for r in full.records}
        # The chained tracer sees the collective records AND the
        # underlying fabric's own records.
        assert "coll-put" in kinds
        assert any(not k.startswith("coll-") for k in kinds)
        coll_kinds = {r.kind for r in recorder.records}
        assert coll_kinds <= {"coll-put", "coll-wait"}


class TestRecorderOffTracePath:
    """Recording a collective installs no tracer (E21's schedule)."""

    @staticmethod
    def e21_allreduce(cluster):
        rng = np.random.default_rng(1024)
        vectors = [rng.integers(0, 1 << 32, 256, dtype=np.uint32)
                   for _ in range(8)]
        return TCACollectives(cluster).allreduce(vectors)

    def test_session_report_equals_bare_report(self):
        bare = make_cluster(8, DUAL_RING)
        _, bare_report = trace_collective(
            bare.engine, lambda: self.e21_allreduce(bare))

        obs = Observability()
        with obs.session():
            cluster = make_cluster(8, DUAL_RING)
        with record_collective(cluster.engine) as recorder:
            self.e21_allreduce(cluster)
        assert analyze(recorder.records).to_dict() == bare_report.to_dict()
        assert bare_report.step_count == 7

        session = obs.tracer_for(cluster.engine)
        assert cluster.engine.tracer is session
        coll = [r for r in session.records if r.kind.startswith("coll-")]
        assert coll == recorder.records
        assert {r.kind for r in coll} == {"coll-put", "coll-wait"}
        # Every hardware record still reaches the session tracer, once.
        assert len(session.records) - len(coll) == 5880
        assert session.dropped == 0

    def test_bare_engine_stays_bare(self):
        cluster = make_cluster(4)
        seen = []

        def run():
            seen.append(cluster.engine.tracer)
            result = TCACollectives(cluster).allreduce(vectors(4, 256))
            seen.append(cluster.engine.tracer)
            return result

        _, report = trace_collective(cluster.engine, run)
        assert seen == [None, None]
        assert cluster.engine.recorder is None  # restored
        assert report.step_count == 6
