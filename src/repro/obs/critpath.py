"""Critical-path analysis of collective schedules (§III-D, §V).

A TCA collective is a schedule of flagged puts: each step ends when the
last receiver observes its completion flag, and the whole collective is
as fast as the chain of those last arrivals.  :func:`analyze` walks the
``coll-put`` / ``coll-wait`` trace records one collective emitted
(:mod:`repro.collectives.ring` decomposes every flagged put into wire
time and channel-queue wait) and rebuilds that chain: one
:class:`StepReport` per flag, naming the critical node, the dominating
component of its step — channel-queue wait, wire time, or the
flag-store ordering stall between payload completion and the poll that
saw it — and every other node's slack.

The serialized step count is itself a paper quantity: a dual-ring
allreduce must show N-1 steps against the flat ring's 2(N-1)
(anchor ``dual-ring-critpath-steps``).

Use :func:`trace_collective` to run a collective under a private
recorder.  The recorder is not a tracer: only the two ``coll-*`` emit
sites feed it, they still forward to any tracer already installed, and
the hardware models never build a record for it — so it composes with
``--trace-out`` / :class:`~repro.obs.session.Observability` and costs
nothing per TLP in a bare run.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from repro.collectives.ring import (FLAG_AG, FLAG_BARRIER, FLAG_BCAST,
                                    FLAG_RS, FLAG_X)
from repro.sim.trace import TraceRecord, Tracer

#: Trace kinds the analyzer consumes (emitted by repro.collectives.ring).
PUT_KIND = "coll-put"
WAIT_KIND = "coll-wait"

#: The three components a step's critical receive decomposes into.
COMPONENTS = ("queue", "wire", "flag-stall")


def decode_flag(flag: int) -> Tuple[str, int]:
    """Map a flag index to its (phase, step) per the ring.py flag plan."""
    if FLAG_RS <= flag < FLAG_AG:
        return "reduce-scatter", flag - FLAG_RS
    if FLAG_AG <= flag < FLAG_X:
        return "allgather", flag - FLAG_AG
    if flag == FLAG_X:
        return "exchange", 0
    if flag == FLAG_BCAST:
        return "broadcast", 0
    if flag >= FLAG_BARRIER:
        return "barrier", flag - FLAG_BARRIER
    return "flag", flag


def _node_of(component: str) -> int:
    """Node id from a ``coll.n<id>`` component label."""
    return int(component.rpartition("n")[2])


@dataclass(frozen=True)
class StepReport:
    """One schedule step: the window between its first put launch and
    the last receiver's flag observation."""

    phase: str
    step: int
    flag: int
    start_ps: int
    end_ps: int
    critical_node: int
    #: Decomposition of the critical node's receive: channel-queue wait
    #: and wire time of the put that fed it, then the ordering stall
    #: between that put completing and the poll observing the flag.
    queue_ps: int
    wire_ps: int
    stall_ps: int
    dominant: str
    #: node -> picoseconds it finished ahead of the critical node.
    slack_ps: Dict[int, int] = field(default_factory=dict)

    @property
    def dur_ps(self) -> int:
        return self.end_ps - self.start_ps

    def to_dict(self) -> Dict[str, Any]:
        return {
            "phase": self.phase,
            "step": self.step,
            "flag": self.flag,
            "start_ps": self.start_ps,
            "dur_ps": self.dur_ps,
            "critical_node": self.critical_node,
            "queue_ps": self.queue_ps,
            "wire_ps": self.wire_ps,
            "stall_ps": self.stall_ps,
            "dominant": self.dominant,
            "slack_ps": {str(k): v
                         for k, v in sorted(self.slack_ps.items())},
        }


class CritPathReport:
    """The serialized dependency chain of one collective."""

    def __init__(self, steps: List[StepReport]):
        self.steps = sorted(steps, key=lambda s: (s.start_ps, s.flag))

    @property
    def step_count(self) -> int:
        """Serialized steps on the critical path (N-1 for dual-ring
        allreduce, 2(N-1) flat — the §III-D schedule argument)."""
        return len(self.steps)

    @property
    def total_ps(self) -> int:
        if not self.steps:
            return 0
        return (max(s.end_ps for s in self.steps)
                - min(s.start_ps for s in self.steps))

    def dominant_counts(self) -> Dict[str, int]:
        """How many steps each component dominated."""
        counts = {name: 0 for name in COMPONENTS}
        for step in self.steps:
            counts[step.dominant] = counts.get(step.dominant, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": "tca-bench-critpath/1",
            "step_count": self.step_count,
            "total_ps": self.total_ps,
            "dominant": self.dominant_counts(),
            "steps": [s.to_dict() for s in self.steps],
        }

    def render(self) -> str:
        """Terminal table, one row per serialized step."""
        header = (f"{'phase':<15} {'step':>4} {'dur_ns':>9} {'crit':>4} "
                  f"{'queue_ns':>9} {'wire_ns':>9} {'stall_ns':>9}  dominant")
        lines = [header, "-" * len(header)]
        for s in self.steps:
            lines.append(
                f"{s.phase:<15} {s.step:>4} {s.dur_ps / 1000:>9.1f} "
                f"{s.critical_node:>4} {s.queue_ps / 1000:>9.1f} "
                f"{s.wire_ps / 1000:>9.1f} {s.stall_ps / 1000:>9.1f}"
                f"  {s.dominant}")
        dom = ", ".join(f"{k} x{v}" for k, v in self.dominant_counts().items()
                        if v)
        lines.append("")
        lines.append(f"{self.step_count} serialized steps, "
                     f"{self.total_ps / 1000:.1f} ns total ({dom})")
        return "\n".join(lines)


def analyze(records: List[TraceRecord]) -> CritPathReport:
    """Rebuild the per-step dependency chain from collective records.

    Both rings of a dual-ring schedule reuse the same step flags
    concurrently, so grouping by flag naturally merges them into one
    serialized step — which is exactly the schedule-length the paper
    counts.
    """
    puts: Dict[int, List[TraceRecord]] = {}
    waits: Dict[int, List[TraceRecord]] = {}
    for record in records:
        if record.kind == PUT_KIND:
            puts.setdefault(record.detail["flag"], []).append(record)
        elif record.kind == WAIT_KIND:
            waits.setdefault(record.detail["flag"], []).append(record)

    steps = []
    for flag in sorted(set(puts) | set(waits)):
        phase, index = decode_flag(flag)
        flag_puts = puts.get(flag, [])
        flag_waits = waits.get(flag, [])
        spans = flag_puts or flag_waits
        start_ps = min(r.start_ps for r in spans)
        finishers = flag_waits or flag_puts
        end_ps = max(r.time_ps for r in finishers)
        # Critical node: the last to observe its flag (ties -> lowest id,
        # via the stable max over records sorted by node).
        ranked = sorted(finishers,
                        key=lambda r: (r.time_ps, -_node_of(r.component)))
        critical = _node_of(ranked[-1].component)
        feeding = next((r for r in flag_puts
                        if r.detail.get("dst") == critical), None)
        if feeding is not None:
            queue_ps = int(feeding.detail["queue_ps"])
            wire_ps = int(feeding.detail["wire_ps"])
            stall_ps = max(0, end_ps - feeding.time_ps)
        else:
            # Bare flag store (barrier rounds): the wait is all stall.
            queue_ps = wire_ps = 0
            stall_ps = max(0, end_ps - start_ps)
        dominant = max(zip((queue_ps, wire_ps, stall_ps), COMPONENTS))[1]
        slack = {_node_of(r.component): end_ps - r.time_ps
                 for r in flag_waits}
        steps.append(StepReport(
            phase=phase, step=index, flag=flag, start_ps=start_ps,
            end_ps=end_ps, critical_node=critical, queue_ps=queue_ps,
            wire_ps=wire_ps, stall_ps=stall_ps, dominant=dominant,
            slack_ps=slack))
    return CritPathReport(steps)


class CollectiveRecorder(Tracer):
    """An unbounded record list for the ``coll-*`` records of one
    collective (fed by :mod:`repro.collectives.ring` only)."""

    def __init__(self):
        super().__init__(enabled=True, max_records=None)


@contextlib.contextmanager
def record_collective(engine):
    """Record the collectives run on ``engine`` during a block.

    ``engine.tracer`` is left as it is: an installed tracer keeps
    receiving every record, and a bare engine stays bare.
    """
    recorder, previous = CollectiveRecorder(), engine.recorder
    engine.recorder = recorder
    try:
        yield recorder
    finally:
        engine.recorder = previous


def trace_collective(engine, fn: Callable[[], Any]
                     ) -> Tuple[Any, CritPathReport]:
    """Run ``fn()`` (which drives one collective on ``engine``) under a
    private recorder; returns ``(fn's result, critical-path report)``."""
    with record_collective(engine) as recorder:
        result = fn()
    return result, analyze(recorder.records)
