"""Lightweight tracing and counters for simulation components.

Hardware models call :meth:`Tracer.emit` at interesting moments (TLP sent,
descriptor fetched, interrupt raised...).  Tracing is off by default and
costs one attribute check per call site when disabled — a disabled tracer
does **no** work at all, not even counting.

Span convention: a record whose ``detail`` carries ``dur_ps`` describes an
interval that *ended* at ``time_ps`` after lasting ``dur_ps`` picoseconds.
Exporters and the latency-attribution walker in :mod:`repro.obs` rely on
this.  Records are kept in time order: a component may emit a span after
the simulated clock has moved past its end (a link direction counts a
serialization when it next looks at its wire, with no event at the end
instant), and such a record is placed after every record stamped no
later than it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass(slots=True)
class TraceRecord:
    """One trace event: time, component, event kind, free-form details."""

    time_ps: int
    component: str
    kind: str
    detail: Dict[str, Any] = field(default_factory=dict)

    @property
    def start_ps(self) -> int:
        """Interval start for span records (``time_ps`` for instants)."""
        return self.time_ps - int(self.detail.get("dur_ps", 0))

    def __str__(self) -> str:
        items = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.time_ps / 1000:12.3f}ns] {self.component}: {self.kind} {items}"


class Tracer:
    """Collects :class:`TraceRecord` objects and per-kind counters."""

    def __init__(self, enabled: bool = False, max_records: Optional[int] = 100_000):
        self.enabled = enabled
        self.max_records = max_records
        self.records: List[TraceRecord] = []
        self.counters: Counter = Counter()
        #: Records rejected because :attr:`max_records` was reached.  The
        #: per-kind counters keep counting past the cap, so a nonzero value
        #: here flags that ``records`` is an incomplete window.
        self.dropped = 0

    def emit(self, time_ps: int, component: str, kind: str, **detail: Any) -> None:
        """Record one event (a strict no-op when disabled)."""
        if not self.enabled:
            return
        self.counters[kind] += 1
        if self.max_records is not None and len(self.records) >= self.max_records:
            self.dropped += 1
            return
        record = TraceRecord(time_ps, component, kind, detail)
        records = self.records
        if records and records[-1].time_ps > time_ps:
            # A late span: the few records stamped after it move up.
            i = len(records) - 1
            while i and records[i - 1].time_ps > time_ps:
                i -= 1
            records.insert(i, record)
        else:
            records.append(record)

    def count(self, kind: str) -> int:
        """Number of events of ``kind`` seen so far (while enabled)."""
        return self.counters[kind]

    def clear(self) -> None:
        """Drop all records, counters and the dropped tally."""
        self.records.clear()
        self.counters.clear()
        self.dropped = 0

    def dump(self) -> str:
        """All records as a newline-joined string (for debugging)."""
        return "\n".join(str(r) for r in self.records)
