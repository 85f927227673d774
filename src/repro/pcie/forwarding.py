"""Bounded egress queues: pipelined forwarding with real backpressure.

Every store-and-forward element (switch, PEACH2 crossbar, QPI/NTB bridge)
forwards packets with a *pipelined* latency — a packet takes
``forward_latency`` to traverse, but a new one can enter every
``issue_interval``.  The egress stage here preserves that timing while
staying **bounded**: when the downstream link (whose transmit queue is
also bounded) stops draining — a QPI-throttled peer, a busy completer —
the egress queue fills, the ingress handler blocks on ``submit``, the
ingress buffer fills, link credits run out, and the stall propagates all
the way back to the traffic source, exactly like PCIe flow control.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from repro.errors import LinkError
from repro.pcie.port import Port
from repro.pcie.tlp import TLP
from repro.sim.core import Engine, Signal


class EgressQueue:
    """Latency-preserving, bounded queue in front of one output port.

    A callback state machine with plain state — a FIFO of
    ``(enqueued_ps, tlp)`` and an *emitting* flag for the one packet in
    service — instead of an emitter process.  A packet submitted to an
    idle stage goes into service at once and schedules only its residual
    latency; when the residual has elapsed it is sent, and the next
    queued packet goes into service.  Packets wait in the FIFO only
    while another one is in service, and a submit blocks only when the
    FIFO is full; the packet leaving the FIFO admits it.

    For ring directions the queue also implements **bubble flow control**
    (Carrión et al.): packets *injected into* the ring (from the host or
    the DMA engine) may only enqueue while at least ``bubble`` slots stay
    free, whereas ring *transit* packets may use every slot.  Transit
    therefore never loses the free "hole" it needs to keep rotating, so a
    ring of bounded queues cannot deadlock under cyclic saturation — the
    situation an all-nodes-shift workload creates (E19).
    """

    BUBBLE_SLOTS = 2

    def __init__(self, engine: Engine, port: Port, residual_latency_ps: int,
                 capacity: int = 8, name: str = ""):
        self.engine = engine
        self.port = port
        self.residual_latency_ps = max(0, residual_latency_ps)
        self.name = name or f"{port.name}.egress"
        self.capacity = capacity
        self.tlps_emitted = 0
        #: Packets abandoned because the output link died (faulted runs).
        self.tlps_dropped = 0
        self.injections_held = 0
        self._fifo: Deque[Tuple[int, TLP]] = deque()
        self._emitting = False
        self._putters: Deque[Tuple[Signal, Tuple[int, TLP]]] = deque()
        self._injection_waiters: Deque[Tuple[Signal, TLP]] = deque()
        # Returned by every submit that is accepted at once (nobody ever
        # waits on a fired signal, so one instance serves them all).
        self._accepted = Signal.fired_signal(engine, f"{self.name}.put")
        # Depth-gauge handle, bound once per registry (sampled per TLP).
        self._bound_metrics = None
        self._m_depth = None

    @property
    def free_slots(self) -> int:
        """Queue slots not taken by a waiting TLP."""
        return self.capacity - len(self._fifo)

    @property
    def injections_waiting(self) -> int:
        """Injections held back by the bubble rule right now."""
        return len(self._injection_waiters)

    @property
    def idle(self) -> bool:
        """True when nothing is queued, emitting, blocked or held."""
        return not (self._emitting or self._fifo or self._putters
                    or self._injection_waiters)

    def _sample_depth(self) -> None:
        """Time-weighted egress depth sample (cheap no-op when metrics off)."""
        metrics = self.engine.metrics
        if metrics is not None:
            if metrics is not self._bound_metrics:
                self._bound_metrics = metrics
                self._m_depth = metrics.gauge(f"egress.{self.name}.depth")
            self._m_depth.set(len(self._fifo))

    def submit(self, tlp: TLP) -> Signal:
        """Hand a transit/ejection packet to the egress stage.

        The returned signal fires when the packet is *accepted* (queued);
        a full queue delays it — that is the backpressure edge.
        """
        if len(self._fifo) < self.capacity:
            self._enqueue(tlp)
            return self._accepted
        accepted = Signal(self.engine, f"{self.name}.put")
        self._putters.append((accepted, (self.engine.now_ps, tlp)))
        self.engine.watches[self] = None
        self._sample_depth()
        return accepted

    def submit_injection(self, tlp: TLP) -> Signal:
        """Inject a new packet into a ring direction (bubble rule).

        Enqueues only while ``BUBBLE_SLOTS`` slots remain free; otherwise
        the injection waits for transit to drain — ring packets always
        keep a circulating hole.
        """
        if not self._injection_waiters and self._has_bubble():
            self._enqueue(tlp)
            return self._accepted
        self.injections_held += 1
        accepted = Signal(self.engine, f"{self.name}.inject")
        self._injection_waiters.append((accepted, tlp))
        self.engine.watches[self] = None
        return accepted

    def _enqueue(self, tlp: TLP) -> None:
        """Serve ``tlp`` at once if the stage is idle, else queue it."""
        if self._emitting:
            self._fifo.append((self.engine.now_ps, tlp))
            self._sample_depth()
        else:
            self._emitting = True
            self._sample_depth()
            self._serve(self.engine.now_ps, tlp)

    def _has_bubble(self) -> bool:
        return self.capacity - len(self._fifo) >= self.BUBBLE_SLOTS

    def _admit_injections(self) -> None:
        waiters = self._injection_waiters
        while waiters and self._has_bubble():
            accepted, tlp = waiters.popleft()
            self._enqueue(tlp)
            accepted.fire()
        if not (waiters or self._putters):
            self.engine.watches.pop(self, None)

    def _serve(self, enqueued_ps: int, tlp: TLP) -> None:
        """Put one packet in service: wait out its residual, then send."""
        engine = self.engine
        self._sample_depth()
        if self._injection_waiters:
            self._admit_injections()
        # Let the pipeline latency elapse relative to ingress time.
        target = enqueued_ps + self.residual_latency_ps
        if target > engine.now_ps:
            engine.at(target, self._emit, tlp)
        else:
            self._emit(tlp)

    def _emit(self, tlp: TLP) -> None:
        try:
            accepted = self.port.send(tlp)
        except LinkError:
            # The output link is down.  Without fault injection that
            # is a configuration bug and must stay fatal; under an
            # armed fault plan it is an injected cable failure, and a
            # store-and-forward stage drops the packet (counted) so
            # the fabric can keep moving and the healed route can
            # carry the retry.
            if self.engine.faults is None:
                raise
            self.tlps_dropped += 1
            # The dead link never serialized this packet, so no
            # link-level counter saw it: record the drop in the
            # fabric-wide fault accounting here (exactly once) so
            # healed-mid-flight losses show up in ``--metrics`` and
            # chaos reports instead of being under-counted.
            self.engine.faults.count("tlps_dropped_egress")
            if self.engine.tracer is not None:
                self.engine.trace(self.name, "egress-drop",
                                  tlp=tlp.kind.value)
            if self.engine.metrics is not None:
                self.engine.metrics.counter(
                    f"egress.{self.name}.dropped").inc()
            self._next()
            return
        if accepted.fired:
            self._sent()
        else:
            accepted.add_callback(self._sent)

    def _sent(self, _value=None) -> None:
        self.tlps_emitted += 1
        self._next()

    def _next(self) -> None:
        """The packet in service left: serve the next queued one."""
        fifo = self._fifo
        if not fifo:
            self._emitting = False
            return
        enqueued_ps, tlp = fifo.popleft()
        if self._putters:
            accepted, item = self._putters.popleft()
            fifo.append(item)
            accepted.fire()
            if not (self._putters or self._injection_waiters):
                self.engine.watches.pop(self, None)
        self._serve(enqueued_ps, tlp)

    def __str__(self) -> str:
        return (f"egress {self.name} full ({len(self._fifo)}/"
                f"{self.capacity} queued), {len(self._putters)} submit(s) "
                f"blocked, {len(self._injection_waiters)} injection(s) held")
