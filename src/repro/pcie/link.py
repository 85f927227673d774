"""Full-duplex PCIe links with serialization, latency and credit flow.

Each direction of a link is an independent transmitter: packets serialize
one after another at the post-encoding link rate (so a 256-B-payload TLP
occupies the wire for its full 280-B framed footprint), then arrive at the
far port a fixed ``latency_ps`` later (PHY + propagation, store-and-forward
at the receiver).  A credit pool the size of the receiver's ingress buffer
provides backpressure: when the far device stops draining, the transmitter
stalls — exactly how posted-write flow control throttles a slow sink such
as the QPI bridge.

Data-link-layer reliability (exercised only under fault injection, see
:mod:`repro.faults`): every transmitted TLP notionally sits in a replay
buffer until acknowledged.  A TLP that arrives with a bad LCRC is NAK'd —
the transmitter pays the NAK round trip, then reserializes and retransmits
it.  A TLP lost on the wire draws no ACK at all; the replay timer expires
and the transmitter retransmits.  Either way delivery is in-order and the
payload reaches the sink intact, at a real latency cost — the PEARL /
APEnet+ style link-level retransmission the paper's §III-A names.

``take_down()`` models unplugging the cable: TLPs still in flight (already
serialized, not yet delivered) are *dropped and counted*, never delivered
after the link died, and queued TLPs die at the transmitter.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from repro.errors import LinkError
from repro.pcie.gen import PCIeGen, link_bytes_per_ps
from repro.pcie.port import Port, PortRole
from repro.pcie.tlp import TLP
from repro.sim.core import Engine, Signal
from repro.units import transfer_ps


@dataclass(frozen=True)
class LinkParams:
    """Static characteristics of one physical link.

    ``latency_ps`` is the one-way packet latency beyond wire serialization
    (transmitter/receiver PHY plus propagation; larger for external cables
    than for on-board traces).  ``replay_timeout_ps`` is how long the
    transmitter waits for an ACK before retransmitting a lost TLP; a NAK'd
    (corrupted) TLP instead costs the detect + NAK-DLLP round trip of
    ``2 * latency_ps + nak_processing_ps`` before its replay.  A
    direction's credit pool is not a link parameter: it is the receive
    buffer of the port it delivers into, that :class:`Port`'s
    ``rx_credits``.
    """

    gen: PCIeGen = PCIeGen.GEN2
    lanes: int = 8
    latency_ps: int = 120_000  # 120 ns default; calibrated values in model/
    #: Transmit-queue depth; bounded so that a stalled receiver
    #: backpressures the sender instead of buffering unboundedly.
    tx_queue_tlps: int = 4
    #: ACK-timeout before a lost TLP is replayed (PCIe replay timer).
    replay_timeout_ps: int = 1_000_000  # 1 us
    #: Receiver LCRC check + NAK DLLP turnaround at the far end.
    nak_processing_ps: int = 8_000

    @property
    def bytes_per_ps(self) -> float:
        """Post-encoding data rate."""
        return link_bytes_per_ps(self.gen, self.lanes)


#: ``busy_until_ps`` of a transmitter inside the fault path: it stays
#: occupied until its TLP's NAK/replay sequence ends, whenever that is.
_OCCUPIED = 1 << 200


class _Direction:
    """One simplex half of a link: tx FIFO, wire, credits, delivery.

    A callback state machine with plain state: the tx FIFO,
    ``busy_until_ps`` (the end of the current serialization), the free
    credit count and the TLP held for a credit.  A TLP that finds the
    transmitter free and a credit available starts serializing inline
    and schedules only its delivery.  Otherwise it waits in the FIFO
    until the serialization ahead of it ends (one wake-up event) or the
    sink returns a credit; a sender blocks only on a full FIFO.

    A TLP counts as carried when its serialization ends.  With no event
    at that instant, the fault-free path counts it when the direction
    next serializes, delivers or has a counter read, stamping the
    ``link-tx`` record and the busy gauge with the end time.  While
    ``engine.faults`` is set, each serialization ends in an event that
    draws the link verdict, as NAK/replay needs.
    """

    def __init__(self, engine: Engine, name: str, source: Port, sink: Port,
                 params: LinkParams, link: "PCIeLink"):
        self.engine = engine
        self.name = name
        self.source = source
        self.sink = sink
        self.params = params
        self.link = link
        self._queue: Deque[TLP] = deque()
        self._putters: Deque[Tuple[Signal, TLP]] = deque()
        # Returned by every transmit accepted at once: nobody waits on a
        # fired signal, so one instance serves them all.
        self._accepted = Signal.fired_signal(engine, f"{name}.tx.put")
        #: Simulated time the current serialization ends.
        self.busy_until_ps = 0
        self._wake_pending = False
        self._held: Optional[TLP] = None  # taken, waiting for a credit
        #: Credits mirror the sink's receive buffer, so a delivered TLP
        #: always finds space there.
        self.credit_limit = sink.rx_credits
        self.credits_free = self.credit_limit
        # The fault-free serialization not yet counted.
        self._on_wire: Optional[TLP] = None
        self._on_wire_end_ps = 0
        self._on_wire_ps = 0
        self._bytes_carried = 0
        self._tlps_carried = 0
        self._wire_bytes_carried = 0
        self._wire_tlps_carried = 0
        #: TLPs that died with the link (queued or in flight at take_down).
        self.tlps_dropped = 0
        #: DLL retransmissions (NAK'd + replay-timer expirations).
        self.replays = 0
        #: Replays caused by receiver NAKs (bad LCRC).
        self.naks = 0
        # Serialization times keyed on framed size: TLP trains are made of
        # a handful of distinct wire footprints (MPS-sized payloads plus a
        # header-only straggler), so the float division in transfer_ps
        # collapses to a dict hit on every TLP after the first.
        self._serialize_ps: dict = {}
        # Metric instrument handles, bound once per registry instead of
        # paying an f-string + registry lookup on every TLP (hot path).
        self._bound_metrics = None
        self._m_busy = None
        self._m_tlps = None
        self._m_bytes = None
        self._m_wire_tlps = None
        self._m_wire_bytes = None
        # Return a credit whenever the sink device drains one packet.
        sink.ingress_drained = self._release_credit

    def _bind_metrics(self, registry) -> None:
        """(Re)bind per-TLP instrument handles to ``registry``."""
        self._bound_metrics = registry
        name = self.name
        self._m_busy = registry.gauge(f"link.{name}.busy")
        self._m_tlps = registry.counter(f"link.{name}.tlps")
        self._m_bytes = registry.counter(f"link.{name}.bytes")
        self._m_wire_tlps = registry.counter(f"link.{name}.wire_tlps")
        self._m_wire_bytes = registry.counter(f"link.{name}.wire_bytes")

    # -- counters: goodput counts each TLP once, wire counts replays too ------

    def _settle_due(self) -> None:
        if (self._on_wire is not None
                and self._on_wire_end_ps <= self.engine.now_ps):
            self._settle()

    @property
    def bytes_carried(self) -> int:
        """Goodput: framed bytes serialized toward delivery."""
        self._settle_due()
        return self._bytes_carried

    @property
    def tlps_carried(self) -> int:
        """Goodput: TLPs serialized toward delivery."""
        self._settle_due()
        return self._tlps_carried

    @property
    def wire_bytes_carried(self) -> int:
        """Wire traffic: framed bytes serialized, replays included."""
        self._settle_due()
        return self._wire_bytes_carried

    @property
    def wire_tlps_carried(self) -> int:
        """Wire traffic: serializations, replays included."""
        self._settle_due()
        return self._wire_tlps_carried

    @property
    def idle(self) -> bool:
        """True when no TLP is queued, serializing, waiting for a credit
        or in flight, and every credit is back."""
        return (not self._queue and not self._putters and self._held is None
                and self.busy_until_ps <= self.engine.now_ps
                and self.credits_free == self.credit_limit)

    def __str__(self) -> str:
        return (f"link {self.name} waiting for credit "
                f"({self.credits_free}/{self.credit_limit} free)")

    # -- transmit side ---------------------------------------------------------

    def transmit(self, tlp: TLP) -> Signal:
        """Accept ``tlp``: start it now, queue it, or block the sender."""
        if (self._held is None and not self._queue
                and self.busy_until_ps <= self.engine.now_ps):
            self._start(tlp)
            return self._accepted
        queue = self._queue
        if len(queue) < self.params.tx_queue_tlps:
            queue.append(tlp)
            if (not self._wake_pending and self._held is None
                    and self.busy_until_ps != _OCCUPIED):
                self._wake_pending = True
                self.engine.at(self.busy_until_ps, self._wake)
            return self._accepted
        accepted = Signal(self.engine, f"{self.name}.tx.put")
        self._putters.append((accepted, tlp))
        return accepted

    def _wake(self) -> None:
        self._wake_pending = False
        self._next()

    def _next(self) -> None:
        """The transmitter is free: take the next queued TLP, if any."""
        queue = self._queue
        while queue:
            tlp = queue.popleft()
            if self._putters:
                accepted, waiting = self._putters.popleft()
                queue.append(waiting)
                accepted.fire()
            if self.link.up:
                self._start(tlp)
                return
            # The cable died while this packet sat in the tx queue.
            self._drop(tlp, where="tx-queue")

    def _start(self, tlp: TLP) -> None:
        if self.credits_free:
            self.credits_free -= 1
            self._serialize(tlp)
        else:
            self._held = tlp
            self.engine.watches[self] = None

    def _release_credit(self) -> None:
        """The sink drained one packet (or one died): a credit is back."""
        tlp = self._held
        if tlp is None:
            self.credits_free += 1
            return
        self._held = None
        del self.engine.watches[self]
        self._serialize(tlp)

    def _serialize(self, tlp: TLP) -> None:
        engine = self.engine
        now = engine.now_ps
        serialize_ps = self._serialize_ps.get(tlp.wire_bytes)
        if serialize_ps is None:
            serialize_ps = transfer_ps(tlp.wire_bytes,
                                       self.params.bytes_per_ps)
            self._serialize_ps[tlp.wire_bytes] = serialize_ps
        if self._on_wire is not None:
            self._settle()  # it ended no later than now: the wire is free
        metrics = engine.metrics
        if metrics is not None:
            if metrics is not self._bound_metrics:
                self._bind_metrics(metrics)
            self._m_busy.set(1, now)
        epoch = self.link.epoch
        if engine.faults is not None:
            self.busy_until_ps = _OCCUPIED
            engine.after(serialize_ps, self._serialized, tlp, epoch,
                         serialize_ps)
            return
        end = now + serialize_ps
        self.busy_until_ps = end
        self._on_wire = tlp
        self._on_wire_end_ps = end
        self._on_wire_ps = serialize_ps
        engine.at(end + self.params.latency_ps, self._deliver, tlp, epoch)
        if self._queue:
            self._wake_pending = True
            engine.at(end, self._wake)

    def _count_wire(self, tlp: TLP, end_ps: int, serialize_ps: int) -> None:
        """A serialization of ``tlp`` ended at ``end_ps``."""
        wire_bytes = tlp.wire_bytes
        self._wire_bytes_carried += wire_bytes
        self._wire_tlps_carried += 1
        engine = self.engine
        if engine.tracer is not None:
            engine.tracer.emit(end_ps, self.name, "link-tx",
                               dur_ps=serialize_ps, bytes=wire_bytes,
                               tlp=tlp.kind.value)
        metrics = engine.metrics
        if metrics is not None:
            if metrics is not self._bound_metrics:
                self._bind_metrics(metrics)
            self._m_busy.set(0, end_ps)
            self._m_wire_tlps.inc()
            self._m_wire_bytes.inc(wire_bytes)

    def _settle(self) -> None:
        """Count the fault-free serialization that ended at
        ``_on_wire_end_ps``."""
        tlp = self._on_wire
        self._on_wire = None
        self._count_wire(tlp, self._on_wire_end_ps, self._on_wire_ps)
        self._bytes_carried += tlp.wire_bytes
        self._tlps_carried += 1
        if self.engine.metrics is not None:
            self._m_tlps.inc()
            self._m_bytes.inc(tlp.wire_bytes)

    def _drop(self, tlp: TLP, where: str) -> None:
        self.tlps_dropped += 1
        if self.engine.tracer is not None:
            self.engine.trace(self.name, "link-drop", where=where,
                              tlp=tlp.kind.value, bytes=tlp.wire_bytes)
        if self.engine.metrics is not None:
            self.engine.metrics.counter(f"link.{self.name}.dropped").inc()

    # -- fault path: an event at each serialization end ------------------------

    def _serialized(self, tlp: TLP, epoch: int, serialize_ps: int) -> None:
        # The NAK/replay sequence keeps the transmitter occupied, which
        # keeps delivery strictly in order (the replay buffer retransmits
        # before anything younger may pass).
        engine = self.engine
        self._count_wire(tlp, engine.now_ps, serialize_ps)
        faults = engine.faults
        verdict = "ok" if faults is None else faults.link_verdict(self.name)
        if verdict == "ok":
            self._bytes_carried += tlp.wire_bytes
            self._tlps_carried += 1
            if engine.metrics is not None:
                self._m_tlps.inc()
                self._m_bytes.inc(tlp.wire_bytes)
            engine.after(self.params.latency_ps, self._deliver, tlp, epoch)
            self.busy_until_ps = engine.now_ps
            self._next()
            return
        # The TLP never gets ACK'd: pay the detection cost, then
        # retransmit from the replay buffer.
        self.replays += 1
        if verdict == "corrupt":
            self.naks += 1
            engine.trace(self.name, "link-nak", tlp=tlp.kind.value)
            if engine.metrics is not None:
                engine.metrics.counter(f"link.{self.name}.naks").inc()
            # Corrupted TLP reaches the receiver (latency), fails the
            # LCRC check, the NAK DLLP travels back (latency).
            wait_ps = 2 * self.params.latency_ps + self.params.nak_processing_ps
        else:  # dropped on the wire: only the replay timer notices
            engine.trace(self.name, "link-replay-timeout",
                         tlp=tlp.kind.value)
            wait_ps = self.params.replay_timeout_ps
        engine.after(wait_ps, self._replayed, tlp, epoch, serialize_ps)

    def _replayed(self, tlp: TLP, epoch: int, serialize_ps: int) -> None:
        engine = self.engine
        metrics = engine.metrics
        if metrics is not None:
            metrics.counter(f"link.{self.name}.replays").inc()
        if not self.link.up or self.link.epoch != epoch:
            # The link died mid-replay; the sink will never drain this
            # packet, so its flow-control credit comes back here.
            self._drop(tlp, where="replay")
            self.credits_free += 1
            self.busy_until_ps = engine.now_ps
            self._next()
            return
        if metrics is not None:
            if metrics is not self._bound_metrics:
                self._bind_metrics(metrics)
            self._m_busy.set(1, engine.now_ps)
        engine.after(serialize_ps, self._serialized, tlp, epoch,
                     serialize_ps)

    # -- receive side ------------------------------------------------------------

    def _deliver(self, tlp: TLP, epoch: int) -> None:
        self._settle_due()
        if not self.link.up or self.link.epoch != epoch:
            # The cable died (or flapped) while this packet flew: it is
            # lost, never delivered on a link that already went down.
            self._drop(tlp, where="in-flight")
            self._release_credit()
            return
        self.sink.deliver(tlp)


class PCIeLink:
    """A trained link between an RC-facing and an EP-facing port."""

    def __init__(self, engine: Engine, port_a: Port, port_b: Port,
                 params: Optional[LinkParams] = None, name: str = ""):
        params = params or LinkParams()
        if not port_a.role.can_train_with(port_b.role):
            raise LinkError(
                f"link {name!r}: cannot train {port_a.name}({port_a.role.value})"
                f" with {port_b.name}({port_b.role.value})")
        self.engine = engine
        self.name = name or f"{port_a.name}<->{port_b.name}"
        self.params = params
        self.up = True
        #: Bumped on every take_down so in-flight packets of an earlier
        #: link session can never be delivered after a flap.
        self.epoch = 0
        #: Simulated time of the most recent take_down (for time-to-heal).
        self.down_since_ps: Optional[int] = None
        self._dir_ab = _Direction(engine, f"{self.name}:a->b", port_a, port_b,
                                  params, self)
        self._dir_ba = _Direction(engine, f"{self.name}:b->a", port_b, port_a,
                                  params, self)
        port_a.attach(self, self._dir_ab)
        port_b.attach(self, self._dir_ba)
        if engine.faults is not None:
            engine.faults.register_link(self)

    def take_down(self) -> None:
        """Simulate unplugging the external cable.

        Packets already serialized onto the wire are dropped (and counted
        in :attr:`tlps_dropped`) instead of being delivered after the
        link died; packets still queued die at the transmitter.
        """
        if not self.up:
            return
        self.up = False
        self.epoch += 1
        self.down_since_ps = self.engine.now_ps
        if self.engine.tracer is not None:
            self.engine.trace(self.name, "link-down")

    def bring_up(self) -> None:
        """Re-train the link after :meth:`take_down`."""
        if self.up:
            return
        self.up = True
        self.down_since_ps = None
        if self.engine.tracer is not None:
            self.engine.trace(self.name, "link-up")

    @property
    def bytes_carried(self) -> int:
        """Goodput: framed bytes carried in both directions (one count per
        TLP, replays excluded)."""
        return self._dir_ab.bytes_carried + self._dir_ba.bytes_carried

    @property
    def tlps_carried(self) -> int:
        """Goodput: packets carried in both directions (replays excluded)."""
        return self._dir_ab.tlps_carried + self._dir_ba.tlps_carried

    @property
    def wire_bytes_carried(self) -> int:
        """Wire traffic: framed bytes serialized in both directions,
        including every NAK/replay retransmission."""
        return (self._dir_ab.wire_bytes_carried
                + self._dir_ba.wire_bytes_carried)

    @property
    def wire_tlps_carried(self) -> int:
        """Wire traffic: serializations in both directions, replays
        included."""
        return (self._dir_ab.wire_tlps_carried
                + self._dir_ba.wire_tlps_carried)

    @property
    def tlps_dropped(self) -> int:
        """Packets that died with the link, both directions."""
        return self._dir_ab.tlps_dropped + self._dir_ba.tlps_dropped

    @property
    def replays(self) -> int:
        """DLL retransmissions in both directions."""
        return self._dir_ab.replays + self._dir_ba.replays

    @property
    def naks(self) -> int:
        """Receiver NAKs (bad LCRC) in both directions."""
        return self._dir_ab.naks + self._dir_ba.naks
