"""Ports: the attachment points between devices and links.

A port has a *role* — Root Complex side or Endpoint side; PCIe only trains
a link between an RC-facing (downstream) and an EP-facing (upstream) pair,
which is exactly why PEACH2 fixes Port E as EP and Port W as RC so that a
ring can always be cabled (§III-D), and why Port S must be role-selectable
to couple two rings.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from repro.errors import LinkError, SimulationError
from repro.sim.core import Engine, Signal
from repro.pcie.tlp import TLP

if TYPE_CHECKING:  # pragma: no cover
    from repro.pcie.device import Device
    from repro.pcie.link import PCIeLink


class PortRole(enum.Enum):
    """Which side of a link the port plays."""

    RC = "root-complex"
    EP = "endpoint"
    INTERNAL = "internal"  # on-die attach, exempt from RC/EP pairing

    def can_train_with(self, other: "PortRole") -> bool:
        """PCIe trains RC<->EP; INTERNAL pairs with anything internal."""
        if self is PortRole.INTERNAL or other is PortRole.INTERNAL:
            return self is other
        return self is not other


class Port:
    """One link attachment point of a device.

    Egress: :meth:`send` hands a packet to the attached link's transmit
    side.  Ingress is a callback state machine, not a process: the link
    calls :meth:`deliver` when a packet arrives, and the port runs the
    owner's :meth:`~repro.pcie.device.Device.handle_tlp` right there.  A
    multi-step handler (a generator of ``int`` delays and
    :class:`~repro.sim.core.Signal` waits) is driven inline, one step per
    timed wake-up; packets that arrive meanwhile wait in a FIFO bounded
    by ``rx_credits`` (the receive buffer the far transmitter's credits
    mirror) and are handled in order once the handler finishes.
    """

    def __init__(self, engine: Engine, name: str, role: PortRole,
                 owner: "Device", rx_credits: int = 32):
        self.engine = engine
        self.name = name
        self.role = role
        self.owner = owner
        self.link: Optional["PCIeLink"] = None
        self._tx = None  # the link direction this port transmits on
        #: Receive-buffer depth in packets; the feeding link direction
        #: sizes its credit pool from it.
        self.rx_credits = rx_credits
        # Set by the link direction feeding this port: called once per
        # drained packet so the far transmitter gets its credit back.
        self.ingress_drained = None  # type: Optional[callable]
        self.tlps_sent = 0
        self.tlps_received = 0
        # Delivered packets waiting for the running handler to finish.
        self._fifo: Deque[TLP] = deque()
        # The running multi-step handler (None when the port is free).
        self._handler = None
        self._waiting = None  # the Signal a blocked handler waits on

    @property
    def connected(self) -> bool:
        """True once a link is attached and trained."""
        return self.link is not None

    @property
    def idle(self) -> bool:
        """True when no delivered TLP waits and no handler is running."""
        return self._handler is None and not self._fifo

    def attach(self, link: "PCIeLink", tx) -> None:
        """Called by :class:`PCIeLink` when the cable is plugged in;
        ``tx`` is the link direction this port transmits on."""
        if self.link is not None:
            raise LinkError(f"port {self.name} already linked")
        self.link = link
        self._tx = tx

    def detach(self) -> None:
        """Unplug the cable (used by link-failure experiments)."""
        self.link = None
        self._tx = None

    def send(self, tlp: TLP) -> Signal:
        """Queue a packet for transmission; fires when accepted by the link."""
        link = self.link
        if link is None:
            raise LinkError(f"port {self.name} is not connected")
        if not link.up:
            raise LinkError(f"link {link.name} is down")
        self.tlps_sent += 1
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.emit(self.engine.now_ps, self.name, "tlp-sent",
                        tlp=tlp.kind.value, addr=tlp.address,
                        bytes=tlp.wire_bytes)
        return self._tx.transmit(tlp)

    # -- ingress ------------------------------------------------------------

    def deliver(self, tlp: TLP) -> None:
        """A packet arrived from the link: handle it now or queue it."""
        if self._handler is None:
            self._handle(tlp)
        elif len(self._fifo) < self.rx_credits:
            self._fifo.append(tlp)
        else:  # pragma: no cover - the feeding link's credits prevent it
            raise LinkError(f"{self.name}: rx overflow despite credits")

    def _handle(self, tlp: TLP) -> None:
        """Handle ``tlp`` and every queued packet until a handler parks."""
        engine = self.engine
        handle_tlp = self.owner.handle_tlp
        fifo = self._fifo
        while True:
            self.tlps_received += 1
            tracer = engine.tracer
            if tracer is not None:
                tracer.emit(engine.now_ps, self.name, "tlp-recv",
                            tlp=tlp.kind.value, addr=tlp.address,
                            bytes=tlp.wire_bytes)
            drained = self.ingress_drained
            if drained is not None:
                drained()
            result = handle_tlp(self, tlp)
            if result is not None:
                # Multi-step handling: the next packet waits for it, which
                # is PCIe's per-link ordering.
                self._handler = result
                if not self._step(None):
                    return
            if not fifo:
                return
            tlp = fifo.popleft()

    def _step(self, value) -> bool:
        """Advance the running handler; True once it has finished.

        The handler may yield an ``int`` delay (resume after it) or a
        :class:`Signal` (resume when it fires; a fired one continues at
        once).  Anything else is a model bug.
        """
        handler = self._handler
        while True:
            try:
                yielded = handler.send(value)
            except StopIteration:
                self._handler = None
                return True
            cls = yielded.__class__
            if cls is int:
                self.engine.after(yielded, self._resume, None)
                return False
            if cls is Signal:
                if yielded.fired:
                    value = yielded.value
                    continue
                # Blocked behind its handler: named in deadlock errors.
                self._waiting = yielded
                self.engine.watches[self] = None
                yielded.add_callback(self._unblock)
                return False
            raise SimulationError(
                f"port {self.name}: handler yielded unsupported "
                f"{type(yielded).__name__}; expected an int delay or a "
                "Signal")

    def _resume(self, value) -> None:
        if self._step(value) and self._fifo:
            self._handle(self._fifo.popleft())

    def _unblock(self, value) -> None:
        self._waiting = None
        del self.engine.watches[self]
        self._resume(value)

    def __str__(self) -> str:
        return (f"port {self.name} blocked in its handler on "
                f"{self._waiting!r} ({len(self._fifo)} TLP(s) queued)")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Port({self.name!r}, {self.role.value})"
