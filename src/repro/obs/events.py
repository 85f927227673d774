"""The structured-event taxonomy emitted by the instrumented fabric.

Every instrumented component funnels through ``engine.trace(component,
kind, **detail)``; this module is the single authority on ``kind`` names
so tools (exporters, the latency-attribution walker, tests) never match
free-hand strings.

Instant events carry only a timestamp; *span* events additionally carry
``dur_ps`` in their detail and, per the :mod:`repro.sim.trace` convention,
are stamped at the instant the work **ended**.

Component-name conventions the attribution walker relies on:

* PEACH2 ring ports are named ``<chip>.E`` / ``<chip>.W`` / ``<chip>.S``,
  so a hop *into* one of them is an external-cable hop;
* the CPU-to-root-complex link is named ``<node>.cpul`` (see
  ``hw/node.py``), so the hop across it is the store-issue cost.
"""

from __future__ import annotations

# -- PCIe substrate ---------------------------------------------------------

#: A port queued a packet on its attached link (instant, at egress).
TLP_SENT = "tlp-sent"
#: A port handed a delivered packet to its device's handler (instant).
TLP_RECV = "tlp-recv"
#: One packet finished wire serialization on a link direction (span).
LINK_TX = "link-tx"
#: A switch routed one packet ingress->egress (instant, after the
#: issue-interval occupancy).
SWITCH_FORWARD = "switch-forward"
#: The QPI bridge carried one packet across the socket boundary (instant;
#: detail ``cls`` is ``cpu`` or ``p2p``).
QPI_CROSS = "qpi-cross"

# -- PEACH2 -----------------------------------------------------------------

#: The chip's comparator router dispatched one packet (instant).
ROUTE = "route"
#: A DMA channel woke up after its doorbell (instant).
DMA_START = "dma-start"
#: A chain finished (instant; detail has ``aborted``).
DMA_DONE = "dma-done"
#: One descriptor-table batch landed in the prefetch queue (span).
DESC_FETCH = "desc-fetch"
#: The engine dispatched one descriptor to a data stream (instant).
DESC_EXEC = "desc-exec"

# -- host side --------------------------------------------------------------

#: The CPU issued one uncached store (instant; the PIO path's t0).
PIO_STORE = "pio-store"
#: An MSI arrived at the CPU complex (instant).
MSI = "msi"
#: A posted write became poll-visible in a memory completer (instant).
MEM_COMMIT = "mem-commit"
#: The driver rang a DMA doorbell register (instant; chain t0).
DOORBELL = "doorbell"
#: The driver's completion handler ran and read the TSC (instant).
IRQ_COMPLETE = "irq-complete"

# -- communication library --------------------------------------------------

#: One TCA put finished, any transport (span; detail ``transport``).
TCA_PUT = "tca-put"

#: Event kinds the PIO latency-attribution walker treats as milestones.
PIO_MILESTONES = frozenset({PIO_STORE, TLP_SENT, LINK_TX, TLP_RECV,
                            MEM_COMMIT})

#: Event kinds the DMA phase-attribution walker treats as milestones.
DMA_MILESTONES = frozenset({DOORBELL, DMA_START, DESC_FETCH, DMA_DONE,
                            IRQ_COMPLETE})
