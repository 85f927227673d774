"""The PEACH2 device driver (§IV: "the PEACH2 driver for controlling the
PEACH2 board").

Responsibilities mirror the real driver:

* allocate the contiguous **DMA buffer** in host memory that §IV-A1 uses
  as the source/destination of DMA measurements;
* expose the chip's BARs to user space (``mmap``-style), enabling PIO
  RDMA-put by plain stores (§III-F1);
* build **descriptor tables** in the DMA buffer and ring the doorbell with
  a real register-write TLP;
* field the **completion interrupt** and timestamp it exactly where the
  paper reads TSC ("the clock counter is checked again in the interrupt
  handler", §IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import DriverError
from repro.hw.node import ComputeNode
from repro.model.calibration import Calibration
from repro.peach2.board import PEACH2Board
from repro.peach2.descriptor import (DESCRIPTOR_BYTES, DMADescriptor,
                                     encode_table)
from repro.peach2.dma import STATUS_ABORTED, STATUS_DONE, STATUS_IDLE
from repro.peach2.registers import (DMA_REG_DESC_ADDR, DMA_REG_DESC_COUNT,
                                    DMA_REG_DOORBELL, DMA_REG_STATUS,
                                    REG_MSI_ADDRESS, REG_MSI_VECTOR,
                                    RegisterFile)
from repro.hw.cpu import MSI_REGION
from repro.sim.core import Signal, first_of
from repro.units import MiB

#: First MSI vector used for DMA-channel completion interrupts.
DMA_IRQ_VECTOR_BASE = 32

#: Size of the driver's contiguous DMA buffer.
DMA_BUFFER_BYTES = 16 * MiB


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retry knobs of the robust chain-submission path.

    ``completion_timeout_ps`` is the wait for the *first* completion
    interrupt; each further attempt multiplies it by ``backoff`` (so a
    merely slow chain is given progressively more room instead of being
    hammered).  ``max_attempts`` bounds the whole recovery before the
    driver resets the channel and gives up with :class:`DriverError`.
    """

    completion_timeout_ps: int = 1_000_000_000  # 1 ms
    max_attempts: int = 5
    backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.completion_timeout_ps <= 0:
            raise DriverError("completion_timeout_ps must be positive")
        if self.max_attempts < 1:
            raise DriverError("max_attempts must be at least 1")
        if self.backoff < 1.0:
            raise DriverError("backoff must be >= 1.0")


class PEACH2Driver:
    """Kernel driver instance bound to one board in one node."""

    def __init__(self, node: ComputeNode, board: PEACH2Board,
                 dma_buffer_bytes: int = DMA_BUFFER_BYTES):
        if board.node is not node:
            raise DriverError("board is not installed in this node")
        self.node = node
        self.board = board
        self.chip = board.chip
        self.engine = node.engine
        self.calib: Calibration = node.params.calib

        # The driver's contiguous DMA buffer (kmalloc'd at load time).
        self.dma_buffer_addr = node.dram_alloc(dma_buffer_bytes)
        self.dma_buffer_bytes = dma_buffer_bytes
        # Descriptor tables live at the top of the DMA buffer, one slot
        # per channel (256 descriptors max each).
        self._table_slot_bytes = 256 * DESCRIPTOR_BYTES
        tables = self.chip.params.num_dma_channels * self._table_slot_bytes
        self._table_base = self.dma_buffer_addr + dma_buffer_bytes - tables
        self.usable_dma_bytes = dma_buffer_bytes - tables

        # Route DMA-completion MSIs to per-channel handlers.
        self._irq_signals: Dict[int, Optional[Signal]] = {}
        self.spurious_interrupts = 0
        # Recovery accounting (the robust run_chain_reliable path).
        self.completion_timeouts = 0
        self.lost_irqs_recovered = 0
        self.doorbell_retries = 0
        self.channel_resets = 0
        for channel in range(self.chip.params.num_dma_channels):
            vector = DMA_IRQ_VECTOR_BASE + channel
            node.cpu.register_irq_handler(
                vector, self._make_irq_handler(channel))
        self.chip.regs.poke_u64(REG_MSI_ADDRESS, MSI_REGION.base)
        self.chip.regs.poke_u64(REG_MSI_VECTOR, DMA_IRQ_VECTOR_BASE)

    # -- user-space mappings ------------------------------------------------------

    def mmap_tca_window(self) -> int:
        """Base bus address of BAR4, as mmapped into user space (§III-F1)."""
        return self.chip.bar4.base

    def mmap_registers(self) -> int:
        """Base bus address of BAR0 (privileged tools only)."""
        return self.chip.bar0.base

    def dma_buffer(self, offset: int = 0) -> int:
        """Bus address of a byte within the driver's DMA buffer."""
        if offset < 0 or offset >= self.usable_dma_bytes:
            raise DriverError(f"DMA-buffer offset {offset:#x} out of range")
        return self.dma_buffer_addr + offset

    # -- buffer access (host software touching its own DRAM) ------------------------

    def fill_dma_buffer(self, offset: int, data: np.ndarray) -> None:
        """CPU writes test data into the DMA buffer."""
        self.node.dram.cpu_write(self.dma_buffer(offset),
                                 np.asarray(data, dtype=np.uint8))

    def read_dma_buffer(self, offset: int, nbytes: int) -> np.ndarray:
        """CPU reads back from the DMA buffer."""
        return self.node.dram.cpu_read(self.dma_buffer(offset), nbytes)

    # -- DMA chain control -------------------------------------------------------------

    def write_chain(self, channel: int,
                    descriptors: Sequence[DMADescriptor]) -> int:
        """Write a descriptor table for ``channel`` into the DMA buffer.

        Returns the table's bus address.  Table stores are plain cached
        writes by the CPU; they happen before the measurement window.
        """
        if len(descriptors) > 255:
            raise DriverError("a chain holds at most 255 descriptors "
                              "(the paper's maximum burst)")
        table = encode_table(descriptors)
        addr = self._table_base + channel * self._table_slot_bytes
        self.node.dram.cpu_write(addr, table)
        self.chip.regs.poke_u64(
            RegisterFile.dma_offset(channel, DMA_REG_DESC_ADDR), addr)
        self.chip.regs.poke_u64(
            RegisterFile.dma_offset(channel, DMA_REG_DESC_COUNT),
            len(descriptors))
        return addr

    def ring_doorbell(self, channel: int) -> Signal:
        """Start the chain with a real PIO store to the doorbell register.

        Returns a signal that fires *in the interrupt handler* (after the
        kernel's IRQ-entry cost), with the completion TSC as its value —
        the paper's measurement endpoint.
        """
        if self._irq_signals.get(channel) is not None:
            raise DriverError(f"channel {channel} already has a chain pending")
        done = self.engine.signal(f"{self.chip.name}.irq{channel}")
        self._irq_signals[channel] = done
        doorbell = self.chip.bar0.base + RegisterFile.dma_offset(
            channel, DMA_REG_DOORBELL)
        if self.engine.tracer is not None:
            self.engine.trace(f"{self.node.name}.driver", "doorbell",
                              channel=channel, chip=self.chip.name)
        self.node.cpu.store_u32(doorbell, 1)
        return done

    def run_chain(self, channel: int,
                  descriptors: Sequence[DMADescriptor]):
        """Process: program + doorbell + wait for the completion IRQ.

        Yields through the whole operation and returns the elapsed
        picoseconds from doorbell store to interrupt handler (the TSC
        difference of §IV-A).
        """
        self.write_chain(channel, descriptors)
        start_tsc = self.node.cpu.read_tsc()
        done = self.ring_doorbell(channel)
        end_tsc = yield done
        return end_tsc - start_tsc

    # -- asynchronous submission (the collectives layer) --------------------------

    def channel_pending(self, channel: int) -> bool:
        """True while a submitted chain has not completed its IRQ yet."""
        return self._irq_signals.get(channel) is not None

    def submit_chain(self, channel: int,
                     descriptors: Sequence[DMADescriptor]) -> Signal:
        """Program + doorbell *without* waiting; returns the IRQ signal.

        The returned signal fires in the interrupt handler with the
        completion TSC as its value.  This is the submission path the
        multi-channel collective scheduler
        (:class:`repro.collectives.ChannelScheduler`) uses to keep
        several chains in flight on different channels of one chip.
        """
        self.write_chain(channel, descriptors)
        return self.ring_doorbell(channel)

    # -- robust submission (timeout + bounded retry) -----------------------------

    def read_dma_status(self, channel: int):
        """Process: MMIO-read a channel's STATUS register.

        A real non-posted read round trip to BAR0 — recovery polls cost
        simulated time like they cost a real driver.
        """
        address = self.chip.bar0.base + RegisterFile.dma_offset(
            channel, DMA_REG_STATUS)
        data = yield self.node.cpu.load(address, 8)
        return int.from_bytes(data, "little")

    def _ring(self, channel: int) -> None:
        """Re-issue the doorbell store for an already-pending chain.

        Used by the retry path when the first doorbell never latched;
        the completion signal allocated by :meth:`ring_doorbell` stays
        in place, which makes resubmission idempotent.
        """
        doorbell = self.chip.bar0.base + RegisterFile.dma_offset(
            channel, DMA_REG_DOORBELL)
        if self.engine.tracer is not None:
            self.engine.trace(f"{self.node.name}.driver", "doorbell-retry",
                              channel=channel, chip=self.chip.name)
        self.node.cpu.store_u32(doorbell, 1)

    def reset_channel(self, channel: int) -> None:
        """Recovery of last resort: abort the chain, clear IRQ bookkeeping.

        After this the channel can accept a fresh :meth:`ring_doorbell`.
        """
        self.chip.dma.abort(channel)
        self._irq_signals[channel] = None
        self.channel_resets += 1
        if self.engine.tracer is not None:
            self.engine.trace(f"{self.node.name}.driver", "channel-reset",
                              channel=channel, chip=self.chip.name)
        if self.engine.metrics is not None:
            self.engine.metrics.counter(
                f"driver.{self.node.name}.channel_resets").inc()

    def run_chain_reliable(self, channel: int,
                           descriptors: Sequence[DMADescriptor],
                           policy: Optional[RetryPolicy] = None):
        """Process: :meth:`run_chain` hardened with timeout and retry.

        Waits for the completion IRQ under a timeout.  On expiry the
        driver polls the channel STATUS register over MMIO and acts on
        what it finds:

        * ``DONE``/``ABORTED`` — the chain finished but the MSI was lost;
          complete from the poll (counted in ``lost_irqs_recovered``).
        * ``IDLE`` — the doorbell never latched; ring it again
          (idempotent: the table registers still hold the chain).
        * ``RUNNING`` — merely slow; back off exponentially and rewait.

        Returns the elapsed picoseconds from the first doorbell store to
        the observed completion.  After ``policy.max_attempts`` the
        channel is reset and :class:`DriverError` raised.
        """
        policy = policy or RetryPolicy()
        self.write_chain(channel, descriptors)
        start_tsc = self.node.cpu.read_tsc()
        done = self.ring_doorbell(channel)
        timeout_ps = policy.completion_timeout_ps
        for _attempt in range(policy.max_attempts):
            timer = self.engine.signal(
                f"{self.chip.name}.irq{channel}.timeout")
            timer.fire_after(timeout_ps)
            index, value = yield first_of(self.engine, [done, timer])
            if index == 0:
                # The IRQ won: retire the losing timer so its heap event
                # does not pad a drain-mode run to the full timeout (nor
                # inflate events_processed).
                timer.cancel()
                return value - start_tsc
            self.completion_timeouts += 1
            if self.engine.tracer is not None:
                self.engine.trace(f"{self.node.name}.driver", "irq-timeout",
                                  channel=channel, waited_ps=timeout_ps)
            if self.engine.metrics is not None:
                self.engine.metrics.counter(
                    f"driver.{self.node.name}.irq_timeouts").inc()
            status = yield self.engine.process(
                self.read_dma_status(channel),
                name=f"{self.node.name}.driver.status{channel}")
            if done.fired:
                # The interrupt raced our status poll; take the real one.
                return done.value - start_tsc
            if status in (STATUS_DONE, STATUS_ABORTED):
                # Completed, but the MSI never arrived: recover from the
                # status poll instead of waiting forever.
                self.lost_irqs_recovered += 1
                self._irq_signals[channel] = None
                if self.engine.tracer is not None:
                    self.engine.trace(f"{self.node.name}.driver",
                                      "irq-recovered", channel=channel)
                if self.engine.metrics is not None:
                    self.engine.metrics.counter(
                        f"driver.{self.node.name}.lost_irqs_recovered").inc()
                return self.node.cpu.read_tsc() - start_tsc
            if status == STATUS_IDLE:
                # The doorbell write was swallowed; resubmit it.
                self.doorbell_retries += 1
                if self.engine.metrics is not None:
                    self.engine.metrics.counter(
                        f"driver.{self.node.name}.doorbell_retries").inc()
                self._ring(channel)
            # STATUS_RUNNING: give the chain more room next round.
            timeout_ps = int(timeout_ps * policy.backoff)
        self.reset_channel(channel)
        raise DriverError(
            f"{self.node.name}: channel {channel} chain did not complete "
            f"after {policy.max_attempts} attempts")

    def _make_irq_handler(self, channel: int):
        def handler(_vector: int) -> None:
            # Kernel IRQ entry, then the driver's handler reads TSC.
            self.engine.after(self.calib.irq_handler_entry_ps,
                              self._complete_irq, channel)

        return handler

    def _complete_irq(self, channel: int) -> None:
        signal = self._irq_signals.get(channel)
        if signal is None:
            # A chain started without ring_doorbell() (e.g. a register
            # poke by diagnostics); acknowledge and count it.
            self.spurious_interrupts += 1
            return
        self._irq_signals[channel] = None
        if self.engine.tracer is not None:
            self.engine.trace(f"{self.node.name}.driver", "irq-complete",
                              channel=channel, chip=self.chip.name)
        if self.engine.metrics is not None:
            self.engine.metrics.counter(
                f"driver.{self.node.name}.irqs").inc()
        signal.fire(self.node.cpu.read_tsc())

    # -- polling (used by the PIO latency experiment, §IV-B1) ---------------------------

    def poll_dma_buffer_u32(self, offset: int, expect: int):
        """Process: poll a DMA-buffer word until it equals ``expect``.

        Returns the TSC at observation.  Poll granularity is the driver's
        load loop interval (:meth:`HostMemory.wait_u32` keeps that tick
        without an event per poll).
        """
        yield from self.node.dram.wait_u32(
            self.dma_buffer(offset), lambda word: word == expect,
            self.calib.driver_poll_interval_ps)
        return self.node.cpu.read_tsc()
