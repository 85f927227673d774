"""Chaos harness: real workloads under randomized fault plans.

Builds a sub-cluster with a :class:`~repro.faults.injector.FaultInjector`
armed *before* construction (so every link self-registers its hook),
starts the NIOS watchdogs wired to automatic PEARL healing, then drives
two traffic phases and checks that the robustness stack actually
recovers:

1. **resilient ping-pong** — PIO stores between two nodes where both
   sides tolerate loss: the initiator re-stores its value when the echo
   does not come back in time, the responder periodically re-echoes the
   latest value it has seen.  A mid-run cable cut is survived by the
   watchdog detect → heal reroute; the retry carries the round across.
2. **DMA put + byte-exact verify** — a two-phase chained DMA through
   :meth:`~repro.drivers.peach2_driver.PEACH2Driver.run_chain_reliable`
   (timeout, lost-IRQ recovery, doorbell retry), after which the
   destination buffer is compared byte for byte against the source.

The harness is fully deterministic for a given plan: the injector's RNG
is the only randomness, and the engine itself orders ties by schedule
sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigError, FaultError
from repro.drivers.peach2_driver import RetryPolicy
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.sim.core import Engine
from repro.tca.comm import TCAComm
from repro.tca.subcluster import TCASubCluster


@dataclass
class ChaosReport:
    """What happened during one chaos run (all counts are totals)."""

    plan_name: str
    seed: int
    num_nodes: int
    duration_ps: int = 0
    #: Engine events processed over the whole run — a cheap, fully
    #: deterministic fingerprint of the event schedule (fault timing
    #: shifts it even when the injected-fault *counts* coincide).
    events_processed: int = 0
    # Phase 1: resilient ping-pong.
    pingpong_rounds: int = 0
    pingpong_retries: int = 0
    # Phase 2: reliable DMA put.
    dma_bytes: int = 0
    dma_attempts: int = 0
    byte_exact: bool = False
    # Recovery machinery.
    healed: bool = False
    heal_chain: Optional[List[int]] = None
    time_to_heal_ps: Optional[int] = None
    lost_irqs_recovered: int = 0
    doorbell_retries: int = 0
    completion_timeouts: int = 0
    # Link-layer repair work.
    replays: int = 0
    naks: int = 0
    tlps_dropped: int = 0
    faults_injected: Dict[str, int] = field(default_factory=dict)

    def summary(self) -> str:
        """Operator-facing one-paragraph summary."""
        heal = "no heal needed"
        if self.healed:
            tth = ("" if self.time_to_heal_ps is None
                   else f" in {self.time_to_heal_ps / 1000.0:.0f} ns")
            heal = f"auto-healed{tth} -> chain {self.heal_chain}"
        integrity = "byte-exact" if self.byte_exact else "CORRUPTED"
        injected = (", ".join(f"{k}={v}" for k, v in
                              sorted(self.faults_injected.items()))
                    or "none")
        return (f"chaos[{self.plan_name}:{self.seed}] on {self.num_nodes} "
                f"nodes: {self.pingpong_rounds} pingpong rounds "
                f"({self.pingpong_retries} retries), DMA {self.dma_bytes} B "
                f"x{self.dma_attempts} {integrity}; {heal}; "
                f"replays={self.replays} naks={self.naks} "
                f"dropped={self.tlps_dropped} "
                f"lost_irqs={self.lost_irqs_recovered} "
                f"doorbell_retries={self.doorbell_retries}; "
                f"injected: {injected}")


def run_chaos(plan: FaultPlan, num_nodes: int = 6,
              pingpong_iterations: int = 8,
              dma_bytes: int = 32 * 1024,
              cut_east_node: Optional[int] = 0,
              cut_at_ps: int = 2_000_000,
              round_timeout_ps: int = 200_000_000,
              max_round_retries: int = 16,
              max_dma_attempts: int = 3,
              watchdog_interval_ps: Optional[int] = None,
              retry_policy: Optional[RetryPolicy] = None,
              topology: str = "ring",
              extents: Optional[List[int]] = None) -> ChaosReport:
    """Run the chaos scenario; returns a :class:`ChaosReport`.

    ``cut_east_node`` schedules a hard cable cut (the PEARL failure) at
    ``cut_at_ps``, on top of whatever the plan injects; pass ``None`` to
    rely on the plan alone.  Raises :class:`FaultError` if a ping-pong
    round exceeds ``max_round_retries`` — the scenario's recovery budget.
    ``topology``/``extents`` select the fabric (ring by default; pass
    ``topology="torus", extents=(k, k)`` to chaos-test a torus — the cut
    then lands on a dimension-0 cable and heals via the fabric builder).
    """
    engine = Engine()
    injector = FaultInjector(plan).arm(engine)
    cluster = TCASubCluster(num_nodes, topology=topology, extents=extents,
                            engine=engine)
    cluster.enable_auto_heal(watchdog_interval_ps)
    report = ChaosReport(plan_name=plan.name, seed=plan.seed,
                         num_nodes=num_nodes, dma_bytes=dma_bytes)

    if cut_east_node is not None:
        def _cut() -> None:
            try:
                cluster.cut_ring_cable(cut_east_node)
            except ConfigError:
                pass  # the plan already took a ring cable down
        engine.at(cut_at_ps, _cut)

    node_a, node_b = 0, 1
    drv_a = cluster.driver(node_a)
    drv_b = cluster.driver(node_b)
    comm = TCAComm(cluster)
    slot_a, slot_b = 0x800, 0x800
    addr_at_b = comm.host_global(node_b, drv_b.dma_buffer(slot_b))
    addr_at_a = comm.host_global(node_a, drv_a.dma_buffer(slot_a))
    poll_ps = cluster.node(node_a).params.calib.driver_poll_interval_ps
    stop = [False]

    def responder():
        """Echo the latest value seen, re-echoing every few polls so a
        lost echo store cannot wedge the initiator."""
        last_stored = 0
        polls = 0
        dram, address = drv_b.node.dram, drv_b.dma_buffer(slot_b)
        while not stop[0]:
            seen = dram.cpu_read_u32(address)
            polls += 1
            if seen and (seen != last_stored or polls % 8 == 0):
                cluster.node(node_b).cpu.store_u32(addr_at_a, seen)
                last_stored = seen
            yield poll_ps

    def await_value(driver, slot, expect, deadline_ps):
        """Bounded poll; returns True when the value showed up in time."""
        dram, address = driver.node.dram, driver.dma_buffer(slot)
        while engine.now_ps < deadline_ps:
            if dram.cpu_read_u32(address) == expect:
                return True
            yield poll_ps
        return False

    def initiator():
        for i in range(1, pingpong_iterations + 1):
            for _retry in range(max_round_retries):
                cluster.node(node_a).cpu.store_u32(addr_at_b, i)
                arrived = yield engine.process(
                    await_value(drv_a, slot_a, i,
                                engine.now_ps + round_timeout_ps),
                    name="chaos.await")
                if arrived:
                    break
                report.pingpong_retries += 1
            else:
                stop[0] = True
                raise FaultError(
                    f"pingpong round {i} exceeded its recovery budget "
                    f"({max_round_retries} retries of {round_timeout_ps} ps)")
            report.pingpong_rounds += 1
        stop[0] = True

    engine.process(responder(), name="chaos.responder")
    engine.run_process(initiator(), name="chaos.initiator")

    # Phase 2: chained DMA put across the (possibly healed) ring, then a
    # byte-exact comparison at the destination.
    dma_target = num_nodes // 2
    drv_t = cluster.driver(dma_target)
    src_off, dst_off = 0x10000, 0x20000
    pattern = (np.arange(dma_bytes, dtype=np.int64) * 131 + plan.seed) % 251
    pattern = pattern.astype(np.uint8)
    drv_a.fill_dma_buffer(src_off, pattern)
    dst_global = comm.host_global(dma_target, drv_t.dma_buffer(dst_off))
    chain = comm.put_dma_descriptors(node_a, drv_a.dma_buffer(src_off),
                                     dst_global, dma_bytes)

    def dma_phase():
        for _attempt in range(max_dma_attempts):
            report.dma_attempts += 1
            yield engine.process(
                drv_a.run_chain_reliable(0, chain, retry_policy),
                name="chaos.dma")
            landed = drv_t.read_dma_buffer(dst_off, dma_bytes)
            if np.array_equal(landed, pattern):
                report.byte_exact = True
                return
        report.byte_exact = False

    engine.run_process(dma_phase(), name="chaos.dma_phase")

    # Wind down: stop the watchdogs, drain stray timers, gather totals.
    cluster.disable_auto_heal()
    engine.run()
    report.duration_ps = engine.now_ps
    report.events_processed = engine.events_processed
    report.healed = cluster.heals_completed > 0
    report.heal_chain = cluster.last_heal_chain
    report.time_to_heal_ps = cluster.last_time_to_heal_ps
    for driver in cluster.drivers:
        report.lost_irqs_recovered += driver.lost_irqs_recovered
        report.doorbell_retries += driver.doorbell_retries
        report.completion_timeouts += driver.completion_timeouts
    for link in injector._links.values():
        report.replays += link.replays
        report.naks += link.naks
        report.tlps_dropped += link.tlps_dropped
    # Egress-stage drops (a healed route landing mid-flight) never reach
    # a link's serializer, so the link counters above miss them; the
    # forwarding stage records each one once in the injector.
    report.tlps_dropped += injector.counters.get("tlps_dropped_egress", 0)
    report.faults_injected = dict(injector.counters)
    injector.flush_metrics()
    return report
