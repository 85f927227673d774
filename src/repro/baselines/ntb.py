"""PCIe non-transparent bridge (NTB) baseline (§V related work).

An NTB pair lets two root complexes address each other through translating
windows.  The §V critique is modelled faithfully:

* the NTB endpoints must exist at BIOS scan time ("during the BIOS scan at
  boot time, the host must recognize the EPs in the NTB") — installing one
  after :meth:`ComputeNode.enumerate` fails;
* "disconnection of the node causes a system reboot" — cutting the cable
  marks both hosts reboot-required, whereas a PEACH2 ring link going down
  leaves the host<->PEACH2 connection untouched;
* the data path itself is competitive: a translating window hop is as fast
  as a switch traversal, which is why the latency comparison (E14) shows
  NTB close to PEACH2 for two nodes — the difference is operability and
  scale (fixed windows vs a routed 16-node sub-cluster).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigError, PCIeError
from repro.hw.node import ComputeNode, NodeParams
from repro.pcie.address import Region
from repro.pcie.config_space import (CAP_PCIE, Capability, ConfigSpace,
                                     VENDOR_PLX)
from repro.pcie.device import Device
from repro.pcie.gen import PCIeGen
from repro.pcie.link import LinkParams, PCIeLink
from repro.pcie.port import Port, PortRole
from repro.pcie.tlp import TLP, TLPKind
from repro.sim.core import Engine
from repro.units import MiB, ns


@dataclass(frozen=True)
class NTBParams:
    """Translation-window size and per-packet bridge cost."""

    window_bytes: int = 256 * MiB
    forward_latency_ps: int = ns(150)
    issue_interval_ps: int = ns(8)


class NTBBridge(Device):
    """One NTB endpoint function (half of a back-to-back NTB pair)."""

    def __init__(self, engine: Engine, name: str,
                 params: NTBParams = NTBParams()):
        super().__init__(engine, name)
        self.params = params
        self.host_port = Port(engine, f"{name}.host", PortRole.EP, self,
                              rx_credits=64)
        self.cable_port = Port(engine, f"{name}.cable", PortRole.INTERNAL,
                               self, rx_credits=64)
        self.node: Optional[ComputeNode] = None
        self.window: Optional[Region] = None
        # The NTB endpoint function the BIOS must see at boot (§V).
        self.config_space = ConfigSpace(VENDOR_PLX, 0x8749, 0x06, name=name)
        self.config_space.add_bar(0, params.window_bytes)
        self.config_space.add_capability(Capability(CAP_PCIE))
        #: Peer-side bus address the window's base translates to.
        self.translation_base = 0
        self.tlps_forwarded = 0

    # -- adapter protocol ---------------------------------------------------------

    def on_enumerated(self, node: ComputeNode,
                      bars: Dict[int, Region]) -> None:
        """Record the window placed by the BIOS scan."""
        self.node = node
        self.window = bars[0]

    def set_translation(self, peer_bus_base: int) -> None:
        """Program where the window lands in the peer's address space."""
        self.translation_base = peer_bus_base

    # -- data path -------------------------------------------------------------------

    def handle_tlp(self, port: Port, tlp: TLP):
        """Translate host-side window traffic; pass cable traffic up."""
        if port is self.host_port:
            if tlp.kind is TLPKind.CPLD:
                # A completion returning toward the peer's requester:
                # forwarded untouched (ID-routed, no address).
                out_tlp, out_port = tlp, self.cable_port
            else:
                if self.window is None or not self.window.contains(
                        tlp.address):
                    raise PCIeError(
                        f"{self.name}: address outside the NTB window")
                translated = (self.translation_base
                              + self.window.offset_of(tlp.address))
                out_tlp = TLP(tlp.kind, address=translated,
                              length=tlp.length, payload=tlp.payload,
                              requester_id=tlp.requester_id, tag=tlp.tag)
                out_port = self.cable_port
        else:
            out_tlp, out_port = tlp, self.host_port
        remaining = max(0, self.params.forward_latency_ps
                        - self.params.issue_interval_ps)
        self.engine.after(remaining, self._emit, out_port, out_tlp)
        return self._occupy()

    def _occupy(self):
        yield self.params.issue_interval_ps

    def _emit(self, port: Port, tlp: TLP) -> None:
        self.tlps_forwarded += 1
        port.send(tlp)


class NTBPair:
    """Two nodes joined by back-to-back NTB endpoints."""

    def __init__(self, engine: Optional[Engine] = None,
                 node_params: NodeParams = NodeParams(num_gpus=1),
                 ntb_params: NTBParams = NTBParams()):
        self.engine = engine or Engine()
        self.node_a = ComputeNode(self.engine, "ntbA", node_params)
        self.node_b = ComputeNode(self.engine, "ntbB", node_params)
        self.ntb_a = NTBBridge(self.engine, "ntbA.ep", ntb_params)
        self.ntb_b = NTBBridge(self.engine, "ntbB.ep", ntb_params)
        self.node_a.install_adapter(self.ntb_a)
        self.node_b.install_adapter(self.ntb_b)
        self.node_a.enumerate()
        self.node_b.enumerate()
        cable = LinkParams(gen=PCIeGen.GEN2, lanes=8,
                           latency_ps=ns(130))
        self.cable = PCIeLink(self.engine, self.ntb_a.cable_port,
                              self.ntb_b.cable_port, cable, name="ntb-cable")
        #: §V: unplugging an NTB node forces reboots; set by cut_cable().
        self.hosts_require_reboot = False
        # Windows point at the peer's DRAM base by default.
        self.ntb_a.set_translation(0)
        self.ntb_b.set_translation(0)
        # Requester-ID translation: completions for the peer's requesters
        # route back through the bridge (this is what lets reads cross).
        self.node_b.sw0.map_device(self.node_a.cpu.device_id,
                                   self.node_b.adapter_slot(self.ntb_b))
        self.node_a.sw0.map_device(self.node_b.cpu.device_id,
                                   self.node_a.adapter_slot(self.ntb_a))

    def cut_cable(self) -> None:
        """Unplug: with NTB, both hosts must reboot to recover (§V)."""
        self.cable.take_down()
        self.hosts_require_reboot = True

    def remote_read(self, nbytes: int = 8, src_offset: int = 0xA000):
        """Process: node A's CPU reads node B's DRAM through the window
        (NTBs, unlike PEACH2, do support remote reads)."""
        data = yield self.node_a.cpu.load(self.ntb_a.window.base + src_offset,
                                          nbytes)
        return data

    def store_latency_ns(self, payload: int = 0xC0FFEE01,
                         dst_offset: int = 0x9000) -> float:
        """One 4-byte store from node A's CPU into node B's DRAM."""
        target = self.ntb_a.window.base + dst_offset
        dram_b = self.node_b.dram
        start = self.engine.now_ps
        self.node_a.cpu.store_u32(target, payload)

        self.engine.run_process(
            dram_b.wait_u32(dst_offset, lambda word: word == payload, 100),
            name="ntb-observe")
        return (self.engine.now_ps - start) / 1000.0
