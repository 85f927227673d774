"""Flag-based completion notification over TCA puts.

PEACH2 has no remote-completion message: a receiver learns that a put
arrived because PCIe posted writes on one path stay ordered, so a small
*flag* store issued after the payload cannot pass it (§III-F's PIO model;
the paper's own latency experiment polls exactly this way).

:class:`FlagPool` manages a region of flag words in a node's DMA buffer:
senders get the flag's TCA-global address, receivers wait on monotonic
sequence numbers.  This is the synchronization idiom all the mini-apps
use, factored out.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import ConfigError
from repro.tca.comm import TCAComm
from repro.tca.subcluster import TCASubCluster

#: Bytes reserved per flag word (cache-line spaced to avoid false sharing).
FLAG_STRIDE = 64


class FlagPool:
    """Per-node flag words carved from the top of each DMA buffer."""

    def __init__(self, cluster: TCASubCluster, comm: TCAComm,
                 num_flags: int = 64):
        if num_flags < 1:
            raise ConfigError("need at least one flag")
        self.cluster = cluster
        self.comm = comm
        self.num_flags = num_flags
        self.region_bytes = num_flags * FLAG_STRIDE
        # Offsets inside each node's DMA buffer, just below the usable top.
        self._base: Dict[int, int] = {}
        for node_id in range(cluster.num_nodes):
            driver = cluster.driver(node_id)
            base = driver.usable_dma_bytes - self.region_bytes
            if base < 0:
                raise ConfigError("DMA buffer too small for the flag pool")
            self._base[node_id] = base
        self._sequence: Dict[Tuple[int, int], int] = {}

    def _offset(self, node_id: int, flag: int) -> int:
        if not 0 <= flag < self.num_flags:
            raise ConfigError(f"flag {flag} out of range")
        return self._base[node_id] + flag * FLAG_STRIDE

    def global_address(self, node_id: int, flag: int) -> int:
        """TCA-global address a *sender* stores the sequence number to."""
        driver = self.cluster.driver(node_id)
        return self.comm.host_global(
            node_id, driver.dma_buffer(self._offset(node_id, flag)))

    def next_sequence(self, node_id: int, flag: int) -> int:
        """Sender side: the value to store for this notification."""
        key = (node_id, flag)
        self._sequence[key] = self._sequence.get(key, 0) + 1
        return self._sequence[key]

    def signal(self, src_node: int, dst_node: int, flag: int) -> int:
        """Store the next sequence number into the destination's flag.

        Issue this *after* the payload put on the same path; PCIe ordering
        makes the flag arrive last.  Returns the sequence stored.
        """
        sequence = self.next_sequence(dst_node, flag)
        self.cluster.node(src_node).cpu.store_u32(
            self.global_address(dst_node, flag), sequence)
        return sequence

    def wait(self, node_id: int, flag: int, sequence: int):
        """Process: poll the local flag until it reaches ``sequence``."""
        driver = self.cluster.driver(node_id)
        node = driver.node
        yield from node.dram.wait_u32(
            driver.dma_buffer(self._offset(node_id, flag)),
            lambda word: word >= sequence,
            node.params.calib.driver_poll_interval_ps)
        return node.cpu.read_tsc()
