"""TCA-native collectives over a sub-cluster (§I, §III-H, §V).

The paper's motivating claim is that once remote GPU/host memory is just
addresses in the extended PCIe space, sub-cluster collectives stop being
an MPI software-stack problem: a collective is a schedule of RDMA puts
plus flag stores whose ordering PCIe itself guarantees.  This package is
that claim made executable:

* :class:`ChannelScheduler` — per-node arbitration of PEACH2's DMA
  channels: chained-DMA puts are submitted asynchronously and overlap
  across channels (and, on a :data:`~repro.tca.subcluster.DUAL_RING`
  sub-cluster, across both rings);
* :class:`TCACollectives` — ring **allgather**, **reduce-scatter**,
  **allreduce**, **broadcast** and **barrier**, with hierarchical
  variants that exploit the S-coupled dual-ring topology (§III-D);
* module-level one-shot helpers (:func:`ring_allreduce`,
  :func:`ring_reduce_scatter`, :func:`ring_broadcast`,
  :func:`ring_barrier`, :func:`ring_allgather`) that build a context,
  run one self-checking collective, and return the verified buffers.

The E18 experiment (``tca-bench collectives``) runs
:func:`ring_allgather`, and the E20/E21 experiments (``tca-bench
collective-allreduce`` / ``collective-dual-ring``) run this layer; each
races it against the MPI baselines in :mod:`repro.baselines.collectives`.
See ``docs/collectives.md``.
"""

from repro.collectives.channels import ChannelScheduler
from repro.collectives.ring import (TCACollectives, ring_allgather,
                                    ring_allreduce, ring_barrier,
                                    ring_broadcast, ring_reduce_scatter)

__all__ = [
    "ChannelScheduler",
    "TCACollectives",
    "ring_allgather",
    "ring_allreduce",
    "ring_barrier",
    "ring_broadcast",
    "ring_reduce_scatter",
]
