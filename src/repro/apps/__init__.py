"""Mini-applications built on the TCA communication API.

These exercise the library the way the paper's target applications
(particle physics, astrophysics, life sciences — §II) would: low-latency
neighbour exchange on the sub-cluster ring.
"""

from repro.apps.pingpong import pingpong_rtt_ns
from repro.collectives import ring_allgather
from repro.apps.halo import HaloExchange2D
from repro.apps.gpu_stencil import DualGPUStencil, GPUStencil

__all__ = ["pingpong_rtt_ns", "ring_allgather", "HaloExchange2D",
           "GPUStencil", "DualGPUStencil"]
