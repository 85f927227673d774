"""Mini-applications built on the TCA communication API.

The PIO ping-pong measures the round trip the paper's target
applications (particle physics, astrophysics, life sciences — §II)
depend on; ``ring_allgather`` is re-exported from
:mod:`repro.collectives`.
"""

from repro.apps.pingpong import pingpong_rtt_ns
from repro.collectives import ring_allgather

__all__ = ["pingpong_rtt_ns", "ring_allgather"]
