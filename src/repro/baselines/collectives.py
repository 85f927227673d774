"""MPI collectives over the point-to-point stack.

Classic algorithms, enough to compare against the TCA-native collectives
in :mod:`repro.collectives`: ring allgather, binomial broadcast, and a
dissemination barrier.  All of them move real bytes through the simulated
HCAs and fabric.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.baselines.mpi import MPIWorld
from repro.errors import ConfigError
from repro.sim.core import Engine


def ring_allgather_mpi(world: MPIWorld, buffers: List[int],
                       block_bytes: int):
    """Process-per-rank ring allgather; returns the list of processes.

    ``buffers[r]`` is rank r's base bus address; slot i (at
    ``base + i*block_bytes``) ends up holding rank i's block, like
    MPI_Allgather with MPI_IN_PLACE.
    """
    n = len(world.endpoints)
    if len(buffers) != n:
        raise ConfigError("one buffer per rank required")
    engine: Engine = world.endpoints[0].engine

    def worker(rank: int):
        right = (rank + 1) % n
        left = (rank - 1) % n
        for step in range(n - 1):
            send_block = (rank - step) % n
            recv_block = (rank - step - 1) % n
            send = world.rank(rank).isend(
                right, buffers[rank] + send_block * block_bytes,
                block_bytes, tag=1000 + step)
            recv = world.rank(rank).irecv(
                left, buffers[rank] + recv_block * block_bytes,
                block_bytes, tag=1000 + step)
            yield send
            yield recv

    return [engine.process(worker(r), name=f"mpi-ag{r}") for r in range(n)]


def ring_allreduce_mpi(world: MPIWorld, buffers: List[int], nbytes: int):
    """Ring allreduce (reduce-scatter + allgather) of uint32 vectors.

    ``buffers[r]`` holds rank r's vector; on completion every rank's
    buffer holds the elementwise modular sum (MPI_SUM over unsigned
    ints).  Receives stage at ``buffers[r] + nbytes`` so a chunk is
    reduced only after it fully arrives.  This is the software baseline
    the E20 experiment races :meth:`repro.collectives.TCACollectives.
    allreduce` against.
    """
    n = len(world.endpoints)
    if len(buffers) != n:
        raise ConfigError("one buffer per rank required")
    if nbytes % (4 * n):
        raise ConfigError(f"vector must split into {n} uint32 chunks")
    chunk = nbytes // n
    engine: Engine = world.endpoints[0].engine

    def reduce_into(rank: int, accum: int, staging: int) -> None:
        dram = world.rank(rank).node.dram
        acc = dram.cpu_read(accum, chunk).view(np.uint32)
        inc = dram.cpu_read(staging, chunk).view(np.uint32)
        dram.cpu_write(accum, (acc + inc).view(np.uint8))

    def worker(rank: int):
        right = (rank + 1) % n
        left = (rank - 1) % n
        staging = buffers[rank] + nbytes
        # Reduce-scatter: after n-1 steps rank r owns chunk (r+1) % n.
        for step in range(n - 1):
            send_chunk = (rank - step) % n
            recv_chunk = (rank - step - 1) % n
            send = world.rank(rank).isend(
                right, buffers[rank] + send_chunk * chunk, chunk,
                tag=3000 + step)
            recv = world.rank(rank).irecv(
                left, staging + step * chunk, chunk, tag=3000 + step)
            yield send
            yield recv
            reduce_into(rank, buffers[rank] + recv_chunk * chunk,
                        staging + step * chunk)
        # Allgather the owned chunks around the ring.
        for step in range(n - 1):
            send_chunk = (rank + 1 - step) % n
            recv_chunk = (rank - step) % n
            send = world.rank(rank).isend(
                right, buffers[rank] + send_chunk * chunk, chunk,
                tag=4000 + step)
            recv = world.rank(rank).irecv(
                left, buffers[rank] + recv_chunk * chunk, chunk,
                tag=4000 + step)
            yield send
            yield recv

    return [engine.process(worker(r), name=f"mpi-ar{r}") for r in range(n)]


def broadcast_mpi(world: MPIWorld, buffers: List[int], nbytes: int,
                  root: int = 0):
    """Binomial-tree broadcast; returns the per-rank processes."""
    n = len(world.endpoints)
    engine: Engine = world.endpoints[0].engine

    def vrank(rank: int) -> int:
        return (rank - root) % n

    def rank_of(v: int) -> int:
        return (v + root) % n

    def worker(rank: int):
        v = vrank(rank)
        # Receive from the parent (clear the lowest set bit).
        if v != 0:
            parent = rank_of(v & (v - 1))
            yield world.rank(rank).irecv(parent, buffers[rank], nbytes,
                                         tag=77)
        # Forward to children.
        mask = 1
        while mask < n:
            if v & (mask - 1) == 0 and v | mask != v and v | mask < n:
                child = rank_of(v | mask)
                yield world.rank(rank).isend(child, buffers[rank], nbytes,
                                             tag=77)
            mask <<= 1

    return [engine.process(worker(r), name=f"mpi-bcast{r}")
            for r in range(n)]


def barrier_mpi(world: MPIWorld, scratch: List[int]):
    """Dissemination barrier (log2(n) rounds of 1-byte messages)."""
    n = len(world.endpoints)
    engine: Engine = world.endpoints[0].engine
    rounds = max(1, math.ceil(math.log2(n)))

    def worker(rank: int):
        for k in range(rounds):
            dist = 1 << k
            to = (rank + dist) % n
            frm = (rank - dist) % n
            send = world.rank(rank).isend(to, scratch[rank], 1,
                                          tag=2000 + k)
            recv = world.rank(rank).irecv(frm, scratch[rank] + 64, 1,
                                          tag=2000 + k)
            yield send
            yield recv

    return [engine.process(worker(r), name=f"mpi-bar{r}") for r in range(n)]
