"""Foreground (busy-system) load generation (§6.2 Methodology).

The paper's "busy" experiments run 15 x 8 clients issuing normal reads
continuously, leaving per-disk bandwidth fluctuating between ~30 and
~100 MB/s on HDDs.  We reproduce that as a per-disk Poisson stream of
reads targeting a configurable utilization; reads are foreground-priority,
so they contend with measured degraded reads and pre-empt queued recovery
I/O.

The reads are plain data, not processes: each disk's queue carries a
:class:`~repro.sim.lane.ForegroundLane` that serves pre-drawn
``(arrival, service)`` items by the Lindley recursion, so the engine
schedules events only for the real requests that queue with them.  Each
disk draws its interarrivals and its read sizes from two dedicated
:class:`~numpy.random.SeedSequence` children, in fixed-size blocks; the
values depend only on ``(seed, disk id)`` — not on the block size, on how
far the run consumes the stream, or on how many disks exist.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.cluster.disk import Disk, DiskModel
from repro.sim import Environment
from repro.sim.lane import Block, ForegroundLane

MB = 1 << 20

#: Spawn-key tag of the foreground streams under a measurement's seed, so
#: they never overlap another consumer of the same root seed.
STREAM_TAG = 0xF09E

#: Items drawn per block.  Values do not depend on it (see module doc).
BLOCK = 1024


def stream_seeds(seed: int, disk_id: int) -> tuple[np.random.SeedSequence,
                                                  np.random.SeedSequence]:
    """The (arrivals, sizes) ``SeedSequence`` children of one disk."""
    return tuple(np.random.SeedSequence(seed, spawn_key=(STREAM_TAG, disk_id,
                                                         stream))
                 for stream in (0, 1))


def foreground_blocks(model: DiskModel, arrivals: np.random.SeedSequence,
                      sizes: np.random.SeedSequence, mean_interarrival: float,
                      mean_bytes: int, mean_ios: int, start: float = 0.0,
                      block: int = BLOCK) -> Iterator[Block]:
    """Endless blocks of one disk's foreground reads.

    Interarrivals are exponential; sizes jitter from half to double the
    mean, log-uniform, with I/O counts scaled to match.  Arrival times are
    a running sum seeded with ``start``, accumulated left to right across
    blocks, so block boundaries never change a value.
    """
    arrival_rng = np.random.default_rng(arrivals)
    size_rng = np.random.default_rng(sizes)
    last = start
    while True:
        gaps = arrival_rng.exponential(mean_interarrival, block)
        times = np.add.accumulate(np.concatenate(([last], gaps)))[1:]
        last = float(times[-1])
        nbytes = (mean_bytes * 2.0 ** size_rng.uniform(-1.0, 1.0, block)
                  ).astype(np.int64)
        n_ios = np.maximum(1, np.rint(mean_ios * nbytes / mean_bytes)
                           ).astype(np.int64)
        service = n_ios * model.seek_time + nbytes / model.read_bandwidth
        yield times, service, nbytes, n_ios


def start_foreground_load(env: Environment, disks: list[Disk], seed: int,
                          utilization: float = 0.5,
                          mean_read_bytes: int = 16 * MB,
                          mean_ios_per_read: int | None = None) -> None:
    """Arm every disk's queue with its foreground lane.

    The lane's items queue at priority 0, which is
    :data:`~repro.cluster.disk.FOREGROUND`.  ``seed`` is the measurement's
    seed; each disk's streams are its :func:`stream_seeds` children.  The
    load runs for the lifetime of ``env`` and costs no events of its own.
    """
    if not 0 < utilization < 1:
        raise ValueError("utilization must be in (0, 1)")
    if mean_ios_per_read is None:
        mean_ios_per_read = max(1, mean_read_bytes // (16 * MB) + 1)
    for disk in disks:
        service = disk.model.read_time(mean_ios_per_read, mean_read_bytes)
        arrivals, sizes = stream_seeds(seed, disk.disk_id)
        blocks = foreground_blocks(disk.model, arrivals, sizes,
                                   service / utilization, mean_read_bytes,
                                   mean_ios_per_read, start=env.now)
        ForegroundLane(disk.queue, blocks,
                       speed=lambda disk=disk: disk.speed_factor)
