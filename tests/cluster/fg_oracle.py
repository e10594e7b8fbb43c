"""Reference model of foreground load: one process per read.

This is the pre-lane implementation of :mod:`repro.cluster.foreground`,
kept only as a test oracle: one generator per disk sleeps until each
arrival and spawns a :meth:`~repro.cluster.Disk.read` process for it, so
every foreground read queues as a real request.  Fed the same items as a
:class:`~repro.sim.lane.ForegroundLane`, it must produce the same grant
and completion times for every real request.

:func:`start_oracle_load` has the signature of
:func:`~repro.cluster.foreground.start_foreground_load`, so it can be
patched in for whole-experiment comparisons; ``items`` replaces the
random streams with given blocks (the differential tests), and
``scalar_draws`` reproduces the old model's scalar draw order instead.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.disk import FOREGROUND
from repro.cluster.foreground import foreground_blocks, stream_seeds
from repro.sim import Event

MB = 1 << 20

#: Stream id of the scalar-draw generator (shared by all disks, as the old
#: model shared one generator); no real disk has this id.
SCALAR_STREAM = 1 << 30


def start_oracle_load(env, disks, seed, utilization: float = 0.5,
                      mean_read_bytes: int = 16 * MB,
                      mean_ios_per_read: int | None = None,
                      items=None, scalar_draws: bool = False) -> None:
    """Arm one read-spawning generator per disk.

    ``items`` (optional) maps disk id to an iterator of blocks as yielded
    by :func:`~repro.cluster.foreground.foreground_blocks`.  Without it,
    each disk draws the lane's own streams from ``seed`` — or, with
    ``scalar_draws``, one exponential and one uniform per read from a
    single generator, the draw order of the old model.
    """
    if not 0 < utilization < 1:
        raise ValueError("utilization must be in (0, 1)")
    if mean_ios_per_read is None:
        mean_ios_per_read = max(1, mean_read_bytes // (16 * MB) + 1)
    rng = np.random.default_rng(stream_seeds(seed, SCALAR_STREAM)[0]) \
        if scalar_draws else None
    for disk in disks:
        service = disk.model.read_time(mean_ios_per_read, mean_read_bytes)
        mean_interarrival = service / utilization
        if rng is not None:
            env.process(_scalar_generator(env, disk, rng, mean_interarrival,
                                          mean_read_bytes,
                                          mean_ios_per_read))
            continue
        if items is not None:
            blocks = items[disk.disk_id]
        else:
            arrivals, sizes = stream_seeds(seed, disk.disk_id)
            blocks = foreground_blocks(disk.model, arrivals, sizes,
                                       mean_interarrival, mean_read_bytes,
                                       mean_ios_per_read, start=env.now)
        env.process(_generator(env, disk, blocks))


def _generator(env, disk, blocks):
    for times, _service, nbytes, n_ios in blocks:
        for at, size, ios in zip(times.tolist(), nbytes.tolist(),
                                 n_ios.tolist()):
            # Wake at the exact pre-drawn instant (no now + delta rounding).
            wake = Event(env)
            wake.triggered = True
            env._schedule_at(at, wake)
            yield wake
            env.process(disk.read(ios, size, FOREGROUND))


def _scalar_generator(env, disk, rng, mean_interarrival: float,
                      mean_bytes: int, mean_ios: int):
    while True:
        yield env.timeout(float(rng.exponential(mean_interarrival)))
        # Size jitter: half to double the mean, log-uniform.
        size = int(mean_bytes * 2 ** rng.uniform(-1, 1))
        ios = max(1, int(round(mean_ios * size / mean_bytes)))
        env.process(disk.read(ios, size, FOREGROUND))
