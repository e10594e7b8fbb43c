"""The foreground lane against its references.

* Differential: the per-read-process oracle (``fg_oracle``) fed the same
  pre-drawn items must give every real request — disk reads, raw grants,
  hedged reads cancelled by interrupt, under a disk slowdown and a disk
  crash — the same grant and completion times, and the disks the same
  counters.
* Queueing theory: alone on a disk, the lane is an M/G/1 queue, so its
  mean wait must match Pollaczek–Khinchine and its utilisation the
  offered load.
* Seed discipline of the pre-drawn streams.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from repro.cluster.disk import BACKGROUND, FOREGROUND, IO_OK, Disk, DiskModel
from repro.cluster.foreground import (
    foreground_blocks,
    start_foreground_load,
    stream_seeds,
)
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.sim import Environment, Event
from repro.sim.lane import ForegroundLane
from tests.cluster.fg_oracle import start_oracle_load

MB = 1 << 20
MODEL = DiskModel("t", seek_time=1e-3, read_bandwidth=100 * MB,
                  write_bandwidth=100 * MB)
MEAN_BYTES = 1 * MB
MEAN_IOS = 1
#: Float tolerance of the comparison: the lane sums services with a
#: cumulative sum, the oracle one timeout at a time, so times may differ
#: in the last bits (float64 epsilon times the horizon, with headroom).
TOL = dict(rel=1e-9, abs=1e-12)


def _items(seed: int, n_disks: int, utilization: float, block: int = 64):
    service = MODEL.read_time(MEAN_IOS, MEAN_BYTES)
    out = {}
    for disk_id in range(n_disks):
        arrivals, sizes = stream_seeds(seed, disk_id)
        out[disk_id] = foreground_blocks(
            MODEL, arrivals, sizes, service / utilization, MEAN_BYTES,
            MEAN_IOS, block=block)
    return out


def _at(env, when):
    wake = Event(env)
    wake.triggered = True
    env._schedule_at(when, wake)
    return wake


def _real_ops(seed: int, n_disks: int, horizon: float):
    """A random mix of real requests: (start, disk, kind, priority, arg)."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(60):
        kind = ("read", "raw", "hedge")[int(rng.integers(3))]
        priority = FOREGROUND if rng.random() < 0.5 else BACKGROUND
        size = int(rng.integers(MB // 8, 2 * MB))
        arg = (size, float(rng.uniform(1e-3, 30e-3)))
        ops.append((float(rng.uniform(0.0, horizon)),
                    int(rng.integers(n_disks)), kind, priority, arg))
    return ops


def _run(load: str, seed: int, faults: bool, utilization: float = 0.6,
         n_disks: int = 3, horizon: float = 2.0):
    env = Environment()
    disks = [Disk(env, MODEL, i) for i in range(n_disks)]
    items = _items(seed, n_disks, utilization)
    if load == "lane":
        for disk in disks:
            ForegroundLane(disk.queue, items[disk.disk_id],
                           speed=lambda d=disk: d.speed_factor)
    else:
        start_oracle_load(env, disks, seed, utilization, MEAN_BYTES,
                          MEAN_IOS, items=items)
    if faults:
        FaultInjector(env, disks, [], FaultPlan(events=(
            FaultEvent("disk_slow", at=0.4, disk=0, factor=3.0,
                       duration=0.5),
            FaultEvent("disk_crash", at=1.1, disk=1))))
    log = {}

    def op(idx, start, disk, kind, priority, arg):
        size, hold = arg
        yield _at(env, start)
        if kind == "read":
            status = yield env.process(disk.read(1, size, priority))
            log[idx] = ("read", env.now, status)
        elif kind == "raw":
            req = disk.queue.request(priority)
            yield req
            granted = env.now
            yield env.timeout(hold)
            disk.queue.release(req)
            log[idx] = ("raw", granted, env.now)
        else:
            read = env.process(disk.read(1, size, priority))
            yield env.any_of([read, env.timeout(hold)])
            if not read.triggered:
                read.interrupt("hedge")
                log[idx] = ("hedge-cancelled", env.now, None)
            else:
                log[idx] = ("hedge-won", env.now, read.value)

    for idx, (start, d, kind, priority, arg) in enumerate(
            _real_ops(seed + 1, n_disks, horizon)):
        env.process(op(idx, start, disks[d], kind, priority, arg))
    env.run(until=horizon + 0.5)
    counters = [(d.bytes_read, d.n_read_ios) for d in disks]
    utils = [d.queue.utilization() for d in disks]
    audit = [(d.queue.in_use, d.queue.queue_length) for d in disks]
    return log, counters, utils, audit


@pytest.mark.parametrize("seed,faults", [(s, f) for s in range(6)
                                         for f in (False, True)])
def test_lane_matches_oracle(seed, faults):
    old_log, old_counters, old_utils, _ = _run("oracle", seed, faults)
    new_log, new_counters, new_utils, audit = _run("lane", seed, faults)
    assert old_log.keys() == new_log.keys()
    assert len(new_log) >= 50  # a few background ops may still wait
    for idx in old_log:
        (old_kind, old_t, old_v), (new_kind, new_t, new_v) = \
            old_log[idx], new_log[idx]
        assert old_kind == new_kind, idx
        assert new_t == pytest.approx(old_t, **TOL), (idx, old_kind)
        if old_kind == "raw":
            assert new_v == pytest.approx(old_v, **TOL)
        else:
            assert new_v == old_v, idx
    assert new_counters == old_counters
    assert new_utils == pytest.approx(old_utils, **TOL)
    # Lane items are data, never grants: only unfinished real ops hold
    # or wait on the queues.
    assert sum(held + queued for held, queued in audit) == 60 - len(new_log)


def test_mixes_exercise_every_path():
    """The differential mixes really cover hedging and both faults."""
    log, counters, _, _ = _run("lane", 0, faults=True)
    kinds = {entry[0] for entry in log.values()}
    assert {"read", "raw", "hedge-cancelled", "hedge-won"} <= kinds
    statuses = {entry[2] for entry in log.values() if entry[0] == "read"}
    assert {IO_OK, "failed"} <= statuses
    assert all(b > 0 for b, _ in counters)


def test_crash_drops_pending_items():
    env = Environment()
    disk = Disk(env, MODEL, 0)
    start_foreground_load(env, [disk], 3, utilization=0.9,
                          mean_read_bytes=MEAN_BYTES)
    env.run(until=1.0)
    before = disk.bytes_read
    disk.failed = True
    env.run(until=3.0)
    # Nothing completes after the crash (the read in service fails).
    assert disk.bytes_read <= before
    assert disk.queue.lane.busy_through(3.0) < 1.0 + 0.1


def test_disarmed_queue_has_no_lane():
    env = Environment()
    disk = Disk(env, MODEL, 0)
    assert disk.queue.lane is None
    start_foreground_load(env, [disk], 0)
    assert isinstance(disk.queue.lane, ForegroundLane)
    with pytest.raises(ValueError):
        ForegroundLane(disk.queue, iter(()))


# ----------------------------------------------------------------------
# Pollaczek–Khinchine
# ----------------------------------------------------------------------
def _service_moments(n: int = 1 << 20) -> tuple[float, float]:
    """E[S], E[S²] of the foreground service law, by midpoint quadrature
    over the log-uniform size exponent."""
    u = -1.0 + (np.arange(n) + 0.5) * (2.0 / n)
    nbytes = (MEAN_BYTES * 2.0 ** u).astype(np.int64)
    n_ios = np.maximum(1, np.rint(MEAN_IOS * nbytes / MEAN_BYTES))
    s = n_ios * MODEL.seek_time + nbytes / MODEL.read_bandwidth
    return float(s.mean()), float((s * s).mean())


@pytest.mark.parametrize("rho", [0.3, 0.5, 0.8])
def test_pollaczek_khinchine_mean_wait(rho):
    mean_s, mean_s2 = _service_moments()
    lam = rho / mean_s
    expected_wait = lam * mean_s2 / (2 * (1 - rho))
    horizon = 4000.0
    waits, utils = [], []
    for seed in range(8):
        env = Environment()
        disk = Disk(env, MODEL, 0)
        arrivals, sizes = stream_seeds(seed, 0)
        lane = ForegroundLane(disk.queue, foreground_blocks(
            MODEL, arrivals, sizes, 1 / lam, MEAN_BYTES, MEAN_IOS))
        env.run(until=horizon)
        lane.sync()
        waits.append(lane.wait / lane.served)
        utils.append(disk.queue.utilization())
    for sample, target in ((waits, expected_wait), (utils, rho)):
        mean = float(np.mean(sample))
        # Student-t 99.9% interval over the 8 replications (7 dof).
        half = 5.408 * float(np.std(sample, ddof=1)) / math.sqrt(len(sample))
        assert abs(mean - target) <= half, (rho, mean, target, half)


# ----------------------------------------------------------------------
# Seed discipline
# ----------------------------------------------------------------------
def _first(seed, disk_id, n, block):
    arrivals, sizes = stream_seeds(seed, disk_id)
    blocks = foreground_blocks(MODEL, arrivals, sizes, 0.01, MEAN_BYTES,
                               MEAN_IOS, block=block)
    parts = list(itertools.islice(blocks, -(-n // block)))
    return [np.concatenate([p[k] for p in parts])[:n] for k in range(4)]


def test_streams_do_not_depend_on_block_size():
    ref = _first(7, 2, 1000, 1000)
    for block in (1, 3, 64, 999):
        for got, want in zip(_first(7, 2, 1000, block), ref):
            assert np.array_equal(got, want)


def test_streams_are_per_disk_and_per_seed():
    a = _first(7, 2, 50, 50)[0]
    assert not np.array_equal(a, _first(7, 3, 50, 50)[0])
    assert not np.array_equal(a, _first(8, 2, 50, 50)[0])
    # Arrival and size streams are separate children.
    arrivals, sizes = stream_seeds(7, 2)
    assert arrivals.spawn_key != sizes.spawn_key


def test_streams_do_not_depend_on_disk_count():
    def first_arrivals(n_disks):
        env = Environment()
        disks = [Disk(env, MODEL, i) for i in range(n_disks)]
        start_foreground_load(env, disks, 11)
        env.run(until=0.5)
        return disks[1].bytes_read

    assert first_arrivals(2) == first_arrivals(6)
