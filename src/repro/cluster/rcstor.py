"""RCStor: the paper's storage system, as a discrete-event simulation.

One :class:`RCStor` instance couples a cluster shape, a data layout, and an
erasure code.  Ingesting a workload populates the catalog; the three
measurement entry points mirror the paper's evaluation:

* :meth:`measure_normal_reads` — §6.2 "Normal Reads",
* :meth:`measure_degraded_reads` — degraded read times, idle or busy,
* :meth:`run_recovery` — full-disk recovery with the weighted global task
  queue of §5.1, returning makespan and Table 3's bandwidth numbers.

Simulated time uses the disk/network/codec models; *which bytes* move is
dictated by the byte-exact repair plans of :mod:`repro.codes`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Collection
from dataclasses import dataclass

import numpy as np

from repro.cluster.catalog import Catalog, StoredObject
from repro.cluster.codec import DEFAULT_CODEC, CodecModel
from repro.cluster.disk import (
    BACKGROUND,
    FOREGROUND,
    IO_CORRUPT,
    IO_FAILED,
    IO_OK,
    Disk,
)
from repro.cluster.foreground import start_foreground_load
from repro.cluster.network import Fabric, Link, client_link
from repro.cluster.profiles import HelperRead, ProfileCache, RepairProfile
from repro.cluster.topology import Cluster, ClusterConfig, PlacementGroup
from repro.codes import LRCCode, RSCode
from repro.codes.base import ErasureCode
from repro.core.layouts import RS_KIND, Layout
from repro.faults import FaultInjector, FaultPlan
from repro.obs.observer import Observer, get_default_observer
from repro.sim import Environment, SimulationError

MB = 1 << 20

#: Fault-ladder bounds: how many times one repair retries before a recovery
#: task is requeued-or-abandoned, and before a degraded read stops arming
#: the hedge timeout and simply waits its helpers out.
MAX_REPAIR_ATTEMPTS = 5
MAX_HEDGED_ATTEMPTS = 3


@dataclass
class DegradedReadResult:
    """Timing breakdown of one degraded read (Figure 13's three bars).

    ``hedges_fired`` / ``hedge_wins`` count speculative backup read sets
    armed (and won) by the hedging race — both zero unless the read ran
    with a hedge timeout (:mod:`repro.cluster.qos`)."""

    total_time: float
    repair_time: float
    transfer_time: float
    object_size: int
    hedges_fired: int = 0
    hedge_wins: int = 0


@dataclass
class RecoveryReport:
    """Outcome of recovering one failed disk (Figure 9/10 y-axis, Table 3)."""

    makespan: float
    repaired_bytes: int
    n_tasks: int
    disk_bandwidth: float
    network_bandwidth: float
    # Fault-injection outcomes (all zero without a FaultPlan).
    tasks_requeued: int = 0
    tasks_escalated: int = 0
    tasks_abandoned: int = 0
    hedged_retries: int = 0
    # Rack-tier traffic (both zero on the flat single-rack fabric):
    # bytes serialised through ToR uplinks, and through the aggregation
    # link (= bytes that crossed racks).
    tor_bytes: int = 0
    cross_rack_bytes: int = 0

    @property
    def recovery_rate(self) -> float:
        """Bytes repaired per second of makespan."""
        return self.repaired_bytes / self.makespan if self.makespan else 0.0


@dataclass
class _RecoveryTask:
    pg: PlacementGroup
    profile: RepairProfile
    weight: int
    is_rs: bool
    attempts: int = 0


class _Runtime:
    """Per-measurement simulation state (fresh env + resources).

    When an :class:`~repro.obs.Observer` is attached, the runtime registers
    itself as a trace *process* (its sim clock restarts at zero), wires the
    engine hooks, instruments every disk and NIC queue, and offers
    :meth:`span` for recording sim-time intervals on named tracks.
    ``busy`` starts the foreground load on every disk.
    """

    def __init__(self, config: ClusterConfig, seed: int,
                 obs: Observer | None = None, label: str = "run",
                 faults: FaultPlan | None = None, busy: bool = False):
        self.obs = obs
        self.label = label
        self.invariants = getattr(obs, "invariants", None) \
            if obs is not None else None
        self.env = Environment(
            trace_hooks=obs.engine_hooks if obs is not None else None)
        self.pid = obs.tracer.process(label) if obs is not None else 0
        # Telemetry is duck-typed off the observer: a timeline (if armed)
        # names this measurement's sample segment after the trace label.
        timeline = getattr(obs, "timeline", None) if obs is not None else None
        if timeline is not None:
            timeline.set_label(self.env, f"{self.pid}:{label}")
        run = str(self.pid) if obs is not None else None
        self.run = run
        self.disks = [Disk(self.env, config.disk_model, i, obs=obs, run=run)
                      for i in range(config.n_disks)]
        self.fabric = Fabric(self.env, config, obs=obs, run=run)
        self.nics = self.fabric.nics
        self.rng = np.random.default_rng(seed)
        # The fault hooks the repair pipeline reads.  Without a plan (or
        # with an empty one) no injector is built — its constructor
        # registers a ``faults.injected`` counter, which would add a field
        # to the plain metric snapshot — so no disk ever fails, helper
        # reads carry no timeout, and every ladder rung stays cold.
        self.faults: FaultInjector | None = None
        self.failed_disks: set[int] = set()
        self.helper_timeout: float | None = None
        if faults:
            self.faults = FaultInjector(self.env, self.disks, self.nics,
                                        faults, obs=obs,
                                        links=self.fabric.links)
            self.failed_disks = self.faults.failed_disks
            self.helper_timeout = self.faults.helper_timeout
            if obs is not None:
                self.faults.span_cb = (
                    lambda name, start, end, **args:
                    self.span(name, "faults", start, end, **args))
        if busy:
            start_foreground_load(
                self.env, self.disks, seed,
                utilization=config.foreground_utilization,
                mean_read_bytes=config.foreground_read_bytes)

    def on_disk_failure(self, callback) -> None:
        """Subscribe to disk crashes (never called without an injector)."""
        if self.faults is not None:
            self.faults.on_disk_failure(callback)

    def notify_progress(self, fraction: float) -> None:
        """Report completed recovery weight to progress-triggered faults."""
        if self.faults is not None and self.faults.has_progress_events:
            self.faults.notify_progress(fraction)

    def client(self, gbps: float) -> Link:
        """A fresh client edge link.

        Instrumented only on tiered fabrics: the flat-fabric metric
        snapshot is pinned byte-for-byte by the expected-results fixture,
        so client queue metrics may not appear there.
        """
        obs = self.obs if self.fabric.tiered else None
        return client_link(self.env, gbps, obs=obs, run=self.run)

    def span(self, name: str, track: str, start: float, end: float,
             **args) -> None:
        """Record a finished sim-time span on this runtime's timeline."""
        tracer = self.obs.tracer
        tracer.complete(name, self.pid, tracer.track(self.pid, track),
                        start, end, **args)

    def finalize(self) -> None:
        """Fold end-of-measurement resource statistics into the metrics."""
        if self.invariants is not None:
            self.invariants.audit_env(self.env)
        # Audit first (a real leak must still be visible), then close all
        # remaining processes so their resource releases land here rather
        # than at garbage-collection time during a later measurement.
        self.env.close()
        obs = self.obs
        if obs is None:
            return
        now = self.env.now
        run = f"{self.pid}:{self.label}"
        metrics = obs.metrics
        for disk in self.disks:
            if disk.queue.lane is not None:
                disk.queue.lane.publish(now)
            metrics.gauge("disk.utilization", run=run, disk=disk.disk_id
                          ).set(disk.queue.utilization(), now)
        for node, nic in enumerate(self.nics):
            metrics.gauge("nic.utilization", run=run, node=node
                          ).set(nic.queue.utilization(), now)
        metrics.counter("disk.bytes_read", run=run).inc(
            sum(d.bytes_read for d in self.disks))
        metrics.counter("disk.bytes_written", run=run).inc(
            sum(d.bytes_written for d in self.disks))
        metrics.counter("nic.bytes_transferred", run=run).inc(
            sum(n.bytes_transferred for n in self.nics))
        if self.fabric.tiered:
            for rack, tor in enumerate(self.fabric.tors):
                metrics.gauge("tor.utilization", run=run, rack=rack
                              ).set(tor.queue.utilization(), now)
            metrics.gauge("agg.utilization", run=run
                          ).set(self.fabric.agg.queue.utilization(), now)
            metrics.counter("tor.bytes_transferred", run=run).inc(
                sum(t.bytes_transferred for t in self.fabric.tors))
            metrics.counter("agg.bytes_transferred", run=run).inc(
                self.fabric.agg.bytes_transferred)


class RCStor:
    """The storage system under one (layout, code) scheme."""

    def __init__(self, config: ClusterConfig, layout: Layout, code: ErasureCode,
                 codec: CodecModel = DEFAULT_CODEC, ecpipe: bool = False,
                 name: str | None = None, obs: Observer | None = None):
        if code.k != config.k or code.r != config.r:
            raise ValueError(f"code {code.name} does not match cluster "
                             f"({config.k},{config.r})")
        self._obs = obs
        self.config = config
        self.cluster = Cluster(config)
        self.layout = layout
        self.code = code
        self.codec = codec
        self.ecpipe = ecpipe
        self.name = name or f"{layout.name}/{code.name}"
        self.catalog = Catalog(self.cluster, layout)
        self.profiles = ProfileCache(code)
        self.rs_profiles = (self.profiles if isinstance(code, RSCode)
                            else ProfileCache(RSCode(config.k, config.r)))
        self._scalar_rebuild = isinstance(code, (RSCode, LRCCode))

    @property
    def obs(self) -> Observer | None:
        """This system's observer: the one given at construction, else the
        context-scoped default (see :func:`repro.obs.observed`)."""
        return self._obs if self._obs is not None else get_default_observer()

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, sizes) -> list[StoredObject]:
        """Place a batch of objects into the catalog."""
        return self.catalog.ingest(sizes)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _codec_time(self, output_bytes: int, is_rs: bool) -> float:
        if is_rs or self._scalar_rebuild:
            return self.codec.decode_time(output_bytes)
        return self.codec.regenerate_time(output_bytes)

    def _profile(self, cache: ProfileCache, failed_role: int, size: int,
                 inv=None) -> RepairProfile:
        """Fetch a repair profile, byte-conservation-checked when the
        runtime carries an :class:`~repro.analysis.InvariantChecker`."""
        profile = cache.get(failed_role, size)
        if inv is not None:
            inv.check_repair_profile(cache.code, profile)
        return profile

    # ------------------------------------------------------------------
    # Fault ladder (repro.faults)
    # ------------------------------------------------------------------
    def _fault_counter(self, rt: _Runtime, name: str) -> None:
        if rt.obs is not None:
            rt.obs.metrics.counter(name).inc()

    def _escalated(self, rt: _Runtime, meta: dict | None) -> None:
        """Count one recovery task escalated to full decode (degraded
        reads, which carry no ``meta``, are not counted)."""
        if meta is not None:
            meta["tasks_escalated"] += 1
            self._fault_counter(rt, "repair.tasks_escalated")

    @staticmethod
    def _failed_roles(pg: PlacementGroup, failed_disks: set[int],
                      repairing: int) -> set[int]:
        """Roles of ``pg`` on failed disks, other than the one repairing."""
        roles = {pg.role_of(d) for d in failed_disks if d in pg}
        roles.discard(repairing)
        return roles

    def _live_roles(self, profile: RepairProfile,
                    failed_roles: Collection[int]) -> list[int]:
        """Survivor roles: neither being repaired nor crashed."""
        return [r for r in range(self.config.n)
                if r != profile.failed_role and r not in failed_roles]

    def _repick_profile(self, profile: RepairProfile, rotation: int,
                        failed_roles: Collection[int] = ()) -> RepairProfile:
        """Re-target a profile's helper reads onto live survivor roles,
        starting ``rotation`` roles in.

        MDS codes decode from *any* k chunks, so rotating the helper set
        is sound.  Recovery uses it to spread RS-style repairs across all
        survivors (the paper sends n requests and rebuilds from the first
        k responses, §6.1) instead of hammering the first k; the fault
        ladder uses it so retries avoid dead disks and don't re-hit the
        same straggler.
        """
        survivors = self._live_roles(profile, failed_roles)
        start = rotation % len(survivors)
        chosen = [survivors[(start + i) % len(survivors)]
                  for i in range(len(profile.helpers))]
        helpers = tuple(HelperRead(role, h.n_ios, h.nbytes, h.span)
                        for role, h in zip(chosen, profile.helpers))
        return RepairProfile(profile.failed_role, profile.chunk_size,
                             helpers, profile.output_bytes)

    def _decode_fallback(self, profile: RepairProfile,
                         failed_roles: set[int], rotation: int,
                         inv=None) -> RepairProfile | None:
        """Bottom of the ladder: MDS decode from any k live full chunks.

        Returns ``None`` when fewer than k survivors remain — the data is
        genuinely lost (more than r concurrent failures).
        """
        survivors = self._live_roles(profile, failed_roles)
        k = self.config.k
        if len(survivors) < k:
            return None
        start = rotation % len(survivors)
        chosen = [survivors[(start + i) % len(survivors)] for i in range(k)]
        nbytes = profile.output_bytes
        helpers = tuple(HelperRead(r, 1, nbytes, nbytes) for r in chosen)
        decode = RepairProfile(profile.failed_role, nbytes, helpers, nbytes)
        if inv is not None:
            inv.check_decode_profile(decode, k)
        return decode

    def _fallback_profile(self, profile: RepairProfile, is_rs: bool,
                          failed_roles: set[int], rotation: int, inv=None
                          ) -> tuple[RepairProfile | None, bool]:
        """One rung down the ladder for a profile with dead helpers.

        While enough survivors remain for the current plan shape, helpers
        are re-picked onto live roles (sound for any-k MDS reads, and for a
        regenerating profile whose d-survivor set is intact).  A
        regenerating profile that lost a helper is below its repair
        threshold and falls to full RS-style decode.  Returns
        ``(profile, is_rs)``; profile is ``None`` when unrecoverable.
        """
        survivors = self._live_roles(profile, failed_roles)
        if len(survivors) >= len(profile.helpers):
            return self._repick_profile(profile, rotation, failed_roles), is_rs
        return self._decode_fallback(profile, failed_roles, rotation,
                                     inv), True

    def _helper_reads(self, rt: _Runtime, pg: PlacementGroup,
                      profile: RepairProfile, is_rs: bool, priority: int,
                      failed_disks: set[int], attempts: int = 0,
                      meta: dict | None = None):
        """Sub-generator: the fault ladder — drive one repair's helper
        reads until a full read set lands.

        Every recovery task and every unhedged degraded read takes this
        path.  Without an injector no disk fails and no timeout is armed,
        so it is one all-of over the profile's reads.  Otherwise
        dead helpers re-pick (or escalate to RS decode below the
        regenerating threshold); hedge timeouts interrupt the unfinished
        reads — cancelling their queued disk requests rather than leaking
        the grants — rotate the helper set and, for regenerating profiles
        that keep timing out, force the decode fallback so one straggler
        cannot stall a d-of-d read; failed and corrupt reads simply retry.
        After :data:`MAX_HEDGED_ATTEMPTS` the hedge timeout is disarmed and
        the read waits its helpers out.

        ``meta`` is a recovery task's bookkeeping: with it, escalations
        and hedged retries are counted there and the ladder gives up after
        :data:`MAX_REPAIR_ATTEMPTS`.  Returns ``(profile, is_rs,
        attempts)`` — the (possibly rewritten) profile that was satisfied,
        whether it decodes RS-style, and the failed tries so far; profile
        is ``None`` when the PG lost more than r chunks or the attempts
        ran out.
        """
        env = rt.env
        rotation = attempts + 1
        while True:
            failed_roles = self._failed_roles(pg, failed_disks,
                                              profile.failed_role)
            if any(h.role in failed_roles for h in profile.helpers):
                was_rs = is_rs
                profile, is_rs = self._fallback_profile(
                    profile, is_rs, failed_roles, rotation, rt.invariants)
                rotation += 1
                if profile is None:
                    return None, is_rs, attempts
                if is_rs and not was_rs:
                    self._escalated(rt, meta)
            procs = [env.process(rt.disks[pg.disk_ids[h.role]].read(
                h.n_ios, h.nbytes, priority, span=h.span))
                for h in profile.helpers]
            all_done = env.all_of(procs)
            timeout = (rt.helper_timeout if attempts < MAX_HEDGED_ATTEMPTS
                       else None)
            if timeout is None:
                statuses = yield all_done
            else:
                yield env.any_of([all_done, env.timeout(timeout)])
                statuses = ([proc.value for proc in procs]
                            if all_done.triggered else None)
            if statuses is None:
                status = "timeout"
                for proc in procs:
                    if not proc.triggered:
                        proc.interrupt("helper-timeout")
            elif IO_FAILED in statuses:
                status = "failed"
            elif IO_CORRUPT in statuses:
                status = "corrupt"
            else:
                return profile, is_rs, attempts
            attempts += 1
            if meta is not None and attempts >= MAX_REPAIR_ATTEMPTS:
                return None, is_rs, attempts
            if status == "timeout":
                if meta is not None:
                    meta["hedged_retries"] += 1
                self._fault_counter(rt, "repair.hedged_retries")
                rotation += 1
                # Disks may have crashed while the helper reads were in
                # flight; the snapshot from the top of the loop is stale.
                failed_roles = self._failed_roles(pg, failed_disks,
                                                  profile.failed_role)
                if is_rs or self._scalar_rebuild:
                    profile = self._repick_profile(profile, rotation,
                                                   failed_roles)
                elif attempts >= 2:
                    decode = self._decode_fallback(profile, failed_roles,
                                                   rotation, rt.invariants)
                    if decode is not None:
                        profile, is_rs = decode, True
                        self._escalated(rt, meta)
            else:
                self._fault_counter(rt, f"repair.{status}_reads")

    def _degraded_helper_reads(self, rt: _Runtime, pg: PlacementGroup,
                               profile: RepairProfile, is_rs: bool,
                               priority: int, hedge_s: float | None,
                               result: DegradedReadResult):
        """Sub-generator: a degraded read's helper reads — the hedging
        race when ``hedge_s`` is set, else the fault ladder.  Returns
        ``(profile, is_rs)`` of the read set that satisfied the repair."""
        if hedge_s is None:
            return (yield from self._degraded_ladder(rt, pg, profile, is_rs,
                                                     priority))
        profile, is_rs, fired, won = yield from self._hedged_helper_reads(
            rt, pg, profile, is_rs, priority, hedge_s)
        result.hedges_fired += fired
        result.hedge_wins += won
        return profile, is_rs

    def _degraded_ladder(self, rt: _Runtime, pg: PlacementGroup,
                         profile: RepairProfile, is_rs: bool, priority: int):
        """Sub-generator: the fault ladder under a degraded read's policy
        — losing more than r chunks of one PG is fatal."""
        profile, is_rs, _ = yield from self._helper_reads(
            rt, pg, profile, is_rs, priority, rt.failed_disks)
        if profile is None:
            raise self._unrecoverable()
        return profile, is_rs

    def _unrecoverable(self) -> SimulationError:
        return SimulationError("degraded read unrecoverable: more than "
                               f"r={self.config.r} failures in one PG")

    # ------------------------------------------------------------------
    # Hedged degraded reads (repro.cluster.qos)
    # ------------------------------------------------------------------
    def _fanout_race(self, rt: _Runtime, pg: PlacementGroup, primary: list,
                     spare_reads: list, priority: int):
        """Sub-generator: fan out spare-survivor legs and take the first
        ``len(primary)`` responses of the widened set.

        The any-k property of MDS reads is what makes this sound: every
        leg delivers an equally useful strip, so the read completes when
        *any* ``len(primary)`` of the primary + spare legs land — the
        slowest primary leg no longer gates the read.  The unfinished
        losers are interrupted, which cancels their queued disk requests
        rather than leaking the grants (reads hold their requests as
        context managers).  Returns 1 when a spare leg displaced a
        primary one (the hedge won), else 0.
        """
        env = rt.env
        backup = [env.process(rt.disks[pg.disk_ids[role]].read(
            n_ios, nbytes, priority, span=span))
            for role, n_ios, nbytes, span in spare_reads]
        legs = primary + backup
        need = len(primary)
        while sum(1 for leg in legs if leg.triggered) < need:
            yield env.any_of([leg for leg in legs if not leg.triggered])
        won = 0 if all(leg.triggered for leg in primary) else 1
        for leg in legs:
            if not leg.triggered:
                leg.interrupt("hedge-loser")
        return won

    def _hedged_helper_reads(self, rt: _Runtime, pg: PlacementGroup,
                             profile: RepairProfile, is_rs: bool,
                             priority: int, hedge_s: float):
        """Sub-generator: one profile's helper reads with a hedging race.

        The backup read set is armed only if the primary set is still in
        flight ``hedge_s`` seconds in.  Scalar / RS profiles fan out onto
        the spare survivor roles and take any-k (:meth:`_fanout_race`).
        A regenerating profile already reads all d = n-1 survivors, so no
        spare legs exist: the hedge races a full RS-style decode read set
        instead — structurally expensive, which is exactly the
        regenerating trade-off.  Returns ``(profile, is_rs, fired, won)``
        with the profile whose read set satisfied the repair, so gather
        volume and decode flavour follow the winner.
        """
        env = rt.env
        primary = [env.process(rt.disks[pg.disk_ids[h.role]].read(
            h.n_ios, h.nbytes, priority, span=h.span))
            for h in profile.helpers]
        all_done = env.all_of(primary)
        yield env.any_of([all_done, env.timeout(hedge_s)])
        if all_done.triggered:
            return profile, is_rs, 0, 0
        if is_rs or self._scalar_rebuild:
            used = {h.role for h in profile.helpers}
            spares = [r for r in self._live_roles(profile, set())
                      if r not in used]
            if not spares:
                yield all_done
                return profile, is_rs, 0, 0
            shape = profile.helpers[0]
            won = yield from self._fanout_race(
                rt, pg, primary,
                [(r, shape.n_ios, shape.nbytes, shape.span) for r in spares],
                priority)
            return profile, is_rs, 1, won
        fallback = self._decode_fallback(profile, set(), 1, rt.invariants)
        backup = [env.process(rt.disks[pg.disk_ids[h.role]].read(
            h.n_ios, h.nbytes, priority, span=h.span))
            for h in fallback.helpers]
        backup_done = env.all_of(backup)
        yield env.any_of([all_done, backup_done])
        losers = backup if all_done.triggered else primary
        for leg in losers:
            if not leg.triggered:
                leg.interrupt("hedge-loser")
        if all_done.triggered:
            return profile, is_rs, 1, 0
        return fallback, True, 1, 1

    # ------------------------------------------------------------------
    # Normal reads
    # ------------------------------------------------------------------
    def _normal_read_proc(self, rt: _Runtime, obj: StoredObject, client: Link,
                          priority: int = FOREGROUND):
        """Read an intact object: disk fetch(es) overlapped with transfer."""
        env = rt.env
        placement = self.catalog.placement_of(obj)
        started = env.event()
        if self.layout.spans_disks:
            pg = self.cluster.pgs[obj.pg_id]
            per_role: dict[int, int] = {}
            for chunk in placement.chunks:
                per_role[chunk.disk_index] = (per_role.get(chunk.disk_index, 0)
                                              + chunk.data_bytes)
            reads = [env.process(self._batch_read(
                rt.disks[pg.disk_ids[role]], 1, nbytes, started, priority))
                for role, nbytes in per_role.items()]
        else:
            disk = rt.disks[self.catalog.disk_of(obj)]
            reads = [env.process(self._batch_read(
                disk, max(1, placement.n_chunks), obj.size, started,
                priority))]

        def transfer_proc():
            yield started
            yield env.timeout(self.config.repair_rpc_overhead)
            yield env.process(client.transfer(obj.size))

        xfer = env.process(transfer_proc())
        yield env.all_of(reads + [xfer])

    def _batch_read(self, disk: Disk, n_ios: int, nbytes: int, started,
                    priority: int = FOREGROUND):
        req = disk.queue.request(priority)
        yield req
        if not started.triggered:
            started.succeed()
        try:
            yield disk.env.timeout(disk.model.read_time(n_ios, nbytes))
        finally:
            disk.queue.release(req)
        disk.count_read(n_ios, nbytes)

    def measure_normal_reads(self, objects: list[StoredObject], busy: bool = False,
                             seed: int = 0, warmup: float = 2.0) -> list[float]:
        """Simulate normal reads; returns per-read seconds."""
        rt = _Runtime(self.config, seed, self.obs,
                      label=f"{self.name}/normal-reads", busy=busy)
        times: list[float] = []

        def driver():
            if busy:
                yield rt.env.timeout(warmup)
            for obj in objects:
                client = rt.client(self.config.client_gbps)
                t0 = rt.env.now
                yield rt.env.process(self._normal_read_proc(rt, obj, client))
                times.append(rt.env.now - t0)
                if rt.obs is not None:
                    rt.span("normal_read", "reads", t0, rt.env.now,
                            size=obj.size)

        rt.env.run(rt.env.process(driver()))
        rt.finalize()
        return times

    # ------------------------------------------------------------------
    # Degraded reads
    # ------------------------------------------------------------------
    @staticmethod
    def _overlaps(chunks, byte_range):
        """Per chunk: bytes of it inside ``byte_range`` (object data bytes).

        With no range, every chunk transfers all of its data.  Range reads
        start at the first related chunk and discard unneeded bytes (§5.2
        "Range Access Support").
        """
        if byte_range is None:
            return [c.data_bytes for c in chunks]
        start, length = byte_range
        end = start + length
        out = []
        pos = 0
        for chunk in chunks:
            lo = max(pos, start)
            hi = min(pos + chunk.data_bytes, end)
            out.append(max(0, hi - lo))
            pos += chunk.data_bytes
        return out

    def _gather_node(self, rt: _Runtime, pg: PlacementGroup,
                     node: int) -> int:
        """Where a repair's helper bytes funnel.

        On the flat fabric this is ``node`` itself — the paper's design,
        where any HTTP server reconstructs and rack locality does not
        exist.  On tiered fabrics the gather is mapped onto one of the
        stripe's member nodes (locality-aware repair placement): the
        reconstruction worker runs where part of the stripe already
        lives, so packing policies keep helper traffic behind the
        stripe's own ToRs.  The mapping consumes no extra randomness.
        """
        if not rt.fabric.tiered:
            return node
        node_of = self.config.node_of
        members = sorted({node_of(d) for d in pg.disk_ids})
        return members[node % len(members)]

    def _helper_sources(self, rt: _Runtime, pg: PlacementGroup,
                        profile: RepairProfile):
        """Per-helper ``(node, nbytes)`` gather legs for a tiered fabric.

        ``None`` on a flat fabric — legs are never built there, so the
        gather degenerates to the historical destination-NIC transfer and
        stays byte-identical to the pre-fabric model.
        """
        if not rt.fabric.tiered:
            return None
        node_of = self.config.node_of
        return [(node_of(pg.disk_ids[h.role]), h.nbytes)
                for h in profile.helpers]

    def _degraded_single_disk_proc(self, rt: _Runtime, obj: StoredObject,
                                   client: Link, result: DegradedReadResult,
                                   byte_range: tuple[int, int] | None = None,
                                   priority: int = FOREGROUND,
                                   hedge_s: float | None = None):
        """Geometric / Contiguous: repair chunks in order, pipeline the
        transfer of chunk i with the repair of chunk i+1 (Figure 8).

        ``priority`` is the disk-queue lane of the helper reads (tenant
        lanes, :mod:`repro.cluster.qos`); ``hedge_s`` arms the hedging
        race per chunk.  Both default to the historical behaviour, so the
        pinned measurement paths are byte-identical."""
        env = rt.env
        pg = self.cluster.pgs[obj.pg_id]
        failed_role = obj.role
        placement = self.catalog.placement_of(obj)
        overlaps = self._overlaps(placement.chunks, byte_range)
        chunks = [(c, n) for c, n in zip(placement.chunks, overlaps) if n > 0]
        ready = [env.event() for _ in chunks]
        server_node = self._gather_node(
            rt, pg, int(rt.rng.integers(self.config.n_nodes)))

        def repair_proc():
            t0 = env.now
            for i, (chunk, overlap) in enumerate(chunks):
                is_rs = chunk.code_kind == RS_KIND
                # RS-coded fronts repair at byte granularity; regenerating
                # chunks must repair the whole chunk and discard.
                size = overlap if is_rs else chunk.stored_bytes
                cache = self.rs_profiles if is_rs else self.profiles
                profile = self._profile(cache, failed_role, size,
                                        rt.invariants)
                t_read = env.now
                profile, is_rs = yield from self._degraded_helper_reads(
                    rt, pg, profile, is_rs, priority, hedge_s, result)
                if rt.obs is not None:
                    rt.span("helper_reads", "repair", t_read, env.now,
                            chunk=i, nbytes=profile.total_read_bytes)
                if not self.ecpipe:
                    t_gather = env.now
                    yield env.process(rt.fabric.gather(
                        server_node, profile.total_read_bytes,
                        self._helper_sources(rt, pg, profile)))
                    if rt.obs is not None:
                        rt.span("gather", "repair", t_gather, env.now,
                                chunk=i, nbytes=profile.total_read_bytes)
                codec_time = self._codec_time(profile.output_bytes, is_rs)
                rpc = self.config.repair_rpc_overhead
                yield env.timeout(codec_time + rpc)
                if rt.obs is not None:
                    now = env.now
                    rt.span("decode", "repair", now - rpc - codec_time,
                            now - rpc, chunk=i, nbytes=profile.output_bytes)
                    rt.span("locate", "repair", now - rpc, now, chunk=i)
                ready[i].succeed()
            result.repair_time = env.now - t0
            if rt.obs is not None:
                rt.span("repair", "repair", t0, env.now, chunks=len(chunks))

        def transfer_proc():
            t_busy = 0.0
            for i, (chunk, overlap) in enumerate(chunks):
                yield ready[i]
                t0 = env.now
                yield env.process(client.transfer(overlap))
                t_busy += env.now - t0
                if rt.obs is not None:
                    rt.span("transfer", "transfer", t0, env.now,
                            chunk=i, nbytes=overlap)
            result.transfer_time = t_busy

        env.process(repair_proc())
        yield env.process(transfer_proc())

    def _degraded_striped_proc(self, rt: _Runtime, obj: StoredObject,
                               failed_role: int, client: Link,
                               result: DegradedReadResult,
                               byte_range: tuple[int, int] | None = None,
                               priority: int = FOREGROUND,
                               hedge_s: float | None = None):
        """Stripe / Stripe-Max: fetch surviving strips in parallel, repair
        the failed disk's strips, pipeline the client transfer in strip
        order (§6.1's n-requests-first-k-responses rebuild).

        ``priority`` / ``hedge_s`` as in
        :meth:`_degraded_single_disk_proc` — defaults keep the pinned
        measurement paths byte-identical."""
        env = rt.env
        pg = self.cluster.pgs[obj.pg_id]
        placement = self.catalog.placement_of(obj, failed_role)
        overlaps = self._overlaps(placement.chunks, byte_range)
        range_has_missing = any(
            n > 0 and c.needs_repair
            for c, n in zip(placement.chunks, overlaps))
        chunks = [(c, n) for c, n in zip(placement.chunks, overlaps)
                  if n > 0 or (c.needs_repair is False and self._scalar_rebuild
                               and range_has_missing)]
        server_node = self._gather_node(
            rt, pg, int(rt.rng.integers(self.config.n_nodes)))

        available_done: dict[int, object] = {}
        per_role: dict[int, int] = {}
        for chunk, overlap in chunks:
            if not chunk.needs_repair:
                # Scalar row rebuild needs the *whole* surviving strips, not
                # just the requested overlap (Table 4: Stripe reads the full
                # object for a degraded range read).
                nbytes = (chunk.data_bytes
                          if self._scalar_rebuild and range_has_missing
                          else overlap)
                per_role[chunk.disk_index] = (per_role.get(chunk.disk_index, 0)
                                              + nbytes)
        for role, nbytes in per_role.items():
            available_done[role] = env.process(
                rt.disks[pg.disk_ids[role]].read(1, nbytes, priority))

        missing = [c for c, n in chunks if c.needs_repair and n > 0]
        missing_bytes = sum(c.stored_bytes for c in missing)
        repaired = env.event()

        def repair_proc():
            t0 = env.now
            if missing:
                gathered_bytes = missing_bytes
                decode_rs = False
                t_read = env.now
                if self._scalar_rebuild:
                    # Rebuild rows from strips already being fetched plus
                    # parity strips covering the failed disk's share.
                    extra = [env.process(rt.disks[pg.disk_ids[self.config.k]].read(
                        1, missing_bytes, priority))]
                    if isinstance(self.code, LRCCode):
                        # Non-MDS: needs k+1 responses (§6.1) — one more read.
                        local = self.config.k + self.code.group_of(failed_role)
                        extra.append(env.process(rt.disks[pg.disk_ids[local]].read(
                            1, missing_bytes, priority)))
                    primary = list(available_done.values()) + extra
                    if hedge_s is None:
                        statuses = yield env.all_of(primary)
                        if any(s != IO_OK for s in statuses):
                            # A strip read hit a crashed disk or
                            # corruption: fall to MDS row decode from any
                            # k live strips.
                            decode = self._decode_fallback(
                                RepairProfile(failed_role, missing_bytes, (),
                                              missing_bytes),
                                self._failed_roles(pg, rt.failed_disks,
                                                   failed_role),
                                1, rt.invariants)
                            if decode is None:
                                raise self._unrecoverable()
                            yield from self._degraded_ladder(
                                rt, pg, decode, True, priority)
                    else:
                        # Hedge the strip fetch: fan out legs on the spare
                        # parity roles and take the first len(primary)
                        # responses — any-k MDS row decode accepts any
                        # equally-sized set of live strips.
                        all_done = env.all_of(primary)
                        yield env.any_of([all_done, env.timeout(hedge_s)])
                        if not all_done.triggered:
                            used = set(per_role) | {self.config.k}
                            if isinstance(self.code, LRCCode):
                                used.add(self.config.k
                                         + self.code.group_of(failed_role))
                            spares = [r for r in range(self.config.n)
                                      if r != failed_role and r not in used]
                            if spares:
                                won = yield from self._fanout_race(
                                    rt, pg, primary,
                                    [(r, 1, missing_bytes, None)
                                     for r in spares], priority)
                                result.hedges_fired += 1
                                result.hedge_wins += won
                            else:
                                yield all_done
                    if rt.obs is not None:
                        rt.span("helper_reads", "repair", t_read, env.now,
                                nbytes=missing_bytes)
                    if not self.ecpipe:
                        t_gather = env.now
                        sources = None
                        if rt.fabric.tiered:
                            # Scalar row rebuild hauls the surviving strips
                            # plus the row-parity strip to the repair server.
                            node_of = self.config.node_of
                            sources = [(node_of(pg.disk_ids[role]), nbytes)
                                       for role, nbytes in per_role.items()]
                            sources.append(
                                (node_of(pg.disk_ids[self.config.k]),
                                 missing_bytes))
                        yield env.process(rt.fabric.gather(
                            server_node, missing_bytes, sources))
                        if rt.obs is not None:
                            rt.span("gather", "repair", t_gather, env.now,
                                    nbytes=missing_bytes)
                else:
                    # Regenerating code: batched sub-chunk reads from d helpers.
                    batch: dict[int, list[int]] = {}
                    for chunk in missing:
                        prof = self._profile(self.profiles, failed_role,
                                             chunk.stored_bytes,
                                             rt.invariants)
                        for h in prof.helpers:
                            acc = batch.setdefault(h.role, [0, 0, 0])
                            acc[0] += h.n_ios
                            acc[1] += h.nbytes
                            acc[2] += h.span
                    # One synthetic profile for the whole batch, so the
                    # hedge or the fault ladder can race / re-pick /
                    # escalate it whole.
                    batch_profile = RepairProfile(
                        failed_role, missing_bytes,
                        tuple(HelperRead(role, ios, nbytes, span)
                              for role, (ios, nbytes, span) in batch.items()),
                        missing_bytes)
                    winner, winner_rs = yield from \
                        self._degraded_helper_reads(
                            rt, pg, batch_profile, False, priority, hedge_s,
                            result)
                    # Only a hedge win switches the codec to RS decode; a
                    # ladder escalation keeps the regenerating codec time
                    # (the pinned chaos-tail Stripe rows depend on it).
                    decode_rs = winner_rs and hedge_s is not None
                    gathered_bytes = winner.total_read_bytes
                    gather_sources = self._helper_sources(rt, pg, winner)
                    if rt.obs is not None:
                        rt.span("helper_reads", "repair", t_read, env.now,
                                nbytes=gathered_bytes)
                    t_gather = env.now
                    yield env.process(rt.fabric.gather(
                        server_node, gathered_bytes, gather_sources))
                    if rt.obs is not None:
                        rt.span("gather", "repair", t_gather, env.now,
                                nbytes=gathered_bytes)
                codec_time = self._codec_time(missing_bytes, is_rs=decode_rs)
                rpc = self.config.repair_rpc_overhead
                yield env.timeout(codec_time + rpc)
                if rt.obs is not None:
                    now = env.now
                    rt.span("decode", "repair", now - rpc - codec_time,
                            now - rpc, nbytes=missing_bytes)
                    rt.span("locate", "repair", now - rpc, now)
            repaired.succeed()
            result.repair_time = env.now - t0
            if rt.obs is not None:
                rt.span("repair", "repair", t0, env.now,
                        missing_bytes=missing_bytes)

        def transfer_proc():
            t_busy = 0.0
            for i, (chunk, overlap) in enumerate(chunks):
                if overlap == 0:
                    continue
                if chunk.needs_repair:
                    yield repaired
                elif not available_done[chunk.disk_index].triggered:
                    yield available_done[chunk.disk_index]
                t0 = env.now
                yield env.process(client.transfer(overlap))
                t_busy += env.now - t0
                if rt.obs is not None:
                    rt.span("transfer", "transfer", t0, env.now,
                            chunk=i, nbytes=overlap)
            result.transfer_time = t_busy

        env.process(repair_proc())
        yield env.process(transfer_proc())

    def degraded_read_candidates(self, failed_disk: int) -> list[StoredObject]:
        """Objects rendered (partially) unavailable by a disk failure."""
        if self.layout.spans_disks:
            return self.catalog.objects_striped_over(failed_disk)
        return self.catalog.objects_on_disk(failed_disk)

    def _degraded_read(self, rt: _Runtime, idx: int, obj: StoredObject,
                       failed_disk: int | None, client: Link,
                       result: DegradedReadResult,
                       byte_range: tuple[int, int] | None = None,
                       priority: int = FOREGROUND,
                       hedge_s: float | None = None):
        """The degraded-read generator for the ``idx``-th read of a read
        loop, dispatched on the layout (see :meth:`measure_degraded_reads`
        for the ``failed_disk=None`` sampling mode); ``priority`` and
        ``hedge_s`` pass through to the layout's read process."""
        if not self.layout.spans_disks:
            return self._degraded_single_disk_proc(rt, obj, client, result,
                                                   byte_range, priority,
                                                   hedge_s)
        if failed_disk is not None:
            failed_role = self.cluster.pgs[obj.pg_id].role_of(failed_disk)
        elif byte_range is not None:
            # A ranged read is only degraded if it touches the failed
            # strip: fail the first strip the range overlaps.
            probe = self.catalog.placement_of(obj, 0)
            overlaps = self._overlaps(probe.chunks, byte_range)
            failed_role = next((c.disk_index for c, n in
                                zip(probe.chunks, overlaps) if n > 0),
                               idx % self.config.k)
        else:
            failed_role = idx % self.config.k
        return self._degraded_striped_proc(rt, obj, failed_role, client,
                                           result, byte_range, priority,
                                           hedge_s)

    def measure_degraded_reads(self, objects: list[StoredObject],
                               failed_disk: int | None,
                               busy: bool = False, seed: int = 0,
                               warmup: float = 2.0,
                               ranges: list[tuple[int, int]] | None = None,
                               faults: FaultPlan | None = None,
                               ) -> list[DegradedReadResult]:
        """Sequentially measure degraded reads of the given unavailable
        objects (optionally under foreground load).

        ``failed_disk=None`` fails each object's *own* disk (rotating over
        the data roles of its PG for striped layouts) — at paper scale a
        single failed disk holds objects of every size, and this sampling
        mode reproduces that coverage in scaled-down populations.

        ``ranges`` (optional, one ``(offset, length)`` per object) measures
        ranged degraded reads instead of whole-object reads (§5.2).

        ``faults`` (optional) replays a :class:`~repro.faults.FaultPlan`
        during the measurement; helper reads then run the fault ladder
        (hedged retry on timeout, re-pick / decode on crashes).
        """
        if ranges is not None and len(ranges) != len(objects):
            raise ValueError("need one byte range per object")
        rt = _Runtime(self.config, seed, self.obs,
                      label=f"{self.name}/degraded-reads", faults=faults,
                      busy=busy)
        results: list[DegradedReadResult] = []
        # Timeline telemetry: handles hoisted out of the driver generator
        # (OBS601) and gated on an armed timeline so plain snapshots are
        # unchanged.
        h_latency = c_reads = None
        if self.obs is not None and getattr(self.obs, "timeline", None) \
                is not None:
            h_latency = self.obs.metrics.histogram("degraded.read_latency")
            c_reads = self.obs.metrics.counter("degraded.reads_completed")

        def driver():
            if busy:
                yield rt.env.timeout(warmup)
            for idx, obj in enumerate(objects):
                byte_range = ranges[idx] if ranges is not None else None
                client = rt.client(self.config.client_gbps)
                result = DegradedReadResult(0.0, 0.0, 0.0, obj.size)
                t0 = rt.env.now
                yield rt.env.process(self._degraded_read(
                    rt, idx, obj, failed_disk, client, result, byte_range))
                result.total_time = rt.env.now - t0
                results.append(result)
                if h_latency is not None:
                    c_reads.inc()
                    h_latency.observe(result.total_time)
                if rt.obs is not None:
                    rt.span("degraded_read", "degraded-reads", t0, rt.env.now,
                            size=obj.size, repair_s=result.repair_time,
                            transfer_s=result.transfer_time)

        rt.env.run(rt.env.process(driver()))
        rt.finalize()
        return results

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _build_recovery_tasks(self, failed_disk: int,
                              inv=None) -> list[_RecoveryTask]:
        """Chunk-granularity recovery tasks, weighted by size (§5.1).

        Small chunks are batched toward 4 MB requests — the paper's
        explicit optimization for the striped baselines, which coalesces
        scalar-code reads into sequential I/O but leaves regenerating-code
        sub-chunk reads scattered ("the underlying data layout remains
        unchanged").
        """
        tasks: list[_RecoveryTask] = []
        unit = self.config.recovery_weight_unit
        batch_target = 4 * MB
        scalar = self.code.alpha == 1
        rotation = 0
        for pg, role, chunks, small in self.catalog.recovery_inventory(failed_disk):
            for size, count in sorted(chunks.items()):
                per_batch = max(1, batch_target // size) if size < batch_target else 1
                remaining = count
                while remaining > 0:
                    m = min(per_batch, remaining)
                    remaining -= m
                    profile = self.profiles.get(role, size).scaled(m)
                    if scalar and m > 1:
                        # Batched scalar reads are contiguous on disk.
                        profile = RepairProfile(
                            profile.failed_role, profile.chunk_size,
                            tuple(type(h)(h.role, 1, h.nbytes, h.nbytes)
                                  for h in profile.helpers),
                            profile.output_bytes)
                    if scalar and isinstance(self.code, RSCode):
                        profile = self._repick_profile(profile, rotation)
                        rotation += 1
                    if inv is not None:
                        inv.check_repair_profile(self.code, profile)
                    weight = max(1, round(profile.output_bytes / unit))
                    tasks.append(_RecoveryTask(pg, profile, weight, is_rs=False))
            # RS-coded small-size-bucket, recovered in ~4 MB pieces.
            remaining = small
            while remaining > 0:
                piece = min(batch_target, remaining)
                remaining -= piece
                profile = self._repick_profile(
                    self.rs_profiles.get(role, piece), rotation)
                rotation += 1
                if inv is not None:
                    inv.check_repair_profile(self.rs_profiles.code, profile)
                weight = max(1, round(piece / unit))
                tasks.append(_RecoveryTask(pg, profile, weight, is_rs=True))
        return tasks

    def _finish_recovery(self, rt: _Runtime, meta: dict,
                         makespan: float) -> RecoveryReport:
        """Common tail of every recovery entry point: task-conservation
        check, runtime finalization, and the report."""
        if rt.invariants is not None:
            rt.invariants.check_task_conservation(meta)
        rt.finalize()
        total_disk_bytes = sum(d.total_bytes for d in rt.disks)
        total_nic_bytes = sum(nic.bytes_transferred for nic in rt.nics)
        return RecoveryReport(
            makespan=makespan,
            repaired_bytes=meta["repaired_bytes"],
            n_tasks=meta["n_tasks"],
            disk_bandwidth=(total_disk_bytes / makespan / self.config.n_disks
                            if makespan else 0.0),
            network_bandwidth=(total_nic_bytes / makespan / self.config.n_nodes
                               if makespan else 0.0),
            tasks_requeued=meta["tasks_requeued"],
            tasks_escalated=meta["tasks_escalated"],
            tasks_abandoned=meta["tasks_abandoned"],
            hedged_retries=meta["hedged_retries"],
            tor_bytes=sum(t.bytes_transferred for t in rt.fabric.tors),
            cross_rack_bytes=(rt.fabric.agg.bytes_transferred
                              if rt.fabric.agg is not None else 0),
        )

    def run_node_recovery(self, node: int, seed: int = 0,
                          faults: FaultPlan | None = None) -> RecoveryReport:
        """Recover every disk of a failed node.

        Placement groups span distinct nodes, so a whole-node failure costs
        each affected PG exactly one disk — recovery stays on the optimal
        single-failure plans, just with ``disks_per_node`` times the work.
        """
        if not 0 <= node < self.config.n_nodes:
            raise ValueError(f"node {node} out of range")
        first = node * self.config.disks_per_node
        failed = list(range(first, first + self.config.disks_per_node))
        rt = _Runtime(self.config, seed, self.obs,
                      label=f"{self.name}/node-recovery", faults=faults)
        tasks: list[_RecoveryTask] = []
        for disk in failed:
            tasks.extend(self._build_recovery_tasks(disk, rt.invariants))
        done, meta = self._run_task_set(rt, deque(tasks), set(failed))
        rt.env.run(done)
        return self._finish_recovery(rt, meta, rt.env.now)

    def _build_multi_failure_tasks(self, failed_disks: list[int],
                                   inv=None) -> list[_RecoveryTask]:
        """Tasks for PGs hit by more than one failure (§2.2).

        Multi-erasure repair cannot use the regenerating sub-chunk trick:
        Clay's decode needs the *full* chunks of every survivor, and scalar
        MDS codes need any k full chunks.  Single-failure PGs still use the
        optimal single-node profiles.
        """
        failed = set(failed_disks)
        tasks: list[_RecoveryTask] = []
        unit = self.config.recovery_weight_unit
        batch_target = 4 * MB
        for disk in failed_disks:
            for pg, role, chunks, small in self.catalog.recovery_inventory(disk):
                pg_failed_roles = sorted(pg.role_of(d) for d in failed
                                         if d in pg)
                if len(pg_failed_roles) <= 1:
                    continue  # handled by the single-failure path
                # The outer loop visits this PG once per failed disk it
                # holds; each visit rebuilds that disk's own buckets.
                survivors = [r for r in range(self.config.n)
                             if r not in pg_failed_roles]
                if self._scalar_rebuild or self.code.alpha == 1:
                    helper_roles = survivors[: self.config.k]
                else:
                    helper_roles = survivors  # Clay decode reads everyone
                for size, count in sorted(chunks.items()):
                    per_batch = max(1, batch_target // size) \
                        if size < batch_target else 1
                    remaining = count
                    while remaining > 0:
                        m = min(per_batch, remaining)
                        remaining -= m
                        total = size * m
                        helpers = tuple(HelperRead(r, max(1, m if size >= batch_target else 1),
                                                   total, total)
                                        for r in helper_roles)
                        profile = RepairProfile(role, total, helpers, total)
                        if inv is not None:
                            inv.check_decode_profile(profile,
                                                     len(helper_roles))
                        weight = max(1, round(total / unit))
                        tasks.append(_RecoveryTask(pg, profile, weight,
                                                   is_rs=True))
                if small:
                    helpers = tuple(HelperRead(r, 1, small, small)
                                    for r in survivors[: self.config.k])
                    profile = RepairProfile(role, small, helpers, small)
                    if inv is not None:
                        inv.check_decode_profile(
                            profile, len(survivors[: self.config.k]))
                    tasks.append(_RecoveryTask(pg, profile,
                                               max(1, round(small / unit)),
                                               is_rs=True))
        return tasks

    def run_multi_failure_recovery(self, failed_disks: list[int],
                                   seed: int = 0,
                                   faults: FaultPlan | None = None
                                   ) -> RecoveryReport:
        """Recover several concurrently failed disks.

        PGs that lost one disk recover with the optimal single-failure
        plans; PGs that lost several fall back to full MDS decode (the
        dominant-cost case the paper notes is rare — >98% of failures are
        single).
        """
        failed = set(failed_disks)
        if len(failed) < 1:
            raise ValueError("need at least one failed disk")
        if len(failed) > self.config.r:
            raise ValueError(f"more than r={self.config.r} concurrent "
                             "failures cannot be guaranteed recoverable")
        rt = _Runtime(self.config, seed, self.obs,
                      label=f"{self.name}/multi-failure-recovery",
                      faults=faults)
        tasks: list[_RecoveryTask] = []
        # Single-failure PGs: optimal plans, skipping multi-failure PGs.
        for disk in failed_disks:
            for task in self._build_recovery_tasks(disk, rt.invariants):
                other = [d for d in failed if d != disk and d in task.pg]
                if not other:
                    tasks.append(task)
        tasks += self._build_multi_failure_tasks(sorted(failed), rt.invariants)
        done, meta = self._run_task_set(rt, deque(tasks), failed)
        rt.env.run(done)
        return self._finish_recovery(rt, meta, rt.env.now)

    def _start_recovery(self, rt: _Runtime, failed_disk: int,
                        priority: int = BACKGROUND, weight_limit: int | None = None):
        """Arm the §5.1 recovery engine in an existing runtime.

        Returns ``(all_servers_done_event, meta)`` where meta carries the
        task count and repaired byte total.
        """
        tasks = deque(self._build_recovery_tasks(failed_disk, rt.invariants))
        return self._run_task_set(rt, tasks, {failed_disk}, priority,
                                  weight_limit)

    def _recover_task(self, rt: _Runtime, task: _RecoveryTask,
                      server_node: int, priority: int,
                      failed_disks: set[int], pick_replacement, meta):
        """Process: one §5.1 recovery task — helper reads down the fault
        ladder, gather at the server, decode, write to a replacement.

        Returns ``("done", None)``, ``("requeue", task)`` — the
        replacement write hit a freshly crashed disk, so the task goes
        back to the global queue and a new replacement is picked — or
        ``("abandon", None)`` when the PG lost more than r chunks or the
        task keeps failing past :data:`MAX_REPAIR_ATTEMPTS`.
        """
        env = rt.env
        track = f"server-{server_node}"
        t_task = env.now
        profile, is_rs, attempts = yield from self._helper_reads(
            rt, task.pg, task.profile, task.is_rs, priority, failed_disks,
            task.attempts, meta)
        if profile is None:
            return ("abandon", None)
        if rt.obs is not None:
            rt.span("helper_reads", track, t_task, env.now,
                    nbytes=profile.total_read_bytes)
        t_gather = env.now
        yield env.process(rt.fabric.gather(
            self._gather_node(rt, task.pg, server_node),
            profile.total_read_bytes,
            self._helper_sources(rt, task.pg, profile)))
        if rt.obs is not None:
            rt.span("gather", track, t_gather, env.now,
                    nbytes=profile.total_read_bytes)
        codec_time = self._codec_time(profile.output_bytes, is_rs)
        rpc = self.config.repair_rpc_overhead
        yield env.timeout(codec_time + rpc)
        if rt.obs is not None:
            rt.span("decode", track, env.now - rpc - codec_time,
                    env.now - rpc, nbytes=profile.output_bytes)
            rt.span("locate", track, env.now - rpc, env.now)
        dest = pick_replacement(task.pg)
        t_write = env.now
        wstatus = yield env.process(dest.write(1, profile.output_bytes,
                                               priority))
        if wstatus != IO_OK:
            self._fault_counter(rt, "repair.failed_writes")
            if attempts + 1 >= MAX_REPAIR_ATTEMPTS:
                return ("abandon", None)
            return ("requeue", _RecoveryTask(task.pg, profile, task.weight,
                                             is_rs, attempts + 1))
        if rt.obs is not None:
            rt.span("write", track, t_write, env.now,
                    nbytes=profile.output_bytes, disk=dest.disk_id)
            rt.span("recovery_task", track, t_task, env.now,
                    weight=task.weight, nbytes=profile.output_bytes)
        return ("done", None)

    def _run_task_set(self, rt: _Runtime, tasks: deque,
                      failed_disks: set[int], priority: int = BACKGROUND,
                      weight_limit: int | None = None):
        """Drive a queue of recovery tasks through the HTTP servers — the
        paper's §5.1 engine.

        Each task runs :meth:`_recover_task`, whose helper reads take the
        fault ladder.  The fault hooks only act when the runtime carries
        a :class:`~repro.faults.FaultInjector`: a disk crash mid-run
        escalates affected queued tasks in place (the multi-failure path's
        full decode), and completed weight drives the injector's
        progress-triggered events.
        """
        env = rt.env
        meta = {"n_tasks": len(tasks),
                "repaired_bytes": sum(t.profile.output_bytes for t in tasks),
                "tasks_completed": 0, "tasks_requeued": 0,
                "tasks_abandoned": 0, "tasks_escalated": 0,
                "hedged_retries": 0}
        limit = (weight_limit if weight_limit is not None
                 else self.config.recovery_global_weight)
        # Timeline telemetry: handles hoisted out of the server loops (the
        # OBS601 lint forbids registry lookups in there) and gated on an
        # armed timeline, so plain runs register no extra metrics and their
        # snapshots stay byte-identical.
        timeline_on = (rt.obs is not None
                       and getattr(rt.obs, "timeline", None) is not None)
        c_tasks = c_bytes = None
        if timeline_on:
            c_tasks = rt.obs.metrics.counter("recovery.tasks_completed")
            c_bytes = rt.obs.metrics.counter("recovery.bytes_repaired")
        flightrec = (getattr(rt.obs, "flightrec", None)
                     if rt.obs is not None else None)
        replacement_rr = [0]

        def pick_replacement(pg: PlacementGroup) -> Disk:
            n_disks = self.config.n_disks
            while True:
                cand = replacement_rr[0] % n_disks
                replacement_rr[0] += 1
                if cand not in failed_disks and cand not in pg:
                    return rt.disks[cand]

        total_weight = sum(t.weight for t in tasks) or 1
        done_weight = [0]

        failed_disks |= rt.failed_disks

        def on_crash(disk_id: int) -> None:
            # Second failure mid-recovery: escalate affected queued tasks
            # to the multi-failure path (full MDS decode / re-picked
            # helpers); running tasks handle it inline.
            failed_disks.add(disk_id)
            for i in range(len(tasks)):
                t = tasks[i]
                if disk_id not in t.pg:
                    continue
                failed_roles = self._failed_roles(t.pg, failed_disks,
                                                  t.profile.failed_role)
                if not any(h.role in failed_roles for h in t.profile.helpers):
                    continue
                new_profile, new_rs = self._fallback_profile(
                    t.profile, t.is_rs, failed_roles, i + 1, rt.invariants)
                if new_profile is None:
                    continue  # the runner will abandon it
                tasks[i] = _RecoveryTask(t.pg, new_profile, t.weight,
                                         new_rs, t.attempts)
                if new_rs and not t.is_rs:
                    self._escalated(rt, meta)

        rt.on_disk_failure(on_crash)

        def server_loop(server_node: int):
            weight_used = [0]
            wake = [env.event()]

            def serve(task: _RecoveryTask):
                status, requeued = yield env.process(self._recover_task(
                    rt, task, server_node, priority, failed_disks,
                    pick_replacement, meta))
                if status == "done":
                    meta["tasks_completed"] += 1
                    if c_tasks is not None:
                        c_tasks.inc()
                        c_bytes.inc(task.profile.output_bytes)
                    done_weight[0] += task.weight
                elif status == "requeue":
                    meta["tasks_requeued"] += 1
                    self._fault_counter(rt, "repair.tasks_requeued")
                    # Requeue before releasing weight: this server is still
                    # alive to re-check the queue, so the task cannot be
                    # stranded after every other server has exited.
                    tasks.append(requeued)
                else:
                    meta["tasks_abandoned"] += 1
                    meta["repaired_bytes"] -= task.profile.output_bytes
                    self._fault_counter(rt, "repair.tasks_abandoned")
                    if flightrec is not None:
                        flightrec.incident(
                            "repair_task_abandoned", sim_time=env.now,
                            server_node=server_node, weight=task.weight,
                            attempts=task.attempts,
                            nbytes=task.profile.output_bytes)
                    done_weight[0] += task.weight
                rt.notify_progress(done_weight[0] / total_weight)
                weight_used[0] -= task.weight
                old, wake[0] = wake[0], env.event()
                old.succeed()

            while True:
                if not tasks:
                    if weight_used[0] == 0:
                        return
                    yield wake[0]
                elif weight_used[0] + tasks[0].weight <= limit or weight_used[0] == 0:
                    task = tasks.popleft()
                    weight_used[0] += task.weight
                    env.process(serve(task))
                    # Yield the queue so servers pull round-robin rather than
                    # one server draining the queue up to its weight cap.
                    yield env.timeout(0)
                else:
                    yield wake[0]

        servers = [env.process(server_loop(node))
                   for node in range(self.config.n_nodes)]
        return env.all_of(servers), meta

    def run_recovery(self, failed_disk: int, busy: bool = False,
                     seed: int = 0,
                     weight_limit: int | None = None,
                     faults: FaultPlan | None = None) -> RecoveryReport:
        """Recover all PGs of a failed disk; §5.1's paralleled recovery.

        Each of the ``n_nodes`` HTTP servers pulls tasks from the global
        queue under its weight cap; a task reads from the surviving disks
        of its PG (background priority), gathers over the server NIC,
        regenerates, and writes to a replacement disk.

        ``faults`` (optional) replays a :class:`~repro.faults.FaultPlan`
        during the run: the fault ladder then fires (hedged helper reads,
        requeue on replacement-disk death), a second failure mid-recovery
        escalates affected PGs to the multi-failure decode, and the report
        carries the requeue/escalate/abandon counts.
        """
        rt = _Runtime(self.config, seed, self.obs,
                      label=f"{self.name}/recovery", faults=faults, busy=busy)
        done, meta = self._start_recovery(rt, failed_disk,
                                          weight_limit=weight_limit)
        rt.env.run(done)
        return self._finish_recovery(rt, meta, rt.env.now)

    def measure_degraded_reads_during_recovery(
            self, objects: list[StoredObject], failed_disk: int,
            recovery_priority: int = BACKGROUND,
            seed: int = 0, faults: FaultPlan | None = None
            ) -> tuple[list[DegradedReadResult], RecoveryReport]:
        """Degraded reads issued *while* recovery runs (§5.1 IO Scheduling).

        With ``recovery_priority=BACKGROUND`` (RCStor's design) foreground
        degraded reads jump the per-disk queues ahead of recovery I/O; with
        ``FOREGROUND`` recovery competes head-on — the ablation for the
        paper's priority-lane design.
        """
        rt = _Runtime(self.config, seed, self.obs,
                      label=f"{self.name}/degraded-during-recovery",
                      faults=faults)
        env = rt.env
        recovery_done, meta = self._start_recovery(rt, failed_disk,
                                                   priority=recovery_priority)
        results: list[DegradedReadResult] = []

        def reader():
            for idx, obj in enumerate(objects):
                client = rt.client(self.config.client_gbps)
                result = DegradedReadResult(0.0, 0.0, 0.0, obj.size)
                t0 = env.now
                # Sampling mode (``failed_disk=None``): striped objects
                # fail data role ``idx % k`` rather than the recovering
                # disk's role.
                yield env.process(self._degraded_read(
                    rt, idx, obj, None, client, result))
                result.total_time = env.now - t0
                results.append(result)
                if rt.obs is not None:
                    rt.span("degraded_read", "degraded-reads", t0, env.now,
                            size=obj.size, repair_s=result.repair_time,
                            transfer_s=result.transfer_time)

        reads = env.process(reader())
        env.run(env.all_of([recovery_done, reads]))
        return results, self._finish_recovery(rt, meta, env.now)
