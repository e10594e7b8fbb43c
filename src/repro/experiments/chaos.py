"""Chaos experiments: repair behaviour under injected faults.

Two experiments built on :mod:`repro.faults`:

* **chaos-tail** — degraded-read tail latency (p50/p99) versus straggler
  severity, across schemes.  Pipelined schemes (Geometric/Contiguous)
  funnel every chunk repair through the straggling helpers, so their p99
  degrades with severity until the hedge timeout starts routing retries
  around the slow disks; striped schemes show the same effect through
  their batched reads.
* **chaos-recovery** — the recovery timeline when a second disk of an
  affected placement group dies at 50% progress.  Affected tasks escalate
  to the multi-failure decode path; the report's requeue / escalate /
  abandon counters and the task-conservation invariant show that no task
  is lost.

Both accept an explicit fault plan (CLI ``--faults plan.json``), and
chaos-tail's straggler grid can be overridden with ``--param
factors=F1,F2``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.experiments.common import (
    build_system,
    cluster_config,
    format_table,
    nearest_candidates,
    request_size_targets,
    sample_workload,
    setting_by_name,
)
from repro.faults import FaultEvent, FaultPlan
from repro.runner import (
    ExperimentResult,
    Scenario,
    canonical_json,
    rows_of,
    scenario,
    typed_rows,
)

#: Schemes contrasted under chaos: pipelined repair (Geometric,
#: Contiguous) versus striped rebuilds (Stripe = Clay, RS).
TAIL_SCHEMES = ("Geo-4M", "Con-64M", "Stripe", "RS")
RECOVERY_SCHEMES = ("Geo-4M", "Con-64M", "Stripe", "RS")

#: Straggler slow-factors swept by chaos-tail (1 = fault-free baseline).
STRAGGLER_FACTORS = (1.0, 4.0, 16.0)

#: Hedge timeout armed for faulted measurements, in seconds.  Roughly 4x
#: the W1 p50 helper-read time: rarely fires fault-free, quickly routes
#: around a 4x straggler.
HELPER_TIMEOUT = 0.05


@dataclass(frozen=True)
class TailRow:
    scheme: str
    straggler_factor: float
    p50_ms: float
    p99_ms: float
    hedged: bool


@dataclass(frozen=True)
class SecondFailureRow:
    scheme: str
    makespan_s: float
    baseline_s: float  # same recovery without the second failure
    slowdown: float
    tasks_escalated: int
    tasks_requeued: int
    tasks_abandoned: int


def _tail_plan(config, factor: float, seed: int,
               faults: dict | None) -> FaultPlan:
    """The fault plan for one chaos-tail grid point."""
    if faults is not None:
        return FaultPlan.from_doc(faults)
    if factor <= 1.0:
        return FaultPlan()
    return FaultPlan.random_stragglers(
        config.n_disks, fraction=0.1, factor=factor, seed=seed + 17,
        helper_timeout=HELPER_TIMEOUT)


def compute_tail(setting: str, scheme: str, factor: float,
                 n_objects: int = 1000, n_requests: int = 40,
                 faults: dict | None = None, seed: int = 0) -> dict:
    """Scenario compute: one (scheme, straggler severity) grid point."""
    ws = setting_by_name(setting)
    sizes = sample_workload(ws, n_objects, seed)
    targets = request_size_targets(ws, sizes, n_requests, seed + 1)
    config = cluster_config(ws, n_objects)
    system = build_system(scheme, ws, config)
    system.ingest(sizes)
    requests = nearest_candidates(system.catalog.objects, targets)
    plan = _tail_plan(config, factor, seed, faults)
    results = system.measure_degraded_reads(requests, None, seed=seed + 2,
                                            faults=plan)
    times_ms = 1000 * np.array([r.total_time for r in results])
    row = TailRow(
        scheme=scheme,
        straggler_factor=factor,
        p50_ms=float(np.percentile(times_ms, 50)),
        p99_ms=float(np.percentile(times_ms, 99)),
        hedged=plan.helper_timeout is not None,
    )
    return {"rows": rows_of([row])}


#: Per-server weight cap used by chaos-recovery.  The default global cap
#: dispatches every task up front at these scales, so a mid-run failure
#: would find nothing queued; throttling keeps the queue populated until
#: the second failure lands — the regime the escalation path is for.
RECOVERY_WEIGHT_LIMIT = 8


def _pg_buddy(system, disk: int) -> int:
    """The disk sharing the most placement groups with ``disk`` — a second
    failure there hits the largest share of recovery tasks."""
    shared = Counter(d for pg in system.cluster.pgs if disk in pg
                     for d in pg.disk_ids if d != disk)
    return max(sorted(shared), key=shared.__getitem__)


def compute_second_failure(setting: str, scheme: str, n_objects: int = 1000,
                           faults: dict | None = None,
                           seed: int = 0) -> dict:
    """Scenario compute: recovery of disk 0 with a second failure at 50%
    progress (a PG-sharing disk, so tasks actually escalate)."""
    ws = setting_by_name(setting)
    sizes = sample_workload(ws, n_objects, seed)
    config = cluster_config(ws, n_objects)
    system = build_system(scheme, ws, config)
    system.ingest(sizes)
    failed_disk = 0
    baseline = system.run_recovery(failed_disk, seed=seed + 1,
                                   weight_limit=RECOVERY_WEIGHT_LIMIT)
    if faults is not None:
        plan = FaultPlan.from_doc(faults)
    else:
        # Crash the heaviest PG-sharing buddy halfway through the
        # baseline timeline: a timed event, so it lands mid-read even for
        # schemes whose completed-weight progress is back-loaded.
        plan = FaultPlan(events=(
            FaultEvent("disk_crash", at=0.5 * baseline.makespan,
                       disk=_pg_buddy(system, failed_disk)),))
    report = system.run_recovery(failed_disk, seed=seed + 1,
                                 weight_limit=RECOVERY_WEIGHT_LIMIT,
                                 faults=plan)
    row = SecondFailureRow(
        scheme=scheme,
        makespan_s=report.makespan,
        baseline_s=baseline.makespan,
        slowdown=(report.makespan / baseline.makespan
                  if baseline.makespan else 0.0),
        tasks_escalated=report.tasks_escalated,
        tasks_requeued=report.tasks_requeued,
        tasks_abandoned=report.tasks_abandoned,
    )
    return {"rows": rows_of([row])}


def tail_scenarios(setting: str = "W1", n_objects: int | None = None,
                   n_requests: int | None = None,
                   factors: tuple[float, ...] | None = None,
                   faults: dict | None = None) -> list[Scenario]:
    n = n_objects if n_objects is not None else 1000
    reqs = n_requests if n_requests is not None else 40
    grid = factors if factors is not None else STRAGGLER_FACTORS
    group = canonical_json(["chaos-tail", setting, n, reqs])
    return [scenario(compute_tail, name=f"{s}@x{f:g}", seed_group=group,
                     setting=setting, scheme=s, factor=f, n_objects=n,
                     n_requests=reqs, faults=faults)
            for s in TAIL_SCHEMES for f in grid]


def second_failure_scenarios(setting: str = "W1",
                             n_objects: int | None = None,
                             faults: dict | None = None) -> list[Scenario]:
    n = n_objects if n_objects is not None else 1000
    group = canonical_json(["chaos-recovery", setting, n])
    return [scenario(compute_second_failure, name=s, seed_group=group,
                     setting=setting, scheme=s, n_objects=n, faults=faults)
            for s in RECOVERY_SCHEMES]


def render_tail(results: list[ExperimentResult]) -> str:
    rows = typed_rows(results, TailRow)
    return format_table(
        ["Scheme", "Straggler", "p50 (ms)", "p99 (ms)", "Hedged"],
        [[r.scheme,
          "none" if r.straggler_factor <= 1.0 else f"x{r.straggler_factor:g}",
          round(r.p50_ms), round(r.p99_ms),
          "yes" if r.hedged else "no"]
         for r in rows])


def render_second_failure(results: list[ExperimentResult]) -> str:
    rows = typed_rows(results, SecondFailureRow)
    return format_table(
        ["Scheme", "Makespan (s)", "Baseline (s)", "Slowdown",
         "Escalated", "Requeued", "Abandoned"],
        [[r.scheme, f"{r.makespan_s:.2f}", f"{r.baseline_s:.2f}",
          f"{r.slowdown:.2f}x", r.tasks_escalated, r.tasks_requeued,
          r.tasks_abandoned]
         for r in rows])
