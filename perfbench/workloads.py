"""The benchmark's workloads: runner units, traced replays, row checks.

Each workload is a fixed list of scenario units of an existing
experiment, run through :func:`repro.runner.run_scenarios` exactly as
``python -m repro.experiments`` runs them.  Its traced replay repeats
each unit's compute function call by call, so every call into a layer
gets its own span; it must schedule exactly the events the runner's
unit scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checks import (
    FIXTURE,
    FIXTURE_SEED,
    check_frontier_cell,
    check_frontier_grid,
    check_second_failure,
    check_tradeoff_row,
    compare_rows,
    load_fixture_rows,
)
from repro.cluster.qos import serve_open_loop
from repro.experiments import chaos, tradeoff, traffic_frontier
from repro.experiments.common import (
    build_system,
    cluster_config,
    nearest_candidates,
    request_size_targets,
    sample_workload,
    setting_by_name,
)
from repro.faults import FaultEvent, FaultPlan
from repro.runner import Scenario
from repro.traffic import TenantSpec, build_schedule

#: Figure 10 schemes timed by ``degraded-busy-w2``: the paper's scheme
#: and the scalar baseline.  Every fig10 unit pays the same busy
#: warm-up, and all schemes share one seed group, so a subset's rows
#: equal the full grid's rows for those schemes.
FIG10_SCHEMES = ("Geo-128K", "RS")

#: Chaos-recovery schemes timed by ``recovery-w1``: the paper's scheme
#: and the contiguous baseline, both of which escalate tasks when the
#: second disk crashes.  Stripe and RS place ~10x more chunks per
#: object, so at a population large enough to be steady they would
#: take ~18 s each per pass.
RECOVERY_SCHEMES = ("Geo-4M", "Con-64M")

#: Objects ingested per ``recovery-w1`` unit.  From 4000 objects on the
#: cluster has its full 160 placement groups; at 16000 the heavy-tailed
#: W1 population is large enough that its work hardly moves with the
#: seed (211-228 k events over root seeds 0, 1, 2 and 7).
RECOVERY_OBJECTS = 16000

#: Arrival rate of the ``open-loop-w1`` cells (near saturation).
OPEN_LOOP_RATE = 160.0


# ----------------------------------------------------------------------
# Traced replays: each mirrors one compute function call by call.
# ----------------------------------------------------------------------
def traced_tradeoff(rec, facts: dict, setting: str, scheme: str,
                    n_objects: int, n_requests: int, include_busy: bool,
                    seed: int) -> None:
    """:func:`repro.experiments.tradeoff.compute_scheme`, spanned."""
    ws = setting_by_name(setting)
    sizes = rec.call("sample_workload", sample_workload, ws, n_objects, seed)
    config = cluster_config(ws, n_objects)
    targets = request_size_targets(ws, sizes, n_requests, seed + 2)
    system = rec.call("build_system", build_system, scheme, ws, config)
    rec.call("ingest", system.ingest, sizes)
    facts["objects_ingested"] += len(sizes)
    rec.call("run_recovery", system.run_recovery, 0)
    if include_busy:
        rec.call("run_recovery", system.run_recovery, 0, busy=True,
                 seed=seed + 1)
    requests = nearest_candidates(system.catalog.objects, targets)
    rec.call("degraded_reads", system.measure_degraded_reads, requests, None)
    if include_busy:
        rec.call("degraded_reads_busy", system.measure_degraded_reads,
                 requests, None, busy=True, seed=seed + 3)
    rec.call("normal_reads", system.measure_normal_reads, requests)


def traced_second_failure(rec, facts: dict, setting: str, scheme: str,
                          n_objects: int, faults: dict | None,
                          seed: int) -> None:
    """:func:`repro.experiments.chaos.compute_second_failure`, spanned."""
    if faults is not None:
        raise ValueError("the traced replay covers only the built-in plan")
    ws = setting_by_name(setting)
    sizes = rec.call("sample_workload", sample_workload, ws, n_objects, seed)
    config = cluster_config(ws, n_objects)
    system = rec.call("build_system", build_system, scheme, ws, config)
    rec.call("ingest", system.ingest, sizes)
    facts["objects_ingested"] += len(sizes)
    baseline = rec.call("run_recovery", system.run_recovery, 0,
                        seed=seed + 1,
                        weight_limit=chaos.RECOVERY_WEIGHT_LIMIT)
    plan = FaultPlan(events=(
        FaultEvent("disk_crash", at=0.5 * baseline.makespan,
                   disk=chaos._pg_buddy(system, 0)),))
    report = rec.call("run_recovery_faulted", system.run_recovery, 0,
                      seed=seed + 1,
                      weight_limit=chaos.RECOVERY_WEIGHT_LIMIT, faults=plan)
    facts["tasks_requeued"] += report.tasks_requeued
    facts["tasks_escalated"] += report.tasks_escalated
    facts["tasks_abandoned"] += report.tasks_abandoned


def traced_cell(rec, facts: dict, scheme: str, arrival_rate: float,
                repair_weight: int, hedged: bool, tenants: tuple,
                n_objects: int, duration: float, hedge_ms: float,
                seed: int,
                zipf_alpha: float = traffic_frontier.DEFAULT_ZIPF_ALPHA
                ) -> None:
    """:func:`repro.experiments.traffic_frontier.compute_cell`, spanned."""
    specs = tuple(TenantSpec.from_doc(doc) for doc in tenants)
    ws = setting_by_name("W1")
    config = cluster_config(ws, n_objects, client_gbps=10.0)
    system = rec.call("build_system", build_system, scheme, ws, config)
    sizes = rec.call("sample_workload", sample_workload, ws, n_objects, seed)
    objects = rec.call("ingest", system.ingest, sizes)
    facts["objects_ingested"] += len(sizes)
    schedule = rec.call("build_schedule", build_schedule, specs,
                        rate=arrival_rate, duration=duration,
                        n_objects=len(objects), seed=seed,
                        zipf_alpha=zipf_alpha)
    report = rec.call(
        "serve_open_loop", serve_open_loop, system, objects, schedule.times,
        schedule.tenant_ids, schedule.object_ids,
        tuple((t.name, t.lane, t.hedge) for t in specs),
        failed_disk=traffic_frontier.busiest_disk(system),
        weight_limit=repair_weight,
        hedge_s=hedge_ms / 1000.0 if hedged else None, seed=seed + 1)
    facts["requests_served"] += report.n_requests
    facts["hedges_fired"] += report.hedges_fired
    facts["hedge_wins"] += report.hedge_wins


#: Scenario compute function -> its traced replay.
TRACED = {
    "repro.experiments.tradeoff:compute_scheme": traced_tradeoff,
    "repro.experiments.chaos:compute_second_failure": traced_second_failure,
    "repro.experiments.traffic_frontier:compute_cell": traced_cell,
}

#: Counters the traced replays accumulate, all starting at zero.
FACTS = ("objects_ingested", "tasks_requeued", "tasks_escalated",
         "tasks_abandoned", "requests_served", "hedges_fired", "hedge_wins")


# ----------------------------------------------------------------------
# Row checks: unit results -> one problem list per unit.
# ----------------------------------------------------------------------
def check_fig10(results, root_seed: int, repo: Path) -> list[list[str]]:
    problems = [[p for row in r.rows for p in check_tradeoff_row(row)]
                for r in results]
    if root_seed == FIXTURE_SEED:
        pinned = load_fixture_rows(repo / FIXTURE, "fig10")
        for found, result in zip(problems, results):
            if result.name not in pinned:
                found.append(f"{result.name}: not in the fixture")
            else:
                found.extend(compare_rows(result.rows, pinned[result.name]))
    return problems


def check_recovery(results, root_seed: int, repo: Path) -> list[list[str]]:
    return [[p for row in r.rows
             for p in check_second_failure(row, r.obs["counters"])]
            for r in results]


def check_open_loop(results, root_seed: int, repo: Path) -> list[list[str]]:
    problems = [check_frontier_cell(r.rows) for r in results]
    grid = check_frontier_grid([row for r in results for row in r.rows])
    if grid:
        for found in problems:
            found.extend(grid)
    return problems


@dataclass(frozen=True)
class Workload:
    """Scenario units, run at the benchmark's ``--seed`` as root seed;
    seed 0 is the one the pinned fixture was made with."""

    name: str
    units: Callable[[], list[Scenario]]
    check: Callable[..., list[list[str]]]


def _fig10_units() -> list[Scenario]:
    return [s.prefixed("fig10") for s in tradeoff.scenarios(
        "W2", n_objects=300, n_requests=3, schemes=list(FIG10_SCHEMES))]


def _recovery_units() -> list[Scenario]:
    return [s.prefixed("chaos-recovery") for s in
            chaos.second_failure_scenarios("W1", n_objects=RECOVERY_OBJECTS)
            if s.params["scheme"] in RECOVERY_SCHEMES]


def _open_loop_units() -> list[Scenario]:
    return [s.prefixed("traffic-frontier") for s in
            traffic_frontier.scenarios(n_objects=300,
                                       rates=(OPEN_LOOP_RATE,))]


WORKLOADS = {
    "degraded-busy-w2": Workload("degraded-busy-w2", _fig10_units,
                                 check_fig10),
    "recovery-w1": Workload("recovery-w1", _recovery_units, check_recovery),
    # Runnable by hand but not listed in BENCHMARK.json: its host cost
    # per root seed spreads too widely to time against a bound (see
    # README.md, "Why open-loop-w1 is not timed").
    "open-loop-w1": Workload("open-loop-w1", _open_loop_units,
                             check_open_loop),
}
