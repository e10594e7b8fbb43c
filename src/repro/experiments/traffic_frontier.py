"""traffic-frontier: latency-SLO vs recovery-speed under open-loop load.

The paper's busy experiments fix client concurrency (closed loop), so
offered load can never exceed capacity and the latency cost of repair
interference stays bounded by construction.  This experiment serves an
*open-loop* arrival stream — Poisson arrivals, Zipf object popularity
over the Figure-7 object population, a three-class tenant mix on the
§5.1 priority lanes — while one failed disk recovers under a swept
global repair weight.  Each cell reports, per tenant, the percentile
latencies against the tenant's SLO next to the recovery makespan of the
same run: the latency-SLO-vs-recovery-speed frontier of each scheme.

The sweep crosses arrival rate (comfortable vs near-saturation) with
repair-queue weight (polite vs aggressive recovery) and with hedging
on/off, so three effects are visible in one grid: open-loop tails
exploding with rate, aggressive recovery buying makespan with foreground
p99, and hedged degraded reads clawing tail latency back without
touching the repair weight.

Every cell of one repetition shares a seed group, so all schemes,
weights and hedging settings face literally the same arrival stream and
popularity map — the comparison is over policies, never over draws.

Not part of ``python -m repro.experiments all`` (that set is pinned
byte-for-byte by ``results/expected_all_300.json.gz``; open-loop serving
was added later and would perturb the fixture).  Run it as
``python -m repro.experiments traffic-frontier [--param rates=R1,R2]
[--param n_tenants=N] [--param hedge_ms=MS]``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cluster.qos import serve_open_loop
from repro.experiments.common import (
    build_system,
    cluster_config,
    format_table,
    sample_workload,
    setting_by_name,
)
from repro.runner import (
    ExperimentResult,
    Scenario,
    canonical_json,
    rows_of,
    scenario,
    typed_rows,
)
from repro.traffic import (
    DEFAULT_TENANTS,
    TenantSpec,
    build_schedule,
    summarize_slo,
    validate_tenants,
)

#: Geometric partitioning vs the scalar baseline on the striped layout.
SCHEMES = ("Geo-4M", "RS")

#: Mean arrivals per second: comfortable vs near-saturation for the W1
#: population (large objects; the hot end of the Zipf map saturates its
#: disks around a few hundred requests per second).
RATES = (40.0, 160.0)

#: Global recovery weight caps (§5.1): polite vs aggressive repair.  At
#: W1 smoke scale a recovered disk's tasks total ~8-10 weight units per
#: server, so the sweep brackets that: weight 1 serialises each server's
#: recovery reads (one task at a time, via the weight_used == 0 escape)
#: while 512 — the production default — admits the whole backlog at once.
WEIGHTS = (1, 512)

#: Hedge timeout for tenants that allow hedged degraded reads.
DEFAULT_HEDGE_MS = 200.0

DEFAULT_DURATION = 6.0
DEFAULT_ZIPF_ALPHA = 0.9

#: The default tenant mix with SLOs scaled to W1's large objects (a mean
#: read is hundreds of milliseconds idle; the stock defaults target
#: small-object latencies and would render attainment as all-zero).
TENANT_SLO_MS = {"interactive": 2_000.0, "standard": 8_000.0,
                 "batch": 30_000.0}


def frontier_tenants(n_tenants: int | None = None) -> tuple[TenantSpec, ...]:
    """The experiment's tenant mix: the first ``n_tenants`` presets of
    :data:`~repro.traffic.DEFAULT_TENANTS` (shares renormalised), with
    SLOs rescaled for W1 object sizes."""
    presets = DEFAULT_TENANTS
    if n_tenants is not None:
        if not 1 <= n_tenants <= len(presets):
            raise ValueError(f"n_tenants must be 1..{len(presets)}")
        presets = presets[:n_tenants]
    total = sum(t.share for t in presets)
    specs = tuple(replace(t, share=t.share / total,
                          slo_ms=TENANT_SLO_MS.get(t.name, t.slo_ms))
                  for t in presets)
    validate_tenants(specs)
    return specs


@dataclass(frozen=True)
class FrontierRow:
    """One tenant's SLO read-out at one (scheme, rate, weight, hedge)
    cell, alongside the cell's recovery outcome."""

    scheme: str
    arrival_rate: float
    repair_weight: int
    hedged: bool
    tenant: str
    lane: int
    slo_ms: float
    n_requests: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    attainment: float
    n_degraded: int
    degraded_p99_ms: float
    # Cell-level (identical across a cell's tenant rows):
    hedges_fired: int
    hedge_wins: int
    recovery_makespan_s: float
    recovery_rate_mbps: float
    offered_requests: int
    drain_time_s: float


def busiest_disk(system) -> int:
    """The disk whose failure degrades the most objects (lowest id wins
    ties) — deterministic, and guarantees the degraded path is exercised
    even for single-disk layouts at small object counts."""
    best, best_count = 0, -1
    for disk in range(system.config.n_disks):
        count = len(system.degraded_read_candidates(disk))
        if count > best_count:
            best, best_count = disk, count
    return best


def compute_cell(scheme: str, arrival_rate: float, repair_weight: int,
                 hedged: bool, tenants: tuple, n_objects: int = 300,
                 duration: float = DEFAULT_DURATION,
                 hedge_ms: float = DEFAULT_HEDGE_MS,
                 zipf_alpha: float = DEFAULT_ZIPF_ALPHA,
                 seed: int = 0) -> dict:
    """Scenario compute: one open-loop serving run at one grid cell."""
    specs = tuple(TenantSpec.from_doc(doc) for doc in tenants)
    ws = setting_by_name("W1")
    system = build_system(scheme, ws, cluster_config(ws, n_objects,
                                                     client_gbps=10.0))
    objects = system.ingest(sample_workload(ws, n_objects, seed))
    schedule = build_schedule(specs, rate=arrival_rate, duration=duration,
                              n_objects=len(objects), seed=seed,
                              zipf_alpha=zipf_alpha)
    report = serve_open_loop(
        system, objects, schedule.times, schedule.tenant_ids,
        schedule.object_ids,
        tuple((t.name, t.lane, t.hedge) for t in specs),
        failed_disk=busiest_disk(system), weight_limit=repair_weight,
        hedge_s=hedge_ms / 1000.0 if hedged else None, seed=seed + 1)
    recovery = report.recovery
    rows = []
    for spec in specs:
        slo = summarize_slo(spec, report.latencies[spec.name],
                            report.degraded[spec.name])
        rows.append(FrontierRow(
            scheme=scheme, arrival_rate=arrival_rate,
            repair_weight=repair_weight, hedged=hedged,
            tenant=slo.tenant, lane=slo.lane, slo_ms=slo.slo_ms,
            n_requests=slo.n_requests, p50_ms=slo.p50_ms,
            p95_ms=slo.p95_ms, p99_ms=slo.p99_ms,
            attainment=slo.attainment, n_degraded=slo.n_degraded,
            degraded_p99_ms=slo.degraded_p99_ms,
            hedges_fired=report.hedges_fired,
            hedge_wins=report.hedge_wins,
            recovery_makespan_s=recovery.makespan,
            recovery_rate_mbps=recovery.recovery_rate / (1 << 20),
            offered_requests=report.n_requests,
            drain_time_s=report.drain_time))
    return {"rows": rows_of(rows),
            "meta": {"n_degraded_candidates": report.n_degraded,
                     "mean_arrivals": schedule.n_requests / duration}}


def scenarios(n_objects: int | None = None,
              rates: tuple[float, ...] | None = None,
              n_tenants: int | None = None,
              hedge_ms: float | None = None,
              duration: float | None = None) -> list[Scenario]:
    n = n_objects if n_objects is not None else 300
    rs = tuple(rates) if rates else RATES
    hs = hedge_ms if hedge_ms is not None else DEFAULT_HEDGE_MS
    dur = duration if duration is not None else DEFAULT_DURATION
    tenants = tuple(t.to_doc() for t in frontier_tenants(n_tenants))
    # One seed group for the whole grid: every scheme, rate, weight and
    # hedge setting faces the same workload, popularity map and arrival
    # draws; the group id mentions none of the swept axes, so widening
    # the sweep never perturbs existing cells.
    group = canonical_json(["traffic-frontier", n, dur, tenants])
    return [
        scenario(compute_cell,
                 name=f"{s}/r{rate:g}/w{weight}/"
                      f"{'hedged' if hedged else 'unhedged'}",
                 seed_group=group, scheme=s, arrival_rate=rate,
                 repair_weight=weight, hedged=hedged, tenants=tenants,
                 n_objects=n, duration=dur, hedge_ms=hs)
        for s in SCHEMES for rate in rs for weight in WEIGHTS
        for hedged in (False, True)]


def render(results: list[ExperimentResult]) -> str:
    rows = typed_rows(results, FrontierRow)
    rows.sort(key=lambda r: (
        SCHEMES.index(r.scheme) if r.scheme in SCHEMES else len(SCHEMES),
        r.arrival_rate, r.repair_weight, r.hedged, r.lane, r.tenant))
    out = []
    for r in rows:
        out.append([
            r.scheme, f"{r.arrival_rate:g}", r.repair_weight,
            "yes" if r.hedged else "no", r.tenant,
            r.n_requests, f"{r.p50_ms:.0f}", f"{r.p99_ms:.0f}",
            f"{r.attainment:.2f}", r.n_degraded,
            f"{r.degraded_p99_ms:.0f}", r.hedges_fired, r.hedge_wins,
            f"{r.recovery_makespan_s:.2f}"])
    table = format_table(
        ["Scheme", "Rate/s", "Weight", "Hedge", "Tenant", "Reqs",
         "p50 (ms)", "p99 (ms)", "SLO att.", "Degr",
         "Degr p99 (ms)", "Hedges", "Wins", "Recovery (s)"],
        out)
    return (table + "\n\nOpen-loop arrivals: tails grow with rate as "
            "queueing becomes real.  Higher repair weight shortens "
            "recovery at a foreground-latency cost; hedged degraded "
            "reads trim degraded p99 without touching the repair "
            "weight.")
