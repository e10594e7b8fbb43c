"""placement-matrix: placement policy × scheme under an oversubscribed fabric.

The paper's testbed is one rack where "the network is not the bottleneck
for recovery"; at fleet scale repair competes for ToR uplinks and an
oversubscribed aggregation layer, and *where stripes live* decides how
much repair traffic crosses racks.  This experiment runs each placement
policy (:mod:`repro.cluster.placement`) against representative schemes on
a 32-node, 8-rack cluster with 4:1 oversubscription and measures:

* degraded-read latency (p50/p99) — the client-visible cost,
* full-disk recovery makespan and rate — the durability-restoring path,
* cross-rack repair traffic (aggregation-link and ToR bytes) — the fleet
  constraint the policies trade against.

``rack_aware`` packs each stripe into the fewest racks its per-rack chunk
cap allows, so most helper reads stay behind one ToR and its aggregated
repair bytes undercut ``flat_random``, which scatters helpers over nearly
every rack.  ``copyset`` keeps flat-style spans but a far smaller set of
fatal failure combinations.

Not part of ``python -m repro.experiments all`` (that set is pinned
byte-for-byte by ``results/expected_all_300.json.gz``); run it as
``python -m repro.experiments placement-matrix [--param policies=a,b]``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
from repro.runner import (
    ExperimentResult,
    Scenario,
    canonical_json,
    rows_of,
    scenario,
    typed_rows,
)

MB = 1 << 20

#: Pipelined regenerating repair vs the classic RS rebuild.
SCHEMES = ("Geo-4M", "RS")

#: Every registered policy, in presentation order.
POLICIES = ("flat_random", "rack_aware", "copyset")

#: The tiered testbed: 8 racks of 4 nodes, 10 Gbps ToR uplinks, and an
#: aggregation layer oversubscribed 4:1 (agg capacity = 20 Gbps for 80
#: Gbps of ToR uplink) — the regime where cross-rack bytes are scarce.
N_RACKS = 8
NODES_PER_RACK = 4
TOR_GBPS = 10.0
OVERSUBSCRIPTION = 4.0


@dataclass(frozen=True)
class PlacementRow:
    scheme: str
    policy: str
    rack_span_mean: float    # mean racks touched per PG
    read_p50_ms: float
    read_p99_ms: float
    recovery_s: float
    recovery_rate_mbs: float
    repaired_mb: float
    cross_rack_mb: float     # bytes through the aggregation link
    tor_mb: float            # bytes through ToR uplinks


def tiered_config(setting, n_objects: int, policy: str):
    """The W-setting cluster rescaled onto the tiered 32-node testbed."""
    base = cluster_config(setting, n_objects)
    return replace(base, n_nodes=2 * base.n_nodes, n_racks=N_RACKS,
                   nodes_per_rack=NODES_PER_RACK, tor_gbps=TOR_GBPS,
                   oversubscription=OVERSUBSCRIPTION, placement=policy)


def compute_placement(setting: str, scheme: str, policy: str,
                      n_objects: int = 600, n_requests: int = 20,
                      seed: int = 0) -> dict:
    """Scenario compute: one (scheme, policy) grid point."""
    ws = setting_by_name(setting)
    sizes = sample_workload(ws, n_objects, seed)
    targets = request_size_targets(ws, sizes, n_requests, seed + 1)
    config = tiered_config(ws, n_objects, policy)
    system = build_system(scheme, ws, config)
    system.ingest(sizes)
    requests = nearest_candidates(system.catalog.objects, targets)
    results = system.measure_degraded_reads(requests, None, seed=seed + 2)
    times_ms = 1000 * np.array([r.total_time for r in results])
    report = system.run_recovery(0, seed=seed + 3)
    spans = [system.cluster.rack_span(pg) for pg in system.cluster.pgs]
    row = PlacementRow(
        scheme=scheme,
        policy=policy,
        rack_span_mean=float(np.mean(spans)),
        read_p50_ms=float(np.percentile(times_ms, 50)),
        read_p99_ms=float(np.percentile(times_ms, 99)),
        recovery_s=report.makespan,
        recovery_rate_mbs=report.recovery_rate / MB,
        repaired_mb=report.repaired_bytes / MB,
        cross_rack_mb=report.cross_rack_bytes / MB,
        tor_mb=report.tor_bytes / MB,
    )
    return {"rows": rows_of([row])}


def scenarios(setting: str = "W1", n_objects: int | None = None,
              n_requests: int | None = None,
              policies: tuple[str, ...] | None = None) -> list[Scenario]:
    n = n_objects if n_objects is not None else 600
    reqs = n_requests if n_requests is not None else 20
    pols = tuple(policies) if policies else POLICIES
    group = canonical_json(["placement-matrix", setting, n, reqs])
    return [scenario(compute_placement, name=f"{s}/{p}", seed_group=group,
                     setting=setting, scheme=s, policy=p,
                     n_objects=n, n_requests=reqs)
            for s in SCHEMES for p in pols]


def render(results: list[ExperimentResult]) -> str:
    rows = typed_rows(results, PlacementRow)
    return format_table(
        ["Scheme", "Policy", "Racks/PG", "p50 (ms)", "p99 (ms)",
         "Recovery (s)", "Rate (MB/s)", "Repaired (MB)", "Cross-rack (MB)",
         "ToR (MB)"],
        [[r.scheme, r.policy, f"{r.rack_span_mean:.1f}",
          round(r.read_p50_ms), round(r.read_p99_ms),
          f"{r.recovery_s:.2f}", round(r.recovery_rate_mbs),
          round(r.repaired_mb), round(r.cross_rack_mb), round(r.tor_mb)]
         for r in rows])
