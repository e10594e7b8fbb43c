"""Repo benchmark: host cost of the simulator, end to end and per module.

Usage, from the repository root::

    python3 perfbench/run.py --workload degraded-busy-w2 --seed 0 \\
        --seconds 25 --trace 0

``--trace 0`` times the workload's scenario units through
:func:`repro.runner.run_scenarios` (one process, ``jobs=1``, cache off,
tracing off) until ``--seconds`` have passed, in at least
:data:`MIN_PASSES` passes after :data:`WARMUP_PASSES` untimed ones, and
reports the end-to-end metrics.
``--trace 1`` runs the units once untraced, once through the traced
replays of :mod:`workloads` with the wall-clock profiler armed, and
once with the invariant checker armed, and reports the per-layer
metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Any failed
check makes ``correct`` false and the exit code 1.

See ``perfbench/README.md`` for every metric and why each workload was
chosen.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Fresh-process set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 5

#: Fewest timed passes per run: the exact counts must repeat across them,
#: and a per-unit median over four passes discounts a pass the host slowed.
MIN_PASSES = 4

#: Untimed passes before the timed ones: the first pass pays for lazy
#: imports and for growing the heap, which every later pass reuses.
WARMUP_PASSES = 1


def _import_repo() -> None:
    src = REPO / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no simulator sources under {src}; run from the "
                 "root of a repository checkout")
    sys.path.insert(0, str(src))


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="root seed handed to the scenario runner")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long the untraced run keeps repeating "
                             "the workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


# ----------------------------------------------------------------------
# Set-up time: process start to dispatch of the first unit.
# ----------------------------------------------------------------------
def setup_probe(workload) -> None:
    """Child side: import, build the unit list, resolve the first
    compute function, then report readiness on stdout."""
    units = workload.units()
    units[0].resolve()
    print("ready", flush=True)


def time_setup(name: str) -> float:
    """Seconds from spawning a fresh interpreter to its first dispatch."""
    t0 = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--setup-probe"],
            stdout=subprocess.PIPE, text=True, cwd=REPO) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
    return elapsed


# ----------------------------------------------------------------------
# Runner passes
# ----------------------------------------------------------------------
def run_pass(units, root: int, capture=None) -> list[dict]:
    """Each unit through the runner on its own at ``root``, timed, errors
    kept."""
    from repro.runner import Capture, RunOptions, run_scenarios

    out = []
    for unit in units:
        options = RunOptions(jobs=1, seed=root, cache=False,
                             capture=capture or Capture())
        gc.collect()
        t0 = time.perf_counter()
        result = error = None
        try:
            result = run_scenarios([unit], options).results[0]
        except Exception as exc:  # a failed unit is counted, not fatal
            error = exc
        out.append({"result": result, "wall": time.perf_counter() - t0,
                    "error": error, "name": unit.name})
    return out


def exact_counts(result) -> tuple[int, int]:
    counters = result.obs["counters"]
    return (int(counters["engine.events_scheduled"]),
            int(counters["engine.process_resumes"]))


def unit_problems(workload, outcomes, root: int) -> list[list[str]]:
    """Problems per unit: its error, or its row checks (which may compare
    the units with each other)."""
    done = [o["result"] for o in outcomes if o["result"] is not None]
    checked = iter(workload.check(done, root, REPO))
    return [[f"{o['name']}@{root}: {o['error']!r}"] if o["error"]
            else next(checked) for o in outcomes]


@contextmanager
def timed_compute(units, sink: list[float]):
    """Time every call of the units' compute functions (the runner
    resolves them by module attribute, so wrapping the attribute for the
    duration of a pass is enough)."""
    patched = []
    for path in sorted({u.fn for u in units}):
        module_name, _, fn_name = path.partition(":")
        module = importlib.import_module(module_name)
        original = getattr(module, fn_name)

        def timed(*args, _fn=original, **kwargs):
            t0 = time.perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                sink.append(time.perf_counter() - t0)

        setattr(module, fn_name, timed)
        patched.append((module, fn_name, original))
    try:
        yield
    finally:
        for module, fn_name, original in patched:
            setattr(module, fn_name, original)


class Tally:
    """Attempted / failed units and the reasons, across a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.fatal: list[str] = []

    def add(self, problems: list[list[str]]) -> None:
        self.attempted += len(problems)
        for found in problems:
            if found:
                self.failed += 1
                for line in found[:5]:
                    print(f"FAIL {line}", file=sys.stderr)

    def result(self, metrics: dict) -> tuple[dict, int]:
        for line in self.fatal:
            print(f"FATAL {line}", file=sys.stderr)
        correct = self.failed == 0 and not self.fatal
        doc = {"correct": correct, "attempted": self.attempted,
               "failed": self.failed, "metrics": metrics}
        return doc, 0 if correct else 1


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------
def end_to_end(workload, seed: int, seconds: float) -> tuple[dict, int]:
    setup_s = statistics.median(time_setup(workload.name)
                                for _ in range(SETUP_PROBES))
    units = workload.units()
    tally = Tally()
    walls: list[list[float]] = [[] for _ in units]
    first_counts = None
    passes = -WARMUP_PASSES
    t_start = None
    while passes < MIN_PASSES or time.perf_counter() - t_start < seconds:
        if passes == 0:
            t_start = time.perf_counter()
        outcomes = run_pass(units, seed)
        tally.add(unit_problems(workload, outcomes, seed))
        if passes >= 0:
            for acc, o in zip(walls, outcomes):
                acc.append(o["wall"])
        counts = [exact_counts(o["result"]) if o["result"] else None
                  for o in outcomes]
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            tally.fatal.append(f"pass {passes}: exact counts {counts} != "
                               f"first pass {first_counts}")
        passes += 1
    print(f"{workload.name}: {passes} timed passes of {len(units)} units "
          f"at root seed {seed}", file=sys.stderr)
    metrics = {
        "wall_s": _metric(sum(statistics.median(w) for w in walls), "s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return tally.result(metrics)


# ----------------------------------------------------------------------
# --trace 1: per-layer metrics
# ----------------------------------------------------------------------
def traced_pass(units, root: int):
    """Every unit through its traced replay, profiler armed."""
    from repro.obs import merge_profiles, observed
    from spans import SpanProfiler, SpanRecorder
    from workloads import FACTS, TRACED

    rec = SpanRecorder()
    facts = dict.fromkeys(FACTS, 0)
    profiles = []
    counts = []
    for unit in units:
        gc.collect()
        with observed() as obs:
            profiler = SpanProfiler()
            obs.profiler = profiler
            obs.engine_hooks.profiler = profiler
            rec.profiler = profiler
            with rec.span("unit"):
                TRACED[unit.fn](rec, facts, **unit.params,
                                seed=unit.derive_seed(root))
            rec.profiler = None
            profiles.append(profiler.profile_doc())
            hooks = obs.engine_hooks
            counts.append((int(hooks.events_scheduled.value),
                           int(hooks.process_resumes.value)))
    return rec, facts, merge_profiles(profiles), counts


def queue_wait_mean_ms(results, lane: int) -> float:
    key = f"disk.queue_wait{{lane={lane}}}"
    total = count = 0
    for result in results:
        hist = result.obs["histograms"].get(key)
        if hist:
            total += hist["total"]
            count += hist["count"]
    return 1000.0 * total / count if count else 0.0


#: Module -> metric name prefix of its self time and share.
MODULE_METRIC = {"sim": "sim.engine_", "faults": "faults.injector."}


def per_layer(workload, seed: int) -> tuple[dict, int]:
    from repro.analysis import InvariantViolation
    from repro.runner import Capture
    from spans import MODULES, OTHER, rollup

    units = workload.units()
    tally = Tally()

    compute: list[float] = []
    with timed_compute(units, compute):
        plain = run_pass(units, seed)
    tally.add(unit_problems(workload, plain, seed))
    if any(o["result"] is None for o in plain):
        tally.fatal.append("untraced pass failed; no per-layer metrics")
        return tally.result({})
    results = [o["result"] for o in plain]
    counts = [exact_counts(r) for r in results]
    untraced_wall = sum(o["wall"] for o in plain)

    rec, facts, profile, traced_counts = traced_pass(units, seed)
    tally.attempted += len(traced_counts)
    if traced_counts != counts:
        tally.fatal.append(f"traced run counts {traced_counts} != "
                           f"untraced {counts}")

    checked = run_pass(units, seed, Capture(invariants=True))
    violations = sum(1 for o in checked
                     if isinstance(o["error"], InvariantViolation))
    tally.add(unit_problems(workload, checked, seed))
    for o, plain_counts in zip(checked, counts):
        if o["result"] is None:
            continue
        if exact_counts(o["result"]) != plain_counts:
            tally.fatal.append(f"{o['name']}@{seed}: checked run "
                               "counts differ from the untraced run")
        if "0 leaked grants, 0 lost tasks" not in \
                o["result"].obs["invariants"]["report"]:
            violations += 1
    if violations:
        tally.fatal.append(f"{violations} invariant violations")

    modules = rollup(profile)
    des_s = sum(m["self_s"] for m in modules.values())
    traced_wall = rec.total("unit")
    replay_self = sum(rec.self_time(i) for i, s in enumerate(rec.spans)
                      if s.name == "unit")
    events = sum(c[0] for c in counts)

    m = {
        "sim.events_scheduled": _metric(events, "count"),
        "sim.process_resumes": _metric(sum(c[1] for c in counts), "count"),
        "sim.events_per_host_s": _metric(events / untraced_wall, "1/s"),
    }
    for module in MODULES:
        prefix = MODULE_METRIC.get(module, module + ".")
        self_s = modules[module]["self_s"]
        m[prefix + "self_s"] = _metric(self_s, "s")
        m[prefix + "share"] = _metric(self_s / des_s if des_s else 0.0,
                                      "fraction")
    for module in ("cluster.disk", "cluster.foreground"):
        m[module + ".resumes"] = _metric(modules[module]["resumes"], "count")
    ingest_s = rec.total("ingest")
    served = facts["requests_served"]
    m.update({
        "trace.des_s": _metric(des_s, "s"),
        "trace.unmapped_site_s": _metric(
            modules.get(OTHER, {"self_s": 0.0})["self_s"], "s"),
        "trace.outside_des_s": _metric(traced_wall - des_s, "s"),
        "trace.outside_des_share": _metric(
            (traced_wall - des_s) / traced_wall, "fraction"),
        "trace.replay_self_s": _metric(replay_self, "s"),
        "rcstor.run_recovery_s": _metric(rec.total("run_recovery"), "s"),
        "rcstor.run_recovery_faulted_s": _metric(
            rec.total("run_recovery_faulted"), "s"),
        "rcstor.degraded_reads_s": _metric(rec.total("degraded_reads"), "s"),
        "rcstor.degraded_reads_busy_s": _metric(
            rec.total("degraded_reads_busy"), "s"),
        "rcstor.normal_reads_s": _metric(rec.total("normal_reads"), "s"),
        "rcstor.tasks_requeued": _metric(facts["tasks_requeued"], "count"),
        "rcstor.tasks_escalated": _metric(facts["tasks_escalated"], "count"),
        "rcstor.tasks_abandoned": _metric(facts["tasks_abandoned"], "count"),
        "cluster.catalog.ingest_s": _metric(ingest_s, "s"),
        "cluster.catalog.objects_per_s": _metric(
            facts["objects_ingested"] / ingest_s if ingest_s else 0.0,
            "1/s"),
        "cluster.qos.serve_s": _metric(rec.total("serve_open_loop"), "s"),
        "cluster.qos.requests": _metric(served, "count"),
        "cluster.qos.hedge_win_ratio": _metric(
            facts["hedge_wins"] / facts["hedges_fired"]
            if facts["hedges_fired"] else 0.0, "fraction"),
        "traffic.schedule_build_s": _metric(rec.total("build_schedule"), "s"),
        "codes.build_system_s": _metric(rec.total("build_system"), "s"),
        "experiments.sample_workload_s": _metric(
            rec.total("sample_workload"), "s"),
        "runner.overhead_s": _metric(untraced_wall - sum(compute), "s"),
        "cluster.disk.fg_queue_wait_mean_ms": _metric(
            queue_wait_mean_ms(results, 0), "ms"),
        "cluster.disk.bg_queue_wait_mean_ms": _metric(
            queue_wait_mean_ms(results, 1), "ms"),
        "trace.overhead_frac": _metric(traced_wall / sum(compute) - 1,
                                       "fraction"),
        "invariants.violations": _metric(violations, "count"),
    })
    print_rollup(workload.name, modules, des_s, traced_wall)
    return tally.result(m)


def print_rollup(name: str, modules: dict, des_s: float,
                 traced_wall: float) -> None:
    print(f"== {name}: traced host time by module ==")
    for module, acc in sorted(modules.items(),
                              key=lambda kv: -kv[1]["self_s"]):
        share = acc["self_s"] / des_s if des_s else 0.0
        print(f"{module:<20} {acc['self_s']:9.3f} s  {share:6.1%} of DES  "
              f"{acc['resumes']:>9} resumes")
    outside = traced_wall - des_s
    print(f"{'outside the DES':<20} {outside:9.3f} s  "
          f"{outside / traced_wall:6.1%} of traced wall "
          "(sampling, system build, ingest, replay code)")


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    _import_repo()
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from "
                 f"{', '.join(WORKLOADS)}")
    if args.setup_probe:
        setup_probe(workload)
        return 0
    if args.trace:
        doc, code = per_layer(workload, args.seed)
    else:
        doc, code = end_to_end(workload, args.seed, args.seconds)
    print(json.dumps(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
