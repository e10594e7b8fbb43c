"""Command-line runner: regenerate any of the paper's tables and figures.

Every experiment is a list of :class:`~repro.runner.Scenario` units plus a
pure ``render()``; this CLI assembles the requested units, hands them to
:func:`repro.runner.run_scenarios` (parallel with ``--jobs``, cached under
``results/cache/`` unless ``--no-cache``), and renders the results.  Rows
are bit-identical for any ``--jobs`` value and across cache hits.

Examples::

    python -m repro.experiments table1
    python -m repro.experiments fig9  --n-objects 4000
    python -m repro.experiments all --jobs 4          # parallel fan-out
    python -m repro.experiments all --jobs 4          # second run: cached
    python -m repro.experiments fig10 --seed 7 --json # machine-readable
    python -m repro.experiments chaos-tail --param factors=8
    python -m repro.experiments all --bench-out BENCH_experiments.json
    python -m repro.experiments fig13 --timeline --report fig13.html
    python -m repro.experiments all --profile            # wall-clock flame
    python -m repro.experiments chaos-tail --flightrec postmortems/
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import sys
import time
import types
import typing
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Experiment:
    """One CLI experiment: ``scenarios``/``render`` are callables or names
    in ``repro.experiments.<module>`` (imported on first use); no flag may
    set a ``pinned`` keyword, and ``defaults`` yield to flags."""

    module: str
    scenarios: str | Callable = "scenarios"
    render: str | Callable = "render"
    pinned: dict = field(default_factory=dict)
    defaults: dict = field(default_factory=dict)


def _fig4_scenarios():
    """Figure 4 is shown with the disk-model calibration it rests on."""
    from repro.experiments import calibration, fig4

    return fig4.scenarios() + calibration.scenarios()


def _fig4_render(results):
    from repro.experiments import calibration, fig4

    by = {r.name.rsplit("/", 1)[-1]: r for r in results}
    return (fig4.render([by["chunk-size"]]) + "\n\n"
            + calibration.render([by["calibration"]]))


def _headline_scenarios(n_objects: int | None = None):
    """The headline at one scale knob: W2 ingests 10x W1's object count."""
    from repro.experiments import headline

    n_w2 = n_objects * 10 if n_objects is not None else None
    return headline.scenarios(n_objects_w1=n_objects, n_objects_w2=n_w2)


W1, W2 = {"setting": "W1"}, {"setting": "W2"}

REGISTRY = {
    "table1": Experiment("table1"),
    "table2": Experiment("table2"),
    "table3": Experiment("table3", defaults=W1),
    "table4": Experiment("table4", pinned=W1),
    "table5": Experiment("table5", pinned=W1),
    "fig2": Experiment("fig2"),
    "fig4": Experiment("fig4", _fig4_scenarios, _fig4_render),
    "fig7": Experiment("fig7"),
    "fig9": Experiment("tradeoff", pinned=W1, defaults={"n_requests": 20}),
    "fig10": Experiment("tradeoff", pinned=W2, defaults={"n_requests": 20}),
    "fig11": Experiment("fig11_fig12", pinned=W1),
    "fig12": Experiment("fig11_fig12", pinned=W2),
    "fig13": Experiment("fig13", pinned=W1),
    "fig14": Experiment("fig14"),
    "breakdown": Experiment("breakdown"),
    "range": Experiment("range_access", pinned=W1),
    "headline": Experiment("headline", _headline_scenarios),
    "ablations": Experiment("ablations"),
    "durability": Experiment("durability"),
    "chaos-tail": Experiment("chaos", "tail_scenarios", "render_tail"),
    "chaos-recovery": Experiment("chaos", "second_failure_scenarios",
                                 "render_second_failure"),
    "placement-matrix": Experiment("placement_matrix"),
    "durability-frontier": Experiment("durability_frontier"),
    "traffic-frontier": Experiment("traffic_frontier"),
}

#: Experiments beyond the paper's own tables and figures.  ``all`` is the
#: paper artifact set, pinned byte-for-byte by
#: ``results/expected_all_300.json.gz`` — extensions run only when named
#: explicitly.
EXTENSIONS = frozenset({"placement-matrix", "durability-frontier",
                        "traffic-frontier"})

#: ``scenarios()`` keywords that have their own flag, so ``--param``
#: leaves them alone.
FLAG_KEYWORDS = frozenset({"n_objects", "n_requests", "setting", "faults"})


def _load(module: str, ref: str | Callable) -> Callable:
    """A registry function: a callable, or a name in ``<module>``."""
    if callable(ref):
        return ref
    return getattr(importlib.import_module(f"repro.experiments.{module}"),
                   ref)


def _convert(annotation, text: str):
    """``text`` as a value of a ``scenarios()`` keyword's annotation: int,
    float, str, bool (``true``/``false`` only), or a tuple/list of those
    given as a comma list; ``X | None`` unwraps to ``X``."""
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin in (typing.Union, types.UnionType):
        rest = [a for a in args if a is not type(None)]
        if len(rest) == 1:
            return _convert(rest[0], text)
    elif origin in (tuple, list) and args:
        return origin(_convert(args[0], item)
                      for item in text.split(",") if item)
    elif annotation is bool and text in ("true", "false"):
        return text == "true"
    elif annotation in (int, float, str):
        return annotation(text)
    raise ValueError(f"cannot convert {text!r} to "
                     f"{getattr(annotation, '__name__', annotation)}")


def _build(parser: argparse.ArgumentParser, name: str, args):
    """``(units, render)`` of one experiment under the CLI's flags; a flag
    the experiment cannot take exits with status 2."""
    exp = REGISTRY[name]
    scenarios = _load(exp.module, exp.scenarios)
    params = inspect.signature(scenarios, eval_str=True).parameters
    keys = [p for p in params if p not in exp.pinned.keys() | FLAG_KEYWORDS]

    def reject(what: str):
        parser.error(f"{name}: {what}; its --param keywords are: "
                     f"{', '.join(keys) or 'none'}")

    kwargs = dict(exp.defaults)
    # Suite-wide scale: passed where taken, skipped elsewhere (``all``).
    for key in ("n_objects", "n_requests"):
        if getattr(args, key) is not None and key in params:
            kwargs[key] = getattr(args, key)
    for flag, key, value in (("--workload", "setting", args.workload),
                             ("--faults", "faults", args.faults)):
        if value is not None and (key not in params or key in exp.pinned):
            reject(f"{flag} sets {key!r}, which {name} "
                   + ("pins" if key in params else "does not take"))
    if args.workload is not None:
        kwargs["setting"] = args.workload
    if args.faults is not None:
        from repro.faults import FaultPlan

        kwargs["faults"] = FaultPlan.load(args.faults).to_doc()
    for item in args.param:
        key, sep, text = item.partition("=")
        if not sep or key not in keys:
            reject(f"--param {item!r}: not NAME=VALUE for an accepted keyword")
        try:
            kwargs[key] = _convert(params[key].annotation, text)
        except ValueError as exc:
            reject(f"--param {item!r}: {exc}")
    return scenarios(**kwargs, **exp.pinned), _load(exp.module, exp.render)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiment",
                        choices=sorted(REGISTRY) + ["all"],
                        help="which table/figure to regenerate")
    parser.add_argument("--n-objects", type=int, default=None,
                        help="workload scale (defaults are per-experiment)")
    parser.add_argument("--n-requests", type=int, default=None,
                        help="degraded-read sample size (defaults are "
                             "per-experiment)")
    parser.add_argument("--workload", choices=["W1", "W2"], default=None,
                        help="the setting of W1/W2-parametric experiments")
    parser.add_argument("--faults", metavar="PLAN.json", default=None,
                        help="a repro.faults JSON plan for the chaos "
                             "experiments, instead of their built-in plans")
    parser.add_argument("--param", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="set a keyword of the experiment's scenarios() "
                             "(int, float, str, true/false, or a comma "
                             "list); repeatable")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run scenario units on N worker processes "
                             "(identical rows for any N)")
    parser.add_argument("--seed", type=int, default=0,
                        help="root seed; per-unit seeds derive from it so "
                             "units never perturb each other's draws")
    parser.add_argument("--no-cache", action="store_true",
                        help="always recompute; do not read or write the "
                             "result cache")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result-cache directory "
                             "(default: results/cache/)")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable results (rows + "
                             "provenance) instead of text tables")
    parser.add_argument("--bench-out", metavar="OUT.json", default=None,
                        help="write per-unit wall-clock / sim-time / "
                             "cache-status accounting as JSON")
    parser.add_argument("--trace", metavar="OUT.json", default=None,
                        help="write a Chrome/Perfetto trace-event JSON of "
                             "every simulation the experiment runs")
    parser.add_argument("--metrics", action="store_true",
                        help="print the merged metrics summary "
                             "(utilization, queue waits) after the run")
    parser.add_argument("--check-invariants", action="store_true",
                        help="run with the repro.analysis invariant checker "
                             "armed: monotonic sim clock, codec byte "
                             "conservation, end-of-run resource-leak audit")
    parser.add_argument("--timeline", metavar="OUT.json", nargs="?",
                        const="timeline.json", default=None,
                        help="sample every unit's metrics on a sim-time grid "
                             "and write the merged repro.timeline/1 doc "
                             "(default file: timeline.json); exact for any "
                             "--jobs value")
    parser.add_argument("--sample-interval", type=float, default=None,
                        metavar="S",
                        help="timeline sample pitch in sim seconds "
                             "(default: auto-scale per measurement)")
    parser.add_argument("--profile", action="store_true",
                        help="attribute wall-clock time per process site "
                             "(engine dispatch loop profiler); implies a "
                             "live run, never cached")
    parser.add_argument("--flightrec", metavar="DIR", default=None,
                        help="arm a per-unit flight recorder; postmortem "
                             "bundles land in DIR when a unit raises or "
                             "logs incidents (abandoned repairs, invariant "
                             "violations)")
    parser.add_argument("--report", metavar="OUT.html", default=None,
                        help="write a self-contained HTML run report "
                             "(timelines, span waterfall, percentile "
                             "tables, profile); implies --timeline-style "
                             "sampling and trace capture")
    return parser


def _result_doc(result) -> dict:
    """One experiment result as JSON, without bulky trace payloads."""
    doc = result.to_doc()
    obs = doc.get("obs")
    if obs and "trace_events" in obs:
        doc["obs"] = {k: v for k, v in obs.items() if k != "trace_events"}
    return doc


def _progress_printer():
    """A single-line live progress callback for interactive fan-out runs."""
    def progress(done: int, total: int, status: str, name: str) -> None:
        line = f"[{done}/{total}] {status:<5} {name}"
        print(f"\r{line[:100]:<100}", end="", file=sys.stderr, flush=True)
        if done == total:
            print(file=sys.stderr)
    return progress


def main(argv: list[str] | None = None) -> int:
    """Entry point of the CLI runner."""
    parser = _parser()
    args = parser.parse_args(argv)

    from repro.runner import Capture, RunOptions, run_scenarios

    names = (sorted(n for n in REGISTRY if n not in EXTENSIONS)
             if args.experiment == "all" else [args.experiment])
    units = []
    sections = []  # (name, first unit index, one-past-last, render)
    for name in names:
        scenarios, render = _build(parser, name, args)
        scenarios = [s.prefixed(name) for s in scenarios]
        sections.append((name, len(units), len(units) + len(scenarios),
                         render))
        units.extend(scenarios)

    # --report needs trace events (the span waterfall) and a timeline;
    # asking for either arms the live-run capture path for every unit.
    want_timeline = args.timeline is not None or args.report is not None
    want_trace = args.trace is not None or args.report is not None
    progress = _progress_printer() if sys.stderr.isatty() else None
    options = RunOptions(
        jobs=args.jobs, seed=args.seed, cache=not args.no_cache,
        cache_dir=args.cache_dir,
        capture=Capture(trace=want_trace, metrics=args.metrics,
                        invariants=args.check_invariants,
                        timeline=want_timeline,
                        sample_interval=args.sample_interval,
                        profile=args.profile,
                        flightrec=args.flightrec),
        progress=progress)
    t0 = time.time()
    report = run_scenarios(units, options)
    wall = time.time() - t0

    if args.json:
        print(json.dumps({
            "schema": 1,
            "sim_version": report.sim_version,
            "root_seed": report.root_seed,
            "experiments": {
                name: [_result_doc(r) for r in report.results[lo:hi]]
                for name, lo, hi, _render in sections},
        }, indent=2, sort_keys=True))
    else:
        for name, lo, hi, render in sections:
            outcomes = report.outcomes[lo:hi]
            served = sum(1 for o in outcomes if o.status != "miss")
            print(f"===== {name} =====")
            print(render(report.results[lo:hi]))
            print(f"[{sum(o.wall_s for o in outcomes):.1f}s, "
                  f"{served}/{len(outcomes)} units cached]\n")

    if args.metrics and not args.json:
        from repro.obs import summarize

        print(summarize(report.merged_obs()))
    if args.profile and not args.json:
        from repro.obs import summarize_profile

        print(summarize_profile(report.merged_profile()))
    if args.check_invariants:
        inv_report = report.merged_invariants_report()
        if inv_report:
            print(inv_report)
    if args.timeline is not None:
        with open(args.timeline, "w", encoding="utf-8") as fh:
            json.dump(report.merged_timeline(), fh, indent=2, sort_keys=True)
    if args.report is not None:
        from repro.obs import write_report

        doc = {
            "title": f"repro: {args.experiment}",
            "sim_version": report.sim_version,
            "root_seed": report.root_seed,
            "sections": [{"name": name,
                          "text": render(report.results[lo:hi])}
                         for name, lo, hi, render in sections],
            "obs": report.merged_obs(),
            "timeline": report.merged_timeline(),
            "trace_events": report.trace_events(),
            "bench": report.bench_doc(jobs=args.jobs),
        }
        if args.profile:
            doc["profile"] = report.merged_profile()
        write_report(doc, args.report)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": report.trace_events(),
                       "displayTimeUnit": "ms"}, fh)
    if args.bench_out:
        doc = report.bench_doc(jobs=args.jobs,
                               groups=[(name, lo, hi)
                                       for name, lo, hi, _render in sections])
        doc["totals"]["elapsed_s"] = round(wall, 6)
        with open(args.bench_out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
