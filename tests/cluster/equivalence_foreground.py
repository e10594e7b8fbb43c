"""Busy-experiment equivalence of the foreground lane and the old model.

Slow (minutes): the old model spawns a process per foreground read.  It
is not collected by a plain ``pytest`` run; run it explicitly::

    PYTHONPATH=src python -m pytest -m slow tests/cluster/equivalence_foreground.py
    PYTHONPATH=src python tests/cluster/equivalence_foreground.py --seeds 20

Over ``N >= 20`` root seeds, every busy unit below runs twice through the
scenario runner at the pinned CI scale (300 objects, 3 requests): once
with the foreground lane, once with the per-read-process oracle drawing
one exponential and one uniform per read from a single generator, the
old model's draw order.  The two see different — equally distributed —
foreground traffic, so the comparison is statistical: for each busy
metric, the seed-paired bootstrap CI of ``mean(lane) / mean(old)`` must
cover 1.  The gate is family-wise 95%: each of the ten intervals is a
99.5% one (Bonferroni), because ten uncorrected 95% intervals miss by
chance in far more than one run in twenty — more so for the W1 busy
degraded-read means, which are heavy-tailed over seeds (one seed can
hold a 14 s read).  The table also prints the plain 95% interval.  A second check runs the oracle on the lane's own item
streams: then every row must agree to float rounding, seed by seed.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

if __name__ == "__main__":  # run as a script from the repository root
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

import repro.cluster.rcstor as rcstor  # noqa: E402
from repro.experiments import range_access, tradeoff  # noqa: E402
from repro.runner import RunOptions, run_scenarios  # noqa: E402
from tests.cluster.fg_oracle import start_oracle_load  # noqa: E402

pytestmark = pytest.mark.slow

N_OBJECTS = 300
N_REQUESTS = 3
#: (unit family, scheme, busy fields) compared per seed.
UNITS = (
    ("fig10", "Geo-128K", ("degraded_ms_busy", "recovery_time_busy")),
    ("fig10", "RS", ("degraded_ms_busy", "recovery_time_busy")),
    ("fig9", "Geo-4M", ("degraded_ms_busy", "recovery_time_busy")),
    ("fig9", "RS", ("degraded_ms_busy", "recovery_time_busy")),
    ("range", "Geo-4M", ("mean_busy_s",)),
    ("range", "Con-16M", ("mean_busy_s",)),
)
BOOTSTRAP = 4000
#: Family-wise error rate of the statistical gate.
FAMILY_ALPHA = 0.05


def _units():
    out = []
    for family, scheme, fields in UNITS:
        if family == "range":
            unit = range_access.scenarios(n_objects=N_OBJECTS,
                                          schemes=[scheme])[0]
        else:
            setting = "W2" if family == "fig10" else "W1"
            unit = tradeoff.scenarios(setting, n_objects=N_OBJECTS,
                                      n_requests=N_REQUESTS,
                                      schemes=[scheme])[0]
        out.append((f"{family}/{scheme}", unit, fields))
    return out


def _rows(units, root_seed: int, load) -> list[dict]:
    with mock.patch.object(rcstor, "start_foreground_load", load):
        report = run_scenarios([u for _, u, _ in units],
                               RunOptions(jobs=1, seed=root_seed,
                                          cache=False))
    return [r.rows[0] for r in report.results]


def _ratio_ci(new: np.ndarray, old: np.ndarray, rng,
              alphas: tuple[float, ...]) -> tuple[float, ...]:
    """Ratio of means, then a seed-paired percentile bootstrap
    ``(low, high)`` pair per two-sided level ``alpha``."""
    idx = rng.integers(0, len(new), size=(BOOTSTRAP, len(new)))
    boot = new[idx].mean(axis=1) / old[idx].mean(axis=1)
    out = [float(new.mean() / old.mean())]
    for alpha in alphas:
        out += [float(q) for q in np.percentile(
            boot, [50 * alpha, 100 - 50 * alpha])]
    return tuple(out)


def compare(n_seeds: int = 20, progress=None) -> list[tuple]:
    """Table rows ``(unit, field, mean_old, mean_new, ratio, lo95, hi95,
    lo_family, hi_family)``."""
    units = _units()
    old_load = functools.partial(start_oracle_load, scalar_draws=True)
    samples = {(name, f): ([], []) for name, _, fields in units
               for f in fields}
    for seed in range(n_seeds):
        new_rows = _rows(units, seed, rcstor.start_foreground_load)
        old_rows = _rows(units, seed, old_load)
        for (name, _, fields), new, old in zip(units, new_rows, old_rows):
            for f in fields:
                samples[name, f][0].append(new[f])
                samples[name, f][1].append(old[f])
        if progress is not None:
            progress(seed)
    rng = np.random.default_rng(20211026)
    alphas = (0.05, FAMILY_ALPHA / len(samples))
    table = []
    for (name, f), (new, old) in samples.items():
        new, old = np.asarray(new), np.asarray(old)
        table.append((name, f, float(old.mean()), float(new.mean()),
                      *_ratio_ci(new, old, rng, alphas)))
    return table


@pytest.mark.parametrize("seed", range(3))
def test_lane_rows_match_oracle_on_same_items(seed):
    units = _units()
    new_rows = _rows(units, seed, rcstor.start_foreground_load)
    old_rows = _rows(units, seed, start_oracle_load)
    for new, old in zip(new_rows, old_rows):
        assert new.keys() == old.keys()
        for key in new:
            if isinstance(new[key], float):
                assert new[key] == pytest.approx(old[key], rel=1e-9)
            else:
                assert new[key] == old[key]


def test_busy_metrics_equivalent_over_20_seeds():
    for name, field, _, _, ratio, _, _, low, high in compare(20):
        assert low <= 1.0 <= high, (name, field, ratio, low, high)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20)
    args = parser.parse_args(argv)
    table = compare(args.seeds, progress=lambda s: print(
        f"  seed {s} done", file=sys.stderr, flush=True))
    print(f"| unit | metric | old mean | lane mean | lane/old | 95% CI | "
          f"family-wise 95% CI (gate) |")
    print("|---|---|---|---|---|---|---|")
    ok = True
    for name, field, old, new, ratio, lo, hi, low, high in table:
        covers = low <= 1.0 <= high
        ok &= covers
        print(f"| {name} | {field} | {old:.6g} | {new:.6g} | {ratio:.3f} | "
              f"[{lo:.3f}, {hi:.3f}]{'' if lo <= 1.0 <= hi else ' miss'} | "
              f"[{low:.3f}, {high:.3f}]{'' if covers else ' FAIL'} |")
    print(f"\n{args.seeds} root seeds, pinned CI scale "
          f"({N_OBJECTS} objects, {N_REQUESTS} requests)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
