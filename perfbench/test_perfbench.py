"""Tests of the benchmark's own helpers.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from checks import (  # noqa: E402
    FIXTURE,
    check_frontier_cell,
    check_frontier_grid,
    check_second_failure,
    check_tradeoff_row,
    compare_rows,
    load_fixture_rows,
)
from spans import (  # noqa: E402
    MODULES,
    OTHER,
    Span,
    SpanRecorder,
    covered,
    module_of,
    rollup,
    self_time,
)


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def test_self_time_without_children_is_the_duration():
    assert self_time(1.0, 4.0, []) == pytest.approx(3.0)


def test_self_time_subtracts_disjoint_children():
    assert self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) \
        == pytest.approx(7.0)


def test_self_time_counts_overlapping_children_once():
    # [1, 4] and [3, 6] overlap on [3, 4]: together they cover [1, 6].
    assert self_time(0.0, 10.0, [(3.0, 6.0), (1.0, 4.0)]) \
        == pytest.approx(5.0)
    # A child nested inside another adds nothing.
    assert self_time(0.0, 10.0, [(1.0, 8.0), (2.0, 3.0)]) \
        == pytest.approx(3.0)


def test_self_time_clips_children_to_the_parent():
    assert covered(2.0, 5.0, [(0.0, 3.0), (4.0, 9.0)]) == pytest.approx(2.0)
    assert self_time(2.0, 5.0, [(6.0, 7.0)]) == pytest.approx(3.0)


def test_recorder_self_time_uses_direct_children_only():
    rec = SpanRecorder()
    rec.spans = [Span("unit", 0.0, 10.0),
                 Span("ingest", 1.0, 4.0, parent=0),
                 Span("inner", 2.0, 3.0, parent=1),
                 Span("run_recovery", 3.5, 9.0, parent=0)]
    assert rec.self_time(0) == pytest.approx(10.0 - 8.0)
    assert rec.self_time(1) == pytest.approx(2.0)
    assert rec.total("ingest") == pytest.approx(3.0)


def test_recorder_nests_spans_by_call_order():
    rec = SpanRecorder()
    with rec.span("unit"):
        assert rec.call("child", lambda x: x + 1, 1) == 2
    assert [(s.name, s.parent) for s in rec.spans] == [("unit", None),
                                                       ("child", 0)]
    assert all(s.end >= s.start for s in rec.spans)


# ----------------------------------------------------------------------
# Site-to-module map
# ----------------------------------------------------------------------
@pytest.mark.parametrize("site, module", [
    ("read (disk.py:129)", "cluster.disk"),
    ("_generator (foreground.py:48)", "cluster.foreground"),
    ("repair_proc (rcstor.py:640)", "cluster.rcstor"),
    ("transfer (network.py:60)", "cluster.network"),
    ("serve_one (qos.py:117)", "cluster.qos"),
    ("_replay (injector.py:80)", "faults"),
    ("<engine>", "sim"),
    ("trial (fleet.py:10)", OTHER),
    ("not a site", OTHER),
])
def test_module_of(site, module):
    assert module_of(site) == module


def test_rollup_sums_sites_per_module():
    doc = {"sites": [
        {"site": "read (disk.py:129)", "resumes": 10, "wall_s": 1.5},
        {"site": "write (disk.py:159)", "resumes": 2, "wall_s": 0.5},
        {"site": "_generator (foreground.py:48)", "resumes": 4,
         "wall_s": 1.0},
        {"site": "trial (fleet.py:10)", "resumes": 1, "wall_s": 0.25},
    ]}
    out = rollup(doc)
    assert set(MODULES) <= set(out)
    assert out["cluster.disk"] == {"self_s": 2.0, "resumes": 12}
    assert out["cluster.foreground"] == {"self_s": 1.0, "resumes": 4}
    assert out["cluster.rcstor"] == {"self_s": 0.0, "resumes": 0}
    assert out[OTHER] == {"self_s": 0.25, "resumes": 1}


def test_every_generator_file_is_mapped():
    """Each source file that spawns process generators maps to a module,
    so no DES time lands in the unmapped bucket."""
    src = HERE.parent / "src" / "repro"
    for rel in ("sim/engine.py", "cluster/disk.py", "cluster/foreground.py",
                "cluster/rcstor.py", "cluster/network.py", "cluster/qos.py",
                "faults/injector.py"):
        assert (src / rel).is_file(), rel
        assert module_of(f"gen ({Path(rel).name}:1)") != OTHER, rel


# ----------------------------------------------------------------------
# Fixture comparator
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig10_rows():
    return load_fixture_rows(HERE.parent / FIXTURE, "fig10")


def test_fixture_rows_match_themselves(fig10_rows):
    rows = fig10_rows["fig10/RS"]
    assert compare_rows(copy.deepcopy(rows), rows) == []


def test_fixture_comparator_flags_a_perturbed_row(fig10_rows):
    rows = fig10_rows["fig10/Geo-128K"]
    bad = copy.deepcopy(rows)
    bad[0]["degraded_ms_busy"] *= 1 + 1e-12
    problems = compare_rows(bad, rows)
    assert len(problems) == 1 and "degraded_ms_busy" in problems[0]
    assert compare_rows(bad + bad, rows) != []
    missing = copy.deepcopy(rows)
    del missing[0]["normal_ms"]
    assert any("normal_ms" in p for p in compare_rows(missing, rows))


# ----------------------------------------------------------------------
# Row checks
# ----------------------------------------------------------------------
def test_tradeoff_row_check(fig10_rows):
    row = fig10_rows["fig10/Geo-128K"][0]
    assert check_tradeoff_row(row) == []
    for field, value in (("degraded_ms_busy", 0.0), ("recovery_time", -1.0),
                         ("normal_ms", math.nan), ("repaired_bytes", None)):
        bad = dict(row, **{field: value})
        assert any(field in p for p in check_tradeoff_row(bad)), field


SECOND_FAILURE_ROW = {"scheme": "RS", "makespan_s": 1.6, "baseline_s": 1.2,
                      "slowdown": 1.3, "tasks_escalated": 0,
                      "tasks_requeued": 0, "tasks_abandoned": 0}
RECOVERY_COUNTERS = {"disk.bytes_written{run=0:RS/recovery}": 100,
                     "disk.bytes_written{run=1:RS/recovery}": 100,
                     "engine.events_scheduled": 5}


def test_second_failure_check():
    assert check_second_failure(SECOND_FAILURE_ROW, RECOVERY_COUNTERS) == []
    abandoned = dict(SECOND_FAILURE_ROW, tasks_abandoned=2)
    assert any("abandoned" in p for p in
               check_second_failure(abandoned, RECOVERY_COUNTERS))
    nothing = dict(RECOVERY_COUNTERS,
                   **{"disk.bytes_written{run=1:RS/recovery}": 0})
    assert any("repaired no bytes" in p for p in
               check_second_failure(SECOND_FAILURE_ROW, nothing))
    assert check_second_failure(SECOND_FAILURE_ROW, {}) != []
    stalled = dict(SECOND_FAILURE_ROW, makespan_s=0.0)
    assert check_second_failure(stalled, RECOVERY_COUNTERS) != []


def _cell(scheme="RS", weight=1, hedged=False, p99=(900.0, 900.0, 900.0),
          wins=0):
    return [{"scheme": scheme, "repair_weight": weight, "hedged": hedged,
             "tenant": tenant, "attainment": 0.9, "recovery_makespan_s": 2.0,
             "n_requests": 300, "n_degraded": 20, "degraded_p99_ms": p,
             "hedge_wins": wins}
            for tenant, p in zip(("interactive", "standard", "batch"), p99)]


def test_frontier_cell_check():
    assert check_frontier_cell(_cell()) == []
    over = _cell()
    over[0]["attainment"] = 1.5
    assert any("attainment" in p for p in check_frontier_cell(over))
    inverted = _cell()
    inverted[1]["n_degraded"] = 301
    assert any("n_degraded" in p for p in check_frontier_cell(inverted))
    assert any("tenant set" in p for p in check_frontier_cell(_cell()[:2]))
    no_recovery = _cell()
    no_recovery[2]["recovery_makespan_s"] = 0.0
    assert any("makespan" in p for p in check_frontier_cell(no_recovery))


def test_frontier_grid_check():
    good = (_cell(hedged=False) + _cell(hedged=True, p99=(300.0,) * 3,
                                        wins=5))
    assert check_frontier_grid(good) == []
    slower = (_cell(hedged=False) + _cell(hedged=True, p99=(950.0,) * 3,
                                          wins=5))
    assert any("not below unhedged" in p for p in check_frontier_grid(slower))
    never = _cell(hedged=False) + _cell(hedged=True, p99=(300.0,) * 3)
    assert any("never won" in p for p in check_frontier_grid(never))
    assert any("missing" in p for p in check_frontier_grid(_cell()))
