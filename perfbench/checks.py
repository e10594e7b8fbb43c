"""Output checks that decide whether a benchmark unit failed.

Each check returns a list of human-readable problems; an empty list
means the unit's output is correct.  The checks read only plain result
rows (and, for recovery, the unit's metric counters), so they are
testable without running a simulation.
"""

from __future__ import annotations

import gzip
import json
import math
from functools import lru_cache
from pathlib import Path

#: The pinned ``all --json`` output at the CI configuration
#: (``--n-objects 300 --n-requests 3``, root seed 0).
FIXTURE = Path("results") / "expected_all_300.json.gz"

#: Only this root seed reproduces the fixture.
FIXTURE_SEED = 0


@lru_cache(maxsize=None)
def load_fixture_rows(path: Path, experiment: str) -> dict[str, list[dict]]:
    """Unit name -> rows for one experiment of the pinned fixture."""
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {unit["name"]: unit["rows"]
            for unit in doc["experiments"][experiment]}


def compare_rows(actual: list[dict], expected: list[dict]) -> list[str]:
    """Field-by-field exact comparison against pinned rows."""
    if len(actual) != len(expected):
        return [f"{len(actual)} rows, fixture has {len(expected)}"]
    problems = []
    for i, (got, want) in enumerate(zip(actual, expected)):
        for key in sorted(set(got) | set(want)):
            if got.get(key) != want.get(key):
                problems.append(f"row {i} field {key!r}: {got.get(key)!r} "
                                f"!= fixture {want.get(key)!r}")
    return problems


def _positive(row: dict, fields: tuple[str, ...]) -> list[str]:
    problems = []
    for name in fields:
        value = row.get(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value) \
                or value <= 0:
            problems.append(f"{row.get('scheme')}: {name}={value!r} "
                            "is not a positive number")
    return problems


def check_tradeoff_row(row: dict) -> list[str]:
    """A Figure 9/10 row: every time, rate and byte count is positive."""
    return _positive(row, ("recovery_time", "recovery_time_busy",
                           "degraded_ms", "degraded_ms_busy", "normal_ms",
                           "recovery_rate", "repaired_bytes"))


def check_second_failure(row: dict, counters: dict) -> list[str]:
    """A chaos-recovery row: no task abandoned and every recovery run of
    the unit wrote repaired bytes to its replacement disks."""
    problems = _positive(row, ("makespan_s", "baseline_s"))
    if row.get("tasks_abandoned") != 0:
        problems.append(f"{row.get('scheme')}: "
                        f"{row.get('tasks_abandoned')} tasks abandoned")
    written = [value for key, value in counters.items()
               if key.startswith("disk.bytes_written{")
               and key.endswith("/recovery}")]
    if not written or min(written) <= 0:
        problems.append(f"{row.get('scheme')}: a recovery run repaired "
                        f"no bytes ({written})")
    return problems


#: Tenant set of the traffic-frontier grid.
TENANTS = {"interactive", "standard", "batch"}


def check_frontier_cell(rows: list[dict]) -> list[str]:
    """The traffic CI asserts on the tenant rows of one open-loop cell."""
    problems = []
    if {r.get("tenant") for r in rows} != TENANTS:
        problems.append(f"tenant set {sorted({r.get('tenant') for r in rows})}"
                        f" != {sorted(TENANTS)}")
    for r in rows:
        where = (f"{r.get('scheme')}/w{r.get('repair_weight')}/"
                 f"{'hedged' if r.get('hedged') else 'unhedged'}/"
                 f"{r.get('tenant')}")
        if not 0.0 <= r.get("attainment", -1.0) <= 1.0:
            problems.append(f"{where}: attainment {r.get('attainment')!r}")
        if not r.get("recovery_makespan_s", 0) > 0:
            problems.append(f"{where}: no recovery makespan")
        if not r.get("n_requests", -1) >= r.get("n_degraded", -1) >= 0:
            problems.append(f"{where}: n_requests {r.get('n_requests')} < "
                            f"n_degraded {r.get('n_degraded')}")
    return problems


def check_frontier_grid(rows: list[dict]) -> list[str]:
    """The traffic CI asserts that compare cells: hedged reads win races
    and cut RS's interactive degraded p99 at every repair weight."""
    problems = []
    if sum(r.get("hedge_wins", 0) for r in rows if r.get("hedged")) <= 0:
        problems.append("hedging never won a race")
    cells = {(r.get("scheme"), r.get("repair_weight"), r.get("hedged"),
              r.get("tenant")): r for r in rows}
    for weight in sorted({r.get("repair_weight") for r in rows}):
        hedged = cells.get(("RS", weight, True, "interactive"))
        unhedged = cells.get(("RS", weight, False, "interactive"))
        if hedged is None or unhedged is None:
            problems.append(f"RS w{weight}: interactive cells missing")
        elif not hedged["degraded_p99_ms"] < unhedged["degraded_p99_ms"]:
            problems.append(
                f"RS w{weight}: hedged interactive degraded p99 "
                f"{hedged['degraded_p99_ms']:.1f} ms is not below unhedged "
                f"{unhedged['degraded_p99_ms']:.1f} ms")
    return problems
