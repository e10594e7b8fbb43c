"""Tests for the repro.bench harness, schema, regression gate, and CLI."""

import json

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    BenchSpec,
    all_specs,
    compare,
    render,
    run_spec,
    run_specs,
)
from repro.bench.__main__ import main as bench_main
from repro.bench.harness import CALIBRATION_GROUP, Regression


def _noop_specs():
    return [
        BenchSpec("calibrate.spin", CALIBRATION_GROUP, lambda: None,
                  units=10, repeats=2),
        BenchSpec("micro.a", "micro", lambda: sum(range(100)), units=100,
                  repeats=2),
        BenchSpec("macro.b", "macro", lambda: None, repeats=2),
    ]


def test_run_spec_times_and_repeats():
    calls = []
    spec = BenchSpec("x", "micro", lambda: calls.append(1), units=4,
                     repeats=3)
    result = run_spec(spec)
    assert len(calls) == 4  # 1 warmup + 3 timed
    assert len(result.all_seconds) == 3
    assert result.seconds == min(result.all_seconds)
    assert result.per_unit_us == result.seconds / 4 * 1e6


def test_run_spec_runs_until_min_seconds(monkeypatch):
    from repro.bench import harness

    clock = [0.0]
    monkeypatch.setattr(harness.time, "perf_counter", lambda: clock[0])

    def work():  # each call takes exactly 10 ms of fake time
        clock[0] += 0.01

    spec = BenchSpec("x", "macro", work, repeats=2, min_seconds=0.05)
    result = run_spec(spec)
    # 2 repeats would time only 0.02 s; runs continue until 0.05 s.
    assert len(result.all_seconds) == 5
    assert sum(result.all_seconds) == pytest.approx(0.05)


def test_run_spec_rejects_bad_repeats():
    spec = BenchSpec("x", "micro", lambda: None)
    with pytest.raises(ValueError):
        run_spec(spec, repeats=0)


def test_run_specs_document_schema():
    doc = run_specs(_noop_specs())
    assert doc["schema"] == BENCH_SCHEMA
    assert doc["calibration_s"] is not None
    marks = doc["benchmarks"]
    assert set(marks) == {"calibrate.spin", "micro.a", "macro.b"}
    for entry in marks.values():
        assert {"group", "units", "repeats", "seconds",
                "per_unit_us"} <= set(entry)
        assert "normalized" in entry
    # stable JSON round-trip
    assert json.loads(json.dumps(doc)) == doc


def test_run_specs_rejects_duplicate_names():
    specs = [BenchSpec("same", "micro", lambda: None),
             BenchSpec("same", "micro", lambda: None)]
    with pytest.raises(ValueError):
        run_specs(specs)


def _doc(marks):
    return {"schema": BENCH_SCHEMA, "calibration_s": 0.1,
            "benchmarks": marks}


def _entry(normalized, group="micro"):
    return {"group": group, "units": 1, "repeats": 3,
            "seconds": normalized * 0.1, "per_unit_us": 1.0,
            "normalized": normalized}


def test_compare_flags_only_regressions_beyond_tolerance():
    base = _doc({"a": _entry(1.0), "b": _entry(2.0), "c": _entry(3.0)})
    cur = _doc({"a": _entry(1.15),   # +15%: within the 20% gate
                "b": _entry(2.5),    # +25%: regression
                "c": _entry(2.0)})   # improvement
    regs = compare(cur, base, tolerance=0.20)
    assert [r.name for r in regs] == ["b"]
    assert regs[0].metric == "normalized"
    assert regs[0].ratio == pytest.approx(1.25)
    assert "b" in str(regs[0])


def test_compare_ignores_new_and_removed_benchmarks():
    base = _doc({"a": _entry(1.0), "gone": _entry(1.0)})
    cur = _doc({"a": _entry(1.0), "new": _entry(50.0)})
    assert compare(cur, base) == []


def test_compare_never_gates_on_the_calibration_itself():
    base = _doc({"cal": _entry(1.0, group=CALIBRATION_GROUP)})
    cur = _doc({"cal": _entry(9.0, group=CALIBRATION_GROUP)})
    assert compare(cur, base) == []


def test_compare_falls_back_to_seconds_without_calibration():
    base = {"benchmarks": {"a": {"group": "micro", "seconds": 1.0,
                                 "units": 1, "repeats": 1,
                                 "per_unit_us": 1.0}}}
    cur = {"benchmarks": {"a": {"group": "micro", "seconds": 1.5,
                                "units": 1, "repeats": 1,
                                "per_unit_us": 1.0}}}
    regs = compare(cur, base, tolerance=0.20)
    assert [r.metric for r in regs] == ["seconds"]


def test_compare_validates_tolerance():
    with pytest.raises(ValueError):
        compare(_doc({}), _doc({}), tolerance=-0.1)


def test_regression_ratio_handles_zero_baseline():
    assert Regression("x", "seconds", 0.0, 1.0).ratio == float("inf")


def test_render_lists_every_benchmark():
    doc = run_specs(_noop_specs())
    table = render(doc)
    for name in doc["benchmarks"]:
        assert name in table


def test_all_specs_unique_names_and_calibration_present():
    specs = all_specs()
    names = [s.name for s in specs]
    assert len(set(names)) == len(names)
    assert sum(1 for s in specs if s.group == CALIBRATION_GROUP) == 1
    assert any(s.group == "micro" for s in specs)
    assert any(s.group == "macro" for s in specs)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_list(capsys):
    assert bench_main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "calibrate.spin" in out
    assert "scenario.fig13" in out


def test_cli_runs_filtered_suite_and_writes_doc(tmp_path, capsys):
    out_path = tmp_path / "BENCH_engine.json"
    rc = bench_main(["--only", "gf.constructions", "--repeats", "1",
                     "--out", str(out_path)])
    assert rc == 0
    doc = json.loads(out_path.read_text())
    assert doc["schema"] == BENCH_SCHEMA
    assert set(doc["benchmarks"]) == {"calibrate.spin", "gf.constructions"}
    assert "gf.constructions" in capsys.readouterr().out


def test_cli_gate_passes_against_own_output(tmp_path, capsys):
    base = tmp_path / "baseline.json"
    assert bench_main(["--only", "gf.constructions", "--repeats", "1",
                       "--out", str(base)]) == 0
    # A generous gate against a just-written baseline must pass.
    rc = bench_main(["--only", "gf.constructions", "--repeats", "1",
                     "--baseline", str(base), "--gate", "5.0"])
    assert rc == 0
    assert "perf gate OK" in capsys.readouterr().out


def test_cli_gate_fails_on_regression(tmp_path, capsys):
    base = tmp_path / "baseline.json"
    assert bench_main(["--only", "gf.constructions", "--repeats", "1",
                       "--out", str(base)]) == 0
    # Shrink the baseline numbers so the fresh run looks like a regression.
    doc = json.loads(base.read_text())
    for entry in doc["benchmarks"].values():
        if entry["group"] != CALIBRATION_GROUP:
            entry["normalized"] /= 100.0
            entry["seconds"] /= 100.0
    base.write_text(json.dumps(doc))
    rc = bench_main(["--only", "gf.constructions", "--repeats", "1",
                     "--baseline", str(base), "--gate", "0.20"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "PERF GATE FAILED" in out
    assert "[bench-reset]" in out
