"""Tests for the ``python -m repro.experiments`` runner CLI."""

import inspect
import json

import pytest

from repro.experiments.__main__ import (
    EXTENSIONS,
    REGISTRY,
    _convert,
    _load,
    main,
)


def test_experiment_registry_covers_the_paper():
    expected = {"table1", "table2", "table3", "table4", "table5",
                "fig2", "fig4", "fig7", "fig9", "fig10", "fig11", "fig12",
                "fig13", "fig14", "breakdown", "range", "headline",
                "ablations", "durability", "chaos-tail", "chaos-recovery"}
    assert expected == set(REGISTRY) - EXTENSIONS
    # Extensions are runnable but excluded from ``all`` (its output is
    # pinned byte-for-byte by results/expected_all_300.json.gz).
    assert EXTENSIONS == {"placement-matrix", "durability-frontier",
                          "traffic-frontier"}
    assert EXTENSIONS <= set(REGISTRY)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_registry_keywords_are_scenarios_parameters(name):
    exp = REGISTRY[name]
    params = inspect.signature(_load(exp.module, exp.scenarios),
                               eval_str=True).parameters
    assert set(exp.pinned) | set(exp.defaults) <= set(params)
    assert not set(exp.pinned) & set(exp.defaults)


def test_cli_table1(tmp_path, capsys):
    assert main(["table1", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "Clay(10,4)" in out
    assert "3.25" in out


def test_cli_fig2(tmp_path, capsys):
    assert main(["fig2", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "D1,D2,D3,D4" in out


def test_cli_with_scale_flag(tmp_path, capsys):
    assert main(["fig14", "--n-objects", "500",
                 "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "Peak at q=" in out


def test_cli_workload_flag(tmp_path, capsys):
    assert main(["breakdown", "--workload", "W2", "--n-objects", "2000",
                 "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "Geo-128K" in out


def test_cli_rejects_unknown():
    with pytest.raises(SystemExit):
        main(["nonsense"])


@pytest.mark.parametrize("args, fragments", [
    (["chaos-tail", "--param", "straggler=16"],
     ["chaos-tail:", "'straggler=16'", "its --param keywords are: factors"]),
    (["chaos-tail", "--param", "factors"], ["NAME=VALUE"]),
    # Pinned keywords: fig9 is the tradeoff on W1, whichever flag asks.
    (["fig9", "--workload", "W2"],
     ["fig9:", "pins", "its --param keywords are: schemes, include_busy"]),
    (["fig9", "--param", "setting=W2"], ["fig9:", "'setting=W2'"]),
    # Keywords with their own flag are not --param keywords.
    (["fig13", "--param", "n_objects=100"],
     ["its --param keywords are: bandwidths"]),
    # Checked before the plan file is read.
    (["fig13", "--faults", "plan.json"], ["fig13:", "does not take"]),
    (["table1", "--param", "k=ten"], ["table1:", "k, r, lrc_locals"]),
    (["fig9", "--param", "include_busy=yes"],
     ["cannot convert 'yes' to bool"]),
])
def test_cli_usage_errors_exit_2_naming_accepted_keywords(capsys, args,
                                                          fragments):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    for fragment in fragments:
        assert fragment in err


def test_param_conversion_follows_annotations():
    assert _convert(int, "7") == 7
    assert _convert(float, "2.5") == 2.5
    assert _convert(bool, "true") is True
    assert _convert(bool, "false") is False
    assert _convert(int | None, "3") == 3
    assert _convert(tuple[float, ...] | None, "16,4") == (16.0, 4.0)
    assert _convert(tuple[str, ...] | None, "a,,b") == ("a", "b")
    assert _convert(list[str] | None, "RS") == ["RS"]
    for annotation, text in ((bool, "True"), (bool, "1"), (int, "1.5"),
                             (dict | None, "{}")):
        with pytest.raises(ValueError):
            _convert(annotation, text)


def test_param_sets_scenario_keywords(tmp_path, capsys):
    assert main(["table1", "--param", "k=6", "--param", "r=3",
                 "--cache-dir", str(tmp_path)]) == 0
    assert "Clay(6,3)" in capsys.readouterr().out
    assert main(["fig13", "--n-objects", "100", "--param", "bandwidths=2",
                 "--json", "--cache-dir", str(tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    (result,) = doc["experiments"]["fig13"]
    assert result["provenance"]["params"]["gbps"] == 2.0


def test_cli_reports_cache_status(tmp_path, capsys):
    args = ["table1", "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    assert "0/1 units cached" in capsys.readouterr().out
    assert main(args) == 0
    assert "1/1 units cached" in capsys.readouterr().out


def test_cli_no_cache_skips_the_cache(tmp_path, capsys):
    args = ["table1", "--cache-dir", str(tmp_path), "--no-cache"]
    assert main(args) == 0
    assert main(args) == 0
    assert "0/1 units cached" in capsys.readouterr().out
    assert list(tmp_path.rglob("*.json")) == []


def test_cli_json_output_is_machine_readable(tmp_path, capsys):
    assert main(["table1", "--json", "--cache-dir", str(tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["root_seed"] == 0
    (result,) = doc["experiments"]["table1"]
    assert result["name"] == "table1/codes"
    assert any(row["name"] == "Clay(10,4)" for row in result["rows"])
    assert result["provenance"]["fn"] == "repro.experiments.table1:compute"


def test_cli_json_is_identical_across_jobs_and_cache(tmp_path, capsys):
    """The acceptance invariant at CLI level: byte-identical --json output
    for serial, parallel, and cache-served executions."""
    args = ["fig13", "--n-objects", "100", "--seed", "9", "--json",
            "--cache-dir", str(tmp_path)]
    assert main(args + ["--jobs", "2"]) == 0
    parallel_cold = capsys.readouterr().out
    assert main(args) == 0  # warm: served from cache
    warm = capsys.readouterr().out
    assert main(args + ["--no-cache"]) == 0  # serial, recomputed
    serial = capsys.readouterr().out
    assert parallel_cold == warm == serial


def test_cli_seed_changes_simulated_rows(tmp_path, capsys):
    args = ["fig13", "--n-objects", "100", "--json",
            "--cache-dir", str(tmp_path)]
    assert main(args + ["--seed", "1"]) == 0
    one = capsys.readouterr().out
    assert main(args + ["--seed", "2"]) == 0
    two = capsys.readouterr().out
    assert one != two


def test_cli_bench_out_accounts_units(tmp_path, capsys):
    bench = tmp_path / "BENCH_experiments.json"
    assert main(["fig13", "--n-objects", "100", "--jobs", "2",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--bench-out", str(bench)]) == 0
    capsys.readouterr()
    doc = json.loads(bench.read_text())
    assert doc["jobs"] == 2
    assert doc["totals"]["units"] == 3
    assert doc["totals"]["misses"] == 3
    assert {u["name"] for u in doc["units"]} == \
        {"fig13/1gbps", "fig13/2gbps", "fig13/4gbps"}
    for unit in doc["units"]:
        assert unit["wall_s"] >= 0
        assert unit["sim_time_s"] > 0


def test_cli_timeline_flag_writes_merged_doc(tmp_path, capsys):
    out = tmp_path / "tl.json"
    assert main(["fig13", "--n-objects", "100", "--no-cache",
                 "--timeline", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["schema"] == "repro.timeline/1"
    assert len(doc["segments"]) == 3  # one per bandwidth unit
    for seg in doc["segments"]:
        assert seg["t"]
        assert "degraded.reads_completed" in seg["counters"]
        assert "engine.events_scheduled" in seg["counters"]


def test_cli_timeline_does_not_change_json_rows(tmp_path, capsys):
    """Telemetry may add counters to the obs snapshot, but the simulated
    rows — the science — must be untouched by observation."""
    args = ["fig13", "--n-objects", "100", "--json", "--no-cache"]
    assert main(args) == 0
    plain = json.loads(capsys.readouterr().out)
    assert main(args + ["--timeline", str(tmp_path / "tl.json")]) == 0
    with_timeline = json.loads(capsys.readouterr().out)

    def rows(doc):
        return [(r["name"], r["rows"]) for r in doc["experiments"]["fig13"]]

    assert rows(plain) == rows(with_timeline)


def test_cli_profile_prints_flame_table(tmp_path, capsys):
    assert main(["fig13", "--n-objects", "100", "--no-cache",
                 "--profile"]) == 0
    out = capsys.readouterr().out
    assert "== profile (wall clock, per process site) ==" in out
    assert "rcstor.py:" in out


def test_cli_report_writes_self_contained_html(tmp_path, capsys):
    report = tmp_path / "run.html"
    assert main(["fig13", "--n-objects", "100", "--no-cache",
                 "--report", str(report)]) == 0
    capsys.readouterr()
    page = report.read_text(encoding="utf-8")
    assert page.startswith("<!doctype html>")
    assert "<script" not in page
    assert "<svg" in page
    assert "fig13" in page


def test_cli_flightrec_dir_stays_empty_on_clean_run(tmp_path, capsys):
    out = tmp_path / "fr"
    assert main(["fig13", "--n-objects", "100", "--no-cache",
                 "--flightrec", str(out)]) == 0
    capsys.readouterr()
    assert not out.exists() or not list(out.glob("*"))


def test_cli_zero_n_objects_is_not_treated_as_unset(tmp_path, capsys):
    """Falsy values must win over defaults (`is None` semantics): 0 objects
    is an explicit scale, not a request for the per-experiment default."""
    assert main(["fig14", "--n-objects", "0", "--json",
                 "--cache-dir", str(tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    (result,) = doc["experiments"]["fig14"]
    assert result["provenance"]["params"]["n_objects"] == 0
