"""Chaos experiments: CLI flags and params, fault determinism across
``--jobs`` and cache hits, and the straggler-degrades-tail acceptance
property."""

import json

from repro.experiments.__main__ import main

SCALE = ["--n-objects", "150", "--n-requests", "3"]


def _run_json(capsys, args):
    assert main(args + ["--json"]) == 0
    return capsys.readouterr().out


def _rows(doc_text, experiment):
    # --check-invariants appends its report after the JSON document.
    doc, _end = json.JSONDecoder().raw_decode(doc_text)
    return [row for result in doc["experiments"][experiment]
            for row in result["rows"]]


class TestFaultDeterminism:
    """Satellite: fault schedules are bit-reproducible across ``--jobs``
    and cache hits — byte-identical JSON, faults included."""

    def test_chaos_tail_identical_across_jobs_and_cache(self, tmp_path,
                                                        capsys):
        args = ["chaos-tail", *SCALE, "--param", "factors=8", "--seed", "5",
                "--cache-dir", str(tmp_path)]
        parallel_cold = _run_json(capsys, args + ["--jobs", "4"])
        warm = _run_json(capsys, args + ["--jobs", "1"])
        serial = _run_json(capsys, args + ["--no-cache"])
        assert parallel_cold == warm == serial
        assert all(r["hedged"] for r in _rows(serial, "chaos-tail"))

    def test_chaos_recovery_identical_across_jobs_and_cache(self, tmp_path,
                                                            capsys):
        args = ["chaos-recovery", "--n-objects", "150", "--seed", "5",
                "--cache-dir", str(tmp_path)]
        parallel_cold = _run_json(capsys, args + ["--jobs", "4"])
        warm = _run_json(capsys, args + ["--jobs", "1"])
        serial = _run_json(capsys, args + ["--no-cache"])
        assert parallel_cold == warm == serial


class TestChaosFlags:
    def test_factors_param_narrows_the_grid(self, tmp_path, capsys):
        out = _run_json(capsys, ["chaos-tail", *SCALE, "--param", "factors=4",
                                 "--cache-dir", str(tmp_path)])
        rows = _rows(out, "chaos-tail")
        assert rows
        assert {r["straggler_factor"] for r in rows} == {4.0}

    def test_faults_flag_loads_a_plan_file(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "events": [{"kind": "disk_slow", "at": 0.0, "disk": 2,
                        "factor": 8.0}],
            "helper_timeout": 0.05,
        }))
        out = _run_json(capsys, ["chaos-tail", *SCALE, "--param", "factors=4",
                                 "--faults", str(plan_path),
                                 "--no-cache"])
        doc = json.loads(out)
        for result in doc["experiments"]["chaos-tail"]:
            faults = result["provenance"]["params"]["faults"]
            assert faults["helper_timeout"] == 0.05
            assert faults["events"][0]["kind"] == "disk_slow"
        # The explicit plan arms the hedge timeout on every row.
        assert all(r["hedged"] for r in _rows(out, "chaos-tail"))


class TestAcceptance:
    def test_straggler_degrades_pipelined_p99_with_clean_invariants(
            self, tmp_path, capsys):
        base = _run_json(capsys, ["chaos-tail", *SCALE,
                                  "--param", "factors=1",
                                  "--check-invariants",
                                  "--cache-dir", str(tmp_path)])
        slow = _run_json(capsys, ["chaos-tail", *SCALE,
                                  "--param", "factors=16",
                                  "--check-invariants",
                                  "--cache-dir", str(tmp_path)])
        assert "0 leaked grants" in base and "0 leaked grants" in slow
        p99 = {out: {r["scheme"]: r["p99_ms"] for r in _rows(out, "chaos-tail")}
               for out in (base, slow)}
        for scheme in ("Geo-4M", "Con-64M"):  # the pipelined schemes
            assert p99[slow][scheme] > p99[base][scheme]

    def test_second_failure_scenario_reports_impact(self, tmp_path, capsys):
        out = _run_json(capsys, ["chaos-recovery", "--n-objects", "150",
                                 "--check-invariants",
                                 "--cache-dir", str(tmp_path)])
        assert "0 lost tasks" in out
        rows = _rows(out, "chaos-recovery")
        assert len(rows) == 4
        assert all(r["tasks_abandoned"] == 0 for r in rows)
        assert any(r["slowdown"] > 1.0 or r["tasks_escalated"] > 0
                   for r in rows)
