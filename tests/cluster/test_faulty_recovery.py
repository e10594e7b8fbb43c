"""Failure-aware repair paths: hedged reads, fallback ladder, requeue,
second-failure escalation, and the task-conservation invariant."""

from dataclasses import asdict

import numpy as np
import pytest

from repro.analysis import attach_invariant_checker
from repro.cluster import ClusterConfig, RCStor
from repro.codes import ClayCode, LRCCode, RSCode
from repro.core import ContiguousLayout, GeometricLayout, StripeLayout
from repro.faults import FaultEvent, FaultPlan
from repro.obs import Observer

MB = 1 << 20


@pytest.fixture(scope="module")
def config():
    return ClusterConfig(n_pgs=48)


@pytest.fixture(scope="module")
def sizes():
    rng = np.random.default_rng(3)
    return rng.integers(4 * MB, 64 * MB, size=400)


def _geo_clay(config, sizes, obs=None):
    system = RCStor(config, GeometricLayout(4 * MB, 2, max_chunk_size=256 * MB),
                    ClayCode(10, 4), obs=obs)
    system.ingest(sizes)
    return system


#: Layout/code pairs covering every repair branch: single-disk
#: regenerating (Geo, Con), striped regenerating (Stripe), striped scalar
#: MDS (RS) and striped scalar non-MDS (LRC).
_SCHEMES = {
    "Geo-4M": lambda: (GeometricLayout(4 * MB, 2, max_chunk_size=256 * MB),
                       ClayCode(10, 4)),
    "Con-64M": lambda: (ContiguousLayout(64 * MB), ClayCode(10, 4)),
    "Stripe": lambda: (StripeLayout(256 * 1024, 10), ClayCode(10, 4)),
    "RS": lambda: (StripeLayout(256 * 1024, 10), RSCode(10, 4)),
    "LRC": lambda: (StripeLayout(256 * 1024, 10), LRCCode(10, 2, 2)),
}

#: Arms an injector (and so the whole fault ladder) but never fires.
_NEVER_FIRES = FaultPlan(events=(
    FaultEvent("disk_slow", at=1e9, disk=1, factor=1.0),))


def _reads_and_report(outcome):
    reads, report = outcome
    return [*reads, report]


def _pg_buddy(system, disk):
    """A disk sharing a placement group with ``disk``."""
    return next(d for pg in system.cluster.pgs if disk in pg
                for d in pg.disk_ids if d != disk)


class TestEmptyPlanIdentity:
    def test_recovery_bit_identical_with_empty_plan(self, config, sizes):
        base = _geo_clay(config, sizes).run_recovery(0, seed=3)
        faulted = _geo_clay(config, sizes).run_recovery(
            0, seed=3, faults=FaultPlan())
        assert faulted.makespan == base.makespan
        assert faulted.repaired_bytes == base.repaired_bytes
        assert faulted.tasks_requeued == 0
        assert faulted.tasks_abandoned == 0

    def test_degraded_reads_bit_identical_with_empty_plan(self, config, sizes):
        system = _geo_clay(config, sizes)
        objs = system.degraded_read_candidates(0)
        base = system.measure_degraded_reads(objs, 0, seed=5)
        faulted = system.measure_degraded_reads(objs, 0, seed=5,
                                                faults=FaultPlan())
        assert [r.total_time for r in base] \
            == [r.total_time for r in faulted]

    @pytest.mark.parametrize("entry", ["recovery", "node", "multi",
                                       "idle-reads", "busy-reads",
                                       "reads-during-recovery"])
    @pytest.mark.parametrize("plan", [FaultPlan(), _NEVER_FIRES],
                             ids=["empty", "never-fires"])
    @pytest.mark.parametrize("scheme", sorted(_SCHEMES))
    def test_plan_that_never_fires_changes_nothing(self, config, sizes,
                                                   scheme, plan, entry):
        """Fault-free repair is the fault ladder with no faults: a plan
        that never fires leaves every result field as ``faults=None``."""
        layout, code = _SCHEMES[scheme]()
        system = RCStor(config, layout, code)
        system.ingest(sizes)
        objs = system.degraded_read_candidates(0)[:6]
        buddy = _pg_buddy(system, 0)
        run = {
            "recovery": lambda faults: [
                system.run_recovery(0, seed=3, faults=faults)],
            "node": lambda faults: [
                system.run_node_recovery(0, seed=3, faults=faults)],
            "multi": lambda faults: [system.run_multi_failure_recovery(
                [0, buddy], seed=3, faults=faults)],
            "idle-reads": lambda faults: system.measure_degraded_reads(
                objs, 0, seed=5, faults=faults),
            "busy-reads": lambda faults: system.measure_degraded_reads(
                objs, 0, busy=True, seed=5, faults=faults),
            "reads-during-recovery": lambda faults: _reads_and_report(
                system.measure_degraded_reads_during_recovery(
                    objs, 0, seed=7, faults=faults)),
        }[entry]
        base = [asdict(r) for r in run(None)]
        assert base
        assert [asdict(r) for r in run(plan)] == base


class TestStragglerHedging:
    def test_straggler_triggers_hedged_retries(self, config, sizes):
        plan = FaultPlan.stragglers([5], factor=8.0).with_timeout(0.05)
        report = _geo_clay(config, sizes).run_recovery(0, seed=3, faults=plan)
        assert report.hedged_retries > 0
        assert report.tasks_abandoned == 0

    def test_faulted_run_is_deterministic(self, config, sizes):
        plan = FaultPlan.stragglers([5], factor=8.0).with_timeout(0.05)
        a = _geo_clay(config, sizes).run_recovery(0, seed=3, faults=plan)
        b = _geo_clay(config, sizes).run_recovery(0, seed=3, faults=plan)
        assert (a.makespan, a.hedged_retries, a.tasks_requeued) \
            == (b.makespan, b.hedged_retries, b.tasks_requeued)

    def test_degraded_read_hedges_around_straggler(self, config, sizes):
        system = RCStor(config, StripeLayout(256 * 1024, 10), RSCode(10, 4))
        system.ingest(np.random.default_rng(3).integers(
            4 * MB, 64 * MB, size=60))
        objs = system.degraded_read_candidates(0)[:4]
        assert objs
        slow = system.measure_degraded_reads(
            objs, 0, seed=5,
            faults=FaultPlan.stragglers([1], factor=50.0))
        hedged = system.measure_degraded_reads(
            objs, 0, seed=5,
            faults=FaultPlan.stragglers([1], factor=50.0).with_timeout(0.02))
        assert len(slow) == len(hedged) == len(objs)


class TestCrashFallbacks:
    def test_second_failure_escalates_and_conserves_tasks(self, config, sizes):
        obs = Observer()
        inv = attach_invariant_checker(obs)
        system = _geo_clay(config, sizes, obs=obs)
        buddy = _pg_buddy(system, 0)
        plan = FaultPlan.second_failure(buddy, at_progress=0.5)
        report = system.run_recovery(0, seed=3, faults=plan)
        base = _geo_clay(config, sizes).run_recovery(0, seed=3)
        assert report.tasks_escalated > 0
        assert report.makespan > base.makespan
        assert inv.stats["task_conservation_checks"] == 1
        assert "0 lost tasks" in inv.report()

    def test_timed_helper_crash_falls_back_to_decode(self, config, sizes):
        system = _geo_clay(config, sizes)
        buddy = _pg_buddy(system, 0)
        plan = FaultPlan(events=(
            FaultEvent("disk_crash", at=0.001, disk=buddy),))
        report = system.run_recovery(0, seed=3, faults=plan)
        assert report.tasks_escalated > 0
        assert report.tasks_abandoned == 0

    def test_replacement_write_crash_requeues(self, config, sizes):
        # Crash many non-PG disks mid-run: some in-flight replacement
        # writes land on freshly dead disks and must requeue, not vanish.
        obs = Observer()
        attach_invariant_checker(obs)
        system = _geo_clay(config, sizes, obs=obs)
        pg_disks = {d for pg in system.cluster.pgs if 0 in pg
                    for d in pg.disk_ids}
        outsiders = [d for d in range(config.n_disks)
                     if d not in pg_disks][:3]
        if not outsiders:
            pytest.skip("every disk shares a PG with disk 0")
        plan = FaultPlan(events=tuple(
            FaultEvent("disk_crash", at=0.01 * (i + 1), disk=d)
            for i, d in enumerate(outsiders)))
        report = system.run_recovery(0, seed=3, faults=plan)
        # Conservation held (checker did not raise); requeues are possible
        # but not guaranteed — the books must balance either way.
        assert report.n_tasks > 0

    def test_multi_failure_recovery_absorbs_extra_crash(self, config, sizes):
        obs = Observer()
        inv = attach_invariant_checker(obs)
        system = _geo_clay(config, sizes, obs=obs)
        plan = FaultPlan(events=(
            FaultEvent("disk_crash", at=0.001, disk=_pg_buddy(system, 0)),))
        report = system.run_multi_failure_recovery([0, 20], seed=9,
                                                   faults=plan)
        assert report.n_tasks > 0
        assert inv.stats["task_conservation_checks"] == 1

    def test_scalar_code_repicks_helpers(self, config, sizes):
        system = RCStor(config, ContiguousLayout(64 * MB), RSCode(10, 4))
        system.ingest(sizes)
        buddy = _pg_buddy(system, 0)
        plan = FaultPlan(events=(
            FaultEvent("disk_crash", at=0.001, disk=buddy),))
        report = system.run_recovery(0, seed=3, faults=plan)
        # Any-k re-pick: no escalation to decode needed, nothing lost.
        assert report.tasks_abandoned == 0


class TestGrantHygieneUnderTimeouts:
    def test_no_leaked_grants_under_injected_timeouts(self, config, sizes):
        """Satellite regression: a hedged retry that abandons queued helper
        reads must cancel the requests — the end-of-run audit stays clean."""
        obs = Observer()
        inv = attach_invariant_checker(obs)
        system = _geo_clay(config, sizes, obs=obs)
        plan = FaultPlan.stragglers([5, 17], factor=16.0).with_timeout(0.02)
        report = system.run_recovery(0, seed=3, faults=plan)
        assert report.hedged_retries > 0  # timeouts actually fired
        assert inv.stats["resources_audited"] > 0
        assert "0 leaked grants" in inv.report()

    def test_degraded_reads_under_timeouts_audit_clean(self, config, sizes):
        obs = Observer()
        inv = attach_invariant_checker(obs)
        system = _geo_clay(config, sizes, obs=obs)
        objs = system.degraded_read_candidates(0)
        plan = FaultPlan.stragglers([5], factor=16.0).with_timeout(0.02)
        system.measure_degraded_reads(objs, 0, seed=5, faults=plan)
        assert inv.stats["resources_audited"] > 0
        assert "0 leaked grants" in inv.report()


class TestDegradedDuringRecoveryFaults:
    def test_second_failure_during_mixed_run(self, config, sizes):
        obs = Observer()
        inv = attach_invariant_checker(obs)
        system = _geo_clay(config, sizes, obs=obs)
        objs = system.degraded_read_candidates(0)
        plan = FaultPlan.second_failure(_pg_buddy(system, 0),
                                        at_progress=0.5)
        results, report = system.measure_degraded_reads_during_recovery(
            objs, 0, seed=7, faults=plan)
        assert len(results) == len(objs)
        assert all(r.total_time > 0 for r in results)
        assert inv.stats["task_conservation_checks"] == 1
