"""Runtime invariant checker tests: sim clock, grant leaks, byte
conservation — plus end-to-end runs with the checker armed."""

import numpy as np
import pytest

from repro.analysis import InvariantChecker, InvariantViolation, \
    attach_invariant_checker
from repro.cluster import ClusterConfig, RCStor
from repro.cluster.profiles import HelperRead, ProfileCache, RepairProfile
from repro.codes import ClayCode, RSCode
from repro.core import GeometricLayout
from repro.obs import Observer, observed
from repro.sim import Environment, Resource

MB = 1 << 20


# ----------------------------------------------------------------------
# Monotonic sim clock
# ----------------------------------------------------------------------
def test_on_schedule_rejects_past_events():
    checker = InvariantChecker()
    env = Environment()
    env.now = 5.0
    with pytest.raises(InvariantViolation, match="backwards"):
        checker.on_schedule(4.0, env.event())
    checker.on_schedule(5.0, env.event())  # at `now` is fine


def test_schedule_checks_flow_through_engine_hooks():
    obs = Observer()
    checker = attach_invariant_checker(obs)
    env = Environment(trace_hooks=obs.engine_hooks)

    def proc():
        yield env.timeout(1)
        yield env.timeout(2)

    env.process(proc())
    env.run()
    assert checker.stats["schedule_checks"] > 0


# ----------------------------------------------------------------------
# Grant-leak audit
# ----------------------------------------------------------------------
def _observed_resource():
    obs = Observer()
    checker = attach_invariant_checker(obs)
    env = Environment()
    res = Resource(env, capacity=1, obs=obs, kind="disk", instance="0")
    return checker, env, res


def test_resource_registration():
    checker, _env, _res = _observed_resource()
    assert checker.stats["resources_registered"] == 1


def test_audit_flags_held_grant():
    checker, env, res = _observed_resource()
    req = res.request()
    assert req.granted
    with pytest.raises(InvariantViolation, match="leak"):
        checker.audit_env(env)
    res.release(req)
    checker.audit_env(env)
    assert checker.stats["resources_audited"] >= 1


def test_audit_ignores_other_envs():
    checker, env, res = _observed_resource()
    req = res.request()
    checker.audit_env(Environment())  # different env: nothing to audit
    assert checker.stats["resources_audited"] == 0
    with pytest.raises(InvariantViolation, match="leak"):
        checker.audit_env(env)  # the leaked grant is in this env
    res.release(req)


def test_audit_clean_after_cancelled_waiter():
    checker, env, res = _observed_resource()
    first = res.request()
    second = res.request()
    second.cancel()
    first.release()
    checker.audit_env(env)


# ----------------------------------------------------------------------
# Repair byte conservation
# ----------------------------------------------------------------------
def test_rs_profile_conserves_bytes():
    checker = InvariantChecker()
    code = RSCode(10, 4)
    profile = ProfileCache(code).get(0, 4 * MB)
    checker.check_repair_profile(code, profile)
    assert checker.expected_repair_bytes(code, 0, 4 * MB) == 10 * 4 * MB


def test_clay_profile_conserves_bytes():
    checker = InvariantChecker()
    code = ClayCode(10, 4)
    profile = ProfileCache(code).get(3, 4 * MB)
    checker.check_repair_profile(code, profile)
    # d = n - 1 = 13 helpers each read chunk/(d - k + 1) = chunk/4.
    expected = checker.expected_repair_bytes(code, 3, 4 * MB)
    assert expected == 13 * 4 * MB // 4


def test_scaled_profiles_still_conserve():
    checker = InvariantChecker()
    code = ClayCode(10, 4)
    profile = ProfileCache(code).get(0, 4 * MB).scaled(7)
    checker.check_repair_profile(code, profile)


def test_tampered_profile_is_rejected():
    checker = InvariantChecker()
    code = RSCode(10, 4)
    good = ProfileCache(code).get(0, 4 * MB)
    helpers = tuple(HelperRead(h.role, h.n_ios, h.nbytes * 2, h.span)
                    for h in good.helpers)
    bad = RepairProfile(good.failed_role, good.chunk_size, helpers,
                        good.output_bytes)
    with pytest.raises(InvariantViolation, match="conservation"):
        checker.check_repair_profile(code, bad)


def test_profile_output_must_match_chunk():
    checker = InvariantChecker()
    code = RSCode(10, 4)
    good = ProfileCache(code).get(0, 4 * MB)
    bad = RepairProfile(good.failed_role, good.chunk_size, good.helpers,
                        good.output_bytes - 1)
    with pytest.raises(InvariantViolation, match="outputs"):
        checker.check_repair_profile(code, bad)


def test_decode_profile_reads_full_chunks():
    checker = InvariantChecker()
    helpers = tuple(HelperRead(r, 1, 4 * MB, 4 * MB) for r in range(10))
    profile = RepairProfile(0, 4 * MB, helpers, 4 * MB)
    checker.check_decode_profile(profile, 10)
    with pytest.raises(InvariantViolation, match="decode profile"):
        checker.check_decode_profile(profile, 11)


@pytest.mark.parametrize("code", [RSCode(4, 2), ClayCode(4, 2)])
def test_codec_roundtrip_on_real_bytes(code):
    checker = InvariantChecker()
    checker.verify_codec_roundtrip(code, code.alpha * 64, seed=7)
    assert checker.stats["codec_roundtrips"] == 1


# ----------------------------------------------------------------------
# End-to-end: checker armed through the observer
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def checked_system():
    obs = Observer()
    checker = attach_invariant_checker(obs)
    config = ClusterConfig(n_pgs=32)
    system = RCStor(config,
                    GeometricLayout(4 * MB, 2, max_chunk_size=256 * MB),
                    ClayCode(10, 4), obs=obs)
    rng = np.random.default_rng(3)
    system.ingest(rng.integers(8 * MB, 100 * MB, size=300))
    return checker, system


def test_recovery_under_invariants(checked_system):
    checker, system = checked_system
    before = checker.stats["profile_checks"]
    report = system.run_recovery(0)
    assert report.repaired_bytes > 0
    assert checker.stats["profile_checks"] > before
    assert checker.stats["resources_audited"] > 0


def test_multi_failure_under_invariants(checked_system):
    checker, system = checked_system
    pg = system.cluster.pgs[0]
    before = checker.stats["profile_checks"]
    report = system.run_multi_failure_recovery(
        [pg.disk_ids[0], pg.disk_ids[1]])
    assert report.repaired_bytes > 0
    assert checker.stats["profile_checks"] > before


def test_degraded_reads_under_invariants(checked_system):
    checker, system = checked_system
    objects = system.catalog.objects_on_disk(0)[:3]
    results = system.measure_degraded_reads(objects, failed_disk=0, seed=5)
    assert len(results) == len(objects) > 0
    assert checker.stats["schedule_checks"] > 0


def test_busy_degraded_reads_are_audited(checked_system):
    checker, system = checked_system
    objects = system.catalog.objects_on_disk(0)[:2]
    before = checker.stats["resources_audited"]
    results = system.measure_degraded_reads(objects, failed_disk=0,
                                            busy=True, seed=5)
    # Foreground load is data in each disk's lane, not grants: the busy
    # env is audited like any other and leaks nothing.
    assert len(results) == len(objects) > 0
    assert checker.stats["resources_audited"] > before
    assert "0 leaked grants" in checker.report()


def test_default_observer_arms_internal_systems():
    with observed() as obs:
        checker = attach_invariant_checker(obs)
        config = ClusterConfig(n_pgs=16)
        system = RCStor(config,
                        GeometricLayout(4 * MB, 2, max_chunk_size=256 * MB),
                        RSCode(10, 4))
        rng = np.random.default_rng(11)
        system.ingest(rng.integers(8 * MB, 40 * MB, size=100))
        system.run_recovery(0)
    assert checker.stats["profile_checks"] > 0
    assert checker.stats["resources_audited"] > 0
    assert "0 leaked grants" in checker.report()
    # Recovery ran once, so its task books were checked once.
    assert checker.stats["task_conservation_checks"] == 1


def test_task_conservation_balanced_books_pass():
    checker = InvariantChecker()
    checker.check_task_conservation(
        {"n_tasks": 10, "tasks_completed": 8, "tasks_abandoned": 2,
         "tasks_requeued": 3})
    assert checker.stats["task_conservation_checks"] == 1


def test_task_conservation_lost_task_raises():
    checker = InvariantChecker()
    with pytest.raises(InvariantViolation, match="silently lost"):
        checker.check_task_conservation(
            {"n_tasks": 10, "tasks_completed": 9, "tasks_abandoned": 0,
             "tasks_requeued": 1})


def test_task_conservation_unfaulted_meta_defaults():
    # The unfaulted engine records only completions; missing fault keys
    # default to zero.
    checker = InvariantChecker()
    checker.check_task_conservation({"n_tasks": 5, "tasks_completed": 5})
