"""Multi-failure recovery tests (§2.2: rare but required for reliability)."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, RCStor
from repro.codes import ClayCode, RSCode
from repro.core import GeometricLayout, StripeLayout

MB = 1 << 20


@pytest.fixture(scope="module")
def system():
    config = ClusterConfig(n_pgs=64)
    s = RCStor(config, GeometricLayout(4 * MB, 2, max_chunk_size=256 * MB),
               ClayCode(10, 4))
    rng = np.random.default_rng(1)
    s.ingest(rng.integers(8 * MB, 150 * MB, size=1000))
    return s


def _shared_pg_disks(system):
    """Two failed disks on different nodes sharing at least one PG."""
    pg = system.cluster.pgs[0]
    return pg.disk_ids[0], pg.disk_ids[1]


def test_validation(system):
    with pytest.raises(ValueError):
        system.run_multi_failure_recovery([])
    with pytest.raises(ValueError):
        system.run_multi_failure_recovery([0, 6, 12, 18, 24])  # > r


def test_single_failure_equivalence(system):
    """A one-element failure list behaves like run_recovery."""
    single = system.run_recovery(0)
    multi = system.run_multi_failure_recovery([0])
    assert multi.repaired_bytes == single.repaired_bytes
    assert multi.n_tasks == single.n_tasks
    assert multi.makespan == pytest.approx(single.makespan, rel=0.05)


def test_double_failure_repairs_both_disks(system):
    d1, d2 = _shared_pg_disks(system)
    double = system.run_multi_failure_recovery([d1, d2])
    s1 = system.run_recovery(d1)
    s2 = system.run_recovery(d2)
    assert double.repaired_bytes == pytest.approx(
        s1.repaired_bytes + s2.repaired_bytes, rel=0.15)
    assert double.makespan > 0


def test_shared_pgs_fall_back_to_full_decode(system):
    """PGs hit twice must read full survivor chunks (no sub-chunking)."""
    d1, d2 = _shared_pg_disks(system)
    tasks = system._build_multi_failure_tasks([d1, d2])
    assert tasks, "the two disks share a PG, so decode tasks must exist"
    for task in tasks:
        assert task.is_rs  # full decode path, not regenerating repair
        for helper in task.profile.helpers:
            assert helper.nbytes == task.profile.output_bytes  # full chunks


def test_multi_failure_helpers_avoid_failed_disks(system):
    d1, d2 = _shared_pg_disks(system)
    tasks = system._build_multi_failure_tasks([d1, d2])
    # run_multi_failure_recovery also keeps each disk's single-failure
    # tasks whose PG holds no other failed disk.
    singles = [t for disk, other in ((d1, d2), (d2, d1))
               for t in system._build_recovery_tasks(disk)
               if other not in t.pg]
    assert tasks and singles
    for task in tasks + singles:
        failed_roles = {task.pg.role_of(d) for d in (d1, d2) if d in task.pg}
        for helper in task.profile.helpers:
            assert helper.role not in failed_roles


def test_disjoint_double_failure_is_two_singles(system):
    """Disks on the same node never share a PG: no decode tasks."""
    assert system._build_multi_failure_tasks([0, 1]) == []
    report = system.run_multi_failure_recovery([0, 1])
    assert report.repaired_bytes > 0


def test_multi_failure_with_rs_stripe():
    config = ClusterConfig(n_pgs=32)
    s = RCStor(config, StripeLayout(256 * 1024, 10), RSCode(10, 4))
    rng = np.random.default_rng(2)
    s.ingest(rng.integers(8 * MB, 64 * MB, size=400))
    pg = s.cluster.pgs[0]
    report = s.run_multi_failure_recovery([pg.disk_ids[0], pg.disk_ids[5]])
    assert report.repaired_bytes > 0
    assert report.recovery_rate > 0


def test_node_recovery(system):
    """A whole node fails: each PG loses one disk, so work is 6 optimal
    single-disk recoveries sharing the cluster."""
    report = system.run_node_recovery(0)
    singles = [system.run_recovery(d) for d in range(6)]
    assert report.repaired_bytes == sum(s.repaired_bytes for s in singles)
    # Parallelism: the node recovery beats running the six serially.
    assert report.makespan < sum(s.makespan for s in singles)
    # But it cannot beat the slowest single-disk recovery.
    assert report.makespan >= max(s.makespan for s in singles) * 0.9


def test_node_recovery_validation(system):
    with pytest.raises(ValueError):
        system.run_node_recovery(99)
