"""Runtime invariant checking, hooked through the :mod:`repro.obs` observer.

Three invariant families, all opt-in (``--check-invariants`` on the
experiment CLI, or :func:`attach_invariant_checker` in code):

* **Monotonic sim clock** — every event the engine schedules must land at
  or after ``env.now``.  Wired through ``EngineHooks.on_schedule``.
* **Resource grant conservation** — every :class:`~repro.sim.Resource`
  created under the observer registers itself; at the end of each
  measurement (``_Runtime.finalize``) no grant may still be held and no
  waiter may still be queued.  This holds for the "busy" experiments too:
  their foreground load is data in each disk's queue lane, never a grant.
* **Repair byte conservation** — every repair profile the simulator
  consumes is checked against the theoretical repair bandwidth of its code:
  ``k * chunk`` for RS-style any-k repairs and ``chunk * (n-1)/r`` for
  Clay's optimal d = n-1 repair, with a generic fall-back to the code's own
  byte-exact :meth:`repair_plan`.  :meth:`verify_codec_roundtrip` checks the
  literal property on real bytes: repairing from exactly the planned reads
  reproduces the lost chunk.

Violations raise :class:`InvariantViolation` immediately — a skewed number
must fail the run, not decorate a report.
"""

from __future__ import annotations

import numpy as np


class InvariantViolation(AssertionError):
    """A runtime invariant of the simulator or codec stack was broken."""


class InvariantChecker:
    """Collects hooks and performs the runtime invariant checks."""

    #: Relative tolerance on repair byte conservation; profiles are exact
    #: up to sub-packetization rounding, absorbed by the absolute slack.
    rel_tolerance = 1e-6

    def __init__(self):
        self.resources: list = []
        self._expected_cache: dict[tuple[int, int, int], int] = {}
        self.stats = {
            "schedule_checks": 0,
            "profile_checks": 0,
            "resources_registered": 0,
            "resources_audited": 0,
            "codec_roundtrips": 0,
            "task_conservation_checks": 0,
        }

    # ------------------------------------------------------------------
    # Engine: monotonic sim clock
    # ------------------------------------------------------------------
    def on_schedule(self, when: float, event) -> None:
        """Every scheduled event must not land before the current time."""
        self.stats["schedule_checks"] += 1
        now = event.env.now
        if when < now:
            raise InvariantViolation(
                f"event {type(event).__name__} scheduled at t={when!r}, "
                f"before the current sim time t={now!r}: the sim clock "
                "would run backwards")

    # ------------------------------------------------------------------
    # Resources: grant conservation
    # ------------------------------------------------------------------
    def register_resource(self, resource) -> None:
        """Track a resource for the end-of-run leak audit."""
        self.resources.append(resource)
        self.stats["resources_registered"] += 1

    def audit_env(self, env) -> None:
        """End-of-measurement audit: no grant held, no waiter queued."""
        for resource in self.resources:
            if resource.env is not env:
                continue
            self.stats["resources_audited"] += 1
            if resource.in_use != 0:
                raise InvariantViolation(
                    f"resource leak: {self._describe(resource)} still holds "
                    f"{resource.in_use} grant(s) at the end of the run")
            if resource.queue_length != 0:
                raise InvariantViolation(
                    f"resource leak: {self._describe(resource)} still has "
                    f"{resource.queue_length} queued waiter(s) at the end "
                    "of the run")

    @staticmethod
    def _describe(resource) -> str:
        kind = getattr(resource, "_kind", None) or type(resource).__name__
        return f"{kind} (capacity {resource.capacity})"

    # ------------------------------------------------------------------
    # Codec: repair byte conservation
    # ------------------------------------------------------------------
    def expected_repair_bytes(self, code, failed_role: int,
                              chunk_size: int) -> int:
        """Theoretical helper-read bytes to repair one chunk.

        Closed forms for the two codes the acceptance criteria name; any
        other code is measured against its own byte-exact repair plan.
        """
        key = (id(code), failed_role, chunk_size)
        cached = self._expected_cache.get(key)
        if cached is not None:
            return cached
        kind = type(code).__name__
        if kind == "RSCode":
            expected = code.k * chunk_size
        elif kind == "ClayCode":
            # d = n - 1 helpers, each reading chunk/(d - k + 1) bytes.
            d = code.n - 1
            expected = d * chunk_size // (d - code.k + 1)
        else:
            expected = code.repair_plan(failed_role,
                                        chunk_size).total_read_bytes
        self._expected_cache[key] = expected
        return expected

    def check_repair_profile(self, code, profile) -> None:
        """A repair profile must read exactly the theoretical bandwidth."""
        self.stats["profile_checks"] += 1
        if profile.output_bytes != profile.chunk_size:
            raise InvariantViolation(
                f"repair profile for {code.name} role "
                f"{profile.failed_role} outputs {profile.output_bytes} "
                f"bytes for a {profile.chunk_size}-byte chunk")
        expected = self.expected_repair_bytes(code, profile.failed_role,
                                              profile.chunk_size)
        total = profile.total_read_bytes
        slack = max(self.rel_tolerance * expected, code.alpha * code.n)
        if abs(total - expected) > slack:
            raise InvariantViolation(
                f"repair byte conservation broken for {code.name} role "
                f"{profile.failed_role}, chunk {profile.chunk_size}: "
                f"helpers read {total} bytes, theory says {expected} "
                f"(±{slack:.0f})")

    def check_decode_profile(self, profile, n_helpers: int) -> None:
        """A full-decode (multi-failure) profile reads whole chunks from
        each of its helpers — nothing more, nothing less."""
        self.stats["profile_checks"] += 1
        expected = n_helpers * profile.chunk_size
        if profile.total_read_bytes != expected:
            raise InvariantViolation(
                f"decode profile for role {profile.failed_role} reads "
                f"{profile.total_read_bytes} bytes from {n_helpers} "
                f"helpers of {profile.chunk_size}-byte chunks; expected "
                f"{expected}")

    # ------------------------------------------------------------------
    # Recovery: task conservation
    # ------------------------------------------------------------------
    def check_task_conservation(self, meta: dict) -> None:
        """Every recovery task must end completed, requeued (and then
        re-run), or explicitly abandoned — never silently lost.

        A requeue outcome re-enqueues exactly one instance, so requeues
        cancel out of the books and conservation is
        ``completed + abandoned == n_tasks``.  Checked at the end of every
        recovery run (fault-injected or not).
        """
        self.stats["task_conservation_checks"] += 1
        completed = meta.get("tasks_completed", 0)
        abandoned = meta.get("tasks_abandoned", 0)
        if completed + abandoned != meta["n_tasks"]:
            raise InvariantViolation(
                f"recovery task conservation broken: {completed} completed "
                f"+ {abandoned} abandoned != {meta['n_tasks']} queued "
                f"(requeued {meta.get('tasks_requeued', 0)}) — task(s) "
                "were silently lost")

    def verify_codec_roundtrip(self, code, chunk_size: int,
                               seed: int = 0) -> None:
        """Byte-level conservation on real data: encode a stripe, erase
        each node in turn, repair from exactly the planned bytes, and
        require bit-identical recovery (plus a full multi-erasure decode).
        """
        from repro.codes.base import extract_reads

        rng = np.random.default_rng(seed)
        data = [rng.integers(0, 256, chunk_size, dtype=np.uint8)
                for _ in range(code.k)]
        stripe = code.encode_stripe(data)
        chunks = dict(enumerate(stripe))
        for failed in range(code.n):
            plan = code.repair_plan(failed, chunk_size)
            reads = extract_reads(plan, chunks)
            read_bytes = sum(arr.shape[0] for arr in reads.values())
            if read_bytes != plan.total_read_bytes:
                raise InvariantViolation(
                    f"{code.name}: extracted {read_bytes} bytes but the "
                    f"plan names {plan.total_read_bytes}")
            repaired = code.repair(failed, reads, chunk_size)
            if not np.array_equal(repaired, stripe[failed]):
                raise InvariantViolation(
                    f"{code.name}: repair of role {failed} from planned "
                    "bytes does not reproduce the lost chunk")
        erased = list(range(code.r))
        available = {i: c for i, c in chunks.items() if i not in set(erased)}
        decoded = code.decode(available, erased, chunk_size)
        for node in erased:
            if not np.array_equal(decoded[node], stripe[node]):
                raise InvariantViolation(
                    f"{code.name}: decode does not reproduce chunk {node}")
        self.stats["codec_roundtrips"] += 1

    # ------------------------------------------------------------------
    def report(self) -> str:
        """One-line human summary of everything checked."""
        s = self.stats
        return ("invariants OK: "
                f"{s['profile_checks']} repair-profile checks, "
                f"{s['schedule_checks']} schedule checks, "
                f"{s['resources_audited']} resources audited "
                f"({s['resources_registered']} registered), "
                f"{s['codec_roundtrips']} codec round-trips, "
                f"{s['task_conservation_checks']} task-conservation "
                "checks, 0 leaked grants, 0 lost tasks")


def attach_invariant_checker(obs) -> InvariantChecker:
    """Create an :class:`InvariantChecker` and hook it into an observer.

    Instrumented code reaches the checker via ``obs.invariants`` (resources
    register at construction, runtimes audit at finalize) and engine
    scheduling via ``obs.engine_hooks.invariants``.
    """
    checker = InvariantChecker()
    obs.invariants = checker
    obs.engine_hooks.invariants = checker
    return checker
