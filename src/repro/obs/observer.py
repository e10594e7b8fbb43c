"""The Observer: one handle bundling metrics, tracing and engine hooks.

Instrumented code takes an ``obs`` argument defaulting to ``None`` — the
no-observer case costs one ``is not None`` test per operation, which keeps
the simulator's benchmark numbers unchanged when observability is off.

A *context-scoped default observer* lets entry points (the experiment
runner, the CLI's ``--trace`` / ``--metrics`` flags) switch on
observability for code paths that build their own
:class:`~repro.cluster.RCStor` systems internally, without threading an
argument through every experiment module.  The default lives in a
:class:`contextvars.ContextVar`, not a module global: each scenario unit
the runner executes — whether inline or inside a worker process — installs
its own observer with :func:`observed` and ships a summary back, so
parallel and serial runs observe bit-identically;
:func:`get_default_observer` reads it.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer


class EngineHooks:
    """Counts engine activity (wired into :class:`~repro.sim.Environment`).

    When an :class:`~repro.analysis.InvariantChecker` is attached
    (``invariants``), every scheduled event is also checked against the
    monotonic sim-clock invariant.  The second-generation telemetry hooks
    — ``timeline`` (sim-time sampler), ``profiler`` (wall-clock dispatch
    profiler) and ``flightrec`` (postmortem ring buffer) — all default to
    ``None``, so an observer without telemetry costs exactly what it did
    before they existed.
    """

    __slots__ = ("events_scheduled", "process_resumes", "invariants",
                 "timeline", "profiler", "flightrec")

    def __init__(self, metrics: MetricsRegistry):
        self.events_scheduled = metrics.counter("engine.events_scheduled")
        self.process_resumes = metrics.counter("engine.process_resumes")
        self.invariants = None
        self.timeline = None
        self.profiler = None
        self.flightrec = None

    def on_schedule(self, when: float, event) -> None:
        """Called whenever the engine enqueues an event."""
        # Bump the counter slot directly: this runs once per scheduled
        # event (millions per experiment), so even the Counter.inc call
        # is measurable.
        self.events_scheduled.value += 1
        if self.flightrec is not None:
            self.flightrec.on_schedule(when, event)
        if self.invariants is not None:
            self.invariants.on_schedule(when, event)

    def on_resume(self, process, trigger) -> None:
        """Called whenever a process coroutine is resumed."""
        self.process_resumes.value += 1
        if self.profiler is not None:
            self.profiler.on_resume(process)


class Observer:
    """A metrics registry plus a span tracer, shared across measurements.

    ``invariants`` (optional, installed by
    :func:`repro.analysis.attach_invariant_checker`) turns on runtime
    invariant checking in every resource and runtime built under this
    observer; the default ``None`` keeps observability side-effect free.
    The telemetry attachments — ``timeline``, ``profiler``, ``flightrec``
    (installed by :func:`repro.obs.attach_timeline` /
    :func:`repro.obs.attach_profiler` / :func:`repro.obs.attach_flightrec`)
    — follow the same pattern: ``None`` means off, and instrumented code
    reaches them with one attribute load plus an ``is not None`` test.
    """

    def __init__(self):
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self.engine_hooks = EngineHooks(self.metrics)
        self.invariants = None
        self.timeline = None
        self.profiler = None
        self.flightrec = None

    def summary(self) -> str:
        """The registry's plain-text metrics report."""
        return self.metrics.summary()


_default_observer: ContextVar[Observer | None] = ContextVar(
    "repro_default_observer", default=None)


def get_default_observer() -> Observer | None:
    """The context's default observer, or ``None`` when disabled."""
    return _default_observer.get()


@contextmanager
def observed(obs: Observer | None = None):
    """Context manager: install ``obs`` (a fresh Observer by default) as the
    context-scoped default for the duration of the block, yielding it."""
    if obs is None:
        obs = Observer()
    token = _default_observer.set(obs)
    try:
        yield obs
    finally:
        _default_observer.reset(token)
