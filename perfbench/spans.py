"""Host-time spans and the per-module rollup of the traced run.

The traced run calls each layer's public functions directly and wraps
every call in a :class:`SpanRecorder` span (host wall clock, nested by
call order).  Inside the discrete-event simulation the wall-clock
profiler of :mod:`repro.obs.profile` attributes host time per resumed
generator site; :func:`module_of` maps each site to the repo module that
owns it and :func:`rollup` sums the sites per module.

The profiler charges the interval between two process resumes to the
process resumed first: its ``send`` plus the engine dispatch it caused.
Engine dispatch cost therefore lands in the module whose process ran,
and ``sim`` keeps only the sites the engine owns itself.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro.obs.profile import ENGINE_SITE, Profiler

#: The modules host time inside the DES is split into, in report order.
MODULES = ("sim", "cluster.disk", "cluster.foreground", "cluster.rcstor",
           "cluster.network", "cluster.qos", "faults")

#: Profiler sites carry only the generator's file name; these are the
#: files under ``src/repro`` that define process generators, by module.
SITE_FILES = {
    "engine.py": "sim",
    "resources.py": "sim",
    "disk.py": "cluster.disk",
    "foreground.py": "cluster.foreground",
    "rcstor.py": "cluster.rcstor",
    "network.py": "cluster.network",
    "qos.py": "cluster.qos",
    "injector.py": "faults",
}

#: Bucket for sites in files no module above claims.
OTHER = "other"


def module_of(site: str) -> str:
    """The module owning a profiler site ``"gen_name (file.py:line)"``."""
    if site == ENGINE_SITE:
        return "sim"
    _, sep, tail = site.rpartition(" (")
    if not sep or not tail.endswith(")"):
        return OTHER
    filename = tail[:-1].rpartition(":")[0]
    return SITE_FILES.get(filename, OTHER)


def rollup(profile_doc: dict) -> dict[str, dict[str, float]]:
    """Self seconds and resumes per module of a ``repro.profile/1`` doc.

    Every module of :data:`MODULES` is present (zero when unused);
    :data:`OTHER` appears only when some site maps nowhere.
    """
    out = {m: {"self_s": 0.0, "resumes": 0} for m in MODULES}
    for row in profile_doc.get("sites", ()):
        acc = out.setdefault(module_of(row["site"]),
                             {"self_s": 0.0, "resumes": 0})
        acc["self_s"] += row["wall_s"]
        acc["resumes"] += row["resumes"]
    return out


def covered(start: float, end: float,
            intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float,
              children: list[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (end - start) - covered(start, end, children)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanProfiler(Profiler):
    """The repo's dispatch-loop profiler, plus a way to close its open
    interval at a span boundary, so host time between two simulations
    (catalog work, schedule building) is not charged to the last
    generator that ran before it."""

    def close_interval(self) -> None:
        if self._last_site is not None:
            self.sites[self._last_site][1] += (time.perf_counter()
                                               - self._last_t)
            self._last_site = None


class SpanRecorder:
    """Nested host-time spans kept in memory for the end-of-run rollup."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        #: The profiler of the unit being traced (closed at span ends).
        self.profiler: SpanProfiler | None = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        try:
            yield
        finally:
            if self.profiler is not None:
                self.profiler.close_interval()
            self.spans[index].end = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span named ``name``."""
        with self.span(name):
            return fn(*args, **kwargs)

    def self_time(self, index: int) -> float:
        span = self.spans[index]
        kids = [(s.start, s.end) for s in self.spans if s.parent == index]
        return self_time(span.start, span.end, kids)

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.duration for s in self.spans if s.name == name)
