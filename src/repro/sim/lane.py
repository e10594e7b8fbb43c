"""A queue lane that holds plain data instead of processes.

A :class:`ForegroundLane` arms a capacity-1 :class:`~repro.sim.Resource`
with a stream of pre-drawn ``(arrival, service)`` items — open-loop
background load such as the busy experiments' foreground reads.  The
items never become events: the lane serves them by the Lindley
recursion ``c_i = max(a_i, c_{i-1}) + s_i``, vectorised over a run of
items with no real request between them as
``c = S + maximum.accumulate(max(a - S_prev, free))``, and the engine
schedules events only for *real* requests (processes that call
``resource.request``).

Queueing semantics are exactly those of one item-per-process load on the
same resource: one server, non-preemptive priority, FIFO by arrival
within a lane.  Items rank at priority 0, the highest.

* A real request of priority 0 queues behind exactly the items that
  arrived before it; its grant time is the completion of the last of
  them (or its own arrival, if the server is idle by then).
* A lower-priority (larger number) request is granted only when the
  server is free and no lane item is waiting: the first idle gap of the
  item stream at or after ``now``, predicted from the pre-drawn arrivals
  (a scan of :data:`MAX_SCAN` items without a gap leaves a checkpoint
  event and resumes from there).

At any moment at most one grant is predicted, for the head waiter, and
it is re-planned only when the head changes (a real priority-0 arrival
overtakes a lower-priority head, a cancellation) or the server state
changes (a release, a device mutation).  Items are
*committed* — counted, their waits observed — lazily: when a real grant
needs the server state, or when :meth:`sync` runs before a device
mutation.  Queries (:meth:`done`, :meth:`busy_through`) never commit, so
reading telemetry cannot perturb the simulation.  A finite item stream
simply ends the load; :meth:`kill` ends it early (a crashed device).

An item's service time is its base service times the ``speed`` in force
when its service starts: callers that change the device speed (fault
injection) call :meth:`sync` first and :meth:`replan` after.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator

import numpy as np

from repro.sim.engine import Event, SimulationError

#: One block of items: arrival times (absolute, sorted), base service
#: seconds, bytes, I/O counts.
Block = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: Most items one lower-priority grant plan scans ahead (see ``_gap``).
MAX_SCAN = 1 << 14

_EMPTY_F = np.empty(0)
_EMPTY_I = np.empty(0, dtype=np.int64)


class ForegroundLane:
    """Pre-drawn open-loop items served inside one resource's queue."""

    #: Queue priority of the lane's items (0 = foreground, the highest).
    priority = 0

    __slots__ = ("resource", "env", "start", "_blocks", "_speed",
                 "_a", "_s", "_b", "_n", "_base", "_i", "_free",
                 "_timer", "served", "busy", "wait", "bytes", "ios", "_last")

    def __init__(self, resource, blocks: Iterator[Block],
                 speed: Callable[[], float] | None = None):
        if resource.capacity != 1:
            raise ValueError("a foreground lane needs a capacity-1 resource")
        if resource.lane is not None:
            raise ValueError("resource already has a foreground lane")
        if resource.in_use or resource._waiters:
            raise ValueError("arm the lane before the resource is used")
        self.resource = resource
        self.env = resource.env
        self.start = self.env.now
        self._blocks = blocks
        self._speed = speed if speed is not None else (lambda: 1.0)
        self._a = self._s = _EMPTY_F
        self._b = self._n = _EMPTY_I
        self._base = 0            # absolute index of array position 0
        self._i = 0               # absolute index of the first uncommitted item
        self._free = self.start   # completion of the last committed item
        #: The one predicted grant: (event, request, stop, window); the
        #: request is None for a checkpoint of a long lower-priority scan.
        self._timer = None
        # Committed totals.
        self.served = 0
        self.busy = 0.0
        self.wait = 0.0
        self.bytes = 0
        self.ios = 0
        #: (completion, bytes, ios) of the last committed item, so queries
        #: can leave out an item still in service.
        self._last = (self.start, 0, 0)
        resource.lane = self

    # ------------------------------------------------------------------
    # Item arrays
    # ------------------------------------------------------------------
    def _extend(self) -> bool:
        """Append the next block; False once the item stream has ended."""
        block = next(self._blocks, None)
        if block is None:
            return False
        a, s, b, n = block
        keep = self._i - self._base
        self._a = np.concatenate((self._a[keep:], a))
        self._s = np.concatenate((self._s[keep:], s))
        self._b = np.concatenate((self._b[keep:], b))
        self._n = np.concatenate((self._n[keep:], n))
        self._base = self._i
        return True

    def _find(self, t: float) -> int:
        """Absolute index of the first uncommitted item arriving at or
        after ``t`` (every item before it arrived strictly earlier)."""
        while (not len(self._a) or self._a[-1] < t) and self._extend():
            pass
        lo = self._i - self._base
        return self._i + int(np.searchsorted(self._a[lo:], t))

    def _cover(self, count: int) -> int:
        """Draw until ``count`` uncommitted items exist (or the stream
        ends); returns how many there are."""
        while len(self._a) - (self._i - self._base) < count \
                and self._extend():
            pass
        return len(self._a) - (self._i - self._base)

    def _window(self, stop: int):
        """Lindley over uncommitted items ``[i, stop)`` from the current
        server state: ``(arrivals, services, starts, completions)``."""
        lo = self._i - self._base
        hi = stop - self._base
        a = self._a[lo:hi]
        s = self._s[lo:hi]
        speed = self._speed()
        if speed != 1.0:
            s = s * speed
        total = np.cumsum(s)
        c = total + np.maximum(np.maximum.accumulate(a - (total - s)),
                               self._free)
        prev = np.empty_like(c)
        prev[0] = self._free
        prev[1:] = c[:-1]
        return a, s, np.maximum(a, prev), c

    def _commit(self, stop: int, window) -> None:
        a, s, st, c = window
        lo = self._i - self._base
        hi = stop - self._base
        b = self._b[lo:hi]
        n = self._n[lo:hi]
        waits = st - a
        self.served += len(a)
        self.busy += float(s.sum())
        self.wait += float(waits.sum())
        self.bytes += int(b.sum())
        self.ios += int(n.sum())
        self._free = float(c[-1])
        self._last = (self._free, int(b[-1]), int(n[-1]))
        self._i = stop
        hist = self.resource._wait_hist(self.priority)
        if hist is not None:
            hist.observe_many(waits)

    def _started(self, now: float):
        """Uncommitted items whose service started before ``now``:
        ``(stop, window)``, or ``(i, None)`` when there are none."""
        i = self._i
        if self.resource.in_use:
            return i, None
        limit = self._find(now)
        if self._timer is not None:
            limit = min(limit, self._timer[2])
        if limit <= i:
            return i, None
        window = self._window(limit)
        k = int(np.searchsorted(window[2], now))
        if k == 0:
            return i, None
        return i + k, tuple(x[:k] for x in window)

    # ------------------------------------------------------------------
    # Grant planning
    # ------------------------------------------------------------------
    def _gap(self, now: float):
        """Plan a lower-priority grant: ``(stop, window, at, final)``.

        ``at`` is the first idle moment at or after ``now``.  The scan
        looks at most :data:`MAX_SCAN` items ahead; if the server stays
        busy that long (a slowed disk can push the lane past saturation)
        it returns ``final=False`` and ``at`` = the last scanned item's
        completion, where planning resumes.
        """
        i = self._i
        free = self._free
        if not self._cover(1) or self._a[i - self._base] > max(free, now):
            return i, None, max(free, now), True
        # Every item arriving before ``now`` runs before any gap after it,
        # so the first window reaches past ``now``.
        width = max(32, 2 * (self._find(now) - i))
        while True:
            n = min(width, self._cover(width + 1))
            window = self._window(i + n)
            c = window[3]
            lo = i - self._base
            after = self._a[lo + 1:lo + n + 1]
            idle = after > np.maximum(c[:len(after)], now)
            q = int(idle.argmax()) if len(idle) else 0
            if len(idle) and idle[q]:
                return (i + q + 1, tuple(x[:q + 1] for x in window),
                        max(float(c[q]), now), True)
            if len(after) < n:  # the stream ends: idle after its last item
                return i + n, window, max(float(c[-1]), now), True
            if width >= MAX_SCAN:
                return i + width, window, max(float(c[-1]), now), False
            width *= 2

    def _replan(self) -> None:
        self._timer = None
        res = self.resource
        if res.in_use:
            return
        waiters = res._waiters
        while waiters and waiters[0][2].cancelled:
            heapq.heappop(waiters)
            res._n_cancelled -= 1
        if not waiters:
            return
        req = waiters[0][2]
        env = self.env
        now = env.now
        if req.priority == self.priority:
            stop = self._find(req.request_time)
            window = self._window(stop) if stop > self._i else None
            at = float(window[3][-1]) if window is not None else self._free
        elif req.priority > self.priority:
            stop, window, at, final = self._gap(now)
            while not final and at <= now:
                self._commit(stop, window)
                stop, window, at, final = self._gap(now)
            if not final:
                req = None  # a checkpoint: re-plan when the scan ends
        else:
            raise SimulationError(
                f"priority {req.priority} would overtake the foreground "
                "lane (priority 0)")
        if at <= now:
            self._grant(req, stop, window)
            return
        timer = Event(env)
        timer.triggered = True
        timer.callbacks.append(self._fire)
        self._timer = (timer, req, stop, window)
        env._schedule_at(at, timer)

    def _grant(self, req, stop: int, window) -> None:
        if window is not None:
            self._commit(stop, window)
        res = self.resource
        heapq.heappop(res._waiters)
        res._grant(req)

    def _fire(self, timer: Event) -> None:
        planned = self._timer
        if planned is None or planned[0] is not timer:
            return  # superseded by a re-plan
        self._timer = None
        _, req, stop, window = planned
        if req is None:
            self._commit(stop, window)
            self._replan()
        else:
            self._grant(req, stop, window)

    # ------------------------------------------------------------------
    # Resource hooks (called by Resource.request / release / cancel)
    # ------------------------------------------------------------------
    def admit(self, req) -> None:
        """Queue a real request; plan its grant if it heads the queue."""
        res = self.resource
        heapq.heappush(res._waiters, (res._key(req.priority), next(res._seq),
                                      req))
        if not res.in_use and res._waiters[0][2] is req:
            self._replan()
        if not req.granted and res._obs is not None:
            res._depth_gauge.set(res.queue_length, self.env.now)

    def released(self) -> None:
        """The real holder released: lane items resume from ``now``."""
        self._free = self.env.now
        self._replan()

    def cancelled(self, req) -> None:
        """A queued real request withdrew."""
        if self._timer is not None and self._timer[1] is req:
            self._replan()

    # ------------------------------------------------------------------
    # Device mutations
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Commit every item whose service started before ``now``.

        Call before changing what :attr:`speed` returns (or before
        :meth:`kill`), then :meth:`replan` after: items already in
        service keep the speed they started with.
        """
        stop, window = self._started(self.env.now)
        if window is not None:
            self._commit(stop, window)

    def replan(self) -> None:
        """Re-predict the pending grant after a device mutation."""
        if self._timer is not None:
            self._replan()

    def kill(self) -> None:
        """The device died at ``now``: drop every pending item.

        An item in service still holds the server until it completes, but
        its bytes are never counted (the read failed).  Call :meth:`sync`
        first.
        """
        completion, _, _ = self._last
        if completion > self.env.now:
            _, nbytes, n_ios = self._last
            self.bytes -= nbytes
            self.ios -= n_ios
            self._last = (completion, 0, 0)
        self._blocks = iter(())
        self._a = self._s = _EMPTY_F
        self._b = self._n = _EMPTY_I
        self._base = self._i

    # ------------------------------------------------------------------
    # Queries (pure: they never change what the simulation does)
    # ------------------------------------------------------------------
    def done(self, now: float) -> tuple[int, int]:
        """``(bytes, ios)`` of the items completed by ``now``."""
        completion, nbytes, n_ios = self._last
        total_b, total_n = self.bytes, self.ios
        if completion > now:
            total_b -= nbytes
            total_n -= n_ios
        stop, window = self._started(now)
        if window is not None:
            lo = self._i - self._base
            finished = window[3] <= now
            total_b += int(self._b[lo:stop - self._base][finished].sum())
            total_n += int(self._n[lo:stop - self._base][finished].sum())
        return total_b, total_n

    def busy_through(self, now: float) -> float:
        """Seconds the server spent on lane items up to ``now``."""
        busy = self.busy - max(0.0, self._last[0] - now)
        _, window = self._started(now)
        if window is not None:
            _, _, st, c = window
            busy += float((np.minimum(c, now) - st).sum())
        return busy

    def publish(self, now: float) -> None:
        """Fold the lane into the resource's metrics, once, at run end.

        Waits of items started but not yet committed are observed, and the
        in-use / queue-depth gauges gain the lane's integrals — the busy
        seconds and, by Little's law, the summed waits — instead of one
        ``set()`` per item.
        """
        res = self.resource
        if res._obs is None:
            return
        stop, window = self._started(now)
        wait = self.wait
        if window is not None:
            waits = window[2] - window[0]
            wait += float(waits.sum())
            res._wait_hist(self.priority).observe_many(waits)
        arrived = self._find(now)
        queued = self._a[stop - self._base:arrived - self._base]
        wait += float((now - queued).sum())
        served = 1.0 if self.served or window is not None else 0.0
        res._in_use_gauge.add_area(self.busy_through(now), self.start, now,
                                   low=0.0, high=served)
        res._depth_gauge.add_area(wait, self.start, now, low=0.0)
