"""Discrete-event simulation engine.

The engine is a classic calendar queue built on :mod:`heapq`.  Heap
entries are ``(time, sequence, event)`` triples — comparisons therefore
never leave C code (floats, then the monotonically growing sequence
number, which also guarantees deterministic FIFO ordering of
simultaneous events and makes every experiment repeatable from a seed).

Hot-path design notes:

* **Zero-arg fast path** — the dominant callback shape in the
  simulation stack is a bound method with no arguments (timers,
  service-loop continuations).  :class:`Event` stores ``None`` instead
  of empty ``args``/``kwargs`` containers and the run loop dispatches
  ``callback()`` directly, skipping the star-unpacking call machinery.
* **Hoisted run loop** — the queue, ``heappop`` and the clock live in
  locals inside :meth:`Simulator.run`; the clock attribute is only
  written when the event timestamp actually advances (simultaneous
  events share one store — "monotonic-time batching").
* **Lazy-cancel heap compaction** — :meth:`Event.cancel` only marks the
  event; dead entries are dropped when popped.  A cancelled counter
  triggers an in-place compaction once dead events dominate the heap,
  so long runs with churny timers (superseded retransmission timers,
  preempted feedback) stop bloating the heap.  Compaction never changes
  the order in which live events fire.

Profiling (events/sec, per-callback attribution, heap high-water mark)
lives in :mod:`repro.sim.profile`; when a profiler is active the run
loop is swapped for an instrumented twin with identical semantics.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The active core profiler, installed by :func:`repro.sim.profile.enable`
#: (and cleared by ``disable``).  The engine only reads it — once per
#: :meth:`Simulator.run` call, never per event — so idle profiling costs
#: nothing on the hot path.  Kept here rather than in the profile module
#: so the engine has no imports from the rest of the package.
_ACTIVE_PROFILER: Optional[Any] = None

#: ``delay`` values this close below zero are treated as "now": they are
#: float round-off from ``deadline - now`` computations in callers, not
#: attempts to schedule in the past.
NEGATIVE_DELAY_TOLERANCE = 1e-9

#: Compaction triggers once more than this many cancelled events sit in
#: the heap *and* they outnumber the live ones (see ``_note_cancel``).
COMPACT_MIN_CANCELLED = 64


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`Simulator.schedule` so that the
    caller can cancel them later (timers that get superseded, feedback
    that is preempted by an early trigger, and so on).

    ``args``/``kwargs`` are ``None`` — not empty containers — for the
    common zero-argument case, which is what the run loop's fast path
    keys on.

    Only :meth:`Simulator.schedule` and :meth:`Simulator.schedule_at`
    create events, and they set every slot on ``Event.__new__(Event)``
    directly: this is the hottest allocation site in the repository,
    and skipping a constructor frame is a measurable win.  The heap
    orders ``(time, seq, event)`` entries, and ``seq`` is unique, so
    events themselves are never compared.
    """

    __slots__ = ("time", "seq", "callback", "args", "kwargs", "cancelled", "_sim")

    time: float
    seq: int
    callback: Callable[..., Any]
    args: Optional[Tuple[Any, ...]]
    kwargs: Optional[Dict[str, Any]]
    cancelled: bool
    _sim: Optional["Simulator"]

    def cancel(self) -> None:
        """Mark the event so it is skipped when its time comes.

        Safe to call at any point — before the event fires, after it
        fired (the common ``self._timer.cancel()`` in a callback that
        re-arms itself; a no-op), or repeatedly.  Only the first cancel
        of a still-queued event is counted towards compaction (the
        engine detaches ``_sim`` when the event leaves the heap).
        """
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is not None:
                sim._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} seq={self.seq} {state} {getattr(self.callback, '__name__', self.callback)}>"


#: Heap entry shape: ``(time, seq, event)``.
_Entry = Tuple[float, int, Event]

#: Bound once for :meth:`Simulator.schedule`: one global load per event
#: instead of a global load plus an attribute lookup.
_heappush = heapq.heappush


class Simulator:
    """The simulation clock and event queue.

    Typical usage::

        sim = Simulator()
        sim.schedule(1.0, node.wake_up)
        sim.run(until=2500.0)
    """

    def __init__(self) -> None:
        #: Current simulation time in seconds.  A plain attribute, not a
        #: property: it is read several times per frame.  Only the run
        #: loop writes it.
        self.now = 0.0
        self._queue: List[_Entry] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._cancelled_in_queue = 0
        self._compactions = 0
        self._running = False
        self._stopped = False

    @property
    def events_processed(self) -> int:
        """Total number of events that have been executed.

        Updated when :meth:`run` returns (or re-enters the scheduler at
        a nested :meth:`schedule` call), not after every single event —
        read it between runs, not from inside a callback.
        """
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of entries in the queue, **including** cancelled events
        that have not been popped or compacted away yet.

        This is the heap's physical size (what memory usage tracks); use
        :attr:`live_events` for the number of events that will actually
        fire.
        """
        return len(self._queue)

    @property
    def live_events(self) -> int:
        """Number of queued events that will actually fire (cancelled
        events awaiting lazy removal are excluded)."""
        return len(self._queue) - self._cancelled_in_queue

    @property
    def heap_compactions(self) -> int:
        """How many times the lazy-cancel compaction has rebuilt the heap."""
        return self._compactions

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any, **kwargs: Any) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Tiny negative delays (>-1e-9) are clamped to zero: they are
        round-off from ``deadline - now`` subtractions, not scheduling
        in the past.
        """
        if delay < 0.0:
            if delay < -NEGATIVE_DELAY_TOLERANCE:
                raise ValueError(f"cannot schedule an event in the past (delay={delay})")
            delay = 0.0
        event = Event.__new__(Event)
        time = event.time = self.now + delay
        seq = event.seq = next(self._seq)
        event.callback = callback
        event.args = args or None
        event.kwargs = kwargs or None
        event.cancelled = False
        event._sim = self
        _heappush(self._queue, (time, seq, event))
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any, **kwargs: Any) -> Event:
        """Schedule ``callback`` to run at absolute simulation time ``time``.

        Times a hair before ``now`` — the absolute tolerance plus a few
        ULPs of the clock, i.e. genuine ``now + delay`` round-off, never
        real deadline-arithmetic bugs — are clamped to ``now``.
        """
        now = self.now
        if time < now:
            if now - time > NEGATIVE_DELAY_TOLERANCE + now * 4e-16:
                raise ValueError(f"cannot schedule at {time} which is before now={now}")
            time = now
        event = Event.__new__(Event)
        event.time = time
        seq = event.seq = next(self._seq)
        event.callback = callback
        event.args = args or None
        event.kwargs = kwargs or None
        event.cancelled = False
        event._sim = self
        _heappush(self._queue, (time, seq, event))
        return event

    def stop(self) -> None:
        """Request the run loop to stop after the current event."""
        self._stopped = True

    # -- lazy-cancel bookkeeping -----------------------------------------------------

    def _note_cancel(self) -> None:
        """Called by :meth:`Event.cancel`; triggers compaction when dead
        events dominate the heap."""
        self._cancelled_in_queue += 1
        if (
            self._cancelled_in_queue > COMPACT_MIN_CANCELLED
            and self._cancelled_in_queue * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place.

        In place matters: the run loop holds a local reference to the
        queue list, and cancellations happen from inside callbacks.
        Live events keep their ``(time, seq)`` keys, so their relative
        order is untouched.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue if not entry[2].cancelled]
        heapq.heapify(queue)
        self._cancelled_in_queue = 0
        self._compactions += 1

    # -- run loop --------------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Process events until the queue drains, ``until`` is reached, or
        ``max_events`` have been executed.

        Returns the number of events processed by this call.  When
        ``until`` is given the clock is advanced to exactly ``until`` at
        the end of the run, so that rate meters read a consistent "end
        of experiment" time — but only when no pending event remains
        before ``until``.  If the loop stopped on ``max_events`` (or
        :meth:`stop`) with earlier events still queued, fast-forwarding
        would let a subsequent :meth:`run` pop those events with
        ``event.time < now`` and move the clock backwards, so the clock
        is left at the last executed event instead.
        """
        if self._running:
            raise RuntimeError("Simulator.run() is not re-entrant")
        self._running = True
        self._stopped = False
        profiler = _ACTIVE_PROFILER
        if profiler is not None:
            return self._run_profiled(until, max_events, profiler)
        processed = 0
        # Hoisted locals: the loop below is the hottest code in the
        # repository — every attribute lookup in it is paid per event.
        queue = self._queue
        pop = heapq.heappop
        now = self.now
        bound = float("inf") if until is None else until
        limit = float("inf") if max_events is None else max_events
        try:
            while queue and not self._stopped:
                entry = queue[0]
                time = entry[0]
                if time > bound:
                    break
                pop(queue)
                event = entry[2]
                # Detach: the event is out of the heap, so a later
                # cancel() (a callback cancelling its own fired timer)
                # must not count towards the compaction trigger.
                event._sim = None
                if event.cancelled:
                    self._cancelled_in_queue -= 1
                    continue
                if time != now:
                    now = time
                    self.now = time
                args = event.args
                if args is None:
                    kwargs = event.kwargs
                    if kwargs is None:
                        event.callback()
                    else:
                        event.callback(**kwargs)
                elif event.kwargs is None:
                    event.callback(*args)
                else:
                    event.callback(*args, **event.kwargs)
                processed += 1
                if processed >= limit:
                    break
            if (
                until is not None
                and self.now < until
                and not self._stopped
                and (not queue or queue[0][0] >= until)
            ):
                self.now = until
        finally:
            self._events_processed += processed
            self._running = False
        return processed

    def _run_profiled(self, until: Optional[float], max_events: Optional[int], profiler: Any) -> int:
        """The instrumented twin of :meth:`run` (identical semantics).

        Wraps every callback with a wall-clock measurement attributed to
        the callback's qualified name and tracks the heap high-water
        mark.  The queue only grows *during* a callback (pops happen
        between callbacks), so sampling ``len(queue)`` after each
        callback observes every peak exactly.
        """
        import time as _time

        perf_counter = _time.perf_counter  # repro: allow[DET001] wall-clock feeds the profiler report only, never simulation state
        processed = 0
        queue = self._queue
        pop = heapq.heappop
        now = self.now
        bound = float("inf") if until is None else until
        limit = float("inf") if max_events is None else max_events
        compactions_before = self._compactions
        started = perf_counter()
        try:
            while queue and not self._stopped:
                entry = queue[0]
                time = entry[0]
                if time > bound:
                    break
                pop(queue)
                event = entry[2]
                event._sim = None
                if event.cancelled:
                    self._cancelled_in_queue -= 1
                    continue
                if time != now:
                    now = time
                    self.now = time
                callback = event.callback
                t0 = perf_counter()
                if event.args is None and event.kwargs is None:
                    callback()
                else:
                    callback(*(event.args or ()), **(event.kwargs or {}))
                elapsed = perf_counter() - t0
                profiler.record_callback(callback, elapsed)
                if len(queue) > profiler.heap_high_water:
                    profiler.heap_high_water = len(queue)
                processed += 1
                if processed >= limit:
                    break
            if (
                until is not None
                and self.now < until
                and not self._stopped
                and (not queue or queue[0][0] >= until)
            ):
                self.now = until
        finally:
            self._events_processed += processed
            self._running = False
            profiler.record_run(
                processed, perf_counter() - started, self._compactions - compactions_before
            )
        return processed
