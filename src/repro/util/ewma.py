"""Exponentially weighted moving averages and windowed rate meters.

These are the two estimator primitives used throughout the system:
the MAC link estimators, the ATP rate feedback and the JTP flip-flop
path monitor are all built on top of :class:`EWMA`, while goodput and
utilisation measurements use :class:`WindowedRate`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.util.validation import require_in_range, require_positive


class EWMA:
    """A simple exponentially weighted moving average.

    ``x̄ ← (1 - α)·x̄ + α·x`` with the first sample initialising the
    average, exactly as in Equation (7) of the paper.
    """

    def __init__(self, alpha: float, initial: Optional[float] = None) -> None:
        self.alpha = require_in_range(alpha, 0.0, 1.0, "alpha")
        self._value: Optional[float] = initial

    def update(self, sample: float) -> float:
        """Fold ``sample`` into the average and return the new average."""
        if self._value is None:
            self._value = float(sample)
        else:
            self._value = (1.0 - self.alpha) * self._value + self.alpha * float(sample)
        return self._value

    def value_or(self, default: float) -> float:
        """Return the average, or ``default`` if no sample has been seen."""
        return default if self._value is None else self._value


class WindowedRate:
    """Rate meter over a sliding time window.

    Records ``(timestamp, amount)`` events and reports the total amount
    per second over the last ``window`` seconds.  Used for goodput
    measurement, MAC busy-fraction estimation and the short/long-term
    reception-rate plots of Figure 5.

    During warm-up — before ``window`` seconds have been observed — the
    divisor is the observed span rather than the full window, so early
    readings are not systematically deflated.  Observation starts at
    ``start`` if given, otherwise at the first recorded event; at the
    exact first observed instant (zero span) the full window is used as
    the divisor, since no span-based rate is defined yet.
    """

    def __init__(self, window: float, start: Optional[float] = None) -> None:
        self.window = require_positive(window, "window")
        self._events: Deque[Tuple[float, float]] = deque()
        self._total = 0.0
        self._start = start

    def record(self, now: float, amount: float = 1.0) -> None:
        """Record ``amount`` units occurring at time ``now``.

        Expiry is lazy: :meth:`rate` always trims before reading, so the
        record path only trims once the backlog spans two windows (a
        memory bound, not a correctness requirement) — recording is a
        deque append on the hot path.
        """
        if self._start is None:
            self._start = now
        events = self._events
        events.append((now, amount))
        self._total += amount
        if events[0][0] < now - 2.0 * self.window:
            self._expire(now)

    def rate(self, now: float) -> float:
        """Amount per second over the trailing window ending at ``now``.

        :meth:`_expire` runs only when the oldest event has left the
        window: with nothing to expire it would change nothing (an empty
        window already holds a zero total).
        """
        events = self._events
        if events and events[0][0] < now - self.window:
            self._expire(now)
        span = self.window
        if self._start is not None:
            observed = now - self._start
            if observed > 0.0:
                span = min(self.window, observed)
        return self._total / span

    def _expire(self, now: float) -> None:
        horizon = now - self.window
        events = self._events
        while events and events[0][0] < horizon:
            _, amount = events.popleft()
            self._total -= amount
        if not events:
            self._total = 0.0
