"""Event tracing, one requested kind at a time.

Some of the paper's figures are time series of internal protocol state
rather than end-of-run aggregates — for example Figure 3(c) plots the
maximum number of link-layer retransmissions chosen by iJTP at the
third node over time, and Figure 8 plots the flip-flop monitor's
reported and averaged available rate.  Components emit typed trace
events without knowing what the experiment will later do with them.

A :class:`TraceRecorder` holds only the kinds it was built with; the
empty set (the default) records nothing.  Every emitter tests
``kind in trace.kinds`` before it builds the event's fields, so an
untraced kind costs one set lookup and no ``record`` call, and a
scenario names exactly the kinds it reads (Figure 3(c):
``"ijtp_attempts"``; Figure 8: ``"jtp_receive"``).  A traced run holds
every event of its kinds until the run ends, which is what a figure's
peak memory is made of (``docs/performance.md``, "Memory").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

#: Sentinel distinguishing "field absent" from "field holds None" in
#: :meth:`TraceRecorder.events` filters — an event that lacks a filtered
#: field never matches, whatever the filter value.
_MISSING = object()


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event: a type tag, a timestamp and free-form fields."""

    kind: str
    time: float
    fields: Dict[str, Any]

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]


class TraceRecorder:
    """Collects the :class:`TraceEvent` objects of the requested ``kinds``."""

    def __init__(self, kinds: Iterable[str] = ()):
        if isinstance(kinds, str):
            raise TypeError(f"kinds must be a collection of kind names, not the string {kinds!r}")
        self.kinds = frozenset(kinds)
        self._events: List[TraceEvent] = []

    def record(self, kind: str, time: float, **fields: Any) -> None:
        """Record an event if ``kind`` was requested."""
        if kind in self.kinds:
            self._events.append(TraceEvent(kind=kind, time=time, fields=fields))

    def events(self, kind: Optional[str] = None, **filters: Any) -> List[TraceEvent]:
        """All recorded events, optionally filtered by kind and field values.

        A filter only matches events that *have* the field with the given
        value; events lacking the field are always excluded (so filtering
        on ``value=None`` selects events whose field is ``None``, not
        events without the field).
        """
        result = self._events
        if kind is not None:
            result = [e for e in result if e.kind == kind]
        for key, value in filters.items():
            result = [e for e in result if e.fields.get(key, _MISSING) == value]
        return list(result)
