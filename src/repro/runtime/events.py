"""Structured execution logging (paper §6: "structured logging").

Every operator application emits an :class:`Event` into the state's
:class:`EventLog`.  Events are plain data — they power introspection
(`trace why this answer looks like this`), the meta-prompt analytics of
paper §4.4, and refinement replay (§6).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterable, Iterator, Mapping

__all__ = ["EventKind", "Event", "EventLog"]


class EventKind(str, Enum):
    """Classification of runtime events."""

    OPERATOR_START = "operator_start"
    OPERATOR_END = "operator_end"
    RETRIEVE = "retrieve"
    GENERATE = "generate"
    REFINE = "refine"
    CHECK = "check"
    MERGE = "merge"
    DELEGATE = "delegate"
    VIEW_EXPAND = "view_expand"
    CACHE = "cache"
    CACHE_HIT = "cache_hit"
    PLAN = "plan"
    SHADOW = "shadow"
    BATCH = "batch"
    SCHED = "sched"
    SERVE = "serve"
    ERROR = "error"
    FAULT = "fault"
    RETRY = "retry"
    BREAKER = "breaker"
    FALLBACK = "fallback"


@dataclass(frozen=True)
class Event:
    """One structured log record."""

    seq: int
    kind: EventKind
    operator: str
    at: float
    payload: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """Serialize for storage or replay."""
        return {
            "seq": self.seq,
            "kind": self.kind.value,
            "operator": self.operator,
            "at": self.at,
            "payload": dict(self.payload),
        }


class EventLog:
    """Append-only event sink with query helpers.

    Thread-safe: ``record``/``emit``, ``subscribe``/``unsubscribe``, and
    the query helpers may be called from concurrent worker lanes.  One
    reentrant lock serializes appends, so sequence numbers are unique and
    subscribers see a totally ordered stream (a subscriber that records
    back into the same log from its callback re-enters safely).
    """

    def __init__(self) -> None:
        self._events: list[Event] = []
        self._counter = itertools.count()
        self._lock = threading.RLock()
        #: optional live subscribers (e.g. a shadow executor); each is
        #: called with every appended event.
        self._subscribers: list[Callable[[Event], None]] = []

    def emit(
        self,
        kind: EventKind,
        operator: str,
        *,
        at: float = 0.0,
        **payload: Any,
    ) -> Event:
        """Append an event and notify subscribers; returns the event.

        A subscriber that raises must not break the run (or starve later
        subscribers): its exception is recorded as an ``ERROR`` event and
        delivered to the remaining subscribers — so a live collector sees
        the same ERROR events an offline replay of the export does.  A
        failure while handling such an ERROR event is recorded but not
        re-delivered, so a persistently failing subscriber cannot recurse.
        """
        return self.record(kind, operator, at=at, payload=payload)

    def record(
        self,
        kind: EventKind,
        operator: str,
        *,
        at: float = 0.0,
        payload: Mapping[str, Any] | None = None,
    ) -> Event:
        """Like :meth:`emit`, but with the payload as one explicit mapping.

        Payload keys that collide with ``emit``'s own parameters
        (``kind``, ``operator``, ``at``) are only representable this way;
        the import/replay path depends on it.
        """
        with self._lock:
            event = Event(
                seq=next(self._counter),
                kind=kind,
                operator=operator,
                at=at,
                payload=dict(payload) if payload else {},
            )
            self._events.append(event)
            self._notify(list(self._subscribers), event, fanout_errors=True)
            return event

    def extend(self, events: Iterable[Event]) -> list[Event]:
        """Re-record foreign events into this log, renumbering their ``seq``.

        The parallel batch runner records per-lane events into private
        lane logs (so concurrent lanes never interleave span brackets),
        then folds each lane's stream into the base log when the run
        completes.  Kind, operator, timestamp and payload are preserved;
        subscribers are notified exactly as for live records.  Returns
        the renumbered events.
        """
        with self._lock:
            return [
                self.record(
                    event.kind,
                    event.operator,
                    at=event.at,
                    payload=event.payload,
                )
                for event in events
            ]

    def _notify(
        self,
        subscribers: list[Callable[[Event], None]],
        event: Event,
        *,
        fanout_errors: bool,
    ) -> None:
        for index, subscriber in enumerate(subscribers):
            try:
                subscriber(event)
            except Exception as error:  # noqa: BLE001 - subscribers are user code
                name = getattr(subscriber, "__qualname__", None) or getattr(
                    subscriber, "__name__", type(subscriber).__name__
                )
                error_event = Event(
                    seq=next(self._counter),
                    kind=EventKind.ERROR,
                    operator=f"subscriber[{name}]",
                    at=event.at,
                    payload={
                        "error": type(error).__name__,
                        "message": str(error),
                        "during_seq": event.seq,
                    },
                )
                self._events.append(error_event)
                if fanout_errors:
                    others = subscribers[:index] + subscribers[index + 1 :]
                    self._notify(others, error_event, fanout_errors=False)

    def subscribe(self, callback: Callable[[Event], None]) -> None:
        """Register ``callback`` to receive every future event."""
        with self._lock:
            self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[Event], None]) -> bool:
        """Remove a subscriber; returns False when it was not registered."""
        with self._lock:
            try:
                self._subscribers.remove(callback)
            except ValueError:
                return False
            return True

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        # Iterate a snapshot so concurrent appends cannot skew iteration.
        return iter(self.all())

    def all(self) -> list[Event]:
        """All events, oldest first."""
        with self._lock:
            return list(self._events)

    def since(self, start: int) -> list[Event]:
        """Events from index ``start`` on, oldest first.

        Equal to ``all()[start:]`` but copies only the window, so slicing
        one run out of a long-lived log costs the run, not the log.
        """
        with self._lock:
            return self._events[start:]

    def of_kind(self, kind: EventKind) -> list[Event]:
        """Events of one kind, oldest first."""
        return [event for event in self.all() if event.kind is kind]

    def for_operator(self, operator: str) -> list[Event]:
        """Events emitted by operators whose label starts with ``operator``."""
        return [
            event
            for event in self.all()
            if event.operator == operator or event.operator.startswith(operator + "[")
        ]

    def last(self, kind: EventKind | None = None) -> Event | None:
        """The most recent event (optionally of one kind)."""
        events = self.all()
        if kind is None:
            return events[-1] if events else None
        for event in reversed(events):
            if event.kind is kind:
                return event
        return None

    def to_dicts(self) -> list[dict[str, Any]]:
        """Serialize the full log."""
        return [event.to_dict() for event in self.all()]

    def clear(self) -> None:
        """Drop all events (subscribers are kept)."""
        with self._lock:
            self._events.clear()
