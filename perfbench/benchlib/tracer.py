"""Host-clock span tracing installed from outside the program.

A :class:`Tracer` replaces selected public functions and methods of the
``repro`` package with thin wrappers that record one span per call:
name, start, end (``perf_counter_ns``), parent span and the unit of
work it belongs to.  The span stack is kept per thread, so the lanes of
a parallel batch and the workers of a serving pool each build their own
trees.  Self time — a span's duration minus the time its direct
children cover — is accumulated as spans close.

Spans stay in memory until :meth:`Tracer.write` dumps them; nothing is
written while a run is being measured.  :meth:`Tracer.uninstall`
restores every original attribute, so untraced runs in the same process
pay nothing.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable

# Span record layout (a list, mutated in place as the span closes).
NAME, UNIT, START, END, PARENT, CHILD_NS = range(6)


class _ThreadSpans:
    __slots__ = ("spans", "stack", "unit", "thread")

    def __init__(self, thread: str) -> None:
        self.spans: list[list[Any]] = []
        self.stack: list[int] = []
        self.unit: Any = None
        self.thread = thread


class Tracer:
    """Per-thread span recorder with install/uninstall of wrappers."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------------

    def _buffer(self) -> _ThreadSpans:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = _ThreadSpans(threading.current_thread().name)
            self._local.buffer = buffer
            with self._lock:
                self._threads.append(buffer)
        return buffer

    def bind_unit(self, unit: Any) -> None:
        """Tag every span this thread opens from now on with ``unit``."""
        self._buffer().unit = unit

    def _wrapper(
        self, name: str, original: Callable, unit_of: Callable | None
    ) -> Callable:
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            buffer = self._buffer()
            if unit_of is not None:
                buffer.unit = unit_of(*args, **kwargs)
            spans, stack = buffer.spans, buffer.stack
            parent = stack[-1] if stack else -1
            record = [name, buffer.unit, clock(), 0, parent, 0]
            spans.append(record)
            stack.append(len(spans) - 1)
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                record[END] = end
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD_NS] += end - record[START]

        return traced

    # -- installation ---------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        unit_of: Callable | None = None,
    ) -> None:
        """Replace ``owner.attr`` (a plain function) with a traced wrapper."""
        original = inspect.getattr_static(owner, attr)
        if not inspect.isfunction(original):
            raise TypeError(f"{name}: only plain functions can be traced")
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrapper(name, original, unit_of))

    def install(self, targets: Iterable[tuple]) -> "Tracer":
        """Wrap every ``(owner, attr, name[, unit_of])`` target."""
        for target in targets:
            owner, attr, name, *rest = target
            self.wrap(owner, attr, name, unit_of=rest[0] if rest else None)
        return self

    def uninstall(self) -> None:
        """Restore every wrapped attribute, last wrapped first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading --------------------------------------------------------------

    def spans(self) -> list[tuple[str, list[Any]]]:
        """Every span as ``(thread, record)``, each thread's in call order.

        Read after the traced work has finished, when every span is closed.
        """
        with self._lock:
            threads = list(self._threads)
        return [
            (buffer.thread, record)
            for buffer in threads
            for record in buffer.spans
        ]

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self milliseconds."""
        out: dict[str, dict[str, float]] = {}
        for _thread, record in self.spans():
            row = out.setdefault(
                record[NAME], {"calls": 0, "ms": 0.0, "self_ms": 0.0}
            )
            duration = record[END] - record[START]
            row["calls"] += 1
            row["ms"] += duration / 1e6
            row["self_ms"] += (duration - record[CHILD_NS]) / 1e6
        return out

    def durations(self, name: str) -> list[tuple[Any, int, float]]:
        """``(unit, start_ns, duration_ms)`` of every span called ``name``."""
        return [
            (record[UNIT], record[START], (record[END] - record[START]) / 1e6)
            for _thread, record in self.spans()
            if record[NAME] == name
        ]

    def write(self, path: Path, **header: Any) -> None:
        """Dump every span as one JSON document (call once, at the end).

        ``parent`` is the index of the parent span among the same
        thread's spans, in the order they appear; -1 for a root.
        """
        rows = [
            [
                record[NAME], thread, record[UNIT], record[START],
                record[END], record[PARENT],
                record[END] - record[START] - record[CHILD_NS],
            ]
            for thread, record in self.spans()
        ]
        document = {
            **header,
            "columns": [
                "name", "thread", "unit", "start_ns", "end_ns",
                "parent", "self_ns",
            ],
            "spans": rows,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, default=str), encoding="utf-8")

