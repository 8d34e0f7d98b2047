"""Spans and counters recorded around calls into the program's layers.

Nothing inside the program changes: :class:`Tracer` replaces a fixed set of
public functions and methods with timing wrappers for the duration of a
traced run and puts the originals back afterwards.  Each span records its
name, start, end, parent span and the benchmark operation it belongs to;
spans stay in memory until the run ends.

A layer's *self time* is its span's duration minus the time its child spans
cover, so self times along one operation add up to the traced part of that
operation without double counting.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters from wrapped program entry points."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Record no spans from this thread inside the block (gate checks)."""
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = False

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[None]:
        """Time the enclosed block as one span (``op`` starts an operation)."""
        if getattr(self._local, "paused", False):
            yield
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is not None:
            self._local.op = op
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(span_id, name, start, end, parent, getattr(self._local, "op", None))
            if op is not None:
                self._local.op = None
            with self._lock:
                self.spans.append(span)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    # -- wrapping ----------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Optional[Callable[..., None]] = None,
        before: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a spanning wrapper until :meth:`restore`.

        ``before(*args, **kwargs)`` runs ahead of the span and
        ``after(result, *args, **kwargs)`` after it, so counting work stays
        out of the measured time.  Class methods keep their binding.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            with self.span(name):
                result = func(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        self._patches.append((owner, attr, raw))
        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- reduction ---------------------------------------------------------
    def self_times(self) -> Dict[int, float]:
        """Span id -> self time (duration minus the union of child spans)."""
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        result = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
                start = max(child.start, cursor)
                end = min(child.end, span.end)
                if end > start:
                    covered += end - start
                    cursor = end
            result[span.id] = span.duration - covered
        return result

    def layer_totals(self, ops: Optional[set] = None) -> Dict[str, Tuple[float, float, int]]:
        """Span name -> (total duration, total self time, calls).

        With ``ops``, only spans belonging to those operations count; spans
        recorded outside any operation (server threads) have ``op`` ``None``
        and are selected with ``ops=None``.
        """
        own = self.self_times()
        totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0, 0])
        for span in self.spans:
            if ops is not None and span.op not in ops:
                continue
            entry = totals[span.name]
            entry[0] += span.duration
            entry[1] += own[span.id]
            entry[2] += 1
        return {name: (total, self_time, int(calls)) for name, (total, self_time, calls) in totals.items()}

    def coverage(self, op_span_name: str) -> float:
        """Share of operation wall time covered by the operations' child spans."""
        op_ids = {span.id for span in self.spans if span.name == op_span_name}
        wall = sum(span.duration for span in self.spans if span.id in op_ids)
        covered = sum(span.duration for span in self.spans if span.parent in op_ids)
        return covered / wall if wall > 0 else 0.0

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, then the counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")
            handle.write(json.dumps({"counters": dict(self.counters)}, sort_keys=True) + "\n")
