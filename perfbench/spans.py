"""In-memory span recorder for the traced benchmark run.

The traced run substitutes timed wrappers for module and class
attributes of the library (``Tracer.patch``), so every call into a
layer's public function becomes a span: name, parent, start, end and a
few attributes. Nothing in ``src/`` is edited; the wrappers exist only
while a traced pass runs and ``Tracer.restore`` puts the originals back.

Spans stay in memory and are written once, at the end (``Tracer.dump``).
Parents come from a context variable, so nesting is right per thread and
per asyncio task; spans opened in a thread with no context (island
threads, executor threads) fall back to ``Tracer.fallback``, the
operation the closed loop is currently running.

A span's self time is its duration minus the part of its interval its
children cover (``self_times``); the coverage of an operation is the
share of its wall time that layer spans below it cover (``coverage``).
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

__all__ = ["Span", "Tracer", "union_length", "self_times", "descendants", "coverage"]

_UNSET = object()


class Span:
    """One timed call: ``[start, end]`` in ``time.perf_counter`` seconds."""

    __slots__ = ("id", "name", "parent", "start", "end", "thread", "attrs")

    def __init__(self, sid: int, name: str, parent: int | None, start: float) -> None:
        self.id = sid
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.thread = threading.get_ident()
        self.attrs: dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "thread": self.thread,
            "attrs": self.attrs,
        }


class Tracer:
    """Records spans and owns the attribute substitutions that produce them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.fallback: Span | None = None
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------
    def current(self) -> Span | None:
        return self._current.get() or self.fallback

    def open(self, name: str, *, parent: Any = _UNSET, start: float | None = None) -> Span:
        """Start a span; it is recorded now and finished by ``close``."""
        if parent is _UNSET:
            parent = self.current()
        span = Span(
            next(self._ids),
            name,
            parent.id if isinstance(parent, Span) else parent,
            time.perf_counter() if start is None else start,
        )
        self.spans.append(span)
        return span

    @staticmethod
    def close(span: Span, end: float | None = None) -> Span:
        span.end = time.perf_counter() if end is None else end
        return span

    @contextmanager
    def span(
        self, name: str, *, parent: Any = _UNSET, start: float | None = None
    ) -> Iterator[Span]:
        """Open a span, make it the current parent, close it on exit."""
        sp = self.open(name, parent=parent, start=start)
        token = self._current.set(sp)
        try:
            yield sp
        finally:
            self._current.reset(token)
            sp.end = time.perf_counter()

    # -- attribute substitution -------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: str,
        after: Callable[[Span, tuple, dict, Any], None] | None = None,
    ) -> Callable:
        """A timed stand-in for ``fn``; ``after`` may annotate the span."""
        tracer = self

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name) as sp:
                result = fn(*args, **kwargs)
            if after is not None:
                after(sp, args, kwargs, result)
            return result

        return timed

    def wrap_async(self, fn: Callable, name: str) -> Callable:
        """The coroutine-function form of :meth:`wrap`."""
        tracer = self

        @functools.wraps(fn)
        async def timed(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name):
                return await fn(*args, **kwargs)

        return timed

    def substitute(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` until :meth:`restore`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Callable[[Span, tuple, dict, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` (a module or class attribute) by a timed wrapper."""
        original = owner.__dict__[attr]
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot patch descriptor {owner!r}.{attr}")
        self.substitute(owner, attr, self.wrap(original, name, after))

    def restore(self) -> None:
        """Put every substituted attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------
    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (called once, at the end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json(), default=str) + "\n")


def union_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def children_of(spans: Iterable[Span]) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            kids[span.parent].append(span)
    return kids


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    kids = children_of(spans)
    return {
        s.id: s.duration - union_length(((c.start, c.end) for c in kids.get(s.id, ())), s.start, s.end)
        for s in spans
    }


def descendants(root: Span, kids: dict[int, list[Span]]) -> list[Span]:
    """Every span below ``root``: its children, theirs, and so on."""
    found, stack = [], [root]
    while stack:
        for child in kids.get(stack.pop().id, ()):
            found.append(child)
            stack.append(child)
    return found


def coverage(
    spans: list[Span],
    roots: list[Span],
    counts: Callable[[Span], bool],
    linked: dict[int, list[tuple[float, float]]] | None = None,
) -> float:
    """Share of the roots' summed wall time that layer spans cover.

    A moment of a root's interval is covered while a descendant span for
    which ``counts`` holds is running, or while it lies in one of the
    root's ``linked`` intervals (work done for the root outside its own
    span tree, such as a gateway solve in an executor thread). Spans that
    ``counts`` rejects -- catch-all wrappers around a whole operation --
    leave their self time uncovered.
    """
    kids = children_of(spans)
    linked = linked or {}
    wall = sum(r.duration for r in roots)
    if wall <= 0:
        return 0.0
    covered = 0.0
    for root in roots:
        intervals = [(s.start, s.end) for s in descendants(root, kids) if counts(s)]
        intervals += linked.get(root.id, [])
        covered += union_length(intervals, root.start, root.end)
    return covered / wall
