"""Spans recorded from outside the program.

The harness never edits ``src/``: a layer boundary is traced by
swapping a public method (or a module-level function another module
imported) for a delegating wrapper that opens a span, calls the
original and closes the span.  The wrappers exist only inside
:meth:`SpanRecorder.patched`, so the untraced passes run the program's
own code objects.

A span is ``[name, start, end, parent, tag]``: ``parent`` indexes the
span that was open when this one began (``-1`` for a root) and ``tag``
is the ``workload#repeat`` id shared by every span of one repeat.
Spans stay in memory; :func:`dump_spans` writes them when the run ends.
All wrapped calls happen on the driver thread (the service's bus
consumer threads are not wrapped), so one stack suffices.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable

NAME, START, END, PARENT, TAG = range(5)
_MISSING = object()


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.tag = ""
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.tag])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    def add_child(self, name: str, start: float, duration: float) -> None:
        """Record a finished span under the currently open one (used for
        work measured elsewhere, e.g. in a worker process)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, start + duration, parent, self.tag])

    def wrap(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return wrapper

    @contextmanager
    def patched(self, targets: Iterable[tuple[Any, str, str]]):
        """Trace ``owner.attr`` as span ``name`` for each
        ``(owner, attr, name)``; owners are classes, modules or
        instances.  Everything is restored on exit."""
        undo: list[tuple[Any, str, Any]] = []
        try:
            for owner, attr, name in targets:
                undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
            yield
        finally:
            for owner, attr, original in reversed(undo):
                if original is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)


def duration(span: list) -> float:
    return span[END] - span[START]


def own_times(spans: list[list]) -> list[float]:
    """Self seconds of every span: its duration minus the durations of
    its direct children.  Over a well-formed tree they sum to the
    durations of the roots, so they partition the traced time."""
    own = [duration(s) for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= duration(s)
    return own


def subtree_times(spans: list[list], own: Iterable[float]) -> list[float]:
    """Each span's own time plus that of everything beneath it (the
    span's duration, rebuilt from possibly adjusted own times).  Children
    always follow their parent in the list."""
    total = list(own)
    for i in range(len(spans) - 1, -1, -1):
        if spans[i][PARENT] >= 0:
            total[spans[i][PARENT]] += total[i]
    return total


def by_name(spans: list[list], values: Iterable[float]) -> dict[str, float]:
    out: dict[str, float] = {}
    for s, v in zip(spans, values):
        out[s[NAME]] = out.get(s[NAME], 0.0) + v
    return out


def tree_problems(spans: list[list], slack: float = 1e-6) -> list[str]:
    """Violations of: every span closed, every child inside its parent,
    every self time >= 0 (children of one parent never overlap because
    they come from one stack; a synthetic child must fit too)."""
    problems = []
    for i, s in enumerate(spans):
        if s[END] < s[START]:
            problems.append(f"span {i} {s[NAME]} never closed")
        if s[PARENT] >= 0:
            p = spans[s[PARENT]]
            if s[START] < p[START] - slack or s[END] > p[END] + slack:
                problems.append(f"span {i} {s[NAME]} leaves parent {p[NAME]}")
    problems += [
        f"span {i} {spans[i][NAME]} has negative self time {t:.3e}"
        for i, t in enumerate(own_times(spans)) if t < -slack
    ]
    return problems


def dump_spans(groups: Iterable[list[list]], path) -> None:
    """One JSON span per line; parent indices, which are relative to
    each repeat's own list, are shifted to index the whole file."""
    base = 0
    with open(path, "w") as fh:
        for spans in groups:
            for s in spans:
                parent = s[PARENT] + base if s[PARENT] >= 0 else -1
                fh.write(json.dumps([*s[:PARENT], parent, s[TAG]]) + "\n")
            base += len(spans)
