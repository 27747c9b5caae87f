"""Layer spans recorded from outside the program.

Tracing wraps each public function where its caller looks it up (a module
attribute, or a method on its class), so the program itself is unchanged.
A span records name, start, end, parent span and job id; spans stay in
memory until the run writes them out. A layer's self time is its span's
duration minus the part of it that child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]
    job: str


@dataclass(frozen=True)
class Target:
    """One function to wrap: owner.attr, recorded under span name."""

    owner: object
    attr: str
    name: str
    on_result: Optional[Callable[["Tracer", tuple, dict, object], None]] = None


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self, targets: list[Target]) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._job = ""
        self._patches = [(t.owner, t.attr, getattr(t.owner, t.attr),
                          self._wrap(t, getattr(t.owner, t.attr)))
                         for t in targets]

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                self._close(idx, target.name)
                if failed:
                    self.counts[target.name + ".failed"] += 1
            if target.on_result is not None:
                target.on_result(self, args, kwargs, result)
            return result

        return wrapper

    def _open(self) -> int:
        self._stack.append(len(self.spans))
        self.spans.append(Span("", time.perf_counter(), 0.0, None, ""))
        return self._stack[-1]

    def _close(self, idx: int, name: str) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans[idx] = Span(name, self.spans[idx].start, end, parent,
                               self._job)

    def _install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def _uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    @contextmanager
    def job(self, job_id: str, root: str) -> Iterator[None]:
        """Trace one job: wrappers installed, a root span around the body."""
        self._job = job_id
        self._install()
        try:
            idx = self._open()
            try:
                yield
            finally:
                self._close(idx, root)
        finally:
            self._uninstall()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span],
               key: Callable[[Span], object] = lambda span: span.name) -> dict:
    """Total self seconds per key of a span (its name by default)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out: dict = defaultdict(float)
    for idx, span in enumerate(spans):
        inner = _covered(children.get(idx, []), span.start, span.end)
        out[key(span)] += (span.end - span.start) - inner
    return dict(out)


def call_counts(spans: list[Span]) -> dict[str, int]:
    out: dict[str, int] = defaultdict(int)
    for span in spans:
        out[span.name] += 1
    return dict(out)
