"""In-memory span recording and the summary statistics the benchmark reports.

A span is (name, start, end, parent). Spans are recorded only in a traced
run and only around calls the benchmark makes into ``tverlab``; nothing is
timed inside the program. Untraced runs use ``NullTracer``, whose spans
cost one method call each.
"""

from __future__ import annotations

import contextlib
import json
import math
import time

# The modules of tverlab; a span named "<layer>.<what>" times a call into one.
LAYERS = ("complexes", "homology", "geometry", "bounds", "cli")
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer, index):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        tracer.ends[self.index] = time.perf_counter()
        tracer.stack.pop()
        return False


class Tracer:
    """Records nested spans of one thread; parents come from the open stack."""

    enabled = True

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []

    def span(self, name: str) -> _Span:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(math.nan)
        self.stack.append(index)
        self.starts.append(time.perf_counter())
        return _Span(self, index)

    def duration(self, i: int) -> float:
        return self.ends[i] - self.starts[i]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Children of one parent never overlap, because spans come from a
        single thread and are closed in stack order.
        """
        own = [self.duration(i) for i in range(len(self.names))]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.duration(i)
        return own

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": self.parents[i],
                    "start": self.starts[i], "end": self.ends[i],
                }) + "\n")


class NullTracer:
    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def percentile(values, q: float) -> float:
    """Linear-interpolated q-th percentile of a nonempty sample."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int):
    """The highest percentile of the ladder with at least ten samples
    beyond it in a sample of size n, or None when even the median has
    fewer."""
    best = None
    for q in PERCENTILE_LADDER:
        # per mille, so that 99.9 is exact
        if n * (1000 - round(q * 10)) >= TAIL_MIN_BEYOND * 1000:
            best = q
    return best


def latency_summary(seconds) -> dict:
    """Median, p90 and the tail percentile the sample size supports, in ms."""
    n = len(seconds)
    out = {"n": n, "p50_ms": percentile(seconds, 50) * 1e3, "p90_ms": percentile(seconds, 90) * 1e3}
    tail = tail_percentile(n)
    out["tail_pct"] = tail
    out["tail_ms"] = None if tail is None else percentile(seconds, tail) * 1e3
    return out
