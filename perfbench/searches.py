"""In-process search workloads: back-to-back ``lpq_quantize(spec=...)``.

A closed loop with one caller: the next search starts when the previous
one returns, until the measuring window is over (the search running at
the deadline finishes and counts).  The serial and process workloads
differ only in the spec's executor.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass

from repro.perf import diff_snapshots, get_perf
from repro.quant import lpq_quantize

from .verify import Returned


@dataclass
class Search:
    """One timed search and what it returned."""

    spec: object
    wall_s: float
    fitness: float | None = None
    evaluations: int = 0
    solution: object = None
    error: str | None = None

    def returned(self, label: str) -> Returned:
        return Returned(self.spec, self.solution, self.fitness, label)


def run_one(spec, tracer=None) -> Search:
    """Run and time one search; failures are recorded, not raised."""
    start = time.perf_counter()
    try:
        if tracer is None:
            result = lpq_quantize(spec=spec)
        else:
            tracer.search = spec.name
            with tracer.span("bench.search"):
                result = lpq_quantize(spec=spec)
    except Exception:  # a failed search is a counted failure
        return Search(spec, time.perf_counter() - start,
                      error=traceback.format_exc())
    return Search(spec, time.perf_counter() - start, result.fitness,
                  result.evaluations, result.solution)


@dataclass
class Window:
    """The searches of one measuring window and the perf-counter delta
    the program recorded over it."""

    searches: list[Search]
    wall_s: float
    perf: dict

    @property
    def evaluations(self) -> int:
        return sum(s.evaluations for s in self.searches)


def run_window(specs, seconds: float | None, count: int | None = None,
               tracer=None) -> Window:
    """Back-to-back searches over ``specs`` for ``seconds`` (or exactly
    ``count`` searches)."""
    before = get_perf().snapshot()
    searches: list[Search] = []
    start = time.perf_counter()
    for spec in specs:
        if count is not None and len(searches) >= count:
            break
        if count is None and time.perf_counter() - start >= seconds:
            break
        searches.append(run_one(spec, tracer))
    wall = time.perf_counter() - start
    return Window(searches, wall,
                  diff_snapshots(get_perf().snapshot(), before))
