"""In-memory span tracing around the public calls of each layer.

:class:`Tracer` wraps the public functions and methods the search path
calls — module forwards, LUT quantization, the evaluator, the GA
engine's propose/commit, the population evaluator, the wire codec —
and records one span per call: name, start, end, parent span, and the
search (or job) the call belongs to.  Nothing in the program changes:
the wrappers are installed for the traced pass only and restored after
it.  Spans stay in memory and are written out when the run ends.

A span's *self time* is its duration minus the time its direct child
spans cover (children nest strictly inside their parent on one thread).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

from . import stats

#: module-forward span names per ``nn.<type>_s`` metric
NN_GROUPS = {
    "conv": ("Conv2d",),
    "linear": ("Linear",),
    "attention": ("MultiHeadSelfAttention", "WindowAttention"),
    "gelu": ("GELU",),
    "norm": ("LayerNorm", "BatchNorm2d"),
}

#: the per-search costs that do not scale with the GA budget
FIXED_COSTS = ("parallel.pool_start", "parallel.pool_close",
               "quant.evaluator_init", "quant.layer_stats")


def _size(args, kwargs) -> int:
    return int(getattr(args[0], "size", 0))


def _sizes(args, kwargs) -> int:
    return sum(int(getattr(x, "size", 0)) for x in args[0])


def _module_name(args, kwargs) -> str:
    return "nn." + type(args[0]).__name__


#: (module, attribute owner or None for the module itself, attribute,
#: span name or name function, element-count function)
_TARGETS = (
    ("repro.nn.module", "Module", "__call__", _module_name, None),
    ("repro.nn.replay", "ForwardCache", "forward", "nn.forward", None),
    ("repro.quant.quantizer", None, "lp_quantize",
     "numerics.lp_quantize", _size),
    ("repro.quant.quantizer", None, "lp_quantize_many",
     "numerics.lp_quantize_many", _sizes),
    ("repro.quant.quantizer", None, "apply_quantization", "quant.apply",
     None),
    ("repro.quant.engine", "IncrementalEvaluator", "__init__",
     "quant.evaluator_init", None),
    ("repro.quant.engine", "IncrementalEvaluator", "__call__",
     "quant.evaluate", None),
    ("repro.quant.engine", "IncrementalEvaluator", "prefill_weights",
     "quant.prefill", None),
    ("repro.quant.fitness", None, "contrastive_objective",
     "quant.objective", None),
    ("repro.quant.fitness", None, "pool_representation",
     "quant.objective", None),
    ("repro.quant.ptq", None, "collect_layer_stats", "quant.layer_stats",
     None),
    ("repro.quant.genetic", "LPQEngine", "propose_initial", "quant.engine",
     None),
    ("repro.quant.genetic", "LPQEngine", "commit_initial", "quant.engine",
     None),
    ("repro.quant.genetic", "LPQEngine", "propose_step", "quant.engine",
     None),
    ("repro.quant.genetic", "LPQEngine", "commit_step", "quant.engine",
     None),
    ("repro.parallel.evaluator", "PopulationEvaluator", "__init__",
     "parallel.pool_start", None),
    ("repro.parallel.evaluator", "PopulationEvaluator", "evaluate_many",
     "parallel.batch", None),
    ("repro.parallel.evaluator", "PopulationEvaluator", "close",
     "parallel.pool_close", None),
    ("repro.spec.wire", None, "encode_job", "spec.encode", None),
)


class Tracer:
    """Records spans; :meth:`installed` wraps the layer calls.

    Spans are tuples ``(id, name, start, end, parent, search, count)``.
    Ids come from an atomic counter and each thread keeps its own stack
    of open spans, so concurrent client threads trace safely.  Forked
    pool workers inherit the wrappers but record nothing (the process
    id differs); their work comes home as perf-counter deltas instead.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.search: str | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._pid = os.getpid()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, search: str | None = None, count: int = 0):
        """Record one span around the ``with`` body."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent,
                               search if search is not None else self.search,
                               count))

    def wrap(self, fn, name, count=None):
        """``fn`` with a span recorded around every call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            with tracer.span(
                    name if isinstance(name, str) else name(args, kwargs),
                    count=count(args, kwargs) if count else 0):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced layer call; restore the originals on exit."""
        saved = []
        try:
            for module_name, owner_name, attr, name, count in _TARGETS:
                module = importlib.import_module(module_name)
                owner = (module if owner_name is None
                         else getattr(module, owner_name))
                original = owner.__dict__[attr] if owner_name else getattr(
                    owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "search", "count")
        with path.open("w") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span id → duration minus the time its direct children cover."""
    covered: dict[int, float] = defaultdict(float)
    for sid, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return {sid: (end - start) - covered[sid]
            for sid, _, start, end, _, _, _ in spans}


def layer_metrics(spans) -> dict[str, float]:
    """The per-layer figures derivable from spans alone."""
    own = self_times(spans)
    by_id = {span[0]: span for span in spans}
    self_by_name: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    has_children: set[int] = set()
    for span in spans:
        sid, name, start, end, parent = span[:5]
        self_by_name[name] += own[sid]
        durations[name].append(end - start)
        if parent >= 0:
            has_children.add(parent)

    def quant_path(span) -> str:
        # weight quantization runs under apply/prefill, activation
        # quantization inside a module forward
        parent = span[4]
        while parent >= 0:
            name = by_id[parent][1]
            if name in ("quant.apply", "quant.prefill"):
                return "weight"
            if name.startswith("nn."):
                return "act"
            parent = by_id[parent][4]
        return "other"

    quant_s = {"weight": 0.0, "act": 0.0, "other": 0.0}
    quant_calls = quant_elems = 0
    for span in spans:
        if span[1].startswith("numerics."):
            quant_s[quant_path(span)] += own[span[0]]
            quant_calls += 1
            quant_elems += span[6]
    quant_total = sum(quant_s.values())
    computed = [end - start for sid, name, start, end, *_ in spans
                if name == "quant.evaluate" and sid in has_children]
    out = {
        "numerics.weight_quant_s": quant_s["weight"],
        "numerics.act_quant_s": quant_s["act"],
        "numerics.quant_calls": quant_calls,
        "numerics.quant_elems_per_s": (
            quant_elems / quant_total if quant_total else 0.0),
        "nn.forward_s": sum(durations["nn.forward"]),
        "quant.eval_p50_s": stats.median(computed),
        "quant.eval_tail_s": stats.tail(computed)[1],
        "quant.apply_s": self_by_name["quant.apply"],
        "quant.objective_s": self_by_name["quant.objective"],
        "quant.layer_stats_s": sum(durations["quant.layer_stats"]),
        "quant.evaluator_init_s": sum(durations["quant.evaluator_init"]),
        "quant.engine_s": self_by_name["quant.engine"],
        "parallel.pool_start_s": sum(durations["parallel.pool_start"]),
        "parallel.pool_close_s": sum(durations["parallel.pool_close"]),
        "parallel.batch_p50_s": stats.median(durations["parallel.batch"]),
        "parallel.batches": len(durations["parallel.batch"]),
        "spec.encode_s": sum(durations["spec.encode"]),
        "trace.spans": len(spans),
    }
    searches_s = sum(durations["bench.search"])
    if searches_s:
        out["quant.fixed_cost_share"] = sum(
            sum(durations[name]) for name in FIXED_COSTS) / searches_s
    for group, types in NN_GROUPS.items():
        out[f"nn.{group}_s"] = sum(self_by_name[f"nn.{t}"] for t in types)
    return out
