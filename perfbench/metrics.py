"""Every metric the benchmark prints: name → (unit, better).

``END_TO_END`` is what a user of the search sees (printed with
``--trace 0``); ``PER_LAYER`` is one layer's share of it (printed with
``--trace 1``).  ``BENCHMARK.json`` lists the same names; the
benchmark's tests keep the two in step.  Per-layer ``*_s`` figures are
self times (span minus child spans) unless the name says otherwise:
``nn.forward_s``, ``quant.layer_stats_s``, ``quant.evaluator_init_s``,
``parallel.pool_*_s`` and ``spec.encode_s`` are whole-call times, and
``*_p50_s``/``*_tail_s`` are per-call latencies.  ``quant.fixed_cost_share``
is the share of search wall time spent in per-search costs that do not
scale with the GA budget (pool start and close, evaluator set-up, layer
statistics); a process pool's evaluator set-up runs in its workers and
is not in it.
"""

from __future__ import annotations

END_TO_END = {
    "setup_s": ("s", "lower"),
    "evals_per_s": ("1/s", "higher"),
    "search_p50_s": ("s", "lower"),
    "search_tail_s": ("s", "lower"),
    "within_limit_share": ("share", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    # repro.numerics
    "numerics.weight_quant_s": ("s", "lower"),
    "numerics.act_quant_s": ("s", "lower"),
    "numerics.quant_calls": ("count", "lower"),
    "numerics.quant_elems_per_s": ("1/s", "higher"),
    "numerics.lut_builds": ("count", "lower"),
    # repro.nn
    "nn.conv_s": ("s", "lower"),
    "nn.linear_s": ("s", "lower"),
    "nn.attention_s": ("s", "lower"),
    "nn.gelu_s": ("s", "lower"),
    "nn.norm_s": ("s", "lower"),
    "nn.forward_s": ("s", "lower"),
    "nn.layers_reused": ("count", "higher"),
    # repro.quant
    "quant.eval_p50_s": ("s", "lower"),
    "quant.eval_tail_s": ("s", "lower"),
    "quant.evals": ("count", "higher"),
    "quant.computed_evals": ("count", "lower"),
    "quant.apply_s": ("s", "lower"),
    "quant.objective_s": ("s", "lower"),
    "quant.layer_stats_s": ("s", "lower"),
    "quant.evaluator_init_s": ("s", "lower"),
    "quant.engine_s": ("s", "lower"),
    "quant.fixed_cost_share": ("share", "lower"),
    "quant.weight_cache_hit_rate": ("share", "higher"),
    "quant.weight_cache_lookups": ("count", "lower"),
    "quant.act_cache_hit_rate": ("share", "higher"),
    "quant.act_cache_lookups": ("count", "lower"),
    "quant.memo_hit_rate": ("share", "higher"),
    "quant.memo_lookups": ("count", "lower"),
    # repro.parallel
    "parallel.pool_start_s": ("s", "lower"),
    "parallel.pool_close_s": ("s", "lower"),
    "parallel.batch_p50_s": ("s", "lower"),
    "parallel.batches": ("count", "lower"),
    "parallel.worker_eval_mean_s": ("s", "lower"),
    "parallel.worker_busy_share": ("share", "higher"),
    # repro.spec
    "spec.encode_s": ("s", "lower"),
    "spec.bytes_sent": ("B", "lower"),
    "spec.blob_hit_rate": ("share", "higher"),
    "spec.blob_lookups": ("count", "lower"),
    # repro.serve
    "serve.submit_rpc_p50_s": ("s", "lower"),
    "serve.queue_wait_p50_s": ("s", "lower"),
    "serve.run_p50_s": ("s", "lower"),
    "serve.result_rpc_p50_s": ("s", "lower"),
    "serve.store_hit_share": ("share", "higher"),
    "serve.chunks": ("count", "lower"),
    "serve.evals_per_chunk": ("count", "higher"),
    "serve.fault_events": ("count", "lower"),
    "serve.generator_late_max_s": ("s", "lower"),
    # the measurement itself
    "trace.overhead_share": ("share", "lower"),
    "trace.spans": ("count", "lower"),
}


def render(values: dict, table: dict) -> dict:
    """``{name: {"value": v, "unit": u}}`` for every metric of ``table``
    (a metric the workload does not exercise reads 0)."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, (unit, _) in table.items()
    }
