"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cnn-serial --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the same inputs untraced and then traced, and prints
the per-layer metrics (with the tracing overhead).  ``--workload all``
runs every workload in turn and merges their results.  Every returned
result is re-scored on the reference path before anything is printed.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name → value and unit).  The
line before it, ``perfbench detail: {...}``, carries the host
fingerprint, the tail percentile and sample count, the error rate and
the open-loop lateness.  Spans and the detail record are written under
``.perfbench_out/``.
"""

from __future__ import annotations

import time

#: the set-up clock starts before any import
_T0 = time.perf_counter()

import argparse  # noqa: E402
import atexit  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from multiprocessing import resource_tracker  # noqa: E402
from pathlib import Path  # noqa: E402


def _stop_resource_tracker() -> None:
    """Stop and reap the shared-memory resource tracker the program
    starts in this process (the blob store exports its tensors through
    ``multiprocessing.shared_memory``).  Left alone, it outlives the
    benchmark by a moment and is never waited for."""
    resource_tracker._resource_tracker._stop()


# registered before the program is imported, so it runs after every
# exit hook of the program (hooks run last-in, first-out) — those still
# unregister shared-memory segments through the tracker
atexit.register(_stop_resource_tracker)

REPO = Path(__file__).resolve().parents[1]
OUT = REPO / ".perfbench_out"
#: a set-up probe (a fresh process: imports and the warm-up search)
#: may take this long
PROBE_TIMEOUT = 150.0
#: set-up samples per run; the reported set-up time is their median
SETUP_SAMPLES = 3


def _require_program() -> None:
    missing = [p for p in ("src/repro", "scripts/run_server.py",
                           "scripts/run_worker.py")
               if not (REPO / p).exists()]
    if missing:
        print(f"perfbench: the program is not here (missing "
              f"{', '.join(missing)} under {REPO.name}/)", file=sys.stderr)
        raise SystemExit(2)


def _setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh process (imports and warm-up search)."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--setup-only"],
        cwd=REPO, capture_output=True, text=True, timeout=PROBE_TIMEOUT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def _cache(snapshot: dict, name: str) -> tuple[float, int]:
    stats = snapshot.get("caches", {}).get(name)
    if not stats:
        return 0.0, 0
    lookups = stats["hits"] + stats["misses"]
    return (stats["hits"] / lookups if lookups else 0.0), lookups


def perf_layer_metrics(snapshot: dict) -> dict:
    """Per-layer figures the program's own perf counters give."""
    counters = snapshot.get("counters", {})
    timers = snapshot.get("timers", {})
    evaluate = timers.get("fitness.evaluate", {"total_s": 0.0, "count": 0})
    out = {
        "nn.layers_reused": counters.get("replay.layers_reused", 0),
        "quant.computed_evals": evaluate["count"],
        "parallel.worker_eval_mean_s": (
            evaluate["total_s"] / evaluate["count"]
            if evaluate["count"] else 0.0),
        "spec.bytes_sent": counters.get("transport.bytes_sent", 0),
        "serve.chunks": counters.get("serve.chunks", 0),
        "serve.fault_events": sum(
            v for k, v in counters.items() if k.startswith("fault.")),
    }
    for metric, cache in (("quant.weight_cache", "quant.weight_cache"),
                          ("quant.act_cache", "quant.act_cache"),
                          ("quant.memo", "fitness.memo"),
                          ("spec.blob", "blob")):
        rate, lookups = _cache(snapshot, cache)
        out[f"{metric}_hit_rate"] = rate
        out[f"{metric}_lookups"] = lookups
    return out


# -- in-process search workloads ------------------------------------------
def run_searches(workload, seed: int, seconds: float, trace: bool,
                 setup_only: bool) -> dict:
    from perfbench import host, stats, trace as tracing, verify
    from perfbench.searches import run_one, run_window
    from perfbench.workloads import search_specs, warmup_spec
    from repro.perf import get_perf

    warm = run_one(warmup_spec(workload, seed))
    if warm.error:
        raise RuntimeError(f"warm-up search failed:\n{warm.error}")
    setup = time.perf_counter() - _T0
    if setup_only:
        return {"setup_s": setup}
    samples = [setup] + [_setup_probe(workload.name, seed)
                         for _ in range(SETUP_SAMPLES - 1)]
    specs = search_specs(workload, seed)
    with host.TreeMemory() as memory:
        window = run_window(specs, seconds)
    searches = window.searches
    failed = [s for s in searches if s.error]
    ok = [s for s in searches if not s.error]
    wrong = verify.mismatches(
        s.returned(f"search {s.spec.name}") for s in ok)
    walls = [s.wall_s for s in searches]
    tail_pct, tail_s = stats.tail(walls)
    within = sum(1 for s in ok if s.wall_s <= workload.limit_s)
    result = {
        "attempted": len(searches),
        "failed": len(failed) + len(wrong),
        "wrong": wrong,
        "errors": [s.error for s in failed][:3],
        "end_to_end": {
            "setup_s": stats.median(samples),
            "evals_per_s": window.evaluations / window.wall_s,
            "search_p50_s": stats.median(walls),
            "search_tail_s": tail_s,
            "within_limit_share": within / len(searches),
            "peak_rss_mb": memory.peak_mb,
        },
        "detail": {
            "setup_samples_s": samples,
            "searches": len(searches),
            "tail_percentile": tail_pct,
            "limit_s": workload.limit_s,
            "window_s": window.wall_s,
            "evaluations": window.evaluations,
        },
    }
    if not trace:
        return result
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = run_window(specs, None, count=len(searches), tracer=tracer)
    for a, b in zip(searches, traced.searches):
        if b.error or a.fitness != b.fitness:
            result["wrong"].append(
                f"search {a.spec.name}: untraced {a.fitness!r}, traced "
                f"{b.fitness!r}{' (failed)' if b.error else ''}")
    result["failed"] = len(failed) + len(result["wrong"])
    layer = perf_layer_metrics(traced.perf)
    layer.update(tracing.layer_metrics(tracer.spans))
    lut = get_perf().snapshot().get("caches", {}).get(
        "numerics.lut_cache", {"misses": 0})
    layer["numerics.lut_builds"] = lut["misses"]
    layer["quant.evals"] = traced.evaluations
    batch_s = sum(end - start for _, name, start, end, *_ in tracer.spans
                  if name == "parallel.batch")
    workers = workload.executor.workers if workload.executor else 1
    if batch_s:
        layer["parallel.worker_busy_share"] = (
            traced.perf.get("timers", {}).get("fitness.evaluate", {})
            .get("total_s", 0.0) / (workers * batch_s))
    traced_eps = traced.evaluations / traced.wall_s
    untraced_eps = result["end_to_end"]["evals_per_s"]
    layer["trace.overhead_share"] = untraced_eps / traced_eps - 1.0
    result["per_layer"] = layer
    result["detail"]["traced_evals_per_s"] = traced_eps
    result["detail"]["untraced_evals_per_s"] = untraced_eps
    result["tracer"] = tracer
    return result


# -- the daemon workload ----------------------------------------------------
def _daemon_setup(workload, seed: int, previous,
                  metrics_interval: float | None = None) -> tuple:
    """Start a fresh fleet and run the warm-up job; returns the live
    fleet and the seconds it took."""
    from perfbench.fleet import Fleet, warm_up
    from perfbench.workloads import WORKERS, warmup_spec

    if previous is not None:
        previous.stop()
    start = time.perf_counter()
    fleet = Fleet(REPO, OUT, WORKERS, metrics_interval)
    try:
        fleet.start()
        warm_up(fleet.address, warmup_spec(workload, seed),
                timeout=PROBE_TIMEOUT)
    except BaseException:
        fleet.stop()
        raise
    return fleet, time.perf_counter() - start


def _loop_metrics(workload, loop) -> tuple[dict, dict, list]:
    from perfbench import stats

    subs = loop.submissions
    ok = [s for s in subs if s.record is not None]
    latencies = [s.latency_s for s in ok]
    tail_pct, tail_s = stats.tail(latencies)
    late = [s.sent - s.due for s in subs if s.sent is not None]
    executed = loop.executed
    evaluations = sum(s.record["evaluations"] for s in executed)
    end_to_end = {
        "evals_per_s": evaluations / (loop.end - loop.start),
        "search_p50_s": stats.median(latencies),
        "search_tail_s": tail_s,
        "within_limit_share": sum(
            1 for v in latencies if v <= workload.limit_s) / len(subs),
    }
    detail = {
        "submissions": len(subs),
        "completed": len(ok),
        "tail_percentile": tail_pct,
        "limit_s": workload.limit_s,
        "rate_per_s": workload.rate,
        "generator_late_p50_s": stats.median(late),
        "generator_late_max_s": max(late, default=0.0),
        "errors": sorted({s.error for s in subs if s.error})[:3],
    }
    layer = perf_layer_metrics(loop.perf)
    layer.update({
        "serve.submit_rpc_p50_s": stats.median(
            [s.submit_rpc_s for s in subs if s.submit_rpc_s is not None]),
        "serve.queue_wait_p50_s": stats.median(
            [s.running_at - s.sent for s in executed if s.running_at]),
        "serve.run_p50_s": stats.median(
            [s.done_at - s.running_at for s in executed if s.running_at]),
        "serve.result_rpc_p50_s": stats.median(
            [s.result_rpc_s for s in ok]),
        "serve.store_hit_share": sum(
            1 for s in ok if s.answered_from_store) / len(subs),
        "serve.generator_late_max_s": detail["generator_late_max_s"],
        "quant.evals": evaluations,
    })
    if layer["serve.chunks"]:
        layer["serve.evals_per_chunk"] = evaluations / layer["serve.chunks"]
    return end_to_end, {"detail": detail, "layer": layer}, ok


def run_daemon(workload, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import host, stats, trace as tracing, verify
    from perfbench.fleet import TRACE_METRICS_INTERVAL, open_loop
    from perfbench.workloads import search_specs

    specs = search_specs(workload, seed)
    drain = 2 * workload.limit_s
    fleet = None
    samples = []
    try:
        for _ in range(SETUP_SAMPLES):
            fleet, took = _daemon_setup(workload, seed, fleet)
            samples.append(took)
        with host.TreeMemory() as memory:
            loop = open_loop(fleet.address, specs, workload.rate, seconds,
                             drain)
    finally:
        if fleet is not None:
            fleet.stop()
    end_to_end, extra, ok = _loop_metrics(workload, loop)
    end_to_end["setup_s"] = stats.median(samples)
    end_to_end["peak_rss_mb"] = memory.peak_mb
    scorer = verify.ReferenceScorer()
    wrong = verify.mismatches((s.returned() for s in ok), scorer)
    failed = [s for s in loop.submissions if s.error]
    result = {
        "attempted": len(loop.submissions),
        "failed": len(failed) + len(wrong),
        "wrong": wrong,
        "errors": extra["detail"]["errors"],
        "end_to_end": end_to_end,
        "detail": dict(extra["detail"], setup_samples_s=samples),
    }
    if not trace:
        return result
    tracer = tracing.Tracer()
    fleet, _ = _daemon_setup(workload, seed, None, TRACE_METRICS_INTERVAL)
    try:
        traced = open_loop(fleet.address, specs, workload.rate, seconds,
                           drain, tracer=tracer)
    finally:
        fleet.stop()
    traced_e2e, traced_extra, traced_ok = _loop_metrics(workload, traced)
    result["wrong"] += verify.mismatches(
        (s.returned() for s in traced_ok), scorer)
    result["attempted"] += len(traced.submissions)
    result["failed"] = (
        len(failed) + sum(1 for s in traced.submissions if s.error)
        + len(result["wrong"]))
    layer = traced_extra["layer"]
    layer.update(tracing.layer_metrics(tracer.spans))
    layer["trace.overhead_share"] = (
        end_to_end["evals_per_s"] / traced_e2e["evals_per_s"] - 1.0)
    result["per_layer"] = layer
    result["detail"]["traced_evals_per_s"] = traced_e2e["evals_per_s"]
    result["detail"]["untraced_evals_per_s"] = end_to_end["evals_per_s"]
    result["tracer"] = tracer
    return result


def _run_all(args) -> int:
    """Every workload in turn, each in its own process.  Their lines are
    passed through; the last line merges their results, metric names
    prefixed by the workload."""
    from perfbench.workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=REPO, stdout=subprocess.PIPE, text=True,
        )
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = max(code, done.returncode)
        if done.returncode not in (0, 1):
            continue  # no result to merge; its traceback went to stderr
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update(
            (f"{name}.{metric}", entry)
            for metric, entry in result["metrics"].items())
    if code in (0, 1):
        print(json.dumps(merged))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for every one")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_program()
    sys.path[:0] = [str(REPO / "src"), str(REPO)]
    # a SIGTERM unwinds like Ctrl-C: every finally block reaps its fleet
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    from perfbench import host, metrics
    from perfbench.workloads import WORKLOADS

    if args.workload == "all" and not args.setup_only:
        return _run_all(args)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    if workload.kind == "daemon":
        if args.setup_only:
            parser.error("the daemon workload has no set-up probe")
        result = run_daemon(workload, args.seed, args.seconds,
                            bool(args.trace))
    else:
        result = run_searches(workload, args.seed, args.seconds,
                              bool(args.trace), args.setup_only)
        if args.setup_only:
            print(json.dumps(result))
            return 0
    detail = dict(result["detail"], workload=workload.name, seed=args.seed,
                  trace=args.trace, host=host.fingerprint(),
                  attempted=result["attempted"], failed=result["failed"],
                  error_rate=result["failed"] / result["attempted"],
                  wrong=result["wrong"][:5], errors=result["errors"])
    if args.trace:
        table, values = metrics.PER_LAYER, result["per_layer"]
        detail["per_layer"] = values
    else:
        table, values = metrics.END_TO_END, result["end_to_end"]
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(
        json.dumps(dict(detail, metrics=values), indent=2, default=str))
    if "tracer" in result:
        result["tracer"].write(OUT / f"{stem}-spans.jsonl")
    for name, entry in metrics.render(values, table).items():
        print(f"{workload.name:>13} {name:<32} {entry['value']:>14.6g} "
              f"{entry['unit']}")
    print("perfbench detail: " + json.dumps(detail, default=str))
    print(json.dumps({
        "correct": not result["wrong"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics.render(values, table),
    }))
    return 1 if result["wrong"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
