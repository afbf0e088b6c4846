"""Parallel population evaluation for the LPQ genetic search.

The GA's Step-3 diversity children are embarrassingly parallel: each
candidate evaluation is independent given a frozen model and calibration
batch.  This package fans population slices out across worker replicas:

* :class:`EvaluatorSpec` — picklable recipe (model source, calibration
  state, config) that every worker builds its private evaluator from;
* :class:`PopulationEvaluator` — the batched evaluator the GA engine
  talks to: memo-dedupes candidates, fans the rest out on a one-job
  worker pool, returns results in submission order;
* :class:`ExecutorConfig` — backend selection: ``serial`` / ``thread``
  / ``process`` / ``remote``;
* :class:`WorkerPool` and :func:`make_shared_pool` — the one worker
  abstraction behind every backend (:mod:`repro.parallel.pool`):
  tagged chunks in, :class:`ChunkResult` messages out, one replica per
  job per worker, perf-snapshot deltas merged by the caller (worker
  cache hit-rates stay truthful).  A single search runs a one-job
  pool; :class:`repro.serve.SearchScheduler` runs many jobs on one.
  The remote backend fans out to TCP workers
  (:mod:`repro.serve.remote`) addressed by ``host:port``.

The hard guarantee mirrors the incremental engine's: every backend
produces bitwise-identical fitness values and search trajectories.

::

    from repro.parallel import EvaluatorSpec, ExecutorConfig, PopulationEvaluator
    spec = EvaluatorSpec(images=calib, model=model, stats=stats)
    with PopulationEvaluator(spec, ExecutorConfig("process", 4)) as ev:
        engine = LPQEngine(ev, stats.weight_log_centers, config)
        solution, fitness = engine.run()
"""

from .evaluator import EvaluatorReplica, EvaluatorSpec, PopulationEvaluator
from .executor import (
    BACKENDS,
    ExecutorConfig,
    parse_address,
    parse_address_list,
)
from .pool import ChunkResult, WorkerPool, make_shared_pool

__all__ = [
    "BACKENDS",
    "ChunkResult",
    "EvaluatorReplica",
    "EvaluatorSpec",
    "ExecutorConfig",
    "PopulationEvaluator",
    "WorkerPool",
    "make_shared_pool",
    "parse_address",
    "parse_address_list",
]
