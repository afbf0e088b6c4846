"""The benchmark's workloads and the seeded search requests they submit.

Every workload is a list of :class:`repro.spec.SearchSpec` values
generated from the ``--seed`` argument over the registered
``bench:resnet`` / ``bench:vit`` / ``bench:swin`` models, so the
serial, process and daemon workloads all submit the same kind of
request through public entry points only.  The program under test
receives nothing but the generated specs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.parallel import ExecutorConfig
from repro.quant import LPQConfig
from repro.spec import CalibSpec, SearchSpec

#: GA block size per model: CNN blocks of four conv layers; one encoder
#: block's worth of layers on the transformers
BLOCK_SIZE = {"bench:resnet": 4, "bench:vit": 6, "bench:swin": 7}

#: calibration images per search
CALIB_BATCH = 8

#: how many specs a workload list holds; more than any run consumes
LIST_LENGTH = 400

#: worker count of every parallel workload (the recording host has 2 CPUs)
WORKERS = 2


@dataclass(frozen=True)
class Workload:
    """One named workload: what it runs and the limit its latency is
    judged against."""

    name: str
    kind: str  # "search" (in-process back-to-back) | "daemon" (open loop)
    models: tuple[str, ...]
    executor: ExecutorConfig | None
    #: search latency limit of ``within_limit_share``, seconds
    limit_s: float
    #: open-loop submission rate, jobs per second (daemon only)
    rate: float = 0.0
    #: every n-th daemon submission repeats an earlier spec (0: never)
    repeat_every: int = 0
    #: the workload whose spec list this one reuses (same seed → same list)
    specs_from: str | None = None
    #: GA block size (None: :data:`BLOCK_SIZE` of the model)
    block_size: int | None = None
    #: Step-3 diversity children per GA step
    diversity_parents: int = 3


# Latency limits of ``within_limit_share``: 1.5 x the largest median
# ``search_tail_s`` of a ten-seed set seen on the recording host across
# its speed regimes (0.56, 0.64, 0.96 and 0.64 s in workload order),
# rounded up to 0.05 s, so the share falls once the tail grows by half.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("cnn-serial", "search", ("bench:resnet",), None,
                 limit_s=0.85),
        Workload("vit-serial", "search", ("bench:vit",), None,
                 limit_s=1.0),
        Workload("cnn-process2", "search", ("bench:resnet",),
                 ExecutorConfig("process", workers=WORKERS),
                 limit_s=1.45, specs_from="cnn-serial"),
        # one GA step over the whole model: small jobs, so the serve
        # path (rounds, dispatch, framing, store) carries real weight
        Workload("daemon-fleet", "daemon",
                 ("bench:resnet", "bench:vit", "bench:swin"), None,
                 limit_s=1.0, rate=1.75, repeat_every=5,
                 block_size=32, diversity_parents=2),
    )
}


def search_config(workload: Workload, model: str, seed: int) -> LPQConfig:
    """The small per-search budget of ``workload``: about 19
    evaluations (0.5 s) on the recording host, so one measuring window
    holds 20 to 40 searches, enough for a tail percentile with ten
    samples beyond it.  It is far below the paper-scale defaults of
    :class:`LPQConfig`; GA evaluation still dominates each search — the
    per-search fixed costs (``quant.fixed_cost_share`` of a traced run)
    take about a tenth of its wall time."""
    return LPQConfig(
        population=3,
        passes=1,
        cycles=1,
        block_size=workload.block_size or BLOCK_SIZE[model],
        diversity_parents=workload.diversity_parents,
        hw_widths=(2, 4, 8),
        seed=seed,
    )


def _spec(workload: Workload, model: str, config_seed: int,
          calib_seed: int, name: str) -> SearchSpec:
    return SearchSpec(
        model=model,
        calib=CalibSpec(batch=CALIB_BATCH, seed=calib_seed),
        config=search_config(workload, model, config_seed),
        executor=workload.executor,
        name=name,
    )


def _stream(workload: Workload, seed: int) -> np.random.Generator:
    base = workload.specs_from or workload.name
    # a stable per-workload stream: the name's bytes, not hash(), which
    # Python salts per process
    return np.random.default_rng([seed, *base.encode()])


def warmup_spec(workload: Workload, seed: int) -> SearchSpec:
    """The untimed set-up search: same budget and models, a config seed
    outside every timed list (timed config seeds are below 2**31)."""
    rng = _stream(workload, seed)
    calib_seed = int(rng.integers(0, 2**16))
    return _spec(workload, workload.models[0], 2**31 + seed % 2**20,
                 calib_seed, "warmup")


def search_specs(workload: Workload, seed: int,
                 length: int = LIST_LENGTH) -> list[SearchSpec]:
    """The seeded request list of ``workload``: the same seed gives the
    same list.  Each spec carries a distinct config seed (the seed's
    only effect on the work), one calibration batch per run, and the
    workload's models in turn.  Every ``repeat_every``-th daemon
    submission repeats a seeded choice among the specs at least four
    slots back, which have usually finished, so the daemon answers it
    from its stored result."""
    rng = _stream(workload, seed)
    calib_seed = int(rng.integers(0, 2**16))
    config_seeds = rng.choice(2**31, size=length, replace=False)
    specs: list[SearchSpec] = []
    fresh = 0
    for i in range(length):
        every = workload.repeat_every
        if every and i % every == every - 1 and i >= 4:
            specs.append(specs[int(rng.integers(0, i - 3))])
            continue
        model = workload.models[fresh % len(workload.models)]
        fresh += 1
        specs.append(_spec(workload, model, int(config_seeds[i]),
                           calib_seed, f"s{i}"))
    return specs
