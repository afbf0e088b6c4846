"""Worker pools: the one evaluation backend of every LPQ search.

Every search scores its candidates on a :class:`WorkerPool`.  A single
search (:class:`~repro.parallel.PopulationEvaluator`, behind
:func:`repro.quant.lpq_quantize`'s ``executor`` knob) runs a one-job
pool; a :class:`repro.serve.SearchScheduler` keeps *many* searches in
flight on one pool.  Pools therefore multiplex: every task is tagged
with a job id, and each worker lazily builds (and keeps) one replica
*per job* it has seen — the same worker scores candidates for a ResNet
search and a ViT search back to back, each against that job's own
model copy, caches, and private perf registry.

**The WorkerPool protocol.**  Every pool implements the same small,
transport-agnostic API (:class:`WorkerPool`): ``submit(job, seq, chunk,
solutions)`` hands one tagged chunk to the pool, results arrive on the
caller-supplied queue as :class:`ChunkResult` messages, and
``start``/``close``/``workers``/``healthy`` manage the pool's
lifecycle.  Callers code against this protocol only, so a backend
living across a socket is interchangeable with one living in a thread.
Backends register in the ``shared_pool`` component registry
(:mod:`repro.spec.registry`), the family
:class:`~repro.parallel.ExecutorConfig` validates against:

* ``serial`` — :class:`SharedSerialPool`: one in-process replica per
  job; submit evaluates synchronously.  The zero-overhead baseline.
* ``thread`` — :class:`SharedThreadPool`: N worker slots handed out
  through a queue; each slot holds a ``job → replica`` map built on
  first use (``copy_model=True``: slots mutate their models
  independently).
* ``process`` — :class:`SharedProcessPool`: a
  :class:`multiprocessing.pool.Pool` whose workers receive the full
  ``job → wire payload`` map at init and build replicas lazily per job
  on first task.  The payloads are plain JSON dicts
  (:func:`repro.spec.wire.encode_job`); a job the wire codec cannot
  name (an untagged model whose class needs constructor arguments)
  falls back to its pickled :class:`~repro.parallel.EvaluatorSpec`.
  Only ``(job, candidates)`` and ``(fitness, perf-delta)`` cross per
  task.
* ``remote`` — :class:`repro.serve.remote.SharedRemotePool`: the same
  wire payloads framed over TCP sockets to standalone workers
  (``scripts/run_worker.py``), with token handshake, heartbeat
  liveness, and dead-worker requeue.  Its factory imports the socket
  stack only when a remote pool is actually built.

All pools are *asynchronous at the submit boundary*: results arrive on
a caller-supplied queue as :class:`ChunkResult` messages tagged with
``(job, seq, chunk)``, so the caller reassembles each batch in
submission order no matter which worker finished first — completion
order never reaches the search trajectory.  A task that raises reports
an ``error`` string instead of poisoning the pool: the worker stays
alive and keeps serving other jobs' tasks.
"""

from __future__ import annotations

import abc
import multiprocessing
import queue
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from ..perf import PerfRegistry, diff_snapshots
from ..spec import registry as spec_registry
from .evaluator import EvaluatorSpec
from .executor import ExecutorConfig

__all__ = [
    "ChunkResult",
    "WorkerPool",
    "SharedSerialPool",
    "SharedThreadPool",
    "SharedProcessPool",
    "encode_pool_wires",
    "make_shared_pool",
]


@dataclass
class ChunkResult:
    """One evaluated chunk, delivered on the caller's result queue.

    ``fits`` holds the fitness values in the chunk's submission order
    (``None`` on failure, with ``error`` carrying the worker traceback).
    ``perf_delta`` is the worker replica's perf-registry delta for
    exactly this chunk (see :func:`repro.perf.diff_snapshots`) and
    ``elapsed`` its wall-clock seconds — the scheduler's adaptive
    chunking feeds on the latter.
    """

    job: str
    seq: int
    chunk: int
    fits: list[float] | None
    perf_delta: dict | None
    elapsed: float
    error: str | None = None


class WorkerPool(abc.ABC):
    """The transport-agnostic multi-job executor protocol.

    A pool is constructed around its job table and a caller-supplied
    result queue, brought up with :meth:`start`, fed tagged chunks
    through :meth:`submit`, and torn down with :meth:`close`.  Exactly
    one :class:`ChunkResult` must eventually reach the result queue per
    submitted chunk — on success, worker failure, or transport failure
    alike — which is the property that lets the scheduler count
    outstanding chunks instead of tracking workers.

    ``workers`` is the pool's current parallelism (the scheduler's
    chunker keeps at least that many chunks in flight); ``healthy()``
    reports whether the pool can still make progress (an in-process
    pool always can; a remote pool with every worker dead cannot).
    """

    #: current worker parallelism (dynamic for remote pools)
    workers: int = 1

    def start(self) -> "WorkerPool":
        """Bring the pool up (connect transports, spawn workers).

        In-process pools are live after construction, so the default is
        a no-op; :func:`make_shared_pool` always calls it, and callers
        constructing pools directly should too.
        """
        return self

    @abc.abstractmethod
    def submit(self, job: str, seq: int, chunk: int, solutions) -> None:
        """Hand one tagged candidate chunk to the pool (non-blocking for
        asynchronous backends)."""

    @abc.abstractmethod
    def close(self) -> None:
        """Tear the pool down; idempotent."""

    def healthy(self) -> bool:
        """Whether the pool can still evaluate submitted chunks."""
        return True

    def membership(self) -> list[dict]:
        """Per-worker liveness/queue facts for fleet status views.

        In-process pools have no per-worker identity worth reporting, so
        the default is empty; the remote pool overrides this with one
        entry per dialed address (alive, accepting, pending chunks,
        heartbeat latency).  Advisory only — never used for scheduling.
        """
        return []

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()


def _evaluate_chunk(replicas: dict, job: str, spec_of, solutions,
                    copy_model: bool = False) -> tuple:
    """Score one chunk on ``job``'s replica — the one evaluation step
    every pool and worker runs.

    ``replicas`` maps job names to replica entries; a job's entry is
    built on first use from ``spec_of()`` (its
    :class:`~repro.parallel.EvaluatorSpec`) with its own perf registry.
    Returns ``(fits, perf_delta, elapsed, error)``, the tail of a
    :class:`ChunkResult`: any failure — building the replica or scoring
    — becomes ``error``, the formatted traceback, so the caller
    survives and keeps serving other jobs.
    """
    start = time.perf_counter()
    try:
        entry = replicas.get(job)
        if entry is None:
            registry = PerfRegistry()
            replica = spec_of().build(perf=registry, copy_model=copy_model)
            entry = replicas[job] = (replica, registry, [registry.snapshot()])
        replica, registry, last_snap = entry
        fits = replica.evaluate_many(solutions)
        snap = registry.snapshot()
        delta = diff_snapshots(snap, last_snap[0])
        last_snap[0] = snap
        return fits, delta, time.perf_counter() - start, None
    except Exception:  # lint: disable=broad-except -- worker boundary: any evaluation failure becomes an error result
        return (
            None, None, time.perf_counter() - start, traceback.format_exc()
        )


class SharedSerialPool(WorkerPool):
    """In-process multi-job pool; ``submit`` evaluates synchronously and
    enqueues the result before returning."""

    def __init__(
        self, specs: dict[str, EvaluatorSpec], results: queue.SimpleQueue
    ) -> None:
        self.workers = 1
        self._specs = dict(specs)
        self._results = results
        self._replicas: dict[str, tuple] = {}

    def submit(self, job: str, seq: int, chunk: int, solutions) -> None:
        # copy_model=True: two jobs may legitimately share one model
        # instance; each replica must mutate its own copy
        self._results.put(ChunkResult(job, seq, chunk, *_evaluate_chunk(
            self._replicas, job, lambda: self._specs[job], solutions,
            copy_model=True,
        )))

    def close(self) -> None:
        pass


class SharedThreadPool(WorkerPool):
    """Thread-pool multi-job evaluation over per-slot replica maps.

    Worker slots are handed out through a queue so each ``job →
    replica`` map is used by exactly one task at a time; replicas are
    built lazily the first time a slot sees a job.
    """

    def __init__(
        self,
        specs: dict[str, EvaluatorSpec],
        workers: int,
        results: queue.SimpleQueue,
    ) -> None:
        self.workers = workers
        self._specs = dict(specs)
        self._results = results
        self._slots: queue.SimpleQueue = queue.SimpleQueue()
        for _ in range(workers):
            self._slots.put({})
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-pool"
        )

    def submit(self, job: str, seq: int, chunk: int, solutions) -> None:
        self._pool.submit(self._run, job, seq, chunk, solutions)

    def _run(self, job: str, seq: int, chunk: int, solutions) -> None:
        slot = self._slots.get()
        try:
            outcome = _evaluate_chunk(
                slot, job, lambda: self._specs[job], solutions,
                copy_model=True,
            )
        finally:
            self._slots.put(slot)
        self._results.put(ChunkResult(job, seq, chunk, *outcome))

    def close(self) -> None:
        self._pool.shutdown(wait=True)


# -- process backend ----------------------------------------------------
# Worker state lives in module globals: each worker receives the full
# job → wire-payload map (plain JSON dicts, repro.spec.wire), plus the
# pickled specs of jobs the wire cannot name, once at init and
# reconstructs EvaluatorSpecs + replicas lazily per job.  A payload
# whose replica fails to decode or build fails *its own job's* tasks
# (the error travels back inside the result tuple) — the worker
# survives and keeps serving other jobs.
_SHARED_WIRES: dict[str, dict] | None = None
_SHARED_PICKLED: dict[str, EvaluatorSpec] | None = None
_SHARED_STATE: dict[str, tuple] = {}
_SHARED_BLOBS = None
_SHARED_BLOBS_ERROR: str | None = None


def _init_shared_worker(wires: dict[str, dict],
                        blob_table: dict | None = None,
                        pickled: dict[str, EvaluatorSpec] | None = None,
                        ) -> None:
    global _SHARED_WIRES, _SHARED_PICKLED, _SHARED_STATE
    global _SHARED_BLOBS, _SHARED_BLOBS_ERROR
    # plain assignments first: a raising initializer would respawn
    # workers forever, so payload decoding and replica construction are
    # deferred to the first task per job, and a blob-table attach
    # failure is parked for the task to report
    _SHARED_WIRES = wires
    _SHARED_PICKLED = pickled or {}
    _SHARED_STATE = {}
    _SHARED_BLOBS = None
    _SHARED_BLOBS_ERROR = None
    if blob_table:
        try:
            from ..spec.blob import attach_transport_table

            _SHARED_BLOBS = attach_transport_table(blob_table)
        except Exception:  # lint: disable=broad-except -- init failure is parked and re-raised with the first task
            _SHARED_BLOBS_ERROR = traceback.format_exc()


def _shared_job_spec(job: str) -> EvaluatorSpec:
    """The job's spec as shipped pickled, else decoded from its wire
    payload (a fresh decode: nothing keeps it once the replica is
    built)."""
    if _SHARED_WIRES is None:
        raise RuntimeError("shared pool worker not initialized")
    if _SHARED_BLOBS_ERROR is not None:
        raise RuntimeError(
            "shared pool worker could not attach its blob table:\n"
            f"{_SHARED_BLOBS_ERROR}"
        )
    spec = _SHARED_PICKLED.get(job)
    if spec is None:
        from ..spec.wire import decode_job

        spec = decode_job(_SHARED_WIRES[job], blobs=_SHARED_BLOBS)
    return spec


def _evaluate_shared_chunk(job: str, solutions):
    # the worker owns everything it decodes or unpickles
    return _evaluate_chunk(
        _SHARED_STATE, job, lambda: _shared_job_spec(job), solutions
    )


class SharedProcessPool(WorkerPool):
    """Process-pool multi-job evaluation; results arrive via the pool's
    async callbacks, which enqueue :class:`ChunkResult` messages.

    ``wires`` maps job names to the plain-JSON payloads of
    :func:`repro.spec.wire.encode_job` (``self.wires`` is kept for
    inspection — the protocol tests round-trip it through
    ``json.dumps``/``loads``).  ``pickled`` maps the names of jobs the
    wire cannot name to their :class:`~repro.parallel.EvaluatorSpec`,
    which then reaches the workers through the pool's own pickling.

    ``blobs`` (the :class:`~repro.spec.blob.BlobStore` the wires were
    encoded against) switches on zero-copy transport: the store is
    published as a shared-memory transport table that every worker
    attaches at init, so content-addressed ``{"blob": ...}`` refs in
    the wires resolve against the exporter's physical pages instead of
    per-worker base64 copies.  ``transport.bytes_sent`` /
    ``transport.bytes_saved`` record the shipped and displaced volume.
    """

    def __init__(
        self,
        wires: dict[str, dict],
        workers: int,
        results: queue.SimpleQueue,
        start_method: str | None = None,
        blobs=None,
        pickled: dict[str, EvaluatorSpec] | None = None,
    ) -> None:
        self.workers = workers
        self.wires = dict(wires)
        self._results = results
        blob_table = None
        if blobs is not None:
            from ..perf import get_perf
            from ..spec.blob import account_transport, blob_transport_table

            blob_table = blob_transport_table(blobs)
            account_transport(get_perf(), self.wires, blob_table, workers)
        ctx = (
            multiprocessing.get_context(start_method)
            if start_method
            else multiprocessing.get_context()
        )
        self._pool = ctx.Pool(
            processes=workers,
            initializer=_init_shared_worker,
            initargs=(self.wires, blob_table, pickled),
        )

    def submit(self, job: str, seq: int, chunk: int, solutions) -> None:
        def on_done(payload, job=job, seq=seq, chunk=chunk):
            fits, delta, elapsed, error = payload
            self._results.put(
                ChunkResult(job, seq, chunk, fits, delta, elapsed, error)
            )

        def on_error(exc, job=job, seq=seq, chunk=chunk):
            # belt and braces: task exceptions are already caught inside
            # the worker; this catches pickling failures and the like
            self._results.put(
                ChunkResult(job, seq, chunk, None, None, 0.0, error=repr(exc))
            )

        self._pool.apply_async(
            _evaluate_shared_chunk,
            (job, solutions),
            callback=on_done,
            error_callback=on_error,
        )

    def close(self) -> None:
        self._pool.close()
        self._pool.join()


def encode_pool_wires(
    specs: dict[str, EvaluatorSpec],
    search_specs: dict | None = None,
    blobs=None,
) -> dict[str, dict]:
    """Encode every job for the wire (:func:`repro.spec.wire.encode_job`).

    ``search_specs`` optionally maps job names to the declarative
    :class:`~repro.spec.SearchSpec` they were submitted as, which
    selects the compact registry-reference payload.  ``blobs`` (a
    :class:`~repro.spec.blob.BlobStore`) makes array payloads
    content-addressed refs into that store.  A job that cannot be named
    on the wire raises ``ValueError`` identifying it.
    """
    from ..spec.wire import encode_job

    search_specs = search_specs or {}
    wires = {}
    for name, spec in specs.items():
        try:
            wires[name] = encode_job(spec, search_specs.get(name),
                                     blobs=blobs)
        except ValueError as exc:
            raise ValueError(
                f"job {name!r} cannot cross the process-pool wire: {exc}"
            ) from exc
    return wires


def make_shared_pool(
    specs: dict[str, EvaluatorSpec],
    config: ExecutorConfig,
    results: queue.SimpleQueue,
    search_specs: dict | None = None,
) -> WorkerPool:
    """Build and start the pool selected by ``config``.

    The serial and thread pools share this process's memory and use the
    live specs directly; the process and remote pools serialize — their
    jobs travel as the plain-JSON wire payloads of
    :func:`encode_pool_wires` (the process pool pickles the specs the
    wire cannot name).  Backends dispatch through the ``shared_pool``
    registry (:mod:`repro.spec.registry`), so a registered extension
    backend — a factory ``(specs, config, results, search_specs) ->
    WorkerPool`` — slots in next to the built-in four, and
    :class:`~repro.parallel.ExecutorConfig` accepts its name.
    """
    factory = spec_registry.resolve("shared_pool", config.backend)
    return factory(specs, config, results, search_specs).start()


# -- the built-in backends, in canonical order ---------------------------
spec_registry.register(
    "shared_pool",
    "serial",
    lambda specs, config, results, search_specs: SharedSerialPool(
        specs, results
    ),
)
spec_registry.register(
    "shared_pool",
    "thread",
    lambda specs, config, results, search_specs: SharedThreadPool(
        specs, config.resolved_workers(), results
    ),
)


def _make_shared_process_pool(specs, config, results, search_specs):
    from ..spec.blob import get_blob_store
    from ..spec.wire import encode_job

    # encode against the process-global store: re-submitted jobs dedupe
    # their tensors (blob hits) and reuse already-exported shm segments
    blobs = get_blob_store()
    search_specs = search_specs or {}
    wires: dict[str, dict] = {}
    pickled: dict[str, EvaluatorSpec] = {}
    for name, spec in specs.items():
        try:
            wires[name] = encode_job(spec, search_specs.get(name),
                                     blobs=blobs)
        except ValueError:
            pickled[name] = spec  # not wire-encodable: pickle the spec
    return SharedProcessPool(
        wires,
        config.resolved_workers(),
        results,
        start_method=config.start_method,
        blobs=blobs if wires else None,
        pickled=pickled,
    )


spec_registry.register("shared_pool", "process", _make_shared_process_pool)


def _make_shared_remote_pool(specs, config, results, search_specs):
    # deferred imports: the socket transport builds on repro.serve,
    # which builds on this package, and costs its import only when a
    # remote pool is actually built
    from ..serve.remote import SharedRemotePool  # lint: disable=registry-bypass -- this IS the registered 'remote' pool factory
    from ..spec.blob import get_blob_store

    blobs = get_blob_store()
    return SharedRemotePool(
        encode_pool_wires(specs, search_specs, blobs=blobs),
        config.addresses,
        results,
        token=config.token,
        blobs=blobs,
        retry=config.retry,
        on_fleet_death=config.on_fleet_death,
    )


spec_registry.register("shared_pool", "remote", _make_shared_remote_pool)
