"""Backend selection for parallel population evaluation.

:class:`ExecutorConfig` picks the :class:`~repro.parallel.pool.WorkerPool`
backend a search scores its candidates on:

* ``serial`` — one replica in the calling thread.  Zero overhead.
* ``thread`` — N replicas behind a
  :class:`~concurrent.futures.ThreadPoolExecutor`.  numpy releases the
  GIL inside BLAS kernels, so medium-size models see real concurrency
  without any pickling.
* ``process`` — a :class:`multiprocessing.pool.Pool` whose workers
  each build a replica from the job's wire payload (or its pickled
  :class:`~repro.parallel.EvaluatorSpec`).  True parallelism;
  candidates and scalar results are the only per-task traffic.
* ``remote`` — TCP workers (:mod:`repro.serve.remote`) addressed by
  ``ExecutorConfig(backend="remote", addresses=["host:port", ...])``.
  Jobs cross the socket as plain-JSON wire payloads
  (:mod:`repro.spec.wire`), so the workers may live on other hosts;
  start them with ``scripts/run_worker.py``.

Backend names are the ``shared_pool`` registry's
(:mod:`repro.spec.registry`), so a registered extension backend is
accepted everywhere an ``ExecutorConfig`` is.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..spec import registry as spec_registry

__all__ = [
    "BACKENDS",
    "ExecutorConfig",
    "parse_address",
    "parse_address_list",
]

#: the built-in backends; the ``shared_pool`` registry
#: (``repro.spec.registry``) is the source of truth for validation and
#: dispatch, so registered extension backends are accepted everywhere
#: an ``ExecutorConfig`` is
BACKENDS = ("serial", "thread", "process", "remote")


def parse_address(address: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)``; raises ``ValueError`` with
    the offending string on anything else."""
    host, sep, port = str(address).rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"worker address {address!r} must look like 'host:port'"
        )
    try:
        port_num = int(port)
    except ValueError:
        raise ValueError(
            f"worker address {address!r} has a non-integer port"
        ) from None
    if not 0 < port_num < 65536:
        raise ValueError(f"worker address {address!r} port out of range")
    return host, port_num


def parse_address_list(text: str) -> tuple[str, ...]:
    """Comma-separated ``host:port`` list → validated address tuple
    (the shape every CLI ``--addresses`` flag takes)."""
    addresses = tuple(a.strip() for a in text.split(",") if a.strip())
    if not addresses:
        raise ValueError(f"no worker addresses in {text!r}")
    for address in addresses:
        parse_address(address)
    return addresses


@dataclass(frozen=True)
class ExecutorConfig:
    """Backend selection for population evaluation.

    ``workers=None`` uses every available CPU (min 1).  ``start_method``
    overrides the multiprocessing start method for the process backend
    (``None`` = platform default; "spawn" exercises the fully-pickled
    path that a distributed deployment would use).

    The ``remote`` backend instead takes ``addresses`` — ``host:port``
    strings of running ``scripts/run_worker.py`` workers — plus an
    optional shared-secret ``token`` the workers were started with;
    ``workers`` is implied by the fleet size.  Two further remote-only
    knobs shape failure handling: ``retry`` (a
    :class:`repro.serve.resilience.RetryPolicy` or its dict form —
    requeue budgets, deterministic backoff, deadlines, heartbeat
    overrides) and ``on_fleet_death`` (``"fail"`` keeps the fail-fast
    default; ``"local"`` degrades gracefully by evaluating remaining
    chunks on an in-process fallback evaluator, bitwise-identically).

    The same config drives single searches
    (:func:`repro.quant.lpq_quantize`'s ``executor`` knob) and the
    multi-search pools of :class:`repro.serve.SearchScheduler`;
    whatever the backend and worker count, search trajectories are
    bitwise-identical — the knob only changes wall-clock.

    >>> from repro.parallel import ExecutorConfig
    >>> ExecutorConfig().backend  # serial: in-process, zero overhead
    'serial'
    >>> ExecutorConfig("thread", workers=2).resolved_workers()
    2
    >>> ExecutorConfig().resolved_workers() >= 1  # None = all CPUs
    True
    >>> remote = ExecutorConfig("remote",
    ...                         addresses=["127.0.0.1:7301", "127.0.0.1:7302"])
    >>> remote.addresses, remote.resolved_workers()
    (('127.0.0.1:7301', '127.0.0.1:7302'), 2)
    >>> ExecutorConfig("remote")
    Traceback (most recent call last):
        ...
    ValueError: remote backend requires addresses=['host:port', ...] of running workers (scripts/run_worker.py)
    >>> ExecutorConfig("gpu")
    Traceback (most recent call last):
        ...
    ValueError: unknown backend 'gpu'; choose from ('serial', 'thread', 'process', 'remote')
    >>> cfg = ExecutorConfig("remote", addresses=["127.0.0.1:7301"],
    ...                      retry={"max_attempts": 2}, on_fleet_death="local")
    >>> cfg.retry.max_attempts, cfg.on_fleet_death
    (2, 'local')
    >>> ExecutorConfig.from_dict(cfg.to_dict()) == cfg  # spec-JSON safe
    True
    """

    backend: str = "serial"
    workers: int | None = None
    start_method: str | None = None
    addresses: tuple[str, ...] | None = None
    token: str | None = None
    retry: object | None = None
    on_fleet_death: str = "fail"

    def __post_init__(self) -> None:
        backends = spec_registry.registry("shared_pool")
        if self.backend not in backends:
            raise ValueError(
                f"unknown backend {self.backend!r}; choose from "
                f"{backends.names()}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be positive")
        if self.addresses is not None:
            # normalize to a tuple so configs built with a list still
            # hash/compare/serialize like their from_dict twins
            object.__setattr__(self, "addresses", tuple(self.addresses))
            for address in self.addresses:
                parse_address(address)
        if self.retry is not None:
            # deferred import: repro.serve builds on this module
            from ..serve.resilience import RetryPolicy

            if isinstance(self.retry, dict):
                # dict form (spec JSON) normalizes to the policy object
                object.__setattr__(
                    self, "retry", RetryPolicy.from_dict(self.retry)
                )
            elif not isinstance(self.retry, RetryPolicy):
                raise ValueError(
                    f"retry must be a RetryPolicy or its dict form, got "
                    f"{type(self.retry).__name__}"
                )
        if self.on_fleet_death not in ("fail", "local"):
            raise ValueError(
                f"on_fleet_death must be 'fail' or 'local', got "
                f"{self.on_fleet_death!r}"
            )
        if self.backend == "remote":
            if not self.addresses:
                raise ValueError(
                    "remote backend requires addresses=['host:port', ...] "
                    "of running workers (scripts/run_worker.py)"
                )
        elif self.addresses is not None or self.token is not None:
            raise ValueError(
                f"addresses/token only apply to the remote backend, not "
                f"{self.backend!r}"
            )
        elif self.retry is not None or self.on_fleet_death != "fail":
            raise ValueError(
                f"retry/on_fleet_death only apply to the remote backend, "
                f"not {self.backend!r}"
            )

    def resolved_workers(self) -> int:
        if self.backend == "remote":
            return len(self.addresses)
        if self.workers is not None:
            return self.workers
        return max(os.cpu_count() or 1, 1)

    def to_dict(self) -> dict:
        """Plain-JSON dict form (used by :class:`repro.spec.SearchSpec`)."""
        from ..spec.serde import config_to_dict

        out = config_to_dict(self)
        if self.retry is not None:
            # nested policy dataclass → its own dict form (the one
            # nested config the flat serde helpers don't descend into)
            out["retry"] = self.retry.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutorConfig":
        """Inverse of :meth:`to_dict`; unknown keys raise ``ValueError``."""
        from ..spec.serde import config_from_dict

        return config_from_dict(cls, data)
