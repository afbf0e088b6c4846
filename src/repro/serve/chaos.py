"""Deterministic fault injection for the remote worker fleet.

The only way to trust the resilience layer (:mod:`repro.serve.remote`
+ :mod:`repro.serve.resilience`) is to make workers actually crash,
hang, disconnect, corrupt frames, and lose caches — on a committed,
reproducible schedule — and assert that search results stay bitwise
identical to the serial backend anyway.  Three pieces:

* :class:`FaultEvent` / :class:`FaultPlan` — a JSON-round-trippable
  schedule of faults, each triggered when the fleet-wide count of
  *started* tasks reaches ``at_task`` (a logical clock, not
  wall-clock, so plans replay across machines of any speed).
* :class:`ChaosController` — the hook :class:`~repro.serve.remote.
  WorkerServer` consults at every task start; it applies the due
  events (kill the server, mute the session, flip a byte in the result
  frame, …) and schedules any requested restarts.
* :class:`ChaosFleet` — a context manager running a local fleet under
  a plan: ``with ChaosFleet(plan, count=2) as addresses: ...`` behaves
  exactly like :func:`~repro.serve.remote.local_worker_fleet`, except
  the workers misbehave on schedule and killed workers come back on
  their original ports so the pool's redial machinery re-admits them.

``COMMITTED_PLANS`` is the soak suite: every plan in it must keep
remote ≡ serial bitwise while producing its expected nonzero
``fault.*`` counters (``tests/serve/test_chaos.py``; the CI
``chaos-smoke`` leg runs it on every push).

>>> plan = FaultPlan(name="demo", events=(
...     FaultEvent(at_task=2, action="kill", restart_after_s=0.2),))
>>> FaultPlan.from_dict(plan.to_dict()) == plan
True
>>> sorted(COMMITTED_PLANS)  # doctest: +NORMALIZE_WHITESPACE
['duplicate_frames', 'fleet_death_local', 'frame_corruption',
 'hang_timeout', 'kill_rejoin', 'poison_chunk']
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass

from .resilience import RetryPolicy

__all__ = [
    "FAULT_ACTIONS",
    "FaultEvent",
    "FaultPlan",
    "ChaosController",
    "ChaosFleet",
    "ChaosScenario",
    "COMMITTED_PLANS",
]

#: the fault taxonomy: what a scheduled event may do.  ``kill`` stops
#: the whole worker process (optionally restarting it), ``disconnect``
#: drops just the session socket, ``hang`` mutes the session (computes,
#: never replies — only liveness timeouts catch it), ``drop_caches``
#: empties the worker's blob/replica caches, ``fleet_kill`` stops every
#: worker at once; the ``*_result`` actions tamper with the result
#: frame of the triggering task (CRC-corrupt it, send it twice, or
#: delay it past a deadline).
FAULT_ACTIONS = (
    "kill",
    "fleet_kill",
    "disconnect",
    "hang",
    "drop_caches",
    "corrupt_result",
    "duplicate_result",
    "delay_result",
)

#: actions that consume the triggering task (its result never leaves
#: the worker; the client's requeue machinery must recover it)
_TASK_ACTIONS = frozenset({"kill", "fleet_kill", "disconnect"})


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: fire ``action`` when the fleet-wide count
    of started tasks reaches ``at_task`` (1-based), on whichever worker
    starts that task."""

    at_task: int
    action: str
    restart_after_s: float = 0.0
    delay_s: float = 0.05

    def __post_init__(self) -> None:
        if self.at_task < 1:
            raise ValueError("at_task is 1-based and must be >= 1")
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; choose from "
                f"{FAULT_ACTIONS}"
            )
        if self.restart_after_s < 0 or self.delay_s < 0:
            raise ValueError("restart_after_s/delay_s must be >= 0")

    def to_dict(self) -> dict:
        from ..spec.serde import config_to_dict

        return config_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        from ..spec.serde import config_from_dict

        return config_from_dict(cls, data)


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded, JSON-round-trippable schedule of
    :class:`FaultEvent`\\ s.  ``seed`` salts nothing at runtime — the
    schedule is fully explicit — but is recorded so generated plans
    stay reproducible and distinguishable in bench records."""

    name: str
    events: tuple = ()
    seed: int = 0

    def __post_init__(self) -> None:
        events = tuple(
            e if isinstance(e, FaultEvent) else FaultEvent.from_dict(e)
            for e in self.events
        )
        object.__setattr__(self, "events", events)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        known = {"name", "seed", "events"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown FaultPlan field(s) {unknown}; known: "
                f"{sorted(known)}"
            )
        return cls(
            name=str(data["name"]),
            seed=int(data.get("seed", 0)),
            events=tuple(
                FaultEvent.from_dict(e) for e in data.get("events", ())
            ),
        )


class ChaosController:
    """The hook a :class:`~repro.serve.remote.WorkerServer` consults on
    every task start (``server.chaos = controller``).

    Keeps one fleet-wide started-task counter; when it crosses an
    event's ``at_task``, the event fires exactly once, on the session
    that started that task.  Restarts are delegated to the owning
    :class:`ChaosFleet` (``restart`` callback).

    Task starts on a server that a ``kill`` event has already claimed
    do not advance the clock: ``stop()`` runs on a helper thread, so a
    dying worker can race a few more queued tasks into their start
    hooks, and whether it manages to is pure machine speed.  Counting
    those ghost starts would let a later ``kill`` event be consumed by
    a death the client only observes once — skipping them keeps the
    logical clock logical and every committed plan replayable.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.task_count = 0
        self.fired: set[int] = set()
        #: set by ChaosFleet: callbacks into the fleet's server list
        self.restart = None
        self.fleet_stop = None
        self._lock = threading.Lock()
        #: servers a kill has claimed (strong refs: identity must not
        #: be recycled onto a restarted replacement)
        self._dying: set = set()

    # -- WorkerServer hook entry points ----------------------------------
    def on_task(self, server) -> tuple:
        """Advance the logical clock; return the events due now."""
        with self._lock:
            if server in self._dying:
                return ()  # ghost start on a killed server: no tick
            self.task_count += 1
            count = self.task_count
            due = tuple(
                event
                for index, event in enumerate(self.plan.events)
                if index not in self.fired and event.at_task == count
            )
            self.fired.update(
                index
                for index, event in enumerate(self.plan.events)
                if event.at_task == count
            )
        return due

    def apply_task_events(self, server, session, events) -> bool:
        """Apply the task-consuming faults; returns True when the
        triggering task must be skipped (its result will never be
        sent — the client's requeue machinery recovers it)."""
        consumed = False
        for event in events:
            if event.action == "kill":
                self._kill(server, event)
                consumed = True
            elif event.action == "fleet_kill":
                if self.fleet_stop is not None:
                    self.fleet_stop()
                else:
                    self._kill(server, event)
                consumed = True
            elif event.action == "disconnect":
                session.close()
                consumed = True
            elif event.action == "hang":
                session.muted = True
            elif event.action == "drop_caches":
                server.drop_caches()
        return consumed

    def apply_result_events(self, session, events, result: dict) -> bool:
        """Apply the frame-tampering faults to the computed result;
        returns True when the send has been handled here."""
        from ..spec.wire import frame_message

        handled = False
        for event in events:
            if event.action == "delay_result":
                time.sleep(event.delay_s)
            elif event.action == "corrupt_result":
                data = bytearray(frame_message(result))
                data[-1] ^= 0xFF  # break the body ⇒ CRC32 mismatch
                with contextlib.suppress(OSError, ValueError):
                    session.send_raw(bytes(data))
                handled = True
            elif event.action == "duplicate_result":
                with contextlib.suppress(OSError, ValueError):
                    session.send(result)
                    session.send(result)
                handled = True
        return handled

    # -- internals -------------------------------------------------------
    def _kill(self, server, event: FaultEvent) -> None:
        # claim the server before the asynchronous stop: any task it
        # still races into a start hook is a ghost (see class docstring)
        with self._lock:
            self._dying.add(server)
        # stop from a helper thread: stop() joins session threads, and
        # the calling evaluator thread must stay free to observe its
        # own shutdown
        threading.Thread(
            target=server.stop, daemon=True, name="chaos-kill"
        ).start()
        if event.restart_after_s > 0 and self.restart is not None:
            timer = threading.Timer(
                event.restart_after_s, self.restart, args=(server,)
            )
            timer.daemon = True
            timer.start()


class ChaosFleet:
    """A local worker fleet misbehaving on a committed schedule.

    Drop-in for :func:`~repro.serve.remote.local_worker_fleet`: enters
    with the fleet's addresses; every server consults the plan's
    controller, and a killed server restarts on its original port after
    ``restart_after_s`` so the pool's redial machinery re-admits it
    mid-search.
    """

    def __init__(self, plan: FaultPlan, count: int = 2,
                 token: str | None = None, verbose: bool = False,
                 metrics_interval: float = 0.0) -> None:
        self.plan = plan
        self.count = count
        self.token = token
        self.verbose = verbose
        #: live-telemetry sampling interval for every fleet member (the
        #: soak tests run with this on to prove telemetry is passive
        #: even while workers die, drain, and rejoin)
        self.metrics_interval = float(metrics_interval)
        self.controller = ChaosController(plan)
        self.servers: list = []
        self._lock = threading.Lock()
        self._exited = False

    def __enter__(self) -> list[str]:
        from .remote import WorkerServer

        self.controller.restart = self._restart
        self.controller.fleet_stop = self._fleet_stop
        for _ in range(self.count):
            server = WorkerServer(token=self.token, verbose=self.verbose,
                                  metrics_interval=self.metrics_interval)
            server.chaos = self.controller
            server.start()
            self.servers.append(server)
        return [server.address for server in self.servers]

    def __exit__(self, *exc) -> None:
        self._exited = True
        with self._lock:
            servers = list(self.servers)
        for server in servers:
            server.stop()

    def _restart(self, dead_server) -> None:
        """Bring a killed worker back on its original host:port — the
        'operator restarted the box' half of the kill→rejoin story."""
        from .remote import WorkerServer

        with self._lock:
            if self._exited or dead_server not in self.servers:
                return
            index = self.servers.index(dead_server)
        replacement = WorkerServer(
            host=dead_server.host, port=dead_server.port,
            token=self.token, verbose=self.verbose,
            metrics_interval=self.metrics_interval,
        )
        replacement.chaos = self.controller
        deadline = time.monotonic() + 10.0
        while True:
            try:
                replacement.start()
                break
            except OSError:
                # the port stays busy until the peer finishes closing
                # the dead connection (FIN_WAIT): retry like a real
                # restart loop would
                if time.monotonic() > deadline:
                    raise
                with self._lock:
                    if self._exited:
                        return
                time.sleep(0.05)
        with self._lock:
            if self._exited:
                replacement.stop()
                return
            self.servers[index] = replacement

    def _fleet_stop(self) -> None:
        with self._lock:
            servers = list(self.servers)
        for server in servers:
            threading.Thread(
                target=server.stop, daemon=True, name="chaos-fleet-kill"
            ).start()


@dataclass(frozen=True)
class ChaosScenario:
    """One committed soak case: the plan, the fleet size, the retry
    policy and degradation mode to run it under, and the ``fault.*``
    counters that must come out nonzero."""

    plan: FaultPlan
    retry: RetryPolicy
    on_fleet_death: str = "fail"
    count: int = 2
    expect: tuple = ()


#: fast-recovery policy for local soak fleets: tight heartbeat, short
#: liveness, near-immediate redial — faults are observed and recovered
#: within tens of milliseconds so the suite stays quick
_FAST = dict(
    backoff_base_s=0.02, backoff_max_s=0.25, jitter=0.1,
    heartbeat_s=0.05, liveness_timeout_s=0.6,
)

#: the committed soak suite: every plan must keep remote ≡ serial
#: bitwise and produce its expected fault counters
COMMITTED_PLANS: dict[str, ChaosScenario] = {
    "kill_rejoin": ChaosScenario(
        plan=FaultPlan(name="kill_rejoin", events=(
            FaultEvent(at_task=2, action="kill", restart_after_s=0.15),
        )),
        retry=RetryPolicy(max_attempts=5, fleet_wait_s=30.0, **_FAST),
        # one worker: recovering its chunks *requires* the restarted
        # worker to rejoin, so every counter below moves or the search
        # cannot complete — no timing luck involved
        count=1,
        expect=("fault.requeues", "fault.retries", "fault.rejoins",
                "fault.parked"),
    ),
    "hang_timeout": ChaosScenario(
        plan=FaultPlan(name="hang_timeout", events=(
            FaultEvent(at_task=2, action="hang"),
        )),
        retry=RetryPolicy(max_attempts=5, fleet_wait_s=30.0, **_FAST),
        expect=("fault.requeues", "fault.retries"),
    ),
    "frame_corruption": ChaosScenario(
        plan=FaultPlan(name="frame_corruption", events=(
            FaultEvent(at_task=2, action="corrupt_result"),
        )),
        retry=RetryPolicy(max_attempts=5, fleet_wait_s=30.0, **_FAST),
        # one worker: the corrupt frame demotes the only connection, so
        # completing requires the client to redial the (still-running)
        # server — checksum reject, requeue, and rejoin all guaranteed
        count=1,
        expect=("fault.checksum_rejects", "fault.requeues",
                "fault.rejoins"),
    ),
    "duplicate_frames": ChaosScenario(
        plan=FaultPlan(name="duplicate_frames", events=(
            FaultEvent(at_task=1, action="duplicate_result"),
            FaultEvent(at_task=3, action="duplicate_result"),
        )),
        retry=RetryPolicy(max_attempts=5, fleet_wait_s=30.0, **_FAST),
        expect=("fault.duplicate_results",),
    ),
    "fleet_death_local": ChaosScenario(
        plan=FaultPlan(name="fleet_death_local", events=(
            FaultEvent(at_task=2, action="fleet_kill"),
        )),
        retry=RetryPolicy(max_attempts=5, **_FAST),
        on_fleet_death="local",
        expect=("fault.fallbacks",),
    ),
    "poison_chunk": ChaosScenario(
        plan=FaultPlan(name="poison_chunk", events=(
            FaultEvent(at_task=1, action="kill", restart_after_s=0.15),
            FaultEvent(at_task=2, action="kill", restart_after_s=0.15),
        )),
        retry=RetryPolicy(max_attempts=1, fleet_wait_s=30.0, **_FAST),
        count=1,
        expect=("fault.requeues", "fault.quarantines", "fault.parked"),
    ),
}
