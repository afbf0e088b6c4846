"""The daemon workload: an open loop against a live search service.

:class:`Fleet` launches ``scripts/run_server.py --backend remote`` over
two ``scripts/run_worker.py`` processes on a fresh data directory and
reaps all three (and deletes the directory) on every exit path.

:func:`open_loop` submits one job per ``1/rate`` seconds whatever the
service does, so a stall makes later jobs wait — each job is timed from
when it was *due*, not when it was sent, and the generator's lateness
is reported.  Two client connections (one per CPU of the recording
host): a submitter thread, and the main thread, which polls the job
list every :data:`POLL_S` and fetches results.  Only a traced window
starts the daemon with fast telemetry and also follows its stream for
the per-layer counter deltas; an untraced daemon runs at its default
telemetry setting.  Refused, failed and timed-out jobs are failures and
miss the latency limit.
"""

from __future__ import annotations

import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.perf import PerfRegistry
from repro.serve.server import SearchClient, ServerError

from .verify import Returned, solution_from_record

#: how often the main thread reads the daemon's job list
POLL_S = 0.02
#: daemon telemetry period of a traced window (one sample per poll)
TRACE_METRICS_INTERVAL = POLL_S
#: how long a process may take to print its listening line
START_TIMEOUT = 60.0
#: how long a stopped process may take to exit before it is killed
STOP_TIMEOUT = 10.0


class FleetError(RuntimeError):
    """The fleet could not be started."""


class Fleet:
    """A search daemon over a remote worker fleet, as subprocesses.

    :meth:`stop` — which every caller runs in a ``finally`` — interrupts
    every process, kills any that do not exit, and removes the fleet's
    directory.
    """

    def __init__(self, repo: Path, out: Path, workers: int,
                 metrics_interval: float | None = None) -> None:
        self.repo = repo
        self.workers = workers
        #: the daemon's ``--metrics-interval`` (None: its default)
        self.metrics_interval = metrics_interval
        out.mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="fleet-", dir=out))
        self.procs: list[subprocess.Popen] = []
        self.address: str | None = None

    def _spawn(self, name: str, args: list[str]) -> tuple:
        log = self.root / f"{name}.log"
        with log.open("wb") as fh:
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=self.repo, stdout=fh,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            )
        self.procs.append(proc)
        return proc, log

    @staticmethod
    def _listening(proc, log: Path, deadline: float) -> str:
        """The ``host:port`` the process announced on its log."""
        while True:
            for line in log.read_text(errors="replace").splitlines():
                if " listening on " in line:
                    return line.rsplit(" ", 1)[-1].strip()
            if proc.poll() is not None:
                raise FleetError(f"{log.name[:-4]} exited with code "
                                 f"{proc.returncode}:\n{log.read_text()}")
            if time.monotonic() > deadline:
                raise FleetError(f"{log.name[:-4]} did not start in "
                                 f"{START_TIMEOUT:.0f} s")
            time.sleep(0.01)

    def start(self) -> "Fleet":
        deadline = time.monotonic() + START_TIMEOUT
        workers = [
            self._spawn(f"worker{i}",
                        ["scripts/run_worker.py", "--port", "0", "--quiet"])
            for i in range(self.workers)
        ]
        addresses = [self._listening(p, log, deadline) for p, log in workers]
        telemetry = ([] if self.metrics_interval is None else
                     ["--metrics-interval", str(self.metrics_interval)])
        server = self._spawn("server", [
            "scripts/run_server.py", "--port", "0", "--quiet",
            "--data-dir", str(self.root / "data"),
            "--backend", "remote", "--addresses", ",".join(addresses),
            *telemetry,
        ])
        self.address = self._listening(*server, deadline)
        return self

    def stop(self) -> None:
        """Interrupt every process (server first), kill stragglers, wait
        for all of them, and delete the fleet directory."""
        for proc in reversed(self.procs):
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
        for proc in reversed(self.procs):
            try:
                proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs.clear()
        shutil.rmtree(self.root, ignore_errors=True)


@dataclass
class Submission:
    """One scheduled job and everything observed about it."""

    index: int
    spec: object
    due: float
    sent: float | None = None
    submit_rpc_s: float | None = None
    job: str | None = None
    answered_from_store: bool = False
    running_at: float | None = None
    done_at: float | None = None
    result_rpc_s: float | None = None
    record: dict | None = None
    error: str | None = None

    @property
    def finished(self) -> bool:
        return self.done_at is not None or self.error is not None

    @property
    def latency_s(self) -> float | None:
        return None if self.done_at is None else self.done_at - self.due

    def returned(self) -> Returned:
        return Returned(self.spec, solution_from_record(
            self.record["solution"]), self.record["fitness"],
            f"job {self.job} (submission {self.index})")


@dataclass
class Loop:
    """Outcome of one open-loop window."""

    submissions: list[Submission]
    start: float
    end: float
    perf: dict = field(default_factory=dict)

    @property
    def executed(self) -> list[Submission]:
        """Completed submissions the fleet computed (not store hits)."""
        return [s for s in self.submissions
                if s.record is not None and not s.answered_from_store]


def _fetch(client: SearchClient, sub: Submission, tracer) -> None:
    """Read a finished job's result record into ``sub``."""
    start = time.perf_counter()
    if tracer is None:
        sub.record = client.result(sub.job)
    else:
        with tracer.span("serve.result", search=sub.job):
            sub.record = client.result(sub.job)
    sub.done_at = time.perf_counter()
    sub.result_rpc_s = sub.done_at - start


def _submitter(address: str, subs: list[Submission], sent: queue.Queue,
               stop: threading.Event, tracer) -> None:
    with SearchClient(address) as client:
        for sub in subs:
            delay = sub.due - time.perf_counter()
            if delay > 0 and stop.wait(delay):
                break
            sub.sent = time.perf_counter()
            try:
                if tracer is None:
                    reply = client.submit(sub.spec)
                else:
                    with tracer.span("serve.submit", search=sub.spec.name):
                        reply = client.submit(sub.spec)
                sub.submit_rpc_s = time.perf_counter() - sub.sent
                sub.job = reply["job"]
                sub.answered_from_store = bool(
                    reply.get("existing") or reply.get("cached"))
                if reply.get("state") == "done":
                    # already answered: read it back on this connection
                    _fetch(client, sub, tracer)
            except (ConnectionError, ServerError) as exc:
                sub.error = f"refused: {exc}"
            sent.put(sub)


def _samples(client: SearchClient, traced: bool):
    """Yield ``(perf delta, job states)`` about every :data:`POLL_S`.
    A traced window paces on the daemon's telemetry stream and keeps its
    counter deltas; an untraced one sleeps between job-list reads."""
    stream = client.metrics_stream() if traced else None
    while True:
        if stream is None:
            time.sleep(POLL_S)
            delta = {}
        else:
            delta = next(stream).get("delta") or {}
        yield delta, {job["job"]: job for job in client.list_jobs()}


def open_loop(address: str, specs, rate: float, seconds: float,
              drain_s: float, tracer=None) -> Loop:
    """Submit ``rate`` jobs per second for ``seconds``, then wait up to
    ``drain_s`` for the stragglers (the rest time out)."""
    count = max(1, round(rate * seconds))
    start = time.perf_counter() + 0.2
    subs = [Submission(i, spec, start + i / rate)
            for i, spec in enumerate(specs[:count])]
    deadline = subs[-1].due + drain_s
    perf = PerfRegistry()
    sent: queue.Queue = queue.Queue()
    stop = threading.Event()
    thread = threading.Thread(target=_submitter, name="perfbench-submit",
                              args=(address, subs, sent, stop, tracer))
    outstanding: list[Submission] = []
    received = 0
    with SearchClient(address) as client:
        samples = _samples(client, tracer is not None)
        thread.start()
        try:
            while True:
                delta, jobs = next(samples)
                perf.merge_snapshot(delta)
                now = time.perf_counter()
                while True:
                    try:
                        sub = sent.get_nowait()
                    except queue.Empty:
                        break
                    received += 1
                    if not sub.finished:
                        outstanding.append(sub)
                for sub in outstanding:
                    seen = jobs.get(sub.job)
                    if seen is None or seen["state"] == "queued":
                        continue
                    if sub.running_at is None:
                        sub.running_at = now
                    if seen["state"] == "done":
                        _fetch(client, sub, tracer)
                    elif seen["state"] in ("failed", "cancelled"):
                        reason = (seen.get("error") or "").strip()
                        sub.error = (f"job {seen['state']}: "
                                     f"{(reason.splitlines() or [''])[-1]}")
                outstanding = [s for s in outstanding if not s.finished]
                if received == len(subs) and not outstanding:
                    break
                if now > deadline:
                    for sub in outstanding:
                        sub.error = "timed out"
                    break
            end = max([s.done_at for s in subs if s.done_at] or [now])
            if tracer is not None:
                # two more samples so the daemon's trailing deltas land
                for _ in range(2):
                    perf.merge_snapshot(next(samples)[0])
        finally:
            stop.set()
            thread.join()
    for sub in subs:
        if sub.sent is None and sub.error is None:
            sub.error = "never sent"
    return Loop(subs, start, end, perf.snapshot())


def warm_up(address: str, spec, timeout: float) -> dict:
    """Run one job to completion (the untimed set-up search)."""
    with SearchClient(address) as client:
        job = client.submit(spec)["job"]
        return client.wait(job, timeout=timeout)
