"""The benchmark's own tests: a tiny-budget smoke of every workload in
both modes, the seeded spec lists, the correctness check, and the
``BENCHMARK.json`` contract.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "src"), str(REPO)]

from perfbench import metrics, stats, verify  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    search_specs,
    warmup_spec,
)
from repro.quant import lpq_quantize  # noqa: E402

BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_printed_with_unit(workload, trace):
    done = _run("--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    table = BENCHMARK["end_to_end" if trace == "0" else "per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in table}
    for entry in table:
        printed = result["metrics"][entry["name"]]
        assert printed["unit"] == entry["unit"]
        assert isinstance(printed["value"], float)
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in table)
    detail = next(line for line in done.stdout.splitlines()
                  if line.startswith("perfbench detail: "))
    host = json.loads(detail.split(": ", 1)[1])["host"]
    assert {"nproc", "blas", "blas_threads", "numpy", "python"} <= set(host)


# Runs argv as a child subreaper: processes the run leaves behind are
# re-parented here instead of to init, so they can be counted (and
# reaped).  Prints how many there were.
_SUBREAPER = """
import ctypes, os, subprocess, sys
ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True)
orphans = 0
while True:
    try:
        os.waitpid(-1, 0)
    except ChildProcessError:
        break
    orphans += 1
print(orphans)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="child subreapers are a Linux feature")
@pytest.mark.parametrize("workload", ["cnn-process2", "daemon-fleet"])
def test_no_process_outlives_a_run(workload):
    done = subprocess.run(
        [sys.executable, "-c", _SUBREAPER, sys.executable,
         "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", "0"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"


def test_benchmark_json_matches_metric_table():
    assert list(BENCHMARK) == ["command", "paths", "run_seconds",
                               "workloads", "end_to_end", "per_layer"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for key, table in (("end_to_end", metrics.END_TO_END),
                       ("per_layer", metrics.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"])
                for m in BENCHMARK[key]} == table
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_specs(workload):
    w = WORKLOADS[workload]
    first = [s.to_dict() for s in search_specs(w, 7, length=40)]
    assert first == [s.to_dict() for s in search_specs(w, 7, length=40)]
    assert first != [s.to_dict() for s in search_specs(w, 8, length=40)]
    assert warmup_spec(w, 7).digest() not in {
        s.digest() for s in search_specs(w, 7, length=40)}


def test_process_workload_reuses_the_serial_specs():
    serial = search_specs(WORKLOADS["cnn-serial"], 3, length=20)
    process = search_specs(WORKLOADS["cnn-process2"], 3, length=20)
    assert [s.digest() for s in serial] == [s.digest() for s in process]
    assert {s.executor.backend for s in process} == {"process"}


def test_daemon_list_repeats_earlier_specs():
    specs = search_specs(WORKLOADS["daemon-fleet"], 1)
    digests = [s.digest() for s in specs]
    for i, spec in enumerate(specs):
        if i % 5 == 4:
            assert digests.index(digests[i]) <= i - 4
        else:
            assert digests.index(digests[i]) == i
    assert {s.model for s in specs} == {"bench:resnet", "bench:vit",
                                        "bench:swin"}


def test_correctness_check_flags_a_corrupted_fitness():
    spec = search_specs(WORKLOADS["cnn-serial"], 2, length=1)[0]
    result = lpq_quantize(spec=spec)
    honest = verify.Returned(spec, result.solution, result.fitness, "ok")
    corrupt = dataclasses.replace(
        honest, fitness=float(np.nextafter(result.fitness, np.inf)),
        label="corrupt")
    assert verify.mismatches([honest, corrupt]) == [
        f"corrupt: reported {corrupt.fitness!r}, reference "
        f"{result.fitness!r}"]


def test_record_solutions_round_trip():
    spec = search_specs(WORKLOADS["cnn-serial"], 2, length=1)[0]
    solution = lpq_quantize(spec=spec).solution
    layers = [[p.n, p.es, p.rs, p.sf] for p in solution.layer_params]
    assert verify.solution_from_record(json.loads(json.dumps(layers))) \
        == solution


def test_tail_percentile_keeps_ten_samples_beyond():
    assert stats.tail_percentile(10) == 50
    assert stats.tail_percentile(30) == 66
    assert stats.tail_percentile(100) == 90
    values = list(range(1, 31))
    pct, value = stats.tail(values)
    assert sum(1 for v in values if v > value) == 10
    assert stats.median(values) <= value


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "cnn-serial", "--seed", "1", "--seconds",
                "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
