"""Host fingerprint and process-tree peak memory.

Numbers compare only across runs whose fingerprints match: CPU count,
BLAS library, the BLAS thread count the program actually runs with
(observed, never set), and the numpy and Python versions.
"""

from __future__ import annotations

import ctypes
import os
import platform
import threading
from pathlib import Path

import numpy as np


def _blas_library() -> str | None:
    """Path of the BLAS shared object mapped into this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for line in maps.splitlines():
        path = line.split()[-1]
        name = os.path.basename(path).lower()
        if path.startswith("/") and ("blas" in name or "mkl_rt" in name):
            return path
    return None


def blas_threads(library: str | None) -> int | None:
    """The thread count the loaded BLAS reports for itself."""
    if library is None:
        return None
    try:
        lib = ctypes.CDLL(library)
    except OSError:
        return None
    for symbol in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_",
                   "openblas_get_num_threads", "MKL_Get_Max_Threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            fn.argtypes = []
            return int(fn())
    return None


def fingerprint() -> dict:
    """Facts a result is only comparable under."""
    np.ones((2, 2)) @ np.ones((2, 2))  # make sure BLAS is loaded
    library = _blas_library()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas": blas_name,
        "blas_library": os.path.basename(library) if library else None,
        "blas_threads": blas_threads(library),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def _hwm_kib(pid: int) -> int:
    """Peak resident set of one live process (0 once it is gone)."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def _children(pid: int) -> list[int]:
    out: list[int] = []
    try:
        tasks = list(Path(f"/proc/{pid}/task").iterdir())
    except OSError:
        return out
    for task in tasks:
        try:
            out.extend(int(c) for c in (task / "children").read_text().split())
        except OSError:
            continue
    return out


def tree_peak_kib(root: int | None = None) -> int:
    """Sum of the peak resident sets of ``root`` and its live
    descendants."""
    root = os.getpid() if root is None else root
    total, todo = 0, [root]
    while todo:
        pid = todo.pop()
        total += _hwm_kib(pid)
        todo.extend(_children(pid))
    return total


class TreeMemory:
    """Samples :func:`tree_peak_kib` on a background thread; ``peak_mb``
    is the largest sum seen, including one last sample at stop."""

    def __init__(self, interval: float = 0.2) -> None:
        self.interval = interval
        self.peak_kib = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="perfbench-memory")

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.peak_kib = max(self.peak_kib, tree_peak_kib())

    def __enter__(self) -> "TreeMemory":
        self.peak_kib = tree_peak_kib()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.peak_kib = max(self.peak_kib, tree_peak_kib())

    @property
    def peak_mb(self) -> float:
        return self.peak_kib / 1024.0
