"""Paths, statistics and process helpers shared by the workloads."""

from __future__ import annotations

import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: Root of the checkout the benchmark measures.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: temp stores, caches, span dumps.
OUT = ROOT / ".perfbench_out"


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no program, wrong program)."""


def import_repro():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchmarkError(f"imported repro from {repro.__file__}, "
                             f"not from {SRC}")
    return repro


def child_env() -> Dict[str, str]:
    """Environment for program subprocesses: this checkout's source."""
    return {**os.environ, "PYTHONPATH": str(SRC)}


def scratch_dir(prefix: str) -> Path:
    OUT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=OUT))


def out_file(name: str) -> Path:
    OUT.mkdir(exist_ok=True)
    return OUT / name


def remove(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the 99th percentile, or of the highest
    percentile below it that still has ten samples beyond it (fewer than
    1000 samples); the smallest sample when there are fewer than 11."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    index = max(min(math.ceil(0.99 * n) - 1, n - 11), 0)
    return ordered[index], 100.0 * (index + 1) / n


def weighted_quantile(values: Sequence[float], q: float) -> float:
    """The smallest value at which the running sum of the sorted values
    reaches ``q`` of their total (a quantile weighted by the values)."""
    ordered = sorted(values)
    target, running = q * sum(ordered), 0.0
    for value in ordered:
        running += value
        if running >= target:
            return value
    return ordered[-1]


def windowed_tail(values: Sequence[float],
                  window: int = 100) -> Tuple[float, float, int]:
    """``(value, percentile, windows)``: the median, over consecutive
    windows of ``window`` samples (in time order; the last one takes
    the remainder), of each window's :func:`tail` (the p90 of 100).
    On a shared virtual machine the host takes a CPU away for ~10 ms
    now and then, so the p99 of a whole run, and even its p97, swing
    by a fifth to a half between runs; the median of short windows'
    tails does not."""
    count = max(len(values) // window, 1)
    tails = [tail(values[k * window:(k + 1) * window if k < count - 1
                         else len(values)]) for k in range(count)]
    return median([t for t, _ in tails]), tails[0][1], count


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM for pid {pid}")


def timed_import(module: str, repeats: int) -> List[float]:
    """Seconds from a fresh interpreter's start until ``module`` is
    imported and the process has exited, ``repeats`` times."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}"],
                       env=child_env(), cwd=ROOT, check=True,
                       timeout=120)
        times.append(time.perf_counter() - t0)
    return times


class Outcome:
    """What one workload run produced: request/config counts, the
    problems found while checking outputs, and named metrics (in print
    order, each with a note on its samples)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: Extra human-readable lines (the traced run's self-time table).
        self.report: List[str] = []
        self.metrics: Dict[str, Tuple[float, str, str]] = {}

    def add(self, name: str, value: float, unit: str,
            note: str = "") -> None:
        self.metrics[name] = (float(value), unit, note)

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(problem)

    @property
    def verified_share(self) -> float:
        return (self.attempted - self.failed) / max(self.attempted, 1)
