"""Lifecycle of one ``repro serve`` process: export, launch, probe,
scrape, shut down."""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

from common import ROOT, BenchmarkError, child_env, pid_peak_rss_mb

MODEL = "bench"
#: CPUs this benchmark may use (read before any pinning).
CPUS = sorted(os.sched_getaffinity(0))


def pin_apart(server: "Server") -> None:
    """Server on the first CPU, this process (the load generator) on
    the last: for a closed loop, where both are busy all the time and,
    unpinned, migrate onto each other's CPU."""
    if len(CPUS) >= 2:
        os.sched_setaffinity(server.proc.pid, {CPUS[0]})
        os.sched_setaffinity(0, {CPUS[-1]})


def pin_together(server: "Server") -> None:
    """Server and load generator on one CPU: for an open loop at rates
    far below saturation, where each request is a few wake-ups and a
    wake-up across virtual CPUs costs the virtual machine an exit to
    the host; runs then alternate between a fast and a slow mode."""
    os.sched_setaffinity(server.proc.pid, {CPUS[-1]})
    os.sched_setaffinity(0, {CPUS[-1]})


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def export_model(store: Path) -> None:
    """``repro export-model`` with default flags into ``store``."""
    subprocess.run([sys.executable, "-m", "repro", "export-model", MODEL,
                    "--store", str(store)], env=child_env(), cwd=store.parent,
                   check=True, timeout=120, stdout=subprocess.DEVNULL)


class Server:
    """One server process in its own session (so any worker process it
    starts can be found after it exits).

    ``traced_out`` launches through ``serve_traced.py``, which wraps
    the program's entry points and writes its spans there on exit.
    """

    def __init__(self, store: Path, *, traced_out: Optional[Path] = None):
        self.store = store
        self.log_path = store.parent / f"{store.name}.serve.log"
        prefix = [sys.executable, "-m", "repro"]
        if traced_out is not None:
            prefix = [sys.executable, str(ROOT / "perfbench" /
                                          "serve_traced.py"),
                      str(traced_out)]
        self.host, self.port = "127.0.0.1", free_port()
        self.argv = prefix + ["serve", "--port", str(self.port),
                              "--store", str(store)]
        self.proc: Optional[subprocess.Popen] = None

    def start(self, timeout: float = 60.0) -> "Server":
        """Launch and wait for the first 200 on ``/healthz``."""
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                self.argv, env=child_env(), cwd=self.store.parent,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=log, start_new_session=True)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchmarkError(
                    f"server exited with {self.proc.returncode}: "
                    f"{self.log_path.read_text()[-2000:]}")
            try:
                if self.get("/healthz")[0] == 200:
                    return self
            except OSError:
                pass
            time.sleep(0.005)
        self.stop()
        raise BenchmarkError("server did not become healthy in "
                             f"{timeout:.0f} s")

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def batcher(self) -> Dict[str, float]:
        """The model's cumulative batcher stats from ``/metrics``."""
        status, body = self.get("/metrics")
        if status != 200:
            raise BenchmarkError(f"/metrics answered {status}")
        stats = json.loads(body)["batchers"].get(MODEL)
        return stats or {"batches": 0, "rows": 0, "mean_queue_wait_ms": 0.0,
                         "mean_fill_ratio": 0.0}

    def loop_lag_ms(self) -> float:
        """Last event-loop lag sample from the Prometheus view."""
        status, body = self.get("/metrics?format=prometheus")
        if status != 200:
            raise BenchmarkError(f"/metrics answered {status}")
        for line in body.decode().splitlines():
            if line.startswith("repro_eventloop_lag_seconds "):
                return 1e3 * float(line.split()[1])
        return 0.0

    def peak_rss_mb(self) -> float:
        return pid_peak_rss_mb(self.proc.pid)

    def stop(self, timeout: float = 30.0) -> bool:
        """Interrupt, wait, and report whether the shutdown was clean:
        exit status 0 and no process left in the server's session."""
        proc = self.proc
        if proc is None:
            return True
        self.proc = None
        clean = True
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                clean = False
                proc.kill()
                proc.wait(timeout=timeout)
        clean = clean and proc.returncode == 0
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return clean
        os.killpg(proc.pid, signal.SIGKILL)
        return False


def batcher_delta(before: Dict[str, float],
                  after: Dict[str, float]) -> Dict[str, float]:
    """Batcher figures over the interval between two scrapes."""
    batches = after["batches"] - before["batches"]
    rows = after["rows"] - before["rows"]

    def summed(key: str, stats: Dict[str, float]) -> float:
        return stats[key] * stats["batches"]

    if batches <= 0:
        return {"batches": 0, "mean_batch_rows": 0.0,
                "mean_queue_wait_ms": 0.0, "mean_fill_ratio": 0.0}
    return {
        "batches": batches,
        "mean_batch_rows": rows / batches,
        "mean_queue_wait_ms": (summed("mean_queue_wait_ms", after)
                               - summed("mean_queue_wait_ms", before))
        / batches,
        "mean_fill_ratio": (summed("mean_fill_ratio", after)
                            - summed("mean_fill_ratio", before)) / batches,
    }
