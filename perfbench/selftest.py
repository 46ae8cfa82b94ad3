"""Self-tests of the benchmark itself (not of the program).

    python3 perfbench/selftest.py            # all, ~3 minutes
    python3 perfbench/selftest.py -k Stub    # the stub-server tests only

* a stub server that answers one request with a wrong margin, or with
  a 500, raises the error share;
* a stub that stalls shows the stall in scheduled-time latency and in
  the generator's lateness;
* the metric names the command prints equal those in BENCHMARK.json.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
import time
import unittest

import loadgen
from common import ROOT, Outcome, import_repro, remove, scratch_dir, tail
from server import export_model

import_repro()

from workloads import PredictRequests, _count_load  # noqa: E402


class _Stub:
    """An asyncio ``/predict`` stub answering from the reference
    margins, except that request number ``fault_at`` (in arrival order)
    gets ``fault``: ``"margin"`` (one wrong margin), ``"500"`` or
    ``"stall"`` (a blocking 0.2 s pause on the loop it runs on)."""

    def __init__(self, requests: PredictRequests, fault: str,
                 fault_at: int):
        self.requests, self.fault, self.fault_at = requests, fault, fault_at
        self.answers = {}
        for i in range(len(requests)):
            key = json.dumps(requests.inputs[i].tolist())
            self.answers[key] = i
        self.seen = 0

    async def handle(self, reader, writer) -> None:
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = int(head.lower().split(b"content-length:")[1]
                             .split(b"\r\n")[0])
                body = json.loads(await reader.readexactly(length))
                i = self.answers[json.dumps(body["inputs"])]
                n, self.seen = self.seen, self.seen + 1
                status = 200
                margins = self.requests.margins[i].tolist()
                if n == self.fault_at:
                    if self.fault == "margin":
                        margins[0] += 0.1
                    elif self.fault == "500":
                        status = 500
                    elif self.fault == "stall":
                        time.sleep(0.2)  # blocks the shared loop
                doc = {"model": "bench",
                       "predictions": self.requests.predictions[i].tolist(),
                       "margins": margins, "count": self.requests.rows}
                out = json.dumps(doc).encode()
                writer.write(f"HTTP/1.1 {status} X\r\nContent-Length: "
                             f"{len(out)}\r\n\r\n".encode() + out)
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()


def _load_against(stub: _Stub, requests, rate: float) -> loadgen.LoadResult:
    """Open loop against the stub, both on one event loop (so a stall
    in the stub also holds up the generator)."""
    async def main():
        server = await asyncio.start_server(stub.handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            return await loadgen._open_loop(
                "127.0.0.1", port, requests.materialise(), rate, 2,
                requests.check, 10.0)
        finally:
            server.close()
    return asyncio.run(main())


class StubServerTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.work = scratch_dir("selftest-")
        export_model(cls.work / "models")
        cls.requests = PredictRequests(cls.work / "models", 7, 60, 4)

    @classmethod
    def tearDownClass(cls):
        remove(cls.work)

    def _run_with_fault(self, fault: str) -> Outcome:
        out = Outcome()
        window = self.requests.window(0, 60)
        result = _load_against(_Stub(self.requests, fault, 17), window,
                               200.0)
        _count_load(out, result, "requests")
        return out

    def test_clean_stub_verifies_everything(self):
        out = self._run_with_fault("none")
        self.assertEqual((out.attempted, out.failed), (60, 0))
        self.assertEqual(out.verified_share, 1.0)

    def test_wrong_margin_raises_error_share(self):
        out = self._run_with_fault("margin")
        self.assertEqual(out.failed, 1)
        self.assertLess(out.verified_share, 1.0)

    def test_http_500_raises_error_share(self):
        out = self._run_with_fault("500")
        self.assertEqual(out.failed, 1)
        self.assertLess(out.verified_share, 1.0)

    def test_stall_shows_in_latency_and_lateness(self):
        window = self.requests.window(0, 60)
        calm = _load_against(_Stub(self.requests, "none", -1), window,
                             200.0)
        stalled = _load_against(_Stub(self.requests, "stall", 17), window,
                                200.0)
        self.assertEqual(stalled.failed, 0)
        # Requests due during the 0.2 s stall wait for it: timed from
        # their scheduled send, the tail shows it ...
        self.assertGreater(tail(stalled.latencies())[0], 0.1)
        self.assertLess(tail(calm.latencies())[0], 0.1)
        # ... and the generator, blocked too, reports sending late.
        self.assertGreater(max(stalled.lateness()), 0.1)
        self.assertLess(max(calm.lateness()), 0.1)


class MetricNameTests(unittest.TestCase):
    def test_printed_names_equal_benchmark_json(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        expected = {
            0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]},
        }
        for workload in (w["name"] for w in bench["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    run = subprocess.run(
                        [sys.executable, str(ROOT / "perfbench" / "run.py"),
                         "--workload", workload, "--seed", "1",
                         "--seconds", "1", "--trace", str(trace)],
                        cwd=ROOT, capture_output=True, text=True,
                        timeout=300, check=True)
                    result = json.loads(run.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"], run.stderr)
                    printed = {name: m["unit"] for name, m in
                               result["metrics"].items()}
                    self.assertEqual(printed, expected[trace])


if __name__ == "__main__":
    unittest.main()
