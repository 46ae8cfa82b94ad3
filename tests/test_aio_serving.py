"""The asyncio serving plane: scheduler, server, pool, loadgen.

Pins the guarantees the serving plane rests on:

* the :class:`AsyncMicroBatcher` delivers exactly the handler's
  answers under coalescing, deadline flushes, oversized-request
  splitting, and shutdown with in-flight futures;
* the server's ``/predict`` success and error bytes and its GET bytes
  equal ``tests/golden/serving_bytes.json``, captured when a second,
  thread-per-connection server still answered every one of those
  requests byte-identically (the wire contract clients rely on);
* ``/predict`` error bodies always carry ``error``/``model``/
  ``engine`` in that order;
* request framing fails loudly: a bad, oversized or stalled body is
  answered with a JSON 400/413/408 and a closed connection, never a
  hang or a silent drop;
* schema-v3 artifacts round-trip custom cell designs and older
  documents migrate (v2 → v3, v1 → v3);
* the worker pool dispatches by artifact document with per-process
  caching, and the new gauges show up in the Prometheus exposition;
* the load generator measures the server without erroring.
"""

from __future__ import annotations

import asyncio
import dataclasses
import http.client
import json
import socket
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.datasets import make_blobs
from repro.circuit import AnalysisError
from repro.core.cells import CellDesign
from repro.core.perceptron import DifferentialPwmPerceptron
from repro.core.training import PerceptronTrainer
from repro.core.weighted_adder import AdderConfig
from repro.serve import (
    ARTIFACT_SCHEMA_VERSION,
    AsyncMicroBatcher,
    AsyncPerceptronServer,
    BatchInferenceEngine,
    EngineWorkerPool,
    ModelStore,
    deserialize_model,
    serialize_model,
)
from repro.serve import aio_server
from repro.serve.artifacts import artifact_hash, upgrade_artifact
from repro.serve.loadgen import run_closed_loop, run_open_loop
from repro.serve.pool import _pool_margins
from repro.telemetry.metrics import validate_prometheus_text

ENGINE = BatchInferenceEngine()


def _raw(host, port, method, path, body=None):
    """One request, raw response bytes (the byte-identity probe)."""
    conn = http.client.HTTPConnection(host, port, timeout=15)
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    status, data = response.status, response.read()
    conn.close()
    return status, data


# -- the async scheduler ---------------------------------------------------


class TestAsyncMicroBatcher:
    @staticmethod
    def _handler(calls):
        def handler(features, vdds):
            calls.append((features.copy(),
                          None if vdds is None else vdds.copy()))
            return features[:, 0] * 2.0
        return handler

    def test_needs_running_loop(self):
        with pytest.raises(AnalysisError, match="running event loop"):
            AsyncMicroBatcher(lambda f, v: f[:, 0])

    def test_coalesces_across_submitters(self):
        async def scenario():
            calls = []
            batcher = AsyncMicroBatcher(self._handler(calls),
                                        max_batch=8, max_latency=0.05)
            rows = [np.full((2, 3), k, dtype=float) for k in range(4)]
            results = await asyncio.gather(
                *[batcher.submit(r) for r in rows])
            return calls, rows, results

        calls, rows, results = asyncio.run(scenario())
        # 4 x 2 rows fill max_batch exactly: one flush, in order.
        assert len(calls) == 1 and calls[0][0].shape == (8, 3)
        for row, result in zip(rows, results):
            assert np.array_equal(result, row[:, 0] * 2.0)

    def test_deadline_flushes_partial_batch(self):
        async def scenario():
            calls = []
            batcher = AsyncMicroBatcher(self._handler(calls),
                                        max_batch=64, max_latency=0.005)
            t0 = time.perf_counter()
            result = await batcher.submit(np.array([[1.0, 2.0]]))
            return calls, result, time.perf_counter() - t0

        calls, result, elapsed = asyncio.run(scenario())
        assert len(calls) == 1
        assert np.array_equal(result, [2.0])
        assert elapsed >= 0.004   # waited for the deadline, not forever

    def test_deadline_with_empty_queue_is_noop(self):
        async def scenario():
            batcher = AsyncMicroBatcher(self._handler([]), max_batch=4,
                                        max_latency=0.002)
            # Fill to max_batch: the size trigger flushes synchronously
            # and cancels the timer...
            tasks = [asyncio.ensure_future(
                batcher.submit(np.ones((1, 2)))) for _ in range(4)]
            await asyncio.gather(*tasks)
            assert not batcher._queue
            # ...and a deadline callback racing the cancel must
            # tolerate finding nothing to flush.
            batcher._on_deadline()
            await asyncio.sleep(0.01)
            # The batcher still works afterwards.
            return await batcher.submit(np.array([[3.0, 0.0]]))

        assert np.array_equal(asyncio.run(scenario()), [6.0])

    def test_oversized_request_splits_across_batches(self):
        async def scenario():
            calls = []
            batcher = AsyncMicroBatcher(self._handler(calls),
                                        max_batch=8, max_latency=0.005)
            X = np.arange(40.0).reshape(20, 2)
            result = await batcher.submit(X, vdd=1.5)
            return calls, X, result, batcher.stats

        calls, X, result, stats = asyncio.run(scenario())
        # 20 rows through an 8-row envelope: 8 + 8 + 4.
        assert [c[0].shape[0] for c in calls] == [8, 8, 4]
        assert stats.max_batch_rows <= 8
        assert np.array_equal(result, X[:, 0] * 2.0)  # order preserved
        for _, vdds in calls:                          # vdd rides along
            assert vdds is not None and np.all(vdds == 1.5)

    def test_stop_drains_in_flight_futures(self):
        async def scenario():
            calls = []
            batcher = AsyncMicroBatcher(self._handler(calls),
                                        max_batch=64, max_latency=5.0)
            tasks = [asyncio.ensure_future(
                batcher.submit(np.full((1, 2), k, dtype=float)))
                for k in range(3)]
            await asyncio.sleep(0)     # let the submits enqueue
            batcher.stop(drain=True)   # long before any deadline
            results = await asyncio.gather(*tasks)
            with pytest.raises(AnalysisError, match="not running"):
                await batcher.submit(np.ones((1, 2)))
            return calls, results

        calls, results = asyncio.run(scenario())
        assert len(calls) == 1 and calls[0][0].shape == (3, 2)
        assert [float(r[0]) for r in results] == [0.0, 2.0, 4.0]

    def test_stop_without_drain_fails_pending_futures(self):
        async def scenario():
            batcher = AsyncMicroBatcher(self._handler([]),
                                        max_batch=64, max_latency=5.0)
            task = asyncio.ensure_future(
                batcher.submit(np.ones((1, 2))))
            await asyncio.sleep(0)
            batcher.stop(drain=False)
            with pytest.raises(AnalysisError, match="stopped"):
                await task

        asyncio.run(scenario())

    def test_handler_error_propagates_to_batch(self):
        async def scenario():
            def broken(features, vdds):
                raise ValueError("flush exploded")

            batcher = AsyncMicroBatcher(broken, max_batch=2,
                                        max_latency=0.002)
            with pytest.raises(ValueError, match="flush exploded"):
                await batcher.submit(np.ones((2, 2)))
            return batcher.stats.batches

        assert asyncio.run(scenario()) == 1

    def test_validation(self):
        async def scenario():
            with pytest.raises(AnalysisError):
                AsyncMicroBatcher(lambda f, v: f, max_batch=0)
            with pytest.raises(AnalysisError):
                AsyncMicroBatcher(lambda f, v: f, max_latency=-1)
            batcher = AsyncMicroBatcher(lambda f, v: f[:, 0])
            with pytest.raises(AnalysisError):
                await batcher.submit(np.empty((0, 2)))

        asyncio.run(scenario())


# -- the asyncio server -----------------------------------------------------

GOLDEN_BYTES = Path(__file__).parent / "golden" / "serving_bytes.json"


@pytest.fixture(scope="class")
def dual_stack(request, tmp_path_factory):
    """One store, one model, the asyncio server serving it."""
    data = make_blobs(n_per_class=20, n_features=2, separation=0.35,
                      spread=0.09, seed=7)
    model = PerceptronTrainer(2, seed=7).fit(data.X, data.y,
                                             epochs=40).perceptron
    store = ModelStore(tmp_path_factory.mktemp("models"))
    store.save("demo", model)
    aio = AsyncPerceptronServer(store, port=0, max_batch=16,
                                max_latency=0.002, workers=0).start()
    request.cls.data = data
    request.cls.model = model
    request.cls.store = store
    request.cls.aio = aio
    yield
    aio.close()


@pytest.fixture()
def golden_server(tmp_path):
    """A fresh server over the fixture's committed ``demo`` artifact,
    plus the fixture with the store path filled in."""
    golden = json.loads(GOLDEN_BYTES.read_text())
    (tmp_path / "demo.json").write_text(json.dumps(golden["artifact"]))
    root = json.dumps(str(tmp_path))[1:-1]     # as it appears in JSON
    for case in (golden["predict_success"] + golden["predict_errors"]
                 + golden["get"]):
        case["body"] = case["body"].replace(golden["store_root_token"],
                                            root).encode()
    server = AsyncPerceptronServer(ModelStore(tmp_path), port=0,
                                   max_batch=16, max_latency=0.002,
                                   workers=0).start()
    yield server, golden
    server.close()


class TestTransportByteIdentity:
    """The wire bytes equal the fixture both transports agreed on.

    The fixture was captured with the threaded and the asyncio server
    answering each request identically; any change to it is a change
    to what clients receive and must be deliberate.
    """

    @staticmethod
    def _check(server, method, cases):
        for case in cases:
            if method == "GET":
                path, body = case["path"], None
            else:
                path, body = "/predict", case["request"].encode()
            assert _raw(server.host, server.port, method, path, body) \
                == (case["status"], case["body"]), (path, body)

    def test_predict_success_bodies_identical(self, golden_server):
        server, golden = golden_server
        assert len(golden["predict_success"]) == 3
        assert all(c["status"] == 200 for c in golden["predict_success"])
        self._check(server, "POST", golden["predict_success"])

    def test_predict_error_bodies_identical(self, golden_server):
        server, golden = golden_server
        assert len(golden["predict_errors"]) == 9
        assert all(c["status"] >= 400 for c in golden["predict_errors"])
        self._check(server, "POST", golden["predict_errors"])

    def test_get_endpoints_identical(self, golden_server):
        server, golden = golden_server
        assert [c["path"] for c in golden["get"]] == [
            "/healthz", "/models", "/engines", "/experiments",
            "/experiments/table1", "/campaigns", "/nope"]
        self._check(server, "GET", golden["get"])


@pytest.mark.usefixtures("dual_stack")
class TestErrorShapeContract:
    """Every /predict error body: error, model, engine — in order."""

    def _post_pairs(self, payload):
        status, raw = _raw(self.aio.host, self.aio.port, "POST",
                           "/predict", json.dumps(payload).encode())
        return status, json.loads(raw,
                                  object_pairs_hook=lambda p: p)

    def test_error_bodies_carry_model_and_engine(self):
        for payload, model, engine in (
                ({"model": "nope", "inputs": [[0.1, 0.2]]},
                 "nope", "behavioral"),
                ({"model": "demo", "inputs": [[0.1]],
                  "engine": "rc"}, "demo", "rc"),
                ({"inputs": [[0.1, 0.2]]}, None, "behavioral"),
                ({"model": "demo"}, "demo", "behavioral")):
            status, pairs = self._post_pairs(payload)
            assert status >= 400
            assert [k for k, _ in pairs] == \
                ["error", "model", "engine"], payload
            fields = dict(pairs)
            assert fields["model"] == model
            assert fields["engine"] == engine

    def test_success_bodies_unchanged_by_contract(self):
        status, raw = _raw(self.aio.host, self.aio.port, "POST",
                           "/predict",
                           json.dumps({"model": "demo",
                                       "inputs": [[0.3, 0.7]]}).encode())
        assert status == 200
        assert list(json.loads(raw)) == \
            ["model", "predictions", "margins", "count", "engine",
             "solver"]


@pytest.mark.usefixtures("dual_stack")
class TestAioTransport:
    def _get(self, path, headers=None):
        conn = http.client.HTTPConnection(self.aio.host, self.aio.port,
                                          timeout=15)
        conn.request("GET", path, headers=headers or {})
        response = conn.getresponse()
        status, raw = response.status, response.read()
        conn.close()
        return status, raw

    def test_predict_matches_engine(self):
        X = self.data.X
        status, raw = _raw(self.aio.host, self.aio.port, "POST",
                           "/predict",
                           json.dumps({"model": "demo",
                                       "inputs": X.tolist()}).encode())
        body = json.loads(raw)
        assert status == 200
        assert body["predictions"] == \
            [int(v) for v in ENGINE.predict(self.model, X)]
        assert np.allclose(body["margins"],
                           ENGINE.margins(self.model, X))

    def test_keep_alive_reuses_one_connection(self):
        conn = http.client.HTTPConnection(self.aio.host, self.aio.port,
                                          timeout=15)
        payload = json.dumps({"model": "demo",
                              "inputs": [[0.4, 0.6]]}).encode()
        for _ in range(5):
            conn.request("POST", "/predict", body=payload,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 200
            assert response.read()
            # HTTP/1.1 keep-alive: the server must not close on us.
            assert not response.will_close
        conn.close()

    def test_concurrent_connections_coalesce(self):
        """Rows from different connections ride shared batches."""
        before = self.aio.batcher_metrics().get("demo",
                                                {"batches": 0,
                                                 "rows": 0})

        async def blast():
            async def one():
                reader, writer = await asyncio.open_connection(
                    self.aio.host, self.aio.port)
                body = json.dumps({"model": "demo",
                                   "inputs": [[0.5, 0.5]]}).encode()
                head = (f"POST /predict HTTP/1.1\r\n"
                        f"Host: x\r\nContent-Type: application/json\r\n"
                        f"Content-Length: {len(body)}\r\n\r\n"
                        ).encode() + body
                writer.write(head)
                await writer.drain()
                raw = await reader.readuntil(b"\r\n\r\n")
                length = int([ln.split(b":")[1] for ln in
                              raw.split(b"\r\n")
                              if ln.lower().startswith(
                                  b"content-length")][0])
                await reader.readexactly(length)
                writer.close()

            await asyncio.gather(*[one() for _ in range(12)])

        asyncio.run(blast())
        after = self.aio.batcher_metrics()["demo"]
        new_rows = after["rows"] - before["rows"]
        new_batches = after["batches"] - before["batches"]
        assert new_rows == 12
        assert new_batches < 12    # coalescing actually happened

    def test_prometheus_gauges_exposed(self):
        time.sleep(0.3)            # one heartbeat interval
        status, raw = self._get("/metrics?format=prometheus")
        text = raw.decode()
        assert status == 200
        validate_prometheus_text(text)
        for gauge in ("repro_eventloop_lag_seconds",
                      "repro_worker_pool_queue_depth",
                      "repro_open_connections"):
            assert f"# TYPE {gauge} gauge" in text
            assert any(line.startswith(gauge)
                       for line in text.splitlines()
                       if not line.startswith("#")), gauge

    def test_rc_engine_served_off_the_event_loop(self):
        X = [[0.3, 0.8]]
        status, raw = _raw(self.aio.host, self.aio.port, "POST",
                           "/predict",
                           json.dumps({"model": "demo", "inputs": X,
                                       "engine": "rc"}).encode())
        body = json.loads(raw)
        assert status == 200 and body["engine"] == "rc"
        expected = ENGINE.model_margins(self.model, np.asarray(X),
                                        engine="rc")
        assert np.allclose(body["margins"], expected)

    def test_hot_reload_after_reexport(self):
        data = self.data
        retrained = PerceptronTrainer(2, seed=99).fit(
            data.X, data.y, epochs=10).perceptron
        self.store.save("reload-demo", self.model)
        payload = json.dumps({"model": "reload-demo",
                              "inputs": data.X[:3].tolist()}).encode()
        _, first = _raw(self.aio.host, self.aio.port, "POST",
                        "/predict", payload)
        time.sleep(0.01)           # ensure a distinct mtime
        self.store.save("reload-demo", retrained)
        _, second = _raw(self.aio.host, self.aio.port, "POST",
                         "/predict", payload)
        expected = ENGINE.margins(retrained, data.X[:3])
        assert np.allclose(json.loads(second)["margins"], expected)
        if not np.allclose(expected,
                           ENGINE.margins(self.model, data.X[:3])):
            assert first != second

    def test_experiment_run_over_aio(self):
        status, raw = _raw(self.aio.host, self.aio.port, "POST",
                           "/experiments/table1/run",
                           json.dumps({"fidelity": "fast"}).encode())
        body = json.loads(raw)
        assert status == 200
        assert body["experiment_id"] == "table1"
        assert body["result"]["experiment_id"] == "table1"

    def test_workers_validation(self):
        with pytest.raises(AnalysisError):
            AsyncPerceptronServer(self.store, workers=-1)

    def test_bind_failure_surfaces_on_both_entry_points(self):
        # A port collision must raise loudly, not exit a silent 0 —
        # both from start() (background thread) and run() (CLI path).
        clash = AsyncPerceptronServer(self.store, port=self.aio.port)
        with pytest.raises(OSError):
            clash.start()
        with pytest.raises(OSError):
            clash.run()


def _exchange(server, data, *, timeout=5.0):
    """Send raw bytes, read until the server closes the connection;
    returns everything it sent back."""
    with socket.create_connection((server.host, server.port),
                                  timeout=timeout) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _single_json_reply(raw):
    """``(status, body)`` of the one response in ``raw``; it must be a
    JSON error announcing ``Connection: close``."""
    assert raw.count(b"HTTP/1.1 ") == 1, raw
    head, _, body = raw.partition(b"\r\n\r\n")
    assert b"Connection: close" in head
    assert b"Content-Type: application/json" in head
    return int(head.split()[1]), json.loads(body)


@pytest.mark.usefixtures("dual_stack")
class TestRequestFraming:
    """Bad framing gets a JSON error and a closed connection."""

    @staticmethod
    def _post_head(content_length):
        return (f"POST /predict HTTP/1.1\r\nHost: x\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {content_length}\r\n\r\n").encode()

    def test_non_integer_content_length_is_400(self):
        status, body = _single_json_reply(
            _exchange(self.aio, self._post_head("abc") + b"{}"))
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_negative_content_length_is_400(self):
        # The bytes after the head must not be served as a second
        # request on the same connection.
        smuggled = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        status, body = _single_json_reply(
            _exchange(self.aio, self._post_head("-5") + smuggled))
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_oversized_body_is_413_without_reading_it(self):
        t0 = time.perf_counter()
        status, body = _single_json_reply(
            _exchange(self.aio, self._post_head("99999999999")))
        assert status == 413
        assert str(aio_server.MAX_BODY_BYTES) in body["error"]
        assert time.perf_counter() - t0 < 2.0

    def test_stalled_body_is_408(self, monkeypatch):
        monkeypatch.setattr(aio_server, "BODY_READ_TIMEOUT", 0.3)
        t0 = time.perf_counter()
        status, body = _single_json_reply(
            _exchange(self.aio, self._post_head(100) + b'{"model": '))
        assert status == 408
        assert "not received" in body["error"]
        assert 0.25 <= time.perf_counter() - t0 < 3.0

    def test_malformed_head_is_400_not_a_drop(self):
        status, body = _single_json_reply(
            _exchange(self.aio, b"NONSENSE\r\nX: y\r\n\r\n"))
        assert status == 400
        assert "malformed request line" in body["error"]

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.binary(max_size=200),
        # Head-shaped fragments reach the header-parsing branches.
        st.lists(st.sampled_from([
            b"GET", b"POST", b" ", b"/predict", b"HTTP/1.1", b"HTTP/",
            b"\r\n", b":", b"Content-Length", b"5", b"\t", b"\xff",
            b"\x00"]), max_size=30).map(b"".join)))
    def test_parse_head_returns_or_raises_value_error(self, blob):
        try:
            parsed = aio_server._parse_head(blob + b"\r\n\r\n")
        except ValueError:
            return
        assert isinstance(parsed, tuple) and len(parsed) == 4


# -- worker pool ------------------------------------------------------------


class TestEngineWorkerPool:
    def test_pool_margins_match_in_process(self, tmp_path):
        data = make_blobs(n_per_class=10, n_features=2,
                          separation=0.35, spread=0.09, seed=3)
        model = PerceptronTrainer(2, seed=3).fit(data.X, data.y,
                                                 epochs=20).perceptron
        doc = serialize_model(model, name="pool-demo")
        X = data.X[:6]
        expected = ENGINE.model_margins(model, X)
        # The worker function itself (what the pool pickles over).
        direct = _pool_margins(doc, X, None, "behavioral", "auto")
        assert np.allclose(direct, expected)
        pool = EngineWorkerPool(workers=1)
        try:
            future = pool.submit(doc, X, None, "behavioral", "auto")
            assert np.allclose(future.result(timeout=120), expected)
            deadline = time.time() + 5
            while pool.queue_depth and time.time() < deadline:
                time.sleep(0.01)
            assert pool.queue_depth == 0
            assert pool.completed == 1
        finally:
            pool.shutdown()

    def test_disabled_pool_refuses_submits(self):
        pool = EngineWorkerPool(workers=0)
        assert not pool.enabled
        with pytest.raises(RuntimeError):
            pool.submit({}, np.ones((1, 2)), None, "behavioral", "auto")


# -- schema v3 artifacts ----------------------------------------------------


class TestArtifactSchemaV3:
    def _custom_cell(self):
        base = CellDesign()
        return dataclasses.replace(
            base,
            nmos=dataclasses.replace(base.nmos, vt0=0.55, kp=110e-6),
            pmos=dataclasses.replace(base.pmos, vt0=-0.62),
            nmos_width=3.2e-6, pmos_width=7.5e-6, length=0.6e-6,
            rout=55e3, scale=0.8)

    def test_custom_cell_round_trip_exact(self):
        cell = self._custom_cell()
        config = AdderConfig(vdd=1.8, cell=cell)
        p = DifferentialPwmPerceptron([3, -2], bias=1, config=config)
        doc = serialize_model(p, name="custom")
        assert doc["schema"] == ARTIFACT_SCHEMA_VERSION == 3
        q = deserialize_model(doc)
        assert q.config.cell == cell
        assert q.config.vdd == 1.8
        X = np.array([[0.2, 0.9], [0.7, 0.1]])
        assert np.array_equal(ENGINE.margins(p, X),
                              ENGINE.margins(q, X))

    def test_v2_document_migrates_to_table1_cell(self):
        p = DifferentialPwmPerceptron([1, 2], bias=0)
        doc = serialize_model(p, name="legacy")
        del doc["config"]["cell"]          # what a v2 file looked like
        doc["schema"] = 2
        doc["hash"] = artifact_hash(doc)
        upgraded = upgrade_artifact(doc)
        assert upgraded["schema"] == 3
        assert "cell" in upgraded["config"]
        assert upgraded["hash"] == artifact_hash(upgraded)
        q = deserialize_model(upgraded)
        assert q.config.cell == CellDesign()   # the implicit Table I

    def test_v2_artifact_loads_from_store(self, tmp_path):
        p = DifferentialPwmPerceptron([2, -1], bias=1)
        store = ModelStore(tmp_path)
        path = store.save("legacy", p)
        doc = json.loads(path.read_text())
        del doc["config"]["cell"]
        doc["schema"] = 2
        doc["hash"] = artifact_hash(doc)
        path.write_text(json.dumps(doc))
        q = store.load("legacy")
        assert q.weights == p.weights and q.bias == p.bias
        assert q.config.cell == CellDesign()

    def test_v1_chains_all_the_way_to_v3(self):
        p = DifferentialPwmPerceptron([1, 1], bias=0)
        doc = serialize_model(p)
        doc["schema"] = 1
        del doc["config"]["cell"]
        doc["calibration"] = [0.1, 0.9]    # v1: one list, both banks
        del doc["comparator"]
        upgraded = upgrade_artifact(doc)
        assert upgraded["schema"] == 3
        assert upgraded["calibration"] == {"pos": [0.1, 0.9],
                                           "neg": [0.1, 0.9]}
        assert upgraded["comparator"] == {"offset": 0.0,
                                          "hysteresis": 0.0}
        assert "cell" in upgraded["config"]
        deserialize_model(upgraded)        # rebuilds cleanly

    def test_unsupported_schema_rejected(self):
        with pytest.raises(AnalysisError, match="unsupported artifact"):
            upgrade_artifact({"schema": 99, "kind": "perceptron"})


# -- load generator ---------------------------------------------------------


@pytest.mark.usefixtures("dual_stack")
class TestLoadgen:
    def test_closed_loop_reports(self):
        report = run_closed_loop(self.aio.url, "demo",
                                 self.data.X[:4].tolist(),
                                 connections=4, duration=0.3)
        assert report["mode"] == "closed"
        assert report["requests"] > 0 and report["errors"] == 0
        assert report["connection_failures"] == 0
        assert report["rows_per_s"] > 0
        assert set(report["latency_ms"]) == \
            {"mean", "p50", "p95", "p99", "max"}
        assert report["latency_ms"]["p50"] <= report["latency_ms"]["p99"]
        fill = report["batch_fill"]["demo"]
        assert fill["rows"] == report["requests"] * 4
        assert sum(fill["batch_rows_hist"].values()) == fill["batches"]

    def test_open_loop_honours_schedule(self):
        report = run_open_loop(self.aio.url, "demo",
                               self.data.X[:2].tolist(),
                               rate=100.0, connections=4,
                               duration=0.4)
        assert report["mode"] == "open"
        assert report["requests"] == 40      # every scheduled arrival
        assert report["errors"] == 0
        assert report["offered_requests_per_s"] == 100.0
        assert report["offered_rows_per_s"] == 200.0

    def test_validation(self):
        with pytest.raises(AnalysisError):
            run_closed_loop("nonsense", "demo", [[0.1, 0.2]])
        with pytest.raises(AnalysisError):
            run_closed_loop(self.aio.url, "demo", [[0.1, 0.2]],
                            connections=0)
        with pytest.raises(AnalysisError):
            run_open_loop(self.aio.url, "demo", [[0.1, 0.2]], rate=0)
