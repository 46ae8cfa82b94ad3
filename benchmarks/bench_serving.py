"""Benchmark the serving subsystem: per-sample vs batched inference.

Three measurements, written to ``benchmarks/BENCH_serving.json``:

* ``perceptron``  — scalar ``predict()`` loop vs
  :class:`~repro.serve.engine.BatchInferenceEngine` on a batch of 256
  rows (the acceptance target is >= 10x at this batch size);
* ``mlp``         — the same comparison through a 6-unit hidden layer;
* ``http``        — end-to-end rows/s through the micro-batching
  ``/predict`` endpoint (one client, whole-batch requests).

All three are registered with :mod:`repro.perf` (``script.serving.*``,
report kind) for history tracking via ``repro perf run --bench-dir
benchmarks``.

Run with::

    PYTHONPATH=src python benchmarks/bench_serving.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

import numpy as np

from repro.analysis import make_blobs
from repro.core.network import PwmMlp
from repro.core.training import PerceptronTrainer
from repro.perf import benchmark, best_of, finish, host_fields
from repro.serve import AsyncPerceptronServer, BatchInferenceEngine, ModelStore

OUT = Path(__file__).parent / "BENCH_serving.json"

BATCH = 256
QUICK_BATCH = 64


def _make_batch(rows: int, seed: int = 5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, (rows, 2))


def _compare(name: str, rows: int, scalar_fn, batched_fn,
             check_equal) -> dict:
    t_scalar = best_of(scalar_fn, 3)
    t_batched = best_of(batched_fn, 3)
    return {
        "model": name,
        "batch_rows": rows,
        "scalar_seconds": round(t_scalar, 6),
        "batched_seconds": round(t_batched, 6),
        "scalar_rows_per_s": round(rows / t_scalar, 1),
        "batched_rows_per_s": round(rows / t_batched, 1),
        "speedup": round(t_scalar / t_batched, 2),
        "paths_agree_exactly": bool(check_equal()),
    }


@benchmark("script.serving.perceptron",
           title="scalar predict() loop vs batched perceptron inference",
           kind="report", metric="speedup", unit="x",
           lower_is_better=False, noise=0.6, tags=("script", "serving"))
def bench_perceptron(quick: bool = False) -> dict:
    rows = QUICK_BATCH if quick else BATCH
    data = make_blobs(n_per_class=30, n_features=2, separation=0.35,
                      spread=0.09, seed=7)
    model = PerceptronTrainer(2, seed=7).fit(data.X, data.y,
                                             epochs=60).perceptron
    X = _make_batch(rows)
    engine = BatchInferenceEngine()
    return _compare(
        "perceptron", rows,
        lambda: [model.predict(x) for x in X],
        lambda: engine.predict(model, X),
        lambda: np.array_equal(
            np.array([model.predict(x) for x in X]),
            engine.predict(model, X)))


@benchmark("script.serving.mlp",
           title="scalar predict() loop vs batched MLP inference",
           kind="report", metric="speedup", unit="x",
           lower_is_better=False, noise=0.6, tags=("script", "serving"))
def bench_mlp(quick: bool = False) -> dict:
    rows = QUICK_BATCH if quick else BATCH
    data = make_blobs(n_per_class=30, n_features=2, separation=0.35,
                      spread=0.09, seed=7)
    model = PwmMlp(2, 6, seed=1)
    model.fit(data.X, data.y, epochs=40)
    X = _make_batch(rows)
    engine = BatchInferenceEngine()
    return _compare(
        "mlp(2x6)", rows,
        lambda: [model.predict(x) for x in X],
        lambda: engine.predict_mlp(model, X),
        lambda: np.array_equal(
            np.array([model.predict(x) for x in X]),
            engine.predict_mlp(model, X)))


@benchmark("script.serving.http",
           title="HTTP /predict whole-batch round-trip throughput",
           kind="report", metric="rows_per_s", unit="rows/s",
           lower_is_better=False, noise=1.0, tags=("script", "serving"))
def bench_http(tmp_root: Optional[Path] = None,
               quick: bool = False) -> dict:
    import tempfile
    import urllib.request

    if tmp_root is None:
        with tempfile.TemporaryDirectory() as tmp:
            return bench_http(Path(tmp), quick=quick)

    rows = QUICK_BATCH if quick else BATCH
    data = make_blobs(n_per_class=30, n_features=2, separation=0.35,
                      spread=0.09, seed=7)
    model = PerceptronTrainer(2, seed=7).fit(data.X, data.y,
                                             epochs=60).perceptron
    store = ModelStore(tmp_root)
    store.save("bench", model)
    X = _make_batch(rows)
    payload = json.dumps({"model": "bench",
                          "inputs": X.tolist()}).encode()
    with AsyncPerceptronServer(store, port=0, workers=0) as server:
        def roundtrip():
            request = urllib.request.Request(
                server.url + "/predict", data=payload,
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=30) as response:
                return json.loads(response.read())

        body = roundtrip()  # warm up + sanity
        assert body["count"] == rows
        t = best_of(roundtrip, 3)
    return {
        "model": "perceptron over HTTP /predict",
        "batch_rows": rows,
        "roundtrip_seconds": round(t, 6),
        "rows_per_s": round(rows / t, 1),
    }


def main() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        payload = {
            "description": "per-sample scalar inference vs the batched "
                           "serving engine (repro.serve) at batch "
                           f"{BATCH}, plus HTTP round-trip throughput",
            **host_fields(),
            "benchmarks": [bench_perceptron(), bench_mlp(),
                           bench_http(Path(tmp))],
        }
    finish(OUT, payload)


if __name__ == "__main__":
    main()
