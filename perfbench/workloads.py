"""The four named workloads.

Each ``run_<workload>(seconds, seed, trace)`` returns an
:class:`~common.Outcome`.  Untraced, it carries every end-to-end
metric; traced, every per-layer metric (the untraced half of a traced
run only yields ``trace.overhead`` and the serving scrapes).
"""

from __future__ import annotations

import json
import math
import random
import time
from typing import Callable, Dict, List, Sequence, Tuple

import golden
import loadgen
import tracing
from common import (Outcome, median, out_file, remove, scratch_dir,
                    self_peak_rss_mb, tail, timed_import, weighted_quantile,
                    windowed_tail)
from server import (MODEL, Server, batcher_delta, export_model, pin_apart,
                    pin_together)

#: Fresh processes timed per run for ``setup_s`` (median reported).
SETUP_REPEATS = 3
#: Server launches timed per predict run (export + launch + healthz).
SERVE_SETUP_REPEATS = 3
#: Open-loop rate ladder (req/s) and each rung's share of the run.
LADDER = ((100, 0.75), (200, 0.15), (400, 0.06), (800, 0.04))
#: Latency limit on a rung's tail; max_rps is where rungs cross it.
LATENCY_LIMIT_S = 0.020
SMALL_ROWS, LARGE_ROWS = 1, 32
#: predict_large's wall and rates are medians over blocks of this many
#: completed requests.
LARGE_BLOCK = 256
#: Configs in a campaign's cold run (its resume doubles the spec).
CAMPAIGN_CONFIGS = 32
#: Resumed configs per lifecycle recomputed without the cache.
CAMPAIGN_SAMPLE = 2

perf = time.perf_counter


def _timing_metrics(out: Outcome, latencies: Sequence[float],
                    what: str) -> None:
    """Median and windowed tail of ``latencies`` (in time order)."""
    value, pct, windows = windowed_tail(latencies)
    out.add("p50_ms", 1e3 * median(latencies), "ms",
            f"median of {len(latencies)} {what}")
    out.add("tail_ms", 1e3 * value, "ms",
            f"median over {windows} windows of each window's p{pct:.2f}, "
            f"{len(latencies)} {what}")


def _finish(out: Outcome, rss_mb: float, rss_note: str) -> None:
    out.add("verified_share", out.verified_share, "ratio",
            f"{out.attempted - out.failed} of {out.attempted} verified")
    out.add("peak_rss_mb", rss_mb, "MB", rss_note)


def _no_serving(out: Outcome) -> None:
    """Serving figures of a workload that starts no server."""
    for name, unit in (("serve.batcher.mean_queue_wait_ms", "ms"),
                       ("serve.batcher.batches", "count"),
                       ("serve.batcher.mean_batch_rows", "rows"),
                       ("serve.batcher.mean_fill_ratio", "ratio"),
                       ("serve.eventloop.lag_ms", "ms"),
                       ("loadgen.late_ms", "ms")):
        out.add(name, 0.0, unit, "no server in this workload")


def _overhead(out: Outcome, traced: float, untraced: float,
              what: str) -> None:
    out.add("trace.overhead", traced / untraced - 1.0, "ratio",
            f"traced {what} {traced:.4f} / untraced {untraced:.4f} - 1")


# -- reproduce_fast -----------------------------------------------------------

def run_reproduce_fast(seconds: float, seed: int, trace: bool) -> Outcome:
    """Every registered experiment at fast fidelity, serial, no cache;
    passes repeat until ``seconds`` are spent (at least one).  The
    inputs are the paper's fixed grids, so ``seed`` is unused."""
    out = Outcome()
    setup = [] if trace else timed_import("repro.experiments",
                                          SETUP_REPEATS)
    import repro.experiments as experiments
    from repro.experiments import RunConfig

    ids = list(experiments.REGISTRY)
    goldens = {eid: golden.load_golden(eid) for eid in ids}

    def one_pass():
        times, results = {}, {}
        for eid in ids:
            t0 = perf()
            try:
                # Looked up per call so the traced run's wrapper applies.
                results[eid] = experiments.run_config(
                    RunConfig.build(eid, "fast", {}))
            except Exception as exc:  # an experiment that raises fails
                results[eid] = exc
            times[eid] = perf() - t0
        return times, results

    def verify(results) -> int:
        checked = 0
        for eid in ids:
            out.attempted += 1
            result = results[eid]
            if isinstance(result, Exception):
                out.fail(f"{eid} raised {result!r}")
                continue
            n, problems = golden.check(result.to_dict(), goldens[eid])
            checked += n
            if problems:
                out.fail(f"{eid} misses its golden: {problems[0]}")
        return checked

    if trace:
        t0 = perf()
        _, results = one_pass()
        untraced = perf() - t0
        verify(results)
        recorder = tracing.SpanRecorder().install()
        try:
            t0 = perf()
            with recorder.span("perfbench.reproduce_fast"):
                _, results = one_pass()
            traced = perf() - t0
        finally:
            recorder.uninstall()
        verify(results)
        recorder.dump(out_file("trace-reproduce_fast.jsonl.gz"))
        for name, (value, unit) in tracing.span_metrics(
                recorder.spans, ids).items():
            out.add(name, value, unit)
        _no_serving(out)
        _overhead(out, traced, untraced, "pass wall")
        out.report = tracing.self_time_report(recorder.spans)
        return out

    walls: List[float] = []
    per_experiment: List[float] = []
    checked = 0
    start = perf()
    # Another pass only if it fits in the run (a pass may outlast it).
    while not walls or perf() - start + walls[-1] <= seconds:
        t0 = perf()
        times, results = one_pass()
        walls.append(perf() - t0)
        per_experiment.extend(times.values())
        checked += verify(results)
    busy = sum(walls)
    out.add("setup_s", median(setup), "s",
            f"median of {len(setup)} fresh imports of repro.experiments")
    out.add("wall_s", median(walls), "s",
            f"median of {len(walls)} passes over {len(ids)} experiments")
    # Most experiments take milliseconds and a few take seconds, so the
    # plain median and tail of 22 runs are two tiny experiments whose
    # times swing by a fifth between runs and no solver change moves.
    # Weighted by time, they are the runs where the pass spends its time.
    out.add("p50_ms", 1e3 * weighted_quantile(per_experiment, 0.5), "ms",
            f"time-weighted median of {len(per_experiment)} experiment "
            "runs")
    out.add("tail_ms", 1e3 * weighted_quantile(per_experiment, 0.9), "ms",
            f"time-weighted p90 of {len(per_experiment)} experiment runs")
    out.add("max_rps", len(per_experiment) / busy, "1/s",
            "experiments completed per second")
    out.add("rows_per_s", checked / busy, "rows/s",
            f"{checked} golden values verified per second")
    _finish(out, self_peak_rss_mb(), "benchmark process (runs the work)")
    return out


# -- predict workloads ---------------------------------------------------------

class PredictRequests:
    """Seed-drawn ``/predict`` requests and their reference answers.

    Rows are uniform duty cycles, distinct per request; reference
    margins come from ``BatchInferenceEngine.model_margins`` on the
    exported model, computed here before any request is timed.
    Bodies are encoded on demand (``requests[i]``).
    """

    def __init__(self, store, seed: int, count: int, rows: int):
        import numpy as np
        from repro.serve.artifacts import ModelStore
        from repro.serve.engine import (BatchInferenceEngine,
                                        model_decision_offset,
                                        model_n_features)

        model = ModelStore(store).load(MODEL)
        rng = np.random.default_rng(seed)
        X = rng.uniform(0.0, 1.0, size=(count * rows,
                                        model_n_features(model)))
        margins = BatchInferenceEngine().model_margins(model, X)
        self.rows = rows
        self.inputs = X.reshape(count, rows, -1)
        self.margins = np.asarray(margins).reshape(count, rows)
        self.predictions = (self.margins >
                            model_decision_offset(model)).astype(np.int8)

    def __len__(self) -> int:
        return len(self.inputs)

    def __getitem__(self, i: int) -> bytes:
        body = json.dumps({"model": MODEL,
                           "inputs": self.inputs[i].tolist()})
        return loadgen.http_request("/predict", body.encode())

    def window(self, lo: int, hi: int) -> "Window":
        return Window(self, lo, hi)

    def check(self, i: int, status: int, body: bytes) -> int:
        """Verified rows in response ``i`` (0 = failed)."""
        if status != 200:
            return 0
        try:
            doc = json.loads(body)
            margins = doc["margins"]
            expected = self.margins[i].tolist()
            if margins != expected and not (
                    len(margins) == len(expected) and all(
                        math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
                        for a, b in zip(margins, expected))):
                return 0
            if doc["predictions"] != self.predictions[i].tolist() or \
                    doc["count"] != self.rows:
                return 0
        except (ValueError, KeyError, TypeError):
            return 0
        return self.rows


class Window:
    """Requests ``lo:hi`` of a :class:`PredictRequests`, re-indexed."""

    def __init__(self, requests: PredictRequests, lo: int, hi: int):
        self.requests, self.lo, self.hi = requests, lo, hi

    def __len__(self) -> int:
        return self.hi - self.lo

    def __getitem__(self, i: int) -> bytes:
        return self.requests[self.lo + i]

    def materialise(self) -> List[bytes]:
        return [self[i] for i in range(len(self))]

    def check(self, i: int, status: int, body: bytes) -> int:
        return self.requests.check(self.lo + i, status, body)


def _serve(out: Outcome, repeats: int):
    """Export + launch + first healthy ``/healthz``, ``repeats`` times;
    returns the last server (still running), its work dir and the
    timings.  Every earlier server must shut down cleanly."""
    times = []
    for k in range(repeats):
        work = scratch_dir("serve-")
        t0 = perf()
        export_model(work / "models")
        server = Server(work / "models").start()
        times.append(perf() - t0)
        if k < repeats - 1:
            _stop(out, server)
            remove(work)
    return server, work, times


def _stop(out: Outcome, server: Server) -> None:
    if server.proc is None:  # already stopped
        return
    out.attempted += 1
    if not server.stop():
        out.fail("server did not shut down cleanly")


def _count_load(out: Outcome, result: loadgen.LoadResult,
                what: str) -> None:
    out.attempted += result.attempted
    if result.failed:
        out.fail(f"{result.failed} of {result.attempted} {what} failed"
                 + (f" ({result.errors[0]})" if result.errors else ""),
                 count=result.failed)


def _rung_figure(result: loadgen.LoadResult) -> float:
    """What a rung holds to the latency limit: its tail, or the median
    of its last quarter when that is higher (a growing backlog);
    infinite if a request failed."""
    latencies = result.latencies()
    if result.failed or len(latencies) < 11:
        return math.inf
    return max(windowed_tail(latencies)[0],
               median(latencies[3 * len(latencies) // 4:]))


def _max_rate(rungs: List[Tuple[int, float]]) -> float:
    """The rate at which the rung figure crosses the latency limit,
    linear between the last rung within it (or zero load, zero
    latency) and the first beyond it; the top rung if all are within.
    The ladder is coarse, so this keeps a tail that sits near the limit
    from flipping the result between rungs."""
    rate0, figure0 = 0.0, 0.0
    for rate, figure in rungs:
        if figure > LATENCY_LIMIT_S:
            if math.isinf(figure):
                return rate0
            return rate0 + (rate - rate0) * (LATENCY_LIMIT_S - figure0) \
                / (figure - figure0)
        rate0, figure0 = rate, figure
    return rate0


def _warm(server: Server, requests, out: Outcome) -> None:
    """Load the model and settle the connections before measuring."""
    result = loadgen.open_loop(server.host, server.port,
                               requests.materialise(), 100.0,
                               check=requests.check)
    _count_load(out, result, "warm-up requests")


def run_predict_small(seconds: float, seed: int, trace: bool) -> Outcome:
    """1-row requests on the open-loop rate ladder over 2 keep-alive
    connections; rungs above the first one past the latency limit are
    skipped."""
    out = Outcome()
    sizes = [int(rate * share * seconds) for rate, share in LADDER]
    warm = 50
    total = warm + sum(sizes)
    server, work, setup = _serve(out, 1 if trace else SERVE_SETUP_REPEATS)
    try:
        requests = PredictRequests(work / "models", seed, total, SMALL_ROWS)
        if trace:
            return _trace_predict(out, server, work, requests, warm,
                                  sizes[0], _open_at(LADDER[0][0]),
                                  pin_together)
        pin_together(server)
        _warm(server, requests.window(0, warm), out)
        rungs = []
        lo = warm
        for (rate, _), size in zip(LADDER, sizes):
            window = requests.window(lo, lo + size)
            lo += size
            result = loadgen.open_loop(server.host, server.port,
                                       window.materialise(), rate,
                                       check=window.check)
            _count_load(out, result, f"requests at {rate} req/s")
            figure = _rung_figure(result)
            rungs.append((rate, figure))
            if rate == LADDER[0][0]:
                base = result
            out.report.append(
                f"rung {rate} req/s: {result.attempted} requests, "
                f"{result.failed} failed, tail or backlog "
                f"{1e3 * figure:.2f} ms, late "
                f"{1e3 * tail(result.lateness() or [0.0])[0]:.2f} ms")
            if figure > LATENCY_LIMIT_S:
                break
        rss = server.peak_rss_mb()
    finally:
        _stop(out, server)
        remove(work)

    max_rps = _max_rate(rungs)
    out.add("setup_s", median(setup), "s",
            f"median of {len(setup)} export + launch to healthy /healthz")
    out.add("wall_s", base.span(), "s",
            f"first scheduled send to last response, {base.attempted} "
            f"requests at {LADDER[0][0]} req/s")
    _timing_metrics(out, base.latencies(),
                    f"requests at {LADDER[0][0]} req/s, from scheduled send")
    out.add("max_rps", max_rps, "1/s",
            f"rate where the tail crosses {LATENCY_LIMIT_S * 1e3:.0f} ms, "
            f"over rungs {', '.join(str(rate) for rate, _ in rungs)}")
    out.add("rows_per_s", max_rps * SMALL_ROWS, "rows/s",
            "rows per second at max_rps")
    _finish(out, rss, "server process")
    return out


def run_predict_large(seconds: float, seed: int, trace: bool) -> Outcome:
    """32-row requests back to back on 2 connections (closed loop)."""
    out = Outcome()
    warm = 100
    capacity = warm + int(seconds * 4000)
    server, work, setup = _serve(out, 1 if trace else SERVE_SETUP_REPEATS)
    try:
        requests = PredictRequests(work / "models", seed, capacity,
                                   LARGE_ROWS)
        if trace:
            return _trace_predict(out, server, work, requests, warm,
                                  int(seconds * 100), _closed, pin_apart)
        pin_apart(server)
        _warm(server, requests.window(0, warm), out)
        window = requests.window(warm, capacity)
        result = loadgen.closed_loop(server.host, server.port, window,
                                     seconds, check=window.check)
        _count_load(out, result, "requests")
        rss = server.peak_rss_mb()
    finally:
        _stop(out, server)
        remove(work)

    # Completed requests in completion order, cut into blocks: wall and
    # rates are medians over blocks, so a short stall moves one block.
    done = sorted((d, rows) for d, rows in zip(result.done, result.rows)
                  if rows)
    blocks = [(done[j + LARGE_BLOCK][0] - done[j][0],
               sum(rows for _, rows in done[j + 1:j + LARGE_BLOCK + 1]))
              for j in range(0, len(done) - LARGE_BLOCK, LARGE_BLOCK)]
    if not blocks:  # fewer than one block completed
        blocks = [(result.span(), sum(rows for _, rows in done))]
    out.add("setup_s", median(setup), "s",
            f"median of {len(setup)} export + launch to healthy /healthz")
    out.add("wall_s", median([t for t, _ in blocks]), "s",
            f"median time to complete {LARGE_BLOCK} requests, "
            f"{len(blocks)} blocks")
    _timing_metrics(out, result.latencies(), "requests, from send")
    out.add("max_rps", median([LARGE_BLOCK / t for t, _ in blocks]), "1/s",
            f"median over {len(blocks)} blocks, {result.attempted} "
            "requests on 2 connections")
    out.add("rows_per_s", median([rows / t for t, rows in blocks]),
            "rows/s", f"verified rows, median over {len(blocks)} blocks")
    _finish(out, rss, "server process")
    return out


def _open_at(rate: float) -> Callable:
    def load(server: Server, window) -> loadgen.LoadResult:
        return loadgen.open_loop(server.host, server.port,
                                 window.materialise(), rate,
                                 check=window.check)
    return load


def _closed(server: Server, window) -> loadgen.LoadResult:
    return loadgen.closed_loop(server.host, server.port, window, 3600.0,
                               check=window.check)


def _trace_predict(out: Outcome, server: Server, work, requests,
                   warm: int, size: int, load: Callable,
                   place: Callable[[Server], None]) -> Outcome:
    """The same ``size`` requests against the untraced server (which
    also yields the ``/metrics`` scrapes) and then a traced one, each
    placed on CPUs by ``place``.  The wall compared is the requests'
    summed latency."""
    place(server)
    _warm(server, requests.window(0, warm), out)
    window = requests.window(warm, warm + size)
    before = server.batcher()
    untraced = load(server, window)
    lag = server.loop_lag_ms()
    batcher = batcher_delta(before, server.batcher())
    _count_load(out, untraced, "requests")
    _stop(out, server)

    spans_path = out_file("trace-serve.jsonl.gz")
    traced_server = Server(work / "models", traced_out=spans_path).start()
    place(traced_server)
    try:
        _warm(traced_server, requests.window(0, warm), out)
        measured_from = perf()
        traced = load(traced_server, window)
        _count_load(out, traced, "traced requests")
    finally:
        _stop(out, traced_server)
    spans = tracing.load_dump(spans_path)
    # perf_counter is the system-wide monotonic clock on Linux, so the
    # server's span times compare with ours: drop the warm-up's spans.
    spans = [span for span in spans if span[1] >= measured_from]
    import repro.experiments as experiments

    for name, (value, unit) in tracing.span_metrics(
            spans, experiments.REGISTRY).items():
        out.add(name, value, unit)
    out.add("serve.batcher.mean_queue_wait_ms",
            batcher["mean_queue_wait_ms"], "ms")
    out.add("serve.batcher.batches", batcher["batches"], "count")
    out.add("serve.batcher.mean_batch_rows", batcher["mean_batch_rows"],
            "rows")
    out.add("serve.batcher.mean_fill_ratio", batcher["mean_fill_ratio"],
            "ratio")
    out.add("serve.eventloop.lag_ms", lag, "ms")
    out.add("loadgen.late_ms", 1e3 * tail(untraced.lateness())[0], "ms",
            "tail of send time minus scheduled time (0 in a closed loop)")
    _overhead(out, sum(traced.latencies()), sum(untraced.latencies()),
              "summed latency")
    out.report = tracing.self_time_report(spans)
    remove(work)
    return out


# -- campaign_montecarlo --------------------------------------------------------

def _campaign_lifecycle(rng: random.Random, index: int):
    """Cold run over N ext_montecarlo configs, resume after the spec
    grows to 2N, then collect + tabulate everything.  Returns the
    timings and what the checks need."""
    from repro.campaigns import (CampaignRunner, CampaignSpec,
                                 collect_results, results_table)
    from repro.exec import ResultCache

    seeds = rng.sample(range(1_000_000), 2 * CAMPAIGN_CONFIGS)

    def spec(count: int) -> CampaignSpec:
        return CampaignSpec.from_dict({
            "name": f"bench-{index}", "experiment": "ext_montecarlo",
            "fidelity": "fast", "base": {"method": "vectorized"},
            "axes": [{"param": "seed", "values": seeds[:count]}]})

    cold_spec, full_spec = spec(CAMPAIGN_CONFIGS), spec(2 * CAMPAIGN_CONFIGS)
    work = scratch_dir("campaign-")
    cache = ResultCache(work)
    stamps: List[float] = []
    latencies: List[float] = []

    def progress(entry, fresh) -> None:
        now = perf()
        latencies.append(now - stamps[-1])
        stamps.append(now)

    t0 = perf()
    stamps.append(t0)
    cold = CampaignRunner(cold_spec, cache).run(progress)
    stamps.append(perf())
    resumed = CampaignRunner(full_spec, cache).run(progress)
    collected = collect_results(full_spec, cache)
    table = results_table(full_spec, collected)
    wall = perf() - t0
    return {"wall": wall, "latencies": latencies, "cold": cold,
            "resumed": resumed, "collected": collected, "table": table,
            "work": work}


def _check_lifecycle(out: Outcome, life, rng: random.Random) -> int:
    """Every expanded config has a result; sampled resumed entries
    equal a no-cache recomputation.  Returns the table's row count."""
    from repro.experiments import run_config

    n = CAMPAIGN_CONFIGS
    collected = life["collected"]
    out.attempted += len(collected)
    missing = [config for _, config, result in collected if result is None]
    if len(collected) != 2 * n or missing:
        out.fail(f"campaign has {len(missing)} missing of "
                 f"{len(collected)} configs (expected {2 * n})",
                 count=max(len(missing), 1))
    if (life["cold"].executed, life["resumed"].executed,
            life["resumed"].skipped) != (n, n, n):
        out.fail("campaign resume re-ran or skipped the wrong configs")
    if len(life["table"].rows) != len(collected) - len(missing):
        out.fail("campaign table row count differs from results")
    for position in rng.sample(range(n), CAMPAIGN_SAMPLE):
        _, config, result = collected[position]
        if result is None:
            continue
        fresh = run_config(config).to_dict()
        if json.dumps(fresh, sort_keys=True) != \
                json.dumps(result.to_dict(), sort_keys=True):
            out.fail(f"resumed {config.key()[:8]} differs from a "
                     "no-cache recomputation")
    remove(life["work"])
    return len(life["table"].rows)


def run_campaign_montecarlo(seconds: float, seed: int,
                            trace: bool) -> Outcome:
    """Campaign lifecycles on the default (flat JSON) result backend,
    repeated until ``seconds`` are spent, each on a fresh cache."""
    out = Outcome()
    setup = [] if trace else timed_import("repro.campaigns", SETUP_REPEATS)
    import repro.campaigns  # noqa: F401  (imports outside the timing)

    check_rng = random.Random(seed + 1)
    if trace:
        lifecycles = 5
        rng = random.Random(seed)
        untraced = 0.0
        for k in range(lifecycles):
            life = _campaign_lifecycle(rng, k)
            untraced += life["wall"]
            _check_lifecycle(out, life, check_rng)
        rng = random.Random(seed)
        recorder = tracing.SpanRecorder().install()
        try:
            with recorder.span("perfbench.campaign_montecarlo"):
                lives = [_campaign_lifecycle(rng, k)
                         for k in range(lifecycles)]
        finally:
            recorder.uninstall()
        traced = sum(life["wall"] for life in lives)
        for life in lives:
            _check_lifecycle(out, life, check_rng)
        recorder.dump(out_file("trace-campaign_montecarlo.jsonl.gz"))
        import repro.experiments as experiments

        for name, (value, unit) in tracing.span_metrics(
                recorder.spans, experiments.REGISTRY).items():
            out.add(name, value, unit)
        _no_serving(out)
        _overhead(out, traced, untraced, "lifecycle wall")
        out.report = tracing.self_time_report(recorder.spans)
        return out

    rng = random.Random(seed)
    walls: List[float] = []
    latencies: List[float] = []
    config_rates: List[float] = []
    row_rates: List[float] = []
    start = perf()
    index = 0
    while not walls or perf() - start < seconds:
        life = _campaign_lifecycle(rng, index)
        index += 1
        walls.append(life["wall"])
        latencies.extend(life["latencies"])
        config_rates.append(len(life["latencies"]) / life["wall"])
        row_rates.append(_check_lifecycle(out, life, check_rng)
                         / life["wall"])
    out.add("setup_s", median(setup), "s",
            f"median of {len(setup)} fresh imports of repro.campaigns")
    out.add("wall_s", median(walls), "s",
            f"median of {len(walls)} lifecycles ({CAMPAIGN_CONFIGS} cold, "
            f"{2 * CAMPAIGN_CONFIGS} resumed, collect + table)")
    _timing_metrics(out, latencies, "configs (cold and resumed)")
    out.add("max_rps", median(config_rates), "1/s",
            f"configs handled per second, median of {len(walls)} "
            "lifecycles")
    out.add("rows_per_s", median(row_rates), "rows/s",
            f"results-table rows per second, median of {len(walls)} "
            "lifecycles")
    _finish(out, self_peak_rss_mb(), "benchmark process (runs the work)")
    return out


WORKLOADS: Dict[str, Callable[[float, int, bool], Outcome]] = {
    "reproduce_fast": run_reproduce_fast,
    "predict_small": run_predict_small,
    "predict_large": run_predict_large,
    "campaign_montecarlo": run_campaign_montecarlo,
}
