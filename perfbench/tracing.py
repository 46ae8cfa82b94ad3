"""Spans recorded from the benchmark's side, around the program's
public entry points.

:class:`SpanRecorder.install` replaces each entry point named in
:data:`LAYERS` (a module function, a method, or a registered engine's
operations) with a wrapper that records one span per call: name,
start, end, own id, parent id, the id of the ``/predict`` request it
belongs to, and the layer's extra count for that call (rows, points,
cache hit, failure).  Module functions are swapped in every ``repro``
module that holds a reference, so ``from x import f`` callers are
caught too.  Spans stay in memory; :meth:`SpanRecorder.dump` writes
them out when the run ends.  Nothing here edits the program's files.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import importlib
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: (span id, request id) of the innermost open span in this context.
_CURRENT: "contextvars.ContextVar[Tuple[Optional[int], Optional[int]]]" = \
    contextvars.ContextVar("perfbench_span", default=(None, None))

#: One span: (name, start, end, id, parent id, request id, extra count).
Span = Tuple[str, float, float, int, Optional[int], Optional[int], int]


def _experiment_name(args, kwargs) -> str:
    config = args[0] if args else kwargs["config"]
    return f"experiments.{config.experiment_id}"


#: (span name, module, attribute path).  A callable name derives the
#: span name from the call's arguments.
LAYERS: List[Tuple[object, str, str]] = [
    (_experiment_name, "repro.experiments.registry", "run_config"),
    ("core.weighted_adder.evaluate", "repro.core.weighted_adder",
     "WeightedAdder.evaluate"),
    ("circuit.shooting", "repro.circuit.pss", "shooting"),
    ("circuit.shooting_batch", "repro.circuit.batch_transient",
     "shooting_batch"),
    ("circuit.shooting_jacobian_batched", "repro.circuit.batch_transient",
     "shooting_jacobian_batched"),
    ("circuit.transient", "repro.circuit.transient", "transient"),
    ("circuit.batch_transient.run", "repro.circuit.batch_transient",
     "BatchTransientSolver.run"),
    ("circuit.operating_point", "repro.circuit.dc", "operating_point"),
    ("circuit.newton", "repro.circuit.mna", "MnaContext.solve_newton"),
    ("tech.ids_full_vec", "repro.tech.mosfet_models", "ids_full_vec"),
    ("exec.batch_adder_values", "repro.exec.batch", "batch_adder_values"),
    ("exec.cache.get", "repro.exec.cache", "ResultCache.get_config"),
    ("exec.cache.put", "repro.exec.cache", "ResultCache.put_config"),
    ("campaigns.run", "repro.campaigns.runner", "CampaignRunner.run"),
    ("campaigns.collect", "repro.campaigns.results", "collect_results"),
    ("serve.handle_predict", "repro.serve.aio_server",
     "AsyncPerceptronServer.handle_predict_async"),
    ("serve.parse_predict", "repro.serve.server",
     "ServingCore.parse_predict"),
    ("serve.model_margins", "repro.serve.engine",
     "BatchInferenceEngine.model_margins"),
    ("serve.predict_response", "repro.serve.server",
     "ServingCore.predict_response"),
]

#: Engine operations wrapped on every registered engine singleton.
ENGINE_OPS = ("evaluate", "sweep_supply", "monte_carlo")

#: Layer -> (count name, count of one successful call).
COUNTED: Dict[str, Tuple[str, Callable]] = {
    "circuit.batch_transient.run": ("points",
                                    lambda args, result: args[0].n_points),
    "exec.cache.get": ("hits", lambda args, result: int(result is not None)),
    "serve.model_margins": ("rows", lambda args, result: len(result)),
}

#: Layer -> (count name, exception class names that count one failure).
FAILURES = {"circuit.newton": ("failures", ("ConvergenceError",
                                            "SingularMatrixError"))}

#: Spans that start a request: their id becomes the request id that
#: every span nested under them carries.
REQUEST_ROOTS = {"serve.handle_predict"}


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str):
        """Context manager recording one span (the benchmark's own
        phases, e.g. the measured-phase root)."""
        return _ManualSpan(self, name)

    def wrap(self, name, fn: Callable) -> Callable:
        spans, ids, perf = self.spans, self._ids, time.perf_counter
        naming = name if callable(name) else None
        count = COUNTED.get(name, (None, None))[1]
        failures = FAILURES.get(name, (None, ()))[1]

        if inspect.iscoroutinefunction(fn):
            request_root = name in REQUEST_ROOTS

            @functools.wraps(fn)
            async def awrapper(*args, **kwargs):
                parent, request = _CURRENT.get()
                sid = next(ids)
                if request_root:
                    request = sid
                token = _CURRENT.set((sid, request))
                t0 = perf()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    spans.append((name, t0, perf(), sid, parent, request, 0))
                    _CURRENT.reset(token)
            return awrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = naming(args, kwargs) if naming else name
            parent, request = _CURRENT.get()
            sid = next(ids)
            token = _CURRENT.set((sid, request))
            extra = 0
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    extra = count(args, result)
                return result
            except Exception as exc:
                extra = int(type(exc).__name__ in failures)
                raise
            finally:
                spans.append((label, t0, perf(), sid, parent, request, extra))
                _CURRENT.reset(token)
        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        previous = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._undo.append((owner, attr, previous))
        setattr(owner, attr, value)

    def install(self) -> "SpanRecorder":
        """Wrap every entry point in :data:`LAYERS` and the engines."""
        for name, module_name, path in LAYERS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    self._patch(cls, attr,
                                staticmethod(self.wrap(name, raw.__func__)))
                else:
                    self._patch(cls, attr, self.wrap(name, raw))
                continue
            original = getattr(module, path)
            wrapped = self.wrap(name, original)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("repro") and \
                        getattr(mod, path, None) is original:
                    self._patch(mod, path, wrapped)
        from repro.engines import engine_ids, get_engine

        for engine_id in engine_ids():
            eng = get_engine(engine_id)
            for op in ENGINE_OPS:
                if hasattr(eng, op):
                    self._patch(eng, op, self.wrap(f"engines.{engine_id}",
                                                   getattr(eng, op)))
        return self

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span, one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")))
                out.write("\n")


def load_dump(path) -> List[Span]:
    with gzip.open(path, "rt") as src:
        return [tuple(json.loads(line)) for line in src]


class _ManualSpan:
    def __init__(self, recorder: SpanRecorder, name: str):
        self.recorder, self.name = recorder, name

    def __enter__(self):
        self.parent, self.request = _CURRENT.get()
        self.sid = next(self.recorder._ids)
        self.token = _CURRENT.set((self.sid, self.request))
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.recorder.spans.append((self.name, self.t0, time.perf_counter(),
                                    self.sid, self.parent, self.request, 0))
        _CURRENT.reset(self.token)


# -- aggregation -------------------------------------------------------------

def _covered(intervals: List[Tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, end = 0.0, lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Per-name self time: each span's duration minus the part of it
    that its child spans cover."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, t0, t1, _, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out: Dict[str, float] = defaultdict(float)
    for name, t0, t1, sid, _, _, _ in spans:
        kids = children.get(sid)
        out[name] += (t1 - t0) - (_covered(kids, t0, t1) if kids else 0.0)
    return dict(out)


#: Layers reported as ``<name>.calls`` and ``<name>.s``.
CALLS_AND_BUSY = (
    "engines.behavioral", "engines.rc", "engines.spice",
    "core.weighted_adder.evaluate",
    "circuit.shooting", "circuit.shooting_batch",
    "circuit.shooting_jacobian_batched", "circuit.transient",
    "circuit.batch_transient.run", "circuit.operating_point",
    "circuit.newton", "tech.ids_full_vec", "exec.batch_adder_values",
    "exec.cache.get", "exec.cache.put",
    "serve.handle_predict", "serve.model_margins",
)
#: Layers reported as ``<name>.s`` only.
BUSY_ONLY = ("campaigns.run", "campaigns.collect", "serve.parse_predict",
             "serve.predict_response")


def span_metrics(spans: Iterable[Span], experiment_ids: Iterable[str]
                 ) -> Dict[str, Tuple[float, str]]:
    """Every span-derived per-layer metric, zero where a layer was never
    called.  ``.calls`` counts calls, ``.s`` is busy time (the spans'
    whole duration, callees included)."""
    calls: Dict[str, int] = defaultdict(int)
    busy: Dict[str, float] = defaultdict(float)
    extra: Dict[str, int] = defaultdict(int)
    for name, t0, t1, _, _, _, n in spans:
        calls[name] += 1
        busy[name] += t1 - t0
        extra[name] += n
    out: Dict[str, Tuple[float, str]] = {}
    for eid in experiment_ids:
        out[f"experiments.{eid}.s"] = (busy[f"experiments.{eid}"], "s")
    for name in CALLS_AND_BUSY:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.s"] = (busy[name], "s")
    for name in BUSY_ONLY:
        out[f"{name}.s"] = (busy[name], "s")
    for name, (what, _) in {**COUNTED, **FAILURES}.items():
        out[f"{name}.{what}"] = (extra[name], "count")
    return out


def self_time_report(spans: List[Span]) -> List[str]:
    """Self time per layer and per top-level group, as shares of the
    time covered by root spans (summed, so concurrent requests each
    count their own latency)."""
    own = self_times(spans)
    roots = sum(t1 - t0 for _, t0, t1, _, parent, _, _ in spans
                if parent is None)
    groups: Dict[str, float] = defaultdict(float)
    for name, seconds in own.items():
        groups[name.split(".")[0]] += seconds
    lines = [f"self time over {roots:.3f} s of root spans:"]
    for name, seconds in sorted(own.items(), key=lambda kv: -kv[1])[:12]:
        lines.append(f"  {name:40s} {seconds:9.3f} s {seconds / roots:7.1%}")
    lines.append("  by group: " + ", ".join(
        f"{group} {seconds / roots:.1%}" for group, seconds in
        sorted(groups.items(), key=lambda kv: -kv[1])))
    return lines
