"""Periodic steady-state (PSS) analysis via the shooting method.

For a circuit driven by sources periodic in ``T``, the map
``F(x0) = x(T)`` (one period of transient integration from state ``x0``)
has the periodic steady state as its fixed point.  The PWM cells studied
here have output time constants of hundreds of periods, so brute-force
integration to steady state is wasteful; shooting converges in a handful
of periods instead.

The Jacobian of ``F`` is estimated by finite differences over a small
set of *observed* (slow) nodes — by default the nodes that carry explicit
capacitors, which in the perceptron cells are exactly the slow averaging
nodes.  Fast internal nodes re-settle within one period and need no
Newton treatment.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .. import telemetry
from .dc import operating_point
from .elements.passives import Capacitor
from .exceptions import ConvergenceError
from .mna import MnaContext
from .netlist import Circuit
from .transient import TransientResult, transient
from .waveform import Waveform


class PssResult:
    """Converged periodic steady state over one period."""

    def __init__(self, circuit: Circuit, period: float,
                 final_period: TransientResult, iterations: int,
                 residual: float):
        self.circuit = circuit
        self.period = period
        self.waves = final_period
        self.iterations = iterations
        self.residual = residual

    def node(self, name: str) -> Waveform:
        return self.waves.node(name)

    def average(self, node: str) -> float:
        """Period-average voltage of ``node`` — the perceptron output
        quantity used throughout the paper."""
        return self.waves.node(node).average()

    def ripple(self, node: str) -> float:
        return self.waves.node(node).peak_to_peak()

    def supply_power(self, source_name: str) -> float:
        """Period-average power delivered by the named source, watts."""
        return self.waves.supply_power(source_name).average()

    def __repr__(self) -> str:
        return (
            f"<PssResult {self.circuit.name!r} T={self.period:.4g}s "
            f"iters={self.iterations} residual={self.residual:.3g}>"
        )


def _default_observe(circuit: Circuit) -> List[str]:
    """Nodes carrying explicit capacitors (the designed slow nodes)."""
    names: List[str] = []
    for el in circuit.elements:
        if isinstance(el, Capacitor):
            for node in el.node_names:
                idx = circuit.node_index(node)
                if idx >= 0 and node not in names:
                    names.append(node)
    return names


def shooting(circuit: Circuit, period: float, *, steps_per_period: int = 200,
             observe: Optional[Sequence[str]] = None,
             x0: Optional[np.ndarray] = None, warmup_periods: int = 2,
             max_iterations: int = 15, tol: float = 1e-4,
             fd_delta: float = 5e-3, method: str = "trap",
             update_limit: float = 2.0,
             ctx: Optional[MnaContext] = None,
             solver: str = "auto") -> PssResult:
    """Find the periodic steady state with Newton shooting.

    Each iteration integrates one period from the current start state
    plus one finite-difference probe per observed node, all stacked
    into one lock-step batch
    (:func:`~repro.circuit.batch_transient.shooting_jacobian_batched`
    is the same solve without ``ctx``).  The operating point that
    seeds the warmup comes from ``ctx`` when given.

    Parameters
    ----------
    period:
        The driving period (all periodic sources must share it).
    steps_per_period:
        Nominal transient resolution inside one period.
    observe:
        Names of the slow nodes to apply Newton to.  Defaults to the
        nodes with explicit capacitors.
    tol:
        Convergence threshold on the period-map residual, volts.
    fd_delta:
        Finite-difference perturbation for the Jacobian estimate, volts.
    update_limit:
        Per-node clamp on the Newton correction, volts.  Rail-saturated
        slow nodes can make ``(I - A)`` nearly singular through
        finite-difference noise; clamping keeps the update physical and
        the iteration falls back to (fast) fixed-point behaviour there.
    """
    # Imported here: the batch module builds on this one.
    from .batch_transient import _shooting_jacobian_impl

    return traced_shooting(
        "pss.shooting", {"circuit": circuit.name}, _shooting_jacobian_impl,
        circuit, period, steps_per_period=steps_per_period,
        observe=observe, x0=x0, warmup_periods=warmup_periods,
        max_iterations=max_iterations, tol=tol, fd_delta=fd_delta,
        method=method, update_limit=update_limit, ctx=ctx, solver=solver)


def traced_shooting(span: str, tags: dict, impl, *args, **kwargs):
    """Call a shooting ``impl`` inside a telemetry span that counts PSS
    solves, iterations and convergence failures (one solve per point of
    a batch); a plain call while telemetry is off."""
    rt = telemetry.active()
    if rt is None:
        return impl(*args, **kwargs)
    with rt.tracer.span(span, tags) as sp:
        try:
            result = impl(*args, **kwargs)
        except ConvergenceError:
            rt.count("repro_pss_convergence_failures_total")
            raise
        iterations = np.atleast_1d(result.iterations)
        sp.set_tag("iterations", int(iterations.max()))
        rt.count("repro_pss_solves_total", iterations.size)
        rt.count("repro_pss_iterations_total", int(iterations.sum()))
        return result


def settle_average(circuit: Circuit, period: float, node: str, *,
                   steps_per_period: int = 100, chunk_periods: int = 20,
                   max_chunks: int = 200, tol: float = 1e-3,
                   ic: Optional[dict] = None,
                   method: str = "trap") -> "tuple[float, TransientResult]":
    """Brute-force fallback: integrate until the chunk average settles.

    Returns ``(average, last_chunk_result)``.  Slower than shooting but
    makes no assumption about observability — used to cross-validate the
    shooting engine in tests.
    """
    ctx = MnaContext(circuit)
    dt = period / steps_per_period
    x = operating_point(circuit, t=0.0, ctx=ctx).x.copy()
    if ic:
        for node_name, v in ic.items():
            idx = circuit.node_index(node_name)
            if idx >= 0:
                x[idx] = float(v)
    prev_avg: Optional[float] = None
    result: Optional[TransientResult] = None
    for _chunk in range(max_chunks):
        result = transient(circuit, chunk_periods * period, dt, x0=x,
                           method=method, ctx=ctx)
        avg = result.node(node).average()
        x = result.final_x
        if prev_avg is not None and abs(avg - prev_avg) < tol:
            return avg, result
        prev_avg = avg
    raise ConvergenceError(
        f"settle_average did not converge after {max_chunks} chunks",
        analysis="pss/settle")
