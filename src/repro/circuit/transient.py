"""Transient analysis with breakpoint-aware stepping.

The one integrator, :class:`BatchTransientSolver` in
:mod:`repro.circuit.batch_transient`, uses trapezoidal companions by
default, dropping to backward Euler for a couple of steps after every
source breakpoint (the standard damping trick that suppresses
trapezoidal ringing at corners).  On Newton failure the step is halved
and retried.  :func:`transient` is a one-point run of it.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from .. import telemetry
from .dc import operating_point
from .exceptions import AnalysisError
from .mna import MnaContext
from .netlist import Circuit
from .waveform import Waveform

#: Steps integrated with backward Euler right after each breakpoint.
BE_STEPS_AFTER_BREAKPOINT = 2

#: Smallest allowed time step before the engine gives up, seconds.
MIN_STEP = 1e-18


class TransientResult:
    """Sampled solution of a transient run."""

    def __init__(self, circuit: Circuit, t: np.ndarray, X: np.ndarray):
        self.circuit = circuit
        self.t = t
        self.X = X

    @property
    def final_x(self) -> np.ndarray:
        return self.X[-1].copy()

    def node(self, name: str) -> Waveform:
        """Node voltage waveform."""
        idx = self.circuit.node_index(name)
        if idx < 0:
            return Waveform(self.t, np.zeros_like(self.t), name)
        return Waveform(self.t, self.X[:, idx], name)

    def branch_current(self, element_name: str) -> Waveform:
        """Branch current of a voltage source or inductor (a→b through
        the element; negative = delivering power for a supply)."""
        el = self.circuit.element(element_name)
        if not el._branch:
            raise AnalysisError(f"{element_name!r} has no branch current")
        return Waveform(self.t, self.X[:, el._branch[0]],
                        f"I({element_name})")

    def supply_power(self, source_name: str) -> Waveform:
        """Instantaneous power *delivered by* the named voltage source."""
        el = self.circuit.element(source_name)
        if not el._branch:
            raise AnalysisError(f"{source_name!r} has no branch current")
        v = np.array([el.value(tk) for tk in self.t])
        i = self.X[:, el._branch[0]]
        return Waveform(self.t, -v * i, f"P({source_name})")

    def average_power(self, source_name: str) -> float:
        return self.supply_power(source_name).average()

    def __repr__(self) -> str:
        return (
            f"<TransientResult {self.circuit.name!r} samples={len(self.t)} "
            f"t=[{self.t[0]:.4g}, {self.t[-1]:.4g}]s>"
        )


def check_run_args(tstart: float, tstop: float, dt: float,
                   method: str) -> None:
    """Validate the time window, step and integration method."""
    if tstop <= tstart:
        raise AnalysisError(f"tstop ({tstop}) must exceed tstart ({tstart})")
    if dt <= 0:
        raise AnalysisError("dt must be positive")
    if method not in ("trap", "be"):
        raise AnalysisError(f"unknown integration method {method!r}")


def transient(circuit: Circuit, tstop: float, dt: float, *,
              tstart: float = 0.0, method: str = "trap",
              ic: Optional[Mapping[str, float]] = None, uic: bool = False,
              x0: Optional[np.ndarray] = None,
              ctx: Optional[MnaContext] = None,
              max_retries: int = 10,
              solver: str = "auto") -> TransientResult:
    """Integrate the circuit from ``tstart`` to ``tstop``.

    A one-point run of the batched integrator
    (:class:`~repro.circuit.batch_transient.BatchTransientSolver`).

    Parameters
    ----------
    dt:
        Nominal (maximum) step.  The engine always lands exactly on
        source breakpoints and halves the step on Newton failures, at
        most ``max_retries`` times per step.
    ic:
        Node-voltage initial conditions.  With ``uic=True`` they are used
        verbatim (skipping the DC operating point); otherwise the DC
        operating point at ``tstart`` is computed first and then
        overridden at the listed nodes.
    x0:
        Full initial solution vector (overrides the operating point, used
        for warm restarts).
    ctx:
        Context to solve the operating point with and to integrate
        over (its static stamps are reused).
    solver:
        Linear-solve backend for the MNA systems ("auto"/"dense"/
        "sparse", see :mod:`repro.circuit.sparse`).  Ignored when an
        explicit ``ctx`` is supplied (the context owns the choice).
    """
    rt = telemetry.active()
    if rt is None:
        return _transient_impl(circuit, tstop, dt, tstart=tstart,
                               method=method, ic=ic, uic=uic, x0=x0,
                               ctx=ctx, max_retries=max_retries,
                               solver=solver)
    with rt.tracer.span("mna.transient",
                        {"circuit": circuit.name, "method": method}) as sp:
        result = _transient_impl(circuit, tstop, dt, tstart=tstart,
                                 method=method, ic=ic, uic=uic, x0=x0,
                                 ctx=ctx, max_retries=max_retries,
                                 solver=solver)
        sp.set_tag("steps", len(result.t) - 1)
        return result


def _transient_impl(circuit, tstop, dt, *, tstart, method, ic, uic, x0,
                    ctx, max_retries, solver) -> TransientResult:
    # Imported here: the batch module builds on this one.
    from .batch_transient import BatchTransientSolver

    check_run_args(tstart, tstop, dt, method)
    ctx = ctx or MnaContext(circuit, solver=solver)
    if x0 is not None:
        x = np.asarray(x0, dtype=float).copy()
    elif uic:
        x = np.zeros(circuit.size)
    else:
        x = operating_point(circuit, t=tstart, ctx=ctx).x.copy()
    if ic:
        for node, v in ic.items():
            idx = circuit.node_index(node)
            if idx >= 0:
                x[idx] = float(v)
    batch = BatchTransientSolver._from_contexts([ctx])
    return batch.run(tstop, dt, tstart=tstart, method=method,
                     x0=x[None, :], max_retries=max_retries).point(0)
