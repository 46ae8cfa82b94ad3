"""The transient integrator: lock-step batched MNA over sweep points.

Every transient and shooting solve in the package runs here:
:func:`repro.circuit.transient.transient` is a one-point batch and
:func:`repro.circuit.pss.shooting` is :func:`shooting_jacobian_batched`.

A supply sweep (or Monte-Carlo campaign) of one bench is a family of
circuits that share *structure* — the same elements on the same nodes
with the same source timing — and differ only in values: rail voltages,
source amplitudes, device geometry.  Solving them one at a time repeats
the whole Python stepping machinery (breakpoint handling, companion
updates, Newton bookkeeping) once per point; that overhead, not LAPACK,
dominates the wall clock for the paper's small benches.

:class:`BatchTransientSolver` integrates ``P`` such circuits in
lock-step: one breakpoint-aware time loop, vectorised companion models
for capacitors and inductors, one MOSFET stamp over all ``(P, M)``
devices per Newton iteration, and one stacked ``(P, S, S)`` linear
solve.  Because the stacked system is block-diagonal across points,
each point's Newton iterates are exactly the ones a one-point run would
produce — per-point convergence is tracked with a freeze mask, so a
point that converges early keeps its converged solution while
stragglers iterate.  A point whose Newton iteration fails has its step
halved alone: the failing points split off into their own sub-batch
from the current state and retry, while the rest accept the step.
Every point therefore follows exactly the step sequence it would take
alone, and a batch is bit-identical to one-point runs of its points.

:func:`shooting_batch` lifts the same trick to periodic steady state:
one batched Newton-shooting iteration drives all points, with each
point's PSS captured at the iteration where *it* converges — again
matching one-point :func:`repro.circuit.pss.shooting` runs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .. import telemetry
from ..tech.mosfet_models import ids_full_vec
from .dc import operating_point
from .elements.base import SOURCE
from .elements.mosfet import GMIN_DS
from .elements.passives import Capacitor, Inductor
from .elements.sources import PwmVoltage, Vdc, VoltageSource, Vpulse
from .exceptions import AnalysisError, ConvergenceError
from .mna import MnaContext
from .netlist import Circuit
from .pss import PssResult, _default_observe, traced_shooting
from .sparse import (
    check_solver,
    choose_backend,
    matrix_fill,
    sparse_solve,
)
from .transient import (
    BE_STEPS_AFTER_BREAKPOINT,
    MIN_STEP,
    TransientResult,
    check_run_args,
)
from .waveform import Waveform

try:
    # The gufunc behind np.linalg.solve.  Binding it directly skips
    # ~15 us of per-call Python argument checking — measurable when the
    # Newton loop solves thousands of small stacked systems.  It returns
    # NaNs instead of raising on singular matrices; the Newton loop's
    # finite-ness check already handles that path.
    from numpy.linalg._umath_linalg import solve as _gufunc_solve
except ImportError:  # pragma: no cover - older/newer numpy layouts
    _gufunc_solve = None


def _solve_stack(G: np.ndarray, I: np.ndarray,
                 backend: Optional[str]) -> np.ndarray:
    """Stacked ``(P, S, S) @ x = (P, S)`` solve that never raises.

    A singular block comes back as a row of NaNs (the gufunc's own
    signal; the sparse path solves block by block to match), which the
    Newton loop fails for that point alone.
    """
    if backend != "sparse" and _gufunc_solve is not None:
        return _gufunc_solve(G, I[:, :, None])[:, :, 0]
    solve = sparse_solve if backend == "sparse" else np.linalg.solve
    out = np.full(I.shape, np.nan)
    for p in range(G.shape[0]):
        try:
            out[p] = solve(G[p], I[p])
        except np.linalg.LinAlgError:
            pass
    return out


def _structure_signature(ctx: MnaContext) -> "list[tuple]":
    """Per-element structural identity of a compiled circuit."""
    return [(type(el).__name__, el.name, el._idx, el._branch)
            for el in ctx.circuit.flat_elements]


def _gather(idx: np.ndarray, size: int) -> np.ndarray:
    """Ground-safe gather indices: ground (-1) reads the padded zero."""
    return np.where(idx >= 0, idx, size)


class _Companions:
    """Per-point values and companion state of one reactive element kind.

    Arrays are ``(K, P)`` — one row per element, one column per sweep
    point (parasitic caps scale with device geometry, which Monte-Carlo
    batches perturb per point).  ``v_prev``/``i_prev`` hold each
    element's voltage and current at the last accepted step.
    """

    def __init__(self, by_point: List[list], size: int, value):
        els = by_point[0]
        self.elements = els
        self.n = len(els)
        shape = (self.n, len(by_point))
        self.a = np.array([el._idx[0] for el in els], dtype=np.intp)
        self.b = np.array([el._idx[1] for el in els], dtype=np.intp)
        self.a_gather = _gather(self.a, size)
        self.b_gather = _gather(self.b, size)
        self.value = np.array([[value(el) for el in point]
                               for point in by_point]).T.reshape(shape)
        self.ic = np.array([[np.nan if el.ic is None else el.ic
                             for el in point]
                            for point in by_point]).T.reshape(shape)
        self.v_prev = np.zeros(shape)
        self.i_prev = np.zeros(shape)
        self._cache: "dict[tuple[float, str], np.ndarray]" = {}

    def _voltages(self, x_t_padded: np.ndarray) -> np.ndarray:
        """Element voltages ``(K, P)`` from padded ``(S+1, P)`` states."""
        return x_t_padded[self.a_gather] - x_t_padded[self.b_gather]

    def coefficient(self, dt: float, method: str) -> np.ndarray:
        """``value / dt`` (doubled for trapezoidal) — the capacitor's
        companion conductance, the inductor's companion resistance —
        cached per step size."""
        cached = self._cache.get((dt, method))
        if cached is None:
            factor = 1.0 if method == "be" else 2.0
            cached = factor * self.value / dt
            self._cache[(dt, method)] = cached
        return cached


class _BatchCapacitors(_Companions):
    """Vectorised BE/trapezoidal companions for every capacitor."""

    def __init__(self, caps_by_point: List[List[Capacitor]], size: int):
        super().__init__(caps_by_point, size, lambda c: c.capacitance)
        a, b = self.a, self.b
        self._live = self.value > 0.0
        # RHS scatter slots, interleaved per cap (a row then b row) in
        # element order to reproduce the one-element-at-a-time
        # accumulation sequence.
        rows, signs, caps_idx = [], [], []
        for k in range(self.n):
            if not self._live[k].any():
                continue
            if a[k] >= 0:
                rows.append(a[k])
                signs.append(-1.0)
                caps_idx.append(k)
            if b[k] >= 0:
                rows.append(b[k])
                signs.append(1.0)
                caps_idx.append(k)
        self._rhs_rows = np.asarray(rows, dtype=np.intp)
        self._rhs_signs = np.asarray(signs)[:, None]
        self._rhs_caps = np.asarray(caps_idx, dtype=np.intp)

    def init_state(self, x_t_padded: np.ndarray) -> None:
        self.v_prev = self._voltages(x_t_padded)
        has_ic = np.isfinite(self.ic)
        if has_ic.any():
            self.v_prev[has_ic] = self.ic[has_ic]
        self.i_prev = np.zeros_like(self.v_prev)

    def add_geq_stack(self, G_stack: np.ndarray, dt: float,
                      method: str) -> None:
        """Companion conductances onto the stacked base, ``(P, S, S)``.

        Caps are applied one at a time in element order (vectorised
        over points only) so every cell accumulates in the sequence an
        element-by-element assembler uses — bit-identical sums even
        where several caps share a node with static conductances.
        """
        if self.n == 0:
            return
        geq = self.coefficient(dt, method)
        for k in range(self.n):
            if not self._live[k].any():
                continue
            g = geq[k]
            a, b = self.a[k], self.b[k]
            if a >= 0:
                G_stack[:, a, a] += g
            if b >= 0:
                G_stack[:, b, b] += g
            if a >= 0 and b >= 0:
                G_stack[:, a, b] -= g
                G_stack[:, b, a] -= g

    def stamp_rhs(self, I_t: np.ndarray, dt: float, method: str) -> None:
        """Equivalent currents into the transposed RHS ``(S, P)``, each
        cap's ``a`` then ``b`` row in element order."""
        if self._rhs_rows.size == 0:
            return
        geq = self.coefficient(dt, method)
        if method == "be":
            ieq = -geq * self.v_prev
        else:
            ieq = -geq * self.v_prev - self.i_prev
        # Element current ieq from a to b: I[a] -= ieq, I[b] += ieq.
        np.add.at(I_t, self._rhs_rows,
                  self._rhs_signs * ieq.take(self._rhs_caps, axis=0))

    def accept_step(self, x_t_padded: np.ndarray, dt: float,
                    method: str) -> None:
        if self.n == 0:
            return
        v_new = self._voltages(x_t_padded)
        geq = self.coefficient(dt, method)
        if method == "be":
            i_new = geq * (v_new - self.v_prev)
        else:
            i_new = geq * (v_new - self.v_prev) - self.i_prev
        self.i_prev = np.where(self._live, i_new, 0.0)
        self.v_prev = v_new


class _BatchInductors(_Companions):
    """Vectorised BE/trapezoidal companions for every inductor.

    Each inductor owns a branch-current row.  Its ``+/-1`` KCL and
    branch-voltage stamps are value-independent (see
    :meth:`stamp_structure`); the companion resistance on the branch
    diagonal and the history term on the branch RHS are per point.  No
    other element touches an inductor's branch row or column, so these
    stamps cannot reorder any sum.
    """

    def __init__(self, inds_by_point: List[List[Inductor]], size: int):
        super().__init__(inds_by_point, size, lambda el: el.inductance)
        self.br = np.array([el._branch[0] for el in self.elements],
                           dtype=np.intp)

    def stamp_structure(self, sys) -> None:
        """Branch KCL and ``v_a - v_b`` rows into a shared system."""
        for a, b, br in zip(self.a, self.b, self.br):
            sys.stamp_branch_kcl(a, b, br)
            sys.stamp_branch_voltage_row(br, a, b)

    def add_geq_stack(self, G_stack: np.ndarray, dt: float,
                      method: str) -> None:
        if self.n:
            G_stack[:, self.br, self.br] += -self.coefficient(dt, method).T

    def stamp_rhs(self, I_t: np.ndarray, dt: float, method: str) -> None:
        if self.n == 0:
            return
        req = self.coefficient(dt, method)
        if method == "be":
            I_t[self.br] += -req * self.i_prev
        else:
            I_t[self.br] += -req * self.i_prev - self.v_prev

    def init_state(self, x_t_padded: np.ndarray) -> None:
        self.i_prev = x_t_padded[self.br]
        has_ic = np.isfinite(self.ic)
        if has_ic.any():
            self.i_prev[has_ic] = self.ic[has_ic]
        self.v_prev = np.zeros_like(self.i_prev)

    def accept_step(self, x_t_padded: np.ndarray) -> None:
        if self.n:
            self.i_prev = x_t_padded[self.br]
            self.v_prev = self._voltages(x_t_padded)


class _BatchMosfets:
    """Vectorised MOSFET stamping over ``(P, M)`` devices.

    Index arrays come from the shared structure; device parameters are
    gathered per point, so Monte-Carlo batches (same netlist, perturbed
    geometry) stamp exactly like supply sweeps.
    """

    def __init__(self, contexts: List[MnaContext]):
        groups = [ctx.mosfet_group for ctx in contexts]
        g0 = groups[0]
        self.m = g0.n
        self.n_points = len(contexts)
        if self.m == 0:
            return
        size = contexts[0].size
        self.size = size
        self.d, self.g, self.s = g0.d, g0.g, g0.s
        self.d_gather, self.g_gather, self.s_gather = \
            g0.d_gather, g0.g_gather, g0.s_gather
        self.sign = g0.sign
        # Per-point device parameters, shape (P, M).
        self.beta = np.stack([g.beta for g in groups])
        self.vt = np.stack([g.vt for g in groups])
        self.lam = np.stack([g.lam for g in groups])
        self.n_sub = np.stack([g.n_sub for g in groups])
        self.valid_idx = np.nonzero(g0.valid)[0]
        self.d_valid = g0.d_valid
        self.s_valid = g0.s_valid
        # Linear scatter indices into the flattened (P, S, S) stack:
        # point p's pattern is the shared pattern offset by p*S*S.
        offsets = np.arange(self.n_points, dtype=np.intp) * size * size
        self.lin = (offsets[:, None] + g0.lin[None, :]).ravel()

        self._base_lin = g0.lin
        self._lin_by_size = {self.n_points: self.lin}
        #: per-batch-size scratch: (gm/gt block buffer, current buffer).
        self._buf_by_size: "dict[int, tuple]" = {}
        # Stamp pattern: per device the 8 G entries are +/-gm then
        # +/-gds blocks; building them as one broadcast multiply (exact
        # for +/-1 factors) replaces eight buffer writes per iteration.
        self._signs = np.array([1.0, -1.0, -1.0, 1.0,
                                1.0, 1.0, -1.0, -1.0])[None, :, None]
        self._d_valid_idx = np.nonzero(g0.d_valid)[0]
        self._s_valid_idx = np.nonzero(g0.s_valid)[0]
        self._i_rows = np.concatenate([self.d[self._d_valid_idx],
                                       self.s[self._s_valid_idx]])

    def stamp(self, G_stack: np.ndarray, I_t: np.ndarray,
              x_pad_cols: np.ndarray,
              rows: Optional[np.ndarray] = None) -> None:
        """Accumulate linearised stamps for a (sub-)batch.

        ``G_stack`` is ``(B, S, S)``, ``I_t`` the transposed RHS
        ``(S, B)``, ``x_pad_cols`` the padded states ``(B, S+1)``
        (last column zero for ground gathers).  ``rows`` names the
        original batch rows when ``B < P`` (converged points dropped
        from the Newton working set); device parameters are gathered
        accordingly.
        """
        if rows is None:
            beta, vt, lam, n_sub = self.beta, self.vt, self.lam, self.n_sub
        else:
            beta, vt = self.beta[rows], self.vt[rows]
            lam, n_sub = self.lam[rows], self.n_sub[rows]
        b = x_pad_cols.shape[0]
        lin = self._lin_by_size.get(b)
        if lin is None:
            offsets = np.arange(b, dtype=np.intp) * self.size * self.size
            lin = (offsets[:, None] + self._base_lin[None, :]).ravel()
            self._lin_by_size[b] = lin
        vd = x_pad_cols[:, self.d_gather]    # (B, M)
        vg = x_pad_cols[:, self.g_gather]
        vs = x_pad_cols[:, self.s_gather]
        ids, gm, gds = ids_full_vec(vd, vg, vs, self.sign, beta,
                                    vt, lam, n_sub)
        gt = gds + GMIN_DS
        ieq = ids - gm * (vg - vs) - gds * (vd - vs)
        bufs = self._buf_by_size.get(b)
        if bufs is None:
            bufs = (np.empty((b, 2, self.m)),
                    np.empty((self._i_rows.size, b)))
            self._buf_by_size[b] = bufs
        gmgt, i_vals = bufs
        # (B, 2, M) -> repeat -> (B, 8, M) * +/-1 -> (B, 8M): the
        # factors are exact, so the entries equal the per-device
        # concatenation order of MnaContext's group stamp.
        gmgt[:, 0] = gm
        gmgt[:, 1] = gt
        vals = (gmgt.repeat(4, axis=1) * self._signs).reshape(b, 8 * self.m)
        np.add.at(G_stack.reshape(-1), lin,
                  vals.take(self.valid_idx, axis=1).ravel())
        nd = self._d_valid_idx.size
        np.negative(ieq.take(self._d_valid_idx, axis=1).T, out=i_vals[:nd])
        i_vals[nd:] = ieq.take(self._s_valid_idx, axis=1).T
        np.add.at(I_t, self._i_rows, i_vals)


class _VsrcColumn:
    """Per-point values of one voltage source across the batch.

    The sweep-family common cases — DC rails and same-timing PWM/pulse
    drivers whose amplitudes vary per point — evaluate as one array
    expression with exactly the operation order of the element's
    ``value(t)`` (so results stay bit-identical); anything else falls
    back to a per-point Python loop.
    """

    def __init__(self, elements: List[VoltageSource]):
        el0 = elements[0]
        self._values = [el.value for el in elements]
        self.mode = "loop"
        if all(type(el) is Vdc for el in elements):
            self.mode = "const"
            self.const = np.array([el.voltage for el in elements])
        elif all(type(el) in (Vpulse, PwmVoltage) for el in elements) \
                and all(el.delay == el0.delay and el.rise == el0.rise
                        and el.fall == el0.fall and el.width == el0.width
                        and el.period == el0.period for el in elements):
            self.mode = "pulse"
            self.v1 = np.array([el.v1 for el in elements])
            self.v2 = np.array([el.v2 for el in elements])
            self.delay, self.rise = el0.delay, el0.rise
            self.fall, self.width = el0.fall, el0.width
            self.pulse_period = el0.period

    def __call__(self, t: float):
        if self.mode == "const":
            return self.const
        if self.mode == "pulse":
            # Mirrors Vpulse.value branch for branch; the shared timing
            # guarantees every point takes the same branch.
            if t < self.delay:
                return self.v1
            tau = (t - self.delay) % self.pulse_period
            if tau < self.rise:
                if self.rise == 0:
                    return self.v2
                return self.v1 + (self.v2 - self.v1) * tau / self.rise
            tau -= self.rise
            if tau < self.width:
                return self.v2
            tau -= self.width
            if tau < self.fall:
                if self.fall == 0:
                    return self.v1
                return self.v2 + (self.v1 - self.v2) * tau / self.fall
            return self.v1
        return [value(t) for value in self._values]


class BatchTransientResult:
    """Solution of a circuit batch.

    While every point takes the same step sequence the trajectories
    share one time grid ``t`` and stack into ``X`` of shape
    ``(T, P, S)``.  A point whose step was halved alone runs on its own
    grid; then ``t``, ``X`` and :meth:`node` raise
    :class:`AnalysisError` and :meth:`point` returns each trajectory.
    """

    def __init__(self, circuits: List[Circuit],
                 t: Optional[np.ndarray] = None,
                 X: Optional[np.ndarray] = None, *,
                 waves: "Optional[List[tuple]]" = None):
        self.circuits = circuits
        self._t = t
        self._X = X
        self._waves = waves             # per point: (t (T,), X (T, S))

    def _require_shared_grid(self) -> None:
        if self._waves is not None:
            raise AnalysisError(
                "batch points took different step sequences (a point's "
                "step was halved alone); read them with point(p)")

    @property
    def t(self) -> np.ndarray:
        self._require_shared_grid()
        return self._t

    @property
    def X(self) -> np.ndarray:
        self._require_shared_grid()
        return self._X

    @property
    def n_points(self) -> int:
        return len(self.circuits)

    @property
    def final_x(self) -> np.ndarray:
        """End states, shape ``(P, S)``."""
        if self._waves is None:
            return self._X[-1].copy()
        return np.stack([X[-1] for _t, X in self._waves])

    def node(self, name: str) -> np.ndarray:
        """Node voltages over time for every point, shape ``(T, P)``."""
        self._require_shared_grid()
        idx = self.circuits[0].node_index(name)
        if idx < 0:
            return np.zeros(self._X.shape[:2])
        return self._X[:, :, idx]

    def point(self, p: int) -> TransientResult:
        """One point's trajectory as an ordinary :class:`TransientResult`."""
        if self._waves is None:
            return TransientResult(self.circuits[p], self._t,
                                   self._X[:, p, :])
        return TransientResult(self.circuits[p], *self._waves[p])


def _columns(state: tuple, keep: np.ndarray) -> tuple:
    """The companion state of the points ``keep`` selects."""
    return tuple(a[:, keep] for a in state)


class BatchTransientSolver:
    """Lock-step transient integration of structurally identical circuits.

    All circuits must share their element structure (names, types, node
    bindings) and their source *timing* (breakpoints); element values —
    rail voltages, source amplitudes, device geometry, resistances,
    capacitances, inductances — are free to differ per point.
    Non-MOSFET nonlinear elements (switches) stamp per point.
    """

    #: Analysis label on the step-rejection counter.
    _analysis = "transient"

    def __init__(self, circuits: Sequence[Circuit], *,
                 solver: str = "auto"):
        circuits = list(circuits)
        if not circuits:
            raise AnalysisError("need at least one circuit to batch")
        solver = check_solver(solver)
        self._setup([MnaContext(c, solver=solver) for c in circuits])

    @classmethod
    def _from_contexts(cls, contexts: List[MnaContext]
                       ) -> "BatchTransientSolver":
        """A solver over existing contexts, which keep their solver
        choice; one context may back several points."""
        self = cls.__new__(cls)
        self._setup(list(contexts))
        return self

    def _setup(self, contexts: List[MnaContext]) -> None:
        self.contexts = contexts
        self.circuits = [ctx.circuit for ctx in contexts]
        ctx0 = contexts[0]
        self.solver = ctx0.solver
        #: Concrete linear-solve backend, decided lazily from the first
        #: assembled stack unless the first context already decided
        #: (see :mod:`repro.circuit.sparse`).
        self._backend: Optional[str] = None
        self.size = ctx0.size
        self.n_nodes = ctx0.n_nodes
        self.n_points = len(contexts)
        self._subsets: "dict[bytes, BatchTransientSolver]" = {}

        signature = _structure_signature(ctx0)
        for ctx in contexts[1:]:
            if ctx is ctx0:
                continue
            if ctx.size != ctx0.size or \
                    _structure_signature(ctx) != signature:
                raise AnalysisError(
                    "batched circuits must share element structure "
                    "(same elements on the same nodes); rebuild the "
                    "family from one parametrised builder")

        # Per-point static base (stacked); structure is shared so the
        # source branch rows can be folded in once.
        self._G_static = np.stack([ctx._G_static for ctx in contexts])
        self._I_static = np.stack([ctx._I_static for ctx in contexts])

        cats0 = ctx0.circuit.by_category
        self._vsources = [el for el in cats0[SOURCE]
                          if isinstance(el, VoltageSource)]
        self._isources = [el for el in cats0[SOURCE]
                          if not isinstance(el, VoltageSource)]
        # Per-point source elements, aligned with the shared structure.
        by_name = [{el.name: el for el in ctx.circuit.by_category[SOURCE]}
                   for ctx in contexts]
        vsources_by_point = [[bn[el.name] for el in self._vsources]
                             for bn in by_name]
        self._isources_by_point = [[bn[el.name] for el in self._isources]
                                   for bn in by_name]
        # Per-source batched value evaluators — the per-step RHS fill
        # runs thousands of times.
        self._vsrc_cols = [
            _VsrcColumn([vsources_by_point[p][k]
                         for p in range(self.n_points)])
            for k in range(len(self._vsources))]
        self._vsrc_branch = np.array(
            [el._branch[0] for el in self._vsources], dtype=np.intp)

        self._caps = _BatchCapacitors(
            [[el for el in ctx.reactive_elements
              if isinstance(el, Capacitor)] for ctx in contexts],
            self.size)
        self._inds = _BatchInductors(
            [[el for el in ctx.reactive_elements
              if isinstance(el, Inductor)] for ctx in contexts],
            self.size)
        self._mosfets = _BatchMosfets(contexts)
        self._switches = [ctx.other_nonlinear for ctx in contexts]
        self._nonlinear = self._mosfets.m > 0 or bool(self._switches[0])

        # Voltage-source and inductor structure stamps (branch KCL +
        # voltage rows) are value-independent: fold them into one
        # shared addition.
        self._G_sources = np.zeros((self.size, self.size))
        sys_view = ctx0.sys_view(self._G_sources, np.zeros(self.size))
        for el in self._vsources:
            a, b = el._idx
            br = el._branch[0]
            sys_view.stamp_branch_kcl(a, b, br)
            sys_view.stamp_branch_voltage_row(br, a, b)
        self._inds.stamp_structure(sys_view)

        # Per-(dt, method) shared stamp cache: the companion
        # conductances and source structure rows do not depend on the
        # solution, so each distinct step size is assembled once.
        self._shared_g_cache: "dict[tuple[float, str], np.ndarray]" = {}
        # Column-padded state scratch for the MOSFET gathers (last
        # column stays zero = ground).
        self._xpad_cols = np.zeros((self.n_points, self.size + 1))
        self._tol_cache: "dict[tuple[float, float], np.ndarray]" = {}

    def _subset(self, rows: np.ndarray) -> "BatchTransientSolver":
        """The solver over points ``rows`` (sorted), sharing contexts.

        Cached per row set; companion state is per run, so a cached
        subset is reinitialised by whoever runs it next.
        """
        if rows.size == self.n_points:
            return self
        key = rows.tobytes()
        sub = self._subsets.get(key)
        if sub is None:
            sub = BatchTransientSolver._from_contexts(
                [self.contexts[int(r)] for r in rows])
            sub._backend = self._backend
            sub._analysis = self._analysis
            self._subsets[key] = sub
        return sub

    # -- companion state -----------------------------------------------------

    def _init_state(self, x: np.ndarray) -> None:
        x_t = self._padded(x)
        self._caps.init_state(x_t)
        self._inds.init_state(x_t)

    def _get_state(self) -> tuple:
        return (self._caps.v_prev, self._caps.i_prev,
                self._inds.i_prev, self._inds.v_prev)

    def _set_state(self, state: tuple) -> None:
        (self._caps.v_prev, self._caps.i_prev,
         self._inds.i_prev, self._inds.v_prev) = state

    def _accept_step(self, x: np.ndarray, dt: float, method: str) -> None:
        x_t = self._padded(x)
        self._caps.accept_step(x_t, dt, method)
        self._inds.accept_step(x_t)

    # -- assembly ----------------------------------------------------------

    def _breakpoints(self, t0: float, t1: float) -> np.ndarray:
        ctx0 = self.contexts[0]
        ref = ctx0.breakpoints(t0, t1)
        for ctx in self.contexts[1:]:
            if ctx is ctx0:
                continue
            other = ctx.breakpoints(t0, t1)
            if other.shape != ref.shape or not np.array_equal(other, ref):
                raise AnalysisError(
                    "batched circuits must share source timing "
                    "(identical breakpoints); sweep values, not "
                    "frequencies or duties, across a batch")
        return ref

    def _source_rhs(self, I_t: np.ndarray, t: float) -> None:
        """Per-point source values into the transposed RHS ``(S, P)``."""
        for k in range(len(self._vsources)):
            I_t[self._vsrc_branch[k]] += self._vsrc_cols[k](t)
        for k, el in enumerate(self._isources):
            a, b = el._idx
            for p in range(self.n_points):
                el_p = self._isources_by_point[p][k]
                i = el_p._fn(t) if hasattr(el_p, "_fn") else el_p.current
                if a >= 0:
                    I_t[a, p] -= i
                if b >= 0:
                    I_t[b, p] += i

    def _g_base(self, dt: float, method: str) -> np.ndarray:
        """Static + source structure + companion stamps, ``(P, S, S)``."""
        key = (dt, method)
        G_base = self._shared_g_cache.get(key)
        if G_base is None:
            # Structure rows are exact +/-1 additions into cells the
            # static stamps never touch; the cap companions then
            # accumulate in element order (see add_geq_stack).
            G_base = self._G_static + self._G_sources[None, :, :]
            self._caps.add_geq_stack(G_base, dt, method)
            self._inds.add_geq_stack(G_base, dt, method)
            self._shared_g_cache[key] = G_base
        return G_base

    def _padded(self, x: np.ndarray) -> np.ndarray:
        """Transpose states to ``(S+1, P)`` with a zero ground row."""
        x_t = np.zeros((self.size + 1, x.shape[0]))
        x_t[:-1] = x.T
        return x_t

    def _tol_cols(self, abstol: float, itol: float) -> np.ndarray:
        """Per-column Newton tolerance: ``abstol`` on node voltages,
        ``itol`` on branch currents (cached)."""
        key = (abstol, itol)
        cached = self._tol_cache.get(key)
        if cached is None:
            cached = np.full(self.size, itol)
            cached[:self.n_nodes] = abstol
            self._tol_cache[key] = cached
        return cached

    def _stamp_switches(self, G: np.ndarray, I_t: np.ndarray,
                        x_work: np.ndarray, work: np.ndarray,
                        t: float) -> None:
        """Non-MOSFET nonlinear elements, per point on its own slice
        (after the MOSFETs, as :class:`MnaContext` stamps them)."""
        for i, p in enumerate(work):
            view = self.contexts[p].sys_view(G[i], I_t[:, i])
            for el in self._switches[p]:
                el.stamp_nonlinear(view, x_work[i], t)

    # -- Newton -----------------------------------------------------------

    def _solve_newton(self, x0: np.ndarray, t: float, dt: float,
                      method: str, *, max_iter: int = 80,
                      vlimit: float = 1.0, abstol: float = 1e-6,
                      reltol: float = 1e-4, itol: float = 1e-9
                      ) -> "tuple[np.ndarray, Optional[np.ndarray]]":
        """Damped Newton at one time point, vectorised over points.

        Block-diagonal structure keeps every point's iterate sequence
        identical to a one-point solve's: updates, clamping and the
        convergence test apply per point, and a converged point's state
        is frozen while the rest keep iterating.  Returns ``(x,
        failed)``: ``failed`` is ``None`` when every point converged,
        else a per-point mask of the points whose iteration diverged or
        ran out of iterations (their rows of ``x`` are meaningless).
        """
        rt = telemetry.active()
        if rt is None:
            return self._solve_newton_impl(
                x0, t, dt, method, max_iter=max_iter, vlimit=vlimit,
                abstol=abstol, reltol=reltol, itol=itol, rt=None)
        with rt.tracer.span("mna.newton",
                            {"analysis": "batch-transient",
                             "points": self.n_points, "size": self.size}):
            return self._solve_newton_impl(
                x0, t, dt, method, max_iter=max_iter, vlimit=vlimit,
                abstol=abstol, reltol=reltol, itol=itol, rt=rt)

    def _solve_newton_impl(self, x0: np.ndarray, t: float, dt: float,
                           method: str, *, max_iter, vlimit, abstol,
                           reltol, itol, rt
                           ) -> "tuple[np.ndarray, Optional[np.ndarray]]":
        G_base = self._g_base(dt, method)
        I_t_base = self._I_static.T.copy()          # (S, P)
        # Assembly order: sources first, then reactive companions.
        self._source_rhs(I_t_base, t)
        self._caps.stamp_rhs(I_t_base, dt, method)
        self._inds.stamp_rhs(I_t_base, dt, method)

        x = x0.copy()                                # (P, S)
        n = self.n_nodes
        mosfets = self._mosfets
        failed: Optional[np.ndarray] = None
        # Indices of points still iterating.  The stacked system is
        # block-diagonal, so dropping a converged point's rows neither
        # changes the others' iterates nor its own frozen solution —
        # stragglers iterate on an ever-smaller stack.
        work = np.arange(self.n_points)
        iterations = 0

        for iterations in range(1, max_iter + 1):
            full = work.size == self.n_points
            # Fancy indexing already copies, so subsets skip the
            # explicit copy.
            G = G_base.copy() if full else G_base[work]
            I_t = I_t_base.copy() if full else I_t_base[:, work]
            x_work = x if full else x[work]
            if mosfets.m:
                xpad = self._xpad_cols[:work.size]
                xpad[:, :-1] = x_work
                mosfets.stamp(G, I_t, xpad, rows=None if full else work)
            if self._switches[0]:
                self._stamp_switches(G, I_t, x_work, work, t)
            if self._backend is None:
                self._backend = self.contexts[0]._backend or \
                    choose_backend(self.size, matrix_fill(G[0]),
                                   self.solver)
                if rt is not None:
                    rt.count("repro_mna_backend_decisions_total",
                             solver=self.solver, backend=self._backend)
            x_new = _solve_stack(G, I_t.T, self._backend)
            if not np.isfinite(x_new).all():
                # A singular or diverged point fails this step alone.
                finite = np.isfinite(x_new).all(axis=1)
                if failed is None:
                    failed = np.zeros(self.n_points, dtype=bool)
                failed[work[~finite]] = True
                work, x_new = work[finite], x_new[finite]
                x_work = x_work[finite]
                if not work.size:
                    break
            if not self._nonlinear:
                x[work] = x_new
                work = work[:0]
                break
            dx = x_new - x_work
            dv = dx[:, :n]
            abs_dv = np.abs(dv)
            if abs_dv.max() > vlimit:
                clamped = (abs_dv > vlimit).any(axis=1)
            else:
                clamped = np.zeros(work.size, dtype=bool)
            if clamped.any():
                rows = work[clamped]
                x[rows, :n] += np.clip(dv[clamped], -vlimit, vlimit)
                x[rows, n:] += dx[clamped, n:]
            stepped = ~clamped
            if stepped.any():
                x[work[stepped]] = x_new[stepped]
                # One fused pass: per-column tolerance (abstol on node
                # voltages, itol on branch currents) — elementwise equal
                # to separate voltage and current tests.
                ok = stepped & (
                    np.abs(dx) <=
                    self._tol_cols(abstol, itol)
                    + reltol * np.abs(x_new)).all(axis=1)
                if ok.any():
                    work = work[~ok]
                    if not work.size:
                        break
        if work.size:
            if failed is None:
                failed = np.zeros(self.n_points, dtype=bool)
            failed[work] = True
        if rt is not None:
            if failed is None:
                rt.count("repro_mna_newton_solves_total")
                rt.count("repro_mna_newton_iterations_total", iterations,
                         backend=self._backend or "dense")
            else:
                rt.count("repro_mna_convergence_failures_total",
                         analysis="batch-transient")
        return x, failed

    # -- integration -------------------------------------------------------

    def run(self, tstop: float, dt: float, *, tstart: float = 0.0,
            method: str = "trap", x0: Optional[np.ndarray] = None,
            max_retries: int = 10) -> BatchTransientResult:
        """Integrate every point from ``tstart`` to ``tstop`` in lock-step.

        ``x0`` is the stacked initial state ``(P, S)``; ``None`` solves
        each point's DC operating point at ``tstart`` first (point by
        point, so the starting states match one-point runs exactly).
        A step whose Newton iteration fails is halved and retried, at
        most ``max_retries`` times, for the failing points only.
        """
        check_run_args(tstart, tstop, dt, method)
        if x0 is not None:
            x = np.asarray(x0, dtype=float).copy()
            if x.shape != (self.n_points, self.size):
                raise AnalysisError(
                    f"x0 must be ({self.n_points}, {self.size}), "
                    f"got {x.shape}")
        else:
            x = np.stack([
                operating_point(c, t=tstart, ctx=ctx).x
                for c, ctx in zip(self.circuits, self.contexts)])

        breakpoints = self._breakpoints(tstart, tstop)
        bp_iter: List[float] = [b for b in breakpoints if tstart < b < tstop]
        bp_iter.append(tstop)

        # One errstate frame for the whole run: the direct solve gufunc
        # flags singular systems via NaNs, which the Newton loop checks.
        errstate = np.errstate(invalid="ignore", divide="ignore",
                               over="ignore")
        with errstate, telemetry.span("mna.transient.batch",
                                      points=self.n_points,
                                      size=self.size):
            return self._integrate(x, tstart, tstop, dt, method, bp_iter,
                                   max_retries)

    def _integrate(self, x, tstart, tstop, dt, method, bp_iter,
                   max_retries) -> BatchTransientResult:
        self._init_state(x)
        # A lane is a group of points stepping in lock-step from one
        # time: (rows, x, t, be_countdown, companion state, times,
        # states, retry).  The start is a corner (BE steps first).
        lanes = [(np.arange(self.n_points), x, tstart,
                  BE_STEPS_AFTER_BREAKPOINT, self._get_state(), [tstart],
                  [x], None)]
        finished = []
        while lanes:
            finished.append(self._run_lane(lanes.pop(), lanes, tstop, dt,
                                           method, bp_iter, max_retries))
        if len(finished) == 1:
            _rows, times, states = finished[0]
            return BatchTransientResult(self.circuits, np.asarray(times),
                                        np.stack(states, axis=0))
        waves: "List[Optional[tuple]]" = [None] * self.n_points
        for rows, times, states in finished:
            t = np.asarray(times)
            X = np.stack(states, axis=0)
            for i, p in enumerate(rows):
                waves[p] = (t, X[:, i, :])
        return BatchTransientResult(self.circuits, waves=waves)

    def _run_lane(self, lane: tuple, pending: List[tuple], tstop, dt,
                  method, bp_iter, max_retries):
        """Step one lane to ``tstop``; returns ``(rows, times, states)``.

        ``rows`` index this solver's points.  When some of the lane's
        points fail a step, they split off into a new lane on
        ``pending`` whose ``retry = (h, attempt)`` repeats the step at
        half size from the current state; this lane carries on without
        them.
        """
        rows, x, t_cur, be_countdown, state, times, states, retry = lane
        solver = self._subset(rows)
        solver._set_state(state)
        eps = dt * 1e-9
        bp_pos = 0

        while t_cur < tstop - eps:
            while bp_pos < len(bp_iter) and bp_iter[bp_pos] <= t_cur + eps:
                bp_pos += 1
            next_bp = bp_iter[bp_pos] if bp_pos < len(bp_iter) else tstop
            if retry is None:
                h_try = min(dt, next_bp - t_cur)
                step_method = "be" if (method == "be" or be_countdown > 0) \
                    else "trap"
                attempt = 0
            else:
                (h_try, attempt), step_method, retry = retry, "be", None

            while True:
                x_next, failed = solver._solve_newton(
                    x, t_cur + h_try, h_try, step_method)
                if failed is None:
                    break
                telemetry.count("repro_mna_step_rejections_total",
                                analysis=self._analysis)
                attempt += 1
                if attempt >= max_retries or h_try * 0.5 < MIN_STEP:
                    raise ConvergenceError(
                        "transient step failed even at minimum step size",
                        analysis="transient", time=t_cur)
                if failed.all():
                    h_try *= 0.5
                    step_method = "be"
                    continue
                # Split: the failing points retry this step on their
                # own; the rest accept it and carry on.
                keep = ~failed
                state = solver._get_state()
                pending.append((
                    rows[failed], x[failed], t_cur, be_countdown,
                    _columns(state, failed), list(times),
                    [s[failed] for s in states], (h_try * 0.5, attempt)))
                rows, x, x_next = rows[keep], x[keep], x_next[keep]
                states = [s[keep] for s in states]
                solver = self._subset(rows)
                solver._set_state(_columns(state, keep))
                break

            t_cur += h_try
            solver._accept_step(x_next, h_try, step_method)
            x = x_next
            times.append(t_cur)
            states.append(x)
            if abs(t_cur - next_bp) <= eps:
                be_countdown = BE_STEPS_AFTER_BREAKPOINT
            elif be_countdown > 0:
                be_countdown -= 1
        return rows, times, states


class BatchPssResult:
    """Periodic steady states of a circuit batch.

    Every reduction mirrors :class:`~repro.circuit.pss.PssResult`, one
    value per point; :meth:`point` recovers a one-point result object.
    Waves are stored per point (``(t, X)`` pairs): points captured at
    different shooting iterations, or whose steps were halved alone,
    sit on different time grids.
    """

    def __init__(self, solver: BatchTransientSolver, period: float,
                 waves: "List[tuple]", iterations: np.ndarray,
                 residuals: np.ndarray):
        self._solver = solver
        self.period = period
        self._waves = waves             # per point: (t (T,), X (T, S))
        self.iterations = iterations    # (P,)
        self.residuals = residuals      # (P,)

    @property
    def n_points(self) -> int:
        return len(self._waves)

    def averages(self, node: str) -> np.ndarray:
        """Period-average node voltage per point, shape ``(P,)``."""
        idx = self._solver.circuits[0].node_index(node)
        if idx < 0:
            return np.zeros(self.n_points)
        return np.array([
            Waveform(t, X[:, idx]).average() for t, X in self._waves])

    def ripples(self, node: str) -> np.ndarray:
        idx = self._solver.circuits[0].node_index(node)
        if idx < 0:
            return np.zeros(self.n_points)
        return np.array([
            Waveform(t, X[:, idx]).peak_to_peak()
            for t, X in self._waves])

    def point(self, p: int) -> PssResult:
        t, X = self._waves[p]
        waves = TransientResult(self._solver.circuits[p], t, X)
        return PssResult(self._solver.circuits[p], self.period, waves,
                         int(self.iterations[p]),
                         float(self.residuals[p]))


def _observed_indices(circuit: Circuit,
                      observe: Optional[Sequence[str]]) -> np.ndarray:
    """Matrix indices of the shooting Newton's observed nodes."""
    observe_names = list(observe) if observe else _default_observe(circuit)
    if not observe_names:
        raise AnalysisError(
            "shooting needs at least one observed node; none carry "
            "explicit capacitors and none were given")
    obs_idx = np.array([circuit.node_index(n) for n in observe_names])
    if np.any(obs_idx < 0):
        raise AnalysisError("cannot observe the ground node")
    return obs_idx


def shooting_batch(circuits: Sequence[Circuit], period: float, *,
                   steps_per_period: int = 200,
                   observe: Optional[Sequence[str]] = None,
                   x0: Optional[np.ndarray] = None,
                   warmup_periods: int = 2, max_iterations: int = 15,
                   tol: float = 1e-4, fd_delta: float = 5e-3,
                   method: str = "trap",
                   update_limit: float = 2.0,
                   solver: str = "auto") -> BatchPssResult:
    """Newton-shooting PSS for a whole batch of sweep points at once.

    The batched period map is block-diagonal across points, so each
    point's shooting iterates equal a one-point
    :func:`~repro.circuit.pss.shooting` sequence; a point's waves are
    captured at the iteration where *its* residual first drops under
    ``tol`` (exactly the one-point return), and its state is frozen
    while the remaining points keep iterating.  Defaults mirror
    :func:`~repro.circuit.pss.shooting`.
    """
    return traced_shooting(
        "pss.shooting_batch", {"points": len(circuits)},
        _shooting_batch_impl, circuits, period,
        steps_per_period=steps_per_period, observe=observe, x0=x0,
        warmup_periods=warmup_periods, max_iterations=max_iterations,
        tol=tol, fd_delta=fd_delta, method=method,
        update_limit=update_limit, solver=solver)


def _shooting_batch_impl(circuits, period, *, steps_per_period, observe,
                         x0, warmup_periods, max_iterations, tol,
                         fd_delta, method, update_limit,
                         solver) -> BatchPssResult:
    if period <= 0:
        raise AnalysisError("period must be positive")
    full_solver = BatchTransientSolver(circuits, solver=solver)
    full_solver._analysis = "pss"
    obs_idx = _observed_indices(full_solver.circuits[0], observe)
    dt = period / steps_per_period
    n_points = full_solver.n_points
    n_obs = len(obs_idx)

    if x0 is None:
        x = np.stack([
            operating_point(c, t=0.0, ctx=ctx).x
            for c, ctx in zip(full_solver.circuits, full_solver.contexts)])
    else:
        x = np.asarray(x0, dtype=float).copy()
    for _ in range(max(warmup_periods, 0)):
        x = full_solver.run(period, dt, x0=x, method=method).final_x

    # Converged points leave the working batch entirely (the survivors
    # run on a subset solver), so stragglers never drag the whole
    # sweep through extra full-width period runs.  ``order`` maps
    # working-batch rows back to the caller's point indices.
    batch = full_solver
    order = np.arange(n_points)
    iterations = np.zeros(n_points, dtype=int)
    residuals = np.full(n_points, np.inf)
    waves: "List[Optional[tuple]]" = [None] * n_points

    for iteration in range(1, max_iterations + 1):
        base = batch.run(period, dt, x0=x, method=method)
        fx = base.final_x
        r = fx[:, obs_idx] - x[:, obs_idx]          # (B, n_obs)
        res = np.max(np.abs(r), axis=1)
        residuals[order] = res
        done = res < tol
        if done.any():
            for i in np.nonzero(done)[0]:
                wave = base.point(int(i))
                waves[order[i]] = (wave.t, wave.X.copy())
            iterations[order[done]] = iteration
            if done.all():
                return BatchPssResult(full_solver, period, waves,
                                      iterations, residuals)
            keep = ~done
            order = order[keep]
            batch = full_solver._subset(order)
            x, fx, r = x[keep], fx[keep], r[keep]
        # Finite-difference Jacobian of the period map, per point.  One
        # batched run per observed node perturbs every surviving point
        # at once.
        A = np.zeros((x.shape[0], n_obs, n_obs))
        for j in range(n_obs):
            x_pert = x.copy()
            x_pert[:, obs_idx[j]] += fd_delta
            fx_pert = batch.run(period, dt, x0=x_pert,
                                method=method).final_x
            A[:, :, j] = (fx_pert[:, obs_idx] - fx[:, obs_idx]) / fd_delta
        # Solve (I - A) dx = r per point; singular/non-finite points
        # fall back to fixed-point iteration.
        dx_obs = np.empty((x.shape[0], n_obs))
        for p in range(x.shape[0]):
            dx_obs[p] = _newton_update(A[p], r[p])
        dx_obs = np.clip(dx_obs, -update_limit, update_limit)
        x_next = fx.copy()
        x_next[:, obs_idx] = x[:, obs_idx] + dx_obs
        x = x_next

    raise ConvergenceError(
        f"batched shooting did not converge in {max_iterations} "
        f"iterations ({x.shape[0]} of {n_points} points open, "
        f"worst residual {float(np.max(residuals[order])):.3g} V)",
        analysis="pss")


def _newton_update(A: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Solve ``(I - A) dx = r`` (Newton on ``F(x) - x = 0``), falling
    back to the fixed-point step ``r`` when that system is singular."""
    try:
        dx = np.linalg.solve(np.eye(len(r)) - A, r)
    except np.linalg.LinAlgError:
        return r
    return dx if np.all(np.isfinite(dx)) else r


def shooting_jacobian_batched(circuit: Circuit, period: float, *,
                              steps_per_period: int = 200,
                              observe: Optional[Sequence[str]] = None,
                              x0: Optional[np.ndarray] = None,
                              warmup_periods: int = 2,
                              max_iterations: int = 15,
                              tol: float = 1e-4, fd_delta: float = 5e-3,
                              method: str = "trap",
                              update_limit: float = 2.0,
                              solver: str = "auto") -> PssResult:
    """Newton-shooting PSS of **one** circuit with batched Jacobian runs.

    This is the engine behind :func:`~repro.circuit.pss.shooting`.
    :func:`shooting_batch` batches across sweep *points*; single-point
    paths (the multifreq sweeps, the perceptron-adder transients) cannot
    use it — their circuits differ in source timing.  But every shooting
    iteration of a single circuit already contains ``1 + n_obs``
    independent period integrations: the base run plus one
    finite-difference probe per observed node, all of the *same* circuit
    and differing only in the starting state.  This function stacks them
    into one lock-step :class:`BatchTransientSolver` run per iteration,
    collapsing the per-iteration Python stepping overhead by
    ``1 + n_obs``.

    The stacked system is block-diagonal across the batch, so the base
    trajectory's iterates are unaffected by the speculative probe
    points: residuals, Jacobians and updates equal a run-one-period-
    at-a-time shooting loop bit for bit (the probes are run
    speculatively *before* the residual test, which only wastes work on
    the final iteration).  Warmup periods run the base point alone
    through the same solver.
    """
    return traced_shooting(
        "pss.shooting_jacobian", {"circuit": circuit.name},
        _shooting_jacobian_impl, circuit, period,
        steps_per_period=steps_per_period, observe=observe, x0=x0,
        warmup_periods=warmup_periods, max_iterations=max_iterations,
        tol=tol, fd_delta=fd_delta, method=method,
        update_limit=update_limit, ctx=None, solver=solver)


def _shooting_jacobian_impl(circuit, period, *, steps_per_period,
                            observe, x0, warmup_periods, max_iterations,
                            tol, fd_delta, method, update_limit, ctx,
                            solver) -> PssResult:
    if period <= 0:
        raise AnalysisError("period must be positive")
    ctx = ctx or MnaContext(circuit, solver=solver)
    obs_idx = _observed_indices(circuit, observe)
    dt = period / steps_per_period
    n_obs = len(obs_idx)
    # Every batch point is the same circuit on the same context: the
    # batch layer never mutates either (companion state lives in its
    # own arrays).
    batch = BatchTransientSolver._from_contexts([ctx] * (1 + n_obs))
    batch._analysis = "pss"

    x = operating_point(circuit, t=0.0, ctx=ctx).x.copy() if x0 is None \
        else np.asarray(x0, dtype=float).copy()
    if warmup_periods > 0:
        base_only = batch._subset(np.array([0]))
        for _ in range(warmup_periods):
            x = base_only.run(period, dt, x0=x[None, :],
                              method=method).final_x[0]

    residual = np.inf
    for iteration in range(1, max_iterations + 1):
        starts = np.repeat(x[None, :], 1 + n_obs, axis=0)
        for j in range(n_obs):
            starts[1 + j, obs_idx[j]] += fd_delta
        runs = batch.run(period, dt, x0=starts, method=method)
        fx_all = runs.final_x                        # (1+n_obs, S)
        fx = fx_all[0]
        r = fx[obs_idx] - x[obs_idx]
        residual = float(np.max(np.abs(r)))
        if residual < tol:
            return PssResult(circuit, period, runs.point(0), iteration,
                             residual)
        A = np.empty((n_obs, n_obs))
        for j in range(n_obs):
            A[:, j] = (fx_all[1 + j][obs_idx] - fx[obs_idx]) / fd_delta
        dx_obs = np.clip(_newton_update(A, r), -update_limit, update_limit)
        # Carry the full end-state (fast nodes) and correct slow nodes.
        x_next = fx.copy()
        x_next[obs_idx] = x[obs_idx] + dx_obs
        x = x_next

    raise ConvergenceError(
        f"shooting did not converge in {max_iterations} iterations "
        f"(residual {residual:.3g} V)", analysis="pss")
