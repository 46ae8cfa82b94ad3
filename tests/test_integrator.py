"""The one transient integrator: scalar-engine fixture and step splits.

``tests/golden/scalar_integrator.json`` holds the output of the scalar
``MnaContext`` time-stepping engine — the per-element companion loop
that ``transient()``/``shooting()`` ran on before every transient and
shooting solve moved onto the lock-step batched solver.  It was
captured from that engine and is never regenerated from the current
one: it pins that the one integrator still produces exactly the numbers
the scalar engine did, for

* the Fig. 2 inverter bench (transient from the operating point, and
  shooting PSS),
* the 3-input weighted adder (shooting PSS),
* an RLC tank with an inductor (transient from ``ic``/``uic``),
* a ``VSwitch`` sample-and-hold (transient from the operating point),
  once benign and once stiff enough that Newton fails and the step is
  halved ten times.

Every array is compared bit for bit (JSON floats round-trip exactly).

It also pins the step-halving split: when one point of a batch fails
Newton, only that point's step is halved (counted by
``repro_mna_step_rejections_total``), so every point still equals its
own one-point run and the Jacobian-batched shooting needs no fallback.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import telemetry
from repro.circuit import (
    AnalysisError,
    BatchTransientSolver,
    Capacitor,
    Circuit,
    Inductor,
    Resistor,
    Vdc,
    Vpulse,
    VSwitch,
    shooting_batch,
    transient,
)
from repro.circuit.pss import shooting
from repro.core.cells import build_transcoding_inverter_bench
from repro.core.weighted_adder import AdderConfig, WeightedAdder, adder_pss

FIXTURE = Path(__file__).parent / "golden" / "scalar_integrator.json"

PERIOD = 2e-9


def _rlc() -> Circuit:
    c = Circuit("rlc")
    c.add(Vpulse("VIN", "in", "0", v1=0.0, v2=1.0, delay=1e-9,
                 rise=1e-10, fall=1e-10, width=4e-9, period=10e-9))
    c.add(Resistor("R1", "in", "mid", "20"))
    c.add(Inductor("L1", "mid", "out", "10n"))
    c.add(Capacitor("C1", "out", "0", "1p"))
    c.add(Resistor("RL", "out", "0", "10k"))
    return c


def _switch(*, control_ref: str = "0", smooth: float = 0.05,
            vs: float = 1.2) -> Circuit:
    """Sample-and-hold.  Referencing the control to the held node with
    a sharp transition makes Newton fail, forcing step halvings."""
    c = Circuit("sample_hold")
    c.add(Vdc("VS", "src", "0", vs))
    c.add(Vpulse("VC", "ctrl", "0", v1=0.0, v2=1.0, delay=0.5e-9,
                 rise=0.1e-9, fall=0.1e-9, width=1.5e-9, period=4e-9))
    c.add(VSwitch("S1", "src", "hold", "ctrl", control_ref, r_on=100.0,
                  r_off=1e9, threshold=0.5, smooth=smooth))
    c.add(Capacitor("CH", "hold", "0", "1p"))
    c.add(Resistor("RL", "hold", "0", "100k"))
    return c


def _tran(result) -> dict:
    return {"t": result.t.tolist(), "X": result.X.tolist()}


def _pss(result) -> dict:
    return {"t": result.waves.t.tolist(), "X": result.waves.X.tolist(),
            "iterations": result.iterations, "residual": result.residual}


def run_cases() -> dict:
    """Every fixture case, solved by the current integrator."""
    inverter = build_transcoding_inverter_bench(0.3, frequency=500e6,
                                                rout=5e3)
    adder = WeightedAdder(AdderConfig())
    return {
        "inverter_transient": _tran(transient(
            inverter, 2 * PERIOD, PERIOD / 40)),
        "inverter_shooting": _pss(shooting(
            build_transcoding_inverter_bench(0.3, frequency=500e6,
                                             rout=5e3),
            PERIOD, observe=["out"], steps_per_period=40)),
        "adder_shooting": _pss(shooting(
            adder.build_circuit((0.2, 0.6, 0.8), (5, 6, 7)),
            1.0 / adder.config.frequency, observe=["out"],
            steps_per_period=40)),
        "rlc_transient": _tran(transient(
            _rlc(), 12e-9, 0.1e-9, ic={"out": 0.25}, uic=True)),
        "switch_transient": _tran(transient(_switch(), 8e-9, 0.1e-9)),
        "switch_halving_transient": _tran(transient(
            _switch(control_ref="hold", smooth=1e-3), 8e-9, 0.1e-9)),
    }


@pytest.fixture(scope="module")
def fixture_and_run():
    return json.loads(FIXTURE.read_text()), run_cases()


@pytest.mark.parametrize("case", [
    "inverter_transient", "inverter_shooting", "adder_shooting",
    "rlc_transient", "switch_transient", "switch_halving_transient"])
def test_reproduces_scalar_engine_bit_for_bit(fixture_and_run, case):
    fixture, got = fixture_and_run
    want = fixture[case]
    got = got[case]
    assert set(got) == set(want)
    for key in ("t", "X"):
        g, w = np.asarray(got[key]), np.asarray(want[key])
        assert g.shape == w.shape, f"{case}.{key} shape"
        assert np.array_equal(g, w), (
            f"{case}.{key}: max abs diff {np.max(np.abs(g - w)):.3g}")
    for key in ("iterations", "residual"):
        if key in want:
            assert got[key] == want[key], f"{case}.{key}"


class TestStepHalvingSplit:
    """One stiff point in a batch halves its own step, nobody else's."""

    SMOOTHS = (0.5, 1e-3, 0.05)      # only the sharp switch fails Newton

    def _rejections(self, rt) -> float:
        counter = rt.registry.get("repro_mna_step_rejections_total")
        return 0.0 if counter is None else counter.value(
            analysis="transient")

    def test_failing_point_splits_off_alone(self):
        rt = telemetry.enable()
        try:
            batch = BatchTransientSolver([
                _switch(control_ref="hold", smooth=s)
                for s in self.SMOOTHS]).run(8e-9, 0.1e-9)
            rejections = self._rejections(rt)
        finally:
            telemetry.disable()
        assert rejections > 0
        for p, smooth in enumerate(self.SMOOTHS):
            alone = transient(_switch(control_ref="hold", smooth=smooth),
                              8e-9, 0.1e-9)
            point = batch.point(p)
            assert np.array_equal(point.t, alone.t)
            assert np.array_equal(point.X, alone.X)
        # The stiff point took extra (halved) steps; the others did not.
        lengths = [len(batch.point(p).t) for p in range(3)]
        assert lengths[1] > lengths[0] == lengths[2]

    def test_shared_grid_accessors_refuse_split_batches(self):
        batch = BatchTransientSolver([
            _switch(control_ref="hold", smooth=s)
            for s in self.SMOOTHS]).run(8e-9, 0.1e-9)
        for accessor in ("t", "X"):
            with pytest.raises(AnalysisError,
                               match="different step sequences"):
                getattr(batch, accessor)
        with pytest.raises(AnalysisError):
            batch.node("hold")
        assert np.array_equal(
            batch.final_x, np.stack([batch.point(p).X[-1]
                                     for p in range(3)]))

    def test_adder_pss_needs_no_fallback(self):
        # Probe runs of the stiff switch halve their steps alone: the
        # Jacobian-batched shooting equals the probe-by-probe loop.
        rt = telemetry.enable()
        try:
            got = adder_pss(_switch(control_ref="hold", smooth=1e-3),
                            4e-9, observe=["hold"], steps_per_period=40)
            assert rt.registry.get(
                "repro_mna_step_rejections_total").value(
                    analysis="pss") > 0
        finally:
            telemetry.disable()
        ref = shooting_batch([_switch(control_ref="hold", smooth=1e-3)],
                             4e-9, observe=["hold"],
                             steps_per_period=40).point(0)
        assert got.iterations == ref.iterations
        assert got.residual == ref.residual
        assert np.array_equal(got.waves.t, ref.waves.t)
        assert np.array_equal(got.waves.X, ref.waves.X)
