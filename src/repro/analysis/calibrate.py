"""Fit the behavioural model's calibration polynomial to a slower engine.

Running the transistor-level engine over a small operand grid and
fitting :class:`~repro.core.behavioral.CalibrationModel` gives the
behavioural engine transistor-level accuracy at closed-form cost — the
standard surrogate-modelling workflow for analog ML hardware.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.exceptions import AnalysisError
from ..core.behavioral import CalibrationModel, fit_calibration
from ..core.weighted_adder import WeightedAdder


def calibration_grid(adder: WeightedAdder, *,
                     duties_grid: Optional[Sequence[float]] = None,
                     seed: int = 0,
                     n_random: int = 8) -> "List[Tuple[list, list]]":
    """Operand sets covering the output range: corner points plus random
    (duty, weight) draws."""
    cfg = adder.config
    rng = np.random.default_rng(seed)
    wmax = cfg.weight_limit
    points: "List[Tuple[list, list]]" = [
        ([0.5] * cfg.n_inputs, [wmax] * cfg.n_inputs),
        ([0.9] * cfg.n_inputs, [wmax] * cfg.n_inputs),
        ([0.2] * cfg.n_inputs, [wmax] * cfg.n_inputs),
        ([0.5] * cfg.n_inputs, [max(1, wmax // 2)] * cfg.n_inputs),
    ]
    if duties_grid:
        for d in duties_grid:
            points.append(([float(d)] * cfg.n_inputs, [wmax] * cfg.n_inputs))
    for _ in range(n_random):
        duties = rng.uniform(0.1, 0.95, cfg.n_inputs).tolist()
        weights = rng.integers(0, wmax + 1, cfg.n_inputs).tolist()
        points.append((duties, [int(w) for w in weights]))
    return points


def calibrate_adder(adder: WeightedAdder, *, engine: str = "spice",
                    degree: int = 2, seed: int = 0, n_random: int = 8,
                    steps_per_period: int = 100) -> "Tuple[CalibrationModel, float]":
    """Fit a calibration polynomial; returns ``(model, rms_residual)``.

    The residual (volts) is measured on the fitting grid itself and
    reported so callers can decide whether the surrogate is usable.
    """
    if engine not in ("rc", "spice"):
        raise AnalysisError("calibrate against 'rc' or 'spice'")
    ideal: "list[float]" = []
    measured: "list[float]" = []
    for duties, weights in calibration_grid(adder, seed=seed,
                                            n_random=n_random):
        ideal.append(adder.theoretical_output(duties, weights))
        kwargs = {"steps_per_period": steps_per_period} if engine == "spice" else {}
        measured.append(adder.evaluate(duties, weights, engine=engine,
                                       **kwargs).value)
    return fit_with_residual(ideal, measured, adder.config.vdd,
                             degree=degree)


def fit_with_residual(ideal: Sequence[float], measured: Sequence[float],
                      vdd: float, *, degree: int = 2
                      ) -> "Tuple[CalibrationModel, float]":
    """Fit the calibration polynomial to ``(ideal, measured)`` output
    pairs; returns ``(model, rms_residual)``, the residual (volts)
    measured on the fitting pairs themselves."""
    model = fit_calibration(ideal, measured, vdd, degree=degree)
    corrected = [model.apply(v, vdd) for v in ideal]
    residual = float(np.sqrt(np.mean(
        (np.asarray(corrected) - np.asarray(measured)) ** 2)))
    return model, residual
