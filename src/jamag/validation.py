"""Built-in synthetic round-trip validation.

A six-row grid of electrical-steel-like anhysteretic parameters is used to
generate noiseless curves, which are then fed back through the estimator.
A row passes when the RMS of the mu0-scaled reconstruction error is within
1% of the saturation polarization.  This exercises the whole pipeline with
no external data.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .anfit import RMS_BOUND_FRACTION, AnhystereticFitConfig, FitReport, fit_anhysteretic
from .core import MU0, AnhystereticParams, MaterialSpec, anhysteretic_implicit
from .dataio import CurveKind, MagnetizationCurve

GRID_MATERIAL = MaterialSpec(Ms=1.6e6, T=303.5)

GRID_ROWS: tuple[tuple[float, float], ...] = (
    (972.0, 1.4e-3),
    (972.0, 1.0e-3),
    (972.0, 1.8e-3),
    (800.0, 1.4e-3),
    (1000.0, 1.4e-3),
    (1200.0, 1.4e-3),
)

N_SAMPLES = 200
H_MAX = 1.0e4


@dataclass(frozen=True)
class RowResult:
    aJ_true: float
    alpha_true: float
    rms: float
    bound: float
    passed: bool
    report: FitReport
    elapsed: float


def synthetic_curve(
    aJ: float, alpha: float, material: MaterialSpec = GRID_MATERIAL,
    n: int = N_SAMPLES, h_max: float = H_MAX,
) -> MagnetizationCurve:
    """Noiseless anhysteretic curve on n equally spaced fields in (0, h_max]."""
    fields = np.linspace(h_max / n, h_max, n)
    params = AnhystereticParams.from_shape(aJ, alpha, material.T)
    M = anhysteretic_implicit(fields, params, material.Ms)
    return MagnetizationCurve(H=fields, M=M, kind=CurveKind.ANHYSTERETIC)


def run_row(
    aJ: float, alpha: float, cfg: AnhystereticFitConfig,
) -> RowResult:
    """Fit the noiseless curve of one grid row on :data:`GRID_MATERIAL`."""
    data = synthetic_curve(aJ, alpha)
    t0 = time.perf_counter()
    report = fit_anhysteretic(data, GRID_MATERIAL, cfg)
    elapsed = time.perf_counter() - t0
    return RowResult(
        aJ_true=aJ, alpha_true=alpha, rms=report.residual_rms,
        bound=RMS_BOUND_FRACTION * MU0 * GRID_MATERIAL.Ms,
        passed=report.fit_condition_met, report=report, elapsed=elapsed,
    )


def run_grid(cfg: AnhystereticFitConfig) -> list[RowResult]:
    """Round-trip every grid row with the sweep settings ``cfg``."""
    return [run_row(aJ, alpha, cfg) for aJ, alpha in GRID_ROWS]
