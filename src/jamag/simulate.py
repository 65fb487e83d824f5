"""Hysteresis loop simulation.

The magnetization follows a first-order ODE in the applied field H:

    dM/dH = [ (M_an - M) / (delta*k - alpha*(M_an - M))  +  c * dM_an/dH ] / (1 + c)

where M_an(H) is the self-consistent anhysteretic curve, delta = sign(dH/dt)
selects the branch, k (A/m) is the pinning strength and c in [0, 1] the
reversibility fraction.  The field trace is a piecewise-linear waveform and
the ODE is integrated with fixed-step classical Runge-Kutta per segment.

M_an depends on H only, so it is pre-evaluated on each segment's half-step
grid in one vectorized solve; the stepping itself is plain arithmetic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from logging import getLogger

import numpy as np

from .core import _check_stability, _implicit_array, _slope_raw
from .dataio import CurveKind, MagnetizationCurve
from .errors import NonPhysicalParameterWarning, SingularDenominator

_logger = getLogger(__name__)


@dataclass(frozen=True)
class HysteresisParams:
    """Full parameter set of the hysteresis ODE (SI units)."""

    aJ: float
    alpha: float
    c: float
    k: float
    Ms: float

    def __post_init__(self) -> None:
        for name in ("aJ", "k", "Ms"):
            v = getattr(self, name)
            if not v > 0.0:
                raise ValueError(f"{name} must be positive, got {v}")
        if not self.alpha >= 0.0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")
        if not 0.0 <= self.c <= 1.0:
            warnings.warn(
                f"reversibility fraction c = {self.c} outside [0, 1]",
                NonPhysicalParameterWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class FieldWaveform:
    """Piecewise-linear applied-field trace.

    ``targets`` are the vertex fields; each consecutive pair is one segment
    integrated in ``steps_per_segment`` equal H steps.
    """

    targets: tuple[float, ...]
    steps_per_segment: int = 2000

    def __post_init__(self) -> None:
        t = tuple(float(v) for v in self.targets)
        object.__setattr__(self, "targets", t)
        if len(t) < 2:
            raise ValueError("waveform needs at least two targets (one segment)")
        if not all(np.isfinite(t)):
            raise ValueError("waveform targets must be finite")
        if any(a == b for a, b in zip(t, t[1:])):
            raise ValueError("consecutive waveform targets must differ (zero-length segment)")
        if self.steps_per_segment < 2:
            raise ValueError(f"steps_per_segment must be at least 2, got {self.steps_per_segment}")

    @classmethod
    def cyclic(
        cls, hmax: float, *, cycles: int = 3, steps_per_segment: int = 2000, start: float = 0.0
    ) -> "FieldWaveform":
        """Initial rise from ``start`` to +hmax, then ``cycles`` full cycles."""
        if not hmax > 0.0:
            raise ValueError(f"hmax must be positive, got {hmax}")
        if cycles < 1:
            raise ValueError(f"cycles must be at least 1, got {cycles}")
        targets = (start, hmax) + (-hmax, hmax) * cycles
        return cls(targets=targets, steps_per_segment=steps_per_segment)

    @property
    def n_segments(self) -> int:
        return len(self.targets) - 1

    def segment_slice(self, i: int) -> slice:
        """Index range of segment ``i`` in the integrate() output (inclusive ends)."""
        s = self.steps_per_segment
        return slice(i * s, (i + 1) * s + 1)


def _rhs(man: float, man_slope: float, M: float, delta: float, p: HysteresisParams, clamp: bool) -> float:
    dm = man - M
    if clamp and delta * dm < 0.0:
        irr = 0.0
    else:
        denom = delta * p.k - p.alpha * dm
        if denom == 0.0:
            raise SingularDenominator(
                f"delta*k - alpha*(M_an - M) vanished (M_an - M = {dm:.6g})"
            )
        irr = dm / denom
    return (irr + p.c * man_slope) / (1.0 + p.c)


def dM_dH(H: float, M: float, delta: int, p: HysteresisParams, *, clamp: bool = False) -> float:
    """Right-hand side of the hysteresis ODE at a single point.

    ``delta`` must be +1 (ascending field) or -1 (descending).  With
    ``clamp=True`` the irreversible term is zeroed whenever it would drive
    M away from the anhysteretic curve (delta*(M_an - M) < 0), a common
    regularization for loop tips.  Raises :class:`SingularDenominator`
    when the pinning denominator vanishes.
    """
    if delta not in (1, -1):
        raise ValueError(f"delta must be +1 or -1, got {delta}")
    _check_stability(p.aJ, p.alpha, p.Ms)
    man = float(_implicit_array(np.array([float(H)]), p.aJ, p.alpha, p.Ms, 1e-12 * p.Ms, 200)[0])
    man_slope = _slope_raw(H, man, p.aJ, p.alpha, p.Ms)
    return _rhs(man, man_slope, M, float(delta), p, clamp)


def integrate(
    p: HysteresisParams,
    waveform: FieldWaveform,
    M0: float = 0.0,
    *,
    clamp: bool = False,
) -> MagnetizationCurve:
    """Integrate the hysteresis ODE along a field waveform.

    Classical fixed-step RK4 per segment (the anhysteretic curve and its
    slope are pre-evaluated on the half-step grid).  Returns the sampled
    trajectory, one point per step plus the initial point; committed M
    values are limited to [-Ms, Ms].  A vanishing pinning denominator is
    reported with the failing global step index.
    """
    if abs(M0) > p.Ms:
        raise ValueError(f"|M0| = {abs(M0)} exceeds Ms = {p.Ms}")
    _check_stability(p.aJ, p.alpha, p.Ms)

    S = waveform.steps_per_segment
    tol = 1e-12 * p.Ms
    H_out = np.empty(waveform.n_segments * S + 1)
    M_out = np.empty_like(H_out)
    H_out[0] = waveform.targets[0]
    M_out[0] = M = float(M0)

    step_base = 0
    for seg in range(waveform.n_segments):
        h0, h1 = waveform.targets[seg], waveform.targets[seg + 1]
        delta = 1.0 if h1 > h0 else -1.0
        grid = np.linspace(h0, h1, 2 * S + 1)
        man = _implicit_array(grid, p.aJ, p.alpha, p.Ms, tol, 200)
        slope = _slope_raw(grid, man, p.aJ, p.alpha, p.Ms)
        h = (h1 - h0) / S

        for i in range(S):
            n0, nh, n1 = 2 * i, 2 * i + 1, 2 * i + 2
            try:
                k1 = _rhs(man[n0], slope[n0], M, delta, p, clamp)
                k2 = _rhs(man[nh], slope[nh], M + 0.5 * h * k1, delta, p, clamp)
                k3 = _rhs(man[nh], slope[nh], M + 0.5 * h * k2, delta, p, clamp)
                k4 = _rhs(man[n1], slope[n1], M + h * k3, delta, p, clamp)
            except SingularDenominator as err:
                raise SingularDenominator(
                    f"{err} at segment {seg}, step {i}", step_index=step_base + i
                ) from None
            M = M + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if M > p.Ms:
                M = p.Ms
            elif M < -p.Ms:
                M = -p.Ms
            idx = step_base + i + 1
            H_out[idx] = grid[n1]
            M_out[idx] = M
        step_base += S

    return MagnetizationCurve(H=H_out, M=M_out, kind=CurveKind.FULL_LOOP)
