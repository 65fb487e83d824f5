"""Langevin statistics and anhysteretic magnetization curves.

The anhysteretic curve of a ferromagnet is modeled as a collection of
pseudo-domains of moment ``m`` in thermal equilibrium, which gives a Langevin
curve in the effective field ``H + alpha*M``:

    M_an = Ms * L((H + alpha*M_an) / aJ),    L(x) = coth(x) - 1/x

with ``aJ = kB*T / (mu0*m)`` the shape parameter in A/m and ``alpha`` the
dimensionless interdomain coupling.  ``aJ`` and ``m`` are two encodings of
the same quantity; both appear in reports.

Scalar arguments use plain ``math`` calls; numpy arrays are handled
elementwise.  All quantities are SI (A/m, K, A*m^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, SingularSlope, UnstableParams
from .rootfind import find_root  # noqa: F401  # unused here; perfbench/tracer.py wraps core.find_root

KB = 1.380649e-23
"""Boltzmann constant, J/K (exact)."""

MU0 = 4e-7 * math.pi
"""Vacuum permeability, H/m."""

_X_SWITCH = 1e-3
"""Langevin series/closed-form switch point."""

_X_PRIME_BIG = 300.0
"""Above this, 1/sinh(x)^2 underflows any representable contribution."""

_IMPLICIT_REL_TOL = 1e-9
"""Default absolute tolerance for the implicit solve, as a fraction of Ms."""


@dataclass(frozen=True)
class MaterialSpec:
    """Saturation magnetization and temperature of the specimen."""

    Ms: float
    T: float

    def __post_init__(self) -> None:
        if not self.Ms > 0.0:
            raise ValueError(f"Ms must be positive, got {self.Ms}")
        if not self.T > 0.0:
            raise ValueError(f"T must be positive, got {self.T}")


@dataclass(frozen=True)
class AnhystereticParams:
    """Parameters of the anhysteretic curve.

    ``aJ`` (A/m) and ``m`` (A*m^2) are redundant by construction:
    ``aJ * m == kB*T/mu0`` at the temperature used to build the instance.
    Use :meth:`from_shape` or :meth:`from_moment` to keep them consistent.
    """

    aJ: float
    alpha: float
    m: float

    def __post_init__(self) -> None:
        if not self.aJ > 0.0:
            raise ValueError(f"aJ must be positive, got {self.aJ}")
        if not self.m > 0.0:
            raise ValueError(f"m must be positive, got {self.m}")
        if not self.alpha >= 0.0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")

    @classmethod
    def from_shape(cls, aJ: float, alpha: float, T: float) -> "AnhystereticParams":
        return cls(aJ=aJ, alpha=alpha, m=KB * T / (MU0 * aJ))

    @classmethod
    def from_moment(cls, m: float, alpha: float, T: float) -> "AnhystereticParams":
        return cls(aJ=KB * T / (MU0 * m), alpha=alpha, m=m)


def langevin(x):
    """Langevin function L(x) = coth(x) - 1/x.

    Odd, bounded by (-1, 1), slope 1/3 at the origin.  Below
    ``|x| = 1e-3`` the closed form loses digits to cancellation, so the
    series x/3 - x^3/45 + 2x^5/945 is used there; the truncation error at
    the switch point is below 1e-21.  Accepts floats or numpy arrays.
    """
    if isinstance(x, np.ndarray):
        small = np.abs(x) < _X_SWITCH
        xs = np.where(small, 1.0, x)  # keep 1/x finite in masked lanes
        closed = 1.0 / np.tanh(xs) - 1.0 / xs
        x2 = x * x
        series = x * (1.0 / 3.0 + x2 * (-1.0 / 45.0 + x2 * (2.0 / 945.0)))
        return np.where(small, series, closed)
    x = float(x)
    if abs(x) < _X_SWITCH:
        x2 = x * x
        return x * (1.0 / 3.0 + x2 * (-1.0 / 45.0 + x2 * (2.0 / 945.0)))
    return 1.0 / math.tanh(x) - 1.0 / x


def langevin_prime(x):
    """Derivative of the Langevin function, 1/x^2 - 1/sinh(x)^2.

    Even, maximal at the origin where it equals 1/3; the series
    1/3 - x^2/15 is used below ``|x| = 1e-3``.  For ``|x| > 300`` the
    sinh term is dropped before it overflows (it is below 1e-260 there).
    Accepts floats or numpy arrays.
    """
    if isinstance(x, np.ndarray):
        ax = np.abs(x)
        small = ax < _X_SWITCH
        big = ax > _X_PRIME_BIG
        xs = np.where(small, 1.0, np.where(big, 1.0, x))
        closed = 1.0 / (xs * xs) - 1.0 / np.sinh(xs) ** 2
        series = 1.0 / 3.0 - x * x / 15.0
        safe_big = np.where(big, x, 1.0)
        return np.where(small, series, np.where(big, 1.0 / (safe_big * safe_big), closed))
    x = float(x)
    ax = abs(x)
    if ax < _X_SWITCH:
        return 1.0 / 3.0 - x * x / 15.0
    if ax > _X_PRIME_BIG:
        return 1.0 / (x * x)
    s = math.sinh(x)
    return 1.0 / (x * x) - 1.0 / (s * s)


def anhysteretic_explicit(Ha, Ms: float, a: float):
    """Langevin paramagnet magnetization Ms * L(Ha / a), no coupling."""
    if not a > 0.0:
        raise ValueError(f"shape parameter a must be positive, got {a}")
    return Ms * langevin(Ha / a)


def _check_stability(aJ: float, alpha: float, Ms: float) -> None:
    # alpha*Ms/(3*aJ) >= 1 makes the implicit curve multivalued.
    if alpha * Ms / (3.0 * aJ) >= 1.0:
        raise UnstableParams(
            f"alpha*Ms/(3*aJ) = {alpha * Ms / (3.0 * aJ):.6g} >= 1; "
            "the anhysteretic curve is multivalued"
        )


def _implicit_array(
    Ha: np.ndarray,
    aJ: float,
    alpha: float,
    Ms: float,
    abs_tol: float,
    max_iter: int,
) -> np.ndarray:
    """Vectorized bracketed solve of M = Ms*L((|Ha| + alpha*M)/aJ) on [0, Ms].

    Newton steps from the uncoupled curve, clipped into a shrinking
    [lo, hi] bracket (bisection fallback), so convergence is guaranteed for
    the monotone residual.  This is the only solver of the implicit curve;
    scalar fields reach it as one-element arrays.
    """
    sign = np.sign(Ha)
    A = np.abs(Ha.astype(np.float64, copy=False))
    lo = np.zeros_like(A)
    hi = np.full_like(A, Ms)
    M = Ms * langevin(A / aJ)  # alpha=0 start, underestimates for alpha>0

    for _ in range(max_iter):
        x = (A + alpha * M) / aJ
        g = M - Ms * langevin(x)
        gp = 1.0 - (alpha * Ms / aJ) * langevin_prime(x)
        lo = np.where(g < 0.0, M, lo)
        hi = np.where(g > 0.0, M, hi)
        step = g / gp
        M_new = M - step
        outside = (M_new <= lo) | (M_new >= hi)
        M_new = np.where(outside, 0.5 * (lo + hi), M_new)
        if np.max(np.abs(M_new - M)) <= abs_tol:
            return sign * M_new
        M = M_new

    raise NoConvergence(
        f"implicit anhysteretic solve: {max_iter} iterations without reaching "
        f"tolerance {abs_tol:.3g}"
    )


def anhysteretic_implicit(
    Ha,
    params: AnhystereticParams,
    Ms: float,
    *,
    abs_tol: float | None = None,
    max_iter: int = 200,
):
    """Self-consistent anhysteretic magnetization at applied field ``Ha``.

    Solves M = Ms * L((Ha + alpha*M)/aJ) by bracketed Newton iteration on
    [0, Ms] (mirrored for negative fields, so the result is exactly odd).
    Default tolerance is 1e-9 * Ms.  Raises :class:`UnstableParams` when
    ``alpha*Ms/(3*aJ) >= 1``.  Accepts a float or a numpy array of fields;
    a float is solved as a one-element array and returned as a float, so
    it has the same bits as that array solve.
    """
    _check_stability(params.aJ, params.alpha, Ms)
    tol = _IMPLICIT_REL_TOL * Ms if abs_tol is None else abs_tol
    if isinstance(Ha, np.ndarray):
        return _implicit_array(Ha, params.aJ, params.alpha, Ms, tol, max_iter)
    one = np.array([float(Ha)])
    return float(_implicit_array(one, params.aJ, params.alpha, Ms, tol, max_iter)[0])


def _slope_raw(Ha, M, aJ: float, alpha: float, Ms: float):
    x = (Ha + alpha * M) / aJ
    t = (Ms / aJ) * langevin_prime(x)
    denom = 1.0 - alpha * t
    if isinstance(denom, np.ndarray):
        if np.any(denom <= 0.0):
            raise SingularSlope("1 - alpha*(Ms/aJ)*L'(x) <= 0 on the grid")
    elif denom <= 0.0:
        raise SingularSlope(
            f"1 - alpha*(Ms/aJ)*L'(x) = {denom:.6g} <= 0 at Ha={Ha}, M={M}"
        )
    return t / denom


def anhysteretic_slope(Ha, M, params: AnhystereticParams, Ms: float):
    """Differential susceptibility dM_an/dH of the implicit curve at (Ha, M).

    Implicit-function rule: with x = (Ha + alpha*M)/aJ and
    t = (Ms/aJ)*L'(x), the slope is t / (1 - alpha*t).  At the origin this
    reduces to Ms/(3*aJ) for alpha = 0.  Raises :class:`SingularSlope`
    when the denominator is not positive.
    """
    return _slope_raw(Ha, M, params.aJ, params.alpha, Ms)


def moment_from_susceptibility(chi: float, Ms: float, T: float) -> float:
    """Pseudo-domain moment matching a low-field susceptibility.

    Inverts chi = mu0*m*Ms/(3*kB*T), the origin slope of the Langevin
    paramagnet: m = 3*kB*T*chi / (mu0*Ms).
    """
    if not chi > 0.0:
        raise ValueError(f"susceptibility must be positive, got {chi}")
    return 3.0 * KB * T * chi / (MU0 * Ms)


def shape_param_from_moment(m: float, T: float) -> float:
    """Shape parameter aJ = kB*T / (mu0*m), in A/m."""
    if not m > 0.0:
        raise ValueError(f"moment must be positive, got {m}")
    return KB * T / (MU0 * m)


def alpha_from_susceptibilities(chi_param: float, chi_an: float) -> float:
    """Interdomain coupling from paramagnet-equivalent and measured slopes.

    alpha = 1/chi_param - 1/chi_an.  A negative result means the measured
    initial slope is below the equivalent paramagnet's; callers flag it
    rather than reject it.
    """
    if chi_param == 0.0 or chi_an == 0.0:
        raise ValueError("susceptibilities must be non-zero")
    return 1.0 / chi_param - 1.0 / chi_an
