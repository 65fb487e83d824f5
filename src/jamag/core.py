"""Langevin statistics and anhysteretic magnetization curves.

The anhysteretic curve of a ferromagnet is modeled as a collection of
pseudo-domains of moment ``m`` in thermal equilibrium, which gives a Langevin
curve in the effective field ``H + alpha*M``:

    M_an = Ms * L((H + alpha*M_an) / aJ),    L(x) = coth(x) - 1/x

with ``aJ = kB*T / (mu0*m)`` the shape parameter in A/m and ``alpha`` the
dimensionless interdomain coupling.  ``aJ`` and ``m`` are two encodings of
the same quantity; both appear in reports.

The implicit curve is solved by Newton's method from below its root, at the
root of the cubic L(x) ~ x/3 - x^3/45 gives, bisecting the rare rows not done
in ``_NEWTON_STEPS`` steps.  A row is done once Newton's bound C*d^2 on its step d,
C = alpha^2*Ms*max|L''|/(2*aJ*eps), is within the tolerance: 3 steps on sweep rows.
Each step takes L' from its L: one tanh a step.  Scalar arguments use ``math``;
arrays are handled elementwise, silently where (|Ha| + alpha*M)/aJ overflows to L = 1.  SI units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import JamagError, UnstableParams
from .rootfind import find_root  # noqa: F401  # unused here; perfbench/tracer.py wraps core.find_root

KB = 1.380649e-23
"""Boltzmann constant, J/K (exact)."""

MU0 = 4e-7 * math.pi
"""Vacuum permeability, H/m."""

_X_SWITCH = 1e-3
"""Langevin series/closed-form switch point."""

_X_PRIME_BIG = 300.0
"""Above this, 1/sinh(x)^2 underflows any representable contribution."""

_X_IDENTITY_MAX = 20.0
"""Above this, L' from L is 1/x^2: the identity 1 - L*(L + 2/x) cancels."""

_IMPLICIT_REL_TOL = 1e-9
"""Default absolute tolerance for the implicit solve, as a fraction of Ms."""

_L2_MAX = 0.106  # max |L''(x)| = 0.1059636 at x = 1.3723, rounded up
_MAX_ITER = 200  # iteration cap of the implicit solve
_NEWTON_STEPS = 16  # Newton steps before a row not yet done (alpha < 0, mostly) is bracketed
_X_SATURATED = 20.0  # above this 1/tanh(x) rounds to 1, so 1/(1 - y) solves L(x) = y
_LINV_STEP_TOL = 1e-9  # langevin_inverse stops once Newton climbs by at most this fraction of x
_LINV_MAX_ITER = 50  # iteration cap of langevin_inverse


@dataclass(frozen=True)
class MaterialSpec:
    """Saturation magnetization and temperature of the specimen."""

    Ms: float
    T: float

    def __post_init__(self) -> None:
        if not 0.0 < self.Ms < math.inf:
            raise ValueError(f"Ms must be positive and finite, got {self.Ms}")
        if not 0.0 < self.T < math.inf:
            raise ValueError(f"T must be positive and finite, got {self.T}")


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
        f = x.reshape(-1)  # 1-d: ufuncs would return scalars for a 0-d x
        with np.errstate(all="ignore"):  # x = 0 gives inf - inf, replaced below
            y = np.tanh(f)
            np.subtract(np.divide(1.0, y, out=y), 1.0 / f, out=y)
        if (small := np.abs(f) < _X_SWITCH).any():
            s = f[small]
            y[small] = s * (1.0 / 3.0 + s * s * (-1.0 / 45.0 + s * s * (2.0 / 945.0)))
        return y.reshape(x.shape)
    x = float(x)
    if abs(x) < _X_SWITCH:
        x2 = x * x
        return x * (1.0 / 3.0 + x2 * (-1.0 / 45.0 + x2 * (2.0 / 945.0)))
    return 1.0 / math.tanh(x) - 1.0 / x


def langevin_prime(x, L=None):
    """Derivative of the Langevin function, 1/x^2 - 1/sinh(x)^2.

    Even, maximal at the origin where it equals 1/3; the series
    1/3 - x^2/15 is used below ``|x| = 1e-3``.  For ``|x| > 300`` a float
    drops the sinh term before it overflows; an array keeps it, as the
    difference already rounds to 1/x^2 (sinh(x)^2 is 1e260 or more, or inf).

    ``L``, if given with an array ``x``, holds ``langevin(x)``; L' is then
    formed without sinh, as 1 - L*(L + 2/x), or as 1/x^2 above ``|x| = 20``,
    where the identity cancels and the sinh term is below 7e-15 relative.
    That matches the sinh form to about 4e-15/x^2 relative below ``|x| = 1``
    and to 2e-13 up to 20.  The gap peaks at 2.7e-9 just above the series
    switch, where either form is 1.4e-9 from the exact L': both carry the
    rounding of ``langevin``.  A float ``x`` ignores ``L``.
    """
    if isinstance(x, np.ndarray):
        f = x.reshape(-1)
        ax = np.abs(f)
        with np.errstate(all="ignore"):  # x = 0, and sinh(x)^2 overflow
            if L is None:
                s = np.sinh(f)
                np.divide(1.0, np.square(s, out=s), out=s)  # 1/sinh(x)^2
                y = f * f
                np.subtract(np.divide(1.0, y, out=y), s, out=y)
            else:
                l = L.reshape(-1)
                y = np.divide(2.0, f)
                np.subtract(1.0, np.multiply(l, np.add(l, y, out=y), out=y), out=y)  # 1 - L*(L + 2/x)
                if (tail := ax > _X_IDENTITY_MAX).any():
                    y[tail] = 1.0 / (f[tail] * f[tail])
        if (small := ax < _X_SWITCH).any():
            y[small] = 1.0 / 3.0 - f[small] * f[small] / 15.0
        return y.reshape(x.shape)
    x = float(x)
    ax = abs(x)
    if ax < _X_SWITCH:
        return 1.0 / 3.0 - x * x / 15.0
    if ax > _X_PRIME_BIG:
        return 1.0 / (x * x)
    s = math.sinh(x)
    return 1.0 / (x * x) - 1.0 / (s * s)


def langevin_inverse(y: float) -> float:
    """The x > 0 with L(x) = y, for a float 0 < y < 1.

    Newton's method from the bound 1/(1 - y) (L(x) >= 1 - 1/x) where that exceeds 20 and
    is the root to rounding, else from max(3y, 1/(1 - y) - 1) (L(x) <= x/3, L(u - 1) <= 1 - 1/u).
    L is increasing and concave on x > 0, so the steps climb monotonically to the root; the
    solve stops at a climb of at most ``_LINV_STEP_TOL`` of x or at a step back (rounding).
    Raises :class:`JamagError` unless 0 < y < 1, and past ``_LINV_MAX_ITER`` steps.
    """
    if not 0.0 < y < 1.0:
        raise JamagError(f"L(x) = {y:.6g} has no root: L maps x > 0 onto (0, 1)")
    hi = 1.0 / (1.0 - y)
    x = hi if hi > _X_SATURATED else max(3.0 * y, hi - 1.0)
    for _ in range(_LINV_MAX_ITER):
        step = (y - langevin(x)) / langevin_prime(x)
        x += step
        if step <= _LINV_STEP_TOL * x:
            return x
    raise JamagError(f"inverse Langevin: no root of L(x) = {y!r} in {_LINV_MAX_ITER} Newton steps")


def _langevin_inverse_array(y: np.ndarray) -> np.ndarray:
    """:func:`langevin_inverse` of each lane of ``y`` in (0, 1), on the array L and L':
    the same start, steps and stop rule per lane.  Raises :class:`JamagError` past the cap."""
    hi = 1.0 / (1.0 - y)
    x = np.where(hi > _X_SATURATED, hi, np.maximum(3.0 * y, hi - 1.0))
    active = np.ones(x.shape, dtype=bool)
    for _ in range(_LINV_MAX_ITER):
        step = (y - langevin(x)) / langevin_prime(x)
        x = np.where(active, x + step, x)
        active &= step > _LINV_STEP_TOL * x
        if not active.any():
            return x
    raise JamagError(f"inverse Langevin: {np.count_nonzero(active)} lanes without a root in {_LINV_MAX_ITER} steps")


def anhysteretic_explicit(Ha, Ms: float, a: float):
    """Langevin paramagnet magnetization Ms * L(Ha / a), no coupling."""
    if not a > 0.0:
        raise ValueError(f"shape parameter a must be positive, got {a}")
    return Ms * langevin(Ha / a)


def _implicit_array(
    Ha: np.ndarray,
    aJ: float | np.ndarray,
    alpha: float | np.ndarray,
    Ms: float,
    abs_tol: float,
) -> np.ndarray:
    """Vectorized Newton solve of M = Ms*L((|Ha| + alpha*M)/aJ) on [0, Ms].

    The start Ms*L(x_c), A = |Ha|, is at or below the root: x_c solves the
    cubic eps*x + (alpha*Ms/45)*x^3 = A, eps = aJ - alpha*Ms/3, and L(x) >=
    x/3 - x^3/45 on x >= 0.  M - Ms*L(x) increases, convex where x >= 0, so the
    first step lands at or above the root and Newton descends from there
    unbracketed.  alpha <= 0 gives the uncoupled start A/aJ.  Rows not done in
    ``_NEWTON_STEPS`` steps (alpha*Ms/(3*aJ) < -1, or near stability at mA/m
    fields) switch on a [lo, hi] bracket from [0, Ms] that bisects any step
    leaving it, so every row terminates.
    This is the only solver of the implicit curve; scalar fields reach it as
    one-element arrays.

    Float ``aJ``/``alpha`` and fields ``Ha`` of shape ``(n,)`` give one curve.
    ``(P, 1)`` arrays give P curves, solved in lockstep as ``(P, n)``: each row
    stops on its own test of its step d = max |M_new - M| and leaves the active
    rows, and every elementwise operation is the single-curve one, so row i has
    the bits of the call with ``aJ[i, 0]``, ``alpha[i, 0]``.  The test: f(M) =
    M - Ms*L(x) has f' >= eps/aJ and |f''| <= (alpha/aJ)^2*Ms*L2, L2 = max|L''|, so
    Taylor's |f(M_new)| <= |f''|*d^2/2 puts M_new within C*d^2 of the root, C =
    alpha^2*Ms*L2/(2*aJ*eps).  A Newton-phase row is done when C*d^2 <= abs_tol - r,
    r = 8 ulps of Ms over eps/aJ for f's rounding, or when d <= abs_tol, as in the bracket.
    It alone decides stability: :class:`UnstableParams` if a row's eps, which
    the start divides by, is not positive (alpha*Ms/(3*aJ) >= 1, to rounding),
    :class:`JamagError` if a row is not done in ``_MAX_ITER`` iterations.
    """
    sign = np.sign(Ha)
    A = np.abs(Ha.astype(np.float64, copy=False))
    a = np.maximum(alpha, 0.0)  # alpha <= 0 starts on the uncoupled curve, H = 0 lanes on M = 0
    eps = aJ - a * Ms / 3.0
    if not np.all(eps > 0.0):  # the first such row's ratio
        ratio = np.ravel(alpha * Ms / (3.0 * aJ))[np.argmin(np.ravel(eps > 0.0))]
        raise UnstableParams(f"alpha*Ms/(3*aJ) = {ratio:.6g} >= 1; the anhysteretic curve is multivalued")
    with np.errstate(over="ignore", invalid="ignore"):  # w past ~1e154 gives c = inf, x = 0: below the root
        x = A / eps  # times 3c/(c^2 + c + 1), c = cbrt(w + sqrt(w^2 + 1))^2: x_c, free of cancellation
        w = np.sqrt(0.15 * a * Ms / eps) / eps * A
        c = np.multiply(w, w)
        c = np.square(np.cbrt(np.add(w, np.sqrt(np.add(c, 1.0, out=c), out=c), out=c), out=c), out=c)
        x *= np.divide(3.0, np.add(np.add(c, 1.0, out=w), np.divide(1.0, c, out=c), out=c), out=c)
    np.fmax(x, 0.0, out=x)  # where A/eps overflows too, inf*0 gives NaN: 0 there as well, and Newton climbs
    M = np.multiply(Ms, langevin(x), out=x)
    kappa = alpha * Ms / aJ
    with np.errstate(divide="ignore", invalid="ignore"):  # the largest d a row may stop on: inf if C = 0
        slack = np.maximum(abs_tol - 8 * 2.0**-52 * Ms * aJ / eps, 0.0)  # abs_tol - r; if none, d <= abs_tol
        d_max = np.ravel(np.fmax(abs_tol, np.sqrt(slack / (kappa * alpha * (_L2_MAX / 2.0) / eps))))
    out, rows = w, np.arange(len(M))  # the result, in the start's scratch; out index of each active row
    buf = c  # x of each iteration
    lo = hi = None  # the safeguard bracket, off for the first _NEWTON_STEPS iterations

    with np.errstate(over="ignore"):  # x = inf past the float range: L = 1, M = Ms there
        for it in range(_MAX_ITER):
            if it == _NEWTON_STEPS:  # switch on the bracket; H = 0 lanes stay on their root
                lo = np.zeros_like(M)
                hi = np.where(A > 0.0, Ms, lo)
                d_max[:] = abs_tol
            x = buf[: len(M)]  # the first rows of one buffer: rows only ever leave
            np.divide(np.add(A, np.multiply(alpha, M, out=x), out=x), aJ, out=x)  # x = (A + alpha*M) / aJ
            g = langevin(x)
            gp = langevin_prime(x, g)
            np.subtract(M, np.multiply(Ms, g, out=g), out=g)  # g = M - Ms*L(x)
            np.subtract(1.0, np.multiply(kappa, gp, out=gp), out=gp)  # gp = 1 - kappa*L'(x)
            M_new = np.subtract(M, np.divide(g, gp, out=gp), out=gp)  # Newton step
            if lo is not None:  # shrink the bracket; bisect the lanes whose step leaves it
                lo, hi = np.where(g < 0.0, M, lo), np.where(g > 0.0, M, hi)
                M_new = np.where((M_new <= lo) | (M_new >= hi), 0.5 * (lo + hi), M_new)
            done = np.max(np.abs(np.subtract(M_new, M, out=x), out=x), axis=-1) <= d_max
            if done.all():
                out[rows] = M_new
                return sign * out
            if done.any():  # only a block (2-D) gets here: compact to the active rows
                out[rows[done]] = M_new[done]
                keep = ~done
                rows, M_new, aJ, alpha, kappa, d_max = (v[keep] for v in (rows, M_new, aJ, alpha, kappa, d_max))
                if lo is not None:
                    lo, hi = lo[keep], hi[keep]
            M = M_new

    raise JamagError(f"implicit anhysteretic solve: {_MAX_ITER} iterations without reaching "
                     f"tolerance {abs_tol:.3g}")


def anhysteretic_implicit(
    Ha,
    params: AnhystereticParams,
    Ms: float,
    *,
    abs_tol: float | None = None,
):
    """Self-consistent anhysteretic magnetization at applied field ``Ha``.

    Solves M = Ms * L((Ha + alpha*M)/aJ) by Newton iteration from below the
    root, bracketed in [0, Ms] if not done in ``_NEWTON_STEPS`` steps
    (mirrored for negative fields, so the result is exactly odd).
    Default tolerance is 1e-9 * Ms.  The solve raises :class:`UnstableParams`
    when ``alpha*Ms/(3*aJ) >= 1``, to rounding.  Accepts a float or a numpy
    array of fields; a float is solved as a one-element array and returned
    as a float, so it has the same bits as that array solve.
    """
    tol = _IMPLICIT_REL_TOL * Ms if abs_tol is None else abs_tol
    if isinstance(Ha, np.ndarray):
        return _implicit_array(Ha, params.aJ, params.alpha, Ms, tol)
    return float(_implicit_array(np.array([float(Ha)]), params.aJ, params.alpha, Ms, tol)[0])


def _slope_raw(Ha, M, aJ: float, alpha: float, Ms: float):
    x = (Ha + alpha * M) / aJ
    t = (Ms / aJ) * langevin_prime(x)
    denom = 1.0 - alpha * t
    if isinstance(denom, np.ndarray):
        if np.any(denom <= 0.0):
            raise JamagError("1 - alpha*(Ms/aJ)*L'(x) <= 0 on the grid")
    elif denom <= 0.0:
        raise JamagError(f"1 - alpha*(Ms/aJ)*L'(x) = {denom:.6g} <= 0 at Ha={Ha}, M={M}")
    return t / denom


def anhysteretic_slope(Ha, M, params: AnhystereticParams, Ms: float):
    """Differential susceptibility dM_an/dH of the implicit curve at (Ha, M).

    Implicit-function rule: with x = (Ha + alpha*M)/aJ and
    t = (Ms/aJ)*L'(x), the slope is t / (1 - alpha*t).  At the origin this
    reduces to Ms/(3*aJ) for alpha = 0.  Raises :class:`JamagError`
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
