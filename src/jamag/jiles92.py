"""Hysteresis-loop parameter estimation by regression on the loop's ODE.

With s = dM/dH on a branch of direction delta, dm = M_an - M and M_an' the
slope of the self-consistent anhysteretic curve, the simulator's ODE reads

    delta*s*k + delta*(s - M_an')*(k*c) - alpha*dm*(s - M_an')*c = dm*(1 + alpha*s),

linear in (k, k*c, c) given (aJ, alpha).  Those come from an anhysteretic
curve, where H = aJ*L^-1(M/Ms) - alpha*M is linear in them, or else from the
loop by variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10(2):413,
1973).  One simulation to the loop's own tip judges the fit.  ``estimate`` no
longer calls the closed forms of Jiles' 1992 procedure (IEEE Trans. Magn. 28(5):2602) below.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass
from logging import getLogger

import numpy as np

from .core import (
    MU0, MaterialSpec, _implicit_array, _langevin_inverse_array, _slope_raw, langevin, langevin_inverse,
    langevin_prime,
)
from .dataio import LoopFeatures, MagnetizationCurve, split_branches
from .errors import DataError, JamagError, NonPhysicalParameterWarning, SingularDenominator, UnstableParams
from .rootfind import expand_bracket, find_root
from .simulate import _MAN_REL_TOL, FieldWaveform, HysteresisParams, integrate

_SIM_CYCLES = 2  # cycles of the one simulation that judges the fit; the last is compared with the loop
_SIM_STEPS = 600  # steps per segment of that simulation
_SEARCH_ROWS = 1000  # most loop rows, evenly strided, in each evaluation of the loop route's search
_KAPPA_SCAN = np.linspace(0.0, 0.95, 20)  # starts of the loop route, on the chi_an line
_GN_MAX = 50  # Gauss-Newton steps at most
_GN_STEP_TOL = 1e-10  # a step in (log aJ, kappa) within this ends Gauss-Newton
_FD_STEP = 1e-7  # forward-difference step in (log aJ, kappa) of the loop route's Jacobian

_logger = getLogger(__name__)


@dataclass(frozen=True)
class Jiles92Config:
    """Fit check of :func:`estimate`: ``fit_tol`` is the MSE threshold on mu0-scaled
    magnetization, in T^2, of the one simulated loop against the measured one."""

    fit_tol: float = 1.0e-3

    def __post_init__(self) -> None:
        if not 0.0 < self.fit_tol < np.inf:
            raise ValueError(f"fit_tol must be positive and finite, got {self.fit_tol}")


@dataclass(frozen=True)
class Jiles92Result:
    """Fitted parameters, the MSE of their one simulation, and where (aJ, alpha) came
    from: ``route`` "anhysteretic" or "loop", in ``iterations`` Gauss-Newton steps."""

    params: HysteresisParams
    mse: float
    fit_condition_met: bool
    route: str
    iterations: int


def c_from_susceptibilities(chi_in: float, chi_an: float) -> float:
    """Reversibility fraction c = chi_in / chi_an (expected in (0, 1)).

    c >= 1 and c <= 0 are returned with a warning; at c = 1 the pinning
    term drops out of the loop equations.
    """
    if chi_an == 0.0:
        raise DataError("chi_an is zero")
    c = chi_in / chi_an
    if c >= 1.0 or c <= 0.0:
        warnings.warn(
            f"c = {c:.6g} outside the physical range (0, 1)",
            NonPhysicalParameterWarning,
            stacklevel=2,
        )
    return c


def aj_initial(Ms: float, chi_an: float, alpha: float) -> float:
    """First shape-parameter guess, aJ = (Ms/3) * (1/chi_an + alpha)."""
    if chi_an == 0.0:
        raise DataError("chi_an is zero")
    return (Ms / 3.0) * (1.0 / chi_an + alpha)


def k_from_coercive(features: LoopFeatures, c: float, aJ: float, alpha: float, Ms: float) -> float:
    """Pinning strength from the coercive point of the loop.

    k = M_an(Hc)/(1-c) * [alpha + 1/( chi_max/(1-c) - c*M_an'(Hc)/(1-c) )]
    with the anhysteretic curve taken at M = 0 (the loop state at Hc).
    """
    if c == 1.0:
        raise JamagError("c = 1: the pinning term drops out of the loop equations")
    man_c = Ms * langevin(features.Hc / aJ)
    slope_c = _slope_raw(features.Hc, 0.0, aJ, alpha, Ms)
    inner = features.chi_max / (1.0 - c) - c * slope_c / (1.0 - c)
    if inner == 0.0:
        raise SingularDenominator("chi_max/(1-c) - c*M_an'(Hc)/(1-c) vanished")
    return man_c / (1.0 - c) * (alpha + 1.0 / inner)


def alpha_update(
    features: LoopFeatures, c: float, k: float, aJ: float, Ms: float, *, guess: float
) -> float:
    """Coupling from the remanence balance, solved around ``guess``.

    Root of  Mr = M_an(Mr) + k / [ alpha/(1-c) + 1/(chi_r - c*M_an'(Mr)) ]
    where the anhysteretic curve sits at H = 0, M = Mr.
    """
    if c == 1.0:
        raise JamagError("c = 1: remanence equation degenerates")
    Mr = features.Mr
    chi_r = features.chi_r

    def g(alpha: float) -> float:
        man_r = Ms * langevin(alpha * Mr / aJ)
        slope_r = _slope_raw(0.0, Mr, aJ, alpha, Ms)
        inner = chi_r - c * slope_r
        if inner == 0.0:
            raise SingularDenominator("chi_r - c*M_an'(Mr) vanished")
        outer = alpha / (1.0 - c) + 1.0 / inner
        if outer == 0.0:
            raise SingularDenominator("remanence denominator vanished")
        return man_r + k / outer - Mr

    bracket = expand_bracket(g, guess, lo_limit=0.0)
    return find_root(g, bracket, abs_tol=1e-12, rel_tol=1e-10)


def aj_update(features: LoopFeatures, c: float, k: float, alpha: float, Ms: float) -> float:
    """Shape parameter from the loop-tip balance, in closed form.

    Mm = M_an(Hm) - pinned, pinned = (1-c)*k*chi_m / (alpha*chi_m + 1), with M_an at the tip
    effective field he = Hm + alpha*Mm, gives aJ = he / L^-1((Mm + pinned)/Ms).  Raises
    :class:`JamagError` unless he > 0 and 0 < (Mm + pinned)/Ms < 1: no aJ > 0 balances the tip.
    """
    denom = alpha * features.chi_m + 1.0
    if denom == 0.0:
        raise SingularDenominator("alpha*chi_m + 1 vanished")
    pinned = (1.0 - c) * k * features.chi_m / denom
    he = features.Hm + alpha * features.Mm
    y = (features.Mm + pinned) / Ms
    if not (he > 0.0 and 0.0 < y < 1.0):  # the range check is langevin_inverse's, named for the tip
        raise JamagError(f"no aJ > 0 balances the loop tip: y = (Mm + pinned)/Ms = {y:.6g}, he = Hm + "
                         f"alpha*Mm = {he:.6g} A/m, and L(he/aJ) = y needs 0 < y < 1 and he > 0")
    return he / langevin_inverse(y)


def _loop_mse(sim: MagnetizationCurve, waveform: FieldWaveform, measured) -> float:
    """MSE of mu0-scaled magnetization, simulated vs measured, per branch.

    ``measured`` is the :func:`split_branches` result of the measured loop
    and ``sim`` the ``integrate`` output on the cyclic ``waveform``, whose
    last two segments are the simulated descending and ascending branches.
    """
    (Hd, Md), (Ha, Ma) = measured
    desc = waveform.segment_slice(waveform.n_segments - 2)
    asc = waveform.segment_slice(waveform.n_segments - 1)
    md_hat = np.interp(Hd, sim.H[desc][::-1], sim.M[desc][::-1])
    ma_hat = np.interp(Ha, sim.H[asc], sim.M[asc])
    err = MU0 * np.concatenate([md_hat - Md, ma_hat - Ma])
    return float(np.mean(err * err))


def _params(p: np.ndarray, Ms: float) -> tuple[float, float]:
    """(aJ, alpha) at p = (log aJ, kappa), kappa = alpha*Ms/(3*aJ)."""
    aJ = math.exp(p[0])
    return aJ, 3.0 * float(p[1]) * aJ / Ms


def _gauss_newton(residual, jacobian, p: np.ndarray) -> tuple[np.ndarray, int]:
    """Damped Gauss-Newton from ``p``: halves a step that does not reduce the sum of squares
    or puts kappa at 1 or past it; stops at a step within ``_GN_STEP_TOL``.  Returns p, steps."""
    r = residual(p)
    for it in range(_GN_MAX):
        step = np.linalg.lstsq(jacobian(p, r), -r, rcond=None)[0]
        while np.max(np.abs(step)) > _GN_STEP_TOL:
            with contextlib.suppress(UnstableParams):
                trial = residual(p + step)
                if trial @ trial < r @ r:
                    break
            step = step / 2.0
        else:
            return p, it
        p, r = p + step, trial
    return p, _GN_MAX


def _anhysteretic_fit(anh: MagnetizationCurve, Ms: float) -> tuple[np.ndarray, int]:
    """(log aJ, kappa) of an anhysteretic curve and the Gauss-Newton steps: least squares on
    H = aJ*L^-1(M/Ms) - alpha*M where H > 0 and 0 < M < Ms, then Gauss-Newton on M, with
    dM/daJ = -q*x, dM/dalpha = q*M, q = t/(aJ - alpha*t), t = Ms*L'(x), x = (H + alpha*M)/aJ."""
    H, M = anh.H, anh.M
    use = (H > 0.0) & (M > 0.0) & (M < Ms)
    if np.count_nonzero(use) < 2:
        raise DataError(f"anhysteretic curve has {np.count_nonzero(use)} samples with H > 0, 0 < M < Ms; 2 needed")
    x = _langevin_inverse_array(M[use] / Ms)
    (aJ, alpha), *_ = np.linalg.lstsq(np.column_stack([x, -M[use]]), H[use], rcond=None)
    if not aJ > 0.0:
        raise JamagError(f"the anhysteretic curve's linear fit gives aJ = {aJ:.6g} A/m; aJ > 0 is needed")

    def jacobian(p, r):  # d/d(log aJ) = aJ*dM/daJ + alpha*dM/dalpha = -q*H at fixed kappa
        aJ, alpha = _params(p, Ms)
        t = Ms * langevin_prime((H + alpha * (M + r)) / aJ)
        q = t / (aJ - alpha * t)
        return np.column_stack([-q * H, (3.0 * aJ / Ms) * q * (M + r)])

    def residual(p):
        return _implicit_array(H, *_params(p, Ms), Ms, _MAN_REL_TOL * Ms) - M

    return _gauss_newton(residual, jacobian, np.array([math.log(aJ), alpha * Ms / (3.0 * aJ)]))


def _slope5(H: np.ndarray, M: np.ndarray) -> np.ndarray:
    """dM/dH at samples 2 to n - 3 of a branch: the slope of the quartic through each
    sample and its two neighbours on either side (any spacing)."""
    n = max(H.size - 4, 0)
    d = {k: H[2 + k : 2 + k + n] - H[2 : 2 + n] for k in (-2, -1, 1, 2)}
    s = -sum(1.0 / dk for dk in d.values()) * M[2 : 2 + n]
    for j, dj in d.items():
        rest = [dk for k, dk in d.items() if k != j]
        s += np.prod([-dk for dk in rest], axis=0) / (dj * np.prod([dj - dk for dk in rest], axis=0)) \
            * M[2 + j : 2 + j + n]
    return s


def _branch_rows(measured) -> np.ndarray:
    """(H, M, s, delta, w) of the branches, less repeated fields and two samples at each end:
    s = dM/dH by :func:`_slope5`, w = (e_med/e)^2 where e = |s - np.gradient| tops its median
    e_med, else 1.  e estimates the three-point slope's error; the five-point one's goes as e^2."""
    parts = []
    for delta, (H, M) in zip((-1.0, 1.0), measured):
        keep = np.diff(H, prepend=np.nan) != 0.0
        H, M = H[keep], M[keep]
        s = _slope5(H, M)
        i = slice(2, 2 + s.size)
        parts.append(np.stack([H[i], M[i], s, np.full(s.size, delta), np.abs(s - np.gradient(M, H)[i])]))
    rows = np.concatenate(parts, axis=1)
    if rows.shape[1] < 3:
        raise DataError(f"the loop's branches give {rows.shape[1]} regression rows; k and c need 3")
    e, e_med = rows[4], np.median(rows[4])
    rows[4] = np.divide(e_med, e, out=np.ones_like(e), where=e > e_med) ** 2
    return rows


def _regression(rows: np.ndarray, aJ: float, alpha: float, Ms: float) -> tuple[np.ndarray, np.ndarray]:
    """Weighted least-squares (k, k*c, c) of the loop ODE's ``rows`` at (aJ, alpha),
    column-scaled, and the weighted rows' residuals in A/m."""
    H, M, s, delta, w = rows
    man = _implicit_array(H, aJ, alpha, Ms, _MAN_REL_TOL * Ms)
    u = s - _slope_raw(H, man, aJ, alpha, Ms)
    dm = man - M
    A = np.column_stack([delta * s, delta * u, -alpha * dm * u]) * w[:, None]
    b = dm * (1.0 + alpha * s) * w
    norms = np.linalg.norm(A, axis=0)
    norms[norms == 0.0] = 1.0
    theta = np.linalg.lstsq(A / norms, b, rcond=None)[0] / norms
    return theta, A @ theta - b


def _loop_fit(rows: np.ndarray, chi_an: float, Ms: float) -> tuple[np.ndarray, int]:
    """(log aJ, kappa) from the loop alone and the Gauss-Newton steps, by variable projection on
    ``_SEARCH_ROWS`` strided rows from the best of ``_KAPPA_SCAN`` on aJ = Ms/(3*chi_an*(1 - kappa))."""
    if chi_an == 0.0:
        raise DataError("chi_an is zero")
    sub = rows[:, :: -(-rows.shape[1] // _SEARCH_ROWS)]

    def residual(p):
        return _regression(sub, *_params(p, Ms), Ms)[1]

    def jacobian(p, r):
        return np.column_stack([(residual(p + _FD_STEP * e) - r) / _FD_STEP for e in np.eye(2)])

    starts = [np.array([math.log(Ms / (3.0 * chi_an * (1.0 - kappa))), kappa]) for kappa in _KAPPA_SCAN]
    return _gauss_newton(residual, jacobian, min(starts, key=lambda p: float(np.sum(residual(p) ** 2))))


def estimate(
    features: LoopFeatures | None,
    material: MaterialSpec,
    cfg: Jiles92Config,
    loop: MagnetizationCurve,
    anhysteretic: MagnetizationCurve | None = None,
) -> Jiles92Result:
    """Fit (aJ, alpha, c, k) to a measured loop; judge it by one simulation to the loop's tip.

    (aJ, alpha) come from ``anhysteretic`` if given (route "anhysteretic"), else from the loop and
    ``features.chi_an`` (route "loop", the only reader of ``features``); k and c from one regression on all the
    loop's rows.  The simulation takes ``_SIM_STEPS`` steps per segment.  Logs the route at INFO.  Raises DataError
    on a tip at H <= 0, JamagError on k <= 0, kappa >= 1, aJ <= 0 or a set HysteresisParams rejects.
    """
    if features is None and anhysteretic is None:
        raise TypeError("the loop route reads features.chi_an: pass features or an anhysteretic curve")
    Ms = material.Ms
    measured = split_branches(loop)
    if not (tip := float(np.max(measured[1][0]))) > 0.0:  # the top of the last ascending branch
        raise DataError(f"the loop's last ascending branch tops out at H = {tip!r} A/m; its simulation needs H > 0")
    rows = _branch_rows(measured)
    route = "loop" if anhysteretic is None else "anhysteretic"
    p, steps = _loop_fit(rows, features.chi_an, Ms) if route == "loop" else _anhysteretic_fit(anhysteretic, Ms)
    aJ, alpha = _params(p, Ms)
    (k, _, c), r = _regression(rows, aJ, alpha, Ms)
    _logger.info("route %s: aJ = %.6g A/m, alpha = %.6g after %d steps; regression rms %.6g A/m",
                 route, aJ, alpha, steps, math.sqrt(np.mean(r * r)))
    try:  # names a k that is not positive and finite, among others
        params = HysteresisParams(aJ=aJ, alpha=alpha, c=float(c), k=float(k), Ms=Ms)
    except ValueError as err:
        raise JamagError(f"the fitted parameters are not a model: {err}") from None
    waveform = FieldWaveform.cyclic(tip, cycles=_SIM_CYCLES, steps_per_segment=_SIM_STEPS)
    mse = _loop_mse(integrate(params, waveform, M0=0.0), waveform, measured)
    return Jiles92Result(params=params, mse=mse, fit_condition_met=mse <= cfg.fit_tol, route=route,
                         iterations=steps)
