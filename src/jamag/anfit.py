"""Anhysteretic parameter estimation from a measured curve.

The estimator maps the material to an equivalent Langevin paramagnet.  The
measured initial susceptibility fixes a first moment guess; the equivalent
paramagnet's high-field magnetization at a reference field ``Ha1`` is then
scaled by a factor ``eta`` swept over [eta0, eta_max).  Each ``eta`` yields
a candidate susceptibility chi_param (by inverting the Langevin curve at
``Ha1`` with :func:`~jamag.core.langevin_inverse`), hence a candidate
(aJ, alpha) pair through

    aJ = Ms / (3 * chi_param),    alpha = 1/chi_param - 1/chi_an(0)

and the winner is the candidate whose reconstructed curve has the smallest
mu0-scaled Euclidean residual against the data.

The scan evaluates every stride-th grid point, then every (stride/10)-th
and so on down to every point, each level over the span from the first to
the last tied minimum of the level before, widened by that level's stride.
The plain scan starts at stride 1, the whole grid; the coarse scan
(``coarse``) at 10^k, the largest power of ten not above the last grid
index.  Grid points are evaluated independently of scan order, in blocks
(one lockstep curve solve per block, each row with the bits of its own
single-curve solve), so both scans are exactly reproducible; the winner is
the smallest grid index among the minima of the evaluated norms, on a
weakly unimodal profile the plain scan's.  A norm whose sum of squares
leaves the normal range is taken on its residual scaled by a power of two,
an exact scaling, so it is rounded like an in-range norm rather than 0 or
inf; every other norm has ``np.linalg.norm``'s bits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from logging import getLogger

import numpy as np

from .core import (
    MU0,
    MaterialSpec,
    _IMPLICIT_REL_TOL,
    _implicit_array,
    anhysteretic_explicit,
    langevin_inverse,
    moment_from_susceptibility,
    shape_param_from_moment,
    alpha_from_susceptibilities,
)
from .dataio import MagnetizationCurve
from .errors import DataError, JamagError, UnstableParams
from .rootfind import find_root  # noqa: F401  # unused here; perfbench/tracer.py wraps anfit.find_root

RMS_BOUND_FRACTION = 0.01
"""A fit meets its condition when its residual RMS is at most this fraction of mu0*Ms."""

_BLOCK_POINTS = 16384
"""Fields times candidates per lockstep curve solve of the sweep (81 rows of 200 samples)."""

_logger = getLogger(__name__)


@dataclass(frozen=True)
class AnhystereticFitConfig:
    """Sweep settings for :func:`fit_anhysteretic`.

    ``ha1`` is the high-field reference (A/m), ``eta0``/``eta_max`` the
    half-open sweep range and ``eps`` the grid step.  The scan's first
    stride is 1 (every grid point) or, with ``coarse=True``, the largest
    power-of-ten multiple of the step that fits the grid, followed by each
    lower decade down to 1x around the minima of the level before (about 60
    of the 10 000 default grid points); for a weakly unimodal residual
    profile the result is the plain scan's, bit for bit.  The initial
    susceptibility is fixed: :func:`initial_susceptibility`, M/H at the
    first sample with H > 0 and M > 0.
    """

    ha1: float = 1.0e6
    eta0: float = 0.9
    eps: float = 1.0e-5
    eta_max: float = 1.0
    coarse: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.ha1 < math.inf:
            raise ValueError(f"ha1 must be positive and finite, got {self.ha1}")
        if not 0.0 < self.eta0 < self.eta_max <= 1.0:
            raise ValueError(
                f"need 0 < eta0 < eta_max <= 1, got eta0={self.eta0}, eta_max={self.eta_max}"
            )
        if not 0.0 < self.eps < math.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")


@dataclass(frozen=True)
class FitReport:
    """Result of an anhysteretic fit.

    ``aJ * m == kB*T/mu0`` holds by construction.  ``alpha`` may be
    negative on data whose initial slope disagrees with the high-field
    tail; that case carries the ``NON_PHYSICAL_ALPHA`` warning code.
    ``sweep_etas``/``sweep_norms`` are the evaluated profile points in
    increasing eta order (the full grid unless coarse mode thinned it);
    ``iterations`` counts them; the norms follow the module's norm rule.
    ``fit_condition_met`` is false when the
    residual RMS ``residual_rms`` exceeds ``RMS_BOUND_FRACTION * mu0 * Ms``
    (warning ``FIT_CONDITION_NOT_MET``); a winner at either end of the grid
    carries ``SWEEP_EDGE``.
    """

    eta_star: float
    chi_param: float
    m: float
    aJ: float
    alpha: float
    chi_an_a: float
    m1: float
    residual: np.ndarray
    residual_norm: float
    residual_rms: float
    iterations: int
    sweep_etas: np.ndarray
    sweep_norms: np.ndarray
    unimodal: bool
    fit_condition_met: bool
    warnings: tuple[str, ...]


def initial_susceptibility(data: MagnetizationCurve) -> float:
    """Measured anhysteretic susceptibility at the origin.

    M/H at the first sample with H > 0 and M > 0.  Raises
    :class:`DataError` when no such sample exists.
    """
    pos = data.H > 0.0
    if not np.any(pos):
        raise DataError("no sample with H > 0")
    H = data.H[pos]
    M = data.M[pos]
    usable = M > 0.0
    if not np.any(usable):
        raise DataError("no sample with H > 0 and M > 0")
    i = int(np.argmax(usable))
    return float(M[i] / H[i])


def solve_chi_param(eta: float, chi_an1: float, Ha1: float, Ms: float) -> float:
    """Susceptibility whose Langevin paramagnet hits ``eta*chi_an1`` at Ha1.

    Solves L(x) = y, x = 3*chi*Ha1/Ms, y = eta*chi_an1*Ha1/Ms, by :func:`langevin_inverse`.
    Raises :class:`JamagError` unless 0 < eta*chi_an1*Ha1 < Ms, and past that solve's step cap.
    """
    y = eta * chi_an1 * Ha1 / Ms
    if not y < 1.0:  # also a NaN target
        raise JamagError(f"target magnetization {eta * chi_an1 * Ha1:.6g} is not below Ms = {Ms:.6g}")
    if not y > 0.0:
        raise JamagError(f"target fraction must be positive, got {y:.6g}")
    return langevin_inverse(y) * Ms / (3.0 * Ha1)


def fit_anhysteretic(
    data: MagnetizationCurve,
    material: MaterialSpec,
    cfg: AnhystereticFitConfig = AnhystereticFitConfig(),
) -> FitReport:
    """Estimate (aJ, alpha, m) from an anhysteretic curve.

    ``data`` must have strictly increasing H and at least 3 samples.
    Raises :class:`DataError` if the initial susceptibility is too large for a stable
    candidate, or so small that mu0 times its moment is not a normal double (aJ divides
    by it), and a :class:`JamagError` naming the first eta step if that step's
    candidate fails on any other numerical cause.
    """
    H, M = data.H, data.M
    if H.size < 3:
        raise DataError(f"need at least 3 samples, got {H.size}")
    if not np.all(np.diff(H) > 0.0):
        raise ValueError("fields must be strictly increasing")

    Ms, T = material.Ms, material.T
    chi_a = initial_susceptibility(data)
    m1 = moment_from_susceptibility(chi_a, Ms, T)
    if not MU0 * m1 >= sys.float_info.min:  # aJ = kB*T/(mu0*m1) needs all of mu0*m1's bits
        raise DataError(
            f"initial susceptibility {chi_a:.6g} is too small for Ms = {Ms:.6g} A/m: "
            f"the moment m = {m1:.6g} is too small for aJ = kB*T/(mu0*m)"
        )
    # secant susceptibility of the equivalent paramagnet at ha1
    chi_an1 = anhysteretic_explicit(cfg.ha1, Ms, shape_param_from_moment(m1, T)) / cfg.ha1

    n_grid = int(math.floor((cfg.eta_max - cfg.eta0) / cfg.eps - 1e-9)) + 1
    tol = _IMPLICIT_REL_TOL * Ms

    def candidate(j: int) -> tuple:
        eta = cfg.eta0 + j * cfg.eps
        chi_p = solve_chi_param(eta, chi_an1, cfg.ha1, Ms)
        m2 = moment_from_susceptibility(chi_p, Ms, T)
        aJ = shape_param_from_moment(m2, T)
        alpha = alpha_from_susceptibilities(chi_p, chi_a)
        return eta, chi_p, m2, aJ, alpha

    def residual(aJ, alpha) -> np.ndarray:
        try:
            return MU0 * (_implicit_array(H, aJ, alpha, Ms, tol) - M)
        except UnstableParams as err:  # every candidate's margin is Ms/(3*chi_a), but for rounding
            msg = f"initial susceptibility {chi_a:.6g} is too large for Ms = {Ms:.6g} A/m: {err}"
            raise DataError(msg) from err

    def first_step(f, *args):
        """``f(*args)`` for the first eta step, whose numerical failure is named so."""
        try:
            return f(*args)
        except DataError:  # such as the unstable candidates of a too-large chi_a
            raise
        except JamagError as err:
            raise JamagError(f"first eta step {cfg.eta0} failed: {err}") from err

    norms: dict[int, float] = {}
    best = (math.inf, n_grid, None)  # the smallest norm yet (never NaN), its smallest grid index, its residual
    block_rows = max(1, _BLOCK_POINTS // H.size)

    def evaluate(js) -> list[float]:
        """Residual norms at grid indices ``js``, memoised.

        Candidates are built in grid order and their curves solved in
        blocks of ``block_rows``.  A candidate that fails stops the build;
        the rows before it are solved first, so the smallest failing index
        decides what is raised, as in a one-index-at-a-time sweep.  The
        first eta step rides in its level's first block; if that block
        fails, the step is solved alone, and its own failure is raised first.
        """
        nonlocal best
        todo = [j for j in js if j not in norms]
        aJs: list[float] = []
        alphas: list[float] = []
        failure = None
        for j in todo:
            try:
                _, _, _, aJ, alpha = first_step(candidate, j) if j == 0 else candidate(j)
            except Exception as err:  # re-raised below, unless an earlier row fails
                failure = err
                break
            aJs.append(aJ)
            alphas.append(alpha)
        for b in range(0, len(aJs), block_rows):
            block = slice(b, b + block_rows)
            try:
                r = residual(np.array(aJs[block])[:, None], np.array(alphas[block])[:, None])
            except JamagError:
                if todo[b] == 0:
                    first_step(residual, aJs[0], alphas[0])
                raise
            block_norms = _row_norms(r)
            norms.update(zip(todo[block], block_norms.tolist()))
            low = float(np.fmin.reduce(block_norms))  # NaN only if every row's is
            i = int(np.argmax(block_norms == low))
            if (low, todo[b + i]) < best[:2]:  # a NaN low keeps nothing
                best = (low, todo[b + i], r[i].copy())  # a row of the block has its own solve's bits
        if failure is not None:
            raise failure
        return [norms[j] for j in js]

    lo, hi = 0, n_grid - 1
    # the coarse scan starts at the grid's top decade (1 000 for 10 000 points), the plain at 1
    stride = 10 ** (len(str(hi)) - 1) if cfg.coarse else 1
    while stride:  # strides fall by 10, each level over the bracket of the level before
        pts = [*range(lo, hi, stride), hi]
        level = evaluate(pts)
        low = min((v for v in level if v == v), default=math.nan)  # a NaN norm never wins
        if low != low:
            raise JamagError(f"every residual norm is NaN at stride {stride} over grid indices [{lo}, {hi}]")
        ties = [j for j, v in zip(pts, level) if v == low]
        _logger.info("scan stride %d over [%d, %d]: j=%d, %d evals", stride, lo, hi, ties[0], len(norms))
        lo, hi = max(0, ties[0] - stride), min(n_grid - 1, ties[-1] + stride)
        stride //= 10

    js = sorted(norms)
    best_norm, best_j, r = best  # ties resolve to the smallest j in both scans
    eta_star, chi_p, m2, aJ, alpha = candidate(best_j)
    sweep_etas = np.array([cfg.eta0 + j * cfg.eps for j in js])
    sweep_norms = np.array([norms[j] for j in js])
    unimodal = _is_unimodal(sweep_norms)
    rms = best_norm / math.sqrt(H.size)
    met = rms <= RMS_BOUND_FRACTION * MU0 * Ms

    warn: list[str] = []
    if alpha < 0.0:
        warn.append("NON_PHYSICAL_ALPHA")
    if not unimodal:
        warn.append("NOT_UNIMODAL")
    if not met:
        warn.append("FIT_CONDITION_NOT_MET")
    if best_j in (0, n_grid - 1):
        warn.append("SWEEP_EDGE")

    _logger.info(
        "fit: eta*=%.6g, chi_param=%.6g, aJ=%.6g, alpha=%.6g, |r|=%.6g (%d evals)",
        eta_star, chi_p, aJ, alpha, best_norm, len(norms),
    )
    return FitReport(
        eta_star=eta_star,
        chi_param=chi_p,
        m=m2,
        aJ=aJ,
        alpha=alpha,
        chi_an_a=chi_a,
        m1=m1,
        residual=r,
        residual_norm=best_norm,
        residual_rms=rms,
        iterations=len(norms),
        sweep_etas=sweep_etas,
        sweep_norms=sweep_norms,
        unimodal=unimodal,
        fit_condition_met=met,
        warnings=tuple(warn),
    )


def _row_norms(r: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``r``: ``np.linalg.norm``'s bits where the sum of
    squares is a finite normal double, else the norm of the row scaled by the power of two
    that puts its largest magnitude in [0.5, 1), scaled back.  That scaling is exact."""
    with np.errstate(over="ignore"):
        norm2 = np.matmul(r[:, None, :], r[:, :, None]).ravel()  # row @ row for all rows in one call
        norms = np.sqrt(norm2)
        out = ~((norm2 >= sys.float_info.min) & (norm2 <= sys.float_info.max))  # NaN too
        if out.any():
            _, e = np.frexp(np.max(np.abs(r[out]), axis=1))
            s = np.ldexp(r[out], -e[:, None])
            norms[out] = np.ldexp(np.sqrt(np.matmul(s[:, None, :], s[:, :, None]).ravel()), e)
    return norms


def _is_unimodal(norms: np.ndarray) -> bool:
    """True when the sequence decreases (weakly) and then increases (weakly)."""
    i = 0
    n = len(norms)
    while i + 1 < n and norms[i + 1] <= norms[i]:
        i += 1
    while i + 1 < n and norms[i + 1] >= norms[i]:
        i += 1
    return i == n - 1
