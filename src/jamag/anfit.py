"""Anhysteretic parameter estimation from a measured curve.

The estimator maps the material to an equivalent Langevin paramagnet.  The
measured initial susceptibility fixes a first moment guess; the equivalent
paramagnet's high-field magnetization at a reference field ``Ha1`` is then
scaled by a factor ``eta`` swept over [eta0, eta_max).  Each ``eta`` yields
a candidate susceptibility chi_param (by inverting the Langevin curve at
``Ha1``), hence a candidate (aJ, alpha) pair through

    aJ = Ms / (3 * chi_param),    alpha = 1/chi_param - 1/chi_an(0)

and the winner is the candidate whose reconstructed curve has the smallest
mu0-scaled Euclidean residual against the data.

Two sweep policies are offered: ``argmin`` scans the whole grid and takes
the global minimum; ``first-local-min`` walks up from ``eta0`` and stops at
the first increase of the residual norm, reporting the step before it.
Every grid point is evaluated independently of sweep order, so both
policies (and the coarse-to-fine shortcut) are exactly reproducible.  They
differ only in which grid points they evaluate; the winner is always the
smallest grid index among the minima of the evaluated norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from logging import getLogger

import numpy as np

from .core import (
    MU0,
    MaterialSpec,
    _implicit_array,
    anhysteretic_explicit,
    langevin,
    moment_from_susceptibility,
    shape_param_from_moment,
    alpha_from_susceptibilities,
)
from .dataio import MagnetizationCurve
from .errors import (
    DegenerateSweep,
    InsufficientSamples,
    JamagError,
    NoPositiveSample,
    NoSolution,
)
from .rootfind import RootConfig, find_root

SWEEP_ARGMIN = "argmin"
SWEEP_FIRST_LOCAL_MIN = "first-local-min"

_COARSE_STRIDE = 100
_CHI_ROOT_CFG = RootConfig(abs_tol=1e-20, rel_tol=1e-12, max_iter=200)

_logger = getLogger(__name__)


@dataclass(frozen=True)
class AnhystereticFitConfig:
    """Sweep settings for :func:`fit_anhysteretic`.

    ``ha1`` is the high-field reference (A/m), ``eta0``/``eta_max`` the
    half-open sweep range and ``eps`` the grid step.  ``coarse=True``
    pre-scans at 100x the step, then refines around the coarse minimum;
    for a unimodal residual profile the result is bit-identical to the
    plain scan.  ``slope_points=1`` reproduces the single-sample initial
    susceptibility rule; larger values switch to a least-squares slope
    through the origin.
    """

    ha1: float = 1.0e6
    eta0: float = 0.9
    eps: float = 1.0e-5
    eta_max: float = 1.0
    sweep: str = SWEEP_ARGMIN
    coarse: bool = False
    slope_points: int = 1

    def __post_init__(self) -> None:
        if not self.ha1 > 0.0:
            raise ValueError(f"ha1 must be positive, got {self.ha1}")
        if not 0.0 < self.eta0 < self.eta_max <= 1.0:
            raise ValueError(
                f"need 0 < eta0 < eta_max <= 1, got eta0={self.eta0}, eta_max={self.eta_max}"
            )
        if not self.eps > 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.sweep not in (SWEEP_ARGMIN, SWEEP_FIRST_LOCAL_MIN):
            raise ValueError(f"sweep must be '{SWEEP_ARGMIN}' or '{SWEEP_FIRST_LOCAL_MIN}'")
        if self.slope_points < 1:
            raise ValueError(f"slope_points must be at least 1, got {self.slope_points}")


@dataclass(frozen=True)
class FitReport:
    """Result of an anhysteretic fit.

    ``aJ * m == kB*T/mu0`` holds by construction.  ``alpha`` may be
    negative on data whose initial slope disagrees with the high-field
    tail; that case carries the ``NON_PHYSICAL_ALPHA`` warning code.
    ``sweep_etas``/``sweep_norms`` are the evaluated profile points in
    increasing eta order (the full grid unless coarse mode or an early
    first-local-min stop truncated it).
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
    iterations: int
    sweep_etas: np.ndarray
    sweep_norms: np.ndarray
    unimodal: bool
    warnings: tuple[str, ...]


def initial_susceptibility(data: MagnetizationCurve, *, points: int = 1) -> float:
    """Measured anhysteretic susceptibility at the origin.

    With ``points=1`` this is M/H at the first sample with H > 0 and
    M > 0.  With more points it is the least-squares slope through the
    origin over the first ``points`` positive-field samples.  Raises
    :class:`NoPositiveSample` when no usable sample exists.
    """
    if points < 1:
        raise ValueError(f"points must be at least 1, got {points}")
    pos = data.H > 0.0
    if not np.any(pos):
        raise NoPositiveSample("no sample with H > 0")
    H = data.H[pos]
    M = data.M[pos]
    if points == 1:
        usable = M > 0.0
        if not np.any(usable):
            raise NoPositiveSample("no sample with H > 0 and M > 0")
        i = int(np.argmax(usable))
        return float(M[i] / H[i])
    h = H[:points]
    m = M[:points]
    chi = float(np.dot(h, m) / np.dot(h, h))
    if not chi > 0.0:
        raise NoPositiveSample(f"least-squares initial slope is {chi:.6g}, not positive")
    return chi


def solve_chi_param(eta: float, chi_an1: float, Ha1: float, Ms: float) -> float:
    """Susceptibility whose Langevin paramagnet hits ``eta*chi_an1`` at Ha1.

    Solves eta*chi_an1 = (Ms/Ha1) * L(3*chi*Ha1/Ms) for chi.  The root is
    bracketed analytically: L(x) <= x/3 gives the lower bound and
    L(x) >= 1 - 1/x the upper one, so no expansion search is needed and
    the result depends only on the arguments.  Raises :class:`NoSolution`
    when ``eta*chi_an1*Ha1 >= Ms`` (target at or above saturation).
    """
    y = eta * chi_an1 * Ha1 / Ms
    if y >= 1.0:
        raise NoSolution(
            f"target magnetization {eta * chi_an1 * Ha1:.6g} is not below Ms = {Ms:.6g}"
        )
    if y <= 0.0:
        raise NoSolution(f"target fraction must be positive, got {y:.6g}")

    scale = Ms / (3.0 * Ha1)
    lo = 0.5 * (3.0 * y) * scale
    hi = 2.0 * scale / (1.0 - y)

    def f(chi: float) -> float:
        return eta * chi_an1 - (Ms / Ha1) * langevin(3.0 * chi * Ha1 / Ms)

    return find_root(f, _CHI_ROOT_CFG, bracket=(lo, hi))


def fit_anhysteretic(
    data: MagnetizationCurve,
    material: MaterialSpec,
    cfg: AnhystereticFitConfig = AnhystereticFitConfig(),
) -> FitReport:
    """Estimate (aJ, alpha, m) from an anhysteretic curve.

    ``data`` must have strictly increasing H and at least 3 samples.
    Raises :class:`DegenerateSweep` if the very first eta step fails.
    """
    H, M = data.H, data.M
    if H.size < 3:
        raise InsufficientSamples(f"need at least 3 samples, got {H.size}")
    if not np.all(np.diff(H) > 0.0):
        raise ValueError("fields must be strictly increasing")

    Ms, T = material.Ms, material.T
    chi_a = initial_susceptibility(data, points=cfg.slope_points)
    m1 = moment_from_susceptibility(chi_a, Ms, T)
    # secant susceptibility of the equivalent paramagnet at ha1
    chi_an1 = anhysteretic_explicit(cfg.ha1, Ms, shape_param_from_moment(m1, T)) / cfg.ha1

    n_grid = int(math.floor((cfg.eta_max - cfg.eta0) / cfg.eps - 1e-9)) + 1
    tol = 1e-9 * Ms

    def candidate(j: int) -> tuple:
        eta = cfg.eta0 + j * cfg.eps
        chi_p = solve_chi_param(eta, chi_an1, cfg.ha1, Ms)
        m2 = moment_from_susceptibility(chi_p, Ms, T)
        aJ = shape_param_from_moment(m2, T)
        alpha = alpha_from_susceptibilities(chi_p, chi_a)
        r = MU0 * (_implicit_array(H, aJ, alpha, Ms, tol, 200) - M)
        return eta, chi_p, m2, aJ, alpha, r

    norms: dict[int, float] = {}

    def norm(j: int) -> float:
        if j not in norms:
            norms[j] = float(np.linalg.norm(candidate(j)[-1]))
        return norms[j]

    try:
        norm(0)
    except JamagError as err:
        raise DegenerateSweep(f"first eta step {cfg.eta0} failed: {err}") from err

    if cfg.sweep == SWEEP_FIRST_LOCAL_MIN:
        j = 1
        while j < n_grid and norm(j) < norm(j - 1):
            j += 1
    elif cfg.coarse:
        coarse = sorted(set(range(0, n_grid, _COARSE_STRIDE)) | {n_grid - 1})
        center = min(coarse, key=norm)
        for j in range(max(0, center - _COARSE_STRIDE), min(n_grid, center + _COARSE_STRIDE + 1)):
            norm(j)
    else:
        for j in range(n_grid):
            norm(j)

    js = sorted(norms)
    # min keeps the first of equal norms: ties resolve to the smallest j under every policy
    best_j = min(js, key=norms.__getitem__)
    best_norm = norms[best_j]
    eta_star, chi_p, m2, aJ, alpha, r = candidate(best_j)
    sweep_etas = np.array([cfg.eta0 + j * cfg.eps for j in js])
    sweep_norms = np.array([norms[j] for j in js])
    unimodal = _is_unimodal(sweep_norms)

    warn: list[str] = []
    if alpha < 0.0:
        warn.append("NON_PHYSICAL_ALPHA")
    if not unimodal:
        warn.append("NOT_UNIMODAL")

    _logger.debug(
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
        iterations=len(norms),
        sweep_etas=sweep_etas,
        sweep_norms=sweep_norms,
        unimodal=unimodal,
        warnings=tuple(warn),
    )


def _is_unimodal(norms: np.ndarray) -> bool:
    """True when the sequence decreases (weakly) and then increases (weakly)."""
    i = 0
    n = len(norms)
    while i + 1 < n and norms[i + 1] <= norms[i]:
        i += 1
    while i + 1 < n and norms[i + 1] >= norms[i]:
        i += 1
    return i == n - 1
