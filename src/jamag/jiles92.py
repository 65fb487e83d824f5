"""Loop-feature parameter estimation (Jiles' 1992 procedure).

Given the nine measured features of a hysteresis loop, the procedure pins
the model parameters to closed-form relations at four special points of the
loop: the origin (initial susceptibilities give c and a first aJ), the
coercive point (gives k), remanence (a nonlinear equation in alpha) and the
loop tip (a nonlinear equation updating aJ).  After each pass the loop is
re-simulated (initial rise and two cycles); the pass repeats, at most
eight times, until the mean squared error between simulated and measured
magnetization (mu0-scaled) drops below ``fit_tol``.  On failure the
estimate restarts from the next of the fixed alpha seeds 1e-4, 1e-3, 1e-2
and 1e-1, and the best-so-far answer is returned flagged rather than
discarded.

Conventions at the special points: the anhysteretic magnetization and its
slope are evaluated at the effective field of the loop state, i.e. at
Hc/aJ on the coercive point (M = 0), at alpha*Mr/aJ at remanence (H = 0)
and at (Hm + alpha*Mm)/aJ at the tip.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from logging import getLogger

import numpy as np

from .core import (
    MU0,
    MaterialSpec,
    _slope_raw,
    langevin,
)
from .dataio import LoopFeatures, MagnetizationCurve, split_branches
from .errors import (
    DegenerateC,
    NoConvergence,
    NonPhysicalParameterWarning,
    RootFindError,
    SingularDenominator,
    SingularSlope,
    UnstableParams,
    ZeroDenominator,
)
from .rootfind import expand_bracket, find_root
from .simulate import FieldWaveform, HysteresisParams, integrate

_ROOT_TOL = {"abs_tol": 1e-12, "rel_tol": 1e-10}  # of both root solves
_SEEDS = (1.0e-4, 1.0e-3, 1.0e-2, 1.0e-1)  # alpha start values, tried in order
_PASSES = 8  # closed-form passes per seed, each followed by a re-simulation
_SIM_CYCLES = 2  # cycles re-simulated per pass; the last is compared with the measured loop

_logger = getLogger(__name__)


@dataclass(frozen=True)
class Jiles92Config:
    """Fit check of :func:`estimate`.

    ``fit_tol`` is the MSE threshold on mu0-scaled magnetization, in T^2.
    ``sim_steps`` is the steps per segment of the re-simulated loop.
    """

    fit_tol: float = 1.0e-3
    sim_steps: int = 600

    def __post_init__(self) -> None:
        if not 0.0 < self.fit_tol < np.inf:
            raise ValueError(f"fit_tol must be positive and finite, got {self.fit_tol}")
        if self.sim_steps < 2:
            raise ValueError(f"sim_steps must be at least 2, got {self.sim_steps}")


@dataclass(frozen=True)
class Jiles92Result:
    """Estimated parameters plus the quality of the final re-simulation."""

    params: HysteresisParams
    mse: float
    fit_condition_met: bool
    seed: float
    iterations: int


def c_from_susceptibilities(chi_in: float, chi_an: float) -> float:
    """Reversibility fraction c = chi_in / chi_an (expected in (0, 1)).

    c >= 1 and c <= 0 are returned with a warning; at c = 1 the pinning
    term drops out of the loop equations.
    """
    if chi_an == 0.0:
        raise ZeroDenominator("chi_an is zero")
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
        raise ZeroDenominator("chi_an is zero")
    return (Ms / 3.0) * (1.0 / chi_an + alpha)


def k_from_coercive(features: LoopFeatures, c: float, aJ: float, alpha: float, Ms: float) -> float:
    """Pinning strength from the coercive point of the loop.

    k = M_an(Hc)/(1-c) * [alpha + 1/( chi_max/(1-c) - c*M_an'(Hc)/(1-c) )]
    with the anhysteretic curve taken at M = 0 (the loop state at Hc).
    """
    if c == 1.0:
        raise DegenerateC("c = 1: the pinning term drops out of the loop equations")
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
        raise DegenerateC("c = 1: remanence equation degenerates")
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
    return find_root(g, bracket, **_ROOT_TOL)


def aj_update(
    features: LoopFeatures, c: float, k: float, alpha: float, Ms: float, *, guess: float
) -> float:
    """Shape parameter from the loop-tip balance, solved around ``guess``.

    Root of  Mm = M_an(Hm) - (1-c)*k*chi_m / (alpha*chi_m + 1)
    with the anhysteretic curve at the tip effective field (Hm + alpha*Mm)/aJ.
    """
    denom = alpha * features.chi_m + 1.0
    if denom == 0.0:
        raise SingularDenominator("alpha*chi_m + 1 vanished")
    pinned = (1.0 - c) * k * features.chi_m / denom
    he = features.Hm + alpha * features.Mm

    def g(aJ: float) -> float:
        return Ms * langevin(he / aJ) - pinned - features.Mm

    bracket = expand_bracket(g, guess, lo_limit=1e-30)
    return find_root(g, bracket, **_ROOT_TOL)


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


def estimate(
    features: LoopFeatures,
    material: MaterialSpec,
    cfg: Jiles92Config,
    loop: MagnetizationCurve,
) -> Jiles92Result:
    """Run the full estimation loop against a measured hysteresis loop.

    ``loop`` supplies the measured data for the fit condition.  The alpha
    seeds 1e-4, 1e-3, 1e-2 and 1e-1 are tried in order; within a seed the
    closed-form/root-solve pass and a two-cycle re-simulation alternate up
    to eight times.  Returns as soon as the fit condition is met, otherwise
    the lowest-MSE candidate with ``fit_condition_met=False``.  Each seed's
    ending is logged at INFO level.  Raises :class:`DegenerateC` when
    c = 1 and :class:`NoConvergence` when no seed produces a candidate.
    The measured loop is split once, before the first seed, so a loop
    without both branches raises :class:`MissingBranch` even when no seed
    would have produced a candidate.
    """
    Ms = material.Ms
    c = c_from_susceptibilities(features.chi_in, features.chi_an)
    if c == 1.0:
        raise DegenerateC("c = chi_in/chi_an = 1; loop equations are degenerate")

    measured = split_branches(loop)
    waveform = FieldWaveform.cyclic(features.Hm, cycles=_SIM_CYCLES, steps_per_segment=cfg.sim_steps)
    best: Jiles92Result | None = None

    for seed in _SEEDS:
        alpha = seed
        aJ = aj_initial(Ms, features.chi_an, alpha)
        seed_mse = np.inf
        try:
            for it in range(1, _PASSES + 1):
                k = k_from_coercive(features, c, aJ, alpha, Ms)
                if not (np.isfinite(k) and k > 0.0):
                    ending = f"stopped at pass {it} on k = {k:.6g}"
                    break
                alpha = alpha_update(features, c, k, aJ, Ms, guess=alpha)
                if not (np.isfinite(alpha) and alpha >= 0.0):
                    ending = f"stopped at pass {it} on alpha = {alpha:.6g}"
                    break
                aJ = aj_update(features, c, k, alpha, Ms, guess=aJ)
                if not (np.isfinite(aJ) and aJ > 0.0):
                    ending = f"stopped at pass {it} on aJ = {aJ:.6g}"
                    break

                params = HysteresisParams(aJ=aJ, alpha=alpha, c=c, k=k, Ms=Ms)
                sim = integrate(params, waveform, M0=0.0)
                mse = _loop_mse(sim, waveform, measured)
                seed_mse = min(seed_mse, mse)
                cand = Jiles92Result(
                    params=params, mse=mse, fit_condition_met=mse <= cfg.fit_tol,
                    seed=seed, iterations=it,
                )
                if best is None or mse < best.mse:
                    best = cand
                if cand.fit_condition_met:
                    _logger.info("seed %.3g met the fit condition at pass %d", seed, it)
                    return cand
            else:
                ending = f"exhausted {_PASSES} passes, best MSE {seed_mse:.6g}"
        # numerical failures abandon the seed; anything else is a bug and propagates
        except (RootFindError, NoConvergence, SingularDenominator, SingularSlope, UnstableParams) as err:
            ending = f"aborted: {err}"
        _logger.info("seed %.3g %s", seed, ending)

    if best is None:
        raise NoConvergence("no alpha seed produced a simulatable parameter set")
    return best
