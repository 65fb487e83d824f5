import numpy as np
import pytest

import jamag.anfit as anfit
from jamag.anfit import (
    AnhystereticFitConfig,
    fit_anhysteretic,
    initial_susceptibility,
    solve_chi_param,
    _is_unimodal,
)
from jamag.core import MU0, anhysteretic_explicit, langevin, shape_param_from_moment
from jamag.dataio import CurveKind, MagnetizationCurve
from jamag.errors import (
    DegenerateSweep,
    InsufficientSamples,
    NoPositiveSample,
    NoSolution,
)
from jamag.validation import synthetic_curve

from conftest import linear_curve

MS = 1.6e6
T = 303.5

# 50-digit references
CHI_AN1_REF = 1.5980062404384166     # paramagnet secant susceptibility at Ha1=1e6, a1 = 1246.1 A/m
TARGET_45P8 = 1.5813682678311499     # (Ms/Ha1) * L(3*45.8*Ha1/Ms)


class TestConfig:
    def test_defaults(self):
        cfg = AnhystereticFitConfig()
        assert cfg.ha1 == 1.0e6 and cfg.eta0 == 0.9 and cfg.eps == 1.0e-5

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            AnhystereticFitConfig(eta0=0.0)
        with pytest.raises(ValueError):
            AnhystereticFitConfig(eta0=0.99, eta_max=0.9)
        with pytest.raises(ValueError):
            AnhystereticFitConfig(eta_max=1.5)
        with pytest.raises(ValueError):
            AnhystereticFitConfig(eps=0.0)
        with pytest.raises(ValueError):
            AnhystereticFitConfig(sweep="steepest")
        with pytest.raises(ValueError):
            AnhystereticFitConfig(slope_points=0)


class TestInitialSusceptibility:
    def test_first_sample_ratio(self):
        curve = MagnetizationCurve(
            H=np.array([10.0, 20.0]), M=np.array([4280.0, 8000.0]), kind=CurveKind.ANHYSTERETIC
        )
        assert initial_susceptibility(curve) == pytest.approx(428.0, rel=1e-15)

    def test_skips_zero_field_sample(self):
        curve = MagnetizationCurve(
            H=np.array([0.0, 10.0]), M=np.array([0.0, 4280.0]), kind=CurveKind.ANHYSTERETIC
        )
        assert initial_susceptibility(curve) == pytest.approx(428.0, rel=1e-15)

    def test_skips_non_positive_m(self):
        curve = MagnetizationCurve(
            H=np.array([1.0, 2.0]), M=np.array([-5.0, 100.0]), kind=CurveKind.ANHYSTERETIC
        )
        assert initial_susceptibility(curve) == pytest.approx(50.0, rel=1e-15)

    def test_least_squares_slope(self):
        curve = linear_curve(n=10, chi=77.0)
        assert initial_susceptibility(curve, points=4) == pytest.approx(77.0, rel=1e-13)

    def test_no_positive_field(self):
        curve = MagnetizationCurve(
            H=np.array([-2.0, -1.0]), M=np.array([1.0, 2.0]), kind=CurveKind.ANHYSTERETIC
        )
        with pytest.raises(NoPositiveSample):
            initial_susceptibility(curve)

    def test_no_positive_m(self):
        curve = MagnetizationCurve(
            H=np.array([1.0, 2.0]), M=np.array([-1.0, -2.0]), kind=CurveKind.ANHYSTERETIC
        )
        with pytest.raises(NoPositiveSample):
            initial_susceptibility(curve)

    def test_rejects_bad_points(self):
        with pytest.raises(ValueError):
            initial_susceptibility(linear_curve(), points=0)


class TestSolveChiParam:
    def test_reference_round_trip(self):
        chi_an1 = 1.598006
        eta = TARGET_45P8 / chi_an1
        chi = solve_chi_param(eta, chi_an1, 1.0e6, MS)
        assert chi == pytest.approx(45.8, rel=1e-9)

    def test_eta_one_recovers_measured_susceptibility(self):
        # at eta=1 the solved chi equals the chi that produced chi_an1
        chi_a = 428.05
        m1 = 3.0 * 1.380649e-23 * T * chi_a / (MU0 * MS)
        chi_an1 = anhysteretic_explicit(1.0e6, MS, shape_param_from_moment(m1, T)) / 1.0e6
        chi = solve_chi_param(1.0, chi_an1, 1.0e6, MS)
        assert chi == pytest.approx(chi_a, rel=1e-9)

    def test_monotone_in_eta(self):
        chis = [solve_chi_param(eta, 1.598006, 1.0e6, MS) for eta in (0.90, 0.95, 0.999)]
        assert chis[0] < chis[1] < chis[2]

    def test_no_solution_at_saturation(self):
        # eta*chi_an1*Ha1 >= Ms has no Langevin preimage
        with pytest.raises(NoSolution):
            solve_chi_param(1.0, 1.7, 1.0e6, MS)
        with pytest.raises(NoSolution):
            solve_chi_param(-0.5, 1.598006, 1.0e6, MS)

    def test_random_round_trips(self):
        rng = np.random.default_rng(7)
        chi_an1 = CHI_AN1_REF
        for chi_true in rng.uniform(1.0, 1.0e3, 5):
            target = (MS / 1.0e6) * langevin(3.0 * chi_true * 1.0e6 / MS)
            back = solve_chi_param(target / chi_an1, chi_an1, 1.0e6, MS)
            assert back == pytest.approx(chi_true, rel=1e-10)


class TestFit:
    def test_round_trip_steel_row(self, steel_curve, material):
        report = fit_anhysteretic(steel_curve, material, AnhystereticFitConfig(coarse=True))
        assert report.aJ == pytest.approx(972.0, rel=0.01)
        assert report.alpha == pytest.approx(1.4e-3, rel=0.02)
        assert report.residual_norm / np.sqrt(len(steel_curve)) <= 0.01 * MU0 * MS
        assert 0.9 <= report.eta_star < 1.0
        assert report.unimodal
        assert not report.warnings

    def test_identity_between_aj_and_m(self, steel_curve, material):
        report = fit_anhysteretic(steel_curve, material, AnhystereticFitConfig(coarse=True))
        assert report.aJ * report.m == pytest.approx(1.380649e-23 * T / MU0, rel=1e-12)

    def test_coarse_equals_plain_bitwise(self, material):
        data = synthetic_curve(1000.0, 1.4e-3, material, 120, 1.0e4)
        cfg = dict(eta0=0.99, eps=1e-5)  # 1000-point grid keeps the plain scan quick
        plain = fit_anhysteretic(data, material, AnhystereticFitConfig(coarse=False, **cfg))
        coarse = fit_anhysteretic(data, material, AnhystereticFitConfig(coarse=True, **cfg))
        assert coarse.eta_star == plain.eta_star
        assert coarse.chi_param == plain.chi_param
        assert coarse.aJ == plain.aJ
        assert coarse.alpha == plain.alpha
        assert coarse.residual_norm == plain.residual_norm
        assert np.array_equal(coarse.residual, plain.residual)

    def test_first_local_min_agrees_on_unimodal_profile(self, material):
        data = synthetic_curve(1000.0, 1.4e-3, material, 120, 1.0e4)
        cfg = dict(eta0=0.99, eps=1e-5)
        walk = fit_anhysteretic(
            data, material, AnhystereticFitConfig(sweep="first-local-min", **cfg)
        )
        full = fit_anhysteretic(data, material, AnhystereticFitConfig(coarse=True, **cfg))
        assert walk.eta_star == full.eta_star
        assert walk.residual_norm == full.residual_norm
        # the walk stops one step past the minimum instead of covering the grid
        n_grid = int((1.0 - 0.99) / 1e-5)
        assert walk.iterations < n_grid

    @pytest.mark.parametrize(
        "profile,sweep,coarse,j_star,evals",
        [
            ((5, 4, 3, 4, 5, 6, 2, 3, 4, 5), "argmin", False, 6, 10),
            ((5, 4, 3, 4, 5, 6, 2, 3, 4, 5), "argmin", True, 6, 10),
            ((5, 4, 3, 4, 5, 6, 2, 3, 4, 5), "first-local-min", False, 2, 4),
            ((5, 4, 2, 4, 5, 6, 2, 3, 4, 5), "argmin", False, 2, 10),
            ((5, 4, 2, 4, 5, 6, 2, 3, 4, 5), "argmin", True, 2, 10),
            ((5, 4, 4, 3, 5, 6, 2, 3, 4, 5), "first-local-min", False, 1, 3),
        ],
    )
    def test_sweep_policies_on_two_dip_profile(
        self, material, monkeypatch, profile, sweep, coarse, j_star, evals
    ):
        # alpha carries eta into the patched curve solve, whose residual norm
        # is then proportional to profile[j] at grid index j
        eta0, eps = 0.9, 0.01
        data = linear_curve(n=4)

        def fake_curve(H, aJ, alpha, Ms, tol, max_iter):
            return data.M + profile[round((alpha - eta0) / eps)]

        monkeypatch.setattr(anfit, "solve_chi_param", lambda eta, *args: eta)
        monkeypatch.setattr(anfit, "alpha_from_susceptibilities", lambda chi_p, chi_a: chi_p)
        monkeypatch.setattr(anfit, "_implicit_array", fake_curve)
        cfg = AnhystereticFitConfig(eta0=eta0, eps=eps, sweep=sweep, coarse=coarse)
        report = fit_anhysteretic(data, material, cfg)
        assert report.eta_star == eta0 + j_star * eps
        assert report.residual_norm == min(report.sweep_norms)
        assert report.iterations == evals

    def test_profile_is_recorded_sorted(self, material):
        data = synthetic_curve(1000.0, 1.4e-3, material, 80, 1.0e4)
        report = fit_anhysteretic(
            data, material, AnhystereticFitConfig(eta0=0.99, eps=1e-4, coarse=False)
        )
        assert report.sweep_etas.shape == report.sweep_norms.shape
        assert np.all(np.diff(report.sweep_etas) > 0.0)
        assert np.all(np.isfinite(report.sweep_norms))
        assert report.iterations == report.sweep_etas.size

    def test_rejects_sparse_data(self, material):
        data = MagnetizationCurve(
            H=np.array([1.0, 2.0]), M=np.array([10.0, 20.0]), kind=CurveKind.ANHYSTERETIC
        )
        with pytest.raises(InsufficientSamples):
            fit_anhysteretic(data, material)

    def test_rejects_non_increasing_fields(self, material):
        data = MagnetizationCurve(
            H=np.array([1.0, 1.0, 2.0]), M=np.array([1.0, 1.0, 2.0]), kind=CurveKind.FULL_LOOP
        )
        with pytest.raises(ValueError):
            fit_anhysteretic(data, material)

    def test_degenerate_sweep_when_first_step_fails(self, material, monkeypatch):
        def boom(*args, **kwargs):
            raise NoSolution("forced")

        monkeypatch.setattr(anfit, "solve_chi_param", boom)
        data = synthetic_curve(1000.0, 1.4e-3, material, 50, 1.0e4)
        with pytest.raises(DegenerateSweep):
            fit_anhysteretic(data, material)

    def test_non_physical_alpha_flag(self, material, monkeypatch):
        monkeypatch.setattr(anfit, "alpha_from_susceptibilities", lambda cp, ca: -1e-4)
        data = synthetic_curve(1000.0, 0.0, material, 50, 1.0e4)
        report = fit_anhysteretic(
            data, material, AnhystereticFitConfig(eta0=0.999, eps=1e-4, coarse=False)
        )
        assert "NON_PHYSICAL_ALPHA" in report.warnings
        assert report.alpha < 0.0

    def test_slope_points_option(self, material):
        # a multi-sample origin slope shifts the anchor slightly but the fit stays close
        data = synthetic_curve(972.0, 1.4e-3, material, 200, 1.0e4)
        r1 = fit_anhysteretic(data, material, AnhystereticFitConfig(coarse=True, slope_points=3))
        assert r1.aJ == pytest.approx(972.0, rel=0.05)
        assert r1.residual_norm / np.sqrt(len(data)) <= 0.01 * MU0 * MS


class TestUnimodal:
    def test_shapes(self):
        assert _is_unimodal(np.array([3.0, 2.0, 1.0, 2.0, 3.0]))
        assert _is_unimodal(np.array([1.0, 2.0, 3.0]))
        assert _is_unimodal(np.array([3.0, 2.0, 1.0]))
        assert _is_unimodal(np.array([2.0, 2.0, 1.0, 1.0, 4.0]))
        assert _is_unimodal(np.array([1.0]))
        assert not _is_unimodal(np.array([3.0, 1.0, 2.0, 1.0, 3.0]))
        assert not _is_unimodal(np.array([1.0, 2.0, 1.0, 2.0]))
