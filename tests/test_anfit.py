import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import jamag.anfit as anfit
import jamag.core as core
from jamag.anfit import (
    AnhystereticFitConfig,
    fit_anhysteretic,
    initial_susceptibility,
    solve_chi_param,
    _anhysteretic_fit,
    _is_unimodal,
    _params,
    _row_norms,
)
from jamag.core import (
    MU0,
    MaterialSpec,
    _implicit_array,
    alpha_from_susceptibilities,
    anhysteretic_explicit,
    langevin,
    langevin_prime,
    moment_from_susceptibility,
    shape_param_from_moment,
)
from jamag.dataio import CurveKind, MagnetizationCurve
from jamag.errors import DataError, JamagError, UnstableParams
from jamag.rootfind import find_root
from jamag.validation import GRID_ROWS, run_row, synthetic_curve

from conftest import linear_curve, raises_numerical

MS = 1.6e6
T = 303.5


def _patch_profile(mp, data, profile, eta0, eps):
    """Make the residual norm of grid index j proportional to ``profile[j]``.

    alpha carries eta into the patched curve solve, which offsets the data by profile[j].
    """

    def fake_curve(H, aJ, alpha, Ms, tol):
        # one row per entry of alpha: (P, 1) -> (P, n), a float -> (n,)
        return data.M + np.asarray(profile)[np.rint((alpha - eta0) / eps).astype(int)]

    mp.setattr(anfit, "solve_chi_param", lambda eta, *args: eta)
    mp.setattr(anfit, "alpha_from_susceptibilities", lambda chi_p, chi_a: chi_p)
    mp.setattr(anfit, "_implicit_array", fake_curve)


@st.composite
def _unimodal_profiles(draw):
    """Weakly unimodal profiles of 3 to 12 000 points: a bottom plateau with runs at
    levels 1 to 3 above it on either side, each side's runs sorted to rise away from it.
    Few levels make long plateaus that tie across a narrow bottom; an empty side puts
    the minimum at an end of the grid.  Grids of 1 001 points on start at stride 1 000."""
    longest = draw(st.sampled_from([2, 30, 400, 800, 3000]))  # run lengths: small grids too
    shortest = draw(st.sampled_from([1, longest // 2]))  # long runs only: grids past 10 000 too
    runs = st.lists(st.tuples(st.integers(shortest, longest), st.integers(1, 3)), max_size=4)

    def side(rs):
        rs = sorted(rs, key=lambda r: r[1])
        return np.repeat([1.0 + level for _, level in rs], [length for length, _ in rs])

    fall, rise = draw(runs), draw(runs)
    bottom = draw(st.integers(1, draw(st.sampled_from([1, 3, 30, 400, 3000]))))
    profile = np.concatenate([side(fall)[::-1], np.ones(bottom), side(rise)])
    assume(profile.size >= 3)
    return profile[:12000]


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
        with pytest.raises(TypeError):
            AnhystereticFitConfig(sweep="argmin")  # one scan, plain or coarse: no sweep policy
        with pytest.raises(TypeError):
            AnhystereticFitConfig(slope_points=0)  # one origin rule: M/H at the first usable sample

    @pytest.mark.parametrize("field", ["ha1", "eps"])
    def test_non_finite_settings_name_the_field(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite, got inf$"):
            AnhystereticFitConfig(**{field: math.inf})

    @pytest.mark.parametrize("field", ["Ms", "T"])
    def test_non_finite_material_names_the_field(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite, got inf$"):
            MaterialSpec(**{"Ms": MS, "T": T, field: math.inf})


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

    def test_no_positive_field(self):
        curve = MagnetizationCurve(
            H=np.array([-2.0, -1.0]), M=np.array([1.0, 2.0]), kind=CurveKind.ANHYSTERETIC
        )
        with pytest.raises(DataError, match="^no sample with H > 0$"):
            initial_susceptibility(curve)

    def test_no_positive_m(self):
        curve = MagnetizationCurve(
            H=np.array([1.0, 2.0]), M=np.array([-1.0, -2.0]), kind=CurveKind.ANHYSTERETIC
        )
        with pytest.raises(DataError, match="^no sample with H > 0 and M > 0$"):
            initial_susceptibility(curve)


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
        with raises_numerical(r"^target magnetization 1.7e\+06 is not below Ms = 1.6e\+06$"):
            solve_chi_param(1.0, 1.7, 1.0e6, MS)
        with raises_numerical("^target fraction must be positive"):
            solve_chi_param(-0.5, 1.598006, 1.0e6, MS)

    def test_random_round_trips(self):
        rng = np.random.default_rng(7)
        chi_an1 = CHI_AN1_REF
        for chi_true in rng.uniform(1.0, 1.0e3, 5):
            target = (MS / 1.0e6) * langevin(3.0 * chi_true * 1.0e6 / MS)
            back = solve_chi_param(target / chi_an1, chi_an1, 1.0e6, MS)
            assert back == pytest.approx(chi_true, rel=1e-10)

    # (Ha1, chi_an1): the default reference field, a low one, and a field of 1 A/m
    SETTINGS = [(1.0e6, CHI_AN1_REF), (3.0e3, 300.0), (1.0, 5.0e4)]

    @staticmethod
    def targets() -> np.ndarray:
        """Seeded L(x) targets y, log-spaced toward both ends: 1e-8 to 0.5, 0.5 to 1 - 1e-12."""
        rng = np.random.default_rng(14)
        low = 10.0 ** rng.uniform(-8.0, math.log10(0.5), 150)
        return np.concatenate([low, 1.0 - 10.0 ** rng.uniform(-12.0, math.log10(0.5), 150)])

    def solves(self):
        """(y, chi_an1, Ha1, eta, chi_param) over every setting and target."""
        for Ha1, chi_an1 in self.SETTINGS:
            for y in self.targets():
                eta = float(y) * MS / (chi_an1 * Ha1)
                yield eta * chi_an1 * Ha1 / MS, chi_an1, Ha1, eta, solve_chi_param(eta, chi_an1, Ha1, MS)

    @staticmethod
    def closed_form_error(x: float) -> float:
        """Rounding scale of langevin(x): an ulp of each term of coth(x) - 1/x, none on the series."""
        return 0.0 if x < 1e-3 else float(np.spacing(1.0 / math.tanh(x)) + np.spacing(1.0 / x))

    def test_result_lies_inside_the_analytic_bounds(self):
        for y, _, Ha1, _, chi in self.solves():
            x = 3.0 * chi * Ha1 / MS
            lo, hi = max(3.0 * y, 1.0 / (1.0 - y) - 1.0), 1.0 / (1.0 - y)
            assert lo * (1.0 - 4e-16) <= x <= hi * (1.0 + 4e-16), (y, x)

    def test_forward_residual_is_at_rounding_level(self):
        # 8 ulps of the target, plus 4 of each term that langevin's closed form subtracts
        for _, chi_an1, Ha1, eta, chi in self.solves():
            x = 3.0 * chi * Ha1 / MS
            target = eta * chi_an1
            bound = 8.0 * np.spacing(target) + 4.0 * (MS / Ha1) * self.closed_form_error(x)
            assert abs((MS / Ha1) * langevin(x) - target) <= bound, (target, x)

    @staticmethod
    def reference_x(y: float) -> float:
        """Brent at rel_tol=0 on L(x) - y or, for y > 0.5, on (1 - y) - (1 - L(x)) with
        1 - L(x) = 1/x - 2/(e^(2x) - 1), which stays well conditioned where L(x) nears 1."""
        def f(x: float) -> float:
            if y <= 0.5:
                return langevin(x) - y
            return (1.0 - y) - (1.0 / x + 2.0 * math.exp(-2.0 * x) / math.expm1(-2.0 * x))

        bracket = (0.5 * max(3.0 * y, 1.0 / (1.0 - y) - 1.0), 2.0 / (1.0 - y))
        return find_root(f, bracket, abs_tol=1e-300, rel_tol=0.0)

    def test_agrees_with_a_bracketed_reference(self):
        # within 1e-14, plus 4x the root shift that an error of closed_form_error(x) in
        # L(x) makes: the cancellation in coth(x) - 1/x, large for 1e-3 <= x < ~0.3
        for y, _, Ha1, _, chi in self.solves():
            x = self.reference_x(y)
            shift = self.closed_form_error(x) / (x * langevin_prime(x))
            assert chi == pytest.approx(x * MS / (3.0 * Ha1), rel=1e-14 + 4.0 * shift, abs=0.0), y

    def test_newton_steps_stay_few(self, monkeypatch):
        steps = []
        monkeypatch.setattr(core, "langevin_prime", lambda x: steps.append(x) or langevin_prime(x))
        for y, chi_an1, Ha1, eta, _ in self.solves():
            steps.clear()
            solve_chi_param(eta, chi_an1, Ha1, MS)
            assert len(steps) <= 6, y
            if 1.0 / (1.0 - y) > 20.0:  # the start is the root to rounding: one zero step
                assert len(steps) == 1, y

    def test_nan_target_has_no_solution(self):
        for args in ((math.nan, 1.598006, 1.0e6, MS), (0.95, math.nan, 1.0e6, MS),
                     (0.95, 1.598006, 1.0e6, math.nan), (0.95, 1.598006, math.inf, MS)):
            with raises_numerical("^target magnetization .* is not below Ms"):
                solve_chi_param(*args)

    def test_no_convergence_past_the_cap(self, monkeypatch):
        # L stuck at 0 with slope 1: every step climbs by y, far above the tolerance
        monkeypatch.setattr(core, "langevin", lambda x: 0.0)
        monkeypatch.setattr(core, "langevin_prime", lambda x: 1.0)
        with raises_numerical("^inverse Langevin: no root of L"):
            solve_chi_param(0.95, 1.598006, 1.0e6, MS)


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

    @pytest.mark.parametrize("n", [3, 2000])
    def test_sweep_norms_are_numpy_norm_bits_at_other_lengths(self, material, monkeypatch, n):
        # as test_sweep_norms_are_single_curve_norms_bitwise, on noisy rows of 3 and of
        # 2000 samples: each profile point has the bits of np.linalg.norm of its row
        data = synthetic_curve(972.0, 1.4e-3, material, n, 1.0e4)
        noisy = MagnetizationCurve(
            H=data.H, M=data.M + 2e3 * np.random.default_rng(n).standard_normal(n), kind=data.kind
        )
        blocks = []
        solve = anfit._implicit_array
        monkeypatch.setattr(anfit, "_implicit_array", lambda *a: blocks.append(solve(*a)) or blocks[-1])
        report = fit_anhysteretic(noisy, material, AnhystereticFitConfig(eps=1e-3))
        rows = np.concatenate([b for b in blocks if b.ndim == 2])
        expected = np.array([np.linalg.norm(MU0 * (row - noisy.M)) for row in rows])
        assert report.sweep_norms.tobytes() == expected.tobytes()
        assert report.residual_norm == np.linalg.norm(report.residual)

    @pytest.mark.parametrize(
        "profile,coarse,j_star,evals",
        [
            ((5, 4, 3, 4, 5, 6, 2, 3, 4, 5), False, 6, 10),
            ((5, 4, 3, 4, 5, 6, 2, 3, 4, 5), True, 6, 10),
            ((5, 4, 2, 4, 5, 6, 2, 3, 4, 5), False, 2, 10),
            ((5, 4, 2, 4, 5, 6, 2, 3, 4, 5), True, 2, 10),
        ],
    )
    def test_sweep_policies_on_two_dip_profile(self, material, monkeypatch, profile, coarse, j_star, evals):
        # both scans take the global minimum, the first of two equal ones
        eta0, eps = 0.9, 0.01
        data = linear_curve(n=4)
        _patch_profile(monkeypatch, data, profile, eta0, eps)
        cfg = AnhystereticFitConfig(eta0=eta0, eps=eps, coarse=coarse)
        report = fit_anhysteretic(data, material, cfg)
        assert report.eta_star == eta0 + j_star * eps
        assert report.residual_norm == min(report.sweep_norms)
        assert report.iterations == evals

    @pytest.mark.parametrize(
        "profile,codes",
        [
            ((1, 2, 3, 4, 5), ["SWEEP_EDGE"]),  # best eta: the grid's first
            ((5, 4, 3, 2, 1), ["SWEEP_EDGE"]),  # and its last
            ((3, 2, 1, 2, 3), []),
            ((3e4, 2e4, 1e4, 2e4, 3e4), []),  # rms 1e4 A/m * mu0: within 1% of mu0*Ms
            ((3e4, 2e4, 1.7e4, 2e4, 3e4), ["FIT_CONDITION_NOT_MET"]),
            ((1.7e4, 2e4, 3e4, 3e4, 3e4), ["FIT_CONDITION_NOT_MET", "SWEEP_EDGE"]),
        ],
    )
    def test_fit_condition_and_sweep_edge(self, material, monkeypatch, profile, codes):
        eta0, eps = 0.9, 0.02
        data = linear_curve(n=4)
        _patch_profile(monkeypatch, data, profile, eta0, eps)
        report = fit_anhysteretic(data, material, AnhystereticFitConfig(eta0=eta0, eps=eps))
        assert list(report.warnings) == codes
        assert report.residual_rms == report.residual_norm / 2.0  # over the root of 4 samples
        assert report.fit_condition_met is ("FIT_CONDITION_NOT_MET" not in codes)
        assert report.fit_condition_met is (min(profile) <= anfit.RMS_BOUND_FRACTION * MS)

    @pytest.mark.parametrize("coarse", [False, True])
    def test_a_nan_norm_never_wins(self, material, monkeypatch, coarse):
        # a leading NaN is kept by Python's min: the scan takes its low over the other norms
        data = linear_curve(n=4)
        _patch_profile(monkeypatch, data, (np.nan, 2, 1, 3), 0.9, 0.025)
        report = fit_anhysteretic(data, material, AnhystereticFitConfig(eta0=0.9, eps=0.025, coarse=coarse))
        assert report.eta_star == 0.9 + 2 * 0.025
        assert report.residual_norm == MU0 * 2.0  # 1 A/m off at each of 4 samples

    @pytest.mark.parametrize("coarse", [False, True])
    def test_a_level_of_nan_norms_names_the_stride_and_span(self, material, monkeypatch, coarse):
        data = linear_curve(n=4)
        _patch_profile(monkeypatch, data, (np.nan,) * 4, 0.9, 0.025)
        with raises_numerical(r"^every residual norm is NaN at stride 1 over grid indices \[0, 3\]$"):
            fit_anhysteretic(data, material, AnhystereticFitConfig(eta0=0.9, eps=0.025, coarse=coarse))

    def test_validate_judges_rows_by_the_fit_condition(self):
        row = run_row(972.0, 1.4e-3, AnhystereticFitConfig(coarse=True))
        assert row.passed is row.report.fit_condition_met is True
        assert row.bound == anfit.RMS_BOUND_FRACTION * MU0 * MS

    def test_coarse_finds_a_minimum_between_tied_coarse_points(self, material, monkeypatch):
        # every coarse point ties at 5: the window used to centre on the first of them,
        # index 0, and miss the dip at 150 while still calling the profile unimodal
        eta0, eps = 0.5, 0.002
        profile = np.full(250, 5.0)
        profile[150] = 1.0
        data = linear_curve(n=4)
        _patch_profile(monkeypatch, data, profile, eta0, eps)
        plain = fit_anhysteretic(data, material, AnhystereticFitConfig(eta0=eta0, eps=eps))
        coarse = fit_anhysteretic(data, material, AnhystereticFitConfig(eta0=eta0, eps=eps, coarse=True))
        assert plain.eta_star == eta0 + 150 * eps and plain.iterations == 250
        assert coarse.eta_star == plain.eta_star
        assert coarse.residual_norm == plain.residual_norm
        assert coarse.unimodal

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(_unimodal_profiles())
    def test_coarse_equals_plain_on_weakly_unimodal_profiles(self, profile):
        eta0, eps = 0.5, 0.5 / profile.size  # a grid of profile.size points
        data = linear_curve(n=4)
        material = MaterialSpec(MS, T)
        with pytest.MonkeyPatch.context() as mp:
            _patch_profile(mp, data, profile, eta0, eps)
            plain = fit_anhysteretic(data, material, AnhystereticFitConfig(eta0=eta0, eps=eps))
            coarse = fit_anhysteretic(data, material, AnhystereticFitConfig(eta0=eta0, eps=eps, coarse=True))
        assert plain.iterations == profile.size
        assert coarse.eta_star == plain.eta_star
        assert coarse.residual_norm == plain.residual_norm

    def test_coarse_evaluations_at_the_default_step(self, material):
        # 10 000 grid points: 11 at stride 1 000 (the last one wins), 10 new ones at stride
        # 100 in the window clipped at the grid's end, then 18 new ones at strides 10 and 1
        data = synthetic_curve(972.0, 1.4e-3, material, 120, 1.0e4)
        report = fit_anhysteretic(data, material, AnhystereticFitConfig(coarse=True))
        assert report.iterations == report.sweep_norms.size == 57

    @pytest.mark.parametrize(
        "points,evals",
        [
            (10, 10),  # stride 1 from the start: the plain scan
            (100, 29),  # 11 at stride 10 (0 to 90, and 99), then 18 new ones at stride 1
            (1000, 47),  # 11 at stride 100, then 18 new ones at strides 10 and 1
            (1001, 47),  # 0 and 1 000 at stride 1 000, 9 new ones at 100, then 18 at 10 and 1
            (10000, 65),  # 11 at stride 1 000, then 18 new ones at strides 100, 10 and 1
            (50000, 78),  # 6 at stride 10 000, then 18 new ones at each of four decades
        ],
    )
    def test_coarse_starts_at_the_top_decade_of_the_grid(self, material, monkeypatch, points, evals):
        # a V-shaped profile with its minimum off every coarse point and off every midpoint
        # between two of them: each level has one winner, and its window is clipped only
        # on the 1 001-point grid, whose first level has just two points
        eta0, eps = 0.5, 0.5 / points
        j_star = 4 * points // 10 + 3
        data = linear_curve(n=4)
        _patch_profile(monkeypatch, data, 1.0 + np.abs(np.arange(points) - j_star), eta0, eps)
        report = fit_anhysteretic(data, material, AnhystereticFitConfig(eta0=eta0, eps=eps, coarse=True))
        assert report.eta_star == eta0 + j_star * eps
        assert report.iterations == evals

    @pytest.mark.parametrize(
        "coarse,eta0,eps,evals",
        [
            (False, 0.99, 2.3e-4, 44),  # 44 rows from index 0: one block
            # 10 more rows at stride 100, 10 at stride 10 and 18 at stride 1: one block each
            (True, 0.9, 1.0e-4, 39),
        ],
    )
    def test_sweep_norms_are_single_curve_norms_bitwise(self, material, coarse, eta0, eps, evals):
        # 200 samples make 81-row blocks; neither sweep fills its last block
        data = synthetic_curve(972.0, 1.4e-3, material, 200, 1.0e4)
        cfg = AnhystereticFitConfig(eta0=eta0, eps=eps, coarse=coarse)
        report = fit_anhysteretic(data, material, cfg)
        assert report.iterations == evals
        # the reference: each grid index on its own, one curve per call
        chi_a = initial_susceptibility(data)
        m1 = moment_from_susceptibility(chi_a, MS, T)
        chi_an1 = anhysteretic_explicit(cfg.ha1, MS, shape_param_from_moment(m1, T)) / cfg.ha1
        want = []
        for eta in report.sweep_etas:
            chi_p = solve_chi_param(float(eta), chi_an1, cfg.ha1, MS)
            aJ = shape_param_from_moment(moment_from_susceptibility(chi_p, MS, T), T)
            alpha = alpha_from_susceptibilities(chi_p, chi_a)
            curve = _implicit_array(data.H, aJ, alpha, MS, 1e-9 * MS)
            want.append(float(np.linalg.norm(MU0 * (curve - data.M))))
        assert report.sweep_norms.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("coarse,blocks", [(False, [81, 19]), (True, [11, 9])])
    def test_one_curve_solve_per_sweep_block(self, material, monkeypatch, coarse, blocks):
        # 100 grid points of 200-sample curves, in 81-row blocks: the plain scan's two, the
        # coarse scan's one per level.  No one-row solve of the first eta step or of the
        # winner: the report's residual is its block's row, with a single-curve solve's bits
        data = synthetic_curve(972.0, 1.4e-3, material, 200, 1.0e4)
        rows = []
        solve = anfit._implicit_array

        def spy(H, aJ, alpha, Ms, tol):
            rows.append(np.shape(aJ))
            return solve(H, aJ, alpha, Ms, tol)

        monkeypatch.setattr(anfit, "_implicit_array", spy)
        report = fit_anhysteretic(data, material, AnhystereticFitConfig(eps=1e-3, coarse=coarse))
        assert rows == [(b, 1) for b in blocks]
        assert report.iterations == sum(blocks)
        fresh = MU0 * (_implicit_array(data.H, report.aJ, report.alpha, MS, anfit._IMPLICIT_REL_TOL * MS) - data.M)
        assert report.residual.tobytes() == fresh.tobytes()

    # ``cause`` only names the case: the failure that decides the error is the chi solve's
    # (NoSolution), the curve solve's (NoConvergence) or the first step's (DegenerateSweep)
    @pytest.mark.parametrize(
        "chi_fails,curve_fails,coarse,cause,message",
        [
            (5, None, False, "NoSolution", "chi at 5"),
            (None, 7, False, "NoConvergence", "curve at 7"),
            (5, 3, False, "NoConvergence", "curve at 3"),  # the earlier row wins
            (5, 7, False, "NoSolution", "chi at 5"),  # row 7 is never reached
            (8, 7, False, "NoConvergence", "curve at 7"),  # in the partial block [6, 7]
            (5, 3, True, "NoConvergence", "curve at 3"),
            (0, None, False, "DegenerateSweep", "first eta step 0.9 failed: chi at 0"),
            (None, 0, True, "DegenerateSweep", "first eta step 0.9 failed: curve at 0"),
        ],
    )
    def test_first_failing_index_decides_the_error(
        self, material, monkeypatch, chi_fails, curve_fails, coarse, cause, message
    ):
        # as in a one-index-at-a-time sweep
        cfg = AnhystereticFitConfig(eta0=0.9, eps=0.01, coarse=coarse)  # 10 points
        self._assert_first_failure(material, monkeypatch, cfg, chi_fails, curve_fails, message)

    def test_coarse_raises_the_first_failure_in_its_own_order(self, material, monkeypatch):
        # 20 points: stride 10 visits 0, 10 and 19 before the stride-1 level reaches 5
        cfg = AnhystereticFitConfig(eta0=0.9, eps=0.005, coarse=True)
        self._assert_first_failure(material, monkeypatch, cfg, 5, 10, "curve at 10")

    @staticmethod
    def _assert_first_failure(material, monkeypatch, cfg, chi_fails, curve_fails, message):
        """Fail the chi solve at grid index ``chi_fails`` and the curve solve at
        ``curve_fails``, on a profile that falls to the grid's last index."""
        data = linear_curve(n=4)
        monkeypatch.setattr(anfit, "_BLOCK_POINTS", 12)  # 3-row blocks: 0-2, 3-5, 6-8 and 9

        def index(eta):
            return np.rint((eta - cfg.eta0) / cfg.eps).astype(int)

        last = index(cfg.eta_max) - 1

        def fake_chi(eta, *args):
            if index(eta) == chi_fails:
                raise JamagError(f"chi at {chi_fails}")
            return eta

        def fake_curve(H, aJ, alpha, Ms, tol):
            if np.any(index(alpha) == curve_fails):
                raise JamagError(f"curve at {curve_fails}")
            return data.M + (last + 1 - index(alpha))

        monkeypatch.setattr(anfit, "solve_chi_param", fake_chi)
        monkeypatch.setattr(anfit, "alpha_from_susceptibilities", lambda chi_p, chi_a: chi_p)
        monkeypatch.setattr(anfit, "_implicit_array", fake_curve)
        with pytest.raises(JamagError) as info:
            fit_anhysteretic(data, material, cfg)
        assert type(info.value) is JamagError
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "curve_fails,coarse", [(0, False), (7, False), (0, True), (9, True)],
    )
    def test_unstable_candidates_are_a_data_error(self, material, monkeypatch, curve_fails, coarse):
        # wherever in the sweep the solve rejects a candidate: at the first step too, where
        # it is not wrapped as the first step's failure
        eta0, eps = 0.9, 0.01
        data = linear_curve(n=4)

        def fake_curve(H, aJ, alpha, Ms, tol):
            index = np.rint((alpha - eta0) / eps).astype(int)
            if np.any(index == curve_fails):
                raise UnstableParams("alpha*Ms/(3*aJ) = 1 >= 1; the anhysteretic curve is multivalued")
            return data.M + (10 - index)

        monkeypatch.setattr(anfit, "solve_chi_param", lambda eta, *args: eta)
        monkeypatch.setattr(anfit, "alpha_from_susceptibilities", lambda chi_p, chi_a: chi_p)
        monkeypatch.setattr(anfit, "_implicit_array", fake_curve)
        cfg = AnhystereticFitConfig(eta0=eta0, eps=eps, coarse=coarse)
        with pytest.raises(DataError) as info:
            fit_anhysteretic(data, material, cfg)
        chi_a = initial_susceptibility(data)
        assert type(info.value) is DataError
        assert str(info.value) == (
            f"initial susceptibility {chi_a:.6g} is too large for Ms = 1.6e+06 A/m: "
            "alpha*Ms/(3*aJ) = 1 >= 1; the anhysteretic curve is multivalued"
        )

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
        with pytest.raises(DataError, match="^need at least 3 samples, got 2$"):
            fit_anhysteretic(data, material)

    def test_rejects_non_increasing_fields(self, material):
        data = MagnetizationCurve(
            H=np.array([1.0, 1.0, 2.0]), M=np.array([1.0, 1.0, 2.0]), kind=CurveKind.FULL_LOOP
        )
        with pytest.raises(ValueError):
            fit_anhysteretic(data, material)

    def test_degenerate_sweep_when_first_step_fails(self, material, monkeypatch):
        forced = JamagError("forced")

        def boom(*args, **kwargs):
            raise forced

        monkeypatch.setattr(anfit, "solve_chi_param", boom)
        data = synthetic_curve(1000.0, 1.4e-3, material, 50, 1.0e4)
        with raises_numerical("^first eta step 0.9 failed: forced$") as info:
            fit_anhysteretic(data, material)
        assert info.value.__cause__ is forced

    def test_data_error_at_the_first_step_is_not_wrapped(self, material, monkeypatch):
        forced = DataError("forced")

        def boom(*args, **kwargs):
            raise forced

        monkeypatch.setattr(anfit, "solve_chi_param", boom)
        data = synthetic_curve(1000.0, 1.4e-3, material, 50, 1.0e4)
        with pytest.raises(DataError) as info:
            fit_anhysteretic(data, material)
        assert info.value is forced

    def test_non_physical_alpha_flag(self, material, monkeypatch):
        monkeypatch.setattr(anfit, "alpha_from_susceptibilities", lambda cp, ca: -1e-4)
        data = synthetic_curve(1000.0, 0.0, material, 50, 1.0e4)
        report = fit_anhysteretic(
            data, material, AnhystereticFitConfig(eta0=0.999, eps=1e-4, coarse=False)
        )
        assert "NON_PHYSICAL_ALPHA" in report.warnings
        assert report.alpha < 0.0


class TestRowNorms:
    def test_in_range_rows_have_the_bits_of_linalg_norm(self):
        rows = np.random.default_rng(3).standard_normal((81, 200)) * np.logspace(-100, 100, 81)[:, None]
        assert np.array_equal(_row_norms(rows), [np.linalg.norm(row) for row in rows])

    def test_power_of_two_scaling_is_exact(self):
        # the squares of 2^k times a row leave the normal range for |k| above about 500;
        # its norm is still 2^k times the row's, not 0 or inf
        row = np.random.default_rng(4).uniform(0.5, 2.0, 200) * np.resize([1.0, -1.0], 200)
        ks = np.arange(-1000, 1001)
        norms = _row_norms(np.ldexp(row, ks[:, None]))
        assert np.array_equal(norms, np.ldexp(np.linalg.norm(row), ks))

    def test_subnormal_zero_and_non_finite_rows(self):
        # 3-4-5 rows at 2^1020 and at the subnormal 2^-1070, a zero row, an inf and a NaN
        rows = np.array([np.ldexp([3.0, 4.0], 1020), np.ldexp([3.0, 4.0], -1070), [0.0, 0.0],
                         [np.inf, 1.0], [np.nan, 1.0]])
        norms = _row_norms(rows)
        assert norms[:4].tolist() == [np.ldexp(5.0, 1020), np.ldexp(5.0, -1070), 0.0, np.inf]
        assert np.isnan(norms[4])


class TestUnimodal:
    def test_shapes(self):
        assert _is_unimodal(np.array([3.0, 2.0, 1.0, 2.0, 3.0]))
        assert _is_unimodal(np.array([1.0, 2.0, 3.0]))
        assert _is_unimodal(np.array([3.0, 2.0, 1.0]))
        assert _is_unimodal(np.array([2.0, 2.0, 1.0, 1.0, 4.0]))
        assert _is_unimodal(np.array([1.0]))
        assert not _is_unimodal(np.array([3.0, 1.0, 2.0, 1.0, 3.0]))
        assert not _is_unimodal(np.array([1.0, 2.0, 1.0, 2.0]))


class TestAnhystereticLinearFit:
    """``_anhysteretic_fit``: least squares on H = aJ*L^-1(M/Ms) - alpha*M, then Gauss-Newton on M."""

    @pytest.mark.parametrize("aJ, alpha", GRID_ROWS)
    def test_recovers_the_validate_rows_without_a_step(self, aJ, alpha):
        # noiseless curves: the linear fit alone lands within 1e-10, so Gauss-Newton stops at once
        p, steps = _anhysteretic_fit(synthetic_curve(aJ, alpha), MS)
        aJ_fit, alpha_fit = _params(p, MS)
        assert steps == 0
        assert aJ_fit == pytest.approx(aJ, rel=1e-10)
        assert alpha_fit == pytest.approx(alpha, rel=1e-10)

    def test_fewer_than_two_usable_samples(self):
        # one sample with H > 0 and 0 < M < Ms; the others sit at M <= 0 or M >= Ms
        H = np.linspace(100.0, 1.0e4, 6)
        data = MagnetizationCurve(H=H, M=np.array([-1.0e3, 0.0, 5.0e5, MS, 1.1 * MS, 1.2 * MS]),
                                  kind=CurveKind.ANHYSTERETIC)
        with pytest.raises(DataError) as info:
            _anhysteretic_fit(data, MS)
        assert str(info.value) == "anhysteretic curve has 1 samples with H > 0, 0 < M < Ms; 2 needed"

    def test_falling_curve_gives_no_positive_aJ(self):
        # M falls as H rises: the linear fit's aJ is negative, a numerical failure
        H = np.linspace(100.0, 1.0e4, 50)
        data = MagnetizationCurve(H=H, M=np.linspace(0.8 * MS, 0.2 * MS, 50), kind=CurveKind.ANHYSTERETIC)
        with raises_numerical(r"the anhysteretic curve's linear fit gives aJ = -\S+ A/m; aJ > 0 is needed"):
            _anhysteretic_fit(data, MS)
