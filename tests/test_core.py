import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from jamag.core import (
    KB,
    MU0,
    AnhystereticParams,
    MaterialSpec,
    alpha_from_susceptibilities,
    anhysteretic_explicit,
    anhysteretic_implicit,
    anhysteretic_slope,
    langevin,
    langevin_prime,
    moment_from_susceptibility,
    shape_param_from_moment,
)
import jamag.anfit as anfit
import jamag.core as core
from jamag.anfit import AnhystereticFitConfig
from jamag.core import _implicit_array, _slope_raw, langevin_inverse
from jamag.dataio import CurveKind, MagnetizationCurve
from jamag.errors import DataError, UnstableParams
from jamag.validation import GRID_ROWS, H_MAX, N_SAMPLES, run_row, synthetic_curve

from conftest import LINV_HALF, LINV_QUARTER, raises_numerical

# high-precision references, 50-digit arithmetic
L_REF = {
    0.01: 0.0033333111113227492,
    0.5: 0.16395341373865285,
    1.0: 0.3130352854993313,
    2.0: 0.5373147207275481,
    5.0: 0.8000908039820194,
}
LP_REF = {
    0.5: 0.31730562316883072,
    1.0: 0.27593833903368953,
    10.0: 0.0099999917553854763,
}
MS_L1 = 500856.45679893009  # 1.6e6 * L(1)
IMPLICIT_REF = 963624.08856667822  # M at Ha=1000 for aJ=972, alpha=1.4e-3, Ms=1.6e6
KBT_OVER_MU0 = 3.3345106901525874e-15  # at T=303.5 K


def test_constants():
    assert KB == 1.380649e-23
    assert MU0 == pytest.approx(1.2566370614359173e-6, rel=1e-15)


class TestLangevin:
    @pytest.mark.parametrize("x,expected", sorted(L_REF.items()))
    def test_reference_values(self, x, expected):
        assert langevin(x) == pytest.approx(expected, rel=5e-12)

    def test_array_matches_scalar(self):
        xs = np.array([1e-5, 1e-3, 0.01, 0.5, 1.0, 2.0, 5.0, 50.0])
        arr = langevin(xs)
        for x, v in zip(xs, arr):
            assert v == pytest.approx(langevin(float(x)), rel=1e-14)

    def test_odd_exactly(self):
        for x in (1e-6, 1e-4, 0.01, 0.3, 1.0, 7.0, 100.0):
            assert langevin(-x) == -langevin(x)
        xs = np.array([1e-6, 0.01, 0.5, 3.0])
        assert np.array_equal(langevin(-xs), -langevin(xs))

    def test_origin(self):
        assert langevin(0.0) == 0.0

    def test_series_switch_is_seamless(self):
        # closed-form rounding noise at the switch point is ~1e-14
        for x in (0.9e-3, 1.0e-3, 1.1e-3):
            x2 = x * x
            series = x * (1.0 / 3.0 + x2 * (-1.0 / 45.0 + x2 * (2.0 / 945.0)))
            assert langevin(x) == pytest.approx(series, abs=1e-12)

    @given(st.floats(min_value=-690.0, max_value=690.0))
    def test_bounded(self, x):
        assert abs(langevin(x)) < 1.0

    @given(
        st.floats(min_value=-100.0, max_value=100.0),
        st.floats(min_value=1e-6, max_value=10.0),
    )
    def test_strictly_increasing(self, x, dx):
        assert langevin(x + dx) > langevin(x)


class TestLangevinPrime:
    @pytest.mark.parametrize("x,expected", sorted(LP_REF.items()))
    def test_reference_values(self, x, expected):
        assert langevin_prime(x) == pytest.approx(expected, rel=5e-12)

    def test_origin_third(self):
        assert langevin_prime(0.0) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_even(self):
        for x in (1e-4, 0.01, 1.0, 10.0, 500.0):
            assert langevin_prime(-x) == langevin_prime(x)

    def test_large_argument_guard(self):
        assert langevin_prime(400.0) == 1.0 / 160000.0
        assert langevin_prime(1e6) == 1e-12
        arr = langevin_prime(np.array([400.0, 1e6]))
        assert arr[0] == 1.0 / 160000.0

    def test_array_matches_scalar(self):
        xs = np.array([1e-5, 1e-3, 0.5, 1.0, 10.0, 100.0, 400.0])
        arr = langevin_prime(xs)
        for x, v in zip(xs, arr):
            assert v == pytest.approx(langevin_prime(float(x)), rel=1e-14)

    def test_matches_central_difference(self):
        h = 1e-5
        for x in (0.05, 0.3, 1.0, 2.5, 8.0):
            fd = (langevin(x + h) - langevin(x - h)) / (2.0 * h)
            assert langevin_prime(x) == pytest.approx(fd, rel=1e-6)

    @given(st.floats(min_value=-300.0, max_value=300.0))
    def test_positive(self, x):
        v = langevin_prime(x)
        assert 0.0 < v <= 1.0 / 3.0 + 1e-15


class TestLangevinInverse:
    @staticmethod
    def l_rounding(x: float) -> float:
        """Rounding scale of langevin(x): an ulp of each term of coth(x) - 1/x, none on the series."""
        return 0.0 if x < 1e-3 else float(np.spacing(1.0 / math.tanh(x)) + np.spacing(1.0 / x))

    @pytest.mark.parametrize("y, ref", [(0.5, LINV_HALF), (0.25, LINV_QUARTER)])
    def test_matches_50_digit_references(self, y, ref):
        # within the root shift that langevin's own rounding makes: 7.8 and 13.5 ulps of x
        # here, where the solve lands 3 and 4 ulps from the correctly rounded root
        x = langevin_inverse(y)
        assert abs(x - ref) <= self.l_rounding(x) / langevin_prime(x), (x, ref)

    def test_round_trip_to_rounding(self):
        # y from 1e-12 to 1 - 1e-9, log-spaced toward both ends: L(x) is y to an ulp of y plus
        # langevin's rounding, which is millions of ulps of y where coth(x) - 1/x cancels
        low = np.logspace(-12.0, math.log10(0.5), 300)
        ys = np.concatenate([low, 1.0 - np.logspace(-9.0, math.log10(0.5), 300)])
        for y in ys.tolist():
            x = langevin_inverse(y)
            assert x > 0.0 and abs(langevin(x) - y) <= 2.0 * (math.ulp(y) + self.l_rounding(x)), y

    @pytest.mark.parametrize("y", [0.0, 1.0, -0.1, math.nan])
    def test_no_solution_outside_the_open_unit_interval(self, y):
        with raises_numerical(r"has no root: L maps x > 0 onto \(0, 1\)$"):
            langevin_inverse(y)


class TestLangevinPrimeFromL:
    """L' from the caller's L(x), without sinh, agrees with the sinh form."""

    _mag = np.geomspace(1e-6, 1e8, 14_001)
    _edges = np.array([1e-3, 20.0])  # the series and 1/x^2 switch points and their neighbours
    _mag = np.concatenate([_mag, _edges, np.nextafter(_edges, 0.0), np.nextafter(_edges, np.inf)])
    X = np.concatenate([[0.0, 5e-324, 710.0, 1e300], _mag, -_mag, [-710.0, -1e300]])

    @staticmethod
    def _check(x, fused, sinh_form):
        assert np.all(np.isfinite(fused))
        small = np.abs(x) < core._X_SWITCH
        assert np.array_equal(fused[small], 1.0 / 3.0 - x[small] * x[small] / 15.0)
        # Both forms carry langevin's cancellation, ~7e-16/x^2 relative for |x| < 1 (2.7e-9
        # measured just above the switch, each form 1.4e-9 from a 40-digit L'); the identity
        # also cancels as x^2 up to |x| = 20 (1.6e-13 there).
        a2 = np.clip(np.abs(x), core._X_SWITCH, core._X_IDENTITY_MAX) ** 2
        bound = 5e-15 / a2 + 1e-15 * a2 + 1e-15
        assert np.all(np.abs(fused - sinh_form) <= bound * np.abs(sinh_form))

    def test_array(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no floating-point warning on any lane
            fused = langevin_prime(self.X, langevin(self.X))
        self._check(self.X, fused, langevin_prime(self.X))

    def test_block_shape(self):
        x = np.stack([self.X, self.X[::-1]])
        fused = langevin_prime(x, langevin(x))
        assert fused.shape == x.shape
        assert fused[0].tobytes() == langevin_prime(self.X, langevin(self.X)).tobytes()

    @pytest.mark.parametrize("block", [False, True])
    def test_implicit_solve_calls_no_sinh_and_one_lprime_per_iteration(self, block, monkeypatch):
        def no_sinh(*args, **kwargs):
            raise AssertionError("np.sinh called")

        calls = []
        lang, lprime = core.langevin, core.langevin_prime
        monkeypatch.setattr(core.np, "sinh", no_sinh)
        monkeypatch.setattr(core, "langevin", lambda *a: calls.append(("L", a)) or lang(*a))
        monkeypatch.setattr(core, "langevin_prime", lambda *a: calls.append(("L'", a)) or lprime(*a))
        Ha = np.linspace(-2.0e4, 2.0e4, 401)  # H = 0, and |x| > 20 at both ends
        if block:  # the -1e-2 row runs into the bisection phase
            aJ, alpha = np.array([[972.0], [50.0], [972.0]]), np.array([[1.4e-3], [1e-5], [-1e-2]])
        else:
            aJ, alpha = 972.0, 1.4e-3
        _implicit_array(Ha, aJ, alpha, 1.6e6, 1e-9 * 1.6e6)
        # langevin once for the start, which calls no L', then langevin and L' once per iteration
        n = sum(kind == "L'" for kind, _ in calls)
        assert [kind for kind, _ in calls] == ["L"] + ["L", "L'"] * n
        assert n > (core._NEWTON_STEPS if block else 1)
        assert all(len(a) == 2 for kind, a in calls if kind == "L'")


def _langevin_where(x):
    """The all-lane ``np.where`` array body that ``langevin`` replaced."""
    small = np.abs(x) < core._X_SWITCH
    xs = np.where(small, 1.0, x)
    closed = 1.0 / np.tanh(xs) - 1.0 / xs
    x2 = x * x
    series = x * (1.0 / 3.0 + x2 * (-1.0 / 45.0 + x2 * (2.0 / 945.0)))
    return np.where(small, series, closed)


def _langevin_prime_where(x):
    """The all-lane ``np.where`` body, tail lanes included, that ``langevin_prime`` replaced."""
    ax = np.abs(x)
    small = ax < core._X_SWITCH
    big = ax > core._X_PRIME_BIG
    xs = np.where(small, 1.0, np.where(big, 1.0, x))
    closed = 1.0 / (xs * xs) - 1.0 / np.sinh(xs) ** 2
    series = 1.0 / 3.0 - x * x / 15.0
    safe_big = np.where(big, x, 1.0)
    return np.where(small, series, np.where(big, 1.0 / (safe_big * safe_big), closed))


def _special_values():
    vals = [0.0, 355.0, 709.5, 711.0, 1e154, 1e300, np.inf, np.nan]
    for v in (1e-3, 300.0):  # the series and tail switch points and their neighbours
        vals += [v, np.nextafter(v, 0.0), np.nextafter(v, np.inf)]
    vals = np.array(vals)
    return np.concatenate([vals, -vals])  # -0.0 and -inf too


class TestLangevinArrayBitwise:
    """The array kernels return the bytes, dtype and shape of the ``np.where`` bodies."""

    VALUES = {
        "special": _special_values(),
        **{
            f"normal*{scale:g}": np.random.default_rng(i).standard_normal(10_000) * scale
            for i, scale in enumerate((1e-3, 1.0, 50.0))
        },
    }

    @staticmethod
    def _assert_same(new_fn, old_fn, x):
        with np.errstate(all="ignore"):  # the old bodies overflow in the series above ~1e154
            old = old_fn(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the new kernels warn on no lane
            new = new_fn(x)
        assert type(new) is type(old) is np.ndarray
        assert new.dtype == old.dtype and new.shape == old.shape
        assert new.tobytes() == old.tobytes()

    @pytest.mark.parametrize("kernel", ["langevin", "langevin_prime"])
    @pytest.mark.parametrize("values", list(VALUES))
    @pytest.mark.parametrize("shape", ["(n,)", "(P, 1)", "(P, n)", "0-d"])
    def test_same_bits(self, kernel, values, shape):
        new_fn = getattr(core, kernel)
        old_fn = {"langevin": _langevin_where, "langevin_prime": _langevin_prime_where}[kernel]
        v = self.VALUES[values]
        if shape == "0-d":
            for x in v[:200]:
                self._assert_same(new_fn, old_fn, np.array(x))
            return
        x = {"(n,)": v, "(P, 1)": v[:, None], "(P, n)": np.stack([v, -v[::-1]])}[shape]
        self._assert_same(new_fn, old_fn, x)

    @pytest.mark.parametrize("block", [False, True])
    def test_implicit_solve_through_zero_warns_on_no_lane(self, block):
        Ha = np.linspace(-2.0e4, 2.0e4, 401)  # H = 0 and |x| > 300 at both ends (aJ 50)
        if block:
            aJ, alpha = np.array([[972.0], [50.0]]), np.array([[1.4e-3], [1e-5]])
        else:
            aJ, alpha = 50.0, 1e-5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            M = _implicit_array(Ha, aJ, alpha, 1.6e6, 1e-9 * 1.6e6)
        assert M.shape == ((2, 401) if block else (401,))
        assert np.all(M[..., 200] == 0.0)


class TestExplicit:
    def test_reference_value(self):
        assert anhysteretic_explicit(1000.0, 1.6e6, 1000.0) == pytest.approx(MS_L1, rel=1e-12)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            anhysteretic_explicit(1000.0, 1.6e6, 0.0)

    def test_array(self):
        out = anhysteretic_explicit(np.array([0.0, 1000.0]), 1.6e6, 1000.0)
        assert out[0] == 0.0
        assert out[1] == pytest.approx(MS_L1, rel=1e-12)


class TestSpecTypes:
    def test_material_validation(self):
        with pytest.raises(ValueError):
            MaterialSpec(Ms=0.0, T=300.0)
        with pytest.raises(ValueError):
            MaterialSpec(Ms=1e6, T=-1.0)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            AnhystereticParams(aJ=0.0, alpha=0.0, m=1e-19)
        with pytest.raises(ValueError):
            AnhystereticParams(aJ=1000.0, alpha=-1e-3, m=1e-19)
        with pytest.raises(ValueError):
            AnhystereticParams(aJ=1000.0, alpha=0.0, m=0.0)

    def test_from_shape_identity(self):
        p = AnhystereticParams.from_shape(972.0, 1.4e-3, 303.5)
        assert p.aJ * p.m == pytest.approx(KBT_OVER_MU0, rel=1e-14)

    def test_from_moment_identity(self):
        p = AnhystereticParams.from_moment(2.8632234536215088e-19, 0.0195, 303.5)
        assert p.aJ * p.m == pytest.approx(KBT_OVER_MU0, rel=1e-14)
        back = AnhystereticParams.from_shape(p.aJ, p.alpha, 303.5)
        assert back.m == pytest.approx(p.m, rel=1e-14)


class TestImplicit:
    def test_reference_value_array(self, steel_params):
        out = anhysteretic_implicit(np.array([1000.0]), steel_params, 1.6e6)
        assert out[0] == pytest.approx(IMPLICIT_REF, rel=1e-9)

    def test_reference_value_scalar(self, steel_params):
        out = anhysteretic_implicit(1000.0, steel_params, 1.6e6)
        assert abs(out - IMPLICIT_REF) <= 2.0e-3  # default abs_tol is 1e-9*Ms

    def test_tight_tolerance_scalar(self, steel_params):
        out = anhysteretic_implicit(1000.0, steel_params, 1.6e6, abs_tol=1e-6)
        assert out == pytest.approx(IMPLICIT_REF, abs=2e-6)

    def test_zero_field(self, steel_params):
        assert anhysteretic_implicit(0.0, steel_params, 1.6e6) == 0.0

    @pytest.mark.parametrize("ha", [-9000.0, 0.0, 50.0, 1000.0, 9000.0])
    def test_scalar_is_one_element_array_bitwise(self, steel_params, ha):
        scalar = anhysteretic_implicit(ha, steel_params, 1.6e6)
        array = anhysteretic_implicit(np.array([ha]), steel_params, 1.6e6)
        assert type(scalar) is float
        assert np.array([scalar]).tobytes() == array.tobytes()

    @pytest.mark.parametrize("alpha", [0.0, -1.0e-3])
    def test_zero_field_lane_stays_on_its_root(self, alpha, monkeypatch):
        # M = 0 solves the H = 0 lane exactly; bisecting it away costs ~30 iterations
        monkeypatch.setattr(core, "_MAX_ITER", 5)
        Ha = np.linspace(-4000.0, 4000.0, 9)
        out = _implicit_array(Ha, 972.0, alpha, 1.6e6, 1e-9 * 1.6e6)
        assert out[4] == 0.0

    def test_odd_exactly(self, steel_params):
        for ha in (50.0, 1000.0, 9000.0):
            assert anhysteretic_implicit(-ha, steel_params, 1.6e6) == -anhysteretic_implicit(
                ha, steel_params, 1.6e6
            )
        grid = np.array([50.0, 1000.0, 9000.0])
        assert np.array_equal(
            anhysteretic_implicit(-grid, steel_params, 1.6e6),
            -anhysteretic_implicit(grid, steel_params, 1.6e6),
        )

    def test_reduces_to_explicit_when_uncoupled(self):
        p = AnhystereticParams.from_shape(972.0, 0.0, 303.5)
        grid = np.linspace(50.0, 1e4, 40)
        implicit = anhysteretic_implicit(grid, p, 1.6e6)
        explicit = anhysteretic_explicit(grid, 1.6e6, 972.0)
        assert np.max(np.abs(implicit - explicit)) <= 1e-9 * 1.6e6

    def test_exceeds_uncoupled_curve(self, steel_params):
        # positive coupling boosts the response at every positive field
        grid = np.linspace(50.0, 1e4, 20)
        implicit = anhysteretic_implicit(grid, steel_params, 1.6e6)
        explicit = anhysteretic_explicit(grid, 1.6e6, steel_params.aJ)
        assert np.all(implicit > explicit)
        assert np.all(implicit < 1.6e6)

    def test_unstable_params_rejected(self):
        p = AnhystereticParams.from_shape(100.0, 1.4e-3, 303.5)
        with pytest.raises(UnstableParams):
            anhysteretic_implicit(1000.0, p, 1.6e6)

    def test_stability_boundary(self):
        # alpha*Ms/(3*aJ) just below 1 still solves
        aJ = 972.0
        alpha = 0.999 * 3.0 * aJ / 1.6e6
        p = AnhystereticParams.from_shape(aJ, alpha, 303.5)
        out = anhysteretic_implicit(1000.0, p, 1.6e6)
        assert 0.0 < out < 1.6e6


class TestImplicitBlock:
    """A (P, 1) block solve returns, row for row, the bytes of P single-curve solves."""

    # negative, zero and positive fields; the zero lane starts on its bracket [0, 0]
    HA = np.array([-2.0e4, -1.0e3, -10.0, 0.0, 10.0, 300.0, 1.0e3, 5.0e3, 2.0e4])
    ROWS = [
        (972.0, 1.0e-3),  # alpha*Ms/(3*aJ) = 0.55: 2 iterations, one fewer than near stability
        (972.0, 0.0),  # uncoupled: 1 iteration
        (972.0, -4.0e-3),  # negative alpha, as a NON_PHYSICAL_ALPHA candidate has: 4 iterations
        (1000.0, 1.87e-3),  # alpha*Ms/(3*aJ) = 0.997, near stability: 3 iterations
        (972.0, -6.0e-3),  # alpha*Ms/(3*aJ) = -3.3: 6 iterations
        (972.0, -1.0e-2),  # alpha*Ms/(3*aJ) = -5.5: runs past the Newton phase into the bracket
    ]

    @staticmethod
    def _block(Ha, rows, tol=1e-9 * 1.6e6):
        aJ = np.array([r[0] for r in rows])[:, None]
        alpha = np.array([r[1] for r in rows])[:, None]
        return _implicit_array(Ha, aJ, alpha, 1.6e6, tol)

    def test_rows_match_single_curves_bitwise(self, monkeypatch):
        iters = []
        lprime = core.langevin_prime
        calls = []
        monkeypatch.setattr(core, "langevin_prime", lambda *a: calls.append(1) or lprime(*a))
        singles = []
        for aJ, alpha in self.ROWS:
            before = len(calls)
            singles.append(_implicit_array(self.HA, aJ, alpha, 1.6e6, 1e-9 * 1.6e6))
            iters.append(len(calls) - before)  # one L' call per iteration
        # rows leave the lockstep loop at different iterations, one after the Newton phase
        assert len(set(iters)) == len(self.ROWS), iters
        assert max(iters) > core._NEWTON_STEPS, iters
        block = self._block(self.HA, self.ROWS)
        assert block.shape == (len(self.ROWS), self.HA.size)
        for row, one in zip(block, singles):
            assert row.tobytes() == one.tobytes()

    @pytest.mark.parametrize("n", [1, 7, 200, 2000])
    def test_random_rows_match_single_curves_bitwise(self, n):
        rng = np.random.default_rng(n)
        Ha = np.sort(rng.uniform(-3.0e4, 3.0e4, n))
        aJ = rng.uniform(300.0, 3000.0, 23)
        # coupling anywhere from -0.5 to 0.99 of the stability limit
        alpha = rng.uniform(-0.5, 0.99, 23) * 3.0 * aJ / 1.6e6
        rows = list(zip(aJ, alpha))
        block = self._block(Ha, rows)
        for row, (a, b) in zip(block, rows):
            one = _implicit_array(Ha, float(a), float(b), 1.6e6, 1e-9 * 1.6e6)
            assert row.tobytes() == one.tobytes()

    def test_one_row_block_is_the_single_curve(self):
        block = self._block(self.HA, self.ROWS[:1])
        one = _implicit_array(self.HA, *self.ROWS[0], 1.6e6, 1e-9 * 1.6e6)
        assert block.shape == (1, self.HA.size)
        assert block[0].tobytes() == one.tobytes()

    def test_a_row_that_misses_the_tolerance_fails_the_block(self, monkeypatch):
        # the alpha < 0 rows need 4, 6 and 23 iterations, the others 1 to 3
        monkeypatch.setattr(core, "_MAX_ITER", 6)
        with raises_numerical("^implicit anhysteretic solve: 6 iterations without reaching tolerance"):
            self._block(self.HA, self.ROWS)


class TestImplicitRegimes:
    """Seeded draws over the coupling regimes: every solve ends, near its root."""

    MS = 1.6e6
    TOL = 1e-9 * MS
    # alpha*Ms/(3*aJ) per regime
    RATIOS = {
        "uncoupled": lambda rng: 0.0,
        "coupled": lambda rng: 0.99 - rng.uniform(0.0, 0.99),  # (0, 0.99]
        "near-critical": lambda rng: 1.0 - 10.0 ** rng.uniform(-6.0, -2.0),  # (0.99, 1 - 1e-6]
        "negative": lambda rng: rng.uniform(-5.0, 0.0),  # [-5, 0)
    }

    @staticmethod
    def _counted(monkeypatch):
        """Iterations of each solve, counted as L' calls (one per iteration)."""
        calls = []
        lprime = core.langevin_prime
        monkeypatch.setattr(core, "langevin_prime", lambda *a: calls.append(1) or lprime(*a))
        return calls

    @pytest.mark.parametrize("regime", list(RATIOS))
    def test_every_draw_ends_near_its_root(self, regime, monkeypatch):
        calls = self._counted(monkeypatch)
        rng = np.random.default_rng(list(self.RATIOS).index(regime))
        bracketed = 0
        for _ in range(300):
            aJ = 10.0 ** rng.uniform(1.0, 5.0)
            alpha = self.RATIOS[regime](rng) * 3.0 * aJ / self.MS
            mag = 10.0 ** rng.uniform(-3.0, 6.0, 16)
            Ha = np.concatenate([[0.0], mag, -mag[:8]])
            calls.clear()
            M = np.abs(_implicit_array(Ha, aJ, alpha, self.MS, self.TOL))  # no NoConvergence
            bracketed += len(calls) > core._NEWTON_STEPS
            # The last step moved M by at most TOL; after a bisection that leaves M
            # within TOL of the root, and the residual's slope 1 - kappa*L'(x) is at
            # most 1 + 5 for alpha*Ms/(3*aJ) >= -5.
            resid = M - self.MS * langevin((np.abs(Ha) + alpha * M) / aJ)
            assert np.max(np.abs(resid)) <= 6.0 * self.TOL, (aJ, alpha)
        # on these draws only alpha < 0 reaches the bracket: coupled and near-critical rows
        # start at the root of the cubic, below their own, and are done in 1 to 7 steps
        assert (bracketed > 0) == (regime == "negative"), bracketed

    def _bisected(self, A, aJ, alpha):
        """Root of M - Ms*L((A + alpha*M)/aJ) in [0, Ms], bisected until no midpoint is left."""
        lo, hi = np.zeros_like(A), np.where(A > 0.0, self.MS, 0.0)
        while True:
            mid = lo + 0.5 * (hi - lo)
            inside = (mid != lo) & (mid != hi)
            if not inside.any():
                return lo, hi
            below = mid - self.MS * langevin((A + alpha * mid) / aJ) < 0.0
            lo, hi = np.where(inside & below, mid, lo), np.where(inside & ~below, mid, hi)

    def test_max_langevin_curvature_bounds_the_stop_rule(self):
        # L''(x) = 2*coth(x)/sinh(x)^2 - 2/x^3 peaks in magnitude at 0.1059636 near x = 1.3723
        x = np.linspace(0.05, 20.0, 400_001)
        l2 = np.max(np.abs(2.0 / (np.tanh(x) * np.sinh(x) ** 2) - 2.0 / x**3))
        assert 0.1059 < l2 <= core._L2_MAX < 0.10601

    @pytest.mark.parametrize("regime", [*RATIOS, "sweep"])
    def test_every_row_is_within_tol_of_its_bisected_root(self, regime):
        # The Newton-phase stop rule certifies C*d^2 <= abs_tol; a bisection of the same
        # residual to the double floor must agree.  Where langevin's cancellation (~7e-16/x^2
        # relative below x = 1) blurs the residual's sign over more than TOL, near
        # stability, the root is only known to that rounding over the residual's slope.
        rng = np.random.default_rng(20 + [*self.RATIOS, "sweep"].index(regime))
        for _ in range(100):
            aJ = 10.0 ** rng.uniform(1.0, 5.0)
            if regime == "sweep":  # a block of the sweep's candidates on validate's fields
                A = np.linspace(H_MAX / N_SAMPLES, H_MAX, N_SAMPLES)
                alpha = np.sort(rng.uniform(0.97, 0.9992, 8))[:, None] * 3.0 * aJ / self.MS
                M = _implicit_array(A, np.full_like(alpha, aJ), alpha, self.MS, self.TOL)
                A = np.broadcast_to(A, M.shape)
            else:
                alpha = self.RATIOS[regime](rng) * 3.0 * aJ / self.MS
                A = 10.0 ** rng.uniform(-3.0, 6.0, 16)
                M = _implicit_array(A, aJ, alpha, self.MS, self.TOL)
            lo, hi = self._bisected(A, aJ, alpha)
            x = (A + alpha * M) / aJ
            slope = 1.0 - alpha * self.MS / aJ * langevin_prime(x)
            blur = 0.0 if regime == "sweep" else 2.0 * TestImplicitStart._slack(A, M, aJ, alpha)[0] / slope
            assert np.all(np.maximum(M - lo, hi - M) <= self.TOL + blur), (aJ, alpha)

    def test_validate_rows_take_three_steps_as_a_block(self, monkeypatch):
        # each row's third step certifies it; the plain test d <= abs_tol took a fourth
        data = synthetic_curve(*GRID_ROWS[0])
        calls = self._counted(monkeypatch)
        aJ, alpha = (np.array(col)[:, None] for col in zip(*GRID_ROWS))
        M = _implicit_array(data.H, aJ, alpha, self.MS, self.TOL)
        assert len(calls) == 3
        assert M[0].tobytes() == data.M.tobytes()

    def test_bracketed_rows_match_single_curves_bitwise(self, monkeypatch):
        calls = self._counted(monkeypatch)
        Ha = np.array([-1e3, -1e-3, 0.0, 1e-3, 3e-3, 1e-2, 1.0, 1e3, 1e6])
        rows = [
            (1.0e5, 0.18749998125),  # alpha*Ms/(3*aJ) = 0.9999999: noise at mA/m fields
            (972.0, -1.0e-2),  # alpha*Ms/(3*aJ) = -5.5: x < 0 above the root
            (972.0, 1.4e-3),
        ]
        singles = []
        for aJ, alpha in rows:
            calls.clear()
            singles.append(_implicit_array(Ha, aJ, alpha, self.MS, self.TOL))
            iters = len(calls)
            assert (iters > core._NEWTON_STEPS) == (alpha != 1.4e-3), iters
            # the H = 0 lane's bracket is [0, 0]: it stays on its root and costs no iteration
            calls.clear()
            _implicit_array(np.delete(Ha, 2), aJ, alpha, self.MS, self.TOL)
            assert len(calls) == iters and singles[-1][2] == 0.0
        aJ = np.array([r[0] for r in rows])[:, None]
        alpha = np.array([r[1] for r in rows])[:, None]
        block = _implicit_array(Ha, aJ, alpha, self.MS, self.TOL)
        for row, one in zip(block, singles):
            assert row.tobytes() == one.tobytes()

    def test_validate_rows_stay_in_the_newton_phase(self, monkeypatch):
        calls = self._counted(monkeypatch)
        iters = []
        solve = anfit._implicit_array

        def counted(*args):
            calls.clear()
            out = solve(*args)
            iters.append(len(calls))
            return out

        monkeypatch.setattr(anfit, "_implicit_array", counted)
        for aJ, alpha in GRID_ROWS:
            run_row(aJ, alpha, AnhystereticFitConfig(eps=1e-4))
        assert len(iters) > 6 and max(iters) <= core._NEWTON_STEPS, max(iters)


class TestImplicitStart:
    """A row with alpha > 0 starts at Ms*L(x_c), x_c the root of eps*x + (alpha*Ms/45)*x^3 = A.

    G(M) = M - Ms*L((A + alpha*M)/aJ) increases, so G(M) <= 0 means M is at or
    below the root.  x/3 - x^3/45 <= L(x) on x >= 0 puts the start below the
    root, and the convexity of G puts the first Newton step at or above it.
    """

    MS = 1.6e6
    TOL = 1e-9 * MS

    @staticmethod
    def _traced(monkeypatch):
        """("L", x) and ("L'", x) for each kernel call of the solve, in order."""
        events = []
        lang, lprime = core.langevin, core.langevin_prime
        monkeypatch.setattr(core, "langevin", lambda x: events.append(("L", x.copy())) or lang(x))
        monkeypatch.setattr(
            core, "langevin_prime", lambda x, L=None: events.append(("L'", x.copy())) or lprime(x, L)
        )
        return events

    @staticmethod
    def _slack(A, M, aJ, alpha):
        """Rounding of G(M): langevin's cancellation, ~7e-16/x^2 relative below x = 1."""
        x = (A + alpha * M) / aJ
        return 4e-15 * M * (1.0 + 1.0 / np.minimum(x, 1.0) ** 2), x

    @pytest.mark.parametrize("regime", ["coupled", "near-critical"])
    def test_start_is_below_the_root_and_the_first_step_above_it(self, regime, monkeypatch):
        events = self._traced(monkeypatch)
        rng = np.random.default_rng(10 + list(TestImplicitRegimes.RATIOS).index(regime))
        for _ in range(300):
            aJ = 10.0 ** rng.uniform(1.0, 5.0)
            alpha = TestImplicitRegimes.RATIOS[regime](rng) * 3.0 * aJ / self.MS
            A = 10.0 ** rng.uniform(-3.0, 6.0, 16)
            events.clear()
            M1 = _implicit_array(A, aJ, alpha, self.MS, math.inf)  # one Newton step, then done
            M0 = self.MS * langevin(events[0][1])
            M = _implicit_array(A, aJ, alpha, self.MS, self.TOL)
            for Mk, sign in ((M0, 1.0), (M1, -1.0)):
                slack, x = self._slack(A, Mk, aJ, alpha)
                assert np.all(sign * (Mk - self.MS * langevin(x)) <= slack), (aJ, alpha)
            # the converged root is known to TOL plus G's rounding over its slope
            slack, x = self._slack(A, M, aJ, alpha)
            slope = 1.0 - alpha * self.MS / aJ * langevin_prime(x)
            assert np.all(M0 <= M + self.TOL + slack / slope), (aJ, alpha)

    @pytest.mark.parametrize("alpha", [0.0, -4.0e-3, -1.0e-2])
    def test_rows_without_coupling_start_uncoupled(self, alpha, monkeypatch):
        events = self._traced(monkeypatch)
        Ha = np.array([-2.0e4, -10.0, 0.0, 1e-3, 300.0, 5.0e3, 4.0e5])
        A = np.abs(Ha)
        _implicit_array(Ha, 972.0, alpha, self.MS, self.TOL)
        assert events[0][1].tobytes() == (A / 972.0).tobytes()
        events.clear()  # and as a row of a block beside a coupled one
        aJ, alphas = np.array([[972.0], [50.0]]), np.array([[alpha], [1e-5]])
        _implicit_array(Ha, aJ, alphas, self.MS, self.TOL)
        assert events[0][1][0].tobytes() == (A / 972.0).tobytes()

    def test_iteration_budget(self, monkeypatch):
        events = self._traced(monkeypatch)

        def iterations():
            return sum(kind == "L'" for kind, _ in events)

        for aJ, alpha in GRID_ROWS:
            events.clear()
            synthetic_curve(aJ, alpha)
            assert iterations() <= 5, (aJ, alpha, iterations())
        # one sweep block of the plain fit: 81 candidates at coupling 0.97-0.9992
        H = np.linspace(H_MAX / N_SAMPLES, H_MAX, N_SAMPLES)
        for aJ in (100.0, 972.0, 1.0e4):
            alpha = np.linspace(0.97, 0.9992, 81)[:, None] * 3.0 * aJ / self.MS
            events.clear()
            _implicit_array(H, np.full_like(alpha, aJ), alpha, self.MS, self.TOL)
            assert iterations() <= 5, (aJ, iterations())

    # A sweep over a curve with M near 1e20 reaches rows whose eps = aJ - alpha*Ms/3 rounds
    # to 0 although alpha*Ms/(3*aJ) < 1, and rows just past stability where eps < 0.  The
    # start divides by eps, so the solve rejects them, alone or in a block
    @pytest.mark.parametrize("aJ, alpha", [(20000.00000000002, 0.03750000000000003), (1000.0, 0.0018750000000000001)])
    def test_rows_without_stability_margin_raise_unstable_params(self, aJ, alpha):
        eps = aJ - alpha * self.MS / 3.0
        assert eps <= 0.0 and (eps < 0.0 or alpha * self.MS / (3.0 * aJ) < 1.0)
        Ha = np.array([-1.0e3, 0.0, 1e-3, 50.0, 1.0e4])
        message = "^alpha\\*Ms/\\(3\\*aJ\\) = 1 >= 1; the anhysteretic curve is multivalued$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnstableParams, match=message):
                _implicit_array(Ha, aJ, alpha, self.MS, self.TOL)
            for rows in ([(aJ, alpha), (972.0, 1.4e-3)], [(972.0, 1.4e-3), (aJ, alpha)]):
                with pytest.raises(UnstableParams, match=message):
                    _implicit_array(Ha, np.array(rows)[:, :1], np.array(rows)[:, 1:], self.MS, self.TOL)

    # Near stability eps is so small that A/eps overflows at fields a float still holds:
    # the start was inf*0 = NaN, with overflow and invalid warnings, and the solve ended
    # on NoConvergence.  Those lanes start at 0, below the root, and climb to Ms
    @pytest.mark.parametrize("ratio, lowest", [(1.0 - 1e-6, 1e306), (1.0 - 1e-12, 1e300)])
    def test_fields_whose_start_overflows_saturate(self, ratio, lowest):
        aJ = 1000.0
        alpha = ratio * 3.0 * aJ / self.MS
        H = np.geomspace(lowest, 1e308, 5)
        assert H[0] > np.finfo(float).max * (aJ - alpha * self.MS / 3.0)  # A/eps overflows
        small = np.array([0.0, 1.0, 1.0e3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            M = _implicit_array(np.concatenate([-H, small, H]), aJ, alpha, self.MS, self.TOL)
        assert np.all(M[:5] == -self.MS) and np.all(M[8:] == self.MS)
        assert M[5:8].tobytes() == _implicit_array(small, aJ, alpha, self.MS, self.TOL).tobytes()

    def test_arguments_past_the_float_range_saturate_silently(self):
        # aJ = 1e-3 A/m puts (|H| + alpha*M)/aJ past the float range at 1e307 A/m: L(inf) = 1
        # gives M = Ms there, but the iteration's divide warned "overflow"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            M = _implicit_array(np.array([1e307, 1.0]), 1e-3, 0.0, self.MS, 1e-3)
        assert M.tolist() == [self.MS, 1598400.0]  # 0.999*Ms

    def test_a_block_names_its_first_unstable_row(self):
        aJ, alpha = np.array([[972.0], [100.0], [1.0]]), np.array([[1.4e-3], [1.4e-3], [0.01]])
        with pytest.raises(UnstableParams, match="^alpha\\*Ms/\\(3\\*aJ\\) = 7.46667 >= 1;"):
            _implicit_array(np.array([50.0, 1.0e4]), aJ, alpha, self.MS, self.TOL)

    def test_fit_past_the_stability_margin_is_a_data_error(self):
        H = np.linspace(50.0, 1.0e4, 200)
        data = MagnetizationCurve(H=H, M=np.geomspace(1e20, 1e60, 200), kind=CurveKind.ANHYSTERETIC)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError) as info:
                anfit.fit_anhysteretic(data, MaterialSpec(self.MS, 303.5), AnhystereticFitConfig(coarse=True))
        assert type(info.value) is DataError
        assert str(info.value) == (
            "initial susceptibility 2e+18 is too large for Ms = 1.6e+06 A/m: "
            "alpha*Ms/(3*aJ) = 1 >= 1; the anhysteretic curve is multivalued"
        )
        assert type(info.value.__cause__) is UnstableParams


class TestSlope:
    def test_matches_finite_difference(self, steel_params):
        aJ = steel_params.aJ
        h = 1e-3 * aJ
        for ha in (0.0, 200.0, 1000.0, 5000.0):
            grid = np.array([ha - h, ha, ha + h])
            m = anhysteretic_implicit(grid, steel_params, 1.6e6, abs_tol=1e-12 * 1.6e6)
            fd = (m[2] - m[0]) / (2.0 * h)
            slope = anhysteretic_slope(ha, float(m[1]), steel_params, 1.6e6)
            assert slope == pytest.approx(fd, rel=1e-4)

    def test_origin_uncoupled(self):
        p = AnhystereticParams.from_shape(972.0, 0.0, 303.5)
        slope = anhysteretic_slope(0.0, 0.0, p, 1.6e6)
        assert slope == pytest.approx(1.6e6 / (3.0 * 972.0), rel=1e-12)

    def test_array(self, steel_params):
        grid = np.array([0.0, 1000.0])
        m = anhysteretic_implicit(grid, steel_params, 1.6e6)
        slopes = anhysteretic_slope(grid, m, steel_params, 1.6e6)
        assert slopes.shape == (2,)
        assert np.all(slopes > 0.0)

    def test_singular_denominator(self):
        with raises_numerical(r"^1 - alpha\*\(Ms/aJ\)\*L'\(x\) = .* <= 0 at Ha=0.0, M=0.0$"):
            _slope_raw(0.0, 0.0, 100.0, 0.01, 1.6e6)


class TestScalarHelpers:
    def test_moment_reference(self):
        m = moment_from_susceptibility(45.7954, 1.6e6, 303.5)
        assert m == pytest.approx(2.8632234536215088e-19, rel=1e-12)

    def test_shape_param_references(self):
        assert shape_param_from_moment(2.8738e-19, 303.5) == pytest.approx(
            11603.141102904125, rel=1e-12
        )
        assert shape_param_from_moment(2.5512e-18, 303.5) == pytest.approx(
            1307.0361751930807, rel=1e-12
        )

    def test_moment_shape_round_trip(self):
        chi = 428.05
        m = moment_from_susceptibility(chi, 1.6e6, 303.5)
        aJ = shape_param_from_moment(m, 303.5)
        # chi = Ms/(3*aJ) inverts exactly
        assert 1.6e6 / (3.0 * aJ) == pytest.approx(chi, rel=1e-14)

    def test_alpha_difference(self):
        assert alpha_from_susceptibilities(10.0, 20.0) == pytest.approx(0.05, rel=1e-15)
        assert alpha_from_susceptibilities(20.0, 10.0) < 0.0
        with pytest.raises(ValueError):
            alpha_from_susceptibilities(0.0, 10.0)

    def test_rejected_arguments(self):
        with pytest.raises(ValueError):
            moment_from_susceptibility(-1.0, 1.6e6, 303.5)
        with pytest.raises(ValueError):
            shape_param_from_moment(0.0, 303.5)
