import math

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
from jamag.core import _slope_raw
from jamag.errors import SingularSlope, UnstableParams

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
        with pytest.raises(SingularSlope):
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
