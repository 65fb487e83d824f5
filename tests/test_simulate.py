import numpy as np
import pytest

import jamag.simulate as simulate
from jamag.core import (
    AnhystereticParams,
    anhysteretic_implicit,
    anhysteretic_slope,
)
from jamag.dataio import CurveKind, LoopFeatures
from jamag.errors import (
    NonPhysicalParameterWarning,
    SingularDenominator,
    UnstableParams,
)
from jamag.jiles92 import c_from_susceptibilities
from jamag.simulate import (
    FieldWaveform,
    HysteresisParams,
    dM_dH,
    integrate,
    _rhs,
)

MS = 1.6e6
T = 303.5


def steel(c=0.1, k=1000.0):
    return HysteresisParams(aJ=972.0, alpha=1.4e-3, c=c, k=k, Ms=MS)


class TestParams:
    def test_positive_requirements(self):
        for kw in ({"aJ": 0.0}, {"k": -1.0}, {"Ms": 0.0}, {"alpha": -1e-4}):
            base = dict(aJ=972.0, alpha=1.4e-3, c=0.1, k=1000.0, Ms=MS)
            base.update(kw)
            with pytest.raises(ValueError):
                HysteresisParams(**base)

    def test_c_outside_unit_interval_warns(self):
        with pytest.warns(NonPhysicalParameterWarning):
            HysteresisParams(aJ=972.0, alpha=1.4e-3, c=1.2, k=1000.0, Ms=MS)
        with pytest.warns(NonPhysicalParameterWarning):
            HysteresisParams(aJ=972.0, alpha=1.4e-3, c=-0.1, k=1000.0, Ms=MS)


class TestWaveform:
    def test_cyclic_targets(self):
        w = FieldWaveform.cyclic(5000.0, cycles=3, steps_per_segment=100)
        assert w.targets == (0.0, 5000.0, -5000.0, 5000.0, -5000.0, 5000.0, -5000.0, 5000.0)
        assert w.n_segments == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            FieldWaveform((0.0,))
        with pytest.raises(ValueError):
            FieldWaveform((0.0, 0.0))
        with pytest.raises(ValueError):
            FieldWaveform((0.0, 1.0), steps_per_segment=1)
        with pytest.raises(ValueError):
            FieldWaveform((0.0, np.inf))

    def test_segment_slices_tile_output(self):
        w = FieldWaveform((0.0, 10.0, -10.0), steps_per_segment=4)
        curve = integrate(steel(), w)
        assert len(curve) == 2 * 4 + 1
        s0 = w.segment_slice(0)
        s1 = w.segment_slice(1)
        assert curve.H[s0][0] == 0.0 and curve.H[s0][-1] == 10.0
        assert curve.H[s1][0] == 10.0 and curve.H[s1][-1] == -10.0


class TestSlopeFunction:
    def test_pinned_arithmetic(self):
        # c=0.1, dMan/dH=100, Man-M=1000, delta=+1, k=1500, alpha=1.4e-3:
        # irreversible (1/1.1)*1000/(1500-1.4) plus reversible (0.1/1.1)*100
        p = steel(c=0.1, k=1500.0)
        got = _rhs(1000.0, 100.0, 0.0, 1, p, False)
        expected = (1000.0 / (1500.0 - 1.4)) / 1.1 + (0.1 / 1.1) * 100.0
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(9.6975, abs=5e-4)

    def test_singular_denominator(self):
        p = steel(c=0.1, k=1.4)  # delta*k == alpha*(Man-M) for Man-M=1000
        with pytest.raises(SingularDenominator):
            _rhs(1000.0, 100.0, 0.0, 1, p, False)

    def test_clamp_zeroes_receding_irreversible_term(self):
        p = steel(c=0.1, k=1500.0)
        # moving up while below the anhysteretic curve: clamp has no effect
        assert _rhs(1000.0, 100.0, 0.0, 1, p, True) == _rhs(1000.0, 100.0, 0.0, 1, p, False)
        # moving up while above it: only the reversible term survives
        clamped = _rhs(-1000.0, 100.0, 0.0, 1, p, True)
        assert clamped == pytest.approx((0.1 / 1.1) * 100.0, rel=1e-14)

    def test_on_curve_reduces_to_reversible(self):
        p = steel(c=0.2, k=500.0)
        ha = 800.0
        ap = AnhystereticParams.from_shape(p.aJ, p.alpha, T)
        man = anhysteretic_implicit(ha, ap, MS, abs_tol=1e-10 * MS)
        man_slope = anhysteretic_slope(ha, man, ap, MS)
        got = dM_dH(ha, man, 1, p)
        assert got == pytest.approx((0.2 / 1.2) * man_slope, rel=1e-6)

    def test_delta_validated(self):
        with pytest.raises(ValueError):
            dM_dH(100.0, 0.0, 0, steel())

    def test_positive_slope_near_curve(self):
        # a state slightly below the anhysteretic curve keeps the
        # denominator delta*k - alpha*(Man - M) positive
        p = steel()
        ap = AnhystereticParams.from_shape(p.aJ, p.alpha, T)
        man = anhysteretic_implicit(100.0, ap, MS)
        assert dM_dH(100.0, 0.9 * man, 1, p) > 0.0

    def test_negative_slope_far_below_curve(self):
        # far below the curve alpha*(Man - M) exceeds k and the slope
        # turns negative; the clamp option does not apply (delta*(Man-M) > 0)
        p = steel()
        assert dM_dH(1000.0, 0.0, 1, p) < 0.0
        assert dM_dH(1000.0, 0.0, 1, p, clamp=True) < 0.0


class TestIntegrate:
    def test_initial_state_bound(self):
        with pytest.raises(ValueError):
            integrate(steel(), FieldWaveform((0.0, 100.0)), M0=2.0e6)

    def test_unstable_params_rejected(self):
        p = HysteresisParams(aJ=1.0, alpha=0.01, c=0.1, k=100.0, Ms=MS)
        with pytest.raises(UnstableParams):
            integrate(p, FieldWaveform((0.0, 100.0)))

    def test_output_structure(self):
        curve = integrate(steel(), FieldWaveform((0.0, 100.0), steps_per_segment=10))
        assert curve.kind is CurveKind.FULL_LOOP
        assert len(curve) == 11
        assert curve.H[0] == 0.0 and curve.H[-1] == 100.0
        assert curve.M[0] == 0.0

    def test_saturation_bound_under_hard_drive(self):
        p = steel(c=0.05, k=50.0)
        curve = integrate(p, FieldWaveform.cyclic(5.0e4, cycles=2, steps_per_segment=300))
        assert np.max(np.abs(curve.M)) <= MS

    def test_loop_closure(self):
        S = 400
        curve = integrate(steel(), FieldWaveform.cyclic(5000.0, cycles=3, steps_per_segment=S))
        # one full cycle is two segments; compare cycle endpoints
        assert abs(curve.M[-1] - curve.M[-1 - 2 * S]) <= 1e-3 * MS

    def test_steady_loop_antisymmetry(self):
        S = 400
        curve = integrate(steel(), FieldWaveform.cyclic(5000.0, cycles=3, steps_per_segment=S))
        Hd, Md = curve.H[5 * S : 6 * S + 1], curve.M[5 * S : 6 * S + 1]
        Ha, Ma = curve.H[6 * S : 7 * S + 1], curve.M[6 * S : 7 * S + 1]
        Ma_at_negHd = np.interp(-Hd, Ha, Ma)
        assert np.max(np.abs(Md + Ma_at_negHd)) <= 1e-3 * MS

    def test_pinned_limit(self):
        p = HysteresisParams(aJ=972.0, alpha=1.4e-3, c=0.0, k=1.0e9, Ms=MS)
        curve = integrate(p, FieldWaveform.cyclic(5000.0, cycles=1, steps_per_segment=200))
        assert np.max(np.abs(curve.M)) <= 1e-3 * MS

    def test_nonzero_initial_state(self):
        curve = integrate(steel(), FieldWaveform((0.0, 1000.0), steps_per_segment=50), M0=1.0e5)
        assert curve.M[0] == 1.0e5

    def test_fully_reversible_limit_matches_reduced_form(self):
        # c=1 halves both terms; integrate the reduced form independently
        p = steel(c=1.0, k=500.0)
        S = 200
        curve = integrate(p, FieldWaveform((0.0, 3000.0), steps_per_segment=S))

        ap = AnhystereticParams.from_shape(p.aJ, p.alpha, T)
        tol = 1e-12 * MS

        def rhs(h, m):
            man = anhysteretic_implicit(h, ap, MS, abs_tol=tol)
            man_slope = anhysteretic_slope(h, man, ap, MS)
            dm = man - m
            return 0.5 * (dm / (500.0 - p.alpha * dm) + man_slope)

        h_grid = np.linspace(0.0, 3000.0, S + 1)
        step = h_grid[1] - h_grid[0]
        m = 0.0
        for i in range(S):
            h = h_grid[i]
            k1 = rhs(h, m)
            k2 = rhs(h + 0.5 * step, m + 0.5 * step * k1)
            k3 = rhs(h + 0.5 * step, m + 0.5 * step * k2)
            k4 = rhs(h + step, m + step * k3)
            m += (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert curve.M[-1] == pytest.approx(m, abs=1e-4 * MS)

    def test_clamp_removes_recoil_overshoot(self):
        # rise then partially recoil; clamping must change the recoil path
        w = FieldWaveform((0.0, 3000.0, 2000.0), steps_per_segment=150)
        free = integrate(steel(), w)
        clamped = integrate(steel(), w, clamp=True)
        assert not np.array_equal(free.M, clamped.M)
        assert np.max(np.abs(clamped.M)) <= MS

    def test_singular_step_reports_global_index(self, monkeypatch):
        calls = {"n": 0}
        real = simulate._rhs

        def flaky(man, man_slope, m, delta, p, clamp):
            calls["n"] += 1
            if calls["n"] == 30:
                raise SingularDenominator("forced")
            return real(man, man_slope, m, delta, p, clamp)

        monkeypatch.setattr(simulate, "_rhs", flaky)
        with pytest.raises(SingularDenominator) as exc:
            integrate(steel(), FieldWaveform((0.0, 1000.0, -1000.0), steps_per_segment=10))
        assert exc.value.step_index is not None
        # 4 evaluations per step: call 30 lands in step 8 (zero-based 7)
        assert exc.value.step_index == 7


class TestLoopParams:
    """The loop parameters `extract` reports: c = chi_in/chi_an and k = Hc."""

    def test_reference(self):
        feats = LoopFeatures(
            chi_in=50.0, chi_an=500.0, chi_max=1500.0, chi_r=1900.0, chi_m=50.0,
            Hc=120.0, Mr=5.0e5, Hm=5000.0, Mm=1.3e6,
        )
        c = c_from_susceptibilities(feats.chi_in, feats.chi_an)
        k = feats.Hc
        assert c == pytest.approx(0.1, rel=1e-15)
        assert k == 120.0
