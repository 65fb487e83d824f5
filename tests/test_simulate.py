import inspect
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import jamag.simulate as simulate
from jamag.core import (
    AnhystereticParams,
    _implicit_array,
    _slope_raw,
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
BLOCK = simulate._BLOCK_STEPS


def steel(c=0.1, k=1000.0):
    return HysteresisParams(aJ=972.0, alpha=1.4e-3, c=c, k=k, Ms=MS)


def _rhs_reference(man, man_slope, M, delta, p, clamp):
    dm = man - M
    if clamp and delta * dm < 0.0:
        irr = 0.0
    else:
        denom = delta * p.k - p.alpha * dm
        if denom == 0.0:
            raise SingularDenominator(
                f"delta*k - alpha*(M_an - M) vanished (M_an - M = {dm:.6g})"
            )
        irr = dm / denom
    return (irr + p.c * man_slope) / (1.0 + p.c)


def _integrate_reference(p, waveform, M0=0.0, *, clamp=False):
    """The per-step RK4 loop on numpy scalars that ``integrate`` replaced."""
    S = waveform.steps_per_segment
    tol = 1e-12 * p.Ms
    H_out = np.empty(waveform.n_segments * S + 1)
    M_out = np.empty_like(H_out)
    H_out[0] = waveform.targets[0]
    M_out[0] = M = float(M0)

    step_base = 0
    for seg in range(waveform.n_segments):
        h0, h1 = waveform.targets[seg], waveform.targets[seg + 1]
        delta = 1.0 if h1 > h0 else -1.0
        grid = np.linspace(h0, h1, 2 * S + 1)
        man = _implicit_array(grid, p.aJ, p.alpha, p.Ms, tol)
        slope = _slope_raw(grid, man, p.aJ, p.alpha, p.Ms)
        h = (h1 - h0) / S

        for i in range(S):
            n0, nh, n1 = 2 * i, 2 * i + 1, 2 * i + 2
            k1 = _rhs_reference(man[n0], slope[n0], M, delta, p, clamp)
            k2 = _rhs_reference(man[nh], slope[nh], M + 0.5 * h * k1, delta, p, clamp)
            k3 = _rhs_reference(man[nh], slope[nh], M + 0.5 * h * k2, delta, p, clamp)
            k4 = _rhs_reference(man[n1], slope[n1], M + h * k3, delta, p, clamp)
            M = M + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if M > p.Ms:
                M = p.Ms
            elif M < -p.Ms:
                M = -p.Ms
            idx = step_base + i + 1
            H_out[idx] = grid[n1]
            M_out[idx] = M
        step_base += S
    return H_out, M_out


def _expected_steps(waveform, M, mirror=True):
    """RK4 steps per segment that ``integrate`` takes on the trajectory ``M``: up to
    the first step that commits a non-zero M equal to the M at the same step of its
    reference, negated for a negated grid, else all of them.  The reference is the
    last earlier segment with the same end fields, or, with ``mirror``, with those
    negated when its grid is this one's negated."""
    S, t = waveform.steps_per_segment, waveform.targets
    last, steps = {}, []
    for seg in range(waveform.n_segments):
        a, b = t[seg], t[seg + 1]
        key, twin = (a.hex(), b.hex()), ((-a).hex(), (-b).hex())
        (ref, sign), last[key] = last.get(key, (None, 1.0)), (seg, 1.0)
        if mirror and np.array_equal(np.linspace(a, b, 2 * S + 1), -np.linspace(-a, -b, 2 * S + 1)):
            last[twin] = seg, -1.0
        joined = np.empty(0, dtype=int)
        if ref is not None:
            own, other = M[seg * S + 1 : (seg + 1) * S + 1], M[ref * S + 1 : (ref + 1) * S + 1]
            joined = np.flatnonzero((own == sign * other) & (own != 0.0))
        steps.append(int(joined[0]) + 1 if joined.size else S)
    return steps


def _steps_taken(run):
    """``run()`` and the RK4 steps per segment that ``integrate`` took in it: the
    executions of the line that collects a committed M, by ``seg``."""
    code = simulate.integrate.__code__
    source, first = inspect.getsourcelines(simulate.integrate)
    (line,) = [first + i for i, text in enumerate(source) if "block.append(M)" in text]
    steps = Counter()

    def count(frame, event, arg):
        if event == "line" and frame.f_lineno == line:
            steps[frame.f_locals["seg"]] += 1
        return count

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: count if frame.f_code is code else None)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return result, [steps[seg] for seg in range(max(steps) + 1)]


class TestParams:
    def test_positive_requirements(self):
        for kw in ({"aJ": 0.0}, {"k": -1.0}, {"Ms": 0.0}, {"alpha": -1e-4}):
            base = dict(aJ=972.0, alpha=1.4e-3, c=0.1, k=1000.0, Ms=MS)
            base.update(kw)
            with pytest.raises(ValueError):
                HysteresisParams(**base)

    @pytest.mark.parametrize("name", ["aJ", "alpha", "k", "Ms"])
    def test_non_finite_names_the_field(self, name):
        base = dict(aJ=972.0, alpha=1.4e-3, c=0.1, k=1000.0, Ms=MS)
        with pytest.raises(ValueError, match=f"^{name} must be .*finite, got inf$"):
            HysteresisParams(**{**base, name: np.inf})

    def test_c_outside_unit_interval_warns(self):
        with pytest.warns(NonPhysicalParameterWarning):
            HysteresisParams(aJ=972.0, alpha=1.4e-3, c=1.2, k=1000.0, Ms=MS)
        with pytest.warns(NonPhysicalParameterWarning):
            HysteresisParams(aJ=972.0, alpha=1.4e-3, c=-0.1, k=1000.0, Ms=MS)

    def test_c_of_minus_one_raises(self):
        # 1 + c divides dM/dH: dM_dH and integrate both rely on this check
        with pytest.warns(NonPhysicalParameterWarning):
            with pytest.raises(ValueError, match="^c = -1 makes the 1 \\+ c divisor of dM/dH vanish$"):
                HysteresisParams(aJ=972.0, alpha=1.4e-3, c=-1.0, k=1000.0, Ms=MS)


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

    def test_spans_and_hmax_must_be_finite(self):
        # 1e308 - (-1e308) is inf: np.linspace over that span is not a grid
        needed = ", where a finite, non-zero span is needed$"
        with pytest.raises(ValueError, match=r"^waveform segment 1 from 1e\+308 to -1e\+308 A/m spans -inf" + needed):
            FieldWaveform.cyclic(1e308)
        with pytest.raises(ValueError, match="^waveform segment 0 from 0.0 to nan A/m spans nan" + needed):
            FieldWaveform((0.0, np.nan))
        with pytest.raises(ValueError, match="^waveform segment 1 from 1.0 to 1.0 A/m spans 0.0" + needed):
            FieldWaveform((0.0, 1.0, 1.0))
        for hmax in (np.inf, np.nan, 0.0):
            with pytest.raises(ValueError, match=f"^hmax must be positive and finite, got {hmax}$"):
                FieldWaveform.cyclic(hmax)

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
        got = _rhs(1000.0, p.c * 100.0, 0.0, 1.0, p.k, p.alpha, 1.0 + p.c, False)
        expected = (1000.0 / (1500.0 - 1.4)) / 1.1 + (0.1 / 1.1) * 100.0
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(9.6975, abs=5e-4)

    def test_singular_denominator(self):
        p = steel(c=0.1, k=1.4)  # delta*k == alpha*(Man-M) for Man-M=1000
        with pytest.raises(SingularDenominator):
            _rhs(1000.0, p.c * 100.0, 0.0, 1.0, p.k, p.alpha, 1.0 + p.c, False)

    def test_clamp_zeroes_receding_irreversible_term(self):
        p = steel(c=0.1, k=1500.0)
        # moving up while below the anhysteretic curve: clamp has no effect
        args = (p.c * 100.0, 0.0, 1.0, p.k, p.alpha, 1.0 + p.c)
        assert _rhs(1000.0, *args, True) == _rhs(1000.0, *args, False)
        # moving up while above it: only the reversible term survives
        clamped = _rhs(-1000.0, *args, True)
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

    @pytest.mark.parametrize("aJ, alpha, ratio", [(1.0, 0.01, "5333.33"), (1000.0, 0.0018750000000000001, "1")])
    def test_every_entry_raises_the_solves_unstable_params(self, aJ, alpha, ratio):
        # the second row is alpha*Ms/(3*aJ) = 1 + 2e-16, where eps = aJ - alpha*Ms/3 < 0
        p = HysteresisParams(aJ=aJ, alpha=alpha, c=0.1, k=100.0, Ms=MS)
        message = f"^alpha\\*Ms/\\(3\\*aJ\\) = {ratio} >= 1; the anhysteretic curve is multivalued$"
        with pytest.raises(UnstableParams, match=message):
            integrate(p, FieldWaveform((0.0, 100.0)))
        with pytest.raises(UnstableParams, match=message):
            dM_dH(50.0, 0.0, 1, p)
        with pytest.raises(UnstableParams, match=message):
            anhysteretic_implicit(50.0, AnhystereticParams.from_shape(aJ, alpha, T), MS)

    def test_output_structure(self):
        curve = integrate(steel(), FieldWaveform((0.0, 100.0), steps_per_segment=10))
        assert curve.kind is CurveKind.FULL_LOOP
        assert len(curve) == 11
        assert curve.H[0] == 0.0 and curve.H[-1] == 100.0
        assert curve.M[0] == 0.0

    def test_saturation_bound_under_hard_drive(self):
        # steps fine enough that no sample sits on the |M| = Ms clamp: the bound is the
        # ODE's own, not the clamp's
        p = steel(c=0.05, k=50.0)
        curve, caught = _clamp_warnings(p, FieldWaveform.cyclic(5.0e4, cycles=2, steps_per_segment=10_000))
        assert not [w for w in caught if w.category is RuntimeWarning]
        assert np.max(np.abs(curve.M)) < MS

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
        p = HysteresisParams(aJ=1e6, alpha=0.5, c=0.1, k=100.0, Ms=MS)
        S = BLOCK + 10
        # (steps per segment, global step, segment, step in segment): with M_an and
        # its slope zero, M stays 0 until M_an = delta*k/alpha at the failing step's
        # midpoint, where the k2 stage's denominator delta*k - 0.5*200*delta is 0;
        # the second case fails in the second block of the second segment
        for steps, step_index, seg, step in ((10, 7, 0, 7), (S, S + BLOCK + 5, 1, BLOCK + 5)):
            targets = (0.0, 1000.0, -1000.0)

            def man(grid, *args, _h0=targets[seg], _step=step):
                out = np.zeros(len(grid))
                if grid[0] == _h0:
                    dk = p.k if grid[-1] > grid[0] else -p.k
                    out[2 * _step + 1] = dk / p.alpha
                return out

            monkeypatch.setattr(simulate, "_implicit_array", man)
            monkeypatch.setattr(simulate, "_slope_raw", lambda grid, *args: np.zeros(len(grid)))
            with pytest.raises(SingularDenominator) as exc:
                integrate(p, FieldWaveform(targets, steps_per_segment=steps))
            assert exc.value.step_index == step_index
            assert str(exc.value) == (
                f"delta*k - alpha*(M_an - M) vanished (M_an - M = {200 if seg == 0 else -200})"
                f" at segment {seg}, step {step}"
            )

    def test_c_of_minus_one_rejected(self):
        with pytest.warns(NonPhysicalParameterWarning):
            with pytest.raises(ValueError, match="1 \\+ c"):
                integrate(steel(c=-1.0), FieldWaveform((0.0, 100.0)))


class TestIntegrateBitwise:
    """``integrate`` has the bits of the per-step numpy-scalar loop it replaced."""

    @staticmethod
    def check(waveform, M0=0.0, clamp=False, p=None):
        p = p or steel()
        curve = integrate(p, waveform, M0, clamp=clamp)
        H, M = _integrate_reference(p, waveform, M0, clamp=clamp)
        assert curve.H.tobytes() == H.tobytes()
        assert curve.M.tobytes() == M.tobytes()
        return curve.M

    @pytest.mark.parametrize("steps", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    @pytest.mark.parametrize("clamp", [False, True])
    def test_block_boundaries(self, steps, clamp):
        self.check(FieldWaveform((0.0, 5000.0, -5000.0), steps_per_segment=steps), clamp=clamp)

    @pytest.mark.parametrize("targets", [(0.0, 3000.0, 2000.0), (0.0, -4000.0, 4000.0)])
    @pytest.mark.parametrize("M0", [0.0, 2.5e5])
    @pytest.mark.parametrize("clamp", [False, True])
    def test_waveforms_and_initial_states(self, targets, M0, clamp):
        self.check(FieldWaveform(targets, steps_per_segment=BLOCK + 1), M0, clamp)

    def check_steps(self, waveform, M0=0.0, clamp=False, p=None):
        """``check``, and that each segment took the RK4 steps up to where it joins."""
        M, steps = _steps_taken(lambda: self.check(waveform, M0, clamp, p))
        assert steps == _expected_steps(waveform, M)
        return steps

    @pytest.mark.parametrize("M0", [0.0, -0.0, 2.5e5])
    @pytest.mark.parametrize("clamp", [False, True])
    def test_limit_cycle_segments_reused(self, M0, clamp):
        waveform = FieldWaveform.cyclic(5000.0, cycles=6)
        # the loop settles bit for bit: the second descent joins the first rise's
        # trajectory negated partway, and each later segment starts on the one before
        # it, negated, and joins it after one step
        steps = self.check_steps(waveform, M0, clamp)
        assert steps[:3] == [2000] * 3 and 1 < steps[3] < 2000 and steps[4:] == [1] * 9

    @pytest.mark.parametrize("clamp", [False, True])
    def test_mid_segment_merge(self, clamp):
        # the second descent joins the first rise's trajectory, negated, in its second
        # integrator block, partway through it; the second rise joins it after one step
        S = 6000
        steps = self.check_steps(FieldWaveform.cyclic(5000.0, cycles=2, steps_per_segment=S), clamp=clamp)
        assert steps[:3] == [S] * 3 and BLOCK + 1 < steps[3] < 2 * BLOCK and steps[4] == 1

    def test_asymmetric_waveform_keeps_the_same_grid_rule(self):
        # no segment's end fields are another's negated: the second rise joins the first
        # partway, and the third descent joins the second after one step
        S = 600
        waveform = FieldWaveform((0.0, 3000.0, -2000.0, 3000.0, -2000.0, 3000.0, -2000.0), steps_per_segment=S)
        M, steps = _steps_taken(lambda: self.check(waveform))
        assert steps == _expected_steps(waveform, M, mirror=False) == _expected_steps(waveform, M)
        assert steps[:4] == [S] * 4 and 1 < steps[4] < S and steps[5] == 1

    def test_a_presolve_that_is_not_odd_is_not_mirrored(self, monkeypatch):
        # M_an shifted by 1 A/m is not odd: only a repeat over the same grid joins, here
        # the second rise partway through the first
        for name, real in (("_implicit_array", _implicit_array), ("_slope_raw", _slope_raw)):
            def fake(grid, *args, _real=real, _shift=float(name == "_implicit_array")):
                return _real(grid, *args) + _shift

            monkeypatch.setattr(simulate, name, fake)
            monkeypatch.setitem(globals(), name, fake)
        S = 2000
        waveform = FieldWaveform.cyclic(5000.0, cycles=3, steps_per_segment=S)
        M, steps = _steps_taken(lambda: self.check(waveform))
        assert steps == _expected_steps(waveform, M, mirror=False) != _expected_steps(waveform, M)
        assert steps[:4] == [S] * 4 and 1 < steps[4] < S and steps[5:] == [1, 1]

    def test_repeated_grid_from_other_start_state(self):
        # each rise starts from a different M and never joins: every step is integrated
        waveform = FieldWaveform(
            (0.0, 3000.0, -1000.0, 3000.0, -2000.0, 3000.0, -1000.0, 3000.0), steps_per_segment=300
        )
        assert self.check_steps(waveform) == [300] * 7

    def test_merge_skips_zero(self, monkeypatch):
        # With M_an zero, an unreachable k and c = 1, a step adds 6*sixth*c_slope/2
        # exactly: c_slope is 0 on the half of each grid nearer H = 0 and 1 on the rest.
        # The first descent stays at -0.0 from M0 = -0.0 for 50 steps, then falls by
        # 299/2; the rise climbs by as much, back to 0.0, and the second descent stays
        # at 0.0 where the first was -0.0: it joins that one only after step 51
        p = HysteresisParams(aJ=972.0, alpha=0.0, c=1.0, k=1e300, Ms=MS)

        def zeros(grid, *args):
            return np.zeros(len(grid))

        def slope(grid, *args):
            return (np.abs(grid) > 300.0).astype(float)

        for name, fake in (("_implicit_array", zeros), ("_slope_raw", slope)):
            monkeypatch.setattr(simulate, name, fake)
            monkeypatch.setitem(globals(), name, fake)
        waveform = FieldWaveform((0.0, -600.0, 0.0, -600.0), steps_per_segment=100)
        M, steps = _steps_taken(lambda: self.check(waveform, -0.0, False, p))
        assert M[100] == -299 / 2 and M[200] == 0.0 and M[251] == M[51] == -2.5
        assert np.signbit(M[:51]).all() and not np.signbit(M[200:251]).any()
        assert steps == _expected_steps(waveform, M) == [100, 100, 51]

    def test_a_mirrored_copy_writes_zero_as_integration_does(self, monkeypatch):
        # With M_an zero, a slope of 1, an unreachable k and c = 1, M moves by h/2 a step
        # exactly: from M0 = 0.0 the rise runs from -300 to 300 through 0.0 at step 50, and
        # the descent, from 300, joins it negated after one step.  Its copy of step 50 is
        # 0.0 - 0.0 = 0.0, as integrating 300 - 50*6 gives, not -1.0 * 0.0 = -0.0
        p = HysteresisParams(aJ=972.0, alpha=0.0, c=1.0, k=1e300, Ms=MS)
        for name, fake in (("_implicit_array", lambda grid, *args: np.zeros(len(grid))),
                           ("_slope_raw", lambda grid, *args: np.ones(len(grid)))):
            monkeypatch.setattr(simulate, name, fake)
            monkeypatch.setitem(globals(), name, fake)
        waveform = FieldWaveform((0.0, -600.0, 600.0, -600.0), steps_per_segment=100)
        M, steps = _steps_taken(lambda: self.check(waveform, 0.0, False, p))
        assert M[150] == M[250] == 0.0 and not np.signbit(M[250])
        assert steps == _expected_steps(waveform, M) == [100, 100, 1]

    def test_start_m_keyed_on_bits(self, monkeypatch):
        # with M_an and its slope zero, M stays -0.0 from M0 = -0.0 on the first
        # descent and turns 0.0 on the rise: the second descent starts from other bits
        def zeros(grid, *args):
            return np.zeros(len(grid))

        for name in ("_implicit_array", "_slope_raw"):
            monkeypatch.setattr(simulate, name, zeros)
            monkeypatch.setitem(globals(), name, zeros)
        waveform = FieldWaveform((0.0, -1000.0, 0.0, -1000.0), steps_per_segment=10)
        M = self.check(waveform, -0.0)
        assert np.signbit(M[:11]).all() and not np.signbit(M[20:]).any()

    @pytest.mark.parametrize("targets", [
        (0.0, 5000.0, -5000.0, 5000.0, -5000.0, 5000.0, -5000.0, 5000.0),
        # (5000, 0.0) and (5000, -0.0) end on different grid bits
        (-0.0, 5000.0, 0.0, 5000.0, -0.0, 5000.0, -5000.0, -0.0),
    ])
    def test_repeated_segments_solved_once(self, monkeypatch, targets):
        calls = {"_implicit_array": 0, "_slope_raw": 0}
        for name in calls:
            def counted(*args, _real=getattr(simulate, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(simulate, name, counted)
        waveform = FieldWaveform(targets, steps_per_segment=BLOCK + 1)
        self.check(waveform)
        distinct = len({(a.hex(), b.hex()) for a, b in zip(waveform.targets, waveform.targets[1:])})
        assert distinct < waveform.n_segments
        assert calls == {"_implicit_array": distinct, "_slope_raw": distinct}


@st.composite
def _mirror_cases(draw):
    """Stable parameters (alpha*Ms/(3*aJ) below 0.9), a cyclic waveform and a start state."""
    aJ = draw(st.floats(300.0, 3000.0))
    p = HysteresisParams(aJ=aJ, alpha=draw(st.floats(0.0, 0.9)) * 3.0 * aJ / MS, c=draw(st.floats(0.0, 1.0)),
                         k=draw(st.floats(20.0, 3000.0)), Ms=MS)
    waveform = FieldWaveform.cyclic(draw(st.floats(100.0, 2.0e4)), cycles=draw(st.integers(2, 4)),
                                    steps_per_segment=draw(st.integers(2, 400)))
    M0 = draw(st.sampled_from([0.0, -0.0]) | st.floats(-0.5 * MS, 0.5 * MS))
    return p, waveform, M0, draw(st.booleans())


class TestMirror:
    """A loop's branches over negated grids are each other's negation, bit for bit."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(_mirror_cases())
    def test_cyclic_loops_keep_the_reference_bits(self, case):
        p, waveform, M0, clamp = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # a coarse step may reach the clamp
            try:
                H, M = _integrate_reference(p, waveform, M0, clamp=clamp)
            except SingularDenominator:
                with pytest.raises(SingularDenominator):
                    integrate(p, waveform, M0, clamp=clamp)
                return
            curve, steps = _steps_taken(lambda: integrate(p, waveform, M0, clamp=clamp))
        assert curve.H.tobytes() == H.tobytes() and curve.M.tobytes() == M.tobytes()
        assert steps == _expected_steps(waveform, M)
        # a descent from M0 is the rise over the same fields from -M0, negated
        h, S = waveform.targets[1], waveform.steps_per_segment
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            down = integrate(p, FieldWaveform((h, -h), steps_per_segment=S), M0, clamp=clamp)
            up = integrate(p, FieldWaveform((-h, h), steps_per_segment=S), -M0, clamp=clamp)
        assert np.array_equal(down.H, -up.H) and np.array_equal(down.M, -up.M)


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


def _clamp_warnings(p, waveform, M0=0.0):
    """The integrated curve and the warnings ``integrate`` emitted on it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        curve = integrate(p, waveform, M0)
    return curve, caught


class TestClampWarning:
    """One RuntimeWarning when committed samples sit at the +-Ms clamp, off the ODE's solution."""

    @pytest.mark.parametrize("steps, count", [(150, 276), (300, 0), (1500, 0)])
    def test_coarse_step(self, steps, count):
        # RK4 at 150 steps per segment overshoots this set's pinning term onto the clamp
        p = HysteresisParams(aJ=1200.0, alpha=1.8e-3, c=0.05, k=400.0, Ms=MS)
        curve, caught = _clamp_warnings(p, FieldWaveform.cyclic(5000.0, cycles=3, steps_per_segment=steps))
        at = np.flatnonzero(np.abs(curve.M[1:]) == MS) + 1
        assert at.size == count
        if not count:
            assert caught == []
            return
        (w,) = caught
        assert w.category is RuntimeWarning
        assert str(w.message) == (
            f"{count} of {7 * steps} samples after the first sit at the |M| = Ms clamp, the first at "
            f"H = {float(curve.H[at[0]])!r} A/m: there the loop is not the ODE's solution (the model runs "
            "away, or the RK4 step is too coarse for it)"
        )

    def test_runaway_near_stability(self):
        # alpha*Ms/(3*aJ) = 0.991: the loop runs away onto the clamp at any step
        p = HysteresisParams(aJ=853.2442161252044, alpha=0.0015852285791921371, c=0.12232198841241808,
                             k=899.0296989693161, Ms=MS)
        _, caught = _clamp_warnings(p, FieldWaveform.cyclic(7601.718882205512, cycles=3, steps_per_segment=10833))
        (w,) = caught
        assert w.category is RuntimeWarning
        assert str(w.message).startswith("26810 of 75831 samples after the first sit at the |M| = Ms clamp, ")

    def test_initial_state_at_ms_does_not_warn(self):
        curve, caught = _clamp_warnings(steel(), FieldWaveform.cyclic(5000.0, cycles=2, steps_per_segment=400), MS)
        assert curve.M[0] == MS and caught == []

    def test_samples_on_a_saturated_anhysteretic_curve_do_not_count(self):
        # at 1e200 A/m the anhysteretic curve is +-Ms to rounding: only the samples the RK4 steps
        # of 5e197 A/m throw to the other side are off the ODE's solution
        curve, caught = _clamp_warnings(steel(), FieldWaveform.cyclic(1e200, cycles=3, steps_per_segment=200))
        assert np.count_nonzero(np.abs(curve.M[1:]) == MS) == 1400
        (w,) = caught
        assert str(w.message).startswith("806 of 1400 samples after the first sit at the |M| = Ms clamp, the "
                                         "first at H = 5e+197 A/m: ")
