import dataclasses
import logging
import math
import re
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

import jamag.jiles92 as jiles92
from jamag.core import (
    MU0,
    AnhystereticParams,
    MaterialSpec,
    anhysteretic_slope,
    langevin,
)
from jamag.dataio import (
    CurveKind,
    LoopFeatures,
    MagnetizationCurve,
    NonPhysicalParameterWarning,
    extract_features,
    split_branches,
)
from jamag.errors import DataError, JamagError, SingularDenominator
from jamag.jiles92 import (
    Jiles92Config,
    aj_initial,
    aj_update,
    alpha_update,
    c_from_susceptibilities,
    estimate,
    k_from_coercive,
)
from jamag.simulate import FieldWaveform, HysteresisParams, integrate
from jamag.validation import synthetic_curve

from conftest import LINV_HALF, LINV_QUARTER, raises_numerical

MS = 1.6e6
T = 303.5


def features(**kw):
    base = dict(
        chi_in=50.0, chi_an=500.0, chi_max=1500.0, chi_r=1900.0, chi_m=50.0,
        Hc=120.0, Mr=5.0e5, Hm=5000.0, Mm=1.3e6,
    )
    base.update(kw)
    return LoopFeatures(**base)


class TestConfig:
    def test_seed_sequence(self, synthetic_setup, monkeypatch):
        # every seed is tried, in order, when none yields a candidate
        material, _, loop, _ = synthetic_setup
        tried = []

        def recorded(Ms, chi_an, alpha):
            tried.append(alpha)
            return aj_initial(Ms, chi_an, alpha)

        monkeypatch.setattr(jiles92, "aj_initial", recorded)
        with raises_numerical("^no alpha seed produced a simulatable parameter set$"):
            estimate(features(chi_max=1e-6), material, Jiles92Config(), loop)
        assert tried == [1e-4, 1e-3, 1e-2, 1e-1]

    def test_validation(self):
        assert [f.name for f in dataclasses.fields(Jiles92Config)] == ["fit_tol", "sim_steps"]
        with pytest.raises(ValueError):
            Jiles92Config(fit_tol=0.0)
        with pytest.raises(ValueError, match="^sim_steps must be at least 2, got 1$"):
            Jiles92Config(sim_steps=1)
        # an infinite fit_tol met the fit condition at any MSE
        with pytest.raises(ValueError, match="^fit_tol must be positive and finite"):
            Jiles92Config(fit_tol=math.inf)
        # the seeds, the pass cap and the re-simulated cycles are fixed in the module
        for name, value in (("seeds", (1e-4,)), ("max_outer_iter", 2), ("sim_cycles", 3)):
            with pytest.raises(TypeError, match=name):
                Jiles92Config(**{name: value})


class TestClosedFormPieces:
    def test_c_ratio(self):
        assert c_from_susceptibilities(50.0, 500.0) == pytest.approx(0.1, rel=1e-15)

    def test_c_zero_denominator(self):
        with pytest.raises(DataError, match="^chi_an is zero$"):
            c_from_susceptibilities(50.0, 0.0)

    def test_c_outside_unit_interval_warns(self):
        with pytest.warns(NonPhysicalParameterWarning):
            assert c_from_susceptibilities(600.0, 500.0) > 1.0
        with pytest.warns(NonPhysicalParameterWarning):
            c_from_susceptibilities(0.0, 500.0)

    def test_equal_susceptibilities_warn(self):
        with pytest.warns(NonPhysicalParameterWarning):
            assert c_from_susceptibilities(500.0, 500.0) == 1.0

    def test_lossless_loop_warns_once(self):
        # Hc = 0 is flagged by the features alone; c and k = Hc add no warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            f = features(Hc=0.0)
            c = c_from_susceptibilities(f.chi_in, f.chi_an)
        assert [str(w.message) for w in caught] == ["Hc is zero (lossless loop)"]
        assert c == pytest.approx(0.1, rel=1e-15)

    def test_zero_anhysteretic_slope(self):
        with pytest.warns(NonPhysicalParameterWarning):
            f = features(chi_an=0.0)
        with pytest.raises(DataError, match="^chi_an is zero$"):
            c_from_susceptibilities(f.chi_in, f.chi_an)

    def test_aj_initial(self):
        assert aj_initial(MS, 428.0, 0.0) == pytest.approx(1246.1059190031153, rel=1e-12)
        chi, alpha = 428.05, 0.0195
        assert aj_initial(MS, chi, alpha) == pytest.approx(
            (MS / 3.0) * (1.0 / chi + alpha), rel=1e-14
        )


class TestKFromCoercive:
    def test_uncoupled_reversible_free_reduction(self):
        # c=0, alpha=0: k = Ms*L(Hc/aJ) / chi_max
        aJ, hc, chi_max = 1000.0, 100.0, 533.0
        f = features(Hc=hc, chi_max=chi_max)
        k = k_from_coercive(f, 0.0, aJ, 0.0, MS)
        assert k == pytest.approx(MS * langevin(hc / aJ) / chi_max, rel=1e-12)

    def test_degenerate_c(self):
        with raises_numerical("^c = 1: the pinning term drops out of the loop equations$"):
            k_from_coercive(features(), 1.0, 1000.0, 0.0, MS)

    def test_singular_inner_denominator(self):
        aJ, alpha, c = 1000.0, 1.4e-3, 0.5
        p = AnhystereticParams.from_shape(aJ, alpha, T)
        slope_c = anhysteretic_slope(features().Hc, 0.0, p, MS)
        f = features(chi_max=c * slope_c)
        with pytest.raises(SingularDenominator):
            k_from_coercive(f, c, aJ, alpha, MS)

    def test_positive_on_realistic_features(self):
        k = k_from_coercive(features(), 0.1, 972.0, 1.4e-3, MS)
        assert k > 0.0


class TestAlphaUpdate:
    def test_pinning_free_reduction(self):
        # k=0 leaves Mr = Ms*L(alpha*Mr/aJ), solvable in closed form
        aJ, mr, ms = 1000.0, 5.0e5, 1.0e6
        f = features(Mr=mr, Mm=6.0e5)
        expected = aJ * LINV_HALF / mr
        got = alpha_update(f, 0.4, 0.0, aJ, ms, guess=1e-3)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_with_pinning_stays_positive_and_consistent(self):
        aJ, k, c = 972.0, 300.0, 0.1
        f = features(Mr=5.0e5, Mm=1.3e6, chi_r=1900.0)
        alpha = alpha_update(f, c, k, aJ, MS, guess=1e-3)
        assert alpha > 0.0
        # plugging back in satisfies the remanence equation
        p = AnhystereticParams.from_shape(aJ, alpha, T)
        slope_r = anhysteretic_slope(0.0, f.Mr, p, MS)
        lhs = MS * langevin(alpha * f.Mr / aJ) + k / (
            alpha / (1.0 - c) + 1.0 / (f.chi_r - c * slope_r)
        )
        assert lhs == pytest.approx(f.Mr, rel=1e-8)


class TestAjUpdate:
    def test_pinning_free_reduction(self):
        # k=0 leaves Mm = Ms*L((Hm + alpha*Mm)/aJ)
        ms, mm, hm, alpha = 1.0e6, 2.5e5, 500.0, 1e-3
        f = features(Mr=1.0e5, Mm=mm, Hm=hm, Hc=50.0)
        expected = (hm + alpha * mm) / LINV_QUARTER
        got = aj_update(f, 0.3, 0.0, alpha, ms)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_zero_tip_slope_drops_pinning_term(self):
        ms, mm, hm, alpha = 1.0e6, 2.5e5, 500.0, 1e-3
        with pytest.warns(NonPhysicalParameterWarning):
            f = features(Mr=1.0e5, Mm=mm, Hm=hm, Hc=50.0, chi_m=0.0)
        got = aj_update(f, 0.3, 400.0, alpha, ms)
        assert got == pytest.approx((hm + alpha * mm) / LINV_QUARTER, rel=1e-14)

    def test_consistency_with_pinning(self):
        ms, mm, hm, alpha, c, k = 1.0e6, 2.5e5, 500.0, 1e-3, 0.2, 150.0
        f = features(Mr=1.0e5, Mm=mm, Hm=hm, Hc=50.0, chi_m=40.0)
        aJ = aj_update(f, c, k, alpha, ms)
        lhs = ms * langevin((hm + alpha * mm) / aJ) - (1.0 - c) * k * f.chi_m / (
            alpha * f.chi_m + 1.0
        )
        assert lhs == pytest.approx(mm, rel=1e-14)

    def test_tip_balance_residual_against_decimal(self):
        # 100 seeded tips at 0.5-0.95 of Ms: Ms*L(he/aJ) - pinned - Mm, in 40-digit arithmetic,
        # is within 2e-15 of Mm (the bracketed Brent solve held it to 1.5e-11)
        D = Decimal

        def L(x):
            e = (2 * x).exp()
            return (e + 1) / (e - 1) - 1 / x

        rng = np.random.default_rng(29)
        draws = 0
        with localcontext() as ctx:
            ctx.prec = 40
            while draws < 100:
                ms = rng.uniform(5.0e5, 2.0e6)
                mm, hm = rng.uniform(0.5, 0.95) * ms, 10.0 ** rng.uniform(3.0, 5.0)
                alpha, c, k = 10.0 ** rng.uniform(-5.0, -2.0), rng.uniform(0.01, 0.5), 10.0 ** rng.uniform(2.0, 3.7)
                f = features(Mr=0.1 * mm, Mm=mm, Hm=hm, Hc=10.0, chi_m=10.0 ** rng.uniform(0.0, 2.3))
                pinned = (1 - D(c)) * D(k) * D(f.chi_m) / (D(alpha) * D(f.chi_m) + 1)
                if (D(mm) + pinned) / D(ms) >= D("0.999"):
                    continue
                aJ = aj_update(f, c, k, alpha, ms)
                residual = D(ms) * L((D(hm) + D(alpha) * D(mm)) / D(aJ)) - pinned - D(mm)
                assert abs(residual) <= D(2e-15) * D(mm), (ms, mm, hm, alpha, c, k)
                draws += 1

    @pytest.mark.parametrize("change", [
        dict(Mm=1.7e6),  # (Mm + pinned)/Ms past 1: L(x) never gets there
        dict(Mm=-2.5e5, Mr=-1.0e5),  # a negative target fraction
        dict(Mm=-6.0e5, Mr=-1.0e5, Hm=500.0),  # Hm + alpha*Mm < 0
    ], ids=["past-saturation", "negative-target", "negative-field"])
    def test_no_positive_aj_balances_the_tip(self, change):
        f = features(Hc=50.0, chi_m=40.0, **change)
        with raises_numerical("^no aJ > 0 balances the loop tip"):
            aj_update(f, 0.2, 150.0, 1e-3, MS)


@pytest.fixture(scope="module")
def synthetic_setup():
    material = MaterialSpec(Ms=MS, T=T)
    truth = HysteresisParams(aJ=972.0, alpha=1.4e-3, c=0.1, k=1000.0, Ms=MS)
    hmax = 5000.0
    loop = integrate(truth, FieldWaveform.cyclic(hmax, cycles=3, steps_per_segment=600))
    rise = integrate(truth, FieldWaveform((0.0, hmax), steps_per_segment=600))
    first = MagnetizationCurve(H=rise.H, M=rise.M, kind=CurveKind.FIRST_MAGNETIZATION)
    anh = synthetic_curve(truth.aJ, truth.alpha, material, 300, hmax)
    feats = extract_features(first, loop, anh)
    return material, truth, loop, feats


class TestEstimate:
    def test_never_silent(self, synthetic_setup):
        material, truth, loop, feats = synthetic_setup
        res = estimate(feats, material, Jiles92Config(), loop)
        close = all(
            abs(got - want) / want <= 0.20
            for got, want in (
                (res.params.aJ, truth.aJ),
                (res.params.alpha, truth.alpha),
                (res.params.c, truth.c),
                (res.params.k, truth.k),
            )
        )
        assert close or not res.fit_condition_met
        assert res.mse >= 0.0 and np.isfinite(res.mse)
        assert res.seed in (1e-4, 1e-3, 1e-2, 1e-1)
        assert res.params.aJ > 0.0 and res.params.k > 0.0

    def test_deterministic(self, synthetic_setup):
        material, _, loop, feats = synthetic_setup
        a = estimate(feats, material, Jiles92Config(), loop)
        b = estimate(feats, material, Jiles92Config(), loop)
        assert a.params == b.params
        assert a.mse == b.mse
        assert a.seed == b.seed
        assert a.iterations == b.iterations

    def test_c_ratio_preserved(self, synthetic_setup):
        material, _, loop, feats = synthetic_setup
        res = estimate(feats, material, Jiles92Config(), loop)
        assert res.params.c == pytest.approx(feats.chi_in / feats.chi_an, rel=1e-12)

    def test_fit_condition_respects_tolerance(self, synthetic_setup):
        material, _, loop, feats = synthetic_setup
        strict = estimate(feats, material, Jiles92Config(fit_tol=1e-12), loop)
        assert not strict.fit_condition_met
        loose = estimate(feats, material, Jiles92Config(fit_tol=1e6), loop)
        assert loose.fit_condition_met

    def test_degenerate_c(self, synthetic_setup):
        material, _, loop, _ = synthetic_setup
        f = features(chi_in=500.0, chi_an=500.0)
        with raises_numerical("^c = chi_in/chi_an = 1; loop equations are degenerate$"), \
                pytest.warns(NonPhysicalParameterWarning):
            estimate(f, material, Jiles92Config(), loop)

    def test_programming_error_propagates(self, synthetic_setup, monkeypatch):
        # only numerical failures abandon a seed; a ValueError is a bug
        material, _, loop, feats = synthetic_setup

        def broken(*args, **kwargs):
            raise ValueError("broken")

        monkeypatch.setattr(jiles92, "k_from_coercive", broken)
        with pytest.raises(ValueError, match="broken"):
            estimate(feats, material, Jiles92Config(), loop)

    def test_missing_branch_is_raised_before_the_first_seed(self, synthetic_setup):
        # with features no seed can use, a loop without branches is still the error
        material = synthetic_setup[0]
        rise = MagnetizationCurve(
            H=np.linspace(0.0, 5000.0, 50), M=np.linspace(0.0, 1e6, 50), kind=CurveKind.FULL_LOOP
        )
        with pytest.raises(DataError, match="^loop must contain both a descending and an ascending branch$"):
            estimate(features(chi_max=1e-6), material, Jiles92Config(), rise)

    @pytest.mark.parametrize("cycles,steps", [(1, 9), (2, 600), (3, 47)])
    def test_loop_mse_takes_the_simulated_branches_from_the_waveform(
        self, synthetic_setup, cycles, steps
    ):
        # the waveform's last two segments are the runs split_branches finds in sim
        loop = synthetic_setup[2]
        p = HysteresisParams(aJ=900.0, alpha=1.2e-3, c=0.1, k=800.0, Ms=MS)
        waveform = FieldWaveform.cyclic(5000.0, cycles=cycles, steps_per_segment=steps)
        sim = integrate(p, waveform)
        (Hd, Md), (Ha, Ma) = measured = split_branches(loop)
        (Hds, Mds), (Has, Mas) = split_branches(sim)
        md_hat, ma_hat = np.interp(Hd, Hds[::-1], Mds[::-1]), np.interp(Ha, Has, Mas)
        err = MU0 * np.concatenate([md_hat - Md, ma_hat - Ma])
        assert jiles92._loop_mse(sim, waveform, measured) == float(np.mean(err * err))
        assert jiles92._loop_mse(sim, waveform, split_branches(sim)) == 0.0

    def test_each_seed_logs_its_ending(self, synthetic_setup, monkeypatch, caplog):
        # one INFO line per seed: fit met, passes exhausted, a stop on an unusable
        # k, alpha or aJ (named, with its value), or the numerical failure
        material, _, loop, feats = synthetic_setup
        monkeypatch.setattr(jiles92, "_SEEDS", (1e-3,))
        caplog.set_level(logging.INFO, logger="jamag.jiles92")

        def ending(f=feats, fit_tol=1e-3, **patched):
            caplog.clear()
            with monkeypatch.context() as m:
                for name, fn in patched.items():
                    m.setattr(jiles92, name, fn)
                try:
                    res = estimate(f, material, Jiles92Config(fit_tol=fit_tol), loop)
                except JamagError as err:
                    assert type(err) is JamagError
                    assert str(err) == "no alpha seed produced a simulatable parameter set"
                    res = None
            (record,) = caplog.records
            return record.getMessage(), res

        assert ending(fit_tol=1e6)[0] == "seed 0.001 met the fit condition at pass 1"
        line, res = ending(fit_tol=1e-12)
        assert line == f"seed 0.001 exhausted 8 passes, best MSE {res.mse:.6g}"
        # chi_max far below c*slope makes the pinning estimate negative
        line, _ = ending(features(chi_max=1e-6))
        assert re.fullmatch(r"seed 0\.001 stopped at pass 1 on k = -\S+", line)
        assert ending(alpha_update=lambda *a, **kw: -1.0)[0] == (
            "seed 0.001 stopped at pass 1 on alpha = -1")
        assert ending(aj_update=lambda *a, **kw: math.nan)[0] == (
            "seed 0.001 stopped at pass 1 on aJ = nan")

        def singular(*args, **kwargs):
            raise SingularDenominator("remanence denominator vanished")

        assert ending(alpha_update=singular)[0] == "seed 0.001 aborted: remanence denominator vanished"

    def test_tip_balance_without_a_root_abandons_each_seed(self, synthetic_setup, monkeypatch, caplog):
        # a tip past Ms: aj_update fails at once, each seed logs it as its ending, and with no
        # candidate left the estimate fails
        material, _, loop, _ = synthetic_setup
        monkeypatch.setattr(jiles92, "_SEEDS", (1e-3, 1e-2, 1e-1))  # 1e-4 fails at remanence first
        caplog.set_level(logging.INFO, logger="jamag.jiles92")
        with raises_numerical("^no alpha seed produced a simulatable parameter set$"):
            estimate(features(Mm=1.7e6), material, Jiles92Config(), loop)
        lines = [r.getMessage() for r in caplog.records]
        assert [line.split(" aborted: ")[0] for line in lines] == ["seed 0.001", "seed 0.01", "seed 0.1"]
        for line in lines:
            assert re.fullmatch(r"seed \S+ aborted: no aJ > 0 balances the loop tip: y = \(Mm \+ pinned\)/Ms "
                                r"= 1\.06\d*, he = .*", line), line

    def test_seed_whose_simulation_does_not_converge_is_abandoned(self, synthetic_setup, monkeypatch,
                                                                  caplog):
        # a numerical failure in a pass abandons only its seed: estimate names it, and the
        # next seed still runs
        material, _, loop, feats = synthetic_setup
        monkeypatch.setattr(jiles92, "_SEEDS", (1e-3, 1e-3))
        caplog.set_level(logging.INFO, logger="jamag.jiles92")
        real = jiles92.integrate
        calls = []

        def first_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise JamagError("implicit solve: 50 iterations")
            return real(*args, **kwargs)

        monkeypatch.setattr(jiles92, "integrate", first_fails)
        res = estimate(feats, material, Jiles92Config(fit_tol=1e6), loop)
        assert [r.getMessage() for r in caplog.records] == [
            "seed 0.001 aborted: implicit solve: 50 iterations",
            "seed 0.001 met the fit condition at pass 1",
        ]
        assert res.fit_condition_met and len(calls) == 2

    def test_all_seeds_failing_raises(self, synthetic_setup):
        material, _, loop, _ = synthetic_setup
        # chi_max far below c*slope makes the pinning estimate negative for
        # every seed, so no candidate is ever produced
        f = features(chi_max=1e-6)
        with raises_numerical("^no alpha seed produced a simulatable parameter set$"):
            estimate(f, material, Jiles92Config(), loop)

    def test_data_error_in_a_pass_propagates(self, synthetic_setup, monkeypatch, caplog):
        # bad input is no seed's fault: the first seed's DataError leaves estimate unchanged
        material, _, loop, feats = synthetic_setup
        caplog.set_level(logging.INFO, logger="jamag.jiles92")
        bad = DataError("bad input")

        def raises(*args, **kwargs):
            raise bad

        monkeypatch.setattr(jiles92, "alpha_update", raises)
        with pytest.raises(DataError) as info:
            estimate(feats, material, Jiles92Config(), loop)
        assert info.value is bad
        assert caplog.records == []
