import dataclasses
import json
import logging
import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

import jamag.jiles92 as jiles92
from jamag import cli
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
from jamag.errors import DataError, SingularDenominator
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

from conftest import LINV_HALF, LINV_QUARTER, raises_numerical, write_curve_file

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
    def test_validation(self):
        assert [f.name for f in dataclasses.fields(Jiles92Config)] == ["fit_tol"]
        with pytest.raises(ValueError):
            Jiles92Config(fit_tol=0.0)
        # an infinite fit_tol met the fit condition at any MSE
        with pytest.raises(ValueError, match="^fit_tol must be positive and finite"):
            Jiles92Config(fit_tol=math.inf)
        # the seeds, the pass cap and the simulation's cycles and steps are fixed in the module
        for name, value in (("seeds", (1e-4,)), ("max_outer_iter", 2), ("sim_cycles", 3), ("sim_steps", 50)):
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
        assert res.route == "loop"  # no anhysteretic curve given
        assert res.params.aJ > 0.0 and res.params.k > 0.0

    def test_deterministic(self, synthetic_setup):
        material, _, loop, feats = synthetic_setup
        a = estimate(feats, material, Jiles92Config(), loop)
        b = estimate(feats, material, Jiles92Config(), loop)
        assert a.params == b.params
        assert a.mse == b.mse
        assert a.route == b.route
        assert a.iterations == b.iterations

    def test_c_ratio_preserved(self, synthetic_setup):
        # c is fitted to the loop's ODE: it is the truth's, not chi_in/chi_an (0.1097 here)
        material, truth, loop, feats = synthetic_setup
        res = estimate(feats, material, Jiles92Config(), loop)
        assert res.params.c == pytest.approx(truth.c, rel=1e-3)
        assert feats.chi_in / feats.chi_an == pytest.approx(0.1097, abs=1e-4)

    def test_fit_condition_respects_tolerance(self, synthetic_setup):
        material, _, loop, feats = synthetic_setup
        strict = estimate(feats, material, Jiles92Config(fit_tol=1e-12), loop)
        assert not strict.fit_condition_met
        loose = estimate(feats, material, Jiles92Config(fit_tol=1e6), loop)
        assert loose.fit_condition_met

    def test_programming_error_propagates(self, synthetic_setup, monkeypatch):
        # only the fitted set's ValueError becomes a numerical failure; any other is a bug
        material, _, loop, feats = synthetic_setup

        def broken(*args, **kwargs):
            raise ValueError("broken")

        monkeypatch.setattr(jiles92, "_slope_raw", broken)
        with pytest.raises(ValueError, match="broken"):
            estimate(feats, material, Jiles92Config(), loop)

    def test_missing_branch_is_raised_before_the_first_seed(self, synthetic_setup):
        # with features no fit can use, a loop without branches is still the error
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

    def test_data_error_in_a_pass_propagates(self, synthetic_setup, monkeypatch, caplog):
        # bad input is no numerical failure: a DataError in the fit leaves estimate unchanged
        material, _, loop, feats = synthetic_setup
        caplog.set_level(logging.INFO, logger="jamag.jiles92")
        bad = DataError("bad input")

        def raises(*args, **kwargs):
            raise bad

        monkeypatch.setattr(jiles92, "_slope_raw", raises)
        with pytest.raises(DataError) as info:
            estimate(feats, material, Jiles92Config(), loop)
        assert info.value is bad
        assert caplog.records == []

    @pytest.mark.parametrize("route", ["anhysteretic", "loop"])
    def test_logs_the_route(self, synthetic_setup, caplog, route):
        # one INFO line: the route, (aJ, alpha), the Gauss-Newton steps and the regression rms
        material, _, loop, feats = synthetic_setup
        anh = synthetic_curve(972.0, 1.4e-3, material, 300, 5000.0) if route == "anhysteretic" else None
        caplog.set_level(logging.INFO, logger="jamag.jiles92")
        res = estimate(feats, material, Jiles92Config(), loop, anhysteretic=anh)
        (record,) = caplog.records
        assert record.getMessage() == (
            f"route {route}: aJ = {res.params.aJ:.6g} A/m, alpha = {res.params.alpha:.6g} after "
            f"{res.iterations} steps; regression rms {float(record.args[-1]):.6g} A/m"
        )
        assert res.route == route and 0.0 <= record.args[-1] < 1.0

    @pytest.mark.parametrize("route", ["anhysteretic", "loop"])
    def test_judged_at_the_loops_tip(self, route):
        # features whose Hm (5 000 A/m) is below the loop's tip (7 000 A/m) give the fit
        # and the mse of the loop's own tip: only chi_an is read, and on the loop route only
        material = MaterialSpec(Ms=MS, T=T)
        truth, loop = _loop(600, **_ROUND_TRIP_SETS[0], hmax=7000.0)
        rise = integrate(truth, FieldWaveform((0.0, 7000.0), steps_per_segment=600))
        first = MagnetizationCurve(H=rise.H, M=rise.M, kind=CurveKind.FIRST_MAGNETIZATION)
        anh = synthetic_curve(truth.aJ, truth.alpha, material, 300, 7000.0)
        tip = extract_features(first, loop, anh)
        assert tip.Hm == 7000.0
        if route == "loop":
            anh = None
        res = estimate(dataclasses.replace(tip, Hm=5000.0), material, Jiles92Config(), loop, anhysteretic=anh)
        assert res == estimate(tip, material, Jiles92Config(), loop, anhysteretic=anh)
        assert res.fit_condition_met and res.mse < 1e-6

    def test_anhysteretic_route_needs_no_features(self, synthetic_setup):
        material, _, loop, feats = synthetic_setup
        anh = synthetic_curve(972.0, 1.4e-3, material, 300, 5000.0)
        res = estimate(None, material, Jiles92Config(), loop, anhysteretic=anh)
        assert res == estimate(feats, material, Jiles92Config(), loop, anhysteretic=anh)
        with pytest.raises(TypeError, match="^the loop route reads features.chi_an"):
            estimate(None, material, Jiles92Config(), loop)

    def test_tip_at_no_positive_field_is_named(self, synthetic_setup):
        # a loop between -5 000 and -100 A/m: no cyclic simulation reaches its tip
        material = synthetic_setup[0]
        H = np.concatenate([np.linspace(-100.0, -5000.0, 50), np.linspace(-5000.0, -100.0, 50)[1:]])
        loop = MagnetizationCurve(H=H, M=100.0 * H, kind=CurveKind.FULL_LOOP)
        with pytest.raises(DataError, match=r"^the loop's last ascending branch tops out at H = -100\.0 A/m; "):
            estimate(features(), material, Jiles92Config(), loop)

    def test_anhysteretic_curve_past_stability_raises(self, synthetic_setup):
        # alpha*Ms/(3*aJ) = 1.2: the explicit curve H = aJ*x - alpha*Ms*L(x), where it rises,
        # fits that kappa exactly, and the implicit curve of it is multivalued
        material, _, loop, feats = synthetic_setup
        aJ, alpha = 972.0, 1.2 * 3.0 * 972.0 / MS
        x = np.linspace(3.0, 30.0, 200)
        anh = MagnetizationCurve(H=aJ * x - alpha * MS * langevin(x), M=MS * langevin(x),
                                 kind=CurveKind.ANHYSTERETIC)
        with raises_numerical(r"^alpha\*Ms/\(3\*aJ\) = 1\.2 >= 1; the anhysteretic curve is multivalued$"):
            estimate(feats, material, Jiles92Config(), loop, anhysteretic=anh)

    def test_reversed_loop_gives_no_positive_k(self, synthetic_setup):
        # the loop run backwards, past its initial rise: each branch has the other's direction
        material, _, loop, feats = synthetic_setup
        back = MagnetizationCurve(H=loop.H[:600:-1], M=loop.M[:600:-1], kind=CurveKind.FULL_LOOP)
        anh = synthetic_curve(972.0, 1.4e-3, material, 300, 5000.0)
        with raises_numerical(r"^the fitted parameters are not a model: k must be positive and finite, got -"):
            estimate(feats, material, Jiles92Config(), back, anhysteretic=anh)


def _loop(steps: int, hmax: float = 5000.0, **params) -> tuple[HysteresisParams, MagnetizationCurve]:
    truth = HysteresisParams(Ms=MS, **params)
    return truth, integrate(truth, FieldWaveform.cyclic(hmax, cycles=3, steps_per_segment=steps))


_ROUND_TRIP_SETS = [
    dict(aJ=972.0, alpha=1.4e-3, c=0.1, k=1000.0),
    dict(aJ=800.0, alpha=1.0e-3, c=0.3, k=2500.0),
    dict(aJ=1200.0, alpha=1.8e-3, c=0.05, k=400.0),
]


class TestRoundTrip:
    """Loops simulated at a step count other than the judge's (600) come back within 1%."""

    @pytest.mark.parametrize("route", ["anhysteretic", "loop"])
    @pytest.mark.parametrize("params, steps", [
        (_ROUND_TRIP_SETS[0], 150), (_ROUND_TRIP_SETS[0], 1500),
        (_ROUND_TRIP_SETS[1], 150), (_ROUND_TRIP_SETS[1], 1500),
        (_ROUND_TRIP_SETS[2], 1500),  # RK4 at 150 steps leaves this set's loop (Mm = -Ms)
    ], ids=["steel-150", "steel-1500", "high-k-150", "high-k-1500", "low-k-1500"])
    def test_parameters_recovered(self, route, params, steps):
        material = MaterialSpec(Ms=MS, T=T)
        truth, loop = _loop(steps, **params)
        anh = synthetic_curve(truth.aJ, truth.alpha, material, 300, 5000.0)
        rise = integrate(truth, FieldWaveform((0.0, 5000.0), steps_per_segment=steps))
        first = MagnetizationCurve(H=rise.H, M=rise.M, kind=CurveKind.FIRST_MAGNETIZATION)
        feats = extract_features(first, loop, anh)
        res = estimate(feats, material, Jiles92Config(), loop, anhysteretic=anh if route == "anhysteretic" else None)
        for name in ("aJ", "alpha", "c", "k"):
            assert getattr(res.params, name) == pytest.approx(getattr(truth, name), rel=1e-2), name
        assert res.route == route and res.fit_condition_met

    def test_chain_through_simulate_loop(self, tmp_path):
        # fit-jiles92's report feeds simulate-loop --params with the fitted c and k: the last
        # cycle of the simulated loop matches the measured one within fit_tol
        material = MaterialSpec(Ms=MS, T=T)
        truth, loop = _loop(1500, **_ROUND_TRIP_SETS[1])
        rise = integrate(truth, FieldWaveform((0.0, 5000.0), steps_per_segment=1500))
        files = {}
        for name, curve in (("loop", loop), ("first", rise),
                            ("anh", synthetic_curve(truth.aJ, truth.alpha, material, 300, 5000.0))):
            files[name] = tmp_path / f"{name}.csv"
            write_curve_file(files[name], curve.H, curve.M)
        report = tmp_path / "fit.json"
        assert cli.main(["fit-jiles92", "--loop", str(files["loop"]), "--first-mag", str(files["first"]),
                         "--anhysteretic", str(files["anh"]), "--ms", str(MS), "--temp", str(T),
                         "--out", str(report), "--deterministic"]) == 0
        fit = json.loads(report.read_text())
        res = fit["result"]
        assert res["route"] == "anhysteretic" and res["fit_condition_met"]
        out = tmp_path / "sim.csv"
        assert cli.main(["simulate-loop", "--params", str(report), "--c", repr(res["c"]), "--k", repr(res["k"]),
                         "--hmax", "5000", "--cycles", "3", "--steps", "1500", "--out", str(out)]) == 0
        H, M = np.loadtxt(out, delimiter=",", skiprows=1, usecols=(0, 1)).T
        last = slice(5 * 1500, None)  # the last descending and ascending segments
        assert np.array_equal(H[last], loop.H[last])
        mse = float(np.mean((MU0 * (M[last] - loop.M[last])) ** 2))
        assert mse <= fit["config"]["fit_tol"]
