import argparse
import builtins
import contextlib
import errno
import fractions
import io
import json
import logging
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import warnings
import weakref
from dataclasses import asdict

import numpy as np
import pytest

import jamag.anfit as anfit
import jamag.dataio as dataio
import jamag.jiles92 as jiles92
from jamag import cli
from jamag.anfit import AnhystereticFitConfig
from jamag.core import KB, MU0, MaterialSpec, langevin
from jamag.dataio import CurveKind, MagnetizationCurve
from jamag.jiles92 import Jiles92Config
from jamag.simulate import FieldWaveform, HysteresisParams, integrate
from jamag.validation import synthetic_curve

from conftest import write_curve_file

MS = 1.6e6
T = 303.5
# the descending segment of a cyclic waveform with hmax 1e308
_SPAN_1E308 = "waveform segment 1 from 1e+308 to -1e+308 A/m spans -inf, where a finite, non-zero span is needed"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "jamag", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


@pytest.fixture(scope="module")
def anh_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "anh.csv"
    curve = synthetic_curve(972.0, 1.4e-3, MaterialSpec(Ms=MS, T=T), 200, 1.0e4)
    write_curve_file(path, curve.H, curve.M)
    return path


@pytest.fixture(scope="module")
def loop_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("loops")
    material = MaterialSpec(Ms=MS, T=T)
    p = HysteresisParams(aJ=972.0, alpha=1.4e-3, c=0.1, k=1000.0, Ms=MS)
    hmax = 5000.0
    loop = integrate(p, FieldWaveform.cyclic(hmax, cycles=3, steps_per_segment=400))
    rise = integrate(p, FieldWaveform((0.0, hmax), steps_per_segment=400))
    anh = synthetic_curve(972.0, 1.4e-3, material, 200, hmax)
    paths = {}
    for name, curve in (("loop", loop), ("first", rise), ("anh", anh)):
        path = d / f"{name}.csv"
        write_curve_file(path, curve.H, curve.M)
        paths[name] = path
    return paths


class TestUsageErrors:
    def test_version(self):
        r = run_cli("--version")
        assert r.returncode == 0
        assert "jamag" in r.stdout

    def test_no_command(self):
        assert run_cli().returncode == 2

    def test_unknown_command(self):
        assert run_cli("transmogrify").returncode == 2

    def test_missing_required_flag(self, anh_file):
        r = run_cli("fit-anhysteretic", anh_file, "--temp", T)
        assert r.returncode == 2

    def test_missing_file(self, tmp_path):
        r = run_cli("fit-anhysteretic", tmp_path / "nope.csv", "--ms", MS, "--temp", T)
        assert r.returncode == 2
        assert "error" in r.stderr.lower()

    def test_bad_data_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,10.0\n2.0,banana\n")
        r = run_cli("fit-anhysteretic", path, "--ms", MS, "--temp", T)
        assert r.returncode == 2
        assert "line 2" in r.stderr

    def test_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("H,M (\u00b5T)\n1.0,10.0\n".encode("latin-1"))
        r = run_cli("fit-anhysteretic", path, "--ms", MS, "--temp", T)
        assert r.returncode == 2
        assert "latin1.csv: not UTF-8" in r.stderr

    def test_too_few_samples(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("1.0,10.0\n2.0,20.0\n")
        r = run_cli("fit-anhysteretic", path, "--ms", MS, "--temp", T)
        assert r.returncode == 2

    def test_invalid_simulation_params(self, tmp_path):
        r = run_cli(
            "simulate-loop", "--aj", 972, "--alpha", 1.4e-3, "--c", 0.1, "--k", -5,
            "--ms", MS, "--hmax", 5000, "--out", tmp_path / "l.csv",
        )
        assert r.returncode == 2

    def test_simulate_requires_params(self, tmp_path):
        r = run_cli(
            "simulate-loop", "--c", 0.1, "--k", 100, "--hmax", 5000,
            "--out", tmp_path / "l.csv",
        )
        assert r.returncode == 2
        assert "--aj" in r.stderr

    @pytest.mark.parametrize("flag, message", [
        ("--c", "c must be finite, got nan"),
        ("--m0", "M0 must be finite with |M0| <= Ms"),
    ])
    def test_non_finite_simulation_input_named(self, tmp_path, capsys, flag, message):
        argv = ["simulate-loop", "--aj", "972", "--alpha", "1.4e-3", "--c", "0.1", "--k", "1000",
                "--ms", str(MS), "--hmax", "5000", "--out", str(tmp_path / "l.csv"), flag, "nan"]
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "l.csv").exists()

    def test_zero_cycles(self, tmp_path, capsys):
        argv = ["simulate-loop", "--aj", "972", "--alpha", "1.4e-3", "--c", "0.1", "--k", "1000",
                "--ms", str(MS), "--hmax", "5000", "--cycles", "0", "--out", str(tmp_path / "l.csv")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: cycles must be at least 1, got 0\n"
        assert not (tmp_path / "l.csv").exists()

    # an infinite --aj or --k used to simulate a loop, and --ms or --alpha to exit 3;
    # --hmax inf exited 2 without naming hmax
    @pytest.mark.parametrize("flag, message", [
        ("--aj", "aJ must be positive and finite, got inf"),
        ("--alpha", "alpha must be non-negative and finite, got inf"),
        ("--k", "k must be positive and finite, got inf"),
        ("--ms", "Ms must be positive and finite, got inf"),
        ("--hmax", "hmax must be positive and finite, got inf"),
    ])
    def test_infinite_simulation_parameter_named(self, tmp_path, capsys, flag, message):
        argv = ["simulate-loop", "--aj", "972", "--alpha", "1.4e-3", "--c", "0.1", "--k", "1000",
                "--ms", str(MS), "--hmax", "5000", "--out", str(tmp_path / "l.csv"), flag, "inf"]
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "l.csv").exists()

    # --hmax 1e308 gives a descending segment of span -inf, over which np.linspace built a
    # NaN grid: it used to exit 3, as did fit-jiles92 with Hm = 1e308
    def test_hmax_past_the_float_range_names_the_span(self, tmp_path, capsys):
        argv = ["simulate-loop", "--aj", "972", "--alpha", "1.4e-3", "--c", "0.1", "--k", "1000",
                "--ms", str(MS), "--hmax", "1e308", "--out", str(tmp_path / "l.csv")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {_SPAN_1E308}\n"
        assert not (tmp_path / "l.csv").exists()

    # past ~1e154 A/m the implicit solve's start squared an overflowing w, and each of the
    # three pre-solves put an "overflow encountered in multiply" RUNTIMEWARNING in the report.
    # The one warning left is the clamp's: at RK4 steps of 5e197 A/m, M sits at -Ms where the
    # anhysteretic curve is at +Ms, and the loop ends there
    def test_hmax_1e200_reports_no_floating_point_warning(self, tmp_path):
        report = tmp_path / "r.json"
        argv = ["simulate-loop", "--aj", "972", "--alpha", "1.4e-3", "--c", "0.1", "--k", "1000",
                "--ms", str(MS), "--hmax", "1e200", "--steps", "200", "--out", str(tmp_path / "l.csv"),
                "--report", str(report)]
        assert cli.main(argv) == 0
        rep = json.loads(report.read_text())
        (warning,) = rep["warnings"]
        assert warning["code"] == "RUNTIMEWARNING"
        assert warning["message"].startswith("806 of 1400 samples after the first sit at the |M| = Ms clamp, ")
        assert rep["result"]["final_m"] == -MS

    # segments of span 1.78e308 are finite, but RK4's stage products overflow to a NaN M:
    # this exited 2 on "curve contains non-finite values", naming neither flag nor segment
    def test_hmax_near_the_float_range_names_the_segment(self, tmp_path, capsys):
        argv = ["simulate-loop", "--aj", "972", "--alpha", "0", "--c", "0.1", "--k", "1000",
                "--ms", str(MS), "--hmax", "8.9e307", "--out", str(tmp_path / "l.csv")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            "error: waveform segment 0 from 0.0 to 8.9e+307 A/m spans 8.9e+307: "
            "M turns non-finite at step 0 of 2000, with RK4 field steps of 4.45e+304 A/m\n"
        )
        assert not (tmp_path / "l.csv").exists()

    @pytest.mark.parametrize("command, flag, message", [
        ("fit-anhysteretic", "--ha1", "ha1 must be positive and finite, got inf"),
        ("fit-anhysteretic", "--eps", "eps must be positive and finite, got inf"),
        ("fit-anhysteretic", "--ms", "Ms must be positive and finite, got inf"),
        ("fit-anhysteretic", "--temp", "T must be positive and finite, got inf"),
        ("fit-jiles92", "--ms", "Ms must be positive and finite, got inf"),
        ("fit-jiles92", "--fit-tol", "fit_tol must be positive and finite, got inf"),
        ("validate", "--eps", "eps must be positive and finite, got inf"),
    ])
    def test_non_finite_setting_named(self, anh_file, tmp_path, capsys, command, flag, message):
        # an infinite setting is bad input (exit 2) and the message names its field;
        # an infinite --ha1 or --eps used to reach the sweep and exit 3 on a NaN bracket
        argv = {
            "fit-anhysteretic": ["fit-anhysteretic", str(anh_file), "--ms", str(MS), "--temp", str(T),
                                 "--curve-out", str(tmp_path / "curve.csv")],
            "fit-jiles92": ["fit-jiles92", "--loop", str(anh_file), "--ms", str(MS), "--temp", str(T)],
            "validate": ["validate"],
        }[command]
        out = tmp_path / "report.json"
        assert cli.main([*argv, flag, "inf", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--seeds", "1e-4,1e-3"), ("--max-iter", "2"),
                                             ("--sim-cycles", "3"), ("--sim-steps", "50")])
    def test_restart_flag_is_a_usage_error(self, loop_files, tmp_path, capsys, flag, value):
        # the alpha seeds, the pass cap and the simulation's cycles and steps are fixed in jiles92
        with pytest.raises(SystemExit) as info:
            cli.main(["fit-jiles92", "--loop", str(loop_files["loop"]), "--ms", str(MS),
                      "--temp", str(T), flag, value, "--out", str(tmp_path / "rep.json")])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, cls", [
    (["fit-anhysteretic", "data.csv"], AnhystereticFitConfig),
    (["fit-jiles92", "--loop", "loop.csv"], Jiles92Config),
])
def test_flag_defaults_are_the_config_defaults(argv, cls):
    args = cli.build_parser().parse_args([*argv, "--ms", "1", "--temp", "1"])
    for name, value in asdict(cls()).items():
        assert getattr(args, name) == value, name


def test_flag_defaults_are_the_library_defaults(monkeypatch):
    # a changed library default moves the flag's default with it
    func = FieldWaveform.cyclic.__func__
    changed = {name: value + 1 for name, value in func.__kwdefaults__.items()}
    monkeypatch.setattr(func, "__kwdefaults__", changed)
    args = cli.build_parser().parse_args(["simulate-loop", "--c", "0", "--k", "1", "--hmax", "1"])
    assert (args.cycles, args.steps) == (changed["cycles"], changed["steps_per_segment"])


class _Parsed(Exception):
    """Stops ``cli.main`` right after it parses, carrying the namespace."""


class TestLazyParser:
    """``main`` gives arguments only to the subcommand it runs, and parses, prints and
    fails as the full parser does."""

    ARGVS = [
        ["fit-anhysteretic", "d.csv", "--ms", "1", "--temp", "2"],
        ["--verbose", "fit-anhysteretic", "d.csv", "--ms", "1", "--temp", "2", "--coarse", "--eps", "1e-3",
         "--eta-max", "0.95", "--unit", "j", "--out", "r.json", "--curve-out", "c.csv", "--deterministic"],
        ["fit-jiles92", "--loop", "l.csv", "--anhysteretic", "a.csv", "--ms", "1", "--temp", "2"],
        ["--verbose", "fit-jiles92", "--loop", "l.csv", "--features", "f.json", "--first-mag", "f.csv",
         "--ms", "1", "--temp", "2", "--fit-tol", "1e-2", "--unit", "b", "--out", "j.json"],
        ["simulate-loop", "--c", "0", "--k", "1", "--hmax", "1"],
        ["simulate-loop", "--params", "p.json", "--aj", "900", "--c", "0.1", "--k", "1", "--hmax", "5",
         "--cycles", "2", "--steps", "7", "--m0", "3", "--clamp", "--out", "l.csv", "--report", "r.json"],
        ["extract", "--loop", "l", "--first-mag", "f", "--anhysteretic", "a"],
        ["extract", "--loop", "l", "--first-mag", "f", "--anhysteretic", "a", "--ms", "3", "--unit", "j"],
        ["validate"],
        ["--verbose", "validate", "--eps", "1e-3", "--deterministic", "--out", "v.json"],
    ]

    @staticmethod
    def _main_parse(monkeypatch, argv):
        """The namespace of ``main``'s parse, and the arguments it built its parser with."""
        build, built = cli.build_parser, []

        def spy(*args):
            built.append(args)
            parser = build(*args)
            parse = parser.parse_args

            def stop(argv):
                raise _Parsed(parse(argv))

            parser.parse_args = stop
            return parser

        monkeypatch.setattr(cli, "build_parser", spy)
        with pytest.raises(_Parsed) as info:
            cli.main(argv)
        return info.value.args[0], built

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_same_namespace_as_the_full_parser(self, monkeypatch, argv):
        full = cli.build_parser().parse_args(argv)
        got, built = self._main_parse(monkeypatch, argv)
        assert built == [(got.command,)]
        assert got == full

    def test_only_the_named_subcommand_has_arguments(self):
        def flags(parser):
            (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            return {name: len(p._actions) for name, p in sub.choices.items()}

        full = flags(cli.build_parser())
        for name in cli._SUBCOMMANDS:
            lazy = flags(cli.build_parser(name))
            assert lazy == {n: full[n] if n == name else 1 for n in full}  # 1: the -h action alone

    @pytest.mark.parametrize("argv", [
        ["--help"], ["fit-anhysteretic", "--help"], ["--verbose", "simulate-loop", "-h"], ["--version"],
        [], ["transmogrify"], ["fit"], ["-", "validate"], ["--bogus", "validate"], ["validate", "--bogus"],
        ["extract", "--loop", "l"], ["validate", "--eps", "x"], ["fit-jiles92", "--ms", "1", "--temp"],
    ], ids=lambda argv: " ".join(argv) or "none")
    def test_same_output_as_the_full_parser(self, capsys, argv):
        def run(parse):
            with pytest.raises(SystemExit) as info:
                parse(argv)
            return info.value.code, capsys.readouterr()

        got = run(cli.main)
        assert got == run(cli.build_parser().parse_args)
        assert got[1].out or got[1].err


@pytest.mark.parametrize("order", [(True, False), (False, True)])
def test_verbose_applies_to_its_own_call(anh_file, tmp_path, order):
    # in-process calls: each logs at its own level, to the stderr of its own time
    argv = ["fit-anhysteretic", str(anh_file), "--ms", str(MS), "--temp", str(T), "--eps", "1e-3",
            "--out", str(tmp_path / "r.json"), "--curve-out", str(tmp_path / "c.csv")]
    logger = logging.getLogger("jamag")
    before = (logger.level, list(logger.handlers))
    for verbose in order:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli.main(["--verbose", *argv] if verbose else argv) == 0
        # the plain scan's one level, then the fit
        assert err.getvalue().count("INFO jamag.anfit: ") == (2 if verbose else 0)
        assert (logger.level, logger.handlers) == before


_FEATURES = dict(
    chi_in=50.0, chi_an=500.0, chi_max=1500.0, chi_r=1900.0, chi_m=50.0,
    Hc=120.0, Mr=5.0e5, Hm=5000.0, Mm=1.3e6,
)


class TestMeasuredValueErrors:
    """A measured value the fit cannot use exits 2 as bad input, naming the cause."""

    @pytest.mark.parametrize("name, value, message", [
        ("Mr", float("nan"), "Mr must be finite"),
        ("Mm", float("nan"), "Mm must be finite"),
        ("chi_an", 0.0, "chi_an is zero"),
    ])
    def test_features(self, loop_files, tmp_path, capsys, name, value, message):
        path = tmp_path / "features.json"
        path.write_text(json.dumps({"features": {**_FEATURES, name: value}}))
        code = cli.main([
            "fit-jiles92", "--loop", str(loop_files["loop"]), "--features", str(path),
            "--ms", str(MS), "--temp", str(T), "--out", str(tmp_path / "out.json"),
        ])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_no_positive_sample(self, tmp_path, capsys):
        path = tmp_path / "negative.csv"
        H = np.linspace(100.0, 1.0e4, 20)
        write_curve_file(path, H, -1.0e-3 * MS * np.ones_like(H))
        code = cli.main([
            "fit-anhysteretic", str(path), "--ms", str(MS), "--temp", str(T),
            "--out", str(tmp_path / "out.json"), "--curve-out", str(tmp_path / "c.csv"),
        ])
        assert code == 2
        assert "error: no sample with H > 0 and M > 0" in capsys.readouterr().err

    def test_residual_norm_overflow(self, tmp_path):
        # |M| up to 1e304: the sum of (mu0*M)^2 overflows.  This exited 2 on a residual-norm
        # check; the curve's slope of 1e19 at 10 A/m leaves no stable candidate, and says so
        path = tmp_path / "huge.csv"
        write_curve_file(path, np.linspace(10.0, 1.0e4, 200), np.logspace(20.0, 304.0, 200))
        r = run_cli(
            "fit-anhysteretic", path, "--coarse", "--ms", MS, "--temp", T,
            "--out", tmp_path / "out.json", "--curve-out", tmp_path / "c.csv",
        )
        assert r.returncode == 2
        assert r.stderr == (
            "error: initial susceptibility 1e+19 is too large for Ms = 1.6e+06 A/m: "
            "alpha*Ms/(3*aJ) = 1 >= 1; the anhysteretic curve is multivalued\n"
        )
        assert not (tmp_path / "out.json").exists()

    def test_residual_norm_past_the_float_range_is_fitted(self, tmp_path):
        # |M| from 1 to 1e300 A/m: every candidate's sum of squared residuals overflows, so
        # each norm is taken on its row scaled by a power of two.  This exited 2 ("overflows")
        path = tmp_path / "big.csv"
        write_curve_file(path, np.linspace(10.0, 1.0e4, 200), np.logspace(0.0, 300.0, 200))
        assert cli.main([
            "fit-anhysteretic", str(path), "--coarse", "--ms", str(MS), "--temp", str(T),
            "--out", str(tmp_path / "out.json"), "--curve-out", str(tmp_path / "c.csv"),
        ]) == 0
        rep = json.loads((tmp_path / "out.json").read_text())
        assert [w["code"] for w in rep["warnings"]] == [
            "NON_PHYSICAL_PARAMETER", "FIT_CONDITION_NOT_MET", "SWEEP_EDGE"]
        assert 1e292 < rep["result"]["residual_rms"] < 1e293

    @pytest.mark.parametrize("scale", [1e-150, 1e-160])
    def test_residual_norm_underflow(self, tmp_path, scale):
        # every candidate's sum of squared residuals leaves the normal range: its norm is taken
        # on the row scaled by a power of two.  This exited 2 ("underflows"), and before that
        # exited 0 with residual_rms 0, all 10 000 candidates tied
        path = tmp_path / "tiny.csv"
        H = 100.0 * np.arange(1, 101)
        write_curve_file(path, H, scale * H)
        assert cli.main([
            "fit-anhysteretic", str(path), "--coarse", "--ms", str(MS), "--temp", str(T),
            "--out", str(tmp_path / "out.json"), "--curve-out", str(tmp_path / "c.csv"),
        ]) == 0
        norm = json.loads((tmp_path / "out.json").read_text())["result"]["residual_norm"]
        r = np.loadtxt(tmp_path / "c.csv", delimiter=",", skiprows=1)[:, 3]
        assert norm > 0.0 and norm * norm < sys.float_info.min  # its square is no normal double
        # the norm rule: np.linalg.norm of the column scaled by a power of two, scaled back
        _, e = np.frexp(np.max(np.abs(r)))
        assert norm == np.ldexp(np.linalg.norm(np.ldexp(r, -e)), e)
        # and the true norm, to within the rounding of its 100-term float sum
        square = sum(fractions.Fraction(v) ** 2 for v in r.tolist())
        bits = 1200
        exact = float(fractions.Fraction(math.isqrt(square.numerator * 4**bits // square.denominator),
                                         2**bits))
        assert abs(norm - exact) <= math.ulp(exact)

    def test_small_residual_norm_is_fitted(self, tmp_path):
        # M = 1e-120*H: the winner's residual norm, about 6e-138, squares to a normal double
        path = tmp_path / "small.csv"
        H = 100.0 * np.arange(1, 101)
        write_curve_file(path, H, 1e-120 * H)
        assert cli.main([
            "fit-anhysteretic", str(path), "--coarse", "--ms", str(MS), "--temp", str(T),
            "--out", str(tmp_path / "out.json"), "--curve-out", str(tmp_path / "c.csv"),
        ]) == 0
        norm = json.loads((tmp_path / "out.json").read_text())["result"]["residual_norm"]
        assert sys.float_info.min <= norm * norm

    @pytest.mark.parametrize("change, message", [
        # M lifted by 2e6 A/m: this said "no crossing of level 0.0 on branch"
        (lambda H, M: (H, M + 2.0e6),
         "descending branch never reaches M = 0 (M from 3.32624e+06 to 673765 A/m)"),
        (lambda H, M: (H[:1], M[:1]), "loop has fewer than two samples"),
        (lambda H, M: (H + 6000.0, M), "descending branch does not span H = 0"),
    ], ids=["never-reaches-zero", "one-row", "shifted-6000"])
    def test_unusable_loop(self, loop_files, tmp_path, capsys, change, message):
        path = tmp_path / "loop.csv"
        write_curve_file(path, *change(*np.loadtxt(loop_files["loop"], delimiter=",", skiprows=1).T))
        out = tmp_path / "features.json"
        assert cli.main(["extract", "--loop", str(path), "--first-mag", str(loop_files["first"]),
                         "--anhysteretic", str(loop_files["anh"]), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("curve, change, message", [
        # the tip sample lowered below the one before it: the tip slope turns negative
        ("loop", lambda M: np.append(M[:-1], M[-2] - 1.0e3), "chi_m must be finite and non-negative, got -"),
        ("first", np.negative, "chi_in must be finite and non-negative, got -"),
    ])
    def test_rejected_feature_names_its_file(self, loop_files, tmp_path, capsys, curve, change, message):
        files = dict(loop_files)
        H, M = np.loadtxt(files[curve], delimiter=",", skiprows=1).T
        files[curve] = tmp_path / f"{curve}.csv"
        write_curve_file(files[curve], H, change(M))
        out = tmp_path / "features.json"
        assert cli.main(["extract", "--loop", str(files["loop"]), "--first-mag", str(files["first"]),
                         "--anhysteretic", str(files["anh"]), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {files[curve]}: {message}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("ms", ["0", "-1.5", "nan", "inf"])
    def test_extract_ms_must_be_positive_and_finite(self, loop_files, tmp_path, capsys, ms):
        # "nan" was written to the report as NaN, which is not JSON
        out = tmp_path / "features.json"
        assert cli.main(["extract", "--loop", str(loop_files["loop"]), "--first-mag", str(loop_files["first"]),
                         "--anhysteretic", str(loop_files["anh"]), "--ms", ms, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --ms must be positive and finite, got {float(ms)}\n"
        assert not out.exists()

    def test_bad_cell_names_its_file(self, loop_files, tmp_path, capsys):
        # extract reads three curve files: the error says which one holds the bad row
        path = tmp_path / "first.csv"
        lines = loop_files["first"].read_text().splitlines()
        lines[4] = lines[4].split(",")[0] + ",n/a"
        path.write_text("\n".join(lines) + "\n")
        assert cli.main(["extract", "--loop", str(loop_files["loop"]), "--first-mag", str(path),
                         "--anhysteretic", str(loop_files["anh"]), "--out", str(tmp_path / "f.json")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: line 5: non-numeric cell in ")

    @pytest.mark.parametrize("unit", ["j", "b"])
    @pytest.mark.parametrize("last", ["3.0,3.0", "3_0,3.0"], ids=["bulk", "line-by-line"])
    def test_unit_overflow_names_its_line(self, tmp_path, capsys, unit, last):
        # a finite cell of 1e303 T is 8e308 A/m: this exited 2 on "curve contains non-finite
        # values", naming neither the file nor the line.  numpy cannot read "3_0", float() can
        path = tmp_path / "overflow.csv"
        path.write_text(f"H,J\n1.0,1e303\n2.0,2.0\n{last}\n")
        code = cli.main([
            "fit-anhysteretic", str(path), "--unit", unit, "--ms", str(MS), "--temp", str(T),
            "--out", str(tmp_path / "out.json"), "--curve-out", str(tmp_path / "c.csv"),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: line 2: M cell '1e303' in unit '{unit}' overflows in A/m\n")

    @pytest.mark.parametrize("extra", [["--coarse"], ["--eps", "1e-4"]])
    def test_curve_far_above_ms(self, tmp_path, capsys, extra):
        # M = 1e100 A/m: every eta candidate's stability margin, Ms/(3*chi_a), rounds away.
        # --coarse used to exit 0 with a residual RMS of 1e94 T, --eps 1e-4 to exit 3
        path = tmp_path / "far.csv"
        write_curve_file(path, np.linspace(50.0, 1.0e4, 200), np.full(200, 1.0e100))
        code = cli.main([
            "fit-anhysteretic", str(path), "--ms", str(MS), "--temp", str(T), *extra,
            "--out", str(tmp_path / "out.json"), "--curve-out", str(tmp_path / "c.csv"),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: initial susceptibility 2e+98 is too large for Ms = 1.6e+06 A/m: "
            "alpha*Ms/(3*aJ) = 1 >= 1; the anhysteretic curve is multivalued\n"
        )
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize(
        "scale,message",
        [
            # mu0*m underflows: aJ = kB*T/(mu0*m) used to raise ZeroDivisionError, exit 1
            (1e-298, "initial susceptibility 1e-298 is too small for Ms = 1.6e+06 A/m: "
                     "the moment m = 6.2522e-319 is too small for aJ = kB*T/(mu0*m)"),
            # m itself underflows: this used to say only "moment must be positive, got 0.0"
            (1e-320, "initial susceptibility 9.99989e-321 is too small for Ms = 1.6e+06 A/m: "
                     "the moment m = 0 is too small for aJ = kB*T/(mu0*m)"),
            # mu0*m is subnormal: too few bits for aJ.  This exited 2 on "the residual norm
            # underflows", and before that exited 0 with residual_rms 0 and aJ 6.1e301
            (1e-296, "initial susceptibility 1e-296 is too small for Ms = 1.6e+06 A/m: "
                     "the moment m = 6.25221e-317 is too small for aJ = kB*T/(mu0*m)"),
        ],
        ids=["mu0-m-underflows", "m-underflows", "mu0-m-subnormal"],
    )
    def test_tiny_susceptibility(self, tmp_path, capsys, scale, message):
        path = tmp_path / "tiny.csv"
        H = 100.0 * np.arange(1, 101)
        write_curve_file(path, H, scale * H)
        code = cli.main([
            "fit-anhysteretic", str(path), "--ms", str(MS), "--temp", str(T),
            "--out", str(tmp_path / "out.json"), "--curve-out", str(tmp_path / "c.csv"),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out.json").exists()

    def test_steep_curve_up_to_1e306(self, tmp_path):
        # chi_a = 1e9 puts every candidate within 1e-6 of stability, where the implicit
        # solve's start overflowed at 1e306 A/m: the first eta step failed, exit 3
        path = tmp_path / "steep.csv"
        write_curve_file(path, np.array([1e-3, 1.0, 1e3, 1e6, 1e306]),
                         np.array([1.0e6, 1.5e6, 1.59e6, 1.599e6, 1.6e6]))
        code = cli.main([
            "fit-anhysteretic", str(path), "--ms", str(MS), "--temp", str(T), "--coarse",
            "--out", str(tmp_path / "out.json"), "--curve-out", str(tmp_path / "c.csv"),
        ])
        assert code == 0
        # no floating-point warning: only the fit's own, as five Langevin-like samples over
        # 309 decades fit at rms 0.74 T, at the grid's last eta
        warnings = json.loads((tmp_path / "out.json").read_text())["warnings"]
        assert [w["code"] for w in warnings] == ["FIT_CONDITION_NOT_MET", "SWEEP_EDGE"]
        assert np.loadtxt(tmp_path / "c.csv", delimiter=",", skiprows=1)[-1, 2] == MS

# (id, saved report text, the command that reads it, the key its error names)
_SIMULATE = ["simulate-loop", "--c", "0.1", "--k", "1000", "--hmax", "5000", "--steps", "50"]
_BAD_REPORTS = [
    ("params-list", "[972.0, 0.0014]", [*_SIMULATE, "--params"], "result"),
    ("params-null-aj", '{"result": {"aJ": null, "alpha": 0.0014}, "config": {"ms": 1.6e6}}',
     [*_SIMULATE, "--params"], "aJ"),
    ("params-not-json", "aJ = 972\n", [*_SIMULATE, "--params"], "result"),
    ("features-null", '{"features": {"chi_in": 50.0, "chi_an": null}}', ["--features"], "chi_an"),
    ("features-list", "[50.0, 500.0]", ["--features"], "features"),
    ("features-missing", '{"features": {"chi_in": 50.0}}', ["--features"], "chi_an"),
    # float() reads true as 1.0 and "50" as 50.0; a report holds JSON numbers
    ("params-bool-aj", '{"result": {"aJ": true, "alpha": 0.0014}, "config": {"ms": 1.6e6}}',
     [*_SIMULATE, "--params"], "aJ"),
    ("features-str", '{"features": {"chi_in": "50", "chi_an": 500.0}}', ["--features"], "chi_in"),
]


class TestSavedReports:
    """A saved report the next stage cannot read exits 2, naming the file and the key."""

    @pytest.mark.parametrize(
        "text, argv, key", [c[1:] for c in _BAD_REPORTS], ids=[c[0] for c in _BAD_REPORTS]
    )
    def test_malformed_report_exits_2(self, loop_files, tmp_path, capsys, text, argv, key):
        path = tmp_path / "saved.json"
        path.write_text(text)
        if argv[0] != "simulate-loop":
            argv = ["fit-jiles92", "--loop", str(loop_files["loop"]), "--ms", str(MS),
                    "--temp", str(T), *argv]
        code = cli.main([*argv, str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert str(path) in err and repr(key) in err

    def test_integer_past_the_float_range_is_infinite(self, tmp_path, capsys):
        # read as inf, like 1e400, and rejected as bad input; float() of the int raised OverflowError
        path = tmp_path / "saved.json"
        path.write_text('{"result": {"aJ": 1' + "0" * 400 + ', "alpha": 0.0014}, "config": {"ms": 1.6e6}}')
        code = cli.main([*_SIMULATE, "--params", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "aJ must be positive and finite, got inf" in capsys.readouterr().err


@pytest.mark.parametrize("verbose", [False, True])
def test_verbose_logs_the_fit_summary(anh_file, tmp_path, verbose):
    # one line per scan level of the 100-point grid: the coarse scan from its top decade,
    # the plain scan at stride 1 alone
    for scan, levels in ((["--coarse"], ["10", "1"]), ([], ["1"])):
        r = run_cli(
            *(["--verbose"] if verbose else []), "fit-anhysteretic", anh_file, "--ms", MS, "--temp", T,
            *scan, "--eps", "1e-3", "--out", tmp_path / "rep.json", "--curve-out", tmp_path / "c.csv",
        )
        assert r.returncode == 0, r.stderr
        assert ("INFO jamag.anfit: fit: eta*=" in r.stderr) is verbose
        strides = re.findall(r"INFO jamag.anfit: scan stride (\d+) over", r.stderr)
        assert strides == (levels if verbose else [])


class TestNumericalErrors:
    def test_unstable_parameters_exit_3(self, tmp_path):
        r = run_cli(
            "simulate-loop", "--aj", 1, "--alpha", 0.01, "--c", 0.1, "--k", 100,
            "--ms", MS, "--hmax", 5000, "--out", tmp_path / "l.csv",
        )
        assert r.returncode == 3
        assert "numerical failure" in r.stderr

    def test_non_positive_k_exits_3(self, loop_files, tmp_path, capsys):
        # the loop run backwards past its initial rise: each branch has the other's direction,
        # so the regression's k is negative, a numerical failure that names k
        H, M = np.loadtxt(loop_files["loop"], delimiter=",", skiprows=1).T
        path = tmp_path / "backwards.csv"
        write_curve_file(path, H[:400:-1], M[:400:-1])
        feats = tmp_path / "features.json"  # extract rejects the reversed loop's negative tip slope
        feats.write_text(json.dumps({"features": _FEATURES}))
        code = cli.main([
            "fit-jiles92", "--loop", str(path), "--features", str(feats), "--anhysteretic", str(loop_files["anh"]),
            "--ms", str(MS), "--temp", str(T), "--out", str(tmp_path / "out.json"),
        ])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "numerical failure: the fitted parameters are not a model: k must be positive and finite, got -")
        assert not (tmp_path / "out.json").exists()

    def test_anhysteretic_curve_past_stability_exits_3(self, loop_files, tmp_path, capsys):
        # alpha*Ms/(3*aJ) = 1.2 fits the rising part of H = aJ*x - alpha*Ms*L(x) exactly: no
        # single-valued anhysteretic curve has it, a numerical failure that names kappa
        aJ, alpha = 972.0, 1.2 * 3.0 * 972.0 / MS
        x = np.linspace(3.0, 30.0, 200)
        path = tmp_path / "unstable.csv"
        write_curve_file(path, aJ * x - alpha * MS * langevin(x), MS * langevin(x))
        feats = tmp_path / "features.json"
        feats.write_text(json.dumps({"features": _FEATURES}))
        code = cli.main([
            "fit-jiles92", "--loop", str(loop_files["loop"]), "--features", str(feats),
            "--anhysteretic", str(path), "--ms", str(MS), "--temp", str(T), "--out", str(tmp_path / "out.json"),
        ])
        assert code == 3
        assert capsys.readouterr().err == (
            "numerical failure: alpha*Ms/(3*aJ) = 1.2 >= 1; the anhysteretic curve is multivalued\n")


class TestFitAnhysteretic:
    def test_end_to_end(self, anh_file, tmp_path):
        rep = tmp_path / "rep.json"
        curve = tmp_path / "fit.csv"
        r = run_cli(
            "fit-anhysteretic", anh_file, "--ms", MS, "--temp", T, "--coarse",
            "--out", rep, "--curve-out", curve, "--deterministic",
        )
        assert r.returncode == 0, r.stderr
        report = json.loads(rep.read_text())
        assert report["status"] == "ok"
        assert report["result"]["aJ"] == pytest.approx(972.0, rel=0.02)
        assert report["result"]["alpha"] == pytest.approx(1.4e-3, rel=0.05)
        assert report["result"]["fit_condition_met"] is True and report["warnings"] == []
        assert "timestamp" not in report
        assert report["inputs"]["data"]["sha256"]
        data = np.loadtxt(curve, delimiter=",", skiprows=1)
        assert data.shape == (200, 4)

    @pytest.mark.parametrize(
        "M, codes",
        [
            (np.full(200, 1.0e5), ["FIT_CONDITION_NOT_MET", "SWEEP_EDGE"]),  # best eta: the first
            (np.linspace(1.0e6, 5.0e5, 200), ["FIT_CONDITION_NOT_MET"]),
        ],
        ids=["constant", "decreasing"],
    )
    def test_a_curve_off_the_model_is_flagged(self, tmp_path, M, codes):
        # the fit still exits 0 and reports its best candidate, but says it misses the bound
        path = tmp_path / "odd.csv"
        write_curve_file(path, np.linspace(50.0, 1.0e4, 200), M)
        rep = tmp_path / "rep.json"
        code = cli.main([
            "fit-anhysteretic", str(path), "--ms", str(MS), "--temp", str(T), "--coarse",
            "--out", str(rep), "--curve-out", str(tmp_path / "c.csv"),
        ])
        assert code == 0
        report = json.loads(rep.read_text())
        assert report["result"]["fit_condition_met"] is False
        assert report["result"]["residual_rms"] > anfit.RMS_BOUND_FRACTION * MU0 * MS
        assert [w["code"] for w in report["warnings"]] == codes
        assert report["warnings"][0]["message"] == "residual RMS exceeds 1% of mu0*Ms; best eta reported"

    def test_report_keys_sorted(self, anh_file, tmp_path):
        rep = tmp_path / "rep.json"
        run_cli(
            "fit-anhysteretic", anh_file, "--ms", MS, "--temp", T, "--coarse",
            "--out", rep, "--curve-out", tmp_path / "c.csv", "--deterministic",
        )
        obj = json.loads(rep.read_text())
        assert list(obj) == sorted(obj)
        assert list(obj["result"]) == sorted(obj["result"])

    def test_timestamp_without_deterministic(self, anh_file, tmp_path):
        rep = tmp_path / "rep.json"
        run_cli(
            "fit-anhysteretic", anh_file, "--ms", MS, "--temp", T, "--coarse",
            "--out", rep, "--curve-out", tmp_path / "c.csv",
        )
        assert "timestamp" in json.loads(rep.read_text())

    def test_byte_determinism(self, anh_file, tmp_path):
        args = (
            "fit-anhysteretic", anh_file, "--ms", MS, "--temp", T, "--coarse",
            "--curve-out", tmp_path / "c.csv", "--deterministic",
        )
        r1 = run_cli(*args, "--out", tmp_path / "a.json")
        r2 = run_cli(*args, "--out", tmp_path / "b.json")
        assert r1.returncode == r2.returncode == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestCoarseReport:
    """``"coarse"`` in a report is the scan that ran, plain or coarse; there is no other policy."""

    def test_fit_anhysteretic(self, anh_file, tmp_path):
        rep = tmp_path / "rep.json"
        argv = [
            "fit-anhysteretic", str(anh_file), "--ms", str(MS), "--temp", str(T), "--coarse",
            "--eps", "1e-3", "--out", str(rep), "--curve-out", str(tmp_path / "fit.csv"), "--deterministic",
        ]
        assert cli.main(argv) == 0
        config = json.loads(rep.read_text())["config"]
        assert config["coarse"] is True and "sweep" not in config

    def test_validate(self, tmp_path, capsys):
        rep = tmp_path / "v.json"
        argv = ["validate", "--eps", "1e-3", "--out", str(rep), "--deterministic"]
        cli.main(argv)  # exits 3 on this coarse grid; the report is written either way
        config = json.loads(rep.read_text())["config"]
        assert config["coarse"] is True and "sweep" not in config

    def test_sweep_flag_is_a_usage_error(self, anh_file, tmp_path, capsys):
        # plain or coarse is the only choice of scan: no flag names a sweep policy
        for argv in (
            ["fit-anhysteretic", str(anh_file), "--ms", str(MS), "--temp", str(T), "--sweep", "argmin",
             "--out", str(tmp_path / "rep.json"), "--curve-out", str(tmp_path / "fit.csv")],
            ["validate", "--sweep", "argmin", "--out", str(tmp_path / "v.json")],
        ):
            with pytest.raises(SystemExit) as info:
                cli.main(argv)
            assert info.value.code == 2
            assert "unrecognized arguments: --sweep argmin" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_plain_flag_is_a_usage_error(self, tmp_path, capsys):
        # validate always refines by decades: its report says "coarse": true
        with pytest.raises(SystemExit) as info:
            cli.main(["validate", "--plain", "--out", str(tmp_path / "v.json")])
        assert info.value.code == 2
        assert "unrecognized arguments: --plain" in capsys.readouterr().err
        assert not (tmp_path / "v.json").exists()
        assert not list(tmp_path.iterdir())


def _write_curve_rows(path, header, columns):
    """The per-row CSV writer that ``cli._write_curve`` replaced."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for row in zip(*columns):
            f.write(",".join(repr(float(v)) for v in row) + "\n")


@pytest.fixture
def cores(monkeypatch, tmp_path):
    """``cores(k, share_rows)`` makes ``_write_curve`` see ``k`` cores and give each
    share at least ``share_rows`` fresh rows; it returns the list of forked children's
    pids.  Afterwards no child process is left, and no temporary file or descriptor
    is open."""
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    def set_cores(k, share_rows=1):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
        monkeypatch.setattr(cli, "_SHARE_ROWS", share_rows)
        return forks

    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    monkeypatch.setattr(os, "fork", fork)
    fds = os.listdir("/proc/self/fd")
    yield set_cores
    try:
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    finally:  # a broken writer's children must not outlive the test
        for pid in forks:
            with contextlib.suppress(ChildProcessError):
                if os.waitpid(pid, os.WNOHANG) == (0, 0):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
    assert not list(tmp.iterdir())
    assert os.listdir("/proc/self/fd") == fds


class TestWriteCurve:
    ROWS = cli._WRITE_ROWS
    SHARE = cli._SHARE_ROWS

    @staticmethod
    def random_columns(n):
        """Three columns of ``n`` random values, led by signed zeros, subnormals and
        values whose repr switches to exponent form; the last value is -0.0."""
        rng = np.random.default_rng(n)
        special = [-0.0, 5e-324, 1e22, -1e22, -5e-324, 0.0, -1.5, 1.0 / 3.0]
        columns = [
            rng.standard_normal(n) * 1e4,
            -np.abs(rng.standard_normal(n)) * 1e6,
            rng.standard_normal(n),
        ]
        for j, col in enumerate(columns):
            k = min(n, len(special))
            col[:k] = np.roll(special, j)[:k]
        columns[2][-1] = -0.0
        return columns

    # files of one block and of four, at each block boundary
    @pytest.mark.parametrize("n", [1, ROWS - 1, ROWS, ROWS + 1, 4 * ROWS - 1, 4 * ROWS, 4 * ROWS + 1])
    def test_bytes_equal_the_per_row_writer(self, tmp_path, n):
        columns = self.random_columns(n)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        cli._write_curve(new, ["H", "M", "B"], columns)
        _write_curve_rows(old, ["H", "M", "B"], columns)
        assert new.read_bytes() == old.read_bytes()
        assert len(new.read_text().splitlines()) == n + 1


    @staticmethod
    def repeating_columns(length):
        """Row 0, then runs A B A A' B A and a partial A, where A' is A with one
        0.0 turned into -0.0: equal as floats, other bytes."""
        rng = np.random.default_rng(length)
        a, b = rng.standard_normal((2, 3, length)) * 1e4
        a[:, 1] = 0.0
        a_neg = a.copy()
        a_neg[2, 1] = -0.0
        runs = [rng.standard_normal((3, 1)), a, b, a, a_neg, b, a, a[:, : length // 2 + 1]]
        return list(np.concatenate(runs, axis=1))

    @staticmethod
    def collide(monkeypatch):
        """Give each block key and each negated key that ``_write_curve`` hands ``_memo``
        the hash 0, so blocks are told apart by comparing keys alone; returns the block
        keys hashed and the negated keys hashed, each once per lookup."""
        hashed, negated = [], []

        class Key:
            def __init__(self, key, log):
                self.key, self.log = key, log

            def __hash__(self):
                self.log.append(self.key)
                return 0

            def __eq__(self, other):
                return self.key == other.key

        def memo(items, key, twin, flip, _memo=cli._memo):
            def twin_key(item):
                t = twin(item)
                return None if t is None else Key(t, negated)

            return _memo(items, lambda item: Key(key(item), hashed), twin_key, flip)

        monkeypatch.setattr(cli, "_memo", memo)
        return hashed, negated

    @pytest.mark.parametrize("length, run", [
        (5, 5),  # runs on the repeats
        (5, 3),  # runs across them
        (5, 1000),  # one run longer than the file
        (ROWS + 1, ROWS + 1),  # runs of two write blocks each
        (4 * ROWS + 1, 4 * ROWS + 1),  # runs of five write blocks each
    ])
    @pytest.mark.parametrize("collide", [False, True])
    def test_repeated_runs_equal_the_per_row_writer(self, tmp_path, monkeypatch, length, run, collide):
        columns = self.repeating_columns(length)
        hashed, negated = self.collide(monkeypatch) if collide else ([], [])
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        cli._write_curve(new, ["H", "M", "B"], columns, run=run)
        monkeypatch.undo()
        _write_curve_rows(old, ["H", "M", "B"], columns)
        assert new.read_bytes() == old.read_bytes()
        if collide:  # every block's key went through the constant hash: row 0 and the rest
            runs = [min(run, len(columns[0]) - 1 - r) for r in range(0, len(columns[0]) - 1, run)]
            assert sum(isinstance(k, tuple) for k in hashed) == 1 + sum(-(-r // self.ROWS) for r in runs)
            # and the negated key of each block with a new key and no -0.0 cell, once
            unsigned = [k for k in dict.fromkeys(hashed) if not any(
                (np.signbit(c) & (c == 0.0)).any() for c in map(np.frombuffer, k))]
            assert negated == [tuple(np.subtract(0.0, np.frombuffer(c)).tobytes() for c in k) for k in unsigned]

    @pytest.mark.parametrize("join", [None, 5])
    @pytest.mark.parametrize("collide", [False, True])
    def test_repeats_formatted_once(self, tmp_path, monkeypatch, join, collide):
        """Runs of 10 rows in blocks of 4: row 0, runs A and B, then C over A's H grid.
        C is formatted afresh; when it joins A at row ``join``, only up to the block
        holding that row."""
        rng = np.random.default_rng(7)
        row0, a, b, c = rng.standard_normal((4, 3, 10)) * 1e4
        c[0] = a[0]
        if join is not None:
            c[:, join:] = a[:, join:]
        columns = list(np.concatenate([row0[:, :1], a, b, c], axis=1))
        formatted = []
        monkeypatch.setattr(cli, "_WRITE_ROWS", 4)
        monkeypatch.setattr(cli, "repr", lambda v: formatted.append(v) or builtins.repr(v), raising=False)
        if collide:
            self.collide(monkeypatch)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        cli._write_curve(new, ["H", "M", "B"], columns, run=10)
        monkeypatch.undo()
        _write_curve_rows(old, ["H", "M", "B"], columns)
        assert new.read_bytes() == old.read_bytes()
        assert len(formatted) == 3 * 21 + 3 * (10 if join is None else 8)

    def test_the_parent_formats_its_share_before_it_waits(self, tmp_path, monkeypatch, cores):
        # row 0 and four full blocks, all fresh, in two shares: the child formats the
        # second while this process formats the first, and only then waits for it
        forks = cores(2)
        formatted, waited = [], []
        real_waitpid = os.waitpid

        def waitpid(pid, options):
            waited.append(len(formatted))
            return real_waitpid(pid, options)

        monkeypatch.setattr(os, "waitpid", waitpid)
        monkeypatch.setattr(cli, "repr", lambda v: formatted.append(v) or builtins.repr(v), raising=False)
        columns = self.random_columns(4 * self.ROWS + 1)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        cli._write_curve(new, ["H", "M", "B"], columns)
        _write_curve_rows(old, ["H", "M", "B"], columns)
        assert new.read_bytes() == old.read_bytes()
        sizes = [1] + [self.ROWS] * 4
        first, _ = cli._shares(list(range(5)), sizes, 2)
        assert len(forks) == 1
        assert waited[0] == len(formatted) == 3 * sum(sizes[b] for b in first)

    def test_memo_keeps_each_value_until_its_last_use(self):
        class Value:
            pass

        items = [b"a", b"b", b"a", b"c", b"b", b"a"]
        get = cli._memo(items, bytes, lambda item: None, None)
        made = {}
        for i, item in enumerate(items):
            value = get(i, Value)
            assert made.setdefault(item, weakref.ref(value))() is value
            del value
            alive = {k for k, ref in made.items() if ref() is not None}
            assert alive == {k for k in made if k in items[i + 1 :]}

    def test_memo_flips_an_earlier_value_for_a_twin_key(self):
        items = [b"a", b"b", b"-a", b"-a", b"a", b"-c", b"b"]
        flips = []

        def flip(value):
            flips.append(value)
            return "-" + value

        get = cli._memo(items, bytes, lambda item: item[1:] if item.startswith(b"-") else None, flip)
        made = []
        values = [get(i, lambda: made.append(i) or items[i].decode()) for i in range(len(items))]
        assert values == [item.decode() for item in items]
        assert made == get.fresh == [0, 1, 5]
        assert flips == ["a"]  # the second -a repeats the first one's flipped value

    def test_mirrored_blocks_are_flipped_unless_a_nan_or_minus_zero_bars_it(self, tmp_path, monkeypatch):
        """Runs of 8 rows in blocks of 4: row 0, then A, B = 0.0 - A, C, D and
        E = 0.0 - D.  A's first block holds 0.0 and +-inf, its second a -0.0, which
        0.0 - col never gives; C is B with one 0.0 turned -0.0 in its first block; D's
        first block holds a NaN.  B's first block and E's second are written flipped,
        C's second repeats B's; the rest are formatted."""
        rng = np.random.default_rng(11)
        row0, a, d = rng.standard_normal((3, 3, 8)) * 1e4
        a[0, :3] = 0.0, np.inf, -np.inf
        a[1, 5] = -0.0
        d[2, 2] = np.nan
        b = np.subtract(0.0, a)
        c = b.copy()
        c[0, 0] = -0.0
        columns = list(np.concatenate([row0[:, :1], a, b, c, d, np.subtract(0.0, d)], axis=1))
        formatted = []
        monkeypatch.setattr(cli, "_WRITE_ROWS", 4)
        monkeypatch.setattr(cli, "repr", lambda v: formatted.append(v) or builtins.repr(v), raising=False)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        cli._write_curve(new, ["H", "M", "B"], columns, run=8)
        monkeypatch.undo()
        _write_curve_rows(old, ["H", "M", "B"], columns)
        assert new.read_bytes() == old.read_bytes()
        lines = new.read_text().splitlines()
        assert [line.split(",")[0] for line in lines[2:5] + lines[10:13] + lines[18:19]] == [
            "0.0", "inf", "-inf", "0.0", "-inf", "inf", "-0.0"]
        assert len(formatted) == 3 * (1 + 8 + 4 + 4 + 8 + 4)

    def test_shares_cut_in_order_by_row_count(self):
        assert cli._shares([0, 1, 2, 3], [1, 1024, 1024, 1023], 2) == [[0, 1], [2, 3]]
        assert cli._shares([0, 1, 2, 3, 4], [1] * 5, 3) == [[0, 1], [2], [3, 4]]
        assert cli._shares([3, 8], [10, 1], 3) == [[3], [8]]
        assert cli._shares([7], [5], 1) == [[7]]

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("length, run", [
        (5, 5), (5, 3), (ROWS + 1, ROWS + 1), (4 * ROWS + 1, 4 * ROWS + 1),
    ])
    def test_shares_write_the_bytes_of_repeated_runs(self, tmp_path, cores, k, length, run):
        forks = cores(k)
        columns = self.repeating_columns(length)  # A' repeats A but for one -0.0
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        cli._write_curve(new, ["H", "M", "B"], columns, run=run)
        _write_curve_rows(old, ["H", "M", "B"], columns)
        assert new.read_bytes() == old.read_bytes()
        assert len(forks) == k - 1

    # files that end at a block boundary and one row past it
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [ROWS + 1, ROWS + 2, 4 * ROWS + 1, 4 * ROWS + 2])
    def test_shares_write_the_bytes_of_fresh_blocks(self, tmp_path, cores, k, n):
        forks = cores(k)
        columns = self.random_columns(n)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        cli._write_curve(new, ["H", "M", "B"], columns)
        _write_curve_rows(old, ["H", "M", "B"], columns)
        assert new.read_bytes() == old.read_bytes()
        assert len(forks) == min(k, 1 + -(-(n - 1) // self.ROWS)) - 1  # a share has a block

    @pytest.mark.parametrize("k, n, children", [
        (2, 2 * SHARE - 1, 0),  # every row fresh
        (2, 2 * SHARE, 1),
        (3, 3 * SHARE - 1, 1),
        (3, 3 * SHARE, 2),
        (3, 8 * SHARE, 2),
    ])
    def test_each_share_takes_the_fewest_rows_or_more(self, tmp_path, cores, k, n, children):
        forks = cores(k, cli._SHARE_ROWS)
        cli._write_curve(tmp_path / "new.csv", ["H", "M", "B"], self.random_columns(n))
        assert len(forks) == children

    @pytest.mark.parametrize("failure", ["raise", "exit", "kill", "no-fork"])
    def test_the_parent_formats_a_failed_share(self, tmp_path, monkeypatch, cores, failure):
        forks = cores(2)
        parent = os.getpid()

        def child_repr(value):
            if os.getpid() != parent:
                if failure == "raise":
                    raise ValueError("in the child")
                if failure == "exit":
                    os._exit(3)
                os.kill(os.getpid(), signal.SIGKILL)
            return builtins.repr(value)

        monkeypatch.setattr(cli, "repr", child_repr, raising=False)
        tried = []
        if failure == "no-fork":
            def no_fork():
                tried.append(parent)
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

            monkeypatch.setattr(os, "fork", no_fork)
        columns = self.random_columns(4 * self.ROWS + 1)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        cli._write_curve(new, ["H", "M", "B"], columns)
        _write_curve_rows(old, ["H", "M", "B"], columns)
        assert new.read_bytes() == old.read_bytes()
        assert len(forks) + len(tried) == 1

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_an_error_in_the_parent_kills_the_child(self, tmp_path, monkeypatch, cores, error):
        forks = cores(2)
        parent = os.getpid()

        def slow_repr(value):
            if os.getpid() == parent:
                raise error("in the parent")
            time.sleep(60)  # the child would take minutes

        def too_slow(signum, frame):
            raise TimeoutError("the child was waited for, not killed")

        monkeypatch.setattr(cli, "repr", slow_repr, raising=False)
        handler = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(20)
        try:
            with pytest.raises(error, match="in the parent"):
                cli._write_curve(tmp_path / "new.csv", ["H", "M", "B"], self.random_columns(4 * self.ROWS))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, handler)
        assert len(forks) == 1


# what Python 3.12 warns when a process with threads forks
_FORK_WARNING = (
    "This process (pid={pid}) is multi-threaded, use of fork() may lead to deadlocks in the child."
)


class TestSimulateLoop:
    # 15 001 rows, 11 049 of them fresh (over 8 192): the writer splits them in two
    ARGV = [
        "simulate-loop", "--aj", "972", "--alpha", "1.4e-3", "--c", "0.1", "--k", "1000",
        "--ms", str(MS), "--hmax", "5000", "--cycles", "2", "--steps", "3000", "--deterministic",
    ]

    @pytest.mark.parametrize("fork_warning, codes", [
        (None, []),
        (_FORK_WARNING, []),
        ("another deprecation, pid={pid}", ["DEPRECATIONWARNING"]),
    ])
    def test_a_split_write_adds_no_report_warning(self, tmp_path, monkeypatch, cores, fork_warning, codes):
        forks = cores(2, cli._SHARE_ROWS)
        real_fork = os.fork

        def fork():
            if fork_warning is not None:
                warnings.warn(fork_warning.format(pid=os.getpid()), DeprecationWarning, stacklevel=2)
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        out, report = tmp_path / "loop.csv", tmp_path / "report.json"
        assert cli.main([*self.ARGV, "--out", str(out), "--report", str(report)]) == 0
        assert len(forks) == 1
        assert [w["code"] for w in json.loads(report.read_text())["warnings"]] == codes
        p = HysteresisParams(aJ=972.0, alpha=1.4e-3, c=0.1, k=1000.0, Ms=MS)
        curve = integrate(p, FieldWaveform.cyclic(5000.0, cycles=2, steps_per_segment=3000))
        ref = tmp_path / "ref.csv"
        _write_curve_rows(ref, ["H", "M", "B"], [curve.H, curve.M, cli.MU0 * (curve.H + curve.M)])
        assert out.read_bytes() == ref.read_bytes()

    def test_unwritable_out_exits_2_before_forking(self, tmp_path, monkeypatch, cores, capsys):
        cores(2, cli._SHARE_ROWS)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        out = tmp_path / "missing" / "loop.csv"
        assert cli.main([*self.ARGV, "--out", str(out), "--report", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory")
        assert not (tmp_path / "r.json").exists()

    def test_csv_bytes_equal_the_per_row_writer(self, tmp_path):
        out = tmp_path / "loop.csv"
        argv = [
            "simulate-loop", "--aj", "972", "--alpha", "1.4e-3", "--c", "0.1", "--k", "1000",
            "--ms", str(MS), "--hmax", "5000", "--cycles", "2", "--steps", "300",
            "--out", str(out), "--deterministic",
        ]
        assert cli.main(argv) == 0
        p = HysteresisParams(aJ=972.0, alpha=1.4e-3, c=0.1, k=1000.0, Ms=MS)
        curve = integrate(p, FieldWaveform.cyclic(5000.0, cycles=2, steps_per_segment=300))
        ref = tmp_path / "ref.csv"
        _write_curve_rows(ref, ["H", "M", "B"], [curve.H, curve.M, cli.MU0 * (curve.H + curve.M)])
        assert out.read_bytes() == ref.read_bytes()

    def test_flags_path(self, tmp_path):
        out = tmp_path / "loop.csv"
        r = run_cli(
            "simulate-loop", "--aj", 972, "--alpha", 1.4e-3, "--c", 0.1, "--k", 1000,
            "--ms", MS, "--hmax", 5000, "--cycles", 2, "--steps", 200, "--out", out,
            "--report", tmp_path / "sim.json", "--deterministic",
        )
        assert r.returncode == 0, r.stderr
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape == (5 * 200 + 1, 3)  # 5 segments, 200 steps each
        H, M, B = data.T
        assert np.max(np.abs(M)) <= MS
        mu0 = 4e-7 * np.pi
        assert np.allclose(B, mu0 * (H + M), rtol=1e-12, atol=1e-18)

    def test_params_report_path(self, anh_file, tmp_path):
        rep = tmp_path / "rep.json"
        run_cli(
            "fit-anhysteretic", anh_file, "--ms", MS, "--temp", T, "--coarse",
            "--out", rep, "--curve-out", tmp_path / "c.csv", "--deterministic",
        )
        r = run_cli(
            "simulate-loop", "--params", rep, "--c", 0.1, "--k", 1000,
            "--hmax", 5000, "--steps", 100, "--out", tmp_path / "loop.csv",
        )
        assert r.returncode == 0, r.stderr

    def test_params_report_with_negative_alpha_exits_3(self, anh_file, tmp_path, monkeypatch):
        # a report flagged NON_PHYSICAL_ALPHA is valid data: refusing it is a numerical failure
        monkeypatch.setattr(anfit, "alpha_from_susceptibilities", lambda cp, ca: -1e-4)
        rep = tmp_path / "rep.json"
        code = cli.main([
            "fit-anhysteretic", str(anh_file), "--ms", str(MS), "--temp", str(T),
            "--eta0", "0.999", "--eps", "1e-4", "--out", str(rep),
            "--curve-out", str(tmp_path / "c.csv"), "--deterministic",
        ])
        assert code == 0
        assert "NON_PHYSICAL_ALPHA" in [w["code"] for w in json.loads(rep.read_text())["warnings"]]
        r = run_cli(
            "simulate-loop", "--params", rep, "--c", 0.1, "--k", 1000,
            "--hmax", 5000, "--steps", 100, "--out", tmp_path / "loop.csv",
        )
        assert r.returncode == 3
        assert "NON_PHYSICAL_ALPHA" in r.stderr
        assert str(rep) in r.stderr

    def test_unit_flag_rejected(self, tmp_path, capsys):
        # simulate-loop reads no curve file, so it has no M column unit to set
        out = tmp_path / "loop.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main([
                "simulate-loop", "--unit", "j", "--aj", "972", "--alpha", "1.4e-3", "--c", "0.1",
                "--k", "1000", "--ms", str(MS), "--hmax", "5000", "--out", str(out),
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments: --unit j" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_alpha_flag_exits_2(self, tmp_path):
        r = run_cli(
            "simulate-loop", "--aj", 972, "--alpha=-1e-4", "--c", 0.1, "--k", 1000,
            "--ms", MS, "--hmax", 5000, "--out", tmp_path / "l.csv",
        )
        assert r.returncode == 2
        assert "alpha must be non-negative" in r.stderr


class TestExtractAndJiles92:
    def test_extract_features(self, loop_files, tmp_path):
        out = tmp_path / "features.json"
        r = run_cli(
            "extract", "--loop", loop_files["loop"], "--first-mag", loop_files["first"],
            "--anhysteretic", loop_files["anh"], "--out", out, "--deterministic",
        )
        assert r.returncode == 0, r.stderr
        obj = json.loads(out.read_text())
        f = obj["features"]
        assert 0.0 < f["Hc"] < 1000.0
        assert f["Hm"] == pytest.approx(5000.0)
        assert obj["derived"]["k"] == f["Hc"]
        assert obj["derived"]["c"] == pytest.approx(f["chi_in"] / f["chi_an"], rel=1e-12)

    @pytest.mark.parametrize("command", ["extract", "fit-jiles92", "fit-anhysteretic"])
    @pytest.mark.parametrize("points", [0, 1])
    def test_too_few_slope_points_exit_2(self, loop_files, tmp_path, capsys, command, points):
        # each command has one fixed origin-slope rule, so --slope-points is a usage error
        out = tmp_path / "out.json"
        curves = ["--loop", str(loop_files["loop"]), "--first-mag", str(loop_files["first"]),
                  "--anhysteretic", str(loop_files["anh"])]
        argv = {
            "extract": ["extract", *curves],
            "fit-jiles92": ["fit-jiles92", *curves, "--temp", str(T)],
            "fit-anhysteretic": ["fit-anhysteretic", str(loop_files["anh"]), "--temp", str(T),
                                 "--curve-out", str(tmp_path / "curve.csv")],
        }[command]
        with pytest.raises(SystemExit) as info:
            cli.main([*argv, "--ms", str(MS), "--slope-points", str(points), "--out", str(out)])
        assert info.value.code == 2
        assert f"unrecognized arguments: --slope-points {points}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_fit_from_curves(self, loop_files, tmp_path):
        rep = tmp_path / "j92.json"
        r = run_cli(
            "fit-jiles92", "--loop", loop_files["loop"], "--first-mag", loop_files["first"],
            "--anhysteretic", loop_files["anh"], "--ms", MS, "--temp", T,
            "--out", rep, "--deterministic",
        )
        assert r.returncode == 0, r.stderr
        obj = json.loads(rep.read_text())
        res = obj["result"]
        assert res["aJ"] > 0.0 and res["k"] > 0.0
        assert res["c"] == pytest.approx(0.1, rel=0.25)
        if not res["fit_condition_met"]:
            assert any(w["code"] == "FIT_CONDITION_NOT_MET" for w in obj["warnings"])
        assert obj["assumptions"]
        # the seeds, the pass cap, the simulation's cycles and steps and the slope window are constants
        assert sorted(obj["config"]) == ["fit_tol", "ms", "temp", "unit"]
        # the pseudo-domain moment of the fitted aJ, as fit-anhysteretic reports it
        assert res["m"] == KB * T / (MU0 * res["aJ"])

    def test_fit_from_features_file(self, loop_files, tmp_path):
        feats = tmp_path / "features.json"
        run_cli(
            "extract", "--loop", loop_files["loop"], "--first-mag", loop_files["first"],
            "--anhysteretic", loop_files["anh"], "--out", feats, "--deterministic",
        )
        rep = tmp_path / "j92.json"
        r = run_cli(
            "fit-jiles92", "--loop", loop_files["loop"], "--features", feats,
            "--ms", MS, "--temp", T, "--out", rep, "--deterministic",
        )
        assert r.returncode == 0, r.stderr

    def test_fit_handles_each_file_once(self, loop_files, tmp_path, monkeypatch):
        # one parse per input file (the first-magnetization curve is read and checked, not
        # fitted from), one split of the measured loop, and one simulation judged
        calls = {"parse_curve": 0, "split_branches": 0, "_loop_mse": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "parse_curve", counted("parse_curve", cli.parse_curve))
        split = counted("split_branches", dataio.split_branches)
        monkeypatch.setattr(dataio, "split_branches", split)
        monkeypatch.setattr(jiles92, "split_branches", split)
        monkeypatch.setattr(jiles92, "_loop_mse", counted("_loop_mse", jiles92._loop_mse))
        rep = tmp_path / "j92.json"
        code = cli.main([
            "fit-jiles92", "--loop", str(loop_files["loop"]),
            "--first-mag", str(loop_files["first"]), "--anhysteretic", str(loop_files["anh"]),
            "--ms", str(MS), "--temp", str(T), "--fit-tol", "1e-12",
            "--out", str(rep), "--deterministic",
        ])
        assert code == 0
        assert calls == {"parse_curve": 3, "split_branches": 1, "_loop_mse": 1}

    def test_fit_extracts_no_features(self, loop_files, tmp_path, monkeypatch):
        # the anhysteretic route reads the curves alone; the loop route reads a features file
        def raises(*args, **kwargs):
            raise AssertionError("extract_features called")

        monkeypatch.setattr(cli, "extract_features", raises)
        feats = tmp_path / "features.json"
        feats.write_text(json.dumps({"features": _FEATURES}))
        for source in (["--first-mag", str(loop_files["first"]), "--anhysteretic", str(loop_files["anh"])],
                       ["--features", str(feats)]):
            assert cli.main(["fit-jiles92", "--loop", str(loop_files["loop"]), *source, "--ms", str(MS),
                             "--temp", str(T), "--out", str(tmp_path / "j92.json"), "--deterministic"]) == 0

    def test_fit_needs_no_first_mag(self, loop_files, tmp_path):
        # --first-mag is read and checked, not fitted from: the fit is the same without it
        results = []
        for first in (["--first-mag", str(loop_files["first"])], []):
            rep = tmp_path / "j92.json"
            assert cli.main(["fit-jiles92", "--loop", str(loop_files["loop"]), *first, "--anhysteretic",
                             str(loop_files["anh"]), "--ms", str(MS), "--temp", str(T), "--out", str(rep),
                             "--deterministic"]) == 0
            obj = json.loads(rep.read_text())
            results.append({key: obj["result"][key] for key in ("aJ", "alpha", "c", "k", "mse")})
            assert ("first_mag" in obj["inputs"]) is bool(first)
        assert results[0] == results[1]

    def test_fit_still_checks_first_mag(self, loop_files, tmp_path, capsys):
        # a first-magnetization file the parser rejects is bad input, though not fitted from
        bad = tmp_path / "first_bad.csv"
        bad.write_text("H,M\n0.0,0.0\n1.0,n/a\n")
        code = cli.main(["fit-jiles92", "--loop", str(loop_files["loop"]), "--first-mag", str(bad),
                         "--anhysteretic", str(loop_files["anh"]), "--ms", str(MS), "--temp", str(T),
                         "--out", str(tmp_path / "j92.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: line 3: ")

    def test_fit_ignores_the_features_tip(self, loop_files, tmp_path):
        # the features' Hm is not read: the one simulation runs to the loop's own tip, so an
        # Hm of 1e308 A/m, whose waveform spans -inf, fits as the loop's tip of 5 000 A/m does
        results = []
        for hm in (5000.0, 1.0e308):
            feats, rep = tmp_path / "features.json", tmp_path / "j92.json"
            feats.write_text(json.dumps({"features": {**_FEATURES, "Hm": hm}}))
            assert cli.main(["fit-jiles92", "--loop", str(loop_files["loop"]), "--features", str(feats),
                             "--ms", str(MS), "--temp", str(T), "--out", str(rep), "--deterministic"]) == 0
            results.append(json.loads(rep.read_text())["result"])
        assert results[0] == results[1]

    def test_fit_checks_the_amplitude_of_every_curve(self, loop_files, tmp_path):
        # the anhysteretic curve plus one far sample at 1.2*Ms; the features stay the same
        H, M = np.loadtxt(loop_files["anh"], delimiter=",", skiprows=1).T
        high = tmp_path / "anh_high.csv"
        write_curve_file(high, [*H, 2.0 * H[-1]], [*M, 1.2 * MS])
        rep = tmp_path / "j92.json"
        code = cli.main([
            "fit-jiles92", "--loop", str(loop_files["loop"]), "--first-mag", str(loop_files["first"]),
            "--anhysteretic", str(high), "--ms", str(MS), "--temp", str(T),
            "--out", str(rep), "--deterministic",
        ])
        assert code == 0
        assert [w["message"] for w in json.loads(rep.read_text())["warnings"]
                if w["code"] == "NON_PHYSICAL_PARAMETER" and w["message"].startswith("|M| reaches")]

    def test_fit_requires_feature_source(self, loop_files):
        r = run_cli(
            "fit-jiles92", "--loop", loop_files["loop"], "--ms", MS, "--temp", T,
        )
        assert r.returncode == 2
        assert r.stderr == "error: fit-jiles92 needs --anhysteretic, or --features for the loop route's chi_an\n"


class TestValidate:
    def test_deterministic_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        r1 = run_cli("validate", "--deterministic", "--out", a)
        r2 = run_cli("validate", "--deterministic", "--out", b)
        assert r1.returncode == 0, r1.stdout + r1.stderr
        assert r2.returncode == 0
        assert a.read_bytes() == b.read_bytes()
        assert r1.stdout == r2.stdout
        assert "6/6 rows passed" in r1.stdout

    def test_report_contents(self, tmp_path):
        out = tmp_path / "v.json"
        run_cli("validate", "--deterministic", "--out", out)
        obj = json.loads(out.read_text())
        assert obj["result"]["passed"] is True
        assert len(obj["result"]["rows"]) == 6
        for row in obj["result"]["rows"]:
            assert row["rms"] <= row["bound"]
            assert "elapsed_s" not in row
