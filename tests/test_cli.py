import json
import subprocess
import sys

import numpy as np
import pytest

import jamag.anfit as anfit
from jamag import cli
from jamag.core import MaterialSpec
from jamag.dataio import CurveKind, MagnetizationCurve
from jamag.simulate import FieldWaveform, HysteresisParams, integrate
from jamag.validation import synthetic_curve

from conftest import write_curve_file

MS = 1.6e6
T = 303.5


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


class TestNumericalErrors:
    def test_unstable_parameters_exit_3(self, tmp_path):
        r = run_cli(
            "simulate-loop", "--aj", 1, "--alpha", 0.01, "--c", 0.1, "--k", 100,
            "--ms", MS, "--hmax", 5000, "--out", tmp_path / "l.csv",
        )
        assert r.returncode == 3
        assert "numerical failure" in r.stderr


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
        assert "timestamp" not in report
        assert report["inputs"]["data"]["sha256"]
        data = np.loadtxt(curve, delimiter=",", skiprows=1)
        assert data.shape == (200, 4)

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


class TestSimulateLoop:
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

    def test_fit_from_curves(self, loop_files, tmp_path):
        rep = tmp_path / "j92.json"
        r = run_cli(
            "fit-jiles92", "--loop", loop_files["loop"], "--first-mag", loop_files["first"],
            "--anhysteretic", loop_files["anh"], "--ms", MS, "--temp", T,
            "--sim-steps", 300, "--out", rep, "--deterministic",
        )
        assert r.returncode == 0, r.stderr
        obj = json.loads(rep.read_text())
        res = obj["result"]
        assert res["aJ"] > 0.0 and res["k"] > 0.0
        assert res["c"] == pytest.approx(0.1, rel=0.25)
        if not res["fit_condition_met"]:
            assert any(w["code"] == "FIT_CONDITION_NOT_MET" for w in obj["warnings"])
        assert obj["assumptions"]

    def test_fit_from_features_file(self, loop_files, tmp_path):
        feats = tmp_path / "features.json"
        run_cli(
            "extract", "--loop", loop_files["loop"], "--first-mag", loop_files["first"],
            "--anhysteretic", loop_files["anh"], "--out", feats, "--deterministic",
        )
        rep = tmp_path / "j92.json"
        r = run_cli(
            "fit-jiles92", "--loop", loop_files["loop"], "--features", feats,
            "--ms", MS, "--temp", T, "--sim-steps", 300, "--out", rep, "--deterministic",
        )
        assert r.returncode == 0, r.stderr

    def test_fit_requires_feature_source(self, loop_files):
        r = run_cli(
            "fit-jiles92", "--loop", loop_files["loop"], "--ms", MS, "--temp", T,
        )
        assert r.returncode == 2
        assert "--first-mag" in r.stderr


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
