"""CLI commands under the benchmark's span tracer write what they write untraced.

``perfbench/tracer.py`` replaces module attributes of jamag (named in its
``SPAN_SITES`` and ``COUNT_SITES``) with timing wrappers.  A name it expects
that a module no longer has, or a CLI path that breaks on a wrapper, fails
every ``--trace 1`` benchmark run; these tests show it in the tier-1 suite.
"""

import importlib
import sys
from pathlib import Path

import pytest

from jamag import cli
from jamag.core import MaterialSpec
from jamag.simulate import FieldWaveform, HysteresisParams, integrate
from jamag.validation import synthetic_curve

from conftest import MS, T, write_curve_file

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracer  # noqa: E402


@pytest.fixture(scope="module")
def curves(tmp_path_factory):
    d = tmp_path_factory.mktemp("traced")
    p = HysteresisParams(aJ=972.0, alpha=1.4e-3, c=0.1, k=1000.0, Ms=MS)
    hmax = 5000.0
    paths = {}
    for name, curve in (
        ("loop", integrate(p, FieldWaveform.cyclic(hmax, cycles=2, steps_per_segment=200))),
        ("first", integrate(p, FieldWaveform((0.0, hmax), steps_per_segment=200))),
        ("anh", synthetic_curve(972.0, 1.4e-3, MaterialSpec(Ms=MS, T=T), 200, hmax)),
    ):
        paths[name] = d / f"{name}.csv"
        write_curve_file(paths[name], curve.H, curve.M)
    return paths


def commands(f) -> dict[str, list[str]]:
    material = ["--ms", str(MS), "--temp", str(T)]
    return {
        "fit-anhysteretic": ["fit-anhysteretic", str(f["anh"]), *material, "--coarse",
                             "--out", "report.json", "--curve-out", "curve.csv"],
        "fit-jiles92": ["fit-jiles92", "--loop", str(f["loop"]), "--first-mag", str(f["first"]),
                        "--anhysteretic", str(f["anh"]), *material, "--out", "report.json"],
        "simulate-loop": ["simulate-loop", "--aj", "972", "--alpha", "1.4e-3", "--c", "0.1",
                          "--k", "1000", "--ms", str(MS), "--hmax", "5000", "--cycles", "2",
                          "--steps", "300", "--out", "curve.csv", "--report", "report.json"],
    }


def run(argv: list[str], where: Path, monkeypatch) -> dict[str, bytes]:
    where.mkdir()
    monkeypatch.chdir(where)
    assert cli.main([*argv, "--deterministic"]) == 0
    return {p.name: p.read_bytes() for p in sorted(where.iterdir())}


@pytest.mark.parametrize("command, stage", [
    ("fit-anhysteretic", "anfit.solve_chi_param"),
    ("fit-jiles92", "jiles92.estimate"),
    ("simulate-loop", "simulate.integrate"),
])
def test_traced_command_writes_the_same_bytes(curves, tmp_path, monkeypatch, command, stage):
    argv = commands(curves)[command]
    plain = run(argv, tmp_path / "plain", monkeypatch)
    modules = {m: importlib.import_module(f"jamag.{m}") for m in tracer.LAYERS}
    tr = tracer.Tracer()
    with tr.installed(modules):
        traced = run(argv, tmp_path / "traced", monkeypatch)
    assert traced == plain
    assert stage in {span[tracer.NAME] for span in tr.spans}
