"""The package top level: the supported names, and the README's library example."""

import importlib
import re
import types
from pathlib import Path

import pytest

import jamag
from jamag.validation import synthetic_curve

from conftest import write_curve_file

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = [
    # pipeline
    "fit_anhysteretic", "AnhystereticFitConfig", "FitReport",
    "estimate", "Jiles92Config", "Jiles92Result",
    "integrate", "dM_dH",
    "parse_curve", "split_branches", "extract_features",
    "run_grid", "RowResult",
    # data types
    "MagnetizationCurve", "CurveKind", "Unit", "LoopFeatures", "MaterialSpec",
    "HysteresisParams", "FieldWaveform",
    # the paper's model
    "KB", "MU0", "AnhystereticParams",
    "langevin", "langevin_prime",
    "anhysteretic_explicit", "anhysteretic_implicit", "anhysteretic_slope",
    "moment_from_susceptibility", "shape_param_from_moment", "alpha_from_susceptibilities",
    # errors and warnings
    "JamagError", "DataError", "ParseError", "SingularDenominator", "UnstableParams",
    "NonPhysicalParameterWarning",
]

# solver internals: defined in their modules, not exported from the top level
INTERNAL = [
    ("anfit", "initial_susceptibility"),
    ("anfit", "solve_chi_param"),
    ("core", "langevin_inverse"),
    ("jiles92", "aj_initial"),
    ("jiles92", "aj_update"),
    ("jiles92", "alpha_update"),
    ("jiles92", "k_from_coercive"),
    ("rootfind", "find_root"),
    ("rootfind", "expand_bracket"),
    ("validation", "GRID_MATERIAL"),
    ("validation", "GRID_ROWS"),
    ("validation", "run_row"),
    ("validation", "synthetic_curve"),
]


def test_all_is_the_supported_names():
    assert len(PUBLIC) == 37
    assert sorted(jamag.__all__) == sorted(PUBLIC)
    for name in jamag.__all__:
        assert getattr(jamag, name) is not None


def test_no_public_name_outside_all():
    bound = {
        name for name, value in vars(jamag).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound == set(jamag.__all__)


@pytest.mark.parametrize("module, name", INTERNAL)
def test_internal_name_stays_in_its_module(module, name):
    assert not hasattr(jamag, name)
    assert hasattr(importlib.import_module(f"jamag.{module}"), name)


def test_errors_module_defines_the_six_kept_classes():
    errors = importlib.import_module("jamag.errors")
    defined = {name for name, value in vars(errors).items() if isinstance(value, type)}
    assert defined == {
        "JamagError", "DataError", "UnstableParams", "SingularDenominator", "ParseError",
        "NonPhysicalParameterWarning",
    }
    assert issubclass(errors.ParseError, errors.DataError)
    for name in ("UnstableParams", "SingularDenominator"):  # numerical failures: exit 3
        cls = getattr(errors, name)
        assert issubclass(cls, errors.JamagError) and not issubclass(cls, errors.DataError)


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)
    curve = synthetic_curve(972.0, 1.4e-3)
    write_curve_file(tmp_path / "measured.csv", curve.H, curve.M)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["loop"].M.size == namespace["B"].size
    aJ, alpha, _ = map(float, capsys.readouterr().out.split())
    assert aJ == pytest.approx(972.0, rel=0.01)
    assert alpha == pytest.approx(1.4e-3, rel=0.02)
