"""Self-tests of the benchmark.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import random
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DOC = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_spec_shape():
    assert list(SPEC) == ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_spec_matches_code_and_docs():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["name"] in DOC["metrics"], m["name"]
        assert DOC["metrics"][m["name"]]["unit"] == m["unit"]
    named = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert set(DOC["metrics"]) == named


def _bytes(workload: str, seed: int, out: Path) -> dict[str, bytes]:
    out.mkdir()
    cases = WORKLOADS[workload].make(seed, 2, out)
    return {p.name: p.read_bytes() for c in cases for p in c.files.values()}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_inputs_depend_on_seed_only(workload, tmp_path):
    a = _bytes(workload, 7, tmp_path / "a")
    b = _bytes(workload, 7, tmp_path / "b")
    c = _bytes(workload, 8, tmp_path / "c")
    assert a == b
    assert a.keys() == c.keys()
    assert all(a[k] != c[k] for k in a)


def test_sizes_are_the_same_mix_for_every_seed():
    a = inputs.spread_sizes(np.random.default_rng(3), 8, 100, 2000)
    b = inputs.spread_sizes(np.random.default_rng(4), 8, 100, 2000)
    assert a != b and sorted(a) == sorted(b)
    assert sorted(a) == [219, 456, 694, 931, 1169, 1406, 1644, 1881]


def test_anhysteretic_reference_is_self_consistent():
    H = np.linspace(-1e4, 1e4, 101)
    M = inputs.anhysteretic(H, 972.0, 1.4e-3, inputs.MS)
    resid = M - inputs.MS * inputs.langevin((H + 1.4e-3 * M) / 972.0)
    assert np.max(np.abs(resid)) <= 1e-9 * inputs.MS
    assert np.array_equal(M[::-1], -M)


def test_tail_has_ten_samples_beyond():
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randint(0, 60)
        xs = [round(rng.random(), rng.choice((1, 2, 6))) for _ in range(n)]
        got = stats.tail(xs)
        if n <= 10:
            assert got is None
        if got is not None:
            value, pct = got
            assert sum(x > value for x in xs) >= stats.TAIL_BEYOND
            assert 0.0 <= pct < 100.0


def _jamag_modules():
    import importlib

    return {m: importlib.import_module(f"jamag.{m}") for m in tracer.LAYERS}


def test_wrappers_restore_every_attribute():
    modules = _jamag_modules()
    before = {m: dict(vars(mod)) for m, mod in modules.items()}
    tr = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with tr.installed(modules):
            assert modules["anfit"]._implicit_array is not before["anfit"]["_implicit_array"]
            raise RuntimeError("leave the block by an exception")
    with tr.installed(modules):
        pass
    for m, mod in modules.items():
        after = vars(mod)
        assert after.keys() == before[m].keys()
        assert all(after[k] is before[m][k] for k in after), m


def test_traced_fit_is_unchanged_and_self_times_add_up():
    modules = _jamag_modules()
    from jamag.anfit import AnhystereticFitConfig
    from jamag.core import MaterialSpec
    from jamag.dataio import CurveKind, MagnetizationCurve

    H = np.linspace(50.0, 1e4, 200)
    data = MagnetizationCurve(H, inputs.anhysteretic(H, 972.0, 1.4e-3, inputs.MS), CurveKind.ANHYSTERETIC)
    args = (data, MaterialSpec(Ms=inputs.MS, T=inputs.TEMP), AnhystereticFitConfig(coarse=True))
    plain = modules["anfit"].fit_anhysteretic(*args)
    tr = tracer.Tracer()
    root = tr.wrap("cli.main", lambda *a: modules["cli"].fit_anhysteretic(*a))
    tr.cmd = 0
    with tr.installed(modules):
        traced = root(*args)
    assert traced.aJ == plain.aJ and traced.alpha == plain.alpha
    assert np.array_equal(traced.residual, plain.residual)

    layer, coverage = tracer.layer_metrics(tr.spans)
    (root_s, self_sum), = coverage
    assert self_sum == pytest.approx(root_s, rel=1e-12)
    assert layer["anfit.eta_evals"] == plain.iterations + 1  # coarse re-evaluates the winner
    assert layer["anfit.eta_eval_frac"] == pytest.approx((plain.iterations + 1) / 10000)
    assert layer["core.implicit_solve.newton_iters"] > layer["core.implicit_solve.calls"]
    assert sum(layer[f"{k}.share"] for k in tracer.LAYERS) == pytest.approx(1.0)
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert per_layer - set(layer) == {"trace.overhead_frac"}


def test_self_times_subtract_direct_children():
    spans = [
        ["cli.main", 0, -1, 0.0, 10.0, None, None],
        ["core.implicit_solve", 0, 0, 1.0, 4.0, None, None],
        ["rootfind.find_root", 0, 1, 2.0, 3.0, None, None],
        ["core.slope", 0, 0, 5.0, 6.0, "SingularSlope", None],
    ]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
