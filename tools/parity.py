"""Run a fixed list of deterministic jamag commands and keep all they write.

    python3 tools/parity.py OUT_DIR [--src SRC_DIR]

The inputs are built first, into OUT_DIR/inputs, by ``perfbench/inputs.py``
(numpy only, it does not import jamag) from fixed seeds.  Each command then
runs as ``python -m jamag ... --deterministic`` with the jamag package found
in SRC_DIR (default: this checkout's ``src``) and OUT_DIR as the working
directory, so every path in a report is relative and the same on any tree.
A command's report and curve files, its ``stdout.txt``, ``stderr.txt`` and
``exit.txt`` go to OUT_DIR/<command name>, and the sorted ``jamag.__all__``
of the package to OUT_DIR/surface.txt.  To compare two trees, run the tool
once per tree and diff the results:

    python3 tools/parity.py /tmp/new
    python3 tools/parity.py /tmp/old --src /path/to/old-checkout/src
    diff -r /tmp/old /tmp/new

OUT_DIR must not exist yet.  A run takes about 20 s on a 2-core machine.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402

MS = repr(inputs.MS)
TEMP = repr(inputs.TEMP)


def build_inputs(out: Path) -> dict[str, list[str]]:
    """Write the input files; returns the flags that name them, per input."""
    anh_dir, loop_dir = out / "inputs" / "anh", out / "inputs" / "loop"
    anh_dir.mkdir(parents=True)
    loop_dir.mkdir(parents=True)
    flags = {}
    # three noisy 200-point curves around the validate grid rows
    for i, case in enumerate(inputs.anhyst_cases(1, 3, None, anh_dir)):
        flags[f"anh{i}"] = [str(case.files["data"].relative_to(out))]
    # a noiseless curve through H = 0
    H = np.linspace(-1.0e4, 1.0e4, 201)
    path = anh_dir / "through_zero.csv"
    inputs.write_curve(path, H, inputs.anhysteretic(H, 972.0, 1.4e-3, inputs.MS))
    flags["zero"] = [str(path.relative_to(out))]
    # the same curve whitespace-delimited under a "H M" header: the per-line parser
    path = anh_dir / "through_zero_whitespace.txt"
    text = path.with_name("through_zero.csv").read_text(encoding="utf-8")
    path.write_text(text.replace(",", "  "), encoding="utf-8")
    flags["zero-ws"] = [str(path.relative_to(out))]
    # the curve with a blank line after the header and before every 50th row, and a
    # bad M cell in row 120: the per-line parser's line-numbered error, exit 2
    lines = text.splitlines()
    lines[121] = lines[121].split(",")[0] + ",n/a"
    for i in range(len(lines) - 1, 0, -50):
        lines.insert(i, "")
    path = anh_dir / "through_zero_malformed.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    flags["zero-malformed"] = [str(path.relative_to(out))]
    # the curve with a NaN M cell in row 120, read in bulk; and with row 120 repeated, a
    # field sampled twice; and a header with no data rows: each exits 2
    lines = text.splitlines()
    nan_lines = [*lines[:121], lines[121].split(",")[0] + ",nan", *lines[122:]]
    for name, body in (
        ("nan_cell", "\n".join(nan_lines) + "\n"),
        ("repeated_field", "\n".join([*lines[:122], *lines[121:]]) + "\n"),
        ("empty", "H,M\n"),
    ):
        path = anh_dir / f"{name}.csv"
        path.write_text(body, encoding="utf-8")
        flags[name] = [str(path.relative_to(out))]
    # only \n, \r\n and \r end a line: a form feed ends no line, so the bad cell is on
    # line 3; a U+2028 joins two samples into one bad row on line 2 (each exits 2).  The
    # noiseless curve under a byte-order mark and a non-ASCII header, after blank lines, and
    # with a whitespace-only line among its rows (read in bulk without it): each fits as "zero"
    rows = text.splitlines()[1:]
    for name, body in (
        ("form_feed", "H,M\n1,2\f\n3,x\n"),
        ("line_separator", "H,M\n1,2\u20283,4\n"),
        ("bom_mu_header", "\ufeff\u00b50H (A/m),M (A/m)\n" + "\n".join(rows) + "\n"),
        ("blank_before_header", "\n \n\n" + text),
        ("whitespace_line", "\n".join(["H,M", *rows[:100], "   ", *rows[100:]]) + "\n"),
    ):
        path = anh_dir / f"{name}.csv"
        path.write_text(body, encoding="utf-8")
        flags[name] = [str(path.relative_to(out))]
    # the first two bytes of a byte-order mark and nothing else: not UTF-8 text (exit 2)
    path = anh_dir / "truncated_bom.csv"
    path.write_bytes(b"\xef\xbb")
    flags["truncated_bom"] = [str(path.relative_to(out))]
    # anh0 with a third cell on every other data row: ragged, still read in bulk, and
    # its fit's result is anh0's
    lines = Path(out, flags["anh0"][0]).read_text(encoding="utf-8").splitlines()
    lines[1::2] = [f"{line},0.0" for line in lines[1::2]]
    path = anh_dir / "anh0_ragged.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    flags["anh0-ragged"] = [str(path.relative_to(out))]
    # a noiseless curve at alpha*Ms/(3*aJ) = 0.99945 on validate's grid: near-critical
    # candidates, where the implicit solve's start is furthest from the linear one
    H200 = np.linspace(50.0, 1.0e4, 200)
    path = anh_dir / "near_critical.csv"
    inputs.write_curve(path, H200, inputs.anhysteretic(H200, 972.0, 1.8215e-3, inputs.MS))
    flags["near-critical"] = [str(path.relative_to(out))]
    # the noiseless curve shifted down by Ms: M < 0 everywhere, so no initial slope (exit 2)
    path = anh_dir / "negative.csv"
    inputs.write_curve(path, H, inputs.anhysteretic(H, 972.0, 1.4e-3, inputs.MS) - inputs.MS)
    flags["negative"] = [str(path.relative_to(out))]
    # the noiseless curve's half below H = 0: no sample with H > 0 (exit 2 naming the file)
    path = anh_dir / "no_positive_field.csv"
    inputs.write_curve(path, H[:100], inputs.anhysteretic(H[:100], 972.0, 1.4e-3, inputs.MS))
    flags["no_positive_field"] = [str(path.relative_to(out))]
    # M from 1e20 to 1e304 A/m: the sum of (mu0*M)^2 overflows float64, and the initial
    # slope of 1e19 leaves no stable candidate (exit 2).  M from 1 to 1e300 A/m: every
    # candidate's sum of squared residuals overflows, and the scaled norm still fits it
    for name, M in (("overflow", np.logspace(20.0, 304.0, 200)), ("big_m", np.logspace(0.0, 300.0, 200))):
        path = anh_dir / f"{name}.csv"
        inputs.write_curve(path, np.linspace(10.0, 1.0e4, 200), M)
        flags[name] = [str(path.relative_to(out))]
    # M = 1e-150*H, 100 rows with H up to 1e4 A/m: every candidate's sum of squared
    # residuals leaves the normal range, and the scaled norm still fits it.  M = 1e-296*H:
    # mu0 times the moment is subnormal, too few bits for aJ (exit 2)
    H100 = 100.0 * np.arange(1, 101)
    for name, scale in (("underflow", 1.0e-150), ("subnormal_moment", 1.0e-296)):
        path = anh_dir / f"{name}.csv"
        inputs.write_curve(path, H100, scale * H100)
        flags[name] = [str(path.relative_to(out))]
    # M = 1e100 A/m everywhere, and M from 1e20 to 1e60: every eta candidate's stability
    # margin, Ms/(3*chi_a), is lost to rounding, so the solve rejects them (exit 2)
    for name, M in (
        ("far_above_ms", np.full(200, 1.0e100)),
        ("far_above_ms_geometric", np.geomspace(1e20, 1e60, 200)),
    ):
        path = anh_dir / f"{name}.csv"
        inputs.write_curve(path, H200, M)
        flags[name] = [str(path.relative_to(out))]
    # polarization J in T with one finite cell of 1e303 T, 8e308 A/m: past the float range
    # in A/m, so with --unit j the parser names its line (exit 2)
    path = anh_dir / "j_overflow.csv"
    path.write_text("H,J\n1.0,1e303\n2.0,2.0\n3.0,3.0\n", encoding="utf-8")
    flags["j-overflow"] = [str(path.relative_to(out))]
    # curves no anhysteretic model fits, a constant M and a falling one: each fit exits 0
    # and flags the miss, the constant one's best eta being the grid's first
    for name, M in (("constant", np.full(200, 1.0e5)), ("decreasing", np.linspace(1.0e6, 5.0e5, 200))):
        path = anh_dir / f"{name}.csv"
        inputs.write_curve(path, H200, M)
        flags[name] = [str(path.relative_to(out))]
    # a dense two-cycle loop, its first-magnetization branch and anhysteretic curve
    (case,) = inputs.jiles_cases(1, 1, loop_dir)
    for name, path in case.files.items():
        flags[name] = [f"--{name.replace('_', '-')}", str(path.relative_to(out))]
    # the loop with semicolons, CRLF endings and a blank line every 1000 rows
    lines = case.files["loop"].read_text(encoding="utf-8").replace(",", ";").splitlines()
    for i in range(len(lines) - len(lines) % 1000, 0, -1000):
        lines.insert(i, "")
    path = loop_dir / "loop_semicolon_crlf.csv"
    path.write_bytes("\r\n".join(lines).encode("utf-8") + b"\r\n")
    flags["loop-semicolon"] = ["--loop", str(path.relative_to(out))]
    # the loop with one sample of its last descending branch (its fourth segment) repeated,
    # at H = -hmax/2: a flat step inside a branch, as in quantized data
    lines = case.files["loop"].read_text(encoding="utf-8").splitlines()
    row = 1 + 3 * inputs.JILES_STEPS + 3 * inputs.JILES_STEPS // 4  # line 0 is the header
    lines.insert(row, lines[row])
    path = loop_dir / "loop_repeated_field.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    flags["loop-repeated"] = ["--loop", str(path.relative_to(out))]
    # the loop's initial rise alone, with no descending branch; the first-magnetization
    # curve cut to 5 rows, and with a bad cell on line 5: each exits 2
    loop_lines = case.files["loop"].read_text(encoding="utf-8").splitlines()
    first_lines = case.files["first_mag"].read_text(encoding="utf-8").splitlines()
    bad_cell = [*first_lines[:4], first_lines[4].split(",")[0] + ",n/a", *first_lines[5:]]
    for name, flag, body in (
        ("loop-rising-only", "--loop", loop_lines[: inputs.JILES_STEPS + 2]),
        ("first-mag-5-rows", "--first-mag", first_lines[:6]),
        ("first-mag-bad-cell", "--first-mag", bad_cell),
    ):
        path = loop_dir / f"{name.replace('-', '_')}.csv"
        path.write_text("\n".join(body) + "\n", encoding="utf-8")
        flags[name] = [flag, str(path.relative_to(out))]
    # an anhysteretic curve at M = Ms on every sample: none has 0 < M < Ms, so the
    # anhysteretic route has nothing to fit (exit 2)
    H = np.linspace(100.0, 1.0e4, 50)
    path = loop_dir / "anh_saturated.csv"
    inputs.write_curve(path, H, np.full(H.size, inputs.MS))
    flags["anh-saturated"] = ["--anhysteretic", str(path.relative_to(out))]
    # saved reports a later stage cannot read: a JSON list as --params, a fit report whose
    # aJ is the JSON boolean true, and a features report with a null feature; all exit 2
    # naming the file and the key.  Features with a NaN remanence or a zero anhysteretic
    # slope are bad measurements: exit 2 too.  Features with chi_in = chi_an, or a tip
    # above Ms, still fit the loop: only chi_an is read, and the one simulation runs to the
    # loop's own tip, not to their Hm
    rep_dir = out / "inputs" / "reports"
    rep_dir.mkdir()
    features = {"chi_in": 50.0, "chi_an": 500.0, "chi_max": 1500.0, "chi_r": 1900.0,
                "chi_m": 50.0, "Hc": 120.0, "Mr": 5.0e5, "Hm": 5000.0, "Mm": 1.3e6}
    for name, flag, obj in (
        ("params_list.json", "--params", [972.0, 1.4e-3]),
        ("params_bool.json", "--params", {"result": {"aJ": True, "alpha": 1.4e-3},
                                          "config": {"ms": inputs.MS}}),
        ("features_null.json", "--features", {"features": {"chi_in": 50.0, "chi_an": None}}),
        ("features_nan_mr.json", "--features", {"features": {**features, "Mr": float("nan")}}),
        ("features_zero_chi_an.json", "--features", {"features": {**features, "chi_an": 0.0}}),
        ("features_c_one.json", "--features", {"features": {**features, "chi_in": 500.0}}),
        ("features_tip_above_ms.json", "--features", {"features": {**features, "Mm": 1.7e6}}),
    ):
        (rep_dir / name).write_text(json.dumps(obj) + "\n", encoding="utf-8")
        flags[name] = [flag, str((rep_dir / name).relative_to(out))]
    return flags


def commands(f: dict[str, list[str]]) -> list[tuple[str, list[str]]]:
    """(name, argv without --deterministic) of every command, in run order."""
    material = ["--ms", MS, "--temp", TEMP]
    cmds = []
    for curve in ("anh0", "anh1", "anh2", "zero"):
        for policy, extra in (("argmin", ["--eps", "1e-4"]), ("coarse", ["--coarse"])):
            name = f"fit-anhysteretic-{policy}-{curve}"
            cmds.append((name, [
                "fit-anhysteretic", *f[curve], *material, *extra,
                "--out", f"{name}/report.json", "--curve-out", f"{name}/curve.csv",
            ]))
    for name, curve in (
        ("fit-anhysteretic-coarse-zero-whitespace", "zero-ws"),
        ("fit-anhysteretic-coarse-zero-malformed", "zero-malformed"),
        ("fit-anhysteretic-coarse-anh0-ragged", "anh0-ragged"),
        ("fit-anhysteretic-coarse-negative", "negative"),
        ("fit-anhysteretic-no-positive-field", "no_positive_field"),
        ("fit-anhysteretic-coarse-overflow", "overflow"),
        ("fit-anhysteretic-coarse-big-m", "big_m"),
        ("fit-anhysteretic-coarse-underflow", "underflow"),
        ("fit-anhysteretic-coarse-subnormal-moment", "subnormal_moment"),
        ("fit-anhysteretic-coarse-far-above-ms", "far_above_ms"),
        ("fit-anhysteretic-coarse-far-above-ms-geometric", "far_above_ms_geometric"),
        ("fit-anhysteretic-coarse-constant", "constant"),
        ("fit-anhysteretic-coarse-decreasing", "decreasing"),
        ("fit-anhysteretic-coarse-nan-cell", "nan_cell"),
        ("fit-anhysteretic-coarse-repeated-field", "repeated_field"),
        ("fit-anhysteretic-coarse-empty", "empty"),
        ("fit-anhysteretic-coarse-form-feed", "form_feed"),
        ("fit-anhysteretic-coarse-line-separator", "line_separator"),
        ("fit-anhysteretic-coarse-bom-mu-header", "bom_mu_header"),
        ("fit-anhysteretic-coarse-blank-before-header", "blank_before_header"),
        ("fit-anhysteretic-coarse-whitespace-line", "whitespace_line"),
        ("fit-anhysteretic-coarse-truncated-bom", "truncated_bom"),
    ):
        cmds.append((name, [
            "fit-anhysteretic", *f[curve], *material, "--coarse",
            "--out", f"{name}/report.json", "--curve-out", f"{name}/curve.csv",
        ]))
    name = "fit-anhysteretic-coarse-unit-j-overflow"
    cmds.append((name, [
        "fit-anhysteretic", *f["j-overflow"], *material, "--unit", "j", "--coarse",
        "--out", f"{name}/report.json", "--curve-out", f"{name}/curve.csv",
    ]))
    name = "fit-anhysteretic-argmin-far-above-ms"
    cmds.append((name, [
        "fit-anhysteretic", *f["far_above_ms"], *material, "--eps", "1e-4",
        "--out", f"{name}/report.json", "--curve-out", f"{name}/curve.csv",
    ]))
    name = "fit-anhysteretic-argmin-near-critical"
    cmds.append((name, [
        "fit-anhysteretic", *f["near-critical"], *material, "--eps", "1e-4",
        "--out", f"{name}/report.json", "--curve-out", f"{name}/curve.csv",
    ]))
    # a low reference field: the winner's Langevin argument is about 2.4, where the chi
    # solve starts from its 3y bound; grids whose winner is their first or last index,
    # so every refinement level's window is clipped at that end; and non-finite settings,
    # which exit 2 naming them.  A grid whose last index is 1 000 starts the coarse scan at
    # stride 1 000, on its two ends alone; the plain scan of that grid must pick the same eta
    for name, extra in (
        ("fit-anhysteretic-coarse-low-ha1", ["--ha1", "3000", "--eta0", "0.5", "--coarse"]),
        ("fit-anhysteretic-coarse-first-index", ["--ha1", "3000", "--eta0", "0.98", "--coarse"]),
        ("fit-anhysteretic-coarse-last-index", ["--eta0", "0.5", "--eta-max", "0.6", "--coarse"]),
        ("fit-anhysteretic-coarse-top-stride-1000", ["--eta0", "0.8999", "--eps", "1e-4", "--coarse"]),
        ("fit-anhysteretic-argmin-top-stride-1000", ["--eta0", "0.8999", "--eps", "1e-4"]),
        ("fit-anhysteretic-ha1-inf", ["--ha1", "inf", "--coarse"]),
        ("fit-anhysteretic-eps-inf", ["--eps", "inf"]),
    ):
        cmds.append((name, [
            "fit-anhysteretic", *f["anh2"], *material, *extra,
            "--out", f"{name}/report.json", "--curve-out", f"{name}/curve.csv",
        ]))
    loop = ["--c", "0.1", "--k", "1000", "--hmax", "5000", "--cycles", "2"]
    steel = ["--aj", "972", "--alpha", "1.4e-3", "--ms", MS]
    # 2 000 steps fit in one integrator block; 9 000 cross several block boundaries
    for name, params, steps in (
        ("simulate-loop-flags", steel, ["--steps", "2000"]),
        ("simulate-loop-uncoupled", ["--aj", "972", "--alpha", "0", "--ms", MS], ["--steps", "2000"]),
        ("simulate-loop-params", ["--params", "fit-anhysteretic-argmin-anh0/report.json"],
         ["--steps", "2000"]),
        ("simulate-loop-clamp", [*steel, "--clamp"], ["--steps", "2000"]),
        ("simulate-loop-m0", [*steel, "--m0", "4e5"], ["--steps", "2000"]),
        ("simulate-loop-steps-9000", steel, ["--steps", "9000"]),
        ("simulate-loop-params-list", f["params_list.json"], ["--steps", "2000"]),
        ("simulate-loop-params-bool", f["params_bool.json"], ["--steps", "2000"]),
        # alpha*Ms/(3*aJ) = 0.99996: the pre-solve where the solver's last bits move most
        ("simulate-loop-near-critical", ["--aj", "20000", "--alpha", "0.0374985", "--ms", MS],
         ["--steps", "2000"]),
    ):
        cmds.append((name, [
            "simulate-loop", *params, *loop, *steps,
            "--out", f"{name}/loop.csv", "--report", f"{name}/report.json",
        ]))
    # no --report: the report is printed on stdout
    name = "simulate-loop-stdout"
    cmds.append((name, ["simulate-loop", *steel, *loop, "--steps", "2000", "--out", f"{name}/loop.csv"]))
    # |x| > 300 on the pre-solve grid: the tail lanes of langevin_prime
    name = "simulate-loop-high-field"
    cmds.append((name, [
        "simulate-loop", *steel, "--c", "0.1", "--k", "1000", "--hmax", "4e5",
        "--cycles", "1", "--steps", "2000",
        "--out", f"{name}/loop.csv", "--report", f"{name}/report.json",
    ]))
    # six cycles settle onto the limit cycle: later segments start from an earlier
    # segment's state and are copied, not integrated
    for name, extra in (("simulate-loop-cycles-6", []), ("simulate-loop-cycles-6-clamp", ["--clamp"])):
        cmds.append((name, [
            "simulate-loop", *steel, *extra, "--c", "0.1", "--k", "1000", "--hmax", "5000",
            "--cycles", "6", "--steps", "2000",
            "--out", f"{name}/loop.csv", "--report", f"{name}/report.json",
        ]))
    # a loop is point-symmetric: each branch joins the one before it, negated, and its
    # rows are copied and written negated.  From M0 = -0.0; clamped over six cycles of
    # 3 000 steps, fresh rows enough to split the writer; and at 5 000 steps, where the
    # second descent joins the first rise at step 2 048, an integrator and writer block edge
    for name, extra in (
        ("simulate-loop-m0-minus-zero", ["--cycles", "2", "--steps", "2000", "--m0", "-0.0"]),
        ("simulate-loop-cycles-6-clamp-steps-3000", ["--clamp", "--cycles", "6", "--steps", "3000"]),
        ("simulate-loop-steps-5000-join-at-block-edge", ["--cycles", "2", "--steps", "5000"]),
    ):
        cmds.append((name, [
            "simulate-loop", *steel, *extra, "--c", "0.1", "--k", "1000", "--hmax", "5000",
            "--out", f"{name}/loop.csv", "--report", f"{name}/report.json",
        ]))
    # 12 000 steps over three cycles: the second descent joins the first rise's
    # trajectory, negated, partway, past several integrator and writer blocks
    name = "simulate-loop-steps-12000"
    cmds.append((name, [
        "simulate-loop", *steel, "--c", "0.1", "--k", "1000", "--hmax", "5000",
        "--cycles", "3", "--steps", "12000",
        "--out", f"{name}/loop.csv", "--report", f"{name}/report.json",
    ]))
    # 20 000 steps over three cycles, clamped: fresh rows enough for the writer to split
    # them across cores, and the clamp's trajectory in every share
    name = "simulate-loop-steps-20000-clamp"
    cmds.append((name, [
        "simulate-loop", *steel, "--clamp", "--c", "0.1", "--k", "1000", "--hmax", "5000",
        "--cycles", "3", "--steps", "20000",
        "--out", f"{name}/loop.csv", "--report", f"{name}/report.json",
    ]))
    # a non-finite c, M0, aJ or k, or c = -1, is rejected before the loop is integrated:
    # exit 2 naming it
    for name, params, c, k, m0 in (
        ("simulate-loop-c-nan", steel, "nan", "1000", "0"),
        ("simulate-loop-c-minus-one", steel, "-1", "1000", "0"),
        ("simulate-loop-m0-nan", steel, "0.1", "1000", "nan"),
        ("simulate-loop-aj-inf", ["--aj", "inf", "--alpha", "1.4e-3", "--ms", MS], "0.1", "1000", "0"),
        ("simulate-loop-k-inf", steel, "0.1", "inf", "0"),
    ):
        cmds.append((name, [
            "simulate-loop", *params, "--c", c, "--k", k, "--hmax", "5000", "--m0", m0,
            "--out", f"{name}/loop.csv", "--report", f"{name}/report.json",
        ]))
    # an infinite --hmax, and one whose descending segment spans more than the float
    # range: exit 2 naming hmax, or the segment and its span.  At 8.9e307 the spans are
    # finite but the uncoupled loop's RK4 steps overflow to a NaN M: exit 2 naming the
    # segment and the step.  At 1e200 the loop saturates, with no floating-point warning;
    # its RK4 steps throw M to the clamp opposite the anhysteretic curve, and it warns of that
    for name, params, hmax in (
        ("simulate-loop-hmax-1e308", steel, "1e308"),
        ("simulate-loop-hmax-inf", steel, "inf"),
        ("simulate-loop-hmax-8.9e307", ["--aj", "972", "--alpha", "0", "--ms", MS], "8.9e307"),
        ("simulate-loop-hmax-1e200", steel, "1e200"),
    ):
        cmds.append((name, [
            "simulate-loop", *params, "--c", "0.1", "--k", "1000", "--hmax", hmax,
            "--out", f"{name}/loop.csv", "--report", f"{name}/report.json",
        ]))
    # 150 steps per segment are too coarse for this set's pinning term: M lands on the
    # +-Ms clamp, and the report warns with the count; 1 500 steps do not
    name = "simulate-loop-coarse-steps"
    cmds.append((name, [
        "simulate-loop", "--aj", "1200", "--alpha", "1.8e-3", "--c", "0.05", "--k", "400", "--ms", MS,
        "--hmax", "5000", "--cycles", "3", "--steps", "150",
        "--out", f"{name}/loop.csv", "--report", f"{name}/report.json",
    ]))
    curves = [*f["loop"], *f["first_mag"], *f["anhysteretic"]]
    cmds.append(("extract", ["extract", *curves, "--ms", MS, "--out", "extract/features.json"]))
    name = "extract-semicolon-crlf"
    cmds.append((name, [
        "extract", *f["loop-semicolon"], *f["first_mag"], *f["anhysteretic"], "--ms", MS,
        "--out", f"{name}/features.json",
    ]))
    # the initial-slope window is fixed: --slope-points is an unknown argument (exit 2)
    name = "extract-slope-points-flag-gone"
    cmds.append((name, [
        "extract", *curves, "--ms", MS, "--slope-points", "1", "--out", f"{name}/features.json",
    ]))
    # an anhysteretic curve sampled through H = 0: chi_an is the slope from H = 0 up
    through_zero = [*f["loop"], *f["first_mag"], "--anhysteretic", *f["zero"]]
    name = "extract-anh-through-zero"
    cmds.append((name, ["extract", *through_zero, "--ms", MS, "--out", f"{name}/features.json"]))
    # the repeated field continues the last descending branch, which still crosses M = 0
    repeated = [*f["loop-repeated"], *f["first_mag"], *f["anhysteretic"]]
    name = "extract-loop-repeated-field"
    cmds.append((name, ["extract", *repeated, "--ms", MS, "--out", f"{name}/features.json"]))
    # curves extract cannot use: exit 2 naming the cause
    for name, source in (
        ("extract-loop-rising-only", [*f["loop-rising-only"], *f["first_mag"], *f["anhysteretic"]]),
        ("extract-first-mag-5-rows", [*f["loop"], *f["first-mag-5-rows"], *f["anhysteretic"]]),
        ("extract-first-mag-bad-cell", [*f["loop"], *f["first-mag-bad-cell"], *f["anhysteretic"]]),
        ("extract-anh-repeated-field", [*f["loop"], *f["first_mag"], "--anhysteretic",
                                        *f["repeated_field"]]),
    ):
        cmds.append((name, ["extract", *source, "--ms", MS, "--out", f"{name}/features.json"]))
    # a saturation magnetization that is not positive and finite: exit 2 naming --ms
    for name, ms in (("extract-ms-0", "0"), ("extract-ms-nan", "nan")):
        cmds.append((name, ["extract", *curves, "--ms", ms, "--out", f"{name}/features.json"]))
    for name, source, extra in (
        ("fit-jiles92-curves", curves, []),
        ("fit-jiles92-loop-repeated-field", repeated, []),
        # the loop with semicolons and CRLF endings: the fit of the comma loop
        ("fit-jiles92-semicolon-crlf", [*f["loop-semicolon"], *f["first_mag"], *f["anhysteretic"]], []),
        ("fit-jiles92-anh-through-zero", through_zero, []),
        ("fit-jiles92-features", [*f["loop"], "--features", "extract/features.json"], []),
        # a fit takes exactly one route: both --features and --anhysteretic, or neither, is a
        # usage error (exit 2) before any file is read
        ("fit-jiles92-features-anhysteretic",
         [*f["loop"], "--features", "extract/features.json", *f["anhysteretic"]], []),
        ("fit-jiles92-no-route", [*f["loop"], *f["first_mag"]], []),
        # the anhysteretic route reads no first-magnetization curve
        ("fit-jiles92-loop-anhysteretic", [*f["loop"], *f["anhysteretic"]], []),
        # the simulation's steps are fixed: --sim-steps is an unknown argument (exit 2)
        ("fit-jiles92-sim-steps-flag-gone", curves, ["--sim-steps", "5"]),
        ("fit-jiles92-features-null", [*f["loop"], *f["features_null.json"]], []),
        ("fit-jiles92-features-nan-mr", [*f["loop"], *f["features_nan_mr.json"]], []),
        ("fit-jiles92-features-zero-chi-an", [*f["loop"], *f["features_zero_chi_an.json"]], []),
        ("fit-jiles92-features-c-one", [*f["loop"], *f["features_c_one.json"]], []),
        ("fit-jiles92-anhysteretic-no-usable-sample", [*f["loop"], *f["anh-saturated"]], []),
        # the alpha seeds are fixed: --seeds is an unknown argument (exit 2)
        ("fit-jiles92-seeds-flag-gone", curves, ["--seeds", "1e-4,x"]),
        ("fit-jiles92-fit-tol-inf", curves, ["--fit-tol", "inf"]),
    ):
        cmds.append((name, [
            "fit-jiles92", *source, *material, *extra, "--out", f"{name}/report.json",
        ]))
    # the global --verbose before the subcommand: the route, (aJ, alpha), the Gauss-Newton steps
    # and the regression rms, one INFO line, in stderr.txt
    name = "fit-jiles92-verbose"
    cmds.append((name, ["--verbose", "fit-jiles92", *curves, *material, "--out", f"{name}/report.json"]))
    # the same line for the route from the loop alone
    name = "fit-jiles92-features-tip-above-ms-verbose"
    cmds.append((name, [
        "--verbose", "fit-jiles92", *f["loop"], *f["features_tip_above_ms.json"], *material,
        "--out", f"{name}/report.json",
    ]))
    # the default step passes; at 1e-4 a row fails (exit 3)
    for name, extra in (("validate-coarse", []), ("validate-eps-1e-4", ["--eps", "1e-4"])):
        cmds.append((name, ["validate", *extra, "--out", f"{name}/report.json"]))
    # no --out: no report is written, the PASS/FAIL lines are still printed
    cmds.append(("validate-no-out", ["validate", "--eps", "1e-3"]))
    return cmds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="output directory (must not exist)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the jamag package to run")
    args = parser.parse_args(argv)

    out = args.out.resolve()
    out.mkdir(parents=True, exist_ok=False)
    env = {**os.environ, "PYTHONPATH": str(args.src.resolve())}
    surface = subprocess.run(
        [sys.executable, "-c", "import jamag; print(*sorted(jamag.__all__), sep='\\n')"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    (out / "surface.txt").write_text(surface, encoding="utf-8")
    for name, cmd in commands(build_inputs(out)):
        (out / name).mkdir()
        r = subprocess.run(
            [sys.executable, "-m", "jamag", *cmd, "--deterministic"],
            cwd=out, env=env, capture_output=True, text=True, timeout=600,
        )
        (out / name / "stdout.txt").write_text(r.stdout, encoding="utf-8")
        (out / name / "stderr.txt").write_text(r.stderr, encoding="utf-8")
        (out / name / "exit.txt").write_text(f"{r.returncode}\n", encoding="utf-8")
        print(f"{r.returncode}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
