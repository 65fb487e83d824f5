"""The four benchmark workloads: their inputs, command lines and output checks.

Every command runs with ``--deterministic`` and writes its report and curve
to the same two paths, so the report of a repeated command, or of a traced
one, can be compared byte for byte with the first.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
from inputs import MS, MU0, Case

FIT_RMS_BOUND = 0.01 * MU0 * MS
"""The ``validate`` pass bound: residual RMS at most 1% of mu0*Ms, in T."""

LOOP_TOL = 1.0e-6
"""Largest |M_jamag - M_reference| / Ms accepted on a simulated loop."""


class CheckFailed(Exception):
    """An output of jamag is missing, malformed or wrong."""


@dataclass(frozen=True)
class Outcome:
    """Accuracy of one checked command; ``None`` where it does not apply."""

    param_rel_err: float | None = None
    fit_rms_t: float | None = None
    fit_ok: bool | None = None
    loop_dev: float | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    extra: tuple[str, ...]
    pool: int
    """Distinct inputs generated; commands cycle through them in order."""
    make: Callable[[int, int, Path], list[Case]]
    check: Callable[[Case, dict, Path], Outcome]
    report_flag: str
    curve_flag: str | None
    """``None`` when the command writes no curve file."""

    def argv(self, case: Case, report: Path, curve: Path) -> list[str]:
        out = [self.subcommand, *case.flags, *self.extra, "--deterministic",
               self.report_flag, str(report)]
        return out + [self.curve_flag, str(curve)] if self.curve_flag else out


def _finite(obj) -> bool:
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return True
    if isinstance(obj, (int, float)):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite(v) for v in obj)
    return False


def parse_report(text: bytes) -> dict:
    try:
        report = json.loads(text)
    except json.JSONDecodeError as err:
        raise CheckFailed(f"report is not JSON: {err}") from None
    if report.get("status") != "ok":
        raise CheckFailed(f"report status is {report.get('status')!r}")
    if not isinstance(report.get("result"), dict) or not _finite(report["result"]):
        raise CheckFailed("report result is missing or not finite")
    return report


def _load_table(path: Path, cols: int) -> np.ndarray:
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape[1] != cols:
        raise CheckFailed(f"{path.name} has {table.shape[1]} columns, expected {cols}")
    return table


def _rel(fit: float, truth: float) -> float:
    return abs(fit / truth - 1.0)


def check_anhysteretic(case: Case, report: dict, curve: Path) -> Outcome:
    res = report["result"]
    table = _load_table(curve, 4)
    if table.shape[0] != case.size:
        raise CheckFailed(f"fit curve has {table.shape[0]} rows, input has {case.size}")
    rms = float(np.sqrt(np.mean(table[:, 3] ** 2)))
    if not math.isclose(rms, res["residual_rms"], rel_tol=1e-9):
        raise CheckFailed(f"curve residual RMS {rms!r} != reported {res['residual_rms']!r}")
    err = max(_rel(res["aJ"], case.truth["aJ"]), _rel(res["alpha"], case.truth["alpha"]))
    return Outcome(
        param_rel_err=err, fit_rms_t=res["residual_rms"],
        fit_ok=res["residual_rms"] <= FIT_RMS_BOUND,
    )


def check_loop(case: Case, report: dict, curve: Path) -> Outcome:
    H_ref, M_ref = case.ref
    table = _load_table(curve, 3)
    if table.shape[0] != H_ref.size or report["result"]["points"] != H_ref.size:
        raise CheckFailed(f"loop has {table.shape[0]} rows, reference has {H_ref.size}")
    H, M, B = table.T
    if np.max(np.abs(H - H_ref)) > 1e-12 * case.truth["hmax"]:
        raise CheckFailed("loop field samples differ from the waveform")
    dev = float(np.max(np.abs(M - M_ref)) / MS)
    if not dev <= LOOP_TOL:
        raise CheckFailed(f"loop deviates from the reference by {dev:.3g}*Ms > {LOOP_TOL}*Ms")
    if np.max(np.abs(B - MU0 * (H + M))) > 1e-12 * MU0 * MS:
        raise CheckFailed("B column is not mu0*(H + M)")
    return Outcome(loop_dev=dev)


def check_jiles92(case: Case, report: dict, curve: Path) -> Outcome:
    res = report["result"]
    met = res["fit_condition_met"]
    if met != (res["mse"] <= report["config"]["fit_tol"]):
        raise CheckFailed(f"fit_condition_met={met} but mse={res['mse']!r}")
    flagged = any(w["code"] == "FIT_CONDITION_NOT_MET" for w in report["warnings"])
    if flagged == met:
        raise CheckFailed(f"FIT_CONDITION_NOT_MET warning is {flagged} with fit_condition_met={met}")
    err = max(_rel(res[p], case.truth[p]) for p in ("aJ", "alpha", "c", "k"))
    return Outcome(param_rel_err=err, fit_rms_t=math.sqrt(res["mse"]), fit_ok=met)


def _anhyst_full(seed: int, n: int, out: Path) -> list[Case]:
    return inputs.anhyst_cases(seed, n, None, out)


def _anhyst_coarse(seed: int, n: int, out: Path) -> list[Case]:
    lengths = inputs.spread_sizes(np.random.default_rng([seed, 4]), n, 100, 2000)
    return inputs.anhyst_cases(seed, n, lengths, out)


WORKLOADS = {
    w.name: w
    for w in (
        # 1 000 eta points instead of the default 10 000: the same per-point
        # work, and ~40 commands per run instead of 3, so its median is steady.
        Workload(
            "anhyst-full", "fit-anhysteretic", ("--eps", "1e-4"), 6, _anhyst_full,
            check_anhysteretic, "--out", "--curve-out",
        ),
        Workload(
            "anhyst-coarse", "fit-anhysteretic", ("--coarse",), 32, _anhyst_coarse,
            check_anhysteretic, "--out", "--curve-out",
        ),
        Workload(
            "loop-sim", "simulate-loop", (), 6, inputs.loop_cases,
            check_loop, "--report", "--out",
        ),
        Workload(
            "jiles92-fit", "fit-jiles92", (), 16, inputs.jiles_cases,
            check_jiles92, "--out", None,
        ),
    )
}
