"""Command line interface.

Five subcommands: ``fit-anhysteretic``, ``fit-jiles92``, ``simulate-loop``,
``extract`` and ``validate``.  Each writes a JSON run report with stable
key order; ``--deterministic`` drops timestamps and timings so two runs on
the same inputs are byte-identical.

Exit codes: 0 success, 2 bad input or usage, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
import time
import warnings
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .anfit import AnhystereticFitConfig, fit_anhysteretic
from .core import MU0, MaterialSpec
from .dataio import CurveKind, LoopFeatures, MagnetizationCurve, Unit, extract_features, parse_curve
from .errors import DataError, JamagError
from .jiles92 import Jiles92Config, c_from_susceptibilities, estimate
from .simulate import FieldWaveform, HysteresisParams, integrate
from .validation import GRID_MATERIAL, run_grid

_CONVENTION_NOTE = (
    "anhysteretic values at the loop's special points use the loop state's "
    "effective field: Hc/aJ at the coercive point (M=0), alpha*Mr/aJ at "
    "remanence (H=0) and (Hm+alpha*Mm)/aJ at the tip"
)

_logger = logging.getLogger(__name__)


def _sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, Path):
        return str(obj)
    return obj


def _write_report(report: dict, out: str | None, deterministic: bool) -> None:
    if not deterministic:
        report = dict(report)
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _write_curve(path: str | Path, header: list[str], columns: list[np.ndarray]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for row in zip(*columns):
            f.write(",".join(repr(float(v)) for v in row) + "\n")


def _collect_warnings(caught) -> list[dict]:
    out = []
    for w in caught:
        code = (
            "NON_PHYSICAL_PARAMETER"
            if w.category.__name__ == "NonPhysicalParameterWarning"
            else w.category.__name__.upper()
        )
        out.append({"code": code, "message": str(w.message)})
    return out


_WARNING_MESSAGES = {
    "NON_PHYSICAL_ALPHA": "fitted alpha is negative",
    "NOT_UNIMODAL": "residual profile over eta is not unimodal",
    "FIT_CONDITION_NOT_MET": "no seed reached the fit tolerance; best candidate reported",
}


def _unit(args) -> Unit:
    return Unit(args.unit)


# --- subcommands ----------------------------------------------------------


def cmd_fit_anhysteretic(args) -> int:
    cfg = AnhystereticFitConfig(
        ha1=args.ha1, eta0=args.eta0, eps=args.eps, eta_max=args.eta_max,
        sweep=args.sweep, coarse=args.coarse, slope_points=args.slope_points,
    )
    material = MaterialSpec(Ms=args.ms, T=args.temp)
    data = parse_curve(args.data, kind=CurveKind.ANHYSTERETIC, unit=_unit(args))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        data.check_amplitude(material.Ms)
        report = fit_anhysteretic(data, material, cfg)

    warns = _collect_warnings(caught)
    warns.extend({"code": c, "message": _WARNING_MESSAGES[c]} for c in report.warnings)

    m_fit = data.M + report.residual / MU0
    _write_curve(
        args.curve_out,
        ["H", "M_data", "M_fit", "r"],
        [data.H, data.M, m_fit, report.residual],
    )

    run = {
        "command": "fit-anhysteretic",
        "version": __version__,
        "inputs": {"data": {"path": str(args.data), "sha256": _sha256(args.data)}},
        "config": {
            "ms": args.ms, "temp": args.temp, "unit": args.unit,
            "ha1": cfg.ha1, "eta0": cfg.eta0, "eps": cfg.eps, "eta_max": cfg.eta_max,
            "sweep": cfg.sweep, "coarse": cfg.coarse, "slope_points": cfg.slope_points,
        },
        "result": {
            "eta_star": report.eta_star,
            "chi_param": report.chi_param,
            "m": report.m,
            "aJ": report.aJ,
            "alpha": report.alpha,
            "chi_an_a": report.chi_an_a,
            "m1": report.m1,
            "residual_norm": report.residual_norm,
            "residual_rms": report.residual_norm / float(np.sqrt(len(data))),
            "iterations": report.iterations,
            "unimodal": report.unimodal,
            "curve_file": str(args.curve_out),
        },
        "warnings": warns,
        "status": "ok",
    }
    _write_report(run, args.out, args.deterministic)
    return 0


def _load_features(args) -> LoopFeatures:
    if args.features:
        obj = json.loads(Path(args.features).read_text(encoding="utf-8"))
        if "features" in obj:
            obj = obj["features"]
        return LoopFeatures(**{k: float(obj[k]) for k in (
            "chi_in", "chi_an", "chi_max", "chi_r", "chi_m", "Hc", "Mr", "Hm", "Mm")})
    if not (args.first_mag and args.anhysteretic):
        raise DataError(
            "feature extraction needs --first-mag and --anhysteretic (or pass --features)"
        )
    unit = _unit(args)
    first = parse_curve(args.first_mag, kind=CurveKind.FIRST_MAGNETIZATION, unit=unit)
    anh = parse_curve(args.anhysteretic, kind=CurveKind.ANHYSTERETIC, unit=unit)
    loop = parse_curve(args.loop, kind=CurveKind.FULL_LOOP, unit=unit)
    return extract_features(first, loop, anh, slope_points=args.slope_points)


def cmd_fit_jiles92(args) -> int:
    material = MaterialSpec(Ms=args.ms, T=args.temp)
    seeds = [float(s) for s in args.seeds.split(",")] if args.seeds else None
    cfg = Jiles92Config(
        **(
            {"alpha_seed": seeds[0], "restart_seeds": tuple(seeds[1:])}
            if seeds
            else {}
        ),
        max_outer_iter=args.max_iter,
        fit_tol=args.fit_tol,
        sim_steps=args.sim_steps,
        sim_cycles=args.sim_cycles,
    )
    loop = parse_curve(args.loop, kind=CurveKind.FULL_LOOP, unit=_unit(args))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        loop.check_amplitude(material.Ms)
        features = _load_features(args)
        result = estimate(features, material, cfg, loop)

    warns = _collect_warnings(caught)
    if not result.fit_condition_met:
        warns.append({
            "code": "FIT_CONDITION_NOT_MET",
            "message": _WARNING_MESSAGES["FIT_CONDITION_NOT_MET"],
        })

    inputs = {"loop": {"path": str(args.loop), "sha256": _sha256(args.loop)}}
    for name in ("first_mag", "anhysteretic", "features"):
        val = getattr(args, name)
        if val:
            inputs[name] = {"path": str(val), "sha256": _sha256(val)}

    run = {
        "command": "fit-jiles92",
        "version": __version__,
        "inputs": inputs,
        "config": {
            "ms": args.ms, "temp": args.temp, "unit": args.unit,
            "seeds": list(cfg.seeds), "max_outer_iter": cfg.max_outer_iter,
            "fit_tol": cfg.fit_tol, "sim_steps": cfg.sim_steps,
            "sim_cycles": cfg.sim_cycles, "slope_points": args.slope_points,
        },
        "assumptions": [_CONVENTION_NOTE],
        "result": {
            "aJ": result.params.aJ,
            "alpha": result.params.alpha,
            "c": result.params.c,
            "k": result.params.k,
            "mse": result.mse,
            "fit_condition_met": result.fit_condition_met,
            "seed": result.seed,
            "iterations": result.iterations,
        },
        "warnings": warns,
        "status": "ok",
    }
    _write_report(run, args.out, args.deterministic)
    return 0


def cmd_simulate_loop(args) -> int:
    aJ, alpha, ms = args.aj, args.alpha, args.ms
    if args.params:
        obj = json.loads(Path(args.params).read_text(encoding="utf-8"))
        res = obj.get("result", obj)
        if aJ is None:
            aJ = float(res["aJ"])
        if alpha is None:
            alpha = float(res["alpha"])
            if alpha < 0.0:
                # a valid fit report that the fit flagged, so not bad input: exit 3
                raise JamagError(
                    f"{args.params}: fitted alpha = {alpha:.6g} is negative "
                    "(NON_PHYSICAL_ALPHA); the hysteresis model needs alpha >= 0"
                )
        if ms is None and "config" in obj and "ms" in obj["config"]:
            ms = float(obj["config"]["ms"])
    missing = [n for n, v in (("--aj", aJ), ("--alpha", alpha), ("--ms", ms)) if v is None]
    if missing:
        raise DataError(f"missing {', '.join(missing)} (flags or --params report)")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        params = HysteresisParams(aJ=aJ, alpha=alpha, c=args.c, k=args.k, Ms=ms)
        waveform = FieldWaveform.cyclic(
            args.hmax, cycles=args.cycles, steps_per_segment=args.steps
        )
        curve = integrate(params, waveform, M0=args.m0, clamp=args.clamp)

    b = MU0 * (curve.H + curve.M)
    _write_curve(args.out, ["H", "M", "B"], [curve.H, curve.M, b])

    run = {
        "command": "simulate-loop",
        "version": __version__,
        "inputs": {} if not args.params else {
            "params": {"path": str(args.params), "sha256": _sha256(args.params)}
        },
        "config": {
            "aJ": aJ, "alpha": alpha, "c": args.c, "k": args.k, "ms": ms,
            "hmax": args.hmax, "cycles": args.cycles, "steps": args.steps,
            "m0": args.m0, "clamp": args.clamp,
        },
        "result": {
            "points": len(curve),
            "final_m": float(curve.M[-1]),
            "curve_file": str(args.out),
        },
        "warnings": _collect_warnings(caught),
        "status": "ok",
    }
    _write_report(run, args.report, args.deterministic)
    return 0


def cmd_extract(args) -> int:
    unit = _unit(args)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first = parse_curve(args.first_mag, kind=CurveKind.FIRST_MAGNETIZATION, unit=unit)
        anh = parse_curve(args.anhysteretic, kind=CurveKind.ANHYSTERETIC, unit=unit)
        loop = parse_curve(args.loop, kind=CurveKind.FULL_LOOP, unit=unit)
        if args.ms is not None:
            for curve in (first, anh, loop):
                curve.check_amplitude(args.ms)
        features = extract_features(first, loop, anh, slope_points=args.slope_points)
        c = c_from_susceptibilities(features.chi_in, features.chi_an)
        k = features.Hc

    run = {
        "command": "extract",
        "version": __version__,
        "inputs": {
            name: {"path": str(p), "sha256": _sha256(p)}
            for name, p in (
                ("first_mag", args.first_mag),
                ("loop", args.loop),
                ("anhysteretic", args.anhysteretic),
            )
        },
        "config": {"unit": args.unit, "slope_points": args.slope_points, "ms": args.ms},
        "features": {
            "chi_in": features.chi_in, "chi_an": features.chi_an,
            "chi_max": features.chi_max, "chi_r": features.chi_r,
            "chi_m": features.chi_m, "Hc": features.Hc, "Mr": features.Mr,
            "Hm": features.Hm, "Mm": features.Mm,
        },
        "derived": {"c": c, "k": k},
        "warnings": _collect_warnings(caught),
        "status": "ok",
    }
    _write_report(run, args.out, args.deterministic)
    return 0


def cmd_validate(args) -> int:
    cfg = AnhystereticFitConfig(eps=args.eps, sweep=args.sweep, coarse=not args.plain)
    t0 = time.perf_counter()
    rows = run_grid(cfg)
    total = time.perf_counter() - t0

    for r in rows:
        line = (
            f"{'PASS' if r.passed else 'FAIL'} "
            f"aJ={r.aJ_true:g} alpha={r.alpha_true:g} "
            f"rms={r.rms:.6e} bound={r.bound:.6e} "
            f"aJ_fit={r.report.aJ:.6g} alpha_fit={r.report.alpha:.6g} eta={r.report.eta_star:.6g}"
        )
        print(line)
    n_pass = sum(r.passed for r in rows)
    print(f"{n_pass}/{len(rows)} rows passed")
    if not args.deterministic:
        print(f"elapsed: {total:.2f} s", file=sys.stderr)

    run = {
        "command": "validate",
        "version": __version__,
        "inputs": {},
        "config": {
            "eps": cfg.eps, "sweep": cfg.sweep, "coarse": cfg.coarse,
            "ms": GRID_MATERIAL.Ms, "temp": GRID_MATERIAL.T,
        },
        "result": {
            "passed": n_pass == len(rows),
            "rows": [
                {
                    "aJ_true": r.aJ_true, "alpha_true": r.alpha_true,
                    "aJ_fit": r.report.aJ, "alpha_fit": r.report.alpha,
                    "eta_star": r.report.eta_star, "rms": r.rms, "bound": r.bound,
                    "passed": r.passed,
                    **({} if args.deterministic else {"elapsed_s": r.elapsed}),
                }
                for r in rows
            ],
        },
        "warnings": [],
        "status": "ok" if n_pass == len(rows) else "failed",
    }
    if args.out:
        _write_report(run, args.out, args.deterministic)
    return 0 if n_pass == len(rows) else 3


# --- parser ----------------------------------------------------------------


def _add_common(sp, *, ms_required: bool = False, temp: bool = False) -> None:
    sp.add_argument("--ms", type=float, required=ms_required, default=None,
                    help="saturation magnetization, A/m")
    if temp:
        sp.add_argument("--temp", type=float, required=True, help="temperature, K")
    sp.add_argument("--unit", choices=["m", "j", "b"], default="m",
                    help="M column unit: m=A/m, j=polarization T, b=flux density T")
    sp.add_argument("--deterministic", action="store_true",
                    help="omit timestamps/timings so reports are byte-identical")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jamag",
        description="Jiles-Atherton magnetization curves: fitting and simulation",
    )
    parser.add_argument("--version", action="version", version=f"jamag {__version__}")
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-anhysteretic", help="fit (aJ, alpha, m) to an anhysteretic curve")
    p.add_argument("data", type=Path, help="delimited file of (H, M) samples")
    _add_common(p, ms_required=True, temp=True)
    p.add_argument("--ha1", type=float, default=1.0e6, help="high-field reference, A/m")
    p.add_argument("--eta0", type=float, default=0.9)
    p.add_argument("--eps", type=float, default=1.0e-5, help="eta grid step")
    p.add_argument("--eta-max", type=float, default=1.0)
    p.add_argument("--sweep", choices=["argmin", "first-local-min"], default="argmin")
    p.add_argument("--coarse", action="store_true",
                   help="coarse-to-fine scan (same answer on unimodal profiles, much faster)")
    p.add_argument("--slope-points", type=int, default=1,
                   help="samples for the initial-susceptibility estimate")
    p.add_argument("--out", type=Path, default=Path("fit_report.json"))
    p.add_argument("--curve-out", type=Path, default=Path("fit_curve.csv"))
    p.set_defaults(func=cmd_fit_anhysteretic)

    p = sub.add_parser("fit-jiles92", help="fit (aJ, alpha, c, k) to a hysteresis loop")
    p.add_argument("--loop", type=Path, required=True, help="measured full loop")
    p.add_argument("--first-mag", type=Path, default=None)
    p.add_argument("--anhysteretic", type=Path, default=None)
    p.add_argument("--features", type=Path, default=None,
                   help="precomputed features JSON (alternative to curve files)")
    _add_common(p, ms_required=True, temp=True)
    p.add_argument("--seeds", type=str, default=None,
                   help="comma-separated alpha seeds, e.g. '1e-4,1e-3'")
    p.add_argument("--max-iter", type=int, default=8)
    p.add_argument("--fit-tol", type=float, default=1.0e-3,
                   help="MSE threshold on mu0*M, T^2")
    p.add_argument("--sim-steps", type=int, default=600)
    p.add_argument("--sim-cycles", type=int, default=2)
    p.add_argument("--slope-points", type=int, default=5)
    p.add_argument("--out", type=Path, default=Path("jiles92_report.json"))
    p.set_defaults(func=cmd_fit_jiles92)

    p = sub.add_parser("simulate-loop", help="integrate the hysteresis ODE along a cyclic field")
    p.add_argument("--aj", type=float, default=None, help="shape parameter, A/m")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--c", type=float, required=True, help="reversibility fraction")
    p.add_argument("--k", type=float, required=True, help="pinning strength, A/m")
    _add_common(p)
    p.add_argument("--params", type=Path, default=None,
                   help="fit report JSON supplying aJ/alpha (flags override)")
    p.add_argument("--hmax", type=float, required=True, help="field amplitude, A/m")
    p.add_argument("--cycles", type=int, default=3)
    p.add_argument("--steps", type=int, default=2000, help="steps per segment")
    p.add_argument("--m0", type=float, default=0.0)
    p.add_argument("--clamp", action="store_true",
                   help="zero the irreversible term when it points away from the anhysteretic curve")
    p.add_argument("--out", type=Path, default=Path("loop.csv"))
    p.add_argument("--report", type=Path, default=None, help="also write a JSON run report")
    p.set_defaults(func=cmd_simulate_loop)

    p = sub.add_parser("extract", help="measure loop features from curve files")
    p.add_argument("--loop", type=Path, required=True)
    p.add_argument("--first-mag", type=Path, required=True)
    p.add_argument("--anhysteretic", type=Path, required=True)
    _add_common(p)
    p.add_argument("--slope-points", type=int, default=5)
    p.add_argument("--out", type=Path, default=Path("features.json"))
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("validate", help="synthetic round-trip check of the fitting pipeline")
    p.add_argument("--eps", type=float, default=1.0e-5)
    p.add_argument("--sweep", choices=["argmin", "first-local-min"], default="argmin")
    p.add_argument("--plain", action="store_true", help="disable the coarse-to-fine shortcut")
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--deterministic", action="store_true")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (DataError, OSError, ValueError, json.JSONDecodeError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except JamagError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
