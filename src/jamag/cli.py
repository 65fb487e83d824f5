"""Command line interface.

Five subcommands: ``fit-anhysteretic``, ``fit-jiles92``, ``simulate-loop``,
``extract`` and ``validate``.  Each returns its JSON run report's entries;
``main`` completes and writes it with stable key order.  ``--deterministic``
drops timestamps and timings so two runs on the same inputs are identical.

Exit codes: 0 success, 2 bad input or usage, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import itertools
import json
import logging
import os
import signal
import struct
import sys
import tempfile
import time
import warnings
from dataclasses import asdict, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .anfit import RMS_BOUND_FRACTION, AnhystereticFitConfig, fit_anhysteretic
from .core import KB, MU0, MaterialSpec
from .dataio import CurveKind, LoopFeatures, MagnetizationCurve, Unit, extract_features, parse_curve
from .errors import DataError, JamagError
from .jiles92 import Jiles92Config, estimate
from .simulate import FieldWaveform, HysteresisParams, integrate
from .validation import GRID_MATERIAL, run_grid

_MODEL_NOTE = "k and c fit the simulator's ODE on five-point slopes of the loop's last two branches"


def _inputs(**paths: Path | None) -> dict:
    """A report's ``inputs`` entry: the path and sha256 of each given file."""
    return {
        name: {"path": str(path), "sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest()}
        for name, path in paths.items()
        if path
    }


def _write_report(report: dict, out: str | None, deterministic: bool) -> None:
    if not deterministic:
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


_WRITE_ROWS = 1024
"""Most CSV rows formatted and written with one ``write``."""

_SHARE_ROWS = 4096
"""Fewest fresh CSV rows that ``_write_curve`` gives each core, so 8 192 are the
fewest it splits in two: on fewer a forked child costs about what it saves."""

# From Python 3.12, fork() in a process with threads (numpy's BLAS pool) warns.
_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead to deadlocks"


def _memo(items: list, key, twin, flip):
    """``get(i, make)``: ``make()`` for the first of ``items`` with its ``key`` and
    that value for the later ones; a new key whose ``twin`` key (or None) is an
    earlier item's takes ``flip`` of that item's value, and the twin key is not kept.
    A value is kept only until its last use.  ``get.fresh`` lists the ``i`` that call ``make``."""
    seen, first, flipped = {}, [], set()
    for i, item in enumerate(items):
        q = seen.setdefault(key(item), i)
        if q == i and (t := twin(item)) is not None and (q := seen.get(t, i)) != i:
            flipped.add(i)
        first.append(q)
    last = {q: i for i, q in enumerate(first)}
    kept = {}

    def get(i: int, make):
        q = first[i]
        value = make() if q == i else kept[q] if last[q] > i else kept.pop(q)
        value = flip(value) if i in flipped else value
        if last.get(i, i) > i:
            kept[i] = value
        return value

    get.fresh = [i for i, q in enumerate(first) if q == i]
    return get


def _negated(text: bytes) -> bytes:
    """CSV rows of ``repr`` cells, none nan, with each sign flipped: 0.0 and -0.0 give 0.0."""
    text = (b"\n" + text).replace(b",", b",-").replace(b"\n", b"\n-").replace(b"--", b"")
    return text.replace(b"-0.0,", b"0.0,").replace(b"-0.0\n", b"0.0\n")[1:-1]


def _shares(items: list[int], sizes: list[int], k: int) -> list[list[int]]:
    """``items`` cut in order into at most ``k`` runs of about equal total ``sizes``."""
    total = sum(sizes)
    runs = [[] for _ in range(k)]
    done = 0
    for item, size in zip(items, sizes):
        runs[(2 * done + size) * k // (2 * total)].append(item)  # by the item's midpoint
        done += size
    return [run for run in runs if run]


@contextlib.contextmanager
def _child(slices: list[slice], fresh):
    """Fork a child that formats ``slices`` with ``fresh`` into an anonymous temporary
    file, after a head of one 8-byte length per slice, and exits.  Yields ``collect()``,
    which reaps the child and then reads its texts back: none if it failed or could not
    be forked.  On exit, a child that still runs is killed and reaped."""
    head = 8 * len(slices)
    with tempfile.TemporaryFile() as tmp:
        pid = None
        with contextlib.suppress(OSError), warnings.catch_warnings():  # no fork: collect() yields none
            # safe: the child runs no thread pool, only slicing, repr, join and file writes
            warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            try:
                tmp.seek(head)
                lengths = [tmp.write(fresh(rows)) for rows in slices]
                tmp.flush()
                os.pwrite(tmp.fileno(), struct.pack(f"{len(slices)}q", *lengths), 0)
                os._exit(0)
            finally:
                os._exit(1)  # nothing of the parent's: no flush, no atexit, no exception

        def collect():
            nonlocal pid
            if pid is not None:
                failed, pid = os.waitpid(pid, 0)[1], None
                if not failed:
                    lengths = struct.unpack(f"{len(slices)}q", os.pread(tmp.fileno(), head, 0))
                    for span in zip(lengths, itertools.accumulate(lengths, initial=head)):
                        yield os.pread(tmp.fileno(), *span)

        try:
            yield collect
        finally:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _write_curve(path: str | Path, header: list[str], columns: list, run: int = _WRITE_ROWS) -> None:
    """Write float ``columns`` as CSV rows of each value's ``repr``: row 0, then
    runs of ``run`` rows (``simulate-loop`` passes one segment), each in blocks of
    at most ``_WRITE_ROWS``.  A block whose column bytes equal an earlier block's
    (a later cycle that repeats one) is written from that block's text, and one whose
    columns are ``0.0 - col`` of an earlier block's (a branch that mirrors the one before
    it) from that text with each cell's sign flipped, unless it holds a NaN.

    The other, fresh blocks are cut in file order into shares of about equal row
    counts: at most one per core, each of ``_SHARE_ROWS`` rows or more.  The output
    file is opened first; then a forked ``_child`` formats each share but the first,
    which this process formats as it writes.  It collects a child's texts when it
    reaches that share's first block, or formats the share itself if the child
    failed.  Every child is reaped before this returns or raises.  The bytes are
    those of formatting every block in one process."""
    n = len(columns[0])
    edges = sorted({0, *range(1, n, run), n})
    blocks = [
        slice(b, min(b + _WRITE_ROWS, stop))
        for start, stop in zip(edges, edges[1:])
        for b in range(start, stop, _WRITE_ROWS)
    ]

    def twin(rows: slice) -> tuple | None:  # 0.0 - col gives no -0.0: none for a block with one
        cols = [col[rows] for col in columns]
        barred = any(np.isnan(c).any() or (np.signbit(c) & (c == 0.0)).any() for c in cols)
        return None if barred else tuple(np.subtract(0.0, c).tobytes() for c in cols)

    text = _memo(blocks, lambda rows: tuple(col[rows].tobytes() for col in columns), twin, _negated)

    def fresh(rows: slice) -> bytes:
        cells = (map(repr, col[rows].tolist()) for col in columns)
        return ("\n".join(map(",".join, zip(*cells))) + "\n").encode()

    sizes = [blocks[b].stop - blocks[b].start for b in text.fresh]
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1
    shares = _shares(text.fresh, sizes, max(1, min(cores, sum(sizes) // _SHARE_ROWS)))
    with open(path, "wb") as f, contextlib.ExitStack() as stack:
        collect = {s[0]: stack.enter_context(_child([blocks[b] for b in s], fresh)) for s in shares[1:]}
        texts = iter(())

        def make(b: int) -> bytes:  # text() calls it on the fresh blocks in order, a share's in a row
            nonlocal texts
            if b in collect:
                texts = collect[b]()
            return next(texts, None) or fresh(blocks[b])

        f.write((",".join(header) + "\n").encode())
        for b in range(len(blocks)):
            f.write(text(b, lambda: make(b)))


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


_WARNING_MESSAGES = {  # the anhysteretic fit's warning codes
    "NON_PHYSICAL_ALPHA": "fitted alpha is negative",
    "NOT_UNIMODAL": "residual profile over eta is not unimodal",
    "FIT_CONDITION_NOT_MET": f"residual RMS exceeds {RMS_BOUND_FRACTION:.0%} of mu0*Ms; best eta reported",
    "SWEEP_EDGE": "best eta is at an end of the grid; the minimum may lie beyond it",
}


def _read_numbers(path: Path, section: str, names: list[str]) -> dict[str, float]:
    """The numbers ``names`` in the ``section`` object of the JSON report at
    ``path``, or in its top-level object when it has no ``section``.  Anything
    else raises :class:`DataError` naming the file and the key."""
    try:  # integers as floats: one past the float range reads as inf, as 1e400 does
        obj = json.loads(Path(path).read_text(encoding="utf-8"), parse_int=float)
    except ValueError as err:  # not UTF-8, or not JSON
        raise DataError(f"{path}: {section!r}: not a JSON report ({err})") from None
    if isinstance(obj, dict):
        obj = obj.get(section, obj)
    if not isinstance(obj, dict):
        raise DataError(f"{path}: {section!r}: expected a JSON object, got {type(obj).__name__}")
    values = {}
    for name in names:
        if name not in obj:
            raise DataError(f"{path}: {name!r}: missing")
        value = obj[name]
        # JSON numbers only: float() would also read true as 1.0 and "972" as 972.0
        if not isinstance(value, float):
            raise DataError(f"{path}: {name!r}: expected a number, got {json.dumps(value)}")
        values[name] = value
    return values


def _config(cls, args):
    """A ``cls`` config built from the parsed flags named after its fields."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def _parse(path: Path, kind: CurveKind, args) -> MagnetizationCurve:
    """The curve in ``path``; warns when ``--ms`` is given and |M| exceeds it by 10%."""
    curve = parse_curve(path, kind=kind, unit=args.unit)
    if args.ms is not None:
        curve.check_amplitude(args.ms)
    return curve


# --- subcommands ----------------------------------------------------------


def cmd_fit_anhysteretic(args) -> dict:
    cfg = _config(AnhystereticFitConfig, args)
    material = MaterialSpec(Ms=args.ms, T=args.temp)
    data = _parse(args.data, CurveKind.ANHYSTERETIC, args)
    try:
        report = fit_anhysteretic(data, material, cfg)
    except DataError as err:  # the parser's errors name the file already; the fit's do not
        raise DataError(f"{args.data}: {err}") from None

    m_fit = data.M + report.residual / MU0
    _write_curve(
        args.curve_out,
        ["H", "M_data", "M_fit", "r"],
        [data.H, data.M, m_fit, report.residual],
    )
    return {
        "inputs": _inputs(data=args.data),
        "config": {"ms": args.ms, "temp": args.temp, "unit": args.unit, **asdict(cfg)},
        "result": {
            "eta_star": report.eta_star,
            "chi_param": report.chi_param,
            "m": report.m,
            "aJ": report.aJ,
            "alpha": report.alpha,
            "chi_an_a": report.chi_an_a,
            "m1": report.m1,
            "residual_norm": report.residual_norm,
            "residual_rms": report.residual_rms,
            "iterations": report.iterations,
            "unimodal": report.unimodal,
            "fit_condition_met": report.fit_condition_met,
            "curve_file": str(args.curve_out),
        },
        "warnings": [{"code": c, "message": _WARNING_MESSAGES[c]} for c in report.warnings],
    }


def cmd_fit_jiles92(args) -> dict:
    material = MaterialSpec(Ms=args.ms, T=args.temp)
    cfg = _config(Jiles92Config, args)
    loop = _parse(args.loop, CurveKind.FULL_LOOP, args)
    anh = _parse(args.anhysteretic, CurveKind.ANHYSTERETIC, args) if args.anhysteretic else None
    if args.first_mag:  # read and checked, not fitted from
        _parse(args.first_mag, CurveKind.FIRST_MAGNETIZATION, args)
    features = None
    if args.features:  # read and checked; the loop route fits from its chi_an
        numbers = _read_numbers(args.features, "features", [f.name for f in fields(LoopFeatures)])
        try:  # _read_numbers' errors name the file already; LoopFeatures' do not
            features = LoopFeatures(**numbers)
        except ValueError as err:
            raise DataError(f"{args.features}: {err}") from None
        if features.chi_an == 0.0:
            raise DataError(f"{args.features}: 'chi_an': is zero, and the loop route divides by it")
    result = estimate(features, material, cfg, loop, anhysteretic=anh)
    return {
        "inputs": _inputs(loop=args.loop, first_mag=args.first_mag, anhysteretic=args.anhysteretic,
                          features=args.features),
        "config": {"ms": args.ms, "temp": args.temp, "unit": args.unit, **asdict(cfg)},
        "assumptions": [_MODEL_NOTE],
        "result": {
            "aJ": result.params.aJ,
            "alpha": result.params.alpha,
            "c": result.params.c,
            "k": result.params.k,
            "m": KB * material.T / (MU0 * result.params.aJ),  # the pseudo-domain moment, A*m^2
            "mse": result.mse,
            "fit_condition_met": result.fit_condition_met,
            "route": result.route,
            "iterations": result.iterations,
        },
        "warnings": [] if result.fit_condition_met else [{
            "code": "FIT_CONDITION_NOT_MET",
            "message": "the simulated loop misses the fit tolerance; the fitted parameters are reported",
        }],
    }


def cmd_simulate_loop(args) -> dict:
    aJ, alpha, ms = args.aj, args.alpha, args.ms
    if args.params:
        wanted = [n for n, v in (("aJ", aJ), ("alpha", alpha)) if v is None]
        fit = _read_numbers(args.params, "result", wanted)
        aJ, alpha = fit.get("aJ", aJ), fit.get("alpha", alpha)
        if fit.get("alpha", 0.0) < 0.0:
            # a valid fit report that the fit flagged, so not bad input: exit 3
            raise JamagError(
                f"{args.params}: fitted alpha = {alpha:.6g} is negative "
                "(NON_PHYSICAL_ALPHA); the hysteresis model needs alpha >= 0"
            )
        if ms is None:
            ms = _read_numbers(args.params, "config", ["ms"])["ms"]
    missing = [n for n, v in (("--aj", aJ), ("--alpha", alpha), ("--ms", ms)) if v is None]
    if missing:
        raise DataError(f"missing {', '.join(missing)} (flags or --params report)")

    params = HysteresisParams(aJ=aJ, alpha=alpha, c=args.c, k=args.k, Ms=ms)
    waveform = FieldWaveform.cyclic(args.hmax, cycles=args.cycles, steps_per_segment=args.steps)
    curve = integrate(params, waveform, M0=args.m0, clamp=args.clamp)

    b = MU0 * (curve.H + curve.M)
    _write_curve(args.out, ["H", "M", "B"], [curve.H, curve.M, b], run=args.steps)
    return {
        "inputs": _inputs(params=args.params),
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
    }


def cmd_extract(args) -> dict:
    # extract has no MaterialSpec to check --ms, which only sets the amplitude warning here
    if args.ms is not None and not 0.0 < args.ms < float("inf"):
        raise DataError(f"--ms must be positive and finite, got {args.ms}")
    first = _parse(args.first_mag, CurveKind.FIRST_MAGNETIZATION, args)
    anh = _parse(args.anhysteretic, CurveKind.ANHYSTERETIC, args)
    loop = _parse(args.loop, CurveKind.FULL_LOOP, args)
    try:
        features = extract_features(first, loop, anh)
    except ValueError as err:  # a feature LoopFeatures rejects: name the file it was measured on
        source = {"chi_in": args.first_mag, "chi_an": args.anhysteretic}.get(str(err).split()[0], args.loop)
        raise DataError(f"{source}: {err}") from None
    return {
        "inputs": _inputs(first_mag=args.first_mag, loop=args.loop, anhysteretic=args.anhysteretic),
        "config": {"unit": args.unit, "ms": args.ms},
        "features": asdict(features),
    }


def cmd_validate(args) -> dict:
    cfg = AnhystereticFitConfig(eps=args.eps, coarse=True)
    t0 = time.perf_counter()
    rows = run_grid(cfg)
    total = time.perf_counter() - t0

    for r in rows:
        print(
            f"{'PASS' if r.passed else 'FAIL'} "
            f"aJ={r.aJ_true:g} alpha={r.alpha_true:g} "
            f"rms={r.rms:.6e} bound={r.bound:.6e} "
            f"aJ_fit={r.report.aJ:.6g} alpha_fit={r.report.alpha:.6g} eta={r.report.eta_star:.6g}"
        )
    n_pass = sum(r.passed for r in rows)
    print(f"{n_pass}/{len(rows)} rows passed")
    if not args.deterministic:
        print(f"elapsed: {total:.2f} s", file=sys.stderr)

    return {
        "inputs": {},
        "config": {
            "eps": cfg.eps, "coarse": cfg.coarse,
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
        "status": "ok" if n_pass == len(rows) else "failed",
    }


# --- parser ----------------------------------------------------------------

def _add_common(sp, *, ms_required: bool = False, temp: bool = False, unit: bool = True) -> None:
    sp.add_argument("--ms", type=float, required=ms_required, help="saturation magnetization, A/m")
    if temp:
        sp.add_argument("--temp", type=float, required=True, help="temperature, K")
    if unit:
        sp.add_argument("--unit", choices=[u.value for u in Unit], default=Unit.M_A_PER_M.value,
                        help="M column unit: m=A/m, j=polarization T, b=flux density T")
    sp.add_argument("--deterministic", action="store_true",
                    help="omit timestamps/timings so reports are byte-identical")


def _fit_anhysteretic_args(p) -> None:
    p.add_argument("data", type=Path, help="delimited file of (H, M) samples")
    _add_common(p, ms_required=True, temp=True)
    p.set_defaults(**asdict(AnhystereticFitConfig()))
    p.add_argument("--ha1", type=float, help="high-field reference, A/m")
    p.add_argument("--eta0", type=float)
    p.add_argument("--eps", type=float, help="eta grid step")
    p.add_argument("--eta-max", type=float)
    p.add_argument("--coarse", action="store_true",
                   help="refine the scan by decades, from the grid's top power of ten down to every point "
                        "(same answer on weakly unimodal profiles, far fewer candidates)")
    p.add_argument("--out", dest="report", metavar="OUT", type=Path, default=Path("fit_report.json"))
    p.add_argument("--curve-out", type=Path, default=Path("fit_curve.csv"))
    p.set_defaults(func=cmd_fit_anhysteretic)


def _fit_jiles92_args(p) -> None:
    p.add_argument("--loop", type=Path, required=True, help="measured full loop")
    p.add_argument("--first-mag", type=Path)
    route = p.add_mutually_exclusive_group(required=True)
    route.add_argument("--anhysteretic", type=Path, help="anhysteretic curve: (aJ, alpha) from it")
    route.add_argument("--features", type=Path, help="extract report: (aJ, alpha) from the loop and its chi_an")
    _add_common(p, ms_required=True, temp=True)
    p.set_defaults(**asdict(Jiles92Config()))
    p.add_argument("--fit-tol", type=float, help="MSE threshold on mu0*M, T^2")
    p.add_argument("--out", dest="report", metavar="OUT", type=Path,
                   default=Path("jiles92_report.json"))
    p.set_defaults(func=cmd_fit_jiles92)


def _simulate_loop_args(p) -> None:
    # plain-function defaults, stated once in the library (read through any wrapper)
    cyclic = inspect.signature(FieldWaveform.cyclic).parameters
    p.add_argument("--aj", type=float, help="shape parameter, A/m")
    p.add_argument("--alpha", type=float)
    p.add_argument("--c", type=float, required=True, help="reversibility fraction")
    p.add_argument("--k", type=float, required=True, help="pinning strength, A/m")
    _add_common(p, unit=False)
    p.add_argument("--params", type=Path, help="fit report JSON supplying aJ/alpha (flags override)")
    p.add_argument("--hmax", type=float, required=True, help="field amplitude, A/m")
    p.add_argument("--cycles", type=int, default=cyclic["cycles"].default)
    p.add_argument("--steps", type=int, default=cyclic["steps_per_segment"].default, help="steps per segment")
    p.add_argument("--m0", type=float, default=0.0)
    p.add_argument("--clamp", action="store_true",
                   help="zero the irreversible term when it points away from the anhysteretic curve")
    p.add_argument("--out", type=Path, default=Path("loop.csv"))
    p.add_argument("--report", type=Path, help="also write a JSON run report")
    p.set_defaults(func=cmd_simulate_loop)


def _extract_args(p) -> None:
    p.add_argument("--loop", type=Path, required=True)
    p.add_argument("--first-mag", type=Path, required=True)
    p.add_argument("--anhysteretic", type=Path, required=True)
    _add_common(p)
    p.add_argument("--out", dest="report", metavar="OUT", type=Path, default=Path("features.json"))
    p.set_defaults(func=cmd_extract)


def _validate_args(p) -> None:
    p.add_argument("--eps", type=float, default=AnhystereticFitConfig.eps)
    # no --out: the report is written nowhere (simulate-loop's default prints it)
    p.add_argument("--out", dest="report", metavar="OUT", type=Path, default=Path(os.devnull))
    p.add_argument("--deterministic", action="store_true")
    p.set_defaults(func=cmd_validate)


_SUBCOMMANDS = {  # name: (help line, what adds its arguments)
    "fit-anhysteretic": ("fit (aJ, alpha, m) to an anhysteretic curve", _fit_anhysteretic_args),
    "fit-jiles92": ("fit (aJ, alpha, c, k) to a hysteresis loop", _fit_jiles92_args),
    "simulate-loop": ("integrate the hysteresis ODE along a cyclic field", _simulate_loop_args),
    "extract": ("measure loop features from curve files", _extract_args),
    "validate": ("synthetic round-trip check of the fitting pipeline", _validate_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``jamag`` parser, every subcommand listed with its help line.  When
    ``command`` names a subcommand, only that one gets its arguments, which is all
    that parsing its command line reads; otherwise every subcommand does."""
    parser = argparse.ArgumentParser(
        prog="jamag",
        description="Jiles-Atherton magnetization curves: fitting and simulation",
    )
    parser.add_argument("--version", action="version", version=f"jamag {__version__}")
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if command not in _SUBCOMMANDS or command == name:
            add_arguments(p)
    return parser


@contextlib.contextmanager
def _logging(verbose: bool):
    """jamag's log records at INFO with ``verbose``, else at WARNING, go to the
    ``sys.stderr`` of the moment, until the block ends."""
    logger = logging.getLogger(__package__)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    level = logger.level
    logger.setLevel(logging.INFO if verbose else logging.WARNING)
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # the top-level options take no values, so the first other token names the subcommand
    command = next((a for a in argv if not a.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    try:
        with _logging(args.verbose), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run = args.func(args)
        fit_warnings = run.pop("warnings", [])
        report = {
            "command": args.command,
            "version": __version__,
            "status": "ok",
            **run,
            "warnings": _collect_warnings(caught) + fit_warnings,
        }
        _write_report(report, args.report, args.deterministic)
    except (DataError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except JamagError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    return 3 if report["status"] == "failed" else 0


if __name__ == "__main__":
    sys.exit(main())
