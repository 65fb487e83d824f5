"""Span tracing of jamag's layers from outside the package.

Each site below names a function and the module namespace it is looked up
in at call time.  ``Tracer.installed()`` replaces those attributes with
timing wrappers and puts every original back on exit, so ``src/`` is never
edited and untraced commands run the original code.

A span is ``[name, cmd, parent, t0, t1, exc, counts]``: the layer-qualified
name, the command id, the index of the enclosing span (-1 for a root), the
``perf_counter`` interval, the class name of an exception that escaped it,
and a dict of counters (or ``None``).  Spans are kept in memory and written
out at the end.  Self time is a span's duration minus the durations of its
direct children; calls nest and never overlap, so that is the time the
children do not cover.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import math
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "dataio", "anfit", "core", "rootfind", "simulate", "jiles92")

SPAN_SITES = (
    ("cli", "parse_curve", "dataio.parse_curve"),
    ("cli", "extract_features", "dataio.extract_features"),
    ("cli", "fit_anhysteretic", "anfit.fit_anhysteretic"),
    ("cli", "estimate", "jiles92.estimate"),
    ("cli", "integrate", "simulate.integrate"),
    ("cli", "_write_curve", "cli.write_curve"),
    ("cli", "_write_report", "cli.write_report"),
    ("dataio", "split_branches", "dataio.split_branches"),
    ("anfit", "solve_chi_param", "anfit.solve_chi_param"),
    ("anfit", "_implicit_array", "core.implicit_solve"),
    ("anfit", "find_root", "rootfind.find_root"),
    ("core", "_implicit_array", "core.implicit_solve"),
    ("core", "find_root", "rootfind.find_root"),
    ("simulate", "_implicit_array", "core.implicit_solve"),
    ("simulate", "_slope_raw", "core.slope"),
    ("jiles92", "k_from_coercive", "jiles92.k_from_coercive"),
    ("jiles92", "alpha_update", "jiles92.alpha_update"),
    ("jiles92", "aj_update", "jiles92.aj_update"),
    ("jiles92", "_loop_mse", "jiles92.loop_mse"),
    ("jiles92", "_slope_raw", "core.slope"),
    ("jiles92", "split_branches", "dataio.split_branches"),
    ("jiles92", "integrate", "simulate.integrate"),
    ("jiles92", "find_root", "rootfind.find_root"),
    ("jiles92", "expand_bracket", "rootfind.expand_bracket"),
)
"""(module, attribute, span name) of every wrapped call."""

COUNT_SITES = (
    # the implicit solve calls L' exactly once per Newton iteration
    ("core", "langevin_prime", "lprime"),
    # estimate calls aj_initial exactly once per alpha seed
    ("jiles92", "aj_initial", "seeds"),
)
"""(module, attribute, counter): calls counted on the innermost open span."""

SEED_ABORT_CLASSES = (
    "NoSignChange", "InvalidBracket", "NoConvergence", "SingularDenominator",
    "SingularSlope", "UnstableParams", "ValueError",
)
"""Exception classes ``jiles92.estimate`` can abandon a seed on."""

NAME, CMD, PARENT, T0, T1, EXC, COUNTS = range(7)


def _n_grid(cfg) -> int:
    """Eta grid size of a sweep, by the formula of ``fit_anhysteretic``."""
    return int(math.floor((cfg.eta_max - cfg.eta0) / cfg.eps - 1e-9)) + 1


def _bump(span: list, key: str, by: int = 1) -> None:
    counts = span[COUNTS]
    if counts is None:
        counts = span[COUNTS] = {}
    counts[key] = counts.get(key, 0) + by


def _count_fevals(span: list, args: tuple, kwargs: dict) -> tuple:
    f = args[0]

    def counted(x):
        _bump(span, "fevals")
        return f(x)

    return (counted, *args[1:])


_PRE = {
    "rootfind.find_root": _count_fevals,
    "rootfind.expand_bracket": _count_fevals,
}


def _post(name: str, span: list, args: tuple, kwargs: dict, result) -> None:
    if name == "dataio.parse_curve":
        _bump(span, "rows", len(result))
    elif name == "cli.write_curve":
        _bump(span, "rows", len(args[2][0]))
    elif name == "core.implicit_solve":
        _bump(span, "points", int(args[0].size))
    elif name == "simulate.integrate":
        _bump(span, "steps", len(result) - 1)
    elif name == "anfit.fit_anhysteretic":
        cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
        if cfg is not None:
            _bump(span, "grid", _n_grid(cfg))
    elif name == "jiles92.loop_mse":
        span[COUNTS] = {**(span[COUNTS] or {}), "mse": result}


class Tracer:
    """Records spans of one process; install around traced commands only."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.cmd = -1
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        pre = _PRE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.cmd, stack[-1] if stack else -1, 0.0, 0.0, None, None]
            stack.append(len(spans))
            spans.append(span)
            if pre is not None:
                args = pre(span, args, kwargs)
            span[T0] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span[T1] = clock()
                span[EXC] = type(err).__name__
                raise
            finally:
                stack.pop()
            span[T1] = clock()
            _post(name, span, args, kwargs, result)
            return result

        return traced

    def count(self, key: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack:
                _bump(spans[stack[-1]], key)
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Wrap every site in ``modules`` (name -> module), restore on exit."""
        try:
            for mod, attr, name in SPAN_SITES:
                self._patch(modules[mod], attr, self.wrap(name, getattr(modules[mod], attr)))
            for mod, attr, key in COUNT_SITES:
                self._patch(modules[mod], attr, self.count(key, getattr(modules[mod], attr)))
            yield self
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)

    def _patch(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def write(self, path: Path) -> None:
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[NAME]], *s[CMD:]] for s in self.spans]
        with gzip.open(path, "wt", encoding="utf-8") as f:
            json.dump({"fields": ["name", "cmd", "parent", "t0", "t1", "exc", "counts"],
                       "names": names, "spans": rows}, f)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s[T1] - s[T0] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[T1] - s[T0]
    return out


def layer_metrics(spans: list[list]) -> tuple[dict[str, float], list[tuple[float, float]]]:
    """Per-layer metrics, as means per traced command.

    Also returns, per command, (root span duration, sum of self times), so a
    caller can check that self times account for the whole command.
    """
    selfs = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s[PARENT] < 0]
    n = max(len(roots), 1)
    total: dict[str, float] = defaultdict(float)
    per_cmd: dict[int, float] = defaultdict(float)
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        name, counts = s[NAME], s[COUNTS] or {}
        total[name + ".calls"] += 1
        total[name + ".s"] += s[T1] - s[T0]
        total[name.split(".")[0] + ".self_s"] += selfs[i]
        per_cmd[s[CMD]] += selfs[i]
        for key, v in counts.items():
            if key != "mse":
                total[f"{name}.{key}"] += v
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
        if name == "core.implicit_solve":
            total["core.implicit_solve.point_iters"] += counts.get("points", 0) * counts.get("lprime", 0)
    coverage = [(spans[r][T1] - spans[r][T0], per_cmd[spans[r][CMD]]) for r in roots]

    passes = simulated = useful = aborts = 0
    by_class: dict[str, int] = defaultdict(int)
    for i, s in enumerate(spans):
        if s[NAME] != "jiles92.estimate":
            continue
        best = math.inf
        for j in children[i]:
            child = spans[j]
            if child[EXC] is not None:
                aborts += 1
                by_class[child[EXC]] += 1
            elif child[NAME] == "simulate.integrate":
                simulated += 1
            if child[NAME] == "jiles92.k_from_coercive":
                passes += 1
            elif child[NAME] == "jiles92.loop_mse" and child[EXC] is None:
                mse = child[COUNTS]["mse"]
                if mse < best:
                    best = mse
                    useful += 1

    def t(key: str) -> float:
        return total.get(key, 0.0)

    cmd_s = sum(d for d, _ in coverage)
    m = {
        "cli.rows_written": t("cli.write_curve.rows") / n,
        "dataio.parse_curve.calls": t("dataio.parse_curve.calls") / n,
        "dataio.parse_curve.s": t("dataio.parse_curve.s") / n,
        "dataio.rows_parsed": t("dataio.parse_curve.rows") / n,
        "dataio.extract_features.s": t("dataio.extract_features.s") / n,
        "dataio.split_branches.calls": t("dataio.split_branches.calls") / n,
        "dataio.split_branches.s": t("dataio.split_branches.s") / n,
        "anfit.fit_anhysteretic.s": t("anfit.fit_anhysteretic.s") / n,
        "anfit.eta_evals": t("anfit.solve_chi_param.calls") / n,
        "anfit.eta_eval_frac": _ratio(t("anfit.solve_chi_param.calls"), t("anfit.fit_anhysteretic.grid")),
        "anfit.solve_chi_param.calls": t("anfit.solve_chi_param.calls") / n,
        "anfit.solve_chi_param.s": t("anfit.solve_chi_param.s") / n,
        "core.implicit_solve.calls": t("core.implicit_solve.calls") / n,
        "core.implicit_solve.s": t("core.implicit_solve.s") / n,
        "core.implicit_solve.points": t("core.implicit_solve.points") / n,
        "core.implicit_solve.newton_iters": t("core.implicit_solve.lprime") / n,
        "core.implicit_solve.ns_per_point_iter": 1e9 * _ratio(
            t("core.implicit_solve.s"), t("core.implicit_solve.point_iters")),
        "core.slope.calls": t("core.slope.calls") / n,
        "core.slope.s": t("core.slope.s") / n,
        "rootfind.find_root.calls": t("rootfind.find_root.calls") / n,
        "rootfind.find_root.s": t("rootfind.find_root.s") / n,
        "rootfind.find_root.fevals": t("rootfind.find_root.fevals") / n,
        "rootfind.expand_bracket.calls": t("rootfind.expand_bracket.calls") / n,
        "rootfind.expand_bracket.s": t("rootfind.expand_bracket.s") / n,
        "rootfind.expand_bracket.fevals": t("rootfind.expand_bracket.fevals") / n,
        "simulate.integrate.calls": t("simulate.integrate.calls") / n,
        "simulate.integrate.s": t("simulate.integrate.s") / n,
        "simulate.rk4_steps": t("simulate.integrate.steps") / n,
        "simulate.us_per_step": 1e6 * _ratio(t("simulate.integrate.s"), t("simulate.integrate.steps")),
        "jiles92.estimate.s": t("jiles92.estimate.s") / n,
        "jiles92.seeds_tried": t("jiles92.estimate.seeds") / n,
        "jiles92.seed_aborts": aborts / n,
        **{f"jiles92.seed_aborts.{c}": by_class.get(c, 0) / n for c in SEED_ABORT_CLASSES},
        "jiles92.passes": passes / n,
        "jiles92.passes_simulated": simulated / n,
        "jiles92.pass_useful_frac": _ratio(useful, passes),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = t(f"{layer}.self_s") / n
        m[f"{layer}.share"] = _ratio(t(f"{layer}.self_s"), cmd_s)
    return m, coverage


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
