"""Bracketed scalar root finding.

``find_root`` is a Brent-style solver: inverse quadratic interpolation and
secant steps, safeguarded by bisection so the bracket width shrinks on every
iteration.  ``expand_bracket`` grows an interval geometrically around an
initial guess until the function changes sign.

Both are deterministic: the same function, guess and configuration always
produce the same float.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import InvalidBracket, NoConvergence, NoSignChange

_EPS = 2.220446049250313e-16  # float64 machine epsilon

_MAX_EXPANSIONS = 64


@dataclass(frozen=True)
class RootConfig:
    """Termination settings for :func:`find_root`.

    The iteration stops once the bracket width is at most
    ``abs_tol + rel_tol * |x|`` around the current best estimate ``x``.
    """

    abs_tol: float
    rel_tol: float = 0.0
    max_iter: int = 100

    def __post_init__(self) -> None:
        if not self.abs_tol > 0.0:
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")
        if self.rel_tol < 0.0:
            raise ValueError(f"rel_tol must be non-negative, got {self.rel_tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


def expand_bracket(
    f: Callable[[float], float],
    x0: float,
    *,
    grow: float = 2.0,
    step0: float | None = None,
    lo_limit: float | None = None,
    hi_limit: float | None = None,
) -> tuple[float, float]:
    """Grow an interval around ``x0`` until ``f`` changes sign across it.

    The half-width starts at ``step0`` (default ``max(0.01*|x0|, 1e-12)``) and
    is multiplied by ``grow`` after each failed attempt, for at most 64
    attempts.  Endpoints are clamped to ``lo_limit``/``hi_limit`` when given.
    Returns the tighter of ``(lo, x0)`` / ``(x0, hi)`` once a sign change
    appears.  Raises :class:`NoSignChange` if the budget is exhausted.
    """
    if grow <= 1.0:
        raise ValueError(f"grow must exceed 1, got {grow}")
    fx0 = f(x0)
    if fx0 == 0.0:
        # x0 is already a root; hand back a degenerate-but-valid bracket.
        hi = x0 + (step0 if step0 is not None else max(0.01 * abs(x0), 1e-12))
        if hi_limit is not None:
            hi = min(hi, hi_limit)
        return (x0, hi) if hi > x0 else (x0, x0)

    d = step0 if step0 is not None else max(0.01 * abs(x0), 1e-12)
    if d <= 0.0:
        raise ValueError(f"step0 must be positive, got {step0}")

    for _ in range(_MAX_EXPANSIONS):
        lo = x0 - d
        hi = x0 + d
        if lo_limit is not None:
            lo = max(lo, lo_limit)
        if hi_limit is not None:
            hi = min(hi, hi_limit)
        if lo < x0:
            flo = f(lo)
            if flo == 0.0 or (flo < 0.0) != (fx0 < 0.0):
                return lo, x0
        if hi > x0:
            fhi = f(hi)
            if fhi == 0.0 or (fhi < 0.0) != (fx0 < 0.0):
                return x0, hi
        d *= grow

    raise NoSignChange(
        f"no sign change within {_MAX_EXPANSIONS} expansions around x0={x0!r}"
    )


def find_root(
    f: Callable[[float], float],
    cfg: RootConfig,
    bracket: tuple[float, float],
) -> float:
    """Find a root of ``f`` inside the sign-changing interval ``bracket``.

    The returned root always lies inside that interval.  Raises
    :class:`InvalidBracket` when the endpoints do not straddle a sign
    change and :class:`NoConvergence` when ``cfg.max_iter`` is exhausted.
    """
    lo, hi = bracket
    if not lo < hi:
        raise InvalidBracket(f"bracket must satisfy lo < hi, got ({lo}, {hi})")

    a, b = float(lo), float(hi)
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0.0) == (fb < 0.0):
        raise InvalidBracket(
            f"f({a!r})={fa!r} and f({b!r})={fb!r} have the same sign"
        )

    # Brent: b is the best estimate, a the previous one, c the counterpoint
    # with f(c) opposite in sign to f(b).
    c, fc = a, fa
    d = e = b - a

    for _ in range(cfg.max_iter):
        if (fb < 0.0) == (fc < 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb

        tol = 0.5 * (cfg.abs_tol + cfg.rel_tol * abs(b)) + 2.0 * _EPS * abs(b)
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b

        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m  # bisect
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s  # secant
                q = 1.0 - s
            else:
                q = fa / fc  # inverse quadratic
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e = d
                d = p / q  # interpolation accepted
            else:
                d = e = m

        a, fa = b, fb
        b += d if abs(d) > tol else (tol if m > 0.0 else -tol)
        fb = f(b)

    raise NoConvergence(
        f"no root within {cfg.max_iter} iterations; last estimate {b!r}"
    )
