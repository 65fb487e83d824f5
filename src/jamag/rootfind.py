"""Bracketed scalar root finding.

``find_root`` is a Brent-style solver: inverse quadratic interpolation and
secant steps, safeguarded by bisection so the bracket width shrinks on every
iteration.  ``expand_bracket`` grows an interval geometrically around an
initial guess until the function changes sign.

Both are deterministic: the same function, guess and tolerances always
produce the same float.
"""

from __future__ import annotations

from typing import Callable

from .errors import JamagError

_EPS = 2.220446049250313e-16  # float64 machine epsilon

_MAX_EXPANSIONS = 64

_MAX_ITER = 200  # iteration cap of find_root


def expand_bracket(
    f: Callable[[float], float],
    x0: float,
    *,
    lo_limit: float | None = None,
) -> tuple[float, float]:
    """Grow an interval around ``x0`` until ``f`` changes sign across it.

    The half-width starts at ``max(0.01*|x0|, 1e-12)`` and doubles after each
    failed attempt, for at most 64 attempts.  The lower endpoint is clamped
    to ``lo_limit`` when given.  Returns the tighter of ``(lo, x0)`` /
    ``(x0, hi)`` once a sign change appears.  Raises :class:`JamagError`
    if the budget is exhausted.
    """
    d = max(0.01 * abs(x0), 1e-12)
    fx0 = f(x0)
    if fx0 == 0.0:
        # x0 is already a root; hand back a degenerate-but-valid bracket.
        hi = x0 + d
        return (x0, hi) if hi > x0 else (x0, x0)

    for _ in range(_MAX_EXPANSIONS):
        lo = x0 - d
        hi = x0 + d
        if lo_limit is not None:
            lo = max(lo, lo_limit)
        if lo < x0:
            flo = f(lo)
            if flo == 0.0 or (flo < 0.0) != (fx0 < 0.0):
                return lo, x0
        if hi > x0:
            fhi = f(hi)
            if fhi == 0.0 or (fhi < 0.0) != (fx0 < 0.0):
                return x0, hi
        d *= 2.0

    raise JamagError(f"no sign change within {_MAX_EXPANSIONS} expansions around x0={x0!r}")


def find_root(
    f: Callable[[float], float], bracket: tuple[float, float], *, abs_tol: float, rel_tol: float
) -> float:
    """Find a root of ``f`` inside the sign-changing interval ``bracket``.

    The iteration stops once the bracket width is at most
    ``abs_tol + rel_tol * |x|`` around the current best estimate ``x``.
    The returned root always lies inside that interval.  Raises
    :class:`JamagError` when the endpoints do not straddle a sign change,
    and after ``_MAX_ITER`` iterations.
    """
    if not abs_tol > 0.0:
        raise ValueError(f"abs_tol must be positive, got {abs_tol}")
    if rel_tol < 0.0:
        raise ValueError(f"rel_tol must be non-negative, got {rel_tol}")
    lo, hi = bracket
    if not lo < hi:
        raise JamagError(f"bracket must satisfy lo < hi, got ({lo}, {hi})")

    a, b = float(lo), float(hi)
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0.0) == (fb < 0.0):
        raise JamagError(f"f({a!r})={fa!r} and f({b!r})={fb!r} have the same sign")

    # Brent: b is the best estimate, a the previous one, c the counterpoint
    # with f(c) opposite in sign to f(b).
    c, fc = a, fa
    d = e = b - a

    for _ in range(_MAX_ITER):
        if (fb < 0.0) == (fc < 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb

        tol = 0.5 * (abs_tol + rel_tol * abs(b)) + 2.0 * _EPS * abs(b)
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

    raise JamagError(f"no root within {_MAX_ITER} iterations; last estimate {b!r}")
