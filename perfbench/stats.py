"""Summary statistics of per-command timings."""

from __future__ import annotations

TAIL_BEYOND = 10
"""Samples that must lie strictly above a reported tail percentile."""


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns (value, percentile) with the percentile in the
    ``(i / (n - 1)) * 100`` convention of the sorted sample, or ``None``
    when no sample has that many larger ones (always when n <= 10).
    """
    xs = sorted(samples)
    i = len(xs) - TAIL_BEYOND - 1
    while i >= 0 and xs[i] == xs[i + 1]:  # ties would leave fewer beyond
        i -= 1
    if i < 0:
        return None
    return xs[i], 100.0 * i / (len(xs) - 1)
