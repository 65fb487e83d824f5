"""Measured-curve ingestion and loop feature extraction.

Input files are delimited text with one (H, M) sample per line.  The M
column may be magnetization (A/m), polarization J = mu0*M (T), or flux
density B = mu0*(H + M) (T); everything is converted to A/m on load.

``extract_features`` reduces a first-magnetization curve, a full hysteresis
loop and an anhysteretic curve to the nine scalar features the loop-fitting
procedure consumes.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import MU0
from .errors import (
    EmptyFile,
    InsufficientSamples,
    MissingBranch,
    NonPhysicalParameterWarning,
    ParseError,
    UnitError,
)

_MIN_BRANCH_SAMPLES = 10
_SLOPE_POINTS = 5
"""Samples in the least-squares line (with intercept) of the initial slopes chi_in, chi_an."""


class Unit(enum.Enum):
    """Interpretation of the M column.  Values match the CLI flag."""

    M_A_PER_M = "m"
    J_TESLA = "j"
    B_TESLA = "b"


class CurveKind(enum.Enum):
    ANHYSTERETIC = "anhysteretic"
    FIRST_MAGNETIZATION = "first_magnetization"
    FULL_LOOP = "full_loop"


_MONOTONE_KINDS = (CurveKind.ANHYSTERETIC, CurveKind.FIRST_MAGNETIZATION)


@dataclass(frozen=True)
class MagnetizationCurve:
    """An ordered set of (H, M) samples in A/m.

    For anhysteretic and first-magnetization kinds H must be strictly
    increasing; loop kinds are time-ordered instead.  A ``kind`` value is
    stored as its :class:`CurveKind` member.
    """

    H: np.ndarray
    M: np.ndarray
    kind: CurveKind

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", CurveKind(self.kind))
        H = np.asarray(self.H, dtype=np.float64)
        M = np.asarray(self.M, dtype=np.float64)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "M", M)
        if H.ndim != 1 or H.shape != M.shape:
            raise ValueError(f"H and M must be 1-d and equal length, got {H.shape} and {M.shape}")
        if H.size == 0:
            raise ValueError("curve must contain at least one sample")
        if not (np.all(np.isfinite(H)) and np.all(np.isfinite(M))):
            raise ValueError("curve contains non-finite values")
        if self.kind in _MONOTONE_KINDS and H.size > 1 and not np.all(np.diff(H) > 0.0):
            raise ValueError(f"{self.kind.value} curve requires strictly increasing H")

    def __len__(self) -> int:
        return int(self.H.size)

    def check_amplitude(self, Ms: float) -> None:
        """Warn when |M| exceeds the stated saturation by more than 10%."""
        peak = float(np.max(np.abs(self.M)))
        if peak > 1.1 * Ms:
            warnings.warn(
                f"|M| reaches {peak:.4g} A/m, above 1.1*Ms = {1.1 * Ms:.4g}",
                NonPhysicalParameterWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class LoopFeatures:
    """Scalar features of a measured hysteresis loop.

    chi_in:  initial slope of the first-magnetization curve
    chi_an:  initial slope of the anhysteretic curve
    chi_max: slope of the loop at the coercive point
    chi_r:   slope of the descending branch at remanence
    chi_m:   slope at the loop tip
    Hc, Mr:  coercive field and remanence (both reported positive)
    Hm, Mm:  tip field and tip magnetization
    """

    chi_in: float
    chi_an: float
    chi_max: float
    chi_r: float
    chi_m: float
    Hc: float
    Mr: float
    Hm: float
    Mm: float

    def __post_init__(self) -> None:
        for name in ("Hc", "Mr", "Hm", "Mm"):
            if not np.isfinite(v := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {v}")
        for name in ("chi_in", "chi_an", "chi_max", "chi_r", "chi_m"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and non-negative, got {v}")
            if v == 0.0:
                warnings.warn(f"{name} is zero", NonPhysicalParameterWarning, stacklevel=2)
        if self.Hc < 0.0:
            raise ValueError(f"Hc must be non-negative, got {self.Hc}")
        if self.Hc == 0.0:
            warnings.warn("Hc is zero (lossless loop)", NonPhysicalParameterWarning, stacklevel=2)
        if abs(self.Mr) > abs(self.Mm):
            raise ValueError(f"|Mr| = {abs(self.Mr):.6g} exceeds |Mm| = {abs(self.Mm):.6g}")
        if not self.Hm > self.Hc:
            raise ValueError(f"Hm = {self.Hm:.6g} must exceed Hc = {self.Hc:.6g}")


def _convert_m(h: np.ndarray, raw: np.ndarray, unit: Unit) -> np.ndarray:
    if unit is Unit.M_A_PER_M:
        return raw
    if unit is Unit.J_TESLA:
        return raw / MU0
    return raw / MU0 - h


_AUTO_DELIMITERS = (",", ";", "\t")
"""Delimiters tried in this order; whitespace is the fallback."""


def parse_curve(
    path: str | Path,
    *,
    kind: CurveKind,
    unit: Unit = Unit.M_A_PER_M,
) -> MagnetizationCurve:
    """Read a delimited text file into a :class:`MagnetizationCurve`.

    The file is UTF-8 text; a leading byte-order mark is accepted.  H and M
    are the first two columns of each row, split on the first of comma,
    semicolon and tab that the row holds (on whitespace when it holds
    none).  One leading row is skipped if and only if none of its cells
    parse as numbers.  Blank lines are ignored.  Curves whose kind requires
    monotone H are sorted by H before validation.  Raises
    :class:`ParseError` (with the 1-based line number, or naming the file
    when it is not UTF-8), :class:`UnitError` or :class:`EmptyFile`.

    A well-formed file is read in bulk by ``np.loadtxt``: every data row split
    on one comma, semicolon or tab (or, when no row holds any of them, on
    whitespace) into at least two cells, every H and M cell a number, and no
    row holding a delimiter that comes earlier in that list.  Other files
    (mixed delimiters, a short row, a bad cell, or cells that ``float`` reads
    and numpy does not, such as ``1_000`` or non-ASCII digits) are read line
    by line.  numpy gives ``float``'s bits for every cell it reads, and every
    error comes from the line-by-line path, so both paths give the same
    outcome.  ``kind`` and ``unit`` also accept enum values.
    """
    kind = CurveKind(kind)
    if isinstance(unit, str):
        try:
            unit = Unit(unit)
        except ValueError:
            raise UnitError(f"unknown unit {unit!r}; expected one of m, j, b") from None

    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text (byte {err.start}: {err.reason})") from None
    lines = text.splitlines()
    rows = list(filter(str.strip, lines))
    skip = int(bool(rows) and _is_header(_split_cells(rows[0])))
    del rows[:skip]
    columns = _read_columns(rows)
    if columns is None:
        columns = _read_lines(rows, lines, skip)
    H, raw = columns
    if not H.size:
        raise EmptyFile(f"{path}: no data rows")

    M = _convert_m(H, raw, unit)
    if kind in _MONOTONE_KINDS:
        order = np.argsort(H, kind="stable")
        H, M = H[order], M[order]
    return MagnetizationCurve(H=H, M=M, kind=kind)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _delimiter(line: str) -> str | None:
    """The first of comma, semicolon and tab that ``line`` holds, else None (whitespace)."""
    for cand in _AUTO_DELIMITERS:
        if cand in line:
            return cand
    return None


def _split_cells(line: str) -> list[str]:
    delim = _delimiter(line)
    if delim is None:
        return line.split()
    return [c.strip() for c in line.split(delim)]


def _is_header(cells: list[str]) -> bool:
    """A row of at least two cells, none of whose non-empty cells is a number."""
    return len(cells) >= 2 and all(not _is_number(c) for c in cells if c)


def _read_columns(rows: list[str]) -> tuple[np.ndarray, np.ndarray] | None:
    """The raw H and M columns read in bulk, or None when the rows need :func:`_read_lines`."""
    if not rows:
        return np.empty(0), np.empty(0)
    delim = _delimiter(rows[0])
    earlier = _AUTO_DELIMITERS[: _AUTO_DELIMITERS.index(delim)] if delim else _AUTO_DELIMITERS
    joined = "\n".join(rows)
    if any(c in joined for c in earlier):
        return None
    try:  # no comment character: the line reader has none
        H, M = np.loadtxt(rows, delimiter=delim, comments=None, usecols=(0, 1), ndmin=2).T
    except ValueError:
        return None
    return H, M


def _read_lines(rows: list[str], lines: list[str], skip: int) -> tuple[np.ndarray, np.ndarray]:
    """The raw H and M columns read one row at a time.

    ``rows`` are the non-blank ``lines`` of the file after the first ``skip``.
    The first bad row raises :class:`ParseError` with its 1-based line number.
    """
    pairs: list[tuple[float, float]] = []
    for i, row in enumerate(rows):
        cells = _split_cells(row)
        if len(cells) < 2:
            problem = f"expected at least 2 columns, got {len(cells)}"
        else:
            try:
                pairs.append((float(cells[0]), float(cells[1])))
                continue
            except ValueError:
                problem = f"non-numeric cell in {cells!r}"
        lineno = [n for n, line in enumerate(lines, start=1) if line.strip()][skip + i]
        raise ParseError(f"line {lineno}: {problem}", line=lineno)

    arr = np.asarray(pairs, dtype=np.float64).reshape(-1, 2)
    return arr[:, 0], arr[:, 1]


def split_branches(loop: MagnetizationCurve) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Split a time-ordered loop into its last descending and ascending runs.

    A run is a maximal stretch of steps that move H the same way.  A flat step
    (a repeated field, as in quantized data) inside a run continues it; one at a
    turning point or at an end of the loop belongs to no run.

    Returns ``((H_desc, M_desc), (H_asc, M_asc))`` in traversal order.
    Raises :class:`MissingBranch` when either run is absent and
    :class:`InsufficientSamples` when a branch has fewer than 10 samples.
    """
    H, M = loop.H, loop.M
    if H.size < 2:
        raise MissingBranch("loop has fewer than two samples")
    # run r spans samples starts[r]..stops[r] - 1, from its first moving step to its
    # last, so adjacent runs share their turning sample unless a flat stretch parts them
    d = np.sign(np.diff(H))
    moves = np.flatnonzero(d)
    starts = moves[np.diff(d[moves], prepend=np.nan) != 0.0]
    stops = moves[np.diff(d[moves], append=np.nan) != 0.0] + 2
    desc = np.flatnonzero(d[starts] < 0.0)
    asc = np.flatnonzero(d[starts] > 0.0)
    if not desc.size or not asc.size:
        raise MissingBranch("loop must contain both a descending and an ascending branch")
    sd, ed = starts[desc[-1]], stops[desc[-1]]
    sa, ea = starts[asc[-1]], stops[asc[-1]]
    for s, e, label in ((sd, ed, "descending"), (sa, ea, "ascending")):
        if e - s < _MIN_BRANCH_SAMPLES:
            raise InsufficientSamples(
                f"{label} branch has {e - s} samples; at least {_MIN_BRANCH_SAMPLES} required"
            )
    return (H[sd:ed], M[sd:ed]), (H[sa:ea], M[sa:ea])


def _origin_slope(H: np.ndarray, M: np.ndarray, label: str) -> float:
    """Least-squares slope over the first ``_SLOPE_POINTS`` samples with H >= 0 (increasing H)."""
    start = int(np.searchsorted(H, 0.0))
    h, m = H[start:start + _SLOPE_POINTS], M[start:start + _SLOPE_POINTS]
    if h.size < 2:
        raise InsufficientSamples(
            f"{label} curve has {h.size} samples with H >= 0; its initial slope needs 2"
        )
    hm = h - h.mean()
    denom = float(np.dot(hm, hm))
    if denom == 0.0:
        raise InsufficientSamples("degenerate field values in slope window")
    return float(np.dot(hm, m - m.mean()) / denom)


def _branch_slope_fn(Hb: np.ndarray, Mb: np.ndarray):
    """Slope lookup on a branch: central differences on a uniform regrid."""
    order = np.argsort(Hb, kind="stable")
    Hs, Ms_ = Hb[order], Mb[order]
    n = Hs.size
    Hg = np.linspace(Hs[0], Hs[-1], n)
    Mg = np.interp(Hg, Hs, Ms_)
    Sg = np.gradient(Mg, Hg)
    return lambda h: float(np.interp(h, Hg, Sg))


def _crossing(x: np.ndarray, y: np.ndarray) -> float:
    """First x where the descending branch's y meets 0: a sample on it, or interpolated."""
    neg = y < 0.0
    hits = np.flatnonzero((y == 0.0) | np.append(neg[:-1] != neg[1:], False))
    if not hits.size:
        raise MissingBranch(f"descending branch never reaches M = 0 "
                            f"(M from {y[0]:.6g} to {y[-1]:.6g} A/m)")
    j = hits[0]
    if y[j] == 0.0:
        return float(x[j])
    frac = y[j] / (y[j] - y[j + 1])
    return float(x[j] + frac * (x[j + 1] - x[j]))


def extract_features(
    first_mag: MagnetizationCurve,
    loop: MagnetizationCurve,
    anhysteretic: MagnetizationCurve,
) -> LoopFeatures:
    """Measure the loop features used by the loop-fitting procedure.

    The initial slopes chi_in and chi_an are the slopes of least-squares
    lines, with intercept, over the first 5 samples with H >= 0 of the
    first-magnetization and anhysteretic curves; fewer than 2 such samples
    raise :class:`InsufficientSamples`.  Hc, Mr and the branch slopes are
    read off the descending branch with linear interpolation; the tip
    (Hm, Mm) and the tip slope are taken at the top of the last ascending
    branch.
    """
    for curve, label in ((first_mag, "first_mag"), (anhysteretic, "anhysteretic")):
        if len(curve) < _MIN_BRANCH_SAMPLES:
            raise InsufficientSamples(f"{label} curve has {len(curve)} samples; need {_MIN_BRANCH_SAMPLES}")

    (Hd, Md), (Hasc, Masc) = split_branches(loop)

    # the tip of the last cycle: the first sample at the top of the ascending branch
    i_tip = int(np.argmax(Hasc))
    Hm = float(Hasc[i_tip])
    Mm = float(Masc[i_tip])

    h_cross = _crossing(Hd, Md)  # descending branch crosses M=0 at -Hc
    Hc = abs(h_cross)
    if not (Hd.min() < 0.0 < Hd.max()):
        raise MissingBranch("descending branch does not span H = 0")
    Mr = float(np.interp(0.0, Hd[::-1], Md[::-1]))

    desc_slope = _branch_slope_fn(Hd, Md)
    asc_slope = _branch_slope_fn(Hasc, Masc)
    chi_max = desc_slope(h_cross)
    chi_r = desc_slope(0.0)
    chi_m = asc_slope(Hm)

    chi_in = _origin_slope(first_mag.H, first_mag.M, "first_mag")
    chi_an = _origin_slope(anhysteretic.H, anhysteretic.M, "anhysteretic")

    return LoopFeatures(
        chi_in=chi_in,
        chi_an=chi_an,
        chi_max=chi_max,
        chi_r=chi_r,
        chi_m=chi_m,
        Hc=Hc,
        Mr=abs(Mr),
        Hm=Hm,
        Mm=Mm,
    )
