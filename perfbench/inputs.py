"""Seeded, numpy-only input generator for the benchmark.

Nothing here imports jamag: the curves are produced by an independent
implementation of the models jamag claims to solve, so a change to jamag's
forward model leaves the benchmark's input bytes unchanged and shows up as
a failed output check instead.

- ``anhysteretic``: the implicit Langevin curve M = Ms*L((H + alpha*M)/aJ),
  solved to full double precision by safeguarded Newton on [0, Ms].
- ``rk4_loop``: the hysteresis ODE documented in ``jamag/simulate.py``,

      dM/dH = [(Man - M)/(delta*k - alpha*(Man - M)) + c*dMan/dH] / (1 + c),

  integrated with classical RK4 on the half-step grid of each waveform
  segment, committed M clamped to [-Ms, Ms].

Each workload draws its parameter sets from one ``numpy.random.Generator``
seeded by the run's seed.  Sizes (curve lengths, step counts) are not
drawn: a pool of n inputs has the n midpoints of n equal slices of the size
range, in a seeded order, so every run does the same mix of work and its
median command does not depend on a lucky draw.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MS = 1.6e6
"""Saturation magnetization of every generated material, A/m."""

TEMP = 303.5
"""Temperature of every generated material, K."""

MU0 = 4e-7 * math.pi

GRID_ROWS = (
    (972.0, 1.4e-3),
    (972.0, 1.0e-3),
    (972.0, 1.8e-3),
    (800.0, 1.4e-3),
    (1000.0, 1.4e-3),
    (1200.0, 1.4e-3),
)
"""The (aJ, alpha) rows of ``jamag validate``, copied so inputs stay fixed."""

ANHYST_HMAX = 1.0e4
ANHYST_JITTER = 0.05
"""Relative half-width of the uniform jitter applied to aJ and alpha."""
ANHYST_MAX_COUPLING = 0.99
"""Upper limit on alpha*Ms/(3*aJ); the curve is multivalued at 1."""
ANHYST_NOISE_MAX = 0.002
"""Largest Gaussian noise standard deviation, as a fraction of Ms."""

def langevin(x: np.ndarray) -> np.ndarray:
    """L(x) = coth(x) - 1/x, with its Taylor series below |x| = 1e-3."""
    x = np.asarray(x, dtype=np.float64)
    small = np.abs(x) < 1e-3
    safe = np.where(small, 1.0, x)
    x2 = x * x
    series = x * (1.0 / 3.0 - x2 / 45.0 + 2.0 * x2 * x2 / 945.0)
    return np.where(small, series, 1.0 / np.tanh(safe) - 1.0 / safe)


def langevin_prime(x: np.ndarray) -> np.ndarray:
    """L'(x) = 1/x^2 - 1/sinh(x)^2, with its series below |x| = 1e-3."""
    x = np.asarray(x, dtype=np.float64)
    small = np.abs(x) < 1e-3
    safe = np.where(small, 1.0, x)
    with np.errstate(over="ignore"):  # sinh overflows to inf, 1/inf^2 is 0
        closed = 1.0 / (safe * safe) - 1.0 / np.sinh(safe) ** 2
    return np.where(small, 1.0 / 3.0 - x * x / 15.0, closed)


def anhysteretic(H: np.ndarray, aJ: float, alpha: float, Ms: float) -> np.ndarray:
    """Implicit anhysteretic curve on the fields ``H``, exactly odd in H."""
    if not alpha * Ms / (3.0 * aJ) < 1.0:
        raise ValueError("alpha*Ms/(3*aJ) must be below 1")
    H = np.asarray(H, dtype=np.float64)
    A = np.abs(H)
    lo = np.zeros_like(A)
    hi = np.full_like(A, Ms)
    M = Ms * langevin(A / aJ)
    for _ in range(200):
        x = (A + alpha * M) / aJ
        g = M - Ms * langevin(x)
        lo = np.where(g < 0.0, M, lo)
        hi = np.where(g > 0.0, M, hi)
        nxt = M - g / (1.0 - (alpha * Ms / aJ) * langevin_prime(x))
        nxt = np.where((nxt <= lo) | (nxt >= hi), 0.5 * (lo + hi), nxt)
        if np.max(np.abs(nxt - M)) <= 4e-16 * Ms:
            return np.sign(H) * nxt
        M = nxt
    raise RuntimeError("anhysteretic reference solve did not converge")


def anhysteretic_slope(H: np.ndarray, M: np.ndarray, aJ: float, alpha: float, Ms: float) -> np.ndarray:
    """dMan/dH by the implicit-function rule, t/(1 - alpha*t)."""
    t = (Ms / aJ) * langevin_prime((H + alpha * M) / aJ)
    return t / (1.0 - alpha * t)


def cyclic_targets(hmax: float, cycles: int) -> tuple[float, ...]:
    """Rise from 0 to +hmax, then ``cycles`` full cycles, as in jamag."""
    return (0.0, hmax) + (-hmax, hmax) * cycles


def rk4_loop(
    aJ: float, alpha: float, c: float, k: float, Ms: float,
    targets: tuple[float, ...], steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the hysteresis ODE along a piecewise-linear field trace.

    Returns (H, M) with one sample per step plus the initial point (M0 = 0).
    """
    n_seg = len(targets) - 1
    H_out = np.empty(n_seg * steps + 1)
    M_out = np.empty_like(H_out)
    H_out[0] = targets[0]
    M_out[0] = M = 0.0
    c1 = 1.0 + c
    for seg in range(n_seg):
        h0, h1 = targets[seg], targets[seg + 1]
        delta = 1.0 if h1 > h0 else -1.0
        grid = np.linspace(h0, h1, 2 * steps + 1)
        man_a = anhysteretic(grid, aJ, alpha, Ms)
        cs = (c * anhysteretic_slope(grid, man_a, aJ, alpha, Ms)).tolist()
        man = man_a.tolist()
        dk = delta * k
        h = (h1 - h0) / steps
        hh = 0.5 * h
        base = seg * steps
        for i in range(steps):
            n0 = 2 * i
            m0, mh, m1 = man[n0], man[n0 + 1], man[n0 + 2]
            d = m0 - M
            k1 = (d / (dk - alpha * d) + cs[n0]) / c1
            d = mh - (M + hh * k1)
            k2 = (d / (dk - alpha * d) + cs[n0 + 1]) / c1
            d = mh - (M + hh * k2)
            k3 = (d / (dk - alpha * d) + cs[n0 + 1]) / c1
            d = m1 - (M + h * k3)
            k4 = (d / (dk - alpha * d) + cs[n0 + 2]) / c1
            M = M + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if M > Ms:
                M = Ms
            elif M < -Ms:
                M = -Ms
            M_out[base + i + 1] = M
        H_out[base + 1: base + steps + 1] = grid[2::2]
    return H_out, M_out


def spread_sizes(rng: np.random.Generator, n: int, lo: int, hi: int) -> list[int]:
    """The midpoints of ``n`` equal slices of [lo, hi], in a seeded order."""
    sizes = [lo + round((hi - lo) * (i + 0.5) / n) for i in range(n)]
    return [sizes[i] for i in rng.permutation(n)]


def write_curve(path: Path, H: np.ndarray, M: np.ndarray) -> None:
    lines = ["H,M"]
    lines.extend(f"{h!r},{m!r}" for h, m in zip(H.tolist(), M.tolist()))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Case:
    """One generated input: the files jamag reads, the flags, and the truth."""

    files: dict[str, Path]
    flags: list[str]
    truth: dict[str, float]
    size: int
    """Samples or steps jamag handles; the largest case is run as a process."""
    ref: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)


def _anhyst_params(rng: np.random.Generator, row: int) -> tuple[float, float, float]:
    aJ0, alpha0 = GRID_ROWS[row % len(GRID_ROWS)]
    while True:
        aJ = aJ0 * (1.0 + ANHYST_JITTER * rng.uniform(-1.0, 1.0))
        alpha = alpha0 * (1.0 + ANHYST_JITTER * rng.uniform(-1.0, 1.0))
        if alpha * MS / (3.0 * aJ) < ANHYST_MAX_COUPLING:
            return aJ, alpha, ANHYST_NOISE_MAX * rng.random() * MS


def anhyst_cases(seed: int, n: int, lengths: list[int] | None, out: Path) -> list[Case]:
    """Noisy anhysteretic curves around the validate grid rows.

    Draw i uses grid row (r0 + i) mod 6, so any six consecutive commands
    cover every row.  Parameters and noise come from separate streams, so
    draw i has the same parameters whatever the curve lengths.  ``lengths=None`` gives the 200-sample grid of
    ``validate``; otherwise draw i has ``lengths[i]`` samples.
    """
    rng = np.random.default_rng([seed, 1])
    noise = np.random.default_rng([seed, 5])
    r0 = int(rng.integers(len(GRID_ROWS)))
    cases = []
    for i in range(n):
        aJ, alpha, sigma = _anhyst_params(rng, r0 + i)
        npts = 200 if lengths is None else lengths[i]
        H = np.linspace(ANHYST_HMAX / npts, ANHYST_HMAX, npts)
        M = anhysteretic(H, aJ, alpha, MS) + sigma * noise.standard_normal(npts)
        path = out / f"anh_{i:03d}.csv"
        write_curve(path, H, M)
        cases.append(Case(
            files={"data": path},
            flags=[str(path), "--ms", repr(MS), "--temp", repr(TEMP)],
            truth={"aJ": aJ, "alpha": alpha, "noise": sigma},
            size=npts,
        ))
    return cases


def loop_cases(seed: int, n: int, out: Path) -> list[Case]:
    """Parameter sets for ``simulate-loop``: 3 cycles, 10k-20k steps per segment.

    aJ and alpha reach jamag as a fit-report JSON (``--params``), the way a
    fit feeds a simulation; c, k, hmax and the step count are flags.
    """
    rng = np.random.default_rng([seed, 2])
    steps = spread_sizes(rng, n, 10_000, 20_000)
    cases = []
    for i in range(n):
        aJ = rng.uniform(850.0, 1150.0)
        alpha = rng.uniform(1.1e-3, 1.6e-3)
        c = rng.uniform(0.05, 0.3)
        k = rng.uniform(500.0, 1200.0)
        hmax = rng.uniform(3000.0, 9000.0)
        path = out / f"params_{i:03d}.json"
        report = {"config": {"ms": MS}, "result": {"aJ": aJ, "alpha": alpha}}
        path.write_text(json.dumps(report, sort_keys=True) + "\n", encoding="utf-8")
        ref = rk4_loop(aJ, alpha, c, k, MS, cyclic_targets(hmax, 3), steps[i])
        cases.append(Case(
            files={"params": path},
            flags=[
                "--params", str(path), "--c", repr(c), "--k", repr(k), "--hmax", repr(hmax),
                "--cycles", "3", "--steps", str(steps[i]),
            ],
            truth={"aJ": aJ, "alpha": alpha, "c": c, "k": k, "hmax": hmax},
            size=7 * steps[i],
            ref=ref,
        ))
    return cases


JILES_STEPS = 5000
"""Steps per segment of the measured loop: 2 cycles, 25 001 rows."""
JILES_ANH_ROWS = 2000


def jiles_cases(seed: int, n: int, out: Path) -> list[Case]:
    """Noiseless dense loops, their first-magnetization branch and anhysteretic curve.

    k and c are kept below 1000 A/m and 0.15: with both higher, jamag's
    estimate abandons every seed on some draws and exits 3.  Below them no
    command fails; fits that miss the fit condition still show in the
    accuracy figures.
    """
    rng = np.random.default_rng([seed, 3])
    cases = []
    for i in range(n):
        aJ = rng.uniform(900.0, 1100.0)
        alpha = rng.uniform(1.3e-3, 1.5e-3)
        c = rng.uniform(0.05, 0.15)
        k = rng.uniform(600.0, 1000.0)
        hmax = rng.uniform(4000.0, 8000.0)
        H, M = rk4_loop(aJ, alpha, c, k, MS, cyclic_targets(hmax, 2), JILES_STEPS)
        Ha = np.linspace(hmax / JILES_ANH_ROWS, hmax, JILES_ANH_ROWS)
        files = {
            "loop": out / f"loop_{i:03d}.csv",
            "first_mag": out / f"first_{i:03d}.csv",
            "anhysteretic": out / f"anh_{i:03d}.csv",
        }
        write_curve(files["loop"], H, M)
        write_curve(files["first_mag"], H[: JILES_STEPS + 1], M[: JILES_STEPS + 1])
        write_curve(files["anhysteretic"], Ha, anhysteretic(Ha, aJ, alpha, MS))
        cases.append(Case(
            files=files,
            flags=[
                "--loop", str(files["loop"]), "--first-mag", str(files["first_mag"]),
                "--anhysteretic", str(files["anhysteretic"]),
                "--ms", repr(MS), "--temp", repr(TEMP),
            ],
            truth={"aJ": aJ, "alpha": alpha, "c": c, "k": k, "hmax": hmax},
            size=H.size,
        ))
    return cases
