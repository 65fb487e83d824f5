"""Hysteresis loop simulation.

The magnetization follows a first-order ODE in the applied field H:

    dM/dH = [ (M_an - M) / (delta*k - alpha*(M_an - M))  +  c * dM_an/dH ] / (1 + c)

where M_an(H) is the self-consistent anhysteretic curve, delta = sign(dH/dt)
selects the branch, k (A/m) is the pinning strength and c in [0, 1] the
reversibility fraction.  The field trace is a piecewise-linear waveform and
the ODE is integrated with fixed-step classical Runge-Kutta per segment.

M_an depends on H only, so it is pre-evaluated on each segment's half-step
grid in one vectorized solve, once per distinct segment of the waveform.
The stepping runs on plain Python floats: the pre-solved arrays are
converted with ``tolist`` and M is collected in blocks of ``_BLOCK_STEPS``
steps, which keeps both the per-step cost and the memory of the lists
small.  A cyclic loop repeats its segments, each also the one before it negated
(M_an is odd in H), and a repeat's trajectory joins the earlier one's bit for bit,
negated alike, from the start on its limit cycle and partway before it; from the
step where it joins, its rows are copied, not integrated.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import _implicit_array, _slope_raw
from .dataio import CurveKind, MagnetizationCurve
from .errors import NonPhysicalParameterWarning, SingularDenominator


@dataclass(frozen=True)
class HysteresisParams:
    """Full parameter set of the hysteresis ODE (SI units)."""

    aJ: float
    alpha: float
    c: float
    k: float
    Ms: float

    def __post_init__(self) -> None:
        for name in ("aJ", "k", "Ms"):
            v = getattr(self, name)
            if not 0.0 < v < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if not 0.0 <= self.alpha < np.inf:
            raise ValueError(f"alpha must be non-negative and finite, got {self.alpha}")
        if not np.isfinite(self.c):
            raise ValueError(f"c must be finite, got {self.c}")
        if not 0.0 <= self.c <= 1.0:
            warnings.warn(
                f"reversibility fraction c = {self.c} outside [0, 1]",
                NonPhysicalParameterWarning,
                stacklevel=2,
            )
        if self.c == -1.0:
            raise ValueError("c = -1 makes the 1 + c divisor of dM/dH vanish")


@dataclass(frozen=True)
class FieldWaveform:
    """Piecewise-linear applied-field trace.

    ``targets`` are the vertex fields; each consecutive pair is one segment
    integrated in ``steps_per_segment`` equal H steps; its span must be finite.
    """

    targets: tuple[float, ...]
    steps_per_segment: int = 2000

    def __post_init__(self) -> None:
        t = tuple(float(v) for v in self.targets)
        object.__setattr__(self, "targets", t)
        if len(t) < 2:
            raise ValueError("waveform needs at least two targets (one segment)")
        for i, (a, b) in enumerate(zip(t, t[1:])):  # a non-finite target gives a non-finite span
            if not 0.0 < abs(b - a) < np.inf:
                raise ValueError(f"waveform segment {i} from {a!r} to {b!r} A/m spans {b - a!r}, "
                                 "where a finite, non-zero span is needed")
        if self.steps_per_segment < 2:
            raise ValueError(f"steps_per_segment must be at least 2, got {self.steps_per_segment}")

    @classmethod
    def cyclic(
        cls, hmax: float, *, cycles: int = 3, steps_per_segment: int = 2000
    ) -> "FieldWaveform":
        """Initial rise from 0 to +hmax, then ``cycles`` full cycles."""
        if not 0.0 < hmax < np.inf:
            raise ValueError(f"hmax must be positive and finite, got {hmax}")
        if cycles < 1:
            raise ValueError(f"cycles must be at least 1, got {cycles}")
        targets = (0.0, hmax) + (-hmax, hmax) * cycles
        return cls(targets=targets, steps_per_segment=steps_per_segment)

    @property
    def n_segments(self) -> int:
        return len(self.targets) - 1

    def segment_slice(self, i: int) -> slice:
        """Index range of segment ``i`` in the integrate() output (inclusive ends)."""
        s = self.steps_per_segment
        return slice(i * s, (i + 1) * s + 1)


_MAN_REL_TOL = 1e-12  # tolerance of the anhysteretic solve, as a fraction of Ms

_BLOCK_STEPS = 2048
"""RK4 steps per block: the anhysteretic values are turned into float lists
and M is collected this many steps at a time."""


def _rhs(
    man: float, c_slope: float, M: float, delta: float, dk: float, alpha: float, c1: float,
    clamp: bool,
) -> float:
    """dM/dH at one point, from ``c*dM_an/dH``, ``delta*k`` and ``1 + c``."""
    dm = man - M
    if clamp and delta * dm < 0.0:
        irr = 0.0
    else:
        denom = dk - alpha * dm
        if denom == 0.0:
            raise SingularDenominator(
                f"delta*k - alpha*(M_an - M) vanished (M_an - M = {dm:.6g})"
            )
        irr = dm / denom
    return (irr + c_slope) / c1


def dM_dH(H: float, M: float, delta: int, p: HysteresisParams, *, clamp: bool = False) -> float:
    """Right-hand side of the hysteresis ODE at a single point.

    ``delta`` must be +1 (ascending field) or -1 (descending).  With
    ``clamp=True`` the irreversible term is zeroed whenever it would drive
    M away from the anhysteretic curve (delta*(M_an - M) < 0), a common
    regularization for loop tips.  Raises :class:`SingularDenominator` when the
    pinning denominator vanishes, and the solve's :class:`UnstableParams`.
    """
    if delta not in (1, -1):
        raise ValueError(f"delta must be +1 or -1, got {delta}")
    man = float(_implicit_array(np.array([float(H)]), p.aJ, p.alpha, p.Ms, _MAN_REL_TOL * p.Ms)[0])
    man_slope = _slope_raw(H, man, p.aJ, p.alpha, p.Ms)
    delta = float(delta)
    return _rhs(man, p.c * man_slope, M, delta, delta * p.k, p.alpha, 1.0 + p.c, clamp)


def integrate(
    p: HysteresisParams,
    waveform: FieldWaveform,
    M0: float = 0.0,
    *,
    clamp: bool = False,
) -> MagnetizationCurve:
    """Integrate the hysteresis ODE along a field waveform.

    Classical fixed-step RK4 per segment (the anhysteretic curve and its
    slope are pre-evaluated on the half-step grid, once for all segments
    with the same end fields).  The steps run on plain floats,
    ``_BLOCK_STEPS`` at a time, with :func:`_rhs` written inline.  Once a
    segment commits the same non-zero M at the same step as the last earlier segment
    over its grid, or over that grid negated (M negated), the rest is copied from it alike.
    Returns the sampled trajectory, one point per step plus the initial
    point; committed M values are limited to [-Ms, Ms] (a NaN one raises
    ValueError).  A vanishing pinning denominator is reported with the failing
    global step index; the first pre-solve raises UnstableParams if alpha*Ms/(3*aJ) >= 1.
    """
    if not abs(M0) <= p.Ms:
        raise ValueError(f"M0 must be finite with |M0| <= Ms = {p.Ms}, got {M0}")
    c, alpha, Ms = p.c, p.alpha, p.Ms
    c1 = 1.0 + c

    S = waveform.steps_per_segment
    tol = _MAN_REL_TOL * Ms
    H_out = np.empty(waveform.n_segments * S + 1)
    M_out = np.empty_like(H_out)
    H_out[0] = waveform.targets[0]
    M_out[0] = M = float(M0)

    # a cyclic waveform repeats its segments: pre-solve each distinct one once.  Two segments
    # over one grid that commit the same M at the same step go on identically, and over negated
    # grids, if M_an is odd and its slope even (compared, not assumed), as each other's negation.
    # A grid and its ``twin`` share one ``pair`` entry in ``last``: the latest segment over
    # either and its ``own`` sign.  A segment joins it (``ref``) at the first M that is ``sign``
    # times ref's at that step, and copies the rest.  Zero is skipped: 0.0 == -0.0, other bits
    presolved, last = {}, {}
    for seg in range(waveform.n_segments):
        step_base = seg * S
        h0, h1 = waveform.targets[seg], waveform.targets[seg + 1]
        delta = 1.0 if h1 > h0 else -1.0
        dk = delta * p.k
        key, twin = (h0.hex(), h1.hex()), ((-h0).hex(), (-h1).hex())
        if key not in presolved:
            grid = np.linspace(h0, h1, 2 * S + 1)
            man = _implicit_array(grid, p.aJ, alpha, Ms, tol)
            solved = np.array([grid, man, c * _slope_raw(grid, man, p.aJ, alpha, Ms)])
            mirrored = twin in presolved and np.array_equal(solved, presolved[twin][0] * [[-1.0], [-1.0], [1.0]])
            presolved[key] = (solved, twin, -1.0) if mirrored else (solved, key, 1.0)
        (grid, man, c_slope), pair, own = presolved[key]
        (ref, sign), last[pair] = last.get(pair, (None, 1.0)), (step_base, own)
        sign *= own
        h = (h1 - h0) / S
        half, sixth = 0.5 * h, h / 6.0
        H_out[step_base + 1 : step_base + S + 1] = grid[2::2]

        for b0 in range(0, S, _BLOCK_STEPS):
            b1 = min(b0 + _BLOCK_STEPS, S)
            man_b = man[2 * b0 : 2 * b1 + 1].tolist()
            cs_b = c_slope[2 * b0 : 2 * b1 + 1].tolist()
            ref_b = [np.nan] * (b1 - b0) if ref is None else (sign * M_out[ref + b0 + 1 : ref + b1 + 1]).tolist()
            block = []
            try:
                for m0, mh, m1, s0, sh, s1, m_ref in zip(
                    man_b[0::2], man_b[1::2], man_b[2::2], cs_b[0::2], cs_b[1::2], cs_b[2::2], ref_b
                ):
                    dm = m0 - M
                    k1 = ((0.0 if clamp and delta * dm < 0.0 else dm / (dk - alpha * dm)) + s0) / c1
                    dm = mh - (M + half * k1)
                    k2 = ((0.0 if clamp and delta * dm < 0.0 else dm / (dk - alpha * dm)) + sh) / c1
                    dm = mh - (M + half * k2)
                    k3 = ((0.0 if clamp and delta * dm < 0.0 else dm / (dk - alpha * dm)) + sh) / c1
                    dm = m1 - (M + h * k3)
                    k4 = ((0.0 if clamp and delta * dm < 0.0 else dm / (dk - alpha * dm)) + s1) / c1
                    M = M + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                    if M > Ms:
                        M = Ms
                    elif M < -Ms:
                        M = -Ms
                    block.append(M)
                    if M == m_ref and M:
                        break
            except ZeroDivisionError:
                # 1 + c is not 0, so dk - alpha*dm is, with dm the failing stage's M_an - M
                i = b0 + len(block)
                raise SingularDenominator(
                    f"delta*k - alpha*(M_an - M) vanished (M_an - M = {dm:.6g})"
                    f" at segment {seg}, step {i}",
                    step_index=step_base + i,
                ) from None
            done = step_base + b0 + len(block)
            M_out[step_base + b0 + 1 : done + 1] = block
            if M == m_ref and M:  # joined ref: the last step's test held
                # + 0.0 turns -0.0 to 0.0: after a non-zero M, integration gives no -0.0
                M_out[done + 1 : step_base + S + 1] = sign * M_out[done - step_base + ref + 1 : ref + S + 1] + 0.0
                M = float(M_out[step_base + S])
                break
        if M != M:  # a NaN persists past the clamp, so the segment's last M shows any of its steps
            i = int(np.argmax(np.isnan(M_out[step_base + 1 : step_base + S + 1])))
            raise ValueError(f"waveform segment {seg} from {h0!r} to {h1!r} A/m spans {h1 - h0!r}: "
                             f"M turns non-finite at step {i} of {S}, with RK4 field steps of {h!r} A/m")

    # a sample at M = +-Ms is the clamp's, unless the anhysteretic curve sits there too
    at = np.flatnonzero(np.abs(M_out[1:]) == Ms) + 1
    if at.size:
        at = at[_implicit_array(H_out[at], p.aJ, alpha, Ms, tol) != M_out[at]]
    if at.size:
        warnings.warn(f"{at.size} of {M_out.size - 1} samples after the first sit at the |M| = Ms clamp, the "
                      f"first at H = {float(H_out[at[0]])!r} A/m: there the loop is not the ODE's solution "
                      "(the model runs away, or the RK4 step is too coarse for it)", RuntimeWarning, stacklevel=2)
    return MagnetizationCurve(H=H_out, M=M_out, kind=CurveKind.FULL_LOOP)
