"""Attenuated-disk sensor field: point intensity and path exposure.

A node senses a point with strength alpha / distance**mu, clamped at
``cap`` so the integrand stays bounded at the node position.  Exposure is
the arc-length integral of the summed intensity along a tour, computed by
composite Simpson quadrature per curve, many curves per numpy pass.  Its
bytes are one set on every x86-64 host: it calls no BLAS, whose rounding
follows the CPU, and of numpy only ``+ - * /``, ``sqrt``, ``hypot``, ``sin``,
``cos``, ``minimum``, ``mod``, ``where``, add reductions and ``power`` at mu = 2,
whose bits do not follow the SIMD dispatch; ``power`` at other mu does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import FAMILIES, CompositePath, DubinsPath

# Largest magnitude of a coordinate, a budget or a turning radius, in metres;
# the smallest radius is its inverse.  Within these the Dubins solver's squared
# distance in radii (at most about 1e37) stays far from overflow.
WORKSPACE_BOUND = 1e9

# Most (sample point, sensor) pairs one curve's quadrature may take: 1e7 pairs
# keep each float temporary near 80 MB.  The builtin instances need at most
# about 26,000 (a 120 m curve at step 0.05 past 11 sensors).
MAX_QUADRATURE_PAIRS = 10_000_000

# Point-sensor pairs integrated in one pass.  Below a few thousand, numpy's
# per-call cost dominates a coarse step's ~20 points per curve; far above it,
# the pass's float temporaries (a few per pair) add to the peak memory.
BATCH_PAIRS = 1 << 15


class QuadratureTooLargeError(ValueError):
    """A curve needs more quadrature samples than ``MAX_QUADRATURE_PAIRS`` allows."""


@dataclass(frozen=True)
class SensorField:
    nodes: tuple[tuple[float, float], ...]
    alpha: float
    mu: float
    cap: float

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0.0 for v in (self.alpha, self.mu, self.cap)):
            raise ValueError("alpha, mu and cap must be finite and positive")
        for n in self.nodes:
            if not (math.isfinite(n[0]) and math.isfinite(n[1])):
                raise ValueError("sensor positions must be finite")
            if max(abs(n[0]), abs(n[1])) > WORKSPACE_BOUND:
                raise ValueError(f"sensor positions must lie within +-{WORKSPACE_BOUND:g}")

    def node_array(self) -> np.ndarray:
        return np.asarray(self.nodes, dtype=float).reshape(len(self.nodes), 2)


def intensity_many(field: SensorField, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Vectorized field intensity at many points."""
    if not field.nodes:
        return np.zeros_like(xs)
    nodes = field.node_array()
    vals = xs[:, None] - nodes[None, :, 0]
    dy = ys[:, None] - nodes[None, :, 1]
    # alpha / hypot(dx, dy)**mu clamped at cap, computed in place in one buffer
    np.hypot(vals, dy, out=vals)
    # a far point's distance**mu may overflow to inf, and its value be 0.0
    with np.errstate(over="ignore", divide="ignore"):
        vals **= field.mu
        np.divide(field.alpha, vals, out=vals)
    np.minimum(vals, field.cap, out=vals)
    return vals.sum(axis=1)


def check_step(step: float) -> None:
    """Refuse a quadrature spacing that is not finite and positive."""
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError("exposure step must be finite and positive")


def quadrature_pairs(field: SensorField, length: float, step: float) -> int:
    """(Simpson point, sensor) pairs of one curve's exposure at spacing <= step.

    Zero for a curve without length or a field without sensors, whose exposure
    is 0.0.  Raises ``QuadratureTooLargeError``, before anything is allocated,
    for a curve that would take more than ``MAX_QUADRATURE_PAIRS``.
    """
    check_step(step)
    sensors = len(field.nodes)
    if length <= 0.0 or not sensors:
        return 0
    points = length / step  # a float, so a huge count cannot overflow
    if points * sensors > MAX_QUADRATURE_PAIRS:
        raise QuadratureTooLargeError(
            f"a {length:.6g} m curve at exposure step {step:g} needs about {points:.3g} "
            f"quadrature points for each of {sensors} sensors, more than "
            f"{MAX_QUADRATURE_PAIRS:g} point-sensor pairs"
        )
    return (2 * max(1, math.ceil(length / (2.0 * step))) + 1) * sensors


def curve_row(curve: DubinsPath) -> tuple:
    """The curve as the float row ``row_exposures`` integrates:
    (length, radius, first and second segment lengths, start x, start y,
    start heading, family index in ``FAMILIES``)."""
    seg = curve.seg_params
    start = curve.start
    family = FAMILIES.index(curve.family)
    return (curve.length, curve.radius, seg[0], seg[1], start.x, start.y, start.theta, family)


def row_exposures(field: SensorField, rows, step: float) -> list[float]:
    """Composite Simpson exposure of each curve row, many rows sampled and sensed per pass.

    Every row's ``quadrature_pairs`` is counted first, so every curve is
    checked against the quadrature bound before any run starts.  Rows of
    positive cost go in runs that close once they reach ``BATCH_PAIRS``
    point-sensor pairs, so a run holds fewer than ``BATCH_PAIRS`` plus one
    curve's pairs whatever the number of rows.  Every value is bit-identical
    to integrating its curve alone with ``np.linspace``,
    ``geometry.sample_many`` and one ``np.add.reduceat``, the route kept in
    ``oracles.simpson_curve_exposure``.
    """
    pairs = [quadrature_pairs(field, row[0], step) for row in rows]
    runs, run_pairs = [[]], 0
    for k, p in enumerate(pairs):
        if not p:
            continue
        if run_pairs >= BATCH_PAIRS:
            runs.append([])
            run_pairs = 0
        runs[-1].append(k)
        run_pairs += p
    values = [0.0] * len(rows)
    for run in filter(None, runs):
        for k, v in zip(run, _simpson_run(field, [rows[k] for k in run], step)):
            values[k] = v
    return values


# each family's turn sign per segment: +1 left, -1 right, 0 straight
_TURNS = np.array([["RSL".index(letter) - 1.0 for letter in family] for family in FAMILIES])


def _simpson_run(field: SensorField, rows, step: float) -> list[float]:
    """Simpson exposure of curve rows of positive length, all sampled and sensed at once."""
    length, radius, seg0, seg1, x0, y0, theta0, family = np.array(rows).T
    c = len(rows)
    n = 2 * np.maximum(1, np.ceil(length / (2.0 * step)).astype(np.int64))
    first = np.cumsum(n + 1) - (n + 1)
    last = first + n
    curve_of = np.repeat(np.arange(c), n + 1)
    i = np.arange(int(last[-1]) + 1) - first[curve_of]
    # arc lengths as np.linspace(0, length, n + 1) gives them: i * (length / n),
    # then the end itself (its other branch, for length / n == 0, only runs
    # for a length of one subnormal unit, and gives the same points)
    h = length / n
    s = i * h[curve_of]
    s[last] = length

    # each point's segment is the count of segment ends at or below it, as
    # sample_many picks it
    ends = seg0 + seg1
    idx = (s >= seg0[curve_of]).astype(np.intp) + (s >= ends[curve_of])

    # where each curve's three segments begin: arc length, (x, y), heading, with
    # its sine and cosine, and the signed radius of an arc (sign +1 left, -1 right)
    turns = _TURNS[family.astype(np.intp)]
    signed = turns * radius[:, None]
    begin = np.stack([np.zeros(c), seg0, ends], axis=1)
    x, y, theta = np.empty((3, c, 3))
    sin_t, cos_t = np.empty((2, c, 3))
    x[:, 0], y[:, 0], theta[:, 0] = x0, y0, theta0
    for k, seg in enumerate((seg0, seg1)):
        sin_t[:, k], cos_t[:, k] = np.sin(theta[:, k]), np.cos(theta[:, k])
        x[:, k + 1], y[:, k + 1], theta[:, k + 1] = _move(
            x[:, k], y[:, k], theta[:, k], sin_t[:, k], cos_t[:, k], turns[:, k], seg, signed[:, k]
        )
    sin_t[:, 2], cos_t[:, 2] = np.sin(theta[:, 2]), np.cos(theta[:, 2])

    # each point from its segment's start
    piece = curve_of * 3 + idx
    ds = s - begin.ravel()[piece]
    xs, ys, _ = _move(
        *(a.ravel()[piece] for a in (x, y, theta, sin_t, cos_t, turns)), ds, signed.ravel()[piece]
    )
    vals = intensity_many(field, xs, ys)
    weights = np.where(i % 2 == 1, 4.0, 2.0)
    weights[first] = weights[last] = 1.0
    return (h / 3.0 * np.add.reduceat(weights * vals, first)).tolist()


def _move(x, y, theta, sin_t, cos_t, turn, ds, signed_radius):
    """(x, y, heading) after arc length ds along straight (turn 0) or arc pieces, elementwise.

    An arc of signed radius r = turn * radius ends at heading theta + ds / r
    and at (x + r (sin nt - sin theta), y - r (cos nt - cos theta)): with
    r < 0 these are, bit for bit, ``geometry``'s right-turn expressions, as
    IEEE negation is exact.
    """
    xs, ys, ths = x + ds * cos_t, y + ds * sin_t, theta.copy()
    arc = turn != 0.0
    r = signed_radius[arc]
    nt = ths[arc] = theta[arc] + ds[arc] / r
    xs[arc] = x[arc] + r * (np.sin(nt) - sin_t[arc])
    ys[arc] = y[arc] - r * (np.cos(nt) - cos_t[arc])
    return xs, ys, ths


def exposure(field: SensorField, path: CompositePath | DubinsPath, step: float) -> float:
    """Integral of field intensity along the path, sampled at spacing <= step.

    The curves' values are added from 0.0 in path order, the bits ``sum``
    gives before Python 3.12 (later ``sum``s compensate).
    """
    curves = path.curves if isinstance(path, CompositePath) else (path,)
    total = 0.0
    for value in row_exposures(field, [curve_row(c) for c in curves], step):
        total += value
    return total
