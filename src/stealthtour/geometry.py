"""Shortest bounded-curvature (Dubins) curves and arc-length sampling.

A curve between two oriented poses is the minimum over the six classic
families (LSL, RSR, LSR, RSL, RLR, LRL).  Curves chain into tours whose
consecutive endpoints share position and heading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Fixed enumeration order; ties between families resolve to the first one.
FAMILIES = ("LSL", "RSR", "LSR", "RSL", "RLR", "LRL")


@dataclass(frozen=True)
class Pose:
    """Planar position plus heading; heading is normalized on construction."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", self.theta % TWO_PI)


@dataclass(frozen=True)
class DubinsPath:
    """One curve between two poses.

    ``seg_params`` holds the three segment lengths in meters (arc segments
    are already multiplied by the radius).
    """

    family: str
    radius: float
    seg_params: tuple[float, float, float]
    start: Pose
    length: float


@dataclass(frozen=True)
class CompositePath:
    """A chain of Dubins curves forming a tour."""

    curves: tuple[DubinsPath, ...]
    total_length: float


def dubins_shortest(start: Pose, end: Pose, radius: float) -> DubinsPath:
    """Minimum-length curve over all feasible families for this pose pair."""
    family, seg0, seg1, seg2, length = dubins_solve(
        start.x, start.y, start.theta, end.x, end.y, end.theta, radius
    )
    return DubinsPath(FAMILIES[family], radius, (seg0, seg1, seg2), start, length)


def dubins_solve(x0, y0, theta0, x1, y1, theta1, radius) -> tuple[int, float, float, float, float]:
    """``dubins_shortest`` as floats: (family index in ``FAMILIES``, three segment lengths, length).

    Headings must lie in [0, 2*pi), as ``Pose`` keeps them.  The six families
    are solved in ``FAMILIES`` order from one set of sines and cosines, in
    normalized coordinates: d = distance / radius, and a / b are the start /
    end headings relative to the connecting segment.  Each family's (t, p, q)
    uses the expressions of ``oracles.dubins_shortest_reference``, and the
    first family with the least t + p + q wins.  Since t, q >= 0, a family
    whose p alone reaches the best total cannot win, and its turns are
    skipped.  Builds no object but the returned tuple.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if x0 == x1 and y0 == y1 and theta0 == theta1:
        return 0, 0.0, 0.0, 0.0, 0.0
    dx = x1 - x0
    dy = y1 - y0
    d = math.hypot(dx, dy) / radius
    phi = math.atan2(dy, dx)
    a = (theta0 - phi) % TWO_PI
    b = (theta1 - phi) % TWO_PI
    sa, ca, sb, cb = math.sin(a), math.cos(a), math.sin(b), math.cos(b)
    cab = math.cos(a - b)
    dd = d * d

    best = None
    best_len = math.inf
    # LSL
    p_sq = 2.0 + dd - 2.0 * cab + 2.0 * d * (sa - sb)
    if p_sq >= 0.0 and (p := math.sqrt(p_sq)) < best_len:
        tmp = math.atan2(cb - ca, d + sa - sb)
        t, q = (-a + tmp) % TWO_PI, (b - tmp) % TWO_PI
        if (total := t + p + q) < best_len:
            best_len, best = total, (0, t, p, q)
    # RSR
    p_sq = 2.0 + dd - 2.0 * cab + 2.0 * d * (sb - sa)
    if p_sq >= 0.0 and (p := math.sqrt(p_sq)) < best_len:
        tmp = math.atan2(ca - cb, d - sa + sb)
        t, q = (a - tmp) % TWO_PI, (tmp - b) % TWO_PI
        if (total := t + p + q) < best_len:
            best_len, best = total, (1, t, p, q)
    # LSR
    p_sq = -2.0 + dd + 2.0 * cab + 2.0 * d * (sa + sb)
    if p_sq >= 0.0 and (p := math.sqrt(p_sq)) < best_len:
        tmp = math.atan2(-ca - cb, d + sa + sb) - math.atan2(-2.0, p)
        t, q = (-a + tmp) % TWO_PI, (-b + tmp) % TWO_PI
        if (total := t + p + q) < best_len:
            best_len, best = total, (2, t, p, q)
    # RSL
    p_sq = -2.0 + dd + 2.0 * cab - 2.0 * d * (sa + sb)
    if p_sq >= 0.0 and (p := math.sqrt(p_sq)) < best_len:
        tmp = math.atan2(ca + cb, d - sa - sb) - math.atan2(2.0, p)
        t, q = (a - tmp) % TWO_PI, (b - tmp) % TWO_PI
        if (total := t + p + q) < best_len:
            best_len, best = total, (3, t, p, q)
    # RLR
    tmp = (6.0 - dd + 2.0 * cab + 2.0 * d * (sa - sb)) / 8.0
    if abs(tmp) <= 1.0 and (p := (TWO_PI - math.acos(tmp)) % TWO_PI) < best_len:
        t = (a - math.atan2(ca - cb, d - sa + sb) + p / 2.0) % TWO_PI
        q = (a - b - t + p) % TWO_PI
        if (total := t + p + q) < best_len:
            best_len, best = total, (4, t, p, q)
    # LRL
    tmp = (6.0 - dd + 2.0 * cab + 2.0 * d * (sb - sa)) / 8.0
    if abs(tmp) <= 1.0 and (p := (TWO_PI - math.acos(tmp)) % TWO_PI) < best_len:
        t = (-a - math.atan2(ca - cb, d + sa - sb) + p / 2.0) % TWO_PI
        q = (b - a - t + p) % TWO_PI
        if (total := t + p + q) < best_len:
            best_len, best = total, (5, t, p, q)
    assert best is not None  # at least one CSC family always exists
    family, t, p, q = best
    return family, t * radius, p * radius, q * radius, best_len * radius


def path_length(path: DubinsPath | CompositePath) -> float:
    if isinstance(path, CompositePath):
        return path.total_length
    return path.length


def _advance(x, y, theta, seg_type, s, rho):
    """Pose after moving arc length s along one segment; s may be an array."""
    if seg_type == "S":
        return x + s * np.cos(theta), y + s * np.sin(theta), theta + 0.0 * s
    if seg_type == "L":
        nt = theta + s / rho
        return x + rho * (np.sin(nt) - np.sin(theta)), y - rho * (np.cos(nt) - np.cos(theta)), nt
    nt = theta - s / rho
    return x + rho * (np.sin(theta) - np.sin(nt)), y - rho * (np.cos(theta) - np.cos(nt)), nt


def sample_many(path: DubinsPath, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized poses (x, y, theta arrays) at arc lengths ``s``."""
    s = np.asarray(s, dtype=float)
    if s.size and (s.min() < -1e-9 or s.max() > path.length + 1e-9):
        raise ValueError("arc length outside [0, length]")
    s = np.clip(s, 0.0, path.length)

    seg = path.seg_params
    starts = np.array([0.0, seg[0], seg[0] + seg[1]])
    # a point's segment is the count of segment ends at or below it, whatever
    # their order: rounding can put seg0 + seg1 past the length
    idx = (s >= starts[1]).astype(np.intp) + (s >= starts[2])

    # entry pose of each of the three segments
    entries = [(path.start.x, path.start.y, path.start.theta)]
    for k in range(2):
        ex, ey, eth = entries[k]
        entries.append(_advance(ex, ey, eth, path.family[k], seg[k], path.radius))

    xs = np.empty_like(s)
    ys = np.empty_like(s)
    ths = np.empty_like(s)
    for k in range(3):
        m = idx == k
        if not m.any():
            continue
        ex, ey, eth = entries[k]
        x, y, th = _advance(ex, ey, eth, path.family[k], s[m] - starts[k], path.radius)
        xs[m], ys[m], ths[m] = x, y, th
    return xs, ys, ths % TWO_PI


def sample(path: DubinsPath | CompositePath, s: float) -> Pose:
    """Pose on the curve (or tour) at arc length s."""
    if s < -1e-9 or s > path_length(path) + 1e-9:
        raise ValueError("arc length outside [0, length]")
    if isinstance(path, CompositePath):
        s = min(max(s, 0.0), path.total_length)
        for curve in path.curves:
            if s <= curve.length or curve is path.curves[-1]:
                return sample(curve, min(s, curve.length))
            s -= curve.length
        raise ValueError("empty composite path")
    x, y, th = sample_many(path, np.array([s]))
    return Pose(float(x[0]), float(y[0]), float(th[0]))


def path_end(path: DubinsPath) -> Pose:
    x, y, th = path.start.x, path.start.y, path.start.theta
    for k in range(3):
        x, y, th = _advance(x, y, th, path.family[k], path.seg_params[k], path.radius)
    return Pose(float(x), float(y), float(th))


def build_tour(poses: list[Pose], radii: list[float]) -> CompositePath:
    """Chain per-pair shortest curves through an ordered pose sequence."""
    if len(poses) < 2:
        raise ValueError("a tour needs at least 2 poses")
    if len(radii) != len(poses) - 1:
        raise ValueError("need exactly one radius per segment")
    curves = []
    total = 0.0
    for i in range(len(poses) - 1):
        curve = dubins_shortest(poses[i], poses[i + 1], radii[i])
        curves.append(curve)
        total += curve.length
    return CompositePath(tuple(curves), total)
