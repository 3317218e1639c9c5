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


@dataclass(frozen=True, init=False)
class Pose:
    """Planar position plus heading; heading is normalized on construction."""

    x: float
    y: float
    theta: float

    # Written out because the generated frozen __init__ plus a __post_init__
    # takes twice as long, and each Dubins curve solved builds two poses.
    def __init__(self, x: float, y: float, theta: float):
        _setattr(self, "x", x)
        _setattr(self, "y", y)
        _setattr(self, "theta", theta % TWO_PI)


_setattr = object.__setattr__  # what a frozen dataclass sets its fields with


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
    """Minimum-length curve over all feasible families for this pose pair.

    The six families are solved in ``FAMILIES`` order from one set of sines and
    cosines, in normalized coordinates: d = distance / radius, and a / b are the
    start / end headings relative to the connecting segment.  Each family's
    (t, p, q) uses the expressions of ``oracles.dubins_shortest_reference``,
    and the first family with the least t + p + q wins.  Since t, q >= 0, a
    family whose p alone reaches the best total cannot win, and its turns are
    skipped.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if start.x == end.x and start.y == end.y and start.theta == end.theta:
        return DubinsPath("LSL", radius, (0.0, 0.0, 0.0), start, 0.0)
    dx = end.x - start.x
    dy = end.y - start.y
    d = math.hypot(dx, dy) / radius
    phi = math.atan2(dy, dx)
    a = (start.theta - phi) % TWO_PI
    b = (end.theta - phi) % TWO_PI
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
            best_len, best = total, ("LSL", t, p, q)
    # RSR
    p_sq = 2.0 + dd - 2.0 * cab + 2.0 * d * (sb - sa)
    if p_sq >= 0.0 and (p := math.sqrt(p_sq)) < best_len:
        tmp = math.atan2(ca - cb, d - sa + sb)
        t, q = (a - tmp) % TWO_PI, (tmp - b) % TWO_PI
        if (total := t + p + q) < best_len:
            best_len, best = total, ("RSR", t, p, q)
    # LSR
    p_sq = -2.0 + dd + 2.0 * cab + 2.0 * d * (sa + sb)
    if p_sq >= 0.0 and (p := math.sqrt(p_sq)) < best_len:
        tmp = math.atan2(-ca - cb, d + sa + sb) - math.atan2(-2.0, p)
        t, q = (-a + tmp) % TWO_PI, (-b + tmp) % TWO_PI
        if (total := t + p + q) < best_len:
            best_len, best = total, ("LSR", t, p, q)
    # RSL
    p_sq = -2.0 + dd + 2.0 * cab - 2.0 * d * (sa + sb)
    if p_sq >= 0.0 and (p := math.sqrt(p_sq)) < best_len:
        tmp = math.atan2(ca + cb, d - sa - sb) - math.atan2(2.0, p)
        t, q = (a - tmp) % TWO_PI, (b - tmp) % TWO_PI
        if (total := t + p + q) < best_len:
            best_len, best = total, ("RSL", t, p, q)
    # RLR
    tmp = (6.0 - dd + 2.0 * cab + 2.0 * d * (sa - sb)) / 8.0
    if abs(tmp) <= 1.0 and (p := (TWO_PI - math.acos(tmp)) % TWO_PI) < best_len:
        t = (a - math.atan2(ca - cb, d - sa + sb) + p / 2.0) % TWO_PI
        q = (a - b - t + p) % TWO_PI
        if (total := t + p + q) < best_len:
            best_len, best = total, ("RLR", t, p, q)
    # LRL
    tmp = (6.0 - dd + 2.0 * cab + 2.0 * d * (sb - sa)) / 8.0
    if abs(tmp) <= 1.0 and (p := (TWO_PI - math.acos(tmp)) % TWO_PI) < best_len:
        t = (-a - math.atan2(ca - cb, d + sa - sb) + p / 2.0) % TWO_PI
        q = (b - a - t + p) % TWO_PI
        if (total := t + p + q) < best_len:
            best_len, best = total, ("LRL", t, p, q)
    assert best is not None  # at least one CSC family always exists
    family, t, p, q = best
    return DubinsPath(family, radius, (t * radius, p * radius, q * radius), start, best_len * radius)


def path_length(path: DubinsPath | CompositePath) -> float:
    if isinstance(path, CompositePath):
        return path.total_length
    return path.length


def _advance(x, y, theta, seg_type, s, rho):
    """Pose after moving arc length s along one segment; s may be an array."""
    return _advance_from(x, y, theta, np.sin(theta), np.cos(theta), seg_type, s, rho)


def _advance_from(x, y, theta, sin_t, cos_t, seg_type, s, rho):
    """``_advance`` given the sine and cosine of the start heading."""
    if seg_type == "S":
        return x + s * cos_t, y + s * sin_t, theta + 0.0 * s
    if seg_type == "L":
        nt = theta + s / rho
        return x + rho * (np.sin(nt) - sin_t), y - rho * (np.cos(nt) - cos_t), nt
    nt = theta - s / rho
    return x + rho * (sin_t - np.sin(nt)), y - rho * (cos_t - np.cos(nt)), nt


def sample_many(path: DubinsPath, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized poses (x, y, theta arrays) at arc lengths ``s``."""
    s = np.asarray(s, dtype=float)
    if s.size and (s.min() < -1e-9 or s.max() > path.length + 1e-9):
        raise ValueError("arc length outside [0, length]")
    s = np.clip(s, 0.0, path.length)

    seg = path.seg_params
    ends = np.array([seg[0], seg[0] + seg[1], path.length])
    idx = np.minimum(np.searchsorted(ends, s, side="right"), 2)

    # entry pose of each of the three segments
    entries = [(path.start.x, path.start.y, path.start.theta)]
    for k in range(2):
        ex, ey, eth = entries[k]
        entries.append(_advance(ex, ey, eth, path.family[k], seg[k], path.radius))

    xs = np.empty_like(s)
    ys = np.empty_like(s)
    ths = np.empty_like(s)
    starts = np.array([0.0, seg[0], seg[0] + seg[1]])
    for k in range(3):
        m = idx == k
        if not m.any():
            continue
        ex, ey, eth = entries[k]
        x, y, th = _advance(ex, ey, eth, path.family[k], s[m] - starts[k], path.radius)
        xs[m], ys[m], ths[m] = x, y, th
    return xs, ys, ths % TWO_PI


# index of each family letter in "SLR", per segment
_KINDS = {family: tuple("SLR".index(t) for t in family) for family in FAMILIES}


def positions_many(curves, s: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) at arc lengths ``s``: the first counts[0] on curves[0], the next counts[1]
    on curves[1], and so on.

    Bit-identical to ``sample_many`` on each curve in turn: the same clip, the
    same segment for each point and the same ``_advance`` expressions, evaluated
    for all curves at once with the points grouped by segment kind.
    """
    c = len(curves)
    length = np.array([cv.length for cv in curves])
    radius = np.array([cv.radius for cv in curves])
    seg = np.array([cv.seg_params for cv in curves]).reshape(c, 3)
    kinds = np.array([_KINDS[cv.family] for cv in curves], dtype=np.int8).reshape(c, 3)
    first = np.cumsum(counts) - counts
    curve_of = np.repeat(np.arange(c), counts)
    s = np.asarray(s, dtype=float)
    if s.size and ((s < -1e-9).any() or (s > length[curve_of] + 1e-9).any()):
        raise ValueError("arc length outside [0, length]")
    s = np.clip(s, 0.0, length[curve_of])

    # a point's segment is the count of segment ends at or below it, as
    # sample_many's searchsorted finds it while rounding leaves those ends in
    # order; otherwise that searchsorted itself
    begins = np.stack([np.zeros(c), seg[:, 0], seg[:, 0] + seg[:, 1]], axis=1)
    idx = (s >= begins[curve_of, 1]).astype(np.intp) + (s >= begins[curve_of, 2])
    for k in np.flatnonzero(begins[:, 2] > length):
        run = slice(first[k], first[k] + counts[k])
        found = np.searchsorted([begins[k, 1], begins[k, 2], length[k]], s[run], side="right")
        idx[run] = np.minimum(found, 2)

    # (x, y, heading) where each curve's three segments begin
    pose = np.empty((3, c, 3))
    pose[:, :, 0] = np.array([(cv.start.x, cv.start.y, cv.start.theta) for cv in curves]).T
    for k in range(2):
        for code, seg_type in enumerate("SLR"):
            m = kinds[:, k] == code
            if m.any():
                pose[:, m, k + 1] = _advance(*pose[:, m, k], seg_type, seg[m, k], radius[m])

    # each point from its segment's start, one slice per segment kind
    piece = curve_of * 3 + idx
    kind = kinds.ravel()[piece]
    grouped = np.argsort(kind, kind="stable")  # a radix sort, for int8 keys
    piece = piece[grouped]
    x, y, theta = (p.ravel()[piece] for p in pose)
    sin_t, cos_t = np.sin(pose[2]).ravel()[piece], np.cos(pose[2]).ravel()[piece]
    ds = s[grouped] - begins.ravel()[piece]
    rho = radius[piece // 3]
    xs, ys = np.empty(s.size), np.empty(s.size)
    lo = 0
    for code, hi in enumerate(np.cumsum(np.bincount(kind, minlength=3)).tolist()):
        g = slice(lo, hi)
        at = grouped[g]
        xs[at], ys[at], _ = _advance_from(
            x[g], y[g], theta[g], sin_t[g], cos_t[g], "SLR"[code], ds[g], rho[g]
        )
        lo = hi
    return xs, ys


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
