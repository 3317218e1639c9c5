"""Attenuated-disk sensor field: point intensity and path exposure.

A node senses a point with strength alpha / distance**mu, clamped at
``cap`` so the integrand stays bounded at the node position.  Exposure is
the arc-length integral of the summed intensity along a tour, computed by
composite Simpson quadrature per curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CompositePath, DubinsPath, sample_many

# Largest magnitude of a coordinate, a budget or a turning radius, in metres;
# the smallest radius is its inverse.  Within these the Dubins solver's squared
# distance in radii (at most about 1e37) stays far from overflow.
WORKSPACE_BOUND = 1e9

# Most (sample point, sensor) pairs one curve's quadrature may take: 1e7 pairs
# keep each float temporary near 80 MB.  The builtin instances need at most
# about 26,000 (a 120 m curve at step 0.05 past 11 sensors).
MAX_QUADRATURE_PAIRS = 10_000_000


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


def sensing_value(field: SensorField, node_index: int, x) -> float:
    """Single-node sensing strength at a point, saturated at the cap."""
    nx, ny = field.nodes[node_index]
    dist = math.hypot(nx - x[0], ny - x[1])
    if dist == 0.0:
        return field.cap
    return min(field.cap, field.alpha / dist**field.mu)


def field_intensity(field: SensorField, x) -> float:
    """Sum of all nodes' sensing values at a point."""
    return sum(sensing_value(field, i, x) for i in range(len(field.nodes)))


def intensity_many(field: SensorField, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Vectorized field intensity at many points."""
    if not field.nodes:
        return np.zeros_like(xs)
    nodes = field.node_array()
    dx = xs[:, None] - nodes[None, :, 0]
    dy = ys[:, None] - nodes[None, :, 1]
    dist = np.hypot(dx, dy)
    with np.errstate(divide="ignore"):
        vals = field.alpha / dist**field.mu
    return np.minimum(vals, field.cap).sum(axis=1)


def _simpson_curve(field: SensorField, curve: DubinsPath, step: float) -> float:
    if curve.length <= 0.0:
        return 0.0
    points = curve.length / step  # a float, so a huge count cannot overflow
    if points * max(1, len(field.nodes)) > MAX_QUADRATURE_PAIRS:
        raise QuadratureTooLargeError(
            f"a {curve.length:.6g} m curve at exposure step {step:g} needs about {points:.3g} "
            f"quadrature points for each of {len(field.nodes)} sensors, more than "
            f"{MAX_QUADRATURE_PAIRS:g} point-sensor pairs"
        )
    n = 2 * max(1, math.ceil(curve.length / (2.0 * step)))
    s = np.linspace(0.0, curve.length, n + 1)
    xs, ys, _ = sample_many(curve, s)
    vals = intensity_many(field, xs, ys)
    h = curve.length / n
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(h / 3.0 * np.dot(weights, vals))


def exposure(field: SensorField, path: CompositePath | DubinsPath, step: float) -> float:
    """Integral of field intensity along the path, sampled at spacing <= step."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    if not field.nodes:
        return 0.0
    curves = path.curves if isinstance(path, CompositePath) else (path,)
    return sum(_simpson_curve(field, c, step) for c in curves)
