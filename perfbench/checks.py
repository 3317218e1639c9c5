"""The benchmark's own model checker, exposure reference and hypervolume.

Nothing here calls the program's evaluation, sensing or pareto code: tours are
rebuilt through ``geometry.build_tour`` and integrated with an integrand
written out below, so a regression in the measured code cannot hide itself.
"""

from __future__ import annotations

import math

import numpy as np

from stealthtour.geometry import Pose, build_tour, sample_many

# Finest spacing of the exposure reference; convergence is shown by comparing
# it with a second pass at half this spacing.
REF_STEP = 2e-3


class Tour:
    """A stored tour: visited location ids, one heading each, one radius per leg."""

    __slots__ = ("ids", "headings", "radii")

    def __init__(self, ids, headings, radii):
        self.ids = [int(i) for i in ids]
        self.headings = [float(h) for h in headings]
        self.radii = [float(r) for r in radii]


def rebuild(scenario, tour: Tour):
    """The tour's curves, built from the scenario's positions and the tour's genes."""
    by_id = {loc.id: loc for loc in scenario.locations}
    poses = [Pose(by_id[i].x, by_id[i].y, h) for i, h in zip(tour.ids, tour.headings)]
    return build_tour(poses, tour.radii)


def violations(scenario, tour: Tour, check_budget: bool = True) -> list[str]:
    """Named breaches of the tour model; an empty list means the tour is valid.

    ``check_budget`` is off only for the scored batch, whose tours are random
    and are scored whatever their length.
    """
    out = []
    ids = tour.ids
    known = {loc.id for loc in scenario.locations}
    if len(ids) < 2 or ids[0] != scenario.start.id:
        out.append("does not start at start_id")
    if len(ids) < 2 or ids[-1] != scenario.goal.id:
        out.append("does not end at goal_id")
    if any(i not in known for i in ids):
        out.append("unknown location id")
    if len(set(ids)) != len(ids):
        out.append("location visited more than once")
    if len(tour.headings) != len(ids) or len(tour.radii) != len(ids) - 1:
        out.append("wrong number of headings or radii")
        return out
    if any(not (scenario.rho_min <= r <= scenario.rho_max) for r in tour.radii):
        out.append("radius outside [rho_min, rho_max]")
    if out or not check_budget:
        return out
    length = rebuild(scenario, tour).total_length
    if length > scenario.t_max + 1e-9:
        out.append(f"length {length:.6f} exceeds t_max {scenario.t_max}")
    return out


def reward_of(scenario, tour: Tour) -> float:
    by_id = {loc.id: loc.reward for loc in scenario.locations}
    total = 0.0
    for i in tour.ids:
        total += by_id[i]
    return total


def _intensity(field, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Summed node strength min(cap, alpha / d**mu); a point on a node reads cap."""
    total = np.zeros_like(xs)
    for nx, ny in field.nodes:
        d = np.hypot(xs - nx, ys - ny)
        with np.errstate(divide="ignore"):
            total += np.minimum(field.cap, field.alpha / d**field.mu)
    return total


def _simpson(curve, field, step: float) -> float:
    if curve.length <= 0.0:
        return 0.0
    n = 2 * max(1, math.ceil(curve.length / (2.0 * step)))
    s = np.linspace(0.0, curve.length, n + 1)
    xs, ys, _ = sample_many(curve, s)
    vals = _intensity(field, xs, ys)
    return float(curve.length / n / 3.0 * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum()
                                           + 2.0 * vals[2:-1:2].sum()))


def reference_exposure(scenario, tour: Tour) -> tuple[float, float]:
    """Exposure at REF_STEP and the relative change when that step is halved."""
    curves = rebuild(scenario, tour).curves
    coarse = sum(_simpson(c, scenario.field, REF_STEP) for c in curves)
    fine = sum(_simpson(c, scenario.field, REF_STEP / 2.0) for c in curves)
    return fine, abs(coarse - fine) / max(abs(fine), 1e-300)


def hypervolume(points, reference: tuple[float, float]) -> float:
    """Area dominated by (reward up, exposure down) points beyond the reference."""
    r_ref, e_ref = reference
    pts = sorted(((r, e) for r, e in points if r > r_ref and e < e_ref), reverse=True)
    area = 0.0
    best_e = math.inf
    # sweep from the highest reward down: between this reward and the next one
    # the dominated height is set by the least exposure seen so far
    for k, (r, e) in enumerate(pts):
        best_e = min(best_e, e)
        next_r = pts[k + 1][0] if k + 1 < len(pts) else r_ref
        area += (r - next_r) * (e_ref - best_e)
    return area
