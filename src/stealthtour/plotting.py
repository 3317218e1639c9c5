"""Deterministic SVG rendering of a solution over the sensor field.

The output is assembled by hand with fixed float formatting so two renders
of the same input are byte-identical.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Pose, build_tour, sample_many
from .sensing import intensity_many
from .scenario import Scenario

CANVAS_WIDTH = 640.0
MARGIN_M = 2.0
HEAT_CELL_M = 0.5
PATH_STEP_M = 0.05
# Most heat cells one render draws, and most path steps (tour length over the
# step; rounding up each curve's steps and its first point add at most two
# points per curve).  A wider workspace or a longer tour doubles the cell side
# or the path step until its count fits, so the SVG's size stays bounded
# whatever the coordinates (up to 1e9 m).  The builtin instances need at most
# 3,600 cells and a few thousand steps.
MAX_HEAT_CELLS = 40_000
MAX_PATH_POINTS = 100_000


def _coarsened(size: float, count, limit: int) -> float:
    """``size`` doubled until ``count(size)`` is at most ``limit``."""
    while count(size) > limit:
        size *= 2.0
    return size


def _bounds(scenario: Scenario):
    xs = [loc.x for loc in scenario.locations] + [n[0] for n in scenario.field.nodes]
    ys = [loc.y for loc in scenario.locations] + [n[1] for n in scenario.field.nodes]
    return (
        min(xs) - MARGIN_M,
        max(xs) + MARGIN_M,
        min(ys) - MARGIN_M,
        max(ys) + MARGIN_M,
    )


def render_solution_svg(scenario: Scenario, poses: list[Pose], radii: list[float], fitness) -> str:
    """SVG with heat layer, reward-scaled targets, markers and the path."""
    x0, x1, y0, y1 = _bounds(scenario)
    scale = CANVAS_WIDTH / (x1 - x0)
    height = (y1 - y0) * scale

    def px(x):
        return (x - x0) * scale

    def py(y):
        return (y1 - y) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS_WIDTH:.0f}" '
        f'height="{height:.2f}" viewBox="0 0 {CANVAS_WIDTH:.0f} {height:.2f}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
    ]

    # sensor intensity heat layer, one rect per grid cell
    if scenario.field.nodes:
        cells = lambda side: math.ceil((x1 - x0) / side) * math.ceil((y1 - y0) / side)
        cell = _coarsened(HEAT_CELL_M, cells, MAX_HEAT_CELLS)
        nx = int(math.ceil((x1 - x0) / cell))
        ny = int(math.ceil((y1 - y0) / cell))
        cx = x0 + (np.arange(nx) + 0.5) * cell
        cy = y0 + (np.arange(ny) + 0.5) * cell
        gx, gy = np.meshgrid(cx, cy)
        vals = intensity_many(scenario.field, gx.ravel(), gy.ravel()).reshape(gy.shape)
        cell_px = cell * scale
        for j in range(ny):
            for i in range(nx):
                opacity = min(1.0, vals[j, i] / scenario.field.cap)
                if opacity < 1e-3:
                    continue
                parts.append(
                    f'<rect x="{px(cx[i]) - cell_px / 2:.2f}" y="{py(cy[j]) - cell_px / 2:.2f}" '
                    f'width="{cell_px:.2f}" height="{cell_px:.2f}" fill="#cc2222" '
                    f'opacity="{0.85 * opacity:.3f}"/>'
                )

    # target squares scaled by reward
    for loc in scenario.locations[1:-1]:
        side = (0.4 + 0.6 * loc.reward) * scale
        parts.append(
            f'<rect x="{px(loc.x) - side / 2:.2f}" y="{py(loc.y) - side / 2:.2f}" '
            f'width="{side:.2f}" height="{side:.2f}" fill="#2266cc" opacity="0.9"/>'
        )

    # path polyline sampled densely along every curve
    if len(poses) >= 2:
        tour = build_tour(poses, radii)
        step = _coarsened(PATH_STEP_M, lambda step: tour.total_length / step, MAX_PATH_POINTS)
        pts = []
        for curve in tour.curves:
            if curve.length <= 0.0:
                continue
            n = max(1, int(math.ceil(curve.length / step)))
            s = np.linspace(0.0, curve.length, n + 1)
            xs, ys, _ = sample_many(curve, s)
            pts.extend(zip(xs, ys))
        if pts:
            coords = " ".join(f"{px(x):.3f},{py(y):.3f}" for x, y in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="#000000" stroke-width="2"/>'
            )

    def x_marker(x, y, color):
        r = 0.5 * scale
        return (
            f'<line x1="{px(x) - r:.2f}" y1="{py(y) - r:.2f}" x2="{px(x) + r:.2f}" '
            f'y2="{py(y) + r:.2f}" stroke="{color}" stroke-width="3"/>'
            f'<line x1="{px(x) - r:.2f}" y1="{py(y) + r:.2f}" x2="{px(x) + r:.2f}" '
            f'y2="{py(y) - r:.2f}" stroke="{color}" stroke-width="3"/>'
        )

    parts.append(x_marker(scenario.start.x, scenario.start.y, "#cc0000"))
    parts.append(x_marker(scenario.goal.x, scenario.goal.y, "#00aa00"))

    parts.append(
        f'<text x="10" y="20" font-family="sans-serif" font-size="16">'
        f"R={fitness.reward:.2f}, E={fitness.exposure:.2f}, L={fitness.length:.2f}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
