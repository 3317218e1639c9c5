"""SVG size stays bounded for any workspace; builtin renders keep their bytes."""

import hashlib
from dataclasses import replace

import pytest

from stealthtour import plotting
from stealthtour.evolution import plan_from_tour
from stealthtour.pareto import Fitness
from stealthtour.scenario import generate_instance, with_overrides

CROSS_1 = generate_instance("cross", 1)
GRID_2_CLOSED = with_overrides(generate_instance("grid", 2, closed=True),
                               t_max=120.0, rho_min=1.0, rho_max=4.0)


def render(sc, ids, headings):
    radii = [sc.rho_min, sc.rho_max, sc.rho_min][: len(ids) - 1]
    plan = plan_from_tour(sc, ids, headings, radii)
    return plotting.render_solution_svg(sc, list(plan.poses), list(plan.radii),
                                        Fitness(1.5, 2.25, 3.0))


@pytest.mark.parametrize("sc, digest", [
    (CROSS_1, "e3ef370e7ca6f55c4f5133ec6d4109ba8beb3d381286432715fbdabc78f029cc"),
    (GRID_2_CLOSED, "e7edcdbadf2bfca21b5b7b8feb47e974c8a1be07f2f5bfa576ca7642b2b9015e"),
])
def test_builtin_render_bytes_are_pinned(sc, digest):
    ids = [loc.id for loc in sc.locations]
    svg = render(sc, [ids[0], ids[3], ids[5], ids[-1]], [0.0, 1.0, 2.0, 0.0])
    assert hashlib.sha256(svg.encode()).hexdigest() == digest


def polyline_points(svg: str) -> list[tuple[float, float]]:
    start = svg.index('points="', svg.index("<polyline")) + len('points="')
    return [tuple(map(float, p.split(","))) for p in svg[start:svg.index('"', start)].split()]


def test_far_target_render_stays_within_bounds():
    # one target moved 1e5 m away: at the base cell and step the heat layer
    # alone would take 200,004 x 44 cells and the path about 4e6 points
    locations = list(CROSS_1.locations)
    far = locations[1] = replace(locations[1], x=1e5)
    sc = replace(CROSS_1, locations=tuple(locations), t_max=1e6)
    svg = render(sc, [sc.start.id, far.id, sc.goal.id], [0.0, 0.0, 0.0])
    heat = svg.count('fill="#cc2222"')
    assert 0 < heat <= plotting.MAX_HEAT_CELLS
    points = polyline_points(svg)
    assert len(points) <= plotting.MAX_PATH_POINTS + 2 * 2
    assert len(svg) < 10_000_000
    # the coarser path still ends on the goal
    x0, x1, y0, y1 = plotting._bounds(sc)
    scale = plotting.CANVAS_WIDTH / (x1 - x0)
    goal = ((sc.goal.x - x0) * scale, (y1 - sc.goal.y) * scale)
    assert points[-1] == pytest.approx(goal, abs=2e-3)
