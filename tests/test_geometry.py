import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stealthtour.geometry import (
    FAMILIES,
    CompositePath,
    Pose,
    build_tour,
    dubins_shortest,
    path_end,
    path_length,
    sample,
    sample_many,
)
from stealthtour.oracles import dubins_shortest_reference, family_oracle_length
from stealthtour.sensing import WORKSPACE_BOUND

TWO_PI = 2.0 * math.pi


def angle_diff(a, b):
    return abs((a - b + math.pi) % TWO_PI - math.pi)


def chord_length(path, step=1e-4):
    s = np.arange(0.0, path.length, step)
    s = np.append(s, path.length)
    xs, ys, _ = sample_many(path, s)
    return float(np.hypot(np.diff(xs), np.diff(ys)).sum())


def random_pose(rng, span=20.0):
    return Pose(rng.uniform(-span, span), rng.uniform(-span, span), rng.uniform(0, TWO_PI))


def test_collinear_aligned_is_straight():
    p = dubins_shortest(Pose(0, 0, 0), Pose(10, 0, 0), 1.0)
    assert p.family == "LSL"
    assert p.length == pytest.approx(10.0, abs=1e-12)


def test_identical_poses_zero_length():
    p = dubins_shortest(Pose(0, 0, 0), Pose(0, 0, 0), 1.0)
    assert p.length == 0.0


def test_radius_must_be_positive():
    with pytest.raises(ValueError):
        dubins_shortest(Pose(0, 0, 0), Pose(1, 1, 0), 0.0)


def test_shortest_matches_per_family_oracle():
    s, e, rho = Pose(0, 0, 0), Pose(0, 4, math.pi), 1.0
    best = dubins_shortest(s, e, rho)
    oracle_lengths = [
        L for fam in FAMILIES if (L := family_oracle_length(s, e, rho, fam)) is not None
    ]
    assert best.length == pytest.approx(min(oracle_lengths), abs=1e-9)
    got = path_end(best)
    assert abs(got.x - e.x) < 1e-6 and abs(got.y - e.y) < 1e-6
    assert angle_diff(got.theta, e.theta) < 1e-6


def test_random_pairs_endpoint_and_family_bound(rng):
    for _ in range(300):
        s, e = random_pose(rng), random_pose(rng)
        rho = rng.uniform(0.5, 4.0)
        p = dubins_shortest(s, e, rho)
        got = path_end(p)
        assert abs(got.x - e.x) < 1e-6
        assert abs(got.y - e.y) < 1e-6
        assert angle_diff(got.theta, e.theta) < 1e-6
        for fam in FAMILIES:
            ref = family_oracle_length(s, e, rho, fam)
            if ref is not None:
                assert p.length <= ref + 1e-9


def test_path_length_zero_and_sum_of_parts():
    zero = dubins_shortest(Pose(1, 2, 3), Pose(1, 2, 3), 2.0)
    assert path_length(zero) == 0.0
    p = dubins_shortest(Pose(0, 0, 0), Pose(30, 0, 0), 2.0)
    assert path_length(p) == pytest.approx(sum(p.seg_params), abs=1e-12)


@pytest.mark.parametrize("end", [Pose(7, 3, 1.0), Pose(0, 4, math.pi), Pose(-2, 1, 5.0)])
def test_length_matches_chord_sum(end, rng):
    p = dubins_shortest(Pose(0, 0, 0.5), end, 1.2)
    assert chord_length(p) == pytest.approx(p.length, abs=1e-5)


def test_sample_straight_midpoint():
    p = dubins_shortest(Pose(0, 0, 0), Pose(10, 0, 0), 1.0)
    mid = sample(p, 5.0)
    assert (mid.x, mid.y, mid.theta) == pytest.approx((5.0, 0.0, 0.0), abs=1e-12)


def test_sample_quarter_left_arc():
    # left arc of radius 1 from origin: quarter turn ends at (1, 1, pi/2)
    p = dubins_shortest(Pose(0, 0, 0), Pose(0, 2, math.pi), 1.0)
    q = sample(p, math.pi / 2.0)
    assert (q.x, q.y) == pytest.approx((1.0, 1.0), abs=1e-9)
    assert angle_diff(q.theta, math.pi / 2) < 1e-9


def test_sample_endpoints_and_domain():
    p = dubins_shortest(Pose(0, 0, 1.0), Pose(5, 3, 2.0), 1.0)
    first = sample(p, 0.0)
    assert (first.x, first.y) == pytest.approx((0.0, 0.0), abs=1e-9)
    last = sample(p, p.length)
    assert (last.x, last.y) == pytest.approx((5.0, 3.0), abs=1e-6)
    with pytest.raises(ValueError):
        sample(p, -0.1)
    with pytest.raises(ValueError):
        sample(p, p.length + 0.1)


def test_sample_midpoint_matches_chord_walk(rng):
    for _ in range(5):
        p = dubins_shortest(random_pose(rng, 5), random_pose(rng, 5), 1.0)
        if p.length < 1e-6:
            continue
        s = np.linspace(0.0, p.length, 200_001)
        xs, ys, _ = sample_many(p, s)
        cum = np.concatenate([[0.0], np.cumsum(np.hypot(np.diff(xs), np.diff(ys)))])
        half = cum[-1] / 2.0
        k = int(np.searchsorted(cum, half))
        frac = (half - cum[k - 1]) / (cum[k] - cum[k - 1])
        ox = xs[k - 1] + frac * (xs[k] - xs[k - 1])
        oy = ys[k - 1] + frac * (ys[k] - ys[k - 1])
        mid = sample(p, p.length / 2.0)
        assert math.hypot(mid.x - ox, mid.y - oy) < 1e-6


def test_rigid_transform_invariance(rng):
    for _ in range(50):
        s, e = random_pose(rng), random_pose(rng)
        rho = rng.uniform(0.5, 3.0)
        base = dubins_shortest(s, e, rho).length
        dx, dy, dth = rng.uniform(-9, 9), rng.uniform(-9, 9), rng.uniform(0, TWO_PI)
        c, si = math.cos(dth), math.sin(dth)

        def xform(p):
            return Pose(c * p.x - si * p.y + dx, si * p.x + c * p.y + dy, p.theta + dth)

        assert dubins_shortest(xform(s), xform(e), rho).length == pytest.approx(base, abs=1e-9)


def test_length_continuous_in_radius_for_distant_poses():
    s, e = Pose(0, 0, 0.7), Pose(40, 11, 2.9)  # separation > 4 * rho_max
    rhos = np.linspace(0.5, 4.0, 400)
    lengths = [dubins_shortest(s, e, r).length for r in rhos]
    step = rhos[1] - rhos[0]
    jumps = np.abs(np.diff(lengths))
    assert jumps.max() <= 20.0 * step


def test_build_tour_two_collinear_poses():
    tour = build_tour([Pose(0, 0, 0), Pose(10, 0, 0)], [1.0])
    assert isinstance(tour, CompositePath)
    assert len(tour.curves) == 1
    assert tour.total_length == pytest.approx(10.0, abs=1e-12)


def test_build_tour_additivity():
    poses = [Pose(0, 0, 0), Pose(10, 2, 1.0), Pose(-3, 8, 4.0)]
    tour = build_tour(poses, [1.5, 0.7])
    expected = (
        dubins_shortest(poses[0], poses[1], 1.5).length
        + dubins_shortest(poses[1], poses[2], 0.7).length
    )
    assert tour.total_length == pytest.approx(expected, abs=1e-12)


def test_build_tour_validation():
    with pytest.raises(ValueError):
        build_tour([Pose(0, 0, 0)], [])
    with pytest.raises(ValueError):
        build_tour([Pose(0, 0, 0), Pose(1, 0, 0)], [1.0, 1.0])


def test_build_tour_continuity(rng):
    poses = [random_pose(rng, 10) for _ in range(5)]
    radii = [rng.uniform(0.5, 2.0) for _ in range(4)]
    tour = build_tour(poses, radii)
    for prev, nxt in zip(tour.curves, tour.curves[1:]):
        end = path_end(prev)
        assert math.hypot(end.x - nxt.start.x, end.y - nxt.start.y) < 1e-9
        assert angle_diff(end.theta, nxt.start.theta) < 1e-9
    assert tour.total_length == pytest.approx(sum(c.length for c in tour.curves), abs=1e-12)


def test_composite_sample():
    tour = build_tour([Pose(0, 0, 0), Pose(10, 0, 0), Pose(20, 0, 0)], [1.0, 1.0])
    p = sample(tour, 15.0)
    assert (p.x, p.y) == pytest.approx((15.0, 0.0), abs=1e-9)
    end = sample(tour, tour.total_length)
    assert (end.x, end.y) == pytest.approx((20.0, 0.0), abs=1e-9)


def test_dubins_finds_a_curve_at_the_workspace_bound():
    # the loader's extremes: coordinates +-B, radii from 1/B to B
    B = WORKSPACE_BOUND
    coords = (-B, -1.0, 0.0, 1e-3, B)
    headings = [(0.0, 0.0), (1.0, 4.0), (3.0, 0.5)]
    for rho, x0, y1, (th0, th1) in itertools.product((1.0 / B, 1.0, B), coords, coords, headings):
        path = dubins_shortest(Pose(x0, B, th0), Pose(-B, y1, th1), rho)
        assert math.isfinite(path.length)
        assert path.length >= math.dist((x0, B), (-B, y1)) * (1.0 - 1e-12)


# poses anywhere the loader admits, on a coarse grid, and at compass headings
HEADINGS = st.floats(0.0, TWO_PI, exclude_max=True) | st.integers(0, 7).map(lambda k: k * math.pi / 4)
COORDS = st.sampled_from([
    st.floats(-1e9, 1e9), st.floats(-10.0, 10.0), st.integers(-4, 4).map(float),
])
RADII = st.floats(1e-9, 1e9) | st.floats(0.5, 4.0) | st.sampled_from([1e-9, 1.0, 1e9])


@st.composite
def pose_pairs(draw):
    xy = draw(COORDS)
    start = Pose(draw(xy), draw(xy), draw(HEADINGS))
    end = draw(st.sampled_from(["free", "coincident", "same place", "antiparallel"]))
    if end == "coincident":
        return start, Pose(start.x, start.y, start.theta)
    if end == "same place":
        return start, Pose(start.x, start.y, draw(HEADINGS))
    theta = start.theta + math.pi if end == "antiparallel" else draw(HEADINGS)
    return start, Pose(draw(xy), draw(xy), theta)


@settings(deadline=None)
@given(pair=pose_pairs(), radius=RADII)
def test_shortest_equals_per_family_reference(pair, radius):
    start, end = pair
    assert dubins_shortest(start, end, radius) == dubins_shortest_reference(start, end, radius)
