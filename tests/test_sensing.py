import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stealthtour import sensing
from stealthtour.geometry import Pose, build_tour, dubins_shortest
from stealthtour.oracles import simpson_curve_exposure, straight_exposure_closed_form
from stealthtour.scenario import generate_instance
from stealthtour.sensing import (
    QuadratureTooLargeError,
    SensorField,
    curve_row,
    exposure,
    field_intensity,
    intensity_many,
    row_exposures,
    sensing_value,
)


def one_node(alpha=50.0, mu=2.0, cap=30.0, pos=(0.0, 0.0)):
    return SensorField(nodes=(pos,), alpha=alpha, mu=mu, cap=cap)


def test_sensing_value_paper_coefficients():
    field = one_node()
    assert sensing_value(field, 0, (1.0, 2.0)) == pytest.approx(10.0)  # distance sqrt(5)


def test_sensing_value_saturates():
    field = one_node()
    assert sensing_value(field, 0, (1.0, 0.0)) == 30.0  # raw 50
    assert sensing_value(field, 0, (0.0, 0.0)) == 30.0  # at the node


def test_sensing_value_monotone_and_bounded():
    field = one_node()
    prev = math.inf
    for d in np.linspace(0.0, 20.0, 200):
        v = sensing_value(field, 0, (d, 0.0))
        assert v <= field.cap
        assert v <= prev + 1e-12
        prev = v


def test_intensity_under_a_huge_power_is_zero_far_away_and_capped_near():
    # 20**500 overflows to inf, without a warning; 0.5**500 underflows to 0
    vals = intensity_many(one_node(mu=500.0), np.array([20.0, 0.5]), np.array([0.0, 0.0]))
    assert vals.tolist() == [0.0, 30.0]


def test_field_parameter_validation():
    with pytest.raises(ValueError):
        SensorField(nodes=(), alpha=0.0, mu=2.0, cap=30.0)
    with pytest.raises(ValueError):
        SensorField(nodes=((math.inf, 0.0),), alpha=1.0, mu=1.0, cap=1.0)


def test_field_intensity_empty_and_additive():
    empty = SensorField(nodes=(), alpha=50.0, mu=2.0, cap=30.0)
    assert field_intensity(empty, (3.0, 4.0)) == 0.0
    two = SensorField(nodes=((0.0, 2.0), (0.0, -2.0)), alpha=50.0, mu=2.0, cap=30.0)
    single = one_node(pos=(0.0, 2.0))
    assert field_intensity(two, (0.0, 0.0)) == pytest.approx(
        2.0 * field_intensity(single, (0.0, 0.0))
    )


def test_field_intensity_matches_term_sum(cross, rng):
    field = cross.field
    for _ in range(20):
        x = (rng.uniform(0, 30), rng.uniform(0, 22))
        expected = sum(sensing_value(field, i, x) for i in range(len(field.nodes)))
        assert field_intensity(field, x) == expected
        vec = intensity_many(field, np.array([x[0]]), np.array([x[1]]))
        assert vec[0] == pytest.approx(expected, rel=1e-12)


def test_intensity_additive_over_subsets(cross, rng):
    nodes = cross.field.nodes
    a = SensorField(nodes=nodes[:5], alpha=50.0, mu=2.0, cap=30.0)
    b = SensorField(nodes=nodes[5:], alpha=50.0, mu=2.0, cap=30.0)
    x = (rng.uniform(0, 30), rng.uniform(0, 22))
    assert field_intensity(cross.field, x) == pytest.approx(
        field_intensity(a, x) + field_intensity(b, x), rel=1e-12
    )


def straight(x0, x1):
    return build_tour([Pose(x0, 0, 0), Pose(x1, 0, 0)], [1.0])


def test_exposure_empty_field_and_bad_step():
    empty = SensorField(nodes=(), alpha=50.0, mu=2.0, cap=30.0)
    assert exposure(empty, straight(-10, 10), 0.05) == 0.0
    for field, step in [(one_node(), 0.0), (one_node(), math.inf), (empty, math.inf),
                        (one_node(), math.nan)]:
        with pytest.raises(ValueError, match="finite and positive"):
            exposure(field, straight(-10, 10), step)


def test_exposure_sample_count_is_bounded(monkeypatch):
    with pytest.raises(QuadratureTooLargeError):
        exposure(one_node(), straight(-10, 10), 1e-300)
    # the bound counts point-sensor pairs: 400 points pass with one node, not with three
    monkeypatch.setattr(sensing, "MAX_QUADRATURE_PAIRS", 1000)
    assert exposure(one_node(), straight(-10, 10), 0.05) > 0.0
    three = SensorField(nodes=((0.0, 1.0), (0.0, 2.0), (0.0, 3.0)), alpha=50.0, mu=2.0, cap=30.0)
    with pytest.raises(QuadratureTooLargeError, match="each of 3 sensors"):
        exposure(three, straight(-10, 10), 0.05)
    # a batch is refused as a whole, before any curve of it is integrated
    monkeypatch.setattr(sensing, "_simpson_run", None)
    short, long = straight(-1, 1).curves[0], straight(-10, 10).curves[0]
    with pytest.raises(QuadratureTooLargeError, match="point-sensor pairs"):
        row_exposures(three, [curve_row(short), curve_row(long)], 0.05)


def test_exposure_matches_arctan_closed_form():
    field = one_node(pos=(0.0, 5.0))
    got = exposure(field, straight(-10, 10), 0.01)
    exact = straight_exposure_closed_form(50.0, 5.0, -10.0, 10.0)
    assert exact == pytest.approx(22.142974, abs=1e-5)
    assert abs(got - exact) / exact < 1e-4


def test_exposure_richardson_self_check():
    field = one_node(pos=(0.0, 5.0))
    path = straight(-10, 10)
    e1 = exposure(field, path, 0.4)
    e2 = exposure(field, path, 0.2)
    e4 = exposure(field, path, 0.1)
    # error should shrink when the step halves
    assert abs(e4 - e2) <= abs(e2 - e1) + 1e-12
    exact = straight_exposure_closed_form(50.0, 5.0, -10.0, 10.0)
    assert abs(e2 - exact) <= abs(e1 - e2) + 1e-9


def test_exposure_additive_over_concatenation():
    field = one_node(pos=(0.0, 5.0))
    whole = exposure(field, straight(-10, 10), 0.01)
    left = exposure(field, straight(-10, 0), 0.01)
    right = exposure(field, straight(0, 10), 0.01)
    assert whole == pytest.approx(left + right, abs=1e-6)


def test_exposure_linear_in_alpha_without_cap():
    path = straight(-10, 10)
    base = exposure(one_node(alpha=50.0, cap=1e12, pos=(0.0, 5.0)), path, 0.05)
    double = exposure(one_node(alpha=100.0, cap=1e12, pos=(0.0, 5.0)), path, 0.05)
    assert double == pytest.approx(2.0 * base, rel=1e-9)


def test_exposure_bounded_by_cap_times_length(cross, rng):
    poses = [Pose(rng.uniform(0, 30), rng.uniform(0, 22), rng.uniform(0, 6.28)) for _ in range(4)]
    tour = build_tour(poses, [1.0, 1.5, 2.0])
    got = exposure(cross.field, tour, 0.05)
    bound = cross.field.cap * len(cross.field.nodes) * tour.total_length
    assert 0.0 <= got <= bound


FIELDS = {"cross": generate_instance("cross", 7).field, "grid": generate_instance("grid", 7).field}
coordinate = st.floats(-5.0, 35.0)
heading = st.floats(0.0, 6.3)
pose = st.builds(Pose, coordinate, coordinate, heading)
# (start, end or None for a zero-length curve, radius)
curve_spec = st.tuples(pose, st.one_of(st.none(), pose), st.floats(0.5, 4.0))


@settings(deadline=None)
@given(field=st.sampled_from(sorted(FIELDS)), specs=st.lists(curve_spec, max_size=30),
       step=st.floats(0.03, 3.0), batch=st.sampled_from([1, 3000, sensing.BATCH_PAIRS]))
def test_curve_exposures_equal_one_curve_at_a_time(field, specs, step, batch):
    field = FIELDS[field]
    curves = [dubins_shortest(a, a if b is None else b, r) for a, b, r in specs]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sensing, "BATCH_PAIRS", batch)
        got = row_exposures(field, [curve_row(c) for c in curves], step)
    assert got == [simpson_curve_exposure(field, c, step) for c in curves]


def test_curve_exposures_place_samples_as_sample_many_when_segment_ends_round_past_length():
    # the first two segment lengths add up to more than the curve's length, so
    # the segment ends are out of order; both routes still count the ends at or
    # below each sample
    curve = dubins_shortest(Pose(24.0, 8.0, 0.0), Pose(20.0, 5.0, math.pi), 1.5)
    assert curve.seg_params[0] + curve.seg_params[1] > curve.length
    for step in (0.05, 0.3, 1.0):
        assert row_exposures(FIELDS["cross"], [curve_row(curve)], step) == [
            simpson_curve_exposure(FIELDS["cross"], curve, step)]
