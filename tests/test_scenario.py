import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stealthtour.cli import main
from stealthtour.evolution import InfeasibleScenarioError, check_tour, evolve
from stealthtour.scenario import (
    Scenario,
    ScenarioError,
    SolverParams,
    TargetLocation,
    generate_instance,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    with_overrides,
)
from stealthtour.oracles import total_reward
from stealthtour.sensing import SensorField

MINIMAL = {
    "name": "mini",
    "t_max": 25.0,
    "rho_min": 1.0,
    "rho_max": 2.0,
    "closed": False,
    "sensing": {"alpha": 50.0, "mu": 2.0, "cap": 30.0},
    "sensors": [],
    "locations": [
        {"id": 0, "x": 0.0, "y": 0.0, "reward": 0.0},
        {"id": 1, "x": 10.0, "y": 0.0, "reward": 0.0},
    ],
    "start_id": 0,
    "goal_id": 1,
}


def test_minimal_file_loads():
    sc = load_scenario(json.dumps(MINIMAL))
    assert sc.t_max == 25.0
    assert len(sc.locations) == 2
    assert sc.field.nodes == ()


def test_round_trip_is_identity(cross):
    again = load_scenario(save_scenario(cross))
    assert again == cross


def test_round_trip_with_fixed_headings():
    data = dict(MINIMAL, fixed_headings={"0": 0.25, "1": 1.5})
    sc = load_scenario(json.dumps(data))
    assert sc.fixed_headings == {0: 0.25, 1: 1.5}
    assert load_scenario(save_scenario(sc)) == sc


def test_rho_interval_violation_names_both_fields():
    bad = dict(MINIMAL, rho_min=3.0, rho_max=2.0)
    with pytest.raises(ScenarioError, match="rho_min/rho_max"):
        load_scenario(json.dumps(bad))


def test_malformed_json_and_missing_keys():
    with pytest.raises(ScenarioError, match="JSON"):
        load_scenario(b"{not json")
    with pytest.raises(ScenarioError, match="JSON"):
        load_scenario(b"\xff{}")
    with pytest.raises(ScenarioError, match="JSON"):
        load_scenario("[" * 100_000 + "]" * 100_000)
    incomplete = {k: v for k, v in MINIMAL.items() if k != "t_max"}
    with pytest.raises(ScenarioError, match="t_max"):
        load_scenario(json.dumps(incomplete))


def test_endpoint_rewards_must_be_zero():
    bad = dict(MINIMAL)
    bad["locations"] = [dict(MINIMAL["locations"][0], reward=1.0), MINIMAL["locations"][1]]
    with pytest.raises(ScenarioError, match="reward"):
        load_scenario(json.dumps(bad))


def test_closed_requires_coincident_endpoints():
    bad = dict(MINIMAL, closed=True)
    with pytest.raises(ScenarioError, match="closed"):
        load_scenario(json.dumps(bad))


def test_generate_instance_deterministic():
    a = generate_instance("cross", 3)
    b = generate_instance("cross", 3)
    assert a == b
    assert a != generate_instance("cross", 4)


def test_generate_cross_counts():
    sc = generate_instance("cross", 11)
    assert len(sc.field.nodes) == 11
    assert len(sc.locations) == 20  # 18 targets + start + goal
    rewards = {loc.reward for loc in sc.locations[1:-1]}
    assert rewards <= {0.2, 0.4, 0.6, 0.8, 1.0}


def test_generate_grid_counts():
    sc = generate_instance("grid", 11)
    assert len(sc.field.nodes) == 8
    assert len(sc.locations) == 17  # 15 targets + start + goal


def test_generate_closed_instance():
    sc = generate_instance("grid", 5, closed=True)
    assert sc.closed
    assert (sc.start.x, sc.start.y) == (sc.goal.x, sc.goal.y)


def test_unknown_kind():
    with pytest.raises(ScenarioError):
        generate_instance("hexagon", 1)


def test_total_reward(cross):
    assert total_reward(cross, []) == 0.0
    targets = cross.locations[1:-1]
    assert total_reward(cross, [loc.id for loc in targets]) == pytest.approx(
        sum(loc.reward for loc in targets)
    )
    two = [targets[0].id, targets[1].id]
    assert total_reward(cross, two) == pytest.approx(targets[0].reward + targets[1].reward)
    with pytest.raises(ScenarioError):
        total_reward(cross, [9999])


def test_with_overrides_closed_moves_goal(cross):
    closed = with_overrides(cross, closed=True, t_max=120.0)
    assert closed.closed
    assert (closed.goal.x, closed.goal.y) == (closed.start.x, closed.start.y)
    assert closed.t_max == 120.0


def test_scenario_invariants_checked_directly():
    field = SensorField(nodes=(), alpha=1.0, mu=1.0, cap=1.0)
    locs = (TargetLocation(0, 0, 0, 0.0), TargetLocation(1, 5, 0, 0.0))
    with pytest.raises(ScenarioError, match="t_max"):
        Scenario("x", locs, field, t_max=0.0, rho_min=1.0, rho_max=1.0)
    with pytest.raises(ScenarioError, match="locations"):
        Scenario("x", (locs[0],), field, t_max=1.0, rho_min=1.0, rho_max=1.0)


def test_solver_params_validation():
    with pytest.raises(ValueError):
        SolverParams(crossover_prob=1.5)
    with pytest.raises(ValueError):
        SolverParams(von_mises_kappa=0.0)
    with pytest.raises(ValueError):
        SolverParams(selection="roulette")
    defaults = SolverParams()
    assert defaults.population_size == 400
    assert defaults.generations == 400
    assert defaults.von_mises_kappa == 2.0


@pytest.mark.parametrize("change", [
    {"t_max": math.nan},
    {"rho_max": math.inf},
    {"locations": [{"id": 0, "x": math.nan, "y": 0.0, "reward": 0.0},
                   {"id": 1, "x": 10.0, "y": 0.0, "reward": 0.0}]},
    {"locations": [{"id": 0, "x": 0.0, "y": 0.0, "reward": 0.0},
                   {"id": 2, "x": 5.0, "y": 0.0, "reward": math.inf},
                   {"id": 1, "x": 10.0, "y": 0.0, "reward": 0.0}]},
    {"sensing": {"alpha": math.nan, "mu": 2.0, "cap": 30.0}},
    {"sensing": {"alpha": 50.0, "mu": 2.0, "cap": math.inf}},
], ids=["nan-t_max", "inf-rho_max", "nan-x", "inf-reward", "nan-alpha", "inf-cap"])
def test_non_finite_numbers_rejected(change):
    with pytest.raises(ScenarioError, match="finite"):
        load_scenario(json.dumps(dict(MINIMAL, **change)))


@pytest.mark.parametrize("change", [
    {"t_max": 1e300},
    {"rho_max": 2e9},
    {"rho_min": 1e-300},
    {"locations": [{"id": 0, "x": 0.0, "y": -1e300, "reward": 0.0},
                   {"id": 1, "x": 10.0, "y": 0.0, "reward": 0.0}]},
    {"sensors": [[1e300, 0.0]]},
], ids=["huge-t_max", "huge-rho_max", "tiny-rho_min", "huge-y", "huge-sensor-x"])
def test_numbers_beyond_workspace_bound_rejected(change):
    with pytest.raises(ScenarioError, match="at most|at least|within"):
        load_scenario(json.dumps(dict(MINIMAL, **change)))


HUGE_INT = 10**401  # past float range; json writes and reads it exactly


def spoiled(**change) -> str:
    return json.dumps(dict(MINIMAL, **change))


@pytest.mark.parametrize("text, match", [
    (spoiled(start_id=math.inf), "invalid value"),
    (spoiled().replace('"goal_id": 1', '"goal_id": 1e400'), "invalid value"),
    (spoiled(locations=[dict(MINIMAL["locations"][0], id=-math.inf), MINIMAL["locations"][1]]),
     "invalid value"),
    (spoiled(t_max=HUGE_INT), "invalid value"),
    (spoiled(locations=[dict(MINIMAL["locations"][0], x=-HUGE_INT), MINIMAL["locations"][1]]),
     "invalid value"),
    (spoiled(sensing={"alpha": HUGE_INT, "mu": 2.0, "cap": 30.0}), "invalid value"),
    (spoiled().replace('"t_max": 25.0', '"t_max": ' + "9" * 5000), "JSON"),
    (spoiled(fixed_headings=[1, 2]), "fixed_headings: need an object"),
    (spoiled(fixed_headings=None), "fixed_headings: need an object"),
    (spoiled(closed="no"), "closed: need true or false"),
    (spoiled(closed=1), "closed: need true or false"),
    # each of these used to load, converted by float(), int() or str()
    (spoiled(t_max="90"), "t_max: invalid value, need a number"),
    (spoiled(locations=[dict(MINIMAL["locations"][0], x=True), MINIMAL["locations"][1]]),
     "locations.x: invalid value, need a number"),
    (spoiled(locations=[MINIMAL["locations"][0], dict(MINIMAL["locations"][1], id=1.5)]),
     "locations.id: invalid value, need an int"),
    (spoiled(sensors=["12", "34"]), "sensors: need a list of floats"),
    (spoiled(sensors=[[1, "2"]]), "sensors: invalid value, need a number"),
    (spoiled(sensors=[[1, 2, 3]]), r"sensors: need \[x, y\] pairs"),
    (spoiled(sensing={"alpha": "50", "mu": 2.0, "cap": 30.0}),
     "sensing.alpha: invalid value, need a number"),
    (spoiled(name=5), "name: need a string"),
    (spoiled(fixed_headings={"0": "1.5"}), "fixed_headings.0: invalid value, need a number"),
    # int() reads each of these keys as an id: 10, 3, 3 and, for "03", the id "3" also names
    (spoiled(fixed_headings={"1_0": 0.5}), "key '1_0' is not a location id"),
    (spoiled(fixed_headings={" 3 ": 0.5}), "key ' 3 ' is not a location id"),
    (spoiled(fixed_headings={"\u0663": 0.5}), "key '\u0663' is not a location id"),
    (spoiled(fixed_headings={"3": 0.1, "03": 0.2}), "key '03' is not a location id"),
], ids=["infinite-start_id", "1e400-goal_id", "infinite-id", "huge-int-t_max", "huge-int-x",
        "huge-int-alpha", "5000-digit-t_max", "list-fixed_headings", "null-fixed_headings",
        "string-closed", "number-closed", "string-t_max", "boolean-x", "fractional-id",
        "string-sensors", "string-sensor-y", "three-number-sensor", "string-alpha", "number-name",
        "string-fixed-heading", "underscore-key", "spaced-key", "arabic-indic-key",
        "two-spellings-of-one-key"])
def test_out_of_range_and_mistyped_values_raise_scenario_error(text, match):
    with pytest.raises(ScenarioError, match=match):
        load_scenario(text)


@pytest.mark.parametrize("data", [[], None, "mini", [MINIMAL]])
def test_scenario_from_dict_rejects_a_non_object(data):
    with pytest.raises(ScenarioError, match="need a JSON object"):
        scenario_from_dict(data)


# Finite values come from +-1e3, or lie far past the workspace bound (+-1e300, 1e-300),
# where coordinates, budget and radii must be rejected by name.
ANY_NUMBER = st.floats(-1e3, 1e3) | st.sampled_from(
    [0.0, -1.0, math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300])
# Any JSON value, with integers past float range and infinities drawn often.
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([HUGE_INT, -HUGE_INT, math.inf, -math.inf]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


@st.composite
def scenario_dicts(draw):
    """Scenario objects in which one number may be zero, negative, NaN or infinite,
    and one top-level or location field may hold any JSON value."""
    count = draw(st.integers(2, 6))
    coord = st.floats(0.0, 30.0)
    rewards = [0.0] + [draw(st.floats(0.0, 1.0)) for _ in range(count - 2)] + [0.0]
    locations = [{"id": i, "x": draw(coord), "y": draw(coord), "reward": r}
                 for i, r in enumerate(rewards)]
    closed = draw(st.booleans())
    if closed:
        locations[-1].update(x=locations[0]["x"], y=locations[0]["y"])
    data = {
        "name": "random",
        "t_max": draw(st.floats(1.0, 150.0)),
        "rho_min": draw(st.floats(0.2, 1.0)),
        "rho_max": draw(st.floats(1.0, 3.0)),
        "closed": closed,
        "sensing": {"alpha": draw(st.floats(1.0, 60.0)), "mu": draw(st.floats(0.5, 3.0)),
                    "cap": draw(st.floats(1.0, 40.0))},
        "sensors": draw(st.lists(st.lists(coord, min_size=2, max_size=2), max_size=3)),
        "locations": locations,
        "start_id": 0,
        "goal_id": count - 1,
    }
    numbers = [(data, k) for k in ("t_max", "rho_min", "rho_max")]
    numbers += [(data["sensing"], k) for k in ("alpha", "mu", "cap")]
    numbers += [(loc, k) for loc in locations for k in ("x", "y", "reward")]
    numbers += [(xy, k) for xy in data["sensors"] for k in (0, 1)]
    spoil = draw(st.sampled_from([None, *range(len(numbers))]))
    if spoil is not None:
        owner, key = numbers[spoil]
        owner[key] = draw(ANY_NUMBER)
    fields = [(data, k) for k in (*data, "fixed_headings")]
    fields += [(loc, k) for loc in locations for k in ("id", "x", "y", "reward")]
    spoil = draw(st.sampled_from([None, *range(len(fields))]))
    if spoil is not None:
        owner, key = fields[spoil]
        owner[key] = draw(ANY_JSON)
    return data


@settings(max_examples=60, deadline=None)
@given(data=scenario_dicts())
def test_random_scenario_loads_and_solves_or_names_its_fault(data):
    try:
        sc = load_scenario(json.dumps(data))
    except ScenarioError:
        return
    params = SolverParams(population_size=8, generations=2, seed=0, exposure_step=0.5)
    try:
        result = evolve(sc, params)
    except InfeasibleScenarioError:
        # only a straight start-goal leg longer than the budget is hopeless
        assert math.dist((sc.start.x, sc.start.y), (sc.goal.x, sc.goal.y)) > sc.t_max - 1e-9
        return
    for sol in result.front:
        assert check_tour(sc, sol.plan, sol.fitness.length) == []


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=scenario_dicts())
def test_solve_any_scenario_file_exits_zero_or_one(tmp_path, capsys, data):
    sc_file = tmp_path / "sc.json"
    sc_file.write_text(json.dumps(data))
    rc = main(["solve", "--scenario", str(sc_file), "--population", "8", "--generations", "2",
               "--exposure-step", "0.5", "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 0 and err == "" or rc == 1 and err.startswith(("error: ", "infeasible scenario: "))
