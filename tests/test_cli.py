import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stealthtour import oracles
from stealthtour.cli import _params_from_args, build_parser, main
from stealthtour.evolution import plan_from_tour
from stealthtour.scenario import (
    ScenarioError, SolverParams, generate_instance, save_scenario, scenario_to_dict,
)

SMALL_RUN = [
    "--instance", "cross", "--instance-seed", "1",
    "--seed", "3", "--population", "16", "--generations", "4",
]


def run_solve(out_dir, extra=()):
    rc = main(["solve", *SMALL_RUN, "--out-dir", str(out_dir), *extra])
    assert rc == 0
    return (out_dir / "front.csv").read_bytes(), (out_dir / "report.json").read_bytes()


def test_solve_outputs_and_reproducibility(tmp_path):
    csv_a, rep_a = run_solve(tmp_path / "a")
    csv_b, rep_b = run_solve(tmp_path / "b")
    assert csv_a.splitlines()[0] == b"reward,exposure,length"
    assert len(csv_a.splitlines()) >= 2
    assert csv_a == csv_b
    # report differs only in timing
    da, db = json.loads(rep_a), json.loads(rep_b)
    da.pop("duration_seconds"), db.pop("duration_seconds")
    assert da == db


def test_solve_zero_generations(tmp_path):
    rc = main(["solve", *SMALL_RUN[:6], "--population", "8", "--generations", "0",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(report["generations"]) == 1
    assert report["budget_violations"] == 0


def test_solve_flags_default_to_solver_params():
    parser = build_parser()
    assert _params_from_args(parser.parse_args(["solve", "--instance", "cross"])) == SolverParams()
    args = parser.parse_args(["solve", "--instance", "cross", "--population", "7",
                              "--kappa", "3", "--align"])
    assert _params_from_args(args) == SolverParams(population_size=7, von_mises_kappa=3.0,
                                                   alignment_mutation=True)
    args = parser.parse_args(["evaluate", "--instance", "cross", "--tour", "t.json"])
    assert args.exposure_step == SolverParams().exposure_step


def test_solve_infeasible_budget_exits_one(tmp_path, capsys):
    rc = main(["solve", *SMALL_RUN, "--t-max", "0.5", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "infeasible" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--population", "0"), ("--exposure-step", "-1"), ("--exposure-step", "nan"),
    ("--exposure-step", "inf"), ("--kappa", "nan"),
    ("--kappa", "1e-300"), ("--kappa", "1e300"), ("--seed", "-1"),
])
def test_solve_bad_parameter_exits_one(tmp_path, capsys, flag, value):
    rc = main(["solve", *SMALL_RUN, flag, value, "--out-dir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_solve_out_dir_that_is_a_file_exits_one(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    rc = main(["solve", *SMALL_RUN, "--out-dir", str(afile)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert afile.read_text() == "keep\n"


def test_solve_output_path_that_is_a_directory_exits_one(tmp_path, capsys):
    (tmp_path / "front.csv").mkdir()
    rc = main(["solve", *SMALL_RUN, "--out-dir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_evaluate_round_trips_report(tmp_path, capsys):
    _, rep = run_solve(tmp_path)
    report = json.loads(rep)
    rc = main(["evaluate", "--instance", "cross", "--instance-seed", "1",
               "--report", str(tmp_path / "report.json"), "--index", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict FEASIBLE" in out
    values = {}
    for line in out.splitlines():
        key, _, val = line.partition(" ")
        if key in ("reward", "exposure", "length"):
            values[key] = float(val)
    stored = report["front"][0]
    for key in ("reward", "exposure", "length"):
        assert values[key] == pytest.approx(stored[key], abs=1e-9)


@pytest.mark.parametrize("step", ["inf", "nan", "0", "-1"])
def test_evaluate_bad_exposure_step_exits_one(tmp_path, cross, capsys, step):
    sc_file = tmp_path / "sc.json"
    sc_file.write_text(save_scenario(cross))
    start, goal = cross.locations[0], cross.locations[-1]
    tour_file = tmp_path / "tour.json"
    for radius in (1.0, 50.0):  # the second radius breaks the model
        tour_file.write_text(json.dumps({"ids": [start.id, goal.id], "headings": [0.0, 0.0],
                                         "radii": [radius]}))
        rc = main(["evaluate", "--scenario", str(sc_file), "--tour", str(tour_file),
                   "--exposure-step", step])
        assert_one_error_line(capsys, rc)


def test_evaluate_tour_file_and_infeasible(tmp_path, cross, capsys):
    sc_file = tmp_path / "sc.json"
    sc_file.write_text(save_scenario(cross))
    start, goal = cross.locations[0], cross.locations[-1]
    tour = {"ids": [start.id, goal.id], "headings": [0.0, 0.0], "radii": [1.0]}
    tour_file = tmp_path / "tour.json"
    tour_file.write_text(json.dumps(tour))

    rc = main(["evaluate", "--scenario", str(sc_file), "--tour", str(tour_file)])
    assert rc == 0
    assert "verdict FEASIBLE" in capsys.readouterr().out

    rc = main(["evaluate", "--scenario", str(sc_file), "--t-max", "1.0",
               "--tour", str(tour_file)])
    assert rc == 1
    assert "verdict INFEASIBLE" in capsys.readouterr().out


def test_evaluate_unknown_id_errors(tmp_path, cross, capsys):
    sc_file = tmp_path / "sc.json"
    sc_file.write_text(save_scenario(cross))
    tour_file = tmp_path / "tour.json"
    tour_file.write_text(json.dumps({"ids": [0, 9999], "headings": [0.0, 0.0],
                                     "radii": [1.0]}))
    rc = main(["evaluate", "--scenario", str(sc_file), "--tour", str(tour_file)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_evaluate_tour_validation(cross):
    start, goal = cross.locations[0], cross.locations[-1]
    with pytest.raises(ScenarioError, match="heading"):
        plan_from_tour(cross, [start.id, goal.id], [0.0, 7.0], [1.0])
    with pytest.raises(ScenarioError, match="radius"):
        plan_from_tour(cross, [start.id, goal.id], [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ScenarioError):
        plan_from_tour(cross, [start.id], [0.0], [])


CROSS_1 = generate_instance("cross", 1)
START, TARGET, GOAL = (CROSS_1.locations[i].id for i in (0, 1, -1))


@pytest.mark.parametrize("spoil", [
    lambda d: d.update(t_max=math.nan),
    lambda d: d["locations"][3].update(x=math.nan),
    lambda d: d["locations"][3].update(reward=math.inf),
], ids=["nan-t_max", "nan-x", "inf-reward"])
def test_solve_non_finite_scenario_file_exits_one(tmp_path, capsys, spoil):
    data = scenario_to_dict(CROSS_1)
    spoil(data)
    sc_file = tmp_path / "sc.json"
    sc_file.write_text(json.dumps(data))  # json writes NaN and Infinity as bare words
    rc = main(["solve", "--scenario", str(sc_file), "--population", "4", "--generations", "0",
               "--out-dir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("spoil", [
    lambda d: d["locations"][3].update(x=1e300),
    lambda d: d.update(rho_min=1e300, rho_max=1e300, t_max=1e300),
    lambda d: d.update(rho_min=1e-300, rho_max=1e-300),
    lambda d: d.update(sensors=[[15.0, -1e300]]),
], ids=["huge-x", "huge-radii-and-budget", "tiny-radii", "huge-sensor-y"])
def test_solve_scenario_file_beyond_workspace_bound_exits_one(tmp_path, capsys, spoil):
    data = scenario_to_dict(CROSS_1)
    spoil(data)
    sc_file = tmp_path / "sc.json"
    sc_file.write_text(json.dumps(data))
    rc = main(["solve", "--scenario", str(sc_file), "--population", "4", "--generations", "1",
               "--out-dir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "front.csv").exists()


def assert_one_error_line(capsys, rc, *absent):
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not any(path.exists() for path in absent)


HUGE_INT = 10**401  # past float range; json writes and reads it exactly


@pytest.mark.parametrize("spoil", [
    lambda d: d["locations"][3].update(id=math.inf),  # json reads 1e400 as this infinity
    lambda d: d.update(start_id=math.inf),
    lambda d: d.update(t_max=HUGE_INT),
    lambda d: d.update(fixed_headings=[1, 2]),
    lambda d: d.update(closed="no"),
], ids=["infinite-id", "infinite-start_id", "huge-int-t_max", "list-fixed_headings",
        "string-closed"])
def test_solve_malformed_scenario_file_exits_one(tmp_path, capsys, spoil):
    # an open scenario whose start and goal coincide: read as true, "closed": "no" would load
    data = dict(scenario_to_dict(generate_instance("grid", 2, closed=True)), closed=False)
    spoil(data)
    sc_file = tmp_path / "sc.json"
    sc_file.write_text(json.dumps(data))
    rc = main(["solve", "--scenario", str(sc_file), "--population", "4", "--generations", "0",
               "--out-dir", str(tmp_path)])
    assert_one_error_line(capsys, rc, tmp_path / "front.csv")


def test_solve_quadrature_beyond_bound_exits_one(tmp_path, capsys):
    rc = main(["solve", "--instance", "cross", "--population", "4", "--generations", "0",
               "--exposure-step", "1e-300", "--out-dir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "point-sensor pairs" in err
    assert not (tmp_path / "front.csv").exists()


def test_evaluate_edge_beyond_quadrature_bound_exits_one(tmp_path, capsys):
    # start and goal 2e9 apart lie inside the loader's bounds, but the one edge
    # between them would need 4e10 samples at step 0.05
    data = scenario_to_dict(CROSS_1)
    data["locations"][0].update(x=-1e9, y=0.0)
    data["locations"][-1].update(x=1e9, y=0.0)
    sc_file = tmp_path / "sc.json"
    sc_file.write_text(json.dumps(data))
    tour_file = tmp_path / "tour.json"
    tour_file.write_text(json.dumps({"ids": [START, GOAL], "headings": [0.0, 0.0],
                                     "radii": [1.0]}))
    rc = main(["evaluate", "--scenario", str(sc_file), "--tour", str(tour_file)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "point-sensor pairs" in err


def evaluate_tour_file(tmp_path, content, *extra):
    tour_file = tmp_path / "tour.json"
    tour_file.write_text(content)
    return main(["evaluate", "--instance", "cross", "--instance-seed", "1",
                 "--tour", str(tour_file), *extra])


@pytest.mark.parametrize("tour, violation", [
    ({"ids": [START, TARGET, TARGET, TARGET, GOAL], "headings": [0.0] * 5,
      "radii": [1.0] * 4}, f"violation repeat: locations [{TARGET}] visited more than once"),
    ({"ids": [START, GOAL], "headings": [0.0, 0.0], "radii": [0.01]},
     "violation radius: 0.01 outside [1.0, 2.0]"),
    ({"ids": [TARGET, GOAL], "headings": [0.0, 0.0], "radii": [1.0]},
     f"violation start: tour begins at location {TARGET}, not {START}"),
], ids=["repeated-target", "radius-below-rho-min", "not-from-start"])
def test_evaluate_names_model_violations(tmp_path, capsys, tour, violation):
    assert evaluate_tour_file(tmp_path, json.dumps(tour)) == 1
    out = capsys.readouterr().out
    assert violation in out.splitlines()
    assert out.endswith("verdict INFEASIBLE\n")


@pytest.mark.parametrize("content", [
    json.dumps([START, GOAL]),
    json.dumps({"ids": None, "headings": [0.0, 0.0], "radii": [1.0]}),
    json.dumps({"ids": [START, GOAL], "headings": ["north", 0.0], "radii": [1.0]}),
    json.dumps({"ids": [START, GOAL], "headings": [0.0, 0.0], "radii": [math.nan]}),
    json.dumps({"ids": [START, GOAL], "headings": [0.0, 0.0], "radii": [math.inf]}),
    json.dumps({"ids": [START, GOAL], "headings": [0.0, 0.0], "radii": [-1.0]}),
    "[" * 100_000 + "]" * 100_000,
], ids=["top-level-list", "null-ids", "string-heading", "nan-radius", "inf-radius",
        "negative-radius", "deeply-nested"])
def test_evaluate_bad_tour_file_errors(tmp_path, capsys, content):
    assert evaluate_tour_file(tmp_path, content) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("index", ["999", "-1"])
def test_evaluate_index_out_of_range(tmp_path, capsys, index):
    run_solve(tmp_path)
    rc = main(["evaluate", "--instance", "cross", "--instance-seed", "1",
               "--report", str(tmp_path / "report.json"), "--index", index])
    assert rc == 1
    assert "out of range" in capsys.readouterr().err


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
LOCATION_IDS = st.sampled_from([loc.id for loc in CROSS_1.locations])


@st.composite
def tours(draw):
    """Well-formed tours from start to goal, often with one field or element spoiled."""
    n = draw(st.integers(2, 6))
    interior = draw(st.lists(LOCATION_IDS, min_size=n - 2, max_size=n - 2, unique=True))
    tour = {
        "ids": [START, *interior, GOAL],
        "headings": draw(st.lists(st.floats(0.0, 6.28), min_size=n, max_size=n)),
        "radii": draw(st.lists(st.floats(1.0, 2.0), min_size=n - 1, max_size=n - 1)),
    }
    spoil = draw(st.sampled_from([None, "ids", "headings", "radii"]))
    if spoil and draw(st.booleans()):
        tour[spoil] = draw(JSON)
    elif spoil:
        tour[spoil][draw(st.integers(0, len(tour[spoil]) - 1))] = draw(LOCATION_IDS | JSON)
    return tour


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(document=JSON | tours())
def test_evaluate_any_json_tour_never_raises(tmp_path, document):
    assert evaluate_tour_file(tmp_path, json.dumps(document), "--exposure-step", "0.5") in (0, 1)


def test_plot_command_deterministic(tmp_path):
    run_solve(tmp_path)
    report = tmp_path / "report.json"
    rc = main(["plot", "--report", str(report), "--index", "0",
               "--out", str(tmp_path / "p1.svg")])
    assert rc == 0
    rc = main(["plot", "--report", str(report), "--index", "0",
               "--out", str(tmp_path / "p2.svg")])
    assert rc == 0
    svg = (tmp_path / "p1.svg").read_bytes()
    assert svg == (tmp_path / "p2.svg").read_bytes()
    assert svg.startswith(b"<svg")


def test_plot_index_out_of_range(tmp_path, capsys):
    run_solve(tmp_path)
    rc = main(["plot", "--report", str(tmp_path / "report.json"),
               "--index", "999", "--out", str(tmp_path / "p.svg")])
    assert rc == 1
    assert "out of range" in capsys.readouterr().err


def _spoiled_report(tmp_path, how) -> bytes:
    run_solve(tmp_path)
    text = (tmp_path / "report.json").read_text()
    if how == "bad-utf8":
        return text.encode() + b"\xff\xfe"
    if how == "deep-nesting":
        return b"[" * 100_000 + b"]" * 100_000
    report = json.loads(text)
    field, value = how.split("=")
    report["front"][0][field] = json.loads(value)
    return json.dumps(report).encode()


@pytest.mark.parametrize("how", [
    "bad-utf8", "deep-nesting", 'reward="abc"', "exposure=null", "length=true", "length=1e400",
])
def test_plot_bad_report_exits_one_without_svg(tmp_path, capsys, how):
    report = tmp_path / "bad.json"
    report.write_bytes(_spoiled_report(tmp_path, how))
    out = tmp_path / "p.svg"
    rc = main(["plot", "--report", str(report), "--index", "0", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("spoil", [
    lambda r: r["front"][0].pop("reward"),
    lambda r: r.pop("scenario"),
    lambda r: r.update(scenario=[1, 2]),
    lambda r: r["scenario"].update(fixed_headings=[1, 2]),
    lambda r: r["scenario"].update(t_max=HUGE_INT),
    lambda r: r["scenario"]["locations"][1].update(id=math.inf),
], ids=["member-without-reward", "no-scenario", "list-scenario", "list-fixed_headings",
        "huge-int-t_max", "infinite-id"])
def test_plot_report_with_bad_member_or_scenario_exits_one(tmp_path, capsys, spoil):
    report = json.loads(run_solve(tmp_path)[1])
    spoil(report)
    (tmp_path / "bad.json").write_text(json.dumps(report))
    out = tmp_path / "p.svg"
    capsys.readouterr()
    rc = main(["plot", "--report", str(tmp_path / "bad.json"), "--index", "0", "--out", str(out)])
    assert_one_error_line(capsys, rc, out)


def test_plot_straight_tour_chord_length(tmp_path, capsys):
    # start-goal only tour in an empty field: plotted polyline should be
    # a straight segment whose chord length matches the reported length
    scenario = {
        "name": "straight",
        "t_max": 50.0,
        "rho_min": 1.0,
        "rho_max": 1.0,
        "closed": False,
        "sensing": {"alpha": 50.0, "mu": 2.0, "cap": 30.0},
        "sensors": [],
        "locations": [
            {"id": 0, "x": 0.0, "y": 0.0, "reward": 0.0},
            {"id": 1, "x": 20.0, "y": 0.0, "reward": 0.0},
        ],
        "start_id": 0,
        "goal_id": 1,
        "fixed_headings": {"0": 0.0, "1": 0.0},
    }
    sc_file = tmp_path / "sc.json"
    sc_file.write_text(json.dumps(scenario))
    rc = main(["solve", "--scenario", str(sc_file), "--seed", "1",
               "--population", "8", "--generations", "0",
               "--out-dir", str(tmp_path), "--plot", "0"])
    assert rc == 0
    svg = (tmp_path / "plot_0.svg").read_text()
    start = svg.index('points="', svg.index("polyline")) + len('points="')
    pts = svg[start:svg.index('"', start)].split()
    coords = [tuple(map(float, p.split(","))) for p in pts]
    chord = sum(math.hypot(b[0] - a[0], b[1] - a[1])
                for a, b in zip(coords, coords[1:]))
    report = json.loads((tmp_path / "report.json").read_text())
    length = report["front"][0]["length"]
    assert length == pytest.approx(20.0, abs=1e-9)
    # the svg canvas spans the 20 m tour plus a 2 m margin each side
    scale = 640.0 / 24.0
    assert abs(chord - scale * length) / (scale * length) < 1e-3
    # every vertex lies on one straight line in svg space
    y0 = coords[0][1]
    assert all(abs(y - y0) < 1e-6 for _, y in coords)


def test_oracle_checks_all_pass(capsys):
    rc = main(["oracle", "--check", "exposure-arctan"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("PASS")
    rc = main(["oracle", "--check", "dominance", "--n", "100"])
    assert rc == 0
    rc = main(["oracle", "--check", "dubins-endpoint", "--n", "200"])
    assert rc == 0


@pytest.mark.parametrize("n", ["-5", "0"])
def test_oracle_sample_size_below_one_exits_two(capsys, n):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--check", "dubins-endpoint", "--n", n])
    assert exc.value.code == 2
    assert "not a positive integer" in capsys.readouterr().err


def test_oracle_negative_seed_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--check", "dominance", "--seed", "-1"])
    assert exc.value.code == 2
    assert "not a non-negative integer" in capsys.readouterr().err


def test_oracle_failing_check_prints_fail_and_exits_one(monkeypatch, capsys):
    monkeypatch.setitem(oracles.ORACLE_CHECKS, "dominance", (lambda n, seed: (False, "forced"), 1))
    assert main(["oracle", "--check", "dominance"]) == 1
    assert capsys.readouterr().out == "FAIL dominance (forced)\n"


def test_bad_arguments_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # missing scenario source
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("plot", ["abc", "0,", "-1"])
def test_solve_bad_plot_value_exits_one_before_solving(tmp_path, capsys, plot):
    rc = main(["solve", *SMALL_RUN, "--out-dir", str(tmp_path), "--plot", plot])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: --plot")
    assert list(tmp_path.iterdir()) == []


def test_solve_plot_index_outside_front_exits_one(tmp_path, capsys):
    rc = main(["solve", *SMALL_RUN, "--out-dir", str(tmp_path), "--plot", "0,999"])
    assert rc == 1
    assert "out of range" in capsys.readouterr().err
    assert not list(tmp_path.glob("plot_*.svg"))
