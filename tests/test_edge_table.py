"""The per-run edge table gives exactly the numbers of a direct rebuild."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stealthtour import evolution, geometry, oracles, sensing
from stealthtour.evolution import (
    Chromosome, EdgeTable, _initial_members, _repair, _score_tours, _tour, decode, evaluate,
    evaluate_all, evolve, repair_budget,
)
from stealthtour.geometry import FAMILIES, Pose, build_tour
from stealthtour.oracles import (
    decoded_tour, dubins_shortest_reference, family_oracle_length, field_intensity,
    total_reward,
)
from stealthtour.pareto import Fitness
from stealthtour.scenario import (
    SolverParams, generate_instance, load_scenario, scenario_to_dict, with_overrides,
)
from stealthtour.sensing import exposure

STEP = 0.5
CROSS_1 = generate_instance("cross", 1)
IDS = [loc.id for loc in CROSS_1.locations]
SCENARIOS = {
    "cross-1": CROSS_1,
    "grid-2-closed": with_overrides(generate_instance("grid", 2, closed=True),
                                    t_max=120.0, rho_min=1.0, rho_max=4.0),
    "fixed-headings": replace(CROSS_1, fixed_headings={IDS[0]: 0.0, IDS[3]: 1.5, IDS[7]: 4.0,
                                                       IDS[-1]: 0.5}),
}


def chromosome_pool(sc, seed, size=8):
    """Variants of one random chromosome, so that their tours share edges."""
    rng = np.random.default_rng(seed)
    m = len(sc.locations)
    base = Chromosome(np.where(rng.random(m) < 0.7, rng.random(m), -1.0),
                      rng.random(m) * 2.0 * np.pi,
                      sc.rho_min + rng.random(m) * (sc.rho_max - sc.rho_min))
    base.keys[0], base.keys[-1] = 0.0, 1.0
    pool = []
    for _ in range(size):
        ch = base.copy()
        for i in rng.integers(1, m - 1, size=2):
            ch.keys[i] = rng.random() if ch.keys[i] < 0.0 else -1.0
        i = int(rng.integers(1, m - 1))
        ch.thetas[i] = rng.random() * 2.0 * np.pi
        pool.append(ch)
    return pool


def direct_fitness(ch, sc):
    plan = decode(ch, sc)
    tour = build_tour(list(plan.poses), list(plan.radii))
    return Fitness(total_reward(sc, plan.ids), exposure(sc.field, tour, STEP), tour.total_length)


def rebuild_repair(ch, sc, rng):
    """Random-drop repair that rebuilds the whole tour after every drop."""
    out = ch.copy()
    while decoded_tour(out, sc).total_length > sc.t_max:
        candidates = np.flatnonzero(out.keys[1:-1] >= 0.0) + 1
        assert candidates.size, "the direct leg alone is over budget"
        out.keys[candidates[int(rng.integers(candidates.size))]] = -1.0
    return out


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       ops=st.lists(st.tuples(st.sampled_from(["score", "repair"]), st.integers(0, 7)),
                    min_size=1, max_size=30))
def test_shared_table_matches_direct_rebuild(name, seed, ops):
    # the table evolve shares across a run, driven by its scoring and repair
    sc = SCENARIOS[name]
    pool = chromosome_pool(sc, seed)
    table = EdgeTable(sc)
    for k, (op, i) in enumerate(ops):
        if op == "score":
            assert _score_tours([_tour(pool[i], sc)], table, STEP) == [direct_fitness(pool[i], sc)]
            continue
        rngs = [np.random.default_rng([seed, k]) for _ in range(3)]
        warm = _repair(pool[i].copy(), sc, rngs[0], table).chromosome
        cold = repair_budget(pool[i], sc, rngs[1])
        assert warm.equals(cold) and warm.equals(rebuild_repair(pool[i], sc, rngs[2]))
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
        assert rngs[0].bit_generator.state == rngs[2].bit_generator.state


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_repair_joins_keys_as_a_fresh_decode(name, seed):
    sc = SCENARIOS[name]
    rng, table = np.random.default_rng(seed), EdgeTable(sc)
    for ch in chromosome_pool(sc, seed):
        member = _repair(ch.copy(), sc, rng, table)
        assert member.fitness is None
        assert member.tour == _tour(member.chromosome, sc)


class LastCandidate:
    """Stands in for the rng in repair: every drop takes the highest-index candidate."""

    def integers(self, n):
        return n - 1


def test_repair_dropping_the_last_interior_visit_joins_its_keys():
    # keys rise with the index, so the highest-index visit is the last before the goal
    m = len(CROSS_1.locations)
    rng = np.random.default_rng(4)
    ch = Chromosome(np.arange(m) / (m - 1.0), rng.random(m) * 2.0 * np.pi,
                    1.0 + rng.random(m))
    table = EdgeTable(CROSS_1)
    member = _repair(ch.copy(), CROSS_1, LastCandidate(), table)
    kept = int((member.chromosome.keys >= 0.0).sum())  # interior visits kept, plus two
    assert 2 < kept < m
    assert np.array_equal(member.chromosome.keys[:kept - 1], ch.keys[:kept - 1])
    assert (member.chromosome.keys[kept - 1:-1] < 0.0).all()
    assert member.tour == _tour(member.chromosome, CROSS_1)
    # the goal is reached with the radius of the segment into the last dropped visit
    assert member.tour[-1][4] == ch.rhos[kept - 2]
    assert table.tour_length(member.tour) <= CROSS_1.t_max


def test_repair_falls_back_to_the_cheapest_direct_leg():
    # the start-goal line is 31.6 m; headings turned away make every tour longer than 33
    sc = with_overrides(CROSS_1, t_max=33.0)
    m = len(sc.locations)
    bearing = math.atan2(sc.goal.y - sc.start.y, sc.goal.x - sc.start.x) % (2.0 * np.pi)
    ch = Chromosome(np.linspace(0.0, 1.0, m), np.full(m, (bearing + np.pi) % (2.0 * np.pi)),
                    np.full(m, 2.0))
    member = _repair(ch.copy(), sc, np.random.default_rng(0), EdgeTable(sc))
    assert member.tour == _tour(member.chromosome, sc) == [(0, bearing, m - 1, bearing, 1.0)]
    assert (member.chromosome.keys[1:-1] < 0.0).all()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), index=st.integers(0, 7))
def test_repairing_a_repaired_chromosome_changes_nothing(name, seed, index):
    # evolve skips the repair of a child equal to a member on this fact
    sc = SCENARIOS[name]
    rng, table = np.random.default_rng(seed), EdgeTable(sc)
    member = _initial_members(sc, SolverParams(population_size=8), rng, table)[index]
    state, entries, solved = rng.bit_generator.state, dict(table.edges), table.solved
    again = _repair(member.chromosome.copy(), sc, rng, table)
    assert again.chromosome.equals(member.chromosome) and again.tour == member.tour
    assert rng.bit_generator.state == state
    assert table.edges == entries and table.solved == solved


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), batch=st.sampled_from([1, 3000, sensing.BATCH_PAIRS]))
def test_evaluate_all_equals_one_at_a_time(name, seed, batch):
    sc = SCENARIOS[name]
    pool = chromosome_pool(sc, seed)
    one_at_a_time = [evaluate(ch, sc, STEP) for ch in pool]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sensing, "BATCH_PAIRS", batch)
        assert evaluate_all(pool, sc, STEP) == one_at_a_time
        # a shared table holding some lengths from repair, then every exposure
        table = EdgeTable(sc)
        _repair(pool[0].copy(), sc, np.random.default_rng(seed), table)
        tours = [_tour(ch, sc) for ch in pool]
        assert _score_tours(tours, table, STEP) == one_at_a_time
        assert _score_tours(tours, table, STEP) == one_at_a_time


def test_reward_sum_starts_at_positive_zero():
    # rewards are added to 0.0, and 0.0 + -0.0 is +0.0: a sum begun from the
    # first reward would give -0.0
    data = scenario_to_dict(CROSS_1)
    for loc in data["locations"]:
        loc["reward"] = -0.0
    sc = load_scenario(json.dumps(data))
    assert all(math.copysign(1.0, loc.reward) == -1.0 for loc in sc.locations)
    ch = chromosome_pool(sc, 3)[0]
    rewards = [evaluate(ch, sc, STEP).reward, evolution.score(decode(ch, sc), sc, STEP).reward]
    assert [math.copysign(1.0, r) for r in rewards] == [1.0, 1.0]


def test_table_counts_its_traffic_on_the_benchmark_solve():
    # the benchmark's cross-default solve: cross-1, 100 x 100, reference-point, step 0.05
    params = SolverParams(population_size=100, generations=100, selection="reference-point",
                          seed=5, exposure_step=0.05)
    result = evolve(CROSS_1, params)
    assert result.curves_solved == 10_211
    # 6,035 distinct edges, of which 1,859 were only ever needed for their length
    assert result.curves_integrated == 4_176


def test_evolve_builds_no_curve_object(monkeypatch):
    params = SolverParams(population_size=20, generations=5, seed=3, exposure_step=STEP)
    expected = evolve(SCENARIOS["grid-2-closed"], params)

    def refuse(*args, **kwargs):
        raise AssertionError("a curve object was built on the scoring path")

    monkeypatch.setattr(geometry, "dubins_shortest", refuse)
    monkeypatch.setattr(geometry, "DubinsPath", refuse)
    got = evolve(SCENARIOS["grid-2-closed"], params)
    assert [(s.fitness, s.plan) for s in got.front] == [(s.fitness, s.plan) for s in expected.front]
    assert all(a.chromosome.equals(b.chromosome) for a, b in zip(got.front, expected.front))
    assert got.stats == expected.stats


def test_each_scoring_pass_integrates_once_in_bounded_runs(monkeypatch):
    params = SolverParams(population_size=20, generations=4, seed=2, exposure_step=STEP)
    expected = evolve(CROSS_1, params)
    row_exposures, simpson_run = sensing.row_exposures, sensing._simpson_run
    calls, runs = [], []

    def count_calls(field, rows, *rest):
        calls.append(len(rows))
        return row_exposures(field, rows, *rest)

    def record_run(field, rows, step):
        runs.append([sensing.quadrature_pairs(field, row[0], step) for row in rows])
        return simpson_run(field, rows, step)

    monkeypatch.setattr(sensing, "BATCH_PAIRS", 500)
    monkeypatch.setattr(sensing, "row_exposures", count_calls)
    monkeypatch.setattr(sensing, "_simpson_run", record_run)
    got = evolve(CROSS_1, params)
    assert len(calls) == params.generations + 1
    assert sum(calls) == got.curves_integrated
    # each run closes once it reaches the budget, so only its last curve may pass it
    assert len(runs) > len(calls)
    assert all(sum(pairs[:-1]) < sensing.BATCH_PAIRS for pairs in runs)
    assert [s.fitness for s in got.front] == [s.fitness for s in expected.front]
    assert got.stats == expected.stats


def test_float_sums_do_not_depend_on_the_python_version(monkeypatch):
    # from Python 3.12 the builtin sum compensates float rounding; fsum stands in for it
    pool = chromosome_pool(CROSS_1, 7, size=30)
    fits = evaluate_all(pool, CROSS_1, STEP)
    plan = decode(pool[0], CROSS_1)
    tour = build_tour(list(plan.poses), list(plan.radii))
    tour_exposure = exposure(CROSS_1.field, tour, STEP)
    rng = np.random.default_rng(11)
    pairs = [(Pose(*rng.uniform(-20.0, 20.0, 2), rng.uniform(0.0, 2.0 * np.pi)),
              Pose(*rng.uniform(-20.0, 20.0, 2), rng.uniform(0.0, 2.0 * np.pi)),
              rng.uniform(0.5, 4.0)) for _ in range(300)]
    curves = [dubins_shortest_reference(*pair) for pair in pairs]
    families = [(*pair, fam) for pair in pairs for fam in FAMILIES]
    family_lengths = [family_oracle_length(*args) for args in families]
    points = rng.uniform((0.0, 0.0), (30.0, 22.0), (10_000, 2)).tolist()
    intensities = [field_intensity(CROSS_1.field, x) for x in points]
    for module in (evolution, sensing, oracles):
        monkeypatch.setattr(module, "sum", math.fsum, raising=False)
    assert evaluate_all(pool, CROSS_1, STEP) == fits
    assert exposure(CROSS_1.field, tour, STEP) == tour_exposure
    assert [dubins_shortest_reference(*pair) for pair in pairs] == curves
    assert [family_oracle_length(*args) for args in families] == family_lengths
    assert [field_intensity(CROSS_1.field, x) for x in points] == intensities
