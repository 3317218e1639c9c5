import importlib
import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import i0e, i1e

from stealthtour import evolution
from stealthtour.evolution import (
    Chromosome,
    InfeasibleScenarioError,
    align_headings,
    check_tour,
    crossover_two_point,
    decode,
    evaluate,
    evolve,
    initialize_population,
    mutate,
    repair_budget,
    sample_von_mises,
    _Member,
    _tour,
    _update_archive,
)
from stealthtour.geometry import Pose, dubins_shortest
from stealthtour.oracles import bessel_i0, bessel_i1, decoded_tour, update_archive_reference
from stealthtour.pareto import Fitness
from stealthtour.scenario import (
    KAPPA_RANGE, Scenario, SolverParams, TargetLocation, generate_instance,
)
from stealthtour.sensing import SensorField

TWO_PI = 2.0 * math.pi


def empty_field():
    return SensorField(nodes=(), alpha=50.0, mu=2.0, cap=30.0)


def line_scenario(n_targets=2, t_max=100.0, field=None, **kw):
    """Targets evenly spaced on the x axis between start (0,0) and goal."""
    locs = [TargetLocation(0, 0.0, 0.0, 0.0)]
    for i in range(n_targets):
        locs.append(TargetLocation(i + 1, 5.0 * (i + 1), 0.0, 0.5))
    locs.append(TargetLocation(n_targets + 1, 5.0 * (n_targets + 1), 0.0, 0.0))
    return Scenario(
        name="line",
        locations=tuple(locs),
        field=field or empty_field(),
        t_max=t_max,
        rho_min=1.0,
        rho_max=2.0,
        **kw,
    )


def chromosome(keys, thetas=None, rhos=None):
    keys = np.asarray(keys, dtype=float)
    m = keys.size
    thetas = np.zeros(m) if thetas is None else np.asarray(thetas, dtype=float)
    rhos = np.full(m, 1.0) if rhos is None else np.asarray(rhos, dtype=float)
    return Chromosome(keys, thetas, rhos)


def test_decode_sorts_by_key():
    sc = line_scenario(2)
    ch = chromosome([0.0, 0.7, 0.3, 1.0])
    plan = decode(ch, sc)
    assert plan.order == (0, 2, 1, 3)


def test_decode_discards_inactive():
    sc = line_scenario(2)
    ch = chromosome([0.0, -1.0, -1.0, 1.0])
    plan = decode(ch, sc)
    assert plan.order == (0, 3)
    assert len(plan.radii) == 1


def test_decode_applies_fixed_headings_and_closed():
    sc = line_scenario(1, fixed_headings={1: 2.5})
    ch = chromosome([0.0, 0.4, 1.0], thetas=[0.3, 1.0, 5.0])
    plan = decode(ch, sc)
    assert plan.poses[1].theta == pytest.approx(2.5)

    locs = list(line_scenario(1).locations)
    locs[-1] = replace(locs[-1], x=0.0, y=0.0)
    closed = Scenario("c", tuple(locs), empty_field(), 100.0, 1.0, 2.0, closed=True)
    plan = decode(ch, closed)
    assert plan.poses[-1].theta == plan.poses[0].theta == pytest.approx(0.3)


def test_evaluate_empty_tour_empty_field():
    sc = line_scenario(2)
    ch = chromosome([0.0, -1.0, -1.0, 1.0])
    fit = evaluate(ch, sc, 0.05)
    direct = dubins_shortest(Pose(0, 0, 0), Pose(15, 0, 0), 1.0)
    assert fit.reward == 0.0
    assert fit.exposure == 0.0
    assert fit.length == pytest.approx(direct.length)


def test_evaluate_matches_arctan_oracle():
    field = SensorField(nodes=((0.0, 5.0),), alpha=50.0, mu=2.0, cap=30.0)
    locs = (TargetLocation(0, -10.0, 0.0, 0.0), TargetLocation(1, 10.0, 0.0, 0.0))
    sc = Scenario("arctan", locs, field, t_max=50.0, rho_min=1.0, rho_max=1.0,
                  fixed_headings={0: 0.0, 1: 0.0})
    fit = evaluate(chromosome([0.0, 1.0]), sc, 0.05)
    assert fit.reward == 0.0
    assert fit.exposure == pytest.approx(22.14297, abs=1e-3)
    assert fit.length == pytest.approx(20.0, abs=1e-9)


def test_decode_evaluate_length_consistency(cross, rng):
    m = len(cross.locations)
    for _ in range(10):
        keys = np.where(rng.random(m) < 0.6, rng.random(m), -1.0)
        keys[0], keys[-1] = 0.0, 1.0
        ch = Chromosome(keys, rng.random(m) * TWO_PI,
                        1.0 + rng.random(m))
        fit = evaluate(ch, cross, 0.05)
        assert decoded_tour(ch, cross).total_length == pytest.approx(fit.length, abs=1e-12)


def test_crossover_identical_parents(rng):
    ch = chromosome([0.0, 0.2, 0.5, 1.0], thetas=[1, 2, 3, 4], rhos=[1, 1.5, 2, 1])
    a, b = crossover_two_point(ch, ch, rng)
    assert a.equals(ch) and b.equals(ch)


def test_crossover_conserves_gene_multisets(rng):
    m = 8
    for _ in range(50):
        pa = Chromosome(rng.random(m), rng.random(m) * TWO_PI, 1 + rng.random(m))
        pb = Chromosome(rng.random(m), rng.random(m) * TWO_PI, 1 + rng.random(m))
        pa.keys[0] = pb.keys[0] = 0.0
        pa.keys[-1] = pb.keys[-1] = 1.0
        ca, cb = crossover_two_point(pa, pb, rng)
        for i in range(m):
            parents = {
                (pa.keys[i], pa.thetas[i], pa.rhos[i]),
                (pb.keys[i], pb.thetas[i], pb.rhos[i]),
            }
            children = {
                (ca.keys[i], ca.thetas[i], ca.rhos[i]),
                (cb.keys[i], cb.thetas[i], cb.rhos[i]),
            }
            assert children == parents
        # endpoints never swapped
        assert ca.keys[0] == 0.0 and ca.keys[-1] == 1.0


def test_mutate_zero_probability_is_identity(rng):
    sc = line_scenario(3)
    params = SolverParams(mutation_prob_gene=0.0, population_size=4, generations=1)
    ch = chromosome([0.0, 0.1, -1.0, 0.9, 1.0])
    assert mutate(ch, sc, params, rng).equals(ch)


def test_mutate_full_probability_activates_everything(rng):
    sc = line_scenario(3, t_max=1e9)  # huge budget so repair is a no-op
    params = SolverParams(mutation_prob_gene=1.0, population_size=4, generations=1)
    ch = chromosome([0.0, -1.0, -1.0, -1.0, 1.0])
    out = mutate(ch, sc, params, rng)
    assert np.all(out.keys[1:-1] >= 0.0)
    assert np.all(out.keys[1:-1] < 1.0)
    assert np.all((out.rhos[1:-1] >= sc.rho_min) & (out.rhos[1:-1] <= sc.rho_max))
    assert out.keys[0] == 0.0 and out.keys[-1] == 1.0


def test_von_mises_concentration_limit(rng):
    for _ in range(200):
        x = sample_von_mises(1.3, 1e6, rng)
        assert abs((x - 1.3 + math.pi) % TWO_PI - math.pi) < 0.01


def test_von_mises_mean_resultant_length(rng):
    kappa, mean, n = 2.0, 0.8, 100_000
    samples = np.array([sample_von_mises(mean, kappa, rng) for _ in range(n)])
    c = np.cos(samples - mean).mean()
    s = np.sin(samples - mean).mean()
    expected = bessel_i1(kappa) / bessel_i0(kappa)
    assert math.hypot(c, s) == pytest.approx(expected, abs=0.01)
    # circular mean stays on the prior heading
    assert math.atan2(s, c) == pytest.approx(0.0, abs=0.02)


@pytest.mark.parametrize("kappa", KAPPA_RANGE)
def test_von_mises_range_corners_terminate_with_bessel_resultant(kappa):
    rng = np.random.default_rng(11)
    mean, n = 0.8, 20_000
    samples = np.array([sample_von_mises(mean, kappa, rng) for _ in range(n)])
    mrl = math.hypot(np.cos(samples - mean).mean(), np.sin(samples - mean).mean())
    expected = i1e(kappa) / i0e(kappa)  # I1/I0, scaled so that 1e6 does not overflow
    if kappa < 1.0:
        # nearly uniform: a resultant of n uniform angles has n * R^2 ~ Exp(1)
        assert abs(mrl - expected) < 0.03
    else:
        # concentrated: 1 - R is about 1 / (2 kappa), known to about 1 % at this n
        assert (1.0 - mrl) == pytest.approx(1.0 - expected, rel=0.05)


@pytest.mark.parametrize("kappa", [0.0, 1e-300, 0.5e-6, 2e6, 1e150, 1e300, math.inf, math.nan])
def test_von_mises_rejects_kappa_outside_range(rng, kappa):
    with pytest.raises(ValueError, match="kappa must lie in"):
        sample_von_mises(0.0, kappa, rng)
    with pytest.raises(ValueError, match="von_mises_kappa must lie in"):
        SolverParams(von_mises_kappa=kappa)


def test_repair_leaves_feasible_untouched(rng):
    sc = line_scenario(2)
    ch = chromosome([0.0, 0.3, 0.6, 1.0])
    assert repair_budget(ch, sc, rng).equals(ch)


def test_repair_strips_to_endpoints(rng):
    sc = line_scenario(4, t_max=26.0)  # direct leg is 25 m
    ch = chromosome([0.0, 0.1, 0.3, 0.5, 0.7, 1.0],
                    thetas=[0, 3, 1, 2, 0.5, 0])
    out = repair_budget(ch, sc, rng)
    fit = evaluate(out, sc, 0.05)
    assert fit.length <= sc.t_max


def test_repair_raises_when_hopeless(rng):
    sc = line_scenario(1, t_max=3.0)  # direct leg is 10 m
    ch = chromosome([0.0, -1.0, 1.0])
    with pytest.raises(InfeasibleScenarioError):
        repair_budget(ch, sc, rng)


CROSS_1 = generate_instance("cross", 1)


def cross_1_genes():
    # keys from the whole float line: the start's and the goal's may be
    # inactive or sort anywhere among the interior keys
    gene = st.tuples(st.floats(allow_nan=False), st.floats(0.0, TWO_PI, exclude_max=True),
                     st.floats(CROSS_1.rho_min, CROSS_1.rho_max))
    size = len(CROSS_1.locations)
    return st.lists(gene, min_size=size, max_size=size)


@settings(deadline=None)
@given(genes=cross_1_genes(), seed=st.integers(0, 2**32 - 1))
def test_decode_and_repair_keep_start_and_goal_whatever_the_keys(genes, seed):
    sc = CROSS_1
    ch = Chromosome(*(np.array(column) for column in zip(*genes)))
    plan = decode(ch, sc)
    assert plan.ids[0] == sc.start.id and plan.ids[-1] == sc.goal.id
    out = repair_budget(ch, sc, np.random.default_rng(seed))
    fit = evaluate(out, sc, 1.0)
    assert check_tour(sc, decode(out, sc), fit.length) == []


def test_initialize_population_deterministic_and_feasible(cross):
    params = SolverParams(population_size=20, generations=1, seed=5)
    a = initialize_population(cross, params, np.random.default_rng(5))
    b = initialize_population(cross, params, np.random.default_rng(5))
    assert all(x.equals(y) for x, y in zip(a, b))
    for ch in a:
        assert ch.keys[0] == 0.0 and ch.keys[-1] == 1.0
        assert decoded_tour(ch, cross).total_length <= cross.t_max


def test_initialize_infeasible_scenario_errors():
    sc = line_scenario(1, t_max=0.5)
    params = SolverParams(population_size=4, generations=1, seed=1)
    with pytest.raises(InfeasibleScenarioError):
        initialize_population(sc, params, np.random.default_rng(1))


def test_align_collinear_and_idempotent():
    sc = line_scenario(2)
    ch = chromosome([0.0, 0.3, 0.6, 1.0], thetas=[0.0, 2.0, 4.0, 0.0])
    out = align_headings(ch, sc)
    assert out.thetas[1] == pytest.approx(0.0)  # along the x axis
    assert out.thetas[2] == pytest.approx(0.0)
    again = align_headings(out, sc)
    assert again.equals(out)


def test_align_endpoint_only_tour_unchanged():
    sc = line_scenario(2)
    ch = chromosome([0.0, -1.0, -1.0, 1.0], thetas=[0.7, 1.0, 2.0, 0.1])
    assert align_headings(ch, sc).equals(ch)


def small_params(**kw):
    defaults = dict(population_size=24, generations=6, seed=11)
    defaults.update(kw)
    return SolverParams(**defaults)


def test_evolve_zero_generations(cross):
    res = evolve(cross, small_params(generations=0))
    assert len(res.stats) == 1
    assert len(res.front) >= 1
    assert res.budget_violations == 0


def test_evolve_deterministic(cross):
    a = evolve(cross, small_params())
    b = evolve(cross, small_params())
    assert [s.fitness for s in a.front] == [s.fitness for s in b.front]
    assert a.stats == b.stats


def test_evolve_dominance_sanity_and_invariants(cross):
    res = evolve(cross, small_params(generations=12))
    fits = [s.fitness for s in res.front]
    assert max(f.reward for f in fits) > 0.0  # beats the start-goal tour
    best = max(fits, key=lambda f: f.reward)
    assert min(f.exposure for f in fits) <= best.exposure
    for sol in res.front:
        assert sol.chromosome.keys[0] == 0.0
        assert sol.chromosome.keys[-1] == 1.0
        assert sol.fitness.length <= cross.t_max + 1e-9
    hv = [s.hypervolume for s in res.stats]
    assert all(b >= a - 1e-9 for a, b in zip(hv, hv[1:]))
    assert res.budget_violations == 0


def test_evolve_crowding_distance_mode(cross):
    res = evolve(cross, small_params(selection="crowding-distance"))
    assert len(res.front) >= 1
    assert res.budget_violations == 0


def test_evolve_alignment_mode(cross):
    res = evolve(cross, small_params(alignment_mutation=True))
    assert res.budget_violations == 0


@pytest.mark.parametrize("align", [False, True])
def test_evolve_decodes_each_child_once(monkeypatch, align):
    # the benchmark's cross-default solve: cross-1, 100 x 100, reference-point,
    # step 0.05; repair hands its tour to scoring and a child equal to a parent
    # takes its member, so only repair, alignment and the final front decode
    calls = Counter()

    def count(name, items=False):
        original = getattr(evolution, name)

        def counted(first, *args, **kwargs):
            if items:
                first = list(first)
                calls[name + " items"] += len(first)
            calls[name] += 1
            return original(first, *args, **kwargs)

        monkeypatch.setattr(evolution, name, counted)

    for name in ("_visits", "_repair", "align_headings"):
        count(name)
    count("_score_tours", items=True)
    params = SolverParams(population_size=100, generations=100, seed=5, exposure_step=0.05,
                          alignment_mutation=align)
    result = evolve(generate_instance("cross", 1), params)
    assert calls["_visits"] == calls["_repair"] + calls["align_headings"] + len(result.front)
    assert calls["_score_tours"] == params.generations + 1
    if not align:
        # 12,048 repairs, 22,172 decodes and 10,100 scored tours before
        assert calls["_repair"] == 6_979
        assert calls["_visits"] == 7_003
        # the 10,100 evaluations less the 3,766 children equal to a parent
        assert calls["_score_tours items"] == 6_334
        assert result.evaluations == 10_100


def test_evolve_single_objective_returns_best():
    sc = line_scenario(4, t_max=60.0)
    res = evolve(sc, small_params(population_size=40, generations=40,
                                  single_objective=True))
    assert len(res.front) == 1
    assert res.front[0].fitness.reward == pytest.approx(2.0)  # all four targets fit


def test_single_objective_reduction_ignores_continuous_genes():
    # rho_min == rho_max and pinned headings: fitness depends only on subset/order
    sc = line_scenario(2, fixed_headings={0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0})
    sc = replace(sc, rho_min=1.0, rho_max=1.0)
    a = chromosome([0.0, 0.2, 0.8, 1.0], thetas=[0.1, 2.2, 3.3, 4.4], rhos=[1.0] * 4)
    b = chromosome([0.0, 0.3, 0.9, 1.0], thetas=[5.5, 0.7, 1.8, 2.9], rhos=[1.0] * 4)
    assert evaluate(a, sc, 0.05) == evaluate(b, sc, 0.05)


# Chromosomes over a 5-location line whose genes come from a few values, each
# with a twin whose 0.0 headings read 2*pi, so that distinct chromosomes often
# decode to one tour; and fitnesses on a small integer grid, so that batches
# are full of equal rewards, equal fitnesses and repeats.
ARCHIVE_SCENARIO = line_scenario(3)
GENE_CHROMOSOMES = st.builds(
    lambda keys, thetas, rhos: chromosome([0.0, *keys, 1.0], thetas, rhos),
    st.lists(st.sampled_from([-1.0, 0.25, 0.5]), min_size=3, max_size=3),
    st.lists(st.sampled_from([0.0, 1.0]), min_size=5, max_size=5),
    st.lists(st.sampled_from([1.0, 2.0]), min_size=5, max_size=5),
)
GRID_FITNESS = st.builds(Fitness, *(st.integers(0, hi).map(float) for hi in (2, 2, 1)))


def heading_twin(ch):
    return Chromosome(ch.keys.copy(), np.where(ch.thetas == 0.0, TWO_PI, ch.thetas), ch.rhos.copy())


@settings(deadline=None)
@given(pool=st.lists(GENE_CHROMOSOMES, min_size=1, max_size=4),
       batches=st.lists(st.lists(st.tuples(st.integers(0, 7), GRID_FITNESS), max_size=12),
                        min_size=1, max_size=5))
def test_archive_equals_pairwise_scan(pool, batches):
    sc = ARCHIVE_SCENARIO
    pool = pool + [heading_twin(ch) for ch in pool]
    archive, reference = [], []
    for batch in batches:
        population = [pool[i % len(pool)] for i, _ in batch]
        fits = [fit for _, fit in batch]
        members = [_Member(fit, ch, _tour(ch, sc)) for ch, fit in zip(population, fits)]
        archive = _update_archive(archive, members)
        reference = update_archive_reference(reference, population, fits, sc)
        assert [m.fitness for m in archive] == [s.fitness for s in reference]
        for member, solution in zip(archive, reference):
            assert member.chromosome.equals(solution.chromosome)
            assert decode(member.chromosome, sc) == solution.plan


def test_benchmark_tracer_finds_every_name_it_wraps(monkeypatch):
    # perfbench/tracing.py wraps names that evolve never calls: evolution.py's noqa imports
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    dominates = evolution.dominates
    with tracing.Tracer().installed():
        assert evolution.dominates is not dominates
    assert evolution.dominates is dominates
