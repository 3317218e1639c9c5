"""Command-line interface: solve, evaluate, oracle, plot."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import oracles
from .evolution import (
    InfeasibleScenarioError, check_tour, evolve, plan_from_tour, sample_von_mises, score,
)
from .geometry import TWO_PI, Pose, dubins_shortest, path_end
from .pareto import Fitness, non_dominated_sort
from .scenario import (
    Scenario,
    ScenarioError,
    SolverParams,
    TargetLocation,
    generate_instance,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    with_overrides,
)
from .sensing import SensorField
from .plotting import render_solution_svg


def _stored_tour(data) -> tuple:
    """The (ids, headings, radii) of a stored tour object."""
    if not isinstance(data, dict):
        raise ScenarioError("tour: need an object with ids, headings and radii")
    try:
        return data["ids"], data["headings"], data["radii"]
    except KeyError as exc:
        raise ScenarioError(f"tour: missing field {exc.args[0]!r}") from exc


def _front_member(report, index: int):
    front = report.get("front") if isinstance(report, dict) else None
    if not isinstance(front, list):
        raise ScenarioError("report: need an object with a front list")
    if not 0 <= index < len(front):
        raise ScenarioError(f"index {index} out of range (front size {len(front)})")
    return front[index]


def _plot_indices(spec: str | None) -> list[int] | None:
    """Front indices named by ``solve --plot``; None means every member."""
    if spec == "all":
        return None
    try:
        indices = [int(tok) for tok in spec.split(",")] if spec else []
    except ValueError:
        raise ValueError(f"--plot {spec!r}: need comma-separated front indices or 'all'") from None
    if any(i < 0 for i in indices):
        raise ValueError(f"--plot {spec!r}: front indices cannot be negative")
    return indices


def _load_scenario_from_args(args) -> Scenario:
    if args.scenario:
        sc = load_scenario(Path(args.scenario).read_bytes())
    else:
        sc = generate_instance(args.instance, args.instance_seed, closed=bool(args.closed))
    overrides = {}
    for name in ("t_max", "rho_min", "rho_max"):
        val = getattr(args, name)
        if val is not None:
            overrides[name] = val
    if args.scenario and args.closed:
        overrides["closed"] = True
    if overrides:
        sc = with_overrides(sc, **overrides)
    return sc


def _add_scenario_args(parser):
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--instance", choices=("cross", "grid"), help="builtin instance")
    src.add_argument("--scenario", help="scenario JSON file")
    parser.add_argument("--instance-seed", type=int, default=1,
                        help="seed for builtin instance generation")
    parser.add_argument("--t-max", type=float, default=None)
    parser.add_argument("--rho-min", type=float, default=None)
    parser.add_argument("--rho-max", type=float, default=None)
    parser.add_argument("--closed", action="store_true",
                        help="force a circuit (goal moved onto the start)")


def _params_from_args(args) -> SolverParams:
    return SolverParams(
        population_size=args.population,
        generations=args.generations,
        crossover_prob=args.crossover_prob,
        mutation_prob_individual=args.mutation_prob_individual,
        mutation_prob_gene=args.mutation_prob_gene,
        von_mises_kappa=args.kappa,
        selection=args.selection,
        seed=args.seed,
        single_objective=args.single_objective,
        alignment_mutation=args.align,
        exposure_step=args.exposure_step,
    )


def cmd_solve(args) -> int:
    try:
        sc = _load_scenario_from_args(args)
        params = _params_from_args(args)
        plots = _plot_indices(args.plot)
    except (ValueError, OSError) as exc:  # ScenarioError, or a SolverParams range check
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    try:
        result = evolve(sc, params)
    except InfeasibleScenarioError as exc:
        print(f"infeasible scenario: {exc}", file=sys.stderr)
        return 1
    duration = time.perf_counter() - t0

    lines = ["reward,exposure,length"]
    for sol in result.front:
        f = sol.fitness
        lines.append(f"{f.reward:.6g},{f.exposure:.6g},{f.length:.6g}")
    (out_dir / "front.csv").write_text("\n".join(lines) + "\n")

    report = {
        "scenario_name": sc.name,
        "scenario": scenario_to_dict(sc),
        "params": dataclasses.asdict(params),
        "seed": params.seed,
        "duration_seconds": duration,
        "budget_violations": result.budget_violations,
        "evaluations": result.evaluations,
        "generations": [dataclasses.asdict(s) for s in result.stats],
        "front": [
            {
                "reward": sol.fitness.reward,
                "exposure": sol.fitness.exposure,
                "length": sol.fitness.length,
                "ids": list(sol.plan.ids),
                "headings": [p.theta for p in sol.plan.poses],
                "radii": list(sol.plan.radii),
            }
            for sol in result.front
        ],
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")

    plots = range(len(result.front)) if plots is None else plots
    outside = [i for i in plots if i >= len(result.front)]
    if outside:
        print(f"error: --plot: index {outside[0]} out of range (front size {len(result.front)})",
              file=sys.stderr)
        return 1
    for i in plots:
        sol = result.front[i]
        svg = render_solution_svg(sc, list(sol.plan.poses), list(sol.plan.radii), sol.fitness)
        (out_dir / f"plot_{i}.svg").write_text(svg)
    print(
        f"solved {sc.name}: front size {len(result.front)}, "
        f"{result.evaluations} evaluations in {duration:.2f}s"
    )
    return 0


def cmd_evaluate(args) -> int:
    try:
        sc = _load_scenario_from_args(args)
        if args.tour:
            stored = json.loads(Path(args.tour).read_text())
        else:
            stored = _front_member(json.loads(Path(args.report).read_text()), args.index)
        plan = plan_from_tour(sc, *_stored_tour(stored))
        # a plan that breaks the model is not scored: a radius far out of range
        # can make its curves, and so the exposure quadrature, arbitrarily long
        violations = check_tour(sc, plan)
        if not violations:
            fit = score(plan, sc, args.exposure_step)
            violations = check_tour(sc, plan, fit.length)
            print(f"reward {fit.reward!r}\nexposure {fit.exposure!r}\nlength {fit.length!r}")
    except (ValueError, OSError, RecursionError) as exc:  # ValueError: ScenarioError, bad JSON
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for v in violations:
        print(f"violation {v}")
    print("verdict " + ("INFEASIBLE" if violations else "FEASIBLE"))
    return 1 if violations else 0


def cmd_plot(args) -> int:
    try:
        report = json.loads(Path(args.report).read_text())
        sol = _front_member(report, args.index)
        sc = scenario_from_dict(report["scenario"])
        plan = plan_from_tour(sc, *_stored_tour(sol))
        fit = Fitness(sol["reward"], sol["exposure"], sol["length"])
        svg = render_solution_svg(sc, list(plan.poses), list(plan.radii), fit)
        Path(args.out).write_text(svg)
    except (ScenarioError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.out}")
    return 0


# --- oracle checks --------------------------------------------------------


def _check_dubins_endpoint(n, seed):
    rng = np.random.default_rng(seed)
    worst_ep = 0.0
    for _ in range(n):
        s = Pose(rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(0, TWO_PI))
        e = Pose(rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(0, TWO_PI))
        rho = rng.uniform(0.5, 4.0)
        path = dubins_shortest(s, e, rho)
        got = path_end(path)
        err = max(
            abs(got.x - e.x),
            abs(got.y - e.y),
            abs((got.theta - e.theta + math.pi) % TWO_PI - math.pi),
        )
        worst_ep = max(worst_ep, err)
        if err > 1e-6:
            return False, f"endpoint error {err:.3e} > 1e-6"
        for fam in ("LSL", "RSR", "LSR", "RSL", "RLR", "LRL"):
            ref = oracles.family_oracle_length(s, e, rho, fam)
            if ref is not None and path.length > ref + 1e-9:
                return False, f"length {path.length:.9f} > {fam} oracle {ref:.9f}"
    return True, f"{n} pose pairs, max endpoint error {worst_ep:.3e}"


def _check_exposure_arctan(n, seed):
    field = SensorField(nodes=((0.0, 5.0),), alpha=50.0, mu=2.0, cap=30.0)
    ends = (TargetLocation(0, -10.0, 0.0, 0.0), TargetLocation(1, 10.0, 0.0, 0.0))
    sc = Scenario("straight", ends, field, t_max=30.0, rho_min=1.0, rho_max=1.0)
    got = score(plan_from_tour(sc, [0, 1], [0.0, 0.0], [1.0]), sc, 0.01).exposure
    exact = oracles.straight_exposure_closed_form(50.0, 5.0, -10.0, 10.0)
    rel = abs(got - exact) / exact
    return rel <= 1e-4, f"quadrature error {rel:.3e} relative (E={got:.5f})"


def _check_dominance(n, seed):
    rng = np.random.default_rng(seed)
    fits = [Fitness(float(rng.integers(0, 20)) / 2.0, float(rng.integers(0, 50)), 0.0)
            for _ in range(n)]
    got = non_dominated_sort(fits)
    ref = oracles.brute_force_fronts(fits)
    same = got == ref
    return same, f"{n} points, {len(ref)} fronts"


def _check_vonmises_bessel(n, seed):
    rng = np.random.default_rng(seed)
    kappa = 2.0
    samples = np.array([sample_von_mises(1.0, kappa, rng) for _ in range(n)])
    mrl = float(np.hypot(np.cos(samples - 1.0).mean(), np.sin(samples - 1.0).mean()))
    expected = oracles.bessel_i1(kappa) / oracles.bessel_i0(kappa)
    return abs(mrl - expected) <= 0.01, f"resultant length {mrl:.4f} vs {expected:.4f}"


def _check_vonmises_density(n, seed):
    from scipy.stats import chi2

    rng = np.random.default_rng(seed)
    kappa, mean, bins = 2.0, 1.0, 36
    samples = np.array([sample_von_mises(mean, kappa, rng) for _ in range(n)])
    counts, _ = np.histogram(samples, bins=bins, range=(0.0, TWO_PI))
    probs = oracles.von_mises_bin_probabilities(mean, kappa, bins)
    expected = probs * n
    stat = float(((counts - expected) ** 2 / expected).sum())
    crit = float(chi2.ppf(0.99, bins - 1))
    return stat <= crit, f"chi-square {stat:.2f} vs critical {crit:.2f} at 1%"


ORACLE_CHECKS = {
    "dubins-endpoint": (_check_dubins_endpoint, 2000),
    "exposure-arctan": (_check_exposure_arctan, 0),
    "dominance": (_check_dominance, 200),
    "vonmises-bessel": (_check_vonmises_bessel, 100_000),
    "vonmises-density": (_check_vonmises_density, 100_000),
}


def cmd_oracle(args) -> int:
    names = [args.check] if args.check else list(ORACLE_CHECKS)
    all_ok = True
    for name in names:
        fn, default_n = ORACLE_CHECKS[name]
        n = args.n if args.n is not None else default_n
        ok, detail = fn(n, args.seed)
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stealthtour")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the evolutionary solver")
    _add_scenario_args(p_solve)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--population", type=int, default=400)
    p_solve.add_argument("--generations", type=int, default=400)
    p_solve.add_argument("--crossover-prob", type=float, default=0.8)
    p_solve.add_argument("--mutation-prob-individual", type=float, default=0.4)
    p_solve.add_argument("--mutation-prob-gene", type=float, default=0.02)
    p_solve.add_argument("--kappa", type=float, default=2.0)
    p_solve.add_argument("--selection", choices=("reference-point", "crowding-distance"),
                         default="reference-point")
    p_solve.add_argument("--single-objective", action="store_true")
    p_solve.add_argument("--align", action="store_true",
                         help="align interior headings after mutation")
    p_solve.add_argument("--exposure-step", type=float, default=0.05)
    p_solve.add_argument("--out-dir", default=".")
    p_solve.add_argument("--plot", default=None,
                         help="comma-separated front indices to render, or 'all'")
    p_solve.set_defaults(func=cmd_solve)

    p_eval = sub.add_parser("evaluate", help="re-evaluate a stored tour")
    _add_scenario_args(p_eval)
    src = p_eval.add_mutually_exclusive_group(required=True)
    src.add_argument("--tour", help="tour JSON file with ids, headings, radii")
    src.add_argument("--report", help="solve report to read the tour from")
    p_eval.add_argument("--index", type=int, default=0)
    p_eval.add_argument("--exposure-step", type=float, default=0.05)
    p_eval.set_defaults(func=cmd_evaluate)

    p_oracle = sub.add_parser("oracle", help="run independent verification checks")
    p_oracle.add_argument("--check", choices=sorted(ORACLE_CHECKS))
    p_oracle.add_argument("--n", type=int, default=None)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.set_defaults(func=cmd_oracle)

    p_plot = sub.add_parser("plot", help="render one front solution as SVG")
    p_plot.add_argument("--report", required=True)
    p_plot.add_argument("--index", type=int, required=True)
    p_plot.add_argument("--out", default="plot.svg")
    p_plot.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
