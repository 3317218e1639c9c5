"""Command-line interface: solve, evaluate, oracle, plot."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from .evolution import InfeasibleScenarioError, check_tour, evolve, plan_from_tour, score
from .oracles import ORACLE_CHECKS
from .pareto import Fitness
from .scenario import (
    Scenario,
    ScenarioError,
    SolverParams,
    generate_instance,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    with_overrides,
)
from .sensing import QuadratureTooLargeError
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
    except QuadratureTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
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


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


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
    p_oracle.add_argument("--n", type=_positive_int, default=None,
                          help="sample size (default: each check's own)")
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
