"""Command-line interface: solve, evaluate, oracle, plot.

The commands run straight through; ``main`` alone turns an error into one
message and exit status 1: ``infeasible scenario: ...`` for an
``InfeasibleScenarioError``, and ``error: ...`` for a ``ValueError`` (which
covers ``ScenarioError``, bad JSON, the parameter checks and a quadrature too
large), an ``OSError`` or a ``RecursionError`` (JSON nested too deep).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
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
    json_number,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    with_overrides,
)
from .plotting import render_solution_svg


def _stored_tour(data) -> tuple:
    """The (ids, headings, radii) of a stored tour object."""
    fields = ("ids", "headings", "radii")
    if not isinstance(data, dict) or not all(name in data for name in fields):
        raise ScenarioError("tour: need an object with ids, headings and radii")
    return tuple(data[name] for name in fields)


def _front_member(report, index: int):
    front = report.get("front") if isinstance(report, dict) else None
    if not isinstance(front, list):
        raise ScenarioError("report: need an object with a front list")
    if not 0 <= index < len(front):
        raise ScenarioError(f"index {index} out of range (front size {len(front)})")
    return front[index]


def _stored_fitness(member) -> Fitness:
    """The (reward, exposure, length) of a stored front member, each a finite number."""
    fitness = Fitness(*(json_number(f"front member: {name}", member.get(name))
                        for name in Fitness._fields))
    for name, value in zip(Fitness._fields, fitness):
        if not math.isfinite(value):
            raise ScenarioError(f"front member: {name} {value!r} is not finite")
    return fitness


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
        sc = generate_instance(args.instance, args.instance_seed, closed=args.closed)
    return with_overrides(sc, t_max=args.t_max, rho_min=args.rho_min, rho_max=args.rho_max,
                          closed=args.closed or None)


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
    return SolverParams(**{f.name: getattr(args, f.name) for f in dataclasses.fields(SolverParams)})


def cmd_solve(args) -> int:
    sc = _load_scenario_from_args(args)
    params = _params_from_args(args)
    plots = _plot_indices(args.plot)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    result = evolve(sc, params)
    duration = time.perf_counter() - t0
    _write_solution(out_dir, sc, params, result, duration, plots)
    return 0


def _write_solution(out_dir: Path, sc: Scenario, params: SolverParams, result, duration: float,
                    plots: list[int] | None) -> None:
    """Write front.csv, report.json and the requested plots; a plot index past the
    front raises ``ValueError`` once the csv and the report are written."""
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
        raise ValueError(
            f"--plot: index {outside[0]} out of range (front size {len(result.front)})"
        )
    for i in plots:
        sol = result.front[i]
        svg = render_solution_svg(sc, list(sol.plan.poses), list(sol.plan.radii), sol.fitness)
        (out_dir / f"plot_{i}.svg").write_text(svg)
    print(
        f"solved {sc.name}: front size {len(result.front)}, "
        f"{result.evaluations} evaluations in {duration:.2f}s"
    )


def cmd_evaluate(args) -> int:
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
    for v in violations:
        print(f"violation {v}")
    print("verdict " + ("INFEASIBLE" if violations else "FEASIBLE"))
    return 1 if violations else 0


def cmd_plot(args) -> int:
    report = json.loads(Path(args.report).read_text())
    sol = _front_member(report, args.index)
    sc = scenario_from_dict(report.get("scenario"))
    plan = plan_from_tour(sc, *_stored_tour(sol))
    fit = _stored_fitness(sol)
    svg = render_solution_svg(sc, list(plan.poses), list(plan.radii), fit)
    Path(args.out).write_text(svg)
    print(f"wrote {args.out}")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is not a non-negative integer")
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
    defaults = SolverParams()
    p_solve.add_argument("--seed", type=int, default=defaults.seed)
    p_solve.add_argument("--population", dest="population_size", type=int,
                         default=defaults.population_size)
    p_solve.add_argument("--generations", type=int, default=defaults.generations)
    p_solve.add_argument("--crossover-prob", type=float, default=defaults.crossover_prob)
    p_solve.add_argument("--mutation-prob-individual", type=float,
                         default=defaults.mutation_prob_individual)
    p_solve.add_argument("--mutation-prob-gene", type=float, default=defaults.mutation_prob_gene)
    p_solve.add_argument("--kappa", dest="von_mises_kappa", type=float,
                         default=defaults.von_mises_kappa)
    p_solve.add_argument("--selection", choices=("reference-point", "crowding-distance"),
                         default=defaults.selection)
    p_solve.add_argument("--single-objective", action="store_true")
    p_solve.add_argument("--align", dest="alignment_mutation", action="store_true",
                         help="align interior headings after mutation")
    p_solve.add_argument("--exposure-step", type=float, default=defaults.exposure_step)
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
    p_eval.add_argument("--exposure-step", type=float, default=defaults.exposure_step)
    p_eval.set_defaults(func=cmd_evaluate)

    p_oracle = sub.add_parser("oracle", help="run independent verification checks")
    p_oracle.add_argument("--check", choices=sorted(ORACLE_CHECKS))
    p_oracle.add_argument("--n", type=_positive_int, default=None,
                          help="sample size (default: each check's own)")
    p_oracle.add_argument("--seed", type=_non_negative_int, default=0)
    p_oracle.set_defaults(func=cmd_oracle)

    p_plot = sub.add_parser("plot", help="render one front solution as SVG")
    p_plot.add_argument("--report", required=True)
    p_plot.add_argument("--index", type=int, required=True)
    p_plot.add_argument("--out", default="plot.svg")
    p_plot.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleScenarioError as exc:
        print(f"infeasible scenario: {exc}", file=sys.stderr)
    except (ValueError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
