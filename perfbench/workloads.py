"""The benchmark's workloads: inputs made from the seed, the timed operation, output checks.

Each workload has ``prepare(seed, workdir, toy)`` (set-up, not timed),
``run(tracer=None)`` (the timed operation; returns its wall time and output)
and ``check(output, failures)`` (returns quality metrics and traffic counts).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

import checks
from stealthtour import cli, evolution
from stealthtour.scenario import generate_instance, load_scenario, save_scenario, with_overrides

# The exposure-error tours are drawn from this seed, not the workload seed, so
# exposure_max_rel_err compares the same tours on every run.
REFERENCE_SEED = 0
REFERENCE_TOURS = 32
# A returned exposure further than this from the reference is wrong, not
# merely coarse: the coarsest step in use (1.0 m) stays near 1e-2.
EXPOSURE_TOLERANCE = 0.05
# The reference must move less than this when its step is halved, so errors
# down to about this size are resolved.
REFERENCE_CONVERGENCE = 1e-6


class Failures:
    """Failed operations of one timed operation, and what went wrong anywhere."""

    def __init__(self):
        self.items: list[str] = []
        self.attempted = 0
        self.failed = 0

    def add(self, what: str) -> None:
        if len(self.items) < 50:
            self.items.append(what)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def random_tours(scenario, rng, count):
    """``count`` random tours of 1 to 7 distinct targets, as chromosomes and as tours."""
    m = len(scenario.locations)
    out = []
    for _ in range(count):
        visits = int(rng.integers(1, 8))
        order = [int(i) for i in rng.choice(np.arange(1, m - 1), size=visits, replace=False)]
        keys = np.full(m, -1.0)
        keys[0], keys[-1] = 0.0, 1.0
        keys[order] = (np.arange(visits) + 1.0) / (visits + 1.0)
        thetas = rng.random(m) * 2.0 * math.pi
        if scenario.closed:
            thetas[-1] = thetas[0]  # a closed circuit ends with its departure heading
        rhos = scenario.rho_min + rng.random(m) * (scenario.rho_max - scenario.rho_min)
        path = [0] + order + [m - 1]
        tour = checks.Tour([scenario.locations[i].id for i in path],
                           [thetas[i] for i in path], [rhos[i] for i in path[:-1]])
        out.append((evolution.Chromosome(keys, thetas, rhos), tour))
    return out


def reference_tours(scenario, toy: bool):
    return random_tours(scenario, np.random.default_rng(REFERENCE_SEED), 3 if toy else REFERENCE_TOURS)


def exposure_errors(references, exposures, failures: Failures, what: str) -> list[float]:
    """Relative error of each exposure against its (reference, halving change) pair."""
    errors = []
    for k, ((ref, change), got) in enumerate(zip(references, exposures)):
        if change > REFERENCE_CONVERGENCE:
            failures.add(f"{what}[{k}]: reference moves by {change:.3e} when its step is halved")
        err = abs(got - ref) / ref
        if not err <= EXPOSURE_TOLERANCE:
            failures.add(f"{what}[{k}]: exposure {got!r} is {err:.3e} off the reference {ref!r}")
        errors.append(err)
    return errors


def _hypervolume_reference(scenario):
    return (-1.0, scenario.field.cap * scenario.t_max + 1.0)


class SolveWorkload:
    """A whole ``stealthtour solve`` through the CLI entry point, scenario from a file.

    The workload seed is the solver seed; the instance (builtin ``cross``,
    seed 1) never changes.
    """

    def __init__(self, population, generations, selection, step):
        self.population = population
        self.generations = generations
        self.selection = selection
        self.step = step

    def prepare(self, seed, workdir: Path, toy: bool):
        self.seed = seed
        self.toy = toy
        self.workdir = workdir
        self.scenario_path = workdir / "scenario.json"
        self.scenario_path.write_text(save_scenario(generate_instance("cross", 1)))
        if toy:
            self.population, self.generations = 8, 2

    def run(self, tracer=None):
        out = self.workdir / "solve"
        argv = ["solve", "--scenario", str(self.scenario_path), "--seed", str(self.seed),
                "--population", str(self.population), "--generations", str(self.generations),
                "--selection", self.selection, "--exposure-step", repr(self.step),
                "--out-dir", str(out)]
        main = tracer.traced("cli.solve", cli.main) if tracer else cli.main
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc = main(argv)
            wall = time.perf_counter() - t0
        if rc != 0:
            raise RuntimeError(f"solve exited with {rc}")
        front = (out / "front.csv").read_bytes()
        report = (out / "report.json").read_text()
        stable = "".join(line for line in report.splitlines(keepends=True)
                         if not line.startswith('  "duration_seconds":'))
        digests = {"front.csv": _digest(front), "report.json-duration": _digest(stable.encode())}
        return wall, {"digests": digests, "report": json.loads(report), "front_csv": front}

    def check(self, output, failures: Failures):
        sc = load_scenario(self.scenario_path.read_bytes())
        report = output["report"]
        failures.attempted += report["evaluations"]
        failures.failed += report["budget_violations"]
        if report["budget_violations"]:
            failures.add(f"{report['budget_violations']} evaluated tours over budget")
        front = report["front"]
        valid = []
        for k, member in enumerate(front):
            tour = checks.Tour(member["ids"], member["headings"], member["radii"])
            bad = checks.violations(sc, tour)
            if not bad:
                length = checks.rebuild(sc, tour).total_length
                if not math.isclose(length, member["length"], rel_tol=1e-9):
                    bad.append(f"reported length {member['length']!r} != rebuilt {length!r}")
                if checks.reward_of(sc, tour) != member["reward"]:
                    bad.append("reported reward differs from the visited rewards")
            if bad:
                failures.failed += 1
                failures.add(f"front[{k}]: " + "; ".join(bad))
            else:
                valid.append((tour, member["exposure"]))
        front_errors = exposure_errors([checks.reference_exposure(sc, t) for t, _ in valid],
                                       [e for _, e in valid], failures, "front")
        if len(output["front_csv"].decode().splitlines()) != len(front) + 1:
            failures.add("front.csv rows do not match the report's front")
        hv = report["generations"][-1]["hypervolume"]
        own_hv = checks.hypervolume([(m["reward"], m["exposure"]) for m in front],
                                    _hypervolume_reference(sc))
        if not math.isclose(hv, own_hv, rel_tol=1e-9):
            failures.add(f"reported hypervolume {hv!r} != recomputed {own_hv!r}")

        # the quadrature guard: fixed tours scored at this workload's step
        fixed = reference_tours(sc, self.toy)
        scored = [evolution.evaluate(ch, sc, self.step).exposure for ch, _ in fixed]
        errors = exposure_errors([checks.reference_exposure(sc, t) for _, t in fixed],
                                 scored, failures, "reference tour")
        quality = {"hypervolume": hv, "exposure_max_rel_err": max(errors)}
        traffic = {"evaluations": report["evaluations"], "front_size": len(front),
                   "front_max_rel_err": max(front_errors, default=0.0)}
        return quality, traffic


class BatchWorkload:
    """Score a batch of random closed tours with ``evolution.evaluate``; no search.

    The batch opens with the fixed exposure-reference tours; the rest are
    drawn from the workload seed.  Set-up builds no tour, so nothing the
    program might cache is warm when timing starts.
    """

    def __init__(self, tours, step):
        self.tours = tours
        self.step = step

    def prepare(self, seed, workdir: Path, toy: bool):
        sc = with_overrides(generate_instance("grid", 2, closed=True),
                            t_max=120.0, rho_min=1.0, rho_max=4.0)
        self.scenario = sc
        fixed = reference_tours(sc, toy)
        batch = fixed + random_tours(sc, np.random.default_rng(seed),
                                     (20 if toy else self.tours) - len(fixed))
        self.chromosomes = [ch for ch, _ in batch]
        self.plans = [tour for _, tour in batch]
        self.reference = [checks.reference_exposure(sc, tour) for _, tour in fixed]

    def run(self, tracer=None):
        fits, raised = [], []

        def score_all():
            for k, ch in enumerate(self.chromosomes):
                try:
                    fits.append(evolution.evaluate(ch, self.scenario, self.step))
                except Exception as exc:  # a raise is a counted failure, not a crash
                    fits.append(None)
                    raised.append(f"tour {k}: {type(exc).__name__}: {exc}")

        score = tracer.traced("bench.batch", score_all) if tracer else score_all
        t0 = time.perf_counter()
        score()
        wall = time.perf_counter() - t0
        lines = "".join(f"{f.reward!r},{f.exposure!r},{f.length!r}\n" if f else "raised\n"
                        for f in fits)
        return wall, {"digests": {"scores.csv": _digest(lines.encode())},
                      "fits": fits, "raised": raised}

    def check(self, output, failures: Failures):
        sc = self.scenario
        fits = output["fits"]
        failures.attempted += len(fits)
        for what in output["raised"]:
            failures.failed += 1
            failures.add(what)
        over_budget = 0
        for k, (ch, tour, fit) in enumerate(zip(self.chromosomes, self.plans, fits)):
            if fit is None:
                continue
            if not all(math.isfinite(v) for v in fit):
                failures.failed += 1
                failures.add(f"tour {k}: non-finite fitness {fit}")
                continue
            plan = evolution.decode(ch, sc)
            decoded = checks.Tour(plan.ids, [p.theta for p in plan.poses], plan.radii)
            # random tours are scored whatever their length, so no budget check
            bad = checks.violations(sc, decoded, check_budget=False)
            if (decoded.ids, decoded.headings, decoded.radii) != (tour.ids, tour.headings, tour.radii):
                bad.append("decoded tour differs from the generated one")
            length = checks.rebuild(sc, tour).total_length
            if not math.isclose(length, fit.length, rel_tol=1e-9):
                bad.append(f"length {fit.length!r} != rebuilt {length!r}")
            if checks.reward_of(sc, tour) != fit.reward:
                bad.append("reward differs from the visited rewards")
            if bad:
                failures.add(f"tour {k}: " + "; ".join(bad))
            over_budget += length > sc.t_max
        errors = exposure_errors(self.reference, [f.exposure if f else math.nan for f in fits],
                                 failures, "reference tour")
        hv = checks.hypervolume([(f.reward, f.exposure) for f in fits if f],
                                _hypervolume_reference(sc))
        quality = {"hypervolume": hv, "exposure_max_rel_err": max(errors)}
        traffic = {"tours": len(fits), "over_budget_tours": over_budget,
                   "curves_per_tour": sum(len(t.radii) for t in self.plans) / len(self.plans)}
        return quality, traffic


WORKLOADS = {
    # Evaluation dominates: exposure quadrature and Dubins construction, with
    # ~97 % of Dubins edges exact repeats.  Edge caching and quadrature show here.
    "cross-default": lambda: SolveWorkload(100, 100, "reference-point", 0.05),
    # Population 1000 makes the O(n^2) non-dominated sort the biggest layer;
    # the coarse exposure step keeps quadrature minor.
    "cross-wide": lambda: SolveWorkload(1000, 3, "crowding-distance", 1.0),
    # Random closed tours scored once each: no edge reuse, no sort, no repair.
    # The bypass workload for caches; quadrature shows its full per-curve cost.
    "grid-closed-cold": lambda: BatchWorkload(1000, 0.05),
}
