"""Random-key evolutionary engine for budgeted reward/exposure touring.

A chromosome has one gene per location: a sort key (negative = skipped),
a heading and a turning radius.  Variation is two-point crossover over
interior genes plus per-gene mutation (fresh key, von Mises heading kick,
fresh radius); feasibility is restored by randomly dropping visits until
the tour fits the travel budget.  ``evolve`` runs one generational step
for every generation, the initial population included: score the
offspring, then survive.  ``_pareto_survivors`` selects NSGA-style, with
either reference-point niching or crowding distance, and keeps an elitist
archive of the best (reward, exposure) front seen so far;
``_best_survivors`` is the single-objective baseline, which ranks by reward
and keeps the one best tour.  Scoring and repair read each Dubins curve's
length and exposure from a per-run ``EdgeTable``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .geometry import Pose, build_tour, CompositePath
from .pareto import Fitness, crowding_distance, dominates, hypervolume_2d, non_dominated_sort
from .scenario import Scenario, ScenarioError, SolverParams
from .sensing import exposure

TWO_PI = 2.0 * math.pi


class InfeasibleScenarioError(RuntimeError):
    """No budget-feasible individual exists for this scenario."""


@dataclass
class Chromosome:
    """Per-location genes: sort key (-1 = inactive), heading, radius."""

    keys: np.ndarray
    thetas: np.ndarray
    rhos: np.ndarray

    def copy(self) -> "Chromosome":
        return Chromosome(self.keys.copy(), self.thetas.copy(), self.rhos.copy())

    def equals(self, other: "Chromosome") -> bool:
        return (
            np.array_equal(self.keys, other.keys)
            and np.array_equal(self.thetas, other.thetas)
            and np.array_equal(self.rhos, other.rhos)
        )


@dataclass(frozen=True)
class TourPlan:
    """Decoded visit order with per-visit poses and per-segment radii."""

    order: tuple[int, ...]  # location indices in visit sequence
    ids: tuple[int, ...]    # matching location ids
    poses: tuple[Pose, ...]
    radii: tuple[float, ...]


def _visits(chromosome: Chromosome, scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Visit order (active genes by key) and headings after the fixed and closed overrides."""
    active = np.flatnonzero(chromosome.keys >= 0.0)
    order = active[np.argsort(chromosome.keys[active], kind="stable")]
    thetas = chromosome.thetas.copy()
    if scenario.fixed_headings:
        for lid, th in scenario.fixed_headings.items():
            thetas[scenario.index_of(lid)] = th % TWO_PI
    if scenario.closed:
        thetas[-1] = thetas[0]
    return order, thetas


def decode(chromosome: Chromosome, scenario: Scenario) -> TourPlan:
    """Active genes sorted by key; poses get gene headings, segments gene radii."""
    order, thetas = _visits(chromosome, scenario)
    poses = tuple(
        Pose(scenario.locations[i].x, scenario.locations[i].y, float(thetas[i]))
        for i in order
    )
    radii = tuple(float(chromosome.rhos[i]) for i in order[:-1])
    ids = tuple(int(scenario.locations[i].id) for i in order)
    return TourPlan(tuple(int(i) for i in order), ids, poses, radii)


def decoded_tour(chromosome: Chromosome, scenario: Scenario) -> CompositePath:
    plan = decode(chromosome, scenario)
    return build_tour(list(plan.poses), list(plan.radii))


class EdgeTable:
    """Length and exposure of each distinct Dubins edge met while solving one scenario.

    An edge is keyed by (from index, from heading, to index, to heading,
    radius), headings taken after decode's overrides.  Its curve is a pure
    function of that key, so an entry holds exactly what ``build_tour`` and
    ``exposure`` would compute again, and sums of entries in tour order are
    bit-identical to theirs.  Entries are (length, exposure) floats; exposure
    stays None until scoring first needs it, as repair needs lengths only.
    """

    def __init__(self, scenario: Scenario, exposure_step: float | None = None):
        self.scenario = scenario
        self.exposure_step = exposure_step
        self.rewards = tuple(loc.reward for loc in scenario.locations)
        self.edges: dict[tuple, tuple[float, float | None]] = {}

    def serves(self, scenario: Scenario, exposure_step: float | None = None) -> bool:
        return (self.scenario is scenario or self.scenario == scenario) and (
            exposure_step is None or exposure_step == self.exposure_step
        )

    def tour_length(self, chromosome: Chromosome) -> float:
        """Length of the decoded tour, summed in tour order as ``build_tour`` sums it."""
        order, thetas = _visits(chromosome, self.scenario)
        order, thetas, rhos = order.tolist(), thetas.tolist(), chromosome.rhos.tolist()
        _check_chain(len(order), len(order) - 1)
        edges, locations = self.edges, self.scenario.locations
        total = 0.0
        for a, b in zip(order, order[1:]):
            # a heading not yet reduced to [0, 2*pi) still names one curve, as Pose reduces it
            key = (a, thetas[a], b, thetas[b], rhos[a])
            entry = edges.get(key)
            if entry is None:
                start, end = locations[a], locations[b]
                curve = geometry.dubins_shortest(
                    Pose(start.x, start.y, thetas[a]), Pose(end.x, end.y, thetas[b]), rhos[a]
                )
                entry = edges[key] = (curve.length, None)
            total += entry[0]
        return total


def _check_chain(poses: int, radii: int) -> None:
    if poses < 2:
        raise ValueError("a tour needs at least 2 poses")
    if radii != poses - 1:
        raise ValueError("need exactly one radius per segment")


def evaluate(
    chromosome: Chromosome, scenario: Scenario, exposure_step: float, table: EdgeTable | None = None
) -> Fitness:
    return score(decode(chromosome, scenario), scenario, exposure_step, table)


def score(
    plan: TourPlan, scenario: Scenario, exposure_step: float, table: EdgeTable | None = None
) -> Fitness:
    """Reward of the visited locations, then exposure and length of the chained curves.

    Each curve's length and exposure come from ``table`` (a fresh one when
    None).  Rewards and lengths are added from 0.0 in tour order, and the
    exposures summed with ``sum``, as ``build_tour`` and ``exposure`` do.
    """
    if table is None:
        table = EdgeTable(scenario, exposure_step)
    elif not table.serves(scenario, exposure_step):
        raise ValueError("edge table belongs to another scenario or exposure step")
    order, poses = plan.order, plan.poses
    _check_chain(len(poses), len(plan.radii))
    edges = table.edges
    length = 0.0
    exposures = []
    for k, radius in enumerate(plan.radii):
        start, end = poses[k], poses[k + 1]
        key = (order[k], start.theta, order[k + 1], end.theta, radius)
        entry = edges.get(key)
        if entry is None or entry[1] is None:
            curve = geometry.dubins_shortest(start, end, radius)
            entry = edges[key] = (curve.length, exposure(scenario.field, curve, exposure_step))
        length += entry[0]
        exposures.append(entry[1])
    reward = 0.0
    for i in order:
        reward += table.rewards[i]
    return Fitness(reward, sum(exposures), length)


def _numbers(name: str, values, kind=float) -> tuple:
    """``values`` converted by ``kind``: a list of ints, or of ints and floats."""
    allowed = int if kind is int else (int, float)
    if not isinstance(values, (list, tuple)) or any(
        isinstance(v, bool) or not isinstance(v, allowed) for v in values
    ):
        raise ScenarioError(f"{name}: need a list of {kind.__name__}s")
    try:
        return tuple(map(kind, values))
    except OverflowError as exc:
        raise ScenarioError(f"{name}: {exc}") from exc


def plan_from_tour(scenario: Scenario, ids, headings, radii) -> TourPlan:
    """A stored tour (location ids, headings, segment radii) as a plan to score."""
    ids = _numbers("ids", ids, int)
    headings, radii = _numbers("headings", headings), _numbers("radii", radii)
    if len(ids) < 2:
        raise ScenarioError("tour needs at least 2 locations")
    if len(headings) != len(ids):
        raise ScenarioError("need one heading per tour location")
    if len(radii) != len(ids) - 1:
        raise ScenarioError("need one radius per tour segment")
    if not all(0.0 <= h < TWO_PI for h in headings):
        raise ScenarioError(f"headings {list(headings)}: each must lie in [0, 2*pi)")
    if not all(math.isfinite(r) and r > 0.0 for r in radii):
        raise ScenarioError(f"radii {list(radii)}: each must be finite and positive")
    order = tuple(scenario.index_of(lid) for lid in ids)
    poses = tuple(
        Pose(scenario.locations[i].x, scenario.locations[i].y, h) for i, h in zip(order, headings)
    )
    return TourPlan(order, ids, poses, radii)


def check_tour(scenario: Scenario, plan: TourPlan, length: float | None = None) -> list[str]:
    """Named breaches of the tour model, the budget only if ``length`` is given."""
    out = []
    if plan.ids[0] != scenario.start.id:
        out.append(f"start: tour begins at location {plan.ids[0]}, not {scenario.start.id}")
    if plan.ids[-1] != scenario.goal.id:
        out.append(f"goal: tour ends at location {plan.ids[-1]}, not {scenario.goal.id}")
    repeated = sorted({lid for lid in plan.ids if plan.ids.count(lid) > 1})
    if repeated:
        out.append(f"repeat: locations {repeated} visited more than once")
    for r in plan.radii:
        if not (scenario.rho_min <= r <= scenario.rho_max):
            out.append(f"radius: {r!r} outside [{scenario.rho_min}, {scenario.rho_max}]")
    if length is not None and length > scenario.t_max + 1e-9:
        out.append(f"budget: length {length!r} exceeds t_max {scenario.t_max}")
    return out


def sample_von_mises(mean: float, kappa: float, rng: np.random.Generator) -> float:
    """von Mises sample via the Best-Fisher rejection method, in [0, 2*pi)."""
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    tau = 1.0 + math.sqrt(1.0 + 4.0 * kappa * kappa)
    rho = (tau - math.sqrt(2.0 * tau)) / (2.0 * kappa)
    r = (1.0 + rho * rho) / (2.0 * rho)
    while True:
        u1 = rng.random()
        z = math.cos(math.pi * u1)
        f = (1.0 + r * z) / (r + z)
        c = kappa * (r - f)
        u2 = rng.random()
        if c * (2.0 - c) - u2 > 0.0:
            break
        if u2 > 0.0 and math.log(c / u2) + 1.0 - c >= 0.0:
            break
    u3 = rng.random()
    angle = mean + math.copysign(math.acos(f), u3 - 0.5)
    return angle % TWO_PI


def _interior_active(chromosome: Chromosome) -> np.ndarray:
    return np.flatnonzero(chromosome.keys[1:-1] >= 0.0) + 1


def repair_budget(
    chromosome: Chromosome,
    scenario: Scenario,
    rng: np.random.Generator,
    table: EdgeTable | None = None,
) -> Chromosome:
    """Drop random interior visits until the decoded tour fits t_max."""
    if table is None:
        table = EdgeTable(scenario)
    elif not table.serves(scenario):
        raise ValueError("edge table belongs to another scenario")
    out = chromosome.copy()
    length = table.tour_length(out)
    while length > scenario.t_max:
        candidates = _interior_active(out)
        if candidates.size == 0:
            # empty tour still over budget: fall back to the cheapest direct
            # leg before declaring the scenario infeasible
            out.rhos[0] = scenario.rho_min
            bearing = math.atan2(
                scenario.goal.y - scenario.start.y, scenario.goal.x - scenario.start.x
            )
            if not scenario.closed:
                out.thetas[0] = bearing % TWO_PI
                out.thetas[-1] = bearing % TWO_PI
            length = table.tour_length(out)
            if length > scenario.t_max:
                raise InfeasibleScenarioError(
                    f"direct start-goal leg ({length:.3f} m) exceeds t_max={scenario.t_max}"
                )
            break
        drop = candidates[int(rng.integers(candidates.size))]
        out.keys[drop] = -1.0
        length = table.tour_length(out)
    return out


def initialize_population(
    scenario: Scenario,
    params: SolverParams,
    rng: np.random.Generator,
    table: EdgeTable | None = None,
) -> list[Chromosome]:
    """Random chromosomes (each interior gene active w.p. 0.5), repaired."""
    m = len(scenario.locations)
    population = []
    for _ in range(params.population_size):
        active = rng.random(m) < 0.5
        keys = np.where(active, rng.random(m), -1.0)
        keys[0], keys[-1] = 0.0, 1.0
        thetas = rng.random(m) * TWO_PI
        rhos = scenario.rho_min + rng.random(m) * (scenario.rho_max - scenario.rho_min)
        population.append(repair_budget(Chromosome(keys, thetas, rhos), scenario, rng, table))
    return population


def crossover_two_point(
    parent_a: Chromosome, parent_b: Chromosome, rng: np.random.Generator
) -> tuple[Chromosome, Chromosome]:
    """Swap whole gene tuples in a random interior window [i, j)."""
    m = parent_a.keys.size
    if m != parent_b.keys.size:
        raise ValueError("parents must have the same length")
    child_a, child_b = parent_a.copy(), parent_b.copy()
    if m <= 2:
        return child_a, child_b
    cuts = sorted(int(rng.integers(1, m)) for _ in range(2))
    i, j = cuts
    for arr_a, arr_b in (
        (child_a.keys, child_b.keys),
        (child_a.thetas, child_b.thetas),
        (child_a.rhos, child_b.rhos),
    ):
        tmp = arr_a[i:j].copy()
        arr_a[i:j] = arr_b[i:j]
        arr_b[i:j] = tmp
    return child_a, child_b


def mutate(
    chromosome: Chromosome,
    scenario: Scenario,
    params: SolverParams,
    rng: np.random.Generator,
    table: EdgeTable | None = None,
) -> Chromosome:
    """Resample all three attributes of each hit interior gene, then repair."""
    out = chromosome.copy()
    m = out.keys.size
    for i in range(1, m - 1):
        if rng.random() >= params.mutation_prob_gene:
            continue
        out.keys[i] = rng.random()
        out.thetas[i] = sample_von_mises(float(out.thetas[i]), params.von_mises_kappa, rng)
        out.rhos[i] = scenario.rho_min + rng.random() * (scenario.rho_max - scenario.rho_min)
    return repair_budget(out, scenario, rng, table)


def align_headings(chromosome: Chromosome, scenario: Scenario) -> Chromosome:
    """Point interior headings from the previous to the next visited position."""
    plan = decode(chromosome, scenario)
    out = chromosome.copy()
    for pos in range(1, len(plan.order) - 1):
        prev_loc = scenario.locations[plan.order[pos - 1]]
        next_loc = scenario.locations[plan.order[pos + 1]]
        heading = math.atan2(next_loc.y - prev_loc.y, next_loc.x - prev_loc.x)
        out.thetas[plan.order[pos]] = heading % TWO_PI
    return out


# --- generational loop ----------------------------------------------------


@dataclass
class Solution:
    chromosome: Chromosome
    fitness: Fitness
    plan: TourPlan


@dataclass
class GenStats:
    generation: int
    front_size: int
    hypervolume: float
    best_reward: float
    min_exposure: float


@dataclass
class EvolveResult:
    front: list[Solution]         # ascending reward
    stats: list[GenStats]
    budget_violations: int = 0
    evaluations: int = 0


def _update_archive(archive: list[Solution], population, fits, scenario) -> list[Solution]:
    """Insert candidates into the elitist non-dominated archive.

    Equal-fitness solutions with distinct decoded tours are both kept;
    exact (fitness, tour) duplicates collapse to one entry.
    """
    kept = list(archive)
    for ch, fit in zip(population, fits):
        if any(dominates(s.fitness, fit) for s in kept):
            continue
        kept = [s for s in kept if not dominates(fit, s.fitness)]
        plan = decode(ch, scenario)
        if any(s.fitness == fit and s.plan == plan for s in kept):
            continue
        kept.append(Solution(ch.copy(), fit, plan))
    kept.sort(key=lambda s: (s.fitness.reward, s.fitness.exposure, s.fitness.length))
    return kept


def _reference_directions(count: int) -> np.ndarray:
    h = max(count - 1, 1)
    w = np.linspace(0.0, 1.0, h + 1)
    dirs = np.stack([w, 1.0 - w], axis=1)
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def _associate(norm_objs: np.ndarray, dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest reference line per point: (index, perpendicular distance)."""
    proj = norm_objs @ dirs.T
    sq = (norm_objs**2).sum(axis=1, keepdims=True) - proj**2
    dist = np.sqrt(np.maximum(sq, 0.0))
    idx = dist.argmin(axis=1)
    return idx, dist[np.arange(len(idx)), idx]


def _niche_select(last_front, need, assoc, dist, counts, rng):
    """Deb-style niching over the partial front; returns chosen indices."""
    chosen = []
    members: dict[int, list[int]] = {}
    for i in last_front:
        members.setdefault(int(assoc[i]), []).append(i)
    while len(chosen) < need:
        refs = [j for j, mem in members.items() if mem]
        min_count = min(counts[j] for j in refs)
        tied = [j for j in refs if counts[j] == min_count]
        j = tied[int(rng.integers(len(tied)))]
        mem = members[j]
        if counts[j] == 0:
            pick = min(mem, key=lambda i: (dist[i], i))
        else:
            pick = mem[int(rng.integers(len(mem)))]
        mem.remove(pick)
        counts[j] += 1
        chosen.append(pick)
    return chosen


def _environmental_selection(pop, fits, params, rng):
    """Truncate parents+offspring to population_size; returns selection state.

    The returned rank/diversity arrays drive binary tournaments: smaller
    tuples win (rank, then niche count or negative crowding, then a
    distance tie-break).
    """
    n = params.population_size
    fronts = non_dominated_sort(fits)
    selected: list[int] = []
    rank_of = {}
    for r, front in enumerate(fronts):
        for i in front:
            rank_of[i] = r

    full_fronts = []
    last_front = None
    for front in fronts:
        if len(selected) + len(front) <= n:
            selected.extend(front)
            full_fronts.append(front)
        else:
            last_front = front
            break

    if params.selection == "crowding-distance":
        if last_front is not None:
            cd = crowding_distance(fits, last_front)
            order = sorted(range(len(last_front)), key=lambda k: (-cd[k], last_front[k]))
            selected.extend(last_front[k] for k in order[: n - len(selected)])
        div = np.zeros(n)
        sel_fits = [fits[i] for i in selected]
        sel_fronts = non_dominated_sort(sel_fits)
        for front in sel_fronts:
            cd = crowding_distance(sel_fits, front)
            for k, idx in enumerate(front):
                div[idx] = -cd[k]  # smaller is better
        ranks = np.array([rank_of[i] for i in selected])
        tiebreak = np.zeros(n)
    else:
        # reference-point niching, normalized by the first front's span
        objs = np.array([[-f.reward, f.exposure] for f in fits])
        f0 = fronts[0]
        ideal = objs[f0].min(axis=0)
        nadir = objs[f0].max(axis=0)
        span = np.maximum(nadir - ideal, 1e-12)
        norm = (objs - ideal) / span
        dirs = _reference_directions(n)
        assoc, dist = _associate(norm, dirs)
        counts = np.zeros(len(dirs), dtype=int)
        for i in selected:
            counts[assoc[i]] += 1
        if last_front is not None:
            chosen = _niche_select(last_front, n - len(selected), assoc, dist, counts, rng)
            selected.extend(chosen)
        ranks = np.array([rank_of[i] for i in selected])
        div = counts[assoc[selected]].astype(float)
        tiebreak = dist[selected]

    chromosomes = [pop[i] for i in selected]
    sel_fits = [fits[i] for i in selected]
    return chromosomes, sel_fits, ranks, div, tiebreak


def _tournament(rng, n, key):
    a = int(rng.integers(n))
    b = int(rng.integers(n))
    return a if key(a) <= key(b) else b


def _best_survivors(pop, fits, offspring, off_fits, archive, scenario, params, rng):
    """Single objective: keep the most reward, then the shortest tour; archive the best seen."""
    merged, merged_fits = pop + offspring, fits + off_fits
    rank = lambda f: (-f.reward, f.length)
    order = sorted(range(len(merged)), key=lambda i: rank(merged_fits[i]))[: params.population_size]
    pop, fits = [merged[i] for i in order], [merged_fits[i] for i in order]
    if not archive or rank(fits[0]) < rank(archive[0].fitness):
        archive = [Solution(pop[0].copy(), fits[0], decode(pop[0], scenario))]
    return pop, fits, archive, lambda i: (-fits[i].reward,)


def _pareto_survivors(pop, fits, offspring, off_fits, archive, scenario, params, rng):
    """Two objectives: archive the offspring, then select among parents and offspring."""
    archive = _update_archive(archive, offspring, off_fits, scenario)
    pop, fits, ranks, div, tiebreak = _environmental_selection(
        pop + offspring, fits + off_fits, params, rng
    )
    return pop, fits, archive, lambda i: (ranks[i], div[i], tiebreak[i])


def _variation(pop, key, scenario, params, rng, table) -> list[Chromosome]:
    """population_size children of tournament-picked parents: crossover, mutation, repair."""
    offspring: list[Chromosome] = []
    while len(offspring) < params.population_size:
        pa = pop[_tournament(rng, len(pop), key)]
        pb = pop[_tournament(rng, len(pop), key)]
        if rng.random() < params.crossover_prob:
            ca, cb = crossover_two_point(pa, pb, rng)
            ca = repair_budget(ca, scenario, rng, table)
            cb = repair_budget(cb, scenario, rng, table)
        else:
            ca, cb = pa.copy(), pb.copy()
        for child in (ca, cb):
            if rng.random() < params.mutation_prob_individual:
                child = mutate(child, scenario, params, rng, table)
            if params.alignment_mutation:
                child = repair_budget(align_headings(child, scenario), scenario, rng, table)
            offspring.append(child)
    return offspring[: params.population_size]


def evolve(
    scenario: Scenario,
    params: SolverParams,
    rng: np.random.Generator | None = None,
) -> EvolveResult:
    """Run the generational loop and return the non-dominated front found."""
    if rng is None:
        rng = np.random.default_rng(params.seed)
    survive = _best_survivors if params.single_objective else _pareto_survivors
    ref_point = (-1.0, scenario.field.cap * scenario.t_max + 1.0)
    table = EdgeTable(scenario, params.exposure_step)
    pop, fits, archive, key = [], [], [], None
    stats, evaluations, budget_violations = [], 0, 0

    for gen in range(params.generations + 1):
        if gen == 0:
            offspring = initialize_population(scenario, params, rng, table)
        else:
            offspring = _variation(pop, key, scenario, params, rng, table)
        off_fits = [evaluate(ch, scenario, params.exposure_step, table) for ch in offspring]
        evaluations += len(offspring)
        budget_violations += sum(f.length > scenario.t_max + 1e-9 for f in off_fits)
        pop, fits, archive, key = survive(
            pop, fits, offspring, off_fits, archive, scenario, params, rng
        )

        front_fits = [s.fitness for s in archive]
        # with several sensors a tour can be more exposed than cap * t_max; such
        # points lie outside the reference box and add no area
        hv = hypervolume_2d([f for f in front_fits if f.exposure <= ref_point[1]], ref_point)
        stats.append(GenStats(
            generation=gen,
            front_size=len(archive),
            hypervolume=hv,
            best_reward=max(f.reward for f in front_fits),
            min_exposure=min(f.exposure for f in front_fits),
        ))

    return EvolveResult(
        front=list(archive),
        stats=stats,
        budget_violations=budget_violations,
        evaluations=evaluations,
    )
