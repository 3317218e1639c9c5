"""Random-key evolutionary engine for budgeted reward/exposure touring.

A chromosome has one gene per location: a sort key (negative = skipped),
a heading and a turning radius.  Variation is two-point crossover over
interior genes plus per-gene mutation (fresh key, von Mises heading kick,
fresh radius); feasibility is restored by randomly dropping visits until
the tour fits the travel budget.  ``evolve`` runs one generational step
for every generation, the initial population included: settle each child
once, score the new tours in one pass, then survive.  One record,
``_Member`` (fitness, chromosome, tour), goes through the loop, and a tour
is its list of edge keys.  A child whose genes equal a parent's, or an
earlier child's, takes that member as it is; any other child is repaired
into a member with no fitness yet, whose tour is the keys repair measured,
so nothing is decoded twice.  The population, the survivors and the
archive share members as they are.
``_pareto_survivors`` selects NSGA-style, with either reference-point
niching or crowding distance, and keeps an elitist archive of the best
(reward, exposure) front seen so far, sorted by fitness: the first
non-dominated layer of the archive and each generation's offspring;
``_best_survivors`` is the single-objective baseline, which ranks
by reward and keeps the one best tour.  Only the final archive is decoded
into plans.  Scoring and repair read each Dubins curve's length and
exposure from an ``EdgeTable``: ``evolve`` shares one across its run, and
every public call makes its own.  A scoring pass integrates its new
curves' exposures with one ``sensing.row_exposures`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import sensing
from .geometry import Pose, dubins_solve
from .geometry import build_tour  # noqa: F401  (a name perfbench/tracing.py wraps)
from .pareto import Fitness, crowding_distance, hypervolume_2d, non_dominated_sort
from .pareto import dominates  # noqa: F401  (a name perfbench/tracing.py wraps)
from .scenario import KAPPA_RANGE, Scenario, ScenarioError, SolverParams, json_numbers
from .sensing import exposure  # noqa: F401  (a name perfbench/tracing.py wraps)

TWO_PI = 2.0 * math.pi


class InfeasibleScenarioError(RuntimeError):
    """No budget-feasible individual exists for this scenario."""


@dataclass
class Chromosome:
    """Per-location genes: sort key (-1 = inactive; ignored at start and goal), heading, radius."""

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


def _visits(chromosome: Chromosome, scenario: Scenario) -> tuple[list, list, list]:
    """Visit order, per-visit headings and per-segment radii of the decoded tour.

    The order is the start, the active interior genes by key, ties by index,
    and the goal; headings follow the fixed and closed overrides, reduced to
    [0, 2*pi) as ``Pose`` reduces them; a segment's radius is its first visit's gene.
    """
    keys = chromosome.keys.tolist()
    interior = sorted([i for i in range(1, len(keys) - 1) if keys[i] >= 0.0], key=keys.__getitem__)
    order = [0, *interior, len(keys) - 1]
    thetas = chromosome.thetas.tolist()
    if scenario.fixed_headings:
        for lid, th in scenario.fixed_headings.items():
            thetas[scenario.index_of(lid)] = th % TWO_PI
    if scenario.closed:
        thetas[-1] = thetas[0]
    rhos = chromosome.rhos.tolist()
    return order, [thetas[i] % TWO_PI for i in order], [rhos[i] for i in order[:-1]]


def decode(chromosome: Chromosome, scenario: Scenario) -> TourPlan:
    """Active genes sorted by key; poses get gene headings, segments gene radii."""
    order, headings, radii = _visits(chromosome, scenario)
    locations = scenario.locations
    poses = tuple(Pose(locations[i].x, locations[i].y, th) for i, th in zip(order, headings))
    ids = tuple(int(locations[i].id) for i in order)
    return TourPlan(tuple(order), ids, poses, tuple(radii))


def _edge_keys(order, headings, radii) -> list[tuple]:
    """Each segment's edge key: (from index, from heading, to index, to heading, radius).

    Headings come reduced to [0, 2*pi), from ``_visits`` or a ``Pose``, so one
    curve has one key whichever route its headings came by.
    """
    if len(order) < 2 or len(radii) != len(order) - 1:
        raise ValueError("a tour needs at least 2 poses and one radius per segment")
    return [(order[k], headings[k], order[k + 1], headings[k + 1], r) for k, r in enumerate(radii)]


def _tour(chromosome: Chromosome, scenario: Scenario) -> list[tuple]:
    """The decoded tour as the loop holds it: its edge keys, in visit order.

    The keys map one-to-one onto ``_visits``' (order, headings, radii), so two
    tours are equal exactly when their decoded plans are.
    """
    return _edge_keys(*_visits(chromosome, scenario))


class EdgeTable:
    """Length and exposure of each distinct Dubins edge met while solving one scenario.

    An edge is keyed by ``_edge_keys``.  Its curve is a pure function of the
    key, so an entry holds exactly what ``build_tour`` and ``exposure`` would
    compute again, and sums of entries in tour order are bit-identical to
    theirs.  Entries are (length, exposure) floats; exposure stays None until
    scoring first needs it, as repair needs lengths only.  Edges are solved to
    float rows (``row``), never to ``Pose`` or ``DubinsPath`` objects, and
    each scoring pass integrates the rows it solved with one
    ``sensing.row_exposures`` call.  ``evolve`` shares one table across a
    run, at one exposure step; every public scoring or repair call makes its
    own.  ``solved`` counts the curves solved and ``integrated`` the curves
    whose exposure was integrated.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.rewards = tuple(loc.reward for loc in scenario.locations)
        self.edges: dict[tuple, tuple[float, float | None]] = {}
        self.solved = 0
        self.integrated = 0

    def row(self, key: tuple) -> tuple:
        """The edge's curve as ``sensing.row_exposures`` takes it: (length, radius,
        first and second segment lengths, start x, start y, start heading, family)."""
        a, theta_a, b, theta_b, radius = key
        start, end = self.scenario.locations[a], self.scenario.locations[b]
        family, seg0, seg1, _, length = dubins_solve(
            start.x, start.y, theta_a, end.x, end.y, theta_b, radius
        )
        self.solved += 1
        return (length, radius, seg0, seg1, start.x, start.y, theta_a, family)

    def tour_length(self, keys: list[tuple]) -> float:
        """Length of the chained edges, summed from 0.0 in tour order as ``build_tour`` sums it."""
        edges = self.edges
        total = 0.0
        for key in keys:
            entry = edges.get(key)
            if entry is None:
                entry = edges[key] = (self.row(key)[0], None)
            total += entry[0]
        return total


def evaluate(chromosome: Chromosome, scenario: Scenario, exposure_step: float) -> Fitness:
    return evaluate_all([chromosome], scenario, exposure_step)[0]


def evaluate_all(chromosomes, scenario: Scenario, exposure_step: float) -> list[Fitness]:
    """Fitness of each chromosome's decoded tour, all scored in one pass over a new table."""
    tours = [_tour(ch, scenario) for ch in chromosomes]
    return _score_tours(tours, EdgeTable(scenario), exposure_step)


def score(plan: TourPlan, scenario: Scenario, exposure_step: float) -> Fitness:
    """Reward of the visited locations, then exposure and length of the chained curves."""
    keys = _edge_keys(plan.order, [pose.theta for pose in plan.poses], plan.radii)
    return _score_tours([keys], EdgeTable(scenario), exposure_step)[0]


def _score_tours(tours, table: EdgeTable, exposure_step: float) -> list[Fitness]:
    """Fitness of each tour (a list of edge keys), with curve values from ``table``.

    Each edge still without an exposure is solved once, to a row, in
    first-seen order.  One ``sensing.row_exposures`` call integrates all
    those rows, which then fill ``table``, and each tour is summed from it.
    """
    edges, fresh = table.edges, {}
    for keys in tours:
        for key in keys:
            entry = edges.get(key)
            if (entry is None or entry[1] is None) and key not in fresh:
                fresh[key] = table.row(key)
    rows = list(fresh.values())
    values = sensing.row_exposures(table.scenario.field, rows, exposure_step)
    for key, row, value in zip(fresh, rows, values):
        edges[key] = (row[0], value)
    table.integrated += len(rows)
    return [_fitness(keys, table) for keys in tours]


def _fitness(keys, table: EdgeTable) -> Fitness:
    """One tour's fitness from the table, added up as ``build_tour`` and ``exposure`` add:
    lengths, exposures and rewards each from 0.0 in tour order, the rewards of the
    first key's start and then of each key's end."""
    edges, rewards = table.edges, table.rewards
    length = exposed = reward = 0.0
    reward += rewards[keys[0][0]]
    for key in keys:
        entry = edges[key]
        length += entry[0]
        exposed += entry[1]
        reward += rewards[key[2]]
    return Fitness(reward, exposed, length)


def plan_from_tour(scenario: Scenario, ids, headings, radii) -> TourPlan:
    """A stored tour (location ids, headings, segment radii) as a plan to score."""
    ids = json_numbers("ids", ids, int)
    headings, radii = json_numbers("headings", headings), json_numbers("radii", radii)
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
    """von Mises sample via the Best-Fisher rejection method, in [0, 2*pi).

    ``kappa`` must lie in ``KAPPA_RANGE``.
    """
    lo, hi = KAPPA_RANGE
    if not lo <= kappa <= hi:
        raise ValueError(f"kappa must lie in [{lo:g}, {hi:g}]")
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


def repair_budget(
    chromosome: Chromosome, scenario: Scenario, rng: np.random.Generator
) -> Chromosome:
    """Drop random interior visits until the decoded tour fits t_max."""
    return _repair(chromosome.copy(), scenario, rng, EdgeTable(scenario)).chromosome


def _repair(out: Chromosome, scenario: Scenario, rng: np.random.Generator, table: EdgeTable):
    """``repair_budget`` on a chromosome the caller owns, changed in place.

    Returns an unscored ``_Member`` of ``out`` and the tour it ended on, the
    edge keys whose lengths it summed, so that it can be scored without a
    second decode.  Dropping a visit joins the keys into and out of it into
    the one key a fresh decode gives.  A feasible ``out`` comes back
    unchanged, with no draw from ``rng`` and no new entry in ``table``: its
    edges were all measured when it was repaired.
    """
    keys = _tour(out, scenario)
    length = table.tour_length(keys)
    # the active interior genes, ascending: each drop is a uniform pick among them
    candidates = [i for i, k in enumerate(out.keys[1:-1].tolist(), 1) if k >= 0.0]
    while length > scenario.t_max:
        if not candidates:
            # empty tour still over budget: fall back to the cheapest direct
            # leg before declaring the scenario infeasible
            out.rhos[0] = scenario.rho_min
            bearing = math.atan2(
                scenario.goal.y - scenario.start.y, scenario.goal.x - scenario.start.x
            )
            if not scenario.closed:
                out.thetas[0] = bearing % TWO_PI
                out.thetas[-1] = bearing % TWO_PI
            keys = _tour(out, scenario)
            length = table.tour_length(keys)
            if length > scenario.t_max:
                raise InfeasibleScenarioError(
                    f"direct start-goal leg ({length:.3f} m) exceeds t_max={scenario.t_max}"
                )
            break
        drop = candidates.pop(int(rng.integers(len(candidates))))
        out.keys[drop] = -1.0
        # the order stays sorted without the dropped visit: the segment from the
        # visit before it to the one after takes the radius of the segment into it
        p = next(k for k, key in enumerate(keys) if key[0] == drop)
        a, theta_a, _, _, radius = keys[p - 1]
        keys[p - 1:p + 1] = [(a, theta_a, keys[p][2], keys[p][3], radius)]
        length = table.tour_length(keys)
    return _Member(None, out, keys)


def initialize_population(
    scenario: Scenario, params: SolverParams, rng: np.random.Generator
) -> list[Chromosome]:
    """Random chromosomes (each interior gene active w.p. 0.5), repaired."""
    return [m.chromosome for m in _initial_members(scenario, params, rng, EdgeTable(scenario))]


def _initial_members(scenario, params, rng, table) -> list["_Member"]:
    """``initialize_population``'s chromosomes as the unscored members their repairs return."""
    m = len(scenario.locations)
    population = []
    for _ in range(params.population_size):
        active = rng.random(m) < 0.5
        keys = np.where(active, rng.random(m), -1.0)
        keys[0], keys[-1] = 0.0, 1.0
        thetas = rng.random(m) * TWO_PI
        rhos = scenario.rho_min + rng.random(m) * (scenario.rho_max - scenario.rho_min)
        population.append(_repair(Chromosome(keys, thetas, rhos), scenario, rng, table))
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
    chromosome: Chromosome, scenario: Scenario, params: SolverParams, rng: np.random.Generator
) -> Chromosome:
    """Resample all three attributes of each hit interior gene, then repair."""
    out = _mutate_genes(chromosome, scenario, params, rng)
    return repair_budget(chromosome if out is None else out, scenario, rng)


def _mutate_genes(chromosome: Chromosome, scenario: Scenario, params: SolverParams, rng):
    """A mutated copy of ``chromosome``, not yet repaired, or None if no gene was hit."""
    out = None
    for i in range(1, chromosome.keys.size - 1):
        if rng.random() >= params.mutation_prob_gene:
            continue
        if out is None:
            out = chromosome.copy()
        out.keys[i] = rng.random()
        out.thetas[i] = sample_von_mises(float(out.thetas[i]), params.von_mises_kappa, rng)
        out.rhos[i] = scenario.rho_min + rng.random() * (scenario.rho_max - scenario.rho_min)
    return out


def align_headings(chromosome: Chromosome, scenario: Scenario) -> Chromosome:
    """Point interior headings from the previous to the next visited position."""
    order = _visits(chromosome, scenario)[0]
    locations = scenario.locations
    out = chromosome.copy()
    for prev, i, nxt in zip(order, order[1:], order[2:]):
        a, b = locations[prev], locations[nxt]
        out.thetas[i] = math.atan2(b.y - a.y, b.x - a.x) % TWO_PI
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
    curves_solved: int = 0        # Dubins edges solved, from the run's EdgeTable
    curves_integrated: int = 0    # curves whose exposure was integrated


class _Member(NamedTuple):
    """One individual of the generational loop; ``evolve`` decodes the final archive
    into ``Solution``s.

    ``tour`` is the ``_tour`` of ``chromosome``, the edge keys its repair
    ended on: two members' tours are equal exactly when their decoded plans
    are.  A repaired child is a member whose ``fitness`` is None until
    ``_scored`` fills it in.  Variation copies a chromosome before it changes
    one, so a member's chromosome never changes, and the population, the
    survivors, the archive and children equal to a parent share members as
    they are.
    """

    fitness: Fitness | None
    chromosome: Chromosome
    tour: list


def _genes(chromosome: Chromosome) -> tuple[bytes, bytes, bytes]:
    """The chromosome's gene bytes: equal bytes decode to equal tours."""
    return chromosome.keys.tobytes(), chromosome.thetas.tobytes(), chromosome.rhos.tobytes()


def _update_archive(archive: list[_Member], members) -> list[_Member]:
    """The elitist archive: the first non-dominated layer of the archive and the
    new members, as they are, in fitness order.  The pool is sorted stably before
    ``non_dominated_sort``, whose layers come in index order, so equal fitnesses
    stay in arrival order; an exact (fitness, tour) duplicate collapses to the first.
    """
    pool = sorted([*archive, *members], key=lambda m: m.fitness)
    layers = non_dominated_sort([m.fitness for m in pool])
    kept = {}
    for i in layers[0] if layers else ():
        kept.setdefault((pool[i].fitness, tuple(pool[i].tour)), pool[i])
    return list(kept.values())


def _reference_directions(count: int) -> np.ndarray:
    h = max(count - 1, 1)
    w = np.linspace(0.0, 1.0, h + 1)
    dirs = np.stack([w, 1.0 - w], axis=1)
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def _associate(norm_objs: np.ndarray, dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest reference line per point: (index, perpendicular distance)."""
    # elementwise, as BLAS rounds by CPU kernel; the cross product would move the search
    proj = norm_objs[:, :1] * dirs[:, 0] + norm_objs[:, 1:] * dirs[:, 1]
    sq = (norm_objs**2).sum(axis=1, keepdims=True) - proj**2
    dist = np.sqrt(np.maximum(sq, 0.0))
    idx = dist.argmin(axis=1)
    return idx, dist[np.arange(len(idx)), idx]


def _niche_select(last_front, need, assoc, dist, counts, rng):
    """Deb-style niching over the partial front; returns chosen indices.

    ``counts`` is updated in place with the picks.
    """
    chosen = []
    members: dict[int, list[int]] = {}
    for i in last_front:
        members.setdefault(int(assoc[i]), []).append(i)
    niche_counts, dist = counts.tolist(), dist.tolist()
    while len(chosen) < need:
        refs = [j for j, mem in members.items() if mem]
        min_count = min(niche_counts[j] for j in refs)
        tied = [j for j in refs if niche_counts[j] == min_count]
        j = tied[int(rng.integers(len(tied)))]
        mem = members[j]
        if niche_counts[j] == 0:
            pick = min(mem, key=lambda i: (dist[i], i))
        else:
            pick = mem[int(rng.integers(len(mem)))]
        mem.remove(pick)
        niche_counts[j] += 1
        chosen.append(pick)
    counts[:] = niche_counts
    return chosen


def _environmental_selection(members, params, rng):
    """Truncate parents+offspring to population_size.

    Returns the survivors and their tournament keys: tuples of rank, then
    niche count or negative crowding distance, then a distance tie-break,
    where the smaller key wins.
    """
    n = params.population_size
    fits = [m.fitness for m in members]
    fronts = non_dominated_sort(fits)
    selected: list[int] = []
    # the fronts taken whole, then the part of the last one chosen; a
    # survivor's rank is the index of its part
    taken = []
    last_front = None
    for front in fronts:
        if len(selected) + len(front) <= n:
            selected.extend(front)
            taken.append(front)
        else:
            last_front = front
            break

    if params.selection == "crowding-distance":
        if last_front is not None:
            cd = crowding_distance(fits, last_front)
            order = sorted(range(len(last_front)), key=lambda k: (-cd[k], last_front[k]))
            taken.append([last_front[k] for k in order[: n - len(selected)]])
        # the negated distance makes smaller better
        div = -np.concatenate([crowding_distance(fits, part) for part in taken])
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
            taken.append(_niche_select(last_front, n - len(selected), assoc, dist, counts, rng))
        selected = [i for part in taken for i in part]
        div = counts[assoc[selected]].astype(float)
        tiebreak = dist[selected]

    ranks = [r for r, part in enumerate(taken) for _ in part]
    survivors = [members[i] for part in taken for i in part]
    return survivors, list(zip(ranks, div.tolist(), tiebreak.tolist()))


def _tournament(rng, keys):
    """Index of the better of two uniformly drawn members: the one with the smaller key."""
    a = int(rng.integers(len(keys)))
    b = int(rng.integers(len(keys)))
    return a if keys[a] <= keys[b] else b


def _best_survivors(pop, offspring, archive, params, rng):
    """Single objective: keep the most reward, then the shortest tour; archive the best seen."""
    rank = lambda m: (-m.fitness.reward, m.fitness.length)
    pop = sorted(pop + offspring, key=rank)[: params.population_size]
    if not archive or rank(pop[0]) < rank(archive[0]):
        archive = [pop[0]]
    return pop, archive, [(-m.fitness.reward,) for m in pop]


def _pareto_survivors(pop, offspring, archive, params, rng):
    """Two objectives: archive the offspring, then select among parents and offspring."""
    archive = _update_archive(archive, offspring)
    pop, keys = _environmental_selection(pop + offspring, params, rng)
    return pop, archive, keys


def _variation(pop, keys, scenario, params, rng, table) -> list[_Member]:
    """population_size children of tournament-picked parents: crossover, mutation, repair.

    Each child comes back settled: as the member that a parent or an earlier
    child of this step holds for its gene bytes, else as the unscored member
    a new repair returns.  A child left uncrossed is its parent's member, and
    a mutation that hits no gene keeps its child as it is.  Every repair
    skipped would have run on a feasible chromosome, which draws nothing from
    ``rng`` and adds nothing to ``table``, so the run is the same draw for draw.
    """
    known = {_genes(m.chromosome): m for m in pop}

    def settle(chromosome):
        found = known.get(_genes(chromosome))
        if found is None:
            found = _repair(chromosome, scenario, rng, table)
        return found

    offspring = []
    while len(offspring) < params.population_size:
        ca = pop[_tournament(rng, keys)]
        cb = pop[_tournament(rng, keys)]
        if rng.random() < params.crossover_prob:
            xa, xb = crossover_two_point(ca.chromosome, cb.chromosome, rng)
            ca, cb = settle(xa), settle(xb)
        for child in (ca, cb):
            if rng.random() < params.mutation_prob_individual:
                mutated = _mutate_genes(child.chromosome, scenario, params, rng)
                if mutated is not None:
                    child = settle(mutated)
            if params.alignment_mutation:
                child = settle(align_headings(child.chromosome, scenario))
            known.setdefault(_genes(child.chromosome), child)
            offspring.append(child)
    return offspring[: params.population_size]


def _scored(children, table: EdgeTable, exposure_step: float) -> list[_Member]:
    """The settled children with every missing fitness filled in, all scored in one pass."""
    fitnesses = iter(_score_tours([c.tour for c in children if c.fitness is None],
                                  table, exposure_step))
    return [c if c.fitness is not None else c._replace(fitness=next(fitnesses))
            for c in children]


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
    table = EdgeTable(scenario)
    pop, archive, keys = [], [], None
    stats, evaluations, budget_violations = [], 0, 0

    for gen in range(params.generations + 1):
        if gen == 0:
            children = _initial_members(scenario, params, rng, table)
        else:
            children = _variation(pop, keys, scenario, params, rng, table)
        offspring = _scored(children, table, params.exposure_step)
        evaluations += len(offspring)
        budget_violations += sum(m.fitness.length > scenario.t_max + 1e-9 for m in offspring)
        pop, archive, keys = survive(pop, offspring, archive, params, rng)

        front_fits = [m.fitness for m in archive]
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
        front=[Solution(m.chromosome, m.fitness, decode(m.chromosome, scenario)) for m in archive],
        stats=stats,
        budget_violations=budget_violations,
        evaluations=evaluations,
        curves_solved=table.solved,
        curves_integrated=table.integrated,
    )
