"""Independent verification oracles, and the checks that hold the main path to them.

The oracles deliberately re-derive results through different routes than
the main code paths: one solver per family for the shortest Dubins curve,
tangent-circle geometry for curve lengths, a closed-form integral for
exposure, one curve at a time for the batched exposure quadrature,
brute-force pairwise dominance for front sorting and for the archive, and
series-evaluated Bessel functions for the circular sampler.  Each
``check_*(n, seed) -> (ok, detail)`` at the end compares the main path with
one of them; ``stealthtour oracle`` and the acceptance criteria run the same
checks.  The main path never imports this module.
"""

from __future__ import annotations

import math

import numpy as np

from .evolution import Chromosome, Solution, decode, plan_from_tour, sample_von_mises, score
from .geometry import (
    FAMILIES, CompositePath, DubinsPath, Pose, TWO_PI, build_tour, dubins_shortest, path_end,
    sample_many,
)
from .pareto import Fitness, dominates, non_dominated_sort
from .scenario import Scenario, ScenarioError, TargetLocation
from .sensing import SensorField, intensity_many

# --- one solver per Dubins family ----------------------------------------
#
# Each solver works in normalized coordinates: d = distance / radius,
# a / b are start / end headings relative to the connecting segment.
# They return (t, p, q) in normalized units, or None when infeasible.


def _lsl(a, b, d):
    p_sq = 2.0 + d * d - 2.0 * math.cos(a - b) + 2.0 * d * (math.sin(a) - math.sin(b))
    if p_sq < 0.0:
        return None
    tmp = math.atan2(math.cos(b) - math.cos(a), d + math.sin(a) - math.sin(b))
    return (-a + tmp) % TWO_PI, math.sqrt(p_sq), (b - tmp) % TWO_PI


def _rsr(a, b, d):
    p_sq = 2.0 + d * d - 2.0 * math.cos(a - b) + 2.0 * d * (math.sin(b) - math.sin(a))
    if p_sq < 0.0:
        return None
    tmp = math.atan2(math.cos(a) - math.cos(b), d - math.sin(a) + math.sin(b))
    return (a - tmp) % TWO_PI, math.sqrt(p_sq), (tmp - b) % TWO_PI


def _lsr(a, b, d):
    p_sq = -2.0 + d * d + 2.0 * math.cos(a - b) + 2.0 * d * (math.sin(a) + math.sin(b))
    if p_sq < 0.0:
        return None
    p = math.sqrt(p_sq)
    tmp = math.atan2(-math.cos(a) - math.cos(b), d + math.sin(a) + math.sin(b)) - math.atan2(-2.0, p)
    return (-a + tmp) % TWO_PI, p, (-b + tmp) % TWO_PI


def _rsl(a, b, d):
    p_sq = -2.0 + d * d + 2.0 * math.cos(a - b) - 2.0 * d * (math.sin(a) + math.sin(b))
    if p_sq < 0.0:
        return None
    p = math.sqrt(p_sq)
    tmp = math.atan2(math.cos(a) + math.cos(b), d - math.sin(a) - math.sin(b)) - math.atan2(2.0, p)
    return (a - tmp) % TWO_PI, p, (b - tmp) % TWO_PI


def _rlr(a, b, d):
    tmp = (6.0 - d * d + 2.0 * math.cos(a - b) + 2.0 * d * (math.sin(a) - math.sin(b))) / 8.0
    if abs(tmp) > 1.0:
        return None
    p = (TWO_PI - math.acos(tmp)) % TWO_PI
    phi = math.atan2(math.cos(a) - math.cos(b), d - math.sin(a) + math.sin(b))
    t = (a - phi + p / 2.0) % TWO_PI
    return t, p, (a - b - t + p) % TWO_PI


def _lrl(a, b, d):
    tmp = (6.0 - d * d + 2.0 * math.cos(a - b) + 2.0 * d * (math.sin(b) - math.sin(a))) / 8.0
    if abs(tmp) > 1.0:
        return None
    p = (TWO_PI - math.acos(tmp)) % TWO_PI
    phi = math.atan2(math.cos(a) - math.cos(b), d + math.sin(a) - math.sin(b))
    t = (-a - phi + p / 2.0) % TWO_PI
    return t, p, (b - a - t + p) % TWO_PI


_SOLVERS = dict(zip(FAMILIES, (_lsl, _rsr, _lsr, _rsl, _rlr, _lrl)))


def dubins_shortest_reference(start: Pose, end: Pose, radius: float) -> DubinsPath:
    """One solver per family, tried in ``FAMILIES`` order: ``geometry.dubins_shortest`` must equal it."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if start.x == end.x and start.y == end.y and start.theta == end.theta:
        return DubinsPath("LSL", radius, (0.0, 0.0, 0.0), start, 0.0)
    dx = end.x - start.x
    dy = end.y - start.y
    d = math.hypot(dx, dy) / radius
    phi = math.atan2(dy, dx)
    a = (start.theta - phi) % TWO_PI
    b = (end.theta - phi) % TWO_PI

    best_family = None
    best = None
    best_len = math.inf
    for family in FAMILIES:
        res = _SOLVERS[family](a, b, d)
        if res is None:
            continue
        t, p, q = res
        total = t + p + q  # left to right: from Python 3.12 ``sum`` compensates
        if total < best_len:
            best_len = total
            best = res
            best_family = family
    assert best is not None  # at least one CSC family always exists
    seg = tuple(v * radius for v in best)
    return DubinsPath(best_family, radius, seg, start, best_len * radius)


# --- whole tours rebuilt from their poses ---------------------------------


def decoded_tour(chromosome: Chromosome, scenario: Scenario) -> CompositePath:
    """The chromosome's decoded tour with every curve built, as the edge table never builds it."""
    plan = decode(chromosome, scenario)
    return build_tour(list(plan.poses), list(plan.radii))


def total_reward(scenario: Scenario, subset) -> float:
    """Sum of rewards of the given location-id subset, looked up by id."""
    rewards = {loc.id: loc.reward for loc in scenario.locations}
    out = 0.0
    for lid in subset:
        if lid not in rewards:
            raise ScenarioError(f"unknown location id {lid}")
        out += rewards[lid]
    return out


# --- the archive by exhaustive scan ---------------------------------------


def update_archive_reference(archive: list[Solution], population, fits, scenario) -> list[Solution]:
    """The elitist archive by pairwise scan and one stable sort; ``_update_archive`` must match it.

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


# --- tangent-circle construction of individual curve families -------------


def _turn_center(pose: Pose, rho: float, turn: int):
    # turn: +1 left, -1 right
    return (pose.x - turn * rho * math.sin(pose.theta), pose.y + turn * rho * math.cos(pose.theta))


def _heading_on_circle(point, center, turn: int) -> float:
    vx, vy = point[0] - center[0], point[1] - center[1]
    if turn > 0:
        return math.atan2(vx, -vy) % TWO_PI
    return math.atan2(-vx, vy) % TWO_PI


def _arc_amount(from_heading: float, to_heading: float, turn: int) -> float:
    if turn > 0:
        return (to_heading - from_heading) % TWO_PI
    return (from_heading - to_heading) % TWO_PI


def _propagate(pose: Pose, family: str, segs, rho: float) -> Pose:
    x, y, th = pose.x, pose.y, pose.theta
    for seg_type, s in zip(family, segs):
        if seg_type == "S":
            x += s * math.cos(th)
            y += s * math.sin(th)
        elif seg_type == "L":
            nt = th + s / rho
            x += rho * (math.sin(nt) - math.sin(th))
            y -= rho * (math.cos(nt) - math.cos(th))
            th = nt
        else:
            nt = th - s / rho
            x += rho * (math.sin(th) - math.sin(nt))
            y -= rho * (math.cos(th) - math.cos(nt))
            th = nt
    return Pose(x, y, th)


def _endpoint_error(start: Pose, end: Pose, family: str, segs, rho: float) -> float:
    got = _propagate(start, family, segs, rho)
    ang = abs((got.theta - end.theta + math.pi) % TWO_PI - math.pi)
    return max(abs(got.x - end.x), abs(got.y - end.y), ang)


def _csc_candidates(start: Pose, end: Pose, rho: float, family: str):
    t1 = 1 if family[0] == "L" else -1
    t3 = 1 if family[2] == "L" else -1
    c1 = _turn_center(start, rho, t1)
    c2 = _turn_center(end, rho, t3)
    wx, wy = c2[0] - c1[0], c2[1] - c1[1]
    dist = math.hypot(wx, wy)
    psi = math.atan2(wy, wx)
    if t1 == t3:
        p = dist
        phi = psi
    else:
        if dist < 2.0 * rho:
            return []
        p = math.sqrt(dist * dist - 4.0 * rho * rho)
        offset = math.atan2(2.0 * rho, p)
        phi = psi + offset if t1 > 0 else psi - offset
    arc1 = _arc_amount(start.theta, phi % TWO_PI, t1) * rho
    arc3 = _arc_amount(phi % TWO_PI, end.theta, t3) * rho
    return [(arc1, p, arc3)]


def _ccc_candidates(start: Pose, end: Pose, rho: float, family: str):
    t1 = 1 if family[0] == "L" else -1
    tm = -t1
    c1 = _turn_center(start, rho, t1)
    c3 = _turn_center(end, rho, t1)
    wx, wy = c3[0] - c1[0], c3[1] - c1[1]
    dist = math.hypot(wx, wy)
    if dist > 4.0 * rho or dist == 0.0:
        return []
    half = dist / 2.0
    h = math.sqrt(max(4.0 * rho * rho - half * half, 0.0))
    base = ((c1[0] + c3[0]) / 2.0, (c1[1] + c3[1]) / 2.0)
    nx, ny = -wy / dist, wx / dist
    out = []
    for sign in (1.0, -1.0):
        c2 = (base[0] + sign * h * nx, base[1] + sign * h * ny)
        p12 = ((c1[0] + c2[0]) / 2.0, (c1[1] + c2[1]) / 2.0)
        p23 = ((c2[0] + c3[0]) / 2.0, (c2[1] + c3[1]) / 2.0)
        phi1 = _heading_on_circle(p12, c1, t1)
        phi2 = _heading_on_circle(p23, c3, t1)
        arc1 = _arc_amount(start.theta, phi1, t1) * rho
        arc2 = _arc_amount(phi1, phi2, tm) * rho
        arc3 = _arc_amount(phi2, end.theta, t1) * rho
        out.append((arc1, arc2, arc3))
    return out


def family_oracle_length(start: Pose, end: Pose, rho: float, family: str) -> float | None:
    """Shortest verified candidate of one family, or None if infeasible."""
    if family[1] == "S":
        candidates = _csc_candidates(start, end, rho, family)
    else:
        candidates = _ccc_candidates(start, end, rho, family)
    scale = max(1.0, abs(start.x), abs(start.y), abs(end.x), abs(end.y), rho)
    best = None
    for segs in candidates:
        if _endpoint_error(start, end, family, segs, rho) > 1e-6 * scale:
            continue
        total = segs[0] + segs[1] + segs[2]  # left to right: from Python 3.12 ``sum`` compensates
        if best is None or total < best:
            best = total
    return best


# --- closed-form exposure of a straight leg past one node -----------------


def straight_exposure_closed_form(alpha: float, lateral: float, t0: float, t1: float) -> float:
    """Integral of alpha / (lateral^2 + t^2) dt from t0 to t1 (no cap active)."""
    return alpha / lateral * (math.atan(t1 / lateral) - math.atan(t0 / lateral))


# --- per-curve composite Simpson exposure ---------------------------------


def simpson_curve_exposure(field: SensorField, curve: DubinsPath, step: float) -> float:
    """Simpson exposure of one curve alone: ``sensing.row_exposures`` must equal it bit for bit,
    as both add by ``np.add.reduceat`` (``(weights * vals).sum()`` rounds otherwise)."""
    if curve.length <= 0.0 or not field.nodes:
        return 0.0
    n = 2 * max(1, math.ceil(curve.length / (2.0 * step)))
    s = np.linspace(0.0, curve.length, n + 1)
    xs, ys, _ = sample_many(curve, s)
    vals = intensity_many(field, xs, ys)
    h = curve.length / n
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(h / 3.0 * np.add.reduceat(weights * vals, [0])[0])


# --- brute-force dominance classification ---------------------------------


def brute_force_fronts(fits: list[Fitness]) -> list[list[int]]:
    """Peel non-dominated layers by exhaustive pairwise comparison."""
    def dom(a, b):
        return (
            a.reward >= b.reward
            and a.exposure <= b.exposure
            and (a.reward > b.reward or a.exposure < b.exposure)
        )

    remaining = list(range(len(fits)))
    fronts = []
    while remaining:
        layer = [
            i
            for i in remaining
            if not any(dom(fits[j], fits[i]) for j in remaining if j != i)
        ]
        fronts.append(sorted(layer))
        remaining = [i for i in remaining if i not in set(layer)]
    return fronts


# --- series Bessel functions and the circular density ---------------------


def bessel_i0(x: float, terms: int = 60) -> float:
    half = x / 2.0
    total = 1.0
    term = 1.0
    for k in range(1, terms):
        term *= (half / k) ** 2
        total += term
    return total


def bessel_i1(x: float, terms: int = 60) -> float:
    half = x / 2.0
    term = half
    total = term
    for k in range(1, terms):
        term *= half * half / (k * (k + 1))
        total += term
    return total


def von_mises_density(x: float, mean: float, kappa: float) -> float:
    return math.exp(kappa * math.cos(x - mean)) / (TWO_PI * bessel_i0(kappa))


def von_mises_bin_probabilities(mean: float, kappa: float, bins: int) -> np.ndarray:
    """Per-bin probabilities over [0, 2*pi), Simpson-integrated per bin."""
    probs = np.empty(bins)
    width = TWO_PI / bins
    for b in range(bins):
        lo = b * width
        xs = np.linspace(lo, lo + width, 9)
        ys = np.array([von_mises_density(x, mean, kappa) for x in xs])
        w = np.ones(9)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        probs[b] = width / 8.0 / 3.0 * float(w @ ys)
    return probs / probs.sum()


# --- Monte-Carlo hypervolume ----------------------------------------------


def monte_carlo_hypervolume(front: list[Fitness], reference, samples: int, seed: int):
    """Dominated-area estimate and its standard error."""
    rng = np.random.default_rng(seed)
    r_ref, e_ref = reference
    r_hi = max(f.reward for f in front)
    e_lo = min(f.exposure for f in front)
    box = (r_hi - r_ref) * (e_ref - e_lo)
    if box <= 0.0:
        return 0.0, 0.0
    rs = r_ref + rng.random(samples) * (r_hi - r_ref)
    es = e_lo + rng.random(samples) * (e_ref - e_lo)
    hit = np.zeros(samples, dtype=bool)
    for f in front:
        hit |= (rs <= f.reward) & (es >= f.exposure)
    frac = hit.mean()
    se = math.sqrt(max(frac * (1.0 - frac), 1e-12) / samples)
    return box * float(frac), box * se


# --- checks of the main path against the oracles --------------------------


def check_dubins_endpoint(n: int, seed: int):
    """Shortest curves equal the per-family solvers' choice, end on the target pose and beat
    every family's tangent construction."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        s = Pose(rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(0, TWO_PI))
        e = Pose(rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(0, TWO_PI))
        rho = rng.uniform(0.5, 4.0)
        path = dubins_shortest(s, e, rho)
        if path != dubins_shortest_reference(s, e, rho):
            return False, f"curve {path} differs from the per-family solvers' choice"
        got = path_end(path)
        err = max(abs(got.x - e.x), abs(got.y - e.y),
                  abs((got.theta - e.theta + math.pi) % TWO_PI - math.pi))
        worst = max(worst, err)
        if not err < 1e-6:
            return False, f"endpoint error {err:.3e} >= 1e-6"
        for fam in ("LSL", "RSR", "LSR", "RSL", "RLR", "LRL"):
            ref = family_oracle_length(s, e, rho, fam)
            if ref is not None and path.length > ref + 1e-9:
                return False, f"length {path.length:.9f} > {fam} oracle {ref:.9f}"
    return True, f"{n} pose pairs, max endpoint error {worst:.3e}"


def check_exposure_arctan(n: int, seed: int):
    """Quadrature of a straight leg past one node against the arctan closed form."""
    field = SensorField(nodes=((0.0, 5.0),), alpha=50.0, mu=2.0, cap=30.0)
    ends = (TargetLocation(0, -10.0, 0.0, 0.0), TargetLocation(1, 10.0, 0.0, 0.0))
    sc = Scenario("straight", ends, field, t_max=30.0, rho_min=1.0, rho_max=1.0)
    got = score(plan_from_tour(sc, [0, 1], [0.0, 0.0], [1.0]), sc, 0.01).exposure
    exact = straight_exposure_closed_form(50.0, 5.0, -10.0, 10.0)
    rel = abs(got - exact) / exact
    ok = abs(exact - 22.14297) <= 1e-5 and rel < 1e-4
    return ok, f"quadrature error {rel:.3e} relative (E={got:.5f})"


def check_dominance(n: int, seed: int):
    """The sorted layers, in order, against brute-force peeling on tie-heavy points."""
    rng = np.random.default_rng(seed)
    fits = [Fitness(float(rng.integers(0, 40)) / 4.0, float(rng.integers(0, 80)), 0.0)
            for _ in range(n)]
    ref = brute_force_fronts(fits)
    return non_dominated_sort(fits) == ref, f"{n} points, {len(ref)} fronts"


def _von_mises_samples(n: int, seed: int, mean: float, kappa: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.array([sample_von_mises(mean, kappa, rng) for _ in range(n)])


def check_vonmises_bessel(n: int, seed: int):
    """The sampler's mean resultant length against I1(kappa) / I0(kappa)."""
    mean, kappa = 1.0, 2.0
    samples = _von_mises_samples(n, seed, mean, kappa)
    mrl = float(np.hypot(np.cos(samples - mean).mean(), np.sin(samples - mean).mean()))
    expected = bessel_i1(kappa) / bessel_i0(kappa)
    return abs(mrl - expected) <= 0.01, f"resultant length {mrl:.4f} vs {expected:.4f}"


def check_vonmises_density(n: int, seed: int):
    """Chi-square of the sampler's 36-bin histogram against the integrated density."""
    from scipy.stats import chi2  # imported here: scipy.stats is slow to load for the CLI

    mean, kappa, bins = 1.0, 2.0, 36
    samples = _von_mises_samples(n, seed, mean, kappa)
    counts, _ = np.histogram(samples, bins=bins, range=(0.0, TWO_PI))
    expected = von_mises_bin_probabilities(mean, kappa, bins) * n
    stat = float(((counts - expected) ** 2 / expected).sum())
    crit = float(chi2.ppf(0.99, bins - 1))
    return stat <= crit, f"chi-square {stat:.2f} vs critical {crit:.2f} at 1%"


# name -> (check, default n)
ORACLE_CHECKS = {
    "dubins-endpoint": (check_dubins_endpoint, 2000),
    "exposure-arctan": (check_exposure_arctan, 1),
    "dominance": (check_dominance, 200),
    "vonmises-bessel": (check_vonmises_bessel, 100_000),
    "vonmises-density": (check_vonmises_density, 100_000),
}
