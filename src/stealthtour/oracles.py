"""Independent verification oracles, and the checks that hold the main path to them.

The oracles deliberately re-derive results through different routes than
the main code paths: tangent-circle geometry for curve lengths, a
closed-form integral for exposure, brute-force pairwise dominance for
front sorting, and series-evaluated Bessel functions for the circular
sampler.  Each ``check_*(n, seed) -> (ok, detail)`` at the end compares
the main path with one of them; ``stealthtour oracle`` and the acceptance
criteria run the same checks.  The main path never imports this module.
"""

from __future__ import annotations

import math

import numpy as np

from .evolution import plan_from_tour, sample_von_mises, score
from .geometry import Pose, TWO_PI, dubins_shortest, path_end
from .pareto import Fitness, non_dominated_sort
from .scenario import Scenario, TargetLocation
from .sensing import SensorField

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
        total = sum(segs)
        if best is None or total < best:
            best = total
    return best


# --- closed-form exposure of a straight leg past one node -----------------


def straight_exposure_closed_form(alpha: float, lateral: float, t0: float, t1: float) -> float:
    """Integral of alpha / (lateral^2 + t^2) dt from t0 to t1 (no cap active)."""
    return alpha / lateral * (math.atan(t1 / lateral) - math.atan(t0 / lateral))


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
    """Shortest curves end on the target pose and beat every family's tangent construction."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        s = Pose(rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(0, TWO_PI))
        e = Pose(rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(0, TWO_PI))
        rho = rng.uniform(0.5, 4.0)
        path = dubins_shortest(s, e, rho)
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
