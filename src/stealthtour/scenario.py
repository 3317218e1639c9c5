"""Problem instances: loading, validation, generation, rewards.

The on-disk format is JSON (documented in the README): top-level keys
``name``, ``t_max``, ``rho_min``, ``rho_max``, ``closed``, ``sensing``,
``sensors``, ``locations``, ``start_id``, ``goal_id`` and the optional
``fixed_headings``.  Internally locations are reordered so index 0 is the
start and the last index is the goal.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .sensing import WORKSPACE_BOUND, SensorField, check_step


# Concentrations the von Mises heading sampler accepts.  Inside this range the
# Best-Fisher envelope parameters keep their precision; far outside it they
# round away (rho = 0 below about kappa = 1e-8, r = 1 above about 1e16) or
# overflow, and the sampler divides by zero, fails or never returns.
KAPPA_RANGE = (1e-6, 1e6)


class ScenarioError(ValueError):
    """Malformed or invariant-violating scenario data."""


@dataclass(frozen=True)
class TargetLocation:
    id: int
    x: float
    y: float
    reward: float


@dataclass(frozen=True)
class Scenario:
    name: str
    locations: tuple[TargetLocation, ...]  # index 0 = start, last = goal
    field: SensorField
    t_max: float
    rho_min: float
    rho_max: float
    closed: bool = False
    fixed_headings: dict[int, float] | None = None

    def __post_init__(self):
        if len(self.locations) < 2:
            raise ScenarioError("locations: need at least start and goal")
        for name in ("t_max", "rho_min", "rho_max"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ScenarioError(f"{name}: must be finite")
            if value > WORKSPACE_BOUND:
                raise ScenarioError(f"{name}: must be at most {WORKSPACE_BOUND:g}")
        if self.t_max <= 0.0:
            raise ScenarioError("t_max: must be positive")
        if not (0.0 < self.rho_min <= self.rho_max):
            raise ScenarioError("rho_min/rho_max: need 0 < rho_min <= rho_max")
        if self.rho_min < 1.0 / WORKSPACE_BOUND:
            raise ScenarioError(f"rho_min: must be at least {1.0 / WORKSPACE_BOUND:g}")
        start, goal = self.locations[0], self.locations[-1]
        if start.reward != 0.0 or goal.reward != 0.0:
            raise ScenarioError("locations: start and goal rewards must be 0")
        if self.closed and (start.x != goal.x or start.y != goal.y):
            raise ScenarioError("closed: start and goal positions must coincide")
        ids = [loc.id for loc in self.locations]
        if len(set(ids)) != len(ids):
            raise ScenarioError("locations: duplicate ids")
        for loc in self.locations:
            if not all(map(math.isfinite, (loc.x, loc.y, loc.reward))):
                raise ScenarioError(f"locations[{loc.id}]: x, y and reward must be finite")
            if max(abs(loc.x), abs(loc.y)) > WORKSPACE_BOUND:
                raise ScenarioError(f"locations[{loc.id}]: x and y must lie within +-{WORKSPACE_BOUND:g}")
            if loc.reward < 0.0:
                raise ScenarioError(f"locations[{loc.id}].reward: must be non-negative")
        if self.fixed_headings:
            known = set(ids)
            for lid, th in self.fixed_headings.items():
                if lid not in known:
                    raise ScenarioError(f"fixed_headings: unknown location id {lid}")
                if not math.isfinite(th):
                    raise ScenarioError(f"fixed_headings[{lid}]: must be finite")
                if self.closed and lid == goal.id:
                    raise ScenarioError(
                        f"fixed_headings[{lid}]: the goal of a closed circuit takes the start's heading")

    @property
    def start(self) -> TargetLocation:
        return self.locations[0]

    @property
    def goal(self) -> TargetLocation:
        return self.locations[-1]

    def index_of(self, location_id: int) -> int:
        for i, loc in enumerate(self.locations):
            if loc.id == location_id:
                return i
        raise ScenarioError(f"unknown location id {location_id}")


def scenario_to_dict(sc: Scenario) -> dict:
    data = {
        "name": sc.name,
        "t_max": sc.t_max,
        "rho_min": sc.rho_min,
        "rho_max": sc.rho_max,
        "closed": sc.closed,
        "sensing": {"alpha": sc.field.alpha, "mu": sc.field.mu, "cap": sc.field.cap},
        "sensors": [[x, y] for x, y in sc.field.nodes],
        "locations": [
            {"id": loc.id, "x": loc.x, "y": loc.y, "reward": loc.reward}
            for loc in sc.locations
        ],
        "start_id": sc.start.id,
        "goal_id": sc.goal.id,
    }
    if sc.fixed_headings:
        data["fixed_headings"] = {str(k): v for k, v in sc.fixed_headings.items()}
    return data


def save_scenario(sc: Scenario) -> str:
    return json.dumps(scenario_to_dict(sc), indent=2) + "\n"


def json_number(name: str, value, kind=float):
    """``value`` converted by ``kind``, if it is a JSON number of that kind.

    This is the one rule for numbers read from JSON: an int, or for ``float``
    an int or a float, is converted; a bool, a string, anything else, a float
    where an int is needed and an int past float range raise ``ScenarioError``.
    """
    wanted = int if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, wanted):
        raise ScenarioError(f"{name}: invalid value, need {'an int' if kind is int else 'a number'}")
    try:
        return kind(value)
    except OverflowError as exc:
        raise ScenarioError(f"{name}: invalid value: {exc}") from exc


def json_numbers(name: str, values, kind=float) -> tuple:
    """A list of JSON numbers, each converted by ``json_number``."""
    if not isinstance(values, (list, tuple)):
        raise ScenarioError(f"{name}: need a list of {kind.__name__}s")
    return tuple(json_number(name, v, kind) for v in values)


def _location_id(key: str) -> int:
    """A ``fixed_headings`` key as a location id, if it is the id written in decimal.

    Only the spelling ``str(id)`` is taken, so no two keys name one id and no
    key with a sign, spaces, underscores or non-ASCII digits names any.
    """
    try:
        lid = int(key)
    except ValueError:
        lid = None
    if lid is None or str(lid) != key:
        raise ScenarioError(f"fixed_headings: key {key!r} is not a location id in decimal")
    return lid


def scenario_from_dict(data) -> Scenario:
    """The scenario a decoded JSON document describes; any fault raises ``ScenarioError``."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario: need a JSON object")
    closed = data.get("closed", False)
    if not isinstance(closed, bool):
        raise ScenarioError("closed: need true or false")
    fixed = data.get("fixed_headings", {})
    if not isinstance(fixed, dict):
        raise ScenarioError("fixed_headings: need an object of location id to heading")
    try:
        name, sensing = data["name"], data["sensing"]
        if not isinstance(name, str):
            raise ScenarioError("name: need a string")
        nodes = tuple(json_numbers("sensors", node) for node in data["sensors"])
        if any(len(node) != 2 for node in nodes):
            raise ScenarioError("sensors: need [x, y] pairs")
        sensor_field = SensorField(
            nodes=nodes,
            alpha=json_number("sensing.alpha", sensing["alpha"]),
            mu=json_number("sensing.mu", sensing["mu"]),
            cap=json_number("sensing.cap", sensing["cap"]),
        )
        locations = [
            TargetLocation(json_number("locations.id", d["id"], int),
                           *(json_number(f"locations.{k}", d[k]) for k in ("x", "y", "reward")))
            for d in data["locations"]
        ]
        start_id = json_number("start_id", data["start_id"], int)
        goal_id = json_number("goal_id", data["goal_id"], int)
        by_id = {loc.id: loc for loc in locations}
        if start_id not in by_id:
            raise ScenarioError("start_id: not present in locations")
        if goal_id not in by_id or goal_id == start_id:
            raise ScenarioError("goal_id: must name a location distinct from start_id")
        ordered = (
            [by_id[start_id]]
            + [loc for loc in locations if loc.id not in (start_id, goal_id)]
            + [by_id[goal_id]]
        )
        return Scenario(
            name=name,
            locations=tuple(ordered),
            field=sensor_field,
            t_max=json_number("t_max", data["t_max"]),
            rho_min=json_number("rho_min", data["rho_min"]),
            rho_max=json_number("rho_max", data["rho_max"]),
            closed=closed,
            fixed_headings={
                _location_id(k): json_number(f"fixed_headings.{k}", v) for k, v in fixed.items()
            } if fixed else None,
        )
    except ScenarioError:
        raise
    except KeyError as exc:
        raise ScenarioError(f"missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid value: {exc}") from exc


def load_scenario(content: bytes | str) -> Scenario:
    try:
        if isinstance(content, bytes):
            content = content.decode("utf-8")
        data = json.loads(content)
    # ValueError: bad UTF-8, bad JSON, or an integer past int's digit limit
    except (ValueError, RecursionError) as exc:
        raise ScenarioError(f"not valid JSON: {exc}") from exc
    return scenario_from_dict(data)


# --- builtin instance generation -----------------------------------------

REWARD_CHOICES = (0.2, 0.4, 0.6, 0.8, 1.0)

# 11 nodes: a horizontal row of 7 plus 4 more on the vertical, centered in
# the 30 x 22 workspace.
_CROSS_NODES = (
    (6.0, 11.0), (9.0, 11.0), (12.0, 11.0), (15.0, 11.0),
    (18.0, 11.0), (21.0, 11.0), (24.0, 11.0),
    (15.0, 4.5), (15.0, 7.75), (15.0, 14.25), (15.0, 17.5),
)

# 8 nodes: a 4 x 2 grid in the 30 x 30 workspace.
_GRID_NODES = (
    (6.0, 10.0), (12.0, 10.0), (18.0, 10.0), (24.0, 10.0),
    (6.0, 20.0), (12.0, 20.0), (18.0, 20.0), (24.0, 20.0),
)


def _random_targets(rng, count, xlim, ylim):
    targets = []
    for i in range(count):
        x = round(float(xlim[0] + rng.random() * (xlim[1] - xlim[0])), 2)
        y = round(float(ylim[0] + rng.random() * (ylim[1] - ylim[0])), 2)
        reward = REWARD_CHOICES[int(rng.integers(len(REWARD_CHOICES)))]
        targets.append(TargetLocation(i + 1, x, y, reward))
    return targets


def generate_instance(kind: str, seed: int, closed: bool = False) -> Scenario:
    """Deterministic builtin instance (``cross`` or ``grid``)."""
    rng = np.random.default_rng(seed)
    if kind == "cross":
        nodes, count = _CROSS_NODES, 18
        xlim, ylim = (1.5, 28.5), (1.5, 20.5)
        start_xy, goal_xy = (2.0, 2.0), (28.0, 20.0)
    elif kind == "grid":
        nodes, count = _GRID_NODES, 15
        xlim, ylim = (1.5, 28.5), (1.5, 28.5)
        start_xy, goal_xy = (2.0, 2.0), (28.0, 28.0)
    else:
        raise ScenarioError(f"unknown builtin instance kind {kind!r}")
    targets = _random_targets(rng, count, xlim, ylim)
    if closed:
        goal_xy = start_xy
    start = TargetLocation(0, start_xy[0], start_xy[1], 0.0)
    goal = TargetLocation(count + 1, goal_xy[0], goal_xy[1], 0.0)
    return Scenario(
        name=f"{kind}-{seed}" + ("-closed" if closed else ""),
        locations=tuple([start] + targets + [goal]),
        field=SensorField(nodes=nodes, alpha=50.0, mu=2.0, cap=30.0),
        t_max=100.0,
        rho_min=1.0,
        rho_max=2.0,
        closed=closed,
    )


def with_overrides(sc: Scenario, *, t_max=None, rho_min=None, rho_max=None, closed=None) -> Scenario:
    """Copy of the scenario with selected knobs replaced."""
    changes = {}
    if t_max is not None:
        changes["t_max"] = float(t_max)
    if rho_min is not None:
        changes["rho_min"] = float(rho_min)
    if rho_max is not None:
        changes["rho_max"] = float(rho_max)
    if closed is not None:
        changes["closed"] = bool(closed)
        if closed and (sc.goal.x != sc.start.x or sc.goal.y != sc.start.y):
            goal = replace(sc.goal, x=sc.start.x, y=sc.start.y)
            changes["locations"] = sc.locations[:-1] + (goal,)
    return replace(sc, **changes)


@dataclass
class SolverParams:
    """Evolutionary engine knobs; defaults follow the reference setup."""

    population_size: int = 400
    generations: int = 400
    crossover_prob: float = 0.8
    mutation_prob_individual: float = 0.4
    mutation_prob_gene: float = 0.02
    von_mises_kappa: float = 2.0
    selection: str = "reference-point"  # or "crowding-distance"
    seed: int = 0
    single_objective: bool = False
    alignment_mutation: bool = False
    exposure_step: float = 0.05

    def __post_init__(self):
        if self.population_size <= 0 or self.generations < 0:
            raise ValueError("population_size must be > 0 and generations >= 0")
        for name in ("crossover_prob", "mutation_prob_individual", "mutation_prob_gene"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        lo, hi = KAPPA_RANGE
        if not lo <= self.von_mises_kappa <= hi:  # also NaN, which would never leave the sampler
            raise ValueError(f"von_mises_kappa must lie in [{lo:g}, {hi:g}]")
        if self.selection not in ("reference-point", "crowding-distance"):
            raise ValueError("selection must be reference-point or crowding-distance")
        check_step(self.exposure_step)
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValueError("seed must be >= 0")
