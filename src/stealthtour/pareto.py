"""Dominance, non-dominated sorting, diversity and front summaries.

Objectives: reward is maximized, exposure is minimized.  Length is carried
along but is not an objective.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

import numpy as np


class Fitness(NamedTuple):
    reward: float
    exposure: float
    length: float


def dominates(a: Fitness, b: Fitness) -> bool:
    """True iff a is at least as good in both objectives and better in one."""
    if a.reward < b.reward or a.exposure > b.exposure:
        return False
    return a.reward > b.reward or a.exposure < b.exposure


def non_dominated_sort(fits: list[Fitness]) -> list[list[int]]:
    """Successive layers of non-domination, each in ascending index order.

    With two objectives one sort and a sweep give every layer (Kung, Luccio &
    Preparata, J. ACM 1975; Jensen, IEEE TEC 2003).  Points are visited by
    falling reward, then rising exposure, and each joins the first layer
    whose last member does not dominate it.  That member has the least
    exposure and reward of its layer, and the last members rise strictly in
    (exposure, -reward) from layer to layer, so a bisect on that pair finds
    the layer; a point equal to a last member joins its layer.
    """
    order = sorted(range(len(fits)), key=lambda i: (-fits[i].reward, fits[i].exposure))
    fronts: list[list[int]] = []
    lasts: list[tuple[float, float]] = []
    for i in order:
        key = (fits[i].exposure, -fits[i].reward)
        k = bisect_left(lasts, key)
        if k == len(fronts):
            fronts.append([i])
            lasts.append(key)
        else:
            fronts[k].append(i)
            lasts[k] = key
    return [sorted(front) for front in fronts]


def crowding_distance(fits: list[Fitness], front: list[int]) -> np.ndarray:
    """NSGA-II crowding distance over (reward, exposure) for one front."""
    k = len(front)
    dist = np.zeros(k)
    if k <= 2:
        dist[:] = np.inf
        return dist
    objs = np.array([[fits[i].reward, fits[i].exposure] for i in front])
    for col in range(2):
        order = np.argsort(objs[:, col], kind="stable")
        lo, hi = objs[order[0], col], objs[order[-1], col]
        dist[order[0]] = dist[order[-1]] = np.inf
        if hi - lo <= 0.0:
            continue
        gaps = (objs[order[2:], col] - objs[order[:-2], col]) / (hi - lo)
        dist[order[1:-1]] += gaps
    return dist


def hypervolume_2d(front: list[Fitness], reference: tuple[float, float]) -> float:
    """Area dominated by the front relative to a (reward, exposure) reference."""
    r_ref, e_ref = reference
    for f in front:
        if f.reward < r_ref or f.exposure > e_ref:
            raise ValueError("front point does not dominate the reference")
    if not front:
        return 0.0
    # reduce to the maximal set, sorted by ascending reward
    pts = sorted({(f.reward, f.exposure) for f in front})
    maximal = []
    best_e = np.inf
    for r, e in reversed(pts):
        if e < best_e:
            maximal.append((r, e))
            best_e = e
    maximal.reverse()
    area = 0.0
    prev_r = r_ref
    for r, e in maximal:
        area += (r - prev_r) * (e_ref - e)
        prev_r = r
    return area

