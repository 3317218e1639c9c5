import pytest
from hypothesis import given, settings, strategies as st

from stealthtour.oracles import brute_force_fronts, monte_carlo_hypervolume
from stealthtour.pareto import (
    Fitness,
    dominates,
    hypervolume_2d,
    non_dominated_sort,
)


def fit(r, e, length=0.0):
    return Fitness(r, e, length)


def test_dominates_examples():
    assert dominates(fit(5, 10), fit(4, 12))
    assert not dominates(fit(5, 10), fit(5, 10))
    assert not dominates(fit(5, 10), fit(6, 12))
    assert not dominates(fit(6, 12), fit(5, 10))
    assert dominates(fit(6, 8), fit(5, 8))


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
fitness_st = st.builds(fit, finite, finite)


@given(fitness_st)
def test_dominates_irreflexive(a):
    assert not dominates(a, a)


@given(fitness_st, fitness_st)
def test_dominates_antisymmetric(a, b):
    assert not (dominates(a, b) and dominates(b, a))


@given(fitness_st, fitness_st, fitness_st)
def test_dominates_transitive(a, b, c):
    if dominates(a, b) and dominates(b, c):
        assert dominates(a, c)


def test_sort_mutually_non_dominated():
    fits = [fit(i, i) for i in range(6)]  # more reward always costs exposure
    assert non_dominated_sort(fits) == [list(range(6))]


def test_sort_total_chain():
    fits = [fit(10 - i, i) for i in range(5)]  # strictly ordered chain
    fronts = non_dominated_sort(fits)
    assert fronts == [[0], [1], [2], [3], [4]]


def test_sort_matches_brute_force(rng):
    fits = [
        fit(float(rng.integers(0, 30)) / 2.0, float(rng.integers(0, 60)))
        for _ in range(200)
    ]
    got = [sorted(f) for f in non_dominated_sort(fits)]
    assert got == brute_force_fronts(fits)


@st.composite
def tie_heavy_fits(draw):
    """Points on small integer grids: duplicates and equal objectives abound."""
    rewards = st.integers(0, draw(st.integers(0, 8))).map(lambda r: r / 2.0)
    exposures = st.integers(0, draw(st.integers(0, 8))).map(float)
    pairs = draw(st.lists(st.tuples(rewards, exposures), max_size=300))
    return [fit(r, e, length) for length, (r, e) in enumerate(pairs)]


@settings(max_examples=150, deadline=None)
@given(tie_heavy_fits())
def test_sort_equals_brute_force_on_ties(fits):
    # no sorted() around the layers: selection and niching read layer order
    assert non_dominated_sort(fits) == brute_force_fronts(fits)


def test_sort_tie_cases():
    assert non_dominated_sort([]) == []
    assert non_dominated_sort([fit(2.0, 3.0)] * 7) == [list(range(7))]
    # equal exposure: each higher reward dominates every lower one
    chain = [fit(float(r), 4.0) for r in (1, 5, 3, 2, 4)]
    assert non_dominated_sort(chain) == [[1], [4], [2], [3], [0]]


def test_hypervolume_single_rectangle():
    assert hypervolume_2d([fit(3.0, 4.0)], (1.0, 10.0)) == pytest.approx(12.0)


def test_hypervolume_duplicate_point():
    single = hypervolume_2d([fit(3.0, 4.0)], (0.0, 10.0))
    assert hypervolume_2d([fit(3.0, 4.0), fit(3.0, 4.0)], (0.0, 10.0)) == single


def test_hypervolume_rejects_non_dominating_point():
    with pytest.raises(ValueError):
        hypervolume_2d([fit(-1.0, 4.0)], (0.0, 10.0))
    with pytest.raises(ValueError):
        hypervolume_2d([fit(1.0, 11.0)], (0.0, 10.0))


@settings(max_examples=150, deadline=None)
@given(tie_heavy_fits())
def test_hypervolume_counts_dominated_cells_on_ties(fits):
    # rewards are halves in [0, 4] and exposures integers in [0, 8], so the area is
    # a whole number of 0.5 x 1 cells and every float sum on the way is exact
    cells = sum(any(f.reward >= r and f.exposure <= e for f in fits)
                for r in (k / 2.0 for k in range(9)) for e in range(9))
    assert hypervolume_2d(fits, (-0.5, 9.0)) == 0.5 * cells


def test_hypervolume_matches_monte_carlo(rng):
    pts = sorted((float(r), 0.0) for r in rng.uniform(0.5, 10.0, 50))
    front = [fit(r, 100.0 * (i + 1) / 50.0) for i, (r, _) in enumerate(pts)]
    ref = (0.0, 120.0)
    exact = hypervolume_2d(front, ref)
    estimate, se = monte_carlo_hypervolume(front, ref, samples=1_000_000, seed=9)
    assert abs(exact - estimate) <= 3.0 * se


def test_hypervolume_monotone_under_insertion(rng):
    front = [fit(2.0, 5.0), fit(4.0, 9.0)]
    ref = (0.0, 20.0)
    base = hypervolume_2d(front, ref)
    grown = hypervolume_2d(front + [fit(3.0, 6.0)], ref)
    assert grown >= base

