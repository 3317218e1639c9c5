import numpy as np
import pytest
from hypothesis import settings

from stealthtour.scenario import generate_instance

# CI runs `pytest --hypothesis-profile=ci`: five times the default examples,
# with no per-example deadline on a shared runner.  An explicit
# @settings(max_examples=...) on a test still wins over the profile.
settings.register_profile("ci", max_examples=5 * settings.default.max_examples, deadline=None)


@pytest.fixture
def cross():
    return generate_instance("cross", 7)


@pytest.fixture
def grid():
    return generate_instance("grid", 7)


@pytest.fixture
def rng():
    return np.random.default_rng(42)
