from fractions import Fraction as F

import pytest
from hypothesis import settings

import colocal as cl

# property tests repeat exactly from run to run and stay within seconds
settings.register_profile("colocal", derandomize=True, deadline=None,
                          max_examples=40)
settings.load_profile("colocal")


def rand_scalar(rng):
    return F(rng.randint(-8, 8), rng.randint(1, 6))


def rand_table(rng, sites, n_states=2):
    size = n_states ** len(sites)
    return cl.FnTable(sites, n_states,
                      tuple(rand_scalar(rng) for _ in range(size)))


@pytest.fixture
def exclusion():
    return cl.exclusion_interaction()


@pytest.fixture
def half():
    return cl.bernoulli(F(1, 2))


@pytest.fixture
def mu_half(half):
    return cl.ProductMeasure(half)


@pytest.fixture
def single_edge():
    return cl.build_locale([0, 1], [(0, 1), (1, 0)])


@pytest.fixture
def path3():
    return cl.lattice_window(1, radius=1)


@pytest.fixture
def triangle():
    return cl.build_locale([0, 1, 2],
                           [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
