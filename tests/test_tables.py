"""Property tests of FnTable's index-order helpers against loops over
decoded configurations: embedding and support minimization."""

import random
from fractions import Fraction as F

from hypothesis import given, strategies as st

import colocal as cl


@st.composite
def embedded_tables(draw):
    """A table on a d=1 site set that depends only on a random part of it;
    values are few and repeat, exact or floats."""
    n = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(0, 6 if n == 2 else 4))
    sites = cl.siteset(draw(st.lists(st.integers(-4, 5), unique=True,
                                     min_size=k, max_size=k)))
    part = cl.siteset(s for s in sites if draw(st.booleans()))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    pool = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)]
    if draw(st.booleans()):
        pool = [float(v) for v in pool]
    core = cl.FnTable(part, n, tuple(rng.choice(pool)
                                     for _ in range(n ** len(part))))
    return core, sites


def loop_depends_on(table, site):
    space = table.space
    k = table.sites.position(site)
    for idx in range(space.size):
        digits = list(space.decode(idx))
        for a in range(table.n_states):
            digits[k] = a
            if table.values[space.encode(digits)] != table.values[idx]:
                return True
    return False


@given(embedded_tables())
def test_embed_and_minimized_against_loops(case):
    core, sites = case
    big = core.embed(sites)
    space = big.space
    for idx in range(space.size):
        assignment = space.decode(idx)
        assert big.values[idx] == core.evaluate_in(sites, assignment)
    needed = tuple(s for s in sites if loop_depends_on(big, s))
    assert tuple(s for s in sites if big.depends_on(s)) == needed
    small = big.minimized()
    assert small.sites.sites == needed
    assert small.embed(sites).values == big.values
