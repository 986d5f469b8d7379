"""Property tests of FnTable: the index-order helpers (embedding and support
minimization) against loops over decoded configurations, tables built from
integer numerators against the same tables built from Fractions, and the
reading of floats as exact scalars."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import colocal as cl
from colocal.scalars import exact_scalars


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


# -- tables carried as numerators -----------------------------------------------

@st.composite
def numerator_cases(draw):
    """Two exact tables on one site set (part of a d=1 path or a d=2 box,
    2 or 3 states) that depend on parts of it only, the site set, a
    superset to embed into and a shift."""
    n = draw(st.sampled_from([2, 3]))
    window = draw(st.sampled_from([cl.lattice_window(1, 3),
                                   cl.lattice_window(2, 1)]))
    ambient = draw(st.lists(st.sampled_from(window.sites), unique=True,
                            max_size=6 if n == 2 else 4))
    sites = cl.siteset(s for s in ambient if draw(st.booleans()))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    pool = [F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(3)]

    def table():
        part = cl.siteset(s for s in sites if rng.random() < 0.6)
        return cl.FnTable(part, n, tuple(rng.choice(pool) for _ in
                                         range(n ** len(part)))).embed(sites)
    shift = F(rng.randint(-4, 4), rng.randint(1, 5))
    return table(), table(), cl.siteset(ambient), shift


def rebuilt(table, extra):
    """The same table built from numerators over a denominator that is
    ``extra`` times the least one."""
    den = math.lcm(*(v.denominator for v in table.values)) * extra
    return cl.FnTable.from_numerators(
        table.sites, table.n_states,
        [int(v * den) for v in table.values], den)


@given(numerator_cases(), st.integers(1, 3), st.integers(1, 3))
def test_numerator_tables_agree_with_fraction_tables(case, p, q):
    f, g, ambient, c = case
    nf, ng = rebuilt(f, p), rebuilt(g, q)
    assert nf.values == f.values
    assert all(isinstance(v, F) for v in nf.values)
    assert nf == f and f == nf and hash(nf) == hash(f)
    assert (nf == ng) == (f.values == g.values)
    assert (nf == rebuilt(g, p)) == (f.values == g.values)
    assert nf.embed(ambient).values == f.embed(ambient).values
    small, oracle = nf.minimized(), f.minimized()
    assert small.sites == oracle.sites and small.values == oracle.values
    for fn, gn in ((nf, ng), (nf, g), (f, ng)):
        assert (fn + gn).values == tuple(a + b for a, b in
                                         zip(f.values, g.values))
        assert (fn - gn).values == tuple(a - b for a, b in
                                         zip(f.values, g.values))
    assert nf.shift(c).values == tuple(v + c for v in f.values)
    assert nf.shift(c) == f.shift(c)


# -- floats read as the simplest rationals that round to them -----------------

@given(st.floats(allow_nan=False, allow_infinity=False))
def test_floats_read_as_simplest_rationals(x):
    (q,) = exact_scalars((x,))
    assert isinstance(q, F) and float(q) == x
    if q.denominator > 1:
        # the closest rational of smaller denominator rounds elsewhere
        assert float(q.limit_denominator(q.denominator - 1)) != x


@given(st.integers(-10 ** 4, 10 ** 4), st.integers(1, 10 ** 4))
def test_floats_of_small_rationals_read_back_exactly(p, q):
    assert exact_scalars((p / q, F(p, q), p)) == (F(p, q), F(p, q), p)


def test_non_finite_floats_are_rejected():
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            exact_scalars((1, x))


def test_public_entry_points_read_floats():
    sites = cl.siteset([0, 1])
    table = cl.FnTable(sites, 2, (0.1, 0.2, 1 / 3, -0.75))
    assert table.values == (F(1, 10), F(1, 5), F(1, 3), F(-3, 4))
    assert table.scale(0.5) == table.scale(F(1, 2))
    assert table.shift(0.1).values[0] == F(1, 5)
    nu = cl.bernoulli(0.4)
    assert nu == cl.state_measure([0.6, 0.4]) == cl.StateMeasure((0.6, 0.4))
    assert nu.weights == (F(3, 5), F(2, 5))
    window = cl.WindowMeasure(sites, 2, (0.1, 0.2, 0.3, 0.4))
    assert window.weights == (F(1, 10), F(1, 5), F(3, 10), F(2, 5))
    basis = cl.conserved_quantities(cl.exclusion_interaction(), nu)
    rho = cl.cocycle_from_coefficients(basis, [[0.5]])
    assert rho.images == ((F(1, 2),),)
    assert rho.scale(0.1).images == ((F(1, 20),),)
