"""Property tests of the product-measure kernel against independent oracles.

The oracles are the straightforward definitions: a per-configuration loop
that multiplies the product weight of every configuration, and the subset
expansion as the recursion "project onto A, subtract the components of all
proper subsets of A" (5^N operations).  Neither shares code with the
stride-contraction kernel in ``colocal.measure``.  The one-pass single-site
components are checked against one projection per site.
"""

import itertools
import random
from fractions import Fraction as F

from hypothesis import example, given, strategies as st

import colocal as cl
from colocal.measure import _site_components


def state_measures(n):
    return st.lists(st.integers(1, 9), min_size=n, max_size=n).map(
        lambda raw: cl.state_measure([F(r, sum(raw)) for r in raw]))


@st.composite
def product_cases(draw, max_sites=7):
    """(table, product measure) on a d=1 site set that need not be
    contiguous, with 2 or 3 states and some per-site measures."""
    n = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(0, max_sites))
    sites = cl.siteset(draw(st.lists(st.integers(-5, 6), unique=True,
                                     min_size=k, max_size=k)))
    base = draw(state_measures(n))
    per_site = {}
    if len(sites):
        per_site = draw(st.dictionaries(st.sampled_from(sites.sites),
                                        state_measures(n)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    values = tuple(F(rng.randint(-8, 8), rng.randint(1, 6))
                   for _ in range(n ** len(sites)))
    return cl.FnTable(sites, n, values), cl.product_measure(base, per_site)


def big_case():
    """The largest case: 7 sites with gaps, 3 states, per-site measures."""
    rng = random.Random(7)
    sites = cl.siteset([-5, -3, -2, 0, 1, 4, 6])
    values = tuple(F(rng.randint(-8, 8), rng.randint(1, 6))
                   for _ in range(3 ** 7))
    prod = cl.product_measure(cl.state_measure([F(1, 6), F(2, 6), F(3, 6)]),
                              {-3: cl.state_measure([F(1, 7), F(4, 7),
                                                     F(2, 7)]),
                               4: cl.state_measure([F(5, 9), F(1, 9),
                                                    F(3, 9)])})
    return cl.FnTable(sites, 3, values), prod


def subset(sites, mask):
    return cl.siteset(s for k, s in enumerate(sites) if mask >> k & 1)


# -- oracles ----------------------------------------------------------------

def loop_conditional_expectation(f, sub, prod):
    """Per-configuration loop: add f times the weight of the integrated
    sites into the fiber of each configuration."""
    sub_space = cl.ConfigSpace(sub, f.n_states)
    positions = [f.sites.position(s) for s in sub]
    off = [(k, s) for k, s in enumerate(f.sites) if s not in sub]
    out = [F(0)] * sub_space.size
    for idx in range(f.space.size):
        assignment = f.space.decode(idx)
        w = F(1)
        for k, s in off:
            w = w * prod.factor(s).weights[assignment[k]]
        j = sub_space.encode(tuple(assignment[p] for p in positions))
        out[j] = out[j] + f.values[idx] * w
    return tuple(out)


def config_weights(prod, sites):
    space = cl.ConfigSpace(sites, prod.n_states)
    return [prod.config_weight(sites, space.decode(i))
            for i in range(space.size)]


def recursive_expansion(f, prod):
    """Component at A = projection onto A minus the components of every
    proper subset of A, embedded."""
    components = {}
    for size in range(len(f.sites) + 1):
        for sub in itertools.combinations(f.sites.sites, size):
            window = cl.siteset(sub)
            acc = cl.FnTable(window, f.n_states,
                             loop_conditional_expectation(f, window, prod))
            for smaller_size in range(size):
                for smaller in itertools.combinations(sub, smaller_size):
                    acc = acc - components[smaller].embed(window)
            components[sub] = acc
    return components


def as_float(f, prod):
    """The table and the measure built from float values and weights."""
    def floats(nu):
        return cl.StateMeasure(tuple(float(w) for w in nu.weights))
    per_site = {s: floats(nu) for s, nu in (prod.per_site or {}).items()}
    return (cl.FnTable(f.sites, f.n_states, tuple(map(float, f.values))),
            cl.product_measure(floats(prod.base), per_site))


# -- properties ---------------------------------------------------------------

@given(product_cases(), st.integers(0, 2 ** 7 - 1))
@example(big_case(), 0b1011010)
@example(big_case(), 0)
def test_conditional_expectation_matches_loop(case, mask):
    f, prod = case
    sub = subset(f.sites, mask)
    projected = cl.conditional_expectation(f, sub, prod)
    assert projected.sites == sub
    if sub != f.sites:
        assert all(isinstance(v, F) for v in projected.values)
    assert projected.values == loop_conditional_expectation(f, sub, prod)


@given(product_cases())
@example(big_case())
def test_materialize_matches_config_weight(case):
    f, prod = case
    win = prod.materialize(f.sites)
    assert win.sites == f.sites
    assert list(win.weights) == config_weights(prod, f.sites)


@given(product_cases())
@example(big_case())
def test_expectation_and_inner_match_window_sums(case):
    f, prod = case
    g = cl.FnTable(f.sites, f.n_states, tuple(reversed(f.values)))
    weights = config_weights(prod, f.sites)
    assert cl.expectation(f, prod) == sum(v * w for v, w in
                                          zip(f.values, weights))
    assert cl.inner(f, g, prod) == sum(
        a * b * w for a, b, w in zip(f.values, g.values, weights))
    if not prod.per_site:
        assert cl.inner(f, g, prod.base) == cl.inner(f, g, prod)


@given(product_cases(max_sites=5))
@example((cl.FnTable(cl.siteset([-2, 0, 3]), 1, (F(3, 7),)),   # one state
          cl.product_measure(cl.state_measure([1]), {})))
def test_expansion_matches_recursion(case):
    f, prod = case
    expansion = cl.expand_martingale(f, prod)
    oracle = recursive_expansion(f, prod)
    assert list(expansion.components) == list(oracle)
    for sub, table in oracle.items():
        assert expansion.components[sub].sites == table.sites
        assert expansion.components[sub].values == table.values


@given(product_cases(max_sites=5), st.integers(0, 2 ** 5 - 1))
def test_float_mode_within_tolerance(case, mask):
    """Floats are read as the simplest rationals that round to them, which
    recovers the small-denominator inputs: every result is exact."""
    f, prod = case
    sub = subset(f.sites, mask)
    ff, fprod = as_float(f, prod)
    assert ff.values == f.values and fprod == prod
    projected = cl.conditional_expectation(ff, sub, fprod)
    assert all(isinstance(v, F) for v in projected.values)
    assert projected == cl.conditional_expectation(f, sub, prod)
    assert (fprod.materialize(f.sites).weights
            == prod.materialize(f.sites).weights)
    assert ([cl.expectation(ff, fprod), cl.inner(ff, ff, fprod)]
            == [cl.expectation(f, prod), cl.inner(f, f, prod)])
    exact = cl.expand_martingale(f, prod).components
    floats = cl.expand_martingale(ff, fprod).components
    assert list(floats) == list(exact)
    for sub, table in exact.items():
        assert floats[sub].values == table.values


@st.composite
def site_component_cases(draw):
    """(table, product measure) on part of a d=1 path or of a d=2 box."""
    n = draw(st.sampled_from([2, 3]))
    base = draw(state_measures(n))
    window = draw(st.sampled_from([cl.lattice_window(1, 4),
                                   cl.lattice_window(2, 1)]))
    sites = cl.siteset(draw(st.lists(st.sampled_from(window.sites),
                                     unique=True, max_size=7 if n == 2
                                     else 5)))
    per_site = draw(st.dictionaries(st.sampled_from(window.sites),
                                    state_measures(n)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    values = tuple(F(rng.randint(-8, 8), rng.randint(1, 6))
                   for _ in range(n ** len(sites)))
    return cl.FnTable(sites, n, values), cl.product_measure(base, per_site)


def per_site_components(f, prod):
    """Oracle: one projection onto each site, minus its mean."""
    out = {}
    for s in f.sites:
        projected = cl.conditional_expectation(f, cl.siteset([s]), prod)
        mean = prod.factor(s).mean(projected.values)
        out[s] = tuple(v - mean for v in projected.values)
    return out


@given(site_component_cases())
@example(big_case())
def test_site_components_match_per_site_projections(case):
    f, prod = case
    components, mean = _site_components(f, prod)
    oracle = per_site_components(f, prod)
    assert list(components) == list(oracle)
    assert components == oracle
    assert mean == cl.expectation(f, prod)
    ff, fprod = as_float(f, prod)
    assert _site_components(ff, fprod) == (oracle, mean)
