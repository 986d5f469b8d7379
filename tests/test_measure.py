import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

import colocal as cl
from conftest import rand_table


def correlated_measure(exclusion):
    """mu(a, b, c) proportional to 2^{bc} on the path -1 - 0 - 1."""
    path3 = cl.lattice_window(1, radius=1)
    sites = cl.siteset(path3.sites)
    space = cl.enumerate_configs(sites, exclusion)
    raw = []
    for idx in range(space.size):
        _, b, c = space.decode(idx)
        raw.append(F(2) ** (b * c))
    return path3, sites, cl.window_measure_from_raw(sites, 2, tuple(raw))


# -- validation ---------------------------------------------------------

def test_measures_require_positive_weights():
    with pytest.raises(ValueError):
        cl.state_measure([F(0), F(1)])
    with pytest.raises(ValueError):
        cl.state_measure([F(1, 3), F(1, 3)])
    with pytest.raises(ValueError):
        cl.WindowMeasure(cl.siteset([0]), 2, (F(1), F(0)))


def test_product_measure_rejects_a_factor_on_other_states():
    with pytest.raises(cl.SiteSetMismatch) as info:
        cl.product_measure(cl.bernoulli(), {0: cl.uniform_states(3)})
    assert info.value.message == "per_site[0] has 3 states, the base measure 2"
    assert info.value.details == {"site": 0}


@pytest.mark.parametrize("raw", [(0, 0), (1, -1), (-1, -1)])
def test_window_measure_from_raw_requires_positive_weights(raw):
    with pytest.raises(ValueError,
                       match="^window weights must be strictly positive$"):
        cl.window_measure_from_raw(cl.siteset([0]), 2, raw)


# -- pushforward --------------------------------------------------------

def test_pushforward_of_product_is_marginal(half):
    mu = cl.ProductMeasure(half).materialize(cl.siteset([0, 1]))
    push = cl.pushforward(mu, cl.siteset([0]))
    assert push.weights == (F(1, 2), F(1, 2))


def test_pushforward_correlated(exclusion):
    sites = cl.siteset([0, 1])
    space = cl.enumerate_configs(sites, exclusion)
    raw = tuple(F(2) ** (space.decode(i)[0] * space.decode(i)[1])
                for i in range(4))
    mu = cl.window_measure_from_raw(sites, 2, raw)
    push = cl.pushforward(mu, cl.siteset([0]))
    assert push.weights == (F(2, 5), F(3, 5))


def test_pushforward_identity(half):
    mu = cl.ProductMeasure(half).materialize(cl.siteset([0, 1]))
    assert cl.pushforward(mu, cl.siteset([0, 1])) is mu
    with pytest.raises(cl.NotSubset):
        cl.pushforward(mu, cl.siteset([0, 5]))


# -- expectation and inner product ---------------------------------------

def test_expectation_examples(half, mu_half):
    sites = cl.siteset([0, 1])
    fx = cl.site_occupation(sites, 2, 0)
    assert cl.expectation(fx, mu_half) == F(1, 2)
    fxy = fx * cl.site_occupation(sites, 2, 1)
    assert cl.inner(fxy, fxy, mu_half) == F(1, 4)
    ones = cl.fn_constant(sites, 2, F(1))
    assert cl.inner(fxy, ones, mu_half) == cl.expectation(fxy, mu_half)


def three_state_operands():
    """A three-state table and differential on sites {0, 1}."""
    sites = cl.siteset([0, 1])
    f = cl.FnTable(sites, 3, tuple(F(k) for k in range(9)))
    locale = cl.build_locale([0, 1], [(0, 1), (1, 0)])
    return f, cl.differential(f, cl.exclusion_interaction(3), locale)


@pytest.mark.parametrize("call", [
    lambda f, form, mu: cl.expectation(f, mu),
    lambda f, form, mu: cl.inner(f, f, mu),
    lambda f, form, mu: cl.l2_norm(f, mu),
    lambda f, form, mu: cl.form_l2_norm(form, mu),
    lambda f, form, mu: cl.conditional_expectation(f, cl.siteset([0]), mu),
], ids=["expectation", "inner", "l2_norm", "form_l2_norm",
        "conditional_expectation"])
def test_window_measure_on_other_states_is_a_mismatch(call):
    # a uniform two-state measure has 4 weights for the table's 9 values
    f, form = three_state_operands()
    mu = cl.window_measure_from_raw(f.sites, 2, [1] * 4)
    with pytest.raises(cl.SiteSetMismatch,
                       match="^measure and function state counts differ$"):
        call(f, form, mu)


# -- conditional expectation -----------------------------------------------

def test_conditional_expectation_worked_example(mu_half):
    sites = cl.siteset([0, 1])
    fxy = cl.site_occupation(sites, 2, 0) * cl.site_occupation(sites, 2, 1)
    projected = cl.conditional_expectation(fxy, cl.siteset([0]), mu_half)
    assert projected.values == (F(0), F(1, 2))


def test_conditional_expectation_fixes_local(mu_half):
    rng = random.Random(3)
    f = rand_table(rng, cl.siteset([0, 1]))
    assert cl.conditional_expectation(f, cl.siteset([0, 1]), mu_half) is f


def test_conditional_expectation_empty_window(mu_half):
    sites = cl.siteset([0, 1])
    f = cl.site_occupation(sites, 2, 0)
    projected = cl.conditional_expectation(f, cl.siteset([]), mu_half)
    assert projected.values == (cl.expectation(f, mu_half),)


def test_projection_characterization(mu_half):
    # <pi f, g> = <f, g> for every g on the smaller window
    rng = random.Random(5)
    big, small = cl.siteset([0, 1, 2]), cl.siteset([0, 2])
    for _ in range(20):
        f = rand_table(rng, big)
        g = rand_table(rng, small)
        lhs = cl.inner(cl.conditional_expectation(f, small, mu_half), g, mu_half)
        rhs = cl.inner(f, g.embed(big), mu_half)
        assert lhs == rhs


def test_tower_property_exact(mu_half):
    rng = random.Random(9)
    big = cl.siteset([0, 1, 2, 3])
    mid = cl.siteset([0, 1, 3])
    small = cl.siteset([1, 3])
    for _ in range(20):
        f = rand_table(rng, big)
        once = cl.conditional_expectation(f, small, mu_half)
        twice = cl.conditional_expectation(
            cl.conditional_expectation(f, mid, mu_half), small, mu_half)
        assert once.equals(twice)


def test_tower_property_window_measure(exclusion):
    rng = random.Random(13)
    path3, sites, mu = correlated_measure(exclusion)
    mid, small = cl.siteset([-1, 0]), cl.siteset([-1])
    for _ in range(20):
        f = rand_table(rng, sites)
        once = cl.conditional_expectation(f, small, mu)
        mid_f = cl.conditional_expectation(f, mid, mu)
        twice = cl.conditional_expectation(mid_f.embed(sites), small, mu)
        assert once.equals(twice)


def test_orthogonal_projection(mu_half):
    rng = random.Random(17)
    big, small = cl.siteset([0, 1, 2]), cl.siteset([0, 1])
    for _ in range(20):
        f, g = rand_table(rng, big), rand_table(rng, big)
        pf = cl.conditional_expectation(f, small, mu_half).embed(big)
        pg = cl.conditional_expectation(g, small, mu_half).embed(big)
        assert cl.inner(pf, g, mu_half) == cl.inner(f, pg, mu_half)
        again = cl.conditional_expectation(pf, small, mu_half).embed(big)
        assert again.equals(pf)


def test_intersection_property_product(mu_half):
    rng = random.Random(19)
    big = cl.siteset([0, 1, 2, 3])
    a, b = cl.siteset([0, 1, 2]), cl.siteset([1, 2, 3])
    meet = a.intersection(b)
    for _ in range(20):
        f = rand_table(rng, big)
        via_b = cl.conditional_expectation(f, b, mu_half).embed(big)
        lhs = cl.conditional_expectation(via_b, a, mu_half)
        rhs = cl.conditional_expectation(f, meet, mu_half).embed(a)
        assert lhs.equals(rhs)


def test_intersection_property_fails_correlated(exclusion):
    # negative test: the 2^{bc} measure correlates sites 0 and 1, so
    # projections onto windows split across that pair do not compose
    # through the intersection
    path3, sites, mu = correlated_measure(exclusion)
    a, b = cl.siteset([-1, 0]), cl.siteset([-1, 1])
    meet = a.intersection(b)
    rng = random.Random(23)
    broken = False
    for _ in range(20):
        f = rand_table(rng, sites)
        via_b = cl.conditional_expectation(f, b, mu).embed(sites)
        lhs = cl.conditional_expectation(via_b, a, mu)
        rhs = cl.conditional_expectation(f, meet, mu).embed(a)
        if not lhs.equals(rhs):
            broken = True
            break
    assert broken


def test_duality_pairing(mu_half):
    # pairing a chain element with a local function is window independent
    rng = random.Random(29)
    big = cl.siteset([0, 1, 2])
    small = cl.siteset([0, 1])
    g = rand_table(rng, small)
    for _ in range(10):
        f = rand_table(rng, big)
        chain = cl.build_chain(f, [small, big], cl.ProductMeasure(
            cl.bernoulli(F(1, 2))))
        lhs = cl.inner(chain.tables[1], g.embed(big), mu_half)
        rhs = cl.inner(chain.tables[0], g, mu_half)
        assert lhs == rhs


# -- window measures against per-configuration loops --------------------------

def subset(sites, mask):
    return cl.siteset(s for k, s in enumerate(sites) if mask >> k & 1)


@st.composite
def window_cases(draw):
    """(window measure, two tables on a subset of its sites, a subset of
    the tables' sites): 2 or 3 states, 1 to 4 sites that need not be
    contiguous, positive int raw weights."""
    n = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(1, 4))
    sites = cl.siteset(draw(st.lists(st.integers(-5, 6), unique=True,
                                     min_size=k, max_size=k)))
    raw = draw(st.lists(st.integers(1, 9), min_size=n ** k,
                        max_size=n ** k))
    mu = cl.window_measure_from_raw(sites, n, raw)
    domain = subset(sites, draw(st.integers(0, 2 ** k - 1)))
    sub = subset(domain, draw(st.integers(0, 2 ** len(domain) - 1)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return mu, rand_table(rng, domain, n), rand_table(rng, domain, n), sub


def big_window_case():
    """Three states on four sites with gaps; tables on three of them,
    projected onto the outer two."""
    rng = random.Random(11)
    sites = cl.siteset([-4, -1, 2, 5])
    mu = cl.window_measure_from_raw(sites, 3, [rng.randint(1, 9)
                                               for _ in range(3 ** 4)])
    f, g = (rand_table(rng, cl.siteset([-4, 2, 5]), 3) for _ in range(2))
    return mu, f, g, cl.siteset([-4, 5])


def loop_marginal(mu, sub):
    """mu's weight of every configuration on ``sub``, added up one
    configuration of mu at a time."""
    space, sub_space = mu.space, cl.ConfigSpace(sub, mu.n_states)
    out = [F(0)] * sub_space.size
    for idx, w in enumerate(mu.weights):
        a = space.decode(idx)
        out[sub_space.encode([a[mu.sites.position(s)] for s in sub])] += w
    return out


def loop_projection(f, sub, weights):
    """E[f | eta_sub] from f's weights: per fiber, sum(f w) / sum(w)."""
    sub_space = cl.ConfigSpace(sub, f.n_states)
    fw, w = [F(0)] * sub_space.size, [F(0)] * sub_space.size
    for idx, (v, x) in enumerate(zip(f.values, weights)):
        a = f.space.decode(idx)
        j = sub_space.encode([a[f.sites.position(s)] for s in sub])
        fw[j] += v * x
        w[j] += x
    return tuple(a / b for a, b in zip(fw, w))


@given(window_cases())
@example(big_window_case())
def test_window_measure_matches_loops(case):
    mu, f, g, sub = case
    weights = loop_marginal(mu, f.sites)
    assert list(cl.pushforward(mu, f.sites).weights) == weights
    assert list(cl.materialize(mu, f.sites).weights) == weights
    assert cl.expectation(f, mu) == sum(v * w for v, w in
                                        zip(f.values, weights))
    assert cl.inner(f, g, mu) == sum(a * b * w for a, b, w in
                                     zip(f.values, g.values, weights))
    projected = cl.conditional_expectation(f, sub, mu)
    assert projected.sites == sub
    assert projected.values == loop_projection(f, sub, weights)


@given(window_cases(), st.lists(st.integers(1, 9), min_size=3, max_size=3))
@example(big_window_case(), [2, 3, 4])
def test_materialized_product_measure_matches_the_product_path(case, raw):
    mu, f, g, sub = case
    raw = raw[:mu.n_states]
    nu, other = (cl.state_measure([F(r, sum(raw)) for r in weights])
                 for weights in (raw, raw[::-1]))
    prod = cl.product_measure(nu, {mu.sites.sites[0]: other})
    win = cl.materialize(prod, mu.sites)
    assert cl.expectation(f, win) == cl.expectation(f, prod)
    assert cl.inner(f, g, win) == cl.inner(f, g, prod)
    assert (cl.conditional_expectation(f, sub, win)
            == cl.conditional_expectation(f, sub, prod))


# -- ordinary measures --------------------------------------------------------

def test_product_measures_are_ordinary(exclusion, half, path3):
    report = cl.is_ordinary(cl.siteset([-1, 0]), cl.siteset(path3.sites),
                            cl.ProductMeasure(half), exclusion, path3)
    assert report.ok


def test_correlated_measure_not_ordinary(exclusion):
    path3, sites, mu = correlated_measure(exclusion)
    report = cl.is_ordinary(cl.siteset([-1, 0]), sites, mu, exclusion, path3)
    assert not report.ok
    witness = [v for v in report.violations
               if v.sup_assignment == (1, 0, 1) and v.edge == (-1, 0)]
    assert witness
    # unnormalized identity reads 3*1 != 2*2; both sides are over 10*10
    assert witness[0].lhs == F(3, 100)
    assert witness[0].rhs == F(4, 100)


def test_is_ordinary_honours_its_state_cap(exclusion):
    """The check of a window measure enumerates the larger window: over the
    state cap it is SpaceTooLarge, called directly or from project_form."""
    path3, sites, mu = correlated_measure(exclusion)   # 8 configurations
    sub = cl.siteset([-1, 0])
    with pytest.raises(cl.SpaceTooLarge) as info:
        cl.is_ordinary(sub, sites, mu, exclusion, path3, state_cap=1)
    assert info.value.details == {"size": 8, "cap": 1}
    assert not cl.is_ordinary(sub, sites, mu, exclusion, path3,
                              state_cap=8).ok
    form = cl.differential(rand_table(random.Random(5), sites), exclusion,
                           path3)
    with pytest.raises(cl.SpaceTooLarge):
        cl.project_form(form, sub, mu, path3, state_cap=1)


def test_identity_interaction_vacuously_ordinary(exclusion):
    path3, sites, mu = correlated_measure(exclusion)
    report = cl.is_ordinary(cl.siteset([-1, 0]), sites, mu,
                            cl.identity_interaction(2), path3)
    assert report.ok
