import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import colocal as cl
from conftest import rand_table


# -- restriction by base extension ------------------------------------------

def test_iota_restrict_kills_offwindow_factor(exclusion):
    sites = cl.siteset([0, 1])
    fxy = cl.site_occupation(sites, 2, 0) * cl.site_occupation(sites, 2, 1)
    out = cl.iota_restrict(fxy, cl.siteset([0]), exclusion)
    assert out.values == (F(0), F(0))


def test_iota_restrict_identity_and_constant(exclusion):
    sites = cl.siteset([0, 1])
    f = cl.site_occupation(sites, 2, 0)
    assert cl.iota_restrict(f, sites, exclusion) is f
    c = cl.fn_constant(sites, 2, F(7, 3))
    assert cl.iota_restrict(c, cl.siteset([1]), exclusion).values == (F(7, 3),) * 2


# -- chains -------------------------------------------------------------------

def test_build_chain_local_function(mu_half):
    sites = cl.siteset([0, 1])
    f = cl.site_occupation(sites, 2, 0)
    chain = cl.build_chain(f, [cl.siteset([0]), sites], mu_half)
    assert chain.tables[0].values == (F(0), F(1))
    assert chain.verify_compatibility()


def test_build_chain_worked_example(mu_half):
    sites = cl.siteset([0, 1])
    f = cl.site_occupation(sites, 2, 0) * cl.site_occupation(sites, 2, 1)
    chain = cl.build_chain(f, [cl.siteset([0]), sites], mu_half)
    assert chain.tables[0].values == (F(0), F(1, 2))
    assert chain.tables[1] is f


def test_build_chain_constant(mu_half):
    sites = cl.siteset([0, 1, 2])
    c = cl.fn_constant(sites, 2, F(1))
    chain = cl.build_chain(c, [cl.siteset([]), cl.siteset([1]), sites], mu_half)
    assert all(set(t.values) == {F(1)} for t in chain.tables)


def test_chain_compatibility_random(mu_half):
    rng = random.Random(31)
    windows = [cl.siteset([1]), cl.siteset([0, 1]), cl.siteset([0, 1, 2])]
    for _ in range(10):
        f = rand_table(rng, windows[-1])
        assert cl.build_chain(f, windows, mu_half).verify_compatibility()


PATH = cl.lattice_window(1, radius=3)
BOX = cl.lattice_window(2, radius=1)


def rand_state_measure(rng, n):
    raw = [rng.randint(1, 6) for _ in range(n)]
    return cl.state_measure([F(w, sum(raw)) for w in raw])


@st.composite
def chain_cases(draw):
    """(f, windows, mu): a table on part of a d=1 path or of the 3x3 box,
    2 or 3 states, a nested chain ending at its domain (consecutive
    windows may be equal), and a product measure (homogeneous or not) or
    a window measure on the domain or on one site more."""
    n = draw(st.sampled_from([2, 3]))
    window = draw(st.sampled_from([PATH, BOX]))
    order = draw(st.permutations(window.sites))
    k = draw(st.integers(0, 5 if n == 2 else 4))
    cuts = sorted(draw(st.lists(st.integers(0, k), max_size=4)))
    windows = [cl.siteset(order[:c]) for c in cuts] + [cl.siteset(order[:k])]
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    f = rand_table(rng, windows[-1], n)
    kind = draw(st.sampled_from(["state", "product", "window"]))
    if kind == "state":
        mu = rand_state_measure(rng, n)
    elif kind == "product":
        mu = cl.product_measure(rand_state_measure(rng, n),
                                {s: rand_state_measure(rng, n)
                                 for s in order[:k] if rng.random() < 0.5})
    else:
        sites = cl.siteset(order[:k + draw(st.integers(0, 1))])
        mu = cl.window_measure_from_raw(
            sites, n, [rng.randint(1, 9) for _ in range(n ** len(sites))])
    return f, windows, mu


@given(chain_cases())
def test_build_chain_equals_projections_of_f(case):
    f, windows, mu = case
    chain = cl.build_chain(f, windows, mu)
    # oracle: every window projected from f itself
    assert chain.tables == tuple(cl.conditional_expectation(f, w, mu)
                                 for w in windows)
    assert chain.tables[-1] is f
    assert chain.verify_compatibility()



# -- expansion ----------------------------------------------------------------

def test_expansion_worked_example(half):
    sites = cl.siteset([0, 1])
    f = cl.site_occupation(sites, 2, 0) * cl.site_occupation(sites, 2, 1)
    expansion = cl.expand_martingale(f, half)
    assert expansion.component(()).values == (F(1, 4),)
    assert expansion.component((0,)).values == (F(-1, 4), F(1, 4))
    assert expansion.component((1,)).values == (F(-1, 4), F(1, 4))
    # (eta_x - 1/2)(eta_y - 1/2), index order (00, 10, 01, 11)
    assert expansion.component((0, 1)).values == (F(1, 4), F(-1, 4),
                                                  F(-1, 4), F(1, 4))
    # the pair component is killed by the projection onto either singleton
    mu = cl.ProductMeasure(half)
    assert cl.conditional_expectation(expansion.component((0, 1)),
                                      cl.siteset([0]), mu).is_zero()


def test_expansion_of_conserved_sum_is_singletons(exclusion, half):
    xi = cl.conserved_quantities(exclusion, half)[0]
    sites = cl.siteset([0, 1, 2])
    f = cl.conserved_colocal(xi, sites)
    expansion = cl.expand_martingale(f, half)
    for sub, table in expansion.components.items():
        if len(sub) == 1:
            assert table.values == xi.xi
        else:
            assert table.is_zero()


def test_expansion_of_constant(half):
    sites = cl.siteset([0, 1])
    c = cl.fn_constant(sites, 2, F(5, 7))
    expansion = cl.expand_martingale(c, half)
    assert expansion.component(()).values == (F(5, 7),)
    assert all(t.is_zero() for sub, t in expansion.components.items() if sub)


def test_expansion_reconstruction_and_orthogonality(half):
    rng = random.Random(37)
    mu = cl.ProductMeasure(half)
    base = [0, 1, 2, 3]
    for trial in range(25):
        k = 1 + trial % 4
        sites = cl.siteset(base[:k])
        f = rand_table(rng, sites)
        expansion = cl.expand_martingale(f, half)
        assert expansion.reconstruct().equals(f)
        for target in expansion.components:
            for sub, table in expansion.components.items():
                if set(sub) <= set(target):
                    continue
                projected = cl.conditional_expectation(
                    table.embed(sites), cl.siteset(target), mu)
                assert projected.is_zero()


def test_expansion_uniqueness_perturbation(half):
    sites = cl.siteset([0, 1])
    f = cl.site_occupation(sites, 2, 0) * cl.site_occupation(sites, 2, 1)
    expansion = cl.expand_martingale(f, half)
    mu = cl.ProductMeasure(half)
    bump = cl.fn_constant(cl.siteset([0]), 2, F(0)).shift(F(1, 3))
    perturbed = expansion.component((0,)) + bump
    # either the sum no longer reconstructs f, or a projection no longer kills
    total = cl.fn_constant(sites, 2, F(0))
    for sub, table in expansion.components.items():
        table = perturbed if sub == (0,) else table
        total = total + table.embed(sites)
    still_sums = total.equals(f)
    still_killed = cl.conditional_expectation(
        perturbed.embed(sites), cl.siteset([]), mu).is_zero()
    assert not (still_sums and still_killed)


def test_expansion_rejects_window_measure(exclusion, half):
    sites = cl.siteset([0, 1])
    f = cl.site_occupation(sites, 2, 0)
    win = cl.ProductMeasure(half).materialize(sites)
    with pytest.raises(cl.NonProductMeasure):
        cl.expand_martingale(f, win)


def test_expansion_rejects_a_measure_on_other_states(exclusion, half):
    sites = cl.siteset([0, 1])
    f = cl.site_occupation(sites, 2, 0)
    thirds = cl.uniform_states(3)
    with pytest.raises(cl.SiteSetMismatch):
        cl.expand_martingale(f, thirds)
    with pytest.raises(cl.SiteSetMismatch):
        cl.expand_martingale(f, cl.state_measure([1]))
    # one per-site factor on three states is enough
    with pytest.raises(cl.SiteSetMismatch):
        cl.expand_martingale(f, cl.product_measure(half, {1: thirds}))


def test_expansion_subset_cap(half):
    sites = cl.siteset(range(5))
    f = cl.fn_constant(sites, 2, F(1))
    with pytest.raises(cl.TooManySubsets):
        cl.expand_martingale(f, half, subset_cap=4)


@pytest.mark.parametrize("cap", ["x", True, 0, 2.5, None])
def test_subset_cap_must_be_a_positive_int(half, cap):
    """A subset cap that is not a positive int is a ValueError, not a raw
    TypeError or a cap that raises TooManySubsets."""
    f = cl.fn_constant(cl.siteset(range(2)), 2, F(1))
    with pytest.raises(ValueError) as info:
        cl.expand_martingale(f, half, subset_cap=cap)
    assert str(info.value) == f"subset_cap must be a positive int, got {cap!r}"


# -- uniform radius -------------------------------------------------------------

def test_uniform_radius_examples(exclusion, half):
    w = cl.lattice_window(1, radius=2)
    xi = cl.conserved_quantities(exclusion, half)[0]
    sites = cl.siteset([-1, 0, 1])
    assert cl.uniform_radius(cl.expand_martingale(
        cl.conserved_colocal(xi, sites), half), w) == 0
    pair = cl.siteset([0, 1])
    fxy = cl.site_occupation(pair, 2, 0) * cl.site_occupation(pair, 2, 1)
    assert cl.uniform_radius(cl.expand_martingale(fxy, half), w) == 1
    c = cl.fn_constant(pair, 2, F(2))
    assert cl.uniform_radius(cl.expand_martingale(c, half), w) == 0


def test_uniform_radius_rejects_sites_outside_the_locale(half):
    sites = cl.siteset([0, 7])
    f = cl.site_occupation(sites, 2, 0) * cl.site_occupation(sites, 2, 7)
    pair = cl.build_locale([0, 1], [(0, 1), (1, 0)])
    with pytest.raises(cl.NotSubset):
        cl.uniform_radius(cl.expand_martingale(f, half), pair)


# -- conserved quantities ---------------------------------------------------------

def test_conserved_exclusion(exclusion, half):
    basis = cl.conserved_quantities(exclusion, half)
    assert len(basis) == 1
    xi = basis[0]
    assert xi.xi == (F(-1, 2), F(1, 2))
    assert xi.xi[1] - xi.xi[0] == 1
    assert half.mean(xi.xi) == 0


def test_conserved_basis_is_solved_once_per_measure(exclusion, half):
    """The interaction keeps one basis per measure; each call hands out
    its own list of it."""
    first = cl.conserved_quantities(exclusion, half)
    first.clear()
    again = cl.conserved_quantities(exclusion, cl.bernoulli(F(1, 2)))
    other = cl.conserved_quantities(exclusion, cl.bernoulli(F(1, 5)))
    assert len(again) == 1 and again[0].xi == (F(-1, 2), F(1, 2))
    assert other[0].xi == (F(-1, 5), F(4, 5))
    assert len(exclusion.conserved_bases) == 2


def test_conserved_rejects_a_measure_on_other_states(exclusion):
    for nu in (cl.state_measure([1]), cl.uniform_states(3)):
        with pytest.raises(cl.SiteSetMismatch):
            cl.conserved_quantities(exclusion, nu)


def test_conserved_killed_by_extra_rule(half):
    inter = cl.make_interaction((0, 1), 0,
                                {(0, 1): (1, 0), (1, 0): (0, 1), (1, 1): (0, 0)})
    assert cl.conserved_quantities(inter, half) == []


def test_conserved_identity_three_states():
    nu = cl.uniform_states(3)
    basis = cl.conserved_quantities(cl.identity_interaction(3), nu)
    assert len(basis) == 2
    for xi in basis:
        assert nu.mean(xi.xi) == 0


def test_conserved_invariants_random_interactions(half):
    # every basis vector satisfies the pair constraints exactly
    inter = cl.make_interaction((0, 1, 2), 0,
                                {(1, 2): (2, 1), (2, 1): (1, 2),
                                 (1, 1): (2, 0), (2, 0): (1, 1)})
    nu = cl.uniform_states(3)
    for xi in cl.conserved_quantities(inter, nu):
        assert nu.mean(xi.xi) == 0
        for (i, j), (i2, j2) in inter.changed_pairs():
            assert xi.xi[i2] + xi.xi[j2] == xi.xi[i] + xi.xi[j]


def test_conserved_colocal_values(exclusion, half):
    xi = cl.conserved_quantities(exclusion, half)[0]
    sites = cl.siteset([0, 1])
    table = cl.conserved_colocal(xi, sites)
    assert table.value_at((1, 0)) == 0
    assert table.value_at((0, 0)) == 2 * xi.xi[0]
    empty = cl.conserved_colocal(xi, cl.siteset([]))
    assert empty.values == (F(0),)


def test_conserved_colocal_over_the_state_cap(exclusion, half):
    """n^N configurations over the state cap is SpaceTooLarge, as at every
    other state-cap breach."""
    xi = cl.conserved_quantities(exclusion, half)[0]
    with pytest.raises(cl.SpaceTooLarge) as info:
        cl.conserved_colocal(xi, cl.siteset(range(3)), state_cap=7)
    assert info.value.details == {"size": 8, "cap": 7}
    assert len(cl.conserved_colocal(xi, cl.siteset(range(3)),
                                    state_cap=8).values) == 8


def test_conserved_colocal_in_kernel(exclusion, half):
    # the window sum of a conserved quantity has zero differential
    w = cl.lattice_window(1, radius=1)
    xi = cl.conserved_quantities(exclusion, half)[0]
    table = cl.conserved_colocal(xi, cl.siteset(w.sites))
    assert cl.differential(table, exclusion, w).is_zero()


# -- irreducible quantification ----------------------------------------------------

def test_iq_exclusion(exclusion, half, single_edge, path3, triangle):
    report = cl.check_iq(exclusion, half, [single_edge, path3, triangle])
    assert report.ok


def test_iq_identity_fails(half, single_edge):
    report = cl.check_iq(cl.identity_interaction(2), half, [single_edge])
    assert not report.ok
    witnesses = report.results[0].witnesses
    assert witnesses
    totals, first, second = witnesses[0]
    assert {first, second} == {(1, 0), (0, 1)}


def test_iq_implies_kernel_constant_on_level_sets(exclusion, half, path3):
    # with IQ, components coincide with conserved-total level sets, so each
    # kernel element is a function of the totals
    sites = cl.siteset(path3.sites)
    basis = cl.conserved_quantities(exclusion, half)
    graph = cl.transition_graph(sites, exclusion, path3)
    labels = graph.component_labels
    totals_of = {}
    for idx in range(graph.space.size):
        totals = tuple(xi.total(graph.space.decode(idx)) for xi in basis)
        totals_of.setdefault(totals, set()).add(labels[idx])
    assert all(len(v) == 1 for v in totals_of.values())


# -- uniform radius and the refuter against per-configuration oracles -----------

@given(st.data())
def test_uniform_radius_matches_site_diameter(data):
    window = data.draw(st.sampled_from([cl.lattice_window(1, 4),
                                        cl.lattice_window(1, sizes=[8]),
                                        cl.lattice_window(2, 2)]))
    subsets = data.draw(st.lists(
        st.lists(st.sampled_from(window.sites), unique=True, min_size=1,
                 max_size=4).map(lambda s: tuple(sorted(s))), max_size=8))
    sites = cl.siteset(window.sites)
    components = {(): cl.fn_constant(cl.siteset([]), 2, F(1))}
    for sub in subsets:
        value = data.draw(st.sampled_from([F(0), F(1, 3)]))
        part = cl.siteset(sub)
        components[sub] = cl.fn_constant(part, 2, value)
    expansion = cl.Expansion(sites, 2, cl.ProductMeasure(cl.bernoulli()),
                             components)
    expected = max((cl.site_diameter(cl.siteset(sub), window)
                    for sub, table in components.items()
                    if sub and not table.is_zero()), default=0)
    assert cl.uniform_radius(expansion, window) == expected


def loop_iq_witnesses(interaction, nu, locale):
    """Oracle: group decoded configurations by their Fraction totals."""
    basis = cl.conserved_quantities(interaction, nu)
    graph = cl.transition_graph(cl.siteset(locale.sites), interaction, locale)
    labels = graph.component_labels
    groups = {}
    for idx in range(graph.space.size):
        totals = tuple(xi.total(graph.space.decode(idx)) for xi in basis)
        groups.setdefault(totals, {}).setdefault(labels[idx], idx)
    witnesses = []
    for totals, per_component in sorted(groups.items()):
        if len(per_component) > 1:
            first, second = sorted(per_component.values())[:2]
            witnesses.append((totals, graph.space.decode(first),
                              graph.space.decode(second)))
    return tuple(witnesses)


@given(st.sampled_from([2, 3]), st.data())
def test_iq_witnesses_match_per_configuration_totals(n, data):
    pairs = [(a, b) for a in range(n) for b in range(n)]
    phi = {}
    for pair in data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                   max_size=3)):
        # reversible rules: a swap of two pairs
        image = data.draw(st.sampled_from(pairs))
        if pair not in phi and image not in phi:
            phi[pair], phi[image] = image, pair
    interaction = cl.make_interaction(tuple(range(n)), 0, phi)
    raw = data.draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    nu = cl.state_measure([F(r, sum(raw)) for r in raw])
    locales = [cl.lattice_window(1, 1 if n == 3 else 2),
               cl.lattice_window(2, 1) if n == 2 else cl.lattice_window(1, 0)]
    report = cl.check_iq(interaction, nu, locales)
    for locale, result in zip(locales, report.results):
        oracle = loop_iq_witnesses(interaction, nu, locale)
        assert result.witnesses == oracle
        assert all(isinstance(t, F) for w in oracle for t in w[0])
