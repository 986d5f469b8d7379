import random
from fractions import Fraction as F

from hypothesis import given, strategies as st

import colocal as cl
from colocal import l2
from conftest import rand_table


def test_l2_norm_examples(mu_half):
    sites = cl.siteset([0, 1])
    fx = cl.site_occupation(sites, 2, 0)
    assert cl.l2_norm(fx, mu_half).squared == F(1, 2)
    fxy = fx * cl.site_occupation(sites, 2, 1)
    assert cl.l2_norm(fxy, mu_half).squared == F(1, 4)
    zero = cl.fn_constant(sites, 2, F(0))
    norm = cl.l2_norm(zero, mu_half)
    assert norm.squared == 0 and norm.root == 0.0


def test_chain_report_worked_example(mu_half):
    sites = cl.siteset([0, 1])
    f = cl.site_occupation(sites, 2, 0) * cl.site_occupation(sites, 2, 1)
    report = cl.martingale_chain_report(f, [cl.siteset([0]), sites], mu_half)
    assert report.norms_sq == (F(1, 8), F(1, 4))
    assert report.gaps_sq == (F(1, 8),)
    assert report.sup_sq == F(1, 4)
    assert report.monotone and report.pythagoras


def test_chain_report_local_function_stabilizes(mu_half):
    sites = cl.siteset([0, 1, 2])
    pair = cl.siteset([0, 1])
    f = (cl.site_occupation(pair, 2, 0) *
         cl.site_occupation(pair, 2, 1)).embed(sites)
    report = cl.martingale_chain_report(
        f, [cl.siteset([0]), pair, sites], mu_half)
    # once the window covers the support the gaps vanish exactly
    assert report.gaps_sq[-1] == 0
    assert report.norms_sq[1] == report.norms_sq[2]


def test_chain_report_constant(mu_half):
    sites = cl.siteset([0, 1])
    c = cl.fn_constant(sites, 2, F(3))
    report = cl.martingale_chain_report(
        c, [cl.siteset([]), cl.siteset([0]), sites], mu_half)
    assert set(report.norms_sq) == {F(9)}
    assert set(report.gaps_sq) == {F(0)}


def test_contraction_exact(mu_half):
    rng = random.Random(73)
    big = cl.siteset([0, 1, 2])
    for _ in range(30):
        f = rand_table(rng, big)
        full = cl.l2_norm(f, mu_half).squared
        for sub in [cl.siteset([]), cl.siteset([0]), cl.siteset([0, 2])]:
            projected = cl.conditional_expectation(f, sub, mu_half)
            assert cl.l2_norm(projected, mu_half).squared <= full


def test_pythagoras_exact_random_chains(mu_half):
    rng = random.Random(79)
    windows = [cl.siteset([1]), cl.siteset([0, 1]), cl.siteset([0, 1, 3]),
               cl.siteset([0, 1, 2, 3])]
    for _ in range(20):
        f = rand_table(rng, windows[-1])
        report = cl.martingale_chain_report(f, windows, mu_half)
        assert report.pythagoras and report.monotone


def test_gelfand_structural(mu_half):
    # local functions give chains with finite sup norm; built chains satisfy
    # the compatibility that makes them projective-family truncations
    rng = random.Random(83)
    windows = [cl.siteset([0]), cl.siteset([0, 1]), cl.siteset([0, 1, 2])]
    f = rand_table(rng, windows[-1])
    chain = cl.build_chain(f, windows, mu_half)
    assert chain.verify_compatibility()
    report = cl.martingale_chain_report(f, windows, mu_half)
    assert report.sup_sq == report.norms_sq[-1]


def test_report_json_round(mu_half):
    sites = cl.siteset([0, 1])
    f = cl.site_occupation(sites, 2, 0)
    report = cl.martingale_chain_report(f, [cl.siteset([0]), sites], mu_half)
    payload = report.to_json_dict()
    assert payload["norms_sq"] == ["1/2", "1/2"]
    assert payload["monotone"] and payload["pythagoras"]


def test_form_norm_of_density_gradient(mu_half):
    exclusion = cl.exclusion_interaction()
    window = cl.lattice_window(1, radius=2)
    basis = cl.conserved_quantities(exclusion, cl.bernoulli(F(1, 2)))
    rho = cl.cocycle_from_coefficients(basis, [[F(1)]])
    omega = cl.omega_from_cocycle(rho, window, exclusion)
    # every directed edge table is +-(eta_n - eta_{n+1}): squared norm 1/2
    norm = cl.form_l2_norm(omega, mu_half)
    assert norm.squared == F(1, 2)


@given(st.sampled_from([2, 3]), st.integers(1, 2), st.booleans(),
       st.integers(0, 2 ** 32))
def test_form_l2_norm_is_the_mean_of_per_edge_inner_products(n, radius,
                                                             window, seed):
    """The window's weights are read once per call; the norm is still the
    mean over directed edges of <omega_e, omega_e>_mu."""
    rng = random.Random(seed)
    locale = cl.lattice_window(1, radius=radius if n == 2 else 1)
    sites = cl.siteset(locale.sites)
    interaction = cl.exclusion_interaction(n)
    form = cl.differential(rand_table(rng, sites, n), interaction, locale)
    if window:
        mu = cl.window_measure_from_raw(sites, n, [
            rng.randint(1, 9) for _ in range(n ** len(sites))])
    else:
        raw = [rng.randint(1, 9) for _ in range(n)]
        mu = cl.ProductMeasure(cl.state_measure([F(r, sum(raw))
                                                 for r in raw]))
    tables = [form.dense_table(e) for pair in form.edges
              for e in (pair, (pair[1], pair[0]))]
    expected = sum((cl.inner(t, t, mu) for t in tables), F(0)) / len(tables)
    assert cl.form_l2_norm(form, mu).squared == expected


def rand_state_measure(rng, n):
    raw = [rng.randint(1, 6) for _ in range(n)]
    return cl.state_measure([F(w, sum(raw)) for w in raw])


@st.composite
def d1_chains(draw):
    """(f, windows, mu): a table on up to 5 sites of a d=1 path (2 states)
    or 4 (3 states), a nested chain of intervals ending at its domain
    (consecutive windows may be equal, the first may be empty), and a
    product measure (homogeneous or not) or a window measure on the domain
    or on one site more."""
    n = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(1, 5 if n == 2 else 4))
    lo = draw(st.integers(0, k - 1))
    cuts = sorted(draw(st.lists(st.integers(0, k), max_size=4)))
    windows = [cl.siteset(range(max(0, lo - c // 2), min(k, lo + c - c // 2)))
               for c in cuts] + [cl.siteset(range(k))]
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    f = rand_table(rng, windows[-1], n)
    kind = draw(st.sampled_from(["product", "per-site", "window"]))
    if kind == "product":
        mu = cl.ProductMeasure(rand_state_measure(rng, n))
    elif kind == "per-site":
        mu = cl.product_measure(rand_state_measure(rng, n),
                                {s: rand_state_measure(rng, n)
                                 for s in range(k) if rng.random() < 0.5})
    else:
        sites = cl.siteset(range(k + draw(st.integers(0, 1))))
        mu = cl.window_measure_from_raw(
            sites, n, [rng.randint(1, 9) for _ in range(n ** len(sites))])
    return f, windows, mu


@given(d1_chains())
def test_chain_report_equals_the_table_construction(case):
    """Oracle: norms and gaps from FnTable algebra and ``inner`` under the
    measure itself, table by table."""
    f, windows, mu = case
    tables = cl.build_chain(f, windows, mu).tables
    report = cl.martingale_chain_report(f, windows, mu)
    assert report.norms_sq == tuple(cl.inner(t, t, mu) for t in tables)
    diffs = [big - small.embed(w)
             for small, big, w in zip(tables, tables[1:], windows[1:])]
    assert report.gaps_sq == tuple(cl.inner(d, d, mu) for d in diffs)
    assert report.pythagoras and report.monotone


def test_pythagoras_fails_on_a_chain_that_is_not_compatible(mu_half,
                                                           monkeypatch):
    """The gaps are read off the tables, not off the norms: a chain whose
    smallest table is shifted by a constant is not compatible, and the
    report must say that ||f_1||^2 = ||f_0||^2 + ||f_1 - f_0||^2 fails."""
    sites = cl.siteset([0, 1])
    f = cl.site_occupation(sites, 2, 0) * cl.site_occupation(sites, 2, 1)
    windows = [cl.siteset([0]), sites]
    build_chain = l2.build_chain

    def perturbed(*args):
        chain = build_chain(*args)
        return cl.CoLocalChain(chain.windows,
                               (chain.tables[0].shift(F(1)),
                                *chain.tables[1:]), chain.mu)
    monkeypatch.setattr(l2, "build_chain", perturbed)
    report = cl.martingale_chain_report(f, windows, mu_half)
    # f_0 = eta_0 / 2 + 1: ||f_0||^2 = 13/8, ||f - f_0||^2 = 9/8, ||f||^2 = 1/4
    assert report.norms_sq == (F(13, 8), F(1, 4))
    assert report.gaps_sq == (F(9, 8),)
    assert not report.pythagoras and not report.monotone
