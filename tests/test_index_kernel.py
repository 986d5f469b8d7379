"""Property tests of the mixed-radix index kernel of ``colocal.statespace``
(``kron``, ``digit_slices``, ``interleave``, ``spread``) and of the tables
built through it, against oracles that decode every configuration.

The oracles are the per-configuration loops the kernel replaced:
restriction by decoding each configuration and encoding its sub-assignment,
``FnTable.relabel`` and ``iota_restrict`` by moving every decoded
assignment, and the window sum of a conserved quantity by summing each
decoded assignment.  Cases are parts of a d=1 path and of the 3x3 box with
2 and 3 states.  A guard test then checks that the success paths built on
the kernel never decode a configuration at all.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

import colocal as cl
from colocal.functions import ConservedQuantity
from colocal.statespace import (
    ConfigSpace,
    digit_slices,
    interleave,
    kron,
    spread,
)

PATH = cl.lattice_window(1, radius=4)
BOX = cl.lattice_window(2, radius=1)


@st.composite
def site_cases(draw, max_two=7, max_three=5):
    """(sites, n): part of a d=1 path or of the 3x3 box, 2 or 3 states."""
    n = draw(st.sampled_from([2, 3]))
    window = draw(st.sampled_from([PATH, BOX]))
    sites = cl.siteset(draw(st.lists(
        st.sampled_from(window.sites), unique=True,
        max_size=max_two if n == 2 else max_three)))
    return sites, n


@st.composite
def table_cases(draw):
    """A table with random exact values on a ``site_cases`` site set."""
    sites, n = draw(site_cases())
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return cl.FnTable(sites, n, tuple(F(rng.randint(-8, 8), rng.randint(1, 6))
                                      for _ in range(n ** len(sites))))


def digit_slices_oracle(values, space, k):
    """Slice a: the entries whose decoded assignment has state a at
    position k, in index order."""
    return [[v for i, v in enumerate(values) if space.decode(i)[k] == a]
            for a in range(space.n_states)]


@given(site_cases(), st.integers(0, 2 ** 32))
def test_digit_slices_and_interleave_round_trip(case, seed):
    sites, n = case
    space = ConfigSpace(sites, n)
    rng = random.Random(seed)
    values = [rng.randint(-9, 9) for _ in range(space.size)]
    for k in range(len(sites)):
        slices = digit_slices(values, n, n ** k)
        assert slices == digit_slices_oracle(values, space, k)
        assert interleave(slices, n ** k) == values


@pytest.mark.parametrize("n, n_sites", [(2, 13), (3, 8)])
def test_digit_slices_on_large_tables(n, n_sites):
    # large enough that both ways of copying a digit run at long strides
    values = list(range(n ** n_sites))
    for k in range(n_sites):
        stride = n ** k
        slices = digit_slices(values, n, stride)
        assert slices == [[i for i in values if i // stride % n == a]
                          for a in range(n)]
        assert interleave(slices, stride) == values


def restriction_oracle(space, sub):
    """Entry i: the index in S^sub of the restriction of configuration i."""
    sub_space = ConfigSpace(sub, space.n_states)
    return [sub_space.encode(tuple(space.decode(i)[space.sites.position(s)]
                                   for s in sub))
            for i in range(space.size)]


@st.composite
def spread_cases(draw):
    """(sites, n, sub): a ``site_cases`` site set and a random part of it."""
    sites, n = draw(site_cases())
    sub = cl.siteset(draw(st.lists(st.sampled_from(sites.sites), unique=True))
                     if len(sites) else [])
    return sites, n, sub


LONG = cl.siteset(range(13))


@given(spread_cases())
# long repeats: the span at the top (2^11 repeats of each entry below it)
# and at the bottom (2^11 repeats of the whole list above it), no span,
# 128 repeats of each entry below a span with a site left out, and 128
# below a span of 128 entries (one extended slice per repeat)
@example((LONG, 2, cl.siteset([11, 12])))
@example((LONG, 2, cl.siteset([0, 1])))
@example((LONG, 2, cl.siteset([])))
@example((LONG, 2, cl.siteset([7, 9])))
@example((cl.siteset(range(14)), 2, cl.siteset(range(7, 14))))
@example((cl.siteset(range(8)), 3, cl.siteset([5, 7])))
def test_spread_of_range_is_the_restriction(case):
    sites, n, sub = case
    space = ConfigSpace(sites, n)
    index = restriction_oracle(space, sub)
    assert spread(range(n ** len(sub)), sub, space) == index
    values = [F(j, 7) for j in range(n ** len(sub))]
    assert spread(values, sub, space) == [values[j] for j in index]


@given(site_cases(), st.integers(0, 2 ** 32))
def test_kron_matches_decoded_digits(case, seed):
    sites, n = case
    space = ConfigSpace(sites, n)
    rng = random.Random(seed)
    vectors = [[rng.randint(-9, 9) for _ in range(n)] for _ in sites]
    assert kron(vectors) == [
        sum(vectors[k][a] for k, a in enumerate(space.decode(i)))
        for i in range(space.size)]
    assert list(space.assignments()) == [space.decode(i)
                                         for i in range(space.size)]


def relabel_oracle(f, sigma):
    new_sites = sigma.map_siteset(f.sites)
    new_space = ConfigSpace(new_sites, f.n_states)
    values = [None] * new_space.size
    for idx in range(f.space.size):
        assignment = f.space.decode(idx)
        moved = [0] * len(assignment)
        for k, s in enumerate(f.sites):
            moved[new_sites.position(sigma.apply_or_raise(s))] = assignment[k]
        values[new_space.encode(tuple(moved))] = f.values[idx]
    return cl.FnTable(new_sites, f.n_states, tuple(values))


@given(table_cases(), st.data())
def test_relabel_matches_per_configuration_loop(f, data):
    sites = list(f.sites)
    images = data.draw(st.permutations(sites))
    if len(sites) > 1 and images == sites:
        images = images[1:] + images[:1]   # order is not preserved
    sigma = cl.permutation_map(dict(zip(sites, images)))
    moved = f.relabel(sigma)
    assert moved == relabel_oracle(f, sigma)
    assert moved.values == relabel_oracle(f, sigma).values


def iota_restrict_oracle(f, sub, base):
    sub_space = ConfigSpace(sub, f.n_states)
    values = []
    for idx in range(sub_space.size):
        assignment = sub_space.decode(idx)
        full = tuple(assignment[sub.position(s)] if s in sub else base
                     for s in f.sites)
        values.append(f.value_at(full))
    return cl.FnTable(sub, f.n_states, tuple(values))


@given(table_cases(), st.data())
def test_iota_restrict_matches_per_configuration_loop(f, data):
    base = data.draw(st.integers(0, f.n_states - 1))
    interaction = cl.make_interaction(tuple(range(f.n_states)), base, {})
    sub = cl.siteset(data.draw(st.lists(st.sampled_from(f.sites.sites),
                                        unique=True))
                     if len(f.sites) else [])
    out = cl.iota_restrict(f, sub, interaction)
    assert out.values == iota_restrict_oracle(f, sub, base).values


@given(site_cases(), st.integers(0, 2 ** 32))
def test_conserved_colocal_is_the_decoded_sum(case, seed):
    sites, n = case
    rng = random.Random(seed)
    xi = ConservedQuantity(tuple(F(rng.randint(-8, 8), rng.randint(1, 6))
                                 for _ in range(n)))
    space = ConfigSpace(sites, n)
    table = cl.conserved_colocal(xi, sites)
    assert table.values == tuple(xi.total(space.decode(i))
                                 for i in range(space.size))


# ---------------------------------------------------------------------------
# guard: success paths never decode a configuration
# ---------------------------------------------------------------------------

def _decompose():
    nu = cl.bernoulli(F(2, 5))
    exclusion = cl.exclusion_interaction()
    basis = cl.conserved_quantities(exclusion, nu)
    rho = cl.cocycle_from_coefficients(basis, [[F(3, 7)]])
    spec = cl.invariant_form_from_cocycle(rho, exclusion, 1)
    out = cl.decompose_invariant_form(spec, cl.lattice_window(1, 3), nu)
    assert out.mode == "window" and out.cocycle == rho


def _table(n_sites=4, n=3):
    rng = random.Random(5)
    return cl.FnTable(cl.siteset(range(n_sites)), n,
                      tuple(F(rng.randint(-8, 8), rng.randint(1, 6))
                            for _ in range(n ** n_sites)))


def _expand():
    nu = cl.state_measure([F(1, 2), F(1, 3), F(1, 6)])
    assert cl.expand_martingale(_table(), nu).reconstruct() == _table()


def _conserved():
    xi = cl.conserved_quantities(cl.exclusion_interaction(3),
                                 cl.uniform_states(3))[0]
    table = cl.conserved_colocal(xi, cl.siteset(range(6)))
    assert len(table.values) == 3 ** 6


def _check_iq():
    report = cl.check_iq(cl.exclusion_interaction(3), cl.uniform_states(3),
                         [PATH, BOX])
    assert report.ok


def _kernel_basis():
    basis = cl.kernel_basis(cl.siteset(BOX.sites), cl.exclusion_interaction(),
                            BOX, cl.bernoulli(F(1, 3)))
    assert basis.n_components == 10


def _relabel():
    sigma = cl.permutation_map({0: 2, 1: 0, 2: 3, 3: 1})
    assert _table().relabel(sigma).relabel(sigma.inverse()) == _table()


def _iota_restrict():
    out = cl.iota_restrict(_table(), cl.siteset([1, 3]),
                           cl.exclusion_interaction(3))
    assert out.sites == cl.siteset([1, 3])


def _fn_from_callable():
    f = cl.fn_from_callable(cl.siteset(range(3)), 3, lambda a: sum(a))
    assert f.values[-1] == 6


@pytest.mark.parametrize("run", [
    _decompose, _expand, _conserved, _check_iq, _kernel_basis, _relabel,
    _iota_restrict, _fn_from_callable], ids=lambda run: run.__name__[1:])
def test_success_paths_do_not_decode(monkeypatch, run):
    def decode(space, index):
        raise AssertionError("ConfigSpace.decode called on a success path")
    monkeypatch.setattr(ConfigSpace, "decode", decode)
    run()
