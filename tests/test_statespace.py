import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import colocal as cl
from colocal.statespace import LatticeMeta, guard_space


# -- locales ------------------------------------------------------------

def test_build_locale_minimal():
    loc = cl.build_locale([0, 1], [(0, 1), (1, 0)])
    assert loc.sites == (0, 1)
    assert len(loc.edges) == 2


def test_z1_window_has_8_directed_edges():
    loc = cl.lattice_window(1, radius=2)
    assert loc.sites == (-2, -1, 0, 1, 2)
    assert len(loc.edges) == 8


def test_missing_reverse_edge():
    with pytest.raises(cl.NotSymmetric):
        cl.build_locale([0, 1], [(0, 1)])


def test_self_loop_and_duplicate():
    with pytest.raises(cl.NotSimple):
        cl.build_locale([0, 1], [(0, 0), (0, 1), (1, 0)])
    with pytest.raises(cl.NotSimple):
        cl.build_locale([0, 1], [(0, 1), (0, 1), (1, 0)])


def test_disconnected():
    with pytest.raises(cl.NotConnected):
        cl.build_locale([0, 1, 2, 3], [(0, 1), (1, 0), (2, 3), (3, 2)])


def test_lattice_window_counts():
    w1 = cl.lattice_window(1, radius=1)
    assert len(w1.sites) == 3 and len(w1.edges) == 4
    w2 = cl.lattice_window(2, radius=1)
    assert len(w2.sites) == 9 and len(w2.edges) == 24


def enumerated_locale(meta):
    """Oracle: coordinates enumerated in lexicographic order get ascending
    site ids (from -radius in one dimension, else from 0), and each is
    joined to its +1 neighbour along every axis, wrapped on a torus."""
    if meta.kind == "window":
        ranges = [range(-meta.radius, meta.radius + 1)] * meta.dim
    else:
        ranges = [range(size) for size in meta.sizes]
    first = ranges[0].start if meta.dim == 1 else 0
    ids = {c: first + k for k, c in enumerate(itertools.product(*ranges))}
    edges = set()
    for c, s in ids.items():
        for axis, r in enumerate(ranges):
            nb = list(c)
            nb[axis] = r[(c[axis] - r.start + 1) % len(r)]
            if meta.kind == "torus" or nb[axis] > c[axis]:
                edges |= {(s, ids[tuple(nb)]), (ids[tuple(nb)], s)}
    return ids, cl.build_locale(ids.values(), edges, meta)


@pytest.mark.parametrize("meta", [
    *(LatticeMeta(d, "window", radius=r) for d in (1, 2, 3)
      for r in range(4 - d)),
    LatticeMeta(1, "window", radius=7),
    *(LatticeMeta(len(sizes), "torus", sizes=sizes)
      for sizes in [(3,), (7,), (3, 3), (3, 5), (4, 3), (3, 4, 3)])],
    ids=repr)
def test_lattice_window_matches_enumeration(meta):
    built = (cl.lattice_window(meta.dim, radius=meta.radius)
             if meta.kind == "window"
             else cl.lattice_window(meta.dim, sizes=meta.sizes))
    ids, oracle = enumerated_locale(meta)
    assert built.sites == oracle.sites
    assert built.edges == oracle.edges
    assert built.lattice == oracle.lattice == meta
    for c, s in ids.items():
        assert built.site_at(c) == s and built.coord_of(s) == c


@pytest.mark.parametrize("dim, radius, sizes", [
    *((d, r, None) for d in (1, 2, 3) for r in range(4)),
    *((1, None, (a,)) for a in (3, 4, 5)),
    *((2, None, sizes) for sizes in itertools.product((3, 4, 5), repeat=2)),
    *((3, None, sizes) for sizes in [(3, 3, 3), (3, 4, 5), (5, 4, 3)])])
def test_lattice_window_equals_the_validated_locale(dim, radius, sizes):
    """lattice_window builds its locale without build_locale's checks; the
    same sites and edges pass them and give an equal locale."""
    built = cl.lattice_window(dim, radius=radius, sizes=sizes)
    assert built == cl.build_locale(built.sites, built.edges, built.lattice)
    extents = sizes or (2 * radius + 1,) * dim
    assert len(built.sites) == math.prod(extents)


@pytest.mark.parametrize("args, message", [
    pytest.param((0,), "dim must be a positive int, got 0", id="0"),
    pytest.param((-1,), "dim must be a positive int, got -1", id="-1"),
    pytest.param((True,), "dim must be a positive int, got True",
                 id="dim-bool"),
    pytest.param((1.0,), "dim must be a positive int, got 1.0",
                 id="dim-float"),
    pytest.param((1, 1.5), "radius must be a non-negative int, got 1.5",
                 id="radius-float"),
    pytest.param((1, -1), "radius must be a non-negative int, got -1",
                 id="radius-negative"),
    pytest.param((2, None, [3, 3.0]), "sizes[1] must be an int, got 3.0",
                 id="sizes-float"),
    pytest.param((2, None, (3, "x")), "sizes[1] must be an int, got 'x'",
                 id="sizes-str")])
def test_lattice_window_rejects_a_bad_dim(args, message):
    """A ValueError that names the argument; a dim alone is tried with a
    radius and with sizes."""
    for call in ([args] if len(args) > 1 else [(*args, 1), (*args, None, ())]):
        with pytest.raises(ValueError) as info:
            cl.lattice_window(*call)
        assert str(info.value) == message


@pytest.mark.parametrize("sizes", [(3, 2), (2, 5, 3), (1, 1)])
def test_lattice_window_rejects_a_torus_too_small(sizes):
    with pytest.raises(cl.SizeTooSmall) as info:
        cl.lattice_window(len(sizes), sizes=sizes)
    assert info.value.details == {"sizes": list(sizes)}


def test_torus_too_small():
    with pytest.raises(cl.SizeTooSmall):
        cl.lattice_window(1, sizes=(2,))


def test_torus_ring():
    ring = cl.lattice_window(1, sizes=(3,))
    assert len(ring.sites) == 3 and len(ring.edges) == 6


def test_window_ids_follow_lex_coordinate_order():
    w2 = cl.lattice_window(2, radius=1)
    coords = [w2.coord_of(s) for s in w2.sites]
    assert coords == sorted(coords)
    assert w2.site_at((0, 0)) in w2.sites
    assert w2.site_at((2, 0)) is None


# -- interactions --------------------------------------------------------

def test_validate_exclusion_and_identity(exclusion):
    assert cl.validate_interaction(exclusion).ok
    assert cl.validate_interaction(cl.identity_interaction(3)).ok


def test_validate_interaction_violation():
    bad = cl.make_interaction((0, 1), 0, {(0, 1): (1, 1), (1, 1): (1, 1)})
    report = cl.validate_interaction(bad)
    assert not report.ok
    assert ((0, 1), (1, 1)) in report.violations


# -- configuration spaces -------------------------------------------------

def test_enumerate_binary_pair(exclusion):
    space = cl.enumerate_configs(cl.siteset([0, 1]), exclusion)
    assert space.size == 4
    for idx in range(4):
        a = space.decode(idx)
        assert idx == a[0] + 2 * a[1]


def test_enumerate_three_states():
    space = cl.enumerate_configs(cl.siteset([0]), cl.identity_interaction(3))
    assert space.size == 3


def test_enumerate_cap(exclusion):
    with pytest.raises(cl.SpaceTooLarge):
        cl.enumerate_configs(cl.siteset(range(30)), exclusion)


@pytest.mark.parametrize("cap", ["x", True, False, 0, -4, 2.0, None],
                         ids=["string", "true", "false", "zero", "negative",
                              "float", "none"])
def test_state_cap_must_be_a_positive_int(exclusion, cap):
    """A cap that is not a positive int is a ValueError at every entry
    point that takes one, not a raw TypeError, and True is not a cap of 1."""
    message = f"state_cap must be a positive int, got {cap!r}"
    path = cl.lattice_window(1, radius=1)
    sites = cl.siteset(path.sites)
    form = cl.differential(cl.site_occupation(sites, 2, 0), exclusion, path)
    nu = cl.bernoulli(F(1, 2))
    rho = cl.cocycle_from_coefficients(
        cl.conserved_quantities(exclusion, nu), [[F(1)]])
    spec = cl.invariant_form_from_cocycle(rho, exclusion, 1)
    calls = [lambda: guard_space(2, 1, cap),
             lambda: cl.enumerate_configs(sites, exclusion, cap),
             lambda: cl.solve_potential(form, state_cap=cap),
             lambda: cl.decompose_invariant_form(
                 spec, cl.lattice_window(1, radius=3), nu, state_cap=cap)]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


def test_mixed_radix_roundtrip(exclusion):
    space = cl.enumerate_configs(cl.siteset(range(10)), exclusion)
    for idx in range(space.size):
        assert space.encode(space.decode(idx)) == idx
    rng = random.Random(7)
    tri = cl.ConfigSpace(cl.siteset(range(6)), 3)
    for _ in range(100):
        a = tuple(rng.randrange(3) for _ in range(6))
        assert tri.decode(tri.encode(a)) == a


# -- transitions -----------------------------------------------------------

def test_apply_transition_swap(exclusion):
    eta = cl.Config(cl.siteset([0, 1]), (1, 0))
    assert cl.apply_transition(eta, (0, 1), exclusion).assignment == (0, 1)
    fixed = cl.Config(cl.siteset([0, 1]), (1, 1))
    assert cl.apply_transition(fixed, (0, 1), exclusion).assignment == (1, 1)


def test_apply_transition_three_state_rule():
    inter = cl.make_interaction((0, 1, 2), 0, {(1, 2): (0, 0)})
    eta = cl.Config(cl.siteset([0, 1, 2]), (1, 2, 2))
    out = cl.apply_transition(eta, (0, 1), inter)
    assert out.assignment == (0, 0, 2)


def test_apply_transition_outside(exclusion):
    eta = cl.Config(cl.siteset([0, 1]), (1, 0))
    with pytest.raises(cl.EdgeOutsideSiteSet):
        cl.apply_transition(eta, (0, 5), exclusion)


def test_transition_graph_single_edge(exclusion, single_edge):
    graph = cl.transition_graph(cl.siteset([0, 1]), exclusion, single_edge)
    assert len(graph.records) == 4          # one per (config, edge)
    assert graph.pairs == ((1, 2), (2, 1))  # (1,0) <-> (0,1)
    assert graph.n_components == 3


def test_transition_graph_identity_empty(single_edge):
    graph = cl.transition_graph(cl.siteset([0, 1]),
                                cl.identity_interaction(2), single_edge)
    assert graph.records == ()
    assert graph.n_components == 4


def test_transition_graph_path3_components(exclusion, path3):
    graph = cl.transition_graph(cl.siteset(path3.sites), exclusion, path3)
    # one component per particle count 0..3
    assert graph.n_components == 4


def test_transition_graph_rejects_sites_outside_the_locale(exclusion,
                                                         single_edge):
    with pytest.raises(cl.NotSubset):
        cl.transition_graph(cl.siteset([0, 1, 5]), exclusion, single_edge)


def test_transition_symmetry(exclusion, path3):
    sites = cl.siteset(path3.sites)
    graph = cl.transition_graph(sites, exclusion, path3)
    pair_set = set(graph.pairs)
    for src, e, dst in graph.records:
        assert (dst, src) in pair_set
        eta = graph.space.config(dst)
        back = cl.apply_transition(eta, (e[1], e[0]), exclusion)
        assert graph.space.encode(back.assignment) == src


def test_transition_symmetry_three_state(path3):
    inter = cl.make_interaction((0, 1, 2), 0,
                                {(1, 2): (2, 1), (2, 1): (1, 2)})
    sites = cl.siteset(path3.sites)
    graph = cl.transition_graph(sites, inter, path3)
    for src, e, dst in graph.records:
        eta = graph.space.config(dst)
        back = cl.apply_transition(eta, (e[1], e[0]), inter)
        assert graph.space.encode(back.assignment) == src


def search_labels(graph):
    """Oracle: components of the undirected graph of ``records``, one
    search per unlabelled configuration in index order, so labels number
    components by first appearance."""
    size = graph.space.size
    adjacent = [[] for _ in range(size)]
    for src, _, dst in graph.records:
        adjacent[src].append(dst)
        adjacent[dst].append(src)
    labels = [None] * size
    count = 0
    for root in range(size):
        if labels[root] is None:
            labels[root], stack = count, [root]
            while stack:
                for b in adjacent[stack.pop()]:
                    if labels[b] is None:
                        labels[b] = count
                        stack.append(b)
            count += 1
    return tuple(labels)


def random_phi(rng, n, kind):
    """A phi map on range(n) of the given kind: "any" pairs drawn freely,
    "symmetric" closed under phi(b, a) = (d, c), "inverse" with changed
    pairs moved back by their image, "reversible" built from pairs
    (i, j) -> (a, b) together with (b, a) -> (j, i)."""
    pairs = list(itertools.product(range(n), repeat=2))
    rng.shuffle(pairs)
    share = rng.choice([0.3, 0.6, 1.0])
    phi = {}
    for ij in pairs:
        if ij in phi or rng.random() > share:
            continue
        ab = rng.choice(pairs)
        if kind == "reversible":
            back = (ab[1], ab[0])
            if ab != ij and back not in phi:
                phi[ij], phi[back] = ab, (ij[1], ij[0])
            continue
        if kind == "symmetric":
            if ij[0] == ij[1]:   # phi(a, a) = (c, d) needs c = d
                ab = (ab[0], ab[0])
            phi[ij[::-1]] = ab[::-1]
        elif kind == "inverse" and ab not in phi:
            phi[ab] = ij
        phi[ij] = ab
    return phi


LABELLED_LOCALES = [
    cl.lattice_window(1, radius=3),              # path
    cl.lattice_window(1, sizes=(6,)),            # ring
    cl.lattice_window(2, radius=1),              # box
    cl.lattice_window(2, sizes=(3, 3)),          # torus
]


@pytest.mark.parametrize("kind",
                         ["any", "symmetric", "inverse", "reversible"])
@given(st.sampled_from([2, 3]), st.sampled_from(LABELLED_LOCALES),
       st.integers(0, 2 ** 32))
def test_component_labels_equal_a_search_over_records(kind, n, locale,
                                                      seed):
    """component_labels reads each undirected link once where phi allows
    (one orientation per site pair, one of two inverse moves); the labels
    equal those of a search over every directed transition."""
    rng = random.Random(seed)
    inter = cl.make_interaction(tuple(range(n)), 0, random_phi(rng, n, kind))
    if kind == "symmetric":
        assert inter.is_symmetric
    if kind == "reversible":
        assert inter.is_reversible
    # at most 2^9 or 3^6 configurations
    cap = min(len(locale.sites), 9 if n == 2 else 6)
    sites = cl.siteset(rng.sample(locale.sites, rng.randint(2, cap)))
    graph = cl.transition_graph(sites, inter, locale)
    assert graph.component_labels == search_labels(graph)


# -- group actions ----------------------------------------------------------

def test_group_act_shift():
    w = cl.lattice_window(1, radius=2)
    sigma = cl.translation_map(w, (1,))
    f = cl.site_occupation(cl.siteset([0]), 2, 0)
    moved = cl.group_act(sigma, f)
    assert moved.sites.sites == (1,)
    assert moved.values == f.values


def test_group_act_identity():
    w = cl.lattice_window(1, radius=2)
    ident = cl.identity_map(w)
    f = cl.site_occupation(cl.siteset([0, 1]), 2, 0)
    assert cl.group_act(ident, f).equals(f)


def test_group_act_leaves_window():
    w = cl.lattice_window(1, radius=2)
    sigma = cl.translation_map(w, (2,))
    f = cl.site_occupation(cl.siteset([1, 2]), 2, 1)
    with pytest.raises(cl.ActionLeavesWindow):
        cl.group_act(sigma, f)


def test_group_act_right_inverse(exclusion):
    rng = random.Random(11)
    w = cl.lattice_window(1, radius=3)
    sigma = cl.translation_map(w, (1,))
    inv = sigma.inverse()
    sites = cl.siteset([-1, 0, 1])
    from conftest import rand_table
    f = rand_table(rng, sites)
    assert cl.group_act(inv, cl.group_act(sigma, f)).equals(f)
    eta = cl.Config(sites, (1, 0, 1))
    assert cl.group_act(inv, cl.group_act(sigma, eta)) == eta
    form = cl.differential(f, exclusion, w)
    back = cl.group_act(inv, cl.group_act(sigma, form))
    for e in form.edges:
        assert back.tables[e].minimized().equals(form.tables[e].minimized())


def test_transition_commutes_with_action(exclusion):
    w = cl.lattice_window(1, radius=3)
    sigma = cl.translation_map(w, (1,))
    eta = cl.Config(cl.siteset([0, 1]), (1, 0))
    moved_edge = (sigma.apply(0), sigma.apply(1))
    lhs = cl.group_act(sigma, cl.apply_transition(eta, (0, 1), exclusion))
    rhs = cl.apply_transition(cl.group_act(sigma, eta), moved_edge, exclusion)
    assert lhs == rhs


# -- diameters --------------------------------------------------------------

def test_site_diameter_examples():
    w1 = cl.lattice_window(1, radius=2)
    assert cl.site_diameter(cl.siteset([0]), w1) == 0
    assert cl.site_diameter(cl.siteset([-1, 1]), w1) == 2
    w2 = cl.lattice_window(2, radius=1)
    pair = cl.siteset([w2.site_at((0, 0)), w2.site_at((1, 1))])
    assert cl.site_diameter(pair, w2) == 2
    with pytest.raises(cl.EmptySet):
        cl.site_diameter(cl.siteset([]), w1)
