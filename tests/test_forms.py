import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import colocal as cl
from conftest import differential_rank, rand_table


def triangle_cycle_form(exclusion):
    """+1 along the particle-count-1 cycle (1,0,0)->(0,1,0)->(0,0,1)->(1,0,0),
    zero elsewhere; alternating-consistent but not closed (integral 3)."""
    sites = cl.siteset([0, 1, 2])

    def table(plus):
        values = [F(0)] * 8
        for idx, sign in plus:
            values[idx] = F(sign)
        return cl.FnTable(sites, 2, tuple(values))

    # config indices: (1,0,0)=1, (0,1,0)=2, (0,0,1)=4
    tables = {
        (0, 1): table([(1, 1), (2, -1)]),
        (1, 2): table([(2, 1), (4, -1)]),
        (0, 2): table([(4, 1), (1, -1)]),
    }
    return cl.make_form(sites, exclusion, [(0, 1), (0, 2), (1, 2)], tables)


# -- differential --------------------------------------------------------

def test_differential_of_occupation(exclusion, single_edge):
    sites = cl.siteset([0, 1])
    fx = cl.site_occupation(sites, 2, 0)
    form = cl.differential(fx, exclusion, single_edge)
    # (1,0) -> (0,1): f drops from 1 to 0
    assert form.edge_value((0, 1), (1, 0)) == F(-1)
    assert form.edge_value((0, 1), (0, 1)) == F(1)
    assert form.edge_value((0, 1), (0, 0)) == F(0)
    cl.validate_form(form)


def test_differential_of_constant_is_zero(exclusion, single_edge):
    c = cl.fn_constant(cl.siteset([0, 1]), 2, F(3))
    assert cl.differential(c, exclusion, single_edge).is_zero()


def test_differential_alternating(exclusion, path3):
    rng = random.Random(41)
    sites = cl.siteset(path3.sites)
    f = rand_table(rng, sites)
    form = cl.differential(f, exclusion, path3)
    space = form.space
    for idx in range(space.size):
        eta = space.config(idx)
        for e in form.edges:
            moved = cl.apply_transition(eta, e, exclusion)
            if moved == eta:
                continue
            assert form.edge_value((e[1], e[0]), moved.assignment) == \
                -form.edge_value(e, eta.assignment)


def test_make_form_rejects_nonzero_on_fixed(exclusion):
    sites = cl.siteset([0, 1])
    bad = cl.fn_constant(sites, 2, F(1))
    with pytest.raises(cl.MalformedForm):
        cl.make_form(sites, exclusion, [(0, 1)], {(0, 1): bad})


def test_make_form_rejects_value_on_fixed_configuration(exclusion):
    # (0, 0) is fixed by the swap; the rest of the table is a valid form
    sites = cl.siteset([0, 1])
    table = cl.FnTable(sites, 2, (F(5), F(0), F(0), F(0)))
    with pytest.raises(cl.MalformedForm, match="fixed configuration"):
        cl.make_form(sites, exclusion, [(0, 1)], {(0, 1): table})
    with pytest.raises(cl.MalformedForm, match="fixed configuration"):
        cl.make_form(sites, exclusion, [(0, 1)], {(1, 0): table})


def test_make_form_rejects_inconsistent_orientations(exclusion):
    sites = cl.siteset([0, 1])
    fwd = cl.FnTable(sites, 2, (F(0), F(1), F(-1), F(0)))
    also_fwd = cl.FnTable(sites, 2, (F(0), F(1), F(1), F(0)))
    with pytest.raises(cl.MalformedForm):
        cl.make_form(sites, exclusion, [(0, 1)],
                     {(0, 1): fwd, (1, 0): also_fwd})


# -- path integrals -------------------------------------------------------

def test_path_integral_telescopes(exclusion, path3):
    rng = random.Random(43)
    sites = cl.siteset(path3.sites)
    f = rand_table(rng, sites)
    form = cl.differential(f, exclusion, path3)
    start = cl.Config(sites, (1, 0, 0))
    gamma = cl.Path(start, ((-1, 0), (0, 1), (0, 1)))
    configs = cl.path_configs(gamma, exclusion)
    value = cl.path_integral(form, gamma)
    assert value == f.value_at(configs[-1].assignment) - \
        f.value_at(configs[0].assignment)


def test_path_and_reversal_integrate_to_zero(exclusion, path3):
    rng = random.Random(47)
    sites = cl.siteset(path3.sites)
    form = cl.differential(rand_table(rng, sites), exclusion, path3)
    start = cl.Config(sites, (1, 0, 0))
    gamma = cl.Path(start, ((-1, 0), (0, 1), (1, 0), (0, -1)))
    assert cl.is_closed_path(gamma, exclusion)
    assert cl.path_integral(form, gamma) == 0


def test_path_integral_single_step(exclusion, single_edge):
    sites = cl.siteset([0, 1])
    form = cl.differential(cl.site_occupation(sites, 2, 0), exclusion,
                           single_edge)
    gamma = cl.Path(cl.Config(sites, (1, 0)), ((0, 1),))
    assert cl.path_integral(form, gamma) == F(-1)


def test_invalid_paths(exclusion, single_edge, path3):
    sites = cl.siteset([0, 1])
    form = cl.differential(cl.site_occupation(sites, 2, 0), exclusion,
                           single_edge)
    fixed = cl.Path(cl.Config(sites, (1, 1)), ((0, 1),))
    with pytest.raises(cl.InvalidPath):
        cl.path_integral(form, fixed)
    outside = cl.Path(cl.Config(sites, (1, 0)), ((0, 7),))
    with pytest.raises(cl.InvalidPath):
        cl.path_integral(form, outside)
    # both endpoints lie in the window, but (-1, 1) is no edge of path3
    sites3 = cl.siteset(path3.sites)
    form3 = cl.differential(cl.site_occupation(sites3, 2, -1), exclusion,
                            path3)
    for steps in (((-1, 1),), ((-1, 0), (-1, 0), (-1, 1))):
        jump = cl.Path(cl.Config(sites3, (1, 0, 0)), steps)
        with pytest.raises(cl.InvalidPath) as info:
            cl.path_integral(form3, jump)
        assert info.value.details == {"step": len(steps) - 1,
                                      "edge": (-1, 1)}


# -- potentials --------------------------------------------------------------

def test_solve_potential_round_trip(exclusion, single_edge, mu_half):
    sites = cl.siteset([0, 1])
    f = cl.site_occupation(sites, 2, 0) * cl.site_occupation(sites, 2, 1)
    form = cl.differential(f, exclusion, single_edge)
    g = cl.solve_potential(form, mu_half)
    assert cl.differential(g, exclusion, single_edge).tables == form.tables
    # g - f lies in the kernel: constant on each component
    diff = g - f
    graph = cl.transition_graph(sites, exclusion, single_edge)
    per_component = {}
    for idx in range(graph.space.size):
        per_component.setdefault(graph.component_labels[idx],
                                 set()).add(diff.values[idx])
    assert all(len(v) == 1 for v in per_component.values())


def test_solve_potential_zero_form(exclusion, single_edge, mu_half):
    sites = cl.siteset([0, 1])
    zero = cl.differential(cl.fn_constant(sites, 2, F(0)), exclusion,
                           single_edge)
    assert cl.solve_potential(zero, mu_half).is_zero()


def test_solve_potential_random_round_trips(exclusion, path3, mu_half):
    rng = random.Random(53)
    sites = cl.siteset(path3.sites)
    for _ in range(25):
        f = rand_table(rng, sites)
        form = cl.differential(f, exclusion, path3)
        g = cl.solve_potential(form, mu_half)
        assert cl.differential(g, exclusion, path3).tables == form.tables


def test_triangle_not_closed_witness(exclusion, mu_half):
    form = triangle_cycle_form(exclusion)
    with pytest.raises(cl.NotClosed) as err:
        cl.solve_potential(form, mu_half)
    witness = err.value.witness
    assert cl.is_closed_path(witness, exclusion)
    assert abs(err.value.integral) == 3
    assert cl.path_integral(form, witness) == err.value.integral


def test_closedness_three_way_agreement(exclusion, triangle, mu_half):
    # random assignments per transition pair: cycle integrals vanish
    # exactly when a potential exists
    rng = random.Random(59)
    sites = cl.siteset([0, 1, 2])
    graph = cl.transition_graph(sites, exclusion, triangle)
    pair_edges = {}
    for src, e, dst in graph.records:
        pair_edges.setdefault((min(src, dst), max(src, dst)), (src, e, dst))
    base = triangle_cycle_form(exclusion)
    cycles = [  # the two fundamental 3-cycles, one per nontrivial sector
        cl.Path(cl.Config(sites, (1, 0, 0)), ((0, 1), (1, 2), (0, 2))),
        cl.Path(cl.Config(sites, (0, 1, 1)), ((0, 1), (1, 2), (0, 2))),
    ]
    for _ in range(30):
        tables = {e: [F(0)] * 8 for e in base.edges}
        for (a, b), (src, e, dst) in pair_edges.items():
            value = F(rng.randint(-3, 3))
            key = (min(e), max(e))
            tables[key][src] = value if src == a else value
            tables[key][a] = value
            tables[key][b] = -value
        form = cl.make_form(sites, exclusion, base.edges,
                            {e: cl.FnTable(sites, 2, tuple(v))
                             for e, v in tables.items()})
        closed = all(cl.path_integral(form, c) == 0 for c in cycles)
        try:
            cl.solve_potential(form, mu_half)
            solved = True
        except cl.NotClosed:
            solved = False
        assert closed == solved


# -- kernel and dimensions ------------------------------------------------------

def test_kernel_basis_single_edge(exclusion, single_edge, mu_half):
    sites = cl.siteset([0, 1])
    kb = cl.kernel_basis(sites, exclusion, single_edge, mu_half)
    assert kb.n_components == 3
    assert len(kb.indicators) == 3
    assert len(kb.mean_zero) == 2
    for table in kb.mean_zero:
        assert cl.expectation(table, mu_half) == 0
        assert cl.differential(table, exclusion, single_edge).is_zero()


def test_kernel_identity_interaction(single_edge, mu_half):
    sites = cl.siteset([0, 1])
    kb = cl.kernel_basis(sites, cl.identity_interaction(2), single_edge,
                         mu_half)
    assert kb.n_components == 4


PATH4 = cl.lattice_window(1, radius=2)
BOX = cl.lattice_window(2, radius=1)


@given(st.sampled_from([2, 3]), st.sampled_from([PATH4, BOX]),
       st.sampled_from(["exclusion", "identity"]),
       st.sampled_from(["product", "window"]), st.data())
def test_kernel_basis_matches_fraction_tables(n, window, rule, kind, data):
    """The indicators and their centred copies equal the tables built the
    direct way: Fraction indicators, each centred by its expectation under
    the materialized window measure."""
    sites = cl.siteset(data.draw(st.lists(
        st.sampled_from(window.sites), unique=True, min_size=1,
        max_size=5 if n == 2 else 3)))
    interaction = (cl.exclusion_interaction(n) if rule == "exclusion"
                   else cl.identity_interaction(n))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    raw = [rng.randint(1, 9) for _ in range(n)]
    if kind == "product":
        mu = cl.ProductMeasure(cl.state_measure([F(w, sum(raw)) for w in raw]))
    else:
        mu = cl.window_measure_from_raw(
            sites, n, [rng.randint(1, 9) for _ in range(n ** len(sites))])
    kb = cl.kernel_basis(sites, interaction, window, mu)
    labels = cl.transition_graph(sites, interaction, window).component_labels
    assert kb.component_labels == labels
    assert kb.n_components == max(labels) + 1
    win = cl.materialize(mu, sites)
    indicators = [cl.FnTable(sites, n, tuple(F(int(label == c))
                                             for label in labels))
                  for c in range(kb.n_components)]
    assert kb.indicators == tuple(indicators)
    assert kb.mean_zero == tuple(
        ind - cl.fn_constant(sites, n, cl.expectation(ind, win))
        for ind in indicators[:-1])


def test_kernel_basis_rejects_a_measure_on_other_states(exclusion,
                                                        single_edge):
    with pytest.raises(cl.SiteSetMismatch):
        cl.kernel_basis(cl.siteset([0, 1]), exclusion, single_edge,
                        cl.uniform_states(3))


def test_kernel_characterizes_flat_functions(exclusion, path3, mu_half):
    # df = 0 iff f is constant per component, both directions
    rng = random.Random(61)
    sites = cl.siteset(path3.sites)
    graph = cl.transition_graph(sites, exclusion, path3)
    labels = graph.component_labels
    for _ in range(10):
        per_component = [F(rng.randint(-5, 5)) for _ in range(graph.n_components)]
        flat = cl.FnTable(sites, 2, tuple(per_component[labels[i]]
                                          for i in range(graph.space.size)))
        assert cl.differential(flat, exclusion, path3).is_zero()
        bumpy = rand_table(rng, sites)
        if not cl.differential(bumpy, exclusion, path3).is_zero():
            values = {}
            for idx in range(graph.space.size):
                values.setdefault(labels[idx], set()).add(bumpy.values[idx])
            assert any(len(v) > 1 for v in values.values())


def test_z1_dimension_agreement(exclusion, single_edge, path3, mu_half):
    """The kernel's count and the closed-form dimension against the rank
    of the differential by elimination, which counts no components."""
    for sites, locale in [(cl.siteset([0, 1]), single_edge),
                          (cl.siteset(path3.sites), path3)]:
        kb = cl.kernel_basis(sites, exclusion, locale, mu_half)
        size = 2 ** len(sites)
        via_counts = (size - 1) - (kb.n_components - 1)
        rank = differential_rank(cl.transition_graph(sites, exclusion,
                                                     locale))
        assert via_counts == rank
        assert cl.closed_form_space_dimension(sites, exclusion,
                                              locale) == rank
    assert cl.closed_form_space_dimension(cl.siteset([0, 1]), exclusion,
                                          single_edge) == 1


# -- projection -------------------------------------------------------------------

def test_project_form_compatible_with_differential(exclusion, path3, mu_half):
    rng = random.Random(67)
    sites = cl.siteset(path3.sites)
    sub = cl.siteset([-1, 0])
    for _ in range(10):
        f = rand_table(rng, sites)
        form = cl.differential(f, exclusion, path3)
        lhs = cl.project_form(form, sub, mu_half)
        rhs = cl.differential(cl.conditional_expectation(f, sub, mu_half),
                              exclusion, path3)
        for e in lhs.edges:
            assert lhs.dense_table(e).equals(rhs.dense_table(e))


def test_project_zero_form(exclusion, path3, mu_half):
    sites = cl.siteset(path3.sites)
    zero = cl.differential(cl.fn_constant(sites, 2, F(0)), exclusion, path3)
    assert cl.project_form(zero, cl.siteset([-1, 0]), mu_half).is_zero()


def test_project_form_preserves_structure(exclusion, path3, mu_half):
    # table depending on the outer sites projects to a valid form
    sites = cl.siteset(path3.sites)
    f = cl.site_occupation(sites, 2, -1) * cl.site_occupation(sites, 2, 1)
    form = cl.differential(f, exclusion, path3)
    projected = cl.project_form(form, cl.siteset([-1, 0]), mu_half)
    cl.validate_form(projected)


def test_project_form_not_ordinary(exclusion, path3):
    from test_measure import correlated_measure
    _, sites, mu = correlated_measure(exclusion)
    f = cl.site_occupation(sites, 2, -1) * cl.site_occupation(sites, 2, 1)
    form = cl.differential(f, exclusion, path3)
    with pytest.raises(cl.NotOrdinary):
        cl.project_form(form, cl.siteset([-1, 0]), mu, path3)


def test_project_form_counterexample_when_unchecked(exclusion, path3):
    # with the correlated measure the raw projection violates the form
    # constraints on some input
    from test_measure import correlated_measure
    _, sites, mu = correlated_measure(exclusion)
    rng = random.Random(71)
    broken = False
    for _ in range(20):
        f = rand_table(rng, sites)
        form = cl.differential(f, exclusion, path3)
        raw = cl.project_form(form, cl.siteset([-1, 0]), mu, path3,
                              check_ordinary=False, validate=False)
        try:
            cl.validate_form(raw)
        except cl.MalformedForm:
            broken = True
            break
    assert broken
