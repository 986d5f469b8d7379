import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import colocal as cl


def exclusion_cocycle(coeff=F(1)):
    exclusion = cl.exclusion_interaction()
    nu = cl.bernoulli(F(1, 2))
    basis = cl.conserved_quantities(exclusion, nu)
    return exclusion, nu, basis, cl.cocycle_from_coefficients(basis, [[coeff]])


def pair_potential_spec(exclusion):
    """Stencil of d(sum over n of eta_n eta_{n+1})."""
    template = cl.lattice_window(1, radius=2)
    core_sites = cl.siteset([0, 1])
    core = cl.site_occupation(core_sites, 2, 0) * \
        cl.site_occupation(core_sites, 2, 1)
    return cl.invariant_form_from_potential_stencil(core, template, exclusion)


# -- fundamental domain ----------------------------------------------------

def test_fundamental_domain_examples():
    fd1 = cl.fundamental_domain(1)
    assert fd1.split([3]) == ((3,), ((0,),))
    assert fd1.split([2, 4]) == ((2,), ((0,), (2,)))
    fd2 = cl.fundamental_domain(2)
    assert fd2.split([(1, 1), (1, 2)]) == ((1, 1), ((0, 0), (0, 1)))
    assert fd2.contains([(0, 0), (0, 1)])
    assert not fd2.contains([(1, 1), (1, 2)])


# -- canonical potential and form --------------------------------------------

def test_theta_from_cocycle_matches_weighted_sum():
    _, _, basis, rho = exclusion_cocycle()
    window = cl.lattice_window(1, radius=2)
    theta = cl.theta_from_cocycle(rho, window)
    xi = basis[0].xi
    space = theta.space
    for idx in range(space.size):
        assignment = space.decode(idx)
        expected = sum(F(n) * xi[d] for n, d in zip(window.sites, assignment))
        assert theta.values[idx] == expected


def test_theta_zero_and_linearity():
    exclusion, nu, basis, rho = exclusion_cocycle()
    window = cl.lattice_window(1, radius=2)
    zero = cl.zero_cocycle(basis, 1, 2)
    assert cl.theta_from_cocycle(zero, window).is_zero()
    doubled = cl.theta_from_cocycle(rho.scale(F(2)), window)
    assert doubled.equals(cl.theta_from_cocycle(rho, window).scale(F(2)))


def test_omega_from_cocycle_is_density_gradient():
    exclusion, nu, basis, rho = exclusion_cocycle()
    window = cl.lattice_window(1, radius=2)
    omega = cl.omega_from_cocycle(rho, window, exclusion)
    for (o, t) in omega.edges:
        table = omega.tables[(o, t)]
        # value over (a, b) digits: xi(a) - xi(b) = a - b for xi = s - 1/2
        assert table.value_at((1, 0)) == F(1)
        assert table.value_at((0, 1)) == F(-1)
        assert table.value_at((0, 0)) == F(0)
        assert table.value_at((1, 1)) == F(0)


def test_omega_zero_and_linearity():
    exclusion, nu, basis, rho = exclusion_cocycle()
    window = cl.lattice_window(1, radius=2)
    zero = cl.zero_cocycle(basis, 1, 2)
    assert cl.omega_from_cocycle(zero, window, exclusion).is_zero()
    rho2 = cl.cocycle_from_coefficients(basis, [[F(3, 2)]])
    total = cl.cocycle_from_coefficients(basis, [[F(1) + F(3, 2)]])
    lhs = cl.omega_from_cocycle(total, window, exclusion)
    rhs = cl.omega_from_cocycle(rho, window, exclusion) + \
        cl.omega_from_cocycle(rho2, window, exclusion)
    for e in lhs.edges:
        assert lhs.tables[e].equals(rhs.tables[e].minimized())


def test_omega_from_cocycle_shift_invariant_and_closed(mu_half):
    exclusion, nu, basis, rho = exclusion_cocycle()
    window = cl.lattice_window(1, radius=3)
    omega = cl.omega_from_cocycle(rho, window, exclusion)
    sigma = cl.translation_map(window, (1,))
    for e in [(-3, -2), (-1, 0), (1, 2)]:
        moved = omega.tables[e].relabel(sigma)
        target = omega.tables[(e[0] + 1, e[1] + 1)]
        assert moved.sites == target.sites and moved.values == target.values
    cl.solve_potential(omega, mu_half)   # closed: no witness raised


def test_verify_cocycle_identity():
    exclusion, nu, basis, rho = exclusion_cocycle()
    window = cl.lattice_window(1, radius=2)
    assert cl.verify_cocycle_identity(rho, window).ok
    zero = cl.zero_cocycle(basis, 1, 2)
    assert cl.verify_cocycle_identity(zero, window).ok
    with pytest.raises(cl.WindowTooSmall):
        cl.verify_cocycle_identity(rho, cl.lattice_window(1, radius=0))


# -- stencils ------------------------------------------------------------------

def test_cocycle_stencil_is_invariant_and_closed(mu_half):
    exclusion, nu, basis, rho = exclusion_cocycle()
    spec = cl.invariant_form_from_cocycle(rho, exclusion, 1)
    assert spec.check_invariance() == []
    assert spec.stencil_radius == 0
    window = cl.lattice_window(1, radius=3)
    omega = spec.materialize(window, nu)
    direct = cl.omega_from_cocycle(rho, window, exclusion)
    for e in omega.edges:
        assert omega.tables[e].minimized().equals(direct.tables[e].minimized())


def test_stencils_built_from_anchors_are_translation_consistent():
    """A stencil built from anchors carries each anchor's translate on every
    template edge where it fits, so its invariance check is not run; the
    same template form, checked afresh, has no mismatched edge (d=1 and
    d=2, cocycle, potential, random anchors and sums)."""
    exclusion, nu, basis, rho = exclusion_cocycle()
    rho2 = cl.cocycle_from_coefficients(basis, [[F(-2)], [F(1, 2)]])
    box = cl.lattice_window(2, radius=2)
    a, b = box.site_at((0, 0)), box.site_at((1, 0))
    core = cl.site_occupation(cl.siteset([a, b]), 2, a) * \
        cl.site_occupation(cl.siteset([a, b]), 2, b)
    rng = random.Random(31)
    random_anchors = [
        cl.FnTable(cl.siteset(support), 2,
                   tuple(F(rng.randint(-4, 4), rng.randint(1, 3))
                         for _ in range(2 ** len(support))))
        for support in ([box.site_at((-1, 0)), a, b, box.site_at((0, 1))],
                        [a, box.site_at((1, 1)), box.site_at((0, 1))])]
    cocycle1 = cl.invariant_form_from_cocycle(rho, exclusion, 1)
    cocycle2 = cl.invariant_form_from_cocycle(rho2, exclusion, 2)
    potential2 = cl.invariant_form_from_potential_stencil(core, box,
                                                          exclusion)
    for spec in [cocycle1, pair_potential_spec(exclusion),
                 pair_potential_spec(exclusion) - cocycle1, cocycle2,
                 potential2, potential2 + cocycle2,
                 cl.invariant_spec_from_anchors(box, exclusion,
                                                random_anchors)]:
        assert spec.check_invariance() == []
        fresh = cl.InvariantFormSpec(spec.template, spec.form)
        assert fresh.check_invariance() == []


def test_potential_stencil_matches_dense_differential(mu_half):
    exclusion, nu, _, _ = exclusion_cocycle()
    spec = pair_potential_spec(exclusion)
    assert spec.stencil_radius == 1
    window = cl.lattice_window(1, radius=3)
    omega = spec.materialize(window, nu)
    # dense check: g restricted to the window is sum of eta_n eta_{n+1},
    # whose differential matches the materialized stencil on interior edges
    sites = cl.siteset(window.sites)
    g = cl.fn_constant(sites, 2, F(0))
    for n in range(-3, 3):
        g = g + cl.site_occupation(sites, 2, n) * \
            cl.site_occupation(sites, 2, n + 1)
    dense = cl.differential(g, exclusion, window)
    for e in cl.interior_edges(window, 2):
        assert omega.tables[e].minimized().equals(dense.tables[e].minimized())


def test_cocycle_form_needs_one_row_per_axis():
    exclusion, _, basis, rho = exclusion_cocycle()
    with pytest.raises(ValueError, match="expected 2"):
        cl.invariant_form_from_cocycle(rho, exclusion, 2)
    for rows in ([], [[F(1)], [F(1)]]):
        with pytest.raises(ValueError, match="expected 1"):
            cl.invariant_form_from_cocycle(
                cl.cocycle_from_coefficients(basis, rows), exclusion, 1)


# -- decomposition -----------------------------------------------------------

def test_decompose_pure_cocycle_round_trip():
    exclusion, nu, basis, rho = exclusion_cocycle()
    spec = cl.invariant_form_from_cocycle(rho, exclusion, 1)
    window = cl.lattice_window(1, radius=4)
    dec = cl.decompose_invariant_form(spec, window, nu, margin=2)
    assert dec.mode == "window"
    assert dec.cocycle.images == ((F(1),),)
    assert dec.checks["residual_interior_zero"]
    assert dec.checks["residual_stencil_zero"]
    assert dec.interior == cl.interior_edges(window, 2)


def test_decompose_pure_exact_part():
    exclusion, nu, basis, _ = exclusion_cocycle()
    spec = pair_potential_spec(exclusion)
    window = cl.lattice_window(1, radius=4)
    dec = cl.decompose_invariant_form(spec, window, nu, margin=2)
    assert dec.cocycle.images == ((F(0),),)
    omega = spec.materialize(window, nu)
    for e in cl.interior_edges(window, 2):
        assert dec.residual_form.tables[e].minimized().equals(
            omega.tables[e].minimized())


def test_decompose_mixture_recovers_both_parts():
    exclusion, nu, basis, rho = exclusion_cocycle()
    spec = pair_potential_spec(exclusion) + \
        cl.invariant_form_from_cocycle(rho, exclusion, 1)
    window = cl.lattice_window(1, radius=4)
    dec = cl.decompose_invariant_form(spec, window, nu, margin=2)
    assert dec.cocycle.images == ((F(1),),)
    exact = pair_potential_spec(exclusion).materialize(window, nu)
    for e in cl.interior_edges(window, 2):
        assert dec.residual_form.tables[e].minimized().equals(
            exact.tables[e].minimized())
    # the residual potential integrates the residual form on the window
    back = cl.differential(dec.residual_potential, exclusion, window)
    for e in back.edges:
        assert back.tables[e].equals(dec.residual_form.tables[e].embed(
            cl.siteset(window.sites)))
    assert dec.checks["residual_interior_invariant"]


def test_section_property_multicolor_basis():
    # three-state swap: two conserved quantities; the decomposition returns
    # each basis cocycle exactly
    inter = cl.exclusion_interaction(3)
    nu = cl.uniform_states(3)
    basis = cl.conserved_quantities(inter, nu)
    assert len(basis) == 2
    window = cl.lattice_window(1, radius=3)
    recovered = []
    for k in range(2):
        coeffs = [[F(1) if i == k else F(0) for i in range(2)]]
        rho = cl.cocycle_from_coefficients(basis, coeffs)
        spec = cl.invariant_form_from_cocycle(rho, inter, 1)
        dec = cl.decompose_invariant_form(spec, window, nu, margin=2)
        assert dec.cocycle.images == tuple(tuple(row) for row in coeffs)
        assert dec.checks["residual_interior_zero"]
        recovered.append(dec.cocycle.images[0])
    # independence of the recovered cocycles
    from colocal import linalg
    assert linalg.rank([list(r) for r in recovered]) == 2


def test_decompose_d2_localized():
    exclusion = cl.exclusion_interaction()
    nu = cl.bernoulli(F(1, 2))
    basis = cl.conserved_quantities(exclusion, nu)
    rho = cl.cocycle_from_coefficients(basis, [[F(1)], [F(2)]])
    spec = cl.invariant_form_from_cocycle(rho, exclusion, 2)
    window = cl.lattice_window(2, radius=3)
    dec = cl.decompose_invariant_form(spec, window, nu)
    assert dec.mode == "local"
    assert dec.cocycle.images == ((F(1),), (F(2),))
    assert dec.checks["residual_stencil_zero"]


def test_decompose_d2_mixture():
    exclusion = cl.exclusion_interaction()
    nu = cl.bernoulli(F(1, 2))
    basis = cl.conserved_quantities(exclusion, nu)
    rho = cl.cocycle_from_coefficients(basis, [[F(-2)], [F(1, 2)]])
    template = cl.lattice_window(2, radius=2)
    a = template.site_at((0, 0))
    b = template.site_at((1, 0))
    core = cl.site_occupation(cl.siteset([a, b]), 2, a) * \
        cl.site_occupation(cl.siteset([a, b]), 2, b)
    spec_g = cl.invariant_form_from_potential_stencil(core, template, exclusion)
    spec = spec_g + cl.invariant_form_from_cocycle(rho, exclusion, 2)
    dec = cl.decompose_invariant_form(spec, cl.lattice_window(2, radius=3), nu)
    assert dec.cocycle.images == ((F(-2),), (F(1, 2),))
    for axis in range(2):
        lhs = dec.residual_spec.anchor_table(axis).minimized()
        rhs = spec_g.anchor_table(axis).minimized()
        support = lhs.sites.union(rhs.sites)
        assert lhs.embed(support).equals(rhs.embed(support))


def test_trivial_action_on_kernel(mu_half):
    # matching components by conserved totals, the shifted kernel indicator
    # equals the indicator of the matching component on the shifted window
    exclusion = cl.exclusion_interaction()
    nu = cl.bernoulli(F(1, 2))
    basis = cl.conserved_quantities(exclusion, nu)
    window = cl.lattice_window(1, radius=2)
    sigma = cl.translation_map(window, (1,))
    sub = cl.siteset([-1, 0])
    moved_sub = sigma.map_siteset(sub)
    kb = cl.kernel_basis(sub, exclusion, window, mu_half)
    kb_moved = cl.kernel_basis(moved_sub, exclusion, window, mu_half)

    def totals_of(sites, table):
        space = cl.ConfigSpace(sites, 2)
        support = [i for i in range(space.size) if table.values[i] == 1]
        return {tuple(xi.total(space.decode(i)) for xi in basis)
                for i in support}

    for ind in kb.indicators:
        moved = cl.group_act(sigma, ind)
        match = [m for m in kb_moved.indicators
                 if totals_of(moved_sub, m) == totals_of(moved_sub, moved)]
        assert len(match) == 1 and match[0].equals(moved)


# -- error paths -----------------------------------------------------------------

def doubled_off_anchor_spec(rho, exclusion):
    """The cocycle's stencil with the table of the non-anchor edge (-1, 0)
    doubled: not translation-consistent."""
    anchor = cl.invariant_form_from_cocycle(rho, exclusion, 1).anchor_table(0)
    template = cl.lattice_window(1, radius=1)
    tables = {
        (-1, 0): cl.FnTable(cl.siteset([-1, 0]), 2,
                            tuple(2 * v for v in anchor.values)),
        (0, 1): cl.FnTable(cl.siteset([0, 1]), 2, anchor.values),
    }
    form = cl.Form(cl.siteset(template.sites), exclusion,
                   ((-1, 0), (0, 1)), tables)
    return cl.InvariantFormSpec(template, form)


def test_decompose_not_invariant():
    exclusion, nu, basis, rho = exclusion_cocycle()
    spec = doubled_off_anchor_spec(rho, exclusion)
    with pytest.raises(cl.NotInvariant):
        cl.decompose_invariant_form(spec, cl.lattice_window(1, radius=4), nu)


def test_a_sum_with_an_inconsistent_stencil_is_not_invariant():
    """Adding or subtracting stencils keeps only the anchors, so either
    operand that is not translation-consistent raises NotInvariant with
    its own mismatched edges, in either order."""
    exclusion, nu, basis, rho = exclusion_cocycle()
    bad = doubled_off_anchor_spec(rho, exclusion)
    good = pair_potential_spec(exclusion)
    assert bad.check_invariance() == [(-1, 0)]
    for combine in (lambda: bad + good, lambda: good + bad,
                    lambda: bad - good, lambda: good - bad):
        with pytest.raises(cl.NotInvariant) as info:
            combine()
        assert info.value.message == \
            "template form is not translation-consistent"
        assert info.value.details["edges"] == [(-1, 0)]


def test_decompose_not_closed():
    exclusion = cl.exclusion_interaction()
    nu = cl.bernoulli(F(1, 2))
    template = cl.lattice_window(1, radius=2)
    support = cl.siteset([-1, 0, 1])
    space = cl.ConfigSpace(support, 2)
    values = []
    for i in range(8):
        a = space.decode(i)   # digits at -1, 0, 1
        values.append(F(a[0]) * (F(a[1]) - F(a[2])))
    anchor = cl.FnTable(support, 2, tuple(values))
    spec = cl.invariant_spec_from_anchors(template, exclusion, [anchor])
    assert spec.check_invariance() == []
    with pytest.raises(cl.NotClosed):
        cl.decompose_invariant_form(spec, cl.lattice_window(1, radius=4), nu)


def test_decompose_residue_not_conserved():
    # swapping only states 1 and 2 is not irreducibly quantified: blocked
    # zeros split level sets, and the probe solves detect it
    inter = cl.make_interaction((0, 1, 2), 0, {(1, 2): (2, 1), (2, 1): (1, 2)})
    nu = cl.uniform_states(3)
    assert not cl.check_iq(inter, nu, [cl.lattice_window(1, radius=1)]).ok
    basis = cl.conserved_quantities(inter, nu)
    rho = cl.cocycle_from_coefficients(basis, [[F(1), F(0)]])
    spec = cl.invariant_form_from_cocycle(rho, inter, 1)
    with pytest.raises(cl.ResidueNotConserved):
        cl.decompose_invariant_form(spec, cl.lattice_window(1, radius=3), nu,
                                    margin=1)


def test_decompose_window_too_small():
    exclusion, nu, basis, rho = exclusion_cocycle()
    spec = cl.invariant_form_from_cocycle(rho, exclusion, 1)
    with pytest.raises(cl.WindowTooSmall):
        cl.decompose_invariant_form(spec, cl.lattice_window(1, radius=1), nu,
                                    margin=5)


def test_decompose_rejects_a_stencil_nonzero_on_fixed_configurations():
    # omega_(0,1)(0, 0) = 3, where exclusion fixes the pair: not a form
    exclusion, nu, _, _ = exclusion_cocycle()
    anchor = cl.FnTable(cl.siteset([0, 1]), 2, (F(3), F(1), F(-1), F(0)))
    spec = cl.invariant_spec_from_anchors(cl.lattice_window(1, radius=1),
                                          exclusion, [anchor])
    with pytest.raises(cl.MalformedForm, match="fixed configuration"):
        cl.decompose_invariant_form(spec, cl.lattice_window(1, radius=3), nu)


# -- window-mode round trip as a property -------------------------------------

@st.composite
def window_round_trips(draw):
    """d=1, 2 or 3 states, a product measure, radius 3-5, a random cocycle
    plus the stencil of a random potential core on 2 or 3 sites."""
    n = draw(st.sampled_from([2, 3]))
    core_len = draw(st.sampled_from([2, 3]))
    radius = draw(st.integers(core_len + 1, 5))
    raw = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    nu = cl.state_measure([F(w, sum(raw)) for w in raw])
    ratio = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
    inter = cl.exclusion_interaction(n)
    basis = cl.conserved_quantities(inter, nu)
    rho = cl.cocycle_from_coefficients(
        basis, [draw(st.lists(ratio, min_size=len(basis),
                              max_size=len(basis)))])
    template = cl.lattice_window(1, radius=core_len)
    core_sites = cl.siteset(range(core_len))
    core = cl.FnTable(core_sites, n, tuple(draw(st.lists(
        ratio, min_size=n ** core_len, max_size=n ** core_len))))
    spec = cl.invariant_form_from_potential_stencil(core, template, inter) + \
        cl.invariant_form_from_cocycle(rho, inter, 1)
    return spec, cl.lattice_window(1, radius=radius), nu, rho


@settings(max_examples=25)
@given(window_round_trips())
def test_window_mode_round_trip(case):
    spec, window, nu, rho = case
    dec = cl.decompose_invariant_form(spec, window, nu)
    assert dec.mode == "window"
    assert dec.cocycle.images == rho.images
    # the dense differential of the residual potential is the oracle of
    # the residual form, on every window edge
    back = cl.differential(dec.residual_potential, spec.interaction, window)
    sites = cl.siteset(window.sites)
    assert back.edges == dec.residual_form.edges
    for e in back.edges:
        assert back.tables[e] == dec.residual_form.tables[e].embed(sites)
    assert cl.expectation(dec.residual_potential, cl.ProductMeasure(nu)) == 0
    assert dec.checks["residual_interior_invariant"]


@settings(max_examples=15)
@given(window_round_trips(), st.data())
def test_window_and_local_mode_return_the_same_cocycle(case, data):
    """Cross-mode oracle on d=1 windows: local mode, forced by a state cap
    below the window's configuration count (at least three sites' worth),
    returns the cocycle that window mode returns, the seeded one."""
    spec, window, nu, rho = case
    n = spec.interaction.n_states
    cap = data.draw(st.integers(n ** 3, n ** len(window.sites) - 1),
                    label="state_cap")
    full = cl.decompose_invariant_form(spec, window, nu)
    local = cl.decompose_invariant_form(spec, window, nu, state_cap=cap)
    assert (full.mode, local.mode) == ("window", "local")
    assert local.cocycle.images == full.cocycle.images == rho.images


@settings(max_examples=10)
@given(window_round_trips())
def test_residual_potential_is_theta_minus_theta_rho_minus_its_mean(case):
    """Window mode's residual potential, built when first read, is theta -
    theta_rho - E[theta], with theta solved here on the materialized
    window; local mode has none."""
    spec, window, nu, rho = case
    dec = cl.decompose_invariant_form(spec, window, nu)
    theta = cl.solve_potential(spec.materialize(window, nu))
    mean = cl.expectation(theta, cl.ProductMeasure(nu))
    expected = (theta - cl.theta_from_cocycle(rho, window)).shift(-mean)
    assert dec.mode == "window"
    assert dec.residual_potential.values == expected.values
    assert dec.residual_potential.sites == expected.sites
    n = spec.interaction.n_states
    local = cl.decompose_invariant_form(spec, window, nu, state_cap=n ** 3)
    assert local.mode == "local" and local.residual_potential is None
