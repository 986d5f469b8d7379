import itertools
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import colocal as cl
from colocal import varadhan
from colocal.cli import main
from colocal.measure import _site_components
from conftest import rank_mod, three_state_d2_stencil_not_closed

GOLDEN = Path(__file__).parent / "golden"


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


@pytest.mark.parametrize("dim, rows", [(2, 1), (1, 2)],
                         ids=["too-few", "too-many"])
@pytest.mark.parametrize("call", [
    cl.theta_from_cocycle,
    lambda rho, window: cl.omega_from_cocycle(rho, window,
                                              cl.exclusion_interaction()),
    cl.verify_cocycle_identity], ids=["theta", "omega", "identity"])
def test_cocycle_functions_need_one_generator_per_window_axis(call, dim,
                                                              rows):
    _, _, basis, _ = exclusion_cocycle()
    rho = cl.cocycle_from_coefficients(basis, [[F(1)]] * rows)
    with pytest.raises(ValueError) as info:
        call(rho, cl.lattice_window(dim, radius=1))
    assert str(info.value) == (
        f"cocycle has {rows} generator rows, expected {dim}")


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


def not_closed_d1_spec(exclusion, reach=-1):
    """omega_(0,1) = eta_reach (eta_0 - eta_1) on two-state exclusion, with
    reach -1 or 2: a move across the edge beyond ``reach`` changes it, and
    that edge's table does not read 0 or 1, so their square has a nonzero
    integral."""
    template = cl.lattice_window(1, radius=2)
    support = cl.siteset([0, 1, reach])
    space = cl.ConfigSpace(support, 2)
    values = []
    for i in range(8):
        a = dict(zip(support, space.decode(i)))
        values.append(F(a[reach]) * (F(a[0]) - F(a[1])))
    anchor = cl.FnTable(support, 2, tuple(values))
    spec = cl.invariant_spec_from_anchors(template, exclusion, [anchor])
    assert spec.check_invariance() == []
    return spec


def test_decompose_not_closed():
    exclusion = cl.exclusion_interaction()
    nu = cl.bernoulli(F(1, 2))
    spec = not_closed_d1_spec(exclusion)
    with pytest.raises(cl.NotClosed):
        cl.decompose_invariant_form(spec, cl.lattice_window(1, radius=4), nu)


def recorded_solves(monkeypatch) -> list:
    """Record the site set of every potential solve varadhan runs."""
    calls, real = [], varadhan.solve_potential

    def record(form, *args, **kwargs):
        calls.append(form.sites)
        return real(form, *args, **kwargs)
    monkeypatch.setattr(varadhan, "solve_potential", record)
    return calls


def test_decompose_residue_not_conserved(monkeypatch):
    # swapping only states 1 and 2 is not irreducibly quantified: blocked
    # zeros split level sets, and the interior's shift residues of the
    # window-mode solve (3^7 configurations; the rule is outside the
    # local-cycle certificate, so the whole window is solved) detect it
    inter = cl.make_interaction((0, 1, 2), 0, {(1, 2): (2, 1), (2, 1): (1, 2)})
    nu = cl.uniform_states(3)
    assert not cl.check_iq(inter, nu, [cl.lattice_window(1, radius=1)]).ok
    basis = cl.conserved_quantities(inter, nu)
    rho = cl.cocycle_from_coefficients(basis, [[F(1), F(0)]])
    spec = cl.invariant_form_from_cocycle(rho, inter, 1)
    window = cl.lattice_window(1, radius=3)
    solved = recorded_solves(monkeypatch)
    with pytest.raises(cl.ResidueNotConserved):
        cl.decompose_invariant_form(spec, window, nu, margin=1)
    assert solved == [cl.siteset(window.sites)]


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


# -- nu is a StateMeasure ------------------------------------------------------

@pytest.mark.parametrize("cut", [False, True])
def test_a_plain_list_for_nu_is_rejected_before_anything_is_built(cut):
    """With a boundary cut (the pair potential's anchor reads a site beyond
    the window edge) or without one (the cocycle's anchor reads only its
    edge), both entry points raise a ValueError that names nu."""
    exclusion, nu, basis, rho = exclusion_cocycle()
    spec = (pair_potential_spec(exclusion) if cut
            else cl.invariant_form_from_cocycle(rho, exclusion, 1))
    window = cl.lattice_window(1, radius=3)
    weights = list(nu.weights)
    with pytest.raises(ValueError, match="nu must be a StateMeasure, got list"):
        spec.materialize(window, weights)
    with pytest.raises(ValueError, match="nu must be a StateMeasure, got list"):
        cl.decompose_invariant_form(spec, window, weights)


# -- local-mode closedness -------------------------------------------------------

def assert_witness_integral(err, spec, window, nu):
    """The witness is a cycle on the sites its edges read: its integral over
    the stencil placed there is the reported one, and nonzero."""
    form = spec.materialize(window, nu, keep=err.witness.start.sites)
    assert err.integral != 0
    assert cl.path_integral(form, err.witness) == err.integral


@pytest.mark.parametrize("reach, f, union", [(-1, (-2, -1), range(-3, 2)),
                                              (2, (2, 3), range(0, 5))])
def test_local_mode_rejects_a_d1_stencil_on_its_square(reach, f, union):
    exclusion = cl.exclusion_interaction()
    nu = cl.bernoulli(F(1, 2))
    spec = not_closed_d1_spec(exclusion, reach)
    window = cl.lattice_window(1, radius=4)
    with pytest.raises(cl.NotClosed) as info:
        # 2^9 configurations: local mode; the square's union is 2^5
        cl.decompose_invariant_form(spec, window, nu, state_cap=2 ** 5)
    err = info.value
    assert err.details["cycle_length"] == 4
    assert err.witness.edges == ((0, 1), f, (1, 0), f[::-1])
    assert err.witness.start.sites == cl.siteset(union)
    assert_witness_integral(err, spec, window, nu)


def test_local_mode_rejects_a_perturbed_d2_cocycle_stencil():
    """One more unit on the axis-0 anchor where eta_o = 1 and eta_t = 0, a
    configuration the swap moves: the anchor is no longer alternating, and
    the plaquette solve reports a cycle on the plaquette's four sites."""
    exclusion = cl.exclusion_interaction()
    nu = cl.bernoulli(F(2, 5))
    basis = cl.conserved_quantities(exclusion, nu)
    rho = cl.cocycle_from_coefficients(basis, [[F(1)], [F(2)]])
    spec = cl.invariant_form_from_cocycle(rho, exclusion, 2)
    anchors = [spec.anchor_table(axis) for axis in range(2)]
    values = list(anchors[0].values)
    values[1] += 1   # digits (1, 0) at (o, t)
    anchors[0] = cl.FnTable(anchors[0].sites, 2, tuple(values))
    bad = cl.invariant_spec_from_anchors(spec.template, exclusion, anchors)
    window = cl.lattice_window(2, radius=3)
    with pytest.raises(cl.NotClosed) as info:
        cl.decompose_invariant_form(bad, window, nu)
    err = info.value
    origin = window.site_at((0, 0))
    assert err.witness.start.sites == cl.siteset(
        [origin, origin + 1, origin + 7, origin + 8])
    assert_witness_integral(err, bad, window, nu)


def test_a_d2_stencil_closed_on_the_radius_1_box_but_not_on_radius_2():
    """A radius-1 stencil: (eta_t - eta_o)(eta_{o-1} - m)(eta_{t+1} - m) on
    the horizontal anchor (o, t), with m the mean of a state under nu, and
    0 on the vertical one.  Every horizontal edge of the radius-1 box has
    o - 1 or t + 1 outside it, so the box's form is 0 and the box solve
    local mode used to run passes.  On the radius-2 box the centre's
    horizontal edges read both, and a move at t + 1 across a vertical edge
    changes omega_(o,t) while the vertical tables stay 0: not closed.  The
    local-cycle certificate finds that square."""
    exclusion = cl.exclusion_interaction()
    nu = cl.bernoulli(F(2, 5))
    m = F(2, 5)
    template = cl.lattice_window(2, radius=2)
    origin = template.site_at((0, 0))
    support = cl.siteset([origin - 1, origin, origin + 1, origin + 2])
    space = cl.ConfigSpace(support, 2)
    values = []
    for i in range(space.size):
        before, o, t, after = space.decode(i)
        values.append((t - o) * (before - m) * (after - m))
    horizontal = cl.FnTable(support, 2, tuple(values))
    vertical = cl.fn_zeros(cl.siteset([origin, origin + 5]), 2)
    spec = cl.invariant_spec_from_anchors(template, exclusion,
                                          [vertical, horizontal])
    assert spec.stencil_radius == 1
    on_box = spec.materialize(cl.lattice_window(2, radius=1), nu)
    assert on_box.is_zero()
    cl.solve_potential(on_box)
    # the radius-2 box (2^25 configurations, over the cap) is read along
    # one square: e = (0,-1)-(0,0), f = (0,1)-(1,1)
    box = cl.lattice_window(2, radius=2)
    at = box.site_at
    start = {at((0, -2)): 1, at((0, -1)): 1, at((0, 1)): 1}
    e, f = (at((0, -1)), at((0, 0))), (at((0, 1)), at((1, 1)))
    square = cl.Path(cl.Config(cl.siteset(box.sites), tuple(
        start.get(s, 0) for s in box.sites)), (e, f, e[::-1], f[::-1]))
    assert cl.path_integral(spec.materialize(box, nu), square) == m - 1
    # the window holds every local cycle, so the witness is on its sites
    window = cl.lattice_window(2, radius=4)
    with pytest.raises(cl.NotClosed) as info:
        cl.decompose_invariant_form(spec, window, nu)
    assert info.value.details["cycle_length"] == 4
    assert_witness_integral(info.value, spec, window, nu)


def test_closedness_check_names_the_branch_that_ran():
    """Local cycles for the d=2 two-state cocycle stencil; the box solve,
    on the largest box the cap admits, where a space the certificate reads
    exceeds the state cap (the pair potential's radius-1 stencil: 5 sites
    in its window cycle's union, more in its squares'), and for
    three-state exclusion in d=2, where the local cycles are not known to
    span.  The cocycle is read off whichever solve ran."""
    exclusion = cl.exclusion_interaction()
    nu = cl.bernoulli(F(1, 2))
    basis = cl.conserved_quantities(exclusion, nu)
    rho = cl.cocycle_from_coefficients(basis, [[F(1)], [F(2)]])
    spec = cl.invariant_form_from_cocycle(rho, exclusion, 2)
    dec = cl.decompose_invariant_form(spec, cl.lattice_window(2, radius=3),
                                      nu)
    assert dec.checks == {"mode": "local", "margin": 1, "stencil_radius": 0,
                          "closedness": "local_cycles",
                          "residual_stencil_zero": True}

    assert dec.cocycle.images == rho.images

    rho1 = cl.cocycle_from_coefficients(basis, [[F(-3, 2)]])
    pair = pair_potential_spec(exclusion) + \
        cl.invariant_form_from_cocycle(rho1, exclusion, 1)
    for cap, box in ((2 ** 4, 1), (2 ** 5, 2)):
        dec = cl.decompose_invariant_form(pair, cl.lattice_window(1, radius=3),
                                          nu, state_cap=cap)
        assert dec.checks == {"mode": "local", "margin": 2,
                              "stencil_radius": 1, "closedness": "box",
                              "closedness_window_radius": box,
                              "residual_stencil_zero": False}
        assert dec.cocycle.images == rho1.images

    three = cl.exclusion_interaction(3)
    nu3 = cl.uniform_states(3)
    basis3 = cl.conserved_quantities(three, nu3)
    rho3 = cl.cocycle_from_coefficients(basis3, [[F(1), F(0)], [F(0), F(2)]])
    spec3 = cl.invariant_form_from_cocycle(rho3, three, 2)
    dec = cl.decompose_invariant_form(spec3, cl.lattice_window(2, radius=2),
                                      nu3)
    assert (dec.checks["closedness"],
            dec.checks["closedness_window_radius"]) == ("box", 1)
    assert dec.cocycle.images == rho3.images


def test_local_mode_without_room_for_a_closedness_solve_is_space_too_large():
    """The cocycle is read off the closedness solve, so where neither the
    local cycles (outside their gate for three states in d=2) nor the
    radius-1 box fit the cap there is no result: SpaceTooLarge.  With room
    for the box, its solve finds a cycle of nonzero integral."""
    spec, nu = three_state_d2_stencil_not_closed()
    window = cl.lattice_window(2, radius=2)
    with pytest.raises(cl.SpaceTooLarge) as info:
        cl.decompose_invariant_form(spec, window, nu, state_cap=3 ** 8)
    assert str(info.value) == (
        "closedness box of radius 1 has 19683 configurations (cap 6561) "
        "(size=19683, cap=6561)")
    with pytest.raises(cl.NotClosed) as info:
        cl.decompose_invariant_form(spec, window, nu, state_cap=3 ** 9)
    # the witness is in the site ids of the radius-1 box
    assert_witness_integral(info.value, spec, cl.lattice_window(2, radius=1),
                            nu)


# -- local cycles span the cycle space -----------------------------------------

def exclusion_local_cycles(shape, n):
    """The configuration graph of n-state exclusion on a box of the given
    shape (coordinates ascending, nearest-neighbour site edges), built here
    by hand: (local cycles, squares only, cycle rank).  Each cycle is a
    sparse vector over the undirected links, +1 where a step goes up in
    index.  Squares: two disjoint site edges, each moving, once per square.
    Window cycles: the fundamental cycles of a search tree of the moves
    inside one window (three consecutive sites on a path, a plaquette on a
    d=2 box) from each configuration it reaches.  The cycle rank is links -
    configurations + components; a component is a multiset of states."""
    sites = list(itertools.product(*(range(k) for k in shape)))
    pos = {c: k for k, c in enumerate(sites)}
    edges = [(pos[c], pos[tip]) for c in sites for axis in range(len(shape))
             if (tip := tuple(x + (k == axis) for k, x in enumerate(c)))
             in pos]
    configs = list(itertools.product(range(n), repeat=len(sites)))
    index = {c: k for k, c in enumerate(configs)}

    def move(c, e):
        c = list(c)
        c[e[0]], c[e[1]] = c[e[1]], c[e[0]]
        return tuple(c)

    links = {}
    for c in configs:
        for e in edges:
            if c[e[0]] != c[e[1]]:
                links.setdefault((min(index[c], index[move(c, e)]), e),
                                 len(links))

    def cycle(start, steps):
        row, c = {}, start
        for e in steps:
            d = move(c, e)
            k = links[(min(index[c], index[d]), e)]
            row[k] = row.get(k, 0) + (1 if index[c] < index[d] else -1)
            c = d
        assert c == start
        return row

    squares = [cycle(c, (e, f, e, f))
               for e, f in itertools.combinations(edges, 2)
               if not set(e) & set(f)
               for c in configs if c[e[0]] < c[e[1]] and c[f[0]] < c[f[1]]]
    if len(shape) == 1:
        windows = [(k, k + 1, k + 2) for k in range(len(sites) - 2)]
    else:
        windows = [tuple(pos[(x + a, y + b)] for a in (0, 1) for b in (0, 1))
                   for x in range(shape[0] - 1) for y in range(shape[1] - 1)]
    rounds = []
    for window in windows:
        inside = [e for e in edges if e[0] in window and e[1] in window]
        parent = {}
        for root in configs:
            if root in parent:
                continue
            parent[root] = None
            reached = [root]
            for c in reached:
                for e in inside:
                    if c[e[0]] != c[e[1]] and move(c, e) not in parent:
                        parent[move(c, e)] = (c, e)
                        reached.append(move(c, e))

            def steps_to(c):
                steps = []
                while parent[c] is not None:
                    c, e = parent[c]
                    steps.append(e)
                return steps[::-1]
            for c in reached:
                for e in inside:
                    d = move(c, e)
                    if (c[e[0]] != c[e[1]] and index[c] < index[d]
                            and (c, e) != parent[d] and (d, e) != parent[c]):
                        rounds.append(cycle(root, steps_to(c) + [e]
                                            + steps_to(d)[::-1]))
    components = len({tuple(sorted(c)) for c in configs})
    return (squares + rounds, squares,
            len(links) - len(configs) + components)


@pytest.mark.parametrize("shape, n, rank, squares_rank", [
    ((6,), 2, 23, 23), ((8,), 2, 201, 201), ((5,), 3, 102, 81),
    ((3, 2), 2, 55, 41), ((3, 3), 2, 1034, None)])
def test_local_cycles_span_the_cycle_space(shape, n, rank, squares_rank):
    """Squares and window cycles have the cycle rank of exclusion's
    configuration graph, by their rank mod 2^31 - 1.  Every row is a cycle
    and a rank mod p is at most the rational rank, so equality proves the
    span over Q on that box.  The two-state 3x3 box is the box the d=2
    certificate's gate rests on (see ``varadhan._certify_closed``); where
    squares alone fall short, the window cycles are needed.  All five cases
    take about 0.2 s."""
    cycles, squares, cycle_rank = exclusion_local_cycles(shape, n)
    assert cycle_rank == rank
    assert rank_mod(cycles, (1 << 31) - 1) == rank
    if squares_rank is not None:
        assert rank_mod(squares, (1 << 31) - 1) == squares_rank


# -- the certificate against window mode ----------------------------------------

@st.composite
def perturbed_round_trips(draw):
    """A ``window_round_trips`` stencil with its anchor moved by delta
    (possibly 0) at one configuration that the swap moves, and, if drawn,
    by -delta at its image, which keeps the anchor alternating; still zero
    where phi fixes."""
    spec, _, nu, _ = draw(window_round_trips())
    anchor = spec.anchor_table(0)
    space = anchor.space
    o, t = (anchor.sites.position(s) for s in spec.anchor_edge(0))
    moved = [i for i in range(space.size)
             if space.decode(i)[o] != space.decode(i)[t]]
    i = draw(st.sampled_from(moved), label="configuration")
    delta = draw(st.one_of(st.just(F(0)), st.builds(
        F, st.integers(-3, 3), st.integers(1, 3))), label="delta")
    values = list(anchor.values)
    values[i] += delta
    if draw(st.booleans(), label="alternating"):
        digits = list(space.decode(i))
        digits[o], digits[t] = digits[t], digits[o]
        values[space.encode(digits)] -= delta
    anchor = cl.FnTable(anchor.sites, anchor.n_states, tuple(values))
    return cl.invariant_spec_from_anchors(spec.template, spec.interaction,
                                          [anchor]), nu


@settings(max_examples=20)
@given(perturbed_round_trips(), st.data())
def test_local_cycle_certificate_against_window_mode(case, data):
    """Local mode on the d=1 window of radius R + 3 (R the stencil radius),
    forced by a cap of n^k with k drawn from 3 to 3R + 3: n^(3R + 3) holds
    every space the certificate reads, and smaller caps may leave room for
    a box only.  Window mode, which runs the certificate too, raises
    NotClosed exactly where a solve on the whole window does, and
    otherwise returns the cocycle of that solve's single-site residues.
    Where the certificate passes, window mode on the same window passes
    too and returns the same cocycle; where the box passes, window mode
    returns the same cocycle or finds the stencil not closed beyond the
    box; where either raises, the witness integrates to the reported
    integral (the box's witness is in the window's site ids, as every d=1
    chart's ids are coordinates)."""
    spec, nu = case
    n, radius = spec.interaction.n_states, spec.stencil_radius
    window = cl.lattice_window(1, radius=radius + 3)
    k = data.draw(st.integers(3, 3 * radius + 3), label="cap exponent")
    try:
        full = cl.decompose_invariant_form(spec, window, nu)
        assert full.mode == "window"
    except cl.NotClosed as err:
        assert_witness_integral(err, spec, window, nu)
        full = None
    try:
        theta = cl.solve_potential(spec.materialize(window, nu))
    except cl.NotClosed:
        assert full is None
    else:
        assert full is not None
        edges = cl.interior_edges(window, full.margin)
        assert site_component_residues(theta, edges, nu) == \
            [full.cocycle.generator_state_table(0)] * len(edges)
    try:
        local = cl.decompose_invariant_form(spec, window, nu,
                                            state_cap=n ** k)
    except cl.NotClosed as err:
        assert_witness_integral(err, spec, window, nu)
        return
    assert local.mode == "local"
    assert k < 3 * radius + 3 or local.checks["closedness"] == "local_cycles"
    if full is None:
        assert local.checks["closedness"] == "box"
        return
    assert full.cocycle.images == local.cocycle.images


# -- the shift residue read off the form's edge tables -------------------------

@st.composite
def stencils_of_closed_forms(draw):
    """A rule, a product measure and an invariant stencil of a closed form:
    exclusion in d=1 with 2 or 3 states or in d=2 with two, or the rule
    that swaps only states 1 and 2 in d=1 (not a swap of every pair); the
    stencil of a random potential core on 1 or 2 sites along axis 0 (a
    one-site core's stencil is zero: its translates sum to a conserved
    total), plus, if drawn, the canonical form of a random cocycle."""
    dim, n, swap = draw(st.sampled_from([(1, 2, True), (1, 3, True),
                                         (2, 2, True), (1, 3, False)]))
    inter = (cl.exclusion_interaction(n) if swap else cl.make_interaction(
        (0, 1, 2), 0, {(1, 2): (2, 1), (2, 1): (1, 2)}))
    raw = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    nu = cl.state_measure([F(w, sum(raw)) for w in raw])
    ratio = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
    template = cl.lattice_window(dim, radius=2)
    core_len = draw(st.sampled_from([1, 2]))
    core_sites = cl.siteset(template.site_at((k,) + (0,) * (dim - 1))
                            for k in range(core_len))
    core = cl.FnTable(core_sites, n, tuple(draw(st.lists(
        ratio, min_size=n ** core_len, max_size=n ** core_len))))
    spec = cl.invariant_form_from_potential_stencil(core, template, inter)
    if draw(st.booleans(), label="cocycle"):
        basis = cl.conserved_quantities(inter, nu)
        rho = cl.cocycle_from_coefficients(basis, [
            draw(st.lists(ratio, min_size=len(basis), max_size=len(basis)))
            for _ in range(dim)])
        spec = spec + cl.invariant_form_from_cocycle(rho, inter, dim)
    return spec, nu, swap


def site_component_residues(theta, edges, nu):
    """Oracle: per edge (o, t), the single-site components of theta at t
    minus those at o, from one pass over theta."""
    singles, _ = _site_components(theta, cl.ProductMeasure(nu))
    return [tuple(a - b for a, b in zip(singles[t], singles[o]))
            for o, t in edges]


@settings(max_examples=30)
@given(stencils_of_closed_forms(), st.integers(2, 3))
def test_edge_residues_equal_the_potentials_site_component_residues(case,
                                                                    radius):
    """On every edge of each solve decompose may read (the whole window,
    with boundary cuts, which window mode solves outside the certificate's
    gate; the local-cycle certificate's solve; the closedness box), the
    residue read off the solved form equals the one read off the
    single-site components of its potential.
    For a swap rule it comes from the edge's table alone, for the partial
    swap from the potential."""
    spec, nu, swap = case
    n, dim = spec.interaction.n_states, spec.dim
    window = cl.lattice_window(dim, radius=radius if dim == 1 else 1)
    omega = spec.materialize(window, nu)
    solves = [(omega, cl.solve_potential(omega))]
    certified = varadhan._certify_closed(spec, window, cl.DEFAULT_STATE_CAP)
    assert (certified is None) == (not swap)
    for solved in (certified, varadhan._validate_closed_locally(
            spec, nu, n ** 9)):
        if solved is not None:
            solves.append(solved[1:])
    for form, theta in solves:
        assert form.sites == theta.sites
        assert varadhan._residues(form, theta, form.edges,
                                  cl.ProductMeasure(nu)) == \
            site_component_residues(theta, form.edges, nu)


def test_window_mode_exclusion_reads_no_site_components(tmp_path,
                                                        monkeypatch):
    """A window-mode exclusion run reads its cocycle off the form's edge
    tables, certifies closedness on local cycles, and never takes E[theta]
    or solves on the whole window: with the first two raising and the
    solves recorded, the golden bytes are still written.  The residual
    potential solves the window and takes the mean when read, under the
    cap of the window's own space, past the default one."""
    def raising(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return call
    monkeypatch.setattr(varadhan, "_site_components",
                        raising("_site_components"))
    monkeypatch.setattr(varadhan, "expectation", raising("expectation"))
    solved = recorded_solves(monkeypatch)
    for name, radius in (("varadhan-window", 3), ("varadhan-window-margin", 4),
                         ("varadhan-local-d2", None)):
        out = tmp_path / f"{name}.out.json"
        assert main(["varadhan", "--input", str(GOLDEN / f"{name}.json"),
                     "--output", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / f"{name}.out.json").read_bytes()
        if radius is not None:
            window = cl.siteset(cl.lattice_window(1, radius).sites)
            assert solved and window not in solved
        solved.clear()
    exclusion, nu, _, rho = exclusion_cocycle(F(3, 7))
    spec = cl.invariant_form_from_cocycle(rho, exclusion, 1)
    window = cl.lattice_window(1, radius=3)
    dec = cl.decompose_invariant_form(spec, window, nu)
    assert dec.mode == "window" and dec.cocycle.images == rho.images
    assert cl.siteset(window.sites) not in solved
    with pytest.raises(AssertionError, match="expectation called"):
        dec.residual_potential
    assert solved[-1] == cl.siteset(window.sites)
    monkeypatch.undo()
    # 2^21 configurations, past DEFAULT_STATE_CAP
    window = cl.lattice_window(1, radius=10)
    dec = cl.decompose_invariant_form(spec, window, nu, state_cap=2 ** 21)
    assert dec.mode == "window"
    residual = dec.residual_potential
    assert residual.sites == cl.siteset(window.sites)
    # d theta = d theta_rho: constant on each of the 22 particle counts
    assert len(set(residual.numerators[0])) <= 22
