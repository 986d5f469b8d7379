"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime.  Expected values are frozen from independent oracles
(sympy nullspace, hand enumeration, brute-force rank and cycle checks)."""

import json
import random
import time
from fractions import Fraction as F

import colocal as cl
from conftest import differential_rank, rand_table

EXCLUSION = cl.exclusion_interaction()
HALF = cl.bernoulli(F(1, 2))
MU = cl.ProductMeasure(HALF)


def _report(name, elapsed, budget=None):
    note = f" ({elapsed:.2f}s" + (f" < {budget}s)" if budget else ")")
    print(f"ACCEPTANCE {name}: PASS{note}")


def test_criterion_1_conserved_quantities():
    start = time.time()
    basis = cl.conserved_quantities(EXCLUSION, HALF)
    assert len(basis) == 1
    xi = basis[0].xi
    assert xi[1] - xi[0] == 1
    assert HALF.mean(xi) == 0

    # independent oracle: sympy nullspace of the same constraint system
    import sympy

    rows = []
    for (i, j), (i2, j2) in EXCLUSION.changed_pairs():
        row = [0, 0]
        row[i2] += 1
        row[j2] += 1
        row[i] -= 1
        row[j] -= 1
        rows.append(row)
    rows.append([sympy.Rational(1, 2), sympy.Rational(1, 2)])  # mean zero
    oracle = sympy.Matrix(rows).nullspace()
    assert len(oracle) == len(basis)
    vec = [sympy.Rational(v.numerator, v.denominator) for v in xi]
    coeffs = sympy.Matrix([list(o) for o in oracle]).T.solve(sympy.Matrix(vec))
    assert all(c.is_rational for c in coeffs)
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report("1 conserved-quantities", elapsed, 1)


def test_criterion_2_expansion():
    start = time.time()
    rng = random.Random(101)
    sites_pool = [0, 1, 2, 3]
    for trial in range(100):
        k = 1 + trial % 4
        sites = cl.siteset(sites_pool[:k])
        f = rand_table(rng, sites)
        expansion = cl.expand_martingale(f, HALF)
        assert expansion.reconstruct().equals(f)
        for target in expansion.components:
            for sub, table in expansion.components.items():
                if set(sub) <= set(target):
                    continue
                projected = cl.conditional_expectation(
                    table.embed(sites), cl.siteset(target), MU)
                assert projected.is_zero()
    pair = cl.siteset([0, 1])
    fxy = cl.site_occupation(pair, 2, 0) * cl.site_occupation(pair, 2, 1)
    expansion = cl.expand_martingale(fxy, HALF)
    assert expansion.component((0, 1)).values == (F(1, 4), F(-1, 4),
                                                  F(-1, 4), F(1, 4))
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report("2 expansion", elapsed, 5)


def test_criterion_3_conditional_expectation_laws():
    start = time.time()
    rng = random.Random(103)
    base = [0, 1, 2, 3, 4]
    for _ in range(40):
        chosen = sorted(rng.sample(base, 4))
        big = cl.siteset(chosen)
        mid = cl.siteset(sorted(rng.sample(chosen, 3)))
        small = cl.siteset(sorted(rng.sample(list(mid.sites), 2)))
        f = rand_table(rng, big)
        g = rand_table(rng, big)
        # tower
        assert cl.conditional_expectation(f, small, MU).equals(
            cl.conditional_expectation(
                cl.conditional_expectation(f, mid, MU), small, MU))
        # orthogonality
        pf = cl.conditional_expectation(f, mid, MU).embed(big)
        pg = cl.conditional_expectation(g, mid, MU).embed(big)
        assert cl.inner(pf, g, MU) == cl.inner(f, pg, MU)
        # intersection
        other = cl.siteset(sorted(rng.sample(chosen, 3)))
        via = cl.conditional_expectation(f, other, MU).embed(big)
        lhs = cl.conditional_expectation(via, mid, MU)
        rhs = cl.conditional_expectation(
            f, mid.intersection(other), MU).embed(mid)
        assert lhs.equals(rhs)

    # exact witness against the edge-compatibility identity
    path3 = cl.lattice_window(1, radius=1)
    sites = cl.siteset(path3.sites)
    space = cl.enumerate_configs(sites, EXCLUSION)
    raw = tuple(F(2) ** (space.decode(i)[1] * space.decode(i)[2])
                for i in range(8))
    mu = cl.window_measure_from_raw(sites, 2, raw)
    report = cl.is_ordinary(cl.siteset([-1, 0]), sites, mu, EXCLUSION, path3)
    assert not report.ok
    witness = [v for v in report.violations
               if v.sup_assignment == (1, 0, 1) and v.edge == (-1, 0)][0]
    assert witness.lhs * 100 == 3 and witness.rhs * 100 == 4
    _report("3 conditional-expectation laws", time.time() - start)


def test_criterion_4_forms_exactness():
    start = time.time()
    single = cl.build_locale([0, 1], [(0, 1), (1, 0)])
    path3 = cl.lattice_window(1, radius=1)
    for sites, locale in [(cl.siteset([0, 1]), single),
                          (cl.siteset(path3.sites), path3)]:
        kb = cl.kernel_basis(sites, EXCLUSION, locale, MU)
        size = 2 ** len(sites)
        dim_z1 = (size - 1) - (kb.n_components - 1)
        # the rank of the differential by elimination counts no components
        rank = differential_rank(cl.transition_graph(sites, EXCLUSION,
                                                     locale))
        assert dim_z1 == rank
        assert cl.closed_form_space_dimension(sites, EXCLUSION,
                                              locale) == rank
        if locale is single:
            assert dim_z1 == 1 and kb.n_components == 3

    rng = random.Random(107)
    sites = cl.siteset(path3.sites)
    graph = cl.transition_graph(sites, EXCLUSION, path3)
    for _ in range(100):
        f = rand_table(rng, sites)
        form = cl.differential(f, EXCLUSION, path3)
        g = cl.solve_potential(form, MU)
        assert cl.differential(g, EXCLUSION, path3).tables == form.tables
        diff = g - f
        seen = {}
        for idx in range(graph.space.size):
            seen.setdefault(graph.component_labels[idx],
                            set()).add(diff.values[idx])
        assert all(len(v) == 1 for v in seen.values())

    from test_forms import triangle_cycle_form
    bad = triangle_cycle_form(EXCLUSION)
    try:
        cl.solve_potential(bad, MU)
        raise AssertionError("non-closed form was integrated")
    except cl.NotClosed as err:
        assert err.integral != 0
        assert cl.path_integral(bad, err.witness) == err.integral
    _report("4 forms-exactness", time.time() - start)


def test_criterion_5_varadhan_round_trip():
    start = time.time()
    basis = cl.conserved_quantities(EXCLUSION, HALF)
    rho = cl.cocycle_from_coefficients(basis, [[F(1)]])
    window = cl.lattice_window(1, radius=4)

    omega = cl.omega_from_cocycle(rho, window, EXCLUSION)
    for e in cl.interior_edges(window, 2):
        table = omega.tables[e]
        assert table.value_at((1, 0)) == F(1)
        assert table.value_at((0, 1)) == F(-1)
        assert table.value_at((0, 0)) == 0 and table.value_at((1, 1)) == 0

    spec = cl.invariant_form_from_cocycle(rho, EXCLUSION, 1)
    dec = cl.decompose_invariant_form(spec, window, HALF, margin=2)
    assert dec.cocycle.images == ((F(1),),)
    assert dec.checks["residual_interior_zero"]

    template = cl.lattice_window(1, radius=2)
    pair = cl.siteset([0, 1])
    core = cl.site_occupation(pair, 2, 0) * cl.site_occupation(pair, 2, 1)
    spec_g = cl.invariant_form_from_potential_stencil(core, template,
                                                      EXCLUSION)
    mix = spec_g + spec
    dec_mix = cl.decompose_invariant_form(mix, window, HALF, margin=2)
    assert dec_mix.cocycle.images == ((F(1),),)
    exact = spec_g.materialize(window, HALF)
    for e in cl.interior_edges(window, 2):
        assert dec_mix.residual_form.tables[e].minimized().equals(
            exact.tables[e].minimized())

    rho2 = cl.cocycle_from_coefficients(basis, [[F(1)], [F(2)]])
    spec2 = cl.invariant_form_from_cocycle(rho2, EXCLUSION, 2)
    dec2 = cl.decompose_invariant_form(spec2, cl.lattice_window(2, radius=3),
                                       HALF)
    assert dec2.cocycle.images == ((F(1),), (F(2),))
    assert dec2.checks["residual_stencil_zero"]

    elapsed = time.time() - start
    assert elapsed < 30.0
    _report("5 varadhan-round-trip", elapsed, 30)


def test_criterion_6_iq_checker():
    start = time.time()
    single = cl.build_locale([0, 1], [(0, 1), (1, 0)])
    path3 = cl.lattice_window(1, radius=1)
    triangle = cl.build_locale(
        [0, 1, 2], [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
    report = cl.check_iq(EXCLUSION, HALF, [single, path3, triangle])
    assert report.ok
    # with IQ, components coincide with the conserved level sets
    for locale in (single, path3, triangle):
        sites = cl.siteset(locale.sites)
        graph = cl.transition_graph(sites, EXCLUSION, locale)
        labels = {}
        for idx in range(graph.space.size):
            total = report.basis[0].total(graph.space.decode(idx))
            labels.setdefault(total, set()).add(graph.component_labels[idx])
        assert all(len(v) == 1 for v in labels.values())
        assert len(labels) == graph.n_components

    failing = cl.check_iq(cl.identity_interaction(2), HALF, [single])
    assert not failing.ok
    totals, first, second = failing.results[0].witnesses[0]
    assert {first, second} == {(1, 0), (0, 1)}
    _report("6 iq-checker", time.time() - start)


def test_criterion_7_martingale_convergence():
    start = time.time()
    sites = cl.siteset([0, 1])
    f = cl.site_occupation(sites, 2, 0) * cl.site_occupation(sites, 2, 1)
    report = cl.martingale_chain_report(f, [cl.siteset([0]), sites], MU)
    assert report.norms_sq == (F(1, 8), F(1, 4))
    assert report.gaps_sq == (F(1, 8),)

    rng = random.Random(109)
    windows = [cl.siteset([1]), cl.siteset([1, 2]), cl.siteset([0, 1, 2]),
               cl.siteset([0, 1, 2, 3])]
    for _ in range(100):
        g = rand_table(rng, windows[-1])
        rep = cl.martingale_chain_report(g, windows, MU)
        assert rep.monotone and rep.pythagoras
    _report("7 martingale-convergence", time.time() - start)


def test_criterion_8_cli_determinism(tmp_path):
    start = time.time()
    from colocal.cli import main

    payload = {"interaction": {"states": [0, 1], "base": 0,
                               "phi": [[[0, 1], [1, 0]], [[1, 0], [0, 1]]]},
               "nu": ["1/2", "1/2"], "dim": 1,
               "window": {"lattice": {"dim": 1, "radius": 4}},
               "margin": 2, "cocycle": [["1"]]}
    src = tmp_path / "in.json"
    src.write_text(json.dumps(payload))
    blobs = []
    for k in range(2):
        out = tmp_path / f"out{k}.json"
        assert main(["varadhan", "--input", str(src),
                     "--output", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]

    src2 = tmp_path / "conserved.json"
    src2.write_text(json.dumps({"interaction": payload["interaction"],
                                "nu": payload["nu"]}))
    more = []
    for k in range(2):
        out = tmp_path / f"c{k}.json"
        assert main(["conserved", "--input", str(src2),
                     "--output", str(out)]) == 0
        more.append(out.read_bytes())
    assert more[0] == more[1]
    _report("8 cli-determinism", time.time() - start)
