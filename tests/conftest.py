from fractions import Fraction as F

import pytest
from hypothesis import settings

import colocal as cl

# property tests repeat exactly from run to run and stay within seconds
settings.register_profile("colocal", derandomize=True, deadline=None,
                          max_examples=40)
settings.load_profile("colocal")


def rand_scalar(rng):
    return F(rng.randint(-8, 8), rng.randint(1, 6))


def rand_table(rng, sites, n_states=2):
    size = n_states ** len(sites)
    return cl.FnTable(sites, n_states,
                      tuple(rand_scalar(rng) for _ in range(size)))


#: prime modulus of the rank computation in differential_rank
RANK_PRIME = (1 << 61) - 1


def rank_mod(rows, p: int) -> int:
    """Rank modulo the prime p of sparse integer rows ({column: value}),
    by elimination on each row's least column."""
    pivots: dict[int, dict[int, int]] = {}   # leading column -> monic row
    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                inv = pow(row[col], -1, p)
                pivots[col] = {c: v * inv % p for c, v in row.items()}
                break
            factor = row[col]
            for c, v in pivot.items():
                w = (row.get(c, 0) - factor * v) % p
                if w:
                    row[c] = w
                else:
                    del row[c]
    return len(pivots)


def three_state_d2_stencil_not_closed():
    """(stencil, nu) for three-state exclusion in d=2 under the uniform
    measure: eta_{o-1} (eta_o - eta_t) on the horizontal anchor (o, t), 0
    on the vertical one.  Outside the local-cycle certificate's gate, so
    local mode checks it by the box solve, whose radius-1 box (3^9
    configurations) holds a cycle of nonzero integral."""
    three = cl.exclusion_interaction(3)
    template = cl.lattice_window(2, radius=1)
    origin = template.site_at((0, 0))
    support = cl.siteset([origin - 1, origin, origin + 1])
    space = cl.ConfigSpace(support, 3)
    horizontal = cl.FnTable(support, 3, tuple(
        F(before * (o - t)) for before, o, t in map(space.decode,
                                                    range(space.size))))
    vertical = cl.fn_zeros(cl.siteset([origin, origin + 3]), 3)
    spec = cl.invariant_spec_from_anchors(template, three,
                                          [vertical, horizontal])
    return spec, cl.uniform_states(3)


def differential_rank(graph):
    """Rank of the differential: one row e_dst - e_src per transition pair,
    reduced by sparse elimination modulo the prime 2^61 - 1.  The matrix is
    an incidence matrix, hence totally unimodular, so its rank modulo p is
    its rational rank.  It does not use the component count."""
    pairs = sorted({(min(s, d), max(s, d)) for s, d in graph.pairs})
    return rank_mod(({src: -1, dst: 1} for src, dst in pairs), RANK_PRIME)


@pytest.fixture
def exclusion():
    return cl.exclusion_interaction()


@pytest.fixture
def half():
    return cl.bernoulli(F(1, 2))


@pytest.fixture
def mu_half(half):
    return cl.ProductMeasure(half)


@pytest.fixture
def single_edge():
    return cl.build_locale([0, 1], [(0, 1), (1, 0)])


@pytest.fixture
def path3():
    return cl.lattice_window(1, radius=1)


@pytest.fixture
def triangle():
    return cl.build_locale([0, 1, 2],
                           [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
