"""Stencil placement against a per-site oracle.

``varadhan._place`` puts each axis anchor of a stencil on the window edges
by index arithmetic: offsets and a bounding box per anchor, the edges
inside ``keep`` only, and one integral per distinct boundary cut.  The
oracle here does it one site at a time, as the chart defines it: read each
anchor site's coordinate, shift it by the edge origin's coordinate, look
the result up in the window, and integrate the sites that land outside the
window or outside ``keep`` against nu by summing over their states.
"""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

import colocal as cl
from colocal.varadhan import _place


def translate_oracle(table, src, dst, shift, keep, nu):
    """The table moved by the coordinate ``shift`` from the chart ``src``
    to the chart ``dst``, its sites outside ``dst`` or ``keep`` summed out
    against nu; None where that needs nu and nu is None."""
    n = table.n_states
    targets = [dst.site_at(tuple(x + v for x, v in
                                 zip(src.coord_of(s), shift)))
               for s in table.sites]
    kept = [k for k, s in enumerate(targets) if s is not None and s in keep]
    if len(kept) == len(targets):
        return cl.FnTable(cl.SiteSet(tuple(targets)), n, table.values)
    if nu is None:
        return None
    values = [F(0)] * n ** len(kept)
    for index, value in enumerate(table.values):
        # digit k of the index is the state at the k-th site of the table
        digits = [index // n ** k % n for k in range(len(targets))]
        weight = F(1)
        for k, a in enumerate(digits):
            if k not in kept:
                weight *= nu.weights[a]
        values[sum(digits[k] * n ** j for j, k in enumerate(kept))] += \
            weight * value
    return cl.FnTable(cl.SiteSet(tuple(targets[k] for k in kept)), n, values)


def place_oracle(anchors, src, window, keep, nu):
    """Every window edge (o, t), o < t, inside ``keep``, in sorted order,
    with its axis's anchor moved by the coordinate of o."""
    out = {}
    for o, t in sorted(window.edges):
        if o < t and o in keep and t in keep:
            origin = window.coord_of(o)
            step = [b - a for a, b in zip(origin, window.coord_of(t))]
            table = translate_oracle(anchors[step.index(1)], src, window,
                                     origin, keep, nu)
            if table is not None:
                out[(o, t)] = table
    return out


@st.composite
def placements(draw):
    dim = draw(st.sampled_from([1, 2]))
    src = cl.lattice_window(dim, draw(st.integers(1, 2 if dim == 1 else 1)))
    window = cl.lattice_window(dim, draw(st.integers(1, 4 if dim == 1
                                                     else 3)))
    anchors = []
    for _ in range(dim):
        sites = draw(st.lists(st.sampled_from(src.sites), max_size=3,
                              unique=True))
        values = draw(st.lists(st.fractions(-3, 3, max_denominator=3),
                               min_size=2 ** len(sites),
                               max_size=2 ** len(sites)))
        anchors.append(cl.FnTable(cl.siteset(sites), 2, values))
    if draw(st.booleans()):
        keep = cl.siteset(window.sites)
    else:
        # three consecutive sites along one axis, anywhere in the window
        axis = draw(st.integers(0, dim - 1))
        r = window.lattice.radius
        centre = [draw(st.integers(-r + (k == axis), r - (k == axis)))
                  for k in range(dim)]
        keep = cl.siteset(
            window.site_at([c + (k == axis) * d for k, c in enumerate(centre)])
            for d in (-1, 0, 1))
    nu = draw(st.none() | st.fractions(F(1, 5), F(4, 5), max_denominator=5)
              .map(cl.bernoulli))
    return anchors, src, window, keep, nu


@settings(max_examples=300, deadline=None)
@given(placements())
def test_place_equals_the_per_site_oracle(case):
    anchors, src, window, keep, nu = case
    placed = _place(anchors, src, window, keep, nu)
    expected = place_oracle(anchors, src, window, keep, nu)
    assert list(placed) == list(expected)
    for edge, table in expected.items():
        assert placed[edge].sites == table.sites
        assert placed[edge].values == table.values


def test_boundary_cuts_are_integrated_against_nu():
    """An anchor reaching two sites past its edge is cut at the window's
    upper boundary and at the ends of a three-site ``keep``; each cut sums
    its sites out against nu."""
    src = cl.lattice_window(2, 1)
    window = cl.lattice_window(2, 2)
    sites = cl.siteset([src.site_at(c) for c in ((0, 0), (0, 1), (1, 1))])
    anchor = cl.FnTable(sites, 2, [F(k, 3) for k in range(8)])
    nu = cl.bernoulli(F(2, 5))
    for keep in (cl.siteset(window.sites),
                 cl.siteset(window.site_at((x, 0)) for x in (-1, 0, 1))):
        placed = _place([anchor, anchor], src, window, keep, nu)
        assert placed == place_oracle([anchor, anchor], src, window, keep, nu)
        whole = {e: t for e, t in placed.items() if len(t.sites) == 3}
        assert len(whole) < len(placed)
        assert _place([anchor, anchor], src, window, keep, None) == whole
