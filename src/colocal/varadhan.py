"""Shift-equivariant structure on lattice windows: fundamental domains,
cocycles valued in conserved quantities, and the decomposition of
shift-invariant closed forms into an exact part plus a cocycle part.

The cocycle data assigns to each lattice generator a combination of
conserved quantities.  Its canonical potential places, at the site with
coordinate x, the single-site table ``h_x = sum_j x_j * (image of generator
j)``; the differential of that potential is a translation-consistent closed
form (consistency follows from the conservation identity).  Conversely,
given a shift-invariant closed form, solving for a potential and taking the
shift residue of its single-site expansion components recovers the cocycle
(for rules that swap the endpoint states it is read off the form's own edge
tables instead); expansion components of a projected chain are exact on any
sub-window by the tower property, so the recovery works on windows far too
large to enumerate by solving on the small window that checks closedness
instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul, sub
from typing import Optional, Sequence

from . import linalg
from .errors import (
    NotClosed,
    NotInvariant,
    ResidueNotConserved,
    WindowTooSmall,
)
from .forms import (
    Form,
    Path,
    _check_zero_on_fixed,
    edge_differential,
    solve_potential,
)
from .functions import ConservedQuantity, conserved_quantities
from .measure import (
    ProductMeasure,
    StateMeasure,
    _integrate,
    _site_components,
    conditional_expectation,
    expectation,
)
from .scalars import Scalar, exact_scalars, numerators
from .statespace import (
    DEFAULT_STATE_CAP,
    Config,
    ConfigSpace,
    Edge,
    Interaction,
    LatticeMeta,
    Locale,
    SiteSet,
    check_int,
    guard_space,
    kron,
    lattice_window,
    siteset,
)
from .tables import FnTable, aligned, fn_zeros

Coord = tuple[int, ...]
# a closedness solve: its chart, the form it solved (edges (o, t), o < t)
# and its potential
Solve = tuple[LatticeMeta, Form, FnTable]


def _as_coord(value, dim: int) -> Coord:
    if isinstance(value, int):
        if dim != 1:
            raise ValueError("scalar coordinate only valid in dimension 1")
        return (value,)
    coord = tuple(value)
    if len(coord) != dim:
        raise ValueError(f"coordinate {coord} has wrong dimension")
    return coord


def _unit(axis: int, dim: int) -> Coord:
    return tuple(1 if k == axis else 0 for k in range(dim))


def _coord_add(a: Coord, b: Coord) -> Coord:
    return tuple(x + y for x, y in zip(a, b))


def _coord_sub(a: Coord, b: Coord) -> Coord:
    return tuple(x - y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# fundamental domain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FundamentalDomain:
    """One representative per translation orbit of nonempty finite coordinate
    sets: the representative has its lexicographically smallest element at
    the origin."""

    dim: int

    def split(self, coords) -> tuple[Coord, tuple[Coord, ...]]:
        """Return (tau, base) with coords == base translated by tau."""
        cs = sorted(_as_coord(c, self.dim) for c in coords)
        if not cs:
            raise ValueError("fundamental domain is over nonempty sets")
        tau = cs[0]
        return tau, tuple(_coord_sub(c, tau) for c in cs)

    def contains(self, coords) -> bool:
        tau, _ = self.split(coords)
        return tau == (0,) * self.dim


def fundamental_domain(dim: int) -> FundamentalDomain:
    return FundamentalDomain(dim)


# ---------------------------------------------------------------------------
# cocycles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cocycle:
    """Homomorphism from the translation group into the span of the
    conserved-quantity basis; ``images[j]`` are the coefficients of the
    j-th generator over the basis."""

    n_states: int
    basis: tuple[ConservedQuantity, ...]
    images: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        for row in self.images:
            if len(row) != len(self.basis):
                raise ValueError("coefficient row does not match the basis")

    @property
    def dim(self) -> int:
        return len(self.images)

    def is_zero(self) -> bool:
        return all(all(c == 0 for c in row) for row in self.images)

    def generator_state_table(self, axis: int) -> tuple[Fraction, ...]:
        return self._generator_tables[axis]

    @cached_property
    def _generator_tables(self) -> tuple[tuple[Fraction, ...], ...]:
        """Per generator, the per-state value of its image."""
        return tuple(
            tuple(sum((c * xi.xi[s] for c, xi in zip(row, self.basis)),
                      Fraction(0)) for s in range(self.n_states))
            for row in self.images)

    def site_state_table(self, coord: Coord) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * self.n_states
        for axis, x in enumerate(coord):
            if x:
                out = [o + x * g for o, g in
                       zip(out, self.generator_state_table(axis))]
        return tuple(out)

    def scale(self, c: Scalar) -> "Cocycle":
        c = Fraction(*exact_scalars((c,)))
        return Cocycle(self.n_states, self.basis,
                       tuple(tuple(c * v for v in row) for row in self.images))


def cocycle_from_coefficients(basis: Sequence[ConservedQuantity],
                              images, n_states: Optional[int] = None) -> Cocycle:
    basis = tuple(basis)
    if n_states is None:
        if not basis:
            raise ValueError("n_states required for an empty basis")
        n_states = basis[0].n_states
    rows = tuple(tuple(map(Fraction, exact_scalars(row))) for row in images)
    return Cocycle(n_states, basis, rows)


def zero_cocycle(basis: Sequence[ConservedQuantity], dim: int,
                 n_states: int) -> Cocycle:
    return Cocycle(n_states, tuple(basis),
                   tuple(tuple([Fraction(0)] * len(basis)) for _ in range(dim)))


# ---------------------------------------------------------------------------
# window geometry helpers
# ---------------------------------------------------------------------------

def _require_lattice_window(window: Locale) -> None:
    if window.lattice is None or window.lattice.kind != "window":
        raise ValueError("operation requires a lattice box window")


def _require_generators(rho: Cocycle, dim: int) -> None:
    if rho.dim != dim:
        raise ValueError(
            f"cocycle has {rho.dim} generator rows, expected {dim}")


def _require_state_measure(nu) -> None:
    if not isinstance(nu, StateMeasure):
        raise ValueError(
            f"nu must be a StateMeasure, got {type(nu).__name__}")


def _origin(meta: LatticeMeta) -> int:
    """The id of the coordinate origin of a box chart."""
    return meta.first + meta.radius * sum(meta.strides)


def _offsets(sites, src: LatticeMeta, origin: Coord, dst: LatticeMeta):
    """Where the sites of a table on the chart ``src`` lie relative to the
    coordinate ``origin``: per site its coordinate offset, and its id step
    in the box chart ``dst``.  Where a translate of the table puts
    ``origin`` on a site and lies in ``dst``, its site ids are that site's
    id plus the steps."""
    coords = [_coord_sub(src.site_to_coord(s), origin) for s in sites]
    return coords, [sum(map(mul, c, dst.strides)) for c in coords]


def _fitting(coords, radius: int) -> list[tuple[int, int]]:
    """Per axis, the least and greatest coordinate at which the origin of
    the coordinate offsets ``coords`` keeps them all in the box
    ``{-radius..radius}^dim`` (no bounds for no offsets)."""
    return [(-radius - min(axis), radius - max(axis)) for axis in zip(*coords)]


def _fits(coord: Coord, bounds) -> bool:
    """Is each coordinate within its axis's (least, greatest) bounds?"""
    return all(a <= x <= b for x, (a, b) in zip(coord, bounds))


def _interior(window: Locale, margin: int) -> tuple[list, list]:
    """The sites at lattice distance >= margin from the window boundary,
    ascending, and the window edges (o, t), o < t, between them, sorted:
    the box ``{-h..h}^dim``, h = radius - margin, by index arithmetic."""
    _require_lattice_window(window)
    meta = window.lattice
    half = min(meta.radius - margin, meta.radius)
    if half < 0:
        return [], []
    corner = _origin(meta) - half * sum(meta.strides)
    last = 2 * half
    strides = meta.strides[::-1]   # each site's edges by ascending tip
    sites, edges = [], []
    for digits in itertools.product(range(last + 1), repeat=meta.dim):
        o = corner + sum(map(mul, digits, meta.strides))
        sites.append(o)
        edges += [(o, o + stride) for d, stride in zip(digits[::-1], strides)
                  if d < last]
    return sites, edges


def interior_sites(window: Locale, margin: int) -> tuple[int, ...]:
    """Sites at lattice distance >= margin from the window boundary."""
    return tuple(_interior(window, margin)[0])


def interior_edges(window: Locale, margin: int) -> tuple[Edge, ...]:
    return tuple(_interior(window, margin)[1])


# ---------------------------------------------------------------------------
# canonical potential and form of a cocycle
# ---------------------------------------------------------------------------

def theta_from_cocycle(rho: Cocycle, window: Locale,
                       state_cap: int = DEFAULT_STATE_CAP) -> FnTable:
    """Truncation of the canonical potential: sum over window sites of the
    single-site tables ``h_x``.  Exact projection of the infinite potential
    because every ``h_x`` has zero mean."""
    _require_lattice_window(window)
    _require_generators(rho, window.lattice.dim)
    sites = siteset(window.sites)
    n = rho.n_states
    guard_space(n, len(sites), state_cap)
    per_site = [v for s in sites
                for v in rho.site_state_table(window.coord_of(s))]
    per_site, den = numerators(per_site)
    values = kron([per_site[k * n:(k + 1) * n] for k in range(len(sites))])
    return FnTable.from_numerators(sites, n, values, den)


def omega_from_cocycle(rho: Cocycle, window: Locale,
                       interaction: Interaction) -> Form:
    """Differential of the truncated canonical potential, assembled edge by
    edge; every edge table depends only on the two endpoint states."""
    _require_lattice_window(window)
    _require_generators(rho, window.lattice.dim)
    if interaction.n_states != rho.n_states:
        raise ValueError("cocycle and interaction state counts differ")
    sites = siteset(window.sites)
    pairs = tuple(sorted((o, t) for (o, t) in window.edges if o < t))
    h = {s: rho.site_state_table(window.coord_of(s)) for s in sites}
    tables = {}
    for (o, t) in pairs:
        tables[(o, t)] = edge_differential(
            _endpoint_table((o, t), h[o], h[t]), interaction, (o, t))
    return Form(sites, interaction, pairs, tables)


def _endpoint_table(edge: Edge, h_o, h_t) -> FnTable:
    """eta -> h_o[eta_o] + h_t[eta_t] on the two endpoints (o < t, so the
    state at o is the less significant digit)."""
    return FnTable(SiteSet(edge), len(h_o), kron([h_o, h_t]))


@dataclass(frozen=True)
class CocycleIdentityReport:
    ok: bool
    per_axis: tuple[dict, ...]


def verify_cocycle_identity(rho: Cocycle, window: Locale) -> CocycleIdentityReport:
    """Check that the shift residue of the truncated potential equals the
    generator image, per axis, on every site whose shifted partner is also in
    the window."""
    _require_lattice_window(window)
    dim = window.lattice.dim
    _require_generators(rho, dim)
    details = []
    all_ok = True
    for axis in range(dim):
        unit = _unit(axis, dim)
        expected = rho.generator_state_table(axis)
        compared = 0
        mismatches = []
        for s in window.sites:
            c = window.coord_of(s)
            if c[axis] == -window.lattice.radius:   # no partner in the window
                continue
            compared += 1
            diff = tuple(a - b for a, b in zip(rho.site_state_table(c),
                                               rho.site_state_table(_coord_sub(c, unit))))
            if diff != expected:
                mismatches.append(s)
        if compared == 0:
            raise WindowTooSmall(
                f"window has no site pairs along axis {axis}", axis=axis)
        ok = not mismatches
        all_ok = all_ok and ok
        details.append({"axis": axis, "compared": compared, "ok": ok,
                        "mismatch_sites": mismatches})
    return CocycleIdentityReport(all_ok, tuple(details))


# ---------------------------------------------------------------------------
# invariant form stencils
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantFormSpec:
    """A shift-invariant form given by its stencil: a form on a template
    window whose anchor edges (origin to each unit vector) define every
    translate."""

    template: Locale
    form: Form

    def __post_init__(self):
        _require_lattice_window(self.template)
        for axis in range(self.dim):
            if self.anchor_edge(axis) not in self.form.edges:
                raise ValueError(
                    f"template form is missing the anchor edge of axis {axis}")

    @property
    def dim(self) -> int:
        return self.template.lattice.dim

    @property
    def interaction(self) -> Interaction:
        return self.form.interaction

    def anchor_edge(self, axis: int) -> Edge:
        origin = _origin(self.template.lattice)
        return (origin, origin + self.template.lattice.strides[axis])

    def anchor_table(self, axis: int) -> FnTable:
        return self.form.tables[self.anchor_edge(axis)]

    @cached_property
    def stencil_radius(self) -> int:
        """Chebyshev spread of the anchor supports beyond their own edge."""
        best = 0
        for axis in range(self.dim):
            unit = _unit(axis, self.dim)
            for s in self.anchor_table(axis).minimized().sites:
                c = self.template.coord_of(s)
                spread = min(max(abs(v) for v in c) if any(c) else 0,
                             max(abs(v) for v in _coord_sub(c, unit))
                             if c != unit else 0)
                best = max(best, spread)
        return best

    def check_invariance(self) -> list[Edge]:
        """Template edges whose tables disagree with the translated anchor
        (edges whose translated support leaves the template are skipped)."""
        return list(self._mismatched)

    @cached_property
    def _mismatched(self) -> tuple[Edge, ...]:
        expected = _place([self.anchor_table(axis).minimized()
                           for axis in range(self.dim)], self.template,
                          self.template, siteset(self.template.sites), None)
        return tuple(sorted(e for e, table in self.form.tables.items()
                            if e in expected
                            and not expected[e].equals(table.minimized())))

    def _require_invariant(self) -> None:
        mismatched = self.check_invariance()
        if mismatched:
            raise NotInvariant("template form is not translation-consistent",
                               edges=mismatched)

    def materialize(self, window: Locale, nu: StateMeasure,
                    keep: Optional[SiteSet] = None) -> Form:
        """The window component of the invariant form: each window edge
        inside ``keep`` (default: the window) gets the translated anchor
        table, with sites outside ``keep`` integrated out against nu."""
        _require_lattice_window(window)
        _require_state_measure(nu)
        ambient = keep if keep is not None else siteset(window.sites)
        tables = _place([self.anchor_table(axis) for axis in range(self.dim)],
                        self.template, window, ambient, nu)
        return Form(ambient, self.interaction, tuple(tables), tables)

    def _combine(self, other: "InvariantFormSpec", sign: int) -> "InvariantFormSpec":
        if self.dim != other.dim or self.interaction != other.interaction:
            raise ValueError("stencils are not compatible")
        self._require_invariant()
        other._require_invariant()
        radius = max(self.template.lattice.radius, other.template.lattice.radius)
        template = lattice_window(self.dim, radius)
        anchors = []
        for axis in range(self.dim):
            a, b = (_rechart(spec.anchor_table(axis), spec.template.lattice,
                             template.lattice) for spec in (self, other))
            support = a.sites.union(b.sites)
            merged = a.embed(support) + (b.embed(support) if sign > 0
                                         else -b.embed(support))
            anchors.append(merged)
        return invariant_spec_from_anchors(template, self.interaction, anchors)

    def __add__(self, other: "InvariantFormSpec") -> "InvariantFormSpec":
        return self._combine(other, +1)

    def __sub__(self, other: "InvariantFormSpec") -> "InvariantFormSpec":
        return self._combine(other, -1)


def _rechart(table: FnTable, src: LatticeMeta, dst: LatticeMeta) -> FnTable:
    """A table on the box chart ``src`` on the same coordinates of the box
    chart ``dst``, which holds them."""
    _, steps = _offsets(table.sites, src, (0,) * dst.dim, dst)
    origin = _origin(dst)
    return FnTable.from_numerators(SiteSet(tuple(origin + d for d in steps)),
                                   table.n_states, *table.numerators)


def _place(anchors: Sequence[FnTable], src: Locale, window: Locale,
           keep: SiteSet, nu: Optional[StateMeasure]) -> dict:
    """Each window edge (o, t), o < t, with both ends in ``keep``, with its
    axis's anchor (a table on the chart ``src``, its edge leaving the
    origin) translated onto it: edge keys in sorted order.

    Each anchor's coordinate offsets, id steps and the edge origins at
    which it fits are worked out once, and only the edges inside ``keep``
    are visited.  An edge
    whose translate lies inside the window and ``keep`` gets the anchor's
    own numerators on the translated sites.  Otherwise the anchor's sites
    that land outside are integrated out against nu, once per distinct
    cut of each anchor; with nu None such edges are left out."""
    meta = window.lattice
    radius, strides = meta.radius, meta.strides
    feet = []
    for anchor in anchors:
        coords, steps = _offsets(anchor.sites, src.lattice, (0,) * meta.dim,
                                 meta)
        feet.append((coords, steps, _fitting(coords, radius)))
    box = [(-radius, radius)] * meta.dim
    ids = range(meta.first, meta.first + len(window.sites))
    whole = keep.sites == window.sites
    mu = None if nu is None else ProductMeasure(nu)
    cuts = {}
    tables = {}
    for o in keep:
        if o not in ids:
            continue
        c = meta.site_to_coord(o)
        for axis in reversed(range(meta.dim)):   # tips in ascending order
            t = o + strides[axis]
            if c[axis] == radius or t not in keep:
                continue
            anchor = anchors[axis]
            coords, steps, bounds = feet[axis]
            sites = [o + d for d in steps]
            if _fits(c, bounds) and (whole or all(s in keep for s in sites)):
                tables[(o, t)] = FnTable.from_numerators(
                    SiteSet(tuple(sites)), anchor.n_states,
                    *anchor.numerators)
                continue
            if mu is None:
                continue
            kept = tuple(k for k, (u, s) in enumerate(zip(coords, sites))
                         if _fits(_coord_add(c, u), box) and s in keep)
            cut = cuts.get((axis, kept))
            if cut is None:
                keep_src = SiteSet(tuple(anchor.sites.sites[k] for k in kept))
                cut = cuts[(axis, kept)] = _integrate(anchor, keep_src, mu)
            tables[(o, t)] = FnTable.from_numerators(
                SiteSet(tuple(sites[k] for k in kept)), anchor.n_states, *cut)
    return tables


def invariant_spec_from_anchors(template: Locale, interaction: Interaction,
                                anchors: Sequence[FnTable]) -> InvariantFormSpec:
    """Build the template form by translating each axis anchor onto every
    template edge where its support fits."""
    sites = siteset(template.sites)
    tables = _place(anchors, template, template, sites, None)
    spec = InvariantFormSpec(template,
                             Form(sites, interaction, tuple(tables), tables))
    vars(spec)["_mismatched"] = ()   # every table is its anchor, translated
    return spec


def invariant_form_from_cocycle(rho: Cocycle, interaction: Interaction,
                                dim: int) -> InvariantFormSpec:
    """Stencil of the canonical closed form of a cocycle; each anchor table
    depends only on the two endpoint states.  The cocycle must have one
    generator row per axis."""
    _require_generators(rho, dim)
    template = lattice_window(dim, 1)
    origin = _origin(template.lattice)
    zero = tuple([Fraction(0)] * rho.n_states)
    anchors = []
    for axis in range(dim):
        # the site weights are 0 at the origin and g at the tip
        edge = (origin, origin + template.lattice.strides[axis])
        h = _endpoint_table(edge, zero, rho.generator_state_table(axis))
        anchors.append(edge_differential(h, interaction, edge))
    return invariant_spec_from_anchors(template, interaction, anchors)


def invariant_form_from_potential_stencil(core: FnTable, template: Locale,
                                          interaction: Interaction) -> InvariantFormSpec:
    """Stencil of the differential of the shift-invariant potential
    ``sum over translates of core``.  The template must be large enough to
    hold every contributing translate of the core around an anchor edge."""
    _require_lattice_window(template)
    meta = template.lattice
    dim, origin = meta.dim, _origin(meta)
    n = interaction.n_states
    core = core.minimized()
    core_coords, _ = _offsets(core.sites, meta, (0,) * dim, meta)
    box = [(-meta.radius, meta.radius)] * dim
    anchors = []
    for axis in range(dim):
        unit = _unit(axis, dim)
        endpoints = [(0,) * dim, unit]
        shifts = sorted({_coord_sub(p, u) for p in endpoints for u in core_coords})
        support_coords = set(endpoints)
        for v in shifts:
            support_coords.update(_coord_add(u, v) for u in core_coords)
        if not all(_fits(c, box) for c in support_coords):
            raise ValueError(
                "template window too small for the potential stencil")
        support = SiteSet(tuple(sorted(
            origin + sum(map(mul, c, meta.strides)) for c in support_coords)))
        # every translate fits: its sites are among the support's
        potential = fn_zeros(support, n)
        for v in shifts:
            step = sum(map(mul, v, meta.strides))
            translated = FnTable.from_numerators(
                SiteSet(tuple(s + step for s in core.sites)), n,
                *core.numerators)
            potential = potential + translated.embed(support)
        edge = (origin, origin + meta.strides[axis])
        anchors.append(edge_differential(potential, interaction,
                                         edge).minimized())
    return invariant_spec_from_anchors(template, interaction, anchors)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VaradhanDecomposition:
    cocycle: Cocycle
    residual_spec: InvariantFormSpec
    residual_form: Optional[Form]
    window: Locale
    margin: int
    mode: str
    checks: dict
    # window mode: the solved potential and the state measure of its mean,
    # read by ``residual_potential``
    theta: Optional[FnTable] = field(default=None, repr=False, compare=False)
    nu: Optional[StateMeasure] = field(default=None, repr=False,
                                       compare=False)
    # window mode: ``interior_edges(window, margin)``, which the checks read
    interior: tuple[Edge, ...] = field(default=(), repr=False, compare=False)

    @cached_property
    def residual_potential(self) -> Optional[FnTable]:
        """theta - theta_rho - E[theta] in window mode (theta_rho has zero
        mean, so one pass subtracts both), None in local mode."""
        theta = self.theta
        if theta is None:
            return None
        # the solve already held a table of this size
        theta_rho = theta_from_cocycle(self.cocycle, self.window,
                                       state_cap=theta.space.size)
        (a, b), den = aligned((theta, theta_rho))
        c = expectation(theta, ProductMeasure(self.nu)) * den
        p, q = c.numerator, c.denominator
        return FnTable.from_numerators(
            theta.sites, theta.n_states,
            [q * (x - y) - p for x, y in zip(a, b)], den * q)


def _swaps(interaction: Interaction) -> bool:
    """Does phi swap the endpoint states, phi(a, b) = (b, a) for all a, b
    (exclusion with any number of states)?"""
    n = interaction.n_states
    return all(interaction.phi_pair(a, b) == (b, a)
               for a in range(n) for b in range(n))


def _residues(omega: Form, theta: FnTable, edges,
              mu: ProductMeasure) -> list:
    """Per edge (o, t) of ``edges``, o < t, its shift residue: the per-state
    tuple a -> E[theta | eta_t = a] - E[theta | eta_o = a], for the
    potential theta of omega, d theta = omega.

    Where phi swaps the endpoint states the transition across e is the
    site swap sigma_e, which preserves the product measure mu, so the
    residue is E[theta o sigma_e - theta | eta_o = a] = E[omega_e | eta_o =
    a]: one small edge table projected onto its origin (embedded there
    first if its support lacks it).  Otherwise it is read off the
    single-site components of theta, one pass over the whole potential."""
    if not _swaps(omega.interaction):
        singles, _ = _site_components(theta, mu)
        return [tuple(map(sub, singles[t], singles[o])) for o, t in edges]
    out = []
    for o, t in edges:
        origin = SiteSet((o,))
        table = omega.tables[(o, t)]
        if o not in table.sites:
            table = table.embed(table.sites.union(origin))
        out.append(conditional_expectation(table, origin, mu).values)
    return out


def _shift_residue(diffs, basis, context: str):
    """Common value of the per-state residues ``diffs``, one per site pair,
    solved over the basis."""
    reference = diffs[0]
    if any(other != reference for other in diffs[1:]):
        raise ResidueNotConserved(
            f"shift residue varies across {context}; window too small "
            "or interaction not irreducibly quantified")
    coeffs = linalg.solve_in_span([xi.xi for xi in basis], reference)
    if coeffs is None:
        raise ResidueNotConserved(
            f"shift residue on {context} is outside the conserved span")
    return coeffs


def decompose_invariant_form(spec: InvariantFormSpec, window: Locale,
                             nu: StateMeasure, *,
                             margin: Optional[int] = None,
                             state_cap: int = DEFAULT_STATE_CAP) -> VaradhanDecomposition:
    """Split a shift-invariant closed form into a cocycle part and an exact
    part.

    On windows within the state cap this solves for a potential theta on
    the full window, reads the cocycle rho off the shift residue of theta
    on the interior (``margin``, a non-negative int, by default
    ``stencil_radius + 1``), and returns the residual form omega - d
    theta_rho, edge by edge at each table's own support (the solver
    certified d theta = omega on every transition), and the residual
    potential theta - theta_rho - E[theta], built from theta, with
    E[theta], when first read.  On larger windows closedness is checked by
    one solve, on the stencil's local cycles (``_certify_closed``) or, for
    rules, dimensions or caps outside that check, on a box
    (``_validate_closed_locally``, its radius, never null, in
    ``checks["closedness_window_radius"]``), or SpaceTooLarge where
    neither fits the cap.  The cocycle is read off that solve along its
    own edges (for an irreducibly quantified rule the gauge of its
    potential, constant on the configuration graph's components, is
    symmetric in the sites the solve moves, so its single-site parts
    cancel there), and the residual is returned as a stencil only.

    The shift residue along an edge e = (o, t) is the per-state
    E[theta | eta_t = a] - E[theta | eta_o = a] under the product measure
    of nu.  Where phi swaps the endpoint states, phi(a, b) = (b, a) for all
    a, b (exclusion with any number of states), the transition across e is
    the site swap sigma_e, which preserves that measure, so the residue is
    E[theta o sigma_e - theta | eta_o = a] = E[omega_e | eta_o = a]: it is
    read off the solved form's edge table, and theta is not passed over.
    For other rules it is read off theta's single-site components.
    """
    _require_lattice_window(window)
    dim = window.lattice.dim
    if spec.dim != dim:
        raise ValueError("stencil and window dimensions differ")
    if margin is not None:
        check_int(margin, "margin", 0)
    _require_state_measure(nu)
    check_int(state_cap, "state_cap", 1)
    interaction = spec.interaction
    n = interaction.n_states
    if nu.n_states != n:
        raise ValueError("measure and interaction state counts differ")

    # the residual is read off the stencil: it must vanish where phi fixes
    for axis in range(dim):
        _check_zero_on_fixed(spec.anchor_table(axis), spec.anchor_edge(axis),
                             interaction)
    spec._require_invariant()

    basis = conserved_quantities(interaction, nu)
    if margin is None:
        margin = spec.stencil_radius + 1
    radius = window.lattice.radius
    if radius - margin < 0:
        raise WindowTooSmall(
            f"window radius {radius} cannot hold margin {margin}",
            radius=radius, margin=margin)

    mode = "window" if n ** len(window.sites) <= state_cap else "local"
    checks: dict = {"mode": mode, "margin": margin,
                    "stencil_radius": spec.stencil_radius}
    if mode == "window":
        omega = spec.materialize(window, nu)
        theta = solve_potential(omega, state_cap=state_cap)
        chart, edges = window.lattice, tuple(_interior(window, margin)[1])
        where = "interior"
    else:
        solved = _certify_closed(spec, window, state_cap)
        if solved is not None:
            checks["closedness"] = "local_cycles"
        else:
            solved = _validate_closed_locally(spec, nu, state_cap)
            checks["closedness"] = "box"
            checks["closedness_window_radius"] = solved[0].radius
        chart, omega, theta = solved
        edges = omega.edges
        where = "probe"   # the closedness solve's window
    residues = _residues(omega, theta, edges, ProductMeasure(nu))
    rows = []
    for axis in range(dim):
        # the solve's edges along the axis, by ascending origin
        stride = chart.strides[axis]
        diffs = [r for (o, t), r in zip(edges, residues) if t - o == stride]
        if not diffs:
            raise WindowTooSmall(
                f"interior has no site pairs along axis {axis}",
                axis=axis, margin=margin)
        rows.append(_shift_residue(diffs, basis, f"axis {axis} {where}"))
    rho = Cocycle(n, tuple(basis), tuple(rows))

    residual_spec = spec - invariant_form_from_cocycle(rho, interaction, dim)
    if mode == "window":
        # d(theta - theta_rho): the cocycle's stencil is d theta_rho
        placed = residual_spec.materialize(window, nu)
        residual_form = Form(placed.sites, interaction, placed.edges,
                             {e: t.minimized()
                              for e, t in placed.tables.items()})
        checks["residual_interior_zero"] = all(
            residual_form.tables[e].is_zero() for e in edges)
        checks["residual_interior_invariant"] = _interior_invariance(
            residual_form, window.lattice, edges)
    else:
        theta = nu = residual_form = None
        edges = ()
    checks["residual_stencil_zero"] = all(
        residual_spec.anchor_table(axis).is_zero()
        for axis in range(dim))

    return VaradhanDecomposition(rho, residual_spec, residual_form, window,
                                 margin, mode, checks, theta, nu, edges)


def _interior_invariance(form: Form, meta: LatticeMeta, inner) -> bool:
    """Are the (support-minimized) tables of the interior edges ``inner``
    translation consistent along every axis?  Each is compared with the
    first interior edge of its axis, moved onto it where it fits."""
    first: dict[int, tuple] = {}
    for (o, t) in inner:
        axis = meta.strides.index(t - o)
        table = form.tables[(o, t)].minimized()
        c = meta.site_to_coord(o)
        if axis not in first:
            coords, _ = _offsets(table.sites, meta, c, meta)
            first[axis] = (table, o, _fitting(coords, meta.radius))
        ref, ref_o, bounds = first[axis]
        if not _fits(c, bounds):
            continue
        step = o - ref_o
        expected = FnTable.from_numerators(
            SiteSet(tuple(s + step for s in ref.sites)), ref.n_states,
            *ref.numerators)
        if not expected.equals(table):
            return False
    return True


def _certify_closed(spec: InvariantFormSpec, window: Locale,
                    state_cap: int) -> Optional[Solve]:
    """Check the stencil's integral on its local cycles, one translate of
    each type, and return the chart, form and potential of the window
    solve below; None, with nothing checked, outside two-state exclusion in
    d=2 and exclusion with any state count in d=1, or where one of the
    spaces below exceeds ``state_cap``.

    A form is closed when its integral vanishes on every cycle of the
    configuration graph.  For exclusion the cycles are spanned by local
    ones: the commuting squares, two moves across disjoint site edges in
    either order, and the cycles inside one window, three consecutive
    sites in d=1 and a 2x2 plaquette in d=2.
    - Proved in d=1, for any state count: the moves are the adjacent
      transpositions acting on words, and the Coxeter presentation of the
      symmetric group by them has the squares and the braid hexagons as
      relators.  The cycles of the Schreier graph with its loops (the
      fixed moves, which swap equal states) are spanned by the relator
      cycles and the loops, because the stabilizer of a word is generated
      by transpositions of equal states, each a conjugate of a loop.  So
      the cycles that run through fixed moves are covered too: dropping
      the loops leaves squares and cycles on three consecutive sites.
    - Only checked in d=2, for two states: the squares and plaquette
      cycles have the cycle rank of the 3x3 box (the box that
      ``_validate_closed_locally`` solves on in d=2), by a rank mod
      2^31 - 1 in ``tests/test_varadhan.py``.  On two states a line of
      three sites has no cycles.
    Elsewhere the caller solves on a box instead.

    The integral over a local cycle reads only the tables of its edges,
    so by translation invariance one translate of each type decides all:
    - the window: a potential is solved on the union of the supports its
      edges read, uncut, with only those edges;
    - the squares that can fail: the anchor edge e of an axis and a
      disjoint edge f that meets the support of omega_e (a square in which
      only e meets the support of omega_f is a translate of one with f the
      anchor).  With Delta_f g(eta) = g(eta^f) - g(eta), the square from
      eta has integral Delta_e omega_f(eta) - Delta_f omega_e(eta), and
      both terms vanish where e or f fixes eta.  So it closes when the two
      tables agree, compared at the sites they depend on; no solve is
      needed.  In d=2 only squares of perpendicular edges are compared.
      A square of parallel edges e and f is the sum, over the moves of a
      path p from eta to eta^f in a plaquette through f on the side away
      from e, of the squares of e with those moves, plus that plaquette's
      cycle p - f at eta and at eta^e.  On two states p exists with no
      move across f itself (the plaquette's moves of one particle count
      form a cycle or a K_{2,4}), so its moves cross the two sides
      perpendicular to e and the parallel side a row further away; once
      that side meets neither support, its square holds by itself.
    The checked spaces are the window's union and each square's union of
    supports.  A failure raises NotClosed with a witness on the failing
    cycle's union, in the site ids of ``window`` when it holds every
    cycle (else of a box around the origin that does)."""
    interaction, dim = spec.interaction, spec.dim
    n = interaction.n_states
    if not (_swaps(interaction) and (dim == 1 or (dim, n) == (2, 2))):
        return None
    anchors = [spec.anchor_table(axis).minimized() for axis in range(dim)]
    zero = (0,) * dim
    units = [_unit(axis, dim) for axis in range(dim)]
    template = spec.template.lattice
    # per axis, the coordinates of the anchor's support and edge
    feet = [set(_offsets(anchor.sites, template, zero, template)[0])
            | {zero, unit} for anchor, unit in zip(anchors, units)]

    def reach(axis, at):
        return {_coord_add(at, c) for c in feet[axis]}

    window_edges = ([(0, (-1,)), (0, zero)] if dim == 1 else
                    [(axis, at) for axis in range(dim)
                     for at in (zero, units[1 - axis])])
    union = set().union(*(reach(axis, at) for axis, at in window_edges))
    # (a, b, at): the anchor edge of axis a and the axis-b edge leaving
    # ``at``, disjoint from it and meeting its support
    pairs = {(a, b, at) for a in range(dim) for q in feet[a]
             for b in range(dim) for at in (q, _coord_sub(q, units[b]))
             if not {at, _coord_add(at, units[b])} & {zero, units[a]}}
    # in d=2 only perpendicular edges (see the docstring); a square listed
    # from both its edges is kept as its translate of smaller key
    squares = []
    for a, b, at in sorted(pairs):
        mirror = (b, a, _coord_sub(zero, at))
        if not ((a == b and dim == 2)
                or (mirror in pairs and mirror < (a, b, at))):
            squares.append((a, b, at))
    unions = [union] + [reach(a, zero) | reach(b, at)
                        for a, b, at in squares]
    if any(n ** len(sites) > state_cap for sites in unions):
        return None
    need = max(abs(x) for sites in unions for c in sites for x in c)
    chart = (window.lattice if window.lattice.radius >= need
             else lattice_window(dim, need).lattice)
    origin = _origin(chart)
    steps = [_offsets(anchor.sites, template, zero, chart)[1]
             for anchor in anchors]

    def placed(axis, at):
        o = origin + sum(map(mul, at, chart.strides))
        return (o, o + chart.strides[axis]), FnTable.from_numerators(
            SiteSet(tuple(o + d for d in steps[axis])), n,
            *anchors[axis].numerators)

    tables = dict(placed(axis, at) for axis, at in window_edges)
    sites = siteset(s for edge, table in tables.items()
                    for s in (*edge, *table.sites))
    omega = Form(sites, interaction, tuple(sorted(tables)), tables)
    theta = solve_potential(omega, state_cap=state_cap)
    for a, b, at in squares:
        (e, omega_e), (f, omega_f) = placed(a, zero), placed(b, at)
        lhs = edge_differential(omega_e.embed(omega_e.sites.union(
            SiteSet(f))), interaction, f)
        rhs = edge_differential(omega_f.embed(omega_f.sites.union(
            SiteSet(e))), interaction, e)
        if not (lhs.equals(rhs) if lhs.sites == rhs.sites else
                lhs.minimized().equals(rhs.minimized())):
            raise _square_not_closed(e, f, lhs, rhs)
    return chart, omega, theta


def _square_not_closed(e: Edge, f: Edge, lhs: FnTable,
                       rhs: FnTable) -> NotClosed:
    """NotClosed for the square eta -e-> -f-> -e-> -f-> eta at the first
    configuration of the union where Delta_f omega_e (``lhs``) and
    Delta_e omega_f (``rhs``) differ; its integral, omega_e(eta) +
    omega_f(eta^e) - omega_e(eta^f) - omega_f(eta), is rhs - lhs there."""
    sites = lhs.sites.union(rhs.sites)
    a, b = lhs.embed(sites).values, rhs.embed(sites).values
    idx = next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
    start = Config(sites, ConfigSpace(sites, lhs.n_states).decode(idx))
    return NotClosed("stencil has a commuting square with nonzero integral",
                     witness=Path(start, (e, f, e[::-1], f[::-1])),
                     integral=b[idx] - a[idx], cycle_length=4)


def _validate_closed_locally(spec: InvariantFormSpec, nu: StateMeasure,
                             state_cap: int) -> Solve:
    """Solve on the largest box of radius at most ``stencil_radius + 1``
    that the cap admits, with boundary cuts, and return its chart, form
    and potential; SpaceTooLarge past radius 1.  Nothing beyond that box
    is proved."""
    n, dim = spec.interaction.n_states, spec.dim
    radius = next((r for r in range(spec.stencil_radius + 1, 1, -1)
                   if n ** ((2 * r + 1) ** dim) <= state_cap), 1)
    guard_space(n, 3 ** dim, state_cap, "closedness box of radius 1")
    box = lattice_window(dim, radius)
    omega = spec.materialize(box, nu)
    return box.lattice, omega, solve_potential(omega, state_cap=state_cap)
