"""Sites, interactions, configurations, and transitions.

The underlying space is a finite simple symmetric directed graph over integer
site ids.  Lattice windows and tori come with coordinate metadata: in one
dimension a site id is the coordinate itself; in higher dimensions the id is
the row-major rank of the coordinate inside the box (most negative corner
first), so that sorting ids coincides with lexicographic coordinate order.

Configurations over a finite site set are indexed by mixed-radix encoding:
sites ascending, the state index at a site is one digit, and the smallest
site is the least significant digit.  This module alone knows that digit
order: every table over configurations is built through its index kernel,
``kron`` (one vector per digit), ``digit_slices`` (one digit out of a table)
and ``interleave`` (one digit back in).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from operator import add
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    ActionLeavesWindow,
    EdgeOutsideSiteSet,
    EmptySet,
    NotConnected,
    NotReversible,
    NotSimple,
    NotSubset,
    NotSymmetric,
    SizeTooSmall,
    SpaceTooLarge,
)

#: default cap on the number of configurations enumerated at once
DEFAULT_STATE_CAP = 1 << 20

#: default cap on |site set| for subset-indexed expansions: the largest
#: path ``scripts/cap_sweep.py`` measures (14 two-state sites, 3^14 output
#: entries, in seconds); ``--subset-cap`` raises it
DEFAULT_SUBSET_CAP = 14

Edge = tuple[int, int]


# ---------------------------------------------------------------------------
# lattice metadata
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeMeta:
    """Coordinate chart for a lattice-generated locale.

    ``kind`` is "window" (box ``{-r..r}^d``) or "torus" (``prod Z/L_i``).
    """

    dim: int
    kind: str
    radius: Optional[int] = None
    sizes: Optional[tuple[int, ...]] = None

    @cached_property
    def extents(self) -> tuple[int, ...]:
        """The number of coordinates along each axis."""
        return self.sizes or (2 * self.radius + 1,) * self.dim

    @cached_property
    def low(self) -> int:
        """The least coordinate along every axis."""
        return -self.radius if self.kind == "window" else 0

    @cached_property
    def strides(self) -> tuple[int, ...]:
        """The site-id step of one unit along each axis (the last axis
        steps by 1): a unit step along axis k adds ``strides[k]`` to the id
        wherever both ends lie in the chart."""
        return tuple(math.prod(self.extents[k + 1:]) for k in range(self.dim))

    @cached_property
    def first(self) -> int:
        """The id of the least corner: the ids are ``range(first, first +
        prod(extents))``."""
        return self.low if self.dim == 1 else 0

    def coord_to_site(self, coord: Sequence[int]) -> Optional[int]:
        """The row-major rank of the coordinate (the last axis fastest),
        offset in one dimension so that a site id is its coordinate; None
        outside the chart."""
        coord = tuple(coord)
        if len(coord) != self.dim:
            return None
        site, low = 0, self.low
        for c, extent in zip(coord, self.extents):
            if not 0 <= c - low < extent:
                return None
            site = site * extent + c - low
        return site + (low if self.dim == 1 else 0)

    def site_to_coord(self, site: int) -> tuple[int, ...]:
        if self.kind == "window" and self.dim == 1:
            return (site,)
        digits = []
        for extent in reversed(self.extents):
            digits.append(site % extent + self.low)
            site //= extent
        return tuple(reversed(digits))

    def translate_coord(self, coord: tuple[int, ...], vector: Sequence[int]):
        moved = tuple(c + v for c, v in zip(coord, vector))
        if self.kind == "torus":
            moved = tuple(c % s for c, s in zip(moved, self.sizes))
        return moved


# ---------------------------------------------------------------------------
# locale
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Locale:
    """Finite simple symmetric directed site graph, optionally with lattice
    coordinates."""

    sites: tuple[int, ...]
    edges: frozenset[Edge]
    lattice: Optional[LatticeMeta] = None

    @cached_property
    def _adjacency(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {s: [] for s in self.sites}
        for o, t in self.edges:
            adj[o].append(t)
        return {s: tuple(sorted(n)) for s, n in adj.items()}

    def neighbors(self, site: int) -> tuple[int, ...]:
        return self._adjacency[site]

    def distances_from(self, source: int) -> dict[int, int]:
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for s in frontier:
                for n in self.neighbors(s):
                    if n not in dist:
                        dist[n] = dist[s] + 1
                        nxt.append(n)
            frontier = nxt
        return dist

    def distance(self, a: int, b: int) -> int:
        return self.distances_from(a)[b]

    def coord_of(self, site: int) -> tuple[int, ...]:
        if self.lattice is None:
            raise ValueError("locale has no lattice metadata")
        return self.lattice.site_to_coord(site)

    def site_at(self, coord: Sequence[int]) -> Optional[int]:
        if self.lattice is None:
            raise ValueError("locale has no lattice metadata")
        return self.lattice.coord_to_site(coord)


def build_locale(sites: Iterable[int], edges: Iterable[Edge],
                 lattice: Optional[LatticeMeta] = None) -> Locale:
    """Validate and build a locale.

    Raises NotSimple / NotSymmetric / NotConnected.
    """
    site_list = list(sites)
    if len(set(site_list)) != len(site_list):
        raise ValueError("duplicate site ids")
    site_set = set(site_list)
    edge_list = [tuple(e) for e in edges]
    seen = set()
    for e in edge_list:
        if len(e) != 2 or e[0] not in site_set or e[1] not in site_set:
            raise ValueError(f"edge {e} has an endpoint outside the site list")
        if e[0] == e[1]:
            raise NotSimple(f"self-loop at site {e[0]}", edge=e)
        if e in seen:
            raise NotSimple(f"duplicate edge {e}", edge=e)
        seen.add(e)
    for o, t in seen:
        if (t, o) not in seen:
            raise NotSymmetric(f"edge ({o}, {t}) has no reverse", edge=(o, t))
    locale = Locale(tuple(sorted(site_list)), frozenset(seen), lattice)
    if site_list:
        reached = locale.distances_from(locale.sites[0])
        if len(reached) != len(site_list):
            missing = sorted(site_set - set(reached))
            raise NotConnected("site graph is not connected", missing=missing)
    return locale


def lattice_window(dim: int, radius: Optional[int] = None,
                   sizes: Optional[Sequence[int]] = None) -> Locale:
    """Box window ``{-r..r}^dim`` or torus with the given sizes, with
    nearest-neighbor edges (L1 distance 1, wrapped on the torus).

    The locale is built from the row-major ranks directly: the sites are
    ``range(first, first + prod(extents))`` and, along each axis, the ids
    of every block of ``stride * extent`` consecutive sites step by the
    axis stride.  A graph made this way is simple, symmetric and connected,
    so it skips the checks of :func:`build_locale`."""
    check_int(dim, "dim", 1)
    if (radius is None) == (sizes is None):
        raise ValueError("give exactly one of radius or sizes")
    if radius is not None:
        check_int(radius, "radius", 0)
        meta = LatticeMeta(dim, "window", radius=radius)
    else:
        sizes = tuple(sizes)
        if len(sizes) != dim:
            raise ValueError("need one size per dimension")
        for k, size in enumerate(sizes):
            check_int(size, f"sizes[{k}]")
        small = [s for s in sizes if s < 3]
        if small:
            raise SizeTooSmall(
                f"torus sizes {sizes} too small: wrap-around edges collide",
                sizes=list(sizes))
        meta = LatticeMeta(dim, "torus", sizes=sizes)

    sites = range(meta.first, meta.first + math.prod(meta.extents))
    edges = []
    for extent, stride in zip(meta.extents, meta.strides):
        block = stride * extent
        for b in range(sites.start, sites.stop, block):
            # (s, s + stride) for the s whose digit is below extent - 1
            lower = range(b, b + block - stride)
            upper = range(b + stride, b + block)
            edges += zip(lower, upper)
            edges += zip(upper, lower)
            if sizes:   # the torus wraps the top digit round to 0
                top = range(b + block - stride, b + block)
                bottom = range(b, b + stride)
                edges += zip(top, bottom)
                edges += zip(bottom, top)
    return Locale(tuple(sites), frozenset(edges), meta)


# ---------------------------------------------------------------------------
# interaction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interaction:
    """Finite state set with a designated base state and a pair map phi on
    state-index pairs."""

    states: tuple
    base: object
    phi: tuple[tuple[tuple[int, int], ...], ...]  # phi[i][j] = (i', j')

    @property
    def n_states(self) -> int:
        return len(self.states)

    @cached_property
    def base_index(self) -> int:
        return self.states.index(self.base)

    def phi_pair(self, i: int, j: int) -> tuple[int, int]:
        return self.phi[i][j]

    def changed_pairs(self):
        for i in range(self.n_states):
            for j in range(self.n_states):
                if self.phi[i][j] != (i, j):
                    yield (i, j), self.phi[i][j]

    @cached_property
    def is_reversible(self) -> bool:
        """Does the transition across (t, o) undo the one across (o, t)?
        (see :func:`validate_interaction`)"""
        return validate_interaction(self).ok

    @cached_property
    def conserved_bases(self) -> dict:
        """``functions.conserved_quantities`` of this phi per state
        measure, each kept when first worked out."""
        return {}

    @cached_property
    def is_symmetric(self) -> bool:
        """phi(a, b) = (c, d) exactly when phi(b, a) = (d, c), as in
        exclusion: then the transitions across (o, t) and (t, o) are the
        same map."""
        return all(self.phi[b][a] == (d, c)
                   for (a, b), (c, d) in self.changed_pairs())


def make_interaction(states: Sequence, base,
                     phi_map: Optional[Mapping] = None) -> Interaction:
    """Build an interaction from a map of changed pairs (identity elsewhere).

    ``phi_map`` keys and values are pairs of state labels.
    """
    states = tuple(states)
    if base not in states:
        raise ValueError(f"base state {base!r} not among states")
    index = {s: k for k, s in enumerate(states)}
    n = len(states)
    table = [[(i, j) for j in range(n)] for i in range(n)]
    for (a, b), (c, d) in (phi_map or {}).items():
        table[index[a]][index[b]] = (index[c], index[d])
    return Interaction(states, base, tuple(tuple(row) for row in table))


def exclusion_interaction(n_states: int = 2) -> Interaction:
    """phi swaps the two sides of every edge (simple exclusion for two
    states, multi-color exclusion beyond)."""
    states = tuple(range(n_states))
    phi = {(i, j): (j, i) for i in states for j in states if i != j}
    return make_interaction(states, 0, phi)


def identity_interaction(n_states: int = 2) -> Interaction:
    return make_interaction(tuple(range(n_states)), 0, {})


@dataclass(frozen=True)
class InteractionReport:
    violations: tuple  # ((i, j), orbit) per failing changed pair

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_interaction(interaction: Interaction) -> InteractionReport:
    """Check the reversibility condition: on every changed pair,
    swap-then-phi applied twice returns the original pair."""
    bad = []
    for (i, j), _ in interaction.changed_pairs():
        a, b = interaction.phi_pair(i, j)
        c, d = interaction.phi_pair(b, a)  # hat-i then phi
        final = (d, c)  # trailing hat-i
        if final != (i, j):
            bad.append(((i, j), final))
    return InteractionReport(tuple(bad))


def require_reversible(interaction: Interaction) -> None:
    """Raise NotReversible, naming each failing changed pair and where
    swap-then-phi twice takes it (as state labels), unless phi is
    reversible."""
    if interaction.is_reversible:
        return
    label = interaction.states
    violations = validate_interaction(interaction).violations
    raise NotReversible(
        "phi is not reversible: swap-then-phi twice does not return "
        "every changed pair",
        pairs=[[label[i], label[j]] for (i, j), _ in violations],
        returns_to=[[label[i], label[j]] for _, (i, j) in violations])


# ---------------------------------------------------------------------------
# site sets and configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SiteSet:
    sites: tuple[int, ...]

    def __post_init__(self):
        if list(self.sites) != sorted(set(self.sites)):
            raise ValueError("sites must be sorted and duplicate-free")

    def __len__(self):
        return len(self.sites)

    def __iter__(self):
        return iter(self.sites)

    def __contains__(self, site):
        return site in self._positions

    @cached_property
    def _positions(self) -> dict[int, int]:
        return {s: k for k, s in enumerate(self.sites)}

    def position(self, site: int) -> int:
        return self._positions[site]

    def is_subset_of(self, other: "SiteSet") -> bool:
        return set(self.sites) <= set(other.sites)

    def union(self, other: "SiteSet") -> "SiteSet":
        return SiteSet(tuple(sorted(set(self.sites) | set(other.sites))))

    def intersection(self, other: "SiteSet") -> "SiteSet":
        return SiteSet(tuple(sorted(set(self.sites) & set(other.sites))))

    def difference(self, other: "SiteSet") -> "SiteSet":
        return SiteSet(tuple(sorted(set(self.sites) - set(other.sites))))


def siteset(sites: Iterable[int], locale: Optional[Locale] = None) -> SiteSet:
    ss = SiteSet(tuple(sorted(set(sites))))
    if locale is not None and not set(ss.sites) <= set(locale.sites):
        raise ValueError("site set not contained in the locale")
    return ss


@dataclass(frozen=True)
class Config:
    sites: SiteSet
    assignment: tuple[int, ...]

    def __post_init__(self):
        if len(self.assignment) != len(self.sites):
            raise ValueError("assignment length != number of sites")

    def state_at(self, site: int) -> int:
        return self.assignment[self.sites.position(site)]

    def relabel(self, sigma: "SiteMap") -> "Config":
        """Push forward along a site map: the state at s moves to sigma(s)."""
        new_sites = sigma.map_siteset(self.sites)
        assignment = [0] * len(self.assignment)
        for s, state in zip(self.sites, self.assignment):
            assignment[new_sites.position(sigma.apply_or_raise(s))] = state
        return Config(new_sites, tuple(assignment))


@dataclass(frozen=True)
class ConfigSpace:
    """Mixed-radix index <-> configuration bijection over S^Lambda."""

    sites: SiteSet
    n_states: int

    @cached_property
    def size(self) -> int:
        return self.n_states ** len(self.sites)

    def encode(self, assignment: Sequence[int]) -> int:
        idx = 0
        for digit in reversed(assignment):
            idx = idx * self.n_states + digit
        return idx

    def decode(self, index: int) -> tuple[int, ...]:
        digits = []
        for _ in range(len(self.sites)):
            digits.append(index % self.n_states)
            index //= self.n_states
        return tuple(digits)

    def assignments(self):
        """Every assignment, in index order."""
        return (digits[::-1] for digits in itertools.product(
            range(self.n_states), repeat=len(self.sites)))

    def config(self, index: int) -> Config:
        return Config(self.sites, self.decode(index))


def enumerate_configs(sites: SiteSet, interaction: Interaction,
                      state_cap: int = DEFAULT_STATE_CAP) -> ConfigSpace:
    space = ConfigSpace(sites, interaction.n_states)
    guard_space(space.n_states, len(sites), state_cap,
                what=f"S^Lambda with |Lambda|={len(sites)}")
    return space


def check_int(value, name: str, least: Optional[int] = None) -> int:
    """``value``, an int (not a bool) of at least ``least`` (0 or 1) where
    given; else a ValueError that names ``name``."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or least is not None and value < least):
        kind = {None: "an", 0: "a non-negative", 1: "a positive"}[least]
        raise ValueError(f"{name} must be {kind} int, got {value!r}")
    return value


def guard_space(n_states: int, n_sites: int, state_cap: int,
                what: str = "configuration space"):
    """Raise SpaceTooLarge where the ``n_states ** n_sites`` configurations
    exceed the cap.  The ``size`` detail is that int, or the string
    ``"n^k"`` where the int has more digits than Python converts to text
    (``sys.get_int_max_str_digits``); the message writes it the same way."""
    check_int(state_cap, "state_cap", 1)
    size = n_states ** n_sites
    if size > state_cap:
        try:
            text = str(size)
        except ValueError:
            size = text = f"{n_states}^{n_sites}"
        raise SpaceTooLarge(
            f"{what} has {text} configurations (cap {state_cap})",
            size=size, cap=state_cap)


def apply_transition(eta: Config, edge: Edge, interaction: Interaction) -> Config:
    """Apply phi across ``edge``; all other sites unchanged."""
    o, t = edge
    if o not in eta.sites or t not in eta.sites:
        raise EdgeOutsideSiteSet(f"edge {edge} leaves the site set", edge=edge)
    po, pt = eta.sites.position(o), eta.sites.position(t)
    new_o, new_t = interaction.phi_pair(eta.assignment[po], eta.assignment[pt])
    assignment = list(eta.assignment)
    assignment[po], assignment[pt] = new_o, new_t
    return Config(eta.sites, tuple(assignment))


def transition_offsets(space: ConfigSpace, edge: Edge, changed
                       ) -> tuple[int, int, tuple[tuple[int, ...], ...]]:
    """The transition across ``edge`` by the states at its endpoints:
    ``(so, st, offsets)``, where the configuration of index i, with states
    a = i // so % n at ``edge[0]`` and b = i // st % n at ``edge[1]``,
    moves to i + offsets[a][b].  phi moves the digits of the two endpoints
    only, so eta^e - eta is fixed by (a, b): nonzero for the ``changed``
    pairs ``((a, b), (a2, b2))`` of phi, 0 for the pairs phi fixes."""
    o, t = edge
    if o not in space.sites or t not in space.sites:
        raise EdgeOutsideSiteSet(f"edge {edge} leaves the site set", edge=edge)
    n = space.n_states
    so, st = n ** space.sites.position(o), n ** space.sites.position(t)
    offsets = [[0] * n for _ in range(n)]
    for (a, b), (a2, b2) in changed:
        offsets[a][b] = (a2 - a) * so + (b2 - b) * st
    return so, st, tuple(map(tuple, offsets))


def transition_runs(space: ConfigSpace, edge: Edge,
                    changed) -> list[tuple[int, int, int, int]]:
    """The configurations whose endpoint states ``(a, b)`` (at ``edge[0]``
    and ``edge[1]``) are one of the ``changed`` pairs ``((a, b), (a2, b2))``
    of phi, as runs ``(start, stop, step, delta)``: every index i in
    ``range(start, stop, step)`` moves to i + delta across ``edge`` (the
    offset of ``transition_offsets``).  With the endpoint states fixed,
    the other digits form three blocks (below both endpoints, between
    them, above both), and the indices along one block are an arithmetic
    progression; each run follows the longest block."""
    so, st, offsets = transition_offsets(space, edge, changed)
    n, size = space.n_states, space.size
    low, high = min(so, st), max(so, st)
    # (stride, count) per block of free digits, the longest last
    (s1, c1), (s2, c2), (step, count) = sorted(
        [(1, low), (low * n, high // (low * n)),
         (high * n, size // (high * n))], key=lambda block: block[1])
    runs = []
    for a, b in itertools.product(range(n), repeat=2):
        if delta := offsets[a][b]:
            for j in range(c1):
                for k in range(c2):
                    start = a * so + b * st + j * s1 + k * s2
                    runs.append((start, start + step * count, step, delta))
    return runs


def kept_moves(interaction: Interaction) -> tuple[list, list]:
    """The changed pairs ``((a, b), (a2, b2))`` of phi whose transitions a
    pass over every undirected link reads, and those of them whose image
    moves back, phi(a2, b2) = (a, b).  Of two such pairs each one's
    transitions across a directed edge are the inverses of the other's
    (both moves of exclusion); the one whose own states come first is
    kept."""
    kept, inverse = [], []
    for move in interaction.changed_pairs():
        ab, moved = move
        if interaction.phi_pair(*moved) == ab:
            if moved < ab:
                continue
            inverse.append(move)
        kept.append(move)
    return kept, inverse


def kron(vectors: Sequence[Sequence], unit=0, op=add) -> list:
    """Combine one vector per digit in index order, the first vector the
    least significant digit: entry i folds ``op`` from ``unit`` over
    ``vectors[k][d_k]``, where d_k is digit k of i.  A vector of length one
    pins its digit, which then takes no place in the index."""
    table = [unit]
    for vector in vectors:
        # this digit becomes the most significant digit of the index so far
        grown = []
        for a in vector:
            grown += map(op, table, itertools.repeat(a))
        table = grown
    return table


def _digit_runs(n: int, stride: int, size: int):
    """Move the digit of the given stride between a table of ``size``
    entries and its n digit slices: (digit, slice of the table, slice of
    that digit's part) triples of equal lengths.  The runs are one slice
    per block of ``stride * n`` entries, or one extended slice per offset
    below the stride where offsets are fewer and blocks short (extended
    slices a long block apart read memory slower than block copies)."""
    block = stride * n
    if block < 128 and stride * block <= size:
        return ((a, slice(a * stride + x, None, block), slice(x, None, stride))
                for a in range(n) for x in range(stride))
    return ((a, slice(b + a * stride, b + (a + 1) * stride),
             slice(b // n, b // n + stride))
            for b in range(0, size, block) for a in range(n))


def digit_slices(values: Sequence, n: int, stride: int) -> list[list]:
    """Split a table in index order by the digit of the given stride: slice
    a holds the entries whose digit is a, ordered by the remaining digits."""
    if stride == 1:
        return [values[a::n] for a in range(n)]
    slices = [[None] * (len(values) // n) for _ in range(n)]
    for a, whole, part in _digit_runs(n, stride, len(values)):
        slices[a][part] = values[whole]
    return slices


def interleave(slices: Sequence[Sequence], stride: int) -> list:
    """Inverse of ``digit_slices``: put the digit of the given stride back,
    slice a supplying the entries whose digit is a."""
    values = [None] * (len(slices[0]) * len(slices))
    for a, whole, part in _digit_runs(len(slices), stride, len(values)):
        values[whole] = slices[a][part]
    return values


def spread(values: Sequence, sub: SiteSet, space: ConfigSpace) -> list:
    """A table on ``sub`` (a subset of the space's sites) as a dense list on
    the space: entry i is the value at the restriction of configuration i.
    On ``range(n ** len(sub))`` it gives the index of each restriction.

    Only the other sites between the first and last site of ``sub`` are
    interleaved, one digit at a time.  The digits below that span repeat
    each entry (one extended slice per repeat, or one block per entry where
    entries are fewer), and the digits above it repeat the whole list."""
    if not sub.is_subset_of(space.sites):
        raise NotSubset("restriction target is not a subset of the sites")
    n, positions = space.n_states, [space.sites.position(s) for s in sub]
    lo, hi = (positions[0], positions[-1]) if positions else (0, -1)
    dense = list(values)
    for k in range(lo + 1, hi):
        if space.sites.sites[k] not in sub:
            dense = interleave([dense] * n, n ** (k - lo))
    repeat = n ** lo
    if repeat > 1:
        below = [None] * (len(dense) * repeat)
        if repeat <= len(dense):
            for x in range(repeat):
                below[x::repeat] = dense
        else:
            for j, v in enumerate(dense):
                below[j * repeat:(j + 1) * repeat] = [v] * repeat
        dense = below
    above = n ** (len(space.sites) - 1 - hi)
    return dense * above if above > 1 else dense


# ---------------------------------------------------------------------------
# transition graph
# ---------------------------------------------------------------------------

def edges_within(locale: Locale, sites: SiteSet) -> tuple[Edge, ...]:
    """E_Lambda: locale edges with both endpoints in the site set."""
    inside = set(sites.sites)
    return tuple(sorted(e for e in locale.edges
                        if e[0] in inside and e[1] in inside))


@dataclass(frozen=True)
class TransitionGraph:
    """All transitions (eta, eta^e) with eta^e != eta over a site set, kept
    as the space, the edges and the interaction: the transitions of each
    edge are the arithmetic runs of ``transition_runs``, and nothing is
    stored per transition.

    ``records`` lists one (src index, edge, dst index) triple per
    (configuration, edge) pair, even when several edges produce the same
    target, in index order and then edge order; it is built when read,
    one configuration at a time by the tables of ``transition_offsets``.
    ``pairs`` deduplicates to the underlying graph on configurations; the
    tests eliminate over it as an independent check of the rank.  Both
    keep every directed transition.  The space size minus
    ``n_components`` is the edge count of a spanning forest: the rank of
    the differential, and so the closed-form dimension ``dims`` reports.

    The components depend only on which configurations are linked, so the
    labelling reads each undirected link once where it can (``_links``).
    Where phi is symmetric the transitions across (t, o) are the same map
    as those across (o, t), and where phi is reversible they are its
    inverse, so one orientation per site pair reaches every link; of each
    two changed pairs of phi that undo each other across one directed
    edge, ``kept_moves`` keeps one, whose transitions are the other's
    reversed.  Every link is still read at least once.
    """

    space: ConfigSpace
    edges: tuple[Edge, ...]
    interaction: Interaction

    def _runs(self):
        changed = tuple(self.interaction.changed_pairs())
        for e in self.edges:
            yield from transition_runs(self.space, e, changed)

    def _links(self):
        """Runs that reach every undirected link of the graph (see the
        class docstring)."""
        interaction, edges = self.interaction, self.edges
        if interaction.is_symmetric or interaction.is_reversible:
            edges = sorted({(min(e), max(e)) for e in edges})
        kept, _ = kept_moves(interaction)
        for e in edges:
            yield from transition_runs(self.space, e, kept)

    @cached_property
    def records(self) -> tuple[tuple[int, Edge, int], ...]:
        n, changed = self.space.n_states, self.interaction.changed_pairs
        moves = [(e, *transition_offsets(self.space, e, changed()))
                 for e in self.edges]
        return tuple((idx, e, idx + d)
                     for idx in range(self.space.size)
                     for e, so, st, offsets in moves
                     if (d := offsets[idx // so % n][idx // st % n]))

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted({(i, i + delta)
                             for start, stop, step, delta in self._runs()
                             for i in range(start, stop, step)}))

    @cached_property
    def component_labels(self) -> tuple[int, ...]:
        """Component of each configuration, numbered in order of first
        appearance.  Union-find over ``_links`` keeps every parent at most
        its child (a root is the least index of its tree), so one pass in
        index order meets each root before the rest of its component and
        each parent before its children."""
        parent = list(range(self.space.size))
        for start, stop, step, delta in self._links():
            for a in range(start, stop, step):
                b = a + delta
                while parent[a] != a:   # path halving
                    parent[a] = a = parent[parent[a]]
                while parent[b] != b:
                    parent[b] = b = parent[parent[b]]
                if a < b:
                    parent[b] = a
                elif b < a:
                    parent[a] = b
        labels, count = parent, 0   # overwritten in place, index by index
        for i, p in enumerate(parent):
            if p == i:
                labels[i], count = count, count + 1
            else:
                labels[i] = labels[p]
        return tuple(labels)

    @property
    def n_components(self) -> int:
        return max(self.component_labels, default=-1) + 1


def transition_graph(sites: SiteSet, interaction: Interaction, locale: Locale,
                     state_cap: int = DEFAULT_STATE_CAP) -> TransitionGraph:
    """The transition graph of the locale's edges within ``sites``, which
    must lie inside the locale."""
    outside = set(sites) - set(locale.sites)
    if outside:
        raise NotSubset("site set is not inside the locale",
                        outside=sorted(outside))
    space = enumerate_configs(sites, interaction, state_cap)
    return TransitionGraph(space, edges_within(locale, sites), interaction)


# ---------------------------------------------------------------------------
# group elements (partial site bijections)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SiteMap:
    """Partial injective site map; ``None`` marks images outside the window."""

    pairs: tuple[tuple[int, int], ...]
    label: str = ""

    @cached_property
    def _map(self) -> dict[int, int]:
        return dict(self.pairs)

    def apply(self, site: int) -> Optional[int]:
        return self._map.get(site)

    def apply_or_raise(self, site: int) -> int:
        image = self._map.get(site)
        if image is None:
            raise ActionLeavesWindow(
                f"{self.label or 'group element'} maps site {site} outside the window",
                site=site)
        return image

    def inverse(self) -> "SiteMap":
        return SiteMap(tuple(sorted((b, a) for a, b in self.pairs)),
                       label=f"{self.label}^-1" if self.label else "")

    def map_siteset(self, sites: SiteSet) -> SiteSet:
        return SiteSet(tuple(sorted(self.apply_or_raise(s) for s in sites)))


def group_act(sigma: SiteMap, target):
    """Apply a group element to a Config, FnTable, or Form: each moves by
    its own ``relabel``."""
    relabel = getattr(target, "relabel", None)
    if relabel is None:
        raise TypeError(f"cannot act on {type(target).__name__}")
    return relabel(sigma)


def translation_map(locale: Locale, vector: Sequence[int]) -> SiteMap:
    """Lattice translation as a site map (partial on windows, total on tori)."""
    if locale.lattice is None:
        raise ValueError("locale has no lattice metadata")
    meta = locale.lattice
    vector = tuple(vector)
    pairs = []
    for s in locale.sites:
        moved = meta.translate_coord(meta.site_to_coord(s), vector)
        image = meta.coord_to_site(moved)
        if image is not None:
            pairs.append((s, image))
    return SiteMap(tuple(pairs), label=f"shift{vector}")


def identity_map(locale: Locale) -> SiteMap:
    return SiteMap(tuple((s, s) for s in locale.sites), label="id")


def permutation_map(mapping: Mapping[int, int], label: str = "") -> SiteMap:
    if len(set(mapping.values())) != len(mapping):
        raise ValueError("site map must be injective")
    return SiteMap(tuple(sorted(mapping.items())), label=label)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def site_diameter(sites: SiteSet, locale: Locale) -> int:
    """Max over pairs in the site set of the graph distance in the locale."""
    if len(sites) == 0:
        raise EmptySet("diameter of the empty site set")
    best = 0
    for s in sites:
        dist = locale.distances_from(s)
        for t in sites:
            if dist[t] > best:
                best = dist[t]
    return best
