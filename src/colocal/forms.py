"""Degree-one forms on configuration graphs: differential, path integrals,
potential solving, kernels, and projection.

A form assigns a scalar to every genuine transition ``(eta, eta^e)``.  Per
edge this is a table ``omega_e`` with three structural constraints: it
vanishes where the transition fixes the configuration, it agrees across
edges producing the same target, and it is alternating (reversing the edge
after the move flips the sign).  Only one orientation per undirected edge is
stored; the reverse is derived through the alternating identity, which makes
that constraint structural.  The identity needs the reversed transition to
undo the forward one, so every form's phi is reversible.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, count
from operator import add, eq, indexOf, ne, neg, sub
from typing import Mapping, Optional, Sequence

from .errors import (
    InvalidPath,
    MalformedForm,
    NotClosed,
    NotOrdinary,
    NotSubset,
)
from .measure import (
    Measure,
    WindowMeasure,
    _window_projection,
    conditional_expectation,
    expectation,
    is_ordinary,
    weight_table,
)
from .scalars import Scalar, from_numerators
from .statespace import (
    Config,
    ConfigSpace,
    DEFAULT_STATE_CAP,
    Edge,
    Interaction,
    Locale,
    SiteSet,
    apply_transition,
    edges_within,
    guard_space,
    kept_moves,
    kron,
    require_reversible,
    spread,
    transition_graph,
    transition_offsets,
    transition_runs,
)
from .tables import FnTable, aligned, fn_zeros


def canonical_edge(edge: Edge) -> Edge:
    return edge if edge[0] < edge[1] else (edge[1], edge[0])


def canonical_pairs(edges) -> tuple[Edge, ...]:
    return tuple(sorted({canonical_edge(e) for e in edges}))


@dataclass(frozen=True)
class Form:
    """Edge tables over an ambient site set, stored in canonical orientation
    (smaller endpoint first).  Table supports may be proper subsets of the
    ambient sites; evaluation embeds on the fly.  The interaction must be
    reversible (NotReversible otherwise)."""

    sites: SiteSet
    interaction: Interaction
    edges: tuple[Edge, ...]                 # canonical undirected pairs
    tables: Mapping[Edge, FnTable]

    def __post_init__(self):
        require_reversible(self.interaction)

    @property
    def n_states(self) -> int:
        return self.interaction.n_states

    @cached_property
    def space(self) -> ConfigSpace:
        return ConfigSpace(self.sites, self.n_states)

    def edge_value(self, edge: Edge, assignment: Sequence[int]) -> Scalar:
        """omega_edge at an ambient assignment, any orientation."""
        key = canonical_edge(edge)
        if key not in self.tables:
            raise KeyError(f"edge {edge} not part of this form")
        eta = Config(self.sites, tuple(assignment))
        moved = apply_transition(eta, edge, self.interaction)
        if moved == eta:
            return Fraction(0)
        if edge == key:
            return self.tables[key].evaluate_in(self.sites, eta.assignment)
        return -self.tables[key].evaluate_in(self.sites, moved.assignment)

    def dense_table(self, edge: Edge) -> FnTable:
        """omega_edge as a dense table on the ambient sites."""
        key = canonical_edge(edge)
        if key not in self.tables:
            raise KeyError(f"edge {edge} not part of this form")
        return _directed_table(self.tables[key], self.interaction, edge,
                               edge == key, self.sites)

    def is_zero(self) -> bool:
        return all(t.is_zero() for t in self.tables.values())

    def _combine(self, other: "Form", sign: int) -> "Form":
        if self.sites != other.sites or self.edges != other.edges:
            raise MalformedForm("forms live on different windows")
        tables = {}
        for e in self.edges:
            a, b = self.tables[e], other.tables[e]
            support = a.sites.union(b.sites)
            merged = a.embed(support) + (b.embed(support) if sign > 0
                                         else -b.embed(support))
            tables[e] = merged
        return Form(self.sites, self.interaction, self.edges, tables)

    def __add__(self, other: "Form") -> "Form":
        return self._combine(other, +1)

    def __sub__(self, other: "Form") -> "Form":
        return self._combine(other, -1)

    def scale(self, c: Scalar) -> "Form":
        return Form(self.sites, self.interaction, self.edges,
                    {e: t.scale(c) for e, t in self.tables.items()})

    def relabel(self, sigma) -> "Form":
        """Push forward along a site map (forms move like their transitions)."""
        new_sites = sigma.map_siteset(self.sites)
        tables = {}
        for (o, t), table in self.tables.items():
            image = (sigma.apply_or_raise(o), sigma.apply_or_raise(t))
            moved = table.relabel(sigma)
            key = canonical_edge(image)
            tables[key] = moved if key == image else _directed_table(
                moved, self.interaction, key, False)
        edges = tuple(sorted(tables))
        return Form(new_sites, self.interaction, edges, tables)


def _directed_table(table: FnTable, interaction: Interaction, edge: Edge,
                    same: bool, sites: Optional[SiteSet] = None) -> FnTable:
    """omega of the directed edge from ``table``, of one orientation of its
    pair: the table where the edge moves eta if it is the edge's own
    (``same``), else the alternating value -table(eta^e); 0 where the edge
    fixes eta.  On ``sites``, by default the table's sites plus the edge's
    endpoints; filled run by run (see ``statespace.transition_runs``)."""
    if sites is None:
        sites = table.sites.union(SiteSet(tuple(sorted(edge))))
    space = ConfigSpace(sites, interaction.n_states)
    values, den = table.embed(sites).numerators
    out = [0] * space.size
    for start, stop, step, delta in transition_runs(
            space, edge, interaction.changed_pairs()):
        out[start:stop:step] = (
            values[start:stop:step] if same else
            map(neg, values[start + delta:stop + delta:step]))
    return FnTable.from_numerators(sites, interaction.n_states, out, den)


def make_form(sites: SiteSet, interaction: Interaction, edges,
              tables: Mapping[Edge, FnTable], *, validate: bool = True,
              state_cap: int = DEFAULT_STATE_CAP) -> Form:
    """Build a form from per-edge tables (either orientation; missing edges
    get the zero table) and check the structural constraints."""
    require_reversible(interaction)   # before any table is read
    pairs = canonical_pairs(edges)
    pair_set = set(pairs)
    stored: dict[Edge, FnTable] = {}
    reversed_given: dict[Edge, FnTable] = {}
    for edge, table in tables.items():
        edge = tuple(edge)
        key = canonical_edge(edge)
        if key not in pair_set:
            raise MalformedForm(f"table for edge {edge} outside the edge set",
                                edge=edge)
        if not table.sites.is_subset_of(sites):
            raise MalformedForm(f"table support for {edge} leaves the window",
                                edge=edge)
        if edge == key:
            if key in stored:
                raise MalformedForm(f"duplicate table for edge {key}", edge=key)
            stored[key] = table
        else:
            reversed_given[key] = table
    for key, rev in reversed_given.items():
        if validate:
            _check_zero_on_fixed(rev, (key[1], key[0]), interaction)
        derived = _directed_table(rev, interaction, key, False)
        if key not in stored:
            stored[key] = derived
        elif validate:
            support = derived.sites.union(stored[key].sites)
            a = stored[key].embed(support)
            b = derived.embed(support)
            if not a.equals(b):
                raise MalformedForm(
                    f"tables for the two orientations of {key} are not "
                    "alternating-consistent", edge=key)
    for key in pairs:
        if key not in stored:
            stored[key] = fn_zeros(SiteSet(key), interaction.n_states)

    form = Form(sites, interaction, pairs, stored)
    if validate:
        validate_form(form, state_cap=state_cap)
    return form


def validate_form(form: Form, state_cap: int = DEFAULT_STATE_CAP):
    """Check that every stored table is zero where its transition fixes the
    configuration, and that directed edges with a common target agree
    there; MalformedForm names the first disagreement that
    ``_first_disagreement`` finds."""
    guard_space(form.n_states, len(form.sites), state_cap)
    for e in form.edges:
        _check_zero_on_fixed(form.tables[e], e, form.interaction)
    first = _first_disagreement(form)
    if first is not None:
        idx, _, e, earlier = first
        raise MalformedForm(f"omega_{e} and omega_{earlier} disagree on "
                            "a shared transition",
                            assignment=form.space.decode(idx))


def _first_disagreement(form: Form) -> Optional[tuple]:
    """(index, directed-edge position, edge, earlier edge), or None: the
    least configuration where two directed edges (each pair, then its
    reverse) move to one target with different values, the first edge
    there that differs from the first to reach its target, and that one.

    Moves from one configuration share a target exactly when they change
    the same sites to the same states.  A move that changes both
    endpoints shares it only with the reversed edge, where its image moves
    back: that is alternation, checked on the pair's own table
    (``_alternating``).  The moves that change one site the same way are
    compared one configuration at a time, on dense tables."""
    space, interaction = form.space, form.interaction
    changed = tuple(interaction.changed_pairs())
    back = [(ab, moved) for ab, moved in changed
            if all(map(ne, ab, moved)) and interaction.phi_pair(*moved) == ab]
    firsts = []   # the first disagreement of each pair or class
    for i, pair in enumerate(form.edges):
        idx = _alternating(form.tables[pair], pair, space, back)
        if idx is not None:
            firsts.append((idx, 2 * i + 1, pair[::-1], pair))
    classes: dict[tuple, list] = {}
    for k, e in enumerate(e for pair in form.edges
                          for e in (pair, pair[::-1])):
        for (a, b), (a2, b2) in changed:
            if (a == a2) != (b == b2):   # one endpoint changes
                change = (e[0], a, a2) if a != a2 else (e[1], b, b2)
                classes.setdefault(change, []).append(
                    (k, e, ((a, b), (a2, b2))))
    shared = [members for members in classes.values() if len(members) > 1]
    dense = _dense_tables(form)[0] if shared else []
    for members in shared:
        seen, bad = {}, []
        for k, e, moved in members:
            values, stored = dense[k // 2], k % 2 == 0
            for start, stop, step, delta in transition_runs(space, e,
                                                             [moved]):
                for idx in range(start, stop, step):
                    value = values[idx] if stored else -values[idx + delta]
                    if seen.setdefault(idx, value) != value:
                        bad.append((idx, k, e))
                        break   # the run's later indices lose to this one
        if bad:
            idx, k, e = min(bad)
            eta = space.config(idx)
            firsts.append((idx, k, e, next(
                other for _, other, (ab, _) in members
                if (eta.state_at(other[0]), eta.state_at(other[1])) == ab)))
    return min(firsts, default=None)


def _check_zero_on_fixed(table: FnTable, edge: Edge,
                         interaction: Interaction):
    """Raise MalformedForm where omega_edge is nonzero on a configuration
    (of the table's sites plus the endpoints) that the transition fixes."""
    kept = _directed_table(table, interaction, edge, True)
    nums = table.embed(kept.sites).numerators.nums
    # the first entry off its kept value is nonzero where e fixes eta
    idx = next(compress(count(), map(ne, nums, kept.numerators.nums)), None)
    if idx is not None:
        raise MalformedForm(f"omega_{edge} nonzero on a fixed configuration",
                            edge=edge, sites=kept.sites.sites,
                            assignment=kept.space.decode(idx))


def _dense_tables(form: Form) -> tuple[list, int]:
    """The stored table of every pair, dense on the form's sites, as
    numerators over one denominator (see ``tables.aligned``), and that
    denominator."""
    stored = [form.tables[pair] for pair in form.edges]
    parts, den = aligned(stored)
    dense = [part if table.sites == form.sites else
             spread(part, table.sites, form.space)
             for table, part in zip(stored, parts)]
    return dense, den


# ---------------------------------------------------------------------------
# differential and paths
# ---------------------------------------------------------------------------

def differential(f: FnTable, interaction: Interaction, locale: Locale,
                 state_cap: int = DEFAULT_STATE_CAP) -> Form:
    """The gradient form: (df)_e(eta) = f(eta^e) - f(eta)."""
    guard_space(f.n_states, len(f.sites), state_cap)
    pairs = canonical_pairs(edges_within(locale, f.sites))
    return Form(f.sites, interaction, pairs,
                dict(_differentials(f, interaction, pairs)))


def edge_differential(f: FnTable, interaction: Interaction,
                      edge: Edge) -> FnTable:
    """(df)_edge as a table on the sites of f: f(eta^e) - f(eta), zero where
    the transition fixes eta."""
    return next(_differentials(f, interaction, (edge,)))[1]


def _differentials(f: FnTable, interaction: Interaction, edges):
    """Yield (e, (df)_e) edge by edge, subtracting the numerators of f run
    by run (see ``statespace.transition_runs``)."""
    nums, den = f.numerators
    for e in edges:
        diffs = [0] * len(nums)
        for start, stop, step, delta in transition_runs(
                f.space, e, interaction.changed_pairs()):
            diffs[start:stop:step] = map(sub, nums[start + delta:
                                                   stop + delta:step],
                                         nums[start:stop:step])
        yield e, FnTable.from_numerators(f.sites, f.n_states, diffs, den)


@dataclass(frozen=True)
class Path:
    """A start configuration and a sequence of edges, each a genuine
    transition."""

    start: Config
    edges: tuple[Edge, ...]


def path_configs(path: Path, interaction: Interaction):
    """All configurations along the path; raises InvalidPath on a step that
    fixes the configuration or leaves the site set."""
    configs = [path.start]
    current = path.start
    for k, e in enumerate(path.edges):
        if e[0] not in current.sites or e[1] not in current.sites:
            raise InvalidPath(f"step {k} edge {e} leaves the site set",
                              step=k, edge=e)
        moved = apply_transition(current, e, interaction)
        if moved == current:
            raise InvalidPath(f"step {k} fixes the configuration", step=k, edge=e)
        configs.append(moved)
        current = moved
    return configs


def is_closed_path(path: Path, interaction: Interaction) -> bool:
    configs = path_configs(path, interaction)
    return configs[0] == configs[-1]


def path_integral(form: Form, path: Path) -> Scalar:
    """Sum of omega over the path's transitions."""
    if path.start.sites != form.sites:
        raise InvalidPath("path configurations live outside the form's window")
    configs = path_configs(path, form.interaction)
    for k, e in enumerate(path.edges):
        if canonical_edge(e) not in form.tables:
            raise InvalidPath(f"step {k} edge {e} is not an edge of the form",
                              step=k, edge=e)
    total = Fraction(0)
    for eta, e in zip(configs, path.edges):
        total = total + form.edge_value(e, eta.assignment)
    return total


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

def solve_potential(form: Form, mu: Optional[Measure] = None, *,
                    state_cap: int = DEFAULT_STATE_CAP) -> FnTable:
    """Integrate the form to a potential f with df = omega, or raise
    NotClosed with a witness cycle of nonzero integral.

    The potential is 0 at the lexicographically smallest configuration of
    each connected component; df = omega fixes it up to that constant per
    component.  A scan in lexicographic order gives each configuration the
    value implied by its first lexicographically smaller neighbour, or 0 if
    it has none: a spanning forest with one tree per local minimum.  One
    pass over the transitions of every pair's stored orientation certifies
    a potential (phi is reversible, so the reversed orientation's
    transitions are their inverses).  Of each two changed pairs of phi
    that move into each other across one directed edge (both moves of
    exclusion) the pass reads one (``statespace.kept_moves``, the rule
    the component labelling of ``TransitionGraph`` reads too), and
    alternation, omega(eta) + omega(eta^e) = 0, checked first on each
    pair's own table, covers the other.  On d=1 paths each component has
    one local minimum, its smallest configuration, and the scan is
    certified as it stands.  Otherwise (on a d=2 box other local minima
    are the rule: two particles at sites 5 and 8 of the 3x3 box have no
    smaller neighbour, but their component starts at 7 and 8) the trees are
    joined: every transition between two trees says how their constants
    differ, a weighted union-find over those links shifts each tree onto
    the first tree of its component in lexicographic order, and the same
    pass certifies the result.  The join decides nothing: where that pass
    fails too, the form is not closed, and ``_witness`` builds the cycle.
    If ``mu`` is given the result is shifted to zero mean.
    """
    guard_space(form.n_states, len(form.sites), state_cap)
    dense, den = _dense_tables(form)
    kept, inverse = kept_moves(form.interaction)
    if any(_alternating(form.tables[pair], pair, form.space, inverse)
           is not None for pair in form.edges):
        raise _witness(form, dense, den)
    runs = [transition_runs(form.space, pair, kept) for pair in form.edges]
    potential, offset = _scan(form, dense)
    if not _certified(potential, runs, dense):
        potential = _join_roots(form.space, runs, dense, potential, offset)
        if not _certified(potential, runs, dense):
            # free the solver's lists before the search makes its own
            del potential, offset, runs
            raise _witness(form, dense, den)
    table = FnTable.from_numerators(form.sites, form.n_states, potential,
                                    den)
    if mu is not None:
        table = table.shift(-expectation(table, mu))
    return table


def _alternating(table: FnTable, pair: Edge, space: ConfigSpace,
                 moves) -> Optional[int]:
    """The least index of ``space`` at which one of the ``moves`` of phi
    across ``pair`` has omega_pair(eta) + omega_pair(eta^e) != 0, or None:
    the least failing configuration of the table's sites plus the pair's
    endpoints, with state 0 at every other site."""
    sites = table.sites.union(SiteSet(pair))
    local = ConfigSpace(sites, space.n_states)
    values = table.embed(sites).numerators.nums
    firsts = []
    for start, stop, step, delta in transition_runs(local, pair, moves):
        minus = list(map(neg, values[start:stop:step]))
        moved = values[start + delta:stop + delta:step]
        if minus != moved:
            firsts.append(start + step * indexOf(map(eq, minus, moved), False))
    return None if not firsts else sum(
        d * space.n_states ** space.sites.position(s)
        for s, d in zip(sites, local.decode(min(firsts))))


def _certified(potential: list, runs: list, dense: list) -> bool:
    """potential(eta^e) - potential(eta) == omega_e(eta) on every
    transition of ``runs`` (per pair, in its stored orientation, with the
    dense pair numerators ``dense``)."""
    return all(list(map(sub, potential[start + delta:stop + delta:step],
                        potential[start:stop:step]))
               == values[start:stop:step]
               for pair_runs, values in zip(runs, dense)
               for start, stop, step, delta in pair_runs)


def _scan(form: Form, dense: list) -> tuple[list, array]:
    """Potential numerators visited in lexicographic order: each takes the
    value implied by its first lexicographically smaller neighbour across
    the directed edges, or 0 where there is none.  Also returns, per
    configuration, the index offset to that neighbour (0: none), the
    parent links of the scan's spanning forest.  Under a symmetric phi the
    reversed orientation moves like the stored one and is skipped."""
    space, interaction = form.space, form.interaction
    # per configuration, the index offset of the chosen smaller neighbour
    # (0: none) and omega along the move; the edges are written in reverse
    # so that the first one wins
    offset = array("q", [0]) * space.size
    omega = [0] * space.size
    directed = []
    for pair, values in zip(form.edges, dense):
        directed.append((pair, values, True))
        if not interaction.is_symmetric:
            directed.append(((pair[1], pair[0]), values, False))
    for edge, values, stored in reversed(directed):
        down = [(ab, moved) for ab, moved in interaction.changed_pairs()
                if _in_site_order(edge, moved) < _in_site_order(edge, ab)]
        for start, stop, step, delta in transition_runs(space, edge, down):
            offset[start:stop:step] = array("q", [delta]) * ((stop - start)
                                                              // step)
            # the reversed orientation's value is -omega_pair(eta^e)
            omega[start:stop:step] = (
                values[start:stop:step] if stored else
                map(neg, values[start + delta:stop + delta:step]))
    potential = [0] * space.size
    for idx in _lexicographic(space):
        if d := offset[idx]:
            potential[idx] = potential[idx + d] - omega[idx]
    return potential, offset


def _join_roots(space: ConfigSpace, runs: list, dense: list, potential: list,
                offset: array) -> list:
    """The scan's potential with each tree of its spanning forest shifted
    so that the trees of a component agree across the transitions between
    them, and the first tree of each component in lexicographic order
    keeps its values.

    Trees are numbered by their roots in lexicographic order.  A
    transition eta -> eta^e from tree a to tree b asks s_b - s_a =
    p(eta) + omega_e(eta) - p(eta^e) of the shifts; one such link per pair
    of trees feeds a weighted union-find whose class representative is
    the class's first tree.  Links that disagree are not reported here:
    the certifying pass fails on them."""
    # a parent comes before its children in lexicographic order
    tree = [0] * space.size
    n_trees = 0
    for idx in _lexicographic(space):
        if d := offset[idx]:
            tree[idx] = tree[idx + d]
        else:
            tree[idx], n_trees = n_trees, n_trees + 1
    # one link per pair of trees that a transition joins
    links, seen = [], set()
    for pair_runs, values in zip(runs, dense):
        for start, stop, step, delta in pair_runs:
            src = tree[start:stop:step]
            dst = tree[start + delta:stop + delta:step]
            if src == dst:
                continue
            new = set(zip(src, dst)) - seen
            seen |= new
            for a, b in new:
                if a != b:
                    i = start + indexOf(zip(src, dst), (a, b)) * step
                    links.append((a, b, potential[i] + values[i]
                                  - potential[i + delta]))
    # parent[t] <= t, and weight[t] = s_t - s_parent[t]
    parent = list(range(n_trees))
    weight = [0] * n_trees

    def find(t):
        """(representative, s_t - s_representative), halving the path."""
        w = 0
        while parent[t] != t:
            p = parent[t]
            weight[t] += weight[p]
            parent[t] = parent[p]
            w += weight[t]
            t = parent[t]
        return t, w
    for a, b, need in links:
        ra, wa = find(a)
        rb, wb = find(b)
        # s_b - s_a = need, with s_a = s_ra + wa and s_b = s_rb + wb
        if ra < rb:
            parent[rb], weight[rb] = ra, need + wa - wb
        elif rb < ra:
            parent[ra], weight[ra] = rb, wb - wa - need
    shifts = [find(t)[1] for t in range(n_trees)]
    return list(map(add, potential, map(shifts.__getitem__, tree)))


def _in_site_order(edge: Edge, states: tuple[int, int]) -> tuple[int, int]:
    """The endpoint states of ``edge``, the smaller site's first: the
    order in which configurations compare lexicographically."""
    return states if edge[0] < edge[1] else (states[1], states[0])


def _witness(form: Form, dense: list, den: int) -> NotClosed:
    """NotClosed for a form whose potential failed its certification.  A
    breadth-first search over every directed edge (each pair, then its
    reverse), one configuration at a time by the offset tables of
    ``transition_offsets``, rooted at the lexicographically smallest
    configuration of each component, gives each configuration a value.
    The first transition in index order, then in directed-edge order, that
    disagrees with them (the least first failure of any run) closes the
    witness cycle with the search tree's paths to its two ends.  A failed
    certification means the form is not closed, so that transition exists."""
    space, n = form.space, form.n_states
    changed = tuple(form.interaction.changed_pairs())
    steps = [(pair, pair[::-1], *transition_offsets(space, pair, changed),
              transition_offsets(space, pair[::-1], changed)[2], values)
             for pair, values in zip(form.edges, dense)]
    potential: list[Optional[int]] = [None] * space.size
    parent: dict[int, tuple[int, Edge]] = {}
    # the first configuration of a component in lexicographic order is its root
    for root in _lexicographic(space):
        if potential[root] is not None:
            continue
        potential[root] = 0
        frontier = [root]
        while frontier:
            nxt = []
            for src in frontier:
                for pair, rev, so, st, forward, backward, values in steps:
                    a, b = src // so % n, src // st % n
                    dst = src + forward[a][b]
                    if dst != src and potential[dst] is None:
                        potential[dst] = potential[src] + values[src]
                        parent[dst] = (src, pair)
                        nxt.append(dst)
                    # the reversed orientation's value is -omega_pair(eta^e)
                    dst = src + backward[b][a]
                    if dst != src and potential[dst] is None:
                        potential[dst] = potential[src] - values[dst]
                        parent[dst] = (src, rev)
                        nxt.append(dst)
            frontier = nxt

    directed = [(e, values, e == pair) for pair, values in
                zip(form.edges, dense) for e in (pair, pair[::-1])]
    first = (space.size,)   # (index, directed-edge position, offset, omega)
    for k, (e, values, stored) in enumerate(directed):
        runs = transition_runs(space, e, changed)
        for idx, *rest in _failures(potential, runs, values, stored, first[0]):
            first = min(first, (idx, k, *rest))
    idx, k, delta, omega = first
    integral = from_numerators(
        [potential[idx] - potential[idx + delta] + omega], den)[0]
    return _not_closed(form, space, parent, idx, directed[k][0], idx + delta,
                       integral)


def _failures(potential, runs, values, stored: bool = True,
              below: float = float("inf")):
    """(index, offset, omega_e there) of the first transition of each run of
    a directed edge e, at an index below ``below``, where potential(eta^e)
    - potential(eta) != omega_e(eta), compared on slices: omega_e is
    ``values`` (dense pair numerators) if e is the pair's stored
    orientation, else -values(eta^e)."""
    for start, stop, step, delta in runs:
        if start >= below:
            continue
        stop = min(stop, below)
        omega = (values[start:stop:step] if stored else
                 list(map(neg, values[start + delta:stop + delta:step])))
        src = potential[start:stop:step]
        dst = potential[start + delta:stop + delta:step]
        if not all(map(eq, map(sub, dst, src), omega)):
            k = indexOf(map(eq, map(sub, dst, src), omega), False)
            yield start + k * step, delta, omega[k]


def _lexicographic(space: ConfigSpace) -> list[int]:
    """Configuration indices sorted by their assignment tuples (the digit of
    the smallest site compared first)."""
    n = space.n_states
    # the largest site's digit runs fastest
    return kron([[a * n ** k for a in range(n)]
                 for k in reversed(range(len(space.sites)))])


def _tree_steps(parent, idx: int):
    """Directed steps (src index, edge, dst index) from the root to idx."""
    steps = []
    while idx in parent:
        src, e = parent[idx]
        steps.append((src, e, idx))
        idx = src
    steps.reverse()
    return steps


def _not_closed(form: Form, space: ConfigSpace, parent, src: int, edge: Edge,
                dst: int, integral: Scalar) -> NotClosed:
    to_src = _tree_steps(parent, src)
    to_dst = _tree_steps(parent, dst)
    shared = 0
    while (shared < len(to_src) and shared < len(to_dst)
           and to_src[shared] == to_dst[shared]):
        shared += 1
    steps = list(to_src[shared:])
    steps.append((src, edge, dst))
    for a, e, b in reversed(to_dst[shared:]):
        steps.append((b, (e[1], e[0]), a))
    witness = Path(Config(form.sites, space.decode(steps[0][0])),
                   tuple(e for _, e, _ in steps))
    return NotClosed("form has a cycle with nonzero integral",
                     witness=witness, integral=integral,
                     cycle_length=len(steps))


# ---------------------------------------------------------------------------
# kernel of the differential
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelBasis:
    sites: SiteSet
    n_components: int
    component_labels: tuple[int, ...]
    indicators: tuple[FnTable, ...]
    mean_zero: tuple[FnTable, ...]


def kernel_basis(sites: SiteSet, interaction: Interaction, locale: Locale,
                 mu: Measure, state_cap: int = DEFAULT_STATE_CAP) -> KernelBasis:
    """Component indicators span the kernel of the differential; dropping
    the last and centering by measure spans its mean-zero part."""
    graph = transition_graph(sites, interaction, locale, state_cap)
    labels = graph.component_labels
    m = graph.n_components
    n_states = interaction.n_states
    weights, den = weight_table(mu, sites, n_states)
    # every indicator and every component mass (over den) in one pass
    rows = [[0] * len(labels) for _ in range(m)]
    mass = [0] * m
    for idx, (label, w) in enumerate(zip(labels, weights)):
        rows[label][idx] = 1
        mass[label] += w
    indicators = tuple(FnTable.from_numerators(sites, n_states, row, 1)
                       for row in rows)
    mean_zero = tuple(
        FnTable.from_numerators(sites, n_states,
                                [den * x - mass[comp] for x in rows[comp]],
                                den)
        for comp in range(m - 1))
    return KernelBasis(sites, m, labels, indicators, mean_zero)


def closed_form_space_dimension(sites: SiteSet, interaction: Interaction,
                                locale: Locale,
                                state_cap: int = DEFAULT_STATE_CAP) -> int:
    """Dimension of the space of closed forms: configurations minus
    components of the transition graph.  Every closed form on a finite
    graph is exact, so the closed forms are the image of the differential,
    and the dimension is its rank.  The differential is the incidence
    matrix of the graph on configurations (one row e_dst - e_src per
    transition pair), and the rank of an incidence matrix is the edge count
    of a spanning forest: one edge per configuration that is not the root
    of its component."""
    graph = transition_graph(sites, interaction, locale, state_cap)
    return graph.space.size - graph.n_components


# ---------------------------------------------------------------------------
# projection of forms
# ---------------------------------------------------------------------------

def project_form(form: Form, sub: SiteSet, mu: Measure,
                 locale: Optional[Locale] = None, *,
                 check_ordinary: bool = True, validate: bool = True,
                 state_cap: int = DEFAULT_STATE_CAP) -> Form:
    """Project every edge table onto the smaller window.  The measure must
    satisfy the edge-compatibility identity for the result to be a form
    again; product measures always do, window measures are checked."""
    if not sub.is_subset_of(form.sites):
        raise NotSubset("projection target is not a subset of the window")
    if check_ordinary and isinstance(mu, WindowMeasure):
        if locale is None:
            raise ValueError("locale required to check the measure")
        report = is_ordinary(sub, form.sites, mu, form.interaction, locale,
                             state_cap=state_cap)
        if not report.ok:
            v = report.violations[0]
            raise NotOrdinary(
                "measure fails edge compatibility; projection would not "
                "preserve forms",
                edge=v.edge, assignment=v.sup_assignment,
                lhs=v.lhs, rhs=v.rhs,
                n_violations=len(report.violations))
    sub_pairs = tuple(e for e in form.edges
                      if e[0] in sub and e[1] in sub)
    # every dense table lies on the form's sites: under a window measure
    # its weights are read once for all of them
    project = (_window_projection(form.sites, sub, mu, form.n_states)
               if isinstance(mu, WindowMeasure) else
               lambda dense: conditional_expectation(dense, sub, mu))
    tables = {e: project(form.dense_table(e)) for e in sub_pairs}
    if validate:
        return make_form(sub, form.interaction, sub_pairs, tables,
                         validate=True, state_cap=state_cap)
    return Form(sub, form.interaction, sub_pairs, tables)
