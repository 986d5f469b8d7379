"""Local-function embeddings, compatible chains, the orthogonal expansion
over subsets, and conserved quantities.

The expansion writes a function on ``S^Lambda`` as a sum of components
indexed by the subsets of Lambda, where the component at ``A`` is killed by
every projection onto a window not containing ``A``.  It exists and is
unique over a product measure, where it is the Hoeffding / Efron-Stein
(ANOVA) decomposition: splitting every site x into P_x and I - P_x, one
site at a time, yields all (n+1)^|Lambda| component entries in
O(|Lambda| (n+1)^|Lambda|) operations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from . import linalg
from .errors import (
    NonProductMeasure,
    NotSubset,
    SiteSetMismatch,
    TooManySubsets,
)
from .measure import (
    Measure,
    ProductMeasure,
    StateMeasure,
    _as_product,
    conditional_expectation,
)
from .scalars import numerators
from .statespace import (
    DEFAULT_STATE_CAP,
    DEFAULT_SUBSET_CAP,
    Interaction,
    Locale,
    SiteSet,
    check_int,
    guard_space,
    kron,
    siteset,
    transition_graph,
)
from .tables import FnTable, fn_constant

__all__ = [
    "FnTable",
    "CoLocalChain",
    "Expansion",
    "ConservedQuantity",
    "iota_restrict",
    "build_chain",
    "expand_martingale",
    "uniform_radius",
    "conserved_quantities",
    "conserved_colocal",
    "check_iq",
    "IqReport",
    "IqLocaleResult",
]


def iota_restrict(f: FnTable, sub: SiteSet, interaction: Interaction) -> FnTable:
    """Restrict by base-state extension: evaluate f with every site outside
    ``sub`` pinned at the base state."""
    if not sub.is_subset_of(f.sites):
        raise NotSubset("restriction target is not a subset of the domain")
    if sub == f.sites:
        return f
    n, base = f.n_states, interaction.base_index
    # entry j: the index of configuration j of S^sub, extended by the base
    gather = kron([[a * n ** k for a in range(n)] if s in sub
                   else [base * n ** k] for k, s in enumerate(f.sites)])
    nums, den = f.numerators
    return FnTable.from_numerators(sub, n, [nums[i] for i in gather], den)


# ---------------------------------------------------------------------------
# compatible chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoLocalChain:
    """Finite truncation of a projective family: nested windows with tables
    related by conditional expectation."""

    windows: tuple[SiteSet, ...]
    tables: tuple[FnTable, ...]
    mu: Measure

    def verify_compatibility(self) -> bool:
        for i in range(len(self.windows) - 1):
            projected = conditional_expectation(self.tables[i + 1],
                                                self.windows[i], self.mu)
            if not projected.equals(self.tables[i]):
                return False
        return True


def build_chain(f: FnTable, windows: Sequence[SiteSet], mu: Measure) -> CoLocalChain:
    """Chain of projections of ``f`` onto a nested family of windows; the
    largest window must be the domain of ``f``."""
    windows = tuple(windows)
    for i in range(len(windows) - 1):
        if not windows[i].is_subset_of(windows[i + 1]):
            raise NotSubset(f"windows {i} and {i + 1} are not nested")
    if not windows or windows[-1] != f.sites:
        raise NotSubset("last window must equal the function's site set")
    # tower law: projecting the next larger window's table is projecting f
    tables = [f]
    for w in reversed(windows[:-1]):
        tables.append(conditional_expectation(tables[-1], w, mu))
    return CoLocalChain(windows, tuple(reversed(tables)), mu)


# ---------------------------------------------------------------------------
# expansion over subsets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Expansion:
    sites: SiteSet
    n_states: int
    nu: ProductMeasure
    components: dict[tuple[int, ...], FnTable]  # keyed by sorted site tuples

    def component(self, sub) -> FnTable:
        return self.components[tuple(sorted(sub))]

    def reconstruct(self) -> FnTable:
        total = fn_constant(self.sites, self.n_states, Fraction(0))
        for table in self.components.values():
            total = total + table.embed(self.sites)
        return total

    @cached_property
    def _bits(self) -> dict[int, int]:
        return {s: 1 << k for k, s in enumerate(self.sites)}

    def subset_bitmask(self, sub: tuple[int, ...]) -> int:
        """The subset as a bitmask: bit k for the site at position k."""
        return sum(map(self._bits.__getitem__, sub))


def expand_martingale(f: FnTable, nu: Measure,
                      subset_cap: int = DEFAULT_SUBSET_CAP) -> Expansion:
    """Unique expansion of ``f`` into subset components over a product
    measure.  Requires a state or product measure; window measures that are
    not declared products are rejected.

    The component at A is prod_{x in A} (I - P_x) prod_{x not in A} P_x f,
    where P_x integrates out site x (the Hoeffding / Efron-Stein
    decomposition).  The factors commute, so the sites are split one at a
    time: every piece g becomes P_x g and g - P_x g.  Splitting site x
    touches (n+1)^j n^(N-j) entries when j sites are split, so the whole
    expansion costs O(N (n+1)^N) rather than the 5^N of subtracting every
    proper-subset component from every projection.  Components are keyed
    by size, then lexicographically.
    """
    check_int(subset_cap, "subset_cap", 1)
    prod = _as_product(nu)
    if prod is None:
        raise NonProductMeasure(
            "expansion requires a product measure; got a window measure")
    if len(f.sites) > subset_cap:
        raise TooManySubsets(
            f"|Lambda|={len(f.sites)} exceeds the subset cap {subset_cap}",
            size=len(f.sites), cap=subset_cap)

    n = f.n_states
    if prod.n_states != n:
        raise SiteSetMismatch("measure and function state counts differ",
                              n_states=n, measure_states=prod.n_states)
    nums, den = f.numerators
    # piece per set of kept sites, over the not yet split sites and then the
    # kept ones.  Splitting from the least significant site up puts the
    # split digit at stride 1, and each kept digit goes on top, so the kept
    # digits end in site order.  A piece is popped as it is split, so a
    # parent piece is freed once its parts are sliced off.
    pieces = {(): nums}
    for site in f.sites:
        weights, q = numerators(prod.factor(site).weights)
        w0, w1 = weights[0], weights[1 % n]   # one state: w1 is not read
        for kept in list(pieces):
            piece = pieces.pop(kept)
            parts = [piece[a::n] for a in range(n)]
            del piece
            # q P_x g: the first two states in one pass; a lone state has
            # weight 1
            mean = ([w0 * x + w1 * y for x, y in zip(parts[0], parts[1])]
                    if n > 1 else parts[0])
            for w, part in zip(weights[2:], parts[2:]):
                mean = [m + w * x for m, x in zip(mean, part)]
            pieces[kept] = mean
            # sum(weights) == q, so q g - mean is q (g - P_x g); the parts
            # in state order put this site's digit on top
            pieces[kept + (site,)] = [q * x - m for part in parts
                                      for x, m in zip(part, mean)]
        den *= q

    components = {
        sub: FnTable.from_numerators(SiteSet(sub), n, pieces[sub], den)
        for size in range(len(f.sites) + 1)
        for sub in itertools.combinations(f.sites, size)}
    return Expansion(f.sites, n, prod, components)


def uniform_radius(expansion: Expansion, locale: Locale) -> int:
    """Smallest R such that every component on a subset of diameter > R
    vanishes; the bound witnessed by the nonzero components.  The graph
    distances from each site are computed once per call, and the diameter
    of a subset is read off that of its prefix without its last site."""
    outside = set(expansion.sites) - set(locale.sites)
    if outside:
        raise NotSubset("expansion sites are not all in the locale",
                        outside=sorted(outside))
    rows = {s: locale.distances_from(s) for s in expansion.sites}
    diameters = {(): 0}
    return max((_diameter(sub, rows, diameters)
                for sub, table in expansion.components.items()
                if not table.is_zero()), default=0)


def _diameter(sub: tuple, rows: dict, diameters: dict) -> int:
    """The diameter of the site tuple ``sub``: the larger of its prefix's
    and the distances from its last site (``rows``) to the prefix's sites.
    ``diameters`` keeps every diameter worked out."""
    if sub not in diameters:
        head, row = sub[:-1], rows[sub[-1]]
        diameters[sub] = max([_diameter(head, rows, diameters),
                              *map(row.__getitem__, head)])
    return diameters[sub]


# ---------------------------------------------------------------------------
# conserved quantities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConservedQuantity:
    """Per-state scalar with zero nu-mean whose site sum is preserved by
    every transition."""

    xi: tuple[Fraction, ...]

    @property
    def n_states(self) -> int:
        return len(self.xi)

    def total(self, assignment: Sequence[int]) -> Fraction:
        return sum((self.xi[a] for a in assignment), Fraction(0))


def conserved_quantities(interaction: Interaction,
                         nu: StateMeasure) -> list[ConservedQuantity]:
    """Deterministic basis of the conserved quantities, normalized to zero
    nu-mean.

    The pair constraints ``xi(s1') + xi(s2') = xi(s1) + xi(s2)`` are solved
    together with ``xi(base) = 0`` by exact elimination (each free state set
    to 1 in turn), then each basis vector is centered by its nu-mean.  The
    centering is a bijection between the base-normalized and mean-normalized
    solution spaces, so the result is a basis.  The interaction keeps the
    basis per measure (``Interaction.conserved_bases``), so a run that asks
    again, as ``varadhan`` does when it reads a cocycle over the basis and
    then decomposes, solves once.
    """
    n = interaction.n_states
    if nu.n_states != n:
        raise SiteSetMismatch("measure and interaction state counts differ",
                              n_states=n, measure_states=nu.n_states)
    bases = interaction.conserved_bases
    if nu not in bases:
        bases[nu] = _conserved_basis(interaction, nu)
    return list(bases[nu])


def _conserved_basis(interaction: Interaction,
                     nu: StateMeasure) -> tuple[ConservedQuantity, ...]:
    n = interaction.n_states
    rows = []
    for (i, j), (i2, j2) in interaction.changed_pairs():
        row = [Fraction(0)] * n
        row[i2] += 1
        row[j2] += 1
        row[i] -= 1
        row[j] -= 1
        if any(v != 0 for v in row):
            rows.append(row)
    base_row = [Fraction(0)] * n
    base_row[interaction.base_index] = Fraction(1)
    rows.append(base_row)
    basis = []
    for vec in linalg.nullspace(rows, n):
        mean = nu.mean(vec)
        basis.append(ConservedQuantity(tuple(v - mean for v in vec)))
    return tuple(basis)


def conserved_colocal(xi: ConservedQuantity, sites: SiteSet,
                      state_cap: int = DEFAULT_STATE_CAP) -> FnTable:
    """The window sum: eta -> sum over sites of xi(eta_x)."""
    guard_space(xi.n_states, len(sites), state_cap)
    per_state, den = numerators(xi.xi)
    return FnTable.from_numerators(sites, xi.n_states,
                                   kron([per_state] * len(sites)), den)


# ---------------------------------------------------------------------------
# irreducible quantification checker
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IqLocaleResult:
    locale: Locale
    ok: bool
    # (totals, assignment in one component, assignment in another)
    witnesses: tuple[tuple[tuple[Fraction, ...], tuple[int, ...], tuple[int, ...]], ...]


@dataclass(frozen=True)
class IqReport:
    basis: tuple[ConservedQuantity, ...]
    results: tuple[IqLocaleResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


def check_iq(interaction: Interaction, nu: StateMeasure,
             locales: Sequence[Locale],
             state_cap: int = DEFAULT_STATE_CAP) -> IqReport:
    """Refute irreducible quantification on the given locales.

    For each locale, configurations are grouped by their conserved totals and
    the groups are compared with the connected components of the transition
    graph; a group meeting two components yields a witness pair.
    """
    basis = conserved_quantities(interaction, nu)
    results = []
    for locale in locales:
        sites = siteset(locale.sites)
        graph = transition_graph(sites, interaction, locale, state_cap)
        space = graph.space
        # each conserved total as numerators (ordered as the Fraction totals)
        columns = [conserved_colocal(xi, sites, state_cap).numerators
                   for xi in basis]
        # the first index of each row (totals..., component label): a dict
        # built from the last configuration down keeps the smallest index
        rows = zip(*(reversed(column.nums) for column in columns),
                   reversed(graph.component_labels))
        firsts = dict(zip(rows, range(space.size - 1, -1, -1)))
        groups: dict[tuple, list[int]] = {}
        for row, idx in firsts.items():
            groups.setdefault(row[:-1], []).append(idx)
        witnesses = []
        for key, per_component in sorted(groups.items()):
            if len(per_component) > 1:
                first, second = sorted(per_component)[:2]
                totals = tuple(Fraction(x, column.den)
                               for x, column in zip(key, columns))
                witnesses.append((totals, space.decode(first),
                                  space.decode(second)))
        results.append(IqLocaleResult(locale, not witnesses, tuple(witnesses)))
    return IqReport(tuple(basis), tuple(results))
