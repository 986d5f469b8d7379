"""Dense scalar tables over configuration spaces.

An :class:`FnTable` stores one scalar per configuration of ``S^Lambda``,
index-ordered by the mixed-radix encoding of :mod:`colocal.statespace`.
Tables are immutable; arithmetic returns new tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from .errors import SiteSetMismatch
from .scalars import Scalar, numerators, scalar_eq
from .statespace import ConfigSpace, SiteSet, digit_slices, restriction_indices


@dataclass(frozen=True)
class FnTable:
    sites: SiteSet
    n_states: int
    values: tuple[Scalar, ...]

    def __post_init__(self):
        if len(self.values) != self.n_states ** len(self.sites):
            raise ValueError("value count != n_states ** n_sites")

    @cached_property
    def space(self) -> ConfigSpace:
        return ConfigSpace(self.sites, self.n_states)

    def value_at(self, assignment: Sequence[int]) -> Scalar:
        return self.values[self.space.encode(assignment)]

    def evaluate_in(self, ambient: SiteSet, assignment: Sequence[int]) -> Scalar:
        """Evaluate viewing this table inside a larger site set."""
        sub = tuple(assignment[ambient.position(s)] for s in self.sites)
        return self.values[self.space.encode(sub)]

    # -- algebra ------------------------------------------------------------

    def _check_same(self, other: "FnTable"):
        if self.sites != other.sites or self.n_states != other.n_states:
            raise SiteSetMismatch("tables live on different site sets")

    def __add__(self, other: "FnTable") -> "FnTable":
        self._check_same(other)
        return FnTable(self.sites, self.n_states,
                       tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "FnTable") -> "FnTable":
        self._check_same(other)
        return FnTable(self.sites, self.n_states,
                       tuple(a - b for a, b in zip(self.values, other.values)))

    def __neg__(self) -> "FnTable":
        return FnTable(self.sites, self.n_states, tuple(-v for v in self.values))

    def __mul__(self, other: "FnTable") -> "FnTable":
        self._check_same(other)
        return FnTable(self.sites, self.n_states,
                       tuple(a * b for a, b in zip(self.values, other.values)))

    def scale(self, c: Scalar) -> "FnTable":
        return FnTable(self.sites, self.n_states, tuple(c * v for v in self.values))

    def shift(self, c: Scalar) -> "FnTable":
        return FnTable(self.sites, self.n_states, tuple(v + c for v in self.values))

    def is_zero(self, tol: float | None = None) -> bool:
        return all(scalar_eq(v, 0, tol) for v in self.values)

    def equals(self, other: "FnTable", tol: float | None = None) -> bool:
        if self.sites != other.sites or self.n_states != other.n_states:
            return False
        return all(scalar_eq(a, b, tol) for a, b in zip(self.values, other.values))

    # -- embeddings ---------------------------------------------------------

    def embed(self, ambient: SiteSet) -> "FnTable":
        """Natural inclusion C(S^Lambda) -> C(S^Lambda') for Lambda in Lambda'."""
        if self.sites == ambient:
            return self
        index = restriction_indices(ConfigSpace(ambient, self.n_states),
                                    self.sites)
        return FnTable(ambient, self.n_states,
                       tuple(self.values[j] for j in index))

    def depends_on(self, site: int) -> bool:
        """Does the value actually change with the digit at ``site``?"""
        if site not in self.sites:
            return False
        first, *rest = digit_slices(self._keys, self.n_states,
                                    self.n_states ** self.sites.position(site))
        return any(part != first for part in rest)

    @cached_property
    def _keys(self) -> list:
        """The values, or integer numerators with the same equalities when
        all values are exact (ints compare without Fraction arithmetic)."""
        if any(isinstance(v, float) for v in self.values):
            return list(self.values)
        return numerators(self.values, True)[0]

    def minimized(self) -> "FnTable":
        """Restrict to the sites the table genuinely depends on."""
        needed = tuple(s for s in self.sites if self.depends_on(s))
        if needed == self.sites.sites:
            return self
        # the value does not change with a dropped digit: keep digit 0
        values = list(self.values)
        for k in reversed(range(len(self.sites))):
            if self.sites.sites[k] not in needed:
                values = digit_slices(values, self.n_states,
                                      self.n_states ** k)[0]
        return FnTable(SiteSet(needed), self.n_states, tuple(values))

    def relabel(self, sigma) -> "FnTable":
        """Push forward along a site map: the new table on sigma(Lambda) takes
        at eta the old value at sigma^{-1}(eta)."""
        new_sites = sigma.map_siteset(self.sites)
        new_space = ConfigSpace(new_sites, self.n_states)
        values = [None] * new_space.size
        for idx in range(self.space.size):
            assignment = self.space.decode(idx)
            moved = [0] * len(assignment)
            for k, s in enumerate(self.sites):
                moved[new_sites.position(sigma.apply_or_raise(s))] = assignment[k]
            values[new_space.encode(tuple(moved))] = self.values[idx]
        return FnTable(new_sites, self.n_states, tuple(values))


# -- constructors -----------------------------------------------------------

def fn_constant(sites: SiteSet, n_states: int, value: Scalar) -> FnTable:
    return FnTable(sites, n_states, tuple([value] * (n_states ** len(sites))))


def fn_zeros(sites: SiteSet, n_states: int) -> FnTable:
    return fn_constant(sites, n_states, Fraction(0))


def fn_from_callable(sites: SiteSet, n_states: int,
                     fn: Callable[[tuple[int, ...]], Scalar]) -> FnTable:
    space = ConfigSpace(sites, n_states)
    return FnTable(sites, n_states,
                   tuple(fn(space.decode(i)) for i in range(space.size)))


def site_table(sites: SiteSet, n_states: int, site: int,
               per_state: Sequence[Scalar]) -> FnTable:
    """The single-site function eta -> per_state[eta_site], embedded."""
    k = sites.position(site)
    return fn_from_callable(sites, n_states, lambda a: per_state[a[k]])


def site_occupation(sites: SiteSet, n_states: int, site: int) -> FnTable:
    """eta -> eta_site (state index as a scalar)."""
    return site_table(sites, n_states, site,
                      [Fraction(s) for s in range(n_states)])
