"""Dense scalar tables over configuration spaces.

An :class:`FnTable` stores one scalar per configuration of ``S^Lambda``,
index-ordered by the mixed-radix encoding of :mod:`colocal.statespace`.
Tables are immutable; arithmetic returns new tables.

Between calls a table carries its values as Python-int numerators over
one positive denominator (see :mod:`colocal.scalars`).  A table built from
scalars reads any float among them once, as the simplest rational that
rounds to it, and converts them to numerators when a kernel first asks for
``numerators``; a table built by a kernel from numerators makes its
``Fraction`` values only when ``values`` is read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

from .errors import SiteSetMismatch
from .scalars import Scalar, exact_scalars, from_numerators, numerators
from .statespace import ConfigSpace, SiteSet, digit_slices, kron, spread


class Numerators(NamedTuple):
    """A table's values as ``nums[i] / den``: ints over a positive int.
    The list is shared; never mutate it."""

    nums: list
    den: int


class FnTable:
    """``FnTable(sites, n_states, values)``: one scalar per configuration."""

    def __init__(self, sites: SiteSet, n_states: int, values):
        values = exact_scalars(values)
        if len(values) != n_states ** len(sites):
            raise ValueError("value count != n_states ** n_sites")
        self.sites = sites
        self.n_states = n_states
        self._values = values
        self._numerators = None

    @classmethod
    def from_numerators(cls, sites: SiteSet, n_states: int, nums,
                        den: int) -> "FnTable":
        """The table with values ``nums[i] / den``; the list is kept, not
        copied."""
        if len(nums) != n_states ** len(sites):
            raise ValueError("value count != n_states ** n_sites")
        table = cls.__new__(cls)
        table.sites = sites
        table.n_states = n_states
        table._values = None
        table._numerators = Numerators(nums, den)
        return table

    @property
    def values(self) -> tuple[Scalar, ...]:
        if self._values is None:
            self._values = from_numerators(*self._numerators)
        return self._values

    @property
    def numerators(self) -> Numerators:
        if self._numerators is None:
            self._numerators = Numerators(*numerators(self._values))
        return self._numerators

    def __eq__(self, other) -> bool:
        if not isinstance(other, FnTable):
            return NotImplemented
        if self.sites != other.sites or self.n_states != other.n_states:
            return False
        (a, p), (b, q) = self.numerators, other.numerators
        return a == b if p == q else all(x * q == y * p for x, y in zip(a, b))

    def __hash__(self) -> int:
        return hash((self.sites, self.n_states, self.values))

    def __repr__(self) -> str:
        return (f"FnTable(sites={self.sites!r}, n_states={self.n_states!r}, "
                f"values={self.values!r})")

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

    def _derived(self, nums, den: int) -> "FnTable":
        return FnTable.from_numerators(self.sites, self.n_states, nums, den)

    def __add__(self, other: "FnTable") -> "FnTable":
        self._check_same(other)
        (a, b), den = aligned((self, other))
        return self._derived([x + y for x, y in zip(a, b)], den)

    def __sub__(self, other: "FnTable") -> "FnTable":
        self._check_same(other)
        (a, b), den = aligned((self, other))
        return self._derived([x - y for x, y in zip(a, b)], den)

    def __neg__(self) -> "FnTable":
        nums, den = self.numerators
        return self._derived([-x for x in nums], den)

    def __mul__(self, other: "FnTable") -> "FnTable":
        self._check_same(other)
        (a, b), den = aligned((self, other))
        return self._derived([x * y for x, y in zip(a, b)], den * den)

    def scale(self, c: Scalar) -> "FnTable":
        nums, den = self.numerators
        c = Fraction(*exact_scalars((c,)))
        return self._derived([c.numerator * x for x in nums],
                             den * c.denominator)

    def shift(self, c: Scalar) -> "FnTable":
        nums, den = self.numerators
        c = Fraction(*exact_scalars((c,)))
        common = math.lcm(den, c.denominator)
        k, add = common // den, c.numerator * (common // c.denominator)
        return self._derived([k * x + add for x in nums], common)

    def is_zero(self) -> bool:
        return not any(self.numerators.nums)

    def equals(self, other: "FnTable") -> bool:
        """Exact equality (``==``)."""
        return self == other

    # -- embeddings ---------------------------------------------------------

    def embed(self, ambient: SiteSet) -> "FnTable":
        """Natural inclusion C(S^Lambda) -> C(S^Lambda') for Lambda in Lambda'."""
        if self.sites == ambient:
            return self
        nums, den = self.numerators
        return FnTable.from_numerators(
            ambient, self.n_states,
            spread(nums, self.sites, ConfigSpace(ambient, self.n_states)),
            den)

    def depends_on(self, site: int) -> bool:
        """Does the value actually change with the digit at ``site``?"""
        return site in self.sites and _depends(
            self.numerators.nums, self.n_states,
            self.n_states ** self.sites.position(site))

    def minimized(self) -> "FnTable":
        """Restrict to the sites the table genuinely depends on.  Sites are
        tested from the most significant digit down, and each unused one is
        dropped at once (its digit 0 kept), so that later tests read a
        smaller table and the strides below never change."""
        nums, den = self.numerators
        needed = list(self.sites)
        for k in reversed(range(len(needed))):
            stride = self.n_states ** k
            if not _depends(nums, self.n_states, stride):
                nums = digit_slices(nums, self.n_states, stride)[0]
                del needed[k]
        if len(needed) == len(self.sites):
            return self
        return FnTable.from_numerators(SiteSet(tuple(needed)), self.n_states,
                                       nums, den)

    def relabel(self, sigma) -> "FnTable":
        """Push forward along a site map: the new table on sigma(Lambda) takes
        at eta the old value at sigma^{-1}(eta)."""
        n = self.n_states
        new_sites = sigma.map_siteset(self.sites)
        # the old digit position of each new site
        origin = {sigma.apply_or_raise(s): k for k, s in enumerate(self.sites)}
        # entry j: the old index of the configuration of new index j
        gather = kron([[a * n ** origin[t] for a in range(n)]
                       for t in new_sites])
        nums, den = self.numerators
        return FnTable.from_numerators(new_sites, n,
                                       [nums[i] for i in gather], den)


def _depends(nums: list, n: int, stride: int) -> bool:
    """Does a table (numerators in index order) change with the digit of
    the given stride?"""
    block = stride * n
    if stride * block <= len(nums):
        # few offsets below the stride: one extended slice per offset and
        # digit (positions b + a*stride + m*block)
        return any(nums[b::block] != nums[b + a * stride::block]
                   for b in range(stride) for a in range(1, n))
    # few blocks: compare the digit's runs block by block
    return any(nums[b:b + stride] != nums[b + a * stride:b + (a + 1) * stride]
               for b in range(0, len(nums), block) for a in range(1, n))


def aligned(tables: Sequence[FnTable]) -> tuple[list, int]:
    """The numerators of the tables over one common denominator, their lcm:
    (list of numerator lists, denominator)."""
    den = math.lcm(*(t.numerators.den for t in tables))
    out = []
    for t in tables:
        nums, d = t.numerators
        k = den // d
        out.append(nums if k == 1 else [k * x for x in nums])
    return out, den


# -- constructors -----------------------------------------------------------

def fn_constant(sites: SiteSet, n_states: int, value: Scalar) -> FnTable:
    return FnTable(sites, n_states, (value,) * (n_states ** len(sites)))


def fn_zeros(sites: SiteSet, n_states: int) -> FnTable:
    return FnTable.from_numerators(sites, n_states,
                                   [0] * (n_states ** len(sites)), 1)


def fn_from_callable(sites: SiteSet, n_states: int,
                     fn: Callable[[tuple[int, ...]], Scalar]) -> FnTable:
    return FnTable(sites, n_states,
                   tuple(map(fn, ConfigSpace(sites, n_states).assignments())))


def site_table(sites: SiteSet, n_states: int, site: int,
               per_state: Sequence[Scalar]) -> FnTable:
    """The single-site function eta -> per_state[eta_site], embedded."""
    k = sites.position(site)
    return fn_from_callable(sites, n_states, lambda a: per_state[a[k]])


def site_occupation(sites: SiteSet, n_states: int, site: int) -> FnTable:
    """eta -> eta_site (state index as a scalar)."""
    return site_table(sites, n_states, site,
                      [Fraction(s) for s in range(n_states)])
