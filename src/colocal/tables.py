"""Dense scalar tables over configuration spaces.

An :class:`FnTable` stores one scalar per configuration of ``S^Lambda``,
index-ordered by the mixed-radix encoding of :mod:`colocal.statespace`.
Tables are immutable; arithmetic returns new tables.

Between calls an exact table carries its values as Python-int numerators
over one positive denominator (see :mod:`colocal.scalars`); a float table
carries floats over the denominator 1.  A table built from scalars converts
them at most once, when a kernel first asks for ``numerators``; a table
built by a kernel from numerators makes its ``Fraction`` values only when
``values`` is read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

from .errors import SiteSetMismatch
from .scalars import Scalar, from_numerators, numerators, scalar_eq
from .statespace import ConfigSpace, SiteSet, digit_slices, spread


class Numerators(NamedTuple):
    """A table's values as ``nums[i] / den``: ints over a positive int when
    ``exact``, else floats over 1.  The list is shared; never mutate it."""

    nums: list
    den: int
    exact: bool


class FnTable:
    """``FnTable(sites, n_states, values)``: one scalar per configuration."""

    def __init__(self, sites: SiteSet, n_states: int, values):
        values = tuple(values)
        if len(values) != n_states ** len(sites):
            raise ValueError("value count != n_states ** n_sites")
        self.sites = sites
        self.n_states = n_states
        self._values = values
        self._numerators = None

    @classmethod
    def from_numerators(cls, sites: SiteSet, n_states: int, nums, den: int,
                        exact: bool = True) -> "FnTable":
        """The table with values ``nums[i] / den`` (floats over 1 unless
        ``exact``); the list is kept, not copied."""
        if len(nums) != n_states ** len(sites):
            raise ValueError("value count != n_states ** n_sites")
        table = cls.__new__(cls)
        table.sites = sites
        table.n_states = n_states
        table._values = None
        table._numerators = Numerators(nums, den, exact)
        return table

    @property
    def values(self) -> tuple[Scalar, ...]:
        if self._values is None:
            self._values = from_numerators(*self._numerators)
        return self._values

    @property
    def numerators(self) -> Numerators:
        if self._numerators is None:
            exact = not any(isinstance(v, float) for v in self._values)
            self._numerators = Numerators(*numerators(self._values, exact),
                                          exact)
        return self._numerators

    def numerators_in(self, exact: bool) -> tuple[list, int]:
        """(nums, den) of the values, as floats over 1 unless ``exact``
        (which requires an exact table)."""
        nums, den, own = self.numerators
        if own and not exact:
            return [x / den for x in nums], 1
        return nums, den

    def __eq__(self, other) -> bool:
        if not isinstance(other, FnTable):
            return NotImplemented
        if self.sites != other.sites or self.n_states != other.n_states:
            return False
        a, p, a_exact = self.numerators
        b, q, b_exact = other.numerators
        if a_exact and b_exact:
            return a == b if p == q else all(
                x * q == y * p for x, y in zip(a, b))
        return self.values == other.values

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

    def _derived(self, nums, den: int, exact: bool) -> "FnTable":
        return FnTable.from_numerators(self.sites, self.n_states, nums, den,
                                       exact)

    def __add__(self, other: "FnTable") -> "FnTable":
        self._check_same(other)
        (a, b), den, exact = aligned((self, other))
        return self._derived([x + y for x, y in zip(a, b)], den, exact)

    def __sub__(self, other: "FnTable") -> "FnTable":
        self._check_same(other)
        (a, b), den, exact = aligned((self, other))
        return self._derived([x - y for x, y in zip(a, b)], den, exact)

    def __neg__(self) -> "FnTable":
        nums, den, exact = self.numerators
        return self._derived([-x for x in nums], den, exact)

    def __mul__(self, other: "FnTable") -> "FnTable":
        self._check_same(other)
        (a, b), den, exact = aligned((self, other))
        return self._derived([x * y for x, y in zip(a, b)], den * den, exact)

    def scale(self, c: Scalar) -> "FnTable":
        nums, den, exact = self.numerators
        if exact and not isinstance(c, float):
            c = Fraction(c)
            return self._derived([c.numerator * x for x in nums],
                                 den * c.denominator, True)
        return self._derived([c * x for x in self.numerators_in(False)[0]],
                             1, False)

    def shift(self, c: Scalar) -> "FnTable":
        nums, den, exact = self.numerators
        if exact and not isinstance(c, float):
            c = Fraction(c)
            common = math.lcm(den, c.denominator)
            k, add = common // den, c.numerator * (common // c.denominator)
            return self._derived([k * x + add for x in nums], common, True)
        return self._derived([x + c for x in self.numerators_in(False)[0]],
                             1, False)

    def is_zero(self, tol: float | None = None) -> bool:
        if tol is None:
            return not any(self.numerators.nums)
        return all(abs(x) <= tol for x in self.numerators_in(False)[0])

    def equals(self, other: "FnTable", tol: float | None = None) -> bool:
        if self.sites != other.sites or self.n_states != other.n_states:
            return False
        if tol is None:
            return self == other
        return all(scalar_eq(a, b, tol)
                   for a, b in zip(self.numerators_in(False)[0],
                                   other.numerators_in(False)[0]))

    # -- embeddings ---------------------------------------------------------

    def embed(self, ambient: SiteSet) -> "FnTable":
        """Natural inclusion C(S^Lambda) -> C(S^Lambda') for Lambda in Lambda'."""
        if self.sites == ambient:
            return self
        nums, den, exact = self.numerators
        return FnTable.from_numerators(
            ambient, self.n_states,
            spread(nums, self.sites, ConfigSpace(ambient, self.n_states)),
            den, exact)

    def depends_on(self, site: int) -> bool:
        """Does the value actually change with the digit at ``site``?"""
        if site not in self.sites:
            return False
        nums, n = self.numerators.nums, self.n_states
        stride = n ** self.sites.position(site)
        block = stride * n
        if stride * block <= len(nums):
            # few offsets below the stride: one extended slice per offset
            # and digit (positions b + a*stride + m*block)
            return any(nums[b::block] != nums[b + a * stride::block]
                       for b in range(stride) for a in range(1, n))
        # few blocks: compare the digit's runs block by block
        return any(nums[b:b + stride] != nums[b + a * stride:
                                              b + (a + 1) * stride]
                   for b in range(0, len(nums), block) for a in range(1, n))

    def minimized(self) -> "FnTable":
        """Restrict to the sites the table genuinely depends on."""
        needed = tuple(s for s in self.sites if self.depends_on(s))
        if needed == self.sites.sites:
            return self
        # the value does not change with a dropped digit: keep digit 0
        nums, den, exact = self.numerators
        for k in reversed(range(len(self.sites))):
            if self.sites.sites[k] not in needed:
                nums = digit_slices(nums, self.n_states, self.n_states ** k)[0]
        return FnTable.from_numerators(SiteSet(needed), self.n_states, nums,
                                       den, exact)

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


def aligned(tables: Sequence[FnTable]) -> tuple[list, int, bool]:
    """The numerators of the tables over one common denominator, their lcm:
    (list of numerator lists, denominator, exact); floats over 1 as soon
    as one table is a float table."""
    exact = all(t.numerators.exact for t in tables)
    if not exact:
        return [t.numerators_in(False)[0] for t in tables], 1, False
    den = math.lcm(*(t.numerators.den for t in tables))
    out = []
    for t in tables:
        nums, d, _ = t.numerators
        k = den // d
        out.append(nums if k == 1 else [k * x for x in nums])
    return out, den, True


# -- constructors -----------------------------------------------------------

def fn_constant(sites: SiteSet, n_states: int, value: Scalar) -> FnTable:
    return FnTable(sites, n_states, (value,) * (n_states ** len(sites)))


def fn_zeros(sites: SiteSet, n_states: int) -> FnTable:
    return FnTable.from_numerators(sites, n_states,
                                   [0] * (n_states ** len(sites)), 1)


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
