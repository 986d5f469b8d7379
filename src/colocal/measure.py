"""Probability measures on states and windows, expectations, and the
conditional-expectation projection.

``StateMeasure`` is a strictly positive measure on the state set,
``ProductMeasure`` a symbolic product of state measures (materialized per
window on demand), and ``WindowMeasure`` an explicit strictly positive
measure on ``S^Lambda``.  Strict positivity is required at construction: the
projection divides by marginal weights.  Weights are exact and must sum to
exactly 1; a float weight is read as the simplest rational that rounds to it
(:func:`colocal.scalars.exact_scalars`), so ``(0.6, 0.4)`` is ``(3/5, 2/5)``.

Operations read a measure through :func:`weight_table`, its weights on a
site set as int numerators over one denominator, and sum ints against it;
the projection under a product measure integrates one site at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul
from typing import Mapping, Optional, Sequence, Union

from .errors import NotSubset, SiteSetMismatch
from .scalars import Scalar, exact_scalars, from_numerators, numerators
from .statespace import (
    ConfigSpace,
    DEFAULT_STATE_CAP,
    Edge,
    Interaction,
    Locale,
    SiteSet,
    digit_slices,
    edges_within,
    guard_space,
    kron,
    spread,
    transition_offsets,
)
from .tables import FnTable


@dataclass(frozen=True)
class StateMeasure:
    weights: tuple[Scalar, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", exact_scalars(self.weights))
        if any(not w > 0 for w in self.weights):
            raise ValueError("state weights must be strictly positive")
        total = sum(self.weights)
        if total != 1:
            raise ValueError(f"state weights sum to {total}, expected 1")

    @property
    def n_states(self) -> int:
        return len(self.weights)

    def mean(self, per_state: Sequence[Scalar]) -> Scalar:
        return sum(w * v for w, v in zip(self.weights, per_state))


def state_measure(weights: Sequence[Scalar]) -> StateMeasure:
    return StateMeasure(tuple(map(Fraction, exact_scalars(weights))))


def bernoulli(p: Scalar = Fraction(1, 2)) -> StateMeasure:
    p = Fraction(*exact_scalars((p,)))
    return StateMeasure((1 - p, p))


def uniform_states(n_states: int) -> StateMeasure:
    return StateMeasure(tuple([Fraction(1, n_states)] * n_states))


@dataclass(frozen=True)
class ProductMeasure:
    """Product of per-site state measures; homogeneous unless ``per_site``
    overrides individual sites."""

    base: StateMeasure
    per_site: Optional[Mapping[int, StateMeasure]] = None

    def __post_init__(self):
        for site, nu in (self.per_site or {}).items():
            if nu.n_states != self.base.n_states:
                raise SiteSetMismatch(
                    f"per_site[{site}] has {nu.n_states} states, the base "
                    f"measure {self.base.n_states}", site=site)

    @property
    def n_states(self) -> int:
        return self.base.n_states

    def factor(self, site: int) -> StateMeasure:
        if self.per_site and site in self.per_site:
            return self.per_site[site]
        return self.base

    def config_weight(self, sites: SiteSet, assignment: Sequence[int]) -> Scalar:
        w = Fraction(1)
        for s, digit in zip(sites, assignment):
            w = w * self.factor(s).weights[digit]
        return w

    def materialize(self, sites: SiteSet,
                    state_cap: int = DEFAULT_STATE_CAP) -> "WindowMeasure":
        """Kronecker product of the site weights."""
        return materialize(self, sites, state_cap)


def product_measure(nu: StateMeasure,
                    per_site: Optional[Mapping[int, StateMeasure]] = None) -> ProductMeasure:
    return ProductMeasure(nu, dict(per_site) if per_site else None)


@dataclass(frozen=True)
class WindowMeasure:
    sites: SiteSet
    n_states: int
    weights: tuple[Scalar, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", exact_scalars(self.weights))
        if len(self.weights) != self.n_states ** len(self.sites):
            raise ValueError("weight count != n_states ** n_sites")
        if any(not w > 0 for w in self.weights):
            raise ValueError("window weights must be strictly positive")
        total = sum(self.weights)
        if total != 1:
            raise ValueError(f"window weights sum to {total}, expected 1")

    @property
    def space(self) -> ConfigSpace:
        return ConfigSpace(self.sites, self.n_states)


Measure = Union[StateMeasure, ProductMeasure, WindowMeasure]


def window_measure_from_raw(sites: SiteSet, n_states: int,
                            raw: Sequence[Scalar]) -> WindowMeasure:
    """Normalize strictly positive raw weights into a window measure."""
    raw = tuple(map(Fraction, exact_scalars(raw)))
    if any(not w > 0 for w in raw):
        raise ValueError("window weights must be strictly positive")
    total = sum(raw)
    return WindowMeasure(sites, n_states, tuple(w / total for w in raw))


def _as_product(mu: Measure) -> Optional[ProductMeasure]:
    if isinstance(mu, StateMeasure):
        return ProductMeasure(mu)
    if isinstance(mu, ProductMeasure):
        return mu
    return None


def weight_table(mu: Measure, sites: SiteSet,
                 n_states: int) -> tuple[list, int]:
    """The weights of mu on S^sites as int numerators over one denominator,
    in index order: the Kronecker product of the site weights under a
    product measure, the marginal on ``sites`` of a window measure (its
    numerators summed over each fiber of the restriction)."""
    if mu.n_states != n_states:
        raise SiteSetMismatch("measure and function state counts differ")
    prod = _as_product(mu)
    if prod is not None:
        site_weights = [numerators(prod.factor(s).weights) for s in sites]
        return (kron([w for w, _ in site_weights], 1, mul),
                math.prod(q for _, q in site_weights))
    if not sites.is_subset_of(mu.sites):
        raise NotSubset("pushforward target is not a subset")
    nums, den = numerators(mu.weights)
    if sites == mu.sites:
        return nums, den
    out = [0] * (n_states ** len(sites))
    for j, w in zip(spread(range(len(out)), sites, mu.space), nums):
        out[j] += w
    return out, den


def materialize(mu: Measure, sites: SiteSet,
                state_cap: int = DEFAULT_STATE_CAP) -> WindowMeasure:
    """Window measure on ``sites`` from any measure description: a window
    measure on exactly these sites is returned as it is."""
    if isinstance(mu, WindowMeasure) and mu.sites == sites:
        return mu
    n = mu.n_states
    guard_space(n, len(sites), state_cap)
    return WindowMeasure(sites, n,
                         from_numerators(*weight_table(mu, sites, n)))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def pushforward(mu: WindowMeasure, sub: SiteSet) -> WindowMeasure:
    """Marginal of a window measure on a subset of its sites."""
    return materialize(mu, sub)


def expectation(f: FnTable, mu: Measure) -> Scalar:
    nums, den = f.numerators
    weights, w_den = weight_table(mu, f.sites, f.n_states)
    return Fraction(sum(map(mul, nums, weights)), den * w_den)


def inner(f: FnTable, g: FnTable, mu: Measure) -> Scalar:
    """<f, g>_mu = E_mu[f g]."""
    if f.sites != g.sites or f.n_states != g.n_states:
        raise SiteSetMismatch("inner product operands on different site sets")
    (a, p), (b, q) = f.numerators, g.numerators
    weights, w_den = weight_table(mu, f.sites, f.n_states)
    return Fraction(sum(map(mul, map(mul, a, b), weights)), p * q * w_den)


def conditional_expectation(f: FnTable, sub: SiteSet, mu: Measure) -> FnTable:
    """Project f onto C(S^sub): average f over the fibers of the projection,
    weighted by mu and renormalized per fiber.

    Under a product measure the fiber weight factorizes, so the projection
    integrates out the sites outside ``sub`` one digit at a time (a
    stride contraction per site, O(n^|Lambda|) in all) with no division;
    exact values are carried as integers over one common denominator.
    Under a window measure the products of f and the weight table, and the
    weights, are summed per fiber as ints; each fiber divides once.
    """
    if not sub.is_subset_of(f.sites):
        raise NotSubset("projection target is not a subset of the domain")
    if sub == f.sites:
        return f
    prod = _as_product(mu)
    if prod is not None:
        return FnTable.from_numerators(sub, f.n_states,
                                       *_integrate(f, sub, prod))
    return _window_projection(f.sites, sub, mu, f.n_states)(f)


def _window_projection(sites: SiteSet, sub: SiteSet, mu: WindowMeasure,
                       n_states: int):
    """The projection onto ``sub`` of tables on ``sites`` under the window
    measure mu, as a function of the table: the weight table, the fiber of
    each configuration and the fiber weights are read once, for every
    table it projects."""
    weights, _ = weight_table(mu, sites, n_states)
    size = n_states ** len(sub)
    fibers = spread(range(size), sub, ConfigSpace(sites, n_states))
    totals = [0] * size
    for j, v in zip(fibers, weights):
        totals[j] += v

    def project(f: FnTable) -> FnTable:
        nums, den = f.numerators
        fw = [0] * size
        for j, x, v in zip(fibers, nums, weights):
            fw[j] += x * v
        return FnTable(sub, n_states,
                       tuple(Fraction(a, b * den) for a, b in zip(fw, totals)))

    return project


# ---------------------------------------------------------------------------
# the stride-contraction kernel for product measures
# ---------------------------------------------------------------------------
#
# A table over S^Lambda is a flat sequence in mixed-radix order, so the digit
# of the site at position k has stride n^k.  Values travel as Python ints
# over one common denominator and become Fractions only on output.

def _contract(nums: list, n: int, stride: int, weights) -> list:
    """Integrate out the digit of the given stride: the weighted sum of its
    n slices, each ordered by the remaining digits."""
    slices = digit_slices(nums, n, stride)
    out = [weights[0] * x for x in slices[0]]
    for w, part in zip(weights[1:], slices[1:]):
        out = [o + w * x for o, x in zip(out, part)]
    return out


def _integrate(f: FnTable, keep: SiteSet,
               prod: ProductMeasure) -> tuple[list, int]:
    """Integrate f against ``prod`` over every site outside ``keep``:
    (numerators over S^keep, denominator).  Sites are taken from the most
    significant down, so the strides of the remaining ones never change."""
    n = f.n_states
    if prod.n_states != n:
        raise SiteSetMismatch("measure and function state counts differ")
    nums, den = f.numerators
    for k, site in reversed([(k, s) for k, s in enumerate(f.sites)
                             if s not in keep]):
        weights, q = numerators(prod.factor(site).weights)
        nums = _contract(nums, n, n ** k, weights)
        den *= q
    return nums, den


def _site_components(f: FnTable, prod: ProductMeasure) -> tuple[dict, Fraction]:
    """The mean-removed single-site component of f at every site, as a
    per-state tuple: site -> (E[f | eta_x = a] - E[f] for each state a),
    and E[f].  These are the first-order Hoeffding / Efron-Stein terms; all
    of them come from one pass, weighting f by the integer product weights
    once and then folding the digits from the most significant: that
    digit's n contiguous blocks are summed each, and added elementwise into
    the table of the remaining digits."""
    n = f.n_states
    nums, den = f.numerators
    weight, weight_den = weight_table(prod, f.sites, n)
    den *= weight_den
    table = list(map(mul, nums, weight))
    sums = {}
    for k, s in reversed(list(enumerate(f.sites))):
        block = n ** k
        parts = [table[a * block:(a + 1) * block] for a in range(n)]
        sums[s] = list(map(sum, parts))
        table = parts[0]
        for part in parts[1:]:
            table = list(map(add, table, part))
    total = table[0]
    out = {}
    for s in f.sites:
        w, q = numerators(prod.factor(s).weights)
        # E[f | eta_s = a] = sums[a] q / (den w[a]) and E[f] = total / den
        out[s] = tuple(Fraction(sums[s][a] * q - total * w[a], den * w[a])
                       for a in range(n))
    return out, Fraction(total, den)


# ---------------------------------------------------------------------------
# the edge-compatibility ("ordinary") property
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrdinaryViolation:
    sup_assignment: tuple[int, ...]
    edge: Edge
    lhs: Scalar  # mu(eta^e) * mu(eta')
    rhs: Scalar  # mu(eta) * mu(eta'^e)


@dataclass(frozen=True)
class OrdinaryReport:
    sub: SiteSet
    sup: SiteSet
    violations: tuple[OrdinaryViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def is_ordinary(sub: SiteSet, sup: SiteSet, mu: Measure,
                interaction: Interaction, locale: Locale,
                state_cap: int = DEFAULT_STATE_CAP) -> OrdinaryReport:
    """Check mu(eta^e) mu(eta') == mu(eta) mu(eta'^e) for every configuration
    eta' on the larger window and every edge inside the smaller one, where
    eta is the projection of eta'.  Product measures satisfy this identity.
    """
    if not sub.is_subset_of(sup):
        raise NotSubset("chain must be nested")
    if _as_product(mu) is not None:
        return OrdinaryReport(sub, sup, ())

    n = mu.n_states
    guard_space(n, len(sup), state_cap)
    # both tables are numerators over the denominator of mu's weights
    sup_w, den = weight_table(mu, sup, n)
    sub_w, _ = weight_table(mu, sub, n)
    sup_space = ConfigSpace(sup, n)
    # restriction indices: e inside sub moves eta' and its restriction alike
    restrict = spread(range(len(sub_w)), sub, sup_space)
    moves = [(e, *transition_offsets(sup_space, e,
                                     interaction.changed_pairs()))
             for e in edges_within(locale, sub)]

    violations = []
    for idx, j in enumerate(restrict):
        for e, so, st, offsets in moves:
            if not (d := offsets[idx // so % n][idx // st % n]):
                continue
            lhs = sub_w[restrict[idx + d]] * sup_w[idx]
            rhs = sub_w[j] * sup_w[idx + d]
            if lhs != rhs:
                violations.append(OrdinaryViolation(
                    sup_space.decode(idx), e, Fraction(lhs, den * den),
                    Fraction(rhs, den * den)))
    return OrdinaryReport(sub, sup, tuple(violations))
