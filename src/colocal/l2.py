"""Squared norms and norm reports along compatible chains.

All identities here are exact at finite level: the squared norm is a
rational, projections contract it, and for nested windows the Pythagoras
identity ||f_m||^2 = ||f_n||^2 + ||f_m - f_n||^2 holds exactly.  Square
roots are reported as floats alongside the exact squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence

from .functions import build_chain
from .measure import Measure, _as_product, inner, weight_table
from .scalars import Scalar, format_scalar, numerators
from .statespace import ConfigSpace, SiteSet, interleave, spread
from .tables import FnTable


class L2Norm(NamedTuple):
    squared: Scalar
    root: float


def l2_norm(f: FnTable, mu: Measure) -> L2Norm:
    """Exact squared norm E_mu[f^2] plus its float square root."""
    sq = inner(f, f, mu)
    return L2Norm(sq, math.sqrt(float(sq)))


def form_l2_norm(form, mu: Measure) -> L2Norm:
    """Window-form norm: the squared edge-table norms averaged over all
    directed edges.  Every dense edge table lives on the form's window, so
    the window's weights are read once, as int numerators W over w, and
    the table a/p adds sum(a^2 W) / (p^2 w)."""
    weights, w_den = weight_table(mu, form.sites, form.interaction.n_states)
    total = 0
    count = 0
    for pair in form.edges:
        for e in (pair, (pair[1], pair[0])):
            a, p = form.dense_table(e).numerators
            total = Fraction(sum(map(mul, map(mul, a, a), weights)),
                             p * p * w_den) + total
            count += 1
    sq = total / count
    return L2Norm(sq, math.sqrt(float(sq)))


@dataclass(frozen=True)
class MartingaleReport:
    windows: tuple[SiteSet, ...]
    norms_sq: tuple[Scalar, ...]
    gaps_sq: tuple[Scalar, ...]   # ||f_{n+1} - f_n||^2 per consecutive pair
    sup_sq: Scalar                # M^2 = max squared norm along the chain
    monotone: bool
    pythagoras: bool

    def to_json_dict(self, mode: str = "exact") -> dict:
        return {
            "windows": [list(w.sites) for w in self.windows],
            "norms_sq": [format_scalar(v, mode) for v in self.norms_sq],
            "norms_root": [math.sqrt(float(v)) for v in self.norms_sq],
            "gaps_sq": [format_scalar(v, mode) for v in self.gaps_sq],
            "sup_sq": format_scalar(self.sup_sq, mode),
            "sup_root": math.sqrt(float(self.sup_sq)),
            "monotone": self.monotone,
            "pythagoras": self.pythagoras,
        }


def martingale_chain_report(f: FnTable, windows: Sequence[SiteSet],
                            mu: Measure) -> MartingaleReport:
    """Project f along a nested chain and report norms, gaps, and the two
    exact identities (monotonicity and Pythagoras).

    A window's weights are int numerators W over w: under a product
    measure the last window's with each added site's digit put in, scaled
    by its state weights; under a window measure read per window.  A table
    b/q has squared norm B/(q^2 w), B = sum(b^2 W).  The gap from the last
    table a/p is the norm of q spread(a) - p b over (pq)^2, expanded as
    q^2 A - 2pq X + p^2 B, with X = sum(spread(a) b W) read off both tables
    and A = sum(spread(a)^2 W) the last B times w / w' (the last weights,
    over w', are the marginal of these).  So Pythagoras holds iff qA = pX,
    that is E[g (h - g)] = 0 for g = spread(a)/p and h = b/q: the
    projection's orthogonality, which a chain that is not compatible
    fails."""
    chain = build_chain(f, windows, mu)
    n, prod = f.n_states, _as_product(mu)
    weights, w_den = weight_table(mu, chain.windows[0], n)
    norms, gaps = [], []
    for i, (window, table) in enumerate(zip(chain.windows, chain.tables)):
        b, q = table.numerators
        if i:
            last, last_den = chain.windows[i - 1], w_den
            if prod is None:
                weights, w_den = weight_table(mu, window, n)
            else:   # the added sites in order, so each one's stride is final
                for s in window.difference(last):
                    site_weights, site_den = numerators(
                        prod.factor(s).weights)
                    weights = interleave([[w * x for x in weights]
                                          for w in site_weights],
                                         n ** window.position(s))
                    w_den *= site_den
        bw = list(map(mul, b, weights))
        norm = sum(map(mul, b, bw))
        norms.append(Fraction(norm, q * q * w_den))
        if i:
            a, p = chain.tables[i - 1].numerators
            cross = sum(map(mul, spread(a, last, ConfigSpace(window, n)), bw))
            big = last_norm * (w_den // last_den)
            gaps.append(Fraction(q * (q * big - 2 * p * cross) + p * p * norm,
                                 (p * q) ** 2 * w_den))
        last_norm = norm
    pythagoras = all(norms[i + 1] == norms[i] + gaps[i]
                     for i in range(len(gaps)))
    monotone = all(norms[i + 1] >= norms[i] for i in range(len(norms) - 1))
    return MartingaleReport(chain.windows, tuple(norms), tuple(gaps),
                            max(norms), monotone, pythagoras)
