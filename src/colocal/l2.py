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
from itertools import repeat
from operator import mul, sub
from typing import NamedTuple, Sequence

from .functions import build_chain
from .measure import Measure, inner, weight_table
from .scalars import Scalar, format_scalar
from .statespace import ConfigSpace, SiteSet, spread
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

    Each window's weights are read once, as int numerators W over one
    denominator w (``measure.weight_table``).  A table a/p on the window
    has squared norm sum(a^2 W) / (p^2 w).  The gap between the table a/p
    of one window and the table b/q of the next is the squared norm of the
    scaled difference q spread(a) - p b over (pq)^2, summed against the
    larger window's W; it is read off the two tables, never off the norms,
    so Pythagoras is an independent check."""
    chain = build_chain(f, windows, mu)
    n = f.n_states
    norms, gaps = [], []
    for i, (window, table) in enumerate(zip(chain.windows, chain.tables)):
        weights, w_den = weight_table(mu, window, n)
        b, q = table.numerators
        norms.append(Fraction(sum(map(mul, map(mul, b, b), weights)),
                              q * q * w_den))
        if i:
            a, p = chain.tables[i - 1].numerators
            spread_a = spread(a, chain.windows[i - 1], ConfigSpace(window, n))
            diff = list(map(sub, map(mul, repeat(q), spread_a),
                            map(mul, repeat(p), b)))
            gaps.append(Fraction(sum(map(mul, map(mul, diff, diff), weights)),
                                 (p * q) ** 2 * w_den))
    pythagoras = all(norms[i + 1] == norms[i] + gaps[i]
                     for i in range(len(gaps)))
    monotone = all(norms[i + 1] >= norms[i] for i in range(len(norms) - 1))
    return MartingaleReport(chain.windows, tuple(norms), tuple(gaps),
                            max(norms), monotone, pythagoras)
