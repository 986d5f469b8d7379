"""Squared norms and norm reports along compatible chains.

All identities here are exact at finite level: the squared norm is a
rational, projections contract it, and for nested windows the Pythagoras
identity ||f_m||^2 = ||f_n||^2 + ||f_m - f_n||^2 holds exactly.  Square
roots are reported as floats alongside the exact squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .functions import build_chain
from .measure import Measure, WindowMeasure, inner, materialize
from .scalars import Scalar, format_scalar
from .statespace import SiteSet
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
    directed edges."""
    if isinstance(mu, WindowMeasure):
        mu = materialize(mu, form.sites)   # marginalize once, not per edge
    total = 0
    count = 0
    for pair in form.edges:
        for e in (pair, (pair[1], pair[0])):
            dense = form.dense_table(e)
            total = inner(dense, dense, mu) + total
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
    exact identities (monotonicity and Pythagoras)."""
    chain = build_chain(f, windows, mu)
    norms = []
    for w, table in zip(chain.windows, chain.tables):
        norms.append(inner(table, table, mu))
    gaps = []
    pythagoras = True
    for i in range(len(chain.windows) - 1):
        big = chain.windows[i + 1]
        diff = chain.tables[i + 1] - chain.tables[i].embed(big)
        gap = inner(diff, diff, mu)
        gaps.append(gap)
        if norms[i + 1] != norms[i] + gap:
            pythagoras = False
    monotone = all(norms[i + 1] >= norms[i] for i in range(len(norms) - 1))
    return MartingaleReport(chain.windows, tuple(norms), tuple(gaps),
                            max(norms), monotone, pythagoras)
