"""Seeded job lists for the three benchmark workloads.

Every job is one CLI input (subcommand plus JSON payload) together with its
oracle.  Inputs are drawn from ``random.Random`` seeded by the workload name
and the seed, so the same seed always gives the same jobs.  The generator
and the oracles use only the standard library; nothing here imports
``colocal``.

``tiny=True`` shrinks every job so that the self-test runs in seconds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

import oracles

WORKLOADS = ("window-decompose", "subset-expand", "small-batch")


@dataclass
class Job:
    name: str
    subcommand: str
    payload: dict
    expect_code: int = 0
    expect_error: Optional[str] = None
    # oracle on the parsed report; returns a list of problems (empty = pass)
    check: Optional[Callable[[dict], list]] = field(default=None, repr=False)


# -- scalars and small building blocks ---------------------------------------

def fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def rand_value(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def rand_nonzero(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))


def rand_state_measure(rng: random.Random, n: int) -> list[Fraction]:
    """Non-uniform state weights.  The denominator is fixed per state count
    so that exact arithmetic costs about the same for every seed."""
    if n == 2:
        p = Fraction(rng.randint(1, 4), 5)
        return [1 - p, p]
    raw = list(range(1, n + 1))
    rng.shuffle(raw)
    return [Fraction(w, sum(raw)) for w in raw]


def swap_interaction(n: int) -> dict:
    """Exclusion: phi swaps the two endpoint states of an edge."""
    return {"states": list(range(n)), "base": 0,
            "phi": [[[a, b], [b, a]] for a in range(n) for b in range(n)
                    if a != b]}


def path_locale(sites) -> dict:
    sites = list(sites)
    edges = []
    for a, b in zip(sites, sites[1:]):
        edges += [[a, b], [b, a]]
    return {"sites": sites, "edges": edges}


def ring_locale(n_sites: int) -> dict:
    edges = []
    for a in range(n_sites):
        b = (a + 1) % n_sites
        edges += [[a, b], [b, a]]
    return {"sites": list(range(n_sites)), "edges": edges}


def rand_table(rng: random.Random, n: int, n_sites: int) -> list[Fraction]:
    return [rand_value(rng) for _ in range(n ** n_sites)]


# -- window-decompose ---------------------------------------------------------

def _varadhan_job(rng: random.Random, n: int, radius: int, core_len: int,
                  name: str) -> Job:
    """A seeded cocycle plus the stencil of a seeded random-core potential.

    The exact part contributes no cocycle, so the decomposition must return
    the seeded coefficients and leave the harness-computed exact stencil as
    the residual."""
    nu = rand_state_measure(rng, n)
    coeffs = [rand_nonzero(rng) for _ in range(n - 1)]
    core = [rand_value(rng) for _ in range(n ** core_len)]
    anchor_support, anchor = oracles.potential_anchor(core, core_len, n)
    payload = {
        "interaction": swap_interaction(n),
        "nu": [fmt(w) for w in nu],
        "dim": 1,
        "window": {"lattice": {"dim": 1, "radius": radius}},
        "cocycle": [[fmt(c) for c in coeffs]],
        "stencil": {
            "template": {"lattice": {"dim": 1, "radius": core_len}},
            "form": {"siteset": list(range(-core_len, core_len + 1)),
                     "edges": [{"edge": [0, 1], "support": anchor_support,
                                "values": [fmt(v) for v in anchor]}]},
        },
    }
    check = partial(oracles.check_window_decomposition, coeffs=coeffs,
                    n=n, radius=radius, anchor_support=anchor_support,
                    anchor=anchor)
    return Job(name, "varadhan", payload, check=check)


def window_decompose(rng: random.Random, tiny: bool) -> list[Job]:
    # radius >= 3 leaves an interior beyond the margin of 2
    radii = (3, 4) if tiny else (4, 5, 6)
    jobs = [_varadhan_job(rng, 2, r, 2, f"varadhan-n2-r{r}") for r in radii]
    # Three three-state inputs, the job class under r=5 and r=6: with 3 to 5
    # passes the per-job median and tail then both fall on this class
    # rather than between classes.
    jobs += [_varadhan_job(rng, 3, 3, 2, f"varadhan-n3-r3-{k}")
             for k in range(3)]
    return jobs


# -- subset-expand -------------------------------------------------------------

def _expand_job(rng: random.Random, n: int, n_sites: int) -> Job:
    nu = rand_state_measure(rng, n)
    values = rand_table(rng, n, n_sites)
    sites = list(range(n_sites))
    payload = {"interaction": swap_interaction(n), "nu": [fmt(w) for w in nu],
               "locale": path_locale(sites),
               "fn": {"siteset": sites, "values": [fmt(v) for v in values]}}
    check = partial(oracles.check_expansion, n=n, sites=sites, values=values)
    return Job(f"expand-n{n}-s{n_sites}", "expand", payload, check=check)


def _martingale_job(rng: random.Random, n: int, n_sites: int,
                    tag: str = "") -> Job:
    nu = rand_state_measure(rng, n)
    values = rand_table(rng, n, n_sites)
    sites = list(range(n_sites))
    # windows grow outward from the middle, one site at a time
    mid = n_sites // 2
    chain = [[mid]]
    lo, hi = mid, mid
    while len(chain[-1]) < n_sites:
        if (len(chain) % 2 and lo > 0) or hi == n_sites - 1:
            lo -= 1
        else:
            hi += 1
        chain.append(list(range(lo, hi + 1)))
    payload = {"interaction": swap_interaction(n), "nu": [fmt(w) for w in nu],
               "fn": {"siteset": sites, "values": [fmt(v) for v in values]},
               "chain": chain}
    check = partial(oracles.check_martingale, n=n, n_sites=n_sites, nu=nu,
                    values=values,
                    chain_len=len(chain))
    return Job(f"martingale-n{n}-s{n_sites}{tag}", "martingale", payload,
               check=check)


def subset_expand(rng: random.Random, tiny: bool) -> list[Job]:
    small, large, three, chain = (3, 4, 2, 6) if tiny else (7, 8, 5, 12)
    # Three martingale inputs, the second-slowest job class under the single
    # 8-site expansion: with 3 to 10 passes the per-job median and tail then
    # both fall on this class rather than between classes.
    return ([_expand_job(rng, 2, small), _expand_job(rng, 2, large),
             _expand_job(rng, 3, three)]
            + [_martingale_job(rng, 2, chain, f"-{k}") for k in range(3)])


# -- small-batch ---------------------------------------------------------------

def _exact_form(rng: random.Random, n: int, sites, pairs) -> dict:
    """Form JSON of the differential of a seeded random function (closed by
    construction), one table per listed edge on the full site set."""
    f = rand_table(rng, n, len(sites))
    edges = []
    for (o, t) in pairs:
        po, pt = sites.index(o), sites.index(t)
        values = []
        for idx in range(n ** len(sites)):
            digits = oracles.decode(idx, n, len(sites))
            moved = list(digits)
            moved[po], moved[pt] = digits[pt], digits[po]   # swap phi
            values.append(f[oracles.encode(moved, n)] - f[idx])
        edges.append({"edge": [o, t], "values": [fmt(v) for v in values]})
    return {"siteset": list(sites), "edges": edges}


def _cycle_form(rng: random.Random) -> dict:
    """Triangle form whose three-transition cycle has nonzero integral."""
    c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    spots = {(0, 1): {1: c, 2: -c}, (1, 2): {2: c, 4: -c},
             (0, 2): {4: c, 1: -c}}
    entries = []
    for edge, values in spots.items():
        table = [Fraction(0)] * 8
        for idx, v in values.items():
            table[idx] = v
        entries.append({"edge": list(edge), "values": [fmt(v) for v in table]})
    return {"siteset": [0, 1, 2], "edges": entries}


def _window_weights(rng: random.Random, product: bool) -> list[Fraction]:
    """Explicit weights on two-state configurations of sites [0, 1, 2]:
    a product measure (ordinary) or, otherwise, a measure that fails edge
    compatibility for the target [0, 1]."""
    if product:
        nu = rand_state_measure(rng, 2)
        out = []
        for idx in range(8):
            w = Fraction(1)
            for d in oracles.decode(idx, 2, 3):
                w *= nu[d]
            out.append(w)
        return out
    raw = [rng.randint(1, 9) for _ in range(8)]
    # Three sites, edge (0, 1) inside the target [0, 1]: the measure is
    # ordinary only if w(0,1,c) / w(1,0,c) is the same for c = 0 and 1.
    if raw[2] * raw[5] == raw[6] * raw[1]:
        raw[2] += 1
    total = sum(raw)
    return [Fraction(w, total) for w in raw]


def small_batch(rng: random.Random, tiny: bool) -> list[Job]:
    def nu_of(n):
        return [fmt(w) for w in rand_state_measure(rng, n)]

    ok = oracles.check_ok
    triangle = {"sites": [0, 1, 2],
                "edges": [[0, 1], [1, 0], [1, 2], [2, 1], [0, 2], [2, 0]]}
    # an odd job count puts the per-job median inside one job's samples
    jobs = [
        Job("conserved-n2", "conserved",
            {"interaction": swap_interaction(2), "nu": nu_of(2)}, check=ok),
        Job("conserved-n3", "conserved",
            {"interaction": swap_interaction(3), "nu": nu_of(3)}, check=ok),
        Job("iq-rings", "iq",
            {"interaction": swap_interaction(2), "nu": nu_of(2),
             "locales": [ring_locale(k) for k in ((4, 5) if tiny
                                                  else (6, 7, 8))]},
            check=ok),
        Job("iq-torus", "iq",
            {"interaction": swap_interaction(2), "nu": nu_of(2),
             "locales": [{"lattice": {"dim": 2, "sizes": [3, 3]}}]},
            check=ok),
        Job("iq-ring-n3", "iq",
            {"interaction": swap_interaction(3), "nu": nu_of(3),
             "locales": [ring_locale(4 if tiny else 5)]}, check=ok),
    ]
    for k in range(2):
        sites = [0, 1, 2]
        jobs.append(Job(
            f"project-fn-{k}", "project",
            {"interaction": swap_interaction(2),
             "measure": {"kind": "window", "siteset": sites,
                         "weights": [fmt(w) for w in
                                     _window_weights(rng, k == 0)]},
             "target": [0, 2],
             "fn": {"siteset": sites,
                    "values": [fmt(v) for v in rand_table(rng, 2, 3)]}},
            check=ok))
    pairs = [(0, 1), (1, 2)]
    form_sites = [0, 1, 2]
    jobs.append(Job(
        "project-form", "project",
        {"interaction": swap_interaction(2),
         "measure": {"kind": "window", "siteset": form_sites,
                     "weights": [fmt(w) for w in
                                 _window_weights(rng, True)]},
         "locale": path_locale(form_sites), "target": [0, 1],
         "form": _exact_form(rng, 2, form_sites, pairs)}, check=ok))
    jobs.append(Job(
        "project-form-not-ordinary", "project",
        {"interaction": swap_interaction(2),
         "measure": {"kind": "window", "siteset": form_sites,
                     "weights": [fmt(w) for w in
                                 _window_weights(rng, False)]},
         "locale": path_locale(form_sites), "target": [0, 1],
         "form": _exact_form(rng, 2, form_sites, pairs)},
        expect_code=1, expect_error="NotOrdinary"))
    closed_sites = [0, 1, 2] if tiny else [0, 1, 2, 3]
    jobs.append(Job(
        "closed-exact", "closed",
        {"interaction": swap_interaction(2),
         "measure": {"kind": "product", "nu": nu_of(2)},
         "form": _exact_form(rng, 2, closed_sites,
                             list(zip(closed_sites, closed_sites[1:])))},
        check=ok))
    jobs.append(Job(
        "closed-witness", "closed",
        {"interaction": swap_interaction(2),
         "measure": {"kind": "product", "nu": nu_of(2)},
         "locale": triangle, "form": _cycle_form(rng)},
        expect_code=1, expect_error="NotClosed"))
    jobs.append(Job("dims-n2-path7", "dims",
                    {"interaction": swap_interaction(2), "nu": nu_of(2),
                     "locale": path_locale(range(4 if tiny else 7))},
                    check=ok))
    jobs.append(Job("dims-n2-ring6", "dims",
                    {"interaction": swap_interaction(2), "nu": nu_of(2),
                     "locale": ring_locale(4 if tiny else 6)}, check=ok))
    jobs.append(Job("dims-n3-ring4", "dims",
                    {"interaction": swap_interaction(3), "nu": nu_of(3),
                     "locale": ring_locale(3 if tiny else 4)}, check=ok))
    for dim, radius in ((1, 10 if tiny else 40), (2, 3 if tiny else 6)):
        nu = rand_state_measure(rng, 2)
        coeffs = [[rand_nonzero(rng)] for _ in range(dim)]
        jobs.append(Job(
            f"varadhan-local-d{dim}-r{radius}", "varadhan",
            {"interaction": swap_interaction(2), "nu": [fmt(w) for w in nu],
             "dim": dim, "window": {"lattice": {"dim": dim, "radius": radius}},
             "cocycle": [[fmt(c) for c in row] for row in coeffs]},
            check=partial(oracles.check_local_decomposition, coeffs=coeffs)))
    jobs.append(_expand_job(rng, 2, 3 if tiny else 4))
    jobs.append(_expand_job(rng, 3, 2 if tiny else 3))
    jobs.append(_martingale_job(rng, 2, 4 if tiny else 6))
    return jobs


GENERATORS = {"window-decompose": window_decompose,
            "subset-expand": subset_expand,
            "small-batch": small_batch}


def build(workload: str, seed: int, tiny: bool = False) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, tiny)
