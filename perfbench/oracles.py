"""Output oracles that do not use the code under test.

Each ``check_*`` function takes the parsed CLI report of one job plus the
seeded data the job was made from, recomputes what it can with plain
``Fraction`` arithmetic, and returns a list of problems (empty when the
output is right).  Tables follow the CLI's index order: ascending sites,
smallest site least significant.
"""

from __future__ import annotations

from fractions import Fraction


def decode(idx: int, n: int, n_sites: int) -> list[int]:
    digits = []
    for _ in range(n_sites):
        digits.append(idx % n)
        idx //= n
    return digits


def encode(digits, n: int) -> int:
    idx = 0
    for d in reversed(digits):
        idx = idx * n + d
    return idx


def potential_anchor(core: list[Fraction], k: int, n: int):
    """Anchor table, on edge (0, 1), of the differential of the shift-invariant
    potential ``sum over v of core(eta_v, ..., eta_{v+k-1})`` under the swap
    interaction.  Returns (support coordinates, values)."""
    support = list(range(-(k - 1), k + 1))
    p0, p1 = support.index(0), support.index(1)
    # translates whose support meets the edge; the others cancel
    windows = [[support.index(v + j) for j in range(k)]
               for v in range(-(k - 1), 2)]
    values = []
    for idx in range(n ** len(support)):
        digits = decode(idx, n, len(support))
        if digits[p0] == digits[p1]:
            values.append(Fraction(0))
            continue
        moved = list(digits)
        moved[p0], moved[p1] = digits[p1], digits[p0]
        total = Fraction(0)
        for pos in windows:
            total += (core[encode([moved[p] for p in pos], n)]
                      - core[encode([digits[p] for p in pos], n)])
        values.append(total)
    return support, values


def _dependent_sites(support, values, n):
    """Sites of ``support`` the table actually depends on."""
    out = []
    for k, site in enumerate(support):
        stride = n ** k
        for idx, v in enumerate(values):
            digit = (idx // stride) % n
            if digit and values[idx - digit * stride] != v:
                out.append(site)
                break
    return out


def compare_table(out_support, out_values, support, values, n, label):
    """Problems if the output table (on a subset of ``support``) differs, as a
    function, from the reference table."""
    if not set(out_support) <= set(support):
        return [f"{label}: support {out_support} not inside {support}"]
    if len(out_values) != n ** len(out_support):
        return [f"{label}: {len(out_values)} values for "
                f"{len(out_support)} sites"]
    positions = [support.index(s) for s in out_support]
    out = [Fraction(v) for v in out_values]
    for idx, ref in enumerate(values):
        digits = decode(idx, n, len(support))
        got = out[encode([digits[p] for p in positions], n)]
        if got != ref:
            return [f"{label}: value {got} != {ref} at configuration {digits}"]
    return []


def _fractions(rows):
    return [[Fraction(c) for c in row] for row in rows]


def check_ok(report: dict) -> list:
    return [] if report.get("ok") is True else ["report not ok"]


def check_window_decomposition(report, coeffs, n, radius, anchor_support,
                               anchor) -> list:
    res = report["result"]
    problems = []
    if res["mode"] != "window":
        problems.append(f"mode {res['mode']} != window")
    if _fractions(res["cocycle"]["generators"]) != [list(coeffs)]:
        problems.append(f"cocycle {res['cocycle']['generators']} != seeded "
                        f"{[str(c) for c in coeffs]}")
    dependent = _dependent_sites(anchor_support, anchor, n)
    stencil_radius = max((min(abs(c), abs(c - 1)) for c in dependent),
                         default=0)
    margin = stencil_radius + 1
    exact_zero = not dependent and all(v == 0 for v in anchor)
    expected = {"mode": "window", "margin": margin,
                "stencil_radius": stencil_radius,
                "residual_interior_zero": exact_zero,
                "residual_interior_invariant": True,
                "residual_stencil_zero": exact_zero}
    if res["checks"] != expected:
        problems.append(f"checks {res['checks']} != {expected}")
    if res["margin"] != margin:
        problems.append(f"margin {res['margin']} != {margin}")

    # the residual is the seeded exact part: its stencil anchor ...
    anchors = [e for e in res["residual_stencil"]["form"]["edges"]
               if e["edge"] == [0, 1]]
    if len(anchors) != 1:
        problems.append("residual stencil has no anchor edge")
    else:
        problems += compare_table(anchors[0]["support"], anchors[0]["values"],
                                  anchor_support, anchor, n,
                                  "residual stencil anchor")
    # ... and, translated, every interior edge of the residual form
    inner = radius - margin
    expected_edges = [[x, x + 1] for x in range(-inner, inner)]
    got_edges = [e["edge"] for e in res["residual_interior_edges"]]
    if got_edges != expected_edges:
        problems.append(f"interior edges {got_edges} != {expected_edges}")
    for entry in res["residual_interior_edges"]:
        x = entry["edge"][0]
        problems += compare_table(entry["support"], entry["values"],
                                  [c + x for c in anchor_support], anchor, n,
                                  f"residual edge {entry['edge']}")
    return problems


def check_local_decomposition(report, coeffs) -> list:
    res = report["result"]
    problems = []
    if res["mode"] != "local":
        problems.append(f"mode {res['mode']} != local")
    if _fractions(res["cocycle"]["generators"]) != [list(r) for r in coeffs]:
        problems.append("recovered cocycle differs from the seeded one")
    if res["checks"].get("residual_stencil_zero") is not True:
        problems.append("pure cocycle left a nonzero residual stencil")
    return problems


def check_expansion(report, n, sites, values) -> list:
    """Components re-summed by the harness reproduce f, each component lives
    on the subset its key names, and the uniform radius is the largest
    diameter of a nonzero component on the path locale."""
    res = report["result"]
    comps = res["components"]
    problems = []
    if len(comps) != 2 ** len(sites):
        problems.append(f"{len(comps)} components for {len(sites)} sites")
    total = [Fraction(0)] * len(values)
    radius = 0
    for key, comp in comps.items():
        subset = comp["subset"]
        mask = sum(1 << sites.index(s) for s in subset)
        if str(mask) != key:
            problems.append(f"component key {key} != mask of {subset}")
            continue
        table = [Fraction(v) for v in comp["values"]]
        if len(table) != n ** len(subset):
            problems.append(f"component {subset} has {len(table)} values")
            continue
        if subset and any(table):
            radius = max(radius, max(subset) - min(subset))
        strides = [n ** sites.index(s) for s in subset]
        for idx in range(len(total)):
            sub = 0
            for k, stride in enumerate(strides):
                sub += ((idx // stride) % n) * n ** k
            total[idx] += table[sub]
    if total != list(values):
        problems.append("components do not re-sum to f")
    if res["uniform_radius"] != radius:
        problems.append(f"uniform radius {res['uniform_radius']} != {radius}")
    return problems


def check_martingale(report, n, n_sites, nu, values, chain_len) -> list:
    """The last chain norm is E_mu[f^2]; norms and gaps obey Pythagoras."""
    res = report["result"]
    weights = [Fraction(1)]     # product weights, first site least significant
    for _ in range(n_sites):
        weights = [w * nu[d] for d in range(n) for w in weights]
    expected = sum(v * v * w for v, w in zip(values, weights))
    norms = [Fraction(v) for v in res["norms_sq"]]
    gaps = [Fraction(v) for v in res["gaps_sq"]]
    problems = []
    if len(norms) != chain_len or len(gaps) != chain_len - 1:
        problems.append("chain report has the wrong length")
    elif norms[-1] != expected:
        problems.append(f"last norm {norms[-1]} != E[f^2] = {expected}")
    elif norms[0] + sum(gaps) != norms[-1]:
        problems.append("norms and gaps do not telescope")
    if Fraction(res["sup_sq"]) != max(norms, default=None):
        problems.append("sup_sq is not the largest norm")
    if res["monotone"] is not True or res["pythagoras"] is not True:
        problems.append("monotone/pythagoras flag false")
    return problems

