"""Cap-scale sweep of window-mode and local-mode ``varadhan``, of
``expand``, of ``iq``, of ``dims`` and of ``closed``: raw wall time and
peak RSS.

Each case is one CLI run through ``colocal.cli.main``, in a fresh
interpreter so that its peak RSS is its own.  State-cap cases decompose a
d=1 exclusion window in window mode: two states, nu = (3/5, 2/5), cocycle
3/7, radius 6 to 9 (up to 2^19 configurations); three states,
nu = (1/2, 1/3, 1/6), cocycle (3/7, -2/5), radius 4 and 5 (up to 3^11
configurations).  Local-mode cases decompose the cocycle form of the
perfbench ``small-batch`` job ``varadhan-local-d2-r6`` (seed 1: two-state
exclusion, nu = (4/5, 1/5), cocycle (-2, -2/3)) on d=2 windows of radius
20 and 40 (41x41 and 81x81 sites), far over the state cap: the window is
read, the stencil is placed on the plaquette whose cycles certify
closedness and whose solve gives the cocycle, and nothing scales with the
window but its reading.  A further local-mode case runs
the input of the ``varadhan-local-d2`` golden (a cocycle plus a radius-1
potential stencil) on the d=2 window of radius 20: its anchors read
beyond their edges, so its commuting squares are checked too.  Subset-cap cases expand a seeded function on a path of
10, 12, 13 and 14 two-state sites under nu = (3/5, 2/5); its entries are
p/q with |p| <= 4 and q <= 3, so they repeat, as in the benchmark's
tables.  The transition-graph cases check irreducible quantification of
two-state exclusion on a path of 16 sites (2^16 configurations), and run
``dims`` on paths of 14 and 16 two-state sites.  The ``closed`` cases
solve a form on two-state exclusion boxes of 4x4 and 4x5 sites (2^16 and
2^20 configurations, the state cap): a cocycle form plus d of a seeded
local core, given edge by edge on small supports.  Two further ``closed``
cases, on the 4x4 and the 4x5 box, move one transition of that form by +1
and its reverse by -1: the form stays alternating but is not closed, so
the run reports a witness cycle and exits 1.  Each case names the exit
code it expects.  Per run the child reports the exit code and wall time
of the CLI call, the time inside ``solve_potential``, its peak RSS (read
as the call returns, before the output is read back), and the sha256 of
the output bytes.  Each case runs ``REPEATS`` times per tree; the report
keeps every run and the medians.

With ``--baseline REV`` the same cases also run on the ``src/`` tree of
that git revision (exported with ``git archive`` to a temporary
directory), the two trees alternating which runs first.  The runs of one
tree must agree byte for byte, and the output of every run must agree once
``result.checks`` is left out (``sha256_sans_checks``); a case whose
``checks`` differ between the trees records one ``sha256`` per tree.
Standard library only.

    python scripts/cap_sweep.py --baseline HEAD~1 --out BENCH.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TWO = {"states": [0, 1], "nu": ["3/5", "2/5"], "cocycle": [["3/7"]]}
THREE = {"states": [0, 1, 2], "nu": ["1/2", "1/3", "1/6"],
         "cocycle": [["3/7", "-2/5"]]}
#: the cocycle input of perfbench's small-batch varadhan-local-d2 job
LOCAL_D2 = {"states": [0, 1], "nu": ["4/5", "1/5"],
            "cocycle": [["-2/1"], ["-2/3"]]}
REPEATS = 5


def exclusion(states: list) -> dict:
    phi = [[[a, b], [b, a]] for a in states for b in states if a != b]
    return {"states": states, "base": 0, "phi": phi}


def varadhan_case(name: str, spec: dict, radius: int) -> dict:
    return {"case": name, "subcommand": "varadhan", "exit": 0,
            "states": len(spec["states"]), "radius": radius,
            "configurations": len(spec["states"]) ** (2 * radius + 1),
            "payload": {"interaction": exclusion(spec["states"]),
                        "nu": spec["nu"], "dim": 1,
                        "cocycle": spec["cocycle"],
                        "window": {"lattice": {"dim": 1,
                                               "radius": radius}}}}


def local_case(radius: int) -> dict:
    """Local-mode ``varadhan`` on the d=2 window of the given radius."""
    return {"case": f"local-d2-r{radius}", "subcommand": "varadhan",
            "exit": 0, "states": 2, "radius": radius,
            "sites": (2 * radius + 1) ** 2,
            "payload": {"interaction": exclusion(LOCAL_D2["states"]),
                        "nu": LOCAL_D2["nu"], "dim": 2,
                        "cocycle": LOCAL_D2["cocycle"],
                        "window": {"lattice": {"dim": 2,
                                               "radius": radius}}}}


def stencil_case(radius: int) -> dict:
    """The ``varadhan-local-d2`` golden's input on the d=2 window of the
    given radius."""
    payload = json.loads((ROOT / "tests" / "golden"
                          / "varadhan-local-d2.json").read_text())
    payload["window"] = {"lattice": {"dim": 2, "radius": radius}}
    return {"case": f"local-d2-stencil-r{radius}", "subcommand": "varadhan",
            "exit": 0, "states": 2, "radius": radius,
            "sites": (2 * radius + 1) ** 2, "payload": payload}


def path_locale(n_sites: int) -> dict:
    sites = list(range(n_sites))
    edges = [[a, a + 1] for a in sites[:-1]] + [[a + 1, a]
                                                for a in sites[:-1]]
    return {"sites": sites, "edges": edges}


def expand_case(n_sites: int) -> dict:
    rng = random.Random(f"cap-sweep:expand:{n_sites}")
    values = [f"{rng.randint(-4, 4)}/{rng.randint(1, 3)}"
              for _ in range(2 ** n_sites)]
    return {"case": f"expand-n2-s{n_sites}", "subcommand": "expand",
            "exit": 0, "states": 2, "sites": n_sites,
            "configurations": 2 ** n_sites,
            "payload": {"interaction": exclusion([0, 1]), "nu": TWO["nu"],
                        "locale": path_locale(n_sites),
                        "fn": {"siteset": list(range(n_sites)),
                               "values": values}}}


def iq_case(n_sites: int) -> dict:
    return {"case": f"iq-n2-path{n_sites}", "subcommand": "iq", "exit": 0,
            "states": 2, "sites": n_sites, "configurations": 2 ** n_sites,
            "payload": {"interaction": exclusion([0, 1]), "nu": TWO["nu"],
                        "locales": [path_locale(n_sites)]}}


def dims_case(n_sites: int) -> dict:
    return {"case": f"dims-n2-path{n_sites}", "subcommand": "dims",
            "exit": 0, "states": 2, "sites": n_sites,
            "configurations": 2 ** n_sites,
            "payload": {"interaction": exclusion([0, 1]), "nu": TWO["nu"],
                        "locale": path_locale(n_sites)}}


def box_form(width: int, height: int, seed: str) -> dict:
    """The form JSON of a cocycle form plus d of a seeded local core on a
    width x height box of two-state exclusion, site y * width + x at
    (x, y).  The cocycle form is 3/7 (eta_o - eta_t) on every edge (o, t),
    o < t: d of 3/7 sum (x + y) eta.  The core is g(eta_s, eta_{s+1}) on
    every horizontal site pair, with seeded values p/q, |p| <= 4, q <= 3;
    d of its sum changes only the terms that meet an edge, so each edge
    table lives on those terms' sites (at most six)."""
    rng = random.Random(seed)
    core = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for _ in range(4)]
    terms = [(s, s + 1) for s in range(width * height) if (s + 1) % width]
    pairs = sorted([(s, s + 1) for s, _ in terms]
                   + [(s, s + width) for s in range(width * (height - 1))])
    edges = []
    for o, t in pairs:
        near = [(a, b) for a, b in terms if {a, b} & {o, t}]
        support = sorted({o, t, *(s for term in near for s in term)})
        values = []
        # the smallest site is the least significant digit of the index
        for digits in product((0, 1), repeat=len(support)):
            eta = dict(zip(reversed(support), digits))
            moved = {**eta, o: eta[t], t: eta[o]}
            value = Fraction(0) if eta[o] == eta[t] else (
                Fraction(3, 7) * (eta[o] - eta[t])
                + sum(core[2 * moved[b] + moved[a]]
                      - core[2 * eta[b] + eta[a]] for a, b in near))
            values.append(f"{value.numerator}/{value.denominator}")
        edges.append({"edge": [o, t], "support": support, "values": values})
    return {"siteset": list(range(width * height)), "edges": edges}


def broken_box_form(width: int, height: int, seed: str) -> dict:
    """``box_form`` with one more unit on the move across its first edge
    from the first configuration of that table that the edge moves, and
    one less on the move back: still alternating (exclusion moves both
    ways across one map), but not closed."""
    form = box_form(width, height, seed)
    table = form["edges"][0]
    o, t = table["edge"]
    configs = [dict(zip(reversed(table["support"]), digits))
               for digits in product((0, 1), repeat=len(table["support"]))]
    src = next(k for k, eta in enumerate(configs) if eta[o] != eta[t])
    dst = configs.index({**configs[src], o: configs[src][t],
                         t: configs[src][o]})
    for k, unit in ((src, 1), (dst, -1)):
        value = Fraction(table["values"][k]) + unit
        table["values"][k] = f"{value.numerator}/{value.denominator}"
    return form


def closed_case(width: int, height: int, closed: bool = True) -> dict:
    seed = f"cap-sweep:closed:{width}x{height}"
    return {"case": f"closed-n2-box{width}x{height}"
                    + ("" if closed else "-not-closed"),
            "subcommand": "closed", "exit": 0 if closed else 1,
            "states": 2, "sites": width * height,
            "configurations": 2 ** (width * height),
            "payload": {"interaction": exclusion([0, 1]),
                        "form": (box_form if closed else broken_box_form)(
                            width, height, seed)}}


CASES = ([varadhan_case("n2-r%d" % r, TWO, r) for r in (6, 7, 8, 9)]
         + [varadhan_case("n3-r%d" % r, THREE, r) for r in (4, 5)]
         + [local_case(r) for r in (20, 40)] + [stencil_case(20)]
         + [expand_case(n) for n in (10, 12, 13, 14)]
         + [iq_case(16)]
         + [dims_case(n) for n in (14, 16)]
         + [closed_case(4, 4), closed_case(4, 5),
            closed_case(4, 4, closed=False), closed_case(4, 5, closed=False)])


def child(subcommand: str, input_path: str, output_path: str) -> None:
    """Run one case in this interpreter and print its measurements."""
    import resource

    from colocal import cli, varadhan

    spent = 0.0
    solve_potential = varadhan.solve_potential

    def timed(*args, **kwargs):
        nonlocal spent
        start = time.perf_counter()
        try:
            return solve_potential(*args, **kwargs)
        finally:
            spent += time.perf_counter() - start

    varadhan.solve_potential = cli.solve_potential = timed
    start = time.perf_counter()
    code = cli.main([subcommand, "--input", input_path,
                     "--output", output_path])
    wall = time.perf_counter() - start
    # the peak of the CLI run alone: reading and parsing its output below
    # would raise it
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    output = Path(output_path).read_bytes()
    sans_checks = json.loads(output)
    sans_checks.get("result", {}).pop("checks", None)
    print(json.dumps({
        "exit": code, "wall_s": wall,
        "solve_potential_s": spent,
        "peak_rss_mib": peak_rss_mib,
        "sha256": hashlib.sha256(output).hexdigest(),
        "sha256_sans_checks": hashlib.sha256(json.dumps(
            sans_checks, sort_keys=True).encode()).hexdigest()}))


def export_tree(rev: str, into: Path) -> Path:
    """The ``src/`` tree of a git revision, unpacked under ``into``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    tar_path = into / "src.tar"
    tar_path.write_bytes(archive)
    with tarfile.open(tar_path) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def run_case(src: Path, subcommand: str, input_path: Path,
             work: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, __file__, "--child", subcommand, str(input_path),
         str(work / "out.json")],
        check=True, capture_output=True, text=True, env=env).stdout
    return json.loads(out)


def summary(runs: list[dict]) -> dict:
    keys = ("wall_s", "solve_potential_s", "peak_rss_mib")
    return {k: round(statistics.median(r[k] for r in runs), 4) for k in keys}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", help="git revision to compare with")
    parser.add_argument("--out", type=Path, help="write the results here")
    parser.add_argument("--child", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(*args.child)
        return 0

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        trees = {"change": ROOT / "src"}
        if args.baseline:
            (work / "baseline").mkdir()
            trees = {"baseline": export_tree(args.baseline,
                                             work / "baseline"),
                     **trees}
        results = []
        for case in CASES:
            name = case["case"]
            input_path = work / f"{name}.json"
            input_path.write_text(json.dumps(case["payload"]))
            runs = {tree: [] for tree in trees}
            for k in range(REPEATS):
                order = list(trees) if k % 2 == 0 else list(trees)[::-1]
                for tree in order:
                    run = run_case(trees[tree], case["subcommand"],
                                   input_path, work)
                    if run["exit"] != case["exit"]:
                        raise SystemExit(f"{name} on {tree}: exit "
                                         f"{run['exit']}, expected "
                                         f"{case['exit']}")
                    runs[tree].append(run)
                    print(f"{name} {tree}: {run['wall_s']:.3f} s, "
                          f"{run['peak_rss_mib']:.1f} MiB", file=sys.stderr)
            hashes = {tree: {r["sha256"] for r in rs}
                      for tree, rs in runs.items()}
            if any(len(h) != 1 for h in hashes.values()) or len(
                    {r["sha256_sans_checks"]
                     for rs in runs.values() for r in rs}) != 1:
                raise SystemExit(f"{name}: output bytes differ between runs")
            hashes = {tree: h.pop() for tree, h in hashes.items()}
            results.append({
                **{k: v for k, v in case.items() if k != "payload"},
                "sha256": (hashes if len(set(hashes.values())) > 1
                           else hashes.popitem()[1]),
                "median": {tree: summary(rs) for tree, rs in runs.items()},
                "runs": {tree: [{k: v for k, v in r.items()
                                 if k not in ("exit", "sha256",
                                              "sha256_sans_checks")}
                                for r in rs] for tree, rs in runs.items()},
            })

    report = {
        "what": "window-mode and local-mode varadhan, expand, iq, dims "
                "and closed at cap scale: raw wall time and peak RSS per "
                "fresh interpreter, medians over repeats",
        "baseline": args.baseline,
        "repeats": REPEATS,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "cases": results,
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
