import argparse
import contextlib
import io
import json
import random
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import colocal as cl
from colocal import jsonio
from colocal.cli import main
from colocal.scalars import parse_scalar
from conftest import three_state_d2_stencil_not_closed

EXCLUSION = {"states": [0, 1], "base": 0,
             "phi": [[[0, 1], [1, 0]], [[1, 0], [0, 1]]]}
HALF = ["1/2", "1/2"]


def run(tmp_path, name, payload, *extra):
    src = tmp_path / f"{name}.json"
    out = tmp_path / f"{name}.out.json"
    src.write_text(json.dumps(payload))
    # a run that writes nothing must not return an earlier run's report
    out.unlink(missing_ok=True)
    code = main([name, "--input", str(src), "--output", str(out), *extra])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def test_conserved(tmp_path):
    code, report = run(tmp_path, "conserved",
                       {"interaction": EXCLUSION, "nu": HALF})
    assert code == 0 and report["ok"]
    assert report["result"]["dimension"] == 1
    assert report["result"]["basis"] == [["-1/2", "1/2"]]
    assert report["schema_version"] == "1"


def test_iq(tmp_path):
    payload = {"interaction": EXCLUSION, "nu": HALF,
               "locales": [{"sites": [0, 1], "edges": [[0, 1], [1, 0]]},
                           {"lattice": {"dim": 1, "radius": 1}}]}
    code, report = run(tmp_path, "iq", payload)
    assert code == 0 and report["result"]["ok"]


def test_iq_identity_fails(tmp_path):
    payload = {"interaction": {"states": [0, 1], "base": 0, "phi": []},
               "nu": HALF,
               "locales": [{"sites": [0, 1], "edges": [[0, 1], [1, 0]]}]}
    code, report = run(tmp_path, "iq", payload)
    assert code == 0 and not report["result"]["ok"]
    assert report["result"]["results"][0]["witnesses"]


def test_expand(tmp_path):
    payload = {"interaction": EXCLUSION, "nu": HALF,
               "locale": {"sites": [0, 1], "edges": [[0, 1], [1, 0]]},
               "fn": {"siteset": [0, 1],
                      "values": ["0", "0", "0", "1"]}}
    code, report = run(tmp_path, "expand", payload)
    assert code == 0
    result = report["result"]
    assert result["uniform_radius"] == 1
    assert result["components"]["3"]["values"] == ["1/4", "-1/4", "-1/4", "1/4"]


# -- expand: the report is written one component at a time -----------------

def path_payload(sites, n, nu, values, mode):
    """An expand input on a path through ``sites`` (swap moves), ``nu`` and
    the table ``values`` written as exact strings, or as JSON floats."""
    def scalar(x):
        return (float(x) if mode == "float"
                else f"{x.numerator}/{x.denominator}")
    edges = [[a, b] for a, b in zip(sites, sites[1:])]
    phi = [[[a, b], [b, a]] for a in range(n) for b in range(n) if a != b]
    return {"interaction": {"states": list(range(n)), "base": 0, "phi": phi},
            "nu": [scalar(w) for w in nu],
            "locale": {"sites": sites,
                       "edges": edges + [[b, a] for a, b in edges]},
            "fn": {"siteset": sites, "values": [scalar(v) for v in values]}}


def eager_expand_report(sites, n, nu, values, mode):
    """The expand envelope built whole, as ``json.dumps`` takes it: every
    component's values through ``format_scalar`` of its Fractions, and the
    radius as the largest ``site_diameter`` of a nonzero component."""
    siteset = cl.siteset(sites)
    expansion = cl.expand_martingale(cl.FnTable(siteset, n, values),
                                     cl.state_measure(nu))
    locale = jsonio.locale_from_json(path_payload(sites, n, nu, values,
                                                  mode)["locale"])
    components, radius = {}, 0
    for sub, table in expansion.components.items():
        mask = sum(1 << siteset.position(s) for s in sub)
        components[str(mask)] = {
            "subset": list(sub),
            "values": [jsonio.format_scalar(v, mode) for v in table.values]}
        if sub and not table.is_zero():
            radius = max(radius, cl.site_diameter(cl.siteset(sub), locale))
    return {"ok": True, "schema_version": "1", "subcommand": "expand",
            "result": {"components": components, "uniform_radius": radius}}


def expand_stdout(payload, mode) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "in.json"
        src.write_text(json.dumps(payload))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["expand", "--input", str(src), "--mode", mode]) == 0
    return out.getvalue()


@st.composite
def expand_cases(draw):
    """(sites, n, nu, values): 2 or 3 states on 1 to 6 sites that need not
    be contiguous; the table is a sum of seeded terms on one or two sites
    plus a constant, so that components vanish and the radius varies, and
    its entries repeat."""
    n = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(1, 6))
    sites = sorted(draw(st.lists(st.integers(-6, 9), unique=True,
                                 min_size=k, max_size=k)))
    raw = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    nu = [Fraction(r, sum(raw)) for r in raw]
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    siteset = cl.siteset(sites)
    f = cl.fn_constant(siteset, n, Fraction(rng.randint(-3, 3), 2))
    for _ in range(draw(st.integers(0, 3))):
        part = cl.siteset(sorted(rng.sample(sites, min(k, rng.randint(1, 2)))))
        term = cl.FnTable(part, n, [Fraction(rng.randint(-4, 4),
                                             rng.randint(1, 3))
                                    for _ in range(n ** len(part))])
        f = f + term.embed(siteset)
    return sites, n, nu, f.values


def seeded_case(n, k, seed):
    """A full table of repeating seeded entries on sites 0, 2, ..., 2k-2."""
    rng = random.Random(seed)
    raw = [rng.randint(1, 5) for _ in range(n)]
    return ([2 * s for s in range(k)], n,
            [Fraction(r, sum(raw)) for r in raw],
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
             for _ in range(n ** k)])


@settings(max_examples=60)
@example(seeded_case(2, 6, 1), "exact")
@example(seeded_case(3, 6, 2), "float")
@example(seeded_case(3, 5, 3), "exact")
@given(expand_cases(), st.sampled_from(["exact", "float"]))
def test_expand_bytes_equal_the_eager_report(case, mode):
    """The components go to the writer as a lazily built mapping, formatted
    through one text map per report; the bytes are those of the whole
    report built first and dumped by ``json.dumps``."""
    sites, n, nu, values = case
    eager = eager_expand_report(sites, n, nu, values, mode)
    text = expand_stdout(path_payload(sites, n, nu, values, mode), mode)
    assert text == json.dumps(eager, sort_keys=True, indent=2) + "\n"


def test_expand_reports_of_two_denominators_share_no_text():
    """The same numerators over two denominators (one table, two measures)
    read as their own values in each report."""
    sites, values = [0, 1], [Fraction(v) for v in (0, 1, 2, 3)]
    for nu in ([Fraction(1, 2)] * 2, [Fraction(1, 3), Fraction(2, 3)],
               [Fraction(1, 2)] * 2):
        eager = eager_expand_report(sites, 2, nu, values, "exact")
        text = expand_stdout(path_payload(sites, 2, nu, values, "exact"),
                             "exact")
        assert text == json.dumps(eager, sort_keys=True, indent=2) + "\n"


def test_expand_locale_error_writes_only_the_error_envelope(tmp_path):
    """uniform_radius runs before the first byte: a NotSubset locale writes
    the error envelope and no component."""
    payload = {"interaction": EXCLUSION, "nu": HALF,
               "locale": {"sites": [0, 1], "edges": [[0, 1], [1, 0]]},
               "fn": {"siteset": [0, 1, 7], "values": ["1/3"] * 8}}
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(json.dumps(payload))
    assert main(["expand", "--input", str(src), "--output", str(out)]) == 1
    envelope = {"ok": False, "schema_version": "1", "subcommand": "expand",
                "error": {"name": "NotSubset",
                          "message": "expansion sites are not all in the "
                                     "locale",
                          "details": {"outside": [7]}}}
    text = out.read_text()
    assert text == json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    assert "components" not in text


def test_expand_float_overflow_raises_before_any_output(tmp_path):
    """A component out of the float range raises OverflowError (as the
    whole report built first did) before the output file is opened."""
    payload = {"interaction": EXCLUSION, "nu": [0.5, 0.5],
               "locale": {"sites": [0, 1], "edges": [[0, 1], [1, 0]]},
               "fn": {"siteset": [0, 1],
                      "values": ["0", "0", "0", str(10 ** 400)]}}
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(json.dumps(payload))
    with pytest.raises(OverflowError):
        main(["expand", "--input", str(src), "--output", str(out),
              "--mode", "float"])
    assert not out.exists()


def test_expand_cap_error(tmp_path):
    payload = {"interaction": EXCLUSION, "nu": HALF,
               "locale": {"sites": [0, 1, 2, 3, 4],
                          "edges": [[i, i + 1] for i in range(4)] +
                                   [[i + 1, i] for i in range(4)]},
               "fn": {"siteset": [0, 1, 2, 3, 4], "values": ["1"] * 32}}
    code, report = run(tmp_path, "expand", payload, "--subset-cap", "4")
    assert code == 1
    assert report["ok"] is False
    assert report["error"]["name"] == "TooManySubsets"


def test_project_fn(tmp_path):
    payload = {"interaction": EXCLUSION,
               "measure": {"kind": "product", "nu": HALF},
               "target": [0],
               "fn": {"siteset": [0, 1], "values": ["0", "0", "0", "1"]}}
    code, report = run(tmp_path, "project", payload)
    assert code == 0
    assert report["result"]["fn"]["values"] == ["0/1", "1/2"]


def test_closed_success_and_witness(tmp_path):
    form = {"siteset": [0, 1],
            "edges": [{"edge": [0, 1], "values": ["0", "-1", "1", "0"]}]}
    payload = {"interaction": EXCLUSION,
               "measure": {"kind": "product", "nu": HALF},
               "locale": {"sites": [0, 1], "edges": [[0, 1], [1, 0]]},
               "form": form}
    code, report = run(tmp_path, "closed", payload)
    assert code == 0 and "potential" in report["result"]

    # the triangle cycle form is rejected with a witness
    tri_edges = [[0, 1], [1, 0], [1, 2], [2, 1], [0, 2], [2, 0]]
    values = {(0, 1): {1: "1", 2: "-1"},
              (1, 2): {2: "1", 4: "-1"},
              (0, 2): {4: "1", 1: "-1"}}
    form_entries = []
    for edge, spots in values.items():
        table = ["0"] * 8
        for idx, v in spots.items():
            table[idx] = v
        form_entries.append({"edge": list(edge), "values": table})
    payload = {"interaction": EXCLUSION,
               "measure": {"kind": "product", "nu": HALF},
               "locale": {"sites": [0, 1, 2], "edges": tri_edges},
               "form": {"siteset": [0, 1, 2], "edges": form_entries}}
    src = tmp_path / "closed_bad.json"
    out = tmp_path / "closed_bad.out.json"
    src.write_text(json.dumps(payload))
    code = main(["closed", "--input", str(src), "--output", str(out)])
    report = json.loads(out.read_text())
    assert code == 1
    assert report["error"]["name"] == "NotClosed"
    assert report["error"]["integral"] in ("3/1", "-3/1")
    assert len(report["error"]["witness"]["edges"]) == 3


def test_closed_rejects_non_reversible_phi(tmp_path):
    # phi sends (0, 1) to (1, 1), which phi fixes: nothing leads back
    payload = {"interaction": {"states": [0, 1], "base": 0,
                               "phi": [[[0, 1], [1, 1]]]},
               "form": {"siteset": [0, 1],
                        "edges": [{"edge": [0, 1],
                                   "values": ["0", "0", "1", "0"]}]}}
    code, report = run(tmp_path, "closed", payload)
    assert code == 1 and report["ok"] is False
    assert report["error"]["name"] == "NotReversible"
    assert report["error"]["details"] == {"pairs": [[0, 1]],
                                          "returns_to": [[1, 1]]}


def test_dims(tmp_path):
    payload = {"interaction": EXCLUSION, "nu": HALF,
               "locale": {"sites": [0, 1], "edges": [[0, 1], [1, 0]]}}
    code, report = run(tmp_path, "dims", payload)
    assert code == 0
    result = report["result"]
    assert result["components"] == 3
    assert result["dim_Z1"] == 1
    assert result["dim_Z1_bruteforce"] == 1


def path_locale(n_sites):
    sites = list(range(n_sites))
    return {"sites": sites,
            "edges": [[a, a + 1] for a in sites[:-1]]
            + [[a + 1, a] for a in sites[:-1]]}


def test_dims_on_a_14_site_path(tmp_path):
    """2^14 configurations; one component per particle count."""
    payload = {"interaction": EXCLUSION, "nu": HALF,
               "locale": path_locale(14)}
    code, report = run(tmp_path, "dims", payload)
    assert code == 0
    assert report["result"] == {
        "components": 15, "dim_C0": 16383, "dim_ker": 15,
        "dim_ker_meanzero": 14, "dim_Z1": 16369,
        "dim_Z1_bruteforce": 16369}


@pytest.mark.parametrize("radius, size", [(10, 2 ** 21),
                                          (10000, "2^20001")],
                         ids=["printable", "too-long-to-print"])
def test_dims_over_the_state_cap_is_space_too_large(tmp_path, capsys,
                                                    radius, size):
    """A configuration count over the cap exits 1 with SpaceTooLarge.  A
    count with more digits than Python converts to text is written n^k,
    in the message and as the size detail; the others print as before."""
    n_sites = 2 * radius + 1
    payload = {"interaction": EXCLUSION, "nu": HALF,
               "locale": {"lattice": {"dim": 1, "radius": radius}}}
    code, report = run(tmp_path, "dims", payload)
    assert code == 1 and report["ok"] is False
    assert capsys.readouterr().err == ""
    assert report["error"] == {
        "name": "SpaceTooLarge",
        "message": f"S^Lambda with |Lambda|={n_sites} has {size} "
                   "configurations (cap 1048576)",
        "details": {"size": size, "cap": 1048576}}


def test_varadhan_without_room_for_a_closedness_solve(tmp_path, capsys):
    """Local mode reads the cocycle off its closedness solve: a three-state
    d=2 stencil, outside the local-cycle gate, whose radius-1 box (3^9
    configurations) exceeds ``--state-cap`` exits 1 with SpaceTooLarge."""
    spec, _ = three_state_d2_stencil_not_closed()
    payload = {"interaction": {"states": [0, 1, 2], "base": 0,
                               "phi": [[[a, b], [b, a]] for a in range(3)
                                       for b in range(3) if a != b]},
               "nu": ["1/3"] * 3, "dim": 2,
               "window": {"lattice": {"dim": 2, "radius": 2}},
               "stencil": jsonio.invariant_spec_to_json(spec)}
    code, report = run(tmp_path, "varadhan", payload, "--state-cap", "6561")
    assert code == 1 and report["ok"] is False
    assert capsys.readouterr().err == ""
    assert report["error"] == {
        "name": "SpaceTooLarge",
        "message": "closedness box of radius 1 has 19683 configurations "
                   "(cap 6561)",
        "details": {"size": 19683, "cap": 6561}}


@pytest.mark.parametrize("lattice", [{"dim": 1, "radius": 2},
                                     {"dim": 1, "sizes": [5]}],
                         ids=["window", "torus"])
def test_a_lattice_locale_must_list_its_charts_sites_and_edges(
        tmp_path, capsys, lattice):
    """Stencils and windows are placed by the chart's index arithmetic, so
    explicit sites and edges beside a lattice entry must be the chart's.
    The chart's own are read as before; a three-site path labelled with a
    five-site chart is a usage error."""
    chart = jsonio.locale_to_json(jsonio.locale_from_json(
        {"lattice": lattice}))
    code, report = run(tmp_path, "dims", {"interaction": EXCLUSION,
                                          "nu": HALF, "locale": chart})
    assert code == 0 and report["result"]["components"] == 6
    path = {**path_locale(3), "lattice": lattice}
    code, report = run(tmp_path, "dims", {"interaction": EXCLUSION,
                                          "nu": HALF, "locale": path})
    kind = "window" if "radius" in lattice else "torus"
    assert code == 2 and report is None
    assert capsys.readouterr().err == (
        "usage error: malformed input: ValueError('locale sites and edges "
        f"are not those of its {kind} chart')\n")


def test_dims_builds_one_transition_graph(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return cl.transition_graph(*args, **kwargs)

    # a graph built inside forms (kernel_basis, closed_form_space_dimension)
    # counts too
    monkeypatch.setattr("colocal.cli.transition_graph", counted,
                        raising=False)
    monkeypatch.setattr("colocal.forms.transition_graph", counted)
    payload = {"interaction": EXCLUSION, "nu": HALF, "locale": path_locale(4)}
    code, report = run(tmp_path, "dims", payload)
    assert code == 0 and report["result"]["components"] == 5
    assert len(calls) == 1


def test_varadhan_round_trip(tmp_path):
    payload = {"interaction": EXCLUSION, "nu": HALF, "dim": 1,
               "window": {"lattice": {"dim": 1, "radius": 4}},
               "margin": 2, "cocycle": [["1"]]}
    code, report = run(tmp_path, "varadhan", payload)
    assert code == 0
    result = report["result"]
    assert result["cocycle"]["generators"] == [["1/1"]]
    assert result["checks"]["residual_interior_zero"] is True


def test_an_inconsistent_stencil_is_not_invariant_with_a_cocycle(tmp_path):
    """The ``varadhan-window`` golden input with a template edge whose table
    disagrees with the translated anchor exits 1 with the same NotInvariant
    with and without the cocycle added to the stencil."""
    payload = json.loads((GOLDEN / "varadhan-window.json").read_text())
    payload["stencil"]["form"]["edges"].append(
        {"edge": [-1, 0], "support": [-1, 0], "values": ["0"] * 9})
    alone = {k: v for k, v in payload.items() if k != "cocycle"}
    for case in (payload, alone):
        code, report = run(tmp_path, "varadhan", case)
        assert code == 1
        assert report["error"] == {
            "name": "NotInvariant",
            "message": "template form is not translation-consistent",
            "details": {"edges": [[-1, 0]]}}


def test_martingale(tmp_path):
    payload = {"interaction": EXCLUSION, "nu": HALF,
               "fn": {"siteset": [0, 1], "values": ["0", "0", "0", "1"]},
               "chain": [[0], [0, 1]]}
    code, report = run(tmp_path, "martingale", payload)
    assert code == 0
    assert report["result"]["norms_sq"] == ["1/8", "1/4"]
    assert report["result"]["gaps_sq"] == ["1/8"]


def test_determinism_byte_identical(tmp_path):
    payload = {"interaction": EXCLUSION, "nu": HALF, "dim": 1,
               "window": {"lattice": {"dim": 1, "radius": 3}},
               "cocycle": [["1"]]}
    src = tmp_path / "det.json"
    src.write_text(json.dumps(payload))
    outs = []
    for k in range(2):
        out = tmp_path / f"det{k}.json"
        assert main(["varadhan", "--input", str(src),
                     "--output", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_usage_errors(tmp_path):
    missing = tmp_path / "missing.json"
    assert main(["conserved", "--input", str(missing)]) == 2
    src = tmp_path / "bad_tol.json"
    src.write_text(json.dumps({"interaction": EXCLUSION, "nu": HALF}))
    assert main(["conserved", "--input", str(src), "--tolerance", "1e-6"]) == 2
    src2 = tmp_path / "malformed.json"
    src2.write_text("{")
    assert main(["conserved", "--input", str(src2)]) == 2
    src3 = tmp_path / "incomplete.json"
    src3.write_text(json.dumps({"nu": HALF}))
    assert main(["conserved", "--input", str(src3)]) == 2


PAIR = {"sites": [0, 1], "edges": [[0, 1], [1, 0]]}
TABLE = {"siteset": [0, 1], "values": ["0", "0", "0", "1"]}
NEEDS_NU = {
    "conserved": {},
    "iq": {"locales": [PAIR]},
    "dims": {"locale": PAIR},
    "varadhan": {"dim": 1, "window": {"lattice": {"dim": 1, "radius": 4}},
                 "cocycle": [["1"]]},
    "martingale": {"fn": TABLE, "chain": [[0], [0, 1]]},
    "expand": {"locale": PAIR, "fn": TABLE},
}


@pytest.mark.parametrize("subcommand", sorted(NEEDS_NU))
def test_missing_nu_is_a_usage_error(tmp_path, capsys, subcommand):
    payload = {"interaction": EXCLUSION, **NEEDS_NU[subcommand]}
    code, report = run(tmp_path, subcommand, payload)
    assert code == 2 and report is None
    assert "malformed input: KeyError('nu')" in capsys.readouterr().err
    # the same input with nu runs
    code, report = run(tmp_path, subcommand, {**payload, "nu": HALF})
    assert code == 0 and report["ok"]


def test_zero_denominators_are_usage_errors(tmp_path, capsys):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_scalar("1/0")
    runs = [("conserved", {"interaction": EXCLUSION, "nu": ["1/0", "1/2"]}),
            ("expand", {"interaction": EXCLUSION, "nu": HALF, "locale": PAIR,
                        "fn": {**TABLE, "values": ["0", "-3/0", "0", "1"]}}),
            ("varadhan", {"interaction": EXCLUSION, "nu": HALF,
                          **NEEDS_NU["varadhan"], "cocycle": [["2/0"]]})]
    for subcommand, payload in runs:
        code, report = run(tmp_path, subcommand, payload)
        assert code == 2 and report is None
        assert "zero denominator" in capsys.readouterr().err


def test_unknown_flag_returns_usage_code(tmp_path, capsys):
    src = tmp_path / "ok.json"
    src.write_text(json.dumps({"interaction": EXCLUSION, "nu": HALF}))
    assert main(["conserved", "--input", str(src), "--bogus", "1"]) == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err


def test_non_finite_numbers_are_usage_errors(tmp_path):
    fn = {"siteset": [0, 1], "values": ["NaN", 1.0, "Infinity", 0.0]}
    locale = {"sites": [0, 1], "edges": [[0, 1], [1, 0]]}
    src = tmp_path / "nan.json"
    # json.dumps would quote the constants; write them as bare JSON words
    src.write_text(json.dumps({"interaction": EXCLUSION, "nu": [0.5, 0.5],
                               "locale": locale, "fn": fn})
                   .replace('"NaN"', "NaN").replace('"Infinity"', "Infinity"))
    assert main(["expand", "--input", str(src), "--mode", "float"]) == 2
    fn["values"] = [1e999, 1.0, 0.5, 0.0]   # overflows to inf when read
    code, report = run(tmp_path, "expand", {"interaction": EXCLUSION,
                                            "nu": [0.5, 0.5],
                                            "locale": locale, "fn": fn},
                       "--mode", "float")
    assert code == 2 and report is None


def test_float_mode(tmp_path):
    payload = {"interaction": EXCLUSION, "nu": [0.5, 0.5]}
    src = tmp_path / "float.json"
    out = tmp_path / "float.out.json"
    src.write_text(json.dumps(payload))
    assert main(["conserved", "--input", str(src), "--output", str(out),
                 "--mode", "float"]) == 0
    report = json.loads(out.read_text())
    assert report["result"]["dimension"] == 1


def test_float_mode_measure_sums(tmp_path):
    # 0.6 and 0.4 read as 3/5 and 2/5: their sum is exactly 1, kept
    code, report = run(tmp_path, "conserved",
                       {"interaction": EXCLUSION, "nu": [0.6, 0.4]},
                       "--mode", "float")
    assert code == 0 and report["result"]["basis"] == [[-0.4, 0.6]]
    # equal weights 0.4999999999 sum to within FLOAT_TOLERANCE of 1:
    # normalised exactly to (1/2, 1/2)
    code, report = run(tmp_path, "conserved",
                       {"interaction": EXCLUSION,
                        "nu": [0.4999999999, 0.4999999999]},
                       "--mode", "float")
    assert code == 0 and report["result"]["basis"] == [[-0.5, 0.5]]
    window = jsonio.measure_from_json(
        {"kind": "window", "siteset": [0, 1], "weights": [0.2499999999] * 4},
        cl.exclusion_interaction(), "float")
    assert window.weights == (Fraction(1, 4),) * 4
    # a sum farther from 1 is a usage error
    code, report = run(tmp_path, "conserved",
                       {"interaction": EXCLUSION, "nu": [0.5, 0.4]},
                       "--mode", "float")
    assert code == 2 and report is None



# a seeded cocycle plus the stencil of a random-core potential, d=1, r=4
STENCIL_R4 = {
    "interaction": EXCLUSION, "nu": ["2/5", "3/5"], "dim": 1,
    "window": {"lattice": {"dim": 1, "radius": 4}},
    "cocycle": [["-2/3"]],
    "stencil": {"template": {"lattice": {"dim": 1, "radius": 2}},
                "form": {"siteset": [-2, -1, 0, 1, 2], "edges": [
                    {"edge": [0, 1], "support": [-1, 0, 1, 2],
                     "values": ["0", "0", "0", "-11/6", "0", "11/6", "0",
                                "0", "0", "0", "11/6", "0", "-11/6", "0",
                                "0", "0"]}]}}}


def floated(value):
    """A report with every "p/q" string replaced by its float: what float
    mode must print for the same exact results."""
    if isinstance(value, dict):
        return {k: floated(v) for k, v in value.items()}
    if isinstance(value, list):
        return [floated(v) for v in value]
    if isinstance(value, str) and re.fullmatch(r"-?\d+/\d+", value):
        return float(Fraction(value))
    return value


def exact_strings(value):
    """Every "p/q" string anywhere in a JSON value."""
    if isinstance(value, dict):
        return [s for v in value.values() for s in exact_strings(v)]
    if isinstance(value, list):
        return [s for v in value for s in exact_strings(v)]
    if isinstance(value, str) and re.fullmatch(r"-?\d+/\d+", value):
        return [value]
    return []


def test_varadhan_float_mode_recovers_cocycle(tmp_path):
    code, report = run(tmp_path, "varadhan", STENCIL_R4, "--mode", "float")
    assert code == 0 and report["ok"]
    result = report["result"]
    assert result["mode"] == "window"
    assert result["cocycle"]["generators"] == [[-2 / 3]]
    exact_code, exact = run(tmp_path, "varadhan", STENCIL_R4)
    assert exact_code == 0
    assert exact["result"]["cocycle"]["generators"] == [["-2/3"]]
    assert result["checks"] == exact["result"]["checks"]


def test_varadhan_float_mode_prints_the_exact_results(tmp_path):
    """Same edges, supports and value counts as exact mode (the residual
    tables are minimized exactly: 16 values per edge, not one per window
    configuration), and every number is float() of the exact one."""
    code, report = run(tmp_path, "varadhan", STENCIL_R4, "--mode", "float")
    exact_code, exact = run(tmp_path, "varadhan", STENCIL_R4)
    assert code == exact_code == 0
    assert [len(e["values"]) for e in
            report["result"]["residual_interior_edges"]] == [16] * 4
    assert report == floated(exact)


def test_closed_float_mode_matches_exact_mode(tmp_path):
    """A three-state form that is closed over the rationals but not in
    floating point: the differential of a potential of size about 10^8
    with sevenths, where float rounding leaves errors above 10^-9."""
    three = cl.make_interaction((0, 1, 2), 0, {
        (a, b): (b, a) for a in range(3) for b in range(3) if a != b})
    sites = cl.siteset([0, 1, 2])
    locale = cl.build_locale([0, 1, 2], [(0, 1), (1, 0), (1, 2), (2, 1)])
    potential = cl.FnTable(sites, 3, tuple(
        Fraction(123456789 * (k % 5) + k * k, 7) for k in range(27)))
    form = cl.differential(potential, three, locale)
    payload = {"interaction": {"states": [0, 1, 2], "base": 0,
                               "phi": [[[a, b], [b, a]] for a in range(3)
                                       for b in range(3) if a != b]},
               "form": {"siteset": [0, 1, 2],
                        "edges": [{"edge": list(e),
                                   "support": list(form.tables[e].sites),
                                   "values": [float(v) for v in
                                              form.tables[e].values]}
                                  for e in form.edges]}}
    code, report = run(tmp_path, "closed", payload, "--mode", "float")
    assert code == 0
    exact_payload = json.loads(json.dumps(payload))
    for entry, e in zip(exact_payload["form"]["edges"], form.edges):
        entry["values"] = [str(v) for v in form.tables[e].values]
    exact_code, exact = run(tmp_path, "closed", exact_payload)
    assert exact_code == 0 and report == floated(exact)


def test_float_mode_emits_floats_only(tmp_path):
    # a potential without a measure keeps its roots at zero
    form = {"siteset": [0, 1],
            "edges": [{"edge": [0, 1], "values": ["0", "-1", "1", "0"]}]}
    code, report = run(tmp_path, "closed",
                       {"interaction": EXCLUSION, "form": form}, "--mode",
                       "float")
    assert code == 0 and 0.0 in report["result"]["potential"]["values"]
    assert exact_strings(report) == []


def test_varadhan_float_mode_emits_floats_only(tmp_path):
    cocycle_only = {"interaction": EXCLUSION, "nu": HALF, "dim": 1,
                    "window": {"lattice": {"dim": 1, "radius": 3}},
                    "cocycle": [["1"]]}
    for payload in (cocycle_only, STENCIL_R4):
        code, report = run(tmp_path, "varadhan", payload, "--mode", "float")
        assert code == 0
        assert report["result"]["residual_interior_edges"]
        assert exact_strings(report) == []


# ---------------------------------------------------------------------------
# the command-line contract: help, flags and usage exit codes
# ---------------------------------------------------------------------------

def test_help_names_every_subcommand(capsys):
    assert main(["--help"]) == 0
    page = capsys.readouterr().out
    for name in ("conserved", "iq", "expand", "project", "closed", "dims",
                 "varadhan", "martingale"):
        assert name in page


@pytest.mark.parametrize("argv", [
    [],
    ["bogus", "--input", "{src}"],
    ["conserved", "--input", "{src}", "--state-cap", "0"],
    ["conserved", "--input", "{src}", "--subset-cap", "-1"],
    ["conserved", "--input", "{src}", "--state-cap", "x"],
    ["conserved", "--input", "{src}", "--bogus"],
    ["conserved", "--input", "{src}", "--tolerance", "1e-6"],
    ["conserved"],
], ids=["no-subcommand", "unknown-subcommand", "state-cap-0",
        "subset-cap-negative", "state-cap-not-int", "unknown-flag",
        "tolerance", "missing-input"])
def test_usage_exit_codes(tmp_path, argv):
    src = tmp_path / "ok.json"
    src.write_text(json.dumps({"interaction": EXCLUSION, "nu": HALF}))
    assert main([a.format(src=src) for a in argv]) == 2


def test_flags_may_precede_the_subcommand(tmp_path):
    src = tmp_path / "ok.json"
    src.write_text(json.dumps({"interaction": EXCLUSION, "nu": HALF}))
    out = tmp_path / "out.json"
    assert main(["--input", str(src), "--output", str(out), "conserved"]) == 0
    assert json.loads(out.read_text())["result"]["dimension"] == 1


def test_main_builds_no_parser(tmp_path, monkeypatch):
    src = tmp_path / "ok.json"
    src.write_text(json.dumps({"interaction": EXCLUSION, "nu": HALF}))
    out = tmp_path / "out.json"

    def refuse(*args, **kwargs):
        raise AssertionError("a parser was built per call")
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert main(["conserved", "--input", str(src), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["ok"]


# ---------------------------------------------------------------------------
# malformed inputs the library used to accept or to crash on
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nu", [["1/1"], ["1/3", "1/3", "1/3"]],
                         ids=["one-weight", "three-weights"])
@pytest.mark.parametrize("subcommand", sorted(NEEDS_NU))
def test_nu_of_the_wrong_length_is_a_usage_error(tmp_path, capsys,
                                                 subcommand, nu):
    payload = {"interaction": EXCLUSION, "nu": nu, **NEEDS_NU[subcommand]}
    code, report = run(tmp_path, subcommand, payload)
    assert code == 2 and report is None
    assert "weights for 2 states" in capsys.readouterr().err


@pytest.mark.parametrize("nu", [["1/1"], ["1/3", "1/3", "1/3"]],
                         ids=["one-weight", "three-weights"])
def test_product_measure_of_the_wrong_length_is_a_usage_error(tmp_path, nu):
    measure = {"kind": "product", "nu": nu}
    form = {"siteset": [0, 1],
            "edges": [{"edge": [0, 1], "values": ["0", "-1", "1", "0"]}]}
    for subcommand, payload in [
            ("project", {"interaction": EXCLUSION, "measure": measure,
                         "target": [0], "fn": TABLE}),
            ("closed", {"interaction": EXCLUSION, "measure": measure,
                        "form": form})]:
        code, report = run(tmp_path, subcommand, payload)
        assert code == 2 and report is None


def test_unknown_measure_kind_is_a_usage_error(tmp_path, capsys):
    payload = {"interaction": EXCLUSION, "target": [0], "fn": TABLE,
               "measure": {"kind": "bogus", "siteset": [0, 1],
                           "weights": ["1/4"] * 4}}
    code, report = run(tmp_path, "project", payload)
    assert code == 2 and report is None
    assert "unknown measure kind 'bogus'" in capsys.readouterr().err
    # the same measure declared as a window measure projects
    payload["measure"]["kind"] = "window"
    code, report = run(tmp_path, "project", payload)
    assert code == 0 and report["ok"]


def stencil_r4_with(part, **lattice):
    """STENCIL_R4 with entries of the lattice of its ``part`` ("window" or
    "template") replaced."""
    payload = json.loads(json.dumps(STENCIL_R4))
    locale = (payload["window"] if part == "window"
              else payload["stencil"]["template"])
    locale["lattice"].update(lattice)
    return payload


@pytest.mark.parametrize("subcommand, payload, message", [
    ("closed", {"interaction": EXCLUSION,
                "form": {"siteset": [0, 1],
                         "edges": [{"edge": [0], "values": ["0"] * 4}]}},
     "form edge [0] is not a list of two sites"),
    ("dims", {"interaction": EXCLUSION, "nu": HALF, "locale": 5},
     "locale must be an object, got 5"),
    ("dims", {"interaction": EXCLUSION, "nu": HALF,
              "locale": {"lattice": [1, 1]}},
     "lattice must be an object, got [1, 1]"),
    ("project", {"interaction": EXCLUSION, "target": [0], "fn": TABLE,
                 "measure": HALF},
     "measure must be an object, got ['1/2', '1/2']"),
    # at the parent an AttributeError traceback from InvariantFormSpec._combine
    ("varadhan", stencil_r4_with("template", radius=True),
     "lattice radius must be an int, got True"),
    # at the parent accepted, exit 0
    ("varadhan", stencil_r4_with("window", dim=True),
     "lattice dim must be an int, got True"),
    # at the parent a TypeError that names no field
    ("varadhan", stencil_r4_with("window", radius="3"),
     "lattice radius must be an int, got '3'"),
    ("dims", {"interaction": EXCLUSION, "nu": HALF,
              "locale": {"lattice": {"dim": 1, "sizes": [4.0]}}},
     "lattice sizes entry must be an int, got 4.0"),
    # at the parent each character a site: NotConnected (missing "b")
    ("iq", {"interaction": EXCLUSION, "nu": HALF,
            "locales": [{"sites": "ab", "edges": []}]},
     "locale sites must be a list of ints, got 'ab'"),
    # at the parent a raw TypeError("'int' object is not iterable")
    ("dims", {"interaction": EXCLUSION, "nu": HALF,
              "locale": {"sites": [0, 1], "edges": [5]}},
     "locale edges must be a list of lists of ints, got [5]"),
    ("dims", {"interaction": EXCLUSION, "nu": HALF,
              "locale": {"sites": [0, 1], "edges": 5}},
     "locale edges must be a list of lists of ints, got 5"),
    # at the parent NotSubset (outside ["x"])
    ("dims", {"interaction": EXCLUSION, "nu": HALF, "locale": PAIR,
              "siteset": "x"},
     "siteset must be a list of ints, got 'x'"),
    # at the parent accepted as site 1, exit 0
    ("dims", {"interaction": EXCLUSION, "nu": HALF, "locale": PAIR,
              "siteset": [True]},
     "siteset must be a list of ints, got [True]"),
    ("expand", {"interaction": EXCLUSION, "nu": HALF, "locale": PAIR,
                "fn": {"siteset": "01", "values": ["0"] * 4}},
     "fn siteset must be a list of ints, got '01'"),
    ("closed", {"interaction": EXCLUSION,
                "form": {"siteset": [False, True],
                         "edges": [{"edge": [0, 1],
                                    "values": ["0", "1", "-1", "0"]}]}},
     "form siteset must be a list of ints, got [False, True]"),
    ("closed", {"interaction": EXCLUSION,
                "form": {"siteset": [0, 1],
                         "edges": [{"edge": [0, 1], "support": "01",
                                    "values": ["0", "1", "-1", "0"]}]}},
     "form edge support must be a list of ints, got '01'"),
    ("project", {"interaction": EXCLUSION, "target": [False], "fn": TABLE,
                 "measure": {"nu": HALF}},
     "target must be a list of ints, got [False]"),
    ("martingale", {"interaction": EXCLUSION, "nu": HALF, "fn": TABLE,
                    "chain": ["0", [0, 1]]},
     "chain must be a list of lists of ints, got ['0', [0, 1]]"),
], ids=["one-site-form-edge", "number-locale", "list-lattice",
        "list-measure", "bool-template-radius", "bool-window-dim",
        "string-window-radius", "float-torus-size", "string-locale-sites",
        "int-locale-edge", "number-locale-edges", "string-siteset",
        "bool-siteset", "string-fn-siteset", "bool-form-siteset",
        "string-form-support", "bool-target", "string-chain-entry"])
def test_malformed_fields_are_usage_errors(tmp_path, capsys, subcommand,
                                           payload, message):
    """A field of the wrong JSON shape exits 2 with a message naming it,
    not with a traceback from inside the library."""
    code, report = run(tmp_path, subcommand, payload)
    assert code == 2 and report is None
    assert f"malformed input: ValueError({message!r})" in \
        capsys.readouterr().err


BOX2 = {"lattice": {"dim": 2, "radius": 1}}


@pytest.mark.parametrize("dim, window, cocycle", [
    (2, BOX2, [["1"]]),
    (1, NEEDS_NU["varadhan"]["window"], []),
    (1, NEEDS_NU["varadhan"]["window"], [["1"], ["1"]]),
], ids=["one-row-for-dim-2", "no-row-for-dim-1", "two-rows-for-dim-1"])
def test_cocycle_rows_must_match_dim(tmp_path, capsys, dim, window, cocycle):
    payload = {"interaction": EXCLUSION, "nu": HALF, "dim": dim,
               "window": window, "margin": 0, "cocycle": cocycle}
    code, report = run(tmp_path, "varadhan", payload)
    assert code == 2 and report is None
    assert f"expected {dim}" in capsys.readouterr().err


def test_expand_siteset_outside_the_locale_is_not_subset(tmp_path):
    payload = {"interaction": EXCLUSION, "nu": HALF, "locale": PAIR,
               "fn": {"siteset": [0, 7], "values": ["0", "0", "0", "1"]}}
    code, report = run(tmp_path, "expand", payload)
    assert code == 1 and report["ok"] is False
    assert report["error"]["name"] == "NotSubset"


def test_dims_siteset_outside_the_locale_is_not_subset(tmp_path):
    payload = {"interaction": EXCLUSION, "nu": HALF, "locale": PAIR,
               "siteset": [0, 1, 5]}
    code, report = run(tmp_path, "dims", payload)
    assert code == 1 and report["ok"] is False
    assert report["error"]["name"] == "NotSubset"


@pytest.mark.parametrize("margin", [-1, 1.5, True, "2"],
                         ids=["negative", "float", "bool", "string"])
def test_varadhan_margin_must_be_a_non_negative_int(tmp_path, capsys, margin):
    payload = {"interaction": EXCLUSION, "nu": HALF, **NEEDS_NU["varadhan"],
               "margin": margin}
    code, report = run(tmp_path, "varadhan", payload)
    assert code == 2 and report is None
    assert (f"margin must be a non-negative int, got {margin!r}"
            in capsys.readouterr().err)


def test_varadhan_margin_zero_stays_allowed(tmp_path):
    payload = {"interaction": EXCLUSION, "nu": HALF, **NEEDS_NU["varadhan"],
               "margin": 0}
    code, report = run(tmp_path, "varadhan", payload)
    assert code == 0 and report["result"]["margin"] == 0


@pytest.mark.parametrize("dim", ["1", True, 0, 1.5],
                         ids=["string", "bool", "zero", "float"])
def test_varadhan_dim_must_be_a_positive_int(tmp_path, capsys, dim):
    payload = {"interaction": EXCLUSION, "nu": HALF,
               **NEEDS_NU["varadhan"], "dim": dim}
    code, report = run(tmp_path, "varadhan", payload)
    assert code == 2 and report is None
    assert f"dim must be a positive int, got {dim!r}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the two branches of the writer: stdout and --output
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("subcommand, name", [
    ("conserved", "conserved"), ("iq", "iq-witness"), ("expand", "expand"),
    ("project", "project-form-window"), ("closed", "closed-potential"),
    ("dims", "dims"), ("varadhan", "varadhan-window"),
    ("martingale", "martingale-chain12"),
    ("closed", "closed-not-closed")])   # an error envelope, exit 1
def test_stdout_bytes_equal_output_file_bytes(tmp_path, capsys, subcommand,
                                              name):
    src = str(GOLDEN / f"{name}.json")
    out = tmp_path / "out.json"
    code = main([subcommand, "--input", src, "--output", str(out)])
    assert capsys.readouterr().out == ""
    assert main([subcommand, "--input", src]) == code
    assert code == (0 if name != "closed-not-closed" else 1)
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


@pytest.mark.parametrize("target", ["missing/dir/x.json", "."],
                         ids=["missing-directory", "a-directory"])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, target):
    src = tmp_path / "ok.json"
    src.write_text(json.dumps({"interaction": EXCLUSION, "nu": HALF}))
    code = main(["conserved", "--input", str(src),
                 "--output", str(tmp_path / target)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: cannot write output: ")
    assert captured.out == ""


def test_default_subset_cap_is_fourteen_sites(tmp_path):
    sites = list(range(15))
    payload = {"interaction": EXCLUSION, "nu": HALF,
               "locale": {"sites": sites,
                          "edges": [[a, b] for a in sites for b in sites
                                    if abs(a - b) == 1]},
               "fn": {"siteset": sites, "values": ["0"] * 2 ** 15}}
    code, report = run(tmp_path, "expand", payload)
    assert code == 1 and report["error"]["name"] == "TooManySubsets"
    assert report["error"]["details"] == {"cap": 14, "size": 15}
