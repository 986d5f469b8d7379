import json
import re

from colocal.cli import main
from colocal.scalars import FLOAT_TOLERANCE

EXCLUSION = {"states": [0, 1], "base": 0,
             "phi": [[[0, 1], [1, 0]], [[1, 0], [0, 1]]]}
HALF = ["1/2", "1/2"]


def run(tmp_path, name, payload, *extra):
    src = tmp_path / f"{name}.json"
    out = tmp_path / f"{name}.out.json"
    src.write_text(json.dumps(payload))
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


def test_varadhan_round_trip(tmp_path):
    payload = {"interaction": EXCLUSION, "nu": HALF, "dim": 1,
               "window": {"lattice": {"dim": 1, "radius": 4}},
               "margin": 2, "cocycle": [["1"]]}
    code, report = run(tmp_path, "varadhan", payload)
    assert code == 0
    result = report["result"]
    assert result["cocycle"]["generators"] == [["1/1"]]
    assert result["checks"]["residual_interior_zero"] is True


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


def test_float_mode(tmp_path):
    payload = {"interaction": EXCLUSION, "nu": [0.5, 0.5]}
    src = tmp_path / "float.json"
    out = tmp_path / "float.out.json"
    src.write_text(json.dumps(payload))
    assert main(["conserved", "--input", str(src), "--output", str(out),
                 "--mode", "float"]) == 0
    report = json.loads(out.read_text())
    assert report["result"]["dimension"] == 1



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
    (coefficient,), = result["cocycle"]["generators"]
    assert abs(coefficient - (-2 / 3)) <= FLOAT_TOLERANCE
    exact_code, exact = run(tmp_path, "varadhan", STENCIL_R4)
    assert exact_code == 0
    assert exact["result"]["cocycle"]["generators"] == [["-2/3"]]
    assert result["checks"] == exact["result"]["checks"]


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
