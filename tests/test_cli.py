import json
import math
from importlib.resources import files
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzrank.cli import main
from fuzrank.graph import enumerate_paths
from fuzrank.scenario import parse_scenario

SCENARIO = files("fuzrank") / "data" / "paper_s4.json"


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def scenario_file(tmp_path):
    dst = tmp_path / "scenario.json"
    dst.write_bytes(SCENARIO.read_bytes())
    return dst


def test_rank_fuzzy_json_a4_extreme(runner, scenario_file):
    result = runner.invoke(
        main, ["rank", str(scenario_file), "--engine", "fuzzy", "--format", "json"]
    )
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    (ranking,) = doc["rankings"]
    assert ranking["engine"] == "fuzzy"
    costs = {e["action"]: e["cost"] for e in ranking["actions"]}
    assert len(costs) == 4
    assert max(costs, key=costs.get) == "A4"
    assert ranking["minimum_effort_action"] == "A4"
    assert ranking["cost_definition"] == "d_minus / (d_plus + d_minus)"


def test_rank_missing_file_exit_one(runner):
    result = runner.invoke(main, ["rank", "missing.json"])
    assert result.exit_code == 1
    assert "file not found" in result.output


def test_rank_both_engines_two_labeled_tables(runner, scenario_file):
    result = runner.invoke(main, ["rank", str(scenario_file), "--engine", "both"])
    assert result.exit_code == 0
    assert "== classic engine ==" in result.output
    assert "== fuzzy engine ==" in result.output
    assert "d_plus / (d_plus + d_minus)" in result.output
    assert "d_minus / (d_plus + d_minus)" in result.output


def test_rank_json_reports_are_byte_identical(runner, scenario_file):
    args = ["rank", str(scenario_file), "--engine", "both", "--format", "json"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output
    assert json.loads(first.output)["scenario_fingerprint"].startswith("sha256:")


def test_rank_both_pools_the_ratings_once(runner, scenario_file, monkeypatch):
    from fuzrank import cli, fuzzy

    real, calls = fuzzy.aggregate_ratings, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in (cli, fuzzy):
        monkeypatch.setattr(module, "aggregate_ratings", counting)
    result = runner.invoke(
        main, ["rank", str(scenario_file), "--engine", "both", "--format", "json"]
    )
    assert result.exit_code == 0, result.output
    assert len(calls) == 1


def test_rank_csv_format(runner, scenario_file):
    result = runner.invoke(
        main, ["rank", str(scenario_file), "--engine", "classic", "--format", "csv"]
    )
    assert result.exit_code == 0
    header, *rows = result.output.strip().split("\n")
    assert header == "engine,action,d_plus,d_minus,cost,benefit,rank"
    assert len(rows) == 4
    assert rows[0].startswith("classic,")


def test_rank_output_file_written_atomically(runner, scenario_file, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(
        main,
        ["rank", str(scenario_file), "--engine", "fuzzy", "--format", "json",
         "-o", str(out)],
    )
    assert result.exit_code == 0
    assert json.loads(out.read_text())["rankings"]
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".fuzrank-")]
    assert leftovers == []


def test_rank_unwritable_output_exit_one(runner, scenario_file, tmp_path):
    missing_dir = tmp_path / "nope" / "report.json"
    result = runner.invoke(
        main, ["rank", str(scenario_file), "-o", str(missing_dir)]
    )
    assert result.exit_code == 1
    assert "cannot write" in result.output
    assert not missing_dir.exists()


def test_rank_scenario_without_panel_fuzzy_fails(runner, tmp_path):
    doc = {
        "schema_version": "1",
        "criteria": [{"id": "C-1", "weight": 1.0}],
        "actions": ["A1"],
        "decision_matrix": {"A1": {"C-1": 2.0}},
    }
    path = tmp_path / "crisp_only.json"
    path.write_text(json.dumps(doc))
    ok = runner.invoke(main, ["rank", str(path), "--engine", "classic"])
    assert ok.exit_code == 0
    bad = runner.invoke(main, ["rank", str(path), "--engine", "fuzzy"])
    assert bad.exit_code == 1
    assert "needs a 'panel'" in bad.output


def test_rank_pooled_peak_rounding_above_upper_bound(runner, tmp_path):
    # three raters at (0, 0.1, 0.1) pool to a float mean peak of
    # 0.10000000000000002, one ulp above the pooled upper bound
    raters = ["r1", "r2", "r3"]
    doc = {
        "schema_version": "1",
        "scale": {"LO": [0, 0.1, 0.1], "HI": [0.1, 0.5, 1]},
        "criteria": [{"id": "C-1", "weight": 1.0}],
        "actions": ["A1", "A2"],
        "panel": {
            "decision_makers": raters,
            "ratings": {r: {"A1": {"C-1": "LO"}, "A2": {"C-1": "HI"}} for r in raters},
            "weights": {r: {"C-1": "LO"} for r in raters},
        },
    }
    path = tmp_path / "tight_scale.json"
    path.write_text(json.dumps(doc))
    assert runner.invoke(main, ["validate", str(path)]).exit_code == 0
    result = runner.invoke(main, ["rank", str(path), "--format", "json"])
    assert result.exit_code == 0, result.output
    for ranking in json.loads(result.output)["rankings"]:
        assert ranking["minimum_effort_action"] == "A2"


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), 10**400], ids=["NaN", "Infinity", "int-1e400"]
)
@pytest.mark.parametrize("section", ["decision_matrix", "pairwise"])
def test_rank_non_finite_number_exit_one(runner, tmp_path, section, value):
    doc = {
        "schema_version": "1",
        "criteria": [{"id": "C-1", "weight": 1.0}, {"id": "C-2", "weight": 1.0}],
        "actions": ["A1", "A2"],
        "decision_matrix": {"A1": {"C-1": 2.0, "C-2": 1.0}, "A2": {"C-1": 1.0, "C-2": 3.0}},
        "pairwise": [[1.0, 2.0], [0.5, 1.0]],
    }
    if section == "decision_matrix":
        doc["decision_matrix"]["A1"]["C-1"] = value
        where = "$.decision_matrix.A1.C-1"
    else:
        doc["pairwise"][0][1] = value
        where = "$.pairwise[0][1]"
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["rank", str(path), "--engine", "classic", "--format", "json"])
    assert result.exit_code == 1, result.output
    assert f"{where}: expected a finite number" in result.output


@pytest.mark.parametrize("fmt", ["json", "table", "csv"])
@pytest.mark.parametrize(
    "kinds", [("benefit",) * 3, ("benefit", "cost")], ids=["3-benefit", "2-mixed"]
)
def test_rank_fuzzy_distance_overflow_exit_one(runner, tmp_path, kinds, fmt):
    # valid finite scale entries whose weighted distances, or their d+ + d-
    # sum, pass the float maximum
    crits = [f"C-{j + 1}" for j in range(len(kinds))]
    doc = {
        "schema_version": "1",
        "scale": {"LO": [1, 1, 1], "HI": [1e308, 1e308, 1e308]},
        "criteria": [{"id": c, "kind": k} for c, k in zip(crits, kinds)],
        "actions": ["A1", "A2"],
        "panel": {
            "decision_makers": ["dm1"],
            "ratings": {
                "dm1": {"A1": dict.fromkeys(crits, "HI"), "A2": dict.fromkeys(crits, "LO")}
            },
            "weights": {"dm1": dict.fromkeys(crits, "HI")},
        },
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["rank", str(path), "--engine", "fuzzy", "--format", fmt])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.output.startswith("Error: cannot rank scenario: fuzzy ranking:")
    assert result.output.count("\n") == 1
    assert "overflow the float range" in result.output
    assert "nan" not in result.output and "inf" not in result.output


def test_rank_classic_weights_near_float_max(runner, tmp_path):
    def ranking(weight):
        doc = {
            "schema_version": "1",
            "criteria": [{"id": "C-1", "weight": weight},
                         {"id": "C-2", "kind": "cost", "weight": weight}],
            "actions": ["A1", "A2", "A3"],
            "decision_matrix": {"A1": {"C-1": 3, "C-2": 1}, "A2": {"C-1": 2, "C-2": 2},
                                "A3": {"C-1": 1, "C-2": 5}},
        }
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["rank", str(path), "--engine", "classic", "--format", "json"])
        assert result.exit_code == 0, result.output
        return json.loads(result.output)["rankings"]

    assert ranking(1e308) == ranking(1)


CHAIN = [{"id": "c", "kind": "configuration"}, {"id": "f", "kind": "final_step"}]
VULN = {"cve": "C", "impact_score": 5, "exploitability_score": 5, "temporal_score": 5,
        "atc_cost": 0.5}


def node_graph(**fields):
    return {"nodes": [CHAIN[0], {**CHAIN[1], **fields}], "edges": [["c", "f"]], "targets": []}


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("graph", {"graph": node_graph(label=5)},
         "$.graph.nodes[1].label: expected a string, got int"),
        ("graph", {"graph": node_graph(scheme=[1])},
         "$.graph.nodes[1].scheme: expected a string, got list"),
        ("validate", {"graph": node_graph(cve=5)},
         "$.graph.nodes[1].cve: expected a string, got int"),
        ("veability", {"assets": [{"id": "h", "vulnerabilities": 5}]},
         "$.assets[0].vulnerabilities: expected a list of vulnerability ids, got int"),
        ("validate",
         {"vulnerabilities": [VULN], "assets": [{"id": "h", "vulnerabilities": "C"}]},
         "$.assets[0].vulnerabilities: expected a list of vulnerability ids, got str"),
    ],
    ids=["node-label-int", "node-scheme-list", "node-cve-int", "asset-vulns-int",
         "asset-vulns-str"],
)
def test_mistyped_field_exit_one(runner, tmp_path, command, doc, message):
    path = tmp_path / "mistyped.json"
    path.write_text(json.dumps({"schema_version": "1", **doc}))
    result = runner.invoke(main, [command, str(path)])
    assert result.exit_code == 1, result.output
    assert f"  {message}\n" in result.output


def test_validate_non_utf8_file_exit_one(runner, tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b'{"title": "\xff\xfe"}')
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "scenario validation failed:\n  $: not UTF-8 text: " in result.output


def test_unreadable_scenario_exit_one(runner, scenario_file, monkeypatch):
    def refuse(self):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_bytes", refuse)
    result = runner.invoke(main, ["validate", str(scenario_file)])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.output.startswith(f"Error: cannot read {scenario_file}: ")
    assert "Permission denied" in result.output


def test_validate_directory_is_not_a_regular_file(runner, tmp_path):
    result = runner.invoke(main, ["validate", str(tmp_path)])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.output == f"Error: not a regular file: {tmp_path}\n"
    missing = tmp_path / "missing.json"
    result = runner.invoke(main, ["validate", str(missing)])
    assert result.exit_code == 1, result.output
    assert result.output == f"Error: file not found: {missing}\n"


@pytest.mark.parametrize(
    "title", ["[" * 100_000 + "]" * 100_000, "9" * 5000], ids=["nested-100000", "int-5000-digits"]
)
def test_validate_json_beyond_decoder_limits_exit_one(runner, tmp_path, title):
    path = tmp_path / "deep.json"
    path.write_text('{"schema_version": "1", "title": ' + title + "}")
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    header, line = result.output.splitlines()
    assert header == "Error: scenario validation failed:"
    assert line.startswith("  $: invalid JSON: ")


def test_rank_classic_pairwise_beyond_float_range_exit_two(runner, tmp_path):
    a = 1e300
    crits = ["C-1", "C-2", "C-3"]
    doc = {
        "schema_version": "1",
        "criteria": [{"id": c} for c in crits],
        "actions": ["A1", "A2"],
        "decision_matrix": {"A1": dict.fromkeys(crits, 1.0), "A2": dict.fromkeys(crits, 2.0)},
        "pairwise": [[1, a, a], [1 / a, 1, a], [1 / a, 1 / a, 1]],
    }
    path = tmp_path / "extreme_pairwise.json"
    path.write_text(json.dumps(doc))
    assert runner.invoke(main, ["validate", str(path)]).exit_code == 0
    result = runner.invoke(main, ["rank", str(path), "--engine", "classic"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.output.startswith("Error: computation failed: ")
    assert "no positive principal eigenvector" in result.output


def test_rank_invalid_scenario_lists_paths(runner, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{}")
    result = runner.invoke(main, ["rank", str(path)])
    assert result.exit_code == 1
    assert "missing schema_version" in result.output


def test_veability_table_and_csv(runner, scenario_file):
    table = runner.invoke(main, ["veability", str(scenario_file)])
    assert table.exit_code == 0
    assert "== VEA-bility ==" in table.output
    csv_out = runner.invoke(main, ["veability", str(scenario_file), "--format", "csv"])
    header, *rows = csv_out.output.strip().split("\n")
    assert header == "asset,V,E,A,veability"
    assert len(rows) == 6
    for row in rows:
        fields = row.split(",")
        for value in map(float, fields[1:]):
            assert 0.0 <= value <= 10.0


def test_veability_zero_vuln_asset_scores_ten(runner, tmp_path):
    doc = {
        "schema_version": "1",
        "assets": [{"id": "pristine", "services_on_asset": 0, "network_services_total": 3}],
    }
    path = tmp_path / "pristine.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["veability", str(path), "--format", "json"])
    assert result.exit_code == 0
    (asset,) = json.loads(result.output)["assets"]
    assert asset["veability"] == 10.0


def test_veability_unrankable_panel_exit_one(runner, tmp_path):
    # an all-zero benefit column cannot be normalized; veability ranks the
    # panel for the CVE's attacker cost and must report that, not crash
    doc = {
        "schema_version": "1",
        "scale": {"Z": [0, 0, 0], "H": [1, 2, 3]},
        "criteria": [{"id": "C-1"}],
        "actions": ["A1"],
        "panel": {
            "decision_makers": ["r"],
            "ratings": {"r": {"A1": {"C-1": "Z"}}},
            "weights": {"r": {"C-1": "H"}},
        },
        "vulnerabilities": [
            {"cve": "CVE-2020-0001", "impact_score": 5, "exploitability_score": 3,
             "temporal_score": 5, "action": "A1"}
        ],
        "assets": [{"id": "x", "services_on_asset": 1, "network_services_total": 2,
                    "vulnerabilities": ["CVE-2020-0001"]}],
    }
    path = tmp_path / "zero_column.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["veability", str(path)])
    assert result.exit_code == 1
    assert "cannot rank scenario: benefit criterion 'C-1'" in result.output


def test_veability_asset_repeating_a_vulnerability_exit_one(runner, tmp_path):
    # scored as two vulnerabilities, the repeat would lower the asset's score
    path = tmp_path / "repeat.json"
    path.write_text(json.dumps({"schema_version": "1", "vulnerabilities": [VULN],
                                "assets": [{"id": "h", "vulnerabilities": ["C", "C"]}]}))
    for args in (["veability"], ["validate", "--strict"]):
        result = runner.invoke(main, [*args, str(path)])
        assert result.exit_code == 1, result.output
        assert "  $.assets[0].vulnerabilities[1]: duplicate vulnerability reference 'C'\n" in (
            result.output
        )


def test_veability_requires_assets(runner, tmp_path):
    path = tmp_path / "no_assets.json"
    path.write_text(json.dumps({"schema_version": "1"}))
    result = runner.invoke(main, ["veability", str(path)])
    assert result.exit_code == 1
    assert "no 'assets'" in result.output


def test_graph_exports_six_final_boxes(runner, scenario_file, tmp_path):
    out = tmp_path / "graph.dot"
    result = runner.invoke(main, ["graph", str(scenario_file), "-o", str(out)])
    assert result.exit_code == 0
    text = out.read_text()
    assert text.count("shape=box") == 6
    assert text.startswith("digraph")


def test_graph_goal_filter_matches_enumeration(runner, scenario_file):
    result = runner.invoke(main, ["graph", str(scenario_file), "--goal", "RAN-control"])
    assert result.exit_code == 0
    scenario = parse_scenario(SCENARIO.read_text(encoding="utf-8"))
    expected = {
        nid for path in enumerate_paths(scenario.graph, "RAN-control") for nid in path
    }
    for nid in scenario.graph.nodes:
        present = f'"{nid}" [' in result.output
        assert present == (nid in expected)


def test_graph_unknown_goal_exit_one(runner, scenario_file):
    result = runner.invoke(main, ["graph", str(scenario_file), "--goal", "nowhere"])
    assert result.exit_code == 1
    assert "not in the graph" in result.output


def test_graph_empty_graph_minimal_dot(runner, tmp_path):
    path = tmp_path / "empty_graph.json"
    path.write_text(json.dumps({"schema_version": "1", "graph": {"nodes": [], "edges": [], "targets": []}}))
    result = runner.invoke(main, ["graph", str(path)])
    assert result.exit_code == 0
    body = result.output.strip().split("\n")
    assert body[0].startswith("digraph") and body[-1] == "}"
    assert len(body) == 2


def test_graph_path_cap_env(runner, scenario_file):
    result = runner.invoke(
        main,
        ["graph", str(scenario_file), "--goal", "RAN-control"],
        env={"FUZRANK_PATH_CAP": "1"},
    )
    assert result.exit_code == 2
    assert "more than 1" in result.output
    bad = runner.invoke(
        main,
        ["graph", str(scenario_file), "--goal", "RAN-control"],
        env={"FUZRANK_PATH_CAP": "zero"},
    )
    assert bad.exit_code == 1
    assert "FUZRANK_PATH_CAP" in bad.output


def test_validate_ok_and_strict(runner, scenario_file, tmp_path):
    ok = runner.invoke(main, ["validate", str(scenario_file), "--strict"])
    assert ok.exit_code == 0
    assert "OK" in ok.output

    lax = tmp_path / "lax.json"
    lax.write_text(json.dumps({"schema_version": "1", "surprise": True}))
    warned = runner.invoke(main, ["validate", str(lax)])
    assert warned.exit_code == 0
    assert "warning" in warned.output
    strict = runner.invoke(main, ["validate", str(lax), "--strict"])
    assert strict.exit_code == 1


def test_version_flag(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "fuzrank" in result.output


# --- CLI-wide contract over mutated scenarios ------------------------------------

SYNTHETIC = {
    "schema_version": "1",
    "criteria": [
        {"id": "C-1", "kind": "benefit", "weight": "H"},
        {"id": "C-2", "kind": "cost", "weight": 2.0},
    ],
    "actions": ["A1", "A2"],
    "panel": {
        "decision_makers": ["r1", "r2"],
        "ratings": {
            "r1": {"A1": {"C-1": "VH", "C-2": "L"}, "A2": {"C-1": "AV", "C-2": "H"}},
            "r2": {"A1": {"C-1": "H", "C-2": "VL"}, "A2": {"C-1": "L", "C-2": "AV"}},
        },
        "weights": {"r1": {"C-1": "H", "C-2": "AV"}, "r2": {"C-1": "VH", "C-2": "L"}},
    },
    "graph": {
        "nodes": [
            {"id": "cfg", "kind": "configuration"},
            {"id": "s1", "kind": "attack_step", "cve": "CVE-1"},
            {"id": "s2", "kind": "attack_step", "cve": "CVE-2"},
            {"id": "pv", "kind": "privilege"},
            {"id": "goal", "kind": "final_step"},
        ],
        "edges": [["cfg", "s1"], ["cfg", "s2"], ["s1", "pv"], ["s2", "pv"], ["pv", "goal"]],
        "targets": ["goal"],
    },
    "vulnerabilities": [
        {"cve": "CVE-1", "vector": "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", "action": "A1"},
        {"cve": "CVE-2", "impact_score": 3.6, "exploitability_score": 2.8, "temporal_score": 5.0,
         "atc_cost": 0.4},
    ],
    "assets": [
        {"id": "x", "services_on_asset": 1, "network_services_total": 3,
         "vulnerabilities": ["CVE-1"]},
        {"id": "y", "services_on_asset": 2, "network_services_total": 3,
         "vulnerabilities": ["CVE-2"]},
    ],
}
CRISP = {
    "schema_version": "1",
    "criteria": [
        {"id": "C-1", "kind": "benefit", "weight": 3},
        {"id": "C-2", "kind": "cost", "weight": "AV"},
    ],
    "actions": ["A1", "A2"],
    "pairwise": [[1, 3], [0.3333333333333333, 1]],
    "decision_matrix": {"A1": {"C-1": 7, "C-2": 2.5}, "A2": {"C-1": 4.0, "C-2": 1}},
}
# (document, graph goal, rank engine): CRISP has no panel for the fuzzy engine
BASES = [
    (json.loads(SCENARIO.read_text(encoding="utf-8")), "RAN-control", "both"),
    (SYNTHETIC, "goal", "both"),
    (CRISP, "goal", "classic"),
]

EXTREME_NUMBERS = [0, -1, 0.5, 5e-324, 1e-300, 1e300, 1.7976931348623157e308, -1e308, 10**400]
OTHER_STRINGS = ["VL", "VH", "A1", "C-1", "cost", "benefit", "privilege", "final_step", "", "??"]
RETYPED = [None, True, 3, "x", [], {}]


def _locations(doc):
    """Every (container, key) pair in doc, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from _locations(value)


def _mutate(doc, draw):
    """Apply one drawn edit in place: type-preserving, a scale override, or structural."""
    op = draw(st.sampled_from(["value", "scale", "delete", "duplicate", "retype"]))
    if op == "scale":
        triple = st.lists(st.sampled_from(EXTREME_NUMBERS), min_size=3, max_size=3)
        labels = st.sampled_from(["VL", "L", "AV", "H", "VH", "X"])
        doc["scale"] = draw(st.dictionaries(labels, triple, max_size=6))
        return
    container, key = draw(st.sampled_from(list(_locations(doc))))
    value = container[key]
    if op == "delete":
        del container[key]
    elif op == "duplicate":  # a repeated list entry, or a field under a second name
        copy = json.loads(json.dumps(value))
        if isinstance(container, list):
            container.append(copy)
        else:
            container[key + "_copy"] = copy
    elif op == "retype":
        container[key] = draw(st.sampled_from([r for r in RETYPED if type(r) is not type(value)]))
    elif isinstance(value, str):
        container[key] = draw(st.sampled_from(OTHER_STRINGS))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        container[key] = draw(st.sampled_from(EXTREME_NUMBERS))
    elif isinstance(value, list):
        value.reverse()


def _strict_finite(text):
    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")

    def walk(x):
        if isinstance(x, float):
            assert math.isfinite(x)
        elif isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)

    walk(json.loads(text, parse_constant=reject))


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(range(len(BASES))), st.data())
def test_cli_contract_on_mutated_scenarios(contract_dir, base, data):
    doc, goal, engine = BASES[base]
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(doc, data.draw)
    path = contract_dir / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    runner = CliRunner()
    commands = {
        "validate": ["validate", str(path)],
        "rank": ["rank", str(path), "--engine", engine, "--format", "json"],
        "veability": ["veability", str(path), "--format", "json"],
        "graph": ["graph", str(path), "--goal", goal],
    }
    results = {name: runner.invoke(main, args) for name, args in commands.items()}
    for name, result in results.items():
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            name, result.exception)
        assert result.exit_code in (0, 1, 2), name
        if result.exit_code:
            assert result.stdout == "", name
            assert result.stderr.startswith("Error: ") and result.stderr.count("Error:") == 1, name
        elif name in ("rank", "veability"):
            _strict_finite(result.stdout)
    if results["validate"].exit_code == 0:
        for result in results.values():
            assert "scenario validation failed" not in result.output
