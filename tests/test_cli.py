import json
import shutil

import pytest
from click.testing import CliRunner

from fuzrank.cli import main
from fuzrank.graph import enumerate_paths
from fuzrank.scenario import bundled_scenario_path, load_scenario


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def scenario_file(tmp_path):
    dst = tmp_path / "scenario.json"
    shutil.copy(bundled_scenario_path(), dst)
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
    scenario = load_scenario(bundled_scenario_path())
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
