import ast
import errno
import gc
import io
import json
import math
import os
import stat
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from golden_reports import REPORTS
from hypothesis import given, settings
from hypothesis import strategies as st

import fuzrank
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
    from fuzrank import fuzzy

    real, calls = fuzzy.aggregate_ratings, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fuzzy, "aggregate_ratings", counting)
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


@pytest.mark.parametrize("command, options", REPORTS, ids=[f"{c}-{o[-1]}" for c, o in REPORTS])
def test_table_and_csv_reports_are_the_golden_bytes(runner, scenario_file, command, options):
    result = runner.invoke(main, [command, str(scenario_file), *options])
    assert (result.exit_code, result.stderr) == (0, "")
    assert result.stdout == REPORTS[command, options]


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


@pytest.mark.parametrize(
    "command, options",
    [("graph", []), ("rank", ["--format", "table"]), ("rank", ["--format", "csv"])],
)
def test_stdout_keeps_escape_sequences_as_the_output_file_does(runner, tmp_path, command,
                                                               options):
    """Text reports print the same bytes on a stdout that is not a terminal
    as `-o` writes, escape sequences in action ids and node labels included."""
    text = (SCENARIO.read_text(encoding="utf-8")
            .replace('"A1"', '"A\\u001b[1m1"')
            .replace('"Attacker reach via edge firewall interface"', '"a\\u001b[31mred\\u001b[0m"'))
    path, out = tmp_path / "escapes.json", tmp_path / "report.txt"
    path.write_text(text, encoding="utf-8")
    args = [command, str(path), *options]
    shown = runner.invoke(main, args)
    written = runner.invoke(main, [*args, "-o", str(out)])
    assert shown.exit_code == written.exit_code == 0
    assert "\x1b[" in shown.stdout
    assert shown.stdout_bytes == out.read_bytes()


def test_output_file_mode_is_that_of_a_plain_open(runner, scenario_file, tmp_path):
    """A new `-o` file gets 0o666 less the umask; an overwritten one keeps its mode."""
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("")
    old.chmod(0o664)
    args = ["rank", str(scenario_file), "--format", "json", "-o"]
    umask = os.umask(0o027)
    try:
        assert runner.invoke(main, [*args, str(new)]).exit_code == 0
        assert runner.invoke(main, [*args, str(old)]).exit_code == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(new.stat().st_mode) == 0o640
    assert stat.S_IMODE(old.stat().st_mode) == 0o664
    assert old.read_text() == new.read_text()


def test_output_to_a_directory_exit_one(runner, scenario_file, tmp_path):
    target = tmp_path / "reports"
    target.mkdir()
    result = runner.invoke(main, ["graph", str(scenario_file), "-o", str(target)])
    assert result.exit_code == 1
    assert result.stderr == f"Error: cannot write {target}: is a directory\n"
    assert list(tmp_path.rglob(".fuzrank-*")) == []


def test_output_through_a_symlink_updates_the_file_and_keeps_the_link(runner, scenario_file,
                                                                     tmp_path):
    report, link = tmp_path / "report.json", tmp_path / "latest.json"
    report.write_text("old")
    link.symlink_to(report.name)
    result = runner.invoke(main, ["rank", str(scenario_file), "--format", "json", "-o", str(link)])
    assert result.exit_code == 0, result.output
    assert link.is_symlink() and os.readlink(link) == report.name
    assert json.loads(report.read_text())["rankings"]
    assert list(tmp_path.rglob(".fuzrank-*")) == []


def test_output_to_a_fifo_is_not_a_regular_file(runner, scenario_file, tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    result = runner.invoke(main, ["graph", str(scenario_file), "-o", str(fifo)])
    assert result.exit_code == 1
    assert result.stderr == f"Error: cannot write {fifo}: not a regular file\n"
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert list(tmp_path.rglob(".fuzrank-*")) == []


def test_rank_unwritable_output_exit_one(runner, scenario_file, tmp_path):
    missing_dir = tmp_path / "nope" / "report.json"
    result = runner.invoke(
        main, ["rank", str(scenario_file), "-o", str(missing_dir)]
    )
    assert result.exit_code == 1
    # the user's path and the reason, never the temp file's name
    assert result.stderr == f"Error: cannot write {missing_dir}: No such file or directory\n"
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


CRISP = {
    "schema_version": "1",
    "criteria": [{"id": "C-1", "weight": 1.0}, {"id": "C-2", "kind": "cost", "weight": 2.0}],
    "actions": ["A1", "A2"],
    "decision_matrix": {"A1": {"C-1": 2.0, "C-2": 1.0}, "A2": {"C-1": 3.0, "C-2": 4.0}},
}


# Input rules that only a run can check: (command, document, message), run by
# `test_pipeline` through the library and the CLI. A document's None field is
# left out of the file.
RUN_TIME_INPUT_RULES = [
    (["rank", "--engine", "classic"], {**CRISP, "decision_matrix": None},
     "classic engine needs a 'decision_matrix' or a 'panel' in the scenario"),
    (["rank", "--engine", "classic"],
     {**CRISP, "criteria": [{"id": "C-1", "weight": 1.0}, {"id": "C-2", "kind": "cost"}]},
     "criterion 'C-2' has no weight and the scenario has no 'pairwise' matrix; "
     "cannot weight the classic engine"),
    (["rank", "--engine", "classic"],
     {**CRISP, "criteria": [{"id": "C-1", "weight": 0}, {"id": "C-2", "weight": 0.0}]},
     "criterion weights sum to zero; cannot weight the classic engine"),
    (["veability"],
     {"schema_version": "1",
      "vulnerabilities": [{"cve": "C", "impact_score": 5, "exploitability_score": 5,
                           "temporal_score": 5}],
      "assets": [{"id": "h", "vulnerabilities": ["C"]}]},
     "cannot score assets: vulnerability C has no atc_cost and no ranked action to take it from"),
]
RUN_TIME_INPUT_RULE_IDS = ["no-matrix-no-panel", "unweighted-criterion", "zero-weights",
                           "no-cost-no-action"]


def test_label_weights_rank_as_their_peaks(runner, tmp_path):
    rankings = []
    for c1, c2 in (("VH", "L"), (9, 3)):
        criteria = [{"id": "C-1", "weight": c1}, {"id": "C-2", "kind": "cost", "weight": c2}]
        path = tmp_path / f"{c1}.json"
        path.write_text(json.dumps({**CRISP, "criteria": criteria}))
        result = runner.invoke(
            main, ["rank", str(path), "--engine", "classic", "--format", "json"]
        )
        assert result.exit_code == 0, result.output
        rankings.append(json.loads(result.output)["rankings"])
    assert rankings[0] == rankings[1]


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


# a decision-matrix column whose norm passes the float range
HUGE_COLUMN = {
    "schema_version": "1",
    "criteria": [{"id": "C-1", "weight": 1}, {"id": "C-2", "weight": 1}],
    "actions": ["A1", "A2"],
    "decision_matrix": {"A1": {"C-1": 1.7e308, "C-2": 2}, "A2": {"C-1": 1e308, "C-2": 1}},
}
# two raters' peaks whose sum passes the float range
HUGE_PEAKS = {
    "schema_version": "1",
    "scale": {"X": [1e308, 1.5e308, 1.7e308], "W": [1, 1, 1]},
    "criteria": [{"id": "C-1", "weight": "W"}],
    "actions": ["A1", "A2"],
    "panel": {
        "decision_makers": ["r1", "r2"],
        "ratings": {r: {"A1": {"C-1": "X"}, "A2": {"C-1": "W"}} for r in ("r1", "r2")},
        "weights": {r: {"C-1": "W"} for r in ("r1", "r2")},
    },
}


def rank_report(runner, tmp_path, doc, *args):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["rank", str(path), "--format", "json", *args])
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


@pytest.mark.parametrize(
    "doc, args", [(HUGE_COLUMN, ["--engine", "classic"]), (HUGE_PEAKS, [])],
    ids=["column-norm", "pooled-peaks"],
)
def test_rank_near_float_max_warns_nothing(runner, tmp_path, doc, args):
    assert rank_report(runner, tmp_path, doc, *args)["warnings"] == []


def test_rank_classic_column_near_float_max_matches_scaled_down(runner, tmp_path):
    small = {**HUGE_COLUMN, "decision_matrix": {"A1": {"C-1": 1.7, "C-2": 2},
                                                "A2": {"C-1": 1.0, "C-2": 1}}}
    (got,) = rank_report(runner, tmp_path, HUGE_COLUMN, "--engine", "classic")["rankings"]
    (want,) = rank_report(runner, tmp_path, small, "--engine", "classic")["rankings"]
    for e1, e2 in zip(got["actions"], want["actions"]):
        assert e1["action"] == e2["action"]
        assert e1["d_plus"] == pytest.approx(e2["d_plus"], rel=1e-12)
        assert e1["d_minus"] == pytest.approx(e2["d_minus"], rel=1e-12)


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


def test_scenario_with_a_byte_order_mark_is_read(runner, scenario_file, tmp_path):
    marked = tmp_path / "bom.json"
    marked.write_bytes(b"\xef\xbb\xbf" + scenario_file.read_bytes())
    result = runner.invoke(main, ["validate", str(marked)])
    assert result.exit_code == 0, result.output
    plain, with_bom = (
        json.loads(runner.invoke(main, ["rank", str(p), "--format", "json"]).stdout)
        for p in (scenario_file, marked)
    )
    # the fingerprint is of the file's bytes, the mark among them
    assert plain.pop("scenario_fingerprint") != with_bom.pop("scenario_fingerprint")
    assert plain == with_bom


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


def test_graph_help_names_the_path_cap(runner):
    from fuzrank.graph import DEFAULT_PATH_CAP

    result = runner.invoke(main, ["graph", "--help"])
    assert result.exit_code == 0
    assert (
        "--goal TEXT Restrict the graph to minimal paths reaching this node. Exits 2 past "
        f"FUZRANK_PATH_CAP candidate paths (default {DEFAULT_PATH_CAP}); raise that variable "
        "to enumerate anyway."
    ) in " ".join(result.output.split())


def test_graph_goal_on_twelve_layers_needs_a_raised_cap(runner, tmp_path):
    from test_graph import layered_doc

    path = tmp_path / "l12w3.json"
    path.write_text(json.dumps({"schema_version": "1", "graph": layered_doc(12, 3)}))
    args = ["graph", str(path), "--goal", "goal-L12"]
    capped = runner.invoke(main, args)
    assert capped.exit_code == 2
    assert "more than 10000 candidate paths while expanding 'priv-9'" in capped.output
    raised = runner.invoke(main, args, env={"FUZRANK_PATH_CAP": "1000000"})
    assert raised.exit_code == 0, raised.output
    assert sum(" [shape=" in line for line in raised.output.splitlines()) == 50


def test_validate_ok_and_strict(runner, scenario_file, tmp_path):
    crisp, pairwise = tmp_path / "crisp.json", tmp_path / "crisp_pairwise.json"
    crisp.write_text(json.dumps(CRISP))
    pairwise.write_text(json.dumps(CRISP_PAIRWISE))
    for path in (scenario_file, crisp, pairwise):
        ok = runner.invoke(main, ["validate", str(path), "--strict"])
        assert ok.exit_code == 0
        assert ok.output == f"OK: {path} is a valid scenario\n"

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


@pytest.mark.parametrize("command", ["rank", "veability"])
def test_csv_warnings_go_to_stderr(runner, scenario_file, tmp_path, command):
    doc = json.loads(scenario_file.read_text())
    doc["bogus"] = 1
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps(doc))
    clean = runner.invoke(main, [command, str(scenario_file), "--format", "csv"])
    warned = runner.invoke(main, [command, str(path), "--format", "csv"])
    assert clean.exit_code == warned.exit_code == 0
    assert warned.stdout == clean.stdout
    assert clean.stderr == ""
    assert warned.stderr == "warning: $.bogus: unknown field\n"


@pytest.mark.parametrize("goal", [[], ["--goal", "RAN-control"]], ids=["whole", "goal"])
def test_graph_prints_the_scenario_warnings_to_stderr(runner, scenario_file, tmp_path, goal):
    doc = json.loads(scenario_file.read_text())
    doc["bogus"] = 1
    doc["graph"]["edges"].append(doc["graph"]["edges"][0])
    path = tmp_path / "warned.json"
    path.write_text(json.dumps(doc))
    clean = runner.invoke(main, ["graph", str(scenario_file), *goal])
    warned = runner.invoke(main, ["graph", str(path), *goal])
    assert clean.exit_code == warned.exit_code == 0
    assert warned.stdout == clean.stdout
    assert clean.stderr == ""
    src, dst = doc["graph"]["edges"][0]
    i = len(doc["graph"]["edges"]) - 1
    assert warned.stderr == (
        "warning: $.bogus: unknown field\n"
        f"warning: $.graph.edges[{i}]: duplicate edge {src!r} -> {dst!r}\n"
    )
    validated = runner.invoke(main, ["validate", str(path)])
    assert validated.stderr == warned.stderr


def test_csv_inconsistent_pairwise_warning_goes_to_stderr(runner, tmp_path):
    crits = ["C-1", "C-2", "C-3"]
    doc = {
        "schema_version": "1",
        "criteria": [{"id": c} for c in crits],
        "actions": ["A1", "A2"],
        "decision_matrix": {"A1": dict(zip(crits, (1, 2, 3))), "A2": dict(zip(crits, (3, 2, 1)))},
        "pairwise": [[1, 9, 1 / 9], [1 / 9, 1, 9], [9, 1 / 9, 1]],
    }
    path = tmp_path / "inconsistent.json"
    path.write_text(json.dumps(doc))
    args = ["rank", str(path), "--engine", "classic", "--format"]
    (expected,) = json.loads(runner.invoke(main, args + ["json"]).stdout)["warnings"]
    assert expected.startswith("pairwise comparisons are inconsistent (CR = ")
    result = runner.invoke(main, args + ["csv"])
    assert result.exit_code == 0
    assert result.stdout.startswith("engine,action,")
    assert result.stderr == f"warning: {expected}\n"


def test_an_extreme_consistency_ratio_is_written_in_exponent_form(runner, tmp_path):
    doc = json.loads(SCENARIO.read_text(encoding="utf-8"))
    doc["pairwise"] = [[1, 1e308, 1, 1], [1e-308, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1]]
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["rank", str(path), "--format", "json"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["warnings"] == [
        "pairwise comparisons are inconsistent (CR = 2.166e+102 > 0.1); weights may be unreliable"
    ]


def _overflow(*args, **kwargs):
    return np.float64(1e308) * 10


@pytest.mark.parametrize("engine, stage", [("classic", "rank_classic"), ("fuzzy", "rank_fuzzy"),
                                           ("both", "rank_fuzzy"), ("both", "aggregate_ratings")])
def test_float_fault_in_an_engine_is_a_computation_failure(runner, scenario_file, monkeypatch,
                                                            engine, stage):
    module = "classic" if stage == "rank_classic" else "fuzzy"
    monkeypatch.setattr(f"fuzrank.{module}.{stage}", _overflow)
    result = runner.invoke(main, ["rank", str(scenario_file), "--engine", engine])
    assert result.exit_code == 2
    assert result.stdout == ""
    failed_in = "classic" if stage == "rank_classic" else "fuzzy"
    assert result.stderr == (
        f"Error: computation failed in {failed_in}: overflow encountered in scalar multiply\n"
    )


def _run_in_child(code: str) -> str:
    """Run `code` in a fresh interpreter, with this fuzrank's source directory
    on PYTHONPATH, and return its stderr; the child must exit with code 0."""
    env = {**os.environ, "PYTHONPATH": str(Path(fuzrank.__file__).parents[1])}
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert child.returncode == 0, child.stderr
    return child.stderr


def _commands_in_child(*commands: list[str]) -> str:
    """Code that runs each of `commands` through `fuzrank.cli.main`."""
    return "from fuzrank.cli import main\n" + "".join(
        f"main({args!r}, standalone_mode=False)\n" for args in commands
    )


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """Every command prints the same bytes under two string-hash seeds, each
    in its own interpreter."""
    from test_graph import layered_doc

    layered = tmp_path / "layered.json"
    layered.write_text(json.dumps({"schema_version": "1", "graph": layered_doc(7, 3)}))
    s = str(SCENARIO)
    code = _commands_in_child(
        ["rank", s, "--engine", "both", "--format", "json"],
        ["veability", s, "--format", "json"],
        ["graph", s],
        ["graph", s, "--goal", "RAN-control"],
        ["validate", s, "--strict"],
        ["graph", str(layered), "--goal", "goal-L7"],
    )
    src = str(Path(fuzrank.__file__).parents[1])
    children = [
        subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        )
        for seed in ("0", "1")
    ]
    (out0, err0), (out1, err1) = outputs = [child.communicate(timeout=60) for child in children]
    assert [child.returncode for child in children] == [0, 0], outputs
    assert out0.count(b'digraph "attack_graph" {') == 3 and b"is a valid scenario" in out0
    assert (out0, err0) == (out1, err1)


# --- the process policy: no collector, one BLAS thread ----------------------------

# a sitecustomize hook: at exit, the collector's state, how many collections ran
# from the moment numpy began to load, the process's thread count (None off
# Linux) and OPENBLAS_NUM_THREADS
PROCESS_AT_EXIT = """\
import atexit, gc, os, sys
late = []
gc.callbacks.append(lambda phase, info: phase == "start" and "numpy" in sys.modules and late.append(1))
def report():
    tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
    print("process at exit:", repr((gc.isenabled(), gc.get_freeze_count(), len(late), tasks,
                                    os.environ.get("OPENBLAS_NUM_THREADS"))), file=sys.stderr)
atexit.register(report)
"""
LAUNCHERS = {
    "python -m fuzrank.cli": ["-m", "fuzrank.cli"],
    "runpy fuzrank.cli": ["-c", "import runpy; runpy.run_module('fuzrank.cli', run_name='__main__')"],
    "python -m fuzrank": ["-m", "fuzrank"],
}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _launch(launcher: str, args: list[str], hook_dir: Path, **env_vars: str):
    """Run `fuzrank args` as a fresh process through `launcher`, with no BLAS
    thread variable in its environment but `env_vars`, and the hook above
    loaded from `hook_dir`. Returns the child, its stderr before the hook's
    line, and the hook's tuple."""
    (hook_dir / "sitecustomize.py").write_text(PROCESS_AT_EXIT)
    src = str(Path(fuzrank.__file__).parents[1])
    env = {k: v for k, v in os.environ.items()
           if k != "FUZRANK_PATH_CAP" and k not in BLAS_THREAD_VARS}
    env.update(env_vars, PYTHONPATH=os.pathsep.join([str(hook_dir), src]))
    child = subprocess.run([sys.executable, *LAUNCHERS[launcher], *args], env=env,
                           capture_output=True, timeout=60)
    *err, hook = child.stderr.decode("utf-8").splitlines(keepends=True)
    assert hook.startswith("process at exit: "), hook
    return child, "".join(err), ast.literal_eval(hook.split(": ", 1)[1])


def test_main_leaves_the_collector_as_it_found_it(runner, scenario_file):
    frozen = gc.get_freeze_count()
    main(["rank", str(scenario_file), "--format", "json"], standalone_mode=False)
    assert gc.isenabled() and gc.get_freeze_count() == frozen
    assert runner.invoke(main, ["graph", str(scenario_file)]).exit_code == 0
    assert gc.isenabled() and gc.get_freeze_count() == frozen


def _loaded_after_import(names: tuple[str, ...]) -> list[str]:
    """Which of `names` a fresh interpreter holds once it has imported fuzrank.cli."""
    code = f"import sys, fuzrank.cli\nprint(*[n for n in {names!r} if n in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(Path(fuzrank.__file__).parents[1])}
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert child.returncode == 0, child.stderr
    return child.stdout.split()


def test_import_generates_no_dataclass_code():
    assert _loaded_after_import(("dataclasses",)) == []


def test_import_loads_neither_engine_nor_the_graph():
    assert _loaded_after_import(("fuzrank.classic", "fuzrank.fuzzy", "fuzrank.graph")) == []


def test_import_leaves_the_collector_on():
    code = "import gc, fuzrank.cli\nassert gc.isenabled() and not gc.get_freeze_count()"
    _run_in_child(code)


def test_main_and_import_leave_the_environment_alone(runner, scenario_file):
    before = dict(os.environ)
    main(["rank", str(scenario_file), "--format", "json"], standalone_mode=False)
    assert runner.invoke(main, ["validate", str(scenario_file)]).exit_code == 0
    assert dict(os.environ) == before
    code = (f"import os\nfor name in {BLAS_THREAD_VARS!r}:\n    os.environ.pop(name, None)\n"
            "before = dict(os.environ)\nimport fuzrank.cli\nassert dict(os.environ) == before")
    _run_in_child(code)


@pytest.mark.parametrize("launcher", LAUNCHERS)
def test_cli_process_runs_without_the_collector(runner, scenario_file, tmp_path, launcher):
    """Each launcher turns the collector off before click and numpy load, so
    nothing is collected from then on, freezes the heap before exit, and runs
    one thread with OPENBLAS_NUM_THREADS=1; exit codes, stdout bytes and error
    messages are those of in-process `main`."""
    from test_graph import layered_doc

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": "1", "criteria": 3}))
    deep = tmp_path / "l12w3.json"
    deep.write_text(json.dumps({"schema_version": "1", "graph": layered_doc(12, 3)}))
    cases = [
        (0, ["rank", str(scenario_file), "--format", "json"]),
        (1, ["rank", str(bad), "--format", "json"]),
        (2, ["graph", str(deep), "--goal", "goal-L12"]),
    ]
    for code, args in cases:
        child, err, (enabled, frozen, late, tasks, blas) = _launch(launcher, args, tmp_path)
        assert (enabled, late, blas) == (False, 0, "1") and frozen > 0, args
        assert tasks in (None, 1), args
        expected = runner.invoke(main, args)
        assert child.returncode == expected.exit_code == code, args
        assert child.stdout == expected.stdout_bytes, args
        assert err == expected.stderr, args


def _cli_process(launcher: str, args: list[str], stdout=subprocess.PIPE,
                 python_flags: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    """Run `fuzrank args` as a fresh process through `launcher`, its stdout
    on `stdout`, its stderr captured and nothing on its stdin."""
    env = {**os.environ, "PYTHONPATH": str(Path(fuzrank.__file__).parents[1])}
    return subprocess.run([sys.executable, *python_flags, *LAUNCHERS[launcher], *args],
                          env=env, stdin=subprocess.DEVNULL, stdout=stdout,
                          stderr=subprocess.PIPE, timeout=60)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("launcher", LAUNCHERS)
@pytest.mark.parametrize("command", ["graph", "validate"])
def test_full_stdout_is_an_error_not_a_traceback(scenario_file, launcher, command):
    with open("/dev/full", "w") as full:
        child = _cli_process(launcher, [command, str(scenario_file)], full)
    assert child.returncode == 1
    assert child.stderr == b"Error: cannot write to stdout: [Errno 28] No space left on device\n"


def test_main_keeps_the_callers_stdout_after_a_failed_write(scenario_file, monkeypatch):
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    full = Full()
    monkeypatch.setattr(sys, "stdout", full)
    with pytest.raises(click.ClickException, match="^cannot write to stdout: "):
        main(["validate", str(scenario_file)], standalone_mode=False)
    assert sys.stdout is full


@pytest.mark.parametrize("launcher", LAUNCHERS)
def test_broken_pipe_on_stdout_exits_one_quietly(scenario_file, launcher):
    read, write = os.pipe()
    os.close(read)
    try:
        child = _cli_process(launcher, ["graph", str(scenario_file)], write)
    finally:
        os.close(write)
    assert (child.returncode, child.stderr) == (1, b"")


@pytest.mark.parametrize("launcher", LAUNCHERS)
def test_python_inspect_mode_still_reaches_its_prompt(launcher):
    """`python -i` keeps the interpreter after the command, for its prompt."""
    child = _cli_process(launcher, ["--version"], python_flags=("-i",))
    assert child.returncode == 0
    assert child.stdout.startswith(b"fuzrank, version ")
    assert b">>> " in child.stderr


@pytest.mark.parametrize("launcher", LAUNCHERS)
def test_cli_process_keeps_the_callers_blas_threads(scenario_file, tmp_path, launcher):
    child, _, (*_, blas) = _launch(launcher, ["validate", str(scenario_file)], tmp_path,
                                   OMP_NUM_THREADS="2")
    assert child.returncode == 0 and blas is None


def test_blas_thread_count_does_not_change_a_report(scenario_file, tmp_path):
    for args in (["rank", str(scenario_file), "--engine", "both", "--format", "json"],
                 ["veability", str(scenario_file), "--format", "json"]):
        default, _, _ = _launch("python -m fuzrank", args, tmp_path)
        two, _, (*_, blas) = _launch("python -m fuzrank", args, tmp_path,
                                     OPENBLAS_NUM_THREADS="2")
        assert default.returncode == two.returncode == 0 and blas == "2"
        assert two.stdout == default.stdout, args


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
CRISP_PAIRWISE = {
    "schema_version": "1",
    "criteria": [
        {"id": "C-1", "kind": "benefit", "weight": 3},
        {"id": "C-2", "kind": "cost", "weight": "AV"},
    ],
    "actions": ["A1", "A2"],
    "pairwise": [[1, 3], [0.3333333333333333, 1]],
    "decision_matrix": {"A1": {"C-1": 7, "C-2": 2.5}, "A2": {"C-1": 4.0, "C-2": 1}},
}
# (document, graph goal, rank engine): CRISP_PAIRWISE has no panel for the fuzzy engine
BASES = [
    (json.loads(SCENARIO.read_text(encoding="utf-8")), "RAN-control", "both"),
    (SYNTHETIC, "goal", "both"),
    (CRISP_PAIRWISE, "goal", "classic"),
]

# a report warning is fuzrank's own: a scenario path, an engine's, or the AHP
# consistency check of the classic engine's weights; never a bare numpy one
OWN_WARNINGS = ("$.", "classic ", "fuzzy ", "pairwise comparisons are inconsistent ")
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
    assert {5e-324, sys.float_info.max, 10**400} <= set(EXTREME_NUMBERS)
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
            for warning in json.loads(result.stdout)["warnings"]:
                assert warning.startswith(OWN_WARNINGS), (name, warning)
    if results["validate"].exit_code == 0:
        for result in results.values():
            assert "scenario validation failed" not in result.output
