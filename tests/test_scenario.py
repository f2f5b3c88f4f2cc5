import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fuzrank.classic import CriterionKind
from fuzrank.fuzzy import aggregate_ratings
from fuzrank.graph import export_dot
from fuzrank.scenario import (
    ScenarioError,
    asset_profiles,
    bundled_scenario_path,
    load_scenario,
    parse_scenario,
    resolve_vulnerability_records,
    scenario_to_dict,
)
from fuzrank.tfn import TFN

from golden_ratings import ACTIONS, POOLED_MATRIX


def minimal(**extra):
    doc = {"schema_version": "1"}
    doc.update(extra)
    return json.dumps(doc)


def errors_of(text, strict=False):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text, strict=strict)
    return exc.value.errors


# --- bundled scenario ----------------------------------------------------------

def test_bundled_scenario_strict_and_warning_free():
    scenario = load_scenario(bundled_scenario_path(), strict=True)
    assert scenario.warnings == ()
    assert scenario.actions == ("A1", "A2", "A3", "A4")
    assert [c.id for c in scenario.criteria] == ["C-1", "C-2", "C-3", "C-4"]
    assert [c.kind.value for c in scenario.criteria] == ["benefit", "benefit", "cost", "cost"]
    assert scenario.graph is not None and len(scenario.graph) == 18
    assert scenario.pairwise is not None and scenario.pairwise.n == 4
    assert len(scenario.vulnerabilities) == 6
    assert len(scenario.assets) == 6


def test_bundled_scenario_panel_aggregates_to_pooled_matrix():
    scenario = load_scenario(bundled_scenario_path())
    agg = aggregate_ratings(scenario.panel, scenario.scale)
    for i, action in enumerate(ACTIONS):
        for j, (a, b, c) in enumerate(POOLED_MATRIX[action]):
            cell = agg.cells[i][j]
            assert (cell.a, cell.c) == (a, c)
            assert cell.b == pytest.approx(b, abs=1e-9)


def test_bundled_graph_has_six_final_boxes_and_ran_target():
    scenario = load_scenario(bundled_scenario_path())
    finals = [n for n in scenario.graph.nodes.values() if n.kind.value == "final_step"]
    assert len(finals) == 6
    assert {n.cve for n in finals} == {
        "CVE-2019-15083", "CVE-2013-0375", "CVE-2019-16026",
        "CVE-2004-0415", "CVE-2002-0392", "CVE-2004-0417",
    }
    assert scenario.graph.targets == frozenset({"RAN-control"})


# --- structural validation -------------------------------------------------------

def test_empty_document_reports_missing_schema_version():
    assert any("missing schema_version" in e for e in errors_of("{}"))


def test_invalid_json_reported_with_root_path():
    assert any(e.startswith("$: invalid JSON") for e in errors_of("{nope"))


def test_unrecognized_schema_version():
    assert any(
        "unrecognized schema_version '99'" in e
        for e in errors_of(json.dumps({"schema_version": "99"}))
    )


def test_unknown_field_warns_lax_errors_strict():
    text = minimal(extra_field=1)
    scenario = parse_scenario(text)
    assert any("$.extra_field: unknown field" in w for w in scenario.warnings)
    errs = errors_of(text, strict=True)
    assert any("unknown field (strict mode)" in e for e in errs)


def test_rating_with_unknown_criterion_names_path_and_id():
    text = minimal(
        criteria=[{"id": "C-1"}],
        actions=["A1"],
        panel={
            "decision_makers": ["dm1"],
            "ratings": {"dm1": {"A1": {"C-9": "H", "C-1": "H"}}},
            "weights": {"dm1": {"C-1": "H"}},
        },
    )
    errs = errors_of(text)
    assert any("$.panel.ratings.dm1.A1.C-9" in e and "unknown criterion 'C-9'" in e for e in errs)


def test_rating_with_unknown_label():
    text = minimal(
        criteria=[{"id": "C-1"}],
        actions=["A1"],
        panel={
            "decision_makers": ["dm1"],
            "ratings": {"dm1": {"A1": {"C-1": "HUGE"}}},
            "weights": {"dm1": {"C-1": "H"}},
        },
    )
    errs = errors_of(text)
    assert any("label 'HUGE' not in the scale (VL, L, AV, H, VH)" in e for e in errs)


@pytest.mark.parametrize(
    "panel, expected",
    [
        (
            {"decision_makers": [], "ratings": {}, "weights": {}},
            ["$.panel.decision_makers: expected a nonempty list of rater names"],
        ),
        (
            {"decision_makers": ["dm1"], "ratings": {}, "weights": {"dm1": {"C-1": "H"}}},
            ["$.panel.ratings.dm1: missing rating grid for decision maker 'dm1'"],
        ),
        (
            {
                "decision_makers": ["dm1"],
                "ratings": {"dm1": {"A1": {"C-9": "H"}}},
                "weights": {"dm1": {"C-1": "H"}},
            },
            [
                "$.panel.ratings.dm1.A1.C-9: unknown criterion 'C-9'",
                "$.panel.ratings.dm1.A1: missing rating for criterion 'C-1'",
            ],
        ),
    ],
    ids=["no-raters", "no-grid", "row-misses-criterion"],
)
def test_panel_coverage_errors(panel, expected):
    text = minimal(criteria=[{"id": "C-1"}], actions=["A1"], panel=panel)
    assert errors_of(text) == expected


def test_scale_override_applies_to_labels():
    text = minimal(
        scale={"LO": [0, 0, 1], "HI": [1, 2, 2]},
        criteria=[{"id": "C-1"}],
        actions=["A1"],
        panel={
            "decision_makers": ["dm1"],
            "ratings": {"dm1": {"A1": {"C-1": "HI"}}},
            "weights": {"dm1": {"C-1": "LO"}},
        },
    )
    scenario = parse_scenario(text, strict=True)
    assert scenario.scale["HI"] == TFN(1, 2, 2)
    agg = aggregate_ratings(scenario.panel, scenario.scale)
    assert agg.cells[0][0] == TFN(1, 2, 2)


def test_scale_override_rejects_bad_triples():
    errs = errors_of(minimal(scale={"X": [3, 2, 1]}))
    assert any("$.scale.X" in e for e in errs)


def test_graph_errors_carry_graph_path():
    text = minimal(
        graph={
            "nodes": [{"id": "f", "kind": "final_step"}],
            "edges": [["f", "ghost"]],
            "targets": [],
        }
    )
    errs = errors_of(text)
    assert any(e.startswith("$.graph:") and "unknown destination node" in e for e in errs)


def test_repeated_scheme_code_rejected_even_lax():
    text = minimal(schemes=[{"code": "X", "description": "a"}, {"code": "X", "description": "b"}])
    assert errors_of(text) == ["$.schemes[1].code: duplicate scheme code 'X'"]


def test_criterion_layer_is_checked_but_changes_nothing():
    layered = parse_scenario(minimal(criteria=[{"id": "C-1", "layer": "indicator"}]), strict=True)
    plain = parse_scenario(minimal(criteria=[{"id": "C-1"}]), strict=True)
    assert layered.criteria == plain.criteria
    errs = errors_of(minimal(criteria=[{"id": "C-1", "layer": "leaf"}]))
    assert errs == [
        "$.criteria[0].layer: unknown layer 'leaf'; use 'target', 'criteria' or 'indicator'"
    ]


def test_pairwise_must_match_criteria_count():
    text = minimal(criteria=[{"id": "C-1"}, {"id": "C-2"}], pairwise=[[1.0]])
    errs = errors_of(text)
    assert any("1 rows but there are 2 criteria" in e for e in errs)


def test_pairwise_reciprocity_enforced():
    text = minimal(
        criteria=[{"id": "C-1"}, {"id": "C-2"}],
        pairwise=[[1.0, 2.0], [0.9, 1.0]],
    )
    errs = errors_of(text)
    assert any("$.pairwise" in e and "not reciprocal" in e for e in errs)


def test_decision_matrix_requires_full_grid():
    text = minimal(
        criteria=[{"id": "C-1"}, {"id": "C-2"}],
        actions=["A1"],
        decision_matrix={"A1": {"C-1": 3.0}},
    )
    errs = errors_of(text)
    assert any("missing value for criterion 'C-2'" in e for e in errs)


# --- vulnerabilities / assets -----------------------------------------------------

def test_vector_only_vulnerability_resolves_subscores():
    text = minimal(
        vulnerabilities=[
            {
                "cve": "CVE-1",
                "vector": "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H",
                "temporal_score": 8.0,
            }
        ]
    )
    v = parse_scenario(text, strict=True).vulnerability("CVE-1")
    assert v.impact_score == 5.9
    assert v.exploitability_score == 3.9
    assert v.explicit_scores is False


def test_explicit_scores_win_over_vector_with_warning():
    text = minimal(
        vulnerabilities=[
            {
                "cve": "CVE-1",
                "vector": "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H",
                "impact_score": 4.0,
                "exploitability_score": 2.0,
                "temporal_score": 3.0,
            }
        ]
    )
    scenario = parse_scenario(text)
    v = scenario.vulnerability("CVE-1")
    assert (v.impact_score, v.exploitability_score) == (4.0, 2.0)
    assert any("explicit subscores win" in w for w in scenario.warnings)
    # and strict mode refuses the ambiguity
    assert any("explicit subscores win" in e for e in errors_of(text, strict=True))


def test_missing_temporal_defaults_to_impact_with_warning():
    text = minimal(
        vulnerabilities=[{"cve": "CVE-1", "impact_score": 6.0, "exploitability_score": 2.0}]
    )
    scenario = parse_scenario(text)
    assert scenario.vulnerability("CVE-1").temporal_score == 6.0
    assert any("temporal_score" in w and "defaulting" in w for w in scenario.warnings)


def test_vulnerability_without_any_scores_rejected():
    errs = errors_of(minimal(vulnerabilities=[{"cve": "CVE-1"}]))
    assert any("needs either a CVSS 'vector' or explicit" in e for e in errs)


def test_bad_vector_rejected_with_path():
    errs = errors_of(
        minimal(vulnerabilities=[{"cve": "CVE-1", "vector": "CVSS:9.9/AV:N"}])
    )
    assert any("$.vulnerabilities[0].vector" in e and "unsupported CVSS version" in e for e in errs)


def test_asset_with_unknown_cve_rejected():
    text = minimal(
        vulnerabilities=[
            {"cve": "CVE-1", "impact_score": 5, "exploitability_score": 5, "temporal_score": 5}
        ],
        assets=[{"id": "host", "vulnerabilities": ["CVE-2"]}],
    )
    errs = errors_of(text)
    assert any("$.assets[0].vulnerabilities[0]" in e and "CVE-2" in e for e in errs)


def test_asset_service_counts_validated():
    errs = errors_of(minimal(assets=[{"id": "host", "services_on_asset": 5,
                                      "network_services_total": 2}]))
    assert any("between 0 and network_services_total" in e for e in errs)


def test_resolve_records_explicit_cost_and_linked_action():
    text = minimal(
        actions=["A1"],
        criteria=[{"id": "C-1"}],
        vulnerabilities=[
            {"cve": "CVE-1", "impact_score": 5, "exploitability_score": 5,
             "temporal_score": 5, "atc_cost": 0.7},
            {"cve": "CVE-2", "impact_score": 5, "exploitability_score": 5,
             "temporal_score": 5, "action": "A1"},
        ],
    )
    scenario = parse_scenario(text, strict=True)
    records = resolve_vulnerability_records(scenario, action_costs={"A1": 0.25})
    assert records["CVE-1"].atc_cost == 0.7
    assert records["CVE-2"].atc_cost == 0.25
    with pytest.raises(ValueError, match="CVE-2 has no atc_cost"):
        resolve_vulnerability_records(scenario)


def test_asset_profiles_bridge():
    scenario = load_scenario(bundled_scenario_path())
    records = resolve_vulnerability_records(
        scenario, action_costs={a: 0.5 for a in scenario.actions}
    )
    profiles = asset_profiles(scenario, records)
    assert len(profiles) == 6
    ran = next(p for p in profiles if p.asset_id == "RAN")
    assert ran.vulnerabilities[0].cve == "CVE-2004-0417"


# --- round trip --------------------------------------------------------------------

def test_roundtrip_bundled_scenario():
    scenario = load_scenario(bundled_scenario_path(), strict=True)
    redone = parse_scenario(json.dumps(scenario_to_dict(scenario)), strict=True)
    assert redone == scenario


def test_roundtrip_with_override_scale_and_extras():
    text = minimal(
        title="roundtrip",
        scale={"LO": [0, 0, 1], "HI": [1, 2, 2]},
        schemes=[{"code": "X", "description": "example extra scheme"}],
        criteria=[{"id": "C-1", "kind": "cost", "weight": 0.5},
                  {"id": "C-2", "weight": "HI"}],
        actions=["A1", "A2"],
        decision_matrix={"A1": {"C-1": 1.5, "C-2": 2.0}, "A2": {"C-1": 0.5, "C-2": 1.0}},
        vulnerabilities=[{"cve": "CVE-1", "impact_score": 5.0, "exploitability_score": 5.0,
                          "temporal_score": 5.0, "atc_cost": 0.4}],
        assets=[{"id": "host", "services_on_asset": 1, "network_services_total": 3,
                 "vulnerabilities": ["CVE-1"]}],
    )
    first = parse_scenario(text, strict=True)
    second = parse_scenario(json.dumps(scenario_to_dict(first)), strict=True)
    assert second == first
    assert second.criteria[0].kind is CriterionKind.COST


# --- fuzzing ---------------------------------------------------------------------

def _locations(node, path=()):
    """Every value in a JSON document, as the key path that reaches it."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _locations(child, path + (key,))


BUNDLED = json.loads(bundled_scenario_path().read_text())
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(list(_locations(BUNDLED))), JSON_VALUES)
def test_one_replaced_value_is_parsed_or_rejected(location, value):
    """Replace one value or subtree of the bundled scenario with any JSON
    value: the parser accepts the result or raises ScenarioError, and an
    accepted scenario exports to DOT and serializes to a document that
    parses back to it."""
    doc = json.loads(json.dumps(BUNDLED))
    if location:
        parent = doc
        for key in location[:-1]:
            parent = parent[key]
        parent[location[-1]] = value
    else:
        doc = value
    try:
        scenario = parse_scenario(json.dumps(doc))
    except ScenarioError:
        return
    if scenario.graph is not None:
        export_dot(scenario.graph)
    assert parse_scenario(json.dumps(scenario_to_dict(scenario))) == scenario
