import json
import math
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fuzrank.fuzzy import aggregate_ratings
from fuzrank.graph import export_dot
from fuzrank.scenario import (
    TFN,
    ScenarioError,
    asset_profiles,
    parse_scenario,
    resolve_vulnerability_records,
)
from fuzrank.veability import exploitability_dim

from golden_ratings import ACTIONS, POOLED_MATRIX

SCENARIO = files("fuzrank") / "data" / "paper_s4.json"
BUNDLED_TEXT = SCENARIO.read_text(encoding="utf-8")


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
    scenario = parse_scenario(BUNDLED_TEXT, strict=True)
    assert scenario.warnings == ()
    assert scenario.actions == ("A1", "A2", "A3", "A4")
    assert [c.id for c in scenario.criteria] == ["C-1", "C-2", "C-3", "C-4"]
    assert [c.kind.value for c in scenario.criteria] == ["benefit", "benefit", "cost", "cost"]
    assert scenario.graph is not None and len(scenario.graph.nodes) == 18
    assert scenario.pairwise is not None and len(scenario.pairwise) == 4
    assert len(scenario.vulnerabilities) == 6
    assert len(scenario.assets) == 6


def test_bundled_scenario_panel_aggregates_to_pooled_matrix():
    scenario = parse_scenario(BUNDLED_TEXT)
    agg = aggregate_ratings(scenario.panel, scenario.scale)
    for i, action in enumerate(ACTIONS):
        for j, (a, b, c) in enumerate(POOLED_MATRIX[action]):
            cell = agg.cells[i][j]
            assert (cell.a, cell.c) == (a, c)
            assert cell.b == pytest.approx(b, abs=1e-9)


def test_bundled_graph_has_six_final_boxes_and_ran_target():
    scenario = parse_scenario(BUNDLED_TEXT)
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
        (
            {
                "decision_makers": ["dm1", "dm2", "dm3"],
                "ratings": {
                    "dm1": {"A1": {"C-1": "H"}},
                    "dm2": {"A9": {"C-1": "H"}, "A1": {"C-1": "L"}},
                    "dm3": {"A1": {"C-1": "VH"}},
                },
                "weights": {"dm1": {"C-1": "H"}, "dm2": {"C-1": "H"}, "dm3": {"C-1": "H"}},
            },
            ["$.panel.ratings.dm2.A9: unknown action 'A9'"],
        ),
        (
            {
                "decision_makers": ["dm1", "dm2"],
                "ratings": {"dm1": {"A1": {"C-1": "H"}}, "dm2": {}},
                "weights": {"dm1": {"C-1": "H"}, "dm2": {"C-1": "H"}},
            },
            ["$.panel.ratings.dm2.A1: missing ratings for action 'A1'"],
        ),
        (
            {
                "decision_makers": ["dm1", "dm2"],
                "ratings": {"dm1": {"A1": ["H"]}, "dm2": {"A1": {"C-1": "H"}}},
                "weights": {"dm1": {"C-1": "H"}, "dm2": ["H"]},
            },
            [
                "$.panel.ratings.dm1.A1: missing ratings for action 'A1'",
                "$.panel.weights.dm2: missing criterion weight labels for decision maker 'dm2'",
            ],
        ),
        (
            {
                "decision_makers": ["dm1", "dm2"],
                "ratings": {"dm1": {"A1": {"C-1": "H"}}, "dm2": {"A1": {"C-1": 3}}},
                "weights": {"dm1": {"C-1": None}, "dm2": {"C-1": ["H"]}},
            },
            [
                "$.panel.ratings.dm2.A1.C-1: label 3 not in the scale (VL, L, AV, H, VH)",
                "$.panel.weights.dm1.C-1: label None not in the scale (VL, L, AV, H, VH)",
                "$.panel.weights.dm2.C-1: label ['H'] not in the scale (VL, L, AV, H, VH)",
            ],
        ),
        (
            {
                "decision_makers": ["dm1", "dm2"],
                "ratings": {
                    "ghost": {"A1": {"C-1": "H"}},
                    "dm1": {"A1": {"C-1": "H"}},
                    "dm2": {"A1": {"C-1": "L"}},
                },
                "weights": {"dm1": {"C-1": "H"}, "dm2": {"C-1": "H"}},
            },
            ["$.panel.ratings.ghost: rating grid for undeclared rater 'ghost'"],
        ),
        (
            {
                "decision_makers": ["dm1", "dm2", "dm3"],
                "ratings": {
                    "dm1": {"A1": {"C-1": "H"}},
                    "dm2": {"A9": 1, "A1": {"C-9": "H", "C-1": True}, "A8": {}},
                    "zed": None,
                },
                "weights": {"dm1": {"C-1": "H"}, "dm2": {}, "dm3": {"C-1": "VL", "C-2": "L"}},
            },
            [
                "$.panel.ratings.dm2.A9: unknown action 'A9'",
                "$.panel.ratings.dm2.A8: unknown action 'A8'",
                "$.panel.ratings.dm2.A1.C-9: unknown criterion 'C-9'",
                "$.panel.ratings.dm2.A1.C-1: label True not in the scale (VL, L, AV, H, VH)",
                "$.panel.ratings.dm3: missing rating grid for decision maker 'dm3'",
                "$.panel.ratings.zed: rating grid for undeclared rater 'zed'",
                "$.panel.weights.dm2: missing weight label for criterion 'C-1'",
                "$.panel.weights.dm3.C-2: unknown criterion 'C-2'",
            ],
        ),
    ],
    ids=[
        "no-raters", "no-grid", "row-misses-criterion", "unknown-action", "missing-row",
        "list-rows", "non-string-labels", "undeclared-rater", "one-grid-many-errors",
    ],
)
def test_panel_coverage_errors(panel, expected):
    text = minimal(criteria=[{"id": "C-1"}], actions=["A1"], panel=panel)
    assert errors_of(text) == expected


@pytest.mark.parametrize("strict", [False, True])
def test_weights_for_undeclared_rater_rejected(strict):
    text = minimal(
        criteria=[{"id": "C1"}, {"id": "C2"}],
        actions=["A1"],
        panel={
            "decision_makers": ["d1"],
            "ratings": {"d1": {"A1": {"C1": "H", "C2": "L"}}},
            "weights": {"d1": {"C1": "H", "C2": "AV"}, "ghost": {"C1": "VL", "C2": 7}},
        },
    )
    assert errors_of(text, strict=strict) == [
        "$.panel.weights.ghost: criterion weight labels for undeclared rater 'ghost'"
    ]


def test_scale_override_applies_to_labels():
    text = minimal(
        scale={"LO": [0, 0, 1], "HI": [1, 2, 2], "CRISP": [2, 2, 2]},
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
    assert scenario.scale["CRISP"] == (2.0, 2.0, 2.0)  # a degenerate triple is a crisp value
    agg = aggregate_ratings(scenario.panel, scenario.scale)
    assert agg.cells[0][0] == TFN(1, 2, 2)


def test_scale_override_rejects_bad_triples():
    # TFN itself does not check; the parser is where a <= b <= c is checked
    assert errors_of(minimal(scale={"X": [3, 2, 1]})) == [
        "$.scale.X: TFN components must satisfy a <= b <= c, got (3.0, 2.0, 1.0)",
        "$.scale: scale override has no valid entries",
    ]
    assert errors_of(minimal(scale={})) == ["$.scale: scale override has no valid entries"]


def test_scale_override_rejects_negative_components():
    # Chen's fuzzy TOPSIS is defined on positive TFNs
    assert errors_of(minimal(scale={"N": [-2, -1, 1], "P": [1, 2, 3]})) == [
        "$.scale.N[0]: value -2.0 outside [0, inf)",
        "$.scale.N[1]: value -1.0 outside [0, inf)",
    ]


def test_graph_errors_carry_graph_path():
    text = minimal(
        graph={
            "nodes": [{"id": "f", "kind": "final_step"}],
            "edges": [["f", "ghost"]],
            "targets": [],
        }
    )
    # an unknown edge end is located at its edge; what only the whole graph
    # shows (here: f unreachable) keeps the bare $.graph path
    assert errors_of(text) == [
        "$.graph.edges[0]: edge ('f' -> 'ghost'): unknown destination node",
        "$.graph: final-step node 'f' is unreachable from any configuration node",
    ]


def test_mistyped_node_kind_is_the_only_graph_error():
    # a node whose kind is unknown is dropped, with its edges; its id is still
    # declared, so its edges and targets are not unknown, and the whole-graph
    # checks do not run on what is left
    c, f = {"id": "c", "kind": "config"}, {"id": "f", "kind": "final_step"}
    kind_error = (
        "$.graph.nodes[0].kind: unknown node kind 'config'; "
        "use one of configuration, attack_step, privilege, final_step"
    )
    assert errors_of(minimal(graph={"nodes": [c, f], "edges": [["c", "f"]], "targets": ["f"]})) == [
        kind_error
    ]
    text = minimal(
        graph={"nodes": [c, f], "edges": [["c", "f"], ["f", "ghost"]], "targets": ["c", "h"]}
    )
    assert errors_of(text) == [
        kind_error,
        "$.graph.edges[1]: edge ('f' -> 'ghost'): unknown destination node",
        "$.graph.targets[1]: target 'h' is not a node in the graph",
    ]


def test_repeated_ids_unknown_edge_ends_and_targets_are_located():
    c, f = {"id": "c", "kind": "configuration"}, {"id": "f", "kind": "final_step"}
    text = minimal(
        graph={"nodes": [c, c, f], "edges": [["c", "f"], ["c", "g"]], "targets": ["f", "h"]}
    )
    assert errors_of(text) == [
        "$.graph.nodes[1].id: duplicate node id 'c'",
        "$.graph.edges[1]: edge ('c' -> 'g'): unknown destination node",
        "$.graph.targets[1]: target 'h' is not a node in the graph",
    ]
    # an unknown source is named first; a repeat of an unknown edge or
    # target only warns, as any repeat does
    text = minimal(
        graph={"nodes": [c, f], "edges": [["c", "f"], ["x", "g"], ["x", "g"]],
               "targets": ["h", "h"]}
    )
    assert errors_of(text) == [
        "$.graph.edges[1]: edge ('x' -> 'g'): unknown source node",
        "$.graph.targets[0]: target 'h' is not a node in the graph",
    ]
    assert errors_of(text, strict=True) == [
        "$.graph.edges[1]: edge ('x' -> 'g'): unknown source node",
        "$.graph.edges[2]: duplicate edge 'x' -> 'g' (strict mode)",
        "$.graph.targets[0]: target 'h' is not a node in the graph",
        "$.graph.targets[1]: duplicate target 'h' (strict mode)",
    ]


def test_duplicate_edges_and_targets_warn_lax_and_error_strict():
    text = minimal(
        graph={
            "nodes": [{"id": "c", "kind": "configuration"}, {"id": "s", "kind": "attack_step"},
                      {"id": "f", "kind": "final_step"}],
            "edges": [["c", "s"], ["s", "f"], ["c", "s"], ["s", "f"]],
            "targets": ["f", "f"],
        }
    )
    expected = [
        "$.graph.edges[2]: duplicate edge 'c' -> 's'",
        "$.graph.edges[3]: duplicate edge 's' -> 'f'",
        "$.graph.targets[1]: duplicate target 'f'",
    ]
    scenario = parse_scenario(text)
    assert list(scenario.warnings) == expected
    assert scenario.graph.edges == {("c", "s"), ("s", "f")}
    assert scenario.graph.targets == {"f"}
    assert errors_of(text, strict=True) == [f"{e} (strict mode)" for e in expected]


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


def _numpy_pairwise_rules(cells):
    """The pairwise matrix rules as numpy checked them before the parser
    stated them: the message of the first rule `cells` breaks, or None."""
    m = np.asarray(cells, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return f"pairwise matrix must be square, got shape {m.shape}"
    if not np.isfinite(m).all():
        return "pairwise matrix entries must be finite"
    if not (m > 0).all():
        return "pairwise matrix entries must all be positive"
    if not (abs(m.diagonal() - 1.0) <= 1e-9).all():
        return "pairwise matrix diagonal must be all ones"
    with np.errstate(over="ignore"):
        product = m * m.T
    if not (abs(product - 1.0) <= 1e-9).all():
        return "pairwise matrix is not reciprocal (cells[j][i] != 1/cells[i][j])"
    return None


# within, at and just past the 1e-9 borders of the diagonal and reciprocal rules
NEAR_ONE = st.sampled_from(
    [1.0, 1 + 1e-9, 1 - 1e-9, 1 + 1.0000001e-9, 1 - 1.0000001e-9, 1 + 5e-10, 1 - 5e-10]
) | st.floats(1 - 3e-9, 1 + 3e-9)
# subnormals, and cells whose products overflow
POSITIVE_CELL = NEAR_ONE | st.sampled_from(
    [5e-324, 1e-310, 1e-154, 1e154, 1e308, 1.7976931348623157e308]
) | st.floats(5e-324, 1.7976931348623157e308)
PAIRWISE_CELL = POSITIVE_CELL | st.sampled_from([0.0, -0.0, -1.0]) | st.floats(-10, 0)


@st.composite
def pairwise_matrices(draw):
    """A square matrix of 0-4 rows of finite floats. Per matrix it is drawn
    whether cells may be zero or negative, whether the diagonal is all 1,
    near 1 or any cell, and whether a lower cell may be any cell rather than
    the upper cell's reciprocal, exact or off by a factor near 1; so each
    rule is met as well as broken."""
    n = draw(st.integers(0, 4))
    cell = draw(st.sampled_from([POSITIVE_CELL, POSITIVE_CELL, PAIRWISE_CELL]))
    diagonal = draw(st.sampled_from([st.just(1.0), st.just(1.0), NEAR_ONE, cell]))
    any_lower = draw(st.booleans())
    cells = [[1.0] * n for _ in range(n)]
    for i in range(n):
        cells[i][i] = draw(diagonal)
        for j in range(i + 1, n):
            x = cells[i][j] = draw(cell)
            recip = 1 / x if x else 0.0
            recip = recip if math.isfinite(recip) else 1.7976931348623157e308
            off = recip * draw(NEAR_ONE)
            lower = st.sampled_from([recip, off if math.isfinite(off) else recip])
            cells[j][i] = draw(lower | cell if any_lower else lower)
    return cells


@settings(max_examples=500)
@given(pairwise_matrices())
def test_pairwise_rules_match_the_numpy_reference(cells):
    """The parser accepts a square matrix of finite cells, one row per
    criterion, exactly when the numpy checks it replaced do, and refuses it
    with their message. With no rows there is no criterion, which the parser
    refuses first."""
    text = minimal(criteria=[{"id": f"C-{i}"} for i in range(len(cells))], pairwise=cells)
    expected = _numpy_pairwise_rules(cells) if cells else (
        "a pairwise matrix requires a nonempty top-level 'criteria' list")
    if expected is None:
        assert parse_scenario(text).pairwise == tuple(map(tuple, cells))
    else:
        assert errors_of(text) == [f"$.pairwise: {expected}"]


ROW = {"C-1": 1, "C-2": 2.5}


@pytest.mark.parametrize(
    "matrix, expected",
    [
        (
            {"A1": ROW, "A2": ROW, "A9": ROW},
            ["$.decision_matrix.A9: unknown action 'A9'"],
        ),
        ({"A1": ROW}, ["$.decision_matrix.A2: missing row for action 'A2'"]),
        (
            {"A1": [1, 2.5], "A2": None},
            [
                "$.decision_matrix.A1: missing row for action 'A1'",
                "$.decision_matrix.A2: missing row for action 'A2'",
            ],
        ),
        (
            {"A1": {**ROW, "C-9": 3}, "A2": ROW},
            ["$.decision_matrix.A1.C-9: unknown criterion 'C-9'"],
        ),
        (
            {"A1": {"C-1": 3.0}, "A2": ROW},
            ["$.decision_matrix.A1: missing value for criterion 'C-2'"],
        ),
        (
            {"A1": ROW, "A2": {"C-1": True, "C-2": 1}},
            ["$.decision_matrix.A2.C-1: expected a number, got bool"],
        ),
        (
            {"A1": {"C-1": 1, "C-2": "3"}, "A2": ROW},
            ["$.decision_matrix.A1.C-2: expected a number, got str"],
        ),
        (
            {"A1": {"C-1": -1, "C-2": 1}, "A2": ROW},
            ["$.decision_matrix.A1.C-1: value -1.0 outside [0, inf)"],
        ),
        (
            {"A1": ROW, "A2": {"C-1": 1, "C-2": 10**400}},
            ["$.decision_matrix.A2.C-2: expected a finite number, got inf"],
        ),
        (
            {"A1": ROW, "A2": {"C-1": float("nan"), "C-2": 1}},
            ["$.decision_matrix.A2.C-1: expected a finite number, got nan"],
        ),
        (
            {
                "A0": 1,
                "A1": {"C-9": 1, "C-2": None},
                "A9": ROW,
                "A2": {"C-2": -0.5, "C-1": [1]},
            },
            [
                "$.decision_matrix.A0: unknown action 'A0'",
                "$.decision_matrix.A9: unknown action 'A9'",
                "$.decision_matrix.A1.C-9: unknown criterion 'C-9'",
                "$.decision_matrix.A1: missing value for criterion 'C-1'",
                "$.decision_matrix.A1.C-2: expected a number, got NoneType",
                "$.decision_matrix.A2.C-1: expected a number, got list",
                "$.decision_matrix.A2.C-2: value -0.5 outside [0, inf)",
            ],
        ),
    ],
    ids=[
        "unknown-action", "missing-row", "list-and-null-rows", "unknown-criterion",
        "requires-full-grid", "bool", "string", "negative", "int-1e400", "nan", "many-errors",
    ],
)
def test_decision_matrix_errors(matrix, expected):
    text = minimal(
        criteria=[{"id": "C-1"}, {"id": "C-2"}], actions=["A1", "A2"], decision_matrix=matrix
    )
    assert errors_of(text) == expected


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
    (v,) = parse_scenario(text, strict=True).vulnerabilities
    assert v.impact_score == 5.9
    assert v.exploitability_score == 3.9


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
    (v,) = scenario.vulnerabilities
    assert (v.impact_score, v.exploitability_score) == (4.0, 2.0)
    assert any("explicit subscores win" in w for w in scenario.warnings)
    # and strict mode refuses the ambiguity
    assert any("explicit subscores win" in e for e in errors_of(text, strict=True))


def test_missing_temporal_defaults_to_impact_with_warning():
    text = minimal(
        vulnerabilities=[{"cve": "CVE-1", "impact_score": 6.0, "exploitability_score": 2.0}]
    )
    scenario = parse_scenario(text)
    assert scenario.vulnerabilities[0].temporal_score == 6.0
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


VULN = {"cve": "C", "impact_score": 5, "exploitability_score": 5, "temporal_score": 5}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"vulnerabilities": [{**VULN, "impact_score": 11}]},
         "$.vulnerabilities[0].impact_score: value 11.0 outside [0, 10]"),
        ({"vulnerabilities": [{**VULN, "exploitability_score": -1}]},
         "$.vulnerabilities[0].exploitability_score: value -1.0 outside [0, 10]"),
        ({"vulnerabilities": [{**VULN, "temporal_score": 10.5}]},
         "$.vulnerabilities[0].temporal_score: value 10.5 outside [0, 10]"),
        ({"vulnerabilities": [{**VULN, "atc_cost": 1.2}]},
         "$.vulnerabilities[0].atc_cost: value 1.2 outside [0, 1]"),
        ({"assets": [{"id": "h", "network_services_total": 0}]},
         "$.assets[0].network_services_total: must be at least 1"),
        ({"assets": [{"id": "h", "services_on_asset": -1, "network_services_total": 2}]},
         "$.assets[0].services_on_asset: must be between 0 and network_services_total (2)"),
        ({"assets": [{"id": "h", "services_on_asset": 10**400, "network_services_total": 10**400}]},
         "$.assets[0].network_services_total: must be at most 2**53 (9007199254740992)"),
        ({"assets": [{"id": "h", "services_on_asset": 10**308, "network_services_total": 10**308}]},
         "$.assets[0].network_services_total: must be at most 2**53 (9007199254740992)"),
    ],
    ids=[
        "impact", "exploitability", "temporal", "atc-cost", "services-total", "services",
        "services-int-1e400", "services-int-1e308",
    ],
)
def test_veability_ranges_checked_by_parser(doc, message):
    """The scoring records do not check their ranges; the parser does, one
    document per rule since it skips the rest of a vulnerability after its
    first range error."""
    assert errors_of(minimal(**doc)) == [message]


def test_service_counts_up_to_2_53_keep_the_pooled_exploitability():
    n = 2**53
    asset = {"id": "h", "services_on_asset": n, "network_services_total": n,
             "vulnerabilities": ["C"]}
    (profile,) = parse_scenario(minimal(vulnerabilities=[VULN], assets=[asset])).assets
    assert exploitability_dim(profile) == 5.0


def test_asset_repeating_a_vulnerability_rejected():
    text = minimal(vulnerabilities=[VULN], assets=[{"id": "h", "vulnerabilities": ["C", "C"]}])
    assert errors_of(text) == [
        "$.assets[0].vulnerabilities[1]: duplicate vulnerability reference 'C'"
    ]


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
        assets=[{"id": "h", "vulnerabilities": ["CVE-2", "CVE-1"]}],
    )
    scenario = parse_scenario(text, strict=True)
    records = resolve_vulnerability_records(scenario, action_costs={"A1": 0.25})
    assert records["CVE-1"] is scenario.vulnerabilities[0]  # already costed
    assert records["CVE-1"].atc_cost == 0.7
    assert records["CVE-2"].atc_cost == 0.25
    (profile,) = asset_profiles(scenario, records)
    assert [v.atc_cost for v in profile.vulnerabilities] == [0.25, 0.7]
    assert scenario.assets[0].vulnerabilities[0].atc_cost is None
    with pytest.raises(ValueError, match="CVE-2 has no atc_cost"):
        resolve_vulnerability_records(scenario)


def test_asset_profiles_bridge():
    scenario = parse_scenario(BUNDLED_TEXT)
    records = resolve_vulnerability_records(
        scenario, action_costs={a: 0.5 for a in scenario.actions}
    )
    profiles = asset_profiles(scenario, records)
    assert len(profiles) == 6
    ran = next(p for p in profiles if p.asset_id == "RAN")
    assert ran.vulnerabilities[0].cve == "CVE-2004-0417"


# --- fuzzing ---------------------------------------------------------------------

def _locations(node, path=()):
    """Every value in a JSON document, as the key path that reaches it."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _locations(child, path + (key,))


BUNDLED = json.loads(BUNDLED_TEXT)
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
    accepted scenario exports to DOT."""
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


SCALE_LABELS = ["VL", "L", "AV", "H", "VH"]
NEW_KEYS = ["dm0", "dm9", "A0", "A9", "C0", "C9"]
# fresh lists and objects each draw, since later edits may write into them
NOT_A_CONTAINER = st.sampled_from(["H", None]) | st.builds(lambda: ["H"])
BAD_LABELS = (
    st.sampled_from([3, True, None, "HUGE", "vh"]) | st.builds(lambda: ["H"]) | st.builds(dict)
)


def _edit_grid(draw, roots, good, bad):
    """One edit inside the keyed grids `roots`: a row or cell replaced by a
    non-object or a `bad` cell, or a key added (with a `good` cell or a
    non-object) or deleted, in any object below them."""
    objects, stack = [], list(roots)
    while stack:
        obj = stack.pop()
        if isinstance(obj, dict):
            objects.append(obj)
            stack.extend(obj.values())
    obj = draw(st.sampled_from(objects))
    edit = draw(st.sampled_from(["replace", "add", "delete", "label"]))
    if edit == "add":
        obj[draw(st.sampled_from(NEW_KEYS))] = draw(good | NOT_A_CONTAINER)
    elif obj and edit == "delete":
        del obj[draw(st.sampled_from(list(obj)))]
    elif obj:
        value = NOT_A_CONTAINER if edit == "replace" else bad
        obj[draw(st.sampled_from(list(obj)))] = draw(value)


@st.composite
def panel_documents(draw):
    """A well-formed k x m x n panel, each of k, m, n in 1..3, with 0-3 edits."""
    k, m, n = (draw(st.integers(1, 3)) for _ in range(3))
    raters = [f"dm{i}" for i in range(k)]
    actions = [f"A{i}" for i in range(m)]
    crits = [f"C{j}" for j in range(n)]
    label = st.sampled_from(SCALE_LABELS)
    panel = {
        "decision_makers": raters,
        "ratings": {r: {a: {c: draw(label) for c in crits} for a in actions} for r in raters},
        "weights": {r: {c: draw(label) for c in crits} for r in raters},
    }
    for _ in range(draw(st.integers(0, 3))):
        _edit_grid(draw, [panel["ratings"], panel["weights"]], label, BAD_LABELS)
    return {
        "schema_version": "1",
        "criteria": [{"id": c} for c in crits],
        "actions": actions,
        "panel": panel,
    }


def _oracle_codes(doc):
    """Each cell's label index, looked up one cell at a time, or None unless
    the panel holds exactly the raters' grids of the actions' rows of the
    criteria's labels, all from the scale."""
    raters, actions = doc["panel"]["decision_makers"], doc["actions"]
    crits = [c["id"] for c in doc["criteria"]]
    ratings, weights = doc["panel"]["ratings"], doc["panel"]["weights"]

    def row_codes(row):
        if not isinstance(row, dict) or set(row) != set(crits):
            return None
        if not all(isinstance(row[c], str) and row[c] in SCALE_LABELS for c in crits):
            return None
        return [SCALE_LABELS.index(row[c]) for c in crits]

    if set(ratings) != set(raters) or set(weights) != set(raters):
        return None
    grids = [ratings[r] for r in raters]
    if not all(isinstance(grid, dict) and set(grid) == set(actions) for grid in grids):
        return None
    rating_codes = [[row_codes(grid[a]) for a in actions] for grid in grids]
    weight_codes = [row_codes(weights[r]) for r in raters]
    if None in weight_codes or any(None in rows for rows in rating_codes):
        return None
    return rating_codes, weight_codes


@settings(max_examples=400, suppress_health_check=[HealthCheck.too_slow])
@given(panel_documents())
def test_panel_decode_matches_per_cell_oracle(doc):
    """The parser accepts exactly the panels the per-cell oracle decodes, with
    the same codes, and says why it refused any other under $.panel."""
    expected = _oracle_codes(doc)
    try:
        scenario = parse_scenario(json.dumps(doc))
    except ScenarioError as exc:
        assert expected is None
        assert any(e.startswith("$.panel") for e in exc.errors)
        return
    panel = scenario.panel
    assert panel is not None and expected is not None
    assert (panel.rating_codes.tolist(), panel.weight_codes.tolist()) == expected


CELL_VALUES = [0, -0.0, 1, 2.5, 2**53 + 1, 1e308]
BAD_CELLS = st.sampled_from(
    [-1, -0.5, 10**400, float("nan"), float("inf"), True, None, "3"]
) | st.builds(lambda: [1]) | st.builds(dict)


@st.composite
def matrix_documents(draw):
    """A well-formed m x n decision matrix, each of m, n in 1..3, with 0-3 edits."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    actions = [f"A{i}" for i in range(m)]
    crits = [f"C{j}" for j in range(n)]
    value = st.sampled_from(CELL_VALUES)
    matrix = {a: {c: draw(value) for c in crits} for a in actions}
    for _ in range(draw(st.integers(0, 3))):
        _edit_grid(draw, [matrix], value, BAD_CELLS)
    return {
        "schema_version": "1",
        "criteria": [{"id": c} for c in crits],
        "actions": actions,
        "decision_matrix": matrix,
    }


def _oracle_cell(x):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return None
    try:
        x = float(x)
    except OverflowError:  # an integer past the float range
        return None
    return x if math.isfinite(x) and x >= 0 else None


def _oracle_cells(doc):
    """Each cell as float(x), read one cell at a time, or None unless the
    matrix holds exactly the actions' rows of the criteria's cells, each a
    nonnegative finite number."""
    actions, crits = doc["actions"], [c["id"] for c in doc["criteria"]]
    matrix = doc["decision_matrix"]
    if set(matrix) != set(actions):
        return None
    rows = []
    for a in actions:
        row = matrix[a]
        if not isinstance(row, dict) or set(row) != set(crits):
            return None
        rows.append([_oracle_cell(row[c]) for c in crits])
    return None if any(None in row for row in rows) else rows


@settings(max_examples=400, suppress_health_check=[HealthCheck.too_slow])
@given(matrix_documents())
def test_decision_matrix_decode_matches_per_cell_oracle(doc):
    """The parser accepts exactly the matrices the per-cell oracle reads, with
    the same cells, and says why it refused any other under $.decision_matrix."""
    expected = _oracle_cells(doc)
    try:
        scenario = parse_scenario(json.dumps(doc))
    except ScenarioError as exc:
        assert expected is None
        assert any(e.startswith("$.decision_matrix") for e in exc.errors)
        return
    matrix = scenario.decision_matrix
    assert matrix is not None and expected is not None
    # repr also tells -0.0 from 0.0, and an int from a float
    assert repr(matrix) == repr(tuple(map(tuple, expected)))
