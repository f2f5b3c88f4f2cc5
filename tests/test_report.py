import json
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fuzrank.classic import ActionRanking, RankingResult
from fuzrank.report import REPORT_VERSION, RunReport
from fuzrank.veability import AssetScore


def reference_doc(report):
    """The report's JSON document as plain dicts and lists, for json.dumps."""
    doc = {
        "report_version": REPORT_VERSION,
        "tool_version": report.tool_version,
        "scenario_fingerprint": report.scenario_fingerprint,
        "warnings": list(report.warnings),
    }
    if report.rankings:
        doc["rankings"] = [
            {
                "engine": r.engine,
                "cost_definition": r.cost_definition,
                "cost_orientation": r.cost_orientation,
                "minimum_effort_action": r.minimum_effort_action,
                "actions": [
                    {
                        "action": e.action,
                        "d_plus": e.d_plus,
                        "d_minus": e.d_minus,
                        "cost": e.cost,
                        "benefit": e.benefit,
                        "rank": e.rank,
                    }
                    for e in r.entries
                ],
            }
            for r in report.rankings
        ]
    if report.assets:
        doc["assets"] = [
            {
                "asset": a.asset_id,
                "V": a.vulnerability,
                "E": a.exploitability,
                "A": a.attackability,
                "veability": a.veability,
            }
            for a in report.assets
        ]
    return doc


def reference_json(report):
    return json.dumps(reference_doc(report), indent=2, allow_nan=False) + "\n"


# quotes, backslashes, control characters, non-ASCII and astral characters
TEXT = st.text(st.sampled_from('"\\\x00\x08\x1f\x7f\n\t/é€ \U0001f600') | st.characters())
FLOAT = st.sampled_from([-0.0, 5e-324, 1e16, 1.7976931348623157e308]) | st.floats(
    allow_nan=False, allow_infinity=False
)
SCORE = st.sampled_from([-0.0, 5e-324, 10.0]) | st.floats(0, 10)

ENTRY = st.builds(ActionRanking, TEXT, FLOAT, FLOAT, FLOAT, FLOAT, st.integers())
RANKING = st.builds(
    RankingResult, TEXT, TEXT, TEXT, st.lists(ENTRY, min_size=1, max_size=5).map(tuple)
)
ASSET = st.builds(AssetScore, TEXT, SCORE, SCORE, SCORE, SCORE)
REPORT = st.builds(
    RunReport,
    TEXT,
    TEXT,
    rankings=st.lists(RANKING, max_size=2).map(tuple),
    assets=st.lists(ASSET, max_size=3).map(tuple),
    warnings=st.lists(TEXT, max_size=3).map(tuple),
)


def paper_like_report():
    entries = (
        ActionRanking("A1", 0.1, 0.2, 1 / 3, 2 / 3, 2),
        ActionRanking("A2", 0.3, 0.05, 0.3 / 0.35, 0.05 / 0.35, 1),
    )
    return RunReport(
        "sha256:00",
        "1.0.0",
        rankings=(RankingResult("classic", "d_plus / (d_plus + d_minus)", "lower", entries),),
        assets=(AssetScore("hss", 4.15, 0.48, 4.9, 6.8),),
        warnings=("scale override: label 'N' unused",),
    )


@example(paper_like_report())
@given(REPORT)
def test_json_is_the_stdlib_layout(report):
    assert report.to_json() == reference_json(report)


def test_render_refuses_an_unknown_format():
    message = r"^unknown report format 'xml'; use one of table, json, csv$"
    with pytest.raises(ValueError, match=message):
        paper_like_report().render("xml")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["d_plus", "d_minus", "cost", "benefit"])
def test_json_refuses_non_finite_floats(field, value):
    report = paper_like_report()
    ranking = report.rankings[0]
    entries = (ranking.entries[0], ranking.entries[1]._replace(**{field: value}))
    bad = ranking._replace(entries=entries)
    with pytest.raises(ValueError, match="not JSON compliant"):
        report._replace(rankings=(bad,)).to_json()
