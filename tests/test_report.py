import csv
import io
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


def test_report_columns_are_the_record_fields():
    """A report row is its record: JSON, table and CSV read the fields of
    `ActionRanking` and `AssetScore` in this order."""
    assert ActionRanking._fields == ("action", "d_plus", "d_minus", "cost", "benefit", "rank")
    assert AssetScore._fields == (
        "asset_id", "vulnerability", "exploitability", "attackability", "veability"
    )


def reference_csv_rows(report):
    """Each CSV row as a dict by column name: the ranked actions, in rank
    order within each ranking, then the assets; floats as their repr."""
    actions = [
        {"engine": r.engine, "action": e.action, "d_plus": repr(e.d_plus),
         "d_minus": repr(e.d_minus), "cost": repr(e.cost), "benefit": repr(e.benefit),
         "rank": str(e.rank)}
        for r in report.rankings
        for e in sorted(r.entries, key=lambda e: e.rank)
    ]
    assets = [
        {"asset": a.asset_id, "V": repr(a.vulnerability), "E": repr(a.exploitability),
         "A": repr(a.attackability), "veability": repr(a.veability)}
        for a in report.assets
    ]
    return actions, assets


def read_csv(text):
    """The rows `csv.reader` reads from text. Python 3.10's reader refuses a
    NUL, so each NUL is read as a character that the text does not hold, and
    turned back."""
    stand_in = next(c for c in map(chr, range(0xE000, 0xF900)) if c not in text)
    rows = csv.reader(io.StringIO(text.replace("\0", stand_in), newline=""))
    return [[field.replace(stand_in, "\0") for field in row] for row in rows]


def control_character_report():
    """Ids with a bare carriage return, which a CSV reader ends a row at
    unless the field is quoted, and a NUL."""
    report = paper_like_report()
    entry = report.rankings[0].entries[0]._replace(action="A\r1")
    ranking = report.rankings[0]._replace(engine="classic\r", entries=(entry,))
    asset = report.assets[0]._replace(asset_id="\r\0")
    return report._replace(rankings=(ranking,), assets=(asset,))


@example(paper_like_report())
@example(control_character_report())
@given(REPORT)
def test_csv_reads_back_as_the_records(report):
    rows = read_csv(report.to_csv())
    for expected in reference_csv_rows(report):
        if expected:
            header, *block = rows[: 1 + len(expected)]
            del rows[: 1 + len(expected)]
            assert header == list(expected[0])
            assert [dict(zip(header, row, strict=True)) for row in block] == expected
    assert rows == []
