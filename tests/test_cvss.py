import csv
import pathlib

import pytest

from fuzrank.cvss import BASE_METRICS, CvssError, parse_vector, roundup, score_cvss

ORACLE_CSV = pathlib.Path(__file__).parent / "oracles" / "cvss_v31_vectors.csv"


def load_oracle():
    with ORACLE_CSV.open() as f:
        return list(csv.DictReader(f))


def test_oracle_file_is_committed_and_big_enough():
    rows = load_oracle()
    assert len(rows) >= 20


def test_scores_match_oracle_file_exactly():
    for row in load_oracle():
        got = score_cvss(row["vector"])
        assert got["impact_subscore"] == float(row["impact_subscore"]), row["vector"]
        assert got["exploitability_subscore"] == float(row["exploitability_subscore"]), row["vector"]


def test_spec_example_vector():
    got = score_cvss("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H")
    assert got == {"impact_subscore": 5.9, "exploitability_subscore": 3.9}


def test_zero_impact_vector_scores_zero():
    got = score_cvss("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:N/I:N/A:N")
    assert got == {"impact_subscore": 0.0, "exploitability_subscore": 3.9}


def test_unsupported_version_rejected():
    with pytest.raises(CvssError, match="unsupported CVSS version '9.9'"):
        parse_vector("CVSS:9.9/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H")
    with pytest.raises(CvssError, match="unsupported CVSS version '3.0'"):
        parse_vector("CVSS:3.0/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H")


def test_malformed_vectors_rejected():
    with pytest.raises(CvssError, match="not a CVSS vector"):
        parse_vector("AV:N/AC:L")
    with pytest.raises(CvssError, match="missing base metric"):
        parse_vector("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H")
    with pytest.raises(CvssError, match="appears twice"):
        parse_vector("CVSS:3.1/AV:N/AV:L/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H")
    with pytest.raises(CvssError, match="unknown metric 'E'"):
        parse_vector("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H/E:F")
    with pytest.raises(CvssError, match="malformed metric segment"):
        parse_vector("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/AH")
    with pytest.raises(CvssError, match="illegal value 'X' for metric AV"):
        parse_vector("CVSS:3.1/AV:X/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H")


def test_vector_string_roundtrip():
    text = "CVSS:3.1/AV:A/AC:H/PR:L/UI:R/S:C/C:L/I:H/A:N"
    vector = parse_vector(text)
    assert vector == dict(zip(BASE_METRICS, ("A", "H", "L", "R", "C", "L", "H", "N")))
    spelled = "/".join(f"{m}:{vector[m]}" for m in BASE_METRICS)
    assert "CVSS:3.1/" + spelled == text


def test_roundup_rule():
    assert roundup(4.0) == 4.0
    assert roundup(4.02) == 4.1
    assert roundup(4.00001) == 4.1
    assert roundup(9.76016) == 9.8
    # guard against float noise: 8.6 stored as 8.599999... must stay 8.6
    assert roundup(0.1 + 0.2 + 8.3) == 8.6


def test_changed_scope_privilege_weights_differ():
    unchanged = score_cvss("CVSS:3.1/AV:N/AC:L/PR:L/UI:N/S:U/C:H/I:H/A:H")
    changed = score_cvss("CVSS:3.1/AV:N/AC:L/PR:L/UI:N/S:C/C:H/I:H/A:H")
    # PR:L weighs 0.62 under an unchanged scope and 0.68 under a changed one
    assert unchanged["exploitability_subscore"] == 2.9
    assert changed["exploitability_subscore"] == 3.2
