import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzrank.veability import (
    AssetProfile,
    AssetScore,
    VulnerabilityRecord,
    attackability_dim,
    exploitability_dim,
    severity,
    veability_score,
    vulnerability_dim,
)

score = st.floats(min_value=0, max_value=10, allow_nan=False)
closeness = st.floats(min_value=0, max_value=1, allow_nan=False)


def vuln(impact=5.0, exploit=5.0, temporal=5.0, atc=0.5, cve="CVE-0000-0000"):
    return VulnerabilityRecord(cve, impact, exploit, temporal, atc)


def asset(vulns=(), services=1, total=2):
    return AssetProfile("asset-x", tuple(vulns), services, total)


def test_severity_is_mean_of_impact_and_temporal():
    assert severity(vuln(impact=10, temporal=8)) == 9.0
    assert severity(vuln(impact=0, temporal=0)) == 0.0
    assert severity(vuln(impact=7.5, temporal=6.1)) == pytest.approx(6.8)


def test_vulnerability_dim_single_vuln():
    a = asset([vuln(impact=9, temporal=9)])
    assert vulnerability_dim(a) == pytest.approx(9.0, abs=1e-12)


def test_vulnerability_dim_two_equal_vulns_adds_ln2():
    a = asset([vuln(impact=9, temporal=9), vuln(impact=9, temporal=9)])
    assert vulnerability_dim(a) == pytest.approx(9.0 + math.log(2), abs=1e-12)


def test_vulnerability_dim_caps_at_ten():
    a = asset([vuln(impact=10, temporal=10), vuln(impact=10, temporal=10)])
    assert vulnerability_dim(a) == 10.0


def test_vulnerability_dim_empty_is_zero():
    assert vulnerability_dim(asset([])) == 0.0


def test_exploitability_dim_service_ratio():
    a = asset([vuln(exploit=4)], services=2, total=4)
    assert exploitability_dim(a) == pytest.approx(2.0, abs=1e-12)


def test_exploitability_dim_zero_services():
    a = asset([vuln(exploit=9)], services=0, total=4)
    assert exploitability_dim(a) == 0.0


def test_exploitability_dim_two_vulns_all_services():
    a = asset([vuln(exploit=3), vuln(exploit=3)], services=4, total=4)
    assert exploitability_dim(a) == pytest.approx(3.0 + math.log(2), abs=1e-12)


def test_attackability_dim_examples():
    assert attackability_dim(asset([vuln(atc=0.849)])) == pytest.approx(8.49)
    assert attackability_dim(asset([vuln(atc=0), vuln(atc=0)])) == 0.0
    assert attackability_dim(asset([vuln(atc=1.0)])) == 10.0
    assert attackability_dim(asset([])) == 0.0


def test_attackability_is_mean_based():
    a = asset([vuln(atc=0.2), vuln(atc=0.6)])
    assert attackability_dim(a) == pytest.approx(4.0)


def test_veability_score_arithmetic():
    s = AssetScore("a", 9, 4, 5, 10 - (9 + 4 + 5) / 3)
    assert s.veability == pytest.approx(4.0)
    empty = veability_score(asset([]))
    assert empty.veability == 10.0
    worst = veability_score(
        asset([vuln(impact=10, temporal=10, exploit=10, atc=1.0)] * 3, services=2, total=2)
    )
    assert worst.vulnerability == 10.0
    assert worst.attackability == 10.0
    assert worst.veability == pytest.approx(10 - (10 + worst.exploitability + 10) / 3)


def test_asset_score_rejects_out_of_range():
    with pytest.raises(ValueError, match="veability"):
        AssetScore("a", 5, 5, 5, 11)


@given(
    st.lists(
        st.tuples(score, score, score, closeness),
        max_size=8,
    ),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=1, max_value=5),
)
def test_all_dimensions_and_composite_in_range(vuln_tuples, services, extra_total):
    total = services + extra_total
    vulns = [
        VulnerabilityRecord(f"CVE-{i}", imp, exp, temp, atc)
        for i, (imp, exp, temp, atc) in enumerate(vuln_tuples)
    ]
    s = veability_score(AssetProfile("a", tuple(vulns), services, total))
    for value in (s.vulnerability, s.exploitability, s.attackability, s.veability):
        assert 0.0 <= value <= 10.0


@given(st.lists(st.tuples(score, score), min_size=1, max_size=6), st.tuples(score, score))
def test_vulnerability_dim_monotone_in_added_vuln(pairs, extra):
    base = [vuln(impact=i, temporal=t) for i, t in pairs]
    bigger = base + [vuln(impact=extra[0], temporal=extra[1])]
    assert vulnerability_dim(asset(bigger)) >= vulnerability_dim(asset(base))


@given(st.lists(st.tuples(score, score), min_size=1, max_size=6), st.floats(0, 10))
def test_composite_never_rises_when_vuln_added_with_attackability_fixed(pairs, extra_sev):
    # hold A fixed (same atc everywhere); adding a vulnerability cannot
    # make the asset look more secure
    base = [vuln(impact=i, temporal=t, exploit=5.0, atc=0.4) for i, t in pairs]
    bigger = base + [vuln(impact=extra_sev, temporal=extra_sev, exploit=5.0, atc=0.4)]
    assert veability_score(asset(bigger)).veability <= veability_score(asset(base)).veability + 1e-12


def test_composite_monotone_nonincreasing_in_dimensions():
    base = veability_score(asset([vuln(impact=4, temporal=4)]))
    more_severe = veability_score(asset([vuln(impact=9, temporal=9)]))
    assert more_severe.veability <= base.veability
