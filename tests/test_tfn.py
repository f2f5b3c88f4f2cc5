import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzrank.fuzzy import _vertex_distance
from fuzrank.scenario import TFN, ScenarioError, default_scale, parse_scenario

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def tfns(values=finite):
    return st.tuples(values, values, values).map(sorted).map(lambda v: TFN(*v))


def test_construction_rejects_unordered():
    # TFN itself does not check; the rule is applied where TFNs enter the
    # program, the scenario parser's scale override.
    doc = {"schema_version": "1", "scale": {"A": [5, 2, 3], "B": [1, 4, 3], "OK": [1, 2, 3]}}
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(json.dumps(doc))
    assert exc.value.errors == [
        "$.scale.A: TFN components must satisfy a <= b <= c, got (5.0, 2.0, 3.0)",
        "$.scale.B: TFN components must satisfy a <= b <= c, got (1.0, 4.0, 3.0)",
    ]


# --- vertex distance, as the fuzzy engine computes it ----------------------------

def distance(t1, t2):
    return float(_vertex_distance(np.array(t1), np.array(t2)))


def test_distance_examples():
    assert distance(TFN(1, 3, 5), TFN(1, 3, 5)) == 0.0
    assert distance(TFN(0, 0, 0), TFN(3, 3, 3)) == pytest.approx(3.0, abs=1e-9)
    # hand evaluation: sqrt(((2-1)^2 + (4-2)^2 + (6-3)^2) / 3) = sqrt(14/3)
    assert distance(TFN(2, 4, 6), TFN(1, 2, 3)) == pytest.approx(
        math.sqrt(14.0 / 3.0), abs=1e-12
    )


@given(tfns(), tfns())
def test_distance_symmetric_nonnegative(t1, t2):
    d = distance(t1, t2)
    assert d >= 0.0
    assert d == distance(t2, t1)
    if d == 0.0:
        assert t1 == t2


@given(finite, finite)
def test_distance_of_crisp_pair_is_absolute_difference(x, y):
    assert distance(TFN(x, x, x), TFN(y, y, y)) == pytest.approx(abs(x - y), rel=1e-12, abs=1e-12)


def test_default_scale_matches_rating_table():
    scale = default_scale()
    assert scale["VL"] == TFN(1, 1, 3)
    assert scale["L"] == TFN(1, 3, 5)
    assert scale["AV"] == TFN(3, 5, 7)
    assert scale["H"] == TFN(5, 7, 9)
    assert scale["VH"] == TFN(7, 9, 9)
    assert list(scale) == ["VL", "L", "AV", "H", "VH"]

