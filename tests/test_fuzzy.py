import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fuzrank.classic import (
    CriterionKind,
    CriterionSpec,
    DecisionMatrix,
    rank_by_closeness,
    rank_classic,
)
from fuzrank.fuzzy import (
    FuzzyDecisionMatrix,
    aggregate_ratings,
    apply_weights,
    fuzzy_ideals,
    normalize_fuzzy,
    rank_fuzzy,
)
from fuzrank.scenario import TFN, RatingPanel, default_scale, parse_scenario

from golden_ratings import ACTIONS, CRITERIA, LINGUISTIC_GRIDS, POOLED_MATRIX, RATERS

B = CriterionKind.BENEFIT
CO = CriterionKind.COST


def specs(kinds):
    return tuple(CriterionSpec(f"C-{j+1}", kind=k) for j, k in enumerate(kinds))


def fdm(cells, kinds=None, weights=None):
    kinds = kinds or [B] * len(cells[0])
    alts = tuple(f"A{i+1}" for i in range(len(cells)))
    if weights is not None:
        weights = np.array(weights, dtype=float)
    return FuzzyDecisionMatrix(alts, specs(kinds), np.array(cells, dtype=float), weights)


def rank_panel(panel, scale):
    """The fuzzy pipeline `fuzrank rank` runs: pool, normalize, weight, rank."""
    return rank_fuzzy(apply_weights(normalize_fuzzy(aggregate_ratings(panel, scale))))


def panel_doc(raters, actions, criteria, ratings, weights):
    """A scenario document holding one rating panel. criteria: (id, kind)
    pairs; ratings: rater -> action -> criterion -> label; weights: rater ->
    criterion -> label."""
    return {
        "schema_version": "1",
        "criteria": [{"id": cid, "kind": kind.value} for cid, kind in criteria],
        "actions": list(actions),
        "panel": {"decision_makers": list(raters), "ratings": ratings, "weights": weights},
    }


def panel_of(doc):
    """The RatingPanel the scenario parser builds from doc."""
    return parse_scenario(json.dumps(doc), strict=True).panel


def golden_doc(kinds=(B, B, CO, CO), weight_labels=None):
    weight_labels = weight_labels or {c: "AV" for c in CRITERIA}
    return panel_doc(
        RATERS,
        ACTIONS,
        zip(CRITERIA, kinds),
        {dm: {a: dict(zip(CRITERIA, LINGUISTIC_GRIDS[dm][a])) for a in ACTIONS} for dm in RATERS},
        {dm: dict(weight_labels) for dm in RATERS},
    )


def golden_panel(kinds=(B, B, CO, CO), weight_labels=None):
    return panel_of(golden_doc(kinds, weight_labels))


# --- aggregation ---------------------------------------------------------------

def test_aggregation_reproduces_pooled_matrix():
    agg = aggregate_ratings(golden_panel(), default_scale())
    for i, action in enumerate(ACTIONS):
        for j, expected in enumerate(POOLED_MATRIX[action]):
            cell = agg.cells[i][j]
            assert cell.a == expected[0]
            assert cell.c == expected[2]
            assert cell.b == pytest.approx(expected[1], abs=1e-9)


def test_aggregation_named_cells():
    agg = aggregate_ratings(golden_panel(), default_scale())
    assert agg.cells[0][0] == TFN(3, 7.5, 9)  # A1, C-1
    assert agg.cells[2][0] == TFN(1, 5.5, 9)  # A3, C-1
    assert agg.cells[1][0] == TFN(3, 7.0, 9)  # A2, C-1
    assert agg.cells[3][1] == TFN(3, 7.5, 9)  # A4, C-2


def test_aggregation_single_rater_is_identity():
    doc = panel_doc(
        ["solo"], ["A1"], [("C-1", B)], {"solo": {"A1": {"C-1": "H"}}}, {"solo": {"C-1": "VH"}}
    )
    agg = aggregate_ratings(panel_of(doc), default_scale())
    assert agg.cells[0][0] == TFN(5, 7, 9)
    assert agg.weights.tolist() == [[7, 9, 9]]


def test_aggregation_weights_pool_like_cells():
    panel = golden_panel(weight_labels={"C-1": "VL", "C-2": "VH", "C-3": "VL", "C-4": "VL"})
    agg = aggregate_ratings(panel, default_scale())
    assert agg.weights.tolist() == [[1, 1, 3], [7, 9, 9], [1, 1, 3], [1, 1, 3]]


def test_aggregation_peaks_near_float_max_do_not_overflow():
    # two raters' peaks of 1.5e308 sum past the float range; their mean does not
    doc = panel_doc(["r1", "r2"], ["A1"], [("C-1", B)],
                    {r: {"A1": {"C-1": "X"}} for r in ("r1", "r2")},
                    {r: {"C-1": "X"} for r in ("r1", "r2")})
    doc["scale"] = {"X": [1e308, 1.5e308, 1.7e308]}
    scenario = parse_scenario(json.dumps(doc), strict=True)
    agg = aggregate_ratings(scenario.panel, scenario.scale)
    assert agg.values.tolist() == [[[1e308, 1.5e308, 1.7e308]]]
    assert agg.weights.tolist() == [[1e308, 1.5e308, 1.7e308]]


def test_aggregation_rater_permutation_invariant():
    scale = default_scale()
    base = aggregate_ratings(golden_panel(), scale)
    doc = golden_doc()
    doc["panel"]["decision_makers"].reverse()
    assert aggregate_ratings(panel_of(doc), scale).cells == base.cells


@example([[(0.0, 0.1, 0.1)] * 3] * 3)  # the mean peak 0.10000000000000002 exceeds max c
@given(
    st.lists(
        st.lists(
            st.tuples(st.floats(0, 50), st.floats(0, 50), st.floats(0, 50)).map(sorted),
            min_size=3, max_size=3,
        ),
        min_size=1, max_size=6,
    )
)
def test_pooling_keeps_tfn_ordered(rater_rows):
    # N raters rate one alternative on 3 criteria, and weight the criteria,
    # each triple under a label of its own
    k = len(rater_rows)
    triples = [t for row in rater_rows for t in row]
    codes = bytes(range(len(triples)))
    panel = RatingPanel(
        decision_makers=tuple(f"dm{r}" for r in range(k)),
        alternatives=("A1",),
        criteria=specs([B, B, B]),
        rating_codes=codes,
        weight_codes=codes,
    )
    scale = {f"T{i}": TFN(*t) for i, t in enumerate(triples)}
    pooled = aggregate_ratings(panel, scale)
    for v in (pooled.values, pooled.weights):
        assert (v[..., 0] <= v[..., 1]).all() and (v[..., 1] <= v[..., 2]).all()


def pool_reference(table, codes, shape):
    """Gather-then-reduce pooling: look every code up as a whole (a, b, c)
    row, shape the rows as `shape` + (3,), with k raters first, then reduce
    strided views of the result."""
    tfns = table[list(codes)].reshape(*shape, 3)
    a = tfns[..., 0].min(axis=0)
    c = tfns[..., 2].max(axis=0)
    return np.stack([a, np.clip(tfns[..., 1].mean(axis=0), a, c), c], axis=-1)


# fractions as well as the extremes, where the default scale has small integers
COMPONENT = st.sampled_from([0.0, 1e-300, 1e300]) | st.floats(0, 10) | st.floats(0, 1e300)


TRIPLE = st.tuples(COMPONENT, COMPONENT, COMPONENT).map(sorted)


@st.composite
def coded_panels(draw, triple=TRIPLE, kinds=(B,)):
    """A scale of 1-6 labels with ordered non-integer components, and a panel
    of 1-5 raters over 1-4 alternatives and 1-4 criteria coding into it; each
    label is drawn from `triple` and each criterion's kind from `kinds`."""
    scale = draw(st.lists(triple, min_size=1, max_size=6))
    k, m, n = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    code = st.integers(0, len(scale) - 1)
    rating_codes = draw(st.lists(code, min_size=k * m * n, max_size=k * m * n))
    weight_codes = draw(st.lists(code, min_size=k * n, max_size=k * n))
    panel = RatingPanel(
        decision_makers=tuple(f"dm{r}" for r in range(k)),
        alternatives=tuple(f"A{i}" for i in range(m)),
        criteria=specs(draw(st.lists(st.sampled_from(kinds), min_size=n, max_size=n))),
        rating_codes=bytes(rating_codes),
        weight_codes=bytes(weight_codes),
    )
    return panel, {f"T{i}": TFN(*t) for i, t in enumerate(scale)}


@given(coded_panels())
def test_pooling_matches_gather_then_reduce_bit_for_bit(case):
    panel, scale = case
    table = np.array(list(scale.values()), dtype=float)
    pooled = aggregate_ratings(panel, scale)
    k, m, n = len(panel.decision_makers), len(panel.alternatives), len(panel.criteria)
    ratings = pool_reference(table, panel.rating_codes, (k, m, n))
    assert pooled.values.tobytes() == ratings.tobytes()
    assert pooled.weights.tobytes() == pool_reference(table, panel.weight_codes, (k, n)).tobytes()


@given(coded_panels(triple=st.just((0.0, 0.0, 0.0)) | TRIPLE, kinds=(B, CO)))
def test_stage_results_are_ordered_and_finite(case):
    # the stages build their results unchecked: pooling, normalising and
    # weighting nonnegative ordered triples keep them ordered and finite
    panel, scale = case
    pooled = aggregate_ratings(panel, scale)
    results = [pooled.values, pooled.weights]
    try:
        normalized = normalize_fuzzy(pooled)
    except ValueError:  # a column with no positive upper bound to divide by
        pass
    else:
        results += [normalized.values, apply_weights(normalized).values]
    for values in results:
        assert (values[..., 0] <= values[..., 1]).all() and (values[..., 1] <= values[..., 2]).all()
        assert np.isfinite(values).all()


# --- normalization ---------------------------------------------------------------

def test_normalize_benefit_column_golden():
    col = [POOLED_MATRIX[a][0] for a in ACTIONS]  # C-1 column, c_max = 9
    m = fdm([[c] for c in col], kinds=[B])
    normed = normalize_fuzzy(m)
    assert normed.cells[0][0] == TFN(3 / 9, 7.5 / 9, 1.0)
    assert normed.cells[0][0].a == pytest.approx(1 / 3)
    assert normed.cells[0][0].b == pytest.approx(5 / 6)


def test_normalize_benefit_cell_at_max_is_unit():
    m = fdm([[(2, 3, 4)], [(4, 4, 4)]], kinds=[B])
    assert normalize_fuzzy(m).cells[1][0] == TFN(1, 1, 1)


def test_normalize_cost_identical_cells():
    m = fdm([[(2, 4, 8)], [(2, 4, 8)]], kinds=[CO])
    for row in normalize_fuzzy(m).cells:
        assert row[0] == TFN(2 / 8, 4 / 8, 8 / 8)


def test_normalize_cost_uses_componentwise_minima():
    m = fdm([[(1, 5, 10)], [(2, 3, 8)]], kinds=[CO])
    normed = normalize_fuzzy(m)
    # column minima: a=1, b=3, c=8, each divided by the cell's own upper bound
    assert normed.cells[0][0] == TFN(1 / 10, 3 / 10, 8 / 10)
    assert normed.cells[1][0] == TFN(1 / 8, 3 / 8, 8 / 8)


def test_normalize_components_stay_in_unit_interval():
    rng = random.Random(99)
    for _ in range(50):
        m_alt, n_crit = rng.randint(1, 6), rng.randint(1, 5)
        rows = [
            [tuple(sorted(rng.uniform(0.01, 20) for _ in range(3))) for _ in range(n_crit)]
            for _ in range(m_alt)
        ]
        kinds = [B if rng.random() < 0.5 else CO for _ in range(n_crit)]
        normed = normalize_fuzzy(fdm(rows, kinds=kinds))
        for row in normed.cells:
            for cell in row:
                assert 0.0 <= cell.a <= cell.b <= cell.c <= 1.0 + 1e-12


def test_normalize_errors_name_the_criterion():
    with pytest.raises(ValueError, match="C-1.*cannot normalize"):
        normalize_fuzzy(fdm([[(0, 0, 0)]], kinds=[B]))
    with pytest.raises(ValueError, match="C-1"):
        normalize_fuzzy(fdm([[(0, 0, 0)]], kinds=[CO]))


# --- weighting -------------------------------------------------------------------

def test_apply_weights_identity():
    m = fdm([[(0.2, 0.5, 0.8)]], weights=[(1, 1, 1)])
    assert apply_weights(m).cells[0][0] == TFN(0.2, 0.5, 0.8)


def test_apply_weights_componentwise_product():
    m = fdm([[(0.5, 0.6, 1.0)]], weights=[(1, 3, 5)])
    cell = apply_weights(m).cells[0][0]
    assert cell == pytest.approx((0.5, 1.8, 5.0), abs=1e-9)


def test_apply_weights_zero_collapses_column():
    m = fdm([[(0.25, 0.5, 1.0)], [(0.1, 0.2, 0.4)]], weights=[(0, 0, 0)])
    out = apply_weights(m)
    assert all(row[0] == TFN(0, 0, 0) for row in out.cells)


def test_apply_weights_rejects_negative_and_mismatch():
    cells = [[(0.2, 0.5, 0.8)]]
    with pytest.raises(ValueError, match="negative component"):
        apply_weights(fdm(cells, weights=[(-1, 0, 1)]))
    with pytest.raises(ValueError, match="carries no criterion weights"):
        apply_weights(fdm(cells))


# --- ideals ----------------------------------------------------------------------

def test_fuzzy_ideals_read_off_extremes():
    m = fdm([[(0.1, 0.2, 0.4)], [(0.2, 0.3, 0.9)]])
    fpis, fnis = fuzzy_ideals(m.values)
    assert fpis.tolist() == [0.9]
    assert fnis.tolist() == [0.1]


def test_fuzzy_ideals_single_and_identical_columns():
    single = fdm([[(0.2, 0.5, 0.7)]])
    fpis, fnis = fuzzy_ideals(single.values)
    assert fpis.tolist() == [0.7] and fnis.tolist() == [0.2]
    same = fdm([[(0.2, 0.5, 0.7)], [(0.2, 0.5, 0.7)]])
    fpis, fnis = fuzzy_ideals(same.values)
    assert fpis.tolist() == [0.7] and fnis.tolist() == [0.2]


# --- closeness / ranking -----------------------------------------------------------

def test_closeness_published_cases():
    from golden_ratings import CLOSENESS_CASES

    names = [case[0] for case in CLOSENESS_CASES]
    d_plus = np.array([case[1] for case in CLOSENESS_CASES])
    d_minus = np.array([case[2] for case in CLOSENESS_CASES])
    res = rank_by_closeness("fuzzy", names, d_plus, d_minus)
    for e, (_, _, _, expected) in zip(res.entries, CLOSENESS_CASES):
        assert e.cost == pytest.approx(expected, abs=5e-4)
        assert e.cost + e.benefit == pytest.approx(1.0, abs=1e-15)


def test_closeness_symmetry_and_degenerate():
    with pytest.warns(UserWarning, match="ranking: 'A2' at zero distance"):
        res = rank_by_closeness("fuzzy", ["A1", "A2"], np.array([2.5, 0.0]), np.array([2.5, 0.0]))
    assert [(e.cost, e.benefit) for e in res.entries] == [(0.5, 0.5), (0.5, 0.5)]


DEGENERATE_WARNING = (
    "{engine} ranking: 'A1', 'A2' at zero distance from both ideals "
    "(all alternatives identical?); cost and benefit defined as 0.5"
)


def test_rank_fuzzy_degenerate_matrix_warns():
    m = fdm([[(0.5, 0.5, 0.5)], [(0.5, 0.5, 0.5)]])
    with pytest.warns(UserWarning) as caught:
        res = rank_fuzzy(m)
    assert [str(w.message) for w in caught] == [DEGENERATE_WARNING.format(engine="fuzzy")]
    assert [e.cost for e in res.entries] == [0.5, 0.5]
    assert [e.rank for e in res.entries] == [1, 2]


def test_rank_classic_degenerate_matrix_warns():
    m = DecisionMatrix(["A1", "A2"], specs([B, CO]), [[2.0, 3.0], [2.0, 3.0]])
    with pytest.warns(UserWarning) as caught:
        res = rank_classic(m, [0.4, 0.6])
    assert [str(w.message) for w in caught] == [DEGENERATE_WARNING.format(engine="classic")]
    assert [(e.cost, e.benefit) for e in res.entries] == [(0.5, 0.5), (0.5, 0.5)]
    assert [e.rank for e in res.entries] == [1, 2]


def test_rank_fuzzy_crisp_cells_reduce_to_weighted_l1():
    # crisp cells: vertex distance is plain absolute difference, so each
    # accumulated distance is an L1 distance to the crisp ideal vector
    rows = [[(0.2, 0.2, 0.2), (0.9, 0.9, 0.9)], [(0.6, 0.6, 0.6), (0.3, 0.3, 0.3)]]
    m = fdm(rows)
    res = rank_fuzzy(m)
    ideals = [(0.6, 0.2), (0.9, 0.3)]  # per-criterion (max, min)
    for i, e in enumerate(res.entries):
        expected_dp = sum(abs(ideals[j][0] - rows[i][j][0]) for j in range(2))
        expected_dm = sum(abs(rows[i][j][0] - ideals[j][1]) for j in range(2))
        assert e.d_plus == pytest.approx(expected_dp, abs=1e-12)
        assert e.d_minus == pytest.approx(expected_dm, abs=1e-12)


def test_rank_fuzzy_orientation_highest_cost_is_rank_one():
    m = fdm([[(0.1, 0.2, 0.3)], [(0.7, 0.8, 0.9)]])
    res = rank_fuzzy(m)
    a1, a2 = res.entries
    assert a2.rank == 1  # closest to the ideal
    assert a2.cost > a1.cost
    assert res.cost_definition == "d_minus / (d_plus + d_minus)"
    assert res.minimum_effort_action == "A2"


def test_rank_panel_full_pipeline_shape():
    res = rank_panel(
        golden_panel(weight_labels={"C-1": "VL", "C-2": "VH", "C-3": "VL", "C-4": "VL"}),
        default_scale(),
    )
    costs = {e.action: e.cost for e in res.entries}
    assert max(costs, key=costs.get) == "A4"
    assert sorted(e.rank for e in res.entries) == [1, 2, 3, 4]
    for e in res.entries:
        assert 0.0 <= e.cost <= 1.0
        assert e.cost + e.benefit == pytest.approx(1.0, abs=1e-12)


def test_cost_benefit_duality_randomized():
    rng = random.Random(2468)
    for _ in range(200):
        m_alt, n_crit = rng.randint(1, 8), rng.randint(1, 8)
        rows = [
            [tuple(sorted(rng.uniform(0.0, 10) for _ in range(3))) for _ in range(n_crit)]
            for _ in range(m_alt)
        ]
        kinds = [B if rng.random() < 0.5 else CO for _ in range(n_crit)]
        weights = [tuple(sorted(rng.uniform(0, 3) for _ in range(3))) for _ in range(n_crit)]
        try:
            normed = normalize_fuzzy(fdm(rows, kinds=kinds, weights=weights))
        except ValueError:
            continue  # degenerate zero column, rejected by contract
        res = rank_fuzzy(apply_weights(normed))
        for e in res.entries:
            assert e.cost + e.benefit == pytest.approx(1.0, abs=1e-12)
            assert 0.0 <= e.cost <= 1.0


def test_aggregated_order_feeds_normalization():
    # end-to-end consistency: pooled benefit matrix normalizes within [0,1]
    agg = aggregate_ratings(golden_panel(kinds=(B, B, B, B)), default_scale())
    normed = normalize_fuzzy(agg)
    for row in normed.cells:
        for cell in row:
            assert 0.0 <= cell.a <= cell.b <= cell.c <= 1.0


# --- properties of the whole fuzzy pipeline ------------------------------------------

LABELS = ("VL", "L", "AV", "H", "VH")


@st.composite
def panel_docs(draw):
    """Scenario documents with a random panel of up to 5 actions, 4 criteria
    and 4 raters."""
    m, n, k = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from([B, CO]), min_size=n, max_size=n))
    label = st.sampled_from(LABELS)
    raters = [f"dm{r}" for r in range(k)]
    alts = [f"A{i}" for i in range(m)]
    crits = [f"C{j}" for j in range(n)]
    return panel_doc(
        raters,
        alts,
        zip(crits, kinds),
        {r: {a: {c: draw(label) for c in crits} for a in alts} for r in raters},
        {r: {c: draw(label) for c in crits} for r in raters},
    )


def oracle_fuzzy(doc, scale):
    """Straight-line transcription of the pipeline on plain tuples, read off
    the scenario document: (min a, mean b, max c) pooling, linear-scale
    normalization, componentwise weighting, vertex distances to the crisp
    ideals. Returns action -> (d_plus, d_minus, cost)."""
    def pool(tfns):
        return (min(t.a for t in tfns), sum(t.b for t in tfns) / len(tfns), max(t.c for t in tfns))

    panel = doc["panel"]
    dms, ratings = panel["decision_makers"], panel["ratings"]
    cols = []
    for c in doc["criteria"]:
        cid = c["id"]
        w = pool([scale[panel["weights"][d][cid]] for d in dms])
        col = [pool([scale[ratings[d][a][cid]] for d in dms]) for a in doc["actions"]]
        if c["kind"] == B.value:
            top = max(t[2] for t in col)
            col = [(t[0] / top, t[1] / top, t[2] / top) for t in col]
        else:
            lo = [min(t[i] for t in col) for i in range(3)]
            col = [(lo[0] / t[2], lo[1] / t[2], lo[2] / t[2]) for t in col]
        col = [(t[0] * w[0], t[1] * w[1], t[2] * w[2]) for t in col]
        best, worst = max(t[2] for t in col), min(t[0] for t in col)
        cols.append([
            (math.dist(t, (best,) * 3) / math.sqrt(3), math.dist(t, (worst,) * 3) / math.sqrt(3))
            for t in col
        ])
    out = {}
    for i, a in enumerate(doc["actions"]):
        dp = sum(col[i][0] for col in cols)
        dm_ = sum(col[i][1] for col in cols)
        out[a] = (dp, dm_, 0.5 if dp + dm_ == 0 else dm_ / (dp + dm_))
    return out


def assert_same_ranking(got, want, fields=("d_plus", "d_minus", "cost", "benefit")):
    """Per action: the fields agree to 1e-12, and every pair of actions whose
    costs differ by more than 1e-9 is ranked in the same order."""
    by_action = {e.action: e for e in got.entries}
    assert by_action.keys() == {e.action for e in want.entries}
    for w in want.entries:
        for f in fields:
            assert getattr(by_action[w.action], f) == pytest.approx(
                getattr(w, f), rel=1e-12, abs=1e-12
            ), (w.action, f)
    for x in want.entries:
        for y in want.entries:
            if x.cost > y.cost + 1e-9:
                assert by_action[x.action].rank < by_action[y.action].rank


@given(panel_docs())
def test_rank_panel_matches_oracle(doc):
    res = rank_panel(panel_of(doc), default_scale())
    expected = oracle_fuzzy(doc, default_scale())
    for e in res.entries:
        dp, dm_, cost = expected[e.action]
        assert e.d_plus == pytest.approx(dp, rel=1e-12, abs=1e-12)
        assert e.d_minus == pytest.approx(dm_, rel=1e-12, abs=1e-12)
        assert e.cost == pytest.approx(cost, rel=1e-12, abs=1e-12)


@given(panel_docs(), st.randoms(use_true_random=False))
def test_rank_panel_permuting_alternatives_permutes_results(doc, rnd):
    alts = list(doc["actions"])
    rnd.shuffle(alts)
    got = rank_panel(panel_of({**doc, "actions": alts}), default_scale())
    want = rank_panel(panel_of(doc), default_scale())
    assert [e.action for e in got.entries] == alts
    assert_same_ranking(got, want)
    assert {e.action: e.rank for e in got.entries} == {e.action: e.rank for e in want.entries}


@given(panel_docs(), st.randoms(use_true_random=False))
def test_rank_panel_permuting_criteria_keeps_results(doc, rnd):
    """Shuffles the criteria list and reverses the key order of every rating
    and weight row."""
    crits = list(doc["criteria"])
    rnd.shuffle(crits)
    p = doc["panel"]
    shuffled = panel_of({
        **doc,
        "criteria": crits,
        "panel": {
            "decision_makers": p["decision_makers"],
            "ratings": {
                d: {a: dict(reversed(row.items())) for a, row in grid.items()}
                for d, grid in p["ratings"].items()
            },
            "weights": {d: dict(reversed(row.items())) for d, row in p["weights"].items()},
        },
    })
    panel = panel_of(doc)
    agg = aggregate_ratings(panel, default_scale())
    agg_shuffled = aggregate_ratings(shuffled, default_scale())
    order = [doc["criteria"].index(c) for c in crits]
    np.testing.assert_array_equal(agg_shuffled.values, agg.values[:, order])
    np.testing.assert_array_equal(agg_shuffled.weights, agg.weights[order])
    assert_same_ranking(rank_panel(shuffled, default_scale()), rank_panel(panel, default_scale()))


@given(panel_docs())
def test_rank_panel_duplicating_every_rater_keeps_results(doc):
    p = doc["panel"]
    twins = {f"{dm}'": dm for dm in p["decision_makers"]}
    doubled = panel_of({
        **doc,
        "panel": {
            "decision_makers": p["decision_makers"] + list(twins),
            "ratings": {**p["ratings"], **{t: p["ratings"][dm] for t, dm in twins.items()}},
            "weights": {**p["weights"], **{t: p["weights"][dm] for t, dm in twins.items()}},
        },
    })
    want = rank_panel(panel_of(doc), default_scale())
    assert_same_ranking(rank_panel(doubled, default_scale()), want)


@given(panel_docs(), st.floats(1e-3, 1e3))
def test_scaling_every_fuzzy_weight_keeps_closeness(doc, k):
    agg = aggregate_ratings(panel_of(doc), default_scale())
    normed = normalize_fuzzy(agg)
    scaled = FuzzyDecisionMatrix(
        normed.alternatives, normed.criteria, normed.values, agg.weights * k
    )
    got = rank_fuzzy(apply_weights(scaled))
    want = rank_fuzzy(apply_weights(normed))
    assert_same_ranking(got, want, fields=("cost", "benefit"))


@given(panel_docs(), st.floats(1e-3, 1e3))
def test_scaling_every_scale_tfn_keeps_fuzzy_closeness(doc, k):
    """Normalization divides the ratings' factor out, and the weights' factor
    scales both distances alike."""
    panel = panel_of(doc)
    scaled = {label: TFN(*(k * x for x in t)) for label, t in default_scale().items()}
    want = rank_panel(panel, default_scale())
    assert_same_ranking(rank_panel(panel, scaled), want, fields=("cost", "benefit"))


# --- dominance -----------------------------------------------------------------

POSITIVE_TFN = st.tuples(*[st.floats(0.01, 100)] * 3).map(sorted)


@st.composite
def dominance_cases(draw):
    """A pooled matrix of 2-5 alternatives over 1-4 criteria with positive
    weights, in which the first alternative is no worse than the second on
    every criterion, component by component: at least as high on a benefit
    criterion, at most as high on a cost criterion."""
    m, n = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from([B, CO]), min_size=n, max_size=n))
    cells = np.array(draw(st.lists(POSITIVE_TFN, min_size=m * n, max_size=m * n)))
    cells = cells.reshape(m, n, 3)
    other = np.array(draw(st.lists(POSITIVE_TFN, min_size=n, max_size=n)))
    # the componentwise max (min) of two ordered triples is ordered
    for j, kind in enumerate(kinds):
        better = np.maximum if kind is B else np.minimum
        cells[0, j] = better(cells[1, j], other[j])
    weights = np.array(draw(st.lists(POSITIVE_TFN, min_size=n, max_size=n)))
    return fdm(cells, kinds, weights)


def assert_no_less_close(x: float, y: float) -> None:
    assert x >= y - 4 * math.ulp(y), (x, y)


@pytest.mark.filterwarnings("ignore:.*at zero distance from both ideals")
@given(dominance_cases())
def test_dominating_action_is_never_less_close(pooled):
    """Distances to column-wise ideals move one way in each component, and a
    fuzzy cost cell normalizes through its own upper bound alone, so the
    dominating action's closeness d_minus / (d_plus + d_minus) is never lower.
    Closeness, not rank: ties break by action id. The classic engine reads
    the peaks, as `fuzrank rank` does without a decision matrix."""
    fuzzy = rank_fuzzy(apply_weights(normalize_fuzzy(pooled)))
    assert_no_less_close(fuzzy.entries[0].cost, fuzzy.entries[1].cost)

    peaks = pooled.weights[:, 1]
    crisp = DecisionMatrix(pooled.alternatives, pooled.criteria, pooled.values[..., 1])
    classic = rank_classic(crisp, peaks / peaks.sum())
    assert_no_less_close(classic.entries[0].benefit, classic.entries[1].benefit)
