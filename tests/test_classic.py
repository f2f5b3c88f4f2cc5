import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzrank.classic import (
    ConvergenceError,
    CriterionKind,
    CriterionSpec,
    DecisionMatrix,
    PairwiseMatrix,
    consistency_ratio,
    derive_weights,
    ideal_solutions,
    normalize,
    principal_eigen,
    rank_classic,
)

B = CriterionKind.BENEFIT
CO = CriterionKind.COST


def crits(kinds):
    return [CriterionSpec(f"C-{j+1}", kind=k) for j, k in enumerate(kinds)]


def dm(cells, kinds=None):
    cells = np.asarray(cells, dtype=float)
    kinds = kinds or [B] * cells.shape[1]
    alts = [f"A{i+1}" for i in range(cells.shape[0])]
    return DecisionMatrix(alts, crits(kinds), cells)


# --- independent oracle: straight-line transcription of the crisp pipeline ---

def oracle_classic(cells, kinds, weights):
    m, n = len(cells), len(cells[0])
    normed = [[0.0] * n for _ in range(m)]
    for j in range(n):
        s = 0.0
        for i in range(m):
            s += cells[i][j] * cells[i][j]
        s = s ** 0.5
        for i in range(m):
            normed[i][j] = cells[i][j] / s
    wtd = [[normed[i][j] * weights[j] for j in range(n)] for i in range(m)]
    e_plus, e_minus = [], []
    for j in range(n):
        col = [wtd[i][j] for i in range(m)]
        if kinds[j] == "benefit":
            e_plus.append(max(col))
            e_minus.append(min(col))
        else:
            e_plus.append(min(col))
            e_minus.append(max(col))
    rows = []
    for i in range(m):
        dp = sum((wtd[i][j] - e_plus[j]) ** 2 for j in range(n)) ** 0.5
        dm_ = sum((wtd[i][j] - e_minus[j]) ** 2 for j in range(n)) ** 0.5
        cost = 0.5 if dp + dm_ == 0 else dp / (dp + dm_)
        rows.append((dp, dm_, cost))
    return rows


# --- pairwise matrix / eigen --------------------------------------------------

def test_pairwise_validation():
    PairwiseMatrix([[1, 2], [0.5, 1]])
    with pytest.raises(ValueError, match="square"):
        PairwiseMatrix([[1, 2, 3], [1, 1, 1]])
    with pytest.raises(ValueError, match="positive"):
        PairwiseMatrix([[1, -2], [-0.5, 1]])
    with pytest.raises(ValueError, match="diagonal"):
        PairwiseMatrix([[2, 1], [1, 1]])
    with pytest.raises(ValueError, match="not reciprocal"):
        PairwiseMatrix([[1, 2], [0.7, 1]])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_matrices_reject_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        dm([[1, bad], [3, 4]])
    with pytest.raises(ValueError, match="finite"):
        PairwiseMatrix([[1, bad], [0.5, 1]])


def test_eigen_symmetric_two_by_two():
    lam, w = principal_eigen(PairwiseMatrix([[1, 1], [1, 1]]))
    assert lam == pytest.approx(2.0, abs=1e-9)
    assert w == pytest.approx([0.5, 0.5], abs=1e-9)


def test_eigen_consistent_two_by_two():
    lam, w = principal_eigen(PairwiseMatrix([[1, 2], [0.5, 1]]))
    assert lam == pytest.approx(2.0, abs=1e-9)
    assert w == pytest.approx([2 / 3, 1 / 3], abs=1e-9)


def test_eigen_recovers_constructed_weights():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        true_w = rng.uniform(0.1, 5.0, size=n)
        true_w /= true_w.sum()
        m = PairwiseMatrix(true_w[:, None] / true_w[None, :])
        lam, w = principal_eigen(m)
        assert lam == pytest.approx(n, abs=1e-6)
        assert np.max(np.abs(w - true_w)) < 1e-6


def test_eigen_residual_postcondition():
    m = PairwiseMatrix([[1, 3, 0.5], [1 / 3, 1, 2], [2, 0.5, 1]])
    lam, w = principal_eigen(m)
    assert np.max(np.abs(m.cells @ w - lam * w)) < 1e-8
    assert lam >= m.n - 1e-9


def test_consistency_ratio():
    consistent = PairwiseMatrix([[1, 2, 4], [0.5, 1, 2], [0.25, 0.5, 1]])
    assert consistency_ratio(consistent) == pytest.approx(0.0, abs=1e-9)
    sloppy = PairwiseMatrix([[1, 3, 1 / 5], [1 / 3, 1, 3], [5, 1 / 3, 1]])
    assert consistency_ratio(sloppy) > 0.1
    with pytest.warns(UserWarning, match="inconsistent"):
        derive_weights(sloppy)


# --- normalize / ideals ---------------------------------------------------------

def test_normalize_three_four_five():
    n = normalize(dm([[3], [4]]))
    assert n.cells[:, 0] == pytest.approx([0.6, 0.8])


def test_normalize_single_alternative():
    assert normalize(dm([[7.3]])).cells[0, 0] == pytest.approx(1.0)


def test_normalize_scale_invariance():
    a = normalize(dm([[1, 5], [2, 3], [4, 8]]))
    b = normalize(dm([[10, 5], [20, 3], [40, 8]]))
    assert a.cells == pytest.approx(b.cells)


def test_normalize_rejects_zero_column():
    with pytest.raises(ValueError, match="all-zero"):
        normalize(dm([[0, 1], [0, 2]]))


def test_ideal_solutions():
    w = dm([[0.1, 0.1, 0.2], [0.3, 0.3, 0.2]], kinds=[B, CO, B])
    e_plus, e_minus = ideal_solutions(w)
    assert e_plus == pytest.approx([0.3, 0.1, 0.2])
    assert e_minus == pytest.approx([0.1, 0.3, 0.2])


# --- rank_classic ----------------------------------------------------------------

def test_rank_dominant_alternative_has_cost_zero():
    m = dm([[5, 9], [4, 7], [1, 2]])
    res = rank_classic(m, [0.5, 0.5])
    top = res.entry("A1")
    assert top.cost == pytest.approx(0.0, abs=1e-12)
    assert top.rank == 1
    bottom = res.entry("A3")
    assert bottom.cost == pytest.approx(1.0, abs=1e-12)
    assert bottom.rank == 3
    assert res.minimum_effort_action == "A1"


def test_rank_identical_alternatives_warns_and_halves():
    m = dm([[2, 3], [2, 3]])
    with pytest.warns(UserWarning, match="0.5"):
        res = rank_classic(m, [0.4, 0.6])
    assert [e.cost for e in res.entries] == [0.5, 0.5]
    # deterministic lexicographic tie-break
    assert res.entry("A1").rank == 1
    assert res.entry("A2").rank == 2


def test_rank_weights_validation():
    m = dm([[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="sum to 1"):
        rank_classic(m, [0.7, 0.7])
    with pytest.raises(ValueError, match="expected 2 weights"):
        rank_classic(m, [1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        rank_classic(m, [1.5, -0.5])


def test_rank_matches_oracle_randomized():
    rng = np.random.default_rng(42)
    for _ in range(100):
        m_alt = int(rng.integers(2, 7))
        n_crit = int(rng.integers(1, 6))
        cells = rng.uniform(0.05, 10.0, size=(m_alt, n_crit))
        kinds = [("benefit" if rng.random() < 0.5 else "cost") for _ in range(n_crit)]
        weights = rng.uniform(0.1, 1.0, size=n_crit)
        weights /= weights.sum()
        matrix = dm(cells, kinds=[B if k == "benefit" else CO for k in kinds])
        res = rank_classic(matrix, weights)
        expected = oracle_classic(cells.tolist(), kinds, weights.tolist())
        for e, (dp, dmi, cost) in zip(res.entries, expected):
            assert e.d_plus == pytest.approx(dp, abs=1e-9)
            assert e.d_minus == pytest.approx(dmi, abs=1e-9)
            assert e.cost == pytest.approx(cost, abs=1e-9)
            assert 0.0 <= e.cost <= 1.0
        assert sorted(e.rank for e in res.entries) == list(range(1, m_alt + 1))


def test_rank_permutation_invariance():
    cells = [[1.0, 8.0], [5.0, 3.0], [2.0, 6.0]]
    m1 = DecisionMatrix(["A1", "A2", "A3"], crits([B, CO]), cells)
    m2 = DecisionMatrix(["A3", "A1", "A2"], crits([B, CO]), [cells[2], cells[0], cells[1]])
    r1 = rank_classic(m1, [0.3, 0.7])
    r2 = rank_classic(m2, [0.3, 0.7])
    for action in ["A1", "A2", "A3"]:
        a, b = r1.entry(action), r2.entry(action)
        assert (a.cost, a.rank) == (b.cost, b.rank)


def test_rank_column_scale_invariance():
    base = np.array([[1.0, 8.0], [5.0, 3.0], [2.0, 6.0]])
    scaled = base * np.array([13.7, 0.02])
    r1 = rank_classic(dm(base, kinds=[B, CO]), [0.3, 0.7])
    r2 = rank_classic(dm(scaled, kinds=[B, CO]), [0.3, 0.7])
    for e1, e2 in zip(r1.entries, r2.entries):
        assert e1.cost == pytest.approx(e2.cost, abs=1e-12)
        assert e1.rank == e2.rank


@st.composite
def crisp_problems(draw):
    m, n = draw(st.integers(2, 6)), draw(st.integers(1, 4))
    cell = st.floats(0.1, 100.0)
    cells = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=m, max_size=m))
    kinds = draw(st.lists(st.sampled_from([B, CO]), min_size=n, max_size=n))
    raw = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
    return np.array(cells), kinds, raw / raw.sum()


@pytest.mark.filterwarnings("ignore:classic ranking:UserWarning")
@given(crisp_problems(), st.data(), st.floats(1e-3, 1e3))
def test_scaling_a_crisp_column_keeps_ranking(problem, data, c):
    """Vector normalisation divides the factor out again: d+ and d- agree to
    1e-12, and ranks agree except between actions whose costs tie to 1e-12,
    whose order can follow rounding."""
    cells, kinds, weights = problem
    j = data.draw(st.integers(0, cells.shape[1] - 1))
    scaled = cells.copy()
    scaled[:, j] *= c
    want = rank_classic(dm(cells, kinds), weights)
    got = rank_classic(dm(scaled, kinds), weights)
    for e1, e2 in zip(want.entries, got.entries):
        assert e2.d_plus == pytest.approx(e1.d_plus, abs=1e-12)
        assert e2.d_minus == pytest.approx(e1.d_minus, abs=1e-12)
    for x, gx in zip(want.entries, got.entries):
        for y, gy in zip(want.entries, got.entries):
            if abs(x.cost - y.cost) > 1e-12:
                assert (x.rank < y.rank) == (gx.rank < gy.rank)


def test_rank_huge_column_matches_scaled_down():
    # squaring 2e300 overflows; the column norm must not
    huge = [[2e300, 2.0], [1e300, 1.0]]
    small = [[2.0, 2.0], [1.0, 1.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r1 = rank_classic(dm(huge), [0.5, 0.5])
        r2 = rank_classic(dm(small), [0.5, 0.5])
    for e1, e2 in zip(r1.entries, r2.entries):
        assert e1.d_plus == pytest.approx(e2.d_plus, rel=1e-12)
        assert e1.d_minus == pytest.approx(e2.d_minus, rel=1e-12)
        assert e1.rank == e2.rank
    assert r1.entry("A2").d_plus == pytest.approx(np.sqrt(0.1), rel=1e-12)


def test_benefit_cost_flip_swaps_ideals():
    w = dm([[0.2, 0.5], [0.4, 0.1]], kinds=[B, B])
    e_plus_b, e_minus_b = ideal_solutions(w)
    w_cost = dm(w.cells, kinds=[CO, CO])
    e_plus_c, e_minus_c = ideal_solutions(w_cost)
    assert e_plus_b == pytest.approx(e_minus_c)
    assert e_minus_b == pytest.approx(e_plus_c)
