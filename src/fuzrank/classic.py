"""Crisp TOPSIS engine: pairwise-comparison weighting via the principal
eigenvector, vector normalization, and closeness-to-ideal ranking.

Both engines end in `rank_by_closeness`, the skeleton shared with the fuzzy
engine: from each alternative's distances d_plus (to the ideal) and d_minus
(to the anti-ideal) it computes the two shares d_plus / (d_plus + d_minus)
and d_minus / (d_plus + d_minus), and ranks the alternative nearest the ideal
first. The engines report different shares as their cost:

- classic: cost = d_plus / (d_plus + d_minus), the similarity to the worst
  condition, so the cheapest action for an attacker has the LOWEST cost;
- fuzzy: cost = d_minus / (d_plus + d_minus), the closeness coefficient, so
  the cheapest action has the HIGHEST cost.

Reports label each cost column with its defining formula.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np


EIGEN_TOL = 1e-10
EIGEN_MAX_ITER = 10_000

#: Saaty random consistency indices by matrix size.
_RANDOM_INDEX = {1: 0.0, 2: 0.0, 3: 0.58, 4: 0.90, 5: 1.12,
                 6: 1.24, 7: 1.32, 8: 1.41, 9: 1.45, 10: 1.49}


class CriterionKind(Enum):
    BENEFIT = "benefit"
    COST = "cost"


@dataclass(frozen=True)
class CriterionSpec:
    id: str
    kind: CriterionKind = CriterionKind.BENEFIT
    weight: Optional[object] = None  # numeric for crisp runs, label for fuzzy runs


class ConvergenceError(RuntimeError):
    pass


class PairwiseMatrix:
    """Square positive reciprocal comparison matrix (cells[j][i] ==
    1/cells[i][j]) with unit diagonal."""

    def __init__(self, cells):
        m = np.asarray(cells, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"pairwise matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("pairwise matrix entries must be finite")
        if not np.all(m > 0):
            raise ValueError("pairwise matrix entries must all be positive")
        if not np.allclose(np.diagonal(m), 1.0, atol=1e-9, rtol=0):
            raise ValueError("pairwise matrix diagonal must be all ones")
        if not np.allclose(m * m.T, 1.0, atol=1e-9, rtol=0):
            raise ValueError("pairwise matrix is not reciprocal (cells[j][i] != 1/cells[i][j])")
        self.cells = m
        self.cells.setflags(write=False)

    @property
    def n(self) -> int:
        return self.cells.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PairwiseMatrix):
            return NotImplemented
        return np.array_equal(self.cells, other.cells)

    def __repr__(self) -> str:
        return f"PairwiseMatrix(n={self.n})"


class DecisionMatrix:
    """Alternatives x criteria table of nonnegative scores."""

    def __init__(self, alternatives: Sequence[str], criteria: Sequence[CriterionSpec], cells):
        m = np.asarray(cells, dtype=float)
        if m.shape != (len(alternatives), len(criteria)):
            raise ValueError(
                f"cells shape {m.shape} does not match "
                f"{len(alternatives)} alternatives x {len(criteria)} criteria"
            )
        if not np.all(np.isfinite(m)):
            raise ValueError("decision matrix cells must be finite")
        if np.any(m < 0):
            raise ValueError("decision matrix cells must be nonnegative")
        if len(set(alternatives)) != len(alternatives):
            raise ValueError("alternative ids must be unique")
        self.alternatives = list(alternatives)
        self.criteria = list(criteria)
        self.cells = m
        self.cells.setflags(write=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.cells.shape

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DecisionMatrix):
            return NotImplemented
        return (
            self.alternatives == other.alternatives
            and self.criteria == other.criteria
            and np.array_equal(self.cells, other.cells)
        )


@dataclass(frozen=True)
class ActionRanking:
    action: str
    d_plus: float
    d_minus: float
    cost: float
    benefit: float
    rank: int


@dataclass(frozen=True)
class RankingResult:
    engine: str
    cost_definition: str
    cost_orientation: str
    entries: tuple[ActionRanking, ...]

    def by_rank(self) -> list[ActionRanking]:
        return sorted(self.entries, key=lambda e: e.rank)

    def entry(self, action: str) -> ActionRanking:
        for e in self.entries:
            if e.action == action:
                return e
        raise KeyError(action)

    @property
    def minimum_effort_action(self) -> str:
        return self.by_rank()[0].action


#: engine -> (cost definition, cost orientation, cost is the d_plus share).
#: Rank 1 always goes to the smallest d_plus share, which is the lowest
#: classic cost and the highest fuzzy cost.
_COST_COLUMNS = {
    "classic": ("d_plus / (d_plus + d_minus)", "lower cost = cheaper action for the attacker", True),
    "fuzzy": ("d_minus / (d_plus + d_minus)", "higher cost = cheaper action for the attacker", False),
}


def rank_by_closeness(
    engine: str, alternatives: Sequence[str], d_plus: np.ndarray, d_minus: np.ndarray
) -> RankingResult:
    """Closeness and ranking from each alternative's distances to the ideal
    (d_plus) and anti-ideal (d_minus), reported in `engine`'s cost column.

    An alternative at zero distance from both ideals gets 0.5 for both shares,
    with one warning naming every such alternative. Ties in cost are broken
    by action id.
    """
    definition, orientation, cost_is_d_plus = _COST_COLUMNS[engine]
    total = d_plus + d_minus
    degenerate = total == 0.0
    if degenerate.any():
        names = ", ".join(repr(alternatives[i]) for i in np.flatnonzero(degenerate))
        warnings.warn(
            f"{engine} ranking: {names} at zero distance from both ideals "
            "(all alternatives identical?); cost and benefit defined as 0.5",
            stacklevel=3,
        )
    safe = np.where(degenerate, 1.0, total)
    plus_share = np.where(degenerate, 0.5, d_plus / safe).tolist()
    minus_share = np.where(degenerate, 0.5, d_minus / safe).tolist()
    cost, benefit = (plus_share, minus_share) if cost_is_d_plus else (minus_share, plus_share)
    sign = 1.0 if cost_is_d_plus else -1.0
    order = sorted(range(len(cost)), key=lambda i: (sign * cost[i], alternatives[i]))
    ranks = {i: pos + 1 for pos, i in enumerate(order)}
    entries = tuple(
        ActionRanking(alt, dp, dm, cost[i], benefit[i], ranks[i])
        for i, (alt, dp, dm) in enumerate(zip(alternatives, d_plus.tolist(), d_minus.tolist()))
    )
    return RankingResult(engine, definition, orientation, entries)


def principal_eigen(matrix: PairwiseMatrix) -> tuple[float, np.ndarray]:
    """Dominant eigenpair by power iteration: (lambda_max, weights summing to 1).

    Start vector is the column-sum-normalized row average, the classic
    pairwise-comparison approximation; Perron-Frobenius guarantees
    convergence for positive matrices.
    """
    m = matrix.cells
    col_normed = m / m.sum(axis=0, keepdims=True)
    w = col_normed.mean(axis=1)
    w /= w.sum()

    for _ in range(EIGEN_MAX_ITER):
        nxt = m @ w
        nxt /= nxt.sum()
        if np.max(np.abs(nxt - w)) < EIGEN_TOL:
            w = nxt
            break
        w = nxt
    else:
        residual = float(np.max(np.abs(m @ w - w * ((m @ w) / w).mean())))
        raise ConvergenceError(
            f"power iteration did not converge in {EIGEN_MAX_ITER} iterations "
            f"(residual {residual:.3e})"
        )

    lambda_max = float(np.mean((m @ w) / w))
    return lambda_max, w


def consistency_ratio(matrix: PairwiseMatrix, lambda_max: Optional[float] = None) -> float:
    """Saaty consistency ratio CR = CI / RI; 0 for n <= 2."""
    n = matrix.n
    if lambda_max is None:
        lambda_max, _ = principal_eigen(matrix)
    ri = _RANDOM_INDEX.get(n, 1.49)
    if ri == 0.0:
        return 0.0
    ci = (lambda_max - n) / (n - 1)
    return ci / ri


def derive_weights(matrix: PairwiseMatrix) -> np.ndarray:
    """Eigenvector weights, warning when the comparisons look inconsistent."""
    lambda_max, w = principal_eigen(matrix)
    cr = consistency_ratio(matrix, lambda_max)
    if cr > 0.1:
        warnings.warn(
            f"pairwise comparisons are inconsistent (CR = {cr:.3f} > 0.1); "
            "weights may be unreliable",
            stacklevel=2,
        )
    return w


def normalize(matrix: DecisionMatrix) -> DecisionMatrix:
    """Scale each criterion column to unit Euclidean norm."""
    # hypot instead of sqrt-of-sum so cells beyond 1e154 do not overflow the
    # norm; sorted first so the norm does not depend on the row order
    norms = np.hypot.reduce(np.sort(matrix.cells, axis=0), axis=0)
    if np.any(norms == 0):
        dead = [matrix.criteria[j].id for j in np.flatnonzero(norms == 0)]
        raise ValueError(f"cannot normalize all-zero column(s): {', '.join(dead)}")
    return DecisionMatrix(matrix.alternatives, matrix.criteria, matrix.cells / norms)


def ideal_solutions(weighted: DecisionMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Best and worst per-criterion values: (max, min) for benefit, flipped for cost."""
    benefit = np.array([spec.kind is CriterionKind.BENEFIT for spec in weighted.criteria], dtype=bool)
    hi, lo = weighted.cells.max(axis=0), weighted.cells.min(axis=0)
    return np.where(benefit, hi, lo), np.where(benefit, lo, hi)


def rank_classic(matrix: DecisionMatrix, weights: Sequence[float]) -> RankingResult:
    """Full crisp pipeline: normalize, weight, measure L2 distance to the
    ideal and anti-ideal, and rank by similarity to the worst condition
    (lowest cost first)."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (matrix.shape[1],):
        raise ValueError(f"expected {matrix.shape[1]} weights, got {w.shape}")
    if np.any(w < 0):
        raise ValueError("criterion weights must be nonnegative")
    if not np.isclose(w.sum(), 1.0, atol=1e-9):
        raise ValueError(f"criterion weights must sum to 1, got {w.sum()!r}")

    weighted = DecisionMatrix(
        matrix.alternatives, matrix.criteria, normalize(matrix).cells * w
    )
    e_plus, e_minus = ideal_solutions(weighted)
    d_plus = np.sqrt(((weighted.cells - e_plus) ** 2).sum(axis=1))
    d_minus = np.sqrt(((weighted.cells - e_minus) ** 2).sum(axis=1))
    return rank_by_closeness("classic", matrix.alternatives, d_plus, d_minus)
