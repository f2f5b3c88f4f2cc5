"""Crisp TOPSIS engine: pairwise-comparison weighting via the principal
eigenvector (from `numpy.linalg.eig`), vector normalization, and
closeness-to-ideal ranking.

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
    by action id. A distance, or a sum of the two, that is not a finite
    number (an overflow past the float range) raises ValueError.
    """
    definition, orientation, cost_is_d_plus = _COST_COLUMNS[engine]
    with np.errstate(over="ignore"):
        total = d_plus + d_minus
    # the distances are nonnegative, so an inf or nan in either shows in the sum
    overflow = ~np.isfinite(total)
    if overflow.any():
        names = ", ".join(repr(alternatives[i]) for i in np.flatnonzero(overflow))
        raise ValueError(
            f"{engine} ranking: the distances of {names} to the ideals, or "
            "their sum, overflow the float range"
        )
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
    """Principal eigenpair (lambda_max, weights summing to 1) by
    `numpy.linalg.eig`: the eigenvalue of largest real part, and the absolute
    real part of its eigenvector, normalized.

    A positive reciprocal matrix has lambda_max >= n and a positive
    eigenvector (Perron-Frobenius). Entries near the float range can break
    both in floating point; such a result raises ConvergenceError.
    """
    n = matrix.n
    values, vectors = np.linalg.eig(matrix.cells)
    k = int(np.argmax(values.real))
    lambda_max = float(values.real[k])
    w = np.abs(vectors[:, k].real)
    w /= w.sum()
    if not (lambda_max >= n * (1 - 1e-9) and np.all(np.isfinite(w)) and np.all(w > 0)):
        raise ConvergenceError(
            f"pairwise matrix has no positive principal eigenvector in floating "
            f"point (lambda_max {lambda_max:.6g} for n = {n})"
        )
    return lambda_max, w


def consistency_ratio(matrix: PairwiseMatrix, lambda_max: float) -> float:
    """Saaty consistency ratio CR = CI / RI of a matrix whose principal
    eigenvalue is `lambda_max`; 0 for n <= 2."""
    n = matrix.n
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
        raise ValueError(f"criterion weights must sum to 1, got {float(w.sum())!r}")

    weighted = DecisionMatrix(
        matrix.alternatives, matrix.criteria, normalize(matrix).cells * w
    )
    e_plus, e_minus = ideal_solutions(weighted)
    d_plus = np.sqrt(((weighted.cells - e_plus) ** 2).sum(axis=1))
    d_minus = np.sqrt(((weighted.cells - e_minus) ** 2).sum(axis=1))
    return rank_by_closeness("classic", matrix.alternatives, d_plus, d_minus)
