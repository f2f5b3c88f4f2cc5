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

The matrix rules live in the scenario parser, which holds both matrices as
tuples of float rows: a pairwise matrix there is square, positive, has a
unit diagonal and is reciprocal; a decision matrix is finite and
nonnegative, one row per unique action. So `principal_eigen`,
`consistency_ratio` and `derive_weights` take any square array-like, and
`DecisionMatrix` only sets its fields. The stages `normalize` and
`ideal_solutions` are functions of (m, n) arrays, so `rank_classic` builds
no record between them; `benefit_mask` serves both engines.
"""

from __future__ import annotations

import math
import sys
import warnings
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .scenario import CriterionKind, CriterionSpec


_HALF_FLOAT_MAX = sys.float_info.max / 2

#: Saaty random consistency indices by matrix size.
_RANDOM_INDEX = {1: 0.0, 2: 0.0, 3: 0.58, 4: 0.90, 5: 1.12,
                 6: 1.24, 7: 1.32, 8: 1.41, 9: 1.45, 10: 1.49}


class ConvergenceError(RuntimeError):
    pass


class DecisionMatrix:
    """Alternatives x criteria table of scores, its `values` a read-only float
    array of shape (m, n). The fields are set unchecked: the scenario parser
    checks a document's matrix (finite and nonnegative, one row per unique
    action), and the stages keep what it checked."""

    def __init__(self, alternatives: Sequence[str], criteria: Sequence[CriterionSpec], values):
        self.alternatives, self.criteria = alternatives, criteria
        self.values = np.asarray(values, dtype=float)
        self.values.setflags(write=False)


class ActionRanking(NamedTuple):
    action: str
    d_plus: float
    d_minus: float
    cost: float
    benefit: float
    rank: int


class RankingResult(NamedTuple):
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


def principal_eigen(matrix) -> tuple[float, np.ndarray]:
    """Principal eigenpair (lambda_max, weights summing to 1) of a square
    array-like by `numpy.linalg.eig`: the eigenvalue of largest real part,
    and the absolute real part of its eigenvector, normalized.

    A positive reciprocal matrix has lambda_max >= n and a positive
    eigenvector (Perron-Frobenius). Entries near the float range can break
    both in floating point; such a result raises ConvergenceError.
    """
    n = len(matrix)
    values, vectors = np.linalg.eig(np.asarray(matrix, dtype=float))
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


def consistency_ratio(matrix, lambda_max: float) -> float:
    """Saaty consistency ratio CR = CI / RI of a square matrix whose
    principal eigenvalue is `lambda_max`; 0 for n <= 2. Saaty's table stops
    at n = 10, so every n > 10 uses its last random index, RI = 1.49."""
    n = len(matrix)
    ri = _RANDOM_INDEX.get(n, 1.49)
    if ri == 0.0:
        return 0.0
    ci = (lambda_max - n) / (n - 1)
    return ci / ri


def derive_weights(matrix) -> np.ndarray:
    """Eigenvector weights of a square pairwise comparison matrix, warning
    when the comparisons look inconsistent."""
    lambda_max, w = principal_eigen(matrix)
    cr = consistency_ratio(matrix, lambda_max)
    if cr > 0.1:
        # from 1000 on, exponent form: an extreme CR would print a hundred digits
        shown = f"{cr:.3f}" if cr < 1000 else f"{cr:.3e}"
        warnings.warn(
            f"pairwise comparisons are inconsistent (CR = {shown} > 0.1); "
            "weights may be unreliable",
            stacklevel=2,
        )
    return w


def benefit_mask(criteria: Sequence[CriterionSpec]) -> np.ndarray:
    """True for each benefit criterion, False for each cost criterion."""
    return np.array([spec.kind is CriterionKind.BENEFIT for spec in criteria], dtype=bool)


def normalize(values: np.ndarray, criteria: Sequence[CriterionSpec]) -> np.ndarray:
    """Scale each column of the (m, n) array to unit Euclidean norm; an
    all-zero column raises ValueError naming its criterion."""
    # hypot instead of sqrt-of-sum so cells beyond 1e154 do not overflow the
    # norm; sorted first so the norm does not depend on the row order
    ordered = np.sort(values, axis=0)
    # A norm is at most sqrt(m) times its column's largest cell, the sorted
    # last row. A column whose norm could pass half the float range (the
    # other half is room for rounding) is divided by that cell first.
    huge = ordered[-1:] > _HALF_FLOAT_MAX / math.sqrt(max(len(values), 1))
    if huge.any():
        top = np.where(huge, ordered[-1:], 1.0)
        values, ordered = values / top, ordered / top
    norms = np.hypot.reduce(ordered, axis=0)
    zero = norms == 0
    if zero.any():
        dead = [criteria[j].id for j in np.flatnonzero(zero)]
        raise ValueError(f"cannot normalize all-zero column(s): {', '.join(dead)}")
    return values / norms


def ideal_solutions(values: np.ndarray, benefit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best and worst value of each column: (max, min) where `benefit` is
    True, flipped for cost."""
    hi, lo = values.max(axis=0), values.min(axis=0)
    return np.where(benefit, hi, lo), np.where(benefit, lo, hi)


def rank_classic(matrix: DecisionMatrix, weights: Sequence[float]) -> RankingResult:
    """Full crisp pipeline: normalize, weight, measure L2 distance to the
    ideal and anti-ideal, and rank by similarity to the worst condition
    (lowest cost first)."""
    n = matrix.values.shape[1]
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"expected {n} weights, got {w.shape}")
    if (w < 0).any():
        raise ValueError("criterion weights must be nonnegative")
    total = float(w.sum())
    # np.isclose(total, 1.0, atol=1e-9) on a Python float: 1e-5 is its rtol
    if not abs(total - 1.0) <= 1e-9 + 1e-5:
        raise ValueError(f"criterion weights must sum to 1, got {total!r}")

    weighted = normalize(matrix.values, matrix.criteria) * w
    e_plus, e_minus = ideal_solutions(weighted, benefit_mask(matrix.criteria))
    d_plus = np.sqrt(((weighted - e_plus) ** 2).sum(axis=1))
    d_minus = np.sqrt(((weighted - e_minus) ** 2).sum(axis=1))
    return rank_by_closeness("classic", matrix.alternatives, d_plus, d_minus)
