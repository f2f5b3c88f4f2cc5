"""Fuzzy TOPSIS engine over triangular fuzzy ratings.

Multi-rater grids are aggregated per cell as (min of lower bounds, mean of
peaks, max of upper bounds), normalized by a linear scale transformation,
weighted by fuzzy criterion weights, and ranked by summed vertex distances to
the fuzzy ideal and anti-ideal (Chen 2000, Fuzzy Sets and Systems 114:1-9).

Array layout. A `RatingPanel` carries its linguistic labels as integer codes
into `panel.labels`: `rating_codes` has shape (k, m, n) for k raters, m
alternatives and n criteria, `weight_codes` has shape (k, n). Pooling looks
the codes up in a (labels, 3) table built from the scale, so every later
stage works on a `FuzzyDecisionMatrix` whose `values` array has shape
(m, n, 3), the last axis holding each cell's (a, b, c), and whose fuzzy
weights have shape (n, 3). `FuzzyDecisionMatrix.cells` is a tuple-of-TFN view
of the same values, built on first use.

The cost reported here is d_minus / (d_plus + d_minus) — the closeness
coefficient — so the cheapest action for an attacker has the HIGHEST cost
value and receives rank 1. That is the opposite orientation from the crisp
engine; reports label each cost column with its defining formula.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional

import numpy as np

from .classic import ActionRanking, CriterionKind, CriterionSpec, RankingResult
from .tfn import TFN, LinguisticScale, TriangularFuzzyNumber


def _check_ordered(t: np.ndarray) -> None:
    """Every (a, b, c) triple on the last axis must satisfy a <= b <= c."""
    bad = ~((t[..., 0] <= t[..., 1]) & (t[..., 1] <= t[..., 2]))
    if bad.any():
        a, b, c = t[np.unravel_index(np.argmax(bad), bad.shape)].tolist()
        raise ValueError(f"TFN components must satisfy a <= b <= c, got ({a}, {b}, {c})")


@dataclass(frozen=True, eq=False)
class FuzzyDecisionMatrix:
    """Alternatives x criteria grid of TFNs plus per-criterion fuzzy weights."""

    alternatives: tuple[str, ...]
    criteria: tuple[CriterionSpec, ...]
    values: np.ndarray  # (m, n, 3): [alternative, criterion, (a, b, c)]
    weights: Optional[np.ndarray] = None  # (n, 3)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 3 or values.shape[0] != len(self.alternatives):
            raise ValueError("one cell row per alternative required")
        if values.shape[1:] != (len(self.criteria), 3):
            raise ValueError("one cell per criterion required in every row")
        _check_ordered(values)
        object.__setattr__(self, "values", values)
        if self.weights is not None:
            weights = np.asarray(self.weights, dtype=float)
            if weights.shape != (len(self.criteria), 3):
                raise ValueError("one weight per criterion required")
            _check_ordered(weights)
            object.__setattr__(self, "weights", weights)

    @cached_property
    def cells(self) -> tuple[tuple[TriangularFuzzyNumber, ...], ...]:
        """The values as TFNs, [alternative][criterion]."""
        return tuple(tuple(TFN(*abc) for abc in row) for row in self.values.tolist())


@dataclass(frozen=True)
class RatingPanel:
    """Linguistic rating grids from N decision makers over one set of
    alternatives and criteria, plus each rater's criterion-weight labels.

    The scenario parser passes the label codes it decoded while validating.
    A panel built from the mappings alone is checked for coverage and encoded
    here.
    """

    decision_makers: tuple[str, ...]
    alternatives: tuple[str, ...]
    criteria: tuple[CriterionSpec, ...]
    ratings: Mapping[str, Mapping[str, Mapping[str, str]]]  # rater -> alt -> crit -> label
    weight_labels: Mapping[str, Mapping[str, str]]  # rater -> crit -> label
    labels: tuple[str, ...] = field(default=(), compare=False, repr=False)
    rating_codes: Optional[np.ndarray] = field(default=None, compare=False, repr=False)  # (k, m, n)
    weight_codes: Optional[np.ndarray] = field(default=None, compare=False, repr=False)  # (k, n)

    def __post_init__(self) -> None:
        if self.rating_codes is None:
            for name, value in zip(("labels", "rating_codes", "weight_codes"), self._encode()):
                object.__setattr__(self, name, value)

    def _encode(self) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
        dms = self.decision_makers
        if not dms:
            raise ValueError("rating panel needs at least one decision maker")
        if len(set(dms)) != len(dms):
            raise ValueError("decision maker names must be unique")
        crit_ids = [c.id for c in self.criteria]
        index: dict[str, int] = {}

        def encode(row: Optional[Mapping[str, str]], problem: str) -> list[int]:
            if row is None or set(row) != set(crit_ids):
                raise ValueError(problem)
            return [index.setdefault(row[cid], len(index)) for cid in crit_ids]

        ratings = []
        for dm in dms:
            grid = self.ratings.get(dm)
            if grid is None:
                raise ValueError(f"decision maker {dm!r} has no rating grid")
            if set(grid) != set(self.alternatives):
                raise ValueError(f"rating grid of {dm!r} does not cover the alternatives")
            ratings += [
                encode(grid[alt], f"rating grid of {dm!r} for {alt!r} does not cover the criteria")
                for alt in self.alternatives
            ]
        weights = [
            encode(
                self.weight_labels.get(dm),
                f"criterion weight labels of {dm!r} do not cover the criteria",
            )
            for dm in dms
        ]
        k, m, n = len(dms), len(self.alternatives), len(crit_ids)
        return (
            tuple(index),
            np.array(ratings, dtype=np.intp).reshape(k, m, n),
            np.array(weights, dtype=np.intp).reshape(k, n),
        )


def aggregate_ratings(panel: RatingPanel, scale: LinguisticScale) -> FuzzyDecisionMatrix:
    """Pool the raters: per cell take (min a, mean b, max c) across raters,
    and aggregate each criterion's weight labels the same way.

    The mean peak can round just past the pooled bounds (three raters at
    (0, 0.1, 0.1) average to 0.10000000000000002), so it is clamped into
    [min a, max c], where its exact value lies.
    """
    table = np.array([scale[label].as_tuple() for label in panel.labels], dtype=float)
    table = table.reshape(-1, 3)  # (labels, 3), also with no labels

    def pool(codes: np.ndarray) -> np.ndarray:
        tfns = table[codes]  # (k, ..., 3)
        a = tfns[..., 0].min(axis=0)
        c = tfns[..., 2].max(axis=0)
        return np.stack([a, np.clip(tfns[..., 1].mean(axis=0), a, c), c], axis=-1)

    return FuzzyDecisionMatrix(
        alternatives=panel.alternatives,
        criteria=panel.criteria,
        values=pool(panel.rating_codes),
        weights=pool(panel.weight_codes),
    )


def normalize_fuzzy(matrix: FuzzyDecisionMatrix) -> FuzzyDecisionMatrix:
    """Linear-scale normalization into [0, 1] componentwise.

    Benefit criterion: divide every component by the column's largest upper
    bound. Cost criterion: divide the column's componentwise minima (min a,
    min b, min c) by the cell's own upper bound, which keeps the triplet
    ordered and inside [0, 1].
    """
    v = matrix.values
    benefit = np.array([spec.kind is CriterionKind.BENEFIT for spec in matrix.criteria], dtype=bool)
    c_max = v[..., 2].max(axis=0)
    unusable = np.where(benefit, c_max <= 0, (v[..., 2] <= 0).any(axis=0))
    if unusable.any():
        spec = matrix.criteria[int(np.argmax(unusable))]
        if spec.kind is CriterionKind.BENEFIT:
            raise ValueError(
                f"benefit criterion {spec.id!r} has no positive upper bound; cannot normalize"
            )
        raise ValueError(
            f"cost criterion {spec.id!r} has a cell with nonpositive upper bound; "
            "cannot normalize"
        )
    cost = ~benefit
    out = np.empty_like(v)
    out[:, benefit] = v[:, benefit] / c_max[benefit, None]
    out[:, cost] = v[:, cost].min(axis=0) / v[:, cost, 2:]
    return FuzzyDecisionMatrix(matrix.alternatives, matrix.criteria, out, matrix.weights)


def apply_weights(matrix: FuzzyDecisionMatrix, weights=None) -> FuzzyDecisionMatrix:
    """Multiply each column by its criterion weight (componentwise TFN product).

    `weights` is one (a, b, c) triple per criterion; by default the matrix's
    own pooled weights.
    """
    w = matrix.weights if weights is None else np.asarray(weights, dtype=float)
    if w is None:
        raise ValueError("no weights supplied and the matrix carries none")
    n = len(matrix.criteria)
    if w.shape != (n, 3):
        raise ValueError(f"expected {n} weights as (a, b, c) triples, got shape {w.shape}")
    negative = w[:, 0] < 0
    if negative.any():
        j = int(np.argmax(negative))
        a, b, c = w[j].tolist()
        raise ValueError(
            f"weight for criterion {matrix.criteria[j].id!r} has a negative component: "
            f"TFN({a:g}, {b:g}, {c:g})"
        )
    return FuzzyDecisionMatrix(matrix.alternatives, matrix.criteria, matrix.values * w)


def fuzzy_ideals(weighted: FuzzyDecisionMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Per criterion: ideal = crisp max of upper bounds, anti-ideal = crisp min
    of lower bounds, each as an (n, 3) array of degenerate triplets."""
    v = weighted.values
    fpis = np.repeat(v[..., 2].max(axis=0)[:, None], 3, axis=1)
    fnis = np.repeat(v[..., 0].min(axis=0)[:, None], 3, axis=1)
    return fpis, fnis


def _vertex_distance(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vertex-method distance between (a, b, c) triples on the last axis:
    sqrt of the mean squared component gap."""
    d = x - y
    # hypot instead of sqrt-of-sum so tiny gaps do not underflow to 0
    return np.hypot(np.hypot(d[..., 0], d[..., 1]), d[..., 2]) / math.sqrt(3.0)


def cost_benefit(d_plus: float, d_minus: float) -> tuple[float, float]:
    """Closeness coefficients from the two accumulated distances.

    cost = d_minus / (d_plus + d_minus), benefit = d_plus / (d_plus + d_minus);
    they sum to 1. Both distances zero (fully degenerate matrix) maps to
    (0.5, 0.5).
    """
    denom = d_plus + d_minus
    if denom == 0.0:
        return 0.5, 0.5
    return d_minus / denom, d_plus / denom


COST_DEFINITION_FUZZY = "d_minus / (d_plus + d_minus)"


def rank_fuzzy(weighted: FuzzyDecisionMatrix) -> RankingResult:
    """Rank a weighted normalized fuzzy matrix.

    d_plus / d_minus accumulate the per-criterion vertex distances to the
    ideal / anti-ideal as plain sums. Rank 1 goes to the highest cost value
    (the closeness coefficient), ties broken by action id.
    """
    fpis, fnis = fuzzy_ideals(weighted)
    d_plus = _vertex_distance(weighted.values, fpis).sum(axis=1).tolist()
    d_minus = _vertex_distance(weighted.values, fnis).sum(axis=1).tolist()
    costs, benefits = [], []
    for alt, dp, dmi in zip(weighted.alternatives, d_plus, d_minus):
        if dp + dmi == 0.0:
            warnings.warn(
                f"alternative {alt!r} has zero distance to both "
                "ideals (degenerate matrix); cost defined as 0.5",
                stacklevel=2,
            )
        cost, benefit = cost_benefit(dp, dmi)
        costs.append(cost)
        benefits.append(benefit)

    order = sorted(
        range(len(costs)), key=lambda i: (-costs[i], weighted.alternatives[i])
    )
    ranks = {i: pos + 1 for pos, i in enumerate(order)}
    entries = tuple(
        ActionRanking(
            action=weighted.alternatives[i],
            d_plus=d_plus[i],
            d_minus=d_minus[i],
            cost=costs[i],
            benefit=benefits[i],
            rank=ranks[i],
        )
        for i in range(len(costs))
    )
    return RankingResult(
        engine="fuzzy",
        cost_definition=COST_DEFINITION_FUZZY,
        cost_orientation="higher cost = cheaper action for the attacker",
        entries=entries,
    )


def rank_panel(panel: RatingPanel, scale: LinguisticScale) -> RankingResult:
    """Full pipeline: aggregate, normalize, weight, rank."""
    aggregated = aggregate_ratings(panel, scale)
    return rank_fuzzy(apply_weights(normalize_fuzzy(aggregated)))
