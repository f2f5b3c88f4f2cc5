"""Fuzzy TOPSIS engine over triangular fuzzy ratings.

This module owns the fuzzy-number format. A triangular fuzzy number (TFN) is
a plain (a, b, c) triple: support [a, c], peak b, crisp when a == b == c. A
scale is a label -> TFN table: `default_scale()` is the five-level one, and the
parser reads a `scale` override into the same shape. The a <= b <= c rule
lives only in `_check_ordered`, which the parser applies to each override entry.

Multi-rater grids are aggregated per cell as (min of lower bounds, mean of
peaks, max of upper bounds), normalized by a linear scale transformation,
weighted by fuzzy criterion weights, and ranked by summed vertex distances to
the fuzzy ideal and anti-ideal (Chen 2000, Fuzzy Sets and Systems 114:1-9).

Array layout. A `RatingPanel` carries its linguistic labels as integer codes
into `panel.labels`: `rating_codes` has shape (k, m, n) for k raters, m
alternatives and n criteria, `weight_codes` has shape (k, n). Only the
scenario parser builds these codes, while it validates the panel. Pooling looks
the codes up in one column per component (every label's a, its b, its c) built
from the scale, and reduces each column on its own, so every later
stage works on a `FuzzyDecisionMatrix` whose `values` array has shape
(m, n, 3), the last axis holding each cell's (a, b, c), and whose fuzzy
weights have shape (n, 3). `FuzzyDecisionMatrix.cells` is a tuple-of-TFN view
of the same values, built on first use. Only the benchmark's in-process step
(`perfbench/workloads.py`) reads it, for the pooled peaks, until ROADMAP
item 1 switches that step to `values[..., 1]`.

The distances end in `classic.rank_by_closeness`, the closeness-and-ranking
skeleton both engines share; `classic` states the two cost orientations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple, Optional

import numpy as np

from .classic import CriterionKind, CriterionSpec, RankingResult, rank_by_closeness


class TFN(NamedTuple):
    a: float
    b: float
    c: float


def default_scale() -> dict[str, TFN]:
    """Five-level rating scale: Very Low through Very High."""
    return {
        "VL": TFN(1, 1, 3),
        "L": TFN(1, 3, 5),
        "AV": TFN(3, 5, 7),
        "H": TFN(5, 7, 9),
        "VH": TFN(7, 9, 9),
    }


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
    def cells(self) -> tuple[tuple[TFN, ...], ...]:
        """The values as TFNs, [alternative][criterion]."""
        return tuple(tuple(map(TFN._make, row)) for row in self.values.tolist())


@dataclass(frozen=True, eq=False)
class RatingPanel:
    """Linguistic rating grids from k decision makers over m alternatives and
    n criteria, plus each rater's criterion-weight labels, held as integer
    codes into `labels`. Only the scenario parser builds panels: it decodes
    and checks every label while it validates the document.
    """

    decision_makers: tuple[str, ...]
    alternatives: tuple[str, ...]
    criteria: tuple[CriterionSpec, ...]
    labels: tuple[str, ...]
    rating_codes: np.ndarray  # (k, m, n)
    weight_codes: np.ndarray  # (k, n)


def aggregate_ratings(panel: RatingPanel, scale: Mapping[str, TFN]) -> FuzzyDecisionMatrix:
    """Pool the raters: per cell take (min a, mean b, max c) across raters,
    and aggregate each criterion's weight labels the same way.

    The mean peak can round just past the pooled bounds (three raters at
    (0, 0.1, 0.1) average to 0.10000000000000002), so it is clamped into
    [min a, max c], where its exact value lies.
    """
    table = np.array([scale[label] for label in panel.labels], dtype=float)
    # one contiguous column per component, also with no labels
    ta, tb, tc = np.ascontiguousarray(table.reshape(-1, 3).T)

    def pool(codes: np.ndarray) -> np.ndarray:
        a = ta[codes].min(axis=0)
        c = tc[codes].max(axis=0)
        return np.stack([a, np.clip(tb[codes].mean(axis=0), a, c), c], axis=-1)

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


def apply_weights(matrix: FuzzyDecisionMatrix) -> FuzzyDecisionMatrix:
    """Multiply each column by the matrix's own criterion weight, the pooled
    one after `aggregate_ratings` (componentwise TFN product)."""
    w = matrix.weights
    if w is None:
        raise ValueError("the matrix carries no criterion weights")
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


def rank_fuzzy(weighted: FuzzyDecisionMatrix) -> RankingResult:
    """Rank a weighted normalized fuzzy matrix.

    d_plus / d_minus accumulate the per-criterion vertex distances to the
    ideal / anti-ideal as plain sums. Rank 1 goes to the highest cost value
    (the closeness coefficient), ties broken by action id. A distance that
    overflows to inf is left to `rank_by_closeness`, which rejects it.
    """
    fpis, fnis = fuzzy_ideals(weighted)
    with np.errstate(over="ignore"):
        d_plus = _vertex_distance(weighted.values, fpis).sum(axis=1)
        d_minus = _vertex_distance(weighted.values, fnis).sum(axis=1)
    return rank_by_closeness("fuzzy", weighted.alternatives, d_plus, d_minus)
