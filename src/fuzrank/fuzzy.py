"""Fuzzy TOPSIS engine over triangular fuzzy ratings.

A triangular fuzzy number (`scenario.TFN`) is a plain (a, b, c) triple:
support [a, c], peak b, crisp when a == b == c. A scale is a label -> TFN
table: `scenario.default_scale()` is the five-level one, and the parser reads
a `scale` override into the same shape, checking a <= b <= c on each entry.
The parser is the one place where that rule is checked.

Multi-rater grids are aggregated per cell as (min of lower bounds, mean of
peaks, max of upper bounds), normalized by a linear scale transformation,
weighted by fuzzy criterion weights, and ranked by summed vertex distances to
the fuzzy ideal and anti-ideal (Chen 2000, Fuzzy Sets and Systems 114:1-9).

Array layout. A `scenario.RatingPanel` carries its linguistic labels as
one-byte codes, each its label's index in the scale, rater-major: k * m * n
rating codes for k raters, m alternatives and n criteria, and k * n weight
codes. Only the scenario parser builds these codes, while it validates the
panel, and the panel's type lives with it. `aggregate_ratings` reads the
codes once as index arrays of shape (k, m, n) and (k, n). Pooling looks the
codes up in one column per component (every label's a, its b, its c) built
from the scale's values, and reduces each column on its own, so every later
stage works on a `FuzzyDecisionMatrix` whose `values` array has shape
(m, n, 3), the last axis holding each cell's (a, b, c), and whose fuzzy
weights have shape (n, 3). The ideal and anti-ideal are crisp, one value per
criterion, shape (n,).

Record types. `TFN`, like every value record in fuzrank, is a NamedTuple;
`RatingPanel` and `FuzzyDecisionMatrix` are plain classes. None generates
code at import, as `dataclasses` would. `FuzzyDecisionMatrix` sets its
fields unchecked: the parser states every rule of the panel and the scale
(each label known, a <= b <= c on each scale entry, components finite and
nonnegative), and the stages keep what it checked. From nonnegative ordered
triples, a pooled cell is (min a, mean b clipped into [min a, max c], max c),
normalising divides by upper bounds it has required to be positive, and
weighting multiplies by weights it has required to be nonnegative. Rounding
is monotone, so none of these steps can break a <= b <= c or make a finite
number infinite. A scale or matrix built by hand with a negative or infinite
component is outside that argument, and no stage checks it.
`FuzzyDecisionMatrix.cells` is a tuple-of-TFN view of the
values, built on first use; no stage reads it. The benchmark's in-process
step (`perfbench/workloads.py`) reads the pooled peaks through it, and the
tests read pooled cells as TFNs.

The distances end in `classic.rank_by_closeness`, the closeness-and-ranking
skeleton both engines share; `classic` states the two cost orientations.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Mapping, Optional

import numpy as np

from .classic import _HALF_FLOAT_MAX, RankingResult, benefit_mask, rank_by_closeness
from .scenario import TFN, CriterionKind, CriterionSpec, RatingPanel


class FuzzyDecisionMatrix:
    """Alternatives x criteria grid of TFNs plus per-criterion fuzzy weights."""

    def __init__(self, alternatives: tuple[str, ...], criteria: tuple[CriterionSpec, ...],
                 values: np.ndarray, weights: Optional[np.ndarray] = None):
        self.alternatives, self.criteria, self.values, self.weights = (
            alternatives, criteria, values, weights)

    @cached_property
    def cells(self) -> tuple[tuple[TFN, ...], ...]:
        """The values as TFNs, [alternative][criterion]."""
        return tuple(tuple(map(TFN._make, row)) for row in self.values.tolist())


def aggregate_ratings(panel: RatingPanel, scale: Mapping[str, TFN]) -> FuzzyDecisionMatrix:
    """Pool the raters: per cell take (min a, mean b, max c) across raters,
    and aggregate each criterion's weight labels the same way.

    The mean peak can round just past the pooled bounds (three raters at
    (0, 0.1, 0.1) average to 0.10000000000000002), so it is clamped into
    [min a, max c], where its exact value lies. When k peaks could sum past
    the float range, each is divided by k before the sum instead of after.
    """
    rows = list(scale.values())  # in the order the codes index
    # a Python number: top * k is inf past the float range, with no numpy warning
    top = max([row[1] for row in rows], default=0.0)
    table = np.array(rows, dtype=float)
    # one contiguous column per component, also with no labels
    ta, tb, tc = np.ascontiguousarray(table.reshape(-1, 3).T)

    def pool(codes: np.ndarray) -> np.ndarray:
        # .mean, np.clip and np.stack as the ufuncs they call, with the same
        # results: on a small panel their Python wrappers cost more than the work
        a = ta[codes].min(axis=0)
        c = tc[codes].max(axis=0)
        out = np.empty(a.shape + (3,))
        out[..., 0], out[..., 2] = a, c
        k = len(codes)
        # k peaks sum to at most top * k; half the float range leaves room
        # for the rounding of the partial sums
        if top * k < _HALF_FLOAT_MAX:
            mean = np.add.reduce(tb[codes], axis=0) / k
        else:
            mean = np.add.reduce(tb[codes] / k, axis=0)
        np.minimum(np.maximum(mean, a), c, out=out[..., 1])
        return out

    k, m, n = len(panel.decision_makers), len(panel.alternatives), len(panel.criteria)
    # intp once: a uint8 index is cast again on each of pool's three lookups
    ratings = np.frombuffer(panel.rating_codes, np.uint8).astype(np.intp).reshape(k, m, n)
    weights = np.frombuffer(panel.weight_codes, np.uint8).astype(np.intp).reshape(k, n)
    return FuzzyDecisionMatrix(panel.alternatives, panel.criteria, pool(ratings), pool(weights))


def normalize_fuzzy(matrix: FuzzyDecisionMatrix) -> FuzzyDecisionMatrix:
    """Linear-scale normalization into [0, 1] componentwise.

    Benefit criterion: divide every component by the column's largest upper
    bound. Cost criterion: divide the column's componentwise minima (min a,
    min b, min c) by the cell's own upper bound, which keeps the triplet
    ordered and inside [0, 1].
    """
    v = matrix.values
    benefit = benefit_mask(matrix.criteria)
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


def fuzzy_ideals(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column of the (m, n, 3) array, crisp as Chen (2000) defines them:
    ideal = max of upper bounds, anti-ideal = min of lower bounds, each (n,)."""
    return values[..., 2].max(axis=0), values[..., 0].min(axis=0)


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
    fpis, fnis = fuzzy_ideals(weighted.values)
    with np.errstate(over="ignore"):
        # each crisp ideal broadcast over its column's three components
        d_plus = _vertex_distance(weighted.values, fpis[:, None]).sum(axis=1)
        d_minus = _vertex_distance(weighted.values, fnis[:, None]).sum(axis=1)
    return rank_by_closeness("fuzzy", weighted.alternatives, d_plus, d_minus)
