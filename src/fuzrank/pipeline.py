"""The work of each command, as library calls on a parsed `ScenarioFile`:
`rank` runs the ranking engines, `score_assets` scores the assets' VEA-bility,
and `select_graph` picks the graph that `graph` exports. The command line
(`fuzrank.cli`) only reads the file, calls these and writes their output;
a library caller gets the same results with no click. Every problem a run
meets is a `RunError`, with the message and exit code the command line gives
it: 1 for an input the run cannot use, 2 for a computation failure.

The loading rule. Start-up bounds a call, so a command loads only the
modules it runs. This is the rule's one statement, and `LOADS` in
`tests/test_pipeline.py` pins it: one row per entry point, with the exact
fuzrank modules it loads, and which of numpy, click, `csv` and `dataclasses`
it loads. Each function here imports its stage modules in its body, where
they are looked up at call time. Numpy loads only with the engines
(`classic`, `fuzzy`): this module and the parser import none.
`import fuzrank.cli` loads click, the parser and this module; it also
imports numpy, and only because the benchmark's import-time probe
(`perfbench/run.py`) expects it to. The parser defines every type it returns
(see `scenario`), so it loads no stage module but `cvss`, which checks the
vectors of a vulnerabilities section. Then `rank` loads `classic` and
`fuzzy`; `score_assets` loads `veability`, and the engines only when a cost
must come from the ranking; `select_graph` loads `graph` for a goal, and the
`graph` command loads it to export DOT. The `rank` and `veability` commands
add `report` (with `hashlib`), and `validate` loads nothing more. No
command loads `csv`: the report joins its CSV rows itself. No fuzrank module
uses `dataclasses`, which generates each class's methods by `exec` at
import: records are NamedTuples or plain classes.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .scenario import AttackGraph, ScenarioFile, asset_profiles, resolve_vulnerability_records

if TYPE_CHECKING:
    from .classic import DecisionMatrix, RankingResult
    from .fuzzy import FuzzyDecisionMatrix
    from .veability import AssetScore

EXIT_VALIDATION = 1
EXIT_COMPUTATION = 2
ENGINES = ("classic", "fuzzy", "both")  # the engine names `rank` takes


class RunError(Exception):
    """A run that cannot finish: `message` says why, and `exit_code` is the
    command line's (1 input, 2 computation)."""

    def __init__(self, message: str, exit_code: int = EXIT_VALIDATION):
        super().__init__(message)
        self.message, self.exit_code = message, exit_code


def _classic_inputs(
    scenario: ScenarioFile, pooled: Optional[FuzzyDecisionMatrix]
) -> tuple[DecisionMatrix, Sequence[float]]:
    """Crisp matrix and weight vector for the classic engine.

    The matrix is the scenario's explicit decision_matrix, or the per-cell
    peak (most probable value) of the pooled fuzzy ratings. Weights come
    from the pairwise matrix when present, otherwise from the criteria's own
    weights (the parser reads a label as its peak), normalized to sum 1.
    """
    from .classic import DecisionMatrix, derive_weights

    if scenario.decision_matrix is not None:
        cells = scenario.decision_matrix
    elif pooled is not None:
        # pooled over the parser's checked scale: finite, nonnegative, one row
        # per (unique) action and one column per criterion
        cells = pooled.values[..., 1]
    else:
        raise RunError("classic engine needs a 'decision_matrix' or a 'panel' in the scenario")
    matrix = DecisionMatrix(scenario.actions, scenario.criteria, cells)

    if scenario.pairwise is not None:
        weights = derive_weights(scenario.pairwise)
    else:
        raw = [spec.weight for spec in scenario.criteria]
        if None in raw:
            spec = scenario.criteria[raw.index(None)]
            raise RunError(
                f"criterion {spec.id!r} has no weight and the scenario has no "
                "'pairwise' matrix; cannot weight the classic engine"
            )
        # scaled by the largest weight first, so weights near the float
        # maximum do not overflow the sum
        top = max(raw)
        if top > 0:
            raw = [w / top for w in raw]
        total = sum(raw)
        if total <= 0:
            raise RunError("criterion weights sum to zero; cannot weight the classic engine")
        weights = [w / total for w in raw]
    return matrix, weights


def rank(scenario: ScenarioFile, engine: str) -> tuple[tuple[RankingResult, ...], tuple[str, ...]]:
    """Run the chosen engines (a name in `ENGINES`; any other raises
    ValueError before any work), pooling the panel's ratings at most once,
    and return their rankings and the warnings they raised, in order.

    A float fault (numpy's RuntimeWarning: overflow, invalid value, division
    by zero) while an engine runs is a computation failure naming that
    engine, never a report warning: its result could hold an inf or a NaN.
    Pooling counts to the fuzzy engine unless only the classic one runs.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; use one of {', '.join(ENGINES)}")
    from .classic import ConvergenceError, rank_classic
    from .fuzzy import aggregate_ratings, apply_weights, normalize_fuzzy, rank_fuzzy

    results = []
    running = "classic" if engine == "classic" else "fuzzy"
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warnings.simplefilter("error", RuntimeWarning)
            pooled = None
            needs_panel = engine != "classic" or scenario.decision_matrix is None
            if needs_panel and scenario.panel is not None:
                pooled = aggregate_ratings(scenario.panel, scenario.scale)
            if engine in ("classic", "both"):
                running = "classic"
                matrix, weights = _classic_inputs(scenario, pooled)
                results.append(rank_classic(matrix, weights))
            if engine in ("fuzzy", "both"):
                running = "fuzzy"
                if pooled is None:
                    raise RunError("fuzzy engine needs a 'panel' section in the scenario")
                results.append(rank_fuzzy(apply_weights(normalize_fuzzy(pooled))))
    except RuntimeWarning as exc:
        raise RunError(f"computation failed in {running}: {exc}", EXIT_COMPUTATION)
    except ConvergenceError as exc:
        raise RunError(f"computation failed: {exc}", EXIT_COMPUTATION)
    except ValueError as exc:
        raise RunError(f"cannot rank scenario: {exc}")
    return tuple(results), tuple(str(w.message) for w in caught)


def score_assets(scenario: ScenarioFile) -> tuple[tuple[AssetScore, ...], tuple[str, ...]]:
    """Each asset's VEA-bility score, and the warnings of the fuzzy ranking
    that supplies a vulnerability's missing atc_cost, if one had to run."""
    if not scenario.assets:
        raise RunError("scenario has no 'assets' section to score")
    action_costs, warned = None, ()
    if any(v.atc_cost is None and v.action is not None for v in scenario.vulnerabilities):
        (ranking,), warned = rank(scenario, "fuzzy")
        action_costs = {e.action: e.cost for e in ranking.entries}
    try:
        records = resolve_vulnerability_records(scenario, action_costs)
    except ValueError as exc:
        raise RunError(f"cannot score assets: {exc}")
    from .veability import veability_score

    return tuple(veability_score(p) for p in asset_profiles(scenario, records)), warned


def select_graph(
    scenario: ScenarioFile, goal: Optional[str], path_cap: Callable[[], int]
) -> AttackGraph:
    """The scenario's attack graph, or with a `goal` its subgraph of the
    minimal paths that reach that node. `path_cap()` gives the cap on
    candidate paths, and is called only once the goal is known to be a node,
    so a bad goal is reported before a bad cap."""
    if scenario.graph is None:
        raise RunError("scenario has no 'graph' section to export")
    if goal is None:
        return scenario.graph
    if goal not in scenario.graph.nodes:
        raise RunError(f"goal node {goal!r} is not in the graph")
    from .graph import PathExplosionError, subgraph_to_goal

    try:
        return subgraph_to_goal(scenario.graph, goal, cap=path_cap())
    except PathExplosionError as exc:
        raise RunError(f"computation failed: {exc}", EXIT_COMPUTATION)
