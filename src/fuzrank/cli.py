"""Command-line front end: rank attacker actions, score assets, export graphs,
validate scenario files.

Exit codes: 0 success, 1 input/validation problem, 2 computation failure
(no positive principal eigenvector, path-enumeration explosion). Output
files are written atomically (temp file + rename) so failures never leave
partial files behind.
"""

from __future__ import annotations

import os
import sys
import tempfile
import warnings
from pathlib import Path
from typing import Optional

import click
import numpy as np

from . import __version__
from .classic import (
    ConvergenceError,
    DecisionMatrix,
    RankingResult,
    derive_weights,
    rank_classic,
)
from .fuzzy import (
    FuzzyDecisionMatrix,
    aggregate_ratings,
    apply_weights,
    normalize_fuzzy,
    rank_fuzzy,
)
from .graph import DEFAULT_PATH_CAP, PathExplosionError, export_dot, subgraph_to_goal
from .report import RunReport, fingerprint
from .scenario import (
    ScenarioError,
    ScenarioFile,
    asset_profiles,
    parse_scenario,
    resolve_vulnerability_records,
)
from .veability import veability_score

PATH_CAP_ENV = "FUZRANK_PATH_CAP"

EXIT_VALIDATION = 1
EXIT_COMPUTATION = 2


class CliError(click.ClickException):
    def __init__(self, message: str, exit_code: int = EXIT_VALIDATION):
        super().__init__(message)
        self.exit_code = exit_code


def _read_scenario(path: str, strict: bool) -> tuple[ScenarioFile, str]:
    p = Path(path)
    if not p.is_file():
        if p.exists():
            raise CliError(f"not a regular file: {path}")
        raise CliError(f"file not found: {path}")
    try:
        data = p.read_bytes()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    try:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ScenarioError([f"$: not UTF-8 text: {exc}"]) from None
        scenario = parse_scenario(text, strict=strict)
    except ScenarioError as exc:
        raise CliError(
            "scenario validation failed:\n" + "\n".join(f"  {e}" for e in exc.errors)
        )
    return scenario, fingerprint(data)


def _write_output(text: str, out: Optional[str]) -> None:
    if out is None:
        click.echo(text, nl=False)
        return
    target = Path(out)
    try:
        fd, tmp = tempfile.mkstemp(dir=str(target.parent) or ".", prefix=".fuzrank-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                f.write(text)
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc}")


def _path_cap() -> int:
    raw = os.environ.get(PATH_CAP_ENV)
    if raw is None:
        return DEFAULT_PATH_CAP
    try:
        cap = int(raw)
        if cap < 1:
            raise ValueError
        return cap
    except ValueError:
        raise CliError(f"{PATH_CAP_ENV} must be a positive integer, got {raw!r}")


def _classic_inputs(
    scenario: ScenarioFile, pooled: Optional[FuzzyDecisionMatrix]
) -> tuple[DecisionMatrix, np.ndarray]:
    """Crisp matrix and weight vector for the classic engine.

    The matrix is the scenario's explicit decision_matrix, or the per-cell
    peak (most probable value) of the pooled fuzzy ratings. Weights come
    from the pairwise matrix when present, otherwise from the criteria's own
    numeric or linguistic weights, normalized to sum 1.
    """
    if scenario.decision_matrix is not None:
        matrix = scenario.decision_matrix
    elif pooled is not None:
        peaks = pooled.values[..., 1]
        matrix = DecisionMatrix(list(scenario.actions), list(scenario.criteria), peaks)
    else:
        raise CliError(
            "classic engine needs a 'decision_matrix' or a 'panel' in the scenario"
        )

    if scenario.pairwise is not None:
        weights = derive_weights(scenario.pairwise)
    else:
        raw: list[float] = []
        for spec in scenario.criteria:
            if spec.weight is None:
                raise CliError(
                    f"criterion {spec.id!r} has no weight and the scenario has no "
                    "'pairwise' matrix; cannot weight the classic engine"
                )
            if isinstance(spec.weight, str):
                raw.append(scenario.scale[spec.weight].b)
            else:
                raw.append(float(spec.weight))
        # scaled by the largest weight first, so weights near the float
        # maximum do not overflow the sum
        top = max(raw)
        if top > 0:
            raw = [w / top for w in raw]
        total = sum(raw)
        if total <= 0:
            raise CliError("criterion weights sum to zero; cannot weight the classic engine")
        weights = np.asarray([w / total for w in raw])
    return matrix, weights


def _run_engines(scenario: ScenarioFile, engine: str) -> list[RankingResult]:
    """Run the chosen engines, pooling the panel's ratings at most once."""
    results = []
    try:
        pooled = None
        needs_panel = engine != "classic" or scenario.decision_matrix is None
        if needs_panel and scenario.panel is not None:
            pooled = aggregate_ratings(scenario.panel, scenario.scale)
        if engine in ("classic", "both"):
            matrix, weights = _classic_inputs(scenario, pooled)
            results.append(rank_classic(matrix, weights))
        if engine in ("fuzzy", "both"):
            if pooled is None:
                raise CliError("fuzzy engine needs a 'panel' section in the scenario")
            results.append(rank_fuzzy(apply_weights(normalize_fuzzy(pooled))))
    except ConvergenceError as exc:
        raise CliError(f"computation failed: {exc}", exit_code=EXIT_COMPUTATION)
    except (ValueError, KeyError) as exc:
        raise CliError(f"cannot rank scenario: {exc}")
    return results


@click.group()
@click.version_option(version=__version__, prog_name="fuzrank")
def main() -> None:
    """Rank attacker actions over an attack-graph scenario and score assets."""


@main.command()
@click.argument("scenario_path", metavar="SCENARIO")
@click.option("--engine", type=click.Choice(["classic", "fuzzy", "both"]), default="both",
              show_default=True, help="Which ranking engine(s) to run.")
@click.option("--format", "fmt", type=click.Choice(["table", "json", "csv"]),
              default="table", show_default=True, help="Report format.")
@click.option("--strict", is_flag=True, help="Treat scenario warnings as errors.")
@click.option("-o", "--output", help="Write the report to this path instead of stdout.")
def rank(scenario_path: str, engine: str, fmt: str, strict: bool, output: Optional[str]) -> None:
    """Rank attacker actions by cost/benefit closeness."""
    scenario, digest = _read_scenario(scenario_path, strict)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rankings = _run_engines(scenario, engine)
    report = RunReport(
        scenario_fingerprint=digest,
        tool_version=__version__,
        rankings=tuple(rankings),
        warnings=tuple(scenario.warnings) + tuple(str(w.message) for w in caught),
    )
    _write_output(report.render(fmt), output)


@main.command()
@click.argument("scenario_path", metavar="SCENARIO")
@click.option("--format", "fmt", type=click.Choice(["table", "json", "csv"]),
              default="table", show_default=True, help="Report format.")
@click.option("--strict", is_flag=True, help="Treat scenario warnings as errors.")
@click.option("-o", "--output", help="Write the report to this path instead of stdout.")
def veability(scenario_path: str, fmt: str, strict: bool, output: Optional[str]) -> None:
    """Score each asset's VEA-bility (higher = more secure)."""
    scenario, digest = _read_scenario(scenario_path, strict)
    if not scenario.assets:
        raise CliError("scenario has no 'assets' section to score")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        action_costs = None
        needs_ranking = any(
            v.atc_cost is None and v.action is not None for v in scenario.vulnerabilities
        )
        if needs_ranking:
            (ranking,) = _run_engines(scenario, "fuzzy")
            action_costs = {e.action: e.cost for e in ranking.entries}
        try:
            records = resolve_vulnerability_records(scenario, action_costs)
            profiles = asset_profiles(scenario, records)
        except (ValueError, KeyError) as exc:
            raise CliError(f"cannot score assets: {exc}")
        scores = tuple(veability_score(p) for p in profiles)

    report = RunReport(
        scenario_fingerprint=digest,
        tool_version=__version__,
        assets=scores,
        warnings=tuple(scenario.warnings) + tuple(str(w.message) for w in caught),
    )
    _write_output(report.render(fmt), output)


@main.command()
@click.argument("scenario_path", metavar="SCENARIO")
@click.option("--goal", help="Restrict the graph to minimal paths reaching this node.")
@click.option("--strict", is_flag=True, help="Treat scenario warnings as errors.")
@click.option("-o", "--output", help="Write DOT to this path instead of stdout.")
def graph(scenario_path: str, goal: Optional[str], strict: bool, output: Optional[str]) -> None:
    """Export the scenario's attack graph as Graphviz DOT."""
    scenario, _ = _read_scenario(scenario_path, strict)
    if scenario.graph is None:
        raise CliError("scenario has no 'graph' section to export")
    g = scenario.graph
    if goal is not None:
        if goal not in g.nodes:
            raise CliError(f"goal node {goal!r} is not in the graph")
        try:
            g = subgraph_to_goal(g, goal, cap=_path_cap())
        except PathExplosionError as exc:
            raise CliError(f"computation failed: {exc}", exit_code=EXIT_COMPUTATION)
    _write_output(export_dot(g), output)


@main.command()
@click.argument("scenario_path", metavar="SCENARIO")
@click.option("--strict", is_flag=True, help="Treat scenario warnings as errors.")
def validate(scenario_path: str, strict: bool) -> None:
    """Validate a scenario file and report problems."""
    scenario, _ = _read_scenario(scenario_path, strict)
    for w in scenario.warnings:
        click.echo(f"warning: {w}", err=True)
    click.echo(f"OK: {scenario_path} is a valid scenario")


if __name__ == "__main__":
    sys.exit(main())
