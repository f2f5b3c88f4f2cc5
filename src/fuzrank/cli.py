"""Command-line front end: rank attacker actions, score assets, export graphs,
validate scenario files.

Exit codes: 0 success, 1 input/validation problem, 2 computation failure
(no positive principal eigenvector, path-enumeration explosion). Output
files are written atomically (temp file + rename) so failures never leave
partial files behind; a new file gets the mode a plain `open` gives it (0o666
less the umask), and an overwritten one keeps its mode. `-o` follows a
symlink, so the file it names is replaced and the link stays, and refuses an
existing target that is not a regular file, such as a FIFO or a device. A
failed write to stdout is an exit-1 error, except a broken pipe, which click
ends with exit 1 and nothing on stderr.

Start-up bounds a call, so each command loads only what it uses. `import
fuzrank.cli` loads click, numpy and the scenario parser, and no other fuzrank
module; numpy and click stay at the top only because the benchmark's
import-time probe (`perfbench/run.py`) expects `import fuzrank.cli` to load
both. The parser loads no engine, and a section's module only with the
section (see `scenario`): `graph` for a graph, `cvss` and `veability` for
vulnerabilities or assets. Then `rank` loads `classic`, `fuzzy` and `report`
(with `hashlib`, and `csv` for `--format csv`); `veability` loads `veability`
and `report`, and the engines only when a cost must come from the ranking;
`graph` loads `graph`; `validate` loads nothing more. So `validate` never
loads an engine, `graph` on a document with only a graph loads neither
engine, and `rank` on a document with no graph never loads `graph`. No
fuzrank module uses `dataclasses`, which generates each class's methods by
`exec` at import: records are NamedTuples or plain classes.

A `fuzrank` process follows the process policy stated once, in the package
docstring (`fuzrank`): `run` is its entry, and `main` the entry for
embedding, which never calls `os._exit`.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    from . import _start_process

    _start_process()

import atexit
import errno
import os
import stat
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Optional

import click
import numpy as np

from . import __version__
from .scenario import (
    ScenarioError,
    ScenarioFile,
    asset_profiles,
    parse_scenario,
    resolve_vulnerability_records,
)

if TYPE_CHECKING:
    from .classic import DecisionMatrix, RankingResult
    from .fuzzy import FuzzyDecisionMatrix

PATH_CAP_ENV = "FUZRANK_PATH_CAP"

EXIT_VALIDATION = 1
EXIT_COMPUTATION = 2


class CliError(click.ClickException):
    def __init__(self, message: str, exit_code: int = EXIT_VALIDATION):
        super().__init__(message)
        self.exit_code = exit_code


def _read_scenario(path: str, strict: bool) -> tuple[ScenarioFile, bytes]:
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
    return scenario, data


def _echo(text: str, **kwargs) -> None:
    """`click.echo` to stdout. A broken pipe is left to click (exit 1, nothing
    on stderr); any other failed write is an exit-1 error, and the bytes that
    could not be written are dropped with the stream, so that no later flush
    fails on them again."""
    try:
        click.echo(text, **kwargs)
    except OSError as exc:
        if exc.errno == errno.EPIPE:
            raise
        sys.stdout = open(os.devnull, "w")
        raise CliError(f"cannot write to stdout: {exc}")


def _write_output(text: str, out: Optional[str]) -> None:
    if out is None:
        # color=True: write escape sequences as `-o` does, on a pipe too
        _echo(text, nl=False, color=True)
        return
    # the file a symlink names is replaced, and the link kept
    target = Path(os.path.realpath(out))
    try:
        try:
            st = os.stat(target)
        except FileNotFoundError:
            # a new file: 0o666 less the umask, as a plain open gives
            mode: Optional[int] = None
        else:
            if stat.S_ISDIR(st.st_mode):
                raise CliError(f"cannot write {out}: is a directory")
            if not stat.S_ISREG(st.st_mode):  # a rename would replace a FIFO or device
                raise CliError(f"cannot write {out}: not a regular file")
            mode = st.st_mode & 0o7777
        while True:
            tmp = target.parent / f".fuzrank-{os.urandom(4).hex()}"
            try:
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                break
            except FileExistsError:
                continue
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                if mode is not None:
                    os.fchmod(fd, mode)
                f.write(text)
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc}")


def _write_report(
    data: bytes, scenario: ScenarioFile, warned: tuple, fmt: str, out: Optional[str], **parts
) -> None:
    """Render the run's report over the scenario bytes `data`. CSV has no place
    for warnings, so with `--format csv` they go to stderr, as in `validate`."""
    from .report import RunReport, fingerprint

    warned = scenario.warnings + warned
    report = RunReport(fingerprint(data), __version__, warnings=warned, **parts)
    if fmt == "csv":
        for w in report.warnings:
            click.echo(f"warning: {w}", err=True)
    _write_output(report.render(fmt), out)


def _path_cap() -> int:
    raw = os.environ.get(PATH_CAP_ENV)
    if raw is None:
        from .graph import DEFAULT_PATH_CAP

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
        raise CliError(
            "classic engine needs a 'decision_matrix' or a 'panel' in the scenario"
        )
    matrix = DecisionMatrix(scenario.actions, scenario.criteria, cells)

    if scenario.pairwise is not None:
        weights = derive_weights(scenario.pairwise)
    else:
        raw = [spec.weight for spec in scenario.criteria]
        if None in raw:
            spec = scenario.criteria[raw.index(None)]
            raise CliError(
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
            raise CliError("criterion weights sum to zero; cannot weight the classic engine")
        weights = np.asarray([w / total for w in raw])
    return matrix, weights


def _run_engines(scenario: ScenarioFile, engine: str) -> tuple[list[RankingResult], tuple]:
    """Run the chosen engines, pooling the panel's ratings at most once, and
    return their rankings and the warnings they raised, in order.

    A float fault (numpy's RuntimeWarning: overflow, invalid value, division
    by zero) while an engine runs is a computation failure naming that
    engine, never a report warning: its result could hold an inf or a NaN.
    Pooling counts to the fuzzy engine unless only the classic one runs.
    """
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
                    raise CliError("fuzzy engine needs a 'panel' section in the scenario")
                results.append(rank_fuzzy(apply_weights(normalize_fuzzy(pooled))))
    except RuntimeWarning as exc:
        raise CliError(f"computation failed in {running}: {exc}", exit_code=EXIT_COMPUTATION)
    except ConvergenceError as exc:
        raise CliError(f"computation failed: {exc}", exit_code=EXIT_COMPUTATION)
    except ValueError as exc:
        raise CliError(f"cannot rank scenario: {exc}")
    return results, tuple(str(w.message) for w in caught)


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
    scenario, data = _read_scenario(scenario_path, strict)
    rankings, warned = _run_engines(scenario, engine)
    _write_report(data, scenario, warned, fmt, output, rankings=tuple(rankings))


@main.command()
@click.argument("scenario_path", metavar="SCENARIO")
@click.option("--format", "fmt", type=click.Choice(["table", "json", "csv"]),
              default="table", show_default=True, help="Report format.")
@click.option("--strict", is_flag=True, help="Treat scenario warnings as errors.")
@click.option("-o", "--output", help="Write the report to this path instead of stdout.")
def veability(scenario_path: str, fmt: str, strict: bool, output: Optional[str]) -> None:
    """Score each asset's VEA-bility (higher = more secure)."""
    scenario, data = _read_scenario(scenario_path, strict)
    if not scenario.assets:
        raise CliError("scenario has no 'assets' section to score")

    action_costs, warned = None, ()
    if any(v.atc_cost is None and v.action is not None for v in scenario.vulnerabilities):
        (ranking,), warned = _run_engines(scenario, "fuzzy")
        action_costs = {e.action: e.cost for e in ranking.entries}
    try:
        records = resolve_vulnerability_records(scenario, action_costs)
    except ValueError as exc:
        raise CliError(f"cannot score assets: {exc}")
    from .veability import veability_score

    scores = tuple(veability_score(p) for p in asset_profiles(scenario, records))
    _write_report(data, scenario, warned, fmt, output, assets=scores)


@main.command()
@click.argument("scenario_path", metavar="SCENARIO")
@click.option("--goal", help="Restrict the graph to minimal paths reaching this node. Exits 2 "
              "past FUZRANK_PATH_CAP candidate paths (default 10000); raise that variable "
              "to enumerate anyway.")
@click.option("--strict", is_flag=True, help="Treat scenario warnings as errors.")
@click.option("-o", "--output", help="Write DOT to this path instead of stdout.")
def graph(scenario_path: str, goal: Optional[str], strict: bool, output: Optional[str]) -> None:
    """Export the scenario's attack graph as Graphviz DOT."""
    scenario, _ = _read_scenario(scenario_path, strict)
    if scenario.graph is None:
        raise CliError("scenario has no 'graph' section to export")
    from .graph import PathExplosionError, export_dot, subgraph_to_goal

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
    _echo(f"OK: {scenario_path} is a valid scenario")


def run() -> None:
    """The `fuzrank` process: `main` with the cyclic collector off, then an
    exit without the interpreter's teardown (see `fuzrank`)."""
    gc.disable()
    try:
        main()
    except SystemExit as exc:  # standalone click ends every call with one
        code = exc.code
    finally:
        gc.freeze()
    # `python -i` shows its prompt after the command: it needs the interpreter
    if isinstance(code, int) and not sys.flags.inspect:
        atexit._run_exitfuncs()
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except Exception:
            pass  # the ordinary exit below flushes again and reports it
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
