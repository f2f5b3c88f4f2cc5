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

Each command's work is a call into `fuzrank.pipeline`, which also says
which modules each command loads; this module parses the arguments, reads
the scenario, and writes what the call returns. Every error, the pipeline's
and this module's own, is a `RunError`, which the command group turns into
click's error in one place, with its message and exit code.

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
from pathlib import Path
from typing import Optional

import click
import numpy  # noqa: F401  only for the benchmark's import-time probe; the engines load it

from . import __version__, pipeline
from .pipeline import RunError
from .scenario import ScenarioError, ScenarioFile, parse_scenario

PATH_CAP_ENV = "FUZRANK_PATH_CAP"
_FORMATS = ("table", "json", "csv")  # the names `report.RunReport.render` takes


def _read_scenario(path: str, strict: bool) -> tuple[ScenarioFile, bytes]:
    p = Path(path)
    if not p.is_file():
        if p.exists():
            raise RunError(f"not a regular file: {path}")
        raise RunError(f"file not found: {path}")
    try:
        data = p.read_bytes()
    except OSError as exc:
        raise RunError(f"cannot read {path}: {exc}")
    try:
        try:
            # RFC 8259 lets a parser ignore a byte order mark
            text = data.decode("utf-8").removeprefix("\ufeff")
        except UnicodeDecodeError as exc:
            raise ScenarioError([f"$: not UTF-8 text: {exc}"]) from None
        scenario = parse_scenario(text, strict=strict)
    except ScenarioError as exc:
        raise RunError("scenario validation failed:\n" + "\n".join(f"  {e}" for e in exc.errors))
    return scenario, data


def _echo(text: str, **kwargs) -> None:
    """`click.echo` to stdout, which flushes. A broken pipe is left to click
    (exit 1, nothing on stderr); any other failed write is an exit-1 error."""
    try:
        click.echo(text, **kwargs)
    except OSError as exc:
        if exc.errno == errno.EPIPE:
            raise
        raise RunError(f"cannot write to stdout: {exc}")


def _warn(warnings: tuple[str, ...]) -> None:
    """Each warning to stderr, once the command's work is done."""
    for w in warnings:
        click.echo(f"warning: {w}", err=True)


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
                raise RunError(f"cannot write {out}: is a directory")
            if not stat.S_ISREG(st.st_mode):  # a rename would replace a FIFO or device
                raise RunError(f"cannot write {out}: not a regular file")
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
    except OSError as exc:  # its text would name the temp file
        raise RunError(f"cannot write {out}: {exc.strerror or exc}")


def _write_report(
    data: bytes, scenario: ScenarioFile, warned: tuple, fmt: str, out: Optional[str], **parts
) -> None:
    """Render the run's report over the scenario bytes `data`. CSV has no place
    for warnings, so with `--format csv` they go to stderr, as in `validate`."""
    from .report import RunReport, fingerprint

    warned = scenario.warnings + warned
    report = RunReport(fingerprint(data), __version__, warnings=warned, **parts)
    if fmt == "csv":
        _warn(report.warnings)
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
        raise RunError(f"{PATH_CAP_ENV} must be a positive integer, got {raw!r}")


class _Commands(click.Group):
    """The command group: a `RunError` becomes click's error, with its
    message and exit code."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except RunError as exc:
            error = click.ClickException(exc.message)
            error.exit_code = exc.exit_code
            raise error from exc


@click.group(cls=_Commands)
@click.version_option(version=__version__, prog_name="fuzrank")
def main() -> None:
    """Rank attacker actions over an attack-graph scenario and score assets."""


@main.command()
@click.argument("scenario_path", metavar="SCENARIO")
@click.option("--engine", type=click.Choice(pipeline.ENGINES), default="both",
              show_default=True, help="Which ranking engine(s) to run.")
@click.option("--format", "fmt", type=click.Choice(_FORMATS),
              default="table", show_default=True, help="Report format.")
@click.option("--strict", is_flag=True, help="Treat scenario warnings as errors.")
@click.option("-o", "--output", help="Write the report to this path instead of stdout.")
def rank(scenario_path: str, engine: str, fmt: str, strict: bool, output: Optional[str]) -> None:
    """Rank attacker actions by cost/benefit closeness."""
    scenario, data = _read_scenario(scenario_path, strict)
    rankings, warned = pipeline.rank(scenario, engine)
    _write_report(data, scenario, warned, fmt, output, rankings=rankings)


@main.command()
@click.argument("scenario_path", metavar="SCENARIO")
@click.option("--format", "fmt", type=click.Choice(_FORMATS),
              default="table", show_default=True, help="Report format.")
@click.option("--strict", is_flag=True, help="Treat scenario warnings as errors.")
@click.option("-o", "--output", help="Write the report to this path instead of stdout.")
def veability(scenario_path: str, fmt: str, strict: bool, output: Optional[str]) -> None:
    """Score each asset's VEA-bility (higher = more secure)."""
    scenario, data = _read_scenario(scenario_path, strict)
    scores, warned = pipeline.score_assets(scenario)
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
    from .graph import export_dot

    dot = export_dot(pipeline.select_graph(scenario, goal, _path_cap))
    _warn(scenario.warnings)
    _write_output(dot, output)


@main.command()
@click.argument("scenario_path", metavar="SCENARIO")
@click.option("--strict", is_flag=True, help="Treat scenario warnings as errors.")
def validate(scenario_path: str, strict: bool) -> None:
    """Validate a scenario file and report problems."""
    scenario, _ = _read_scenario(scenario_path, strict)
    _warn(scenario.warnings)
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
            try:
                sys.stdout.flush()
            except OSError:  # only bytes whose failed write was reported (see `fuzrank`)
                sys.stdout = open(os.devnull, "w")
            sys.stderr.flush()
        except Exception:
            pass  # the ordinary exit below flushes again and reports it
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
