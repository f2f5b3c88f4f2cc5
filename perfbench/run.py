#!/usr/bin/env python3
"""fuzrank benchmark: what one CLI call costs a user, and the same work in a
warm process, with a separate traced run that times each module.

Run from the repository root:

    python3 perfbench/run.py --workload panel_400x20x10 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --quick     # every workload and check at tiny sizes

Closed loop, one client: one operation at a time, one child process at a
time. A run interleaves these kinds of sample, each given a fixed share of
`--seconds`: a fresh interpreter importing fuzrank.cli (setup_s), one
operation as fresh `python -m fuzrank.cli` processes (cli_*, peak_rss_mb),
the operation through the public API in this process (inproc_*), a fixed
stdlib-only calibration child that gauges the host's speed (host.calib_s),
and with `--trace 1` the operation with spans around each public call plus
`python -X importtime` probes. Every reported time is scaled to a reference
host speed by the run's calibration samples (see CALIB_REF_S). Every
operation's output is checked. Human readable lines come first; the last
line of stdout is one JSON object. The full record of a run, raw samples and
spans included, goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

import checks  # noqa: E402  (sibling modules; the script's directory is on sys.path)
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 60.0
# Stop sampling after this long whatever --seconds says, so a run ends in time.
RUN_LIMIT_S = 140.0
# Share of --seconds given to each kind of sample.
SHARES = {
    0: {"setup": 0.25, "cli": 0.35, "inproc": 0.30, "calib": 0.10},
    1: {"setup": 0.10, "importtime": 0.05, "cli": 0.25, "inproc": 0.20, "traced": 0.35,
        "calib": 0.05},
}
MIN_SAMPLES = {"setup": 10, "importtime": 3, "cli": 3, "inproc": 3, "traced": 3, "calib": 10}
# Tail = highest of these percentiles with at least ten samples beyond it.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)

# Bounded metrics. Between runs on a shared machine the median of a run drifts
# with its neighbours' load far more than its fast tenth does, so every bounded
# time, setup_s too, is a p10 (scaled to the reference host speed); medians
# and tails are reported unbounded.
END_TO_END = {
    "setup_s": "s",
    "cli_p10_s": "s",
    "inproc_p10_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli_p50_s": "s",
    "cli_tail_s": "s",
    "inproc_p50_s": "s",
    "inproc_tail_s": "s",
    "import.fuzrank_s": "s",
    "import.numpy_s": "s",
    "import.click_s": "s",
    "cli.residual_s": "s",
    "scenario.parse_s": "s",
    "scenario.json_decode_s": "s",
    "scenario.bytes": "bytes",
    "scenario.labels": "count",
    "fuzzy.aggregate_s": "s",
    "fuzzy.normalize_s": "s",
    "fuzzy.weight_s": "s",
    "fuzzy.rank_s": "s",
    "fuzzy.cells": "count",
    "classic.weights_s": "s",
    "classic.rank_s": "s",
    "veability.resolve_s": "s",
    "veability.score_s": "s",
    "veability.assets": "count",
    "graph.enumerate_s": "s",
    "graph.subgraph_s": "s",
    "graph.dot_s": "s",
    "graph.minimal_sets": "count",
    "graph.kept_nodes": "count",
    "report.render_s": "s",
    "report.bytes": "bytes",
    "gc.pause_s": "s",
    "gc.gen2_collections": "count",
    "trace.overhead_s": "s",
    "host.calib_s": "s",
}
LATENCY_STATS = ("cli_p50_s", "cli_tail_s", "inproc_p50_s", "inproc_tail_s", "host.calib_s")
LAYERS = ("scenario", "fuzzy", "classic", "veability", "graph", "report")
# Spans the traced run adds outside each operation; left out of layer shares.
EXTRA_SPANS = ("scenario.json_decode", "graph.enumerate")


# --- child processes -------------------------------------------------------------


@dataclass
class Child:
    wall_s: float
    code: int
    rss_mb: float
    out: bytes
    err: bytes


def spawn(argv: list[str], env: dict[str, str], workdir: Path) -> Child:
    """Run one child to completion. Wall time spans spawn to exit; peak RSS
    comes from the wait4 rusage. A child past CHILD_TIMEOUT_S is killed."""
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT
        )
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], CHILD_TIMEOUT_S)
            finally:
                os.close(pidfd)
            if not ready:
                proc.kill()
        except BaseException:
            proc.kill()
            raise
        finally:
            _, status, usage = os.wait4(proc.pid, 0)  # always reap the child
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Child(wall, code, usage.ru_maxrss / 1024.0, out_path.read_bytes(), err_path.read_bytes())


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("FUZRANK_PATH_CAP", None)
    return env


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds of the first import of fuzrank.cli, numpy and click."""
    found: dict[str, float] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        if name in ("fuzrank.cli", "numpy", "click") and name not in found:
            found[name] = int(parts[1]) / 1e6
    return found


# --- tracing ------------------------------------------------------------------------


class Tracer:
    """Spans [op, name, parent span, start, end] and per-operation counts,
    kept in memory and written out when the run ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: list[dict[str, float]] = []
        self._stack: list[int] = []

    def begin_op(self) -> None:
        self.counts.append({})

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def count(self, name: str, value: float) -> None:
        ops = self.counts[-1]
        ops[name] = ops.get(name, 0) + value

    def durations(self) -> list[dict[str, float]]:
        """Per operation: summed duration of each span name, the root's under "op"."""
        ops: list[dict[str, float]] = [{} for _ in self.counts]
        for op, name, _, start, end in self.spans:
            ops[op][name] = ops[op].get(name, 0.0) + (end - start)
        return ops


class NoTrace:
    """Tracer interface that records nothing: the untraced measurements."""

    _null = contextlib.nullcontext()

    def span(self, name: str) -> contextlib.nullcontext:
        return self._null

    def count(self, name: str, value: float) -> None:
        pass


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self) -> None:
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr._stack[-1] if tr._stack else -1
        tr.spans.append([len(tr.counts) - 1, self.name, parent, time.perf_counter(), 0.0])
        tr._stack.append(self.index)

    def __exit__(self, *exc) -> bool:
        tr = self.tracer
        tr.spans[self.index][4] = time.perf_counter()
        tr._stack.pop()
        return False


class GcMonitor:
    """gc.callbacks hook: pause time and gen-2 collections while active."""

    def __init__(self) -> None:
        self.active = False
        self.pause_s = 0.0
        self.gen2 = 0
        self._t0 = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if not self.active:
            return
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._t0
            self.gen2 += info["generation"] == 2


# --- host speed -------------------------------------------------------------

# p10 of the calibration child's wall time on a host running at the
# reference speed. A shared host's speed drifts by tens of percent within
# minutes, slowing fuzrank and everything else, so every time a run reports is
# its wall time multiplied by the run's host factor, CALIB_REF_S / (p10 of the
# run's calibration samples, interleaved with the others): seconds at the
# reference speed. The child is a fresh interpreter importing a fixed set of
# standard-library modules: the same kind of work as setup_s and a CLI call,
# with no fuzrank, numpy or click in it, so no change to fuzrank moves it. In a
# loaded minute it slowed as much as both setup_s and an in-process panel
# operation did, where a short in-process loop slowed half as much again.
CALIB_REF_S = 0.075
CALIB_CODE = "import csv, decimal, email.parser, json"


# --- statistics -----------------------------------------------------------------


def p10(samples: list[float]) -> float:
    """10th percentile by nearest rank; 0 for no samples."""
    if not samples:
        return 0.0
    return sorted(samples)[math.ceil(0.1 * len(samples)) - 1]


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile on TAIL_LADDER with at least
    ten samples beyond it, by nearest rank. Below 20 samples no percentile
    qualifies and the median is reported as p50."""
    n = len(samples)
    ordered = sorted(samples)
    for q in TAIL_LADDER:
        rank = math.ceil(q / 100.0 * n)
        if q > 50.0 and n - rank >= 10:
            return q, ordered[rank - 1]
    return 50.0, median_or_zero(ordered)


def median_or_zero(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


# --- environment -------------------------------------------------------------------


def git_commit(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import fuzrank

    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "click": metadata.version("click"),
        "fuzrank": fuzrank.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
    }


# --- one run ----------------------------------------------------------------------


@dataclass
class Run:
    workload: workloads.Workload
    shape: tuple[int, ...]
    seed: int
    trace: bool
    samples: dict[str, list[float]] = field(default_factory=dict)  # wall seconds
    rss_mb: list[float] = field(default_factory=list)
    importtime: list[dict[str, float]] = field(default_factory=list)
    tail_pct: dict[str, float] = field(default_factory=dict)
    scale: float = 1.0  # host factor: CALIB_REF_S / p10 of the calibration samples
    shares_pct: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{what}: " + "; ".join(problems[:5]))


def run_workload(
    workload: workloads.Workload, shape: tuple[int, ...], seed: int,
    seconds: float, trace: bool, min_samples: dict[str, int],
) -> tuple[Run, dict, dict]:
    """Generate the inputs, validate them, sample for `seconds`, and return the
    run, its metrics and the record written to .perfbench/results."""
    started = time.perf_counter()
    timed = [m for m in SHARES[int(trace)] if m != "importtime"]
    run = Run(workload, shape, seed, trace, {m: [] for m in timed})
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        doc, data = workloads.build_input(workload, shape, seed, SRC)
        scenario_path = workdir / f"{workload.name}.json"
        scenario_path.write_bytes(data)
        inputs = [{
            "file": scenario_path.name, "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
        }]
        env = child_env()
        python = sys.executable

        check = spawn([python, "-m", "fuzrank.cli", "validate", str(scenario_path)], env, workdir)
        run.attempted += 1
        if check.code != 0 or not check.out.startswith(b"OK:"):
            run.fail("validate", [check.err.decode("utf-8", "replace").strip()])
            return run, {}, {"inputs": inputs}

        expect = workloads.expectations(workload, shape, doc)
        commands = workloads.cli_commands(workload, shape, str(scenario_path))
        operation = workloads.inproc_operation(workload, shape, data)
        extras = workloads.traced_extras(workload, shape, data)
        tracer, gc_monitor = Tracer(), GcMonitor()
        inproc_ops = 0

        def attempt(what: str, tr) -> tuple[list[str] | None, float]:
            """One in-process operation: its outputs (None if it raised) and wall time."""
            t0 = time.perf_counter()
            try:
                outputs = operation(tr)
            except Exception as exc:  # a broken program fails the operation, not the run
                run.attempted += 1
                run.fail(what, [f"{type(exc).__name__}: {exc}"])
                return None, 0.0
            return outputs, time.perf_counter() - t0

        def checked(what: str, outputs: list[str] | None) -> bool:
            if outputs is None:
                return False
            run.attempted += 1
            problems = checks.check_outputs(outputs, expect)
            if problems:
                run.fail(what, problems)
            return not problems

        def check_paths(found: int | None) -> None:
            if expect.minimal_sets is not None and found != expect.minimal_sets:
                run.fail("enumerate_paths", [f"{found} minimal sets, expected {expect.minimal_sets}"])

        def setup() -> None:
            child = spawn([python, "-c", "import fuzrank.cli"], env, workdir)
            run.attempted += 1
            if child.code != 0:
                run.fail("setup", [child.err.decode("utf-8", "replace").strip()])
            else:
                run.samples["setup"].append(child.wall_s)

        def importtime() -> None:
            child = spawn([python, "-X", "importtime", "-c", "import fuzrank.cli"], env, workdir)
            run.attempted += 1
            found = parse_importtime(child.err.decode("utf-8", "replace"))
            if child.code != 0 or len(found) != 3:
                run.fail("importtime", [f"exit {child.code}, found {sorted(found)}"])
            else:
                run.importtime.append(found)

        def cli() -> None:
            outputs, wall, rss = [], 0.0, 0.0
            for args in commands:
                child = spawn([python, "-m", "fuzrank.cli", *args], env, workdir)
                wall += child.wall_s
                rss = max(rss, child.rss_mb)
                if child.code != 0:
                    run.attempted += 1
                    run.fail("cli", [f"{args[0]} exited {child.code}: "
                                     + child.err.decode("utf-8", "replace").strip()[-300:]])
                    return
                outputs.append(child.out.decode("utf-8"))
            if checked("cli", outputs):
                run.samples["cli"].append(wall)
                run.rss_mb.append(rss)

        def inproc() -> None:
            nonlocal inproc_ops
            gc_monitor.active = True
            outputs, wall = attempt("inproc", NoTrace())
            gc_monitor.active = False
            inproc_ops += 1
            if checked("inproc", outputs):
                run.samples["inproc"].append(wall)

        def calib() -> None:
            child = spawn([python, "-c", CALIB_CODE], env, workdir)
            run.attempted += 1
            if child.code != 0:
                run.fail("calib", [child.err.decode("utf-8", "replace").strip()])
            else:
                run.samples["calib"].append(child.wall_s)

        def traced() -> None:
            tracer.begin_op()
            outputs, wall = attempt("traced", tracer)
            check_paths(extras(tracer))
            if checked("traced", outputs):
                run.samples["traced"].append(wall)

        # warm the process (lazy imports, allocator) and check the path count once
        checked("warm-up", attempt("warm-up", NoTrace())[0])
        if not trace:
            check_paths(extras(NoTrace()))

        modes: dict[str, Callable[[], None]] = {
            "setup": setup, "importtime": importtime, "cli": cli,
            "inproc": inproc, "traced": traced, "calib": calib,
        }
        shares = SHARES[int(trace)]
        used = {m: 0.0 for m in shares}
        done = {m: 0 for m in shares}
        if trace:
            gc.callbacks.append(gc_monitor)
        try:
            deadline = time.perf_counter() + seconds
            while time.perf_counter() - started < RUN_LIMIT_S:
                short = [m for m in shares if done[m] < min_samples[m]]
                if time.perf_counter() >= deadline:
                    if not short:
                        break
                    mode = short[0]
                else:
                    mode = min(shares, key=lambda m: used[m] / shares[m])
                t0 = time.perf_counter()
                modes[mode]()
                used[mode] += time.perf_counter() - t0
                done[mode] += 1
        finally:
            if trace:
                gc.callbacks.remove(gc_monitor)

        metrics = end_to_end(run)
        if trace:
            metrics.update(per_layer(run, metrics, tracer, gc_monitor, inproc_ops, len(commands)))
        record = {
            "inputs": inputs,
            "sampled_s": used,
            "spans": tracer.spans if trace else None,
        }
        return run, metrics, record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end(run: Run) -> dict:
    """Every latency statistic of the run, at reference host speed; the
    bounded ones are END_TO_END."""
    s = run.samples
    calib = p10(s["calib"])
    run.scale = x = CALIB_REF_S / calib if calib else 1.0
    setup, cli, inproc = ([x * w for w in s[k]] for k in ("setup", "cli", "inproc"))
    cli_q, cli_tail = tail(cli)
    in_q, in_tail = tail(inproc)
    run.tail_pct = {"cli": cli_q, "inproc": in_q}
    return {
        "setup_s": p10(setup),
        "cli_p10_s": p10(cli),
        "cli_p50_s": median_or_zero(cli),
        "cli_tail_s": cli_tail,
        "inproc_p10_s": p10(inproc),
        "inproc_p50_s": median_or_zero(inproc),
        "inproc_tail_s": in_tail,
        "peak_rss_mb": median_or_zero(run.rss_mb),
        "host.calib_s": calib,
    }


def per_layer(
    run: Run, e2e: dict, tracer: Tracer, gc_monitor: GcMonitor, inproc_ops: int, procs: int
) -> dict:
    """Per-layer metrics: medians over traced operations of each span's summed
    duration (at reference host speed) and each count; 0 where a layer does
    not run."""
    x = run.scale
    ops = [{k: x * v for k, v in op.items()} for op in tracer.durations()]
    out = {}
    for name, unit in PER_LAYER.items():
        if name in e2e:
            continue
        per_op = [op.get(name[:-2], 0.0) for op in ops] if unit == "s" else [
            op.get(name, 0) for op in tracer.counts
        ]
        out[name] = median_or_zero(per_op)
    for name, module in (("fuzrank_s", "fuzrank.cli"), ("numpy_s", "numpy"), ("click_s", "click")):
        out[f"import.{name}"] = x * median_or_zero([it[module] for it in run.importtime])
    setup_p50 = x * median_or_zero(run.samples["setup"])
    out["cli.residual_s"] = e2e["cli_p50_s"] - procs * setup_p50 - e2e["inproc_p50_s"]
    out["gc.pause_s"] = x * gc_monitor.pause_s / max(inproc_ops, 1)
    out["gc.gen2_collections"] = gc_monitor.gen2 / max(inproc_ops, 1)
    out["trace.overhead_s"] = x * median_or_zero(run.samples["traced"]) - e2e["inproc_p50_s"]

    op_time = median_or_zero([op.get("op", 0.0) for op in ops])
    for layer in LAYERS:
        spent = median_or_zero([
            sum(v for k, v in op.items() if k.startswith(layer + ".") and k not in EXTRA_SPANS)
            for op in ops
        ])
        run.shares_pct[layer] = 100.0 * spent / op_time if op_time else 0.0
    if e2e["cli_p50_s"]:
        run.shares_pct["imports_of_cli"] = (
            100.0 * procs * out["import.fuzrank_s"] / e2e["cli_p50_s"]
        )
    return out


# --- entry point ------------------------------------------------------------------


def report(run: Run, metrics: dict, env: dict, seconds: float) -> dict:
    """Print the human-readable lines of one run and return its record."""
    w, s = run.workload, run.samples
    print(f"# workload {w.name} shape {run.shape or '-'} seed {run.seed} "
          f"seconds {seconds:g} trace {int(run.trace)}")
    print(f"# why: {w.why}")
    print("# env " + json.dumps(env, sort_keys=True))
    print("# closed loop, 1 client; samples "
          + ", ".join(f"{m}={len(v)}" for m, v in s.items())
          + (f", importtime={len(run.importtime)}" if run.trace else "")
          + "".join(f"; {k} tail p{q:g}" for k, q in run.tail_pct.items()))
    print(f"# host factor {run.scale:.4f} = reference {CALIB_REF_S:g} s / calibration p10;"
          " every time below is a wall time times this factor")
    failed_frac = run.failed / run.attempted if run.attempted else 1.0
    rows = [(n, metrics.get(n, 0.0), u) for n, u in END_TO_END.items()]
    rows.append(("failed_frac", failed_frac, "ratio"))
    names = PER_LAYER if run.trace else LATENCY_STATS
    rows += [(n, metrics.get(n, 0.0), PER_LAYER[n]) for n in names]
    rows += [(f"share.{k}", v, "%") for k, v in run.shares_pct.items()]
    for name, value, unit in rows:
        print(f"{name:<26} {value:>16.9g} {unit}")
    for e in run.errors:
        print(f"# FAILED {e}", file=sys.stderr)
    return {
        "workload": w.name, "why": w.why, "shape": run.shape, "seed": run.seed,
        "seconds": seconds, "trace": int(run.trace), "env": env,
        "attempted": run.attempted, "failed": run.failed, "failed_frac": failed_frac,
        "errors": run.errors, "samples": s, "peak_rss_mb": run.rss_mb,
        "importtime": run.importtime, "tail_pct": run.tail_pct, "host_factor": run.scale,
        "shares_pct": run.shares_pct, "metrics": metrics,
    }


def write_record(name: str, record: dict) -> Path:
    path = OUT / "results" / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, default=list), encoding="utf-8")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="run every workload at tiny sizes, traced; no timing gates")
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required unless --quick is given")

    if not (SRC / "fuzrank" / "__init__.py").is_file():
        print(f"perfbench: no fuzrank sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fuzrank

    if not Path(fuzrank.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported fuzrank from {fuzrank.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment()

    if args.quick:
        chosen = [args.workload] if args.workload else list(workloads.WORKLOADS)
        attempted = failed = 0
        for name in chosen:
            w = workloads.WORKLOADS[name]
            run, metrics, record = run_workload(
                w, w.quick_shape, args.seed, 0.0, True, dict.fromkeys(MIN_SAMPLES, 1)
            )
            record.update(report(run, metrics, env, 0.0))
            write_record(f"quick-{name}", record)
            attempted += run.attempted
            failed += run.failed
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 0 if failed == 0 else 1

    w = workloads.WORKLOADS[args.workload]
    run, metrics, record = run_workload(
        w, w.shape, args.seed, args.seconds, bool(args.trace), MIN_SAMPLES
    )
    record.update(report(run, metrics, env, args.seconds))
    path = write_record(f"{w.name}-trace{args.trace}", record)
    print(f"# record {path.relative_to(ROOT)}")
    names = PER_LAYER if args.trace else END_TO_END
    correct = run.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {n: {"value": metrics.get(n, 0.0), "unit": u} for n, u in names.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
