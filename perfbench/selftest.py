"""Tests of the benchmark itself, on its quick mode and tiny inputs.

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

No timing gates: these check that every workload runs and is checked, that
the checks reject wrong outputs, and that the inputs follow the seed.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

PANEL = workloads.WORKLOADS["panel_400x20x10"]
GRAPH = workloads.WORKLOADS["graph_L7W3"]
PAPER = workloads.WORKLOADS["paper_s4"]


def outputs_of(workload, shape, seed=3):
    doc, data = workloads.build_input(workload, shape, seed, ROOT / "src")
    op = workloads.inproc_operation(workload, shape, data)
    return op(run.NoTrace()), workloads.expectations(workload, shape, doc)


def test_quick_mode_runs_and_checks_every_workload():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    for name in workloads.WORKLOADS:
        assert f"# workload {name} " in proc.stdout


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_s4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_reference_agrees_with_engines_on_the_paper():
    (rank, veability, dot), expect = outputs_of(PAPER, ())
    assert checks.check_outputs([rank, veability, dot], expect) == []
    assert json.loads(rank)["rankings"][1]["minimum_effort_action"] == "A4"


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["rankings"][0]["actions"][0].update(cost=float("nan")),
        lambda d: d["rankings"][1]["actions"][0].update(rank=2),
        lambda d: d["rankings"][1]["actions"][0].update(cost=d["rankings"][1]["actions"][0]["cost"] + 1e-6),
        lambda d: d["rankings"][0].update(minimum_effort_action="nobody"),
        lambda d: d["rankings"][0]["actions"][0].update(benefit=0.0),
        lambda d: d["rankings"].pop(),
        lambda d: d["rankings"][0].pop("actions"),
        lambda d: d.clear(),
    ],
    ids=[
        "nan", "rank-not-permutation", "closeness-off", "wrong-min-effort",
        "cost-plus-benefit", "engine-missing", "actions-missing", "empty-report",
    ],
)
def test_rank_check_rejects_wrong_reports(mutate):
    (rank,), expect = outputs_of(PANEL, PANEL.quick_shape)
    assert checks.check_outputs([rank], expect) == []
    doc = json.loads(rank)
    mutate(doc)
    assert checks.check_outputs([json.dumps(doc)], expect)


def test_strict_json_rejects_non_finite_tokens():
    for token in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(ValueError):
            checks.strict_json(f'{{"x": {token}}}')


def test_paper_checks_reject_wrong_top_and_out_of_range_scores():
    (rank, veability, dot), expect = outputs_of(PAPER, ())
    wrong_top = dataclasses.replace(expect, fuzzy_top="A1")
    assert checks.check_outputs([rank, veability, dot], wrong_top)
    doc = json.loads(veability)
    doc["assets"][0]["veability"] = 10.5
    assert checks.check_outputs([rank, json.dumps(doc), dot], expect)


def test_dot_check_counts_nodes_and_edges():
    (dot,), expect = outputs_of(GRAPH, GRAPH.quick_shape)
    layers, width = GRAPH.quick_shape
    assert len(expect.dot_nodes) == layers * (width + 1) + 2
    assert checks.check_outputs([dot], expect) == []
    lines = dot.splitlines()
    dropped_node = "\n".join(l for l in lines if "step-1-0\" [" not in l) + "\n"
    dropped_edge = "\n".join(l for l in lines if " -> " not in l or "step-1-0" not in l) + "\n"
    assert checks.check_outputs([dropped_node], expect)
    assert checks.check_outputs([dropped_edge], expect)


def test_inputs_follow_the_seed():
    shape = PANEL.quick_shape
    assert workloads.panel_doc(*shape, 5) == workloads.panel_doc(*shape, 5)
    assert workloads.panel_doc(*shape, 5) != workloads.panel_doc(*shape, 6)
    a, b = workloads.graph_doc(4, 3, 5), workloads.graph_doc(4, 3, 6)
    assert a["graph"]["nodes"] != b["graph"]["nodes"]
    key = lambda d: sorted(n["id"] for n in d["graph"]["nodes"])  # noqa: E731
    assert key(a) == key(b)


def test_traced_extras_count_minimal_sets():
    layers, width = GRAPH.quick_shape
    data = json.dumps(workloads.graph_doc(layers, width, 1)).encode()
    tracer = run.Tracer()
    tracer.begin_op()
    assert workloads.traced_extras(GRAPH, GRAPH.quick_shape, data)(tracer) == width**layers
    names = [s[1] for s in tracer.spans]
    assert names == ["scenario.json_decode", "graph.enumerate"]


@pytest.mark.parametrize("workload", [PAPER, PANEL, GRAPH], ids=lambda w: w.name)
def test_inproc_operation_matches_the_cli_output_and_calls(workload, tmp_path):
    shape = workload.quick_shape
    _, data = workloads.build_input(workload, shape, 3, ROOT / "src")
    path = tmp_path / "scenario.json"
    path.write_bytes(data)
    cli_out = [
        subprocess.run(
            [sys.executable, "-m", "fuzrank.cli", *args], env=run.child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        ).stdout
        for args in workloads.cli_commands(workload, shape, str(path))
    ]
    tracer = run.Tracer()
    tracer.begin_op()
    assert workloads.inproc_operation(workload, shape, data)(tracer) == cli_out
    # the CLI's rank command pools the ratings twice, its veability command once
    pools = {"paper": 3, "panel": 2, "graph": 0}[workload.kind]
    assert [s[1] for s in tracer.spans].count("fuzzy.aggregate") == pools


def test_p10_is_nearest_rank():
    assert run.p10([3.0, 1.0, 2.0]) == 1.0
    assert run.p10([float(i) for i in range(1, 21)]) == 2.0


def test_tail_is_the_highest_ladder_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 20)]) == (50.0, 10.0)
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([float(i) for i in range(1, 1001)]) == (99.0, 990.0)


def test_importtime_parser_reads_cumulative_microseconds():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:      1916 |      85228 |       numpy\n"
        "import time:       300 |      15000 |   click\n"
        "import time:      4957 |     177495 | fuzrank.cli\n"
    )
    assert run.parse_importtime(text) == {"numpy": 0.085228, "click": 0.015, "fuzrank.cli": 0.177495}


def test_spawn_kills_and_reaps_a_child_past_the_timeout(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 0.5)
    child = run.spawn([sys.executable, "-c", "import time; time.sleep(30)"], {}, tmp_path)
    assert child.code != 0 and child.wall_s < 10


def test_calibration_child_imports_only_the_standard_library():
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", run.CALIB_CODE], env=run.child_env(),
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert "json" in imported
    assert not {"fuzrank", "numpy", "click"} & {name.split(".")[0] for name in imported}


def test_reported_times_are_wall_times_times_the_host_factor():
    calib = [2 * run.CALIB_REF_S] * 10  # a host at half the reference speed
    r = run.Run(PANEL, PANEL.shape, 1, False, {
        "setup": [0.2] * 10, "cli": [0.8] * 10, "inproc": [0.6] * 10, "calib": calib,
    })
    metrics = run.end_to_end(r)
    assert r.scale == 0.5
    assert metrics["setup_s"] == 0.1 and metrics["cli_p10_s"] == 0.4
    assert metrics["inproc_p10_s"] == metrics["inproc_tail_s"] == 0.3
    assert metrics["host.calib_s"] == 2 * run.CALIB_REF_S
