"""Benchmark workloads: seeded scenario generators, the CLI commands of one
operation, and the same operation through fuzrank's public functions.

Every workload is built from a seed; fuzrank only ever sees the files written
here. One operation is a fixed list of commands. Each command yields one text
output (JSON report or DOT), so the CLI path and the in-process path of a
workload produce outputs that the same checks in `checks.py` accept or reject.
"""

from __future__ import annotations

import json
import random
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from checks import Expect, graph_ancestors, reference_closeness

LABELS = ("VL", "L", "AV", "H", "VH")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "paper", "panel" or "graph"
    shape: tuple[int, ...]
    quick_shape: tuple[int, ...]
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper_s4", "paper", (), (),
            "the paper's own input: startup-bound, so import and CLI changes show "
            "and compute changes must not",
        ),
        Workload(
            "panel_400x20x10", "panel", (400, 20, 10), (20, 4, 3),
            "many actions and criteria: scenario parsing and the four fuzzy "
            "stages dominate; the graph code does not run",
        ),
        Workload(
            "panel_cves_50x8x200", "panel", (50, 8, 200), (5, 3, 8),
            "many raters (the paper's raters are CVEs): per-rater validation and "
            "pooling dominate, per-cell maths is under 1%",
        ),
        Workload(
            "graph_L7W3", "graph", (7, 3), (3, 2),
            "3^7 minimal attack paths: path enumeration and pruning dominate; "
            "no ranking code runs",
        ),
    )
}


# --- generators ---------------------------------------------------------------


def panel_doc(m: int, n: int, k: int, seed: int) -> dict[str, Any]:
    """m actions x n criteria (alternating benefit, cost) x k CVE raters.

    Ratings and criterion-weight labels are uniform over VL..VH. The pairwise
    matrix is consistent (a_ij = w_i / w_j, so CR = 0); without it the classic
    engine has no criterion weights and `rank --engine both` exits 1.
    """
    rng = random.Random(seed)
    actions = [f"A{i}" for i in range(m)]
    crits = [f"C{j}" for j in range(n)]
    raters = [f"CVE-{2000 + r % 24}-{10000 + r}" for r in range(k)]
    w = [rng.uniform(1.0, 9.0) for _ in crits]
    return {
        "schema_version": "1",
        "title": f"synthetic panel {m}x{n}x{k} seed {seed}",
        "criteria": [
            {"id": c, "kind": "benefit" if j % 2 == 0 else "cost"}
            for j, c in enumerate(crits)
        ],
        "actions": actions,
        "panel": {
            "decision_makers": raters,
            "ratings": {
                r: {a: {c: rng.choice(LABELS) for c in crits} for a in actions}
                for r in raters
            },
            "weights": {r: {c: rng.choice(LABELS) for c in crits} for r in raters},
        },
        "pairwise": [[wi / wj for wj in w] for wi in w],
    }


def graph_goal(layers: int) -> str:
    return f"goal-L{layers}"


def graph_doc(layers: int, width: int, seed: int) -> dict[str, Any]:
    """A chain of `layers` layers. Each layer has `width` attack steps, each an
    AND over the previous privilege, OR'd into one privilege node; a final
    step needs the last privilege. That gives width**layers minimal sets and
    layers * (width + 1) + 2 nodes. The seed only shuffles node and edge order.
    """
    rng = random.Random(seed)
    nodes = [{"id": "cfg-entry", "kind": "configuration", "label": "attacker foothold"}]
    edges = []
    prev = "cfg-entry"
    for layer in range(1, layers + 1):
        priv = f"priv-{layer}"
        for s in range(width):
            step = f"step-{layer}-{s}"
            nodes.append({"id": step, "kind": "attack_step", "label": f"exploit {layer}.{s}"})
            edges += [[prev, step], [step, priv]]
        nodes.append({"id": priv, "kind": "privilege", "label": f"privilege {layer}"})
        prev = priv
    goal = graph_goal(layers)
    nodes.append({"id": goal, "kind": "final_step", "label": "goal"})
    edges.append([prev, goal])
    rng.shuffle(nodes)
    rng.shuffle(edges)
    return {
        "schema_version": "1",
        "title": f"layered attack graph L{layers} W{width} seed {seed}",
        "graph": {"nodes": nodes, "edges": edges, "targets": [goal]},
    }


def build_input(
    workload: Workload, shape: tuple[int, ...], seed: int, src_root: Path
) -> tuple[dict, bytes]:
    """The scenario document and the exact bytes fuzrank will read."""
    if workload.kind == "paper":
        data = (src_root / "fuzrank" / "data" / "paper_s4.json").read_bytes()
        return json.loads(data), data
    doc = panel_doc(*shape, seed) if workload.kind == "panel" else graph_doc(*shape, seed)
    return doc, json.dumps(doc).encode("utf-8")


def goal_of(workload: Workload, shape: tuple[int, ...]) -> str:
    return "RAN-control" if workload.kind == "paper" else graph_goal(shape[0])


def expectations(workload: Workload, shape: tuple[int, ...], doc: dict) -> Expect:
    goal = goal_of(workload, shape)
    if workload.kind == "panel":
        return Expect(kinds=("rank",), closeness=reference_closeness(doc))
    nodes, edges = graph_ancestors(doc, goal)
    graph = dict(
        dot_nodes=frozenset(nodes), dot_edges=frozenset(edges), goal=goal,
    )
    if workload.kind == "graph":
        layers, width = shape
        return Expect(kinds=("dot",), minimal_sets=width**layers, **graph)
    # The paper's graph reaches RAN-control along two chains: two minimal sets.
    return Expect(
        kinds=("rank", "veability", "dot"),
        closeness=reference_closeness(doc),
        fuzzy_top="A4",
        assets=frozenset(a["id"] for a in doc["assets"]),
        minimal_sets=2,
        **graph,
    )


def cli_commands(workload: Workload, shape: tuple[int, ...], path: str) -> list[list[str]]:
    """Arguments after `python -m fuzrank.cli` for each command of one operation."""
    rank = ["rank", path, "--engine", "both", "--format", "json"]
    graph = ["graph", path, "--goal", goal_of(workload, shape)]
    if workload.kind == "paper":
        return [rank, ["veability", path, "--format", "json"], graph]
    if workload.kind == "panel":
        return [rank]
    return [graph]


# --- the same operation in process ----------------------------------------------


def inproc_operation(
    workload: Workload, shape: tuple[int, ...], data: bytes
) -> Callable[[Any], list[str]]:
    """The operation as a function of a tracer, through fuzrank's public API:
    parse_scenario(text) -> engines -> RunReport.render / export_dot.

    Each command makes the calls its CLI command makes, in the same order: it
    parses the scenario itself, and `rank --engine both` pools the ratings
    once for the classic engine's peaks and again inside the fuzzy engine.
    What the CLI adds beyond this is process start, imports and file I/O.
    """
    from fuzrank import __version__
    from fuzrank.classic import DecisionMatrix, derive_weights, rank_classic
    from fuzrank.fuzzy import aggregate_ratings, apply_weights, normalize_fuzzy, rank_fuzzy
    from fuzrank.graph import DEFAULT_PATH_CAP, export_dot, subgraph_to_goal
    from fuzrank.report import RunReport, fingerprint
    from fuzrank.scenario import asset_profiles, parse_scenario, resolve_vulnerability_records
    from fuzrank.veability import veability_score

    text = data.decode("utf-8")
    goal = goal_of(workload, shape)

    def parse(tr):
        with tr.span("scenario.parse"):
            scenario = parse_scenario(text)
        tr.count("scenario.bytes", len(data))
        panel = scenario.panel
        if panel is not None:
            m, n, k = len(panel.alternatives), len(panel.criteria), len(panel.decision_makers)
            tr.count("scenario.labels", m * n * k + k * n)
        return scenario

    def fuzzy_engine(tr, scenario):
        with tr.span("fuzzy.aggregate"):
            pooled = aggregate_ratings(scenario.panel, scenario.scale)
        tr.count("fuzzy.cells", len(pooled.alternatives) * len(pooled.criteria))
        with tr.span("fuzzy.normalize"):
            normalized = normalize_fuzzy(pooled)
        with tr.span("fuzzy.weight"):
            weighted = apply_weights(normalized)
        with tr.span("fuzzy.rank"):
            return rank_fuzzy(weighted)

    def render(tr, scenario, caught, **parts):
        with tr.span("report.render"):
            report = RunReport(
                scenario_fingerprint=fingerprint(data),
                tool_version=__version__,
                warnings=tuple(scenario.warnings) + tuple(str(w.message) for w in caught),
                **parts,
            )
            out = report.render("json")
        tr.count("report.bytes", len(out))
        return out

    def rank(tr):
        scenario = parse(tr)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with tr.span("fuzzy.aggregate"):
                pooled = aggregate_ratings(scenario.panel, scenario.scale)
            with tr.span("classic.weights"):
                weights = derive_weights(scenario.pairwise)
            with tr.span("classic.rank"):
                peaks = [[cell.b for cell in row] for row in pooled.cells]
                matrix = DecisionMatrix(list(scenario.actions), list(scenario.criteria), peaks)
                classic = rank_classic(matrix, weights)
            fuzzy = fuzzy_engine(tr, scenario)
        return render(tr, scenario, caught, rankings=(classic, fuzzy))

    def veability(tr):
        scenario = parse(tr)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            costs = None
            if any(v.atc_cost is None and v.action is not None
                   for v in scenario.vulnerabilities):
                costs = {e.action: e.cost for e in fuzzy_engine(tr, scenario).entries}
            with tr.span("veability.resolve"):
                records = resolve_vulnerability_records(scenario, costs)
                profiles = asset_profiles(scenario, records)
            with tr.span("veability.score"):
                scores = tuple(veability_score(p) for p in profiles)
            tr.count("veability.assets", len(scores))
        return render(tr, scenario, caught, assets=scores)

    def graph(tr):
        scenario = parse(tr)
        with tr.span("graph.subgraph"):
            kept = subgraph_to_goal(scenario.graph, goal, cap=DEFAULT_PATH_CAP)
        tr.count("graph.kept_nodes", len(kept.nodes))
        with tr.span("graph.dot"):
            return export_dot(kept)

    steps = {"paper": (rank, veability, graph), "panel": (rank,), "graph": (graph,)}
    chosen = steps[workload.kind]

    def operation(tr) -> list[str]:
        with tr.span("op"):
            return [step(tr) for step in chosen]

    return operation


def traced_extras(
    workload: Workload, shape: tuple[int, ...], data: bytes
) -> Callable[[Any], int | None]:
    """Spans that run in the traced run only, after each operation and outside
    its root span: json.loads of the text once per parse the operation made
    (the floor under parse_scenario), and enumerate_paths for each graph
    command. Returns the number of minimal sets found, or None."""
    from fuzrank.graph import enumerate_paths
    from fuzrank.scenario import parse_scenario

    text = data.decode("utf-8")
    parses = len(cli_commands(workload, shape, ""))
    graph = parse_scenario(text).graph if workload.kind != "panel" else None
    goal = goal_of(workload, shape)

    def extras(tr) -> int | None:
        for _ in range(parses):
            with tr.span("scenario.json_decode"):
                json.loads(text)
        if graph is None:
            return None
        with tr.span("graph.enumerate"):
            found = len(enumerate_paths(graph, goal))
        tr.count("graph.minimal_sets", found)
        return found

    return extras
