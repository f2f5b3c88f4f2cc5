"""Output checks for every benchmark operation, and a small numpy reference of
the two TOPSIS engines.

The reference follows the formulas stated in the docstrings of
`fuzrank/fuzzy.py` and `fuzrank/classic.py` and reads the raw scenario
document, so it shares no code with the program it checks.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

DEFAULT_SCALE = {
    "VL": (1, 1, 3),
    "L": (1, 3, 5),
    "AV": (3, 5, 7),
    "H": (5, 7, 9),
    "VH": (7, 9, 9),
}
CLOSENESS_TOL = 1e-9
SUM_TOL = 1e-12


# --- reference ------------------------------------------------------------------


def _pool(tfns: np.ndarray) -> np.ndarray:
    """Pool raters on axis 0: (min a, mean b, max c)."""
    return np.stack(
        [tfns[..., 0].min(axis=0), tfns[..., 1].mean(axis=0), tfns[..., 2].max(axis=0)],
        axis=-1,
    )


def reference_closeness(doc: dict[str, Any]) -> dict[str, dict[str, float]]:
    """Closeness per engine and action: the fuzzy d-/(d+ + d-) and the classic
    d+/(d+ + d-), each as the `cost` column of a report."""
    scale = {k: tuple(v) for k, v in doc.get("scale", DEFAULT_SCALE).items()}
    actions = doc["actions"]
    crits = doc["criteria"]
    panel = doc["panel"]
    raters = panel["decision_makers"]
    cids = [c["id"] for c in crits]
    benefit = np.array([c.get("kind", "benefit") == "benefit" for c in crits])

    ratings = np.array(
        [[[scale[panel["ratings"][r][a][c]] for c in cids] for a in actions] for r in raters],
        dtype=float,
    )  # (k, m, n, 3)
    pooled = _pool(ratings)  # (m, n, 3)
    weights = _pool(
        np.array([[scale[panel["weights"][r][c]] for c in cids] for r in raters], dtype=float)
    )  # (n, 3)

    # fuzzy: linear-scale normalisation, TFN weighting, vertex distances
    c_max = pooled[..., 2].max(axis=0)
    col_min = pooled.min(axis=0)  # (n, 3): min a, min b, min c per column
    norm = np.where(
        benefit[None, :, None],
        pooled / c_max[None, :, None],
        col_min[None, :, :] / pooled[..., 2:3],
    )
    v = norm * weights[None, :, :]
    fpis = v[..., 2].max(axis=0)
    fnis = v[..., 0].min(axis=0)
    d_plus = np.sqrt(((v - fpis[None, :, None]) ** 2).mean(axis=2)).sum(axis=1)
    d_minus = np.sqrt(((v - fnis[None, :, None]) ** 2).mean(axis=2)).sum(axis=1)
    fuzzy = _ratio(d_minus, d_plus + d_minus)

    # classic: crisp matrix, eigenvector weights, vector normalisation, L2 distances
    if "decision_matrix" in doc:
        x = np.array([[doc["decision_matrix"][a][c] for c in cids] for a in actions], dtype=float)
    else:
        x = pooled[..., 1]
    if "pairwise" in doc:
        values, vectors = np.linalg.eig(np.array(doc["pairwise"], dtype=float))
        w = np.abs(np.real(vectors[:, np.argmax(np.real(values))]))
    else:
        w = np.array(
            [scale[c["weight"]][1] if isinstance(c["weight"], str) else c["weight"] for c in crits],
            dtype=float,
        )
    w = w / w.sum()
    y = x / np.sqrt((x**2).sum(axis=0)) * w
    best = np.where(benefit, y.max(axis=0), y.min(axis=0))
    worst = np.where(benefit, y.min(axis=0), y.max(axis=0))
    c_plus = np.sqrt(((y - best) ** 2).sum(axis=1))
    c_minus = np.sqrt(((y - worst) ** 2).sum(axis=1))
    classic = _ratio(c_plus, c_plus + c_minus)

    return {
        "fuzzy": dict(zip(actions, fuzzy.tolist())),
        "classic": dict(zip(actions, classic.tolist())),
    }


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.full_like(num, 0.5)
    np.divide(num, den, out=out, where=den != 0)
    return out


def graph_ancestors(doc: dict[str, Any], goal: str) -> tuple[set[str], set[tuple[str, str]]]:
    """Nodes that reach `goal` (with the goal) and the edges among them. In the
    benchmark's graphs every such node lies on some minimal path, so this is
    what `graph --goal` must keep."""
    preds: dict[str, list[str]] = {}
    for src, dst in doc["graph"]["edges"]:
        preds.setdefault(dst, []).append(src)
    keep, todo = {goal}, [goal]
    while todo:
        for p in preds.get(todo.pop(), []):
            if p not in keep:
                keep.add(p)
                todo.append(p)
    edges = {(s, d) for s, d in doc["graph"]["edges"] if s in keep and d in keep}
    return keep, edges


# --- checks ---------------------------------------------------------------------


@dataclass(frozen=True)
class Expect:
    """What every output of one workload must satisfy."""

    kinds: tuple[str, ...]  # per command: "rank", "veability" or "dot"
    closeness: Optional[dict[str, dict[str, float]]] = None
    fuzzy_top: Optional[str] = None
    assets: Optional[frozenset[str]] = None
    dot_nodes: Optional[frozenset[str]] = None
    dot_edges: Optional[frozenset[tuple[str, str]]] = None
    goal: Optional[str] = None
    minimal_sets: Optional[int] = None


def _reject_constant(token: str) -> None:
    raise ValueError(f"non-finite JSON token {token}")


def strict_json(text: str) -> Any:
    """json.loads that rejects NaN, Infinity and -Infinity tokens."""
    return json.loads(text, parse_constant=_reject_constant)


def _non_finite(value: Any, path: str = "$") -> list[str]:
    if isinstance(value, float):
        return [] if math.isfinite(value) else [f"{path}: non-finite {value!r}"]
    if isinstance(value, dict):
        return [e for k, v in value.items() for e in _non_finite(v, f"{path}.{k}")]
    if isinstance(value, list):
        return [e for i, v in enumerate(value) for e in _non_finite(v, f"{path}[{i}]")]
    return []


def check_rank(text: str, expect: Expect) -> list[str]:
    try:
        doc = strict_json(text)
    except ValueError as exc:
        return [f"rank report is not strict JSON: {exc}"]
    errors = _non_finite(doc)
    rankings = {r.get("engine"): r for r in doc.get("rankings", [])}
    if set(rankings) != set(expect.closeness):
        return errors + [f"engines {sorted(rankings)} != {sorted(expect.closeness)}"]
    for engine, ref in expect.closeness.items():
        r = rankings[engine]
        entries = r["actions"]
        if sorted(e["action"] for e in entries) != sorted(ref):
            errors.append(f"{engine}: actions differ from the scenario's")
            continue
        if sorted(e["rank"] for e in entries) != list(range(1, len(ref) + 1)):
            errors.append(f"{engine}: ranks are not a permutation of 1..{len(ref)}")
            continue
        by_rank = sorted(entries, key=lambda e: e["rank"])
        if r["minimum_effort_action"] != by_rank[0]["action"]:
            errors.append(f"{engine}: minimum_effort_action is not the rank-1 action")
        costs = [e["cost"] for e in by_rank]
        ordered = costs == sorted(costs, reverse=engine == "fuzzy")
        if not ordered:
            errors.append(f"{engine}: ranks do not follow the cost column")
        for e in entries:
            if abs(e["cost"] + e["benefit"] - 1.0) > SUM_TOL:
                errors.append(f"{engine}/{e['action']}: cost + benefit != 1")
            gap = abs(e["cost"] - ref[e["action"]])
            if not gap <= CLOSENESS_TOL:
                errors.append(
                    f"{engine}/{e['action']}: closeness {e['cost']!r} is {gap:.3g} "
                    "from the reference"
                )
    if expect.fuzzy_top is not None and not errors:
        top = rankings["fuzzy"]["minimum_effort_action"]
        if top != expect.fuzzy_top:
            errors.append(f"fuzzy top-1 is {top}, the paper has {expect.fuzzy_top}")
    return errors


def check_veability(text: str, expect: Expect) -> list[str]:
    try:
        doc = strict_json(text)
    except ValueError as exc:
        return [f"veability report is not strict JSON: {exc}"]
    errors = _non_finite(doc)
    assets = doc.get("assets", [])
    if {a["asset"] for a in assets} != expect.assets or len(assets) != len(expect.assets):
        errors.append("scored assets differ from the scenario's")
    for a in assets:
        for key in ("V", "E", "A", "veability"):
            if not 0.0 <= a[key] <= 10.0:
                errors.append(f"{a['asset']}.{key} = {a[key]!r} is outside [0, 10]")
    return errors


_DOT_NODE = re.compile(r'^  "((?:[^"\\]|\\.)*)" \[(.*)\];$')
_DOT_EDGE = re.compile(r'^  "((?:[^"\\]|\\.)*)" -> "((?:[^"\\]|\\.)*)";$')


def check_dot(text: str, expect: Expect) -> list[str]:
    lines = text.rstrip("\n").split("\n")
    if not lines[0].startswith("digraph ") or lines[-1] != "}":
        return ["DOT output is not one digraph block"]
    nodes: dict[str, str] = {}
    edges: set[tuple[str, str]] = set()
    for line in lines[1:-1]:
        edge = _DOT_EDGE.match(line)
        node = None if edge else _DOT_NODE.match(line)
        if edge:
            edges.add((edge.group(1), edge.group(2)))
        elif node:
            nodes[node.group(1)] = node.group(2)
        else:
            return [f"unparsable DOT line {line!r}"]
    errors = []
    if set(nodes) != expect.dot_nodes:
        errors.append(f"DOT has {len(nodes)} nodes, expected {len(expect.dot_nodes)}")
    if edges != expect.dot_edges:
        errors.append(f"DOT has {len(edges)} edges, expected {len(expect.dot_edges)}")
    if "peripheries=2" not in nodes.get(expect.goal, ""):
        errors.append(f"goal {expect.goal!r} is not marked as a target")
    return errors


_CHECKS = {"rank": check_rank, "veability": check_veability, "dot": check_dot}


def check_outputs(outputs: list[str], expect: Expect) -> list[str]:
    """Every problem found in one operation's outputs; empty when correct."""
    if len(outputs) != len(expect.kinds):
        return [f"{len(outputs)} outputs for {len(expect.kinds)} commands"]
    problems = []
    for kind, text in zip(expect.kinds, outputs):
        try:
            problems += _CHECKS[kind](text, expect)
        except (KeyError, TypeError, AttributeError, IndexError) as exc:
            problems.append(f"{kind} output lacks the expected structure: {exc!r}")
    return problems
