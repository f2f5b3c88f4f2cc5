"""Scenario file ingestion: JSON parsing, validation with JSON-path error
locations, and conversion into the typed inputs the engines consume.

A scenario document (schema_version "1") can carry any combination of: a
linguistic-scale override, an attack graph, criteria, a multi-rater rating
panel, a pairwise comparison matrix or crisp decision matrix for the classic
engine, vulnerability records (explicit subscores or a CVSS v3.1 vector), and
asset profiles. In strict mode every warning becomes an error.

This parser is the format's only statement. The `_*_KEYS` sets list each
object's fields (any other key draws an "unknown field" warning), and each
`_parse_*` function checks the types, ranges and cross-references of its
section. Every problem is reported as `<json-path>: <message>`.

The panel's ratings and weights and the decision matrix are keyed grids:
objects keyed by ids, whose rows are keyed by criterion id. Every keyed grid is
decoded in one pass by `_leaves`, with no Python-level call per row, and is
accepted only when every key and cell is exactly where it should be.
`_explain_grid` runs only to explain a grid that pass refused, and reports
every problem found.

The parser is the one checker of the input; the stages after it trust what
it built. It states every graph rule itself: `_parse_graph` locates each
problem with the graph's ids, edges and targets in the document, then checks
what only the whole graph shows (each node's kind against its edges, cycles,
reachability of the final steps) under `$.graph`, and builds the
`AttackGraph`. It checks a <= b <= c on each scale entry; and it states
every matrix rule itself: `_parse_pairwise` the square, positive,
unit-diagonal, reciprocal comparison matrix, `_parse_decision_matrix` the
nonnegative finite decision matrix. Both matrices are held as tuples of
float rows, which `classic` reads as arrays.

The parser builds the scoring types itself: each vulnerability becomes a
`VulnerabilityRecord` and each asset an `AssetProfile` of those records, with
their ranges checked here. The two bridges at the end only fill a record's
`atc_cost` from the ranking and swap the resolved records into the profiles.

The format's own value types live here, with no numpy: `CriterionKind`,
`CriterionSpec`, the triangular fuzzy number `TFN` and `default_scale`, the
coded `RatingPanel`, and the `PREDEFINED_SCHEMES` a graph node may name. This
module imports neither engine. The types of a section load with the section
that builds them: `graph` for a graph, numpy for a panel's label codes,
`cvss` and `veability` for vulnerabilities or assets. So a document without a
panel parses with no numpy.
"""

from __future__ import annotations

import json
import math
from enum import Enum
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, NamedTuple, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np

    from .graph import AttackGraph
    from .veability import AssetProfile, VulnerabilityRecord

    # a matrix as the parser holds it: a tuple of float rows
    _Rows = tuple[tuple[float, ...], ...]


class CriterionKind(Enum):
    BENEFIT = "benefit"
    COST = "cost"


class CriterionSpec(NamedTuple):
    id: str
    kind: CriterionKind = CriterionKind.BENEFIT
    weight: Optional[object] = None  # numeric for crisp runs, label for fuzzy runs


class TFN(NamedTuple):
    """A triangular fuzzy number: support [a, c], peak b, crisp when a == b == c."""

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


class RatingPanel:
    """Linguistic rating grids from k decision makers over m alternatives and
    n criteria, plus each rater's criterion-weight labels, held as integer
    codes into `labels`: `rating_codes` has shape (k, m, n), `weight_codes`
    shape (k, n). Only the parser builds panels: it decodes and checks every
    label while it validates the document.
    """

    def __init__(self, decision_makers: tuple[str, ...], alternatives: tuple[str, ...],
                 criteria: tuple[CriterionSpec, ...], labels: tuple[str, ...],
                 rating_codes: np.ndarray, weight_codes: np.ndarray):
        self.decision_makers, self.alternatives, self.criteria = (
            decision_makers, alternatives, criteria)
        self.labels, self.rating_codes, self.weight_codes = labels, rating_codes, weight_codes


#: Threat categories arising from MEC/5G integration, code -> description;
#: scenario nodes may reference these codes or ones the scenario declares.
PREDEFINED_SCHEMES = {
    "I": "Insecure mobile backhaul network",
    "S": "Shared infrastructure with third-party applications",
    "P": "Privacy leakage via illegitimate access to the MEC system",
}

SCHEMA_VERSION = "1"

_TOP_LEVEL_KEYS = {
    "schema_version", "title", "scale", "schemes", "graph", "criteria",
    "actions", "panel", "pairwise", "decision_matrix", "vulnerabilities",
    "assets",
}
_NODE_KEYS = {"id", "kind", "label", "cve", "scheme"}
_GRAPH_KEYS = {"nodes", "edges", "targets"}
_CRITERION_KEYS = {"id", "kind", "layer", "weight"}
_PANEL_KEYS = {"decision_makers", "ratings", "weights"}
_VULN_KEYS = {
    "cve", "vector", "impact_score", "exploitability_score", "temporal_score",
    "atc_cost", "action",
}
_ASSET_KEYS = {"id", "services_on_asset", "network_services_total", "vulnerabilities"}
_SCHEME_KEYS = {"code", "description"}
# The largest service count a float holds exactly, with every count below it;
# services_on_asset may not exceed network_services_total, so this bounds both.
_MAX_SERVICES = 2**53


class ScenarioError(ValueError):
    """Validation failure; .errors lists '<json-path>: <message>' entries."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


class ScenarioFile:
    """A validated scenario: every section the document carries, parsed."""

    def __init__(self, scale: dict[str, TFN], graph: Optional[AttackGraph],
                 criteria: tuple[CriterionSpec, ...], actions: tuple[str, ...],
                 panel: Optional[RatingPanel], pairwise: Optional[_Rows],
                 decision_matrix: Optional[_Rows],
                 vulnerabilities: tuple[VulnerabilityRecord, ...],
                 assets: tuple[AssetProfile, ...], warnings: tuple[str, ...]):
        self.scale, self.graph, self.criteria, self.actions, self.panel = (
            scale, graph, criteria, actions, panel)
        self.pairwise, self.decision_matrix = pairwise, decision_matrix
        self.vulnerabilities, self.assets, self.warnings = vulnerabilities, assets, warnings


class _Collector:
    def __init__(self, strict: bool):
        self.strict = strict
        self.errors: list[str] = []
        self.warnings: list[str] = []

    def error(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def warn(self, path: str, message: str) -> None:
        if self.strict:
            self.errors.append(f"{path}: {message} (strict mode)")
        else:
            self.warnings.append(f"{path}: {message}")

    def unknown_keys(self, path: str, obj: Mapping[str, Any], allowed: set[str]) -> None:
        if obj.keys() <= allowed:
            return
        for key in obj:
            if key not in allowed:
                self.warn(f"{path}.{key}", "unknown field")


def _expect(col: _Collector, path: str, value: Any, kind: type, label: str) -> bool:
    if not isinstance(value, kind):
        col.error(path, f"expected {label}, got {type(value).__name__}")
        return False
    return True


def _number(col: _Collector, path: str, value: Any, lo=None, hi=None) -> Optional[float]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        col.error(path, f"expected a number, got {type(value).__name__}")
        return None
    try:
        x = float(value)
    except OverflowError:  # an integer literal beyond the float range
        x = math.inf
    if not math.isfinite(x):
        col.error(path, f"expected a finite number, got {x!r}")
        return None
    if lo is not None and x < lo or hi is not None and x > hi:
        upper = "inf)" if hi is None else f"{hi}]"
        col.error(path, f"value {x!r} outside [{lo}, {upper}")
        return None
    return x


def _objects(
    col: _Collector,
    raw: Any,
    section: str,
    noun: str,
    fields: set[str],
    key: str = "id",
    what: Optional[str] = None,
    duplicate: Optional[str] = None,
) -> Iterator[tuple[str, dict, str]]:
    """Yield (path, item, name) for each object of the list at `$.<section>`
    whose `key` is a nonempty string. The list, each item, its fields and its
    name are checked here, in the section's own words: `noun` names one item,
    `what` its name (default "<noun> <key>"), and `duplicate`, when given,
    what a repeated name is reported as."""
    if not _expect(col, f"$.{section}", raw, list, f"a list of {noun} objects"):
        return
    what = what or f"{noun} {key}"
    seen: set[str] = set()
    for i, item in enumerate(raw):
        path = f"$.{section}[{i}]"
        if not _expect(col, path, item, dict, "an object"):
            continue
        col.unknown_keys(path, item, fields)
        name = item.get(key)
        if not isinstance(name, str) or not name:
            col.error(f"{path}.{key}", f"{what} must be a nonempty string")
            continue
        if duplicate is not None:
            if name in seen:
                col.error(f"{path}.{key}", f"duplicate {duplicate} {name!r}")
                continue
            seen.add(name)
        yield path, item, name


def _optional_str(col: _Collector, path: str, obj: Mapping[str, Any], key: str) -> Optional[str]:
    """The string field `key` of the object at `path`, which may be absent or
    null; any other value is an error and reads as absent."""
    value = obj.get(key)
    if value is None or isinstance(value, str):
        return value
    _expect(col, f"{path}.{key}", value, str, "a string")
    return None


def parse_scenario(text: str, strict: bool = False) -> ScenarioFile:
    """Parse and fully validate scenario JSON; raises ScenarioError with every
    problem found, each prefixed by its JSON path."""
    col = _Collector(strict)
    # JSONDecodeError is a ValueError, as is an integer literal past the
    # interpreter's digit limit; nesting past the recursion limit is neither
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ScenarioError([f"$: invalid JSON: {exc}"]) from None
    if not isinstance(doc, dict):
        raise ScenarioError(["$: scenario document must be a JSON object"])

    col.unknown_keys("$", doc, _TOP_LEVEL_KEYS)

    version = doc.get("schema_version")
    if version is None:
        col.error("$", "missing schema_version")
    elif version != SCHEMA_VERSION:
        col.error("$.schema_version", f"unrecognized schema_version {version!r}; expected {SCHEMA_VERSION!r}")

    _optional_str(col, "$", doc, "title")

    scale = _parse_scale(col, doc.get("scale"))
    scheme_codes = _parse_schemes(col, doc.get("schemes"))
    criteria = _parse_criteria(col, doc.get("criteria"), scale)
    actions = _parse_actions(col, doc.get("actions"))
    graph = _parse_graph(col, doc.get("graph"), scheme_codes)
    panel = _parse_panel(col, doc.get("panel"), actions, criteria, scale)
    pairwise = _parse_pairwise(col, doc.get("pairwise"), criteria)
    decision_matrix = _parse_decision_matrix(col, doc.get("decision_matrix"), actions, criteria)
    vulnerabilities = _parse_vulnerabilities(col, doc.get("vulnerabilities"), actions)
    assets = _parse_assets(col, doc.get("assets"), vulnerabilities)

    if col.errors:
        raise ScenarioError(col.errors)

    return ScenarioFile(
        scale=scale,
        graph=graph,
        criteria=criteria,
        actions=actions,
        panel=panel,
        pairwise=pairwise,
        decision_matrix=decision_matrix,
        vulnerabilities=vulnerabilities,
        assets=assets,
        warnings=tuple(col.warnings),
    )


def _parse_scale(col: _Collector, raw: Any) -> dict[str, TFN]:
    if raw is None:
        return default_scale()
    if not _expect(col, "$.scale", raw, dict, "an object of label -> [a, b, c]"):
        return default_scale()
    entries: dict[str, TFN] = {}
    for label, triple in raw.items():
        path = f"$.scale.{label}"
        if not (isinstance(triple, list) and len(triple) == 3):
            col.error(path, "expected a [a, b, c] triple")
            continue
        values = [_number(col, f"{path}[{i}]", x, lo=0) for i, x in enumerate(triple)]
        if None in values:
            continue
        a, b, c = values
        if a <= b <= c:
            entries[label] = TFN(a, b, c)
        else:
            col.error(path, f"TFN components must satisfy a <= b <= c, got ({a}, {b}, {c})")
    if not entries:
        col.error("$.scale", "scale override has no valid entries")
        return default_scale()
    return entries


def _parse_schemes(col: _Collector, raw: Any) -> set[str]:
    """The scheme codes a node may reference: the predefined ones and each
    correctly declared one."""
    codes = set(PREDEFINED_SCHEMES)
    if raw is None:
        return codes
    for path, item, code in _objects(
        col, raw, "schemes", "scheme", _SCHEME_KEYS, key="code", duplicate="scheme code"
    ):
        if code in PREDEFINED_SCHEMES:
            col.warn(f"{path}.code", f"scheme {code!r} is predefined; declaration ignored")
            continue
        desc = item.get("description")
        if not isinstance(desc, str) or not desc:
            col.error(f"{path}.description", "scheme description must be a nonempty string")
            continue
        codes.add(code)
    return codes


def _parse_criteria(
    col: _Collector, raw: Any, scale: Mapping[str, TFN]
) -> tuple[CriterionSpec, ...]:
    if raw is None:
        return ()
    out: list[CriterionSpec] = []
    for path, item, cid in _objects(
        col, raw, "criteria", "criterion", _CRITERION_KEYS, duplicate="criterion id"
    ):
        kind_raw = item.get("kind", "benefit")
        try:
            kind = CriterionKind(kind_raw)
        except ValueError:
            col.error(f"{path}.kind", f"unknown kind {kind_raw!r}; use 'benefit' or 'cost'")
            kind = CriterionKind.BENEFIT
        # "layer" is accepted for older scenarios but changes no result
        layer_raw = item.get("layer", "criteria")
        if layer_raw not in ("target", "criteria", "indicator"):
            col.error(
                f"{path}.layer",
                f"unknown layer {layer_raw!r}; use 'target', 'criteria' or 'indicator'",
            )
        weight = item.get("weight")
        if weight is not None:
            if isinstance(weight, str):
                if weight not in scale:
                    col.error(
                        f"{path}.weight",
                        f"label {weight!r} not in the scale ({', '.join(scale)})",
                    )
            elif _number(col, f"{path}.weight", weight, lo=0) is not None:
                weight = float(weight)
        out.append(CriterionSpec(cid, kind=kind, weight=weight))
    return tuple(out)


def _parse_actions(col: _Collector, raw: Any) -> tuple[str, ...]:
    if raw is None:
        return ()
    if not _expect(col, "$.actions", raw, list, "a list of action ids"):
        return ()
    out: dict[str, None] = {}
    for i, item in enumerate(raw):
        if not isinstance(item, str) or not item:
            col.error(f"$.actions[{i}]", "action id must be a nonempty string")
            continue
        if item in out:
            col.error(f"$.actions[{i}]", f"duplicate action id {item!r}")
            continue
        out[item] = None
    return tuple(out)


def _parse_graph(col: _Collector, raw: Any, scheme_codes: set[str]) -> Optional[AttackGraph]:
    """The attack graph, or None when it is absent or the document is refused
    (the reasons then in `col`).

    The input checks come first, each problem located at its index: a
    repeated node id, an edge end that no node declares, and an unknown
    target. A node whose kind is unknown is dropped, with the edges that
    touch it; its id still counts as declared. What only the whole graph
    shows is then checked under the bare `$.graph` path, unless a declared
    node was dropped (the graph that is left would not be the one the
    document describes): each node's kind against its edges, then cycles,
    then, in an acyclic graph, that every final step is reachable from a
    configuration node. The nodes are ordered by Kahn's algorithm over
    sorted-id predecessors; only when that leaves nodes unplaced does the
    standard library's `graphlib` load, to name a cycle, which is its choice
    over those predecessors.
    """
    if raw is None:
        return None
    if not _expect(col, "$.graph", raw, dict, "an object with nodes/edges/targets"):
        return None
    from .graph import AttackGraph, AttackNode, NodeKind

    node_kinds = {k.value: k for k in NodeKind}
    col.unknown_keys("$.graph", raw, _GRAPH_KEYS)

    declared: set[str] = set()
    nodes: dict[str, AttackNode] = {}
    for path, item, nid in _objects(
        col, raw.get("nodes", []), "graph.nodes", "node", _NODE_KEYS, duplicate="node id"
    ):
        declared.add(nid)
        kind_raw = item.get("kind")
        kind = node_kinds.get(kind_raw) if isinstance(kind_raw, str) else None
        if kind is None:
            col.error(
                f"{path}.kind",
                f"unknown node kind {kind_raw!r}; use one of "
                f"{', '.join(node_kinds)}",
            )
            continue
        label = _optional_str(col, path, item, "label")
        cve = _optional_str(col, path, item, "cve")
        scheme = _optional_str(col, path, item, "scheme")
        if scheme is not None and scheme not in scheme_codes:
            col.error(
                f"{path}.scheme",
                f"scheme {scheme!r} is neither predefined (I, S, P) nor declared",
            )
        nodes[nid] = AttackNode(nid, kind, label or "", cve)

    seen: set[tuple[str, str]] = set()
    edges: list[tuple[str, str]] = []
    raw_edges = raw.get("edges", [])
    if _expect(col, "$.graph.edges", raw_edges, list, "a list of [from, to] pairs"):
        for i, item in enumerate(raw_edges):
            if not (
                isinstance(item, list)
                and len(item) == 2
                and isinstance(item[0], str)
                and isinstance(item[1], str)
            ):
                col.error(f"$.graph.edges[{i}]", "expected a [from, to] pair of node ids")
                continue
            src, dst = edge = tuple(item)
            if edge in seen:
                col.warn(f"$.graph.edges[{i}]", f"duplicate edge {src!r} -> {dst!r}")
                continue
            seen.add(edge)
            end = "source" if src not in declared else "destination" if dst not in declared else ""
            if end:
                col.error(f"$.graph.edges[{i}]", f"edge ({src!r} -> {dst!r}): unknown {end} node")
            elif src in nodes and dst in nodes:
                edges.append(edge)

    targets: set[str] = set()
    raw_targets = raw.get("targets", [])
    if _expect(col, "$.graph.targets", raw_targets, list, "a list of node ids"):
        for i, item in enumerate(raw_targets):
            if not isinstance(item, str):
                col.error(f"$.graph.targets[{i}]", "expected a node id string")
                continue
            if item in targets:
                col.warn(f"$.graph.targets[{i}]", f"duplicate target {item!r}")
            elif item not in declared:
                col.error(f"$.graph.targets[{i}]", f"target {item!r} is not a node in the graph")
            targets.add(item)

    if len(nodes) < len(declared):
        return None

    # What only the whole graph shows, under the bare $.graph path.
    preds: dict[str, list[str]] = {nid: [] for nid in sorted(nodes)}
    succs: dict[str, list[str]] = {nid: [] for nid in preds}
    for src, dst in edges:
        preds[dst].append(src)
        succs[src].append(dst)

    # bound once: reading an Enum member off its class costs a lookup each time
    configuration, final_step = NodeKind.CONFIGURATION, NodeKind.FINAL_STEP
    finals: list[str] = []
    for nid, node in nodes.items():
        kind = node.kind
        if kind is configuration:
            if preds[nid]:
                col.error("$.graph", f"configuration node {nid!r} has a predecessor")
        elif kind is final_step:
            finals.append(nid)
            if succs[nid]:
                col.error("$.graph", f"final-step node {nid!r} has a successor")
        elif not preds[nid]:
            col.error("$.graph", f"{kind.value} node {nid!r} has no predecessor")

    sorted_preds = {nid: tuple(sorted(ps)) for nid, ps in preds.items()}
    indegree = {nid: len(ps) for nid, ps in preds.items()}
    order = [nid for nid, d in indegree.items() if not d]
    for nid in order:  # Kahn's algorithm: the list grows as nodes become ready
        for s in succs[nid]:
            indegree[s] -= 1
            if not indegree[s]:
                order.append(s)
    if len(order) < len(preds):
        from graphlib import CycleError, TopologicalSorter

        try:
            TopologicalSorter(sorted_preds).prepare()
        except CycleError as exc:
            col.error("$.graph", "cycle detected: " + " -> ".join(exc.args[1]))
    else:
        # final steps must be reachable from some configuration node
        reached: set[str] = set()
        for nid in order:
            if nodes[nid].kind is configuration or not reached.isdisjoint(preds[nid]):
                reached.add(nid)
        for nid in finals:
            if nid not in reached:
                col.error(
                    "$.graph", f"final-step node {nid!r} is unreachable from any configuration node"
                )
    if col.errors:
        return None
    # with no error, every target is declared and every declared node kept
    return AttackGraph(nodes, frozenset(edges), frozenset(targets), sorted_preds)


def _parse_panel(
    col: _Collector,
    raw: Any,
    actions: tuple[str, ...],
    criteria: tuple[CriterionSpec, ...],
    scale: Mapping[str, TFN],
) -> Optional[RatingPanel]:
    """The rating panel as label codes, or None when it is absent or refused
    (the reasons then in `col`).

    The ratings and the weights are keyed grids, each decoded in one pass by
    `_leaves`, with no Python-level call per row, the label codes streamed
    into the array; a label outside the scale fails the code lookup. Only for
    a refused panel does `_explain_grid` run, to report every problem.
    """
    if raw is None:
        return None
    if not _expect(col, "$.panel", raw, dict, "an object"):
        return None
    col.unknown_keys("$.panel", raw, _PANEL_KEYS)
    if not actions:
        col.error("$.panel", "a panel requires a nonempty top-level 'actions' list")
        return None
    if not criteria:
        col.error("$.panel", "a panel requires a nonempty top-level 'criteria' list")
        return None

    raters_raw = raw.get("decision_makers")
    if not (
        isinstance(raters_raw, list)
        and raters_raw
        and all(isinstance(r, str) and r for r in raters_raw)
    ):
        col.error("$.panel.decision_makers", "expected a nonempty list of rater names")
        return None
    if len(set(raters_raw)) != len(raters_raw):
        col.error("$.panel.decision_makers", "rater names must be unique")
        return None
    raters = tuple(raters_raw)
    crit_ids = tuple(c.id for c in criteria)
    ratings = raw.get("ratings")
    if not _expect(col, "$.panel.ratings", ratings, dict, "an object keyed by rater"):
        return None
    weights = raw.get("weights")
    import numpy as np

    code_of = {label: i for i, label in enumerate(scale)}.__getitem__
    k, m, n = len(raters), len(actions), len(crit_ids)
    try:
        rating_codes = np.fromiter(
            map(code_of, _leaves(ratings, raters, actions, crit_ids)), np.intp, k * m * n
        )
        weight_codes = np.fromiter(map(code_of, _leaves(weights, raters, crit_ids)), np.intp, k * n)
    except (KeyError, TypeError):
        pass
    else:
        return RatingPanel(
            decision_makers=raters,
            alternatives=actions,
            criteria=criteria,
            labels=tuple(scale),
            rating_codes=rating_codes.reshape(k, m, n),
            weight_codes=weight_codes.reshape(k, n),
        )

    # The panel is refused: say why.
    def check_label(path: str, label: Any) -> None:
        if not isinstance(label, str) or label not in scale:
            col.error(path, f"label {label!r} not in the scale ({', '.join(scale)})")

    for dm in raters:
        grid = ratings.get(dm)
        path = f"$.panel.ratings.{dm}"
        if not isinstance(grid, dict):
            col.error(path, f"missing rating grid for decision maker {dm!r}")
            continue
        _unknown_ids(col, path, grid, actions, "unknown action")
        _explain_grid(
            col, path, grid, actions, crit_ids, "ratings for action", "rating", check_label
        )
    _unknown_ids(col, "$.panel.ratings", ratings, raters, "rating grid for undeclared rater")

    if not _expect(col, "$.panel.weights", weights, dict, "an object keyed by rater"):
        return None
    _explain_grid(
        col, "$.panel.weights", weights, raters, crit_ids,
        "criterion weight labels for decision maker", "weight label", check_label,
    )
    _unknown_ids(
        col, "$.panel.weights", weights, raters, "criterion weight labels for undeclared rater"
    )
    return None


def _leaves(obj: Any, *levels: tuple[str, ...]) -> Iterator[Any]:
    """The leaves of a keyed grid, in key order and lazily at the last level.
    `obj` must hold exactly the keys of `levels[0]`, each of its values
    exactly those of `levels[1]`, and so on; given the length checks, keys
    that are all found are all the keys. Any other grid raises KeyError or
    TypeError, at the latest while the leaves are read."""
    leaves: Iterator[Any] = iter((obj,))
    for keys in levels:
        items = list(leaves)
        if set(map(len, items)) != {len(keys)}:
            raise KeyError(keys)
        get = itemgetter(*keys)  # of one key, the leaf itself rather than a tuple
        leaves = chain.from_iterable(map(get, items)) if len(keys) > 1 else map(get, items)
    return leaves


def _unknown_ids(
    col: _Collector, path: str, obj: Mapping[str, Any], known: Sequence[str], message: str
) -> None:
    """Report each key of `obj` outside `known`, in the object's order."""
    known_set = set(known)
    for key in obj:
        if key not in known_set:
            col.error(f"{path}.{key}", f"{message} {key!r}")


def _explain_grid(
    col: _Collector,
    path: str,
    grid: Mapping[str, Any],
    row_ids: tuple[str, ...],
    crit_ids: tuple[str, ...],
    row_noun: str,
    cell_noun: str,
    check_cell: Callable[[str, Any], Any],
) -> None:
    """Report each row of `row_ids` that is missing or not an object, each
    unknown or missing criterion in a row, and each cell through
    `check_cell(path, value)`. The caller reports unknown row ids."""
    for rid in row_ids:
        row = grid.get(rid)
        row_path = f"{path}.{rid}"
        if not isinstance(row, dict):
            col.error(row_path, f"missing {row_noun} {rid!r}")
            continue
        _unknown_ids(col, row_path, row, crit_ids, "unknown criterion")
        for cid in crit_ids:
            if cid in row:
                check_cell(f"{row_path}.{cid}", row[cid])
            else:
                col.error(row_path, f"missing {cell_noun} for criterion {cid!r}")


def _parse_pairwise(
    col: _Collector, raw: Any, criteria: tuple[CriterionSpec, ...]
) -> Optional[_Rows]:
    """The pairwise comparison matrix as rows of floats, or None when it is
    absent or refused (the reasons then in `col`).

    The document must have criteria, one per row. Each row and cell is
    checked where it stands. The matrix rules are then checked in order, the
    first one broken reported under `$.pairwise`: every cell positive, each
    diagonal cell within 1e-9 of 1, and reciprocal, each product
    cells[i][j] * cells[j][i] within 1e-9 of 1. A product past the float
    range is inf, which is not.
    """
    if raw is None:
        return None
    if not _expect(col, "$.pairwise", raw, list, "a square matrix (list of rows)"):
        return None
    if not criteria:
        col.error(
            "$.pairwise", "a pairwise matrix requires a nonempty top-level 'criteria' list"
        )
        return None
    n = len(criteria)
    if len(raw) != n:
        col.error("$.pairwise", f"matrix has {len(raw)} rows but there are {n} criteria")
        return None
    cells: list[tuple[float, ...]] = []
    for i, row in enumerate(raw):
        if not (isinstance(row, list) and len(row) == n):
            col.error(f"$.pairwise[{i}]", f"expected a row of {n} numbers")
            return None
        vals = [_number(col, f"$.pairwise[{i}][{j}]", x) for j, x in enumerate(row)]
        if None in vals:
            return None
        cells.append(tuple(vals))
    if not all(x > 0 for row in cells for x in row):
        problem = "entries must all be positive"
    elif not all(abs(cells[i][i] - 1.0) <= 1e-9 for i in range(n)):
        problem = "diagonal must be all ones"
    # a product is the same either way round, so each pair is tried once
    elif not all(
        abs(cells[i][j] * cells[j][i] - 1.0) <= 1e-9
        for i in range(n) for j in range(i, n)
    ):
        problem = "is not reciprocal (cells[j][i] != 1/cells[i][j])"
    else:
        return tuple(cells)
    col.error("$.pairwise", f"pairwise matrix {problem}")
    return None


def _parse_decision_matrix(
    col: _Collector,
    raw: Any,
    actions: tuple[str, ...],
    criteria: tuple[CriterionSpec, ...],
) -> Optional[_Rows]:
    """The crisp decision matrix as one row of floats per action, or None
    when it is absent or refused (the reasons then in `col`).

    The matrix is a keyed grid of nonnegative finite numbers (not bools),
    decoded in one pass by `_leaves`. Only for a refused matrix does
    `_explain_grid` run, to report every problem.
    """
    if raw is None:
        return None
    if not _expect(col, "$.decision_matrix", raw, dict, "an object keyed by action id"):
        return None
    if not actions or not criteria:
        col.error("$.decision_matrix", "requires top-level 'actions' and 'criteria' lists")
        return None
    crit_ids = tuple(c.id for c in criteria)
    try:
        values = list(_leaves(raw, actions, crit_ids))
        if set(map(type, values)) <= {int, float}:
            cells = list(map(float, values))  # an int past the float range overflows
            # a nan fails both comparisons
            if all(0.0 <= x < math.inf for x in cells):
                n = len(crit_ids)
                return tuple(tuple(cells[i:i + n]) for i in range(0, len(cells), n))
    except (KeyError, TypeError, OverflowError):
        pass

    # The matrix is refused: say why.
    _unknown_ids(col, "$.decision_matrix", raw, actions, "unknown action")
    _explain_grid(
        col, "$.decision_matrix", raw, actions, crit_ids, "row for action", "value",
        lambda path, x: _number(col, path, x, lo=0),
    )
    return None


def _parse_vulnerabilities(
    col: _Collector, raw: Any, actions: tuple[str, ...]
) -> tuple[VulnerabilityRecord, ...]:
    if raw is None:
        return ()
    from .cvss import CvssError, score_cvss
    from .veability import VulnerabilityRecord

    out: list[VulnerabilityRecord] = []
    for path, item, cve in _objects(
        col, raw, "vulnerabilities", "vulnerability", _VULN_KEYS,
        key="cve", what="cve", duplicate="vulnerability",
    ):
        vector = item.get("vector")
        from_vector: Optional[dict[str, float]] = None
        if vector is not None:
            if not isinstance(vector, str):
                col.error(f"{path}.vector", "vector must be a string")
            else:
                try:
                    from_vector = score_cvss(vector)
                except CvssError as exc:
                    col.error(f"{path}.vector", str(exc))

        impact = item.get("impact_score")
        exploitability = item.get("exploitability_score")
        explicit = impact is not None or exploitability is not None
        if explicit and (impact is None or exploitability is None):
            col.error(
                path, "impact_score and exploitability_score must be given together"
            )
            continue
        if explicit:
            impact = _number(col, f"{path}.impact_score", impact, lo=0, hi=10)
            exploitability = _number(
                col, f"{path}.exploitability_score", exploitability, lo=0, hi=10
            )
            if impact is None or exploitability is None:
                continue
            if from_vector is not None:
                col.warn(
                    path,
                    "both a CVSS vector and explicit subscores given; explicit subscores win",
                )
        elif from_vector is not None:
            impact = from_vector["impact_subscore"]
            exploitability = from_vector["exploitability_subscore"]
        else:
            col.error(
                path,
                "vulnerability needs either a CVSS 'vector' or explicit "
                "impact_score/exploitability_score",
            )
            continue

        temporal = item.get("temporal_score")
        if temporal is None:
            col.warn(
                f"{path}.temporal_score",
                f"missing temporal_score for {cve}; defaulting to the impact score",
            )
            temporal = impact
        else:
            temporal = _number(col, f"{path}.temporal_score", temporal, lo=0, hi=10)
            if temporal is None:
                continue

        atc_cost = item.get("atc_cost")
        if atc_cost is not None:
            atc_cost = _number(col, f"{path}.atc_cost", atc_cost, lo=0, hi=1)
            if atc_cost is None:
                continue

        action = item.get("action")
        if action is not None and action not in actions:
            col.error(f"{path}.action", f"unknown action {action!r}")
            continue

        out.append(VulnerabilityRecord(cve, impact, exploitability, temporal, atc_cost, action))
    return tuple(out)


def _parse_assets(
    col: _Collector, raw: Any, vulnerabilities: tuple[VulnerabilityRecord, ...]
) -> tuple[AssetProfile, ...]:
    if raw is None:
        return ()
    from .veability import AssetProfile

    known = {v.cve: v for v in vulnerabilities}
    out: list[AssetProfile] = []
    for path, item, aid in _objects(col, raw, "assets", "asset", _ASSET_KEYS, duplicate="asset id"):
        services = item.get("services_on_asset", 0)
        total = item.get("network_services_total", 1)
        if not isinstance(services, int) or isinstance(services, bool):
            col.error(f"{path}.services_on_asset", "expected an integer")
            continue
        if not isinstance(total, int) or isinstance(total, bool):
            col.error(f"{path}.network_services_total", "expected an integer")
            continue
        records: dict[str, VulnerabilityRecord] = {}
        refs = item.get("vulnerabilities", [])
        ok = _expect(col, f"{path}.vulnerabilities", refs, list, "a list of vulnerability ids")
        for j, cve in enumerate(refs if ok else ()):
            if not isinstance(cve, str) or cve not in known:
                problem = "unknown"
            elif cve in records:
                problem = "duplicate"
            else:
                records[cve] = known[cve]
                continue
            col.error(f"{path}.vulnerabilities[{j}]", f"{problem} vulnerability reference {cve!r}")
            ok = False
        if total < 1:
            col.error(f"{path}.network_services_total", "must be at least 1")
            ok = False
        elif total > _MAX_SERVICES:
            col.error(
                f"{path}.network_services_total", f"must be at most 2**53 ({_MAX_SERVICES})"
            )
            ok = False
        elif not (0 <= services <= total):
            col.error(
                f"{path}.services_on_asset",
                f"must be between 0 and network_services_total ({total})",
            )
            ok = False
        if ok:
            out.append(AssetProfile(aid, tuple(records.values()), services, total))
    return tuple(out)


# --- bridges into the scoring modules -----------------------------------------
# The parser built the records; these only fill atc_cost and swap them in.


def resolve_vulnerability_records(
    scenario: ScenarioFile, action_costs: Optional[Mapping[str, float]] = None
) -> dict[str, VulnerabilityRecord]:
    """Each scenario vulnerability by CVE, its atc_cost taken from the explicit
    value or else from the linked action's closeness in the ranking."""
    records: dict[str, VulnerabilityRecord] = {}
    for v in scenario.vulnerabilities:
        if v.atc_cost is None:
            if v.action is None or not action_costs or v.action not in action_costs:
                raise ValueError(
                    f"vulnerability {v.cve} has no atc_cost and no ranked action to take it from"
                )
            v = v._replace(atc_cost=action_costs[v.action])
        records[v.cve] = v
    return records


def asset_profiles(
    scenario: ScenarioFile, records: Mapping[str, VulnerabilityRecord]
) -> list[AssetProfile]:
    return [
        a._replace(vulnerabilities=tuple(records[v.cve] for v in a.vulnerabilities))
        for a in scenario.assets
    ]
