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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterator, Mapping, Optional, Sequence

import numpy as np

from .classic import (
    CriterionKind,
    CriterionSpec,
    DecisionMatrix,
    PairwiseMatrix,
)
from .cvss import CvssError, score_cvss
from .fuzzy import RatingPanel
from .graph import (
    AttackGraph,
    AttackNode,
    AttackScheme,
    GraphValidationError,
    NodeKind,
    PREDEFINED_SCHEMES,
    build_graph,
)
from .tfn import TFN, LinguisticScale, default_scale
from .veability import AssetProfile, VulnerabilityRecord

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


class ScenarioError(ValueError):
    """Validation failure; .errors lists '<json-path>: <message>' entries."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


@dataclass(frozen=True)
class ScenarioVulnerability:
    cve: str
    impact_score: float
    exploitability_score: float
    temporal_score: float
    atc_cost: Optional[float] = None
    action: Optional[str] = None
    vector: Optional[str] = None
    explicit_scores: bool = True


@dataclass(frozen=True)
class ScenarioAsset:
    asset_id: str
    services_on_asset: int
    network_services_total: int
    cves: tuple[str, ...] = ()


@dataclass(frozen=True)
class ScenarioFile:
    schema_version: str
    title: Optional[str] = None
    scale: LinguisticScale = field(default_factory=default_scale)
    schemes: tuple[AttackScheme, ...] = ()
    graph: Optional[AttackGraph] = None
    criteria: tuple[CriterionSpec, ...] = ()
    actions: tuple[str, ...] = ()
    panel: Optional[RatingPanel] = None
    pairwise: Optional[PairwiseMatrix] = None
    decision_matrix: Optional[DecisionMatrix] = None
    vulnerabilities: tuple[ScenarioVulnerability, ...] = ()
    assets: tuple[ScenarioAsset, ...] = ()
    warnings: tuple[str, ...] = field(default=(), compare=False)

    def vulnerability(self, cve: str) -> ScenarioVulnerability:
        for v in self.vulnerabilities:
            if v.cve == cve:
                return v
        raise KeyError(cve)


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
        col.error(path, f"value {x!r} outside [{lo}, {hi}]")
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


def _optional_str(col: _Collector, path: str, value: Any) -> Optional[str]:
    """A string field that may be absent or null; any other value is an
    error and reads as absent."""
    if value is None or _expect(col, path, value, str, "a string"):
        return value
    return None


def parse_scenario(text: str, strict: bool = False) -> ScenarioFile:
    """Parse and fully validate scenario JSON; raises ScenarioError with every
    problem found, each prefixed by its JSON path."""
    col = _Collector(strict)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"$: invalid JSON: {exc}"]) from None
    if not isinstance(doc, dict):
        raise ScenarioError(["$: scenario document must be a JSON object"])

    col.unknown_keys("$", doc, _TOP_LEVEL_KEYS)

    version = doc.get("schema_version")
    if version is None:
        col.error("$", "missing schema_version")
    elif version != SCHEMA_VERSION:
        col.error("$.schema_version", f"unrecognized schema_version {version!r}; expected {SCHEMA_VERSION!r}")

    title = _optional_str(col, "$.title", doc.get("title"))

    scale = _parse_scale(col, doc.get("scale"))
    schemes = _parse_schemes(col, doc.get("schemes"))
    criteria = _parse_criteria(col, doc.get("criteria"), scale)
    actions = _parse_actions(col, doc.get("actions"))
    graph = _parse_graph(col, doc.get("graph"), schemes)
    panel = _parse_panel(col, doc.get("panel"), actions, criteria, scale)
    pairwise = _parse_pairwise(col, doc.get("pairwise"), criteria)
    decision_matrix = _parse_decision_matrix(col, doc.get("decision_matrix"), actions, criteria)
    vulnerabilities = _parse_vulnerabilities(col, doc.get("vulnerabilities"), actions)
    assets = _parse_assets(col, doc.get("assets"), vulnerabilities)

    if col.errors:
        raise ScenarioError(col.errors)

    return ScenarioFile(
        schema_version=SCHEMA_VERSION,
        title=title,
        scale=scale,
        schemes=schemes,
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


def load_scenario(path: str | Path, strict: bool = False) -> ScenarioFile:
    return parse_scenario(Path(path).read_text(encoding="utf-8"), strict=strict)


def bundled_scenario_path() -> Path:
    """Filesystem path of the example scenario shipped with the package."""
    return Path(str(resources.files(__package__) / "data" / "paper_s4.json"))


def _parse_scale(col: _Collector, raw: Any) -> LinguisticScale:
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
        values = [_number(col, f"{path}[{i}]", x) for i, x in enumerate(triple)]
        if None in values:
            continue
        try:
            entries[label] = TFN(*values)
        except ValueError as exc:
            col.error(path, str(exc))
    if not entries:
        col.error("$.scale", "scale override has no valid entries")
        return default_scale()
    return LinguisticScale(entries)


def _parse_schemes(col: _Collector, raw: Any) -> tuple[AttackScheme, ...]:
    schemes = dict(PREDEFINED_SCHEMES)
    if raw is None:
        return tuple(schemes.values())
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
        schemes[code] = AttackScheme(code, desc)
    return tuple(schemes.values())


def _parse_criteria(
    col: _Collector, raw: Any, scale: LinguisticScale
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
                        f"label {weight!r} not in the scale ({', '.join(scale.labels)})",
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


def _parse_graph(
    col: _Collector, raw: Any, schemes: tuple[AttackScheme, ...]
) -> Optional[AttackGraph]:
    if raw is None:
        return None
    if not _expect(col, "$.graph", raw, dict, "an object with nodes/edges/targets"):
        return None
    col.unknown_keys("$.graph", raw, _GRAPH_KEYS)
    known_codes = {s.code for s in schemes}

    nodes: list[AttackNode] = []
    for path, item, nid in _objects(col, raw.get("nodes", []), "graph.nodes", "node", _NODE_KEYS):
        kind_raw = item.get("kind")
        try:
            kind = NodeKind(kind_raw)
        except ValueError:
            col.error(
                f"{path}.kind",
                f"unknown node kind {kind_raw!r}; use one of "
                f"{', '.join(k.value for k in NodeKind)}",
            )
            continue
        label, cve, scheme = (
            _optional_str(col, f"{path}.{key}", item.get(key)) for key in ("label", "cve", "scheme")
        )
        if scheme is not None and scheme not in known_codes:
            col.error(
                f"{path}.scheme",
                f"scheme {scheme!r} is neither predefined (I, S, P) nor declared",
            )
        nodes.append(AttackNode(nid, kind, label=label or "", cve=cve, scheme=scheme))

    edges: list[tuple[str, str]] = []
    raw_edges = raw.get("edges", [])
    if _expect(col, "$.graph.edges", raw_edges, list, "a list of [from, to] pairs"):
        for i, item in enumerate(raw_edges):
            if (
                not isinstance(item, list)
                or len(item) != 2
                or not all(isinstance(x, str) for x in item)
            ):
                col.error(f"$.graph.edges[{i}]", "expected a [from, to] pair of node ids")
                continue
            edges.append((item[0], item[1]))

    targets: list[str] = []
    raw_targets = raw.get("targets", [])
    if _expect(col, "$.graph.targets", raw_targets, list, "a list of node ids"):
        for i, item in enumerate(raw_targets):
            if not isinstance(item, str):
                col.error(f"$.graph.targets[{i}]", "expected a node id string")
                continue
            targets.append(item)

    try:
        return build_graph(nodes, edges, targets)
    except GraphValidationError as exc:
        for msg in exc.errors:
            col.error("$.graph", msg)
        return None


def _parse_panel(
    col: _Collector,
    raw: Any,
    actions: tuple[str, ...],
    criteria: tuple[CriterionSpec, ...],
    scale: LinguisticScale,
) -> Optional[RatingPanel]:
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
    crit_set = set(crit_ids)
    code_of = {label: i for i, label in enumerate(scale.labels)}.__getitem__
    pick = itemgetter(*crit_ids) if len(crit_ids) > 1 else lambda row: (row[crit_ids[0]],)

    def decode(row: dict, codes: list[int]) -> bool:
        """Append the label codes of a valid criterion row to codes. False
        leaves the row for check_row to explain; the panel is then invalid
        and codes, possibly half-extended, is discarded."""
        if row.keys() != crit_set:
            return False
        try:
            codes += map(code_of, pick(row))
        except (KeyError, TypeError):  # a label outside the scale, or unhashable
            return False
        return True

    def check_row(path: str, row: dict, what: str) -> None:
        """Report every problem of a criterion row that decode refused."""
        for cid in row:
            if cid not in crit_set:
                col.error(f"{path}.{cid}", f"unknown criterion {cid!r}")
        for cid in crit_ids:
            if cid not in row:
                col.error(path, f"missing {what} for criterion {cid!r}")
            elif not isinstance(row[cid], str) or row[cid] not in scale:
                col.error(
                    f"{path}.{cid}",
                    f"label {row[cid]!r} not in the scale ({', '.join(scale.labels)})",
                )

    ratings_ok = True
    ratings = raw.get("ratings")
    if not _expect(col, "$.panel.ratings", ratings, dict, "an object keyed by rater"):
        return None
    action_set = set(actions)
    rating_codes: list[int] = []
    for dm in raters:
        grid = ratings.get(dm)
        path = f"$.panel.ratings.{dm}"
        if not isinstance(grid, dict):
            col.error(path, f"missing rating grid for decision maker {dm!r}")
            ratings_ok = False
            continue
        for alt in grid:
            if alt not in action_set:
                col.error(f"{path}.{alt}", f"unknown action {alt!r}")
                ratings_ok = False
        for alt in actions:
            row = grid.get(alt)
            if not isinstance(row, dict):
                col.error(f"{path}.{alt}", f"missing ratings for action {alt!r}")
                ratings_ok = False
                continue
            if not decode(row, rating_codes):
                check_row(f"{path}.{alt}", row, "rating")
                ratings_ok = False
    rater_set = set(raters)
    for dm in ratings:
        if dm not in rater_set:
            col.error(f"$.panel.ratings.{dm}", f"rating grid for undeclared rater {dm!r}")
            ratings_ok = False

    weights = raw.get("weights")
    if not _expect(col, "$.panel.weights", weights, dict, "an object keyed by rater"):
        return None
    weight_codes: list[int] = []
    for dm in raters:
        row = weights.get(dm)
        path = f"$.panel.weights.{dm}"
        if not isinstance(row, dict):
            col.error(path, f"missing criterion weight labels for decision maker {dm!r}")
            ratings_ok = False
            continue
        if not decode(row, weight_codes):
            check_row(path, row, "weight label")
            ratings_ok = False

    if not ratings_ok:
        return None
    k, m, n = len(raters), len(actions), len(crit_ids)
    return RatingPanel(
        decision_makers=raters,
        alternatives=actions,
        criteria=criteria,
        labels=tuple(scale.labels),
        rating_codes=np.array(rating_codes, dtype=np.intp).reshape(k, m, n),
        weight_codes=np.array(weight_codes, dtype=np.intp).reshape(k, n),
    )


def _parse_pairwise(
    col: _Collector, raw: Any, criteria: tuple[CriterionSpec, ...]
) -> Optional[PairwiseMatrix]:
    if raw is None:
        return None
    if not _expect(col, "$.pairwise", raw, list, "a square matrix (list of rows)"):
        return None
    n = len(criteria)
    if n and len(raw) != n:
        col.error("$.pairwise", f"matrix has {len(raw)} rows but there are {n} criteria")
        return None
    cells: list[list[float]] = []
    for i, row in enumerate(raw):
        if not (isinstance(row, list) and len(row) == len(raw)):
            col.error(f"$.pairwise[{i}]", f"expected a row of {len(raw)} numbers")
            return None
        vals = [_number(col, f"$.pairwise[{i}][{j}]", x) for j, x in enumerate(row)]
        if None in vals:
            return None
        cells.append(vals)
    try:
        return PairwiseMatrix(cells)
    except ValueError as exc:
        col.error("$.pairwise", str(exc))
        return None


def _parse_decision_matrix(
    col: _Collector,
    raw: Any,
    actions: tuple[str, ...],
    criteria: tuple[CriterionSpec, ...],
) -> Optional[DecisionMatrix]:
    if raw is None:
        return None
    if not _expect(col, "$.decision_matrix", raw, dict, "an object keyed by action id"):
        return None
    if not actions or not criteria:
        col.error("$.decision_matrix", "requires top-level 'actions' and 'criteria' lists")
        return None
    ok = True
    action_set = set(actions)
    crit_set = {c.id for c in criteria}
    for action in raw:
        if action not in action_set:
            col.error(f"$.decision_matrix.{action}", f"unknown action {action!r}")
            ok = False
    rows: list[list[float]] = []
    for action in actions:
        row = raw.get(action)
        path = f"$.decision_matrix.{action}"
        if not isinstance(row, dict):
            col.error(path, f"missing row for action {action!r}")
            ok = False
            continue
        for cid in row:
            if cid not in crit_set:
                col.error(f"{path}.{cid}", f"unknown criterion {cid!r}")
                ok = False
        vals: list[float] = []
        for c in criteria:
            if c.id not in row:
                col.error(path, f"missing value for criterion {c.id!r}")
                ok = False
                continue
            x = _number(col, f"{path}.{c.id}", row[c.id], lo=0)
            if x is None:
                ok = False
            else:
                vals.append(x)
        rows.append(vals)
    if not ok:
        return None
    try:
        return DecisionMatrix(list(actions), list(criteria), rows)
    except ValueError as exc:
        col.error("$.decision_matrix", str(exc))
        return None


def _parse_vulnerabilities(
    col: _Collector, raw: Any, actions: tuple[str, ...]
) -> tuple[ScenarioVulnerability, ...]:
    if raw is None:
        return ()
    out: list[ScenarioVulnerability] = []
    for path, item, cve in _objects(
        col, raw, "vulnerabilities", "vulnerability", _VULN_KEYS,
        key="cve", what="cve", duplicate="vulnerability",
    ):
        vector = item.get("vector")
        from_vector: Optional[dict[str, float]] = None
        if vector is not None:
            if not isinstance(vector, str):
                col.error(f"{path}.vector", "vector must be a string")
                vector = None
            else:
                try:
                    from_vector = score_cvss(vector)
                except CvssError as exc:
                    col.error(f"{path}.vector", str(exc))
                    vector = None

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

        out.append(
            ScenarioVulnerability(
                cve=cve,
                impact_score=impact,
                exploitability_score=exploitability,
                temporal_score=temporal,
                atc_cost=atc_cost,
                action=action,
                vector=vector,
                explicit_scores=explicit,
            )
        )
    return tuple(out)


def _parse_assets(
    col: _Collector, raw: Any, vulnerabilities: tuple[ScenarioVulnerability, ...]
) -> tuple[ScenarioAsset, ...]:
    if raw is None:
        return ()
    known_cves = {v.cve for v in vulnerabilities}
    out: list[ScenarioAsset] = []
    for path, item, aid in _objects(col, raw, "assets", "asset", _ASSET_KEYS, duplicate="asset id"):
        services = item.get("services_on_asset", 0)
        total = item.get("network_services_total", 1)
        if not isinstance(services, int) or isinstance(services, bool):
            col.error(f"{path}.services_on_asset", "expected an integer")
            continue
        if not isinstance(total, int) or isinstance(total, bool):
            col.error(f"{path}.network_services_total", "expected an integer")
            continue
        cves: list[str] = []
        refs = item.get("vulnerabilities", [])
        ok = _expect(col, f"{path}.vulnerabilities", refs, list, "a list of vulnerability ids")
        for j, cve in enumerate(refs if ok else ()):
            if not isinstance(cve, str) or cve not in known_cves:
                col.error(
                    f"{path}.vulnerabilities[{j}]",
                    f"unknown vulnerability reference {cve!r}",
                )
                ok = False
            else:
                cves.append(cve)
        if total < 1:
            col.error(f"{path}.network_services_total", "must be at least 1")
            ok = False
        elif not (0 <= services <= total):
            col.error(
                f"{path}.services_on_asset",
                f"must be between 0 and network_services_total ({total})",
            )
            ok = False
        if ok:
            out.append(ScenarioAsset(aid, services, total, tuple(cves)))
    return tuple(out)


# --- serialization (round-trip support) --------------------------------------


def scenario_to_dict(scenario: ScenarioFile) -> dict[str, Any]:
    """Plain-JSON form of a scenario; parse(serialize(s)) == s."""
    doc: dict[str, Any] = {"schema_version": scenario.schema_version}
    if scenario.title is not None:
        doc["title"] = scenario.title
    if scenario.scale != default_scale():
        doc["scale"] = {label: list(t.as_tuple()) for label, t in scenario.scale.items()}
    extra_schemes = [s for s in scenario.schemes if s.code not in PREDEFINED_SCHEMES]
    if extra_schemes:
        doc["schemes"] = [
            {"code": s.code, "description": s.description} for s in extra_schemes
        ]
    if scenario.graph is not None:
        nodes = []
        for nid in sorted(scenario.graph.nodes):
            node = scenario.graph.nodes[nid]
            entry: dict[str, Any] = {"id": node.id, "kind": node.kind.value}
            if node.label:
                entry["label"] = node.label
            if node.cve is not None:
                entry["cve"] = node.cve
            if node.scheme:
                entry["scheme"] = node.scheme
            nodes.append(entry)
        doc["graph"] = {
            "nodes": nodes,
            "edges": [list(e) for e in sorted(scenario.graph.edges)],
            "targets": sorted(scenario.graph.targets),
        }
    if scenario.criteria:
        doc["criteria"] = [
            {
                "id": c.id,
                "kind": c.kind.value,
                **({"weight": c.weight} if c.weight is not None else {}),
            }
            for c in scenario.criteria
        ]
    if scenario.actions:
        doc["actions"] = list(scenario.actions)
    if scenario.panel is not None:
        panel = scenario.panel
        crit_ids = [c.id for c in panel.criteria]
        raters = panel.decision_makers
        ratings, weights = panel.label_grids()
        doc["panel"] = {
            "decision_makers": list(raters),
            "ratings": {
                dm: {a: dict(zip(crit_ids, row)) for a, row in zip(panel.alternatives, grid)}
                for dm, grid in zip(raters, ratings)
            },
            "weights": {dm: dict(zip(crit_ids, row)) for dm, row in zip(raters, weights)},
        }
    if scenario.pairwise is not None:
        doc["pairwise"] = [list(row) for row in scenario.pairwise.cells.tolist()]
    if scenario.decision_matrix is not None:
        dm_ = scenario.decision_matrix
        doc["decision_matrix"] = {
            action: {c.id: dm_.cells[i][j] for j, c in enumerate(dm_.criteria)}
            for i, action in enumerate(dm_.alternatives)
        }
    if scenario.vulnerabilities:
        vulns = []
        for v in scenario.vulnerabilities:
            entry: dict[str, Any] = {"cve": v.cve}
            if v.vector is not None:
                entry["vector"] = v.vector
            if v.explicit_scores or v.vector is None:
                entry["impact_score"] = v.impact_score
                entry["exploitability_score"] = v.exploitability_score
            entry["temporal_score"] = v.temporal_score
            if v.atc_cost is not None:
                entry["atc_cost"] = v.atc_cost
            if v.action is not None:
                entry["action"] = v.action
            vulns.append(entry)
        doc["vulnerabilities"] = vulns
    if scenario.assets:
        doc["assets"] = [
            {
                "id": a.asset_id,
                "services_on_asset": a.services_on_asset,
                "network_services_total": a.network_services_total,
                "vulnerabilities": list(a.cves),
            }
            for a in scenario.assets
        ]
    return doc


# --- bridges into the scoring modules -----------------------------------------


def resolve_vulnerability_records(
    scenario: ScenarioFile, action_costs: Optional[Mapping[str, float]] = None
) -> dict[str, VulnerabilityRecord]:
    """Turn scenario vulnerabilities into scoring records, filling each record's
    attacker-cost from its explicit value or from the linked action's ranking."""
    records: dict[str, VulnerabilityRecord] = {}
    for v in scenario.vulnerabilities:
        if v.atc_cost is not None:
            cost = v.atc_cost
        elif v.action is not None and action_costs and v.action in action_costs:
            cost = action_costs[v.action]
        else:
            raise ValueError(
                f"vulnerability {v.cve} has no atc_cost and no ranked action to take it from"
            )
        records[v.cve] = VulnerabilityRecord(
            cve=v.cve,
            impact_score=v.impact_score,
            exploitability_score=v.exploitability_score,
            temporal_score=v.temporal_score,
            atc_cost=cost,
        )
    return records


def asset_profiles(
    scenario: ScenarioFile, records: Mapping[str, VulnerabilityRecord]
) -> list[AssetProfile]:
    return [
        AssetProfile(
            asset_id=a.asset_id,
            vulnerabilities=tuple(records[cve] for cve in a.cves),
            services_on_asset=a.services_on_asset,
            network_services_total=a.network_services_total,
        )
        for a in scenario.assets
    ]
