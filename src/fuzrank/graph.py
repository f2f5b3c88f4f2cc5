"""Typed attack-graph model: validation, AND/OR reachability, path enumeration, DOT export.

Node semantics: Configuration nodes are facts known to be true; AttackStep and
FinalStep nodes require ALL predecessors (AND); Privilege nodes require ANY
predecessor (OR). Because AND nodes need several branches at once, a "path" here
is a minimal node set that satisfies the goal, reported in topological order.

Minimal sets are found as minimal cut sets are in fault-tree analysis (MOCUS):
one memoised pass over the goal's ancestors, with node sets encoded as int
bitmasks (bit i is node ``sorted(graph.nodes)[i]``; k is a subset of m iff
``k & ~m == 0``). An OR node unites its predecessors' families, an AND node
joins them pairwise with ``|``, and after every merge only the
inclusion-minimal masks are kept (absorption), so each node's family is an
antichain and no global superset prune is needed. Distinct masks of one
popcount already form an antichain, so a merged family of one popcount is
kept as it is, without a subset test.

Bit order is sorted-id order, and ``_linearize`` depends on it: among the
ready nodes of a set it takes the smallest bit index, which is the smallest
id, so each path is the set's smallest-id-first topological order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence


DEFAULT_PATH_CAP = 10_000


class NodeKind(Enum):
    CONFIGURATION = "configuration"
    ATTACK_STEP = "attack_step"
    PRIVILEGE = "privilege"
    FINAL_STEP = "final_step"


_DOT_SHAPES = {
    NodeKind.CONFIGURATION: "circle",
    NodeKind.ATTACK_STEP: "circle",
    NodeKind.PRIVILEGE: "diamond",
    NodeKind.FINAL_STEP: "box",
}


@dataclass(frozen=True)
class AttackNode:
    id: str
    kind: NodeKind
    label: str = ""
    cve: Optional[str] = None
    scheme: Optional[str] = None


@dataclass(frozen=True)
class AttackScheme:
    code: str
    description: str


#: Threat categories arising from MEC/5G integration; scenario files may
#: reference these codes or declare additional ones explicitly.
PREDEFINED_SCHEMES = {
    "I": AttackScheme("I", "Insecure mobile backhaul network"),
    "S": AttackScheme("S", "Shared infrastructure with third-party applications"),
    "P": AttackScheme("P", "Privacy leakage via illegitimate access to the MEC system"),
}


class GraphValidationError(ValueError):
    """Raised by build_graph with the full list of structural problems."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class PathExplosionError(RuntimeError):
    """Raised when path enumeration exceeds the configured cap."""


class UnknownNodeError(KeyError):
    pass


@dataclass(frozen=True)
class AttackGraph:
    """Validated DAG of attack nodes. Immutable; construct via build_graph."""

    nodes: dict[str, AttackNode]
    edges: frozenset[tuple[str, str]]
    targets: frozenset[str]
    _preds: dict[str, tuple[str, ...]] = field(repr=False, default_factory=dict)
    _succs: dict[str, tuple[str, ...]] = field(repr=False, default_factory=dict)

    def predecessors(self, node_id: str) -> tuple[str, ...]:
        self._check(node_id)
        return self._preds[node_id]

    def successors(self, node_id: str) -> tuple[str, ...]:
        self._check(node_id)
        return self._succs[node_id]

    def _check(self, node_id: str) -> None:
        if node_id not in self.nodes:
            raise UnknownNodeError(f"unknown node id {node_id!r}")

    def __len__(self) -> int:
        return len(self.nodes)


def build_graph(
    nodes: Iterable[AttackNode],
    edges: Iterable[tuple[str, str]],
    targets: Iterable[str] = (),
) -> AttackGraph:
    """Validate and assemble an attack graph; collects every violation it finds."""
    node_list = list(nodes)
    edge_list = list(dict.fromkeys(tuple(e) for e in edges))
    target_set = set(targets)
    errors: list[str] = []

    by_id: dict[str, AttackNode] = {}
    for node in node_list:
        if node.id in by_id:
            errors.append(f"duplicate node id {node.id!r}")
        by_id[node.id] = node

    preds: dict[str, list[str]] = {nid: [] for nid in by_id}
    succs: dict[str, list[str]] = {nid: [] for nid in by_id}
    for src, dst in edge_list:
        if src not in by_id:
            errors.append(f"edge ({src!r} -> {dst!r}): unknown source node")
            continue
        if dst not in by_id:
            errors.append(f"edge ({src!r} -> {dst!r}): unknown destination node")
            continue
        preds[dst].append(src)
        succs[src].append(dst)

    for nid in target_set - by_id.keys():
        errors.append(f"target {nid!r} is not a node in the graph")

    for nid, node in by_id.items():
        if node.kind is NodeKind.CONFIGURATION and preds[nid]:
            errors.append(f"configuration node {nid!r} has a predecessor")
        if node.kind is NodeKind.FINAL_STEP and succs[nid]:
            errors.append(f"final-step node {nid!r} has a successor")
        if node.kind in (NodeKind.ATTACK_STEP, NodeKind.PRIVILEGE) and not preds[nid]:
            errors.append(f"{node.kind.value} node {nid!r} has no predecessor")

    sorted_succs = {nid: tuple(sorted(ss)) for nid, ss in succs.items()}
    cycle = _find_cycle(sorted_succs)
    if cycle:
        errors.append("cycle detected: " + " -> ".join(cycle))
    else:
        # final steps must be reachable from some configuration node
        reachable = _reachable_from_configurations(by_id, succs)
        for nid, node in by_id.items():
            if node.kind is NodeKind.FINAL_STEP and nid not in reachable:
                errors.append(f"final-step node {nid!r} is unreachable from any configuration node")

    if errors:
        raise GraphValidationError(errors)

    return AttackGraph(
        nodes=by_id,
        edges=frozenset(edge_list),
        targets=frozenset(target_set),
        _preds={nid: tuple(sorted(ps)) for nid, ps in preds.items()},
        _succs=sorted_succs,
    )


def _find_cycle(succs: dict[str, tuple[str, ...]]) -> Optional[list[str]]:
    """Return one directed cycle as a node sequence (closed), or None.

    `succs` maps every node id to its successors, already sorted."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = dict.fromkeys(succs, WHITE)
    parent: dict[str, Optional[str]] = {}

    for start in sorted(color):
        if color[start] != WHITE:
            continue
        stack: list[tuple[str, int]] = [(start, 0)]
        parent[start] = None
        color[start] = GREY
        while stack:
            nid, idx = stack[-1]
            children = succs[nid]
            if idx < len(children):
                stack[-1] = (nid, idx + 1)
                child = children[idx]
                if color[child] == GREY:
                    cycle = [child, nid]
                    cur = parent[nid]
                    while cur is not None and cycle[-1] != child:
                        cycle.append(cur)
                        cur = parent[cur]
                    if cycle[-1] != child:
                        cycle.append(child)
                    cycle.reverse()
                    return cycle
                if color[child] == WHITE:
                    color[child] = GREY
                    parent[child] = nid
                    stack.append((child, 0))
            else:
                color[nid] = BLACK
                stack.pop()
    return None


def _reachable_from_configurations(
    by_id: dict[str, AttackNode], succs: dict[str, list[str]]
) -> set[str]:
    frontier = [nid for nid, n in by_id.items() if n.kind is NodeKind.CONFIGURATION]
    seen = set(frontier)
    while frontier:
        nid = frontier.pop()
        for nxt in succs[nid]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def enumerate_paths(
    graph: AttackGraph, goal: str, cap: int = DEFAULT_PATH_CAP
) -> list[tuple[str, ...]]:
    """All minimal node sets that satisfy `goal`, each linearized topologically.

    The sets come from one memoised pass over bitmask families with absorption
    at every node (see the module docstring), so every returned sequence is a
    minimal satisfying set. `cap` bounds each node's deduplicated candidate
    family, built from its predecessors' already-absorbed families; a node
    that exceeds it raises PathExplosionError. Output order is deterministic:
    sequences sorted lexicographically.
    """
    ids, masks = _minimal_masks(graph, goal, cap)
    index = {nid: i for i, nid in enumerate(ids)}
    pred_masks = [sum(1 << index[p] for p in graph._preds[nid]) for nid in ids]
    succ_bits = [[index[s] for s in graph._succs[nid]] for nid in ids]
    return sorted(_linearize(ids, pred_masks, succ_bits, m) for m in masks)


def _minimal_masks(graph: AttackGraph, goal: str, cap: int) -> tuple[list[str], list[int]]:
    """The sorted node ids and the antichain of minimal masks satisfying `goal`."""
    graph._check(goal)
    ids = sorted(graph.nodes)
    bit = {nid: 1 << i for i, nid in enumerate(ids)}
    families: dict[str, list[int]] = {}
    stack = [goal]
    while stack:  # post-order over the goal's ancestors, first predecessor first
        nid = stack[-1]
        if nid in families:
            stack.pop()
            continue
        preds = graph._preds[nid]
        pending = [p for p in preds if p not in families]
        if pending:
            stack.extend(reversed(pending))
            continue
        stack.pop()
        own = bit[nid]
        kind = graph.nodes[nid].kind
        if kind is NodeKind.CONFIGURATION or not preds:
            families[nid] = [own]
        elif kind is NodeKind.PRIVILEGE:
            candidates = {m | own for p in preds for m in families[p]}
            if len(candidates) > cap:
                raise _explosion(nid, cap)
            families[nid] = _minimal(candidates)
        else:  # AND: ATTACK_STEP and FINAL_STEP
            combos = families[preds[0]]
            for p in preds[1:]:
                branch = families[p]
                candidates = set()
                for c in combos:
                    candidates.update(map(c.__or__, branch))
                    if len(candidates) > cap:
                        raise _explosion(nid, cap)
                combos = _minimal(candidates)
            # own is no ancestor of itself in a DAG, so this stays an antichain
            families[nid] = [c | own for c in combos]
    return ids, families[goal]


def _explosion(node_id: str, cap: int) -> PathExplosionError:
    return PathExplosionError(
        f"more than {cap} candidate paths while expanding {node_id!r}; "
        "raise the cap to enumerate anyway"
    )


def _minimal(masks: Iterable[int]) -> list[int]:
    """Inclusion-minimal masks of a deduplicated family.

    Distinct masks of equal popcount are never subsets of one another, so a
    family of one popcount is returned as it is (sorted), and otherwise each
    mask is tested only against kept masks of strictly smaller popcount.
    """
    ordered = sorted(masks, key=int.bit_count)
    if not ordered or ordered[0].bit_count() == ordered[-1].bit_count():
        return ordered
    smaller: list[int] = []
    level: list[int] = []
    size = ordered[0].bit_count()
    for m in ordered:
        if m.bit_count() != size:
            smaller += level
            level = []
            size = m.bit_count()
        outside = ~m
        for k in smaller:
            if not k & outside:  # k is a subset of m
                break
        else:
            level.append(m)
    smaller += level
    return smaller


def _decode(ids: Sequence[str], mask: int) -> frozenset[str]:
    nodes = []
    while mask:
        low = mask & -mask
        nodes.append(ids[low.bit_length() - 1])
        mask ^= low
    return frozenset(nodes)


def _linearize(
    ids: Sequence[str], pred_masks: Sequence[int], succ_bits: Sequence[Sequence[int]], mask: int
) -> tuple[str, ...]:
    """Topological order of the nodes in `mask`, smallest id first among ready nodes.

    Bit order is sorted-id order, so the smallest ready bit index is the
    smallest ready id. `pred_masks[i]` holds the bits of node i's
    predecessors and `succ_bits[i]` the bit indices of its successors.
    """
    indeg: dict[int, int] = {}
    ready: list[int] = []
    rest = mask
    while rest:
        low = rest & -rest
        i = low.bit_length() - 1
        rest ^= low
        d = (pred_masks[i] & mask).bit_count()
        if d:
            indeg[i] = d
        else:
            ready.append(i)  # ascending, so already a heap
    order: list[str] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(ids[i])
        for j in succ_bits[i]:
            if j in indeg:
                indeg[j] -= 1
                if not indeg[j]:
                    heapq.heappush(ready, j)
    return tuple(order)


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(graph: AttackGraph, name: str = "attack_graph") -> str:
    """Graphviz DOT text: circles for steps/configurations, diamonds for privileges, boxes for final exploits."""
    lines = [f"digraph {_dot_quote(name)} {{"]
    for nid in sorted(graph.nodes):
        node = graph.nodes[nid]
        label = node.label or nid
        attrs = f"shape={_DOT_SHAPES[node.kind]}, label={_dot_quote(label)}"
        if nid in graph.targets:
            attrs += ", peripheries=2"
        lines.append(f"  {_dot_quote(nid)} [{attrs}];")
    for src, dst in sorted(graph.edges):
        lines.append(f"  {_dot_quote(src)} -> {_dot_quote(dst)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def subgraph_to_goal(graph: AttackGraph, goal: str, cap: int = DEFAULT_PATH_CAP) -> AttackGraph:
    """Restriction of the graph to nodes on some minimal path to `goal`.

    The kept nodes are the bitwise OR of the goal's minimal masks (see
    enumerate_paths for the method and for `cap`); no path is linearised.
    """
    ids, masks = _minimal_masks(graph, goal, cap)
    union = 0
    for m in masks:
        union |= m
    keep = _decode(ids, union)
    nodes = [graph.nodes[nid] for nid in sorted(keep)]
    edges = [(s, d) for s, d in sorted(graph.edges) if s in keep and d in keep]
    targets = [t for t in graph.targets if t in keep]
    return build_graph(nodes, edges, targets)
