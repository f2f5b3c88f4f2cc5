"""Typed attack-graph model: AND/OR minimal sets, path enumeration, DOT export.

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
antichain and no global superset prune is needed.

Each node's family is kept factored, as ``(base, masks, size, union)``: its
sets are ``base | m`` for each ``m`` in ``masks``, no mask holds a base bit,
``size`` is the popcount all the sets share (0 if they do not share one), and
``union`` is the OR of the masks. So a node with one predecessor, AND or OR,
adds its own bit to the predecessor's base and shares its masks, copying
nothing; families are shared and never changed in place.

An OR node whose predecessors' families all have the same nonzero ``size``
keeps its masks unmaterialised, as a ``_Union`` of the parts ``(base,
masks)`` of those families. Its branches are disjoint, because each
predecessor's own bit is private to its part (the private-bit rule, which
equal sizes imply, so it needs no test): every set of predecessor p holds
p's bit, and a minimal set of another predecessor q that held p would
contain one of p's sets and q besides, so it would be larger than
``size``. So no set occurs in two parts; the node's count, which the cap bounds, is the sum of the parts'
counts, the same number of distinct candidates that uniting them as sets
gives; and sets of one popcount are an antichain, so none is absorbed. Only
the consumers of the sets expand a union, into one flat list
(``_expand``): an AND join over several predecessors, an OR node over
predecessors of mixed sizes, and ``enumerate_paths``. ``subgraph_to_goal``
reads ``base | union`` off the goal's family and expands nothing, so on a
graph of disjoint OR alternatives its cost grows with nodes times branches,
not with the number of minimal sets.

Bit order is sorted-id order, and ``_linearize`` depends on it: among the
ready nodes of a set it takes the smallest bit index, which is the smallest
id, so each path is the set's smallest-id-first topological order. Only
``enumerate_paths`` reaches ``_linearize``, so only it loads ``heapq``.

This module holds no validation. The scenario parser is the one checker of
the format and states every graph rule (`scenario._parse_graph`): the input
checks located in the document, each node's kind against its edges, cycles
and reachability of the final steps. It builds the `AttackGraph`, and the
code here trusts it.
"""

from __future__ import annotations

from enum import Enum
from functools import reduce
from operator import or_
from typing import Collection, NamedTuple, Optional, Sequence


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


class AttackNode(NamedTuple):
    id: str
    kind: NodeKind
    label: str = ""
    cve: Optional[str] = None


class PathExplosionError(RuntimeError):
    """Raised when path enumeration exceeds the configured cap."""


class AttackGraph:
    """Validated DAG of attack nodes. Built by the scenario parser, which
    checks it, and by subgraph_to_goal; `_preds` maps each node id to its
    predecessors in sorted-id order."""

    def __init__(self, nodes: dict[str, AttackNode], edges: frozenset[tuple[str, str]],
                 targets: frozenset[str], _preds: dict[str, tuple[str, ...]]):
        self.nodes, self.edges, self.targets, self._preds = nodes, edges, targets, _preds


def enumerate_paths(
    graph: AttackGraph, goal: str, cap: int = DEFAULT_PATH_CAP
) -> list[tuple[str, ...]]:
    """All minimal node sets that satisfy `goal`, each linearized topologically.

    The sets come from one memoised pass over bitmask families with absorption
    at every node (see the module docstring), so every returned sequence is a
    minimal satisfying set. `cap` bounds each node's deduplicated candidate
    family, built from its predecessors' already-absorbed families; a node
    that exceeds it raises PathExplosionError, and a `goal` that is not a
    node raises KeyError. Output order is deterministic: sequences sorted
    lexicographically.
    """
    ids, (base, masks, _, _) = _minimal_masks(graph, goal, cap)
    index = {nid: i for i, nid in enumerate(ids)}
    pred_masks = [sum(1 << index[p] for p in graph._preds[nid]) for nid in ids]
    succ_bits: list[list[int]] = [[] for _ in ids]
    for i, nid in enumerate(ids):
        for p in graph._preds[nid]:
            succ_bits[index[p]].append(i)
    return sorted(_linearize(ids, pred_masks, succ_bits, m) for m in _expand(base, masks))


class _Union:
    """The unmaterialised masks of an OR node over disjoint branches: ``b | m``
    for each part ``(b, masks)`` and each ``m`` in its ``masks``, which may be
    a `_Union` itself. No mask occurs in two parts, so ``len`` is the sum of
    the parts' lengths."""

    __slots__ = ("parts", "count")

    def __init__(self, parts: list[tuple[int, "Collection[int] | _Union"]], count: int):
        self.parts, self.count = parts, count

    def __len__(self) -> int:
        return self.count


_Family = tuple[int, "Collection[int] | _Union", int, int]  # (base, masks, size, union)


def _minimal_masks(graph: AttackGraph, goal: str, cap: int) -> tuple[list[str], _Family]:
    """The sorted node ids and the factored antichain of minimal sets satisfying `goal`.

    Each family is ``(base, masks, size, union)``: the sets are ``base | m``
    for each ``m`` in ``masks``, no mask holds a base bit, ``size`` is the
    popcount every set shares (0 if they do not share one) and ``union`` is
    the OR of the masks. ``masks`` is a list or set, or the `_Union` of an OR
    node whose predecessors' families share one nonzero size: its branches
    are disjoint (the private-bit rule in the module docstring), so its
    length is the sum of its parts' and it is expanded only where the sets
    themselves are needed (`_expand`). Masks are shared between families (a
    node over one predecessor reuses its predecessor's), so none is ever
    changed in place. Each node's candidate count, which `cap` bounds, is the
    number of distinct sets its predecessors' families give before absorption.
    """
    ids = sorted(graph.nodes)
    bit = {nid: 1 << i for i, nid in enumerate(ids)}
    families: dict[str, _Family] = {}
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
            families[nid] = (own, [0], 1, 0)
        elif len(preds) == 1:  # one predecessor, AND or OR: share its masks
            base, masks, size, union = families[preds[0]]
            if kind is NodeKind.PRIVILEGE and len(masks) > cap:  # only when cap < 1
                raise _explosion(nid, cap)
            # own is no ancestor of itself in a DAG, so no mask holds its bit
            families[nid] = (base | own, masks, size + 1 if size else 0, union)
        elif kind is NodeKind.PRIVILEGE:
            fams = [families[p] for p in preds]
            size = fams[0][2]
            if size and all(f[2] == size for f in fams):
                # disjoint branches of one popcount (see the module docstring):
                # kept as their union, with no set built or compared
                count = sum(len(f[1]) for f in fams)
                if count > cap:
                    raise _explosion(nid, cap)
                parts = [(b, masks) for b, masks, _, _ in fams]
                union = reduce(or_, [b | u for b, _, _, u in fams])
                families[nid] = (own, _Union(parts, count), size + 1, union)
            else:
                candidates: set[int] = set()
                for b, masks, _, _ in fams:
                    candidates.update(_expand(b, masks))
                if len(candidates) > cap:
                    raise _explosion(nid, cap)
                families[nid] = _family(own, _minimal(candidates))
        else:  # AND over several predecessors: ATTACK_STEP and FINAL_STEP
            base, masks, _, _ = families[preds[0]]
            combos = _expand(base, masks)
            for p in preds[1:]:
                base, masks, _, _ = families[p]
                sets = _expand(base, masks)
                candidates = set()
                for c in combos:
                    candidates.update(map(c.__or__, sets))
                    if len(candidates) > cap:
                        raise _explosion(nid, cap)
                combos = _minimal(candidates)
            families[nid] = _family(own, combos)
    return ids, families[goal]


def _expand(base: int, masks: Collection[int] | _Union) -> list[int]:
    """The sets ``base | m`` of a family as one flat list, its unions expanded.

    Each `_Union` is expanded once, after the unions its parts hold, and its
    list is reused by every part that shares it; the walk is iterative, as
    unions nest as deep as the chain of OR nodes.
    """
    flat: dict[int, list[int]] = {}  # id of a _Union -> its masks, expanded
    stack = [masks]
    while stack:
        union = stack[-1]
        if type(union) is not _Union or id(union) in flat:
            stack.pop()
            continue
        pending = [ms for _, ms in union.parts if type(ms) is _Union and id(ms) not in flat]
        if pending:
            stack += pending
            continue
        stack.pop()
        out: list[int] = []
        for b, ms in union.parts:
            out += map(b.__or__, flat[id(ms)] if type(ms) is _Union else ms)
        flat[id(union)] = out
    return list(map(base.__or__, flat[id(masks)] if type(masks) is _Union else masks))


def _family(base: int, masks: Collection[int]) -> _Family:
    """The factored family of the sets ``base | m``; no mask may hold a base bit."""
    sizes = set(map(int.bit_count, masks))
    size = base.bit_count() + sizes.pop() if len(sizes) == 1 else 0
    return base, masks, size, reduce(or_, masks, 0)


def _explosion(node_id: str, cap: int) -> PathExplosionError:
    return PathExplosionError(
        f"more than {cap} candidate paths while expanding {node_id!r}; "
        "raise the cap to enumerate anyway"
    )


def _minimal(masks: Collection[int]) -> list[int]:
    """Inclusion-minimal masks of a deduplicated family.

    Distinct masks of equal popcount are never subsets of one another, so a
    family of one popcount is returned as it is, found without a sort; and
    otherwise each mask is tested only against kept masks of strictly smaller
    popcount.
    """
    if len(set(map(int.bit_count, masks))) < 2:
        return list(masks)
    ordered = sorted(masks, key=int.bit_count)
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


def _linearize(
    ids: Sequence[str], pred_masks: Sequence[int], succ_bits: Sequence[Sequence[int]], mask: int
) -> tuple[str, ...]:
    """Topological order of the nodes in `mask`, smallest id first among ready nodes.

    Bit order is sorted-id order, so the smallest ready bit index is the
    smallest ready id. `pred_masks[i]` holds the bits of node i's
    predecessors and `succ_bits[i]` the bit indices of its successors, in any order.
    """
    from heapq import heappop, heappush

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
        i = heappop(ready)
        order.append(ids[i])
        for j in succ_bits[i]:
            if j in indeg:
                indeg[j] -= 1
                if not indeg[j]:
                    heappush(ready, j)
    return tuple(order)


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(graph: AttackGraph) -> str:
    """Graphviz DOT text of a digraph named "attack_graph": circles for
    steps/configurations, diamonds for privileges, boxes for final exploits."""
    lines = ['digraph "attack_graph" {']
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

    The kept nodes are the bitwise OR of the goal's minimal masks, read off
    its factored family as ``base | union`` (see enumerate_paths for the
    method and for `cap`); no mask of a `_Union` family is expanded and no
    path is linearised, so a goal behind disjoint OR alternatives costs
    nodes times branches, not one step per minimal set. The cap still bounds
    each node's count, so the same PathExplosionError is raised.
    The restriction is built directly and checked no second time: a union of
    minimal satisfying sets keeps every AND node's predecessors and one of
    each OR node's, no cycle and no final step other than the goal, so it
    breaks no rule the parser checked.
    """
    ids, (base, _, _, union) = _minimal_masks(graph, goal, cap)
    union |= base
    keep = [nid for i, nid in enumerate(ids) if union >> i & 1]  # sorted ids
    kept = set(keep)
    return AttackGraph(
        nodes={nid: graph.nodes[nid] for nid in keep},
        edges=frozenset((s, d) for s, d in graph.edges if s in kept and d in kept),
        targets=graph.targets & kept,
        _preds={nid: tuple(p for p in graph._preds[nid] if p in kept) for nid in keep},
    )
