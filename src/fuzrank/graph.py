"""Attack-graph search and export: AND/OR minimal sets, path enumeration, DOT.

Node semantics: Configuration nodes are facts known to be true; AttackStep and
FinalStep nodes require ALL predecessors (AND); Privilege nodes require ANY
predecessor (OR). Because AND nodes need several branches at once, a "path" here
is a minimal node set that satisfies the goal, reported in topological order.

Minimal sets are found as minimal cut sets are in fault-tree analysis (MOCUS):
one memoised pass over the goal's ancestors, with node sets encoded as int
bitmasks (k is a subset of m iff ``k & ~m == 0``). Each node's family, the
antichain of its minimal sets, is kept factored as ``(base, masks, reach)``:
its sets are ``base | m`` for each ``m`` in ``masks``, no mask holds a base
bit, and ``reach`` is the OR of the sets. A node with one predecessor, AND
or OR, adds its own bit to the predecessor's base and shares its masks,
copying nothing; families are shared and never changed in place. An AND
node over several predecessors joins their families one at a time with
``|``, starting from the family ``[0]``, and keeps the inclusion-minimal
unions of each join (absorption, `_minimal`).

The OR rule: at an OR node v over predecessors P, v's minimal sets are each
predecessor p's minimal sets that hold no other node of P, with v added. A
set s of p that holds some q in P satisfies q, so it holds a minimal set t of
q, which lacks p (else p and q would be ancestors of each other), and t + v
lies strictly inside s + v. A set that holds no other predecessor is absorbed
by none, as every set of another predecessor q holds q and p's own sets are
an antichain; by the same ancestor argument, no set belongs to two
predecessors.

So an OR node keeps its branches unexpanded, as a `_Union` of the parts
``(base, masks)``. A branch whose ``base`` holds another predecessor is
dropped whole, as the base is in each of its sets; only a branch whose
``reach`` holds one is expanded, and filtered. Its candidate count, which the
cap bounds, is the sum of its predecessors' family sizes, dropped branches
included.

Only the consumers of the sets expand a union, into one flat list
(`_expand`): an AND join, a filtered branch and ``enumerate_paths``.
``subgraph_to_goal`` reads the goal's ``reach``, so on a graph of OR
alternatives that hold no other alternative its cost grows with nodes times
branches, not with the number of minimal sets.

Which bit a node holds is private to the search: `_minimal_masks` assigns
the bits and returns the ids in bit order, and only the two decodes read
them, `_linearize` for ``enumerate_paths`` and ``subgraph_to_goal``. A path's
order is stated on ids (``enumerate_paths``), not on bits.

This module holds no validation and defines no graph type. The scenario
parser is the one checker of the format and states every graph rule
(`scenario._parse_graph`): the input checks located in the document, each
node's kind against its edges, cycles and reachability of the final steps.
It builds the `AttackGraph`, which `scenario` defines with `NodeKind` and
`AttackNode`, and the code here trusts it.
"""

from __future__ import annotations

from functools import reduce
from itertools import groupby
from operator import or_
from typing import Collection, Sequence

from .scenario import AttackGraph, NodeKind

DEFAULT_PATH_CAP = 10_000


_DOT_SHAPES = {
    NodeKind.CONFIGURATION: "circle",
    NodeKind.ATTACK_STEP: "circle",
    NodeKind.PRIVILEGE: "diamond",
    NodeKind.FINAL_STEP: "box",
}


class PathExplosionError(RuntimeError):
    """Raised when path enumeration exceeds the configured cap."""


def enumerate_paths(
    graph: AttackGraph, goal: str, cap: int = DEFAULT_PATH_CAP
) -> list[tuple[str, ...]]:
    """All minimal node sets that satisfy `goal`, each as a path, the paths sorted.

    The sets come from one memoised pass over bitmask families with absorption
    at every node (the module docstring states the OR rule), so every
    returned sequence is a minimal satisfying set. Each set is ordered by one
    rule: repeatedly take the smallest id in the set whose predecessors in
    the set are all placed. That is a topological order, and it costs
    O(k**2) predecessor checks for a set of k nodes. The paths are then
    sorted lexicographically, so the output is deterministic. `cap` bounds
    each node's candidates, counted from its predecessors' already-absorbed
    families: at an OR node the sum of the predecessors' family sizes,
    dropped branches included, and at an AND node the distinct unions of
    each join; the first join, with ``[0]``, counts the first predecessor's
    family, which passes the cap only when the cap is below 1. A node that
    exceeds it raises PathExplosionError, and a `goal` that is not a node
    raises KeyError.
    """
    ids, (base, masks, _) = _minimal_masks(graph, goal, cap)
    return sorted(_linearize(graph, ids, m) for m in _expand(base, masks))


class _Union:
    """The unmaterialised masks of an OR node: ``b | m`` for each part ``(b,
    masks)`` and each ``m`` in its ``masks``, which may be a `_Union` itself.
    No mask occurs in two parts (the OR rule in the module docstring), so
    ``len`` is the sum of the parts' lengths."""

    __slots__ = ("parts", "count")

    def __init__(self, parts: list[tuple[int, "Collection[int] | _Union"]]):
        self.parts, self.count = parts, sum(len(masks) for _, masks in parts)

    def __len__(self) -> int:
        return self.count


_Family = tuple[int, "Collection[int] | _Union", int]  # (base, masks, reach)


def _minimal_masks(graph: AttackGraph, goal: str, cap: int) -> tuple[list[str], _Family]:
    """The sorted node ids and the factored antichain of minimal sets satisfying `goal`.

    Each family is ``(base, masks, reach)``, as the module docstring defines
    it; ``masks`` is a list, or the `_Union` of an OR node's branches (the OR
    rule there), expanded only where the sets themselves are needed
    (`_expand`). `cap` bounds each node's candidates as `enumerate_paths`
    says.
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
        preds = graph.preds[nid]
        pending = [p for p in preds if p not in families]
        if pending:
            stack.extend(reversed(pending))
            continue
        stack.pop()
        own = bit[nid]
        kind = graph.nodes[nid].kind
        if kind is NodeKind.CONFIGURATION:
            families[nid] = (own, [0], own)
        elif len(preds) == 1:  # one predecessor, AND or OR: share its masks
            base, masks, reach = families[preds[0]]
            if kind is NodeKind.PRIVILEGE and len(masks) > cap:  # only when cap < 1
                raise _explosion(nid, cap)
            # own is no ancestor of itself in a DAG, so no mask holds its bit
            families[nid] = (base | own, masks, reach | own)
        elif kind is NodeKind.PRIVILEGE:  # the OR rule of the module docstring
            all_preds = sum(bit[p] for p in preds)
            parts, count, reached = [], 0, own
            for p in preds:
                base, masks, reach = families[p]
                count += len(masks)
                others = all_preds ^ bit[p]
                if base & others:  # every set holds another predecessor
                    continue
                if reach & others:
                    masks = [m for m in _expand(base, masks) if not m & others]
                    base, reach = 0, reduce(or_, masks, 0)
                parts.append((base, masks))
                reached |= reach
            if count > cap:
                raise _explosion(nid, cap)
            families[nid] = (own, _Union(parts), reached)
        else:  # AND over several predecessors: join and absorb one at a time
            combos = [0]
            for p in preds:
                base, masks, _ = families[p]
                sets = _expand(base, masks)
                candidates: set[int] = set()
                for c in combos:
                    candidates.update(map(c.__or__, sets))
                    if len(candidates) > cap:
                        raise _explosion(nid, cap)
                combos = _minimal(candidates)
            families[nid] = (own, combos, reduce(or_, combos, own))
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


def _explosion(node_id: str, cap: int) -> PathExplosionError:
    return PathExplosionError(
        f"more than {cap} candidate paths while expanding {node_id!r}; "
        "raise the cap to enumerate anyway"
    )


def _minimal(masks: Collection[int]) -> list[int]:
    """Inclusion-minimal masks of a deduplicated family: an AND join's unions.

    The masks are walked one popcount at a time, smallest first, and each is
    kept unless a mask kept at a smaller popcount lies inside it. A level's
    survivors join the kept masks after the level, as distinct masks of equal
    popcount never lie inside one another.
    """
    kept: list[int] = []
    for _, level in groupby(sorted(masks, key=int.bit_count), int.bit_count):
        new: list[int] = []
        for m in level:
            outside = ~m
            for k in kept:
                if not k & outside:  # k is a subset of m
                    break
            else:
                new.append(m)
        kept += new
    return kept


def _linearize(graph: AttackGraph, ids: Sequence[str], mask: int) -> tuple[str, ...]:
    """The nodes of `mask` (bit i is ``ids[i]``) in `enumerate_paths`' order."""
    left: set[str] = set()
    while mask:  # the set bits only, so the cost does not grow with the graph
        low = mask & -mask
        left.add(ids[low.bit_length() - 1])
        mask ^= low
    order: list[str] = []
    while left:
        nid = min(x for x in left if left.isdisjoint(graph.preds[x]))
        order.append(nid)
        left.remove(nid)
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
    for src, dst in sorted((p, nid) for nid, ps in graph.preds.items() for p in ps):
        lines.append(f"  {_dot_quote(src)} -> {_dot_quote(dst)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def subgraph_to_goal(graph: AttackGraph, goal: str, cap: int = DEFAULT_PATH_CAP) -> AttackGraph:
    """Restriction of the graph to nodes on some minimal path to `goal`.

    The kept nodes are the union of the goal's minimal sets, its family's
    ``reach`` (the module docstring's OR rule says which branches are
    expanded to find it); no path is linearised. `cap` bounds each node as
    `enumerate_paths` says, so the same PathExplosionError is raised.
    The restriction is built directly and checked no second time: a union of
    minimal satisfying sets keeps every AND node's predecessors and one of
    each OR node's, no cycle and no final step other than the goal, so it
    breaks no rule the parser checked.
    """
    ids, (_, _, reach) = _minimal_masks(graph, goal, cap)
    keep = [nid for i, nid in enumerate(ids) if reach >> i & 1]  # sorted ids
    kept = set(keep)
    return AttackGraph(
        nodes={nid: graph.nodes[nid] for nid in keep},
        targets=graph.targets & kept,
        preds={nid: tuple(p for p in graph.preds[nid] if p in kept) for nid in keep},
    )
