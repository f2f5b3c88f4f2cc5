import json
import re
import sys
from graphlib import CycleError, TopologicalSorter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzrank.graph import (
    PathExplosionError,
    _minimal,
    enumerate_paths,
    export_dot,
    subgraph_to_goal,
)
from fuzrank.scenario import (
    PREDEFINED_SCHEMES,
    AttackNode,
    NodeKind,
    ScenarioError,
    parse_scenario,
)

C = NodeKind.CONFIGURATION
S = NodeKind.ATTACK_STEP
P = NodeKind.PRIVILEGE
F = NodeKind.FINAL_STEP


def n(nid, kind, **kw):
    return AttackNode(nid, kind, **kw)


def graph_document(nodes, edges=(), targets=()):
    return json.dumps({"schema_version": "1", "graph": {
        "nodes": [{"id": x.id, "kind": x.kind.value, "label": x.label, "cve": x.cve}
                  for x in nodes],
        "edges": [list(e) for e in edges],
        "targets": list(targets),
    }})


def graph_of(nodes, edges=(), targets=()):
    """The graph the scenario parser builds from these nodes, edges and targets."""
    return parse_scenario(graph_document(nodes, edges, targets)).graph


def edges_of(graph):
    """The graph's (src, dst) edges, read off its predecessors, sorted."""
    return sorted((p, nid) for nid, ps in graph.preds.items() for p in ps)


def graph_errors(nodes, edges=(), targets=()):
    """The errors the scenario parser refuses this graph with."""
    with pytest.raises(ScenarioError) as exc:
        graph_of(nodes, edges, targets)
    return exc.value.errors


def chain_graph():
    return graph_of(
        [n("cfg", C), n("step", S), n("fin", F)],
        [("cfg", "step"), ("step", "fin")],
        ["fin"],
    )


# --- independent brute-force oracle -----------------------------------------
# Enumerates every node subset, keeps those that satisfy the goal under
# AND/OR semantics, then filters to minimal sets.

def oracle_minimal_sets(graph, goal):
    ids = sorted(graph.nodes)
    satisfying = []
    for mask in range(1, 1 << len(ids)):
        subset = frozenset(ids[i] for i in range(len(ids)) if mask >> i & 1)
        if goal not in subset:
            continue
        ok = True
        for nid in subset:
            node = graph.nodes[nid]
            if node.kind is C:
                continue
            preds = graph.preds[nid]
            present = sum(1 for p in preds if p in subset)
            if node.kind is P:
                ok = present >= 1
            else:
                ok = present == len(preds)
            if not ok:
                break
        if ok:
            satisfying.append(subset)
    return {s for s in satisfying if not any(t < s for t in satisfying)}


def random_typed_dag(rng, relabel=False):
    """A typed DAG of 3 to 12 nodes, built in a topological order whose ids
    ascend; with `relabel`, the ids are a seeded permutation of those, so
    sorted-id order is no longer a topological order."""
    total = int(rng.integers(3, 13))
    names = [f"n{i:02d}" for i in (rng.permutation(total) if relabel else range(total))]
    n_cfg = int(rng.integers(1, max(2, total // 3) + 1))
    nodes, edges = [], []
    pred_pool = []  # ids usable as predecessors (everything but final steps)
    for i in range(total):
        nid = names[i]
        if i < n_cfg:
            nodes.append(n(nid, C))
            pred_pool.append(nid)
            continue
        kind = [S, P, F][int(rng.integers(0, 3))]
        k = int(rng.integers(1, min(3, len(pred_pool)) + 1))
        chosen = rng.choice(pred_pool, size=k, replace=False)
        edges.extend((str(p), nid) for p in chosen)
        nodes.append(n(nid, kind))
        if kind is not F:
            pred_pool.append(nid)
    return graph_of(nodes, edges)


# --- whole-graph validation --------------------------------------------------

def test_build_six_cve_style_scenario():
    cves = [
        "CVE-2019-15083",
        "CVE-2013-0375",
        "CVE-2019-16026",
        "CVE-2004-0415",
        "CVE-2002-0392",
        "CVE-2004-0417",
    ]
    nodes = [n("entry", C)]
    edges = []
    prev = "entry"
    for i, cve in enumerate(cves):
        step, priv, fin = f"exploit-{cve}", f"priv-{i}", f"final-{cve}"
        nodes += [n(step, S, cve=cve), n(priv, P), n(fin, F, cve=cve)]
        edges += [(prev, step), (step, priv), (step, fin)]
        prev = priv
    g = graph_of(nodes, edges, targets=["final-CVE-2004-0417"])
    assert len(g.nodes) == 19
    assert "final-CVE-2004-0417" in g.targets
    assert sum(1 for x in g.nodes.values() if x.kind is F) == 6


def test_build_trivial_single_configuration():
    g = graph_of([n("only", C)], [], [])
    assert len(g.nodes) == 1
    assert g.preds["only"] == ()


def test_final_step_with_successor_rejected():
    assert graph_errors(
        [n("cfg", C), n("fin", F), n("later", S)],
        [("cfg", "fin"), ("fin", "later")],
    ) == ["$.graph: final-step node 'fin' has a successor"]


def test_configuration_with_predecessor_rejected():
    assert graph_errors(
        [n("cfg", C), n("step", S), n("cfg2", C)],
        [("cfg", "step"), ("step", "cfg2")],
    ) == ["$.graph: configuration node 'cfg2' has a predecessor"]


def named_cycle(nodes, edges):
    """The one "cycle detected" error of an invalid graph, as a list of ids."""
    errors = graph_errors(nodes, edges)
    named = [m for m in errors if m.startswith("$.graph: cycle detected: ")]
    assert len(named) == 1, errors
    walk = named[0].removeprefix("$.graph: cycle detected: ").split(" -> ")
    # a closed walk along input edges
    assert len(walk) >= 2 and walk[0] == walk[-1]
    assert set(zip(walk, walk[1:])) <= set(edges)
    return walk


def assert_same_cycle_in_any_order(nodes, edges, walk):
    assert named_cycle(nodes[::-1], edges[::-1]) == walk
    rng = np.random.default_rng(5)
    for _ in range(10):
        shuffled_nodes = [nodes[i] for i in rng.permutation(len(nodes))]
        shuffled_edges = [edges[i] for i in rng.permutation(len(edges))]
        assert named_cycle(shuffled_nodes, shuffled_edges) == walk


def test_cycle_is_named():
    nodes = [n("cfg", C), n("a", S), n("b", P), n("d", S)]
    edges = [("cfg", "a"), ("a", "b"), ("b", "d"), ("d", "b")]
    walk = named_cycle(nodes, edges)
    assert set(walk) == {"b", "d"}
    assert_same_cycle_in_any_order(nodes, edges, walk)


def test_one_of_several_cycles_is_named_whatever_the_input_order():
    # cycles b -> d -> b and y -> x -> z -> y, and a self-loop on q
    nodes = [n("cfg", C), n("d", S), n("b", P), n("z", P), n("y", S), n("x", S), n("q", P)]
    edges = [("cfg", "b"), ("b", "d"), ("d", "b"), ("cfg", "y"), ("y", "x"), ("x", "z"),
             ("z", "y"), ("d", "x"), ("cfg", "q"), ("q", "q")]
    assert_same_cycle_in_any_order(nodes, edges, named_cycle(nodes, edges))


def test_cycle_behind_chain_deeper_than_recursion_limit():
    depth = sys.getrecursionlimit() + 500
    ids = [f"n{i:05d}" for i in range(depth)]
    edges = list(zip(ids, ids[1:])) + [(ids[-1], ids[1])]
    walk = named_cycle([n(ids[0], C)] + [n(nid, S) for nid in ids[1:]], edges)
    assert set(walk) == set(ids[1:])


def test_unreachable_final_step_rejected():
    assert graph_errors([n("fin", F)], [], []) == [
        "$.graph: final-step node 'fin' is unreachable from any configuration node"
    ]


def test_attack_step_without_predecessor_rejected():
    assert graph_errors([n("cfg", C), n("step", S)], []) == [
        "$.graph: attack_step node 'step' has no predecessor"
    ]


def test_every_structural_error_is_collected():
    assert graph_errors([n("cfg", C), n("s", S), n("f", F)], [("s", "f")]) == [
        "$.graph: attack_step node 's' has no predecessor",
        "$.graph: final-step node 'f' is unreachable from any configuration node",
    ]


def test_predefined_schemes():
    assert set(PREDEFINED_SCHEMES) == {"I", "S", "P"}
    assert "backhaul" in PREDEFINED_SCHEMES["I"]


# --- enumerate_paths ---------------------------------------------------------

def and_or_graph():
    return graph_of(
        [n("p1", C), n("p2", C), n("and", S), n("or", P), n("fin", F)],
        [("p1", "and"), ("p2", "and"), ("p1", "or"), ("p2", "or"), ("and", "fin")],
    )


def test_linear_chain_single_path():
    g = chain_graph()
    assert enumerate_paths(g, "fin") == [("cfg", "step", "fin")]


def test_or_branching_two_paths():
    g = graph_of(
        [n("c1", C), n("c2", C), n("s1", S), n("s2", S), n("priv", P)],
        [("c1", "s1"), ("c2", "s2"), ("s1", "priv"), ("s2", "priv")],
    )
    paths = enumerate_paths(g, "priv")
    assert paths == [("c1", "s1", "priv"), ("c2", "s2", "priv")]


def test_and_node_needs_both_branches():
    g = and_or_graph()
    assert enumerate_paths(g, "fin") == [("p1", "p2", "and", "fin")]
    assert enumerate_paths(g, "or") == [("p1", "or"), ("p2", "or")]


def test_unreachable_goal_gives_empty_list():
    g = graph_of([n("c1", C), n("c2", C)], [], [])
    assert enumerate_paths(g, "c2") == [("c2",)]
    # a goal that genuinely cannot be satisfied does not exist in a validated
    # graph, so "unreachable" here means: no path from *other* configurations
    with pytest.raises(KeyError):
        enumerate_paths(g, "missing")


def test_paths_deterministic_under_insertion_order():
    nodes = [n("c1", C), n("c2", C), n("s1", S), n("s2", S), n("priv", P)]
    edges = [("c1", "s1"), ("c2", "s2"), ("s1", "priv"), ("s2", "priv")]
    g1 = graph_of(nodes, edges)
    g2 = graph_of(list(reversed(nodes)), list(reversed(edges)))
    assert enumerate_paths(g1, "priv") == enumerate_paths(g2, "priv")


def test_paths_follow_each_sets_own_topological_order():
    # In the whole graph u also waits for the step w, so the whole graph's
    # smallest-id-first order puts v before u. In the set {a, u, v, goal}
    # both are ready once a is placed, so u (the smaller id) comes first.
    g = graph_of(
        [n("a", C), n("x", C), n("w", S), n("u", P), n("v", P), n("goal", F)],
        [("x", "w"), ("a", "u"), ("w", "u"), ("a", "v"), ("x", "v"),
         ("u", "goal"), ("v", "goal")],
    )
    assert enumerate_paths(g, "goal") == [
        ("a", "u", "v", "goal"),
        ("x", "v", "w", "u", "goal"),
    ]


def test_path_cap_enforced():
    # 8 parallel OR alternatives but cap 3
    nodes = [n(f"c{i}", C) for i in range(8)] + [n(f"s{i}", S) for i in range(8)] + [n("priv", P)]
    edges = [(f"c{i}", f"s{i}") for i in range(8)] + [(f"s{i}", "priv") for i in range(8)]
    g = graph_of(nodes, edges)
    with pytest.raises(PathExplosionError, match="more than 3"):
        enumerate_paths(g, "priv", cap=3)
    assert len(enumerate_paths(g, "priv")) == 8


def test_cap_bounds_absorbed_families():
    # Each privilege is reached from c directly or through a step that itself
    # needs c; absorption drops the second way. Joining the unabsorbed
    # families at the AND node "fin" would give 2 x 2 = 4 candidates.
    g = graph_of(
        [n("c", C), n("s1", S), n("s2", S), n("p1", P), n("p2", P), n("fin", F)],
        [("c", "s1"), ("c", "p1"), ("s1", "p1"), ("c", "s2"), ("c", "p2"), ("s2", "p2"),
         ("p1", "fin"), ("p2", "fin")],
    )
    assert enumerate_paths(g, "fin", cap=3) == [("c", "p1", "p2", "fin")]
    # the cap still bounds each node's candidates before absorption
    with pytest.raises(PathExplosionError, match="more than 1 candidate paths while expanding 'p1'"):
        enumerate_paths(g, "fin", cap=1)


def layered_graph(layers, width):
    """Chain of `layers` privileges, each reached by any of `width` attack
    steps on the previous one: width**layers minimal sets."""
    nodes, edges, prev = [n("cfg", C)], [], "cfg"
    for layer in range(layers):
        priv = f"priv-{layer}"
        for s in range(width):
            step = f"step-{layer}-{s}"
            nodes.append(n(step, S))
            edges += [(prev, step), (step, priv)]
        nodes.append(n(priv, P))
        prev = priv
    nodes.append(n("goal", F))
    edges.append((prev, "goal"))
    return graph_of(nodes, edges, ["goal"])


def test_layered_l8w3_within_default_cap():
    g = layered_graph(8, 3)
    assert len(g.nodes) == 34
    assert len(enumerate_paths(g, "goal")) == 3**8
    assert set(subgraph_to_goal(g, "goal").nodes) == set(g.nodes)


def test_chain_deeper_than_recursion_limit():
    depth = sys.getrecursionlimit() + 500
    ids = [f"n{i:05d}" for i in range(depth)]
    g = graph_of(
        [n(ids[0], C)] + [n(nid, S) for nid in ids[1:]],
        list(zip(ids, ids[1:])),
    )
    assert enumerate_paths(g, ids[-1]) == [tuple(ids)]
    assert len(subgraph_to_goal(g, ids[-1]).nodes) == depth


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_minimal_sets_and_subgraph_match_oracle(seed, data):
    g = random_typed_dag(np.random.default_rng(seed))
    targets = data.draw(st.sets(st.sampled_from(sorted(g.nodes))))
    g = graph_of(g.nodes.values(), edges_of(g), targets)
    goal = data.draw(st.sampled_from(sorted(g.nodes)))
    got = enumerate_paths(g, goal)
    assert len(got) == len(set(got))
    assert {frozenset(p) for p in got} == oracle_minimal_sets(g, goal)
    sub = subgraph_to_goal(g, goal)
    keep = {nid for p in got for nid in p}
    assert set(sub.nodes) == keep
    # the restriction is assembled directly; validating it must give the same graph
    rebuilt = graph_of(
        [g.nodes[nid] for nid in sorted(keep)],
        [(s, d) for s, d in edges_of(g) if s in keep and d in keep],
        [t for t in g.targets if t in keep],
    )
    assert list(sub.nodes.items()) == list(rebuilt.nodes.items())
    assert sub.targets == rebuilt.targets
    assert list(sub.preds.items()) == list(rebuilt.preds.items())
    assert export_dot(sub) == export_dot(rebuilt)


def test_enumeration_matches_bruteforce_oracle_randomized():
    rng = np.random.default_rng(20260810)
    for _ in range(40):
        g = random_typed_dag(rng)
        ids = sorted(g.nodes)
        goal = ids[int(rng.integers(0, len(ids)))]
        got = enumerate_paths(g, goal)
        assert {frozenset(p) for p in got} == oracle_minimal_sets(g, goal)
        for path in got:
            assert g.nodes[path[0]].kind is C
            assert path[-1] == goal
            seen = set()
            for nid in path:
                node = g.nodes[nid]
                preds = g.preds[nid]
                if node.kind is P:
                    assert any(p in seen for p in preds)
                elif node.kind is not C:
                    assert all(p in seen for p in preds)
                seen.add(nid)


def oracle_minimal(family):
    return {m for m in family if not any(k != m and k & ~m == 0 for k in family)}


def _masks_of_popcount(k, bits=12):
    bit_sets = st.frozensets(st.integers(0, bits - 1), min_size=k, max_size=k)
    return st.sets(bit_sets, max_size=40).map(lambda sets: {sum(1 << i for i in s) for s in sets})


_families = st.one_of(
    st.sets(st.integers(0, 2**12 - 1), max_size=60),  # mixed popcounts
    st.sets(st.integers(0, 2**5 - 1), max_size=32),  # small universe: heavy absorption
    st.integers(0, 12).flatmap(_masks_of_popcount),  # one popcount: an antichain as drawn
    st.just(set()),
)


@settings(max_examples=300, deadline=None)
@given(_families)
def test_minimal_matches_antichain_oracle(family):
    got = _minimal(family)
    assert len(got) == len(set(got))
    assert set(got) == oracle_minimal(family)


# --- references: the search and the validation before the factored rewrite ------
# The search kept each node's family as a plain list of full masks and sorted
# every merged family by popcount; validation took the order from graphlib's
# static_order. Both pin what must not change: each node's candidate count
# (so which PathExplosionError fires, word for word), the minimal sets, and
# every validation error, the cycle named included.

def reference_minimal(masks):
    ordered = sorted(masks, key=int.bit_count)
    if not ordered or ordered[0].bit_count() == ordered[-1].bit_count():
        return ordered
    smaller, level, size = [], [], ordered[0].bit_count()
    for m in ordered:
        if m.bit_count() != size:
            smaller += level
            level = []
            size = m.bit_count()
        if not any(not k & ~m for k in smaller):
            level.append(m)
    return smaller + level


def reference_minimal_masks(graph, goal, cap):
    ids = sorted(graph.nodes)
    bit = {nid: 1 << i for i, nid in enumerate(ids)}
    families = {}
    stack = [goal]
    while stack:
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
        if kind is C or not preds:
            families[nid] = [own]
        elif kind is P:
            candidates = {m | own for p in preds for m in families[p]}
            if len(candidates) > cap:
                raise _explosion(nid, cap)
            families[nid] = reference_minimal(candidates)
        else:
            combos = families[preds[0]]
            for p in preds[1:]:
                candidates = set()
                for c in combos:
                    candidates.update(map(c.__or__, families[p]))
                    if len(candidates) > cap:
                        raise _explosion(nid, cap)
                combos = reference_minimal(candidates)
            families[nid] = [c | own for c in combos]
    return ids, families[goal]


def _explosion(node_id, cap):
    return PathExplosionError(
        f"more than {cap} candidate paths while expanding {node_id!r}; "
        "raise the cap to enumerate anyway"
    )


def reference_validation_errors(nodes, edges, targets=()):
    edge_list = list(dict.fromkeys(tuple(e) for e in edges))
    errors, by_id = [], {}
    for node in nodes:
        if node.id in by_id:
            errors.append(f"duplicate node id {node.id!r}")
        by_id[node.id] = node
    preds, sources = {nid: [] for nid in by_id}, set()
    for src, dst in edge_list:
        if src not in by_id:
            errors.append(f"edge ({src!r} -> {dst!r}): unknown source node")
        elif dst not in by_id:
            errors.append(f"edge ({src!r} -> {dst!r}): unknown destination node")
        else:
            preds[dst].append(src)
            sources.add(src)
    for nid in set(targets) - by_id.keys():
        errors.append(f"target {nid!r} is not a node in the graph")
    for nid, node in by_id.items():
        if node.kind is C and preds[nid]:
            errors.append(f"configuration node {nid!r} has a predecessor")
        if node.kind is F and nid in sources:
            errors.append(f"final-step node {nid!r} has a successor")
        if node.kind in (S, P) and not preds[nid]:
            errors.append(f"{node.kind.value} node {nid!r} has no predecessor")
    sorted_preds = {nid: tuple(sorted(preds[nid])) for nid in sorted(preds)}
    try:
        order = tuple(TopologicalSorter(sorted_preds).static_order())
    except CycleError as exc:
        errors.append("cycle detected: " + " -> ".join(exc.args[1]))
    else:
        reached = set()
        for nid in order:
            if by_id[nid].kind is C or not reached.isdisjoint(sorted_preds[nid]):
                reached.add(nid)
        for nid, node in by_id.items():
            if node.kind is F and nid not in reached:
                errors.append(f"final-step node {nid!r} is unreachable from any configuration node")
    return errors


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_search_matches_reference_at_every_cap(seed, data):
    g = random_typed_dag(np.random.default_rng(seed))
    goal = data.draw(st.sampled_from(sorted(g.nodes)))
    for cap in range(1, 13):
        assert_matches_reference(g, goal, cap)


def reference_linearize(graph, path):
    """The nodes of `path` in topological order, the smallest ready id first."""
    order, left = [], set(path)
    while left:
        nid = min(x for x in left if left.isdisjoint(graph.preds[x]))
        order.append(nid)
        left.remove(nid)
    return tuple(order)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_search_matches_reference_on_relabelled_dags(seed, data):
    """With ids out of topological order, the search meets nodes it has
    already pushed, and each path picks among ready nodes out of id order."""
    g = random_typed_dag(np.random.default_rng(seed), relabel=True)
    goal = data.draw(st.sampled_from(sorted(g.nodes)))
    for cap in range(1, 13):
        assert_matches_reference(g, goal, cap)
    paths = enumerate_paths(g, goal)
    assert {frozenset(p) for p in paths} == oracle_minimal_sets(g, goal)
    assert paths == sorted(reference_linearize(g, p) for p in paths)


def test_node_pushed_twice_is_searched_once():
    # g's sorted predecessors are (a, p), and p is also a's predecessor, so p
    # is pushed for g, then again for a on top of it
    g = graph_of(
        [n("c1", C), n("c2", C), n("p", P), n("a", S), n("g", F)],
        [("c1", "p"), ("c2", "p"), ("p", "a"), ("a", "g"), ("p", "g")],
    )
    assert enumerate_paths(g, "g") == [("c1", "p", "a", "g"), ("c2", "p", "a", "g")]
    for cap in range(1, 4):
        assert_matches_reference(g, "g", cap)


def test_and_node_passes_the_cap_partway_through_its_predecessors():
    # s is an AND over three privileges of two minimal sets each: 2, 4 and
    # then 8 candidates, so a cap of 3 is passed at the second predecessor
    # and a cap of 7 at the third
    nodes, edges = [n("s", S)], []
    for k in range(3):
        nodes += [n(f"c{k}a", C), n(f"c{k}b", C), n(f"p{k}", P)]
        edges += [(f"c{k}a", f"p{k}"), (f"c{k}b", f"p{k}"), (f"p{k}", "s")]
    g = graph_of(nodes, edges)
    for cap in (3, 7):
        with pytest.raises(PathExplosionError, match=f"more than {cap} candidate paths while "
                           "expanding 's'"):
            enumerate_paths(g, "s", cap)
    for cap in range(1, 10):
        assert assert_matches_reference(g, "s", cap) == (cap >= 8)
    assert len(enumerate_paths(g, "s", 8)) == 8


def test_or_node_over_mixed_size_families_still_absorbs():
    # Minimal sets at p1: {c1}, {c2, s2}; at p2: {c2}, {c1, p1}. Neither
    # family has one popcount, so g must still absorb: p2's {c1, p1, p2, g}
    # holds p1's {c1, p1, g}.
    g = graph_of(
        [n("c1", C), n("c2", C), n("s2", S), n("p1", P), n("p2", P), n("g", P)],
        [("c2", "s2"), ("c1", "p1"), ("s2", "p1"), ("p1", "p2"), ("c2", "p2"),
         ("p1", "g"), ("p2", "g")],
    )
    assert enumerate_paths(g, "g") == [
        ("c1", "p1", "g"), ("c2", "p2", "g"), ("c2", "s2", "p1", "g"),
    ]
    assert {frozenset(p) for p in enumerate_paths(g, "g")} == oracle_minimal_sets(g, "g")


# --- OR nodes over disjoint branches ------------------------------------------
# An OR node whose predecessors' families share one popcount keeps them as an
# unexpanded union; these graphs take that path at every privilege, and the
# variants below break it so that the set path runs instead.

def layered_doc(layers, width):
    """The graph section of a layered scenario, laid out as the benchmark's
    graph workloads are: layer k (from 1) has `width` attack steps, each an AND
    over the previous privilege (the foothold for k = 1), OR'd into privilege
    k, and a final step needs the last privilege. width**layers minimal sets
    and layers * (width + 1) + 2 nodes."""
    nodes = [{"id": "cfg-entry", "kind": "configuration"}]
    edges, prev = [], "cfg-entry"
    for layer in range(1, layers + 1):
        priv = f"priv-{layer}"
        for s in range(width):
            step = f"step-{layer}-{s}"
            nodes.append({"id": step, "kind": "attack_step"})
            edges += [[prev, step], [step, priv]]
        nodes.append({"id": priv, "kind": "privilege"})
        prev = priv
    goal = f"goal-L{layers}"
    nodes.append({"id": goal, "kind": "final_step"})
    edges.append([prev, goal])
    return {"nodes": nodes, "edges": edges, "targets": [goal]}


def layered(layers, width, extra_nodes=(), extra_edges=()):
    doc = layered_doc(layers, width)
    nodes = [n(x["id"], NodeKind(x["kind"])) for x in doc["nodes"]] + list(extra_nodes)
    edges = [tuple(e) for e in doc["edges"]] + list(extra_edges)
    return graph_of(nodes, edges, doc["targets"])


def assert_matches_reference(g, goal, cap):
    """enumerate_paths and subgraph_to_goal give the reference search's sets
    and union, or its exact PathExplosionError text; True if no error."""
    try:
        ids, masks = reference_minimal_masks(g, goal, cap)
    except PathExplosionError as exc:
        for search in (enumerate_paths, subgraph_to_goal):
            with pytest.raises(PathExplosionError) as got:
                search(g, goal, cap)
            assert str(got.value) == str(exc)
        return False
    sets = {frozenset(ids[i] for i in range(len(ids)) if m >> i & 1) for m in masks}
    paths = enumerate_paths(g, goal, cap)
    assert len(paths) == len(masks)
    assert {frozenset(p) for p in paths} == sets
    assert set(subgraph_to_goal(g, goal, cap).nodes) == set().union(*sets)
    return True


@pytest.mark.parametrize("layers", range(1, 6))
@pytest.mark.parametrize("width", range(1, 5))
def test_layered_unions_match_reference_at_the_cap_edge(layers, width):
    g = layered(layers, width)
    goal = f"goal-L{layers}"
    assert assert_matches_reference(g, goal, width**layers)
    assert len(enumerate_paths(g, goal, width**layers)) == width**layers
    assert not assert_matches_reference(g, goal, width**layers - 1)


@pytest.mark.parametrize("layers", range(2, 6))
@pytest.mark.parametrize("width", range(2, 5))
def test_layered_variants_that_break_disjointness_match_reference(layers, width):
    goal, mid = f"goal-L{layers}", layers // 2 + 1
    variants = [
        # a second predecessor shared by two steps of one layer: their sets
        # grow by one, so that layer's privilege mixes popcounts (not at
        # width 2, where both steps share it and the branches stay disjoint)
        layered(layers, width, [n("cfg-shared", C)],
                [("cfg-shared", f"step-{mid}-0"), ("cfg-shared", f"step-{mid}-1")]),
        # one OR branch an ancestor of another: priv-(mid-1) also reaches
        # priv-mid directly, and its smaller sets absorb every step branch
        layered(layers, width, [], [(f"priv-{mid - 1}", f"priv-{mid}")]),
        # both at once, a layer apart: priv-(mid-1) mixes popcounts, and
        # priv-mid, whose branches then share no one size, must still absorb
        layered(layers, width, [n("cfg-shared", C)],
                [("cfg-shared", f"step-{mid - 1}-0"), (f"priv-{mid - 1}", f"priv-{mid}")]),
    ]
    # every small cap, and each side of the broken privilege's candidate count
    # and of the goal's
    counts = (width ** (mid - 1) * (width + 1), width**layers)
    caps = {*range(1, 13), *(c + d for c in counts for d in (-1, 0, 1))}
    for g in variants:
        for cap in sorted(caps):
            assert_matches_reference(g, goal, cap)


def test_twelve_layer_family_is_capped_or_read_without_expansion():
    g = layered(12, 3)
    assert len(g.nodes) == 50
    # 3**9 = 19683 candidates at the ninth privilege, 3**8 = 6561 at the eighth
    message = ("more than 10000 candidate paths while expanding 'priv-9'; "
               "raise the cap to enumerate anyway")
    for search in (enumerate_paths, subgraph_to_goal):
        with pytest.raises(PathExplosionError) as got:
            search(g, "goal-L12")
        assert str(got.value) == message
    # 3**12 = 531441 minimal sets, none of them built
    assert set(subgraph_to_goal(g, "goal-L12", cap=10**6).nodes) == set(g.nodes)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_back_edge_errors_match_graphlib_reference(seed, data):
    g = random_typed_dag(np.random.default_rng(seed))
    # an edge from a node back to one of its ancestors, or to itself, closes a cycle
    tail = head = data.draw(st.sampled_from(sorted(nid for nid in g.nodes if g.preds[nid])))
    for _ in range(data.draw(st.integers(0, 4))):
        if not g.preds[head]:
            break
        head = data.draw(st.sampled_from(g.preds[head]))
    nodes = data.draw(st.permutations(list(g.nodes.values())))
    edges = data.draw(st.permutations(edges_of(g) + [(tail, head)]))
    errors = graph_errors(nodes, edges)
    assert errors == [f"$.graph: {e}" for e in reference_validation_errors(nodes, edges)]
    assert any(e.startswith("$.graph: cycle detected: ") for e in errors)


# --- the scenario parser's graph against the graphlib reference ---------------
# The parser states every graph rule itself; on every document it must end
# where the reference validation does.

GRAPH_MUTANTS = ("none", "cycle", "configuration-pred", "final-succ", "unreachable-final")


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(GRAPH_MUTANTS), st.data())
def test_parsed_graph_matches_graphlib_reference(seed, mutant, data):
    g = random_typed_dag(np.random.default_rng(seed))
    nodes, edges = list(g.nodes.values()), edges_of(g)
    steps = sorted(nid for nid, x in g.nodes.items() if x.kind is not F)
    if mutant == "cycle":  # back to an ancestor, or to itself
        tail = head = data.draw(st.sampled_from(sorted(nid for nid in g.nodes if g.preds[nid])))
        while g.preds[head] and data.draw(st.booleans()):
            head = data.draw(st.sampled_from(g.preds[head]))
        edges.append((tail, head))
    elif mutant == "configuration-pred":
        nodes.append(n("x-late", C))
        edges.append((data.draw(st.sampled_from(steps)), "x-late"))
    elif mutant == "final-succ":
        nodes += [n("x-final", F), n("x-after", S)]
        edges += [(data.draw(st.sampled_from(steps)), "x-final"), ("x-final", "x-after")]
    elif mutant == "unreachable-final":
        nodes.append(n("x-alone", F))
    nodes = data.draw(st.permutations(nodes))
    edges = data.draw(st.permutations(edges))
    targets = data.draw(st.lists(st.sampled_from(sorted(x.id for x in nodes)), unique=True))
    text = graph_document(nodes, edges, targets)
    errors = reference_validation_errors(nodes, edges, targets)
    assert bool(errors) == (mutant != "none")
    if not errors:
        got = parse_scenario(text, strict=True).graph
        assert list(got.nodes.items()) == [(x.id, x) for x in nodes]
        assert got.targets == frozenset(targets)
        preds = {nid: tuple(sorted(s for s, d in edges if d == nid)) for nid in sorted(got.nodes)}
        assert list(got.preds.items()) == list(preds.items())
        return
    with pytest.raises(ScenarioError) as got:
        parse_scenario(text, strict=True)
    assert got.value.errors == [f"$.graph: {e}" for e in errors]


# --- the parser's whole-graph rules against the function they replaced ----------
# The whole-graph checks once lived in `graph._assemble`, which the parser
# called on its checked nodes, edges and targets and whose errors it reported
# under `$.graph`. Its body is kept here as the reference: the parser must give
# the same errors in the same order, after its located ones, and otherwise the
# same graph.

def reference_assemble(by_id, edges, targets):
    """The whole-graph errors of checked input, or the graph's (nodes,
    targets, preds)."""
    errors = []
    preds = {nid: [] for nid in sorted(by_id)}
    succs = {nid: [] for nid in preds}
    for src, dst in edges:
        preds[dst].append(src)
        succs[src].append(dst)

    configuration, final_step = NodeKind.CONFIGURATION, NodeKind.FINAL_STEP
    finals = []
    for nid, node in by_id.items():
        kind = node.kind
        if kind is configuration:
            if preds[nid]:
                errors.append(f"configuration node {nid!r} has a predecessor")
        elif kind is final_step:
            finals.append(nid)
            if succs[nid]:
                errors.append(f"final-step node {nid!r} has a successor")
        elif not preds[nid]:
            errors.append(f"{kind.value} node {nid!r} has no predecessor")

    sorted_preds = {nid: tuple(sorted(ps)) for nid, ps in preds.items()}
    indegree = {nid: len(ps) for nid, ps in preds.items()}
    order = [nid for nid, d in indegree.items() if not d]
    for nid in order:
        for s in succs[nid]:
            indegree[s] -= 1
            if not indegree[s]:
                order.append(s)
    if len(order) < len(preds):
        try:
            TopologicalSorter(sorted_preds).prepare()
        except CycleError as exc:
            errors.append("cycle detected: " + " -> ".join(exc.args[1]))
    else:
        reached = set()
        for nid in order:
            if by_id[nid].kind is configuration or not reached.isdisjoint(preds[nid]):
                reached.add(nid)
        for nid in finals:
            if nid not in reached:
                errors.append(f"final-step node {nid!r} is unreachable from any configuration node")

    if errors:
        return errors
    return by_id, frozenset(targets), sorted_preds


KIND_NAMES = [k.value for k in NodeKind]


@st.composite
def graph_sections(draw):
    """(nodes, edges, targets) of a graph section, as JSON values. Each node
    is drawn with up to three predecessors among the nodes before it. A
    "typed" draw is a valid graph: the first node is a configuration, every
    other node but a configuration has a predecessor, and a final step is
    none. Otherwise any kind may have any earlier node as a predecessor, or
    none. Extra edges between any two names then close self-loops and
    cycles, give a configuration a predecessor or a final step a successor,
    and may name a node that is not declared, as may a target; edges and
    targets may repeat, and a node's kind may be mistyped."""
    ids = [f"n{i}" for i in range(draw(st.integers(1, 7)))]
    typed = draw(st.booleans())
    kinds, edges = [], []
    for i, nid in enumerate(ids):
        if typed:
            kind = draw(st.sampled_from(KIND_NAMES)) if i else "configuration"
            pool = [p for p, k in zip(ids, kinds) if k != "final_step"]
            low = 0 if kind == "configuration" else 1
            preds = draw(st.sets(st.sampled_from(pool), min_size=low, max_size=3 * low)) if i else ()
        else:
            kind = draw(st.sampled_from(KIND_NAMES))
            preds = draw(st.sets(st.sampled_from(ids[:i]), max_size=3)) if i else ()
        edges += [[p, nid] for p in preds]
        kinds.append(kind)
    if draw(st.sampled_from([False] * 9 + [True])):
        kinds[draw(st.integers(0, len(ids) - 1))] = "config"
    name = st.sampled_from(ids + ["ghost"])
    edges += draw(st.lists(st.tuples(name, name).map(list), max_size=3))
    edges += draw(st.lists(st.sampled_from(edges), max_size=2)) if edges else []
    targets = draw(st.lists(name, max_size=3))
    nodes = [{"id": nid, "kind": kind} for nid, kind in zip(ids, kinds)]
    return draw(st.permutations(nodes)), draw(st.permutations(edges)), targets


def located_and_checked(nodes, edges, targets):
    """The located graph errors a section draws (its index paths), and the
    checked input the parser goes on with: the nodes by id, the distinct
    edges between nodes of known kinds and the distinct known targets; None
    for the input when a node's kind is unknown."""
    located, by_id, seen, checked = [], {}, set(), []
    declared = {x["id"] for x in nodes}
    for i, x in enumerate(nodes):
        if x["kind"] in KIND_NAMES:
            by_id[x["id"]] = AttackNode(x["id"], NodeKind(x["kind"]))
        else:
            located.append(f"$.graph.nodes[{i}].kind: unknown node kind {x['kind']!r}; "
                           f"use one of {', '.join(KIND_NAMES)}")
    for i, (src, dst) in enumerate(edges):
        if (src, dst) in seen:
            continue
        seen.add((src, dst))
        if src not in declared:
            located.append(f"$.graph.edges[{i}]: edge ({src!r} -> {dst!r}): unknown source node")
        elif dst not in declared:
            located.append(f"$.graph.edges[{i}]: edge ({src!r} -> {dst!r}): unknown destination node")
        elif src in by_id and dst in by_id:
            checked.append((src, dst))
    for i, t in enumerate(targets):
        if t not in declared and t not in targets[:i]:
            located.append(f"$.graph.targets[{i}]: target {t!r} is not a node in the graph")
    if len(by_id) < len(nodes):
        return located, None
    return located, (by_id, checked, set(targets) & by_id.keys())


@settings(max_examples=400, deadline=None)
@given(graph_sections())
def test_parser_states_the_graph_rules_of_the_assemble_reference(section):
    nodes, edges, targets = section
    text = json.dumps({"schema_version": "1",
                       "graph": {"nodes": nodes, "edges": edges, "targets": targets}})
    located, checked = located_and_checked(nodes, edges, targets)
    reference = [] if checked is None else reference_assemble(*checked)
    errors = reference if isinstance(reference, list) else []
    if located or errors:
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        assert exc.value.errors == located + [f"$.graph: {m}" for m in errors]
        return
    got = parse_scenario(text).graph
    by_id, got_targets, preds = reference
    assert list(got.nodes.items()) == list(by_id.items())
    assert got.targets == got_targets
    assert list(got.preds.items()) == list(preds.items())


# --- DOT export ---------------------------------------------------------------
# Minimal strict DOT reader, independent of the writer.

_DOT_NODE = re.compile(r'^  "((?:[^"\\]|\\.)*)" \[([^\]]*)\];$')
_DOT_EDGE = re.compile(r'^  "((?:[^"\\]|\\.)*)" -> "((?:[^"\\]|\\.)*)";$')


def parse_dot(text):
    lines = text.strip().split("\n")
    assert lines[0].startswith("digraph ") and lines[0].endswith("{")
    assert lines[-1] == "}"
    nodes, edges = {}, []
    for line in lines[1:-1]:
        m = _DOT_NODE.match(line)
        if m:
            attrs = dict(part.strip().split("=", 1) for part in m.group(2).split(","))
            nodes[m.group(1)] = attrs
            continue
        m = _DOT_EDGE.match(line)
        assert m, f"unparseable DOT line: {line!r}"
        edges.append((m.group(1), m.group(2)))
    return nodes, edges


def test_export_dot_empty_graph():
    g = graph_of([], [], [])
    text = export_dot(g)
    nodes, edges = parse_dot(text)
    assert nodes == {} and edges == []


def test_export_dot_privilege_is_diamond():
    g = graph_of([n("c", C), n("s", S), n("pv", P)], [("c", "s"), ("s", "pv")])
    nodes, _ = parse_dot(export_dot(g))
    assert nodes["pv"]["shape"] == "diamond"
    assert nodes["c"]["shape"] == "circle"
    assert nodes["s"]["shape"] == "circle"


def test_export_dot_six_cve_roundtrip():
    cves = ["CVE-2019-15083", "CVE-2013-0375", "CVE-2019-16026",
            "CVE-2004-0415", "CVE-2002-0392", "CVE-2004-0417"]
    nodes = [n("entry", C)]
    edges = []
    prev = "entry"
    for i, cve in enumerate(cves):
        nodes += [n(f"x{i}", S, cve=cve), n(f"f-{cve}", F, cve=cve, label=cve)]
        edges += [(prev, f"x{i}"), (f"x{i}", f"f-{cve}")]
        if i < len(cves) - 1:
            nodes.append(n(f"pv{i}", P))
            edges.append((f"x{i}", f"pv{i}"))
            prev = f"pv{i}"
    g = graph_of(nodes, edges, targets=[f"f-{cves[-1]}"])
    parsed_nodes, parsed_edges = parse_dot(export_dot(g))
    assert set(parsed_nodes) == set(g.nodes)
    assert sorted(parsed_edges) == edges_of(g)
    boxes = [nid for nid, a in parsed_nodes.items() if a["shape"] == "box"]
    assert len(boxes) == 6
    # labels carried through for the final exploits
    assert all(parsed_nodes[f"f-{cve}"]["label"] == f'"{cve}"' for cve in cves)


def test_subgraph_to_goal_restricts_nodes():
    g = graph_of(
        [n("c1", C), n("c2", C), n("s1", S), n("s2", S), n("pv", P), n("fin", F)],
        [("c1", "s1"), ("c2", "s2"), ("s1", "pv"), ("s2", "pv"), ("s1", "fin")],
    )
    sub = subgraph_to_goal(g, "fin")
    assert set(sub.nodes) == {"c1", "s1", "fin"}
    expected = {nid for p in enumerate_paths(g, "fin") for nid in p}
    assert set(sub.nodes) == expected
