import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzrank.graph import (
    AttackGraph,
    AttackNode,
    GraphValidationError,
    NodeKind,
    PathExplosionError,
    PREDEFINED_SCHEMES,
    UnknownNodeError,
    _minimal,
    build_graph,
    enumerate_paths,
    export_dot,
    subgraph_to_goal,
)

C = NodeKind.CONFIGURATION
S = NodeKind.ATTACK_STEP
P = NodeKind.PRIVILEGE
F = NodeKind.FINAL_STEP


def n(nid, kind, **kw):
    return AttackNode(nid, kind, **kw)


def chain_graph():
    return build_graph(
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
            preds = graph.predecessors(nid)
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


def random_typed_dag(rng):
    total = int(rng.integers(3, 13))
    n_cfg = int(rng.integers(1, max(2, total // 3) + 1))
    nodes, edges = [], []
    pred_pool = []  # ids usable as predecessors (everything but final steps)
    for i in range(total):
        nid = f"n{i:02d}"
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
    return build_graph(nodes, edges)


# --- build/validate ----------------------------------------------------------

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
    g = build_graph(nodes, edges, targets=["final-CVE-2004-0417"])
    assert len(g) == 19
    assert "final-CVE-2004-0417" in g.targets
    assert sum(1 for x in g.nodes.values() if x.kind is F) == 6


def test_build_trivial_single_configuration():
    g = build_graph([n("only", C)], [], [])
    assert len(g) == 1
    assert g.predecessors("only") == ()


def test_final_step_with_successor_rejected():
    with pytest.raises(GraphValidationError, match="final-step node 'fin' has a successor"):
        build_graph(
            [n("cfg", C), n("fin", F), n("later", S)],
            [("cfg", "fin"), ("fin", "later")],
        )


def test_configuration_with_predecessor_rejected():
    with pytest.raises(GraphValidationError, match="configuration node 'cfg2' has a predecessor"):
        build_graph(
            [n("cfg", C), n("step", S), n("cfg2", C)],
            [("cfg", "step"), ("step", "cfg2")],
        )


def test_cycle_is_named():
    err = None
    try:
        build_graph(
            [n("cfg", C), n("a", S), n("b", P), n("d", S)],
            [("cfg", "a"), ("a", "b"), ("b", "d"), ("d", "b")],
        )
    except GraphValidationError as e:
        err = e
    assert err is not None
    assert any("cycle detected" in m and "b" in m and "d" in m for m in err.errors)


def test_dangling_edge_and_duplicate_and_bad_target():
    with pytest.raises(GraphValidationError) as exc:
        build_graph(
            [n("cfg", C), n("cfg", C)],
            [("cfg", "ghost")],
            targets=["nowhere"],
        )
    msgs = "\n".join(exc.value.errors)
    assert "duplicate node id 'cfg'" in msgs
    assert "unknown destination node" in msgs
    assert "target 'nowhere'" in msgs


def test_unreachable_final_step_rejected():
    with pytest.raises(GraphValidationError, match="unreachable from any configuration"):
        build_graph([n("fin", F)], [], [])


def test_attack_step_without_predecessor_rejected():
    with pytest.raises(GraphValidationError, match="attack_step node 'step' has no predecessor"):
        build_graph([n("cfg", C), n("step", S)], [])


def test_predefined_schemes():
    assert set(PREDEFINED_SCHEMES) == {"I", "S", "P"}
    assert "backhaul" in PREDEFINED_SCHEMES["I"].description


# --- enumerate_paths ---------------------------------------------------------

def and_or_graph():
    return build_graph(
        [n("p1", C), n("p2", C), n("and", S), n("or", P), n("fin", F)],
        [("p1", "and"), ("p2", "and"), ("p1", "or"), ("p2", "or"), ("and", "fin")],
    )


def test_linear_chain_single_path():
    g = chain_graph()
    assert enumerate_paths(g, "fin") == [("cfg", "step", "fin")]


def test_or_branching_two_paths():
    g = build_graph(
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
    g = build_graph([n("c1", C), n("c2", C)], [], [])
    assert enumerate_paths(g, "c2") == [("c2",)]
    # a goal that genuinely cannot be satisfied does not exist in a validated
    # graph, so "unreachable" here means: no path from *other* configurations
    with pytest.raises(UnknownNodeError):
        enumerate_paths(g, "missing")


def test_paths_deterministic_under_insertion_order():
    nodes = [n("c1", C), n("c2", C), n("s1", S), n("s2", S), n("priv", P)]
    edges = [("c1", "s1"), ("c2", "s2"), ("s1", "priv"), ("s2", "priv")]
    g1 = build_graph(nodes, edges)
    g2 = build_graph(list(reversed(nodes)), list(reversed(edges)))
    assert enumerate_paths(g1, "priv") == enumerate_paths(g2, "priv")


def test_paths_follow_each_sets_own_topological_order():
    # In the whole graph u also waits for the step w, so the whole graph's
    # smallest-id-first order puts v before u. In the set {a, u, v, goal}
    # both are ready once a is placed, so u (the smaller id) comes first.
    g = build_graph(
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
    g = build_graph(nodes, edges)
    with pytest.raises(PathExplosionError, match="more than 3"):
        enumerate_paths(g, "priv", cap=3)
    assert len(enumerate_paths(g, "priv")) == 8


def test_cap_bounds_absorbed_families():
    # Each privilege is reached from c directly or through a step that itself
    # needs c; absorption drops the second way. Joining the unabsorbed
    # families at the AND node "fin" would give 2 x 2 = 4 candidates.
    g = build_graph(
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
    return build_graph(nodes, edges, ["goal"])


def test_layered_l8w3_within_default_cap():
    g = layered_graph(8, 3)
    assert len(g) == 34
    assert len(enumerate_paths(g, "goal")) == 3**8
    assert set(subgraph_to_goal(g, "goal").nodes) == set(g.nodes)


def test_chain_deeper_than_recursion_limit():
    depth = sys.getrecursionlimit() + 500
    ids = [f"n{i:05d}" for i in range(depth)]
    g = build_graph(
        [n(ids[0], C)] + [n(nid, S) for nid in ids[1:]],
        list(zip(ids, ids[1:])),
    )
    assert enumerate_paths(g, ids[-1]) == [tuple(ids)]
    assert len(subgraph_to_goal(g, ids[-1])) == depth


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_minimal_sets_and_subgraph_match_oracle(seed, data):
    g = random_typed_dag(np.random.default_rng(seed))
    goal = data.draw(st.sampled_from(sorted(g.nodes)))
    got = enumerate_paths(g, goal)
    assert len(got) == len(set(got))
    assert {frozenset(p) for p in got} == oracle_minimal_sets(g, goal)
    assert set(subgraph_to_goal(g, goal).nodes) == {nid for p in got for nid in p}


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
                preds = g.predecessors(nid)
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
    g = build_graph([], [], [])
    text = export_dot(g)
    nodes, edges = parse_dot(text)
    assert nodes == {} and edges == []


def test_export_dot_privilege_is_diamond():
    g = build_graph([n("c", C), n("s", S), n("pv", P)], [("c", "s"), ("s", "pv")])
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
    g = build_graph(nodes, edges, targets=[f"f-{cves[-1]}"])
    parsed_nodes, parsed_edges = parse_dot(export_dot(g))
    assert set(parsed_nodes) == set(g.nodes)
    assert set(parsed_edges) == set(g.edges)
    boxes = [nid for nid, a in parsed_nodes.items() if a["shape"] == "box"]
    assert len(boxes) == 6
    # labels carried through for the final exploits
    assert all(parsed_nodes[f"f-{cve}"]["label"] == f'"{cve}"' for cve in cves)


def test_subgraph_to_goal_restricts_nodes():
    g = build_graph(
        [n("c1", C), n("c2", C), n("s1", S), n("s2", S), n("pv", P), n("fin", F)],
        [("c1", "s1"), ("c2", "s2"), ("s1", "pv"), ("s2", "pv"), ("s1", "fin")],
    )
    sub = subgraph_to_goal(g, "fin")
    assert set(sub.nodes) == {"c1", "s1", "fin"}
    expected = {nid for p in enumerate_paths(g, "fin") for nid in p}
    assert set(sub.nodes) == expected
