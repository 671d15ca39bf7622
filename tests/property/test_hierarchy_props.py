"""Property tests for hierarchy algorithms, cross-checked against
networkx where a reference implementation exists."""

from collections import Counter

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hierarchy import algorithms as alg
from tests.property.strategies import hierarchies


def to_nx(hierarchy):
    graph = nx.DiGraph()
    graph.add_nodes_from(hierarchy.nodes())
    graph.add_edges_from(hierarchy.edges())
    return graph


@given(hierarchies())
@settings(max_examples=60, deadline=None)
def test_topological_order_is_valid(h):
    order = h.topological_order()
    position = {n: i for i, n in enumerate(order)}
    for parent, child in h.edges():
        assert position[parent] < position[child]
    assert sorted(order) == sorted(h.nodes())


@given(hierarchies())
@settings(max_examples=60, deadline=None)
def test_subsumption_matches_nx_reachability(h):
    graph = to_nx(h)
    for a in h.nodes():
        for b in h.nodes():
            assert h.subsumes(a, b) == nx.has_path(graph, a, b)


@given(hierarchies())
@settings(max_examples=60, deadline=None)
def test_generated_hierarchies_are_reduced(h):
    graph = to_nx(h)
    reduced = nx.transitive_reduction(graph)
    assert set(reduced.edges()) == set(graph.edges())
    assert h.is_transitively_reduced()


@given(hierarchies())
@settings(max_examples=60, deadline=None)
def test_meets_are_maximal_common_descendants(h):
    graph = to_nx(h)
    for a in h.nodes():
        for b in h.nodes():
            common = {
                n
                for n in h.nodes()
                if nx.has_path(graph, a, n) and nx.has_path(graph, b, n)
            }
            maximal = {
                n
                for n in common
                if not any(
                    m != n and m in common and nx.has_path(graph, m, n)
                    for m in common
                )
            }
            assert set(h.maximal_common_descendants(a, b)) == maximal


@given(hierarchies())
@settings(max_examples=60, deadline=None)
def test_ancestors_and_descendants_are_inverse(h):
    for a in h.nodes():
        for b in h.nodes():
            assert (a in h.descendants(b)) == (b in h.ancestors(a))


@given(hierarchies(), st.data())
@settings(max_examples=60, deadline=None)
def test_node_elimination_preserves_reachability(h, data):
    victim = data.draw(
        st.sampled_from([n for n in h.nodes() if n != h.root]), label="victim"
    )
    graph_before = to_nx(h)
    adjacency = h.class_graph()
    alg.eliminate_node(adjacency, victim)
    graph_after = nx.DiGraph()
    graph_after.add_nodes_from(adjacency)
    for node, succs in adjacency.items():
        graph_after.add_edges_from((node, s) for s in succs)
    for a in adjacency:
        for b in adjacency:
            assert nx.has_path(graph_before, a, b) == nx.has_path(graph_after, a, b)


@given(hierarchies(), st.data())
@settings(max_examples=60, deadline=None)
def test_node_elimination_stays_reduced(h, data):
    victim = data.draw(
        st.sampled_from([n for n in h.nodes() if n != h.root]), label="victim"
    )
    adjacency = h.class_graph()
    alg.eliminate_node(adjacency, victim)
    assert alg.redundant_edges(adjacency) == set()


@given(hierarchies())
@settings(max_examples=40, deadline=None)
def test_leaves_under_matches_brute_force(h):
    graph = to_nx(h)
    for node in h.nodes():
        brute = {
            n
            for n in h.nodes()
            if nx.has_path(graph, node, n) and not h.children(n)
        }
        assert set(h.leaves_under(node)) == brute


# ----------------------------------------------------------------------
# meet-closure: the restricted sweep against the unrestricted definition
# ----------------------------------------------------------------------


def brute_force_meet_closure(h, values):
    """The oracle: close ``values`` under pairwise meets by probing every
    pair until nothing new turns up — no sweep, no pruning."""
    pool = set(values)
    while True:
        found = {
            node
            for a in pool
            for b in pool
            for node in h.maximal_common_descendants(a, b)
        }
        if found <= pool:
            return pool
        pool |= found


def subsets(h, data, label):
    return data.draw(
        st.lists(st.sampled_from(h.nodes()), unique=True, max_size=len(h)),
        label=label,
    )


@given(hierarchies(max_nodes=10), st.data())
@settings(max_examples=150, deadline=None)
def test_meet_closed_values_matches_brute_force_on_dags(h, data):
    values = subsets(h, data, "values")
    stats = Counter()
    closed = h.meet_closed_values(values, stats)
    assert closed == brute_force_meet_closure(h, values)
    # Only meet-capable values are ever swept; the rest are closed as given.
    assert stats["probed"] <= len(closed & h.meet_capable())


@given(hierarchies(max_nodes=10, max_parents=1), st.data())
@settings(max_examples=60, deadline=None)
def test_meet_closed_values_is_the_identity_on_trees(h, data):
    values = subsets(h, data, "values")
    stats = Counter()
    assert h.meet_capable() == frozenset()
    assert h.meet_closed_values(values, stats) == set(values)
    assert h.meet_closed_values(values) == brute_force_meet_closure(h, values)
    assert stats == {}  # nothing probed, the hierarchy never walked


@given(hierarchies(max_nodes=10))
@settings(max_examples=60, deadline=None)
def test_meet_capable_is_the_cone_above_multi_parent_nodes(h):
    graph = to_nx(h)
    joins = [n for n in h.nodes() if len(h.parents(n)) > 1]
    brute = {
        n for n in h.nodes() if any(nx.has_path(graph, n, join) for join in joins)
    }
    assert h.meet_capable() == brute
    # ... and the argument it rests on: a meet that is neither of its
    # arguments has two parents and lies below both.
    for a in h.nodes():
        for b in h.nodes():
            for m in h.maximal_common_descendants(a, b):
                if m not in (a, b):
                    assert len(h.parents(m)) > 1
                    assert {a, b} <= h.meet_capable()


@given(hierarchies(max_nodes=10), st.data())
@settings(max_examples=60, deadline=None)
def test_ancestor_union_is_downward_union_at_the_asked_nodes(h, data):
    seeded = subsets(h, data, "seeded")
    asked = subsets(h, data, "asked")
    seed = {node: 1 << i for i, node in enumerate(seeded)}
    full = h.downward_union(seed)
    partial = h.ancestor_union(seed, asked)
    assert set(asked) <= set(partial)
    assert all(partial[node] == full[node] for node in partial)
