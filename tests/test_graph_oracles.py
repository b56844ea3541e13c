"""The shared spread, the vertex boundary, the cycle search and the
threshold peel against networkx, on hypothesis-generated graphs. networkx
is not a dependency of the package, so this module is skipped where it is
not installed."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from randcol.colouring import colouring_number, t_core
from randcol.graphs import (
    DiGraph,
    Graph,
    connected_component,
    has_cycle_shorter_than,
    is_strongly_connected,
    reachable_set,
    vertex_boundary,
)
from randcol.percolation import thm4_process
from randcol.sampling import RngStream, sample_subgraph

from helpers import ids, pairs

nx = pytest.importorskip("networkx")


graphs = st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), pairs(n, False)))
digraphs = st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), pairs(n, True)))


def nx_graph(n, edges, directed=False):
    g = nx.DiGraph() if directed else nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


@settings(max_examples=80, deadline=None)
@given(graphs, st.data())
def test_connected_component(case, data):
    n, edges = case
    v = data.draw(st.integers(0, n - 1))
    want = nx.node_connected_component(nx_graph(n, edges), v)
    assert ids(connected_component(Graph(n, edges), v)) == want


@settings(max_examples=80, deadline=None)
@given(digraphs, st.data())
def test_reachability_and_strong_connectivity(case, data):
    n, arcs = case
    r = data.draw(st.integers(0, n - 1))
    h, ref = DiGraph(n, arcs), nx_graph(n, arcs, directed=True)
    assert ids(reachable_set(h, r)) == nx.descendants(ref, r) | {r}
    assert is_strongly_connected(h) == nx.is_strongly_connected(ref)


@settings(max_examples=80, deadline=None)
@given(st.booleans(), st.data())
def test_vertex_boundary(directed, data):
    n, edges = data.draw(digraphs if directed else graphs)
    s = data.draw(st.sets(st.integers(0, n - 1)))
    g = (DiGraph if directed else Graph)(n, edges)
    # networkx's boundary of a directed graph follows out-arcs too
    inside = np.isin(np.arange(n), list(s))
    assert ids(vertex_boundary(g, inside)) == nx.node_boundary(nx_graph(n, edges, directed), s)


@settings(max_examples=80, deadline=None)
@given(graphs, st.integers(-1, 15))
def test_girth_and_short_cycle_test(case, length):
    n, edges = case
    g = Graph(n, edges)
    want = nx.girth(nx_graph(n, edges))  # inf for a forest
    assert has_cycle_shorter_than(g, length) == (want < length)
    if want < math.inf:
        assert not has_cycle_shorter_than(g, want) and has_cycle_shorter_than(g, want + 1)


def test_cycle_search_on_known_graphs():
    for forest in (Graph(4, [(0, 1), (1, 2), (2, 3)]), Graph(0, [])):
        assert not any(has_cycle_shorter_than(forest, length) for length in range(-1, 10))
    for ref in (nx.petersen_graph(), nx.heawood_graph(), nx.tutte_graph(),
                nx.hypercube_graph(4), nx.dodecahedral_graph()):
        ref = nx.convert_node_labels_to_integers(ref)
        g = Graph(ref.number_of_nodes(), ref.edges())
        assert not has_cycle_shorter_than(g, nx.girth(ref))
        assert has_cycle_shorter_than(g, nx.girth(ref) + 1)


@settings(max_examples=80, deadline=None)
@given(digraphs, st.data(), st.sampled_from([0.0, 0.2, 0.5, 1.0]))
def test_thm4_round_trace_is_bfs_layers(case, data, p):
    n, arcs = case
    r = data.draw(st.integers(0, n - 1))
    state = thm4_process(DiGraph(n, arcs), p, r, RngStream(n).child("oracle"))
    ref = nx_graph(n, arcs, directed=True)
    open_part = ref.subgraph({v for v in range(n) if not state.resilient_vertices[v]} | {r})
    layers = list(nx.bfs_layers(open_part, r))
    assert state.round_trace == tuple(len(layer) for layer in layers)
    assert set(state.infected.nonzero()[0].tolist()) == {v for layer in layers for v in layer}


def regular_half_sample(d, n, seed):
    """The half-sample of networkx's random d-regular graph on n vertices."""
    g = Graph(n, nx.random_regular_graph(d, n, seed=seed).edges())
    return n, sample_subgraph(g, 0.5, RngStream(seed)).edges.tolist()


@settings(max_examples=80, deadline=None)
@given(graphs)
@example(regular_half_sample(60, 2000, 0))
def test_t_core_and_colouring_number(case):
    n, edges = case
    g, ref = Graph(n, edges), nx_graph(n, edges)
    num = max(nx.core_number(ref).values()) + 1
    for t in {*range(6), num - 1, num}:
        assert ids(t_core(g, t)) == set(nx.k_core(ref, t))
    assert colouring_number(g) == num
