"""Subgraphs made by with_edges are views of their root parent when they
keep at least a quarter of its edges: they read their rows and arcs from
the parent's (a view of a regular parent gathers rows of the parent's
(n, d) table with its dropped arcs zeroed). The reference kept here is
the materialised subgraph, Graph(g.n, sub.edges), whose CSR is sorted
afresh by graphs._csr."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randcol.colouring import _neighbour_masks, colouring_number, t_core
from randcol.errors import InputError
from randcol.generators import blow_up
from randcol.graphs import Graph, _csr, connected_component, vertex_boundary
from randcol.percolation import bootstrap_percolate

from helpers import RefGraph, circulant, ids, pairs, ref_colouring_number, ref_t_core, regular_graphs


def parent_graph(data):
    """Random graphs (rarely regular), regular ones with d > 0 (circulants,
    random regular graphs and blow-ups), and edgeless ones, n = 0 among
    them (d = 0)."""
    # three draws in five are regular: circulants, random regular graphs
    # or edgeless graphs, a fifth each
    kind = data.draw(st.sampled_from(("random", "blow_up", "regular", "regular", "regular")))
    if kind == "random":
        n = data.draw(st.integers(0, 25))
        return Graph(n, data.draw(pairs(n)) if n else [])
    if kind == "blow_up":
        base = circulant(data.draw(st.integers(3, 7)), (1,))
        return blow_up(base, data.draw(st.integers(1, 3)))[0]
    return data.draw(regular_graphs(directed=False))


def edge_mask(data, m):
    """Empty, full or random masks over m edges."""
    kind = data.draw(st.sampled_from(("empty", "full", "random")))
    if kind == "random":
        return np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool)
    return np.full(m, kind == "full")


def vertex_mask(data, n):
    return np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)


def view_and_reference(data):
    g = parent_graph(data)
    sub = g.with_edges(edge_mask(data, g.m))
    return g, sub, Graph(g.n, sub.edges)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_view_csr_and_value_match_the_materialised_graph(data):
    g, sub, ref = view_and_reference(data)
    indptr, indices = sub._csr_arrays()
    want_indptr, want_indices = _csr(ref.n, *ref._arc_rows())
    assert np.array_equal(indptr, want_indptr) and np.array_equal(indices, want_indices)
    assert not indptr.flags.writeable and not indices.flags.writeable
    assert sub == ref and hash(sub) == hash(ref) and repr(sub) == repr(ref)
    assert sub.m == ref.m and np.array_equal(sub.edges, ref.edges)
    assert sub.degrees() == ref.degrees()
    assert sub.regular_degree() == ref.regular_degree()
    assert sub.adjacency() == ref.adjacency()
    assert _neighbour_masks(sub) == RefGraph(ref.n, ref.edges.tolist()).adj_masks()
    # a subgraph with a quarter of the edges or more is a view, and a view
    # of a regular parent reads the parent's table; any other its own CSR,
    # which is a table exactly when the subgraph is itself regular, d > 0
    view = 4 * sub.m >= g.m
    assert sub._parent is (g if view else None)
    table = sub._arc_view().table
    if view and g.regular_degree():
        assert table.shape == (g.n, g.regular_degree())
    else:
        assert (table is not None) == bool(ref.regular_degree())
        assert table is None or table.shape == (ref.n, ref.regular_degree())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_view_edge_count_is_the_count_of_its_root_mask(data):
    # a view keeps the count with_edges made for its quarter rule; it must
    # stay the kept edges of its mask over the root, for views of views too
    g = parent_graph(data)
    sub = g.with_edges(edge_mask(data, g.m))
    subsub = sub.with_edges(edge_mask(data, sub.m))
    # a materialised subgraph is the root of its own views
    for view, root in [(sub, g), (subsub, g if sub._parent is g else sub)]:
        if view._parent is not None:
            assert view._parent is root and view.m == np.count_nonzero(view._mask)
        assert view.m == Graph(view.n, view.edges).m == len(view.edges)


def test_a_regular_view_of_an_irregular_parent_reads_its_own_table():
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 3)])
    sub = g.with_edges(np.array([False, True, False, True]))
    assert sub._parent is g and g.regular_degree() is None and sub.regular_degree() == 1
    assert np.array_equal(sub._arc_view().table, [[3], [4], [1], [2]])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_view_peels_match_the_materialised_graph(data):
    _, sub, ref = view_and_reference(data)
    for t in range(ref.max_degree() + 3):
        assert np.array_equal(t_core(sub, t), t_core(ref, t))
    assert colouring_number(sub) == colouring_number(ref) == ref_colouring_number(ref)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_t_core_is_the_core_of_the_queue_peel(data):
    # on parents, on their views (the half-samples of core_death are views
    # of a regular parent's table) and on the materialised subgraphs
    g, sub, ref = view_and_reference(data)
    for graph in (g, sub, ref):
        for t in range(graph.max_degree() + 3):
            core = t_core(graph, t)
            assert ids(core) == ref_t_core(graph, t)
            assert core.dtype == bool and not core.flags.writeable
    with pytest.raises(InputError):
        t_core(g, -1)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_view_spreads_match_the_materialised_graph(data):
    _, sub, ref = view_and_reference(data)
    n = ref.n
    for v in range(n):
        assert np.array_equal(connected_component(sub, v), connected_component(ref, v))
    inside = vertex_mask(data, n)
    assert np.array_equal(vertex_boundary(sub, inside), vertex_boundary(ref, inside))
    seed = vertex_mask(data, n)
    floats = data.draw(st.lists(st.sampled_from((0, 1, 2, 3, 1.5, math.inf)), min_size=n, max_size=n))
    ints = np.array(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)), dtype=np.intp)
    for thresholds in (floats, ints):
        got = bootstrap_percolate(sub, seed, thresholds)
        want = bootstrap_percolate(ref, seed, thresholds)
        assert np.array_equal(got.infected, want.infected)
        assert got.round_trace == want.round_trace


# --- the view's own mask -----------------------------------------------------------------


def test_a_view_does_not_alias_its_callers_mask():
    g = circulant(10, (1, 2))
    mask = np.arange(g.m) % 3 == 0
    sub = g.with_edges(mask)
    edges, core = sub.edges.copy(), t_core(sub, 2)
    mask[:] = True  # a later write to the caller's array
    fresh = g.with_edges(np.arange(g.m) % 3 == 0)
    assert np.array_equal(sub.edges, edges) and sub == fresh
    assert sub._mask is not mask and not sub._mask.flags.writeable
    assert np.array_equal(t_core(fresh, 2), core)


def test_a_view_of_a_read_only_mask_keeps_its_value():
    g = circulant(8, (1, 3))
    mask = np.arange(g.m) % 2 == 0
    mask.flags.writeable = False
    sub = g.with_edges(mask)
    mask.flags.writeable = True
    mask[:] = False
    assert sub.m == g.m // 2 == Graph(g.n, g.edges[::2]).m
    assert sub == Graph(g.n, g.edges[::2])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_view_of_a_view_composes_to_the_root_parent(data):
    g = parent_graph(data)
    outer = edge_mask(data, g.m)
    inner = edge_mask(data, int(np.count_nonzero(outer)))
    first = g.with_edges(outer)
    second = first.with_edges(inner)
    # composed to the root's mask, or materialised when under a quarter
    assert first._parent is (g if 4 * first.m >= g.m else None)
    root = first if first._parent is None else g
    assert second._parent is (root if 4 * second.m >= root.m else None)
    ref = Graph(g.n, g.edges[outer][inner])
    assert second == ref and np.array_equal(second._csr_arrays()[1], ref._csr_arrays()[1])
    for t in range(3):
        assert np.array_equal(t_core(second, t), t_core(ref, t))


def test_views_compose_until_they_keep_under_a_quarter_of_the_root():
    g = circulant(10, (1, 2))  # 20 edges
    first = g.with_edges(np.arange(20) % 4 != 0)  # 15 edges
    second = first.with_edges(np.arange(15) % 3 != 0)  # 10: a view of g
    third = second.with_edges(np.arange(10) < 4)  # 4 < 20 / 4: materialised
    assert first._parent is g and second._parent is g and third._parent is None
    assert second == Graph(10, g.edges[np.arange(20) % 4 != 0][np.arange(15) % 3 != 0])
    assert third == Graph(10, second.edges[:4]) and third.edges.flags.writeable is False


def test_with_edges_checks_the_mask():
    g = circulant(6, (1,))
    sub = g.with_edges(np.arange(g.m) < 3)
    for bad in (np.ones(g.m - 1, dtype=bool), np.ones(g.m, dtype=int), [True] * g.m + [False]):
        with pytest.raises(InputError):
            g.with_edges(bad)
    with pytest.raises(InputError):
        sub.with_edges(np.ones(g.m, dtype=bool))  # a mask over the view's 3 edges, not g's
