"""Graph and DiGraph on edge arrays against the tuple code they replaced,
kept as the reference (helpers' RefGraph and this module's RefDiGraph):
normalising, validation, neighbour tuples,
degrees, the colouring solver's bitmasks, DiGraph's per-list sorts, the
text format and the itertools.compress mask subsets, on hypothesis edge
lists in any order and orientation."""

from itertools import compress

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randcol.colouring import _neighbour_masks
from randcol.errors import InputError
from randcol.graphs import DiGraph, Graph, _csr, format_graph, load_graph, save_graph

from helpers import RefGraph


# --- the tuple reference ---------------------------------------------------------


class RefDiGraph:
    def __init__(self, n, arcs, arc_colour=None):
        self.n = n
        self.arcs = tuple((u, v) for u, v in arcs)
        self.arc_colour = tuple(arc_colour) if arc_colour is not None else None
        seen = set()
        for u, v in self.arcs:
            if u == v:
                raise InputError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"arc ({u},{v}) out of range for n={n}")
            if (u, v) in seen:
                raise InputError(f"parallel arc ({u},{v})")
            seen.add((u, v))
        if self.arc_colour is not None:
            if len(self.arc_colour) != len(self.arcs):
                raise InputError("arc_colour length must match arc count")
            bad = set(self.arc_colour) - {"r", "b"}
            if bad:
                raise InputError(f"unknown arc colours {sorted(bad)}")
            in_cols = {}
            for (u, v), c in zip(self.arcs, self.arc_colour):
                cols = in_cols.setdefault(v, set())
                if c in cols:
                    raise InputError(f"vertex {v} has two {c!r} in-arcs")
                cols.add(c)

    def build_adj(self):
        out = [[] for _ in range(self.n)]
        inn = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            out[u].append(v)
            inn[v].append(u)
        return tuple(tuple(sorted(a)) for a in out), tuple(tuple(sorted(a)) for a in inn)


def ref_format(g):
    if isinstance(g, RefDiGraph):
        lines = [f"{g.n} {len(g.arcs)} directed"]
        if g.arc_colour is not None:
            lines += [f"{u} {v} {c}" for (u, v), c in zip(g.arcs, g.arc_colour)]
        else:
            lines += [f"{u} {v}" for u, v in g.arcs]
    else:
        lines = [f"{g.n} {len(g.edges)}"] + [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def outcome(make, *args, **kwargs):
    try:
        return make(*args, **kwargs)
    except InputError as exc:
        return ("InputError", str(exc))


def rows(array):
    return tuple(map(tuple, array.tolist()))


# --- strategies --------------------------------------------------------------------


def simple_edges(n):
    """Distinct unordered pairs, in any order and either orientation."""
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return st.lists(pair, unique_by=frozenset, max_size=3 * n)


def any_pairs(n):
    """Loops, repeats in either orientation and ids outside 0..n-1 included."""
    return st.lists(st.tuples(st.integers(-2, n + 1), st.integers(-2, n + 1)), max_size=2 * n + 2)


graphs = st.integers(1, 14).flatmap(lambda n: st.tuples(st.just(n), simple_edges(n)))
raw_graphs = st.integers(0, 8).flatmap(lambda n: st.tuples(st.just(n), any_pairs(n)))
digraphs = st.integers(1, 14).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]), unique=True, max_size=3 * n)))


# --- Graph ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(graphs)
def test_graph_views_match_the_tuples(case):
    n, edges = case
    g, ref = Graph(n, edges), RefGraph(n, edges)
    assert rows(g.edges) == ref.edges
    assert g.m == len(ref.edges)
    assert g.adjacency() == ref.adjacency()
    assert g.degrees() == ref.degrees()
    assert _neighbour_masks(g) == ref.adj_masks()
    indptr, indices = g._csr_arrays()
    assert indptr.tolist() == np.cumsum([0] + ref.degrees()).tolist()
    assert indices.tolist() == [w for nbrs in ref.adjacency() for w in nbrs]
    plain = g.degrees() + _neighbour_masks(g) + [w for nbrs in g.adjacency() for w in nbrs]
    assert all(type(x) is int for x in plain)


@settings(max_examples=300, deadline=None)
@given(raw_graphs)
def test_graph_validation_matches_the_tuples(case):
    n, edges = case
    got = outcome(Graph, n, edges)
    want = outcome(RefGraph, n, edges)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert rows(got.edges) == want.edges


def test_validation_errors():
    with pytest.raises(InputError, match="loop at vertex 1"):
        Graph(3, [(0, 1), (1, 1)])
    with pytest.raises(InputError, match="out of range"):
        Graph(3, [(0, 3)])
    with pytest.raises(InputError, match="out of range"):
        Graph(3, [(-1, 2)])
    with pytest.raises(InputError, match=r"parallel edge \(0,1\)"):
        Graph(3, [(1, 0), (0, 1)])
    with pytest.raises(InputError, match="non-negative"):
        Graph(-1, [])


@pytest.mark.parametrize("edges", [
    [(0.5, 1), (1, 2)],
    np.array([[0.0, 1.0]]),
    [("0", "1")],
    [(True, False)],
    [(0, 1, 2)],
    [(0, 1), (2,)],
])
def test_non_integer_or_malformed_ids_are_rejected(edges):
    with pytest.raises(InputError):
        Graph(3, edges)
    with pytest.raises(InputError):
        DiGraph(3, edges)


@settings(max_examples=200, deadline=None)
@given(graphs, st.data())
def test_mask_subset_matches_compress(case, data):
    n, edges = case
    g, ref = Graph(n, edges), RefGraph(n, edges)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m)), dtype=bool)
    sub = g.with_edges(mask)
    want = RefGraph(n, compress(ref.edges, mask.tolist()), validate=False)
    assert rows(sub.edges) == want.edges
    assert sub == Graph(n, want.edges)
    assert sub.adjacency() == want.adjacency()
    assert sub.degrees() == want.degrees()
    assert not sub.edges.flags.writeable


def test_edge_arrays_reject_writes():
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        g.edges[0, 1] = 2
    h = DiGraph(3, [(0, 1), (2, 1)])
    with pytest.raises(ValueError):
        h.arcs[0, 0] = 2


def test_callers_array_is_not_frozen():
    ends = np.array([[1, 0], [1, 2]])
    g = Graph(3, ends)
    assert ends.flags.writeable and ends.tolist() == [[1, 0], [1, 2]]
    assert g.edges.tolist() == [[0, 1], [1, 2]]


def test_equal_graphs_hash_equal():
    a = Graph(4, [(2, 1), (0, 3)])
    b = Graph(4, np.array([[0, 3], [1, 2]]))
    assert a == b and hash(a) == hash(b)
    assert a != Graph(5, [(0, 3), (1, 2)])
    assert a != Graph(4, [(0, 3)])


# --- DiGraph --------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(digraphs)
def test_digraph_views_match_the_sorted_lists(case):
    n, arcs = case
    h, ref = DiGraph(n, arcs), RefDiGraph(n, arcs)
    out, inn = ref.build_adj()
    assert rows(h.arcs) == ref.arcs
    tails, heads = h.arcs.T
    for (indptr, indices), lists in ((h._csr_arrays(), out), (_csr(n, heads, tails), inn)):
        assert tuple(tuple(indices[indptr[v]:indptr[v + 1]].tolist()) for v in range(n)) == lists


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(st.just(n), any_pairs(n))), st.data())
def test_digraph_validation_matches_the_loop(case, data):
    n, arcs = case
    colours = data.draw(st.none() | st.lists(st.sampled_from("rrbbg"), min_size=len(arcs),
                                             max_size=len(arcs) + 1))
    got = outcome(DiGraph, n, arcs, arc_colour=colours)
    want = outcome(RefDiGraph, n, arcs, arc_colour=colours)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert rows(got.arcs) == want.arcs and got.arc_colour == want.arc_colour


# --- text format ------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(graphs, digraphs, st.booleans())
def test_format_matches_the_tuples(case, dcase, coloured):
    n, edges = case
    assert format_graph(Graph(n, edges)) == ref_format(RefGraph(n, edges))
    n, arcs = dcase
    h = DiGraph(n, arcs, validate=False)
    ref = RefDiGraph(n, arcs)
    if coloured:
        colours = ["r" if i % 2 else "b" for i in range(len(arcs))]
        h = DiGraph(n, arcs, arc_colour=colours, validate=False)
        ref.arc_colour = tuple(colours)
    assert format_graph(h) == ref_format(ref)


def test_saved_file_is_byte_identical(tmp_path):
    edges = [(4, 0), (1, 3), (2, 0), (3, 4), (0, 1)]
    arcs = [(0, 1), (2, 1), (1, 2), (1, 0)]
    colours = ["r", "b", "r", "r"]
    for g, ref in ((Graph(5, edges), RefGraph(5, edges)),
                   (DiGraph(3, arcs, colours), RefDiGraph(3, arcs, colours))):
        path = tmp_path / "g.txt"
        save_graph(g, path)
        assert path.read_bytes() == ref_format(ref).encode()
        assert load_graph(path) == g
