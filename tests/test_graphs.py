import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randcol.errors import InputError
from randcol.generators import BlowUpLayout, save_layout
from randcol.graphs import (
    DiGraph,
    Graph,
    connected_component,
    count_connected_edge_subgraphs_upto,
    cycle_graph as built_cycle,
    format_graph,
    has_cycle_shorter_than,
    is_connected,
    is_strongly_connected,
    load_graph,
    parse_graph,
    reachable_set,
    save_graph,
    vertex_boundary,
)
from randcol.percolation import bootstrap_percolate

from helpers import complete_graph, cycle_graph, ids, mask, petersen


# --- construction / validation -------------------------------------------


def test_edges_normalised_and_sorted():
    g = Graph(4, [(3, 1), (0, 2), (2, 1)])
    assert g.edges.tolist() == [[0, 2], [1, 2], [1, 3]]
    assert g.m == 3
    assert g.degrees() == [1, 2, 2, 1]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]), unique_by=lambda e: frozenset(e)))))
def test_neighbour_lists_strictly_ascending(case):
    n, edges = case  # any order, either orientation
    g = Graph(n, edges)
    for v, nbrs in enumerate(g.adjacency()):
        assert all(a < b for a, b in zip(nbrs, nbrs[1:]))
        assert set(nbrs) == {u for e in edges for u in e if v in e} - {v}


@pytest.mark.parametrize("n", [2.5, 3.0, "3", True, None, -1])
def test_vertex_count_takes_the_integer_rule(n):
    for build in (lambda: Graph(n, []), lambda: Graph(n, [], validate=False),
                  lambda: DiGraph(n, []), lambda: DiGraph(n, [], validate=False)):
        with pytest.raises(InputError, match="vertex count must be a non-negative integer"):
            build()


def test_a_numpy_vertex_count_is_stored_as_its_int():
    for g in (Graph(np.int64(3), [(0, 1)]), DiGraph(np.uint8(3), [(0, 1)])):
        assert type(g.n) is int and g.n == 3 and g == type(g)(3, [(0, 1)])


def test_unvalidated_rows_are_copied():
    """A graph holds its own rows, so a write to the caller's array does
    not change its edges or its hash."""
    a = np.array([[0, 1], [1, 2]])
    g = Graph(3, a, validate=False)
    before = hash(g)
    a[1] = (0, 2)
    assert g.edges.tolist() == [[0, 1], [1, 2]]
    assert hash(g) == before and g == Graph(3, [(0, 1), (1, 2)])


def test_cycle_graph_rows_equal_the_validated_build():
    """cycle_graph skips validation, so the rows it places itself must be
    the canonical, sorted rows of the validated build."""
    for n in range(3, 41):
        g = built_cycle(n)
        assert g == cycle_graph(n) and hash(g) == hash(cycle_graph(n)), n


def test_loop_rejected():
    with pytest.raises(InputError):
        Graph(3, [(1, 1)])


def test_parallel_edge_rejected():
    with pytest.raises(InputError):
        Graph(3, [(0, 1), (1, 0)])


def test_out_of_range_rejected():
    with pytest.raises(InputError):
        Graph(3, [(0, 3)])


def test_digraph_allows_antiparallel():
    h = DiGraph(2, [(0, 1), (1, 0)])
    indptr, indices = h._csr_arrays()
    assert np.diff(indptr).tolist() == [1, 1]
    assert np.bincount(indices, minlength=2).tolist() == [1, 1]


def test_is_regular_counts_in_and_out_degrees():
    out_regular = DiGraph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)])
    assert not out_regular.is_regular(2)
    assert not DiGraph(4, out_regular.arcs[:, ::-1]).is_regular(2)
    assert DiGraph(3, [(0, 1), (1, 2), (2, 0), (1, 0), (2, 1), (0, 2)]).is_regular(2)
    assert DiGraph(0, []).is_regular(2)


def test_digraph_rejects_repeated_in_colour():
    with pytest.raises(InputError):
        DiGraph(3, [(0, 2), (1, 2)], arc_colour=["r", "r"])
    h = DiGraph(3, [(0, 2), (1, 2)], arc_colour=["r", "b"])
    assert h.arc_colour == ("r", "b")


# --- boundaries -----------------------------------------------------------


def test_vertex_boundary_four_cycle():
    g = cycle_graph(4)
    assert ids(vertex_boundary(g, mask(4, {0}))) == frozenset({1, 3})
    assert ids(vertex_boundary(g, mask(4, {0, 1}))) == frozenset({2, 3})
    assert ids(vertex_boundary(g, mask(4, {0, 1, 2, 3}))) == frozenset()


def test_boundary_rejects_bad_vertex():
    # the mask form of an id outside 0..n-1: a mask longer or shorter than n
    g = cycle_graph(4)
    for size in (8, 5, 3, 1):
        bad = np.ones(size, dtype=bool)
        with pytest.raises(InputError, match="vertex set must be a boolean mask of length 4"):
            vertex_boundary(g, bad)
        with pytest.raises(InputError, match="vertex set must be a boolean mask of length 4"):
            vertex_boundary(DiGraph(4, [(0, 1)]), bad)
        with pytest.raises(InputError, match="seed must be a boolean mask of length 4"):
            bootstrap_percolate(g, bad, [1] * 4)


@pytest.mark.parametrize(
    "bad",
    [np.array([1, 0, 0, 0]), np.ones(4), {0}, [0], np.ones((2, 2), dtype=bool), True],
    ids=["int-array", "float-array", "set", "id-list", "2d", "scalar"],
)
def test_vertex_sets_must_be_boolean_masks(bad):
    g = cycle_graph(4)
    for check in (
        lambda s: vertex_boundary(g, s),
        lambda s: vertex_boundary(DiGraph(4, [(0, 1)]), s),
        lambda s: bootstrap_percolate(g, s, [1] * 4),
        lambda s: g.with_edges(s),  # four edges too
    ):
        with pytest.raises(InputError, match="must be a boolean mask of length 4"):
            check(bad)


def test_directed_boundary_is_out_neighbours():
    h = DiGraph(4, [(0, 1), (2, 0), (1, 3)])
    assert ids(vertex_boundary(h, mask(4, {0}))) == frozenset({1})
    assert ids(vertex_boundary(h, mask(4, {0, 1}))) == frozenset({3})


# --- short cycles ---------------------------------------------------------


def shortest_cycle_is(g, girth):
    """has_cycle_shorter_than's verdicts at the girth and one past it."""
    return not has_cycle_shorter_than(g, girth) and has_cycle_shorter_than(g, girth + 1)


def test_girth_known_values():
    assert shortest_cycle_is(cycle_graph(5), 5)
    assert shortest_cycle_is(complete_graph(4), 3)
    assert shortest_cycle_is(petersen(), 5)
    for forest in (Graph(4, [(0, 1), (1, 2), (2, 3)]), Graph(3, []), Graph(0, [])):
        assert not any(has_cycle_shorter_than(forest, length) for length in range(-1, 10))


def test_girth_with_chord():
    g = Graph(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)])
    assert shortest_cycle_is(g, 4)


def girth_oracle(g):
    # shortest cycle by brute force over subsets of vertices is wasteful;
    # instead check every closed walk length via matrix-free BFS per edge removal
    best = math.inf
    for idx, (u, v) in enumerate(g.edges):
        rest = Graph(g.n, [e for i, e in enumerate(g.edges) if i != idx], validate=False)
        # distance u -> v without that edge
        from collections import deque

        dist = {u: 0}
        q = deque([u])
        while q:
            x = q.popleft()
            for y in rest.adjacency()[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    q.append(y)
        if v in dist:
            best = min(best, dist[v] + 1)
    return best


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
            lambda e: (min(e), max(e))).filter(lambda e: e[0] != e[1])))))
def test_girth_matches_edge_deletion_oracle(case):
    n, edges = case
    g = Graph(n, sorted(edges))
    girth = girth_oracle(g)
    # every length from below 3 to past n, so the girth and one past it too
    for length in range(-1, n + 2):
        assert has_cycle_shorter_than(g, length) == (girth < length)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 7).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
                lambda e: (min(e), max(e))).filter(lambda e: e[0] != e[1])))),
    st.integers(3, 9),
)
def test_short_cycle_test_agrees_with_girth(case, length):
    n, edges = case
    g = Graph(n, sorted(edges))
    assert has_cycle_shorter_than(g, length) == (girth_oracle(g) < length)


def test_short_cycle_filter_petersen():
    g = petersen()
    assert not has_cycle_shorter_than(g, 5)
    assert has_cycle_shorter_than(g, 6)


@pytest.mark.parametrize("length", ["5", 5.0, True, None])
def test_short_cycle_length_takes_the_integer_rule(length):
    with pytest.raises(InputError, match="length must be an integer"):
        has_cycle_shorter_than(petersen(), length)


# --- connected edge subgraph counts ----------------------------------------


def count_oracle(g, v, t):
    cnt = 0
    for combo in combinations(range(g.m), t):
        edges = [g.edges[i] for i in combo]
        verts = set()
        for a, b in edges:
            verts.add(a)
            verts.add(b)
        if v not in verts:
            continue
        adj = {}
        for a, b in edges:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        seen = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            for y in adj.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) == len(verts):
            cnt += 1
    return cnt


def count(g, v, t):
    return count_connected_edge_subgraphs_upto(g, v, t)[t]


def test_triangle_two_edge_count():
    g = complete_graph(3)
    assert count(g, 0, 1) == 2
    assert count(g, 0, 2) == 3
    assert count(g, 0, 3) == 1


def test_counts_match_oracle_k4():
    g = complete_graph(4)
    for t in range(1, 7):
        assert count(g, 0, t) == count_oracle(g, 0, t)


def test_counts_match_oracle_petersen():
    g = petersen()
    for t in range(1, 5):
        assert count(g, 2, t) == count_oracle(g, 2, t)


def test_counts_upto_consistent():
    g = petersen()
    upto = count_connected_edge_subgraphs_upto(g, 0, 4)
    assert upto[0] == 0
    for t in range(1, 5):
        assert upto[t] == count_oracle(g, 0, t)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
            lambda e: (min(e), max(e))).filter(lambda e: e[0] != e[1])))),
    st.integers(1, 4))
def test_counts_match_oracle_random(case, t):
    n, edges = case
    g = Graph(n, sorted(edges))
    assert count(g, 0, t) == count_oracle(g, 0, t)


def test_counts_match_oracle_at_nine_edges():
    g = complete_graph(5)
    assert count(g, 0, 9) == count_oracle(g, 0, 9)


def test_count_rejects_bad_args():
    g = complete_graph(3)
    with pytest.raises(InputError):
        count_connected_edge_subgraphs_upto(g, 5, 1)
    with pytest.raises(InputError):
        count_connected_edge_subgraphs_upto(g, 0, 0)


def test_count_takes_t_max_by_the_integer_rule():
    g = complete_graph(4)
    assert count_connected_edge_subgraphs_upto(g, 0, np.int64(3)) == \
        count_connected_edge_subgraphs_upto(g, 0, 3)
    for t_max in (2.5, 3.0, "3", True, None):
        with pytest.raises(InputError, match="t must be an integer"):
            count_connected_edge_subgraphs_upto(g, 0, t_max)


# --- reachability ----------------------------------------------------------


def test_reachable_set():
    h = DiGraph(5, [(0, 1), (1, 2), (3, 0), (2, 1)])
    assert ids(reachable_set(h, 0)) == frozenset({0, 1, 2})
    assert ids(reachable_set(h, 3)) == frozenset({0, 1, 2, 3})
    assert ids(reachable_set(h, 4)) == frozenset({4})


def test_connectivity_helpers():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    assert ids(connected_component(g, 0)) == frozenset({0, 1, 2})
    assert not is_connected(g)
    assert is_connected(cycle_graph(5))
    assert is_strongly_connected(DiGraph(3, [(0, 1), (1, 2), (2, 0)]))
    assert not is_strongly_connected(DiGraph(3, [(0, 1), (1, 2)]))


def test_component_is_one_mask_per_component():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    first = connected_component(g, 2)
    assert ids(connected_component(g, 0)) == ids(first) == ids(connected_component(g, 1))
    assert ids(connected_component(g, 3)) == ids(connected_component(g, 4)) == {3, 4}


def test_every_root_is_checked_by_one_rule():
    g = Graph(4, [(0, 1), (1, 2)])
    h = DiGraph(4, [(0, 1), (1, 2)])
    for r in (4, 9, -1):
        for call in (
            lambda: connected_component(g, r),
            lambda: reachable_set(h, r),
            lambda: count_connected_edge_subgraphs_upto(g, r, 2),
        ):
            with pytest.raises(InputError, match=f"root {r} out of range for n=4"):
                call()


def test_a_numpy_root_past_bit_63_counts_as_its_int():
    # the walk's bitmasks are Python ints; shifted by a numpy root they
    # would be int64 and overflow
    g = Graph(70, [(i, i + 1) for i in range(69)])
    for r in (np.int64(68), np.uint16(68)):
        assert count_connected_edge_subgraphs_upto(g, r, 3) == [0, 2, 2, 2]


# --- text format ------------------------------------------------------------


def test_round_trip_undirected():
    g = petersen()
    assert parse_graph(format_graph(g)) == g


def test_round_trip_directed_coloured():
    h = DiGraph(3, [(0, 1), (2, 1), (1, 2)], arc_colour=["r", "b", "r"])
    assert parse_graph(format_graph(h)) == h


@pytest.mark.parametrize("text", [
    "4 3\n0 1\n0 3\n2 3\n",
    "3 3 directed\n0 1\n2 1\n1 2\n",
    "3 3 directed\n0 1 r\n2 1 b\n1 2 r\n",
], ids=["graph", "digraph", "coloured-digraph"])
def test_formatting_a_parsed_file_gives_its_text(text):
    assert format_graph(parse_graph(text)) == text


@pytest.mark.parametrize("body,bad", [
    ("0 1 r\n1 x\n", "bad edge line '0 1 r'"),
    ("0 x\n1 2 r\n", "non-integer token in line '0 x'"),
], ids=["bad-width-first", "non-integer-first"])
def test_the_first_bad_line_is_reported(body, bad):
    with pytest.raises(InputError, match=f"^{bad}$"):
        parse_graph("3 3\n0 2\n" + body)
    arc = bad.replace("edge", "arc").replace(" r'", " r b'")
    with pytest.raises(InputError, match=f"^{arc}$"):
        parse_graph("3 3 directed\n0 2\n" + body.replace(" r\n", " r b\n"))


def test_parse_comments_and_blanks():
    text = "# demo\n3 2\n0 1  # chord\n\n1 2\n"
    g = parse_graph(text)
    assert isinstance(g, Graph)
    assert g.edges.tolist() == [[0, 1], [1, 2]]


def test_parse_errors():
    with pytest.raises(InputError):
        parse_graph("")
    with pytest.raises(InputError):
        parse_graph("2 1 sideways\n0 1\n")
    with pytest.raises(InputError):
        parse_graph("3 2\n0 1\n")
    with pytest.raises(InputError):
        parse_graph("3 2 directed\n0 1 r\n1 2\n")


def test_save_load(tmp_path):
    g = cycle_graph(6)
    p = tmp_path / "c6.graph"
    save_graph(g, p)
    assert load_graph(p) == g


@pytest.mark.parametrize("save,value,want", [
    (save_graph, cycle_graph(6), "Graph or DiGraph"),
    (save_layout, BlowUpLayout(n_super=3, layers=1, m=2), "BlowUpLayout"),
], ids=["save_graph", "save_layout"])
def test_a_failed_save_leaves_the_file_as_it_was(tmp_path, save, value, want):
    p = tmp_path / "kept.txt"
    save(value, p)
    before = p.read_bytes()
    with pytest.raises(InputError, match=f"^{save.__name__} needs a {want}, got a NoneType$"):
        save(None, p)
    assert p.read_bytes() == before


def test_format_graph_of_a_non_graph_is_an_input_error():
    with pytest.raises(InputError, match="^format_graph needs a Graph or DiGraph, got a NoneType$"):
        format_graph(None)
