"""The array rounds of the threshold spreads, the row gather of regular
CSRs, the per-sweep coins, the per-root search memo and the replay of its
levels, the cached CSR arrays and components, the two fixpoint audits and
the super-vertex classification, each against one reference that reads
the graph's rows, never the CSR under test:

- every spread (bootstrap_percolate, _spread, _spread_from, thm3_process
  and thm4_process, given their drawn sets): the per-edge round loop,
  helpers.ref_bootstrap_percolate;
- every search (connected_component, reachable_set, the memo's levels,
  the dead component and the nearly-dead reachable set): the
  breadth-first search helpers.ref_bfs;
- regular_degree: the degree set;
- the thm3 audit: a walk over every vertex's neighbours; the thm4 audit:
  the out-boundary of vertex_boundary, over the CSR;
- the classification: the per-vertex survivor table, and the per-vertex
  edge count of the resilient pairs.

The coin masks are checked against index tuples in test_mask_oracles."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from randcol.colouring import colouring_number, t_core
from randcol.errors import GenerationError, InputError
from randcol.generators import (
    ConstructionParams,
    blow_up,
    gadget_blow_up,
    random_regular_graph,
    random_two_regular_digraph,
)
from randcol.graphs import (
    DiGraph,
    Graph,
    _csr,
    _ArcView,
    _search,
    _spread,
    _spread_from,
    connected_component,
    reachable_set,
    vertex_boundary,
)
from randcol.percolation import (
    PercolationState,
    boundary_resilience_audit,
    bootstrap_percolate,
    classify_supervertices_thm3,
    resilient_pair_detect,
    thm3_fixpoint_violations,
    thm3_process,
    thm4_fixpoint_violations,
    thm4_process,
)
from randcol.sampling import RngStream
from helpers import (
    cycle_graph,
    ids,
    layout_id,
    out_lists,
    pairs,
    path_graph,
    ref_bfs,
    ref_bootstrap_percolate,
    ref_colouring_number,
    ref_t_core,
    regular_graphs,
)


# sparse edge sets up to n = 30 leave isolated vertices in many draws
graphs = st.integers(0, 30).flatmap(lambda n: st.tuples(st.just(n), pairs(n) if n else st.just(set())))
digraphs = st.integers(0, 30).flatmap(lambda n: st.tuples(st.just(n), pairs(n, True) if n else st.just(set())))


def masks(size):
    return st.lists(st.booleans(), min_size=size, max_size=size).map(lambda b: np.array(b, dtype=bool))


def bfs_levels(g, r):
    """Each vertex's breadth-first level from r, -1 where r does not reach."""
    level = ref_bfs(out_lists(g), r)
    return [level.get(v, -1) for v in range(g.n)]


def ref_thm3_process(h, r, protected):
    """thm3's spread from r by the loop, given its protected edges: both
    ends of each need two infected neighbours, every other vertex one."""
    thresholds = [1] * h.n
    for a, b in h.edges[protected].tolist():
        thresholds[a] = thresholds[b] = 2
    return ref_bootstrap_percolate(out_lists(h), {r}, thresholds)


# --- the threshold spreads -----------------------------------------------------------


def spread_thresholds(out, picks):
    """A threshold per vertex, picks[v] choosing among 0, 1, 1.5, 2, v's
    in-degree and out-degree, each plus 3, and inf. A vertex counts the
    arcs into it, so a clamp by the out-degree would show on a digraph."""
    d_out = np.array([len(heads) for heads in out])
    d_in = np.bincount(np.array([w for heads in out for w in heads], dtype=np.intp), minlength=len(out))
    table = np.stack(np.broadcast_arrays(0, 1, 1.5, 2, d_in, d_out, d_in + 3, d_out + 3, math.inf),
                     axis=1)
    return table[np.arange(len(out)), np.array(picks, dtype=np.intp)]


def intp_values(out, thresholds):
    """The equal intp array of float thresholds, inf a value above the
    arc count."""
    return np.minimum(np.ceil(thresholds), sum(map(len, out)) + 3).astype(np.intp)


def assert_spread_matches_the_loop(g, seed, thresholds, want_thresholds):
    got = bootstrap_percolate(g, seed, thresholds)
    assert (ids(got.infected), got.round_trace) == ref_bootstrap_percolate(out_lists(g), ids(seed), want_thresholds)
    assert got.infected.dtype == bool and got.infected.shape == (g.n,)
    assert all(type(k) is int for k in got.round_trace)


def spread_case(case, data, graph_type=Graph):
    """A graph of the drawn pairs, a seed mask, and its vertices' float
    thresholds."""
    n, pair_set = case
    g = graph_type(n, pair_set)
    picks = data.draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
    return g, data.draw(masks(n)), spread_thresholds(out_lists(g), picks)


@settings(max_examples=200, deadline=None)
@given(graphs, st.data())
def test_bootstrap_matches_edge_loop(case, data):
    g, seed, thresholds = spread_case(case, data)
    assert_spread_matches_the_loop(g, seed, thresholds.tolist(), thresholds)


@settings(max_examples=200, deadline=None)
@given(graphs, st.data())
def test_spread_round_matches_float_thresholds(case, data):
    """_spread itself, given the float array that bootstrap_percolate
    would pass it."""
    g, seed, thresholds = spread_case(case, data)
    infected, trace = _spread(g, seed, thresholds)
    assert (ids(infected), tuple(trace)) == ref_bootstrap_percolate(out_lists(g), ids(seed), thresholds)


@settings(max_examples=200, deadline=None)
@given(graphs, st.data())
def test_intp_thresholds_match_their_float_values(case, data):
    """An intp array reaches the round as it is, with no ceiling and no
    cap: values above the arc count never fire, as inf does not."""
    g, seed, thresholds = spread_case(case, data)
    assert_spread_matches_the_loop(g, seed, intp_values(out_lists(g), thresholds), thresholds)


@settings(max_examples=200, deadline=None)
@given(digraphs, st.data())
def test_directed_spread_round_matches_float_thresholds(case, data):
    """In-degrees differ from out-degrees here, so a clamp by the wrong
    degree would show; floats and their intp values, given to _spread
    itself, as bootstrap_percolate takes a Graph only."""
    g, seed, thresholds = spread_case(case, data, DiGraph)
    for given_thresholds in (thresholds, intp_values(out_lists(g), thresholds)):
        infected, trace = _spread(g, seed, given_thresholds)
        assert (ids(infected), tuple(trace)) == ref_bootstrap_percolate(out_lists(g), ids(seed), thresholds)


@pytest.mark.parametrize("n", (10, 50, 200))
def test_thm3_process_matches_edge_loop(n):
    for seed in range(4):
        h = random_regular_graph(n, 3, seed)
        for p in (0.0, 0.1, 0.5, 1.0):
            for r in (0, n - 1):
                got = thm3_process(h, p, r, RngStream(seed).child("trial", r))
                assert (ids(got.infected), got.round_trace) == ref_thm3_process(h, r, got.protected_edges)


# --- the row gather of regular CSRs --------------------------------------------------------


def ref_regular_degree(g):
    """The common degree from the set of degrees; 0 without vertices."""
    degs = set(g.degrees())
    if not degs:
        return 0
    return degs.pop() if len(degs) == 1 else None


@settings(max_examples=300, deadline=None)
@given(regular_graphs(), st.data())
def test_table_spread_matches_the_mask_round(g, data):
    n = g.n
    out = out_lists(g)
    d = len(out[0]) if n else 0
    assert all(len(heads) == d for heads in out)
    table = g._arc_view().table
    assert table is None if not d else table.shape == (n, d)
    if isinstance(g, Graph):
        assert g.regular_degree() == ref_regular_degree(g) == d
    seed = data.draw(masks(n))
    picks = data.draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
    for thresholds in (spread_thresholds(out, picks), 1):
        infected, trace = _spread(g, seed, thresholds)
        assert (ids(infected), tuple(trace)) == ref_bootstrap_percolate(out, ids(seed), thresholds)
    inside = data.draw(masks(n))
    boundary = {w for v in range(n) if inside[v] for w in out[v] if not inside[w]}
    assert ids(vertex_boundary(g, inside)) == boundary


@settings(max_examples=150, deadline=None)
@given(regular_graphs().map(
    lambda g: Graph(g.n, {tuple(sorted(a)) for a in g.arcs.tolist()}) if isinstance(g, DiGraph) else g))
def test_table_peel_matches_the_queue_and_the_heap(g):
    """The peels of regular graphs, which read the (n, d) table, against
    the queue and heap references (a digraph as the graph of its arcs, no
    longer regular)."""
    for t in range(g.max_degree() + 3):
        assert ids(t_core(g, t)) == ref_t_core(g, t)
    assert colouring_number(g) == ref_colouring_number(g)


@settings(max_examples=100, deadline=None)
@given(graphs)
def test_regular_degree_matches_the_degree_set(case):
    g = Graph(*case)
    assert g.regular_degree() == ref_regular_degree(g)


# --- the per-sweep coins ---------------------------------------------------------------


COIN_GRAPH, COIN_DIGRAPH = random_regular_graph(20, 3, 1), random_two_regular_digraph(30, 1)


def drawn_and_floats(graph, p, stream):
    """The drawn set of graph's process at p from root 0, and the float
    coins of its stream."""
    if isinstance(graph, DiGraph):
        return thm4_process(graph, p, 0, stream).resilient_vertices, stream.child("resilient").uniforms(graph.n)
    return thm3_process(graph, p, 0, stream).protected_edges, stream.child("protect").uniforms(graph.m)


def test_every_process_gets_the_coins_of_its_own_stream_label_and_count():
    """Each call compares a fresh draw; calls that change the stream, the
    label (thm3 against thm4) or the count (graph size) in between get
    their own coins, never the last call's."""
    small, large, dg = COIN_GRAPH, random_regular_graph(40, 3, 1), COIN_DIGRAPH
    root = RngStream(0xC015)
    for graph, trial in [(small, 0), (small, 0), (large, 0), (small, 0), (dg, 0), (small, 0), (small, 1),
                         (dg, 1)]:
        for p in (0.0, 0.05, 0.5):
            drawn, floats = drawn_and_floats(graph, p, root.child("trial", trial))
            assert np.array_equal(drawn, floats < p)


def test_a_sweep_draws_its_coins_once(monkeypatch):
    h = random_regular_graph(30, 3, 2)
    stream = RngStream(0xD4A).child("sweep")
    first = thm3_process(h, 0.3, 0, stream).protected_edges
    drawn = []
    monkeypatch.setattr(RngStream, "uniform_at", lambda self, *a: drawn.append(a) or 1 / 0)
    later = [thm3_process(h, p, 0, stream).protected_edges for p in (0.0, 0.1, 0.3, 1.0)]
    assert drawn == []
    # each call still returns its own read-only mask
    assert np.array_equal(later[2], first) and later[2] is not first
    assert len({id(mask) for mask in later}) == 4
    assert all(not mask.flags.writeable for mask in later)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**64 - 1), st.data())
def test_word_coins_give_the_masks_of_float_coins(seed, data):
    """The cached coins are words, compared by sampling._below; the drawn
    sets equal the float coins below p, at random rates and at rates equal
    to a coin's variate (that coin is not below it), as floats and as
    Fractions."""
    stream = RngStream(seed).child("trial", 0)
    for graph in (COIN_GRAPH, COIN_DIGRAPH):
        floats = drawn_and_floats(graph, 0.0, stream)[1]
        coin = float(floats[data.draw(st.integers(0, len(floats) - 1))])
        rates = [data.draw(st.floats(0, 1)), coin, np.nextafter(coin, 2.0), Fraction(coin),
                 Fraction(coin) + Fraction(1, 2**80)]
        for p in rates:
            got = drawn_and_floats(graph, p, stream)[0]
            assert np.array_equal(got, floats < p) and not got.flags.writeable


# --- the per-root search memo ------------------------------------------------------------


def test_unprotected_processes_equal_a_fresh_spread():
    h = random_regular_graph(60, 3, 4)
    dg = random_two_regular_digraph(60, 4)
    for i in range(5):
        stream = RngStream(0x5EA).child(i)
        for graph, process, drawn in (
            (h, thm3_process, "protected_edges"),
            (dg, thm4_process, "resilient_vertices"),
        ):
            for r in (0, 17, 59):
                state = process(graph, 0.0, r, stream)
                assert (ids(state.infected), state.round_trace) == ref_bootstrap_percolate(
                    out_lists(graph), {r}, 1)
                assert state.infected is process(graph, 0.0, r, stream).infected
                # the drawn set is the process's own, not the memo's
                assert not getattr(state, drawn).any()
                assert getattr(state, drawn) is not getattr(process(graph, 0.0, r, stream), drawn)


def test_each_root_has_its_own_entry():
    # a path: the search from an end has more rounds than from the middle
    h = Graph(7, [(i, i + 1) for i in range(6)])
    stream = RngStream(1)
    end, middle = thm3_process(h, 0.0, 0, stream), thm3_process(h, 0.0, 3, stream)
    assert end.round_trace == (1,) * 7 and middle.round_trace == (1, 2, 2, 2)
    assert thm3_process(h, 0.0, 0, stream).round_trace == (1,) * 7
    assert sorted(h._searches) == [0, 3]
    dg = DiGraph(4, [(0, 1), (1, 2), (2, 3)])
    assert ids(reachable_set(dg, 1)) == {1, 2, 3} and ids(reachable_set(dg, 0)) == {0, 1, 2, 3}
    assert thm4_process(dg, 0.0, 2, stream).round_trace == (1, 1)


def test_memo_masks_are_read_only():
    h = random_regular_graph(20, 3, 2)
    dg = random_two_regular_digraph(20, 2)
    stream = RngStream(2)
    for found in (
        thm3_process(h, 0.0, 0, stream).infected,
        connected_component(h, 5),
        thm4_process(dg, 0.0, 0, stream).infected,
        reachable_set(dg, 3),
    ):
        with pytest.raises(ValueError):
            found[0] = not found[0]
    assert all(not m.flags.writeable for g in (h, dg) for m, _, _ in g._searches.values())
    # every entry keeps the levels of its root, read-only, whichever
    # search made it
    for levels in [levels for g in (h, dg) for _, _, levels in g._searches.values()]:
        assert levels.dtype == np.int32 and not levels.flags.writeable
        with pytest.raises(ValueError):
            levels[0] = 1


def test_processes_with_a_drawn_set_never_read_the_memo():
    # the name predates the replay: a process with a drawn set now reads
    # its root's memoised levels and replays them up to the first level
    # that holds a vertex whose threshold is not 1
    h = random_regular_graph(30, 3, 3)
    dg = random_two_regular_digraph(30, 3)
    stream = RngStream(0xBAD)
    for graph in (h, dg):
        assert graph._searches is None
    three = thm3_process(h, 1.0, 0, stream)
    four = thm4_process(dg, 0.5, 0, stream)
    for graph in (h, dg):
        # one search of the root, as a fresh search finds it
        (root, (found, trace, levels)), = graph._searches.items()
        assert root == 0 and (ids(found), trace) == ref_bootstrap_percolate(out_lists(graph), {0}, 1)
        assert np.where(found, levels, -1).tolist() == bfs_levels(graph, 0)
        assert not levels.flags.writeable
    assert (ids(three.infected), three.round_trace) == ref_thm3_process(h, 0, three.protected_edges)
    want = ref_bootstrap_percolate(out_lists(dg), {0}, np.where(four.resilient_vertices, math.inf, 1))
    assert four.resilient_vertices.any()
    assert (ids(four.infected), four.round_trace) == want
    # a process replays the entry that a component search made, which
    # it leaves as it was
    comp = connected_component(h, 7)
    entry = h._searches[7]
    for p in (0.0, 0.05, 0.3):
        got = thm3_process(h, p, 7, stream)
        assert h._searches[7] is entry and entry[0] is comp
        assert (ids(got.infected), got.round_trace) == ref_thm3_process(h, 7, got.protected_edges)


# --- the replay of the memoised search ------------------------------------------------


def spread_from(g, r, thresholds):
    """_spread_from with float thresholds from {0, 1, 2, inf}: the ids
    that are not 1, inf as the arc count plus one."""
    hit = np.flatnonzero(thresholds != 1)
    values = np.minimum(thresholds[hit], g._arc_view().arcs + 1).astype(np.intp)
    return _spread_from(g, r, hit, values)


def check_replay(g, r, thresholds):
    infected, trace = spread_from(g, r, thresholds)
    assert (ids(infected), trace) == ref_bootstrap_percolate(out_lists(g), {r}, thresholds)
    assert not infected.flags.writeable


def disjoint(*parts):
    """The disjoint union of graphs, ids shifted part by part."""
    edges, n = [], 0
    for part in parts:
        edges += (part.edges + n).tolist()
        n += part.n
    return Graph(n, edges)


def built(make, *args):
    try:
        return make(*args)
    except GenerationError:
        assume(False)


replay_graphs = st.one_of(
    st.integers(1, 12).map(path_graph),
    st.tuples(st.integers(1, 7), st.integers(3, 7)).map(
        lambda c: disjoint(path_graph(c[0]), cycle_graph(c[1]), Graph(1, []))),
    st.tuples(st.sampled_from([4, 6, 8, 12, 20]), st.integers(0, 40)).map(
        lambda c: (random_regular_graph, c[0], 3, c[1])),
    st.tuples(st.integers(3, 16), st.integers(0, 40)).map(
        lambda c: (random_two_regular_digraph, c[0], c[1])),
)

# mostly 1, so that most spreads replay some levels
REPLAY_THRESHOLDS = (1, 1, 1, 1, 0, 2, math.inf)


@settings(max_examples=300, deadline=None)
@given(replay_graphs, st.data())
def test_replay_matches_a_fresh_spread(case, data):
    g = case if isinstance(case, Graph) else built(*case)
    r = data.draw(st.integers(0, g.n - 1))
    thresholds = np.array(data.draw(st.lists(st.sampled_from(REPLAY_THRESHOLDS),
                                             min_size=g.n, max_size=g.n)), dtype=float)
    # one vertex of each class the replay treats apart: the root, the
    # first level and the vertices the root does not reach
    level = bfs_levels(g, r)
    for spot in ([r], [v for v in range(g.n) if level[v] == 1], [v for v in range(g.n) if level[v] < 0]):
        if spot:
            thresholds[data.draw(st.sampled_from(spot))] = data.draw(st.sampled_from((0, 2, math.inf)))
    if data.draw(st.booleans()):
        # the replay reads the entry that a component or reachability search made
        (connected_component if isinstance(g, Graph) else reachable_set)(g, r)
    check_replay(g, r, thresholds)
    found, trace, levels = g._searches[r]
    assert np.where(found, levels, -1).tolist() == level and not levels.flags.writeable


@settings(max_examples=150, deadline=None)
@given(replay_graphs, st.data())
def test_a_scalar_threshold_replays_as_the_equal_array(case, data):
    """_spread_from with one threshold for every vertex hit (thm3's 2,
    thm4's m + 1, and 0) gives the (mask, trace) of the equal array,
    and both equal a fresh spread; hit may repeat ids and hold r."""
    g = case if isinstance(case, Graph) else built(*case)
    r = data.draw(st.integers(0, g.n - 1))
    hit = np.array(data.draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n)), dtype=np.intp)
    for value in (0, 2, g.m + 1):
        got = _spread_from(g, r, hit, value)
        same = _spread_from(g, r, hit, np.full(len(hit), value, dtype=np.intp))
        assert np.array_equal(got[0], same[0]) and got[1] == same[1]
        thresholds = np.ones(g.n)
        thresholds[hit[hit != r]] = value
        assert (ids(got[0]), got[1]) == ref_bootstrap_percolate(out_lists(g), {r}, thresholds)


def test_replay_rules():
    # a path 0-...-5 from root 0, and an edge 6-7 that it does not reach
    g = disjoint(path_graph(6), path_graph(2))
    ones = np.ones(8)
    search = _search(g, 0)
    for v, t, trace in [
        (0, 2, None),  # the root's own threshold: the search itself
        (0, 0, None),
        (7, 2, None),  # unreached, and not 0: no bound
        (7, math.inf, None),
        (7, 0, (1, 2, 2, 1, 1, 1)),  # threshold 0 anywhere joins in round 1, then 6
        (1, 2, (1,)),  # the first level: nothing to replay
        (3, 2, (1, 1, 1)),  # rounds 1 and 2 replayed, then vertex 3 never joins
        (5, math.inf, (1, 1, 1, 1, 1)),
    ]:
        thresholds = ones.copy()
        thresholds[v] = t
        check_replay(g, 0, thresholds)
        infected, got = spread_from(g, 0, thresholds)
        if trace is None:
            assert infected is search[0] and got == search[1]
        else:
            assert got == trace


def rounds_counted(monkeypatch):
    """The frontier sizes of every round counted from now on."""
    calls, counts = [], _ArcView.counts
    monkeypatch.setattr(_ArcView, "counts", lambda self, frontier, ids: calls.append(len(ids))
                        or counts(self, frontier, ids))
    return calls


def test_replay_stops_once_the_component_has_joined(monkeypatch):
    # a cycle 0-...-7 and an edge 8-9 it does not reach; vertex 4, at
    # level 4, needs both neighbours, which the ball of radius 3 holds
    g = disjoint(cycle_graph(8), path_graph(2))
    _search(g, 0)
    calls = rounds_counted(monkeypatch)
    thresholds = np.ones(10)
    thresholds[4] = 2
    check_replay(g, 0, thresholds)
    # one round from the ball, in which the component's last vertex
    # joins, and no empty round after it
    assert calls == [7]


def test_replay_runs_to_an_empty_round_when_part_of_the_component_is_left_out(monkeypatch):
    # vertex 4 of the cycle never joins; the spread only knows that from
    # an empty round
    g = disjoint(cycle_graph(8), path_graph(2))
    _search(g, 0)
    calls = rounds_counted(monkeypatch)
    thresholds = np.ones(10)
    thresholds[4] = math.inf
    infected, trace = spread_from(g, 0, thresholds)
    assert ids(infected) == {0, 1, 2, 3, 5, 6, 7} and trace == (1, 2, 2, 2)
    assert calls == [7]


# --- the cached CSR arrays ------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(graphs)
def test_csr_lists_the_adjacency(case):
    n, edges = case
    g = Graph(n, edges)
    indptr, indices = g._csr_arrays()
    assert indptr.shape == (n + 1,) and indices.shape == (2 * g.m,)
    assert indptr[0] == 0
    assert [indices[indptr[v]:indptr[v + 1]].tolist() for v in range(n)] == list(map(sorted, out_lists(g)))
    assert g._csr_arrays()[0] is indptr and g._csr_arrays()[1] is indices


def test_csr_arrays_reject_writes():
    indptr, indices = Graph(3, [(0, 1), (1, 2)])._csr_arrays()
    with pytest.raises(ValueError):
        indptr[1] = 0
    with pytest.raises(ValueError):
        indices[0] = 2


# --- cached components ---------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(graphs, st.data())
def test_components_in_any_call_order(case, data):
    n, edges = case
    g = Graph(n, edges)
    order = data.draw(st.permutations(range(n)))
    got = {v: connected_component(g, v) for v in order}
    out = out_lists(g)
    for v in range(n):
        assert ids(got[v]) == frozenset(ref_bfs(out, v))
        assert connected_component(g, v) is got[v]


# --- the thm3 fixpoint audit ------------------------------------------------------------


def ref_thm3_fixpoint_violations(h, state):
    thresholds = [1] * h.n
    if state.protected_edges is not None:
        for a, b in h.edges[state.protected_edges].tolist():
            thresholds[a] = thresholds[b] = 2
    infected = ids(state.infected)
    out = out_lists(h)
    return [v for v in range(h.n) if v not in infected and sum(w in infected for w in out[v]) >= thresholds[v]]


@settings(max_examples=200, deadline=None)
@given(graphs, st.data())
def test_thm3_audit_matches_the_walk(case, data):
    n, edges = case
    h = Graph(n, edges)
    infected = data.draw(masks(n))
    protected = data.draw(st.none() | masks(h.m))
    state = PercolationState(infected, (int(infected.sum()),), protected_edges=protected)
    got = thm3_fixpoint_violations(h, state)
    assert got == ref_thm3_fixpoint_violations(h, state)
    assert all(type(v) is int for v in got)


@pytest.mark.parametrize("n", (10, 200))
def test_thm3_audit_clean_at_fixpoints(n):
    for seed in range(3):
        h = random_regular_graph(n, 3, seed)
        for p in (0.0, 0.1, 0.5, 1.0):
            state = thm3_process(h, p, 0, RngStream(seed).child("audit"))
            assert thm3_fixpoint_violations(h, state) == ref_thm3_fixpoint_violations(h, state) == []


# --- the thm4 fixpoint audit ------------------------------------------------------------


def ref_thm4_fixpoint_violations(h, state):
    """The out-boundary of the fixpoint over the CSR, minus R."""
    blocked = frozenset() if state.resilient_vertices is None else ids(state.resilient_vertices)
    return sorted(ids(vertex_boundary(h, state.infected)) - blocked)


@settings(max_examples=200, deadline=None)
@given(digraphs, st.data())
def test_thm4_audit_matches_the_boundary(case, data):
    n, arc_list = case
    h = DiGraph(n, arc_list)
    infected = data.draw(masks(n))
    blocked = data.draw(st.none() | masks(n))
    state = PercolationState(infected, (int(infected.sum()),), resilient_vertices=blocked)
    got = thm4_fixpoint_violations(h, state)
    assert got == ref_thm4_fixpoint_violations(h, state)
    assert all(type(v) is int for v in got)


@settings(max_examples=200, deadline=None)
@given(graphs, digraphs, st.data())
def test_audits_of_full_and_nearly_full_masks_match_the_count(case, dicase, data):
    """The audits return early on a full mask; with every vertex infected,
    or all but one, they still agree with the full counts. Returning
    early on a mask with any vertex infected fails the second case."""
    (n, edges), (dn, arc_list) = case, dicase
    h, dg = Graph(n, edges), DiGraph(dn, arc_list)
    protected = data.draw(st.none() | masks(h.m))
    blocked = data.draw(st.none() | masks(dn))
    for graph, audit, ref, state_of in (
        (h, thm3_fixpoint_violations, ref_thm3_fixpoint_violations,
         lambda infected: PercolationState(infected, (0,), protected_edges=protected)),
        (dg, thm4_fixpoint_violations, ref_thm4_fixpoint_violations,
         lambda infected: PercolationState(infected, (0,), resilient_vertices=blocked)),
    ):
        for out in range(-1, graph.n):  # -1 leaves every vertex infected
            state = state_of(np.arange(graph.n) != out)
            assert audit(graph, state) == ref(graph, state)


def test_thm4_audit_reads_the_arc_rows_not_the_csr():
    """The fixpoints battery, spread over the in-CSR in place of the
    out-CSR: the states are then not fixpoints of the digraph's arcs,
    and an audit that counted over the same CSR would not see it."""
    dg = random_two_regular_digraph(60, 0)
    tails, heads = dg.arcs.T
    dg._csr = _csr(dg.n, heads, tails)
    root = RngStream(0xF1C)
    flagged = 0
    for i in range(20):
        for p in (0.0, 0.05, 0.3):
            state = thm4_process(dg, p, 0, root.child("block", i))
            flagged += bool(thm4_fixpoint_violations(dg, state))
            assert ref_thm4_fixpoint_violations(dg, state) == []
    assert flagged > 0


def test_state_masks_are_read_only():
    h = random_regular_graph(20, 3, 1)
    dg = random_two_regular_digraph(20, 1)
    stream = RngStream(3).child("masks")
    states = [
        bootstrap_percolate(h, np.arange(h.n) == 0, [2] * h.n),
        thm3_process(h, 0.3, 0, stream),
        thm4_process(dg, 0.3, 0, stream),
    ]
    for state in states:
        for mask in (state.infected, state.protected_edges, state.resilient_vertices):
            if mask is not None:
                assert mask.dtype == bool and not mask.flags.writeable
                with pytest.raises(ValueError):
                    mask[0] = True


def test_audits_reject_masks_of_the_wrong_length():
    h = random_regular_graph(20, 3, 1)
    dg = random_two_regular_digraph(20, 1)
    stream = RngStream(3).child("masks")
    three = thm3_process(h, 0.3, 0, stream)
    four = thm4_process(dg, 0.3, 0, stream)
    short = np.zeros(19, dtype=bool)
    for audit, graph, state in (
        (thm3_fixpoint_violations, h, dataclasses.replace(three, infected=short)),
        (thm3_fixpoint_violations, h, dataclasses.replace(three, protected_edges=short)),
        (thm4_fixpoint_violations, dg, dataclasses.replace(four, infected=short)),
        (thm4_fixpoint_violations, dg, dataclasses.replace(four, resilient_vertices=short)),
    ):
        with pytest.raises(InputError):
            audit(graph, state)


# --- super-vertex classification ----------------------------------------------------------


def ref_survivor_table(core, layout):
    table = [[0] * layout.layers for _ in range(layout.n_super)]
    for v in core:
        table[layout.h_vertex_of(v)][layout.layer_of(v) - 1] += 1
    return table


def status_of(cls):
    """Each super-vertex's most specific class."""
    return tuple(
        "dead" if d else "nearly_dead" if nd else "alive"
        for d, nd in zip(cls.dead.tolist(), cls.nearly_dead.tolist())
    )


def check_classification(g_half, layout, t, h):
    table = ref_survivor_table(ids(t_core(g_half, t)), layout)
    status = tuple("dead" if sum(row) == 0 else "alive" for row in table)
    dead = {v for v, st in enumerate(status) if st == "dead"}
    root = min(dead, default=0)
    cls = classify_supervertices_thm3(g_half, layout, t, root=root, h=h)
    assert status_of(cls) == status
    assert cls.surviving_count.tolist() == table
    assert cls.surviving_count.dtype.kind == "i"
    assert ids(cls.dead) == dead
    assert ids(cls.dead_component) == frozenset(ref_bfs(out_lists(h), root, dead))
    return table


def patchy_sample(g, layout, seed):
    """Keeps an edge at a rate drawn per super-vertex of its lower end, so
    the core survives in some super-vertices and dies in others."""
    rng = np.random.default_rng(seed)
    rate = rng.uniform(0, 1, layout.n_super)
    return g.with_edges(rng.random(g.m) < rate[layout.h_vertex_of(g.edges).min(axis=1)])


@pytest.mark.parametrize("m", (1, 4))
def test_classification_matches_the_loop_on_blow_ups(m):
    h = random_regular_graph(40, 3, 5)
    g, layout = blow_up(h, m)
    for seed in range(3):
        half = patchy_sample(g, layout, seed)
        for t in range(3 * m + 2):
            check_classification(half, layout, t, h)


def test_classification_matches_the_loop_on_gadgets():
    params = ConstructionParams.thm4(12, 3)
    base = random_two_regular_digraph(12, 3)
    g, layout = gadget_blow_up(base, params)
    h = Graph(base.n, {(min(a), max(a)) for a in base.arcs.tolist()})
    for seed in range(3):
        half = patchy_sample(g, layout, seed)
        for t in range(params.t + 1):
            check_classification(half, layout, t, h)
        table = ref_survivor_table(ids(t_core(half, params.t)), layout)
        cls = resilient_pair_detect(half, layout, params)
        assert cls.surviving_count.tolist() == table
        assert ids(cls.dead) == {v for v, row in enumerate(table) if sum(row) == 0}


def ref_resilient(edge_graph, layout, params):
    k, s = params.k, params.s

    out = out_lists(edge_graph)

    def edges_into_layer(vertex, super_v, layer):
        return sum(1 for w in out[vertex] if layout.h_vertex_of(w) == super_v and layout.layer_of(w) == layer)

    resilient = []
    for v in range(layout.n_super):
        found = False
        for j in range(1, s + 3):
            for lo, hi in ((j, j + 1), (j + 1, j)):
                good = sum(1 for x in (layout_id(layout, v, lo, pos) for pos in range(layout.m)) if edges_into_layer(x, v, hi) * 4 >= k)
                if good * s >= k:
                    found = True
                    break
            if found:
                break
        resilient.append(found)
    return tuple(resilient)


def ref_status(table, params):
    k, s = params.k, params.s
    return tuple(
        "dead" if sum(row) == 0
        else "nearly_dead" if all(row[j - 1] * s < k for j in range(2, s + 3))
        else "alive"
        for row in table
    )


def gadget_case(k, s, n, seed):
    params = ConstructionParams.thm4(k, s)
    base = random_two_regular_digraph(n, seed)
    g, layout = gadget_blow_up(base, params)
    return params, base, g, layout


@pytest.mark.parametrize("k, s", ((12, 3), (24, 4)))
def test_resilient_pairs_match_the_loop(k, s):
    gadget, _, g, layout = gadget_case(k, s, 12, 3)
    seen = set()
    # at the gadget's own t almost every patchy sample loses its whole core
    for seed, t in enumerate(range(2, gadget.t + 1, 2)):
        params = dataclasses.replace(gadget, t=t)
        half = patchy_sample(g, layout, seed)
        round2 = patchy_sample(g, layout, seed + 100)
        for edge_graph in (None, round2, g):
            cls = resilient_pair_detect(half, layout, params, edge_graph=edge_graph)
            table = ref_survivor_table(ids(t_core(half, params.t)), layout)
            assert status_of(cls) == ref_status(table, params)
            assert cls.surviving_count.tolist() == table
            assert tuple(cls.resilient.tolist()) == ref_resilient(edge_graph or half, layout, params)
            assert cls.resilient.dtype == bool
            seen.update(cls.resilient.tolist())
            seen.update(status_of(cls))
    # the samples hold resilient and non-resilient super-vertices alike
    assert {True, False} <= seen
    assert {"dead", "nearly_dead", "alive"} <= seen


def test_boundary_audit_matches_the_search():
    gadget, base, g, layout = gadget_case(12, 3, 20, 0)
    out = out_lists(base)
    sizes, violations = set(), set()
    for t, seed in ((3, 0), (3, 1), (3, 2), (6, 0), (6, 1)):
        params = dataclasses.replace(gadget, t=t)
        round2 = patchy_sample(g, layout, seed)
        final = patchy_sample(round2, layout, seed + 100)
        cls = resilient_pair_detect(final, layout, params, edge_graph=round2)
        for root in range(0, base.n, 3):
            report = boundary_resilience_audit(base, layout, params, final, round2, root)
            t_set = frozenset(ref_bfs(out, root, ids(cls.nearly_dead)))
            boundary = frozenset(w for v in t_set for w in out[v]) - t_set
            assert ids(report.reachable_nearly_dead) == t_set
            assert ids(report.boundary) == boundary
            assert ids(report.violations) == {v for v in boundary if not cls.resilient[v]}
            assert report.holds == (not report.violations.any())
            sizes.add(len(t_set))
            violations.add(int(report.violations.sum()))
    # roots that reach nothing, part of the digraph and all of it; audits
    # that hold and audits that fail
    assert {1, base.n} <= sizes and len(sizes) > 4
    assert 0 in violations and len(violations) > 2


# --- the restricted searches replay the memo ----------------------------------------


def fresh(h):
    """h built anew, so its memo is empty."""
    if isinstance(h, DiGraph):
        return DiGraph(h.n, h.arcs, arc_colour=h.arc_colour, validate=False)
    return Graph(h.n, h.edges, validate=False)


# what the memo holds for the root before a restricted search
MEMO = ("nothing", "search", "process")


def held(h, root, memo, p):
    """fresh(h), its memo holding root's plain search or a process's replay
    from root, or nothing."""
    h = fresh(h)
    directed = isinstance(h, DiGraph)
    if memo == "search":
        (reachable_set if directed else connected_component)(h, root)
    elif memo == "process":
        (thm4_process if directed else thm3_process)(h, p, root, RngStream(root))
    return h


def digraph_union(a, b):
    """The disjoint union of two coloured digraphs, b's ids shifted."""
    return DiGraph(a.n + b.n, np.concatenate((a.arcs, b.arcs + a.n)),
                   arc_colour=a.arc_colour + b.arc_colour, validate=False)


blow_up_bases = st.one_of(
    st.tuples(st.sampled_from([4, 6, 8, 10]), st.integers(0, 40)).map(
        lambda c: (random_regular_graph, c[0], 3, c[1])),
    st.tuples(st.integers(1, 5), st.integers(3, 6)).map(
        lambda c: disjoint(path_graph(c[0]), cycle_graph(c[1]), Graph(1, []))),
)


@settings(max_examples=60, deadline=None)
@given(blow_up_bases, st.integers(1, 3), st.integers(0, 2**32 - 1), st.data())
def test_dead_components_do_not_depend_on_the_memo(case, m, seed, data):
    h = case if isinstance(case, Graph) else built(*case)
    g, layout = blow_up(h, m)
    half = patchy_sample(g, layout, seed)
    t = data.draw(st.integers(0, 3 * m + 1), "t")
    table = ref_survivor_table(ids(t_core(half, t)), layout)
    dead = {v for v, row in enumerate(table) if sum(row) == 0}
    p = data.draw(st.sampled_from((0.0, 0.2, 0.6, 1.0)), "p")
    out = out_lists(h)
    for root in range(h.n):
        want = frozenset(ref_bfs(out, root, dead))
        for memo in MEMO:
            base = held(h, root, memo, p)
            found = classify_supervertices_thm3(half, layout, t, root=root, h=base).dead_component
            assert ids(found) == want and not found.flags.writeable
            # the replay leaves the root's entry in the memo
            assert root in base._searches


gadget_bases = st.one_of(
    st.tuples(st.integers(3, 10), st.integers(0, 40)).map(
        lambda c: (random_two_regular_digraph, c[0], c[1])),
    st.tuples(st.integers(3, 5), st.integers(3, 5), st.integers(0, 40)).map(
        lambda c: (lambda: digraph_union(random_two_regular_digraph(c[0], c[2]),
                                         random_two_regular_digraph(c[1], c[2] + 1)),)),
)


@settings(max_examples=40, deadline=None)
@given(gadget_bases, st.integers(0, 2**32 - 1), st.data())
def test_nearly_dead_reach_does_not_depend_on_the_memo(case, seed, data):
    base = built(*case)
    gadget = ConstructionParams.thm4(12, 3)
    g, layout = gadget_blow_up(base, gadget)
    params = dataclasses.replace(gadget, t=data.draw(st.sampled_from((3, 6, gadget.t)), "t"))
    round2 = patchy_sample(g, layout, seed)
    final = patchy_sample(round2, layout, seed + 1)
    nearly_dead = ids(resilient_pair_detect(final, layout, params, edge_graph=round2).nearly_dead)
    out = out_lists(base)
    p = data.draw(st.sampled_from((0.0, 0.2, 0.6, 1.0)), "p")
    for root in range(base.n):
        want = frozenset(ref_bfs(out, root, nearly_dead))
        for memo in MEMO:
            h = held(base, root, memo, p)
            found = boundary_resilience_audit(h, layout, params, final, round2, root)
            assert ids(found.reachable_nearly_dead) == want
            assert not found.reachable_nearly_dead.flags.writeable
            assert root in h._searches
