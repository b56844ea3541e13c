"""The array rounds of bootstrap_percolate, the cached CSR arrays, the
cached components, the two fixpoint audits and the super-vertex
classification against the code they replaced, kept here as the
reference: the per-edge round loop of bootstrap_percolate (with the list
thresholds of thm3_process), a breadth-first search per
connected_component call, the thm3 audit's walk over every vertex's
neighbours, the thm4 audit's out-boundary over the CSR, the per-vertex
survivor table, the breadth-first search through an allowed set that
grew the dead component and the nearly-dead reachable set, and the
per-vertex edge count of the resilient pairs."""

import dataclasses
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randcol.colouring import t_core
from randcol.errors import InputError
from randcol.generators import (
    ConstructionParams,
    blow_up,
    gadget_blow_up,
    random_regular_graph,
    random_two_regular_digraph,
)
from randcol.graphs import DiGraph, Graph, _csr, connected_component, vertex_boundary
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


def pairs(n):
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return st.sets(pair.map(lambda e: (min(e), max(e))), max_size=3 * n)


# sparse edge sets up to n = 30 leave isolated vertices in many draws
graphs = st.integers(0, 30).flatmap(lambda n: st.tuples(st.just(n), pairs(n) if n else st.just(set())))

THRESHOLDS = (0, 1, 2, 3, 1.5, math.inf)


def ids(mask):
    """The vertex set of a state's mask."""
    return frozenset(np.flatnonzero(mask).tolist())


def masks(size):
    return st.lists(st.booleans(), min_size=size, max_size=size).map(lambda b: np.array(b, dtype=bool))


# --- the per-edge loop and BFS reference ----------------------------------------


def ref_bootstrap_percolate(g, initially_infected, threshold_of):
    seed = frozenset(initially_infected)
    for v in seed:
        if not (0 <= v < g.n):
            raise InputError(f"seed vertex {v} out of range")
    thresholds = list(threshold_of)
    if len(thresholds) != g.n:
        raise InputError("threshold sequence length must equal vertex count")
    for v, th in enumerate(thresholds):
        if th < 0:
            raise InputError(f"negative threshold at vertex {v}")
    adj = g.adjacency()
    infected = set(seed)
    counts = [0] * g.n
    trace = [len(seed)]
    current = seed
    auto = [v for v in range(g.n) if v not in infected and thresholds[v] <= 0]
    while True:
        nxt = set(auto)
        auto = []
        for v in current:
            for w in adj[v]:
                if w not in infected:
                    counts[w] += 1
                    if counts[w] >= thresholds[w]:
                        nxt.add(w)
        nxt -= infected
        if not nxt:
            break
        infected |= nxt
        trace.append(len(nxt))
        current = nxt
    return frozenset(infected), tuple(trace)


def ref_thm3_process(h, p_protect, r, rng):
    hit = rng.child("protect").uniforms(h.m) < p_protect
    protected = frozenset(tuple(e) for e, kept in zip(h.edges.tolist(), hit) if kept)
    thresholds = [1] * h.n
    for a, b in protected:
        thresholds[a] = thresholds[b] = 2
    infected, trace = ref_bootstrap_percolate(h, {r}, thresholds)
    return infected, trace, protected


def ref_connected_component(g, v):
    adj = g.adjacency()
    seen = {v}
    queue = deque([v])
    while queue:
        for w in adj[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return frozenset(seen)


# --- bootstrap percolation -----------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(graphs, st.data())
def test_bootstrap_matches_edge_loop(case, data):
    n, edges = case
    g = Graph(n, edges)
    vertices = st.integers(0, n - 1) if n else st.nothing()
    seed = data.draw(st.sets(vertices, max_size=n))
    thresholds = data.draw(st.lists(st.sampled_from(THRESHOLDS), min_size=n, max_size=n))
    got = bootstrap_percolate(g, seed, thresholds)
    assert (ids(got.infected), got.round_trace) == ref_bootstrap_percolate(g, seed, thresholds)
    assert got.infected.dtype == bool and got.infected.shape == (n,)
    assert all(type(k) is int for k in got.round_trace)


@pytest.mark.parametrize("n", (10, 50, 200))
def test_thm3_process_matches_edge_loop(n):
    for seed in range(4):
        h = random_regular_graph(n, 3, seed)
        for p in (0.0, 0.1, 0.5, 1.0):
            for r in (0, n - 1):
                stream = RngStream(seed).child("trial", r)
                got = thm3_process(h, p, r, stream)
                infected, trace, protected = ref_thm3_process(h, p, r, stream)
                assert (ids(got.infected), got.round_trace) == (infected, trace)
                assert set(map(tuple, h.edges[got.protected_edges].tolist())) == protected


# --- the cached CSR arrays ------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(graphs)
def test_csr_lists_the_adjacency(case):
    n, edges = case
    g = Graph(n, edges)
    indptr, indices = g._csr_arrays()
    assert indptr.shape == (n + 1,) and indices.shape == (2 * g.m,)
    assert indptr[0] == 0
    assert [tuple(indices[indptr[v]:indptr[v + 1]].tolist()) for v in range(n)] == list(g.adjacency())
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
    for v in range(n):
        assert got[v] == ref_connected_component(g, v)
        # every vertex of a component gets the one frozenset searched for it
        assert all(got[w] is got[v] for w in got[v])
        assert connected_component(g, v) is got[v]


# --- the thm3 fixpoint audit ------------------------------------------------------------


def ref_thm3_fixpoint_violations(h, state):
    thresholds = [1] * h.n
    if state.protected_edges is not None:
        for a, b in h.edges[state.protected_edges].tolist():
            thresholds[a] = thresholds[b] = 2
    infected = ids(state.infected)
    return [
        v for v in range(h.n)
        if v not in infected
        and sum(1 for w in h.adjacency()[v] if w in infected) >= thresholds[v]
    ]


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
    return sorted(vertex_boundary(h, ids(state.infected)) - blocked)


def arcs(n):
    arc = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda a: a[0] != a[1])
    return st.lists(arc, max_size=3 * n, unique=True)


digraphs = st.integers(0, 30).flatmap(lambda n: st.tuples(st.just(n), arcs(n) if n else st.just([])))


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
        bootstrap_percolate(h, {0}, [2] * h.n),
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


def ref_bfs_levels(adj, root, allowed=None):
    seen = {root}
    level = [root]
    while level:
        yield level
        nxt = []
        for u in level:
            for w in adj[u]:
                if w not in seen and (allowed is None or w in allowed):
                    seen.add(w)
                    nxt.append(w)
        level = nxt


def ref_reached(adj, root, allowed=None):
    """Breadth-first from root over the neighbour lists adj, entering only
    `allowed` past the root, which is always in."""
    return frozenset(v for level in ref_bfs_levels(adj, root, allowed) for v in level)


def check_classification(g_half, layout, t, h):
    table = ref_survivor_table(t_core(g_half, t), layout)
    status = tuple("dead" if sum(row) == 0 else "alive" for row in table)
    dead = {v for v, st in enumerate(status) if st == "dead"}
    root = min(dead, default=0)
    cls = classify_supervertices_thm3(g_half, layout, t, root=root, h=h)
    assert cls.status == status
    assert cls.surviving_count == tuple(tuple(row) for row in table)
    assert all(type(c) is int for row in cls.surviving_count for c in row)
    assert cls.dead_set() == dead
    assert cls.dead_component == ref_reached(h.adjacency(), root, dead)
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
        table = ref_survivor_table(t_core(half, params.t), layout)
        cls = resilient_pair_detect(half, layout, params)
        assert cls.surviving_count == tuple(tuple(row) for row in table)
        assert cls.dead_set() == {v for v, row in enumerate(table) if sum(row) == 0}


def ref_resilient(edge_graph, layout, params):
    k, s = params.k, params.s

    def edges_into_layer(vertex, super_v, layer):
        return sum(
            1 for w in edge_graph.adjacency()[vertex]
            if layout.h_vertex_of(w) == super_v and layout.layer_of(w) == layer
        )

    resilient = []
    for v in range(layout.n_super):
        found = False
        for j in range(1, s + 3):
            for lo, hi in ((j, j + 1), (j + 1, j)):
                good = sum(1 for x in (layout.vertex_id(v, lo, pos) for pos in range(layout.m)) if edges_into_layer(x, v, hi) * 4 >= k)
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
            table = ref_survivor_table(t_core(half, params.t), layout)
            assert cls.status == ref_status(table, params)
            assert cls.surviving_count == tuple(tuple(row) for row in table)
            assert cls.resilient == ref_resilient(edge_graph or half, layout, params)
            assert all(type(r) is bool for r in cls.resilient)
            seen.update(cls.resilient)
            seen.update(cls.status)
    # the samples hold resilient and non-resilient super-vertices alike
    assert {True, False} <= seen
    assert {"dead", "nearly_dead", "alive"} <= seen


def test_boundary_audit_matches_the_search():
    gadget, base, g, layout = gadget_case(12, 3, 20, 0)
    out = [[] for _ in range(base.n)]
    for a, b in base.arcs.tolist():
        out[a].append(b)
    sizes, violations = set(), set()
    for t, seed in ((3, 0), (3, 1), (3, 2), (6, 0), (6, 1)):
        params = dataclasses.replace(gadget, t=t)
        round2 = patchy_sample(g, layout, seed)
        final = patchy_sample(round2, layout, seed + 100)
        cls = resilient_pair_detect(final, layout, params, edge_graph=round2)
        for root in range(0, base.n, 3):
            report = boundary_resilience_audit(base, layout, params, final, round2, root)
            t_set = ref_reached(out, root, cls.nearly_dead_set())
            boundary = frozenset(w for v in t_set for w in out[v]) - t_set
            assert report.reachable_nearly_dead == t_set
            assert report.boundary == boundary
            assert report.violations == tuple(sorted(v for v in boundary if not cls.resilient[v]))
            sizes.add(len(t_set))
            violations.add(len(report.violations))
    # roots that reach nothing, part of the digraph and all of it; audits
    # that hold and audits that fail
    assert {1, base.n} <= sizes and len(sizes) > 4
    assert 0 in violations and len(violations) > 2
