import math
import random

import numpy as np
import pytest

from randcol.colouring import t_core
from randcol.errors import InputError
from randcol.generators import (
    ConstructionParams,
    blow_up,
    gadget_blow_up,
    random_regular_graph,
)
from randcol.graphs import DiGraph, Graph, connected_component, reachable_set
from randcol.percolation import (
    BoundaryResilienceReport,
    PercolationState,
    bootstrap_percolate,
    boundary_resilience_audit,
    classify_supervertices_thm3,
    resilient_pair_detect,
    t_core_via_percolation,
    thm3_fixpoint_violations,
    thm3_process,
    thm4_fixpoint_violations,
    thm4_process,
)
from randcol.sampling import RngStream


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def ids(mask):
    """The vertex set of a state's mask."""
    return frozenset(np.flatnonzero(mask).tolist())


def same_state(a, b):
    return all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("infected", "round_trace", "protected_edges", "resilient_vertices")
    )


def base_digraph_4():
    arcs = [(i, (i + 1) % 4) for i in range(4)] + [(i, (i + 2) % 4) for i in range(4)]
    return DiGraph(4, arcs, arc_colour=["r"] * 4 + ["b"] * 4)


def async_percolate(g, seed, thresholds, rng):
    # unordered re-scan engine; must reach the same least fixpoint
    infected = set(seed)
    changed = True
    while changed:
        changed = False
        order = list(range(g.n))
        rng.shuffle(order)
        for v in order:
            if v not in infected:
                c = sum(1 for w in g.adjacency()[v] if w in infected)
                if c >= thresholds[v]:
                    infected.add(v)
                    changed = True
    return frozenset(infected)


# --- threshold engine ----------------------------------------------------------


def test_threshold_one_fills_component():
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (4, 5)])
    state = bootstrap_percolate(g, {0}, [1] * 7)
    assert ids(state.infected) == connected_component(g, 0)


def test_infinite_threshold_freezes():
    g = cycle_graph(5)
    state = bootstrap_percolate(g, {0, 2}, [math.inf] * 5)
    assert ids(state.infected) == frozenset({0, 2})
    assert state.round_trace == (2,)


def test_c4_opposite_seed():
    g = cycle_graph(4)
    state = bootstrap_percolate(g, {0, 2}, [2] * 4)
    assert ids(state.infected) == frozenset(range(4))
    assert state.round_trace == (2, 2)


def test_zero_threshold_self_ignites():
    g = Graph(3, [(0, 1)])
    state = bootstrap_percolate(g, set(), [math.inf, math.inf, 0])
    assert ids(state.infected) == frozenset({2})
    assert state.round_trace == (0, 1)


def test_engine_input_errors():
    g = cycle_graph(4)
    with pytest.raises(InputError):
        bootstrap_percolate(g, {9}, [1] * 4)
    with pytest.raises(InputError):
        bootstrap_percolate(g, {0}, [1] * 3)
    with pytest.raises(InputError):
        bootstrap_percolate(g, {0}, [1, 1, -1, 1])


def test_nan_threshold_is_an_error():
    with pytest.raises(InputError):
        bootstrap_percolate(cycle_graph(5), {0}, [math.nan] * 5)
    with pytest.raises(InputError):
        bootstrap_percolate(cycle_graph(5), set(), [1, 1, math.nan, 1, 0])


def test_trace_accounts_for_everything():
    g = random_graph(20, 0.2, 3)
    state = bootstrap_percolate(g, {0, 1, 2}, [2] * 20)
    assert sum(state.round_trace) == int(state.infected.sum())


def test_monotone_in_seed():
    g = random_graph(16, 0.25, 8)
    th = [2] * 16
    small = ids(bootstrap_percolate(g, {0, 3}, th).infected)
    big = ids(bootstrap_percolate(g, {0, 3, 7}, th).infected)
    assert small <= big


def test_order_independence_against_async_engine():
    rng = random.Random(0)
    for trial in range(25):
        g = random_graph(12, 0.3, trial)
        thresholds = [rng.choice([0, 1, 2, 3, math.inf]) for _ in range(12)]
        seed = {v for v in range(12) if rng.random() < 0.2}
        expected = ids(bootstrap_percolate(g, seed, thresholds).infected)
        assert async_percolate(g, seed, thresholds, rng) == expected


# --- t-core equivalence ----------------------------------------------------------


def test_core_via_percolation_examples():
    petersen = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                     + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                     + [(i, i + 5) for i in range(5)])
    assert ids(t_core_via_percolation(petersen, 3)) == frozenset(range(10))
    k4_minus = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert ids(t_core_via_percolation(k4_minus, 3)) == frozenset()


def test_core_via_percolation_matches_peeling():
    rng = random.Random(42)
    for _ in range(100):
        n = rng.randrange(2, 26)
        g = random_graph(n, rng.uniform(0.05, 0.6), rng.randrange(10**6))
        top = max(g.degrees(), default=0) + 1
        for t in range(top + 1):
            assert ids(t_core_via_percolation(g, t)) == t_core(g, t)


# --- first spread process ---------------------------------------------------------


def test_thm3_p_zero_fills_component():
    g = Graph(6, [(0, 1), (1, 2), (3, 4)])
    state = thm3_process(g, 0.0, 0, RngStream(1).child("trial"))
    assert ids(state.infected) == connected_component(g, 0)
    assert not state.protected_edges.any()


def test_thm3_p_one_triangle_free_freezes():
    g = cycle_graph(6)
    state = thm3_process(g, 1.0, 2, RngStream(1).child("trial"))
    assert ids(state.infected) == frozenset({2})
    assert state.protected_edges.all()


def test_thm3_deterministic():
    g = random_regular_graph(20, 3, 4)
    a = thm3_process(g, 0.3, 0, RngStream(9).child("t"))
    b = thm3_process(g, 0.3, 0, RngStream(9).child("t"))
    assert same_state(a, b)


def test_thm3_coupled_sweep_is_monotone():
    g = random_regular_graph(30, 3, 6)
    stream = RngStream(17).child("sweep")
    infected = [ids(thm3_process(g, p, 0, stream).infected) for p in (0.001, 0.01, 0.1, 0.6)]
    for bigger_p_set, smaller_p_set in zip(infected[1:], infected):
        assert bigger_p_set <= smaller_p_set


def test_thm3_fixpoint_audit_clean():
    for seed in range(10):
        g = random_regular_graph(24, 3, seed)
        state = thm3_process(g, 0.15, seed % 24, RngStream(seed).child("x"))
        assert thm3_fixpoint_violations(g, state) == []


def test_thm3_fixpoint_audit_detects_breakage():
    g = cycle_graph(5)
    state = thm3_process(g, 0.0, 0, RngStream(0).child("x"))
    broken = PercolationState(
        infected=np.arange(5) == 0,
        round_trace=(1,),
        protected_edges=state.protected_edges,
    )
    assert thm3_fixpoint_violations(g, broken) != []


def test_thm3_input_errors():
    g = cycle_graph(4)
    with pytest.raises(InputError):
        thm3_process(g, -0.1, 0, RngStream(0))
    with pytest.raises(InputError):
        thm3_process(g, 0.5, 4, RngStream(0))


# --- second spread process ---------------------------------------------------------


def test_thm4_extremes():
    h = base_digraph_4()
    assert ids(thm4_process(h, 0.0, 1, RngStream(0).child("t")).infected) == reachable_set(h, 1)
    state = thm4_process(h, 1.0, 1, RngStream(0).child("t"))
    assert ids(state.infected) == frozenset({1})
    assert state.resilient_vertices.all()


def test_thm4_boundary_audit():
    from randcol.generators import random_two_regular_digraph

    for seed in range(12):
        h = random_two_regular_digraph(30, seed)
        state = thm4_process(h, 0.3, seed % 30, RngStream(seed).child("y"))
        assert thm4_fixpoint_violations(h, state) == []
        assert ids(state.infected) <= reachable_set(h, seed % 30)


def test_thm4_coupled_sweep_is_monotone():
    from randcol.generators import random_two_regular_digraph

    h = random_two_regular_digraph(40, 3)
    stream = RngStream(5).child("sweep")
    sets = [ids(thm4_process(h, p, 0, stream).infected) for p in (0.0, 0.05, 0.2, 0.9)]
    for bigger_p_set, smaller_p_set in zip(sets[1:], sets):
        assert bigger_p_set <= smaller_p_set


def test_thm4_deterministic():
    h = base_digraph_4()
    a = thm4_process(h, 0.5, 0, RngStream(2).child("t"))
    b = thm4_process(h, 0.5, 0, RngStream(2).child("t"))
    assert same_state(a, b)


# --- super-vertex classification ------------------------------------------------


def test_classify_blowup_extremes():
    g, layout = blow_up(cycle_graph(4), 3)
    all_alive = classify_supervertices_thm3(g, layout, 0)
    assert set(all_alive.status) == {"alive"}
    assert all_alive.surviving_count == tuple((3,) for _ in range(4))
    all_dead = classify_supervertices_thm3(g, layout, 7)  # G is 6-regular
    assert set(all_dead.status) == {"dead"}


def test_classify_isolated_super_dies():
    g, layout = blow_up(cycle_graph(4), 3)
    pruned = g.with_edges(~(layout.h_vertex_of(g.edges) == 2).any(axis=1))
    cls = classify_supervertices_thm3(pruned, layout, 1)
    assert cls.status == ("alive", "alive", "dead", "alive")


def test_classify_dead_component():
    h = cycle_graph(4)
    g, layout = blow_up(h, 3)
    pruned = g.with_edges(~np.isin(layout.h_vertex_of(g.edges), (1, 2)).any(axis=1))
    cls = classify_supervertices_thm3(pruned, layout, 1, root=1, h=h)
    assert cls.dead_component == frozenset({1, 2})
    with pytest.raises(InputError):
        classify_supervertices_thm3(pruned, layout, 1, root=1)


def test_classify_rejects_mismatched_layout():
    g, layout = blow_up(cycle_graph(4), 3)
    with pytest.raises(InputError):
        classify_supervertices_thm3(cycle_graph(5), layout, 1)


# --- resilient pairs --------------------------------------------------------------


def members(layout, super_v, layer):
    return [layout.vertex_id(super_v, layer, pos) for pos in range(layout.m)]


def gadget_12_3():
    params = ConstructionParams.thm4(12, 3)
    g, layout = gadget_blow_up(base_digraph_4(), params)
    return g, layout, params


def test_resilient_full_graph():
    g, layout, params = gadget_12_3()
    cls = resilient_pair_detect(g, layout, params)
    assert set(cls.status) == {"alive"}
    assert cls.resilient == (True,) * 4
    assert cls.surviving_count == tuple((4,) * 6 for _ in range(4))


def test_resilient_empty_graph():
    g, layout, params = gadget_12_3()
    empty = Graph(g.n, [])
    cls = resilient_pair_detect(empty, layout, params)
    assert set(cls.status) == {"dead"}
    assert all(cls.is_nearly_dead(v) for v in range(4))
    assert cls.resilient == (False,) * 4


def test_resilient_hand_built_threshold():
    g, layout, params = gadget_12_3()
    empty = Graph(g.n, [])
    # exactly k/s = 4 vertices of I_2(0), each with k/4 = 3 surviving
    # edges into I_3(0)
    block = []
    for a in members(layout, 0, 2):
        for b in list(members(layout, 0, 3))[:3]:
            block.append((a, b))
    cls = resilient_pair_detect(empty, layout, params, edge_graph=Graph(g.n, block))
    assert cls.resilient == (True, False, False, False)
    # one sender short of the size threshold: not resilient
    senders = list(members(layout, 0, 2))[:3]
    short = [e for e in block if e[0] in senders]
    cls2 = resilient_pair_detect(empty, layout, params, edge_graph=Graph(g.n, short))
    assert cls2.resilient == (False, False, False, False)
    # mirror direction must count too: 4 receivers each sending 3 back
    mirror = []
    for b in members(layout, 0, 3):
        for a in list(members(layout, 0, 2))[:3]:
            mirror.append((b, a))
    cls3 = resilient_pair_detect(empty, layout, params, edge_graph=Graph(g.n, mirror))
    assert cls3.resilient == (True, False, False, False)


def test_resilient_rejects_wrong_mode():
    g, layout, params = gadget_12_3()
    with pytest.raises(InputError):
        resilient_pair_detect(g, layout, ConstructionParams.thm3(12, 0.05))


# --- boundary resilience audit ------------------------------------------------------


def test_boundary_resilience_full_survival_holds():
    g, layout, params = gadget_12_3()
    h = base_digraph_4()
    rep = boundary_resilience_audit(h, layout, params, g, g, root=0)
    assert rep.reachable_nearly_dead == frozenset({0})
    assert rep.boundary == frozenset({1, 2})
    assert rep.holds


def test_boundary_resilience_total_death_vacuous():
    g, layout, params = gadget_12_3()
    h = base_digraph_4()
    empty = Graph(g.n, [])
    rep = boundary_resilience_audit(h, layout, params, empty, empty, root=0)
    assert rep.reachable_nearly_dead == frozenset(range(4))
    assert rep.boundary == frozenset()
    assert rep.holds


def test_boundary_resilience_reports_violations():
    g, layout, params = gadget_12_3()
    h = base_digraph_4()
    empty = Graph(g.n, [])
    rep = boundary_resilience_audit(h, layout, params, g, empty, root=0)
    assert rep.boundary == frozenset({1, 2})
    assert rep.violations == (1, 2)
    assert not rep.holds
