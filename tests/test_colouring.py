import itertools
import random

import numpy as np
import pytest

from randcol.errors import CapacityError, InputError
from randcol.colouring import (
    ColouringResult,
    EliminationOrder,
    chromatic_number_exact,
    colouring_number,
    product_colouring_check,
    t_core,
    t_core_with_trace,
)
from randcol.graphs import Graph


def is_proper(g, colour_of):
    return all(colour_of[u] != colour_of[v] for u, v in g.edges.tolist())


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def grotzsch():
    edges = []
    for i in range(5):
        u, v = i, (i + 1) % 5
        edges += [(u, v), (u + 5, v), (v + 5, u), (10, 5 + i)]
    return Graph(11, edges)


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def chi_oracle(g):
    # exhaustive k-colourability, vertex 0's colour pinned by symmetry
    if g.n == 0:
        return 0
    if g.m == 0:
        return 1
    for k in range(1, g.n + 1):
        for rest in itertools.product(range(k), repeat=g.n - 1):
            assign = (0,) + rest
            if all(assign[u] != assign[v] for u, v in g.edges):
                return k
    raise AssertionError("unreachable")


def core_oracle(g, t):
    # union of all vertex subsets inducing min degree >= t
    best = 0
    for mask in range(1 << g.n):
        ok = True
        for v in range(g.n):
            if mask >> v & 1:
                d = sum(1 for w in g.adjacency()[v] if mask >> w & 1)
                if d < t:
                    ok = False
                    break
        if ok:
            best |= mask
    return frozenset(v for v in range(g.n) if best >> v & 1)


# --- colouring number --------------------------------------------------------


def test_colouring_number_known():
    assert colouring_number(complete_graph(5))[0] == 5
    assert colouring_number(cycle_graph(8))[0] == 3
    tree = Graph(6, [(0, 1), (1, 2), (1, 3), (3, 4), (0, 5)])
    assert colouring_number(tree)[0] == 2
    assert colouring_number(Graph(4, []))[0] == 1
    assert colouring_number(Graph(0, []))[0] == 0


def test_elimination_order_invariants():
    for seed in range(6):
        g = random_graph(10, 0.4, seed)
        num, order = colouring_number(g)
        assert sorted(order.order) == list(range(g.n))
        for i, v in enumerate(order.order):
            earlier = set(order.order[:i])
            assert order.back_degrees[i] == sum(1 for w in g.adjacency()[v] if w in earlier)
        assert max(order.back_degrees, default=0) + 1 == num


def test_peeling_tie_break_lowest_id():
    # two isolated triangles: everything has degree 2, ids decide
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    _, order = colouring_number(g)
    assert order.order[-1] == 0  # peeled first


def test_peel_order_breaks_ties_by_threshold_then_cascade():
    # pendant paths 0-1 and 5-6 hang off the triangle 2-3-4; 7 is isolated.
    # Threshold 1 takes 7; threshold 2 takes 0 and 5 (ascending scan), then
    # the cascade 1 and 6; threshold 3 takes the triangle. The lowest-id
    # heap would have peeled 0, 1, 5, 6 instead.
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4), (5, 6), (3, 6)])
    num, order = colouring_number(g)
    assert num == 3
    assert order.order == (4, 3, 2, 6, 1, 5, 0, 7)
    assert order.back_degrees == (0, 1, 2, 1, 1, 1, 1, 0)


def test_peel_builds_no_neighbour_tuples():
    g = petersen()
    t_core(g, 3)
    t_core_with_trace(g, 2)
    colouring_number(g)
    assert g._adj is None


# --- t-core ------------------------------------------------------------------


def test_core_known():
    p = petersen()
    assert t_core(p, 3) == frozenset(range(10))
    assert t_core(p, 4) == frozenset()
    k4_minus = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert t_core(k4_minus, 3) == frozenset()
    assert t_core(k4_minus, 2) == frozenset(range(4))
    assert t_core(Graph(3, []), 0) == frozenset(range(3))


def test_core_matches_subset_oracle():
    for seed in range(8):
        g = random_graph(9, 0.45, seed)
        for t in range(0, 5):
            assert t_core(g, t) == core_oracle(g, t), (seed, t)


def test_core_chain_in_t():
    g = random_graph(14, 0.5, 99)
    prev = frozenset(range(g.n))
    for t in range(0, 9):
        cur = t_core(g, t)
        assert cur <= prev
        prev = cur


def test_core_fixpoint_and_trace():
    g = random_graph(12, 0.4, 5)
    core, trace = t_core_with_trace(g, 3)
    for v in core:
        assert sum(1 for w in g.adjacency()[v] if w in core) >= 3
    assert core | set(trace) == set(range(g.n))
    assert core.isdisjoint(trace)
    # each peeled vertex had degree < t among survivors at its peel time
    alive = set(range(g.n))
    for v in trace:
        assert sum(1 for w in g.adjacency()[v] if w in alive) < 3
        alive.discard(v)


def test_core_rejects_negative_t():
    with pytest.raises(InputError):
        t_core(cycle_graph(3), -1)


# --- exact chromatic number --------------------------------------------------


def test_chromatic_known_values():
    assert chromatic_number_exact(cycle_graph(5)).num_colours == 3
    assert chromatic_number_exact(petersen()).num_colours == 3
    assert chromatic_number_exact(complete_graph(7)).num_colours == 7
    assert chromatic_number_exact(grotzsch()).num_colours == 4
    assert chromatic_number_exact(Graph(5, [])).num_colours == 1
    assert chromatic_number_exact(Graph(0, [])).num_colours == 0


def test_chromatic_result_contract():
    g = grotzsch()
    res = chromatic_number_exact(g)
    assert res.exact
    assert res.lower_bound == res.num_colours
    assert is_proper(g, res.colour_of)
    assert len(set(res.colour_of)) == res.num_colours


def test_chromatic_matches_brute_force():
    cases = [random_graph(n, p, seed) for n, p, seed in [
        (5, 0.5, 1), (6, 0.5, 2), (6, 0.8, 3), (7, 0.5, 4),
        (7, 0.3, 5), (8, 0.5, 6), (8, 0.6, 7),
    ]]
    for g in cases:
        res = chromatic_number_exact(g)
        assert res.exact
        assert res.num_colours == chi_oracle(g)


def test_chromatic_below_colouring_number():
    for seed in range(5):
        g = random_graph(12, 0.5, seed + 40)
        assert chromatic_number_exact(g).num_colours <= colouring_number(g)[0]


def test_budget_exhaustion_returns_bounds():
    g = random_graph(22, 0.5, 1)
    full = chromatic_number_exact(g)
    assert full.exact
    res = chromatic_number_exact(g, budget=3)
    assert not res.exact
    assert is_proper(g, res.colour_of)
    assert res.lower_bound <= full.num_colours <= res.num_colours


def test_n_cap_enforced():
    g = Graph(41, [])
    with pytest.raises(CapacityError):
        chromatic_number_exact(g)
    assert chromatic_number_exact(g, n_cap=41).num_colours == 1


# --- product colouring -------------------------------------------------------


def test_product_split_k4():
    g = complete_graph(4)
    matching = Graph(4, [(0, 1), (2, 3)])
    rest = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    rep = product_colouring_check(g, [matching, rest])
    assert rep.part_values == (2, 2)
    assert rep.chi == 4
    assert rep.ok and rep.margin == 0


def test_product_trivial_split():
    g = petersen()
    rep = product_colouring_check(g, [g, Graph(g.n, [])])
    assert rep.part_values == (3, 1)
    assert rep.product == rep.chi == 3


def test_product_random_splits_never_violate():
    rng = random.Random(7)
    for trial in range(20):
        g = random_graph(rng.randrange(4, 11), 0.5, rng.randrange(10**6))
        if g.m == 0:
            continue
        side = np.array([rng.randrange(2) for _ in range(g.m)])
        a = g.with_edges(side == 0)
        b = g.with_edges(side == 1)
        rep = product_colouring_check(g, [a, b])
        assert rep.ok, (g.edges.tolist(), side.tolist())


def test_product_rejects_bad_partition():
    g = complete_graph(3)
    with pytest.raises(InputError):
        product_colouring_check(g, [g, g])  # overlap
    with pytest.raises(InputError):
        product_colouring_check(g, [Graph(3, [(0, 1)])])  # not covering
    with pytest.raises(InputError):
        product_colouring_check(g, [Graph(4, [])])
