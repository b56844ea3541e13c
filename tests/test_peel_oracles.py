"""The threshold peel and the vectorised stub pairing against the code
they replaced, kept as the reference: the lazy-deletion heap of
colouring_number and the queue peel of t_core (both in helpers), on random graphs (regular ones in test_percolation_oracles),
and here the per-stub rejection loops of both configuration-model
generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randcol.colouring import colouring_number, t_core
from randcol.errors import GenerationError
from randcol.generators import (
    REJECTION_CAP,
    random_regular_graph,
    random_two_regular_digraph,
)
from randcol.graphs import DiGraph, Graph
from randcol.sampling import RngStream

from helpers import ids, ref_colouring_number, ref_t_core


def pairs(n):
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return st.sets(pair.map(lambda e: (min(e), max(e))), max_size=4 * n)


graphs = st.integers(0, 25).flatmap(lambda n: st.tuples(st.just(n), pairs(n) if n else st.just(set())))


# --- the heap and queue peels ------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(graphs.map(lambda case: Graph(*case)))
def test_t_core_matches_queue_peel(g):
    for t in range(g.max_degree() + 3):
        assert ids(t_core(g, t)) == ref_t_core(g, t)


@settings(max_examples=150, deadline=None)
@given(graphs.map(lambda case: Graph(*case)))
def test_colouring_number_matches_heap_peel(g):
    assert colouring_number(g) == ref_colouring_number(g)


# --- the per-stub rejection loops ---------------------------------------------------


def ref_random_regular_graph(n, d, stream):
    for attempt in range(REJECTION_CAP):
        rng = stream.child(attempt).generator()
        stubs = np.repeat(np.arange(n), d)
        rng.shuffle(stubs)
        seen = set()
        ok = True
        for u, v in stubs.reshape(-1, 2):
            if u == v:
                ok = False
                break
            e = (u, v) if u < v else (v, u)
            if e in seen:
                ok = False
                break
            seen.add(e)
        if ok:
            return Graph(n, [(int(u), int(v)) for u, v in sorted(seen)], validate=False)
    raise GenerationError(
        f"no simple {d}-regular graph in {REJECTION_CAP} attempts; retry with a new seed"
    )


def ref_random_two_regular_digraph(n, stream):
    out_stubs = np.repeat(np.arange(n), 2)
    for attempt in range(REJECTION_CAP):
        rng = stream.child(attempt).generator()
        in_stubs = out_stubs.copy()
        rng.shuffle(in_stubs)
        seen = set()
        ok = True
        for u, v in zip(out_stubs, in_stubs):
            if u == v or (u, v) in seen:
                ok = False
                break
            seen.add((u, v))
        if not ok:
            continue
        arcs = [(int(u), int(v)) for u, v in zip(out_stubs, in_stubs)]
        first_in_seen = set()
        colours = []
        for _, v in arcs:
            if v in first_in_seen:
                colours.append("b")
            else:
                first_in_seen.add(v)
                colours.append("r")
        return DiGraph(n, arcs, arc_colour=colours, validate=False)
    raise GenerationError(
        f"no simple 2-regular digraph in {REJECTION_CAP} attempts; retry with a new seed"
    )


def outcome(make, *args):
    try:
        return make(*args)
    except GenerationError as exc:
        return ("GenerationError", str(exc))


REGULAR_GRID = [(n, d) for n in (6, 10, 30, 200) for d in range(2, 6) if (n * d) % 2 == 0]
REGULAR_GRID += [(30, 6)]  # the rejection loop fails for every seed here


@pytest.mark.parametrize("n,d", REGULAR_GRID)
def test_regular_graph_matches_stub_loop(n, d):
    outcomes = set()
    for seed in range(15):
        got = outcome(random_regular_graph, n, d, seed)
        want = outcome(ref_random_regular_graph, n, d, RngStream(seed).child("regular-graph"))
        assert got == want
        outcomes.add(type(got))
    if (n, d) == (30, 6):
        assert outcomes == {tuple}


@pytest.mark.parametrize("n", (3, 4, 5, 8, 30, 100))
def test_two_regular_digraph_matches_stub_loop(n):
    for seed in range(10):
        got = outcome(random_two_regular_digraph, n, seed)
        want = outcome(ref_random_two_regular_digraph, n, RngStream(seed).child("two-regular-digraph"))
        assert got == want  # DiGraph equality includes the arc colours


def test_stream_seed_matches_stub_loop():
    stream = RngStream(3).child("try", 7)
    assert random_regular_graph(40, 3, stream) == ref_random_regular_graph(40, 3, stream)
