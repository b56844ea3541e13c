"""The boolean-mask edge selection against the index-tuple code it
replaced, kept here as the reference: p-subgraphs, partitions, the three
two-round survivor graphs and the random sets of both spread processes,
on hypothesis-generated graphs, rates and seeds."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from randcol.graphs import DiGraph, Graph
from randcol.percolation import thm3_process, thm4_process
from randcol.sampling import (
    RngStream,
    partition_split,
    sample_subgraph,
    second_round_rate,
    subgraph_from_uniforms,
    two_round_sample,
)


def pairs(n, directed):
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    if not directed:
        pair = pair.map(lambda e: (min(e), max(e)))
    return st.sets(pair, max_size=3 * n)


graphs = st.integers(1, 14).flatmap(lambda n: st.tuples(st.just(n), pairs(n, False)))
digraphs = st.integers(1, 14).flatmap(lambda n: st.tuples(st.just(n), pairs(n, True)))
seeds = st.integers(0, 2**32)
probabilities = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0, 1))
first_rates = st.one_of(
    st.fractions(0, Fraction(1, 2), max_denominator=60),
    st.floats(0, 0.5),
)


# --- the index-tuple reference ------------------------------------------------


def edge_tuples(g):
    return [tuple(e) for e in g.edges.tolist()]


def ref_subgraph_from_uniforms(g, u, p):
    edges = edge_tuples(g)
    return Graph(g.n, [edges[i] for i in np.flatnonzero(u < p)])


def ref_partition_split(g, parts, stream):
    u = stream.uniforms(g.m)
    which = np.minimum((u * parts).astype(np.int64), parts - 1)
    buckets = [[] for _ in range(parts)]
    for i, e in enumerate(edge_tuples(g)):
        buckets[which[i]].append(e)
    return [Graph(g.n, b) for b in buckets]


def ref_two_round_survivors(g, first_rate, stream):
    """(round1_survivors, round2_only_survivors, survivors) from the
    deleted-index tuples and set rebuilds."""
    a1 = Fraction(first_rate)
    a2 = second_round_rate(a1)
    hit1 = stream.child("round1").uniforms(g.m) < float(a1)
    hit2 = stream.child("round2").uniforms(g.m) < float(a2)
    round1 = tuple(int(i) for i in np.flatnonzero(hit1))
    round2 = tuple(int(i) for i in np.flatnonzero(hit2 & ~hit1))
    round2_hit = tuple(int(i) for i in np.flatnonzero(hit2))

    def without(gone):
        return Graph(g.n, [e for i, e in enumerate(edge_tuples(g)) if i not in gone])

    return without(set(round1)), without(set(round2_hit)), without(set(round1) | set(round2))


def ref_protected(h, p, rng):
    u = rng.child("protect").uniforms(h.m)
    edges = edge_tuples(h)
    return frozenset(edges[i] for i in range(h.m) if u[i] < p)


def ref_blocked(h, p, rng):
    u = rng.child("resilient").uniforms(h.n)
    return frozenset(v for v in range(h.n) if u[v] < p)


# --- equality ---------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(graphs, probabilities, seeds)
def test_p_subgraph(case, p, seed):
    g = Graph(*case)
    stream = RngStream(seed).child("edges")
    want = ref_subgraph_from_uniforms(g, stream.uniforms(g.m), p)
    assert subgraph_from_uniforms(g, stream.uniforms(g.m), p) == want
    assert sample_subgraph(g, p, stream) == want


@settings(max_examples=100, deadline=None)
@given(graphs, st.integers(1, 5), seeds)
def test_partition_split(case, parts, seed):
    g = Graph(*case)
    stream = RngStream(seed).child("split")
    assert partition_split(g, parts, stream) == ref_partition_split(g, parts, stream)


@settings(max_examples=150, deadline=None)
@given(graphs, first_rates, seeds)
def test_two_round_survivors(case, first_rate, seed):
    g = Graph(*case)
    stream = RngStream(seed).child("rounds")
    out = two_round_sample(g, first_rate, stream)
    round1, round2_only, both = ref_two_round_survivors(g, first_rate, stream)
    assert out.round1_survivors() == round1
    assert out.round2_only_survivors() == round2_only
    assert out.survivors() == both
    assert out.first_rate == float(Fraction(first_rate))


@settings(max_examples=20, deadline=None)
@given(first_rates, seeds)
def test_two_round_survivors_on_a_large_graph(first_rate, seed):
    # 3,160 edges: a rate off by a fraction of a percent moves some edge
    n = 80
    g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    stream = RngStream(seed).child("rounds")
    out = two_round_sample(g, first_rate, stream)
    want = ref_two_round_survivors(g, first_rate, stream)
    assert (out.round1_survivors(), out.round2_only_survivors(), out.survivors()) == want


@settings(max_examples=100, deadline=None)
@given(graphs, probabilities, seeds)
def test_thm3_protected_set(case, p, seed):
    h = Graph(*case)
    rng = RngStream(seed).child("trial")
    protected = thm3_process(h, p, 0, rng).protected_edges
    assert set(edge_tuples(h.with_edges(protected))) == ref_protected(h, p, rng)


@settings(max_examples=100, deadline=None)
@given(digraphs, probabilities, seeds)
def test_thm4_blocked_set(case, p, seed):
    h = DiGraph(*case)
    rng = RngStream(seed).child("trial")
    blocked = thm4_process(h, p, 0, rng).resilient_vertices
    assert frozenset(np.flatnonzero(blocked).tolist()) == ref_blocked(h, p, rng)
