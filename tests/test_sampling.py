import dataclasses
import math
import numbers
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randcol.errors import InputError
from randcol.graphs import DiGraph
from randcol.sampling import (
    RngStream,
    TwoRoundSample,
    _check_probability,
    _parts,
    partition_split,
    sample_subgraph,
    second_round_rate,
    two_round_sample,
)

from helpers import _aliases_int, complete_graph


def edge_set(g):
    return set(map(tuple, g.edges.tolist()))


# --- stream behaviour -------------------------------------------------------


def test_streams_are_deterministic():
    s = RngStream(42).child("edges", 3)
    a = s.uniforms(100)
    b = RngStream(42).child("edges", 3).uniforms(100)
    assert np.array_equal(a, b)


def test_child_paths_do_not_collide():
    s = RngStream(7)
    keys = {
        s.key(),
        s.child("a").key(),
        s.child("b").key(),
        s.child("a", "b").key(),
        s.child("ab").key(),
        s.child(1).key(),
        s.child("01").key(),
        s.child("+1").key(),
    }
    assert len(keys) == 8


def test_labels_that_alias_an_int_are_rejected():
    # keys encode labels with str(), so "1" would hash like 1, "True" like True
    for bad in ("1", "0", "-3", "123", True, False):
        with pytest.raises(InputError):
            RngStream(1).child("a", bad)
    for ok in ("01", "-0", "+1", " 1", "1.0", "1_0", "x1"):
        RngStream(1).child(ok)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=6))
def test_str_label_rejected_iff_it_aliases_an_int(label):
    if _aliases_int(label):
        with pytest.raises(InputError):
            RngStream(0).child(label)
    else:
        RngStream(0).child(label)


labels = st.one_of(
    st.integers(-3, 12),
    st.text(alphabet="ab1-0:;", max_size=3).filter(lambda lab: not _aliases_int(lab)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.lists(labels, max_size=3).map(tuple)),
                min_size=2, max_size=12, unique=True))
def test_distinct_label_paths_give_distinct_keys(paths):
    keys = {RngStream(seed).child(*path).key() for seed, path in paths}
    assert len(keys) == len(paths)


def test_uniforms_pinned():
    # fixed values of one stream: a change to the key or the mixing shows here
    want = [
        "0x1.2536b47daff94p-2", "0x1.ee23d52f046e8p-2", "0x1.0044fc16367c6p-1",
        "0x1.37363ce4a153cp-1", "0x1.71c3e4be136e8p-3", "0x1.820a2504e848cp-1",
        "0x1.49a81265990ecp-1", "0x1.fcc731fa51dc0p-7",
    ]
    assert [float(x).hex() for x in RngStream(5).child("x").uniforms(8)] == want


def test_uniform_at_matches_uniforms():
    s = RngStream(5).child("x")
    u = s.uniforms(50)
    picked = s.uniform_at([3, 17, 49])
    assert np.array_equal(picked, u[[3, 17, 49]])


def test_uniforms_range_and_moments():
    u = RngStream(2024).child("stats").uniforms(100_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1 / 12) < 0.005
    # crude KS statistic against the uniform cdf
    ks = np.abs(np.sort(u) - (np.arange(1, len(u) + 1) / len(u))).max()
    assert ks < 0.01


def test_generator_reproducible():
    g1 = RngStream(9).child("perm").generator()
    g2 = RngStream(9).child("perm").generator()
    assert np.array_equal(g1.permutation(20), g2.permutation(20))


def test_bad_label_rejected():
    with pytest.raises(InputError):
        RngStream(1).child(3.5)
    for bad in (3.5, "1", True):
        with pytest.raises(InputError):
            RngStream(1).uniforms(4, "a", bad)


@pytest.mark.parametrize("seed", ["5", 1.5, True, None, np.int64(5)])
def test_master_seed_must_be_an_int(seed):
    # keys encode the seed with str(), so "5" would hash like 5
    with pytest.raises(InputError, match="master seed must be an int"):
        RngStream(seed)


@pytest.mark.parametrize("path", [("5",), ("a", True), (1.5,), "ab", ["a"], None],
                         ids=["aliases-5", "bool", "float", "str", "list", "none"])
def test_a_direct_path_takes_the_label_rule(path):
    # ("5",) would hash like child(5), and "ab" like the labels "a" and "b"
    with pytest.raises(InputError):
        RngStream(0, path)


def test_a_direct_path_is_the_child_path():
    assert RngStream(0, ("a", 5)) == RngStream(0).child("a", 5)
    assert RngStream(0, ("a", 5)).key() == RngStream(0).child("a", 5).key()


@pytest.mark.parametrize("indices", [[-1], [1.7], [True], np.array([0, -2]), -1, 2.0,
                                     range(-1, 2), ["0"]],
                         ids=["negative", "float", "bool", "negative-array", "negative-scalar",
                              "float-scalar", "negative-range", "str"])
def test_uniform_at_takes_non_negative_integer_indices(indices):
    with pytest.raises(InputError, match="indices must be non-negative integers"):
        RngStream(1).uniform_at(indices)


def test_uniform_at_takes_no_indices():
    s = RngStream(1)
    assert s.uniform_at([]).shape == (0,) and s.uniform_at([], "a").shape == (1, 0)


@pytest.mark.parametrize("count", [2.5, True, "3", None])
def test_count_must_be_an_int(count):
    with pytest.raises(InputError, match="count must be an int"):
        RngStream(1).uniforms(count)


def test_uniforms_accepts_numpy_counts():
    s = RngStream(3).child("n")
    assert np.array_equal(s.uniforms(np.int64(6)), s.uniforms(6))


def test_block_rows_are_the_child_streams():
    s = RngStream(5).child("x")
    block = s.uniforms(40, "a", 7, "b")
    assert block.shape == (3, 40)
    for row, lab in zip(block, ("a", 7, "b")):
        assert np.array_equal(row, s.child(lab).uniforms(40))
    idx = np.array([[3, 0], [39, 12]])
    picked = s.uniform_at(idx, "b", "a")
    assert picked.shape == (2, 2, 2)
    assert np.array_equal(picked[0], block[2][idx]) and np.array_equal(picked[1], block[0][idx])
    assert s.uniform_at(5, "a").shape == (1,) and s.uniform_at(5, "a")[0] == block[0, 5]
    assert s.uniforms(0, "a", "b").shape == (2, 0)


# --- p-subgraphs -------------------------------------------------------------


def test_sample_extremes():
    g = complete_graph(8)
    s = RngStream(11).child("edges")
    assert sample_subgraph(g, 0.0, s).m == 0
    assert sample_subgraph(g, 1.0, s) == g


def test_sample_is_deterministic_and_purpose_scoped():
    g = complete_graph(10)
    a = sample_subgraph(g, 0.4, RngStream(3).child("edges"))
    b = sample_subgraph(g, 0.4, RngStream(3).child("edges"))
    c = sample_subgraph(g, 0.4, RngStream(3).child("other"))
    assert a == b
    assert a != c


def test_sample_rate_matches_p():
    g = complete_graph(60)
    sub = sample_subgraph(g, 0.3, RngStream(17).child("edges"))
    assert abs(sub.m / g.m - 0.3) < 0.05


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.floats(0, 1), st.floats(0, 1))
def test_coupling_is_monotone(seed, p1, p2):
    p1, p2 = sorted((p1, p2))
    g = complete_graph(9)
    stream = RngStream(seed).child("edges")
    assert edge_set(sample_subgraph(g, p1, stream)) <= edge_set(sample_subgraph(g, p2, stream))


def test_coupled_family_is_nested():
    g = complete_graph(12)
    ps = [0.1, 0.25, 0.5, 0.75, 1.0]
    stream = RngStream(23).child("edges")
    subs = [sample_subgraph(g, p, stream) for p in ps]
    for small, big in zip(subs, subs[1:]):
        assert edge_set(small) <= edge_set(big)
    assert subs[-1] == g


def test_bad_probability_rejected():
    g = complete_graph(4)
    with pytest.raises(InputError):
        sample_subgraph(g, 1.5, RngStream(0))


@pytest.mark.parametrize("p", [True, False, float("nan"), "0.5", None])
def test_probability_that_is_not_a_number_in_range_is_rejected(p):
    # a bool is rejected as ExperimentConfig rejects it
    g = complete_graph(4)
    with pytest.raises(InputError, match="probability"):
        sample_subgraph(g, p, RngStream(0))


def ref_check_probability(p):
    """The probability rule without the plain-float shortcut."""
    if isinstance(p, bool) or not isinstance(p, numbers.Real) or not 0 <= p <= 1:
        raise InputError(f"probability must be a number in [0, 1], got {p!r}")


def verdict(check, p):
    try:
        check(p)
    except InputError:
        return False
    return True


@pytest.mark.parametrize("p", [
    0.0, -0.0, 0.5, 1.0, 5e-324, 1 - 2**-53, -5e-324, 1 + 2**-52, 1.5, -0.1,
    math.nan, math.inf, -math.inf, np.float64(0.3), np.float64(-0.0), np.float64(math.nan),
    np.float64(math.inf), np.float64(2.0), np.float32(0.5), Fraction(1, 3), Fraction(4, 3),
    0, 1, 2, -1, np.int64(1), True, False, np.True_, "0.5", None,
])
def test_probability_check_keeps_its_verdict(p):
    assert verdict(_check_probability, p) == verdict(ref_check_probability, p)


# --- splits ------------------------------------------------------------------


def test_partition_split_is_a_partition():
    g = complete_graph(20)
    parts = partition_split(g, 3, RngStream(5).child("split"))
    assert sum(h.m for h in parts) == g.m
    union = set()
    for h in parts:
        assert union.isdisjoint(edge_set(h))
        union.update(edge_set(h))
    assert union == edge_set(g)


def test_the_partition_map_is_the_exact_floor():
    # k * 2^-53 * 3 rounds up to 2.0 as a float, but k * 3 < 2 * 2^53
    k = (2**54 - 1) // 3
    word = np.array([k << 11], dtype=np.uint64)
    assert min(int(k * 2.0**-53 * 3), 2) == 2
    assert _parts(word, 3).tolist() == [1]
    rng = np.random.default_rng(7)
    edges = [0, 2**11 - 1, 2**64 - 2**11, 2**64 - 1, (2**53 - 1) << 11]
    words = np.concatenate([np.array(edges, dtype=np.uint64),
                            rng.integers(0, 2**64, size=2000, dtype=np.uint64, endpoint=False)])
    for parts in (1, 2, 3, 7, 2**11 - 1, 2**11, 2**20, 2**32 - 1):
        want = [((w >> 11) * parts) >> 53 for w in words.tolist()]
        got = _parts(words, parts)
        assert got.tolist() == want and max(want) < parts


@pytest.mark.parametrize("parts", [0, -1, 2**32])
def test_partition_split_takes_parts_in_range(parts):
    with pytest.raises(InputError, match="parts"):
        partition_split(complete_graph(4), parts, RngStream(0))


def test_partition_split_takes_parts_by_the_integer_rule():
    # a numpy integer times the uint64 words would promote them to float64
    g = complete_graph(12)
    want = [edge_set(h) for h in partition_split(g, 3, RngStream(5).child("split"))]
    for parts in (np.int64(3), np.uint32(3)):
        got = partition_split(g, parts, RngStream(5).child("split"))
        assert [edge_set(h) for h in got] == want
    for parts in (2.5, 3.0, "3", True, None, np.float64(3)):
        with pytest.raises(InputError, match="parts must be an integer"):
            partition_split(g, parts, RngStream(5))


def test_two_way_partition_split_halves():
    g = complete_graph(40)
    a, b = partition_split(g, 2, RngStream(6).child("split"))
    assert a.m + b.m == g.m
    assert edge_set(a).isdisjoint(edge_set(b))
    assert abs(a.m / g.m - 0.5) < 0.05


# --- two-round deletion -------------------------------------------------------


def test_second_round_rate_exact():
    assert second_round_rate(Fraction(0)) == Fraction(1, 2)
    assert second_round_rate(Fraction(1, 2)) == Fraction(0)
    for a in (Fraction(1, 10), Fraction(1, 9), Fraction(1, 6), Fraction(2, 5)):
        b = second_round_rate(a)
        assert (1 - a) * (1 - b) == Fraction(1, 2)
    with pytest.raises(InputError):
        second_round_rate(Fraction(3, 5))


def test_two_round_bookkeeping():
    g = complete_graph(30)
    out = two_round_sample(g, Fraction(1, 6), RngStream(99).child("rounds"))
    r1, r2 = out.round1_hit, out.round2_hit
    assert r1.dtype == r2.dtype == np.bool_ and r1.shape == r2.shape == (g.m,)
    assert not r1.flags.writeable and not r2.flags.writeable
    gone = np.flatnonzero(r1 | r2)
    surv = out.survivors()
    assert surv.m == g.m - len(gone)
    assert edge_set(surv).isdisjoint(map(tuple, g.edges[gone].tolist()))
    assert out.round2_only_survivors().m == g.m - np.count_nonzero(r2)
    both = edge_set(g.with_edges(~r1)) & edge_set(out.round2_only_survivors())
    assert edge_set(surv) == both


def test_two_round_survival_is_half():
    g = complete_graph(80)  # m = 3160
    out = two_round_sample(g, Fraction(1, 9), RngStream(4).child("rounds"))
    assert abs(out.survivors().m / g.m - 0.5) < 0.04


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf"), "x", "1/0", None,
                                  False])
def test_two_round_rejects_a_rate_that_is_not_a_finite_number(rate):
    with pytest.raises(InputError, match="first-round rate"):
        two_round_sample(complete_graph(5), rate, RngStream(8))


@pytest.mark.parametrize("rate", ["x", None, True, "1/0", float("nan"), float("inf")])
def test_second_round_rate_parses_as_two_round_sample_does(rate):
    with pytest.raises(InputError, match="first-round rate must be a finite number"):
        second_round_rate(rate)
    with pytest.raises(InputError, match="first-round rate must be a finite number"):
        two_round_sample(complete_graph(5), rate, RngStream(8))


def test_two_round_zero_first_rate():
    g = complete_graph(20)
    out = two_round_sample(g, 0, RngStream(8).child("rounds"))
    assert not out.round1_hit.any()
    assert out.survivors() == out.round2_only_survivors()


@pytest.mark.parametrize("sample", [
    lambda g: sample_subgraph(g, 0.5, RngStream(0)),
    lambda g: two_round_sample(g, "1/9", RngStream(0)),
], ids=["sample_subgraph", "two_round_sample"])
def test_sampling_a_digraph_is_an_input_error(sample):
    # a digraph has arcs, not edges: this was an AttributeError, or a
    # sample whose survivors() failed later
    digraph = DiGraph(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(InputError, match="needs a Graph, got a DiGraph"):
        sample(digraph)


def test_two_round_samples_stay_frozen_dataclasses():
    """two_round_sample builds its samples without __init__; they are
    still frozen, and fields, replace and pickle see every field."""
    g = complete_graph(12)
    sample = two_round_sample(g, "1/9", RngStream(5))
    names = ["graph", "round1_hit", "round2_hit"]
    assert type(sample) is TwoRoundSample
    assert [f.name for f in dataclasses.fields(sample)] == names
    for name in names + ["other"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sample, name, None)
    moved = dataclasses.replace(sample, round2_hit=sample.round1_hit)
    assert moved.graph is g and moved.round2_hit is sample.round1_hit
    assert moved.survivors() == g.with_edges(~sample.round1_hit)
    clone = pickle.loads(pickle.dumps(sample))
    assert clone.graph == g
    assert np.array_equal(clone.round1_hit, sample.round1_hit)
    assert np.array_equal(clone.round2_hit, sample.round2_hit)
    assert clone.survivors() == sample.survivors()
    # a sample built by hand has its masks checked, since its survivor
    # graphs take them without a check
    built = TwoRoundSample(g, sample.round1_hit, sample.round2_hit)
    assert built.survivors() == sample.survivors()
    for bad in (sample.round1_hit[1:], sample.round1_hit.astype(int), [True] * (g.m + 1)):
        with pytest.raises(InputError, match="boolean mask"):
            TwoRoundSample(g, bad, sample.round2_hit)
        with pytest.raises(InputError, match="boolean mask"):
            TwoRoundSample(g, sample.round1_hit, bad)


def test_subgraph_masks_stay_apart_from_their_callers():
    g = complete_graph(10)
    for parent in (g, g.with_edges(np.arange(g.m) % 5 != 0)):
        mask = np.ones(parent.m, dtype=bool)
        view = parent.with_edges(mask)
        edges = view.edges.copy()
        mask[:] = False  # the view keeps its own copy
        assert view.m == parent.m and np.array_equal(view.edges, edges)
        assert not view._mask.flags.writeable
    sample = two_round_sample(g, "1/30", RngStream(1))
    views = [sample_subgraph(g, 0.9, RngStream(2)), sample.survivors(),
             sample.round2_only_survivors()]
    for view in views:
        assert view._mask is not None and not view._mask.flags.writeable
    assert views[1] == g.with_edges(~(sample.round1_hit | sample.round2_hit))
