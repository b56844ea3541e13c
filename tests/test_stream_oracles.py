"""Oracles for the stream cache and the block draw: the from-scratch key
and the two-draw two_round_sample that RngStream and two_round_sample
replaced are kept here as the reference. Every key and every variate
must be unchanged."""

import copy
import hashlib
import pickle
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from randcol.graphs import Graph
from randcol.sampling import RngStream, second_round_rate, two_round_sample


def ref_key(master_seed, path) -> int:
    """The key rebuilt over the whole (master seed, path)."""
    h = hashlib.blake2b(digest_size=8)
    parts = [str(master_seed)] + [str(p) for p in path]
    for part in parts:
        h.update(f"{len(part)}:{part};".encode())
    return int.from_bytes(h.digest(), "little")


def ref_uniforms(master_seed, path, count: int) -> np.ndarray:
    """splitmix64 of key + (i + 1) * golden, one separate pass per stream."""
    z = np.arange(count, dtype=np.uint64) + np.uint64(1)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(ref_key(master_seed, path))
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    return z * 2.0 ** -53


def ref_two_round_hits(m: int, first_rate, master_seed, path):
    """Both rounds drawn separately from their child streams."""
    a1 = Fraction(first_rate)
    hit1 = ref_uniforms(master_seed, path + ("round1",), m) < float(a1)
    hit2 = ref_uniforms(master_seed, path + ("round2",), m) < float(second_round_rate(a1))
    return hit1, hit2


def _aliases_int(label: str) -> bool:
    try:
        return str(int(label)) == label
    except ValueError:
        return False


seeds = st.integers(-(2**70), 2**70)
labels = st.one_of(
    st.integers(-(2**66), 2**66),
    st.text(alphabet="ab1-0:;é", max_size=4).filter(lambda lab: not _aliases_int(lab)),
)
paths = st.lists(st.lists(labels, max_size=3).map(tuple), max_size=4)


@settings(max_examples=200, deadline=None)
@given(seeds, paths)
def test_chained_keys_equal_the_from_scratch_keys(seed, steps):
    stream, path = RngStream(seed), ()
    assert stream.key() == ref_key(seed, path)
    for labs in steps:
        stream, path = stream.child(*labs), path + labs
        assert stream.path == path
        assert stream.key() == ref_key(seed, path)
        assert stream.key() == RngStream(seed, path).key()


@settings(max_examples=100, deadline=None)
@given(seeds, st.lists(labels, max_size=3).map(tuple),
       st.lists(labels, min_size=1, max_size=4).map(tuple), st.integers(0, 70))
def test_block_rows_equal_the_separate_draws(seed, path, rows, count):
    # one stream has its hash state from child(), the other builds it
    for stream in (RngStream(seed).child(*path), RngStream(seed, path)):
        block = stream.uniforms(count, *rows)
        assert block.shape == (len(rows), count)
        for row, lab in zip(block, rows):
            assert np.array_equal(row, ref_uniforms(seed, path + (lab,), count))
        assert np.array_equal(stream.uniforms(count), ref_uniforms(seed, path, count))


def path_graph(m: int) -> Graph:
    return Graph(m + 1, [(i, i + 1) for i in range(m)])


rates = st.one_of(
    st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=1000),
    st.sampled_from([0, Fraction(1, 30), Fraction(1, 2), "1/7", 0.25]),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 80), rates, seeds, st.lists(labels, max_size=2).map(tuple))
def test_two_round_hits_equal_the_two_draw_sample(m, rate, seed, path):
    g = path_graph(m)
    sample = two_round_sample(g, rate, RngStream(seed).child(*path))
    want1, want2 = ref_two_round_hits(m, rate, seed, path)
    assert np.array_equal(sample.round1_hit, want1)
    assert np.array_equal(sample.round2_hit, want2)
    assert sample.round1_hit.shape == sample.round2_hit.shape == (m,)
    assert not sample.round1_hit.flags.writeable and not sample.round2_hit.flags.writeable
    assert sample.first_rate == float(Fraction(rate))


@settings(max_examples=100, deadline=None)
@given(seeds, paths)
def test_derived_stream_is_the_direct_stream(seed, steps):
    derived, path = RngStream(seed), ()
    for labs in steps:
        derived, path = derived.child(*labs), path + labs
    derived.key()  # fills the cache
    direct = RngStream(seed, path)
    assert derived == direct and hash(derived) == hash(direct)
    assert repr(derived) == repr(direct)
    # the cached hash state is not pickled
    assert pickle.dumps(derived) == pickle.dumps(direct)
    for clone in (pickle.loads(pickle.dumps(derived)), copy.copy(derived), copy.deepcopy(derived)):
        assert clone == direct and repr(clone) == repr(direct)
        assert clone.key() == ref_key(seed, path)
        assert clone.child("c").key() == ref_key(seed, path + ("c",))


def test_a_child_does_not_touch_its_parents_state():
    root = RngStream(11)
    a = root.child("a")
    a.child("x").key()
    b = root.child("b")
    assert (root.key(), a.key(), b.key()) == (
        ref_key(11, ()), ref_key(11, ("a",)), ref_key(11, ("b",)))
    assert np.array_equal(a.uniforms(5, "y", "z")[1], ref_uniforms(11, ("a", "z"), 5))

