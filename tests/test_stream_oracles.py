"""Oracles for the stream cache and the block draw: the from-scratch key
and the two-draw two_round_sample that RngStream and two_round_sample
replaced are kept here as the reference. Every key and every variate
must be unchanged."""

import copy
import hashlib
import importlib
import pickle
import pkgutil
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import randcol
from randcol import graphs, harness
from randcol.graphs import complete_graph
from randcol.harness import ExperimentConfig, _trial_prefix, build_graph, trial_stream
from randcol.errors import InputError
from randcol.sampling import (
    RngStream,
    _below,
    _label_part,
    _limit,
    _offsets,
    _round_rates,
    _word_limit,
    sample_subgraph,
    second_round_rate,
    two_round_sample,
)

from helpers import _aliases_int, ids, out_lists, path_graph, ref_bfs, ref_subgraph_from_uniforms


def ref_key(master_seed, path) -> int:
    """The key rebuilt over the whole (master seed, path)."""
    h = hashlib.blake2b(digest_size=8)
    parts = [str(master_seed)] + [str(p) for p in path]
    for part in parts:
        h.update(f"{len(part)}:{part};".encode())
    return int.from_bytes(h.digest(), "little")


def ref_words(master_seed, path, count: int) -> np.ndarray:
    """splitmix64 of key + (i + 1) * golden, one separate pass per stream."""
    z = np.arange(count, dtype=np.uint64) + np.uint64(1)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(ref_key(master_seed, path))
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def ref_uniforms(master_seed, path, count: int) -> np.ndarray:
    """The variates (word >> 11) * 2^-53 of ref_words."""
    return (ref_words(master_seed, path, count) >> np.uint64(11)) * 2.0 ** -53


def ref_two_round_hits(m: int, first_rate, master_seed, path):
    """Both rounds drawn separately from their child streams, each
    variate compared exactly with its round's Fraction rate."""
    a1 = Fraction(first_rate)
    hit1 = ref_uniforms(master_seed, path + ("round1",), m) < a1
    hit2 = ref_uniforms(master_seed, path + ("round2",), m) < second_round_rate(a1)
    return hit1, hit2


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


rates = st.one_of(
    st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=1000),
    st.sampled_from([0, Fraction(1, 30), Fraction(1, 2), "1/7", 0.25]),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 80), rates, seeds, st.lists(labels, max_size=2).map(tuple))
def test_two_round_hits_equal_the_two_draw_sample(m, rate, seed, path):
    g = path_graph(m + 1)
    sample = two_round_sample(g, rate, RngStream(seed).child(*path))
    want1, want2 = ref_two_round_hits(m, rate, seed, path)
    assert np.array_equal(sample.round1_hit, want1)
    assert np.array_equal(sample.round2_hit, want2)
    assert sample.round1_hit.shape == sample.round2_hit.shape == (m,)
    assert not sample.round1_hit.flags.writeable and not sample.round2_hit.flags.writeable


@settings(max_examples=100, deadline=None)
@given(seeds, paths)
def test_derived_stream_is_the_direct_stream(seed, steps):
    derived, path = RngStream(seed), ()
    for labs in steps:
        derived, path = derived.child(*labs), path + labs
    derived.key()  # fills the cache
    direct = RngStream(seed, path)
    # child() builds its stream without the constructor
    assert type(derived) is RngStream and (derived.master_seed, derived.path) == (seed, path)
    assert derived == direct and hash(derived) == hash(direct)
    assert repr(derived) == repr(direct)
    # the cached hash state is not pickled
    assert pickle.dumps(derived) == pickle.dumps(direct)
    for clone in (pickle.loads(pickle.dumps(derived)), copy.copy(derived), copy.deepcopy(derived)):
        assert clone == direct and repr(clone) == repr(direct)
        assert clone.key() == ref_key(seed, path)
        assert clone.child("c").key() == ref_key(seed, path + ("c",))


def _config(master_seed):
    return ExperimentConfig(kind="core_emptiness", trials=1, master_seed=master_seed,
                            graph={"kind": "complete", "n": 4}, t=1, p=0.5)


def test_trial_streams_are_the_streams_of_their_path():
    # more master seeds than the prefix cache holds, interleaved, so that
    # every prefix is evicted and hashed again between its uses
    count = _trial_prefix.cache_info().maxsize + 7
    configs = [_config(seed) for seed in range(0, 3 * count, 3)]
    for index in (0, 1, 2**40, 5):
        for cfg in configs[::2] + configs[1::2]:
            got = trial_stream(cfg, index)
            want = RngStream(cfg.master_seed).child("trial", index)
            assert got == want and hash(got) == hash(want) and got.path == ("trial", index)
            assert got.key() == want.key() == ref_key(cfg.master_seed, ("trial", index))
            clone = pickle.loads(pickle.dumps(got))
            assert clone == want and clone.key() == want.key()
            assert pickle.dumps(got) == pickle.dumps(want)
    # a trial's own child hashes from the trial's path, not the prefix's
    cfg = configs[0]
    assert trial_stream(cfg, 3).child("sample").key() == ref_key(0, ("trial", 3, "sample"))
    assert trial_stream(cfg, 4) != trial_stream(cfg, 3)


def test_a_child_does_not_touch_its_parents_state():
    root = RngStream(11)
    a = root.child("a")
    a.child("x").key()
    b = root.child("b")
    assert (root.key(), a.key(), b.key()) == (
        ref_key(11, ()), ref_key(11, ("a",)), ref_key(11, ("b",)))
    assert np.array_equal(a.uniforms(5, "y", "z")[1], ref_uniforms(11, ("a", "z"), 5))


# --- draws compared on the integer words ---------------------------------------


def _two_round_rates(alpha):
    a1 = Fraction(alpha) / 3  # ConstructionParams.thm3's first-round rate
    return float(a1), float(second_round_rate(a1))


_NAMED_RATES = [0.0, 1.0, 0.5, 0.25] + [
    r for alpha in ("1/100", "1/10", "3/10") for r in _two_round_rates(alpha)]
# every named rate, its float neighbours on both sides, and random floats
word_rates = st.one_of(
    st.sampled_from([np.nextafter(r, side) for r in _NAMED_RATES for side in (-1.0, 2.0)]
                    + _NAMED_RATES),
    st.floats(-0.5, 1.5),
    st.floats(0, 2.0 ** -40),
)


@settings(max_examples=200, deadline=None)
@given(seeds, st.lists(labels, max_size=3).map(tuple), st.integers(0, 300), word_rates,
       word_rates)
def test_word_comparison_equals_the_float_comparison(seed, rows, count, rate, other):
    stream = RngStream(seed).child("w")
    words = stream.uniforms(count, *rows, words=True)
    assert np.array_equal(_below(words, rate), stream.uniforms(count, *rows) < rate)
    # one rate per row, as two_round_sample compares its rounds
    for row, floats, r in zip(words, stream.uniforms(count, *rows), [rate, other] * len(rows)):
        assert np.array_equal(_below(row, r), floats < r)
    idx = np.arange(count, dtype=np.int64)[::-1].reshape(-1, 1)
    assert np.array_equal(_below(stream.uniform_at(idx, words=True), rate),
                          stream.uniform_at(idx) < rate)


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(0, 60), st.lists(labels, max_size=2, unique=True))
def test_words_are_the_variates_before_scaling(seed, count, rows):
    # a variate is (word >> 11) * 2^-53, row by row with labels
    stream = RngStream(seed).child("words")
    words = stream.uniform_at(np.arange(count), *rows, words=True)
    assert words.dtype == np.uint64
    assert np.array_equal((words >> np.uint64(11)) * 2.0**-53, stream.uniforms(count, *rows))


exact_rates = st.one_of(
    st.sampled_from([Fraction(1, 3), Fraction(2, 7), 1 - Fraction(1, 2**60), Fraction(1, 2**60),
                     Fraction(0), Fraction(1)]),
    st.fractions(min_value=0, max_value=1, max_denominator=10**20),
    word_rates,
)


@settings(max_examples=200, deadline=None)
@given(exact_rates)
def test_below_decides_every_word_as_its_variate(rate):
    # a word's variate is (word >> 11) * 2^-53; the words around the
    # limit and at both ends of the range must compare as their variates
    c = _word_limit(rate) >> 11
    assert 0 <= c <= 2**53
    near = {0, 2**11 - 1, 2**64 - 2**11, 2**64 - 1}
    near |= {w for k in (c - 1, c) for w in (k << 11, (k << 11) + 2**11 - 1) if 0 <= w < 2**64}
    words = sorted(near)
    want = [Fraction(w >> 11, 2**53) < rate for w in words]
    assert _below(np.array(words, dtype=np.uint64), rate).tolist() == want
    # the cached limit is that limit, or None where every word passes
    limit = _limit(rate)
    assert c == 2**53 if limit is None else int(limit) == c << 11 and not limit.flags.writeable


@settings(max_examples=60, deadline=None)
@given(seeds, exact_rates.filter(lambda r: 0 <= r <= 1), st.integers(2, 40))
def test_sample_subgraph_keeps_the_masks_of_the_float_path(seed, p, n):
    # the float path compares each float variate with p itself, so a
    # Fraction compares exactly there as well
    g, stream = complete_graph(n), RngStream(seed).child("edges")
    assert sample_subgraph(g, p, stream) == ref_subgraph_from_uniforms(g, stream.uniforms(g.m), p)


def test_both_samplers_compare_their_rates_exactly(monkeypatch):
    # every drawn word is float(4/9)'s limit: its variate k * 2^-53 is
    # below 4/9 but not below float(4/9), which rounds 4/9 down
    word = _word_limit(float(Fraction(4, 9)))
    assert word < _word_limit(Fraction(4, 9))
    monkeypatch.setattr(RngStream, "uniform_at", lambda self, indices, *labels, words=False:
                        np.full((len(labels),) * bool(labels) + (len(indices),), word, dtype=np.uint64))
    g, stream = path_graph(2), RngStream(0)
    assert sample_subgraph(g, Fraction(4, 9), stream).m == 1
    assert sample_subgraph(g, float(Fraction(4, 9)), stream).m == 0
    # first rate 1/10: round 2 deletes at (1/2 - 1/10) / (1 - 1/10) = 4/9
    sample = two_round_sample(g, Fraction(1, 10), stream)
    assert sample.round2_hit.tolist() == [True] and sample.round1_hit.tolist() == [False]


# --- the cached parts of a draw: offsets per count, label bytes, limits ---------

counts = st.one_of(st.sampled_from([0, 1, 3, 49, 50, 51]), st.integers(0, 90))


@settings(max_examples=150, deadline=None)
@given(seeds, st.lists(labels, max_size=2).map(tuple), counts,
       st.lists(labels, max_size=3).map(tuple), rates)
def test_cached_draws_equal_the_separate_passes(seed, path, count, rows, rate):
    stream = RngStream(seed).child(*path)
    want = [ref_words(seed, path + (lab,), count) for lab in rows] if rows else \
        ref_words(seed, path, count)
    want_u = (np.asarray(want) >> np.uint64(11)) * 2.0**-53
    words = stream.uniforms(count, *rows, words=True)
    assert words.dtype == np.uint64 and np.array_equal(words, np.asarray(want).reshape(words.shape))
    assert np.array_equal(stream.uniforms(count, *rows), want_u.reshape(words.shape))
    r = float(Fraction(rate))
    assert np.array_equal(_below(words, r), want_u.reshape(words.shape) < r)
    # both rounds as one block, against the two separate draws
    limit = _round_rates(*Fraction(rate).as_integer_ratio())
    block = stream.uniforms(count, "round1", "round2", words=True) < limit
    assert np.array_equal(block, ref_two_round_hits(count, rate, seed, path))
    # a range from 0 takes the cached offsets, and any other positions the
    # uncached path, read-only arrays and other ranges too: the same words
    full = stream.uniforms(count, *rows)
    at = np.arange(count)
    frozen, backwards = np.arange(count, dtype=np.uint64), at[::-1].copy()
    frozen.setflags(write=False)
    backwards.setflags(write=False)
    for idx in (range(count), range(count)[::-1], range(1, count), at, frozen, at[::-1], backwards,
                at.reshape(1, -1).repeat(2, axis=0)):
        got = stream.uniform_at(idx, *rows)
        assert np.array_equal(got, full[..., idx])
    for i in range(min(count, 3)):
        for idx in (i, np.array(i), np.uint64(i)):
            assert np.array_equal(stream.uniform_at(idx, *rows), full[..., i])


def test_the_cached_offsets_stay_unwritten():
    stream = RngStream(4)
    # an index array of the caller's fills no cache
    before = _offsets.cache_info()
    stream.uniform_at(np.arange(77, dtype=np.uint64))
    assert _offsets.cache_info() == before
    before = stream.uniforms(51, words=True)
    offsets = _offsets(51)
    assert not offsets.flags.writeable
    for _ in range(3):
        stream.uniforms(51)
        RngStream(5).uniforms(51, "a", words=True)
    assert np.array_equal(stream.uniforms(51, words=True), before)
    assert np.array_equal(offsets, (np.arange(51, dtype=np.uint64) + np.uint64(1))
                          * np.uint64(0x9E3779B97F4A7C15))


def test_the_alias_rule_survives_the_label_cache():
    stream = RngStream(3)
    stream.uniforms(4, 7)
    stream.child(7)
    stream.uniforms(4, 1, "x")
    before = _label_part.cache_info().currsize
    # typed: 1 is cached, and True, 1.0 and np.int64(1) equal it
    for bad in ("7", "1", True, 1.0, np.int64(1), [1], None):
        with pytest.raises(InputError):
            stream.uniforms(4, bad)
        with pytest.raises(InputError):
            stream.uniforms(4, "x", bad)
        with pytest.raises(InputError):
            stream.child(bad)
    # a label that fails is never cached
    assert _label_part.cache_info().currsize == before
    assert np.array_equal(stream.uniforms(4, 7, 1)[1], ref_uniforms(3, (1,), 4))

    # equal labels of two types keep their own bytes
    class Named(int):
        def __str__(self):
            return "one"

    class Plain(int):
        pass

    for first, second in ((Named(1), Plain(1)), (Plain(2), Named(2))):
        for lab in (first, second):
            assert np.array_equal(stream.uniforms(4, lab)[0], ref_uniforms(3, (lab,), 4))

    class Unhashable(str):  # passes the check without the cache
        __hash__ = None

    assert np.array_equal(stream.uniforms(4, Unhashable("x"))[0], ref_uniforms(3, ("x",), 4))


@pytest.mark.parametrize("cache", [_offsets, _label_part, _limit, _round_rates])
def test_every_draw_cache_is_bounded(cache):
    assert 0 < cache.cache_info().maxsize <= 64


def test_every_cache_in_the_package_is_bounded():
    # every lru_cache that a randcol module defines, found by its cache_info
    found = {}
    for info in pkgutil.iter_modules(randcol.__path__):
        module = importlib.import_module(f"randcol.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                found[f"{info.name}.{name}"] = value.cache_info().maxsize
    assert {"percolation._coins", "harness._trial_prefix"} <= set(found)
    assert all(size is not None and 1 <= size <= 64 for size in found.values()), found
    # the build cache is a dict: past its bound, each miss evicts the oldest
    # entry, and a hit returns the cached graph
    assert 1 <= harness._BUILD_CACHE_SIZE <= 64
    recipes = [{"kind": "cycle", "n": n} for n in range(3, harness._BUILD_CACHE_SIZE + 5)]
    keys = [harness._build_key(recipe, None) for recipe in recipes]
    for key in keys:  # built by other tests, they would be hits
        harness._BUILD_CACHE.pop(key, None)
    built = [build_graph(recipe) for recipe in recipes]
    assert list(harness._BUILD_CACHE) == keys[2:]
    assert build_graph(recipes[-1]) is built[-1]
    # so is each graph's search memo, by the same rule: 3 roots past the
    # bound evict the 3 oldest, and an evicted root is searched afresh
    assert graphs._SEARCHES_SIZE == 64
    n = graphs._SEARCHES_SIZE + 3
    g = graphs.Graph(n, [(v, v + 1) for v in range(n - 1) if v % 10 != 9])  # paths of 10
    for root in range(n):
        graphs.connected_component(g, root)
    assert list(g._searches) == list(range(3, n))
    out = out_lists(g)
    for root in range(3):
        assert ids(graphs.connected_component(g, root)) == set(ref_bfs(out, root))
    assert list(g._searches) == list(range(6, n)) + [0, 1, 2]
