"""Reproducible randomness and random edge subsets.

Randomness is addressed, not consumed: a stream is a (master seed, path)
pair hashed to a 64-bit key, and the i-th variate of a stream is a pure
function of (key, i). Trials, purposes and edges therefore draw from
non-overlapping streams regardless of evaluation order, which is what
makes coupled sampling across probabilities and byte-identical reruns
cheap.
"""

from __future__ import annotations

import hashlib
import numbers
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InputError
from .graphs import Graph, _expect, _frozen, _integer, _is_integer, _sized

# 0-d arrays: ufuncs take them with less overhead than numpy scalars
_GOLDEN, _MIX1, _MIX2, _ONE, _S11, _S27, _S30, _S31 = (
    np.array(k, dtype=np.uint64)
    for k in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 1, 11, 27, 30, 31)
)
_INV53 = np.array(2.0 ** -53)
_TOP = 1 << 53  # a variate is k * 2^-53 for an integer k in [0, 2^53)

# Exactly the strings str() gives for an int: such a label would hash
# like that int, since keys encode labels with str().
_INT_LITERAL = re.compile(r"0|-?[1-9][0-9]*")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _checked(labels: tuple) -> tuple:
    for lab in labels:
        if isinstance(lab, str):
            if _INT_LITERAL.fullmatch(lab):
                raise InputError(f"string label {lab!r} would alias the int label {lab}")
        elif not _is_int(lab):
            raise InputError(f"stream labels must be int or str, got {type(lab).__name__}")
    return labels


def _encoded(part) -> bytes:
    """part as a key hashes it: "len:text;" with text = str(part)."""
    text = str(part)
    return f"{len(text)}:{text};".encode()


def _fed(h, parts):
    """h after hashing each part (see _encoded); returns h."""
    for part in parts:
        h.update(_encoded(part))
    return h


@lru_cache(maxsize=64, typed=True)
def _label_part(label) -> bytes:
    """A row label, checked and encoded once: typed, so 1, True, 1.0 and
    np.int64(1) never share an entry; a label that fails is not cached."""
    return _encoded(_checked((label,))[0])


def _row_keys(state, labels) -> np.ndarray:
    """The key of child(label) for each label, from the parent's state."""
    keys = []
    for lab in labels:
        try:
            part = _label_part(lab)
        except TypeError:  # unhashable: checked and encoded without the cache
            part = _encoded(_checked((lab,))[0])
        h = state.copy()
        h.update(part)
        keys.append(_key_of(h))
    return np.array(keys, dtype=np.uint64)


def _key_of(h) -> int:
    """The 64-bit key of a finished hash state."""
    return int.from_bytes(h.digest(), "little")


@lru_cache(maxsize=8)
def _offsets(count: int) -> np.ndarray:
    """(i + 1) * golden for i in range(count), read-only (see uniform_at)."""
    return _frozen((np.arange(count, dtype=np.uint64) + _ONE) * _GOLDEN)


def _word_limit(rate) -> int:
    """The least L with (variate < rate) == (word < L).

    A variate is (word >> 11) * 2^-53 = k * 2^-53, exactly, so for an
    integer k, k * 2^-53 < rate iff k < ceil(rate * 2^53) iff word <
    ceil(rate * 2^53) << 11. rate is read exactly through its integer
    ratio, so a Fraction compares as itself, not as its nearest float.
    L lies in [0, 2^64]: 0 for rate <= 0, 2^64 for rate > 1 - 2^-53."""
    try:
        if rate >= 1:
            return _TOP << 11
        if rate <= 0:
            return 0
        num, den = rate.as_integer_ratio()
    except (AttributeError, TypeError, ValueError):  # NaN has no ratio
        raise InputError(f"rate must be a real number, got {rate!r}") from None
    return -(-num * _TOP // den) << 11


def _below(words: np.ndarray, rate) -> np.ndarray:
    """Whether each word's variate is below rate, decided on the words
    (see _word_limit)."""
    limit = _limit(rate)
    return np.ones(words.shape, dtype=bool) if limit is None else words < limit


@lru_cache(maxsize=32)
def _limit(rate):
    """_word_limit(rate) as a read-only 0-d uint64, once per rate; None
    when it is 2^64, beyond uint64, where every word passes."""
    limit = _word_limit(rate)
    return None if limit >> 64 else _frozen(np.array(limit, dtype=np.uint64))


@dataclass(frozen=True)
class RngStream:
    """A named, forkable source of index-addressable uniforms.

    child(*labels) derives an independent stream; uniforms(k) /
    uniform_at(idx) give the stream's variates by position, and with
    labels one row per child stream in one pass. Use one stream per
    purpose; generator() taps the same key for sequential
    (shuffle-style) use and should live on its own child stream.

    A stream keeps the blake2b state of its (master seed, path), so a
    child hashes only its own labels. The cached state is not part of
    the value: equality, hash, repr, copy and pickle see
    (master_seed, path) alone.
    """

    master_seed: int
    path: tuple = ()

    def __post_init__(self):
        if not _is_int(self.master_seed):
            raise InputError(f"master seed must be an int, got {type(self.master_seed).__name__}")
        if not isinstance(self.path, tuple):
            raise InputError(f"path must be a tuple of labels, got {type(self.path).__name__}")
        _checked(self.path)

    def __reduce__(self):
        return RngStream, (self.master_seed, self.path)

    def _state(self):
        """The blake2b state after (master seed, path); copy before use."""
        h = self.__dict__.get("_h")
        if h is None:
            h = self.__dict__["_h"] = _fed(hashlib.blake2b(digest_size=8),
                                          (self.master_seed, *self.path))
        return h

    def child(self, *labels) -> "RngStream":
        h = _fed(self._state().copy(), _checked(labels))
        # built without __init__: this master seed was checked in self's
        s = object.__new__(RngStream)
        s.__dict__.update(master_seed=self.master_seed, path=self.path + labels, _h=h)
        return s

    def key(self) -> int:
        return _key_of(self._state())

    def uniforms(self, count: int, *labels, words=False) -> np.ndarray:
        if _integer(count, "count", None) < 0:
            raise InputError("count must be non-negative")
        return self.uniform_at(range(count), *labels, words=words)

    def uniform_at(self, indices, *labels, words=False) -> np.ndarray:
        """The variates at indices (non-negative integers). With labels,
        row j holds those of child(labels[j]): shape (len(labels),) + indices' shape.

        With words, the uint64 words themselves, which _below compares
        exactly against a rate (see _word_limit) without making the
        variates."""
        # splitmix64 of key + (i + 1) * golden, in place once the key is
        # added; a range from 0, as uniforms passes, has its offsets cached
        if type(indices) is range and indices.start == 0 and indices.step == 1:
            z = _offsets(len(indices))
        else:
            z = np.asarray(indices)
            if z.size and (z.dtype.kind not in "iu" or z.min() < 0):
                raise InputError("indices must be non-negative integers")
            z = (z.astype(np.uint64, copy=False) + _ONE) * _GOLDEN
        if labels:
            z = np.add.outer(_row_keys(self._state(), labels), z)
        else:  # a ufunc: a 0-d draw is a numpy scalar, whose + warns as it wraps
            z = np.add(z, np.uint64(self.key()))
        z ^= z >> _S30
        z *= _MIX1
        z ^= z >> _S27
        z *= _MIX2
        z ^= z >> _S31
        if words:
            return z
        z >>= _S11
        return z * _INV53

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(self.key())


def _check_probability(p) -> None:
    """InputError unless p is a real number in [0, 1]; a bool is not one.
    A plain float, the sweeps' case, skips the costlier ABC check."""
    if (type(p) is not float and (isinstance(p, bool) or not isinstance(p, numbers.Real))
            or not 0 <= p <= 1):
        raise InputError(f"probability must be a number in [0, 1], got {p!r}")


def sample_subgraph(g: Graph, p: float, stream: RngStream) -> Graph:
    """Independent p-subgraph: each edge retained with probability p.
    Edge i is kept iff stream's variate i is below p, compared exactly:
    a Fraction p compares as itself."""
    _expect(g, Graph, "sample_subgraph")
    _check_probability(p)
    return g._with_mask(_below(stream.uniforms(g.m, words=True), p))


def _parts(words: np.ndarray, parts: int) -> np.ndarray:
    """floor(k * parts / 2^53) for k = word >> 11 (Lemire 2019), exact for
    parts < 2^32 in two limbs, since k * parts passes 2^64: with
    k = hi * 2^32 + lo, it is (hi * parts + (lo * parts >> 32)) >> 21."""
    k = words >> _S11
    return ((k >> 32) * parts + (((k & 0xFFFFFFFF) * parts) >> 32)) >> 21


def partition_split(g: Graph, parts: int, stream: RngStream) -> list[Graph]:
    """Assign every edge to exactly one of `parts` spanning subgraphs,
    independently and uniformly: edge i goes to part
    floor(k * parts / 2^53), where k * 2^-53 is stream's variate i."""
    _expect(g, Graph, "partition_split")
    if not (_is_integer(parts) and 1 <= parts < 1 << 32):
        raise InputError(f"parts must be an integer in [1, 2^32), got {parts!r}")
    # an int, since a numpy integer would promote the uint64 words to float64
    which = _parts(stream.uniforms(g.m, words=True), int(parts))
    return [g._with_mask(which == j) for j in range(parts)]


def _rate_ratio(first_rate) -> tuple[int, int]:
    """The exact integer ratio of a first-round rate; InputError unless
    it is a finite number (not a bool) or a string that Fraction reads."""
    if type(first_rate) is Fraction:
        return first_rate.numerator, first_rate.denominator
    try:
        if not hasattr(first_rate, "as_integer_ratio"):
            first_rate = Fraction(first_rate)
        ratio = first_rate.as_integer_ratio()
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        ratio = None
    if ratio is None or isinstance(first_rate, bool):
        raise InputError(f"first-round rate must be a finite number, got {first_rate!r}")
    return ratio


def second_round_rate(first_rate) -> Fraction:
    """Deletion rate for the second round so that overall per-edge
    survival is exactly 1/2: (1/2 - a)/(1 - a)."""
    a = Fraction(*_rate_ratio(first_rate))
    if not (0 <= a <= Fraction(1, 2)):
        raise InputError("first-round rate must lie in [0, 1/2]")
    return (Fraction(1, 2) - a) / (1 - a)


@lru_cache(maxsize=32)
def _round_rates(numerator: int, denominator: int) -> np.ndarray:
    """The read-only (2, 1) column of both rates' exact word limits
    (neither rate exceeds 1/2, so neither limit leaves uint64), computed
    once per first rate. Keyed by the rate's integer ratio, since a
    Fraction key would hash in pure Python per sample."""
    a1 = Fraction(numerator, denominator)
    rates = a1, second_round_rate(a1)
    return _frozen(np.array([[_word_limit(r)] for r in rates], dtype=np.uint64))


@dataclass(frozen=True, eq=False)  # array fields break the generated __eq__
class TwoRoundSample:
    """Outcome of the two-round edge deletion process.

    Both rounds are sampled independently over all edges; an edge is
    deleted if either round hits it, so survival is (1-a1)(1-a2) = 1/2
    per edge. round1_hit and round2_hit are read-only boolean masks over
    the canonical edge index of graph, each the full sample of its round
    (an edge can be hit by both).
    """

    graph: Graph
    round1_hit: np.ndarray
    round2_hit: np.ndarray

    def __post_init__(self):  # skipped by two_round_sample; the survivors rely on it
        for hit in (self.round1_hit, self.round2_hit):
            _sized(hit, self.graph.m, "a round's hits")

    def round2_only_survivors(self) -> Graph:
        """Edges missed by the second-round sample, ignoring round one."""
        return self.graph._with_mask(~self.round2_hit)

    def survivors(self) -> Graph:
        return self.graph._with_mask(~(self.round1_hit | self.round2_hit))


def two_round_sample(g: Graph, first_rate, stream: RngStream) -> TwoRoundSample:
    """Delete edges in two independent rounds at rates a and
    (1/2 - a)/(1 - a), each compared exactly (see _word_limit); the
    union of deletions leaves every edge alive with probability exactly
    1/2. first_rate is a number or a string
    that Fraction reads."""
    _expect(g, Graph, "two_round_sample")
    limit = _round_rates(*_rate_ratio(first_rate))
    # row r is round r's stream, child("round<r>"), its words compared
    # with the limit of its rate; rows of a read-only block are read-only
    hits = _frozen(stream.uniforms(g.m, "round1", "round2", words=True) < limit)
    # built as RngStream.child builds a stream, without the frozen __init__
    sample = object.__new__(TwoRoundSample)
    sample.__dict__.update(graph=g, round1_hit=hits[0], round2_hit=hits[1])
    return sample
