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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError
from .graphs import Graph

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV53 = 2.0 ** -53


def _splitmix(z: np.ndarray) -> np.ndarray:
    z = z.copy()
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


@dataclass(frozen=True)
class RngStream:
    """A named, forkable source of index-addressable uniforms.

    child(*labels) derives an independent stream; uniforms(k) /
    uniform_at(idx) give the stream's variates by position. Use one
    stream per purpose; generator() taps the same key for sequential
    (shuffle-style) use and should live on its own child stream.
    """

    master_seed: int
    path: tuple = ()

    def child(self, *labels) -> "RngStream":
        for lab in labels:
            if not isinstance(lab, (int, str)):
                raise InputError(f"stream labels must be int or str, got {type(lab).__name__}")
        return RngStream(self.master_seed, self.path + tuple(labels))

    def key(self) -> int:
        h = hashlib.blake2b(digest_size=8)
        parts = [str(self.master_seed)] + [str(p) for p in self.path]
        for part in parts:
            h.update(f"{len(part)}:{part};".encode())
        return int.from_bytes(h.digest(), "little")

    def uniforms(self, count: int) -> np.ndarray:
        if count < 0:
            raise InputError("count must be non-negative")
        return self.uniform_at(np.arange(count, dtype=np.uint64))

    def uniform_at(self, indices) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.uint64)
        z = np.uint64(self.key()) + (idx + np.uint64(1)) * _GOLDEN
        return (_splitmix(z) >> np.uint64(11)).astype(np.float64) * _INV53

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(self.key())


def edge_uniforms(g: Graph, stream: RngStream) -> np.ndarray:
    """One uniform per canonical edge index of g."""
    return stream.uniforms(g.m)


def subgraph_from_uniforms(g: Graph, u: np.ndarray, p: float) -> Graph:
    """Keep edge i iff u[i] < p. Deterministic given (g, u, p)."""
    if len(u) != g.m:
        raise InputError("uniform count must match edge count")
    if not (0.0 <= p <= 1.0):
        raise InputError(f"probability {p} outside [0, 1]")
    kept = [g.edges[i] for i in np.flatnonzero(u < p)]
    return g.with_edges(kept)


def sample_subgraph(g: Graph, p: float, stream: RngStream) -> Graph:
    """Independent p-subgraph: each edge retained with probability p."""
    return subgraph_from_uniforms(g, edge_uniforms(g, stream), p)


def coupled_subgraphs(g: Graph, ps: Sequence[float], stream: RngStream) -> list[Graph]:
    """p-subgraphs for several p from one uniform draw, so that the
    subgraph at a smaller p is contained in the one at any larger p."""
    u = edge_uniforms(g, stream)
    return [subgraph_from_uniforms(g, u, p) for p in ps]


def partition_split(g: Graph, parts: int, stream: RngStream) -> list[Graph]:
    """Assign every edge to exactly one of `parts` spanning subgraphs,
    independently and uniformly."""
    if parts < 1:
        raise InputError("parts must be >= 1")
    u = edge_uniforms(g, stream)
    which = np.minimum((u * parts).astype(np.int64), parts - 1)
    buckets: list[list] = [[] for _ in range(parts)]
    for i, e in enumerate(g.edges):
        buckets[which[i]].append(e)
    return [g.with_edges(b) for b in buckets]


def second_round_rate(first_rate: Fraction) -> Fraction:
    """Deletion rate for the second round so that overall per-edge
    survival is exactly 1/2: (1/2 - a)/(1 - a)."""
    a = Fraction(first_rate)
    if not (0 <= a <= Fraction(1, 2)):
        raise InputError("first-round rate must lie in [0, 1/2]")
    return (Fraction(1, 2) - a) / (1 - a)


@dataclass(frozen=True)
class TwoRoundSample:
    """Outcome of the two-round edge deletion process.

    Both rounds are sampled independently over all edges; an edge is
    deleted if either round hits it, so survival is (1-a1)(1-a2) = 1/2
    per edge. round2_deleted lists only the edges newly removed in round
    two (disjoint from round1_deleted); round2_hit records the full
    second-round sample for audits that care about it alone.
    """

    graph: Graph
    first_rate: float
    round1_deleted: tuple
    round2_deleted: tuple
    round2_hit: tuple = field(repr=False, default=())

    def round1_survivors(self) -> Graph:
        gone = set(self.round1_deleted)
        return self.graph.with_edges(
            e for i, e in enumerate(self.graph.edges) if i not in gone
        )

    def round2_only_survivors(self) -> Graph:
        """Edges missed by the second-round sample, ignoring round one."""
        hit = set(self.round2_hit)
        return self.graph.with_edges(
            e for i, e in enumerate(self.graph.edges) if i not in hit
        )

    def survivors(self) -> Graph:
        gone = set(self.round1_deleted) | set(self.round2_deleted)
        return self.graph.with_edges(
            e for i, e in enumerate(self.graph.edges) if i not in gone
        )


def two_round_sample(g: Graph, first_rate, stream: RngStream) -> TwoRoundSample:
    """Delete edges in two independent rounds at rates a and
    (1/2 - a)/(1 - a); the union of deletions leaves every edge alive
    with probability exactly 1/2."""
    a1 = Fraction(first_rate)
    a2 = second_round_rate(a1)
    u1 = stream.child("round1").uniforms(g.m)
    u2 = stream.child("round2").uniforms(g.m)
    hit1 = u1 < float(a1)
    hit2 = u2 < float(a2)
    round1 = tuple(int(i) for i in np.flatnonzero(hit1))
    round2 = tuple(int(i) for i in np.flatnonzero(hit2 & ~hit1))
    return TwoRoundSample(
        graph=g,
        first_rate=float(a1),
        round1_deleted=round1,
        round2_deleted=round2,
        round2_hit=tuple(int(i) for i in np.flatnonzero(hit2)),
    )
