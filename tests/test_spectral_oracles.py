"""The blocked subset sweep behind both expansion audits against the
per-subset loops it replaced, kept here as the reference: whole reports
must be equal, field types included."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from randcol import spectral
from randcol.errors import GenerationError
from randcol.generators import random_regular_graph, random_two_regular_digraph
from randcol.graphs import DiGraph, Graph, is_connected, vertex_boundary
from randcol.sampling import RngStream
from randcol.spectral import (
    AlonMilmanReport,
    ExpansionCertificate,
    alon_milman_lower_bound,
    verify_alon_milman,
    verify_vertex_expansion,
)


def ref_popcounts(masks, n):
    out = np.zeros(len(masks), dtype=np.int64)
    for b in range(n):
        out += (masks >> b) & 1
    return out


def ref_alon_milman(g, samples=10_000, exhaustive_cap=18):
    d = g.regular_degree()
    lambda2 = spectral.second_eigenvalue(g)  # by attribute, so a patch reaches it
    n = g.n
    slack = 1e-7
    violations = []
    tightest = float("inf")
    witness = ()
    if n <= exhaustive_cap:
        mode = "exhaustive"
        masks = np.arange(1 << n, dtype=np.int64)
        sizes = ref_popcounts(masks, n)
        boundary = np.zeros(len(masks), dtype=np.int64)
        for u, v in g.edges.tolist():
            boundary += ((masks >> u) ^ (masks >> v)) & 1
        bound = (d - lambda2) * sizes * (n - sizes) / n
        n_checked = len(masks)
        bad = np.flatnonzero(boundary < bound - slack)
        for s in bad[:32]:
            members = tuple(v for v in range(n) if s >> v & 1)
            violations.append((members, int(boundary[s]), float(bound[s])))
        proper = (sizes > 0) & (sizes < n)
        ratios = boundary[proper] / bound[proper]
        idx = int(np.argmin(ratios))
        tightest = float(ratios[idx])
        wmask = int(masks[proper][idx])
        witness = tuple(v for v in range(n) if wmask >> v & 1)
    else:
        mode = "sampled"
        rng = RngStream(0).child("alon-milman").generator()
        n_checked = samples
        for _ in range(samples):
            size = int(rng.integers(1, n))
            inside = np.isin(np.arange(n), rng.choice(n, size=size, replace=False))
            members = tuple(np.flatnonzero(inside).tolist())
            u, v = g.edges.T
            b = int(np.count_nonzero(inside[u] != inside[v]))  # edges leaving the set
            bound = alon_milman_lower_bound(d, lambda2, size, n)
            if b < bound - slack:
                if len(violations) < 32:
                    violations.append((members, b, bound))
            ratio = b / bound
            if ratio < tightest:
                tightest = ratio
                witness = members
    return AlonMilmanReport(lambda2=lambda2, mode=mode, n_checked=n_checked,
                            violations=tuple(violations), tightest_ratio=tightest, witness=witness)


def ref_vertex_expansion(h, samples=10_000, exhaustive_cap=18):
    n = h.n
    best = float("inf")
    witness = ()
    if n <= exhaustive_cap:
        mode = "exhaustive"
        out_masks = [0] * n
        for u, v in h.arcs.tolist():
            out_masks[u] |= 1 << v
        full = (1 << n) - 1
        reach = [0] * (1 << n)
        for s in range(1, 1 << n):
            low = s & -s
            v = low.bit_length() - 1
            reach[s] = reach[s ^ low] | out_masks[v]
            size = s.bit_count()
            if size == n:
                continue
            b = (reach[s] & ~s & full).bit_count()
            ratio = b / min(size, n - size)
            if ratio < best:
                best = ratio
                witness = tuple(v for v in range(n) if s >> v & 1)
    else:
        mode = "sampled"
        rng = RngStream(0).child("vertex-expansion").generator()
        for _ in range(samples):
            size = int(rng.integers(1, n))
            inside = np.isin(np.arange(n), rng.choice(n, size=size, replace=False))
            b = int(vertex_boundary(h, inside).sum())
            ratio = b / min(size, n - size)
            if ratio < best:
                best = ratio
                witness = tuple(np.flatnonzero(inside).tolist())
    return ExpansionCertificate(c3_hat=float(best), mode=mode, witness=witness)


def assert_same(got, want):
    assert got == want
    for field in dataclasses.fields(got):
        assert type(getattr(got, field.name)) is type(getattr(want, field.name)), field.name
    assert all(type(v) is int for v in got.witness)
    for members, boundary, bound in getattr(got, "violations", ()):
        assert all(type(v) is int for v in members)
        assert type(boundary) is int and type(bound) is float


def sampled_alon_milman(g, samples):
    """verify_alon_milman in sampled mode, which it takes above
    spectral.EXHAUSTIVE_CAP, over `samples` subsets."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "EXHAUSTIVE_CAP", 0)
        mp.setattr(spectral, "DEFAULT_SUBSET_SAMPLES", samples)
        return verify_alon_milman(g)


def sampled_vertex_expansion(h, samples):
    return verify_vertex_expansion(h, samples=samples, exhaustive_cap=0)


def both_modes(run, sampled, ref, g):
    with pytest.MonkeyPatch.context() as mp:
        if isinstance(g, Graph):
            # one lambda2 for both sides: on tiny graphs with lambda2 = 0,
            # ARPACK's last bits differ from call to call
            lambda2 = spectral.second_eigenvalue(g)
            mp.setattr(spectral, "second_eigenvalue", lambda g: lambda2)
        assert_same(run(g), ref(g))
        assert_same(sampled(g, 150), ref(g, samples=150, exhaustive_cap=0))


@st.composite
def regular_graphs(draw):
    n = draw(st.integers(3, 14))
    d = draw(st.integers(2, n - 1).filter(lambda d: n * d % 2 == 0))
    try:
        g = random_regular_graph(n, d, draw(st.integers(0, 2**16)))
    except GenerationError:
        assume(False)
    assume(is_connected(g))
    return g


@st.composite
def two_in_two_out(draw):
    """A random 2-in/2-out digraph, or two disjoint ones, so that zero
    expansion and its ties are drawn too."""
    parts = []
    for _ in range(draw(st.integers(1, 2))):
        n, seed = draw(st.integers(3, 7)), draw(st.integers(0, 2**16))
        try:
            parts.append(random_two_regular_digraph(n, seed))
        except GenerationError:
            assume(False)
    shift, arcs = 0, []
    for h in parts:
        arcs += (h.arcs + shift).tolist()
        shift += h.n
    return DiGraph(shift, arcs)


@settings(max_examples=60, deadline=None)
@given(regular_graphs())
def test_alon_milman_matches_the_subset_loops(g):
    both_modes(verify_alon_milman, sampled_alon_milman, ref_alon_milman, g)


@settings(max_examples=60, deadline=None)
@given(two_in_two_out())
def test_vertex_expansion_matches_the_subset_loops(h):
    both_modes(verify_vertex_expansion, sampled_vertex_expansion, ref_vertex_expansion, h)


def test_blocks_carry_the_witness_across(monkeypatch):
    monkeypatch.setattr(spectral, "SWEEP_CELLS", 64)  # a few rows a block
    g = random_regular_graph(12, 3, 0)
    h = random_two_regular_digraph(12, 0)
    both_modes(verify_alon_milman, sampled_alon_milman, ref_alon_milman, g)
    both_modes(verify_vertex_expansion, sampled_vertex_expansion, ref_vertex_expansion, h)


@pytest.mark.parametrize("cells", [spectral.SWEEP_CELLS, 64], ids=["one-block", "many-blocks"])
def test_first_32_violations_match(monkeypatch, cells):
    monkeypatch.setattr(spectral, "second_eigenvalue", lambda g: -float(g.regular_degree()))
    monkeypatch.setattr(spectral, "SWEEP_CELLS", cells)
    g = random_regular_graph(10, 3, 0)
    for got, want in ((verify_alon_milman(g), ref_alon_milman(g)),
                      (sampled_alon_milman(g, 400), ref_alon_milman(g, 400, exhaustive_cap=0))):
        assert len(got.violations) == 32
        assert_same(got, want)
