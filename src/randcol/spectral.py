"""Second adjacency eigenvalues of regular graphs, and audits of the two
expansion properties the constructions rest on: the Alon-Milman
edge-boundary bound that lambda2 certifies, and directed vertex expansion.

Both audits draw their subsets from _subset_blocks, as blocks of boolean
rows whose rows times width (max(n, arcs)) stay under SWEEP_CELLS, and
_sweep reduces each block with array operations over the arcs: the
crossing arcs (tail inside, head outside) count the edge boundary, and
their distinct heads are the directed out-boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InputError
from .graphs import DiGraph, Graph, _csr, _expect, _integer, is_connected
from .sampling import RngStream

TOLERANCE = 1e-9
EXHAUSTIVE_CAP = 18
DEFAULT_SUBSET_SAMPLES = 10_000
SWEEP_CELLS = 1 << 20  # block rows times width; bounds a subset sweep's memory
# eigsh's default Krylov dimension for one eigenvalue, max(2k + 1, 20) at
# k = 1. A graph this small fills ARPACK's whole Krylov space, after which
# its last bits vary from call to call, so it gets a dense solve instead.
DENSE_CAP = max(2 * 1 + 1, 20)


@dataclass(frozen=True)
class ExpansionCertificate:
    """Measured directed vertex expansion: min |out-boundary(S)| /
    min(|S|, n-|S|) over the subsets checked. Exact when exhaustive."""

    c3_hat: float
    mode: str
    witness: tuple


def second_eigenvalue(g: Graph) -> float:
    """Second-largest adjacency eigenvalue of a connected regular graph,
    to TOLERANCE.

    ARPACK Lanczos (scipy's eigsh) for the largest eigenvalue of
    A - ((2d+1)/n) J, d the common degree. Regularity makes the all-ones
    vector an eigenvector of both terms, so the shift moves its
    eigenvalue from d to -(d+1), below the rest of the spectrum, and
    leaves the others unchanged. The start vector is seeded, and graphs
    of at most DENSE_CAP vertices get a dense solve of the same matrix,
    so a graph always gets the same bits back.
    """
    _expect(g, Graph, "second_eigenvalue")
    if g.n < 2:
        raise InputError("need at least two vertices")
    d = g.regular_degree()
    if d is None:
        raise InputError("graph is not regular")
    if not is_connected(g):
        raise InputError("graph must be connected")
    n = g.n
    indptr, indices = g._csr_arrays()
    shift = (2 * d + 1) / n
    if n <= DENSE_CAP:
        a = np.zeros((n, n))
        a[np.repeat(np.arange(n), np.diff(indptr)), indices] = 1
        return float(np.linalg.eigvalsh(a - shift)[-1])
    import scipy.sparse  # here, since at module level it would more than double `import randcol`
    import scipy.sparse.linalg

    a = scipy.sparse.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))
    op = scipy.sparse.linalg.LinearOperator(
        (n, n), matvec=lambda x: a @ x - shift * x.sum(axis=0), dtype=np.float64
    )
    v0 = np.random.default_rng(0xC0FFEE).standard_normal(n)
    try:
        vals = scipy.sparse.linalg.eigsh(op, k=1, which="LA", v0=v0, tol=TOLERANCE,
                                         return_eigenvectors=False)
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise ConvergenceError(f"second eigenvalue did not converge to {TOLERANCE}: {exc}") from None
    return float(vals[0])


def alon_milman_lower_bound(d: int, lambda2: float, s_size, n: int):
    """Guaranteed edge-boundary size (d - lambda2) * |S| * (n - |S|) / n,
    for one subset size or an array of them."""
    d, n, sizes = _integer(d, "d"), _integer(n, "n"), np.asarray(s_size)
    if sizes.dtype.kind not in "iuf":
        raise InputError(f"subset sizes must be numbers, got {s_size!r}")
    s_size = sizes if sizes.ndim else s_size  # a scalar stays, so its bound is a float
    if np.any((s_size < 0) | (s_size > n)):
        raise InputError(f"subset size {s_size} outside 0..{n}")
    return (d - lambda2) * s_size * (n - s_size) / n


def _subset_blocks(n: int, width: int, samples: int, rng):
    """Subsets of 0..n-1 as blocks of boolean rows, SWEEP_CELLS // width
    rows at most: with no rng, row s holds the bits of s for s = 0..2^n-1;
    otherwise `samples` subsets drawn uniformly by size in 1..n-1, then
    by membership."""
    step = max(1, SWEEP_CELLS // width)
    total = (1 << n) if rng is None else samples
    for lo in range(0, total, step):
        hi = min(lo + step, total)
        if rng is None:
            block = ((np.arange(lo, hi)[:, None] >> np.arange(n)) & 1).astype(bool)
        else:
            block = np.zeros((hi - lo, n), dtype=bool)
            for row in block:
                row[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = True
        yield block


def _members(row: np.ndarray) -> tuple:
    return tuple(np.flatnonzero(row).tolist())


def _sweep(indptr: np.ndarray, indices: np.ndarray, samples: int, rng, score):
    """Least boundary / denominator over the proper subsets, the first
    subset attaining it, and the first 32 flagged (subset, boundary, bound).

    The arcs into v come from indices[indptr[v]:indptr[v + 1]].
    score(sizes, crossing) maps a block's subset sizes and crossing arcs
    to boundaries, denominators and flagged (row, boundary, bound).
    """
    n = len(indptr) - 1
    heads = np.repeat(np.arange(n), np.diff(indptr))
    best, witness, flagged = math.inf, (), []
    for rows in _subset_blocks(n, max(n, len(indices)), samples, rng):
        sizes = rows.sum(axis=1)
        boundary, denominator, bad = score(sizes, rows[:, indices] & ~rows[:, heads])
        ratio = np.divide(boundary, denominator, out=np.full(len(rows), math.inf),
                          where=(sizes > 0) & (sizes < n))
        i = int(np.argmin(ratio))
        if ratio[i] < best:
            best, witness = float(ratio[i]), _members(rows[i])
        for j, b, bound in bad[: 32 - len(flagged)]:
            flagged.append((_members(rows[j]), b, bound))
    return best, witness, flagged


@dataclass(frozen=True)
class AlonMilmanReport:
    """Audit of the spectral edge-boundary bound over vertex subsets."""

    lambda2: float
    mode: str
    n_checked: int
    violations: tuple
    tightest_ratio: float
    witness: tuple


def verify_alon_milman(g: Graph) -> AlonMilmanReport:
    """Check |edge boundary of S| >= (d - lambda2)|S|(n - |S|)/n.

    Exhaustive over all subsets when n <= EXHAUSTIVE_CAP, otherwise over
    DEFAULT_SUBSET_SAMPLES random subsets drawn uniformly by size then
    membership, from a fixed stream. Violations are collected, not
    raised; any violation means a bug, not new mathematics.
    """
    _expect(g, Graph, "verify_alon_milman")
    lambda2 = second_eigenvalue(g)
    d, n = g.regular_degree(), g.n
    slack = 1e-7  # eigenvalue tolerance leaves the bound this fuzzy

    def score(sizes, crossing):
        # each edge with one end in S has exactly one crossing arc
        boundary = crossing.sum(axis=1)
        bound = alon_milman_lower_bound(d, lambda2, sizes, n)
        bad = np.flatnonzero(boundary < bound - slack)[:32].tolist()
        return boundary, bound, [(j, int(boundary[j]), float(bound[j])) for j in bad]

    exhaustive = n <= EXHAUSTIVE_CAP
    rng = None if exhaustive else RngStream(0).child("alon-milman").generator()
    tightest, witness, violations = _sweep(*g._csr_arrays(), DEFAULT_SUBSET_SAMPLES, rng, score)
    return AlonMilmanReport(
        lambda2=lambda2,
        mode="exhaustive" if exhaustive else "sampled",
        n_checked=(1 << n) if exhaustive else DEFAULT_SUBSET_SAMPLES,
        violations=tuple(violations),
        tightest_ratio=tightest,
        witness=witness,
    )


def verify_vertex_expansion(
    h: DiGraph,
    samples: int = DEFAULT_SUBSET_SAMPLES,
    exhaustive_cap: int = EXHAUSTIVE_CAP,
) -> ExpansionCertificate:
    """Measured vertex expansion of a 2-in 2-out digraph.

    c3_hat = min over non-trivial S of |out-boundary(S)| / min(|S|, n-|S|);
    exact for n <= exhaustive_cap (full subset sweep), otherwise sampled
    from a fixed stream.
    """
    _expect(h, DiGraph, "verify_vertex_expansion")
    samples = _integer(samples, "samples", 1)
    if not h.is_regular(2):
        raise InputError("digraph must have in- and out-degree exactly 2")
    n = h.n
    if n < 2:
        raise InputError("need at least two vertices")
    indptr, indices = _csr(n, *h.arcs.T[::-1])
    firsts = indptr[:-1]  # every vertex has in-arcs, so each starts its own run

    def score(sizes, crossing):
        # the out-boundary is the set of distinct heads of crossing arcs
        boundary = np.logical_or.reduceat(crossing, firsts, axis=1).sum(axis=1)
        return boundary, np.minimum(sizes, n - sizes), []

    exhaustive = n <= _integer(exhaustive_cap, "exhaustive_cap")
    rng = None if exhaustive else RngStream(0).child("vertex-expansion").generator()
    best, witness, _ = _sweep(indptr, indices, samples, rng, score)
    return ExpansionCertificate(
        c3_hat=best,
        mode="exhaustive" if exhaustive else "sampled",
        witness=witness,
    )
