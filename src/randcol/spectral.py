"""Second adjacency eigenvalues of regular graphs and verification of
the edge- and vertex-expansion lower bounds they certify."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InputError
from .graphs import DiGraph, Graph, edge_boundary, is_connected, vertex_boundary
from .sampling import RngStream

DEFAULT_TOLERANCE = 1e-9
EXHAUSTIVE_CAP = 18
DEFAULT_SUBSET_SAMPLES = 10_000


@dataclass(frozen=True)
class SpectralCertificate:
    """Second-largest adjacency eigenvalue of a d-regular graph."""

    d: int
    lambda2: float
    tolerance: float
    girth_checked: int | None = None


@dataclass(frozen=True)
class ExpansionCertificate:
    """Measured directed vertex expansion: min |out-boundary(S)| /
    min(|S|, n-|S|) over the subsets checked. Exact when exhaustive."""

    c3_hat: float
    mode: str
    samples: int | None
    witness: tuple
    n: int


def _require_regular(g: Graph, d: int):
    degs = g.degrees()
    for v, dv in enumerate(degs):
        if dv != d:
            raise InputError(f"vertex {v} has degree {dv}, expected {d}")


def second_eigenvalue(
    g: Graph,
    d: int,
    tolerance: float = DEFAULT_TOLERANCE,
    girth_checked: int | None = None,
) -> SpectralCertificate:
    """Second-largest adjacency eigenvalue of a connected d-regular graph.

    ARPACK Lanczos (scipy's eigsh) for the largest eigenvalue of
    A - ((2d+1)/n) J. Regularity makes the all-ones vector an
    eigenvector of both terms, so the shift moves its eigenvalue from d
    to -(d+1), below the rest of the spectrum, and leaves the others
    unchanged. The start vector is seeded, so a graph always gets the
    same bits back.
    """
    import scipy.sparse  # here, since at module level it adds a third to `import randcol`
    import scipy.sparse.linalg

    if tolerance <= 0:
        raise InputError("tolerance must be positive")
    if g.n < 2:
        raise InputError("need at least two vertices")
    _require_regular(g, d)
    if not is_connected(g):
        raise InputError("graph must be connected")
    n = g.n
    indptr, indices = g._csr_arrays()
    a = scipy.sparse.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))
    shift = (2 * d + 1) / n
    op = scipy.sparse.linalg.LinearOperator(
        (n, n), matvec=lambda x: a @ x - shift * x.sum(axis=0), dtype=np.float64
    )
    v0 = np.random.default_rng(0xC0FFEE).standard_normal(n)
    try:
        vals = scipy.sparse.linalg.eigsh(op, k=1, which="LA", v0=v0, tol=tolerance,
                                         return_eigenvectors=False)
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise ConvergenceError(f"second eigenvalue did not converge to {tolerance}: {exc}") from None
    return SpectralCertificate(d=d, lambda2=float(vals[0]), tolerance=tolerance,
                               girth_checked=girth_checked)


def alon_milman_lower_bound(d: int, lambda2: float, s_size: int, n: int) -> float:
    """Guaranteed edge-boundary size (d - lambda2) * |S| * (n - |S|) / n."""
    if not (0 <= s_size <= n):
        raise InputError(f"subset size {s_size} outside 0..{n}")
    return (d - lambda2) * s_size * (n - s_size) / n


def _popcounts(masks: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(len(masks), dtype=np.int64)
    for b in range(n):
        out += (masks >> b) & 1
    return out


@dataclass(frozen=True)
class AlonMilmanReport:
    """Audit of the spectral edge-boundary bound over vertex subsets."""

    d: int
    lambda2: float
    mode: str
    samples: int | None
    n_checked: int
    violations: tuple
    tightest_ratio: float
    witness: tuple


def verify_alon_milman(
    g: Graph,
    samples: int = DEFAULT_SUBSET_SAMPLES,
    stream: RngStream | None = None,
    exhaustive_cap: int = EXHAUSTIVE_CAP,
) -> AlonMilmanReport:
    """Check |edge boundary of S| >= (d - lambda2)|S|(n - |S|)/n.

    Exhaustive over all subsets when n <= exhaustive_cap, otherwise over
    random subsets drawn uniformly by size then membership. Violations
    are collected, not raised; any violation means a bug, not new
    mathematics.
    """
    d = g.regular_degree()
    if d is None:
        raise InputError("graph is not regular")
    cert = second_eigenvalue(g, d)
    n = g.n
    slack = 1e-7  # eigenvalue tolerance leaves the bound this fuzzy
    violations = []
    tightest = float("inf")
    witness: tuple = ()
    if n <= exhaustive_cap:
        mode = "exhaustive"
        samples_out = None
        masks = np.arange(1 << n, dtype=np.int64)
        sizes = _popcounts(masks, n)
        boundary = np.zeros(len(masks), dtype=np.int64)
        for u, v in g.edges.tolist():
            boundary += ((masks >> u) ^ (masks >> v)) & 1
        bound = (d - cert.lambda2) * sizes * (n - sizes) / n
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
        samples_out = samples
        rng = (stream or RngStream(0).child("alon-milman")).generator()
        n_checked = samples
        for _ in range(samples):
            size = int(rng.integers(1, n))
            inside = np.isin(np.arange(n), rng.choice(n, size=size, replace=False))
            members = tuple(np.flatnonzero(inside).tolist())
            b = len(edge_boundary(g, inside))
            bound = alon_milman_lower_bound(d, cert.lambda2, size, n)
            if b < bound - slack:
                if len(violations) < 32:
                    violations.append((members, b, bound))
            ratio = b / bound
            if ratio < tightest:
                tightest = ratio
                witness = members
    return AlonMilmanReport(
        d=d,
        lambda2=cert.lambda2,
        mode=mode,
        samples=samples_out,
        n_checked=n_checked,
        violations=tuple(violations),
        tightest_ratio=tightest,
        witness=witness,
    )


def verify_vertex_expansion(
    h: DiGraph,
    samples: int = DEFAULT_SUBSET_SAMPLES,
    stream: RngStream | None = None,
    exhaustive_cap: int = EXHAUSTIVE_CAP,
) -> ExpansionCertificate:
    """Measured vertex expansion of a 2-in 2-out digraph.

    c3_hat = min over non-trivial S of |out-boundary(S)| / min(|S|, n-|S|);
    exact for n <= exhaustive_cap (full subset sweep), sampled otherwise.
    """
    if not h.is_regular(2):
        raise InputError("digraph must have in- and out-degree exactly 2")
    n = h.n
    if n < 2:
        raise InputError("need at least two vertices")
    best = float("inf")
    witness: tuple = ()
    if n <= exhaustive_cap:
        mode = "exhaustive"
        samples_out = None
        out_masks = h.out_masks()
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
        samples_out = samples
        rng = (stream or RngStream(0).child("vertex-expansion")).generator()
        for _ in range(samples):
            size = int(rng.integers(1, n))
            inside = np.isin(np.arange(n), rng.choice(n, size=size, replace=False))
            b = int(vertex_boundary(h, inside).sum())
            ratio = b / min(size, n - size)
            if ratio < best:
                best = ratio
                witness = tuple(np.flatnonzero(inside).tolist())
    return ExpansionCertificate(
        c3_hat=float(best), mode=mode, samples=samples_out, witness=witness, n=n
    )
