"""Immutable simple graphs and digraphs, the one synchronous spread
behind percolation, components and reachability, boundaries, girth, and
small-scale exhaustive enumeration of connected edge subgraphs.

Vertices are contiguous integers 0..n-1 throughout. The functions here
take and return vertex sets as plain frozensets over that range, while
result objects (a spread's state, a two-round sample) hold boolean masks.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError


def _pairs(rows) -> np.ndarray:
    """rows as a fresh (m, 2) intp array; InputError unless they are
    pairs of integers."""
    try:
        ends = np.asarray(rows if isinstance(rows, np.ndarray) else list(rows))
    except ValueError:
        raise InputError("edges must be pairs of vertex ids") from None
    if ends.size == 0:
        return np.empty((0, 2), dtype=np.intp)
    if ends.ndim != 2 or ends.shape[1] != 2:
        raise InputError("edges must be pairs of vertex ids")
    if ends.dtype.kind not in "iu":
        raise InputError(f"vertex ids must be integers, got {ends.dtype}")
    return ends.astype(np.intp)


def _repeats(key: np.ndarray) -> np.ndarray:
    """Mask of the entries equal to an earlier entry of key."""
    later = np.ones(key.size, dtype=bool)
    later[np.unique(key, return_index=True)[1]] = False
    return later


def _check_pairs(n: int, ends: np.ndarray, what: str) -> None:
    """InputError for the first row, in row order, that is a loop, leaves
    0..n-1 or repeats an earlier row."""
    tails, heads = ends.T
    bad = (tails == heads) | (ends.min(axis=1) < 0) | (ends.max(axis=1) >= n)
    # bad rows get distinct negative keys, so only good rows can repeat
    bad |= _repeats(np.where(bad, -1 - np.arange(len(ends)), tails * n + heads))
    if bad.any():
        u, v = ends[bad.argmax()].tolist()
        if u == v:
            raise InputError(f"loop at vertex {u}")
        if min(u, v) < 0 or max(u, v) >= n:
            raise InputError(f"{what} ({u},{v}) out of range for n={n}")
        raise InputError(f"parallel {what} ({u},{v})")


def _csr(n: int, tails: np.ndarray, heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of the arcs tails[i] -> heads[i]: the heads out of
    v, ascending whatever the arc order, are indices[indptr[v]:indptr[v + 1]].
    Read-only, since trials share graphs and their views."""
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
    indices = np.sort(tails * n + heads) % max(n, 1)
    indptr.flags.writeable = indices.flags.writeable = False
    return indptr, indices


def _neighbour_tuples(indptr: np.ndarray, indices: np.ndarray) -> tuple[tuple[int, ...], ...]:
    flat, ptr = indices.tolist(), indptr.tolist()
    return tuple(tuple(flat[a:b]) for a, b in zip(ptr, ptr[1:]))


def _bitmasks(indptr: np.ndarray, indices: np.ndarray) -> list[int]:
    return [sum(1 << w for w in nbrs) for nbrs in _neighbour_tuples(indptr, indices)]


def _vertex_mask(n: int, vertices: Iterable[int], what: str = "vertex") -> np.ndarray:
    """Boolean mask over 0..n-1 of the given ids; InputError for an id
    outside that range (a numpy index would wrap a negative one)."""
    ids = np.fromiter(vertices, dtype=np.intp)
    bad = (ids < 0) | (ids >= n)
    if bad.any():
        raise InputError(f"{what} {ids[bad.argmax()]} out of range for n={n}")
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    return mask


def _ids(mask: np.ndarray) -> frozenset:
    return frozenset(np.flatnonzero(mask).tolist())


def _spread(
    indptr: np.ndarray, indices: np.ndarray, seed_mask: np.ndarray, thresholds: np.ndarray
) -> tuple[np.ndarray, list[int]]:
    """Least fixpoint of: v joins once >= thresholds[v] of the vertices
    with an arc into v (CSR indptr, indices) have joined, from seed_mask.

    Returns the joined mask and the round trace: the seed size, then the
    count of newcomers in each synchronous round. A threshold of 0 joins
    in round one even without neighbours; math.inf never joins. With a
    single seed r and threshold 1 inside an allowed set, inf outside, the
    rounds are the breadth-first levels from r through that set.
    """
    degree = indptr[1:] - indptr[:-1]
    infected = seed_mask.copy()
    counts = np.zeros(len(infected), dtype=np.intp)
    trace = [int(np.count_nonzero(infected))]
    new = infected
    while True:
        # counts >= 0, so a threshold of 0 fires in the first round
        counts += np.bincount(indices[new.repeat(degree)], minlength=len(infected))
        new = (counts >= thresholds) & ~infected
        size = int(np.count_nonzero(new))
        if not size:
            return infected, trace
        infected |= new
        trace.append(size)


class Graph:
    """Simple undirected graph, immutable after construction.

    edges is a read-only (m, 2) int array of rows (u, v) with u < v,
    sorted, so equal graphs have equal arrays and row i is edge i of
    every per-edge mask. validate=False skips normalising and checking:
    the rows must already be canonical and sorted, as the rows a mask
    keeps of another graph's edges are.
    """

    __slots__ = ("n", "edges", "_adj", "_csr", "_components", "_masks")

    def __init__(self, n: int, edges, validate: bool = True):
        if n < 0:
            raise InputError("vertex count must be non-negative")
        self.n = n
        if validate:
            ends = np.sort(_pairs(edges), axis=1)
            ends = ends[np.lexsort(ends.T[::-1])]
            _check_pairs(n, ends, "edge")
        else:
            ends = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
        ends.flags.writeable = False
        self.edges: np.ndarray = ends
        self._adj = None
        self._csr = None
        self._components = None
        self._masks = None

    @property
    def m(self) -> int:
        return len(self.edges)

    def _csr_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices): the neighbours of v, ascending, are
        indices[indptr[v]:indptr[v + 1]]."""
        if self._csr is None:
            u, v = self.edges.T
            self._csr = _csr(self.n, np.concatenate((u, v)), np.concatenate((v, u)))
        return self._csr

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        if self._adj is None:
            self._adj = _neighbour_tuples(*self._csr_arrays())
        return self._adj

    def degrees(self) -> list[int]:
        return np.diff(self._csr_arrays()[0]).tolist()

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def adj_masks(self) -> list[int]:
        """Per-vertex neighbourhood bitmasks (for exhaustive subset sweeps)."""
        if self._masks is None:
            self._masks = _bitmasks(*self._csr_arrays())
        return self._masks

    def with_edges(self, mask) -> "Graph":
        """Spanning subgraph on the edges where the boolean mask over
        self.edges is set."""
        return Graph(self.n, self.edges[np.asarray(mask, dtype=bool)], validate=False)

    def regular_degree(self) -> int | None:
        """The common degree if the graph is regular, else None."""
        degs = set(self.degrees())
        if len(degs) == 1:
            return degs.pop()
        if not degs:
            return 0
        return None

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self.edges, other.edges)
        )

    def __hash__(self):
        return hash((self.n, self.edges.tobytes()))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class DiGraph:
    """Simple directed graph; arcs optionally 2-coloured red/blue.

    arcs is a read-only (m, 2) int array of (tail, head) rows in the
    given order, so arc_colour[i] belongs to row i. When colours are
    present the in-arcs at each vertex must carry pairwise distinct
    colours (so in-degree at most 2).
    """

    __slots__ = ("n", "arcs", "arc_colour", "_csr", "_out_masks")

    def __init__(
        self,
        n: int,
        arcs,
        arc_colour: Sequence[str] | None = None,
        validate: bool = True,
    ):
        if n < 0:
            raise InputError("vertex count must be non-negative")
        self.n = n
        self.arcs: np.ndarray = _pairs(arcs)
        self.arcs.flags.writeable = False
        self.arc_colour: tuple[str, ...] | None = (
            tuple(arc_colour) if arc_colour is not None else None
        )
        if validate:
            _check_pairs(n, self.arcs, "arc")
            if self.arc_colour is not None:
                if len(self.arc_colour) != len(self.arcs):
                    raise InputError("arc_colour length must match arc count")
                bad = set(self.arc_colour) - {"r", "b"}
                if bad:
                    raise InputError(f"unknown arc colours {sorted(bad)}")
                heads = self.arcs[:, 1]
                twice = _repeats(2 * heads + (np.array(self.arc_colour, dtype=str) == "b"))
                if twice.any():
                    i = twice.argmax()
                    raise InputError(f"vertex {heads[i]} has two {self.arc_colour[i]!r} in-arcs")
        self._csr = None
        self._out_masks = None

    @property
    def m(self) -> int:
        return len(self.arcs)

    def _csr_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices): the out-neighbours of v, ascending, are
        indices[indptr[v]:indptr[v + 1]]."""
        if self._csr is None:
            self._csr = _csr(self.n, *self.arcs.T)
        return self._csr

    def out_masks(self) -> list[int]:
        if self._out_masks is None:
            self._out_masks = _bitmasks(*self._csr_arrays())
        return self._out_masks

    def is_regular(self, d: int) -> bool:
        """In- and out-degree d at every vertex."""
        return all(
            bool((np.bincount(ends, minlength=self.n) == d).all()) for ends in self.arcs.T
        )

    def __eq__(self, other):
        return (
            isinstance(other, DiGraph)
            and self.n == other.n
            and np.array_equal(self.arcs, other.arcs)
            and self.arc_colour == other.arc_colour
        )

    def __hash__(self):
        return hash((self.n, self.arcs.tobytes(), self.arc_colour))

    def __repr__(self):
        return f"DiGraph(n={self.n}, m={self.m})"


def vertex_boundary(g: Graph | DiGraph, s: Iterable[int]) -> frozenset:
    """Vertices outside s adjacent to s (out-neighbours of s, if directed)."""
    inside = _vertex_mask(g.n, s)
    indptr, indices = g._csr_arrays()
    hit = np.bincount(indices[inside.repeat(np.diff(indptr))], minlength=g.n)
    return _ids((hit > 0) & ~inside)


def edge_boundary(g: Graph, s: Iterable[int]) -> list[tuple[int, int]]:
    """Edges with exactly one endpoint in s, sorted."""
    inside = _vertex_mask(g.n, s)
    u, v = g.edges.T
    return list(map(tuple, g.edges[inside[u] != inside[v]].tolist()))


def _cycle_below(g: Graph, best: float, first: bool) -> float:
    """Length of the shortest cycle shorter than `best`, or `best` when
    there is none; with `first`, the first such length found instead.

    One BFS per root. A vertex of level k with two neighbours in level
    k-1 closes a walk of length 2k, an edge inside level k one of length
    2k+1; each walk contains a cycle no longer than itself, and a root on
    a shortest cycle sees its length, so the minimum over roots is exact
    and any single candidate certifies a cycle that short. The search
    from a root stops at the first level that cannot beat the bound.
    Scanning level k labels the unseen neighbours k + 1, which the tests
    for levels k and k - 1 pass over.
    """
    adj = g.adjacency()
    depth = [-1] * g.n
    for root in range(g.n):
        depth[root] = 0
        touched, level, k = [root], [root], 0
        while level:
            nxt = []
            for v in level:
                parents = 0
                for w in adj[v]:
                    if depth[w] == -1:
                        depth[w] = k + 1
                        nxt.append(w)
                        continue
                    if depth[w] == k:
                        cand = 2 * k + 1
                    elif depth[w] == k - 1:
                        parents += 1
                        if parents == 1:
                            continue
                        cand = 2 * k
                    else:
                        continue
                    if cand < best:
                        if first:
                            return cand
                        best = cand
            touched += nxt
            if 2 * (k + 1) >= best:
                break
            level = nxt
            k += 1
        for v in touched:
            depth[v] = -1
        if best == 3:
            break
    return best


def girth(g: Graph) -> float:
    """Length of the shortest cycle; math.inf for forests."""
    return _cycle_below(g, math.inf, first=False)


def has_cycle_shorter_than(g: Graph, length: int) -> bool:
    """True iff girth(g) < length.

    Returns at the first cycle found below the bound, which makes
    rejecting a graph with a short cycle cheap.
    """
    return _cycle_below(g, length, first=True) < length


def count_connected_edge_subgraphs_upto(g: Graph, v: int, t_max: int) -> list[int]:
    """Counts of connected s-edge subgraphs containing v, for all s <= t_max.

    Returns a list c with c[s] the count for size s (c[0] = 0). One
    enumeration walk serves every size; each subgraph is visited once via
    binary partition over frontier edges.
    """
    if not (0 <= v < g.n):
        raise InputError(f"vertex {v} out of range")
    if t_max < 1:
        raise InputError("t must be >= 1")
    inc: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for i, (a, b) in enumerate(g.edges.tolist()):
        inc[a].append((i, b))
        inc[b].append((i, a))
    counts = [0] * (t_max + 1)

    def extend(size: int, spanned: int, banned: int, cands: list[tuple[int, int]], pos: int):
        while pos < len(cands):
            eid, w = cands[pos]
            pos += 1
            bit = 1 << eid
            if banned & bit:
                continue
            # include eid: a new connected subgraph of size+1 edges
            counts[size + 1] += 1
            if size + 1 < t_max:
                if spanned >> w & 1:
                    extend(size + 1, spanned, banned | bit, cands, pos)
                else:
                    new_cands = cands[:]
                    for fid, x in inc[w]:
                        if not (banned >> fid & 1) and fid != eid:
                            new_cands.append((fid, x))
                    extend(size + 1, spanned | (1 << w), banned | bit, new_cands, pos)
            # exclude eid from every subgraph explored after this point
            banned |= bit
        return

    extend(0, 1 << v, 0, list(inc[v]), 0)
    return counts


def reachable_set(h: DiGraph, r: int) -> frozenset:
    """Vertices reachable from r by directed paths, including r."""
    return _ids(_spread(*h._csr_arrays(), _vertex_mask(h.n, [r]), np.ones(h.n))[0])


def connected_component(g: Graph, v: int) -> frozenset:
    """The component of v, searched once per graph and shared by its vertices."""
    if not (0 <= v < g.n):
        raise InputError(f"vertex {v} out of range")
    if g._components is None:
        g._components = [None] * g.n
    comp = g._components[v]
    if comp is None:
        comp = _ids(_spread(*g._csr_arrays(), _vertex_mask(g.n, [v]), np.ones(g.n))[0])
        for w in comp:
            g._components[w] = comp
    return comp


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return len(connected_component(g, 0)) == g.n


def is_strongly_connected(h: DiGraph) -> bool:
    """Every vertex reaches vertex 0 and is reached from it."""
    if h.n == 0:
        return True
    return all(
        _spread(*csr, _vertex_mask(h.n, [0]), np.ones(h.n))[0].all()
        for csr in (h._csr_arrays(), _csr(h.n, *h.arcs.T[::-1]))
    )


def complete_graph(n: int) -> Graph:
    # triu_indices runs row by row, so its pairs are canonical and sorted
    return Graph(n, np.column_stack(np.triu_indices(n, 1)), validate=False)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("a cycle needs at least 3 vertices")
    v = np.arange(n)
    return Graph(n, np.column_stack((v, (v + 1) % n)))


# ---------------------------------------------------------------------------
# Text format: header "n m [directed]", one "u v [r|b]" line per edge,
# '#' starts a comment.
# ---------------------------------------------------------------------------


def _int_pair(tokens: list) -> tuple[int, int]:
    try:
        return int(tokens[0]), int(tokens[1])
    except ValueError:
        raise InputError(f"non-integer token in line {' '.join(tokens)!r}") from None


def parse_graph(text: str) -> Graph | DiGraph:
    tokensets = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            tokensets.append(line.split())
    if not tokensets:
        raise InputError("empty graph file")
    header = tokensets[0]
    if len(header) not in (2, 3):
        raise InputError(f"bad header {' '.join(header)!r}")
    n, m = _int_pair(header)
    directed = len(header) == 3
    if directed and header[2] != "directed":
        raise InputError(f"bad header token {header[2]!r}")
    body = tokensets[1:]
    if len(body) != m:
        raise InputError(f"expected {m} edge lines, found {len(body)}")
    if not directed:
        edges = []
        for tok in body:
            if len(tok) != 2:
                raise InputError(f"bad edge line {' '.join(tok)!r}")
            edges.append(_int_pair(tok))
        return Graph(n, edges)
    arcs = []
    colours = []
    for tok in body:
        if len(tok) not in (2, 3):
            raise InputError(f"bad arc line {' '.join(tok)!r}")
        arcs.append(_int_pair(tok))
        colours.append(tok[2] if len(tok) == 3 else None)
    have = [c for c in colours if c is not None]
    if have and len(have) != len(arcs):
        raise InputError("either all arcs or no arcs must carry colours")
    return DiGraph(n, arcs, arc_colour=colours if have else None)


def format_graph(g: Graph | DiGraph) -> str:
    lines = []
    if isinstance(g, DiGraph):
        lines.append(f"{g.n} {g.m} directed")
        if g.arc_colour is not None:
            for (u, v), c in zip(g.arcs.tolist(), g.arc_colour):
                lines.append(f"{u} {v} {c}")
        else:
            for u, v in g.arcs.tolist():
                lines.append(f"{u} {v}")
    else:
        lines.append(f"{g.n} {g.m}")
        for u, v in g.edges.tolist():
            lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def load_graph(path) -> Graph | DiGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def save_graph(g: Graph | DiGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g))
