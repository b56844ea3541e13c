"""Immutable simple graphs and digraphs, the one synchronous spread
behind percolation, components and reachability, vertex boundaries,
short-cycle tests and small-scale exhaustive enumeration of connected
edge subgraphs.

Vertices are contiguous integers 0..n-1 throughout, and a vertex set is
a boolean mask over that range: every function here and in colouring and
percolation takes its sets as masks (checked by _sized) and returns them
as read-only masks. A single root is an int id, checked by _vertex.
"""

from __future__ import annotations

from typing import Sequence

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


def _sized(mask, size: int, what: str) -> np.ndarray:
    """mask, checked to be a boolean array of length size."""
    mask = np.asarray(mask)
    if mask.dtype != bool or mask.shape != (size,):
        raise InputError(f"{what} must be a boolean mask of length {size}")
    return mask


def _is_integer(value) -> bool:
    """The package's integer rule: an int or a numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _integer(value, what: str, low: int | None = 0) -> int:
    """value as an int; InputError unless it passes _is_integer and is at
    least low (no bound when low is None): the one integer check of every
    public entry point."""
    if _is_integer(value) and (low is None or value >= low):
        return int(value)
    rule = ("an integer" if low is None else "a non-negative integer" if low == 0
            else f"an integer >= {low}")
    raise InputError(f"{what} must be {rule}, got {value!r}")


def _vertex(n: int, r) -> int:
    """r as an int; InputError unless it is an integer (_is_integer) in
    0..n-1 (a numpy index would wrap a negative one)."""
    if not _is_integer(r):
        raise InputError(f"root must be an integer vertex id, got {r!r}")
    if not 0 <= r < n:
        raise InputError(f"root {r} out of range for n={n}")
    return int(r)


def _frozen(mask: np.ndarray) -> np.ndarray:
    mask.setflags(write=False)
    return mask


def _expect(g, cls: type | tuple, what: str):
    """g, or InputError unless it is a cls (or one of a tuple of them):
    the one check of which type a consumer takes."""
    if not isinstance(g, cls):
        want = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
        raise InputError(f"{what} needs a {want}, got a {type(g).__name__}")
    return g


def _common_degree(degree: np.ndarray) -> int | None:
    """The one value of degree, 0 when it is empty, None when it varies."""
    d = int(degree[0]) if len(degree) else 0
    return None if np.count_nonzero(degree != d) else d


class _ArcView:
    """A graph's arcs as its frontier rounds read them: the read-only
    out-degrees, the arc count, and counts(frontier, ids), the number of
    arcs into each vertex from a frontier, given as a boolean mask and
    as its ids (frontier.nonzero()[0], which every caller has at hand).

    With a table, an (n, d) array whose row v lists 1 + the head of each
    of v's arcs, 0 standing for a dropped arc, counts gathers the
    frontier's rows: O(|frontier| * d). Without one it selects the CSR
    indices by the frontier's mask repeated by out-degree, O(n + m).
    """

    __slots__ = ("degree", "arcs", "table", "indices")

    def __init__(self, degree, arcs, table=None, indices=None):
        self.degree, self.arcs, self.table, self.indices = _frozen(degree), arcs, table, indices

    @classmethod
    def of_csr(cls, indptr: np.ndarray, indices: np.ndarray) -> "_ArcView":
        """A table when every out-degree is the same d > 0, since indices
        is then (n, d) row by row; the repeated mask otherwise (an
        edgeless CSR has no arcs and no (n, 0) table)."""
        degree = indptr[1:] - indptr[:-1]
        d = _common_degree(degree)
        if d:
            return cls(degree, len(indices), table=_frozen(indices.reshape(-1, d) + 1))
        return cls(degree, len(indices), indices=indices)

    def counts(self, frontier: np.ndarray, ids: np.ndarray) -> np.ndarray:
        n = len(self.degree)
        if self.table is None:
            return np.bincount(self.indices[frontier.repeat(self.degree)], minlength=n)
        return np.bincount(self.table.take(ids, axis=0).ravel(), minlength=n + 1)[1:]


def _spread(g: "Graph | DiGraph", seed_mask: np.ndarray, thresholds, levels=None,
            full=None) -> tuple[np.ndarray, list[int]]:
    """Least fixpoint of: v joins once >= thresholds[v] of the vertices
    with an arc into v have joined, from seed_mask. thresholds is an
    array over the vertices or one number for all.

    Returns the joined mask and the round trace: the seed size, then the
    count of newcomers in each synchronous round. A threshold of 0 joins
    in round one even without neighbours; math.inf never joins. With a
    single seed r and threshold 1 inside an allowed set, inf outside, the
    rounds are the breadth-first levels from r through that set. levels,
    when given, is an array over the vertices in which each newcomer's
    entry is set to its round. The spread stops once full vertices (by
    default all n) have joined, a size that the caller knows no later
    round can pass.

    A round counts the arcs out of the last newcomers (g's _ArcView),
    then compares all n counts: O(n) plus the newcomers' rows when g or
    the parent of its view is regular, O(n + m) otherwise.
    """
    arcs = g._arc_view()
    # counts are integers no larger than the arc count, so an integer
    # count reaches a threshold exactly at its ceiling, and any threshold
    # above the arc count (inf included) acts as the arc count plus one;
    # an intp array, as thm3's, already compares exactly as it is
    need = thresholds
    if not (isinstance(thresholds, np.ndarray) and thresholds.dtype == np.intp):
        need = np.ceil(np.minimum(thresholds, arcs.arcs + 1)).astype(np.intp)
    outside = ~seed_mask
    counts = np.zeros(len(outside), dtype=np.intp)
    new, ready = seed_mask, np.empty(len(outside), dtype=bool)
    ids = np.flatnonzero(new)
    trace = [len(ids)]
    joined, full = len(ids), len(outside) if full is None else full
    while joined < full:
        # counts >= 0, so a threshold of 0 fires in the first round
        counts += arcs.counts(new, ids)
        new = np.greater_equal(counts, need, out=ready)
        new &= outside
        ids = new.nonzero()[0]
        if not len(ids):
            break
        outside ^= new
        trace.append(len(ids))
        joined += len(ids)
        if levels is not None:
            levels[ids] = len(trace) - 1
    return ~outside, trace


# the level of a vertex that the root does not reach
_FAR = np.iinfo(np.int32).max
# roots kept in one graph's search memo: an entry holds three O(n) arrays
_SEARCHES_SIZE = 64


def _search(g: "Graph | DiGraph", r: int) -> tuple:
    """(mask, round trace, levels) of the threshold-1 spread from r along
    g's arcs: the vertices reachable from r, its breadth-first level
    sizes and each vertex's level as a read-only int32 array (_FAR where
    r does not reach), which a spread replays from (_spread_from).
    Memoised on g, one entry per root for at most _SEARCHES_SIZE roots,
    evicting the oldest on a miss; the memo is made on first use, since
    most graphs are never searched."""
    if g._searches is None:
        g._searches = {}
    # checked before the memo is read, so a hit never decides what passes
    key = _vertex(g.n, r)
    entry = g._searches.get(key)
    if entry is None:
        seed = np.zeros(g.n, dtype=bool)
        seed[key] = True
        levels = np.where(seed, 0, _FAR).astype(np.int32)
        infected, trace = _spread(g, seed, 1, levels)
        if len(g._searches) >= _SEARCHES_SIZE:
            del g._searches[next(iter(g._searches))]
        entry = g._searches[key] = _frozen(infected), tuple(trace), _frozen(levels)
    return entry


def _spread_from(g: "Graph | DiGraph", r: int, hit: np.ndarray, values) -> tuple:
    """(read-only mask, round trace) of _spread from the single root r,
    replaying the memoised search. Every threshold is 1 but those of the
    vertices hit (an id array; repeats and r allowed), which are values:
    one intp >= 0 for all of them or an array like hit.

    Let D be the least level from r of a vertex of hit other than r,
    taking any threshold of 0 as level 1 (such a vertex joins in round
    1, reached or not) and passing over the vertices r does not reach,
    which only a threshold-0 vertex could start. Rounds 1..D-1 are then
    the search's levels, so the spread runs from the ball of radius D-1
    and its trace follows the search's first D entries; with no such
    vertex it is the search itself. Unless some threshold is 0, nothing
    outside r's component can join, so the spread stops once all of the
    component has joined.
    """
    mask, trace, levels = _search(g, r)
    other = hit != r
    if not other.any():
        return mask, trace
    hit, array = hit[other], isinstance(values, np.ndarray)
    values = values[other] if array else values
    zero = (values.min() if array else values) < 1
    depth = 1 if zero else int(levels.take(hit).min())
    if depth == _FAR:
        return mask, trace
    need = np.ones(g.n, dtype=np.intp)
    need[hit] = values
    infected, rest = _spread(g, levels < depth, need, full=None if zero else sum(trace))
    return _frozen(infected), trace[:depth] + tuple(rest[1:])


class Graph:
    """Simple undirected graph, immutable after construction.

    edges is a read-only (m, 2) int array of rows (u, v) with u < v,
    sorted, so equal graphs have equal arrays and row i is edge i of
    every per-edge mask. The constructor always normalises and checks
    the rows, and the graph holds its own copy of them, so later writes
    to the caller's array do not reach it. Rows that the package has
    just made canonical and sorted skip __init__, as views do (_start
    on Graph.__new__).

    A graph made by with_edges is usually a view: it keeps its root
    parent and a read-only mask over the parent's edges, and reads its
    rows and arcs from the parent's. The parent is not part of the value.
    """

    __slots__ = (
        "n", "m", "_edges", "_parent", "_mask", "_adj", "_arcs", "_csr", "_arcview",
        "_edge_of_pos", "_searches",
    )

    def __init__(self, n: int, edges):
        n = _integer(n, "vertex count")
        ends = np.sort(_pairs(edges), axis=1)
        ends = ends[np.lexsort(ends.T[::-1])]
        _check_pairs(n, ends, "edge")
        self._start(n, _frozen(ends))

    def _start(self, n: int, edges, parent: "Graph | None" = None, mask=None, m=None) -> "Graph":
        """self on read-only edges, which __init__ has checked, or the package
        has just made canonical and sorted; or a view of parent under mask,
        where m is the count of kept edges, which with_edges has made."""
        self.n, self._edges, self._parent, self._mask = n, edges, parent, mask
        self.m = len(edges) if m is None else m
        self._adj = self._arcs = self._csr = self._arcview = None
        self._edge_of_pos = self._searches = None
        return self

    @property
    def edges(self) -> np.ndarray:
        """A view's rows are its parent's rows under the mask, taken on
        first read."""
        if self._edges is None:
            self._edges = _frozen(self._parent.edges.compress(self._mask, axis=0))
        return self._edges

    def _arc_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(tails, heads): the edge rows in both directions, every (u, v)
        and then every (v, u), read-only."""
        if self._arcs is None:
            u, v = self.edges.T
            self._arcs = _frozen(np.concatenate((u, v))), _frozen(np.concatenate((v, u)))
        return self._arcs

    def _csr_edges(self) -> np.ndarray:
        """The edge id of each position of the CSR's indices, read-only."""
        if self._edge_of_pos is None:
            tails, heads = self._arc_rows()
            self._edge_of_pos = _frozen(np.argsort(tails * self.n + heads) % max(self.m, 1))
        return self._edge_of_pos

    def _csr_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices): the neighbours of v, ascending, are
        indices[indptr[v]:indptr[v + 1]]."""
        if self._csr is None:
            self._csr = _csr(self.n, *self._arc_rows())
        return self._csr

    def _arc_view(self) -> _ArcView:
        """The arcs as spreads and peels read them, cached. A view of a
        regular parent gathers rows of the parent's (n, d) table, its
        dropped arcs zeroed; any other graph reads its own CSR."""
        if self._arcview is None:
            table = None if self._parent is None else self._parent._arc_view().table
            if table is None:
                self._arcview = _ArcView.of_csr(*self._csr_arrays())
            else:
                keep = self._mask.take(self._parent._csr_edges()).reshape(table.shape)
                # row sums as an integer product, twice as fast as a count
                # over the short axis (and, unlike a float one, no BLAS)
                degree = keep.view(np.uint8) @ np.ones(table.shape[1], dtype=np.intp)
                self._arcview = _ArcView(degree, 2 * self.m, table=_frozen(keep * table))
        return self._arcview

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        if self._adj is None:
            indptr, indices = self._csr_arrays()
            flat, ptr = indices.tolist(), indptr.tolist()
            self._adj = tuple(tuple(flat[a:b]) for a, b in zip(ptr, ptr[1:]))
        return self._adj

    def degrees(self) -> list[int]:
        return self._arc_view().degree.tolist()

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def with_edges(self, mask) -> "Graph":
        """Spanning subgraph on the edges where the boolean mask over
        self.edges is set, as a view of the root parent. It keeps a
        read-only copy of the mask, so later writes to the caller's
        array do not reach it; a view's mask is composed with its own.
        A subgraph with under a quarter of the root's edges is built on
        its own rows instead, so that it neither holds the root's arrays
        nor gathers the root's longer rows in its peels and spreads."""
        keep = _sized(mask, self.m, "edge set")
        return self._with_mask(keep if self._parent is not None else keep.copy())

    def _with_mask(self, keep: np.ndarray) -> "Graph":
        """with_edges on a fresh boolean mask of length m, which a root
        graph's view keeps as it is: the samplers pass masks they have
        just made, so neither the check nor the copy is needed."""
        parent, kept = self, keep
        if self._parent is not None:
            parent, kept = self._parent, self._mask.copy()
            kept[self._mask] = keep
        m = int(np.count_nonzero(kept))
        if 4 * m < len(kept):
            return Graph.__new__(Graph)._start(self.n, _frozen(parent.edges.compress(kept, axis=0)))
        return Graph.__new__(Graph)._start(self.n, None, parent, _frozen(kept), m)

    def regular_degree(self) -> int | None:
        """The common degree if the graph is regular (0 if it has no
        vertices), else None."""
        return _common_degree(self._arc_view().degree)

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

    __slots__ = ("n", "arcs", "arc_colour", "_csr", "_arcview", "_searches")

    def __init__(self, n: int, arcs, arc_colour: Sequence[str] | None = None):
        n = _integer(n, "vertex count")
        arcs = _frozen(_pairs(arcs))
        colours = tuple(arc_colour) if arc_colour is not None else None
        _check_pairs(n, arcs, "arc")
        if colours is not None:
            if len(colours) != len(arcs):
                raise InputError("arc_colour length must match arc count")
            bad = set(colours) - {"r", "b"}
            if bad:
                raise InputError(f"unknown arc colours {sorted(bad)}")
            heads = arcs[:, 1]
            twice = _repeats(2 * heads + (np.array(colours, dtype=str) == "b"))
            if twice.any():
                i = twice.argmax()
                raise InputError(f"vertex {heads[i]} has two {colours[i]!r} in-arcs")
        self._start(n, arcs, colours)

    def _start(self, n: int, arcs: np.ndarray, arc_colour: tuple | None) -> "DiGraph":
        """self on read-only arcs and a tuple or None of colours, which __init__ has
        checked, or the package has just made simple (on DiGraph.__new__, as views are)."""
        self.n, self.arcs, self.arc_colour = n, arcs, arc_colour
        self._csr = self._arcview = self._searches = None
        return self

    @property
    def m(self) -> int:
        return len(self.arcs)

    def _csr_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices): the out-neighbours of v, ascending, are
        indices[indptr[v]:indptr[v + 1]]."""
        if self._csr is None:
            self._csr = _csr(self.n, *self.arcs.T)
        return self._csr

    def _arc_view(self) -> _ArcView:
        if self._arcview is None:
            self._arcview = _ArcView.of_csr(*self._csr_arrays())
        return self._arcview

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


def vertex_boundary(g: Graph | DiGraph, s) -> np.ndarray:
    """Mask of the vertices outside the mask s adjacent to s
    (out-neighbours of s, if directed)."""
    inside = _sized(s, g.n, "vertex set")
    return _frozen((g._arc_view().counts(inside, np.flatnonzero(inside)) > 0) & ~inside)


def has_cycle_shorter_than(g: Graph, length: int) -> bool:
    """True iff g has a cycle shorter than length.

    One BFS per root. A vertex of level k with two neighbours in level
    k-1 closes a walk of length 2k, an edge inside level k one of length
    2k+1; each walk contains a cycle no longer than itself, and a root on
    a shortest cycle sees its length, so the first walk shorter than
    length decides, which makes rejecting a graph with a short cycle
    cheap. The search from a root stops at the first level that cannot
    close a walk shorter than length. Scanning level k labels the unseen
    neighbours k + 1, which the tests for levels k and k - 1 pass over.
    """
    _expect(g, Graph, "has_cycle_shorter_than")
    length = _integer(length, "length", None)
    if length <= 3:  # a simple graph has no shorter cycle
        return False
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
                    elif depth[w] == k - 1:
                        parents += 1
                    elif depth[w] == k and 2 * k + 1 < length:
                        return True
                # parents exist from level 1, which is scanned only while 2k < length
                if parents > 1:
                    return True
            touched += nxt
            if 2 * (k + 1) >= length:
                break
            level = nxt
            k += 1
        for v in touched:
            depth[v] = -1
    return False


def count_connected_edge_subgraphs_upto(g: Graph, v: int, t_max: int) -> list[int]:
    """Counts of connected s-edge subgraphs containing v, for all s <= t_max.

    Returns a list c with c[s] the count for size s (c[0] = 0). One
    enumeration walk serves every size; each subgraph is visited once via
    binary partition over frontier edges.
    """
    _expect(g, Graph, "count_connected_edge_subgraphs_upto")
    v = _vertex(g.n, v)  # a Python int, as the walk's bitmasks are
    t_max = _integer(t_max, "t", 1)
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

    extend(0, 1 << v, 0, list(inc[v]), 0)
    return counts


def reachable_set(h: DiGraph, r: int) -> np.ndarray:
    """Mask of the vertices reachable from r by directed paths, r included."""
    return _search(_expect(h, DiGraph, "reachable_set"), r)[0]


def connected_component(g: Graph, v: int) -> np.ndarray:
    """Mask of the component of v, read from the per-root search memo
    (_search)."""
    return _search(_expect(g, Graph, "connected_component"), v)[0]


def is_connected(g: Graph) -> bool:
    if _expect(g, Graph, "is_connected").n == 0:
        return True
    return bool(connected_component(g, 0).all())


def is_strongly_connected(h: DiGraph) -> bool:
    """Every vertex reaches vertex 0 and is reached from it."""
    if _expect(h, DiGraph, "is_strongly_connected").n == 0:
        return True
    backwards = DiGraph.__new__(DiGraph)._start(h.n, h.arcs[:, ::-1], None)
    return bool(reachable_set(h, 0).all() and reachable_set(backwards, 0).all())


def complete_graph(n: int) -> Graph:
    n = _integer(n, "vertex count")
    # triu_indices runs row by row, so its pairs are canonical and sorted
    return Graph.__new__(Graph)._start(n, _frozen(np.column_stack(np.triu_indices(n, 1))))


def cycle_graph(n: int) -> Graph:
    n = _integer(n, "vertex count")
    if n < 3:
        raise InputError("a cycle needs at least 3 vertices")
    v = np.arange(n)
    return Graph(n, np.column_stack((v, np.roll(v, -1))))


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
    widths, what = ((2, 3), "arc") if directed else ((2,), "edge")
    rows, colours = [], []
    for tok in body:
        if len(tok) not in widths:
            raise InputError(f"bad {what} line {' '.join(tok)!r}")
        rows.append(_int_pair(tok))
        colours += tok[2:]
    if not directed:
        return Graph(n, rows)
    if 0 < len(colours) < len(rows):
        raise InputError("either all arcs or no arcs must carry colours")
    return DiGraph(n, rows, arc_colour=colours or None)


def format_graph(g: Graph | DiGraph) -> str:
    directed = isinstance(_expect(g, (Graph, DiGraph), "format_graph"), DiGraph)
    rows = g.arcs if directed else g.edges
    colours = [f" {c}" for c in g.arc_colour] if directed and g.arc_colour else [""] * len(rows)
    lines = [f"{g.n} {g.m}" + " directed" * directed]
    for (u, v), c in zip(rows.tolist(), colours):
        lines.append(f"{u} {v}{c}")
    return "\n".join(lines) + "\n"


def _read_text(path) -> str:
    """The text of the file at path; InputError unless it is UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from None


def load_graph(path) -> Graph | DiGraph:
    return parse_graph(_read_text(path))


def save_graph(g: Graph | DiGraph, path) -> None:
    """Write g's text format to path; a bad g leaves the file as it was."""
    text = format_graph(_expect(g, (Graph, DiGraph), "save_graph"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
