"""Immutable simple graphs and digraphs, boundaries, girth, and
small-scale exhaustive enumeration of connected edge subgraphs.

Vertices are contiguous integers 0..n-1 throughout; vertex sets are
plain frozensets over that range.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, InputError

ENUMERATION_CAP = 8


class Graph:
    """Simple undirected graph, immutable after construction.

    Edges are stored normalised (u < v) and sorted, so equal graphs have
    identical edge tuples and per-edge indices are canonical.
    """

    __slots__ = ("n", "edges", "_adj", "_csr", "_components", "_masks", "_degrees")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], validate: bool = True):
        if n < 0:
            raise InputError("vertex count must be non-negative")
        self.n = n
        norm = sorted((u, v) if u < v else (v, u) for u, v in edges)
        self.edges: tuple[tuple[int, int], ...] = tuple(norm)
        if validate:
            seen = set()
            for u, v in self.edges:
                if u == v:
                    raise InputError(f"loop at vertex {u}")
                if not (0 <= u < n and 0 <= v < n):
                    raise InputError(f"edge ({u},{v}) out of range for n={n}")
                if (u, v) in seen:
                    raise InputError(f"parallel edge ({u},{v})")
                seen.add((u, v))
        self._adj = None
        self._csr = None
        self._components = None
        self._masks = None
        self._degrees = None

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        if self._adj is None:
            # edges are sorted with u < v, so every vertex meets its lower
            # neighbours first, each in ascending order: lists come out sorted
            adj = [[] for _ in range(self.n)]
            for u, v in self.edges:
                adj[u].append(v)
                adj[v].append(u)
            self._adj = tuple(map(tuple, adj))
        return self._adj

    def _csr_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices): the neighbours of v, ascending as in adjacency(),
        are indices[indptr[v]:indptr[v + 1]]. Read-only: trials share graphs."""
        if self._csr is None:
            ends = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
            # (v, u) pairs first: a stable sort by tail keeps every list ascending
            tails, heads = np.concatenate((ends[:, ::-1], ends)).T
            indices = heads[np.argsort(tails, kind="stable")]
            indptr = np.concatenate(([0], np.cumsum(np.bincount(tails, minlength=self.n))))
            indptr.flags.writeable = indices.flags.writeable = False
            self._csr = (indptr, indices)
        return self._csr

    def neighbours(self, v: int) -> tuple[int, ...]:
        return self.adjacency()[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency()[v])

    def degrees(self) -> list[int]:
        if self._degrees is None:
            deg = [0] * self.n
            for u, v in self.edges:
                deg[u] += 1
                deg[v] += 1
            self._degrees = deg
        return list(self._degrees)

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def adj_masks(self) -> list[int]:
        """Per-vertex neighbourhood bitmasks (for exhaustive subset sweeps)."""
        if self._masks is None:
            masks = [0] * self.n
            for u, v in self.edges:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            self._masks = masks
        return self._masks

    def with_edges(self, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Spanning subgraph on the same vertex set (edges assumed valid)."""
        return Graph(self.n, edges, validate=False)

    def regular_degree(self) -> int | None:
        """The common degree if the graph is regular, else None."""
        degs = set(self.degrees())
        if len(degs) == 1:
            return degs.pop()
        if not degs:
            return 0
        return None

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class DiGraph:
    """Simple directed graph; arcs optionally 2-coloured red/blue.

    When colours are present the in-arcs at each vertex must carry
    pairwise distinct colours (so in-degree at most 2).
    """

    __slots__ = ("n", "arcs", "arc_colour", "_out", "_in", "_out_masks")

    def __init__(
        self,
        n: int,
        arcs: Iterable[tuple[int, int]],
        arc_colour: Sequence[str] | None = None,
        validate: bool = True,
    ):
        if n < 0:
            raise InputError("vertex count must be non-negative")
        self.n = n
        self.arcs: tuple[tuple[int, int], ...] = tuple((u, v) for u, v in arcs)
        self.arc_colour: tuple[str, ...] | None = (
            tuple(arc_colour) if arc_colour is not None else None
        )
        if validate:
            seen = set()
            for u, v in self.arcs:
                if u == v:
                    raise InputError(f"loop at vertex {u}")
                if not (0 <= u < n and 0 <= v < n):
                    raise InputError(f"arc ({u},{v}) out of range for n={n}")
                if (u, v) in seen:
                    raise InputError(f"parallel arc ({u},{v})")
                seen.add((u, v))
            if self.arc_colour is not None:
                if len(self.arc_colour) != len(self.arcs):
                    raise InputError("arc_colour length must match arc count")
                bad = set(self.arc_colour) - {"r", "b"}
                if bad:
                    raise InputError(f"unknown arc colours {sorted(bad)}")
                in_cols: dict[int, set] = {}
                for (u, v), c in zip(self.arcs, self.arc_colour):
                    cols = in_cols.setdefault(v, set())
                    if c in cols:
                        raise InputError(f"vertex {v} has two {c!r} in-arcs")
                    cols.add(c)
        self._out = None
        self._in = None
        self._out_masks = None

    @property
    def m(self) -> int:
        return len(self.arcs)

    def _build_adj(self):
        out = [[] for _ in range(self.n)]
        inn = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            out[u].append(v)
            inn[v].append(u)
        self._out = tuple(tuple(sorted(a)) for a in out)
        self._in = tuple(tuple(sorted(a)) for a in inn)

    def out_adjacency(self) -> tuple[tuple[int, ...], ...]:
        if self._out is None:
            self._build_adj()
        return self._out

    def in_adjacency(self) -> tuple[tuple[int, ...], ...]:
        if self._in is None:
            self._build_adj()
        return self._in

    def out_neighbours(self, v: int) -> tuple[int, ...]:
        return self.out_adjacency()[v]

    def in_neighbours(self, v: int) -> tuple[int, ...]:
        return self.in_adjacency()[v]

    def out_degree(self, v: int) -> int:
        return len(self.out_neighbours(v))

    def in_degree(self, v: int) -> int:
        return len(self.in_neighbours(v))

    def out_masks(self) -> list[int]:
        if self._out_masks is None:
            masks = [0] * self.n
            for u, v in self.arcs:
                masks[u] |= 1 << v
            self._out_masks = masks
        return self._out_masks

    def is_regular(self, d: int) -> bool:
        return all(
            self.out_degree(v) == d and self.in_degree(v) == d for v in range(self.n)
        )

    def in_arcs_of(self, v: int) -> list[int]:
        """Arc indices ending at v, in arc-id order."""
        return [i for i, (_, w) in enumerate(self.arcs) if w == v]

    def __eq__(self, other):
        return (
            isinstance(other, DiGraph)
            and self.n == other.n
            and self.arcs == other.arcs
            and self.arc_colour == other.arc_colour
        )

    def __hash__(self):
        return hash((self.n, self.arcs, self.arc_colour))

    def __repr__(self):
        return f"DiGraph(n={self.n}, m={self.m})"


def _check_vertex_set(g, s) -> frozenset:
    s = frozenset(s)
    for v in s:
        if not (0 <= v < g.n):
            raise InputError(f"vertex {v} out of range for n={g.n}")
    return s


def vertex_boundary(g: Graph | DiGraph, s: Iterable[int]) -> frozenset:
    """Vertices outside s adjacent to s (out-neighbours of s, if directed)."""
    s = _check_vertex_set(g, s)
    out = set()
    if isinstance(g, DiGraph):
        for v in s:
            out.update(g.out_neighbours(v))
    else:
        for v in s:
            out.update(g.neighbours(v))
    return frozenset(out - s)


def edge_boundary(g: Graph, s: Iterable[int]) -> list[tuple[int, int]]:
    """Edges with exactly one endpoint in s, sorted."""
    s = _check_vertex_set(g, s)
    return [e for e in g.edges if (e[0] in s) != (e[1] in s)]


def _bfs_levels(adj, root: int, allowed=None):
    """Yield the breadth-first levels from root over the neighbour table
    adj (adj[v] lists the neighbours, or out-neighbours, of v). Past the
    root, only vertices in `allowed` are entered when it is given; the
    root is always level 0. Levels are computed lazily, so a caller that
    stops early pays only for the levels it read."""
    seen = {root}
    level = [root]
    while level:
        yield level
        nxt = []
        for u in level:
            for w in adj[u]:
                if w not in seen and (allowed is None or w in allowed):
                    seen.add(w)
                    nxt.append(w)
        level = nxt


def _reached(adj, root: int, allowed=None) -> frozenset:
    return frozenset(v for level in _bfs_levels(adj, root, allowed) for v in level)


def _cycle_below(g: Graph, best: float, first: bool) -> float:
    """Length of the shortest cycle shorter than `best`, or `best` when
    there is none; with `first`, the first such length found instead.

    One BFS per root. A vertex of level k with two neighbours in level
    k-1 closes a walk of length 2k, an edge inside level k one of length
    2k+1; each walk contains a cycle no longer than itself, and a root on
    a shortest cycle sees its length, so the minimum over roots is exact
    and any single candidate certifies a cycle that short. The search
    from a root stops at the first level that cannot beat the bound.
    """
    adj = g.adjacency()
    depth = [-1] * g.n
    for root in range(g.n):
        touched = []
        for k, level in enumerate(_bfs_levels(adj, root)):
            for v in level:
                depth[v] = k
            touched.extend(level)
            for v in level:
                parents = 0
                for w in adj[v]:
                    if depth[w] == k:
                        cand = 2 * k + 1
                    elif k and depth[w] == k - 1:
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
            if 2 * (k + 1) >= best:
                break
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


def count_connected_edge_subgraphs(g: Graph, v: int, t: int, cap: int = ENUMERATION_CAP) -> int:
    """Exact number of t-edge connected subgraphs of g containing vertex v.

    Exhaustive enumeration; intended for small t (default cap 8).
    """
    if not (0 <= v < g.n):
        raise InputError(f"vertex {v} out of range")
    if t < 1:
        raise InputError("t must be >= 1")
    if t > cap:
        raise CapacityError(f"t={t} exceeds enumeration cap {cap} (pass cap= to override)")
    return count_connected_edge_subgraphs_upto(g, v, t)[t]


def count_connected_edge_subgraphs_upto(g: Graph, v: int, t_max: int) -> list[int]:
    """Counts of connected s-edge subgraphs containing v, for all s <= t_max.

    Returns a list c with c[s] the count for size s (c[0] = 0). One
    enumeration walk serves every size; each subgraph is visited once via
    binary partition over frontier edges.
    """
    inc: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for i, (a, b) in enumerate(g.edges):
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
    if not (0 <= r < h.n):
        raise InputError(f"vertex {r} out of range")
    return _reached(h.out_adjacency(), r)


def connected_component(g: Graph, v: int) -> frozenset:
    """The component of v, searched once per graph and shared by its vertices."""
    if not (0 <= v < g.n):
        raise InputError(f"vertex {v} out of range")
    if g._components is None:
        g._components = [None] * g.n
    comp = g._components[v]
    if comp is None:
        comp = _reached(g.adjacency(), v)
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
        len(_reached(adj, 0)) == h.n for adj in (h.out_adjacency(), h.in_adjacency())
    )


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)], validate=False)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("a cycle needs at least 3 vertices")
    return Graph(n, [(v, (v + 1) % n) for v in range(n)], validate=False)


# ---------------------------------------------------------------------------
# Text format: header "n m [directed]", one "u v [r|b]" line per edge,
# '#' starts a comment.
# ---------------------------------------------------------------------------


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
    n, m = int(header[0]), int(header[1])
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
            edges.append((int(tok[0]), int(tok[1])))
        return Graph(n, edges)
    arcs = []
    colours = []
    for tok in body:
        if len(tok) == 2:
            arcs.append((int(tok[0]), int(tok[1])))
            colours.append(None)
        elif len(tok) == 3:
            arcs.append((int(tok[0]), int(tok[1])))
            colours.append(tok[2])
        else:
            raise InputError(f"bad arc line {' '.join(tok)!r}")
    have = [c for c in colours if c is not None]
    if have and len(have) != len(arcs):
        raise InputError("either all arcs or no arcs must carry colours")
    return DiGraph(n, arcs, arc_colour=colours if have else None)


def format_graph(g: Graph | DiGraph) -> str:
    lines = []
    if isinstance(g, DiGraph):
        lines.append(f"{g.n} {g.m} directed")
        if g.arc_colour is not None:
            for (u, v), c in zip(g.arcs, g.arc_colour):
                lines.append(f"{u} {v} {c}")
        else:
            for u, v in g.arcs:
                lines.append(f"{u} {v}")
    else:
        lines.append(f"{g.n} {g.m}")
        for u, v in g.edges:
            lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def load_graph(path) -> Graph | DiGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def save_graph(g: Graph | DiGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g))
