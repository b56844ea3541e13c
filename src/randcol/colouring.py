"""Vertex colouring: degeneracy orders, t-cores, exact chromatic number
on small instances and the product-colouring check."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, InputError
from .graphs import Graph

DEFAULT_NODE_BUDGET = 10_000_000
DEFAULT_N_CAP = 40


@dataclass(frozen=True)
class EliminationOrder:
    """Reverse min-degree peeling order.

    back_degrees[i] counts neighbours of order[i] that appear earlier in
    order (i.e. were still present when order[i] was peeled), so
    max(back_degrees) + 1 is the colouring number.
    """

    order: tuple
    back_degrees: tuple

    def degeneracy(self) -> int:
        return max(self.back_degrees, default=0)


@dataclass(frozen=True)
class ColouringResult:
    """A proper colouring plus how much it proves.

    exact means num_colours equals the chromatic number; otherwise
    lower_bound <= chi <= num_colours is all that is known.
    """

    colour_of: tuple
    num_colours: int
    exact: bool
    lower_bound: int


def _peel(g: Graph, thresholds: Iterable[int]) -> tuple[list, list]:
    """Peel g at each threshold t of an ascending sequence in turn.

    At threshold t a round removes every live vertex with fewer than t
    live neighbours at once, in ascending id, and lowers its neighbours'
    degrees with one bincount over the removed vertices' CSR slices;
    rounds repeat until one removes nothing, then the next threshold
    starts from the survivors. A round is one generation of the cascade,
    and a run is O(rounds * n + m). Stops when the sequence ends or
    nothing is left. Returns (survivors in ascending id, peel order).
    """
    indptr, indices = g._csr_arrays()
    degree = np.diff(indptr)
    deg = degree.copy()
    alive = np.ones(g.n, dtype=bool)
    rounds: list = []
    for t in thresholds:
        if not alive.any():
            break
        out = np.flatnonzero(alive & (deg < t))
        while out.size:
            alive[out] = False
            rounds.append(out)
            # arc ids of the removed vertices' slices, laid end to end
            size = degree[out]
            ends = np.cumsum(size)
            arcs = np.arange(ends[-1]) + np.repeat(indptr[out] - ends + size, size)
            deg -= np.bincount(indices[arcs], minlength=g.n)
            out = np.flatnonzero(alive & (deg < t))
    peel = np.concatenate(rounds).tolist() if rounds else []
    return np.flatnonzero(alive).tolist(), peel


def colouring_number(g: Graph) -> tuple[int, EliminationOrder]:
    """Degeneracy + 1, with the witnessing elimination order.

    Peels at thresholds 1, 2, ... until no vertex is left; ties break by
    threshold, then by round of the cascade, then by ascending id (see
    _peel). The returned order is the reverse of the peel. A vertex
    peeled at threshold t has fewer than t neighbours later in the peel,
    and the last threshold reached is one more than the degeneracy.
    """
    if g.n == 0:
        return 0, EliminationOrder((), ())
    indptr, indices = g._csr_arrays()
    _, peel = _peel(g, itertools.count(1))
    pos = np.empty(g.n, dtype=np.intp)
    pos[peel] = np.arange(g.n)
    tails = np.repeat(np.arange(g.n), np.diff(indptr))
    later = np.bincount(tails[pos[indices] > pos[tails]], minlength=g.n)
    order = EliminationOrder(tuple(reversed(peel)), tuple(later[peel[::-1]].tolist()))
    return order.degeneracy() + 1, order


def t_core_with_trace(g: Graph, t: int) -> tuple[frozenset, tuple]:
    """The t-core plus the peeled vertices in peel order (see _peel)."""
    if t < 0:
        raise InputError("t must be >= 0")
    core, trace = _peel(g, (t,))
    return frozenset(core), tuple(trace)


def t_core(g: Graph, t: int) -> frozenset:
    """Vertex set of the unique maximal induced subgraph with minimum
    degree >= t (possibly empty)."""
    return t_core_with_trace(g, t)[0]


def _greedy_clique(g: Graph) -> list[int]:
    masks = g.adj_masks()
    deg = g.degrees()
    by_deg = sorted(range(g.n), key=lambda v: (-deg[v], v))
    best: list[int] = []
    for start in by_deg:
        clique = [start]
        cand = masks[start]
        while cand:
            pick = -1
            m = cand
            while m:
                w = (m & -m).bit_length() - 1
                m &= m - 1
                if pick < 0 or deg[w] > deg[pick]:
                    pick = w
            clique.append(pick)
            cand &= masks[pick]
        if len(clique) > len(best):
            best = clique
    return best


def _dsatur_greedy(g: Graph) -> list[int]:
    n = g.n
    masks = g.adj_masks()
    deg = g.degrees()
    colour = [-1] * n
    forbid = [0] * n
    for _ in range(n):
        v = -1
        key = (-1, -1)
        for u in range(n):
            if colour[u] < 0:
                k = (bin(forbid[u]).count("1"), deg[u])
                if k > key:
                    key = k
                    v = u
        c = 0
        f = forbid[v]
        while f >> c & 1:
            c += 1
        colour[v] = c
        m = masks[v]
        while m:
            w = (m & -m).bit_length() - 1
            m &= m - 1
            if colour[w] < 0:
                forbid[w] |= 1 << c
    return colour


def chromatic_number_exact(
    g: Graph,
    budget: int = DEFAULT_NODE_BUDGET,
    n_cap: int = DEFAULT_N_CAP,
) -> ColouringResult:
    """Exact chromatic number by DSATUR-seeded branch and bound.

    Colours are tried in ascending id with at most one fresh colour per
    node; a greedy clique is pre-coloured to break symmetry. The budget
    counts search-node expansions; when it runs out the best proper
    colouring found so far is returned with exact=False.
    """
    n = g.n
    if n > n_cap:
        raise CapacityError(f"n={n} exceeds cap {n_cap} (raise n_cap to allow)")
    if n == 0:
        return ColouringResult((), 0, True, 0)
    if g.m == 0:
        return ColouringResult((0,) * n, 1, True, 1)
    masks = g.adj_masks()
    deg = g.degrees()
    clique = _greedy_clique(g)
    lb = len(clique)
    greedy = _dsatur_greedy(g)
    best = max(greedy) + 1
    best_cols = list(greedy)
    if lb >= best:
        return ColouringResult(tuple(best_cols), best, True, best)

    colour = [-1] * n
    forbid = [0] * n
    for i, v in enumerate(clique):
        colour[v] = i
        bit = 1 << i
        m = masks[v]
        while m:
            w = (m & -m).bit_length() - 1
            m &= m - 1
            if colour[w] < 0:
                forbid[w] |= bit
    nodes = 0
    aborted = False

    def solve(num_coloured: int, used: int):
        nonlocal best, best_cols, nodes, aborted
        nodes += 1
        if nodes > budget:
            aborted = True
            return
        if used >= best:
            return
        if num_coloured == n:
            best = used
            best_cols = colour[:]
            return
        v = -1
        key = (-1, -1)
        for u in range(n):
            if colour[u] < 0:
                k = (bin(forbid[u]).count("1"), deg[u])
                if k > key:
                    key = k
                    v = u
        limit = min(used + 1, best - 1)
        avail = ~forbid[v] & ((1 << limit) - 1)
        while avail:
            c = (avail & -avail).bit_length() - 1
            avail &= avail - 1
            bit = 1 << c
            colour[v] = c
            touched = []
            m = masks[v]
            while m:
                w = (m & -m).bit_length() - 1
                m &= m - 1
                if colour[w] < 0 and not forbid[w] & bit:
                    forbid[w] |= bit
                    touched.append(w)
            solve(num_coloured + 1, max(used, c + 1))
            colour[v] = -1
            for w in touched:
                forbid[w] ^= bit
            if aborted or best <= lb:
                return

    solve(len(clique), len(clique))
    closed = (not aborted) or best <= lb
    return ColouringResult(
        tuple(best_cols),
        best,
        closed,
        best if closed else lb,
    )


@dataclass(frozen=True)
class ProductColouringReport:
    """Outcome of the product bound audit on one edge partition."""

    part_values: tuple
    product: int
    chi: int

    @property
    def margin(self) -> int:
        return self.product - self.chi

    @property
    def ok(self) -> bool:
        return self.margin >= 0


def product_colouring_check(
    g: Graph,
    parts: Sequence[Graph],
    budget: int = DEFAULT_NODE_BUDGET,
) -> ProductColouringReport:
    """Audit that the product of the parts' chromatic numbers dominates
    the chromatic number of the union, for an edge partition of g."""
    if not parts:
        raise InputError("need at least one part")
    seen: set = set()
    for part in parts:
        if part.n != g.n:
            raise InputError("parts must share the vertex set of g")
        pe = set(map(tuple, part.edges.tolist()))
        if pe & seen:
            raise InputError("parts overlap")
        seen |= pe
    if seen != set(map(tuple, g.edges.tolist())):
        raise InputError("parts do not cover g")
    values = []
    for part in parts:
        res = chromatic_number_exact(part, budget=budget)
        if not res.exact:
            raise CapacityError("chromatic number not closed within budget")
        values.append(res.num_colours)
    whole = chromatic_number_exact(g, budget=budget)
    if not whole.exact:
        raise CapacityError("chromatic number not closed within budget")
    prod = 1
    for v in values:
        prod *= v
    return ProductColouringReport(tuple(values), prod, whole.num_colours)
