"""Vertex colouring: colouring numbers, t-cores, exact chromatic number
on small instances and the product-colouring check."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, InputError
from .graphs import Graph, _expect, _frozen, _integer

DEFAULT_NODE_BUDGET = 10_000_000
DEFAULT_N_CAP = 40


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


def _peel(g: Graph, thresholds: Iterable[int]) -> tuple[np.ndarray, int]:
    """Peel g at each threshold t of a non-empty ascending sequence in turn.

    At threshold t a round removes every live vertex with fewer than t
    live neighbours at once and lowers its neighbours' degrees by the
    arcs out of the removed vertices (g's cached graphs._ArcView); rounds
    repeat until one removes nothing, then the next threshold starts from
    the survivors. A round is one generation of the cascade. It costs
    O(n) plus the removed vertices' rows when g is regular or a view of a
    regular parent, such as a half-sample of a blow-up, whose dropped
    edges are masked out of the parent's table; O(n + m) otherwise.
    Stops when the sequence ends or nothing is left. Returns the mask of
    the survivors and the last threshold peeled at.
    """
    arcs = g._arc_view()
    deg = arcs.degree.copy()
    alive = np.ones(g.n, dtype=bool)
    out = np.empty(g.n, dtype=bool)
    for t in thresholds:
        while True:
            np.less(deg, t, out=out)
            out &= alive
            ids = out.nonzero()[0]
            if not ids.size:
                break
            alive ^= out
            deg -= arcs.counts(out, ids)
        if not alive.any():
            break
    return alive, t


def colouring_number(g: Graph) -> int:
    """Degeneracy + 1: the least t whose t-core is empty, or 0 when g
    has no vertex. Peels at thresholds 1, 2, ... (see _peel) until no
    vertex is left, reading g only through its arc view."""
    _expect(g, Graph, "colouring_number")
    return _peel(g, itertools.count(1))[1] if g.n else 0


def t_core(g: Graph, t: int) -> np.ndarray:
    """Read-only mask of the unique maximal induced subgraph with minimum
    degree >= t (possibly empty)."""
    _expect(g, Graph, "t_core")
    return _frozen(_peel(g, (_integer(t, "t"),))[0])


def _neighbour_masks(g: Graph) -> list[int]:
    """The solver's form of g: bit w of entry v is set when vw is an edge."""
    return [sum(1 << w for w in nbrs) for nbrs in g.adjacency()]


def _greedy_clique(masks: list[int], deg: list[int]) -> list[int]:
    by_deg = sorted(range(len(masks)), key=lambda v: (-deg[v], v))
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


def _pick(colour: list[int], forbid: list[int], deg: list[int]) -> int:
    """DSATUR's next vertex: the uncoloured one with the most forbidden
    colours, then the largest degree, then the smallest id."""
    v = -1
    key = (-1, -1)
    for u, c in enumerate(colour):
        if c < 0:
            k = (bin(forbid[u]).count("1"), deg[u])
            if k > key:
                key = k
                v = u
    return v


def _forbid(masks: list[int], colour: list[int], forbid: list[int], v: int, c: int) -> list[int]:
    """Forbid colour c at the uncoloured neighbours of v; returns those
    where it is new, so that a branch can clear it again."""
    bit = 1 << c
    touched = []
    m = masks[v]
    while m:
        w = (m & -m).bit_length() - 1
        m &= m - 1
        if colour[w] < 0 and not forbid[w] & bit:
            forbid[w] |= bit
            touched.append(w)
    return touched


def _dsatur_greedy(masks: list[int], deg: list[int]) -> list[int]:
    colour = [-1] * len(masks)
    forbid = [0] * len(masks)
    for _ in masks:
        v = _pick(colour, forbid, deg)
        f = forbid[v]
        colour[v] = c = (~f & (f + 1)).bit_length() - 1  # the lowest clear bit
        _forbid(masks, colour, forbid, v, c)
    return colour


def chromatic_number_exact(
    g: Graph,
    budget: int = DEFAULT_NODE_BUDGET,
    n_cap: int = DEFAULT_N_CAP,
) -> ColouringResult:
    """Exact chromatic number by DSATUR-seeded branch and bound.

    Colours are tried in ascending id with at most one fresh colour per
    node; a greedy clique is pre-coloured to break symmetry. The budget
    counts search-node expansions, at least one; when it runs out the
    best proper colouring found so far is returned with exact=False.
    """
    _expect(g, Graph, "chromatic_number_exact")
    n = g.n
    budget = _integer(budget, "budget", 1)
    if n > _integer(n_cap, "n_cap"):
        raise CapacityError(f"n={n} exceeds cap {n_cap} (raise n_cap to allow)")
    if n == 0:
        return ColouringResult((), 0, True, 0)
    masks = _neighbour_masks(g)
    deg = g.degrees()
    clique = _greedy_clique(masks, deg)
    lb = len(clique)
    best_cols = _dsatur_greedy(masks, deg)
    best = max(best_cols) + 1
    if lb >= best:
        return ColouringResult(tuple(best_cols), best, True, best)

    colour = [-1] * n
    forbid = [0] * n
    for i, v in enumerate(clique):
        colour[v] = i
        _forbid(masks, colour, forbid, v, i)
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
        v = _pick(colour, forbid, deg)
        limit = min(used + 1, best - 1)
        avail = ~forbid[v] & ((1 << limit) - 1)
        while avail:
            c = (avail & -avail).bit_length() - 1
            avail &= avail - 1
            colour[v] = c
            touched = _forbid(masks, colour, forbid, v, c)
            solve(num_coloured + 1, max(used, c + 1))
            colour[v] = -1
            for w in touched:
                forbid[w] ^= 1 << c
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
    _expect(g, Graph, "product_colouring_check")
    if not parts:
        raise InputError("need at least one part")
    seen: set = set()
    for part in parts:
        if _expect(part, Graph, "product_colouring_check").n != g.n:
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
