"""Threshold bootstrap percolation, its equivalence with t-cores, and
the two randomised spread processes run on blow-up constructions,
together with super-vertex classification and the boundary-resilience
audit."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import InputError
from .generators import BlowUpLayout, ConstructionParams
from .graphs import (DiGraph, Graph, _expect, _frozen, _integer, _sized, _spread, _spread_from,
                     _vertex, vertex_boundary)
from .colouring import t_core
from .sampling import RngStream, _below, _check_probability


@dataclass(frozen=True, eq=False)  # array fields break the generated __eq__
class PercolationState:
    """Fixpoint of a spread process.

    infected is a read-only boolean mask over the vertices. round_trace[0]
    is the seed size; round_trace[i] for i >= 1 counts vertices newly
    infected in synchronous round i. Exactly one of protected_edges /
    resilient_vertices is set by the randomised processes (their static
    random set R, as a read-only mask over h.edges or the vertices); both
    stay None for the plain threshold engine.
    """

    infected: np.ndarray
    round_trace: tuple
    protected_edges: np.ndarray | None = None
    resilient_vertices: np.ndarray | None = None


def bootstrap_percolate(g: Graph, initially_infected, threshold_of: Sequence) -> PercolationState:
    """Least fixpoint of: infect v once it has >= threshold_of[v]
    infected neighbours, from the mask initially_infected. Thresholds of
    0 ignite in round one even without neighbours; math.inf disables a
    vertex entirely. Each synchronous round counts the last newcomers
    over the graph's arcs (an intp array of thresholds is compared as it
    is, others are rounded up).
    """
    _expect(g, Graph, "bootstrap_percolate")
    seed = _sized(initially_infected, g.n, "seed")
    thresholds = np.asarray(threshold_of)
    if thresholds.dtype.kind not in "iuf":
        raise InputError(f"thresholds must be numbers, got {thresholds.dtype}")
    if thresholds.dtype != np.intp:
        thresholds = thresholds.astype(float)
    if thresholds.shape != (g.n,):
        raise InputError("threshold sequence length must equal vertex count")
    bad = ~(thresholds >= 0)
    if bad.any():
        raise InputError(f"negative or NaN threshold at vertex {bad.argmax()}")
    infected, trace = _spread(g, seed, thresholds)
    return PercolationState(infected=_frozen(infected), round_trace=tuple(trace))


def t_core_via_percolation(g: Graph, t: int) -> np.ndarray:
    """Read-only mask of the t-core, computed by infection: seed every
    vertex of degree < t and spread removal with per-vertex threshold
    deg(v) - t + 1 (lose that many neighbours and you drop below t). The
    complement of the fixpoint equals the peeled t-core exactly.
    """
    _expect(g, Graph, "t_core_via_percolation")
    t = _integer(t, "t")
    deg = g._arc_view().degree
    # vertices below t are seeds, so clamping their raw (negative)
    # thresholds changes nothing
    return _frozen(~bootstrap_percolate(g, deg < t, np.maximum(0, deg - t + 1)).infected)


@lru_cache(maxsize=1)
def _coins(rng: RngStream, label: str, count: int) -> np.ndarray:
    """The words of the first count uniforms of rng's child stream label,
    read-only, for sampling._below. A sweep runs its process at every p on
    one stream, so only the first p draws them; the one entry holds the
    last stream's coins."""
    return _frozen(rng.child(label).uniforms(count, words=True))


def thm3_process(h: Graph, p_protect: float, r: int, rng: RngStream) -> PercolationState:
    """Spread over h from {r} where a vertex joins with two infected
    neighbours, or with one infected neighbour if none of its incident
    edges is protected. Protection is a static per-edge coin flip at
    rate p_protect drawn from rng's "protect" child stream, so sweeps
    over p with a shared stream are coupled monotonely. The spread
    replays the search from r, memoised on h, up to the first level that
    holds an endpoint of a protected edge (graphs._spread_from); with no
    edge protected it is that search.
    """
    _expect(h, Graph, "thm3_process")
    _check_probability(p_protect)
    protected = _frozen(_below(_coins(rng, "protect", h.m), p_protect))
    infected, trace = _spread_from(h, r, h.edges.compress(protected, axis=0).ravel(), 2)
    return PercolationState(infected, trace, protected_edges=protected)


def thm4_process(h: DiGraph, p_resilient: float, r: int, rng: RngStream) -> PercolationState:
    """Directed spread from {r}: out-neighbours join unless they belong
    to the static random set R, drawn per-vertex at rate p_resilient
    from rng's "resilient" child stream. The root joins regardless. A
    vertex of R has the threshold m + 1, which no count of its in-arcs
    reaches, so the spread replays the search from r, as thm3_process
    does, up to the first level that holds a vertex of R."""
    _expect(h, DiGraph, "thm4_process")
    _check_probability(p_resilient)
    hit = _frozen(_below(_coins(rng, "resilient", h.n), p_resilient))
    infected, trace = _spread_from(h, r, hit.nonzero()[0], h.m + 1)
    return PercolationState(infected, trace, resilient_vertices=hit)


def _thm3_thresholds(h: Graph, protected: np.ndarray) -> np.ndarray:
    """2 at a vertex with a protected incident edge, else 1."""
    thresholds = np.ones(h.n, dtype=np.intp)
    thresholds[h.edges.compress(protected, axis=0).ravel()] = 2
    return thresholds


def _fixpoint_violations(g: Graph | DiGraph, tails, heads, infected, thresholds) -> list:
    """Vertices outside the infected mask with at least threshold[v]
    infected in-neighbours along the arcs tails[i] -> heads[i], where
    thresholds() makes the per-vertex array (or one number for all). The
    counts come from the graph's rows, not from the CSR that the spread
    reads, so the audit stays independent of it. A violation lies
    outside the mask, so a full mask has none, and neither the counts
    nor the thresholds are made for it."""
    infected = _sized(infected, g.n, "infected")
    if infected.all():
        return []
    count = np.bincount(heads[infected[tails]], minlength=g.n)
    return np.flatnonzero(~infected & (count >= thresholds())).tolist()


def thm3_fixpoint_violations(h: Graph, state: PercolationState) -> list:
    """Outside vertices that the rule says should have joined, counted
    over the edge rows in both directions."""
    _expect(h, Graph, "thm3_fixpoint_violations")
    protected = state.protected_edges
    if protected is not None:
        protected = _sized(protected, h.m, "protected_edges")
    return _fixpoint_violations(h, *h._arc_rows(), state.infected,
                                lambda: 1 if protected is None else _thm3_thresholds(h, protected))


def thm4_fixpoint_violations(h: DiGraph, state: PercolationState) -> list:
    """Out-neighbours of the fixpoint that are not in R, counted over the
    arc rows."""
    _expect(h, DiGraph, "thm4_fixpoint_violations")
    hit = state.resilient_vertices
    if hit is not None:
        hit = _sized(hit, h.n, "resilient_vertices")
    return _fixpoint_violations(h, *h.arcs.T, state.infected,
                                lambda: 1 if hit is None else np.where(hit, np.inf, 1))


# --- super-vertex classification ---------------------------------------------


@dataclass(frozen=True, eq=False)  # array fields break the generated __eq__
class SuperVertexStatus:
    """Per-super-vertex classification over a blow-up, as read-only arrays.

    core is the t-core's mask over the blow-up's vertices; dead and
    nearly_dead are masks over the super-vertices (dead implies nearly
    dead). surviving_count[v, j-1] counts core survivors in layer j of
    super-vertex v. resilient masks the super-vertices containing a
    resilient adjacent-layer pair, None when not evaluated (single-layer
    blow-ups); dead_component is the dead component's mask or None.
    """

    core: np.ndarray
    dead: np.ndarray
    nearly_dead: np.ndarray
    surviving_count: np.ndarray
    resilient: np.ndarray | None = None
    dead_component: np.ndarray | None = None


def _core_classes(g_half: Graph, layout: BlowUpLayout, t: int) -> tuple:
    """(core, table, dead) for a blow-up's half-sample: the t-core's
    mask, its survivors per (super-vertex, layer - 1) and the mask of the
    super-vertices with none. Vertex ids run super-vertex by
    super-vertex, layer by layer, m to a layer; the counts are one
    integer product, as graphs.Graph._arc_view counts degrees."""
    if g_half.n != layout.n_vertices:
        raise InputError("graph does not match layout dimensions")
    core = t_core(g_half, t)
    blocks = core.reshape(layout.n_super, layout.layers, layout.m).view(np.uint8)
    table = _frozen(blocks @ np.ones(layout.m, dtype=np.intp))
    return core, table, _frozen(~table.any(axis=1))


def classify_supervertices_thm3(
    g_half: Graph,
    layout: BlowUpLayout,
    t: int,
    root: int | None = None,
    h: Graph | None = None,
) -> SuperVertexStatus:
    """Mark each super-vertex dead iff none of its vertices lies in the
    t-core of g_half. With root and the base graph h given, also report
    the connected set of dead super-vertices containing the root (the
    root is included even if it is not dead): a replay of h's memo
    (graphs._spread_from), threshold h.m + 1 outside the dead set."""
    _expect(g_half, Graph, "classify_supervertices_thm3")
    core, table, dead = _core_classes(g_half, layout, t)
    dead_component = None
    if root is not None:
        if h is None:
            raise InputError("dead-component report needs the base graph h")
        if h.n != layout.n_super:
            raise InputError("base graph does not match layout")
        dead_component = _spread_from(h, root, np.flatnonzero(~dead), h.m + 1)[0]
    # one layer has no nearly-dead class of its own
    return SuperVertexStatus(core, dead, dead, table, dead_component=dead_component)


def resilient_pair_detect(
    g_half: Graph,
    layout: BlowUpLayout,
    params: ConstructionParams,
    edge_graph: Graph | None = None,
) -> SuperVertexStatus:
    """Classify super-vertices of a gadget blow-up.

    Core survival (dead / nearly-dead status, per-layer survivor counts)
    is read from g_half at threshold params.t. A layer pair (j, j+1) is
    resilient when, in edge_graph (default g_half; pass the graph of
    edges that survived the second deletion round alone to measure
    second-round resilience), one side has at least k/s vertices each
    sending at least k/4 edges to the other side.
    """
    _expect(g_half, Graph, "resilient_pair_detect")
    if params.mode != "gadget":
        raise InputError("params must be in gadget mode")
    core, table, dead = _core_classes(g_half, layout, params.t)
    if edge_graph is None:
        edge_graph = g_half
    if edge_graph.n != layout.n_vertices:
        raise InputError("edge graph does not match layout dimensions")
    k, s, layers = params.k, params.s, layout.layers
    if layers < s + 3:
        raise InputError(f"layer {s + 3} out of range 1..{layers}")
    nearly_dead = _frozen(dead | (table[:, 1:s + 2] * s < k).all(axis=1))
    # into[x, j - 1]: edges from vertex x to layer j of its own super-vertex
    a, b = edge_graph._arc_rows()
    own = layout.h_vertex_of(a) == layout.h_vertex_of(b)
    into = np.bincount(
        a[own] * layers + layout.layer_of(b[own]) - 1, minlength=layout.n_vertices * layers
    )
    # good[v, lo - 1, hi - 1]: vertices of layer lo of v sending >= k/4 edges into layer hi
    good = (into * 4 >= k).reshape(layout.n_super, layers, layout.m, layers).sum(axis=2)
    lo = np.arange(s + 2)
    pairs = np.concatenate((good[:, lo, lo + 1], good[:, lo + 1, lo]), axis=1)
    resilient = _frozen((pairs * s >= k).any(axis=1))
    return SuperVertexStatus(core, dead, nearly_dead, table, resilient=resilient)


@dataclass(frozen=True, eq=False)  # array fields break the generated __eq__
class BoundaryResilienceReport:
    """Check that every super-vertex on the out-boundary of the
    nearly-dead reachable set contains a resilient pair, as read-only
    masks over the super-vertices. Violations are reported, not raised:
    the guarantee is asymptotic and desk-scale instances may sit outside
    its regime."""

    reachable_nearly_dead: np.ndarray
    boundary: np.ndarray
    violations: np.ndarray

    @property
    def holds(self) -> bool:
        return not self.violations.any()


def boundary_resilience_audit(
    h: DiGraph,
    layout: BlowUpLayout,
    params: ConstructionParams,
    final_graph: Graph,
    round2_graph: Graph,
    root: int,
) -> BoundaryResilienceReport:
    """Audit the boundary-resilience claim on one concrete outcome.

    final_graph is the graph after both deletion rounds (defines
    survival); round2_graph contains the edges missed by the second
    round alone (defines resilient pairs). The nearly-dead set is grown
    from root along out-arcs inside nearly-dead super-vertices, root
    included, by a replay of h's memo as in classify_supervertices_thm3.
    """
    _expect(h, DiGraph, "boundary_resilience_audit")
    _vertex(h.n, root)  # the root's check comes first
    if h.n != layout.n_super:
        raise InputError("base digraph does not match layout")
    cls = resilient_pair_detect(final_graph, layout, params, edge_graph=round2_graph)
    reach = _spread_from(h, root, np.flatnonzero(~cls.nearly_dead), h.m + 1)[0]
    boundary = vertex_boundary(h, reach)
    return BoundaryResilienceReport(reach, boundary, _frozen(boundary & ~cls.resilient))
