"""Threshold bootstrap percolation, its equivalence with t-cores, and
the two randomised spread processes run on blow-up constructions,
together with super-vertex classification and the boundary-resilience
audit."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError
from .generators import BlowUpLayout, ConstructionParams
from .graphs import DiGraph, Graph, _ids, _spread, _vertex_mask, vertex_boundary
from .colouring import t_core
from .sampling import RngStream


@dataclass(frozen=True)
class PercolationState:
    """Fixpoint of a spread process.

    round_trace[0] is the seed size; round_trace[i] for i >= 1 counts
    vertices newly infected in synchronous round i. Exactly one of
    protected_edges / resilient_vertices is set by the randomised
    processes (their static random set R); both stay None for the plain
    threshold engine. protected_edges is the spanning subgraph of the
    protected edges.
    """

    infected: frozenset
    round_trace: tuple
    protected_edges: Graph | None = None
    resilient_vertices: frozenset | None = None


def bootstrap_percolate(g: Graph, initially_infected, threshold_of: Sequence) -> PercolationState:
    """Least fixpoint of: infect v once it has >= threshold_of[v]
    infected neighbours. Thresholds of 0 ignite in round one even
    without neighbours; math.inf disables a vertex entirely. Each
    synchronous round counts the last newcomers over the CSR arrays.
    """
    seed = _vertex_mask(g.n, initially_infected, "seed vertex")
    thresholds = np.asarray(threshold_of, dtype=float)
    if thresholds.shape != (g.n,):
        raise InputError("threshold sequence length must equal vertex count")
    bad = ~(thresholds >= 0)
    if bad.any():
        raise InputError(f"negative or NaN threshold at vertex {bad.argmax()}")
    infected, trace = _spread(*g._csr_arrays(), seed, thresholds)
    return PercolationState(infected=_ids(infected), round_trace=tuple(trace))


def t_core_via_percolation(g: Graph, t: int) -> frozenset:
    """t-core computed by infection: seed every vertex of degree < t and
    spread removal with per-vertex threshold deg(v) - t + 1 (lose that
    many neighbours and you drop below t). The complement of the
    fixpoint equals the peeled t-core exactly.
    """
    if t < 0:
        raise InputError("t must be >= 0")
    deg = g.degrees()
    seed = [v for v in range(g.n) if deg[v] < t]
    # vertices below t are seeds, so clamping their raw (negative)
    # thresholds changes nothing
    thresholds = [max(0, deg[v] - t + 1) for v in range(g.n)]
    state = bootstrap_percolate(g, seed, thresholds)
    return frozenset(range(g.n)) - state.infected


def thm3_process(h: Graph, p_protect: float, r: int, rng: RngStream) -> PercolationState:
    """Spread over h from {r} where a vertex joins with two infected
    neighbours, or with one infected neighbour if none of its incident
    edges is protected. Protection is a static per-edge coin flip at
    rate p_protect drawn from rng's "protect" child stream, so sweeps
    over p with a shared stream are coupled monotonely.
    """
    if not (0.0 <= p_protect <= 1.0):
        raise InputError(f"p_protect {p_protect} outside [0, 1]")
    if not (0 <= r < h.n):
        raise InputError(f"root {r} out of range")
    protected = h.with_edges(rng.child("protect").uniforms(h.m) < p_protect)
    state = bootstrap_percolate(h, {r}, _thm3_thresholds(h, protected))
    return PercolationState(
        infected=state.infected,
        round_trace=state.round_trace,
        protected_edges=protected,
    )


def thm4_process(h: DiGraph, p_resilient: float, r: int, rng: RngStream) -> PercolationState:
    """Directed spread from {r}: out-neighbours join unless they belong
    to the static random set R, drawn per-vertex at rate p_resilient
    from rng's "resilient" child stream. The root joins regardless."""
    if not (0.0 <= p_resilient <= 1.0):
        raise InputError(f"p_resilient {p_resilient} outside [0, 1]")
    if not (0 <= r < h.n):
        raise InputError(f"root {r} out of range")
    hit = rng.child("resilient").uniforms(h.n) < p_resilient
    infected, trace = _spread(*h._csr_arrays(), _vertex_mask(h.n, [r]), np.where(hit, np.inf, 1))
    return PercolationState(
        infected=_ids(infected),
        round_trace=tuple(trace),
        resilient_vertices=_ids(hit),
    )


def _thm3_thresholds(h: Graph, protected: Graph | None) -> np.ndarray:
    """2 at a vertex with a protected incident edge, else 1."""
    thresholds = np.ones(h.n)
    if protected is not None:
        thresholds[protected.edges.ravel()] = 2
    return thresholds


def thm3_fixpoint_violations(h: Graph, state: PercolationState) -> list:
    """Outside vertices that the rule says should have joined. Infected
    neighbours are counted from the edge rows, not from the CSR that
    bootstrap_percolate reads, so the audit stays independent of it."""
    infected = np.zeros(h.n, dtype=bool)
    infected[np.fromiter(state.infected, dtype=np.intp, count=len(state.infected))] = True
    u, v = h.edges.T
    count = np.bincount(u[infected[v]], minlength=h.n) + np.bincount(v[infected[u]], minlength=h.n)
    thresholds = _thm3_thresholds(h, state.protected_edges)
    return np.flatnonzero(~infected & (count >= thresholds)).tolist()


def thm4_fixpoint_violations(h: DiGraph, state: PercolationState) -> list:
    """Members of the out-boundary of the fixpoint that are not in R."""
    blocked = state.resilient_vertices or frozenset()
    return sorted(vertex_boundary(h, state.infected) - blocked)


# --- super-vertex classification ---------------------------------------------


@dataclass(frozen=True)
class SuperVertexStatus:
    """Per-super-vertex classification over a blow-up.

    status holds "dead" / "nearly_dead" / "alive" (most specific wins;
    dead implies nearly dead). surviving_count[v][j-1] counts core
    survivors in layer j of super-vertex v. resilient marks
    super-vertices containing a resilient adjacent-layer pair; empty
    when not evaluated (single-layer blow-ups).
    """

    status: tuple
    surviving_count: tuple
    core: frozenset
    resilient: tuple = ()
    dead_component: frozenset | None = None

    def is_nearly_dead(self, v: int) -> bool:
        return self.status[v] in ("dead", "nearly_dead")

    def dead_set(self) -> frozenset:
        return frozenset(v for v, st in enumerate(self.status) if st == "dead")

    def nearly_dead_set(self) -> frozenset:
        return frozenset(v for v in range(len(self.status)) if self.is_nearly_dead(v))


def _survivor_table(core: frozenset, layout: BlowUpLayout) -> np.ndarray:
    """Core survivors per (super-vertex, layer - 1): a vertex id // m is
    super-vertex * layers + layer - 1."""
    ids = np.fromiter(core, dtype=np.intp, count=len(core))
    cells = layout.n_super * layout.layers
    return np.bincount(ids // layout.m, minlength=cells).reshape(layout.n_super, layout.layers)


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
    root is included even if it is not dead)."""
    if g_half.n != layout.n_vertices:
        raise InputError("graph does not match layout dimensions")
    core = t_core(g_half, t)
    table = _survivor_table(core, layout)
    dead = ~table.any(axis=1)
    dead_component = None
    if root is not None:
        if h is None:
            raise InputError("dead-component report needs the base graph h")
        if h.n != layout.n_super:
            raise InputError("base graph does not match layout")
        seed = _vertex_mask(h.n, [root])
        dead_component = _ids(_spread(*h._csr_arrays(), seed, np.where(dead, 1, np.inf))[0])
    return SuperVertexStatus(
        status=tuple("dead" if d else "alive" for d in dead.tolist()),
        surviving_count=tuple(map(tuple, table.tolist())),
        core=core,
        dead_component=dead_component,
    )


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
    if params.mode != "gadget":
        raise InputError("params must be in gadget mode")
    if g_half.n != layout.n_vertices:
        raise InputError("graph does not match layout dimensions")
    if edge_graph is None:
        edge_graph = g_half
    if edge_graph.n != layout.n_vertices:
        raise InputError("edge graph does not match layout dimensions")
    k, s, layers = params.k, params.s, layout.layers
    if layers < s + 3:
        raise InputError(f"layer {s + 3} out of range 1..{layers}")
    core = t_core(g_half, params.t)
    table = _survivor_table(core, layout)
    status = np.where(
        ~table.any(axis=1),
        "dead",
        np.where((table[:, 1:s + 2] * s < k).all(axis=1), "nearly_dead", "alive"),
    )
    # into[x, j - 1]: edges from vertex x to layer j of its own super-vertex
    a, b = np.concatenate((edge_graph.edges, edge_graph.edges[:, ::-1])).T
    own = a // (layers * layout.m) == b // (layers * layout.m)
    into = np.bincount(
        a[own] * layers + (b[own] // layout.m) % layers, minlength=layout.n_vertices * layers
    )
    # good[v, lo - 1, hi - 1]: vertices of layer lo of v sending >= k/4 edges into layer hi
    good = (into * 4 >= k).reshape(layout.n_super, layers, layout.m, layers).sum(axis=2)
    lo = np.arange(s + 2)
    pairs = np.concatenate((good[:, lo, lo + 1], good[:, lo + 1, lo]), axis=1)
    return SuperVertexStatus(
        status=tuple(status.tolist()),
        surviving_count=tuple(map(tuple, table.tolist())),
        core=core,
        resilient=tuple((pairs * s >= k).any(axis=1).tolist()),
    )


@dataclass(frozen=True)
class BoundaryResilienceReport:
    """Check that every super-vertex on the out-boundary of the
    nearly-dead reachable set contains a resilient pair. Violations are
    reported, not raised: the guarantee is asymptotic and desk-scale
    instances may sit outside its regime."""

    reachable_nearly_dead: frozenset
    boundary: frozenset
    violations: tuple

    @property
    def holds(self) -> bool:
        return not self.violations


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
    from root along out-arcs staying inside nearly-dead super-vertices;
    the root is included unconditionally.
    """
    if not (0 <= root < h.n):
        raise InputError(f"root {root} out of range")
    if h.n != layout.n_super:
        raise InputError("base digraph does not match layout")
    cls = resilient_pair_detect(final_graph, layout, params, edge_graph=round2_graph)
    seed, nearly_dead = _vertex_mask(h.n, [root]), _vertex_mask(h.n, cls.nearly_dead_set())
    t_set = _ids(_spread(*h._csr_arrays(), seed, np.where(nearly_dead, 1, np.inf))[0])
    boundary = vertex_boundary(h, t_set)
    violations = tuple(sorted(v for v in boundary if not cls.resilient[v]))
    return BoundaryResilienceReport(
        reachable_nearly_dead=t_set,
        boundary=boundary,
        violations=violations,
    )
