"""Graph constructions: random regular (di)graphs via the configuration
model, expander search, plain blow-ups, and the layered gadget blow-up
used by the core-death experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import ConstructionError, GenerationError, InputError
from .graphs import DiGraph, Graph, has_cycle_shorter_than, is_connected
from .sampling import RngStream
from .spectral import SpectralCertificate, second_eigenvalue

REJECTION_CAP = 100


def _as_fraction(x) -> Fraction:
    """Floats are read by their decimal literal (str) so that 0.3 means
    3/10, not the nearest binary float."""
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


@dataclass(frozen=True)
class ConstructionParams:
    """Sizes and thresholds for the two blow-up constructions.

    mode "expander-blowup": m = k/3 independent-set size, peel threshold
    t = k/3 + floor(alpha*k). mode "gadget": s+3 layers of size
    m = k/2 - k/(2s), threshold t = ceil(k/4 + 2k/s). Asymptotic-regime
    constraints (tiny alpha, s within [2/alpha, 4/alpha], astronomically
    large base graphs) are deliberately not preconditions; the harness
    records whether a run is in-regime instead. alpha only has to keep
    both two-round deletion rates inside [0, 1], i.e. alpha < 3/2.
    """

    mode: str
    k: int
    t: int
    m: int
    alpha: Fraction | None = None
    s: int | None = None

    @classmethod
    def thm3(cls, k: int, alpha) -> "ConstructionParams":
        if k <= 0 or k % 3:
            raise InputError("k must be a positive multiple of 3")
        a = _as_fraction(alpha)
        if not (0 < a < Fraction(3, 2)):
            raise InputError("alpha must lie in (0, 3/2)")
        t = k // 3 + math.floor(a * k)
        return cls(mode="expander-blowup", k=k, t=t, m=k // 3, alpha=a)

    @classmethod
    def thm4(cls, k: int, s: int, alpha=None) -> "ConstructionParams":
        if s < 2:
            raise InputError("s must be at least 2")
        if k <= 0 or k % (2 * s):
            raise InputError("k must be a positive multiple of 2s")
        a = None
        if alpha is not None:
            a = _as_fraction(alpha)
            if not (0 < a < Fraction(3, 2)):
                raise InputError("alpha must lie in (0, 3/2)")
        m = k // 2 - k // (2 * s)
        if m <= 0:
            raise InputError("layer size k/2 - k/2s must be positive")
        t = math.ceil(Fraction(k, 4) + Fraction(2 * k, s))
        return cls(mode="gadget", k=k, t=t, m=m, alpha=a, s=s)

    def layers(self) -> int:
        return 1 if self.mode == "expander-blowup" else self.s + 3

    def first_round_rate(self) -> Fraction:
        """First-round deletion rate of the two-round 1/2-sample."""
        if self.mode == "expander-blowup":
            return self.alpha / 3
        return Fraction(1, 3 * self.s)

    def bipartite_degree(self) -> int:
        if self.mode != "gadget":
            raise InputError("bipartite degree only defined in gadget mode")
        return self.k // (2 * self.s)


@dataclass(frozen=True)
class BlowUpLayout:
    """Where each blown-up vertex lives: super-vertex of the base graph,
    layer index (1-based; always 1 for the plain blow-up) and position
    inside its independent set. Ids are arithmetic:
    v*(layers*m) + (layer-1)*m + position."""

    n_super: int
    layers: int
    m: int

    @property
    def n_vertices(self) -> int:
        return self.n_super * self.layers * self.m

    def vertex_id(self, super_v: int, layer: int, pos: int) -> int:
        if not (0 <= super_v < self.n_super):
            raise InputError(f"super-vertex {super_v} out of range")
        if not (1 <= layer <= self.layers):
            raise InputError(f"layer {layer} out of range 1..{self.layers}")
        if not (0 <= pos < self.m):
            raise InputError(f"position {pos} out of range")
        return (super_v * self.layers + (layer - 1)) * self.m + pos

    def h_vertex_of(self, vertex: int) -> int:
        return vertex // (self.layers * self.m)

    def layer_of(self, vertex: int) -> int:
        return (vertex // self.m) % self.layers + 1

    def position_of(self, vertex: int) -> int:
        return vertex % self.m


def format_layout(layout: BlowUpLayout) -> str:
    lines = []
    for v in range(layout.n_vertices):
        lines.append(
            f"{v} {layout.h_vertex_of(v)} {layout.layer_of(v)} {layout.position_of(v)}"
        )
    return "\n".join(lines) + "\n"


def parse_layout(text: str) -> BlowUpLayout:
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            parts = line.split()
            if len(parts) != 4:
                raise InputError(f"bad layout line {line!r}")
            try:
                rows.append(tuple(int(x) for x in parts))
            except ValueError:
                raise InputError(f"non-integer token in layout line {line!r}") from None
    if not rows:
        raise InputError("empty layout")
    n_super = max(r[1] for r in rows) + 1
    layers = max(r[2] for r in rows)
    m = max(r[3] for r in rows) + 1
    layout = BlowUpLayout(n_super=n_super, layers=layers, m=m)
    if len(rows) != layout.n_vertices:
        raise InputError("layout row count does not match its dimensions")
    for v, sv, layer, pos in rows:
        if layout.vertex_id(sv, layer, pos) != v:
            raise InputError(f"layout row for vertex {v} is inconsistent")
    return layout


def save_layout(layout: BlowUpLayout, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_layout(layout))


def load_layout(path) -> BlowUpLayout:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_layout(fh.read())


# --- random regular graphs ----------------------------------------------------


def _as_stream(seed, purpose: str) -> RngStream:
    if isinstance(seed, RngStream):
        return seed
    return RngStream(seed).child(purpose)


def _pair_stubs(n: int, d: int, stream: RngStream, directed: bool, what: str):
    """Configuration-model pairing with rejection.

    Attempt i shuffles the stub list (each vertex d times, ascending)
    with stream.child(i). Undirected, consecutive shuffled stubs pair
    up; directed, the k-th stub of the ascending list is the tail and
    the k-th shuffled stub its head. An attempt with a loop or a
    repeated pair is rejected; a pair is read as unordered when
    undirected. Returns (tails, heads) as int arrays.
    """
    stubs = np.repeat(np.arange(n), d)
    for attempt in range(REJECTION_CAP):
        shuffled = stubs.copy()
        stream.child(attempt).generator().shuffle(shuffled)
        if directed:
            tails, heads = stubs, shuffled
            key = tails * n + heads
        else:
            tails, heads = shuffled[0::2], shuffled[1::2]
            key = np.minimum(tails, heads) * n + np.maximum(tails, heads)
        if not (tails == heads).any() and np.unique(key).size == key.size:
            return tails, heads
    raise GenerationError(
        f"no simple {what} in {REJECTION_CAP} attempts; retry with a new seed"
    )


def random_regular_graph(n: int, d: int, seed) -> Graph:
    """Simple d-regular graph from the configuration model with
    rejection (resample on loops or parallel edges)."""
    if n <= 0 or d < 0:
        raise InputError("need n > 0 and d >= 0")
    if (n * d) % 2:
        raise InputError("n*d must be even")
    if d >= n:
        raise InputError("need d < n")
    stream = _as_stream(seed, "regular-graph")
    tails, heads = _pair_stubs(n, d, stream, directed=False, what=f"{d}-regular graph")
    return Graph(n, np.column_stack((tails, heads)))


def random_two_regular_digraph(n: int, seed) -> DiGraph:
    """Simple digraph with every in- and out-degree exactly 2, in-arcs
    2-coloured: at each vertex the lower-numbered in-arc is red, the
    other blue. Antiparallel arc pairs are allowed."""
    if n < 3:
        raise InputError("need n >= 3")
    stream = _as_stream(seed, "two-regular-digraph")
    tails, heads = _pair_stubs(n, 2, stream, directed=True, what="2-regular digraph")
    colours = np.full(heads.size, "b")
    colours[np.unique(heads, return_index=True)[1]] = "r"
    return DiGraph(n, np.column_stack((tails, heads)), arc_colour=colours.tolist(),
                   validate=False)


def find_cubic_expander(
    n: int,
    seed,
    lambda2_max: float = 2.9,
    girth_min: int | None = 6,
    max_tries: int = 20_000,
) -> tuple[Graph, SpectralCertificate]:
    """Search random cubic graphs for one that is connected, has girth
    at least girth_min (skipped when None) and second eigenvalue at most
    lambda2_max. Short-girth candidates are cheap to discard, so the low
    acceptance rate of the girth filter stays affordable at desk scale.
    """
    stream = _as_stream(seed, "cubic-expander")
    for attempt in range(max_tries):
        try:
            g = random_regular_graph(n, 3, stream.child("try", attempt))
        except GenerationError:
            continue
        if not is_connected(g):
            continue
        if girth_min and has_cycle_shorter_than(g, girth_min):
            continue
        cert = second_eigenvalue(g, 3, girth_checked=girth_min)
        if cert.lambda2 <= lambda2_max:
            return g, cert
    raise GenerationError(
        f"no cubic expander with lambda2 <= {lambda2_max} in {max_tries} tries"
    )


# --- blow-ups -------------------------------------------------------------------


def blow_up(h: Graph, m: int) -> tuple[Graph, BlowUpLayout]:
    """Replace every vertex of h by an independent m-set and every edge
    by a complete bipartite graph."""
    if m < 1:
        raise InputError("m must be >= 1")
    layout = BlowUpLayout(n_super=h.n, layers=1, m=m)
    a = np.arange(m)
    # edge (u, v) gives the rows (u*m + a, v*m + b) for every a, b < m
    tails = np.repeat(h.edges[:, :1] * m + a, m, axis=1)
    heads = np.tile(h.edges[:, 1:] * m + a, m)
    return Graph(layout.n_vertices, np.column_stack((tails.ravel(), heads.ravel()))), layout


def circulant_biregular(set_size: int, degree: int) -> list:
    """Bipartite r-regular edge set on positions 0..M-1 of both sides:
    left i joins right (i+j) mod M for j = 0..r-1."""
    if degree > set_size:
        raise InputError("degree cannot exceed set size")
    if degree < 0 or set_size < 0:
        raise InputError("sizes must be non-negative")
    return [(i, (i + j) % set_size) for i in range(set_size) for j in range(degree)]


def gadget_blow_up(h: DiGraph, params: ConstructionParams) -> tuple[Graph, BlowUpLayout]:
    """Layered blow-up of a 2-in 2-out digraph with coloured in-arcs.

    Each super-vertex carries s+3 independent layers of size m, with
    complete bipartite graphs between consecutive layers. Each red arc
    u->v adds a (k/2s)-regular circulant bipartite graph from every
    middle layer of u (2..s+2) into layer 1 of v; blue arcs feed layer
    s+3 instead. The result is audited k-regular.
    """
    if params.mode != "gadget":
        raise InputError("params must be in gadget mode")
    if not h.is_regular(2):
        raise InputError("base digraph must have in- and out-degree exactly 2")
    if h.arc_colour is None:
        raise InputError("base digraph needs red/blue in-arc colours")
    s = params.s
    m = params.m
    layout = BlowUpLayout(n_super=h.n, layers=s + 3, m=m)
    vid = layout.vertex_id
    edges = []
    for v in range(h.n):
        for j in range(1, s + 3):
            lo = vid(v, j, 0)
            hi = vid(v, j + 1, 0)
            for a in range(m):
                for b in range(m):
                    edges.append((lo + a, hi + b))
    r = params.bipartite_degree()
    block = circulant_biregular(m, r)
    for (u, v), colour in zip(h.arcs.tolist(), h.arc_colour):
        target_layer = 1 if colour == "r" else s + 3
        for j in range(2, s + 3):
            lo = vid(u, j, 0)
            hi = vid(v, target_layer, 0)
            for a, b in block:
                edges.append((lo + a, hi + b))
    g = Graph(layout.n_vertices, edges)
    audit_blow_up(g, layout, expect_degree=params.k)
    return g, layout


def audit_blow_up(g: Graph, layout: BlowUpLayout, expect_degree: int | None = None):
    """Degree and layer-independence audit; failures mean a construction
    bug, not bad input."""
    if g.n != layout.n_vertices:
        raise ConstructionError("vertex count does not match layout")
    if expect_degree is not None:
        degs = g.degrees()
        bad = [v for v in range(g.n) if degs[v] != expect_degree]
        if bad:
            raise ConstructionError(
                f"{len(bad)} vertices miss degree {expect_degree} (first: {bad[:5]})"
            )
    u, v = g.edges.T
    inside = layout.h_vertex_of(u) == layout.h_vertex_of(v)
    inside &= layout.layer_of(u) == layout.layer_of(v)
    if inside.any():
        u, v = g.edges[inside.argmax()].tolist()
        raise ConstructionError(f"edge ({u},{v}) inside one independent set")
