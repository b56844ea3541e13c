"""Graph constructions: random regular (di)graphs via the configuration
model, expander search, plain blow-ups, and the layered gadget blow-up
used by the core-death experiments."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConstructionError, GenerationError, InputError
from .graphs import (DiGraph, Graph, _expect, _integer, _is_integer, _repeats,
                     has_cycle_shorter_than, is_connected)
from .sampling import RngStream
from .spectral import second_eigenvalue

REJECTION_CAP = 100
EXPANDER_TRIES = 20_000


def _as_fraction(x, what: str = "alpha") -> Fraction:
    """x as a Fraction; InputError unless it is a number (not a bool) or
    a fraction string. Floats are read by their decimal literal (str) so
    that 0.3 means 3/10, not the nearest binary float."""
    try:
        if isinstance(x, bool):
            raise TypeError
        return Fraction(str(x) if isinstance(x, float) else x)
    except (TypeError, ValueError, ZeroDivisionError):
        raise InputError(f"bad {what} {x!r}") from None


@dataclass(frozen=True)
class ConstructionParams:
    """Sizes and thresholds for the two blow-up constructions.

    mode "expander-blowup": m = k/3 independent-set size, peel threshold
    t = k/3 + floor(alpha*k). mode "gadget": s+3 layers of size
    m = k/2 - k/(2s), threshold t = ceil(k/4 + 2k/s). Asymptotic-regime
    constraints (tiny alpha, s within [2/alpha, 4/alpha], astronomically
    large base graphs) are deliberately not preconditions; the harness
    records whether a run is in-regime instead. A given alpha only has to
    keep both two-round deletion rates inside (0, 1], i.e. 0 < alpha < 3/2,
    and a gadget needs s >= 2. All fields are checked, as config files
    supply them, and integer fields are kept as ints (graphs._integer
    admits numpy integers).
    """

    mode: str
    k: int
    t: int
    m: int
    alpha: Fraction | None = None
    s: int | None = None

    def __post_init__(self):
        if self.mode not in ("expander-blowup", "gadget"):
            raise InputError(f"mode must be 'expander-blowup' or 'gadget', got {self.mode!r}")
        for name in ("k", "t", "m", "s"):
            value = getattr(self, name)
            # only the gadget has layers, which s counts
            if value is None and name == "s" and self.mode != "gadget":
                continue
            object.__setattr__(self, name, _integer(value, name, None))
        if self.alpha is not None and not 0 < self.alpha < Fraction(3, 2):
            raise InputError("alpha must lie in (0, 3/2)")
        if self.mode == "gadget" and self.s < 2:
            raise InputError("s must be at least 2")

    @classmethod
    def thm3(cls, k: int, alpha) -> "ConstructionParams":
        if not (_is_integer(k) and k > 0 and k % 3 == 0):
            raise InputError("k must be a positive multiple of 3")
        a = _as_fraction(alpha)
        t = k // 3 + math.floor(a * k)
        return cls(mode="expander-blowup", k=k, t=t, m=k // 3, alpha=a)

    @classmethod
    def thm4(cls, k: int, s: int, alpha=None) -> "ConstructionParams":
        # no positive k is a multiple of 0; __post_init__ rejects s < 2
        if not (_is_integer(k) and _is_integer(s) and k > 0 and s and k % (2 * s) == 0):
            raise InputError("k must be a positive multiple of 2s")
        a = None if alpha is None else _as_fraction(alpha)
        m = k // 2 - k // (2 * s)
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
    inside its independent set. Ids are arithmetic, v*(layers*m) +
    (layer-1)*m + position, and read only here: h_vertex_of, layer_of
    and position_of take an id or an array of ids."""

    n_super: int
    layers: int
    m: int

    def __post_init__(self):
        # an empty base blows up to an empty graph
        for name, low in (("n_super", 0), ("layers", 1), ("m", 1)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, low))

    @property
    def n_vertices(self) -> int:
        return self.n_super * self.layers * self.m

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


def save_layout(layout: BlowUpLayout, path) -> None:
    """Write the layout's rows to path; a bad layout leaves the file as it was."""
    text = format_layout(_expect(layout, BlowUpLayout, "save_layout"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


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
        if not ((tails == heads).any() or _repeats(key).any()):
            return tails, heads
    raise GenerationError(
        f"no simple {what} in {REJECTION_CAP} attempts; retry with a new seed"
    )


def random_regular_graph(n: int, d: int, seed) -> Graph:
    """Simple d-regular graph from the configuration model with
    rejection (resample on loops or parallel edges)."""
    n, d = _integer(n, "n", 1), _integer(d, "d")
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
    n = _integer(n, "n", 3)
    stream = _as_stream(seed, "two-regular-digraph")
    tails, heads = _pair_stubs(n, 2, stream, directed=True, what="2-regular digraph")
    colours = np.where(_repeats(heads), "b", "r")
    return DiGraph(n, np.column_stack((tails, heads)), arc_colour=colours.tolist(),
                   validate=False)


def find_cubic_expander(
    n: int,
    seed,
    lambda2_max: float = 2.9,
    girth_min: int | None = 6,
) -> tuple[Graph, float]:
    """Search random cubic graphs for one that is connected, has girth
    at least girth_min (skipped when None) and second eigenvalue at most
    lambda2_max, in EXPANDER_TRIES tries; returns the graph and its second
    eigenvalue. Short-girth candidates are cheap to discard, so the low
    acceptance rate of the girth filter stays affordable at desk scale.
    """
    if isinstance(lambda2_max, bool) or not isinstance(lambda2_max, numbers.Real):
        raise InputError(f"lambda2_max must be a number, got {lambda2_max!r}")
    if girth_min is not None:
        girth_min = _integer(girth_min, "girth_min", None)
    stream = _as_stream(seed, "cubic-expander")
    for attempt in range(EXPANDER_TRIES):
        try:
            g = random_regular_graph(n, 3, stream.child("try", attempt))
        except GenerationError:
            continue
        if not is_connected(g):
            continue
        if girth_min and has_cycle_shorter_than(g, girth_min):
            continue
        lambda2 = second_eigenvalue(g)
        if lambda2 <= lambda2_max:
            return g, lambda2
    raise GenerationError(
        f"no cubic expander with lambda2 <= {lambda2_max} in {EXPANDER_TRIES} tries"
    )


# --- blow-ups -------------------------------------------------------------------


def _complete_bipartite(lo: np.ndarray, hi: np.ndarray, m: int) -> np.ndarray:
    """(len(lo) * m * m, 2) rows joining lo[i] + a to hi[i] + b for
    every a, b < m: one complete bipartite block per entry of lo."""
    a = np.arange(m)
    tails = np.repeat(lo[:, None] + a, m, axis=1)
    heads = np.tile(hi[:, None] + a, m)
    return np.column_stack((tails.ravel(), heads.ravel()))


def blow_up(h: Graph, m: int) -> tuple[Graph, BlowUpLayout]:
    """Replace every vertex of h by an independent m-set and every edge
    by a complete bipartite graph."""
    _expect(h, Graph, "blow_up")
    m = _integer(m, "m", 1)
    layout = BlowUpLayout(n_super=h.n, layers=1, m=m)
    return Graph(layout.n_vertices, _complete_bipartite(*(h.edges * m).T, m)), layout


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
    s+3 instead. The rows are built as array blocks, and the result is
    audited k-regular.
    """
    _expect(h, DiGraph, "gadget_blow_up")
    if params.mode != "gadget":
        raise InputError("params must be in gadget mode")
    if not h.is_regular(2):
        raise InputError("base digraph must have in- and out-degree exactly 2")
    if h.arc_colour is None:
        raise InputError("base digraph needs red/blue in-arc colours")
    s = params.s
    m = params.m
    layout = BlowUpLayout(n_super=h.n, layers=s + 3, m=m)
    # the first id of each layer, one row per super-vertex
    first = np.arange(h.n * layout.layers).reshape(h.n, layout.layers) * m
    ladder = _complete_bipartite(first[:, :-1].ravel(), first[:, 1:].ravel(), m)
    u, v = h.arcs.T
    lo = first[u, 1:-1].ravel()  # layers 2..s+2 of each arc's tail
    hi = first[v, np.where(np.array(h.arc_colour) == "r", 0, s + 2)].repeat(s + 1)
    a, b = np.array(circulant_biregular(m, params.bipartite_degree())).reshape(-1, 2).T
    circulant = np.column_stack(((lo[:, None] + a).ravel(), (hi[:, None] + b).ravel()))
    g = Graph(layout.n_vertices, np.concatenate((ladder, circulant)))
    audit_blow_up(g, layout, expect_degree=params.k)
    return g, layout


def audit_blow_up(g: Graph, layout: BlowUpLayout, expect_degree: int):
    """Degree and layer-independence audit; failures mean a construction
    bug, not bad input."""
    _expect(g, Graph, "audit_blow_up")
    if g.n != layout.n_vertices:
        raise ConstructionError("vertex count does not match layout")
    bad = np.flatnonzero(g._arc_view().degree != _integer(expect_degree, "expect_degree"))
    if bad.size:
        raise ConstructionError(
            f"{bad.size} vertices miss degree {expect_degree} (first: {bad[:5].tolist()})"
        )
    u, v = g.edges.T
    inside = layout.h_vertex_of(u) == layout.h_vertex_of(v)
    inside &= layout.layer_of(u) == layout.layer_of(v)
    if inside.any():
        u, v = g.edges[inside.argmax()].tolist()
        raise ConstructionError(f"edge ({u},{v}) inside one independent set")
