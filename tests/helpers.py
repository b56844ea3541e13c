"""Graphs, strategies, references and pins shared by the test modules.

A test module imports from here and never from another test module
(test_golden.test_no_test_module_imports_another), so every reference
that two modules use lives here once:

- out_lists: each vertex's out-neighbours, read from a graph's rows;
- ref_bfs: breadth-first levels over out-neighbour lists, the one
  reference of components, reachability and restricted searches;
- ref_bootstrap_percolate: the per-edge round loop, the one reference of
  every threshold spread;
- ref_t_core and ref_colouring_number: the queue and heap peels;
- RefGraph: the tuple Graph that the edge arrays replaced.

The references read the graph's rows (g.edges both ways, g.arcs), never
the CSR under test. A module whose helper differs from these (the
peel oracles' denser pairs) keeps its own.
"""

import heapq
import random
from collections import deque

import numpy as np
from hypothesis import strategies as st

from randcol.errors import GenerationError, InputError
from randcol.generators import random_regular_graph, random_two_regular_digraph
from randcol.graphs import DiGraph, Graph


def ids(mask):
    """The vertex set of a mask."""
    return frozenset(np.flatnonzero(mask).tolist())


def mask(n, vertices):
    """Boolean mask over 0..n-1 of the given vertices."""
    return np.isin(np.arange(n), list(vertices))


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def layout_id(layout, super_v, layer, pos):
    """The id of position pos of layer `layer` (1-based) of super-vertex
    super_v, by the layout's formula."""
    return (super_v * layout.layers + (layer - 1)) * layout.m + pos


def base_digraph_4():
    """Each vertex's red arc to the next and blue arc to the opposite
    vertex of a 4-cycle."""
    arcs = [(i, (i + 1) % 4) for i in range(4)] + [(i, (i + 2) % 4) for i in range(4)]
    return DiGraph(4, arcs, arc_colour=["r"] * 4 + ["b"] * 4)


def circulant(n, offsets):
    """v joined to v + s and v - s (mod n) for each offset s."""
    return Graph(n, {tuple(sorted((v, (v + s) % n))) for v in range(n) for s in offsets})


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def pairs(n, directed=False):
    """Sets of at most 3n loop-free vertex pairs over 0..n-1, each
    ordered (u, v) with u < v unless directed."""
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    if not directed:
        pair = pair.map(lambda e: (min(e), max(e)))
    return st.sets(pair, max_size=3 * n)


@st.composite
def regular_graphs(draw, directed=True):
    """A graph whose CSR has one out-degree: circulants, random regular
    graphs, edgeless graphs and n = 0, and unless not directed 2-out and
    2-in/2-out digraphs."""
    kinds = ("circulant", "regular", "edgeless") + (("two_out", "digraph") if directed else ())
    kind = draw(st.sampled_from(kinds))
    if kind == "circulant":
        n = draw(st.integers(3, 30))
        return circulant(n, draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=4)))
    if kind == "regular":
        d = draw(st.integers(1, 5))
        n = draw(st.integers(d + 1, 30))
        n += n * d % 2
        try:
            return random_regular_graph(n, d, draw(st.integers(0, 20)))
        except GenerationError:  # no simple pairing in the attempts
            return circulant(n, range(1, d // 2 + 1))
    if kind == "two_out":  # every vertex has two out-arcs; in-degrees vary
        n = draw(st.integers(3, 30))
        heads = [draw(st.lists(st.integers(0, n - 1).filter(lambda w, v=v: w != v),
                               min_size=2, max_size=2, unique=True)) for v in range(n)]
        return DiGraph(n, [(v, w) for v in range(n) for w in heads[v]])
    if kind == "digraph":
        return random_two_regular_digraph(draw(st.integers(3, 30)), draw(st.integers(0, 20)))
    return Graph(draw(st.integers(0, 30)), [])


# --- references ------------------------------------------------------------------


def out_lists(g):
    """Each vertex's out-neighbours from the graph's rows: both ends of
    every edge of a Graph, the arcs of a DiGraph."""
    rows = g.arcs.tolist() if isinstance(g, DiGraph) else g.edges.tolist() + g.edges[:, ::-1].tolist()
    out = [[] for _ in range(g.n)]
    for v, w in rows:
        out[v].append(w)
    return out


def ref_bfs(out, root, allowed=None):
    """{v: breadth-first level} of the vertices reached from root over the
    out-neighbour lists, entering only `allowed` past the root, which is
    always in."""
    level = {root: 0}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in out[v]:
            if w not in level and (allowed is None or w in allowed):
                level[w] = level[v] + 1
                queue.append(w)
    return level


def ref_bootstrap_percolate(out, seed, thresholds):
    """(infected set, round trace) of the per-edge round loop over the
    out-neighbour lists, from the vertex set seed: w joins once the arcs
    into it from infected vertices reach thresholds[w], a number for
    each vertex or one for all."""
    thresholds = np.broadcast_to(np.asarray(thresholds, dtype=float), len(out)).tolist()
    infected = set(seed)
    counts = [0] * len(out)
    trace = [len(infected)]
    current = set(infected)
    auto = {v for v in range(len(out)) if v not in infected and thresholds[v] <= 0}
    while True:
        nxt, auto = auto, set()
        for v in current:
            for w in out[v]:
                if w not in infected:
                    counts[w] += 1
                    if counts[w] >= thresholds[w]:
                        nxt.add(w)
        if not nxt:
            return frozenset(infected), tuple(trace)
        infected |= nxt
        trace.append(len(nxt))
        current = nxt


def ref_colouring_number(g):
    """Lazy-deletion heap: a minimum-degree vertex at each step, lowest id
    first among ties; the largest degree at removal, plus one."""
    if g.n == 0:
        return 0
    adj = out_lists(g)
    deg = [len(a) for a in adj]
    heap = [(d, v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    removed = [False] * g.n
    at_removal = []
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != deg[v]:
            continue
        removed[v] = True
        at_removal.append(d)
        for w in adj[v]:
            if not removed[w]:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    return max(at_removal) + 1


def ref_t_core(g, t):
    """The queue peel: the t-core's vertex set."""
    adj = out_lists(g)
    deg = [len(a) for a in adj]
    alive = [True] * g.n
    queue = [v for v in range(g.n) if deg[v] < t]
    for v in queue:
        alive[v] = False
    for v in queue:
        for w in adj[v]:
            if alive[w]:
                deg[w] -= 1
                if deg[w] < t:
                    alive[w] = False
                    queue.append(w)
    return frozenset(v for v in range(g.n) if alive[v])


class RefGraph:
    """The tuple Graph: sorted (u, v) pairs with u < v, checked one by one."""

    def __init__(self, n, edges, validate=True):
        if n < 0:
            raise InputError("vertex count must be non-negative")
        self.n = n
        self.edges = tuple(sorted((u, v) if u < v else (v, u) for u, v in edges))
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

    def adjacency(self):
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(map(tuple, adj))

    def degrees(self):
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def adj_masks(self):
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks


def ref_subgraph_from_uniforms(g, u, p):
    """Keep edge i iff the float u[i] < p, by index tuples: the reference
    of the samplers, which compare words."""
    edges = [tuple(e) for e in g.edges.tolist()]
    return Graph(g.n, [edges[i] for i in np.flatnonzero(u < p)])


def _aliases_int(label: str) -> bool:
    """Whether a string label reads as the int label it would alias."""
    try:
        return str(int(label)) == label
    except ValueError:
        return False


# --- pins ----------------------------------------------------------------------------

# the fields each experiment kind needs besides trials, master seed and graph
KIND_FIELDS = {
    "core_emptiness": {"t": 2, "p": 0.5},
    "chromatic_tail": {"p": 0.5},
    "proposition_check": {"p": 0.5, "k": 3},
    "thm3_sweep": {"p_sweep": (0.5,)},
    "thm4_sweep": {"p_sweep": (0.5,)},
    "product_colouring": {},
}

# sha256 of criterion 07's result file, which is the thm3_sweep benchmark's
# chunk 0 (perfbench/expected.json), and of criterion 08's result text.
THM3_SWEEP_GOLDEN = "42e29ba2344de6a8ae3358a402953ab104a288a76462c13456305201a653da2e"
THM4_SWEEP_GOLDEN = "356bf9331ac86afdb2522b182d79238d42371a18620c88fa2e82237cbf7de8e5"

# sha256 of criterion 10's result file, which is the core_death benchmark's
# chunk 0 (perfbench/expected.json).
CORE_DEATH_GOLDEN = "76e4127f761fa5743f61817cc68cc2fbc20f369f43201829d9d0774710c4c054"
