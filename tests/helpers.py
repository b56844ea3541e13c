"""Small graphs, masks and strategies shared by the test modules.

Only helpers that several modules define identically live here; a module
whose helper differs (the spectral tests' circulant, the peel oracles'
denser pairs) keeps its own.
"""

import random

import numpy as np
from hypothesis import strategies as st

from randcol.colouring import _peel
from randcol.errors import InputError
from randcol.graphs import Graph
from randcol.sampling import _check_probability


def ids(mask):
    """The vertex set of a mask."""
    return frozenset(np.flatnonzero(mask).tolist())


def mask(n, vertices):
    """Boolean mask over 0..n-1 of the given vertices."""
    return np.isin(np.arange(n), list(vertices))


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph(10, outer + inner + spokes)


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


def t_core_with_trace(g: Graph, t: int) -> tuple:
    """The t-core's mask plus the peeled vertices in peel order: the
    rounds of colouring._peel, which t_core keeps only the mask of."""
    rounds: list = []
    core = _peel(g, (t,), rounds)
    return core, tuple(np.concatenate(rounds).tolist()) if rounds else ()


def subgraph_from_uniforms(g: Graph, u: np.ndarray, p: float) -> Graph:
    """Keep edge i iff the float u[i] < p: the float reference for the
    samplers, which compare words."""
    if len(u) != g.m:
        raise InputError("uniform count must match edge count")
    _check_probability(p)
    return g.with_edges(u < p)


def _aliases_int(label: str) -> bool:
    """Whether a string label reads as the int label it would alias."""
    try:
        return str(int(label)) == label
    except ValueError:
        return False


# the fields each experiment kind needs besides trials, master seed and graph
KIND_FIELDS = {
    "core_emptiness": {"t": 2, "p": 0.5},
    "chromatic_tail": {"p": 0.5},
    "proposition_check": {"p": 0.5, "k": 3},
    "thm3_sweep": {"p_sweep": (0.5,)},
    "thm4_sweep": {"p_sweep": (0.5,)},
    "product_colouring": {},
}
