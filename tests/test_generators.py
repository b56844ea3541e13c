import hashlib
from fractions import Fraction

import numpy as np
import pytest

from randcol.errors import ConstructionError, GenerationError, InputError
from randcol.generators import (
    BlowUpLayout,
    ConstructionParams,
    audit_blow_up,
    blow_up,
    circulant_biregular,
    find_cubic_expander,
    gadget_blow_up,
    random_regular_graph,
    random_two_regular_digraph,
)
from randcol import generators, graphs
from randcol.graphs import (
    DiGraph,
    Graph,
    connected_component,
    format_graph,
    has_cycle_shorter_than,
    is_connected,
)
from randcol.sampling import RngStream
from randcol.spectral import second_eigenvalue

from helpers import base_digraph_4, complete_graph, layout_id


# --- pinned graphs ------------------------------------------------------------

# sha256 of the text format (format_graph) of one graph per generator:
# its edge rows, and for the digraph its arc colours. They move if the
# draws behind a generator do, such as numpy's Generator.shuffle, or if a
# blow-up joins other vertices.
GRAPH_GOLDEN = {
    "random_regular_graph": "66d5f1e9984413de92dca92d14bc6e0b32a8ad89e64f4d50ea991e1b2fe3f817",
    "cubic_expander": "7d2ffbeea8446268d105432201d650d40a5df52442383104b740b8ac4dcf56b3",
    "random_two_regular_digraph": "eb015055b3f3385463980949702eeac84cfbcde1b728704e90e97d9fe04346e7",
    "gadget_blow_up": "a689add59c7bca6ea12efc6ddfe30a8c4690cc043a2633d4bfb9a39dc629b965",
    "blow_up": "163221349907a2dd3a7e2ae802d26a2fd00ab3adc9d889117dbfa5d2665f837b",
}

PINNED_GRAPHS = {
    "random_regular_graph": lambda: random_regular_graph(60, 4, 5),
    "cubic_expander": lambda: find_cubic_expander(14, 7, lambda2_max=2.95, girth_min=4)[0],
    "random_two_regular_digraph": lambda: random_two_regular_digraph(40, 0),
    "gadget_blow_up": lambda: gadget_blow_up(
        random_two_regular_digraph(12, 0), ConstructionParams.thm4(12, 3))[0],
    "blow_up": lambda: blow_up(random_regular_graph(30, 3, 1), 3)[0],
}


@pytest.mark.parametrize("name", sorted(GRAPH_GOLDEN))
def test_generated_graph_is_pinned(name):
    text = format_graph(PINNED_GRAPHS[name]())
    assert hashlib.sha256(text.encode()).hexdigest() == GRAPH_GOLDEN[name], (
        f"the pinned {name} graph changed bytes; if the move is deliberate, "
        f"update its digest in GRAPH_GOLDEN and give the reason in CHANGES.md"
    )


# --- random regular -----------------------------------------------------------


def test_k4_is_forced():
    assert random_regular_graph(4, 3, 0) == complete_graph(4)


def test_two_regular_is_cycle_cover():
    g = random_regular_graph(6, 2, 1)
    assert g.degrees() == [2] * 6
    seen = set()
    while len(seen) < 6:
        v = min(set(range(6)) - seen)
        comp = frozenset(np.flatnonzero(connected_component(g, v)).tolist())
        assert len(comp) >= 3
        seen |= comp


def test_regular_deterministic_and_seed_sensitive():
    a = random_regular_graph(20, 3, 5)
    b = random_regular_graph(20, 3, 5)
    c = random_regular_graph(20, 3, 6)
    assert a == b
    assert a != c
    assert a.degrees() == [3] * 20


def test_regular_accepts_stream():
    s = RngStream(5).child("regular-graph")
    assert random_regular_graph(20, 3, 5) == random_regular_graph(20, 3, s)


def test_regular_input_errors():
    with pytest.raises(InputError):
        random_regular_graph(5, 3, 0)  # odd product
    with pytest.raises(InputError):
        random_regular_graph(4, 4, 0)  # d >= n
    with pytest.raises(InputError):
        random_regular_graph(0, 0, 0)


def test_regular_grid_audit():
    for n, d, seed in [(10, 3, 2), (12, 4, 0), (9, 2, 4), (16, 5, 13)]:
        g = random_regular_graph(n, d, seed)
        assert g.degrees() == [d] * n


# --- random 2-regular digraph ---------------------------------------------------


def test_digraph_n3_is_complete_bidirected():
    h = random_two_regular_digraph(3, 0)
    arcs = sorted(map(tuple, h.arcs.tolist()))
    assert arcs == [(i, j) for i in range(3) for j in range(3) if i != j]
    assert h.is_regular(2)


def test_digraph_degrees_colours_and_size():
    for n, seed in [(8, 0), (12, 1), (20, 2)]:
        h = random_two_regular_digraph(n, seed)
        assert h.m == 2 * n
        assert h.is_regular(2)
        for v in range(n):
            ids = [i for i, (_, w) in enumerate(h.arcs.tolist()) if w == v]
            assert len(ids) == 2
            cols = [h.arc_colour[i] for i in ids]
            assert sorted(cols) == ["b", "r"]
            # lower arc id is the red one
            assert h.arc_colour[min(ids)] == "r"


def test_digraph_deterministic():
    assert random_two_regular_digraph(10, 3) == random_two_regular_digraph(10, 3)
    assert random_two_regular_digraph(10, 3) != random_two_regular_digraph(10, 4)


def test_digraph_rejects_tiny():
    with pytest.raises(InputError):
        random_two_regular_digraph(2, 0)


# --- expander search -------------------------------------------------------------


def test_find_cubic_expander():
    g, lambda2 = find_cubic_expander(14, 7, lambda2_max=2.95, girth_min=4)
    assert g.degrees() == [3] * 14
    assert is_connected(g)
    assert not has_cycle_shorter_than(g, 4)
    assert lambda2 <= 2.95 and lambda2 == second_eigenvalue(g)
    g2, _ = find_cubic_expander(14, 7, lambda2_max=2.95, girth_min=4)
    assert g == g2


def test_find_cubic_expander_no_girth_filter():
    g, lambda2 = find_cubic_expander(12, 1, lambda2_max=2.95, girth_min=None)
    assert g.degrees() == [3] * 12
    assert type(lambda2) is float and lambda2 <= 2.95


@pytest.mark.parametrize("options", [
    {"lambda2_max": "2.9"}, {"lambda2_max": True}, {"lambda2_max": None},
    {"girth_min": "6"}, {"girth_min": True}, {"girth_min": 2.5},
], ids=["lambda2-str", "lambda2-bool", "lambda2-none", "girth-str", "girth-bool", "girth-float"])
def test_find_cubic_expander_checks_its_options(options):
    with pytest.raises(InputError, match=next(iter(options))):
        find_cubic_expander(12, 1, **options)


def test_find_cubic_expander_takes_numpy_options():
    want = find_cubic_expander(12, 1, lambda2_max=2.95, girth_min=4)
    assert find_cubic_expander(12, 1, lambda2_max=np.float64(2.95), girth_min=np.int8(4)) == want


def test_find_cubic_expander_exhausts(monkeypatch):
    monkeypatch.setattr(generators, "EXPANDER_TRIES", 5)
    with pytest.raises(GenerationError, match="in 5 tries"):
        find_cubic_expander(12, 0, lambda2_max=-4.0, girth_min=None)


# --- construction params ---------------------------------------------------------


def test_params_thm3():
    p = ConstructionParams.thm3(12, "1/20")
    assert (p.mode, p.m, p.t, p.layers()) == ("expander-blowup", 4, 4, 1)
    assert p.first_round_rate() == Fraction(1, 60)
    p2 = ConstructionParams.thm3(30, 0.05)
    assert p2.t == 10 + 1  # floor(0.05*30) = 1
    assert p2.alpha == Fraction(1, 20)


def test_params_thm3_errors():
    with pytest.raises(InputError):
        ConstructionParams.thm3(10, 0.05)
    with pytest.raises(InputError):
        ConstructionParams.thm3(12, 1.5)  # second-round rate leaves [0, 1]
    with pytest.raises(InputError):
        ConstructionParams.thm3(12, 0)
    # one layer, so nothing reads s
    with pytest.raises(InputError, match="^expander-blowup does not read s$"):
        ConstructionParams("expander-blowup", 12, 5, 4, alpha=Fraction(1, 12), s=5)


def test_params_allow_out_of_regime_alpha():
    # the asymptotic statements need alpha tiny, but desk-scale runs may not;
    # values up to 3/2 stay legal and are merely flagged out of regime
    p = ConstructionParams.thm3(12, 0.09)
    assert p.t == 4 + 1
    assert ConstructionParams.thm4(12, 3, alpha=0.5).alpha == Fraction(1, 2)


def test_params_thm4():
    p = ConstructionParams.thm4(12, 3)
    assert (p.m, p.t, p.layers(), p.bipartite_degree()) == (4, 11, 6, 2)
    assert p.first_round_rate() == Fraction(1, 9)
    p64 = ConstructionParams.thm4(64, 16)
    assert p64.m == 30
    assert p64.layers() == 19


def test_params_thm4_errors():
    with pytest.raises(InputError):
        ConstructionParams.thm4(12, 5)  # 10 does not divide 12
    with pytest.raises(InputError):
        ConstructionParams.thm4(12, 1)
    with pytest.raises(InputError):
        ConstructionParams.thm4(12, 3, alpha=1.5)


def test_params_reject_a_bool_alpha():
    # True is not the number 1 here, as nowhere in the package
    with pytest.raises(InputError, match="bad alpha True"):
        ConstructionParams.thm3(12, True)
    with pytest.raises(InputError, match="bad alpha True"):
        ConstructionParams.thm4(12, 2, True)


def test_params_store_numpy_integers_as_ints():
    for got, want in [
        (ConstructionParams.thm3(np.int64(12), 0.09), ConstructionParams.thm3(12, 0.09)),
        (ConstructionParams.thm4(np.int64(12), np.int32(3)), ConstructionParams.thm4(12, 3)),
        (ConstructionParams("gadget", np.uint8(12), np.int64(11), np.int16(4), s=np.int64(3)),
         ConstructionParams.thm4(12, 3)),
    ]:
        assert got == want and got.alpha == want.alpha
        names = ("k", "t", "m") if got.s is None else ("k", "t", "m", "s")
        assert all(type(getattr(got, name)) is int for name in names)


# each entry point that takes a size, as a call of that size alone, and a size it builds
SIZED_CALLS = {
    "random_regular_graph n": (lambda x: random_regular_graph(x, 3, 0), 20),
    "random_regular_graph d": (lambda x: random_regular_graph(20, x, 0), 3),
    "random_two_regular_digraph": (lambda x: random_two_regular_digraph(x, 0), 10),
    "cycle_graph": (graphs.cycle_graph, 5),
    "complete_graph": (graphs.complete_graph, 5),
    "blow_up": (lambda x: blow_up(graphs.cycle_graph(4), x), 2),
}


@pytest.mark.parametrize("name", sorted(SIZED_CALLS))
def test_generator_sizes_follow_the_integer_rule(name):
    # graphs._is_integer, as ConstructionParams: a bool, a float, even an
    # integral one, or a string is no size, and a numpy integer is stored
    # as an int (a layout's repr would show np.int64)
    make, size = SIZED_CALLS[name]
    for bad in (True, float(size), size + 0.5, str(size)):
        with pytest.raises(InputError):
            make(bad)
    got, want = make(np.int64(size)), make(size)
    assert got == want and repr(got) == repr(want)


# --- plain blow-up ----------------------------------------------------------------


def test_blow_up_k4():
    g, layout = blow_up(complete_graph(4), 2)
    assert g.n == 8
    assert g.degrees() == [6] * 8
    audit_blow_up(g, layout, expect_degree=6)


def test_blow_up_edge_gives_complete_bipartite():
    g, _ = blow_up(Graph(2, [(0, 1)]), 3)
    assert g.n == 6 and g.m == 9
    assert g.degrees() == [3] * 6
    left, right = set(range(3)), set(range(3, 6))
    for u, v in g.edges:
        assert (u in left) != (v in left)


def test_blow_up_regular_scaling():
    def petersen():
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        return Graph(10, outer + inner + [(i, i + 5) for i in range(5)])

    g, layout = blow_up(petersen(), 4)
    assert g.n == 40
    assert g.degrees() == [12] * 40
    assert all(layout.layer_of(v) == 1 for v in range(40))
    audit_blow_up(g, layout, expect_degree=12)


def test_layout_maps_roundtrip():
    layout = BlowUpLayout(n_super=5, layers=4, m=3)
    for v in range(layout.n_vertices):
        sv, layer, pos = layout.h_vertex_of(v), layout.layer_of(v), v % layout.m
        assert layout_id(layout, sv, layer, pos) == v


# --- circulant biregular ------------------------------------------------------------


def test_circulant_biregular_cases():
    e = circulant_biregular(5, 2)
    assert len(e) == 10
    from collections import Counter

    assert set(Counter(a for a, _ in e).values()) == {2}
    assert set(Counter(b for _, b in e).values()) == {2}
    assert len(circulant_biregular(4, 4)) == 16
    assert circulant_biregular(3, 1) == [(0, 0), (1, 1), (2, 2)]
    with pytest.raises(InputError):
        circulant_biregular(3, 4)


# --- gadget blow-up ------------------------------------------------------------------


def test_gadget_k12_s3():
    h = base_digraph_4()
    params = ConstructionParams.thm4(12, 3)
    g, layout = gadget_blow_up(h, params)
    assert g.n == 96  # n * (s+3) * (k/2 - k/2s)
    assert g.degrees() == [12] * 96
    assert layout.layers == 6 and layout.m == 4


def test_gadget_layer_one_degree_split():
    h = base_digraph_4()
    params = ConstructionParams.thm4(12, 3)
    g, layout = gadget_blow_up(h, params)
    v = layout_id(layout, 0, 1, 0)
    by_bucket = {}
    for w in g.adjacency()[v]:
        key = (layout.h_vertex_of(w), layout.layer_of(w))
        by_bucket[key] = by_bucket.get(key, 0) + 1
    assert by_bucket.pop((0, 2)) == 4  # m within the super-vertex
    # remaining k/2s-regular contributions arrive from one red in-arc source
    assert set(by_bucket.values()) == {2}
    assert len(by_bucket) == params.s + 1
    assert len({sv for sv, _ in by_bucket}) == 1


def test_gadget_is_deterministic():
    h = base_digraph_4()
    params = ConstructionParams.thm4(12, 3)
    assert gadget_blow_up(h, params)[0] == gadget_blow_up(h, params)[0]


def test_gadget_with_random_base():
    h = random_two_regular_digraph(6, 2)
    params = ConstructionParams.thm4(8, 2)
    g, layout = gadget_blow_up(h, params)
    assert g.n == 6 * 5 * 2
    assert g.degrees() == [8] * g.n
    audit_blow_up(g, layout, expect_degree=8)


def test_gadget_input_errors():
    h = base_digraph_4()
    with pytest.raises(InputError):
        gadget_blow_up(h, ConstructionParams.thm3(12, 0.05))
    plain = DiGraph(4, h.arcs)  # no colours
    with pytest.raises(InputError):
        gadget_blow_up(plain, ConstructionParams.thm4(12, 3))
    path = DiGraph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(InputError):
        gadget_blow_up(path, ConstructionParams.thm4(12, 3))


def test_blow_ups_reject_a_base_of_the_other_graph_type():
    # a blow-up reads a graph's edges, a gadget a digraph's coloured arcs
    with pytest.raises(InputError, match="blow_up needs a Graph, got a DiGraph"):
        blow_up(base_digraph_4(), 2)
    with pytest.raises(InputError, match="gadget_blow_up needs a DiGraph, got a Graph"):
        gadget_blow_up(complete_graph(4), ConstructionParams.thm4(12, 3))


def test_audit_catches_tampering():
    h = base_digraph_4()
    g, layout = gadget_blow_up(h, ConstructionParams.thm4(12, 3))
    tampered = g.with_edges(np.arange(g.m) < g.m - 1)
    with pytest.raises(ConstructionError):
        audit_blow_up(tampered, layout, expect_degree=12)
    bad_layout = BlowUpLayout(n_super=4, layers=6, m=5)
    with pytest.raises(ConstructionError):
        audit_blow_up(g, bad_layout, expect_degree=12)
