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
    format_layout,
    gadget_blow_up,
    parse_layout,
    random_regular_graph,
    random_two_regular_digraph,
)
from randcol.graphs import (
    DiGraph,
    Graph,
    connected_component,
    has_cycle_shorter_than,
    is_connected,
)
from randcol.sampling import RngStream


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def base_digraph_4():
    arcs = [(i, (i + 1) % 4) for i in range(4)] + [(i, (i + 2) % 4) for i in range(4)]
    colours = ["r"] * 4 + ["b"] * 4
    return DiGraph(4, arcs, arc_colour=colours)


# --- random regular -----------------------------------------------------------


def test_k4_is_forced():
    assert random_regular_graph(4, 3, 0) == complete_graph(4)


def test_two_regular_is_cycle_cover():
    g = random_regular_graph(6, 2, 1)
    assert g.degrees() == [2] * 6
    seen = set()
    while len(seen) < 6:
        v = min(set(range(6)) - seen)
        comp = connected_component(g, v)
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
    g, cert = find_cubic_expander(14, 7, lambda2_max=2.95, girth_min=4)
    assert g.degrees() == [3] * 14
    assert is_connected(g)
    assert not has_cycle_shorter_than(g, 4)
    assert cert.lambda2 <= 2.95
    assert cert.girth_checked == 4
    g2, _ = find_cubic_expander(14, 7, lambda2_max=2.95, girth_min=4)
    assert g == g2


def test_find_cubic_expander_no_girth_filter():
    g, cert = find_cubic_expander(12, 1, lambda2_max=2.95, girth_min=None)
    assert g.degrees() == [3] * 12
    assert cert.girth_checked is None


def test_find_cubic_expander_exhausts():
    with pytest.raises(GenerationError):
        find_cubic_expander(12, 0, lambda2_max=-4.0, girth_min=None, max_tries=5)


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
        sv, layer, pos = layout.h_vertex_of(v), layout.layer_of(v), layout.position_of(v)
        assert layout.vertex_id(sv, layer, pos) == v
    with pytest.raises(InputError):
        layout.vertex_id(0, 0, 0)
    with pytest.raises(InputError):
        layout.vertex_id(5, 1, 0)


def test_layout_sidecar_roundtrip(tmp_path):
    layout = BlowUpLayout(n_super=3, layers=6, m=4)
    assert parse_layout(format_layout(layout)) == layout
    from randcol.generators import load_layout, save_layout

    p = tmp_path / "layout.txt"
    save_layout(layout, p)
    assert load_layout(p) == layout
    with pytest.raises(InputError):
        parse_layout("0 0 1 0\n2 0 1 1\n")


def test_layout_rejects_non_integer_token():
    with pytest.raises(InputError, match="non-integer token in layout line '0 x 1 0'"):
        parse_layout("0 0 1 0\n0 x 1 0\n")


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
    v = layout.vertex_id(0, 1, 0)
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


def test_audit_catches_tampering():
    h = base_digraph_4()
    g, layout = gadget_blow_up(h, ConstructionParams.thm4(12, 3))
    tampered = g.with_edges(np.arange(g.m) < g.m - 1)
    with pytest.raises(ConstructionError):
        audit_blow_up(tampered, layout, expect_degree=12)
    bad_layout = BlowUpLayout(n_super=4, layers=6, m=5)
    with pytest.raises(ConstructionError):
        audit_blow_up(g, bad_layout, expect_degree=12)
