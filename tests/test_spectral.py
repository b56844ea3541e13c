import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse.linalg

from randcol import spectral
from randcol.errors import ConvergenceError, InputError
from randcol.generators import random_regular_graph
from randcol.graphs import DiGraph, Graph, cycle_graph, vertex_boundary
from randcol.spectral import (
    DENSE_CAP,
    alon_milman_lower_bound,
    second_eigenvalue,
    verify_alon_milman,
    verify_vertex_expansion,
)

from helpers import circulant, complete_graph, petersen


def complete_digraph(n, shift=0):
    arcs = [(i + shift, j + shift) for i in range(n) for j in range(n) if i != j]
    return arcs


def circulant_digraph(n, offsets):
    return DiGraph(n, [(i, (i + off) % n) for i in range(n) for off in offsets])


# --- second eigenvalue -------------------------------------------------------


def test_known_spectra_dense():
    assert abs(second_eigenvalue(petersen()) - 1.0) < 1e-9
    assert abs(second_eigenvalue(circulant(6, [1])) - 1.0) < 1e-9
    assert abs(second_eigenvalue(complete_graph(4)) + 1.0) < 1e-9


def dense_lambda2(g):
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    return np.linalg.eigvalsh(a)[-2]


def test_eigsh_matches_dense_reference():
    for g in [
        Graph(2, [(0, 1)]),
        petersen(),
        circulant(6, [1]),
        complete_graph(4),
        complete_graph(12),
        circulant(60, [1, 2, 5]),
        circulant(200, [1, 2, 5]),
        random_regular_graph(300, 3, 1),
    ]:
        lam = second_eigenvalue(g)
        assert type(lam) is float and abs(lam - dense_lambda2(g)) < 1e-9, (g, lam)


def test_large_circulant_matches_closed_form():
    # eigenvalues of a circulant are sum_s 2 cos(2 pi j s / n), j = 0..n-1
    n, offsets = 2500, [1, 2, 5]
    j = np.arange(1, n)[:, None]
    want = (2 * np.cos(2 * np.pi * j * np.array(offsets) / n)).sum(axis=1).max()
    assert abs(second_eigenvalue(circulant(n, offsets)) - want) < 1e-9


def test_result_is_repeatable():
    g = random_regular_graph(500, 3, 2)
    assert second_eigenvalue(g) == second_eigenvalue(g)


def test_tiny_graphs_get_the_same_bits_back():
    # ARPACK's last bits varied between calls on graphs this small
    for g in [
        random_regular_graph(4, 2, 2),
        petersen(),
        complete_graph(4),
        circulant(DENSE_CAP, [1, 3]),
    ]:
        assert len({second_eigenvalue(g).hex() for _ in range(6)}) == 1


def test_no_convergence_raises(monkeypatch):
    def fail(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no luck", np.array([]), np.array([]))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fail)
    second_eigenvalue(circulant(DENSE_CAP, [1, 3]))  # a dense solve, no eigsh
    with pytest.raises(ConvergenceError, match="did not converge to 1e-09"):
        second_eigenvalue(circulant(DENSE_CAP + 1, [1, 3]))


def test_certificate_fields():
    # the result is lambda2 alone, a float below the degree, whose bits
    # are pinned: the Petersen graph's dense solve and a circulant's eigsh
    lam = second_eigenvalue(petersen())
    assert type(lam) is float and lam < 3
    assert lam.hex() == "0x1.0000000000005p+0"
    assert second_eigenvalue(circulant(60, [1, 2, 5])).hex() == "0x1.6b5a5abf2ad3ep+2"


def test_input_errors():
    with pytest.raises(InputError, match="not regular"):
        second_eigenvalue(Graph(3, [(0, 1)]))
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(InputError, match="connected"):
        second_eigenvalue(two_triangles)
    with pytest.raises(InputError, match="two vertices"):
        second_eigenvalue(Graph(1, []))


# --- spectral boundary bound ---------------------------------------------------


def test_lower_bound_arithmetic():
    assert alon_milman_lower_bound(3, -1.0, 1, 4) == pytest.approx(3.0)
    assert alon_milman_lower_bound(2, 1.0, 3, 6) == pytest.approx(1.5)
    assert alon_milman_lower_bound(3, 1.0, 0, 10) == 0.0
    with pytest.raises(InputError):
        alon_milman_lower_bound(3, 1.0, 11, 10)


def test_verify_exhaustive_small_graphs():
    for g in [complete_graph(4), circulant(6, [1]), petersen(), circulant(12, [1, 6])]:
        rep = verify_alon_milman(g)
        assert rep.mode == "exhaustive"
        assert rep.violations == ()
        assert rep.tightest_ratio >= 1 - 1e-6
        assert rep.n_checked == 2 ** g.n


def test_verify_k4_tight_at_singletons():
    rep = verify_alon_milman(complete_graph(4))
    assert rep.tightest_ratio == pytest.approx(1.0, abs=1e-6)
    assert len(rep.witness) in (1, 3)  # bound symmetric in S vs complement


def test_verify_sampled_mode(monkeypatch):
    monkeypatch.setattr(spectral, "DEFAULT_SUBSET_SAMPLES", 500)
    g = circulant(24, [1, 3])  # above spectral.EXHAUSTIVE_CAP
    rep = verify_alon_milman(g)
    assert rep.mode == "sampled"
    assert rep.n_checked == 500
    assert rep.violations == ()
    assert rep.tightest_ratio >= 1 - 1e-6


def test_verify_rejects_irregular():
    with pytest.raises(InputError):
        verify_alon_milman(Graph(3, [(0, 1)]))


# --- directed vertex expansion --------------------------------------------------


def test_expansion_rejects_one_regular():
    with pytest.raises(InputError):
        verify_vertex_expansion(circulant_digraph(6, [1]))


def test_expansion_complete_triangle():
    h = DiGraph(3, complete_digraph(3))
    cert = verify_vertex_expansion(h)
    assert cert.mode == "exhaustive"
    assert cert.c3_hat == pytest.approx(1.0)


def test_expansion_disconnected_halves():
    arcs = complete_digraph(3) + complete_digraph(3, shift=3)
    cert = verify_vertex_expansion(DiGraph(6, arcs))
    assert cert.c3_hat == 0.0
    assert len(cert.witness) == 3
    assert not vertex_boundary(DiGraph(6, arcs), np.isin(np.arange(6), cert.witness)).any()


def test_expansion_strongly_connected_positive():
    h = circulant_digraph(12, [1, 3])
    cert = verify_vertex_expansion(h)
    assert cert.mode == "exhaustive"
    assert cert.c3_hat > 0
    w = cert.witness
    boundary = vertex_boundary(h, np.isin(np.arange(h.n), w))
    assert boundary.sum() / min(len(w), h.n - len(w)) == cert.c3_hat


def test_expansion_sampled_mode():
    h = circulant_digraph(24, [1, 5])
    cert = verify_vertex_expansion(h, samples=400)
    assert cert.mode == "sampled"
    assert cert.c3_hat > 0
    w = cert.witness
    boundary = vertex_boundary(h, np.isin(np.arange(h.n), w))
    assert boundary.sum() / min(len(w), h.n - len(w)) == cert.c3_hat


def test_import_does_not_load_scipy_sparse():
    code = "import sys, randcol; print(any(m.startswith('scipy.sparse') for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"


def test_a_dense_solve_loads_no_sparse_scipy():
    # a graph of at most DENSE_CAP vertices gets numpy's dense solve, past which scipy loads
    code = ("import sys; from randcol import cycle_graph, second_eigenvalue\n"
            f"print(second_eigenvalue(cycle_graph({DENSE_CAP})), 'scipy.sparse.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.split() == [repr(second_eigenvalue(cycle_graph(DENSE_CAP))), "False"]
