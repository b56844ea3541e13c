"""The graph-type rule (graphs._expect) at every public entry point that
takes one graph type: a graph of the other type is an InputError, never
an AttributeError or an answer for the wrong type."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import randcol
from randcol import (
    BlowUpLayout,
    ConstructionParams,
    DiGraph,
    Graph,
    InputError,
    PercolationState,
    RngStream,
)

LAYOUT = BlowUpLayout(n_super=4, layers=1, m=1)
GADGET = ConstructionParams.thm4(4, 2)
NONE = np.zeros(4, dtype=bool)

# the rest of a call of each entry point, given its first argument
CALLS = {
    "audit_blow_up": lambda g: randcol.audit_blow_up(g, LAYOUT, 2),
    "blow_up": lambda g: randcol.blow_up(g, 2),
    "bootstrap_percolate": lambda g: randcol.bootstrap_percolate(g, NONE, [1] * 4),
    "boundary_resilience_audit": lambda h: randcol.boundary_resilience_audit(
        h, LAYOUT, GADGET, Graph(4, []), Graph(4, []), 0),
    "chromatic_number_exact": lambda g: randcol.chromatic_number_exact(g),
    "classify_supervertices_thm3": lambda g: randcol.classify_supervertices_thm3(g, LAYOUT, 2),
    "colouring_number": lambda g: randcol.colouring_number(g),
    "connected_component": lambda g: randcol.connected_component(g, 0),
    "count_connected_edge_subgraphs_upto":
        lambda g: randcol.count_connected_edge_subgraphs_upto(g, 0, 2),
    "gadget_blow_up": lambda h: randcol.gadget_blow_up(h, GADGET),
    "has_cycle_shorter_than": lambda g: randcol.has_cycle_shorter_than(g, 5),
    "is_connected": lambda g: randcol.is_connected(g),
    "is_strongly_connected": lambda h: randcol.is_strongly_connected(h),
    "partition_split": lambda g: randcol.partition_split(g, 2, RngStream(0)),
    "product_colouring_check": lambda g: randcol.product_colouring_check(g, [g]),
    "reachable_set": lambda h: randcol.reachable_set(h, 0),
    "resilient_pair_detect": lambda g: randcol.resilient_pair_detect(g, LAYOUT, GADGET),
    "sample_subgraph": lambda g: randcol.sample_subgraph(g, 0.5, RngStream(0)),
    "second_eigenvalue": lambda g: randcol.second_eigenvalue(g),
    "t_core": lambda g: randcol.t_core(g, 2),
    "t_core_via_percolation": lambda g: randcol.t_core_via_percolation(g, 2),
    "thm3_fixpoint_violations": lambda h: randcol.thm3_fixpoint_violations(
        h, PercolationState(NONE, (0,))),
    "thm3_process": lambda h: randcol.thm3_process(h, 0.5, 0, RngStream(0)),
    "thm4_fixpoint_violations": lambda h: randcol.thm4_fixpoint_violations(
        h, PercolationState(NONE, (0,))),
    "thm4_process": lambda h: randcol.thm4_process(h, 0.5, 0, RngStream(0)),
    "two_round_sample": lambda g: randcol.two_round_sample(g, "1/9", RngStream(0)),
    "verify_alon_milman": lambda g: randcol.verify_alon_milman(g),
    "verify_vertex_expansion": lambda h: randcol.verify_vertex_expansion(h),
}

# a graph of each type on four vertices, 2-regular both ways
OF_TYPE = {
    "Graph": Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "DiGraph": DiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3), (2, 0), (3, 1)]),
}


def taken_type(fn) -> str | None:
    """The annotation of fn's first parameter, when it names one graph type."""
    params = list(inspect.signature(fn).parameters.values())
    annotation = params[0].annotation if params else None
    return annotation if annotation in OF_TYPE else None


def single_type_entry_points() -> dict:
    found = {}
    for info in pkgutil.iter_modules(randcol.__path__):
        module = importlib.import_module(f"randcol.{info.name}")
        for name, fn in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__ and taken_type(fn)):
                found[name] = fn
    return found


@pytest.mark.parametrize("name", sorted(CALLS))
def test_the_other_graph_type_is_an_input_error(name):
    want = taken_type(getattr(randcol, name))
    (other,) = set(OF_TYPE) - {want}
    with pytest.raises(InputError, match=f"^{name} needs a {want}, got a {other}$"):
        CALLS[name](OF_TYPE[other])


def test_every_single_type_entry_point_is_in_the_table():
    found = single_type_entry_points()
    assert sorted(found) == sorted(CALLS)
    # each checks the type itself, not only through a callee that may change
    assert [name for name, fn in found.items() if "_expect" not in fn.__code__.co_names] == []
