"""The integer rule (graphs._integer) at every public entry point that
takes an integer: a bool, a float, even an integral one, or a string is
no integer, and neither is a value below the parameter's bound. Each is
an InputError, never a TypeError or an answer. Arrays that hold numbers
take numbers only."""

import inspect
from dataclasses import replace

import numpy as np
import pytest

import randcol
from randcol import (
    BlowUpLayout,
    ConstructionParams,
    DiGraph,
    ExperimentConfig,
    Graph,
    InputError,
    RngStream,
)
from randcol.bounds import near_disjoint_family

G = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
H = DiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3), (2, 0), (3, 1)])
LAYOUT = BlowUpLayout(n_super=4, layers=1, m=1)
GADGET = ConstructionParams.thm4(4, 2)
CORE = ExperimentConfig("core_emptiness", 1, 0, graph={"kind": "complete", "n": 4}, p=0.5, t=2)
PROPOSITION = ExperimentConfig("proposition_check", 1, 0, graph={"kind": "cycle", "n": 4},
                               p=0.5, k=3)
PRODUCT = ExperimentConfig("product_colouring", 1, 0, graph={"kind": "cycle", "n": 4})
SWEEP = ExperimentConfig("thm3_sweep", 1, 0, graph={"kind": "cycle", "n": 4}, p_sweep=(0.5,))

# "entry point parameter": (the call with that integer, the least value it takes,
# None when it takes every integer)
CALLS = {
    "BlowUpLayout layers": (lambda x: BlowUpLayout(4, x, 1), 1),
    "BlowUpLayout m": (lambda x: BlowUpLayout(4, 1, x), 1),
    "BlowUpLayout n_super": (lambda x: BlowUpLayout(x, 1, 1), 0),
    "ConstructionParams k": (lambda x: ConstructionParams("expander-blowup", x, 4, 4), None),
    "ConstructionParams m": (lambda x: ConstructionParams("expander-blowup", 12, 4, x), None),
    "ConstructionParams s": (lambda x: ConstructionParams("gadget", 12, 11, 4, s=x), 2),
    "ConstructionParams t": (lambda x: ConstructionParams("expander-blowup", 12, x, 4), None),
    "DiGraph n": (lambda x: DiGraph(x, []), 0),
    "ExperimentConfig budget": (lambda x: replace(PROPOSITION, budget=x), 1),
    "ExperimentConfig k": (lambda x: replace(PROPOSITION, k=x), 2),
    "ExperimentConfig master_seed": (lambda x: replace(CORE, master_seed=x), 0),
    "ExperimentConfig parts": (lambda x: replace(PRODUCT, parts=x), 2),
    "ExperimentConfig root": (lambda x: replace(SWEEP, root=x), 0),
    "ExperimentConfig t": (lambda x: replace(CORE, t=x), 0),
    "ExperimentConfig trials": (lambda x: replace(CORE, trials=x), 1),
    "Graph n": (lambda x: Graph(x, []), 0),
    "RngStream master_seed": (lambda x: RngStream(x), None),
    "alon_milman_lower_bound d": (lambda x: randcol.alon_milman_lower_bound(x, 1.0, 1, 4), 0),
    "alon_milman_lower_bound n": (lambda x: randcol.alon_milman_lower_bound(3, 1.0, 0, x), 0),
    "audit_blow_up expect_degree": (lambda x: randcol.audit_blow_up(G, LAYOUT, x), 0),
    "binom_tail_geq n": (lambda x: randcol.binom_tail_geq(x, 0.5, 0), 0),
    "blow_up m": (lambda x: randcol.blow_up(G, x), 1),
    "boundary_resilience_audit root": (lambda x: randcol.boundary_resilience_audit(
        H, LAYOUT, GADGET, Graph(4, []), Graph(4, []), x), 0),
    "chromatic_number_exact budget": (lambda x: randcol.chromatic_number_exact(G, budget=x), 1),
    "chromatic_number_exact n_cap": (lambda x: randcol.chromatic_number_exact(G, n_cap=x), 0),
    "classify_supervertices_thm3 root": (lambda x: randcol.classify_supervertices_thm3(
        G, LAYOUT, 2, root=x, h=G), 0),
    "classify_supervertices_thm3 t": (lambda x: randcol.classify_supervertices_thm3(
        G, LAYOUT, x), 0),
    "complete_graph n": (randcol.complete_graph, 0),
    "connected_component v": (lambda x: randcol.connected_component(G, x), 0),
    "count_connected_edge_subgraphs_upto t_max":
        (lambda x: randcol.count_connected_edge_subgraphs_upto(G, 0, x), 1),
    "count_connected_edge_subgraphs_upto v":
        (lambda x: randcol.count_connected_edge_subgraphs_upto(G, x, 2), 0),
    "cycle_graph n": (randcol.cycle_graph, 3),
    "find_cubic_expander girth_min": (lambda x: randcol.find_cubic_expander(
        12, 1, lambda2_max=2.95, girth_min=x), None),
    "find_cubic_expander n": (lambda x: randcol.find_cubic_expander(x, 1, lambda2_max=3), 4),
    "has_cycle_shorter_than length": (lambda x: randcol.has_cycle_shorter_than(G, x), None),
    "near_disjoint_family block_size": (lambda x: near_disjoint_family(9, x), 1),
    "near_disjoint_family k": (lambda x: near_disjoint_family(x, 1), 0),
    "partition_split parts": (lambda x: randcol.partition_split(G, x, RngStream(0)), 1),
    "product_colouring_check budget": (lambda x: randcol.product_colouring_check(
        G, [G], budget=x), 1),
    "proposition_lower_bound k": (lambda x: randcol.proposition_lower_bound(0.5, x, 10), 2),
    "proposition_lower_bound n": (lambda x: randcol.proposition_lower_bound(0.5, 10, x), 2),
    "random_regular_graph d": (lambda x: randcol.random_regular_graph(6, x, 0), 0),
    "random_regular_graph n": (lambda x: randcol.random_regular_graph(x, 0, 0), 1),
    "random_two_regular_digraph n": (lambda x: randcol.random_two_regular_digraph(x, 0), 3),
    "reachable_set r": (lambda x: randcol.reachable_set(H, x), 0),
    "resilient_pair_probability_bound k":
        (lambda x: randcol.resilient_pair_probability_bound(x, 3), 1),
    "resilient_pair_probability_bound s":
        (lambda x: randcol.resilient_pair_probability_bound(12, x), 2),
    "t_core t": (lambda x: randcol.t_core(G, x), 0),
    "t_core_via_percolation t": (lambda x: randcol.t_core_via_percolation(G, x), 0),
    "thm3_process r": (lambda x: randcol.thm3_process(G, 0.5, x, RngStream(0)), 0),
    "thm4_process r": (lambda x: randcol.thm4_process(H, 0.5, x, RngStream(0)), 0),
    "verify_vertex_expansion exhaustive_cap":
        (lambda x: randcol.verify_vertex_expansion(H, exhaustive_cap=x), 0),
    "verify_vertex_expansion samples":
        (lambda x: randcol.verify_vertex_expansion(H, samples=x), 1),
    "wilson_interval successes": (lambda x: randcol.wilson_interval(x, 10), 0),
    "wilson_interval trials": (lambda x: randcol.wilson_interval(0, x), 0),
}

# records the package fills in itself, so a caller never passes them an input
RECORDS = {"AlonMilmanReport", "ColouringResult", "ProductColouringReport", "TrialRecord"}


def integer_parameters() -> set:
    """"name parameter" for each parameter annotated int (or int | None)
    of a public randcol function or class."""
    found = set()
    for name, obj in vars(randcol).items():
        if (name.startswith("_") or not callable(obj)
                or isinstance(obj, type) and issubclass(obj, Exception)):
            continue
        for param in inspect.signature(obj).parameters.values():
            if "int" in str(param.annotation).split(" | "):
                found.add(f"{name} {param.name}")
    return found


@pytest.mark.parametrize("case", sorted(CALLS))
def test_a_non_integer_or_a_value_below_the_bound_is_an_input_error(case):
    call, low = CALLS[case]
    for bad in (True, 2.5, "2") + (() if low is None else (low - 1,)):
        with pytest.raises(InputError):
            call(bad)


def test_every_integer_parameter_is_in_the_table():
    found = integer_parameters()
    assert RECORDS <= {case.split()[0] for case in found}  # no stale record
    assert sorted(case for case in found - set(CALLS) if case.split()[0] not in RECORDS) == []


@pytest.mark.parametrize("call", [
    lambda x: randcol.bootstrap_percolate(G, np.zeros(4, dtype=bool), [x] * 4),
    lambda x: randcol.alon_milman_lower_bound(3, 1.0, x, 4),
    lambda x: randcol.alon_milman_lower_bound(3, 1.0, np.array([x] * 2), 4),
    lambda x: randcol.alon_milman_lower_bound(3, 1.0, [x] * 2, 4),
    lambda x: randcol.alon_milman_lower_bound(3, 1.0, (x,) * 2, 4),
], ids=["bootstrap_percolate threshold_of", "alon_milman_lower_bound s_size",
        "alon_milman_lower_bound s_size array", "alon_milman_lower_bound s_size list",
        "alon_milman_lower_bound s_size tuple"])
@pytest.mark.parametrize("bad", [True, "1", "x"])
def test_number_arrays_take_numbers_only(call, bad):
    # a bool or a string entry is no number, as a float one is
    with pytest.raises(InputError, match="must be numbers"):
        call(bad)


@pytest.mark.parametrize("sizes", [[1, 2], (1, 2)], ids=["list", "tuple"])
def test_subset_sizes_take_a_list_or_a_tuple_as_an_array(sizes):
    want = randcol.alon_milman_lower_bound(3, 1.0, np.array(sizes), 4)
    assert np.array_equal(randcol.alon_milman_lower_bound(3, 1.0, sizes, 4), want)
    with pytest.raises(InputError, match="outside 0..4"):
        randcol.alon_milman_lower_bound(3, 1.0, type(sizes)([1, 5]), 4)
    assert type(randcol.alon_milman_lower_bound(3, 1.0, sizes[0], 4)) is float


@pytest.mark.parametrize("parts", ["ab", [H]], ids=["str", "digraph"])
def test_product_parts_take_the_graph_type_rule(parts):
    with pytest.raises(InputError, match="^product_colouring_check needs a Graph, got a "):
        randcol.product_colouring_check(Graph(4, [(0, 1)]), parts)
