"""Colouring behaviour of random subgraphs: generators, cores, exact
chromatic numbers, bootstrap-style deletion processes and a reproducible
experiment harness."""

from .bounds import (
    BoundConstants,
    binom_tail_geq,
    proposition_lower_bound,
    resilient_pair_probability_bound,
)
from .colouring import (
    ColouringResult,
    ProductColouringReport,
    chromatic_number_exact,
    colouring_number,
    product_colouring_check,
    t_core,
)
from .errors import (
    CapacityError,
    ConstructionError,
    ConvergenceError,
    GenerationError,
    InputError,
    RandcolError,
)
from .generators import (
    BlowUpLayout,
    ConstructionParams,
    audit_blow_up,
    blow_up,
    find_cubic_expander,
    gadget_blow_up,
    random_regular_graph,
    random_two_regular_digraph,
)
from .graphs import (
    DiGraph,
    Graph,
    complete_graph,
    connected_component,
    count_connected_edge_subgraphs_upto,
    cycle_graph,
    has_cycle_shorter_than,
    is_connected,
    is_strongly_connected,
    load_graph,
    parse_graph,
    format_graph,
    reachable_set,
    save_graph,
    vertex_boundary,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    TrialRecord,
    build_graph,
    load_config,
    load_result,
    run_experiment,
    wilson_interval,
)
from .percolation import (
    BoundaryResilienceReport,
    PercolationState,
    SuperVertexStatus,
    bootstrap_percolate,
    boundary_resilience_audit,
    classify_supervertices_thm3,
    resilient_pair_detect,
    t_core_via_percolation,
    thm3_fixpoint_violations,
    thm3_process,
    thm4_fixpoint_violations,
    thm4_process,
)
from .sampling import (
    RngStream,
    TwoRoundSample,
    partition_split,
    sample_subgraph,
    second_round_rate,
    two_round_sample,
)
from .spectral import (
    AlonMilmanReport,
    ExpansionCertificate,
    alon_milman_lower_bound,
    second_eigenvalue,
    verify_alon_milman,
    verify_vertex_expansion,
)
from .verify import SUITE_NAMES, SuiteReport, run_suite

__version__ = "0.1.0"
