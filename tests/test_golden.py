"""Golden digests: the exact bytes of three verify suites' text and JSON
reports, and the package's public names. A change that moves a byte or a
name fails here on purpose; when the move is deliberate, update the pin
and give the reason in CHANGES.md. Last, the tests' one layout rule:
what test modules share lives in helpers.py."""

import ast
import hashlib
import json
import types
from pathlib import Path

import pytest

import randcol

# suite: (sha256 of format_text(), sha256 of the to_dict() JSON with the
# sorted keys and indent of `randcol verify --report`)
GOLDEN = {
    "alon_milman": (
        "9c57f025f2ae179479d58bc2fc51ceb8335e0b18b44b99e5b33ac09608e9aa03",
        "014611a38809421b97390e3d30987271b4598f981906fc5819b6c84430ce6815",
    ),
    "expansion": (
        "cab73aa5bd2b89eb78537a581cff08f894606daaf6fd0494896f1cfa2f120ee7",
        "4b9e3d86b5c47d64cb693c6cc1d31509e80c6b2d793919cf07068bd9ed377d25",
    ),
    "fixpoints": (
        "f039b0e9d05285210bed42e55542982d35ea893976c76bfb751ed9a053650100",
        "ec100644e3ea8a6b4a129b3cd27ec9386f680dac8700e4e3cde153b92aeb6ff8",
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_suite_bytes_are_pinned(name, suite_report):
    report = suite_report(name)
    text, payload = GOLDEN[name]
    artefacts = (
        ("format_text()", report.format_text(), text),
        ("to_dict() JSON", json.dumps(report.to_dict(), sort_keys=True, indent=2), payload),
    )
    for what, got, want in artefacts:
        assert sha256(got) == want, (
            f"the {name} suite's {what} changed bytes; if the move is deliberate, "
            f"update its digest here and give the reason in CHANGES.md"
        )


# every public name that `import randcol` binds, submodules aside
PUBLIC_NAMES = [
    "AlonMilmanReport", "BlowUpLayout", "BoundConstants", "BoundaryResilienceReport",
    "CapacityError", "ColouringResult", "ConstructionError", "ConstructionParams",
    "ConvergenceError", "DiGraph", "ExpansionCertificate",
    "ExperimentConfig", "ExperimentResult", "GenerationError", "Graph", "InputError",
    "PercolationState", "ProductColouringReport", "RandcolError", "RngStream", "SUITE_NAMES",
    "SuiteReport", "SuperVertexStatus", "TrialRecord", "TwoRoundSample",
    "alon_milman_lower_bound", "audit_blow_up", "binom_tail_geq", "blow_up",
    "bootstrap_percolate", "boundary_resilience_audit", "build_graph", "chromatic_number_exact",
    "classify_supervertices_thm3", "colouring_number", "complete_graph", "connected_component",
    "count_connected_edge_subgraphs_upto", "cycle_graph", "find_cubic_expander", "format_graph",
    "gadget_blow_up", "has_cycle_shorter_than", "is_connected", "is_strongly_connected",
    "load_config", "load_graph", "load_result", "parse_graph",
    "partition_split", "product_colouring_check", "proposition_lower_bound",
    "random_regular_graph", "random_two_regular_digraph", "reachable_set",
    "resilient_pair_detect", "resilient_pair_probability_bound", "run_experiment", "run_suite",
    "sample_subgraph", "save_graph", "second_eigenvalue", "second_round_rate",
    "t_core", "t_core_via_percolation", "thm3_fixpoint_violations",
    "thm3_process", "thm4_fixpoint_violations", "thm4_process", "two_round_sample",
    "verify_alon_milman", "verify_vertex_expansion", "vertex_boundary", "wilson_interval",
]


def test_public_names_are_pinned():
    public = sorted(name for name, value in vars(randcol).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert public == PUBLIC_NAMES, (
        "randcol's public names changed; if the change is deliberate, update PUBLIC_NAMES "
        "here and give the reason in CHANGES.md"
    )


def test_no_test_module_imports_another():
    here = Path(__file__).parent
    modules = {path.stem for path in here.glob("test_*.py")}
    found = []
    for path in sorted(here.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
                found += [f"{path.name}: {name}" for name in names if modules & set(name.split("."))]
    assert not found, f"import shared test code from helpers.py, not from a test module: {found}"
