"""The benchmark's traced run wraps randcol functions and methods by
name (perfbench/tracing.py). A renamed or moved name would not fail that
run; its metrics would just read 0. So every name it wraps must exist,
and every hook that reads a wrapped call's arguments or return value
must be able to read them."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from randcol.graphs import Graph
from randcol.percolation import thm3_process
from randcol.sampling import RngStream

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist(tracing):
    assert tracing.FUNCTIONS
    for module, attr, _span in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_traced_methods_exist(tracing):
    assert tracing.METHODS
    for module, cls_name, attr, _span in tracing.METHODS:
        cls = getattr(importlib.import_module(module), cls_name, None)
        assert isinstance(cls, type), f"{module}.{cls_name}"
        assert callable(vars(cls).get(attr)), f"{module}.{cls_name}.{attr}"


def test_request_bindings_exist(tracing):
    # A sample or trial request starts where these modules call the name,
    # and install() wraps a binding only if it is the traced function.
    home = {attr: module for module, attr, _span in tracing.FUNCTIONS}
    for module, attr in tracing._REQUEST_BINDINGS:
        bound = getattr(importlib.import_module(module), attr, None)
        assert bound is getattr(importlib.import_module(home[attr]), attr), f"{module}.{attr}"


def test_after_hooks_read_real_calls(tracing):
    # each hook, run through the wrapper install() would use, on one call
    tracer = tracing.Tracer()
    hooks = tracing._after_hooks(tracer)
    assert set(hooks) == {"sampling.uniform_at", "graphs.Graph", "percolation.thm3_process"}
    wrapped = {name: tracing._wrap(tracer, name, fn, hooks[name]) for name, fn in (
        ("sampling.uniform_at", RngStream.uniform_at),
        ("graphs.Graph", Graph.__init__),
        ("percolation.thm3_process", thm3_process),
    )}
    wrapped["sampling.uniform_at"](RngStream(1), np.arange(5))
    path = Graph.__new__(Graph)
    wrapped["graphs.Graph"](path, 4, [(0, 1), (1, 2), (2, 3)])
    state = wrapped["percolation.thm3_process"](path, 0.0, 0, RngStream(2))
    assert state.round_trace == (1, 1, 1, 1)
    assert tracer.counters == {
        "sampling.uniforms.drawn": 5,
        "graphs.Graph.edges": 3,
        "percolation.thm3_process.rounds": 4,
    }
