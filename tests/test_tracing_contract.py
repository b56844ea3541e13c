"""The benchmark's traced run wraps randcol functions and methods by
name (perfbench/tracing.py). A renamed or moved name would not fail that
run; its metrics would just read 0. So every name it wraps must exist,
and every hook that reads a wrapped call's arguments or return value
must be able to read them."""

import importlib
import importlib.util
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from randcol.graphs import Graph
from randcol.harness import ExperimentConfig
from randcol.percolation import thm3_process
from randcol.sampling import RngStream, _below

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


@pytest.fixture
def installed(tracing, monkeypatch):
    """A tracer that install() has wrapped randcol with, undone after the
    test: monkeypatch records every binding install() will replace."""
    traced = {attr for _module, attr, _span in tracing.FUNCTIONS}
    for name, module in list(sys.modules.items()):
        if name == "randcol" or name.startswith("randcol."):
            for attr in traced & set(vars(module)):
                monkeypatch.setattr(module, attr, vars(module)[attr])
    for module, cls_name, attr, _span in tracing.METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        monkeypatch.setattr(cls, attr, vars(cls)[attr])
    tracer = tracing.Tracer()
    tracing.install(tracer)
    return tracer


def test_every_draw_is_counted(installed):
    # a draw that skips uniform_at would read 0 in the traced benchmark
    from randcol import sampling

    drawn = lambda: installed.counters["sampling.uniforms.drawn"]
    g = Graph(8, [(i, i + 1) for i in range(7)])
    sampling.two_round_sample(g, Fraction(1, 30), RngStream(3).child(0))
    assert drawn() == 2 * g.m
    RngStream(4).uniforms(11)
    assert drawn() == 2 * g.m + 11
    sampling.sample_subgraph(g, 0.5, RngStream(5))
    assert drawn() == 3 * g.m + 11
    # a draw of words, compared later, is counted all the same
    hits = _below(RngStream(6).uniforms(13, "a", "b", words=True), 0.25)
    assert hits.dtype == bool and drawn() == 3 * g.m + 11 + 26
    calls = {installed.names[i] for i in installed.name}
    assert {"sampling.two_round_sample", "sampling.uniform_at"} <= calls


def test_core_death_trials_are_seen_by_every_layer_metric(installed):
    # core_death's path, three two-round trials on the K4 blow-up: each
    # per-layer metric the benchmark reads for it must see every trial
    from randcol import harness

    config = ExperimentConfig(
        kind="core_emptiness", trials=3, master_seed=0xDE5C, t=2, first_rate="1/30",
        graph={"kind": "blow_up", "m": 2, "base": {"kind": "complete", "n": 4}})
    g, layout = harness.build_graph(config.graph)
    assert layout is not None and g.m == 24
    start = len(installed.name)
    before = installed.counters["sampling.uniforms.drawn"]
    for i in range(3):
        record = harness.run_trial(config, i)
        assert record.error is None
    calls = Counter(installed.names[i] for i in installed.name[start:])
    assert calls["colouring.t_core"] == 3
    assert calls["sampling.two_round_sample"] == 3
    assert calls["sampling.survivors"] == 3
    assert calls["harness.run_trial"] == 3
    assert installed.counters["sampling.uniforms.drawn"] - before == 3 * 2 * g.m
