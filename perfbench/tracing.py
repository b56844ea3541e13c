"""Spans around the calls into randcol's layers, recorded from outside.

install() wraps each traced function at every module attribute that
binds it (``from .x import y`` binds y separately in each importing
module, and callers look the name up there), and wraps the traced
methods on their classes. A span holds its name, start, end, parent
span and request id (the trial index); spans stay in flat arrays until
summarize() turns them into per-layer metrics. Self time ("busy_s") is a
span's duration minus the durations of its direct children, so the self
times of all spans under a root add up to the root's duration.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, function, span name). The span name's first part is the layer.
FUNCTIONS = (
    ("randcol.sampling", "two_round_sample", "sampling.two_round_sample"),
    ("randcol.sampling", "sample_subgraph", "sampling.sample_subgraph"),
    ("randcol.graphs", "connected_component", "graphs.connected_component"),
    ("randcol.colouring", "t_core", "colouring.t_core"),
    ("randcol.percolation", "thm3_process", "percolation.thm3_process"),
    ("randcol.percolation", "bootstrap_percolate", "percolation.bootstrap_percolate"),
    ("randcol.percolation", "thm3_fixpoint_violations", "percolation.thm3_fixpoint_violations"),
    ("randcol.percolation", "classify_supervertices_thm3", "percolation.classify_supervertices_thm3"),
    ("randcol.generators", "random_regular_graph", "generators.random_regular_graph"),
    ("randcol.generators", "find_cubic_expander", "generators.find_cubic_expander"),
    ("randcol.generators", "blow_up", "generators.blow_up"),
    ("randcol.spectral", "second_eigenvalue", "spectral.second_eigenvalue"),
    ("randcol.harness", "build_graph", "harness.build_graph"),
    ("randcol.harness", "run_trial", "harness.run_trial"),
    ("randcol.harness", "run_experiment", "harness.run_experiment"),
    ("randcol.verify", "run_suite", "verify.run_suite"),
)

# (module, class, method, span name)
METHODS = (
    ("randcol.sampling", "RngStream", "key", "sampling.key"),
    ("randcol.sampling", "RngStream", "uniform_at", "sampling.uniform_at"),
    ("randcol.sampling", "RngStream", "generator", "sampling.generator"),
    ("randcol.sampling", "TwoRoundSample", "survivors", "sampling.survivors"),
    ("randcol.graphs", "Graph", "__init__", "graphs.Graph"),
)

LAYERS = ("sampling", "graphs", "colouring", "percolation", "generators", "spectral",
          "harness", "verify")
# Layers with work in the timed phase of some workload; generators and
# spectral run only in set-up, where their function metrics show them.
TIMED_LAYERS = ("sampling", "graphs", "colouring", "percolation", "harness", "verify")

GENERATOR_FUNCS = ("generators.random_regular_graph",)

# Per-layer metrics reported by every traced run, in this order.
BUSY = (
    "sampling.two_round_sample", "sampling.survivors", "sampling.sample_subgraph",
    "sampling.key", "graphs.Graph", "graphs.connected_component", "colouring.t_core",
    "percolation.thm3_process", "percolation.bootstrap_percolate",
    "percolation.thm3_fixpoint_violations", "percolation.classify_supervertices_thm3",
    "generators.find_cubic_expander", "generators.blow_up", "spectral.second_eigenvalue",
    "harness.build_graph", "harness.run_trial", "harness.run_experiment", "verify.run_suite",
)
CALLS = (
    "sampling.two_round_sample", "sampling.survivors", "sampling.sample_subgraph",
    "sampling.key", "graphs.Graph", "colouring.t_core", "percolation.thm3_process",
    "generators.random_regular_graph", "spectral.second_eigenvalue", "harness.build_graph",
)
COUNTERS = ("sampling.uniforms.drawn", "graphs.Graph.edges", "percolation.thm3_process.rounds")


class Tracer:
    """Spans in flat arrays, opened and closed in strict nesting order."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.stack: list = []
        self.request_id = -1
        self.next_request = 0
        self.trial_base = 0
        self.counters = dict.fromkeys(COUNTERS, 0)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.request.append(self.request_id)
        self.raised.append(0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def new_request(self) -> int:
        self.request_id = self.next_request
        self.next_request += 1
        return self.request_id

    @contextmanager
    def span(self, name: str):
        """The benchmark's own root spans; yields the span's index."""
        i = self.open(self.name_id(name))
        try:
            yield i
        finally:
            self.close(i)


def _after_hooks(tracer: Tracer) -> dict:
    c = tracer.counters

    def drawn(args, out):
        c["sampling.uniforms.drawn"] += out.size

    def edges(args, out):
        c["graphs.Graph.edges"] += len(args[0].edges)

    def rounds(key):
        def hook(args, out):
            c[key] += len(out.round_trace)
        return hook

    return {
        "sampling.uniform_at": drawn,
        "graphs.Graph": edges,
        "percolation.thm3_process": rounds("percolation.thm3_process.rounds"),
    }


def _wrap(tracer: Tracer, name: str, fn, after=None, request=None):
    """request: None, or "trial" (run_trial: request = trial index, ended
    with the call) or "sample" (a suite's sampling call: a new request
    that lasts until the next one, so it covers the survivors() call
    that follows it)."""
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if request == "trial":
            tracer.request_id = tracer.trial_base + args[1]
        elif request == "sample":
            tracer.new_request()
        i = tracer.open(nid)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tracer.raised[i] = 1
            raise
        finally:
            tracer.close(i)
            if request == "trial":
                tracer.request_id = -1
        if after is not None:
            after(args, out)
        return out

    return wrapper


# Bindings whose calls start a new request.
_REQUEST_BINDINGS = {
    ("randcol.harness", "run_trial"): "trial",
    ("randcol.verify", "two_round_sample"): "sample",
    ("randcol.verify", "sample_subgraph"): "sample",
}


def install(tracer: Tracer) -> int:
    """Wrap every traced function and method; returns the number of
    bindings replaced. Call once per process, after importing randcol."""
    hooks = _after_hooks(tracer)
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "randcol" or name.startswith("randcol.")}
    replaced = 0
    for home, attr, name in FUNCTIONS:
        original = getattr(modules[home], attr)
        plain = None
        for mod_name, mod in modules.items():
            if vars(mod).get(attr) is not original:
                continue
            request = _REQUEST_BINDINGS.get((mod_name, attr))
            if request is None:
                plain = plain or _wrap(tracer, name, original, hooks.get(name))
                wrapper = plain
            else:
                wrapper = _wrap(tracer, name, original, hooks.get(name), request)
            setattr(mod, attr, wrapper)
            replaced += 1
    for home, cls_name, attr, name in METHODS:
        cls = getattr(modules[home], cls_name)
        setattr(cls, attr, _wrap(tracer, name, getattr(cls, attr), hooks.get(name)))
        replaced += 1
    return replaced


def summarize(tracer: Tracer, timed_root: int) -> tuple:
    """Per-layer metrics from the recorded spans, as {name: (value, unit)},
    and the self time of every layer in the timed phase, summed.

    Function metrics cover the whole traced process (set-up included, so
    that generator and eigensolver work in set-up shows); the layer totals
    and the benchmark's own self time cover the timed phase only, whose
    spans are the ones recorded after its root span opened.
    """
    if tracer.stack:
        raise RuntimeError(f"{len(tracer.stack)} spans still open")
    n = len(tracer.name)
    names = np.frombuffer(tracer.name, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    start = np.frombuffer(tracer.start, dtype=np.float64)
    end = np.frombuffer(tracer.end, dtype=np.float64)
    raised = np.frombuffer(tracer.raised, dtype=np.int8)
    dur = end - start
    child = parent >= 0
    child_time = np.bincount(parent[child], weights=dur[child], minlength=n)
    children = np.bincount(parent[child], minlength=n)
    busy = dur - child_time
    k = len(tracer.names)
    busy_by_name = np.bincount(names, weights=busy, minlength=k)
    calls_by_name = np.bincount(names, minlength=k)

    def nid(name):
        return tracer._ids.get(name, -1)

    def busy_of(name):
        i = nid(name)
        return float(busy_by_name[i]) if i >= 0 else 0.0

    def calls_of(name):
        i = nid(name)
        return int(calls_by_name[i]) if i >= 0 else 0

    out = {}
    for name in BUSY:
        out[f"{name}.busy_s"] = (busy_of(name), "s")
    for name in CALLS:
        out[f"{name}.calls"] = (calls_of(name), "count")
    for name in COUNTERS:
        out[name] = (tracer.counters[name], "count")

    # A generator attempt is an RngStream.generator() call made inside a
    # generator function's span; a graph is a generator call that returned.
    gen_ids = {nid(g) for g in GENERATOR_FUNCS} - {-1}
    attempts = 0
    for i in np.flatnonzero(names == nid("sampling.generator")):
        j = parent[i]
        while j >= 0 and names[j] not in gen_ids:
            j = parent[j]
        attempts += j >= 0
    gen_mask = np.isin(names, list(gen_ids))
    graphs = int(np.count_nonzero(gen_mask & (raised == 0)))
    out["generators.attempts"] = (int(attempts), "count")
    out["generators.accept_ratio"] = (graphs / attempts if attempts else 0.0, "ratio")

    # build_graph builds a graph on a miss, so a call without child
    # spans was served from the cache.
    build = names == nid("harness.build_graph")
    calls = int(np.count_nonzero(build))
    hits = int(np.count_nonzero(build & (children == 0)))
    out["harness.build_graph.hit_ratio"] = (hits / calls if calls else 0.0, "ratio")

    timed = np.arange(n) > timed_root
    layer_of = np.array([name.split(".", 1)[0] for name in tracer.names])
    timed_busy = np.bincount(names[timed], weights=busy[timed], minlength=k)
    layers_s = 0.0
    for layer in LAYERS:
        total = float(timed_busy[layer_of == layer].sum())
        layers_s += total
        if layer in TIMED_LAYERS:
            out[f"layer.{layer}.timed_busy_s"] = (total, "s")
    out["bench.timed_busy_s"] = (float(busy[timed_root]), "s")
    out["trace.timed_s"] = (float(dur[timed_root]), "s")
    out["trace.spans"] = (n, "count")
    requests = np.frombuffer(tracer.request, dtype=np.int64)
    out["trace.requests"] = (int(np.unique(requests[timed & (requests >= 0)]).size), "count")
    return out, layers_s
