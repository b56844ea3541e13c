"""Experiment configs, deterministic Monte Carlo execution, aggregation
and serialization.

Randomness discipline: trial i draws everything from the substream
(master_seed, "trial", i, purpose), so adding a new measured quantity or
changing the worker count never perturbs existing numbers. Result files
are newline-delimited JSON trial records followed by one aggregate
object, serialized with sorted keys so identical configs give
byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, field, fields
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .bounds import proposition_lower_bound
from .colouring import (
    DEFAULT_NODE_BUDGET,
    chromatic_number_exact,
    product_colouring_check,
    t_core,
)
from .errors import InputError, RandcolError
from .generators import (
    ConstructionParams,
    _as_fraction,
    blow_up,
    find_cubic_expander,
    gadget_blow_up,
    random_regular_graph,
    random_two_regular_digraph,
)
from .graphs import (DiGraph, Graph, _expect, _integer, _read_text, complete_graph,
                     connected_component, cycle_graph, load_graph, reachable_set)
from .percolation import (
    classify_supervertices_thm3,
    thm3_fixpoint_violations,
    thm3_process,
    thm4_fixpoint_violations,
    thm4_process,
)
from .sampling import (RngStream, _is_int, partition_split, sample_subgraph, second_round_rate,
                       two_round_sample)

# two-sided 95%
WILSON_Z = 1.959963984540054

MAX_SEED = 2**64 - 1


def wilson_interval(successes: int, trials: int) -> tuple:
    """Two-sided 95% Wilson score interval for a binomial proportion."""
    successes, trials = _integer(successes, "successes"), _integer(trials, "trials")
    if successes > trials:
        raise InputError("need 0 <= successes <= trials")
    if trials == 0:
        return (0.0, 1.0)
    ph, z = successes / trials, WILSON_Z
    denom = 1.0 + z * z / trials
    centre = (ph + z * z / (2 * trials)) / denom
    half = z * math.sqrt(ph * (1.0 - ph) / trials + z * z / (4.0 * trials * trials)) / denom
    return (max(0.0, centre - half), min(1.0, centre + half))


def mean_and_sample_variance(values) -> tuple:
    vals = list(values)
    if not vals:
        return (None, None)
    mu = math.fsum(vals) / len(vals)
    if len(vals) < 2:
        return (mu, 0.0)
    var = math.fsum((v - mu) ** 2 for v in vals) / (len(vals) - 1)
    return (mu, var)


# ---------------------------------------------------------------------------
# Graph recipes. A recipe is a plain dict with a "kind" discriminator so
# configs stay self-describing. A recipe is random when "seed" is among
# its required fields; a config may leave that seed out, and then each
# trial builds its own graph from the trial stream. Builders read the
# generators from the module namespace at call time, so a wrapper
# installed on a module attribute sees every call.
# ---------------------------------------------------------------------------

_BUILD_CACHE: dict = {}
_BUILD_CACHE_SIZE = 64


class _Recipe(NamedTuple):
    needs: tuple
    optional: tuple
    build: Callable  # (recipe, params) -> (graph, layout)
    makes: type | None = Graph  # the graph type built; None when either (a file)
    base: type | None = None  # the graph type its base must build


_RECIPES = {
    "complete": _Recipe(("n",), (), lambda r, params: (complete_graph(r["n"]), None)),
    "cycle": _Recipe(("n",), (), lambda r, params: (cycle_graph(r["n"]), None)),
    "random": _Recipe(("n", "density", "seed"), (), lambda r, params: (sample_subgraph(
        complete_graph(r["n"]), r["density"], RngStream(r["seed"]).child("recipe-random")), None)),
    "random_regular": _Recipe(("n", "d", "seed"), (), lambda r, params: (
        random_regular_graph(r["n"], r["d"], r["seed"]), None)),
    "cubic_expander": _Recipe(("n", "seed"), ("lambda2_max", "girth_min"), lambda r, params: (
        find_cubic_expander(r["n"], r["seed"], lambda2_max=r.get("lambda2_max", 2.9),
                            girth_min=r.get("girth_min", 3))[0], None)),
    "two_regular_digraph": _Recipe(("n", "seed"), (), lambda r, params: (
        random_two_regular_digraph(r["n"], r["seed"]), None), makes=DiGraph),
    "blow_up": _Recipe(("base", "m"), (), lambda r, params: blow_up(
        build_graph(r["base"])[0], r["m"]), base=Graph),
    "gadget": _Recipe(("base",), (), lambda r, params: gadget_blow_up(
        build_graph(r["base"])[0], params), base=DiGraph),
    "file": _Recipe(("path",), (), lambda r, params: (load_graph(r["path"]), None), makes=None),
}


def build_graph(recipe: dict, params: ConstructionParams | None = None, *, key: str | None = None):
    """Construct the (di)graph a recipe describes.

    Returns (graph, layout) where layout is None except for blow-up
    recipes. Results are cached per process keyed by the recipe, at most
    _BUILD_CACHE_SIZE of them, evicting the oldest on a miss; key, when
    given, is that key, _build_key(recipe, params), which a config makes
    once for all of its trials.
    """
    if key is None:
        key = _build_key(recipe, params)
    built = _BUILD_CACHE.get(key)
    if built is None:
        built = _build_uncached(recipe, params)  # a blow-up caches its base first
        if len(_BUILD_CACHE) >= _BUILD_CACHE_SIZE:
            del _BUILD_CACHE[next(iter(_BUILD_CACHE))]
        _BUILD_CACHE[key] = built
    return built


def _build_key(recipe: dict, params: ConstructionParams | None) -> str:
    """The build cache's key of a recipe and its params: one string,
    which caches its own hash, where a (recipe text, params) pair would
    hash the params and their Fraction on every lookup. Params that
    load from a config hold alpha as a Fraction, so equal ones have
    equal reprs; an alpha given as a float too only builds again."""
    return f"{json.dumps(recipe, sort_keys=True)} {params!r}"


def _build_uncached(recipe: dict, params: ConstructionParams | None):
    _check_recipe(recipe, params)
    return _RECIPES[recipe["kind"]].build(recipe, params)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# (test, description) of each recipe field but kind and base; RngStream
# hashes its seed through str(), so "5" would alias 5
_FIELD_RULES = {
    **dict.fromkeys(("n", "m", "d", "seed"), (_is_int, "an integer")),
    "girth_min": (lambda v: v is None or _is_int(v), "an integer or null"),
    "lambda2_max": (_is_real, "a number"),
    "density": (lambda v: _is_real(v) and 0 <= v <= 1, "a number in [0, 1]"),
    "path": (lambda v: isinstance(v, str), "a string"),
}


def _check_recipe(recipe, params: ConstructionParams | None, unseeded: bool = False) -> None:
    """Raise InputError unless the recipe, and its base if it has one,
    names a known kind with exactly that kind's fields, each passing its
    _FIELD_RULES test, and, for a gadget, construction params, and its
    base builds the graph type it needs (_check_makes). unseeded lets a random recipe
    leave out its seed. Builds nothing."""
    kind = recipe.get("kind") if isinstance(recipe, dict) else None
    if not isinstance(kind, str) or kind not in _RECIPES:
        raise InputError(f"graph recipe must be a dict whose 'kind' is one of {sorted(_RECIPES)}, "
                         f"got {recipe!r}")
    row = _RECIPES[kind]
    missing = [f for f in row.needs if f not in recipe and not (unseeded and f == "seed")]
    if missing:
        raise InputError(f"graph recipe {kind!r} needs {missing[0]!r}")
    unknown = sorted(set(recipe) - {"kind", *row.needs, *row.optional})
    if unknown:
        raise InputError(f"graph recipe {kind!r} takes no fields {unknown}")
    for name, value in recipe.items():
        rule = _FIELD_RULES.get(name)
        if rule is not None and not rule[0](value):
            raise InputError(f"graph recipe {name} must be {rule[1]}, got {value!r}")
    if kind == "gadget" and params is None:
        raise InputError("gadget recipe needs construction params")
    if "base" in recipe:
        _check_recipe(recipe["base"], None)
        _check_makes(recipe["base"], row.base, f"graph recipe {kind!r} needs a base")


def _check_makes(recipe: dict, need: type, what: str) -> None:
    """InputError when a checked recipe is known to build another graph
    type than need. A file's type is known only once it is read, so the
    builders and _trial_graph check the graph itself (graphs._expect)."""
    makes = _RECIPES[recipe["kind"]].makes
    if makes is not None and makes is not need:
        raise InputError(f"{what} that builds a {need.__name__}, got a {makes.__name__}")


def _params_from_dict(d) -> ConstructionParams:
    if not isinstance(d, dict):
        raise InputError(f"params must be a dict, got {d!r}")
    alpha = d.get("alpha")
    try:
        return ConstructionParams(**dict(d, alpha=None if alpha is None else _as_fraction(alpha)))
    except TypeError as exc:
        raise InputError(f"bad params {d!r}: {exc}") from None


def asymptotic_regime_report(
    params: ConstructionParams | None, available_n: int | None
) -> dict:
    """Truthful record of whether parameters sit inside the asymptotic
    regime the limit statements assume. None of this is enforced
    anywhere; desk-scale runs deliberately violate it and carry the
    violations in their output.

    Blow-up mode needs alpha < 1/100 and a base graph of at least
    (3/alpha)^(k^3) vertices; gadget mode needs alpha < 1/16 with
    2/alpha <= s <= 4/alpha and at least (6/alpha)^(k^3) vertices."""
    notes = []
    required = None
    ok = True
    if params is None:
        notes.append("no construction parameters; regime test not applicable")
        ok = False
    elif params.alpha is None:
        notes.append("no alpha supplied; regime requirements undefined")
        ok = False
    else:
        alpha = params.alpha
        if params.mode == "expander-blowup":
            if alpha >= Fraction(1, 100):
                notes.append(f"alpha={alpha} is not below the regime cap 1/100")
                ok = False
            ratio = 3 / alpha
        else:
            if alpha >= Fraction(1, 16):
                notes.append(f"alpha={alpha} is not below the regime cap 1/16")
                ok = False
            if not 2 / alpha <= params.s <= 4 / alpha:
                notes.append(f"s={params.s} outside [2/alpha, 4/alpha]")
                ok = False
            ratio = 6 / alpha
        required = params.k**3 * math.log10(float(ratio))
        if available_n is None:
            notes.append("base graph size unknown")
            ok = False
        elif math.log10(available_n) >= required:
            notes.append("base graph meets the asymptotic size requirement")
        else:
            notes.append(
                f"base graph n={available_n} is below the asymptotic "
                f"requirement log10(n) >= {required:.6g}"
            )
            ok = False
    return {
        "in_asymptotic_regime": ok,
        "required_log10_n": required,
        "available_n": available_n,
        "notes": notes,
    }


# the fields that a kind's row must name for a config to set them off their defaults
_KIND_FIELDS = ("p", "p_sweep", "first_rate", "t", "k", "parts", "budget", "root", "suite")


@dataclass(frozen=True, eq=True)
class ExperimentConfig:
    """Complete, serializable description of one experiment.

    first_rate is kept as the literal fraction/decimal string ("1/9",
    "0.03") so configs round-trip losslessly. Of the fields in
    _KIND_FIELDS, a config holds those its kind's row does not name at
    their defaults, and the graph recipe is checked against its row in
    _RECIPES and the graph type the kind's row takes. regime_metadata is
    not an argument: it is derived from params and the graph, and
    from_dict checks a given value against it.
    """

    kind: str
    trials: int
    master_seed: int
    graph: dict | None = None
    params: ConstructionParams | None = None
    p: float | None = None
    p_sweep: tuple | None = None
    first_rate: str | None = None
    t: int | None = None
    k: int | None = None
    parts: int = 2
    budget: int = DEFAULT_NODE_BUDGET
    root: int = 0
    suite: str | None = None
    output: str | None = None
    regime_metadata: dict = field(init=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise InputError(f"unknown experiment kind {self.kind!r}")
        # each integer field and its least value; k >= 2 is checked once here, not in
        # every proposition_check trial, and t and k may be None
        for name, low in (("trials", 1), ("master_seed", 0), ("root", 0), ("parts", 2),
                          ("budget", 1), ("t", 0), ("k", 2)):
            value = getattr(self, name)
            if value is not None or name not in ("t", "k"):
                object.__setattr__(self, name, _integer(value, name, low))
        if self.master_seed > MAX_SEED:
            raise InputError("master_seed must be a 64-bit unsigned integer")
        if self.p is not None and not (_is_real(self.p) and 0.0 <= self.p <= 1.0):
            raise InputError(f"p must be a number in [0, 1], got {self.p!r}")
        if self.p_sweep is not None:
            if not isinstance(self.p_sweep, (list, tuple)):
                raise InputError(f"p_sweep must be a list of numbers, got {self.p_sweep!r}")
            object.__setattr__(self, "p_sweep", tuple(self.p_sweep))
            if not self.p_sweep:
                raise InputError("p_sweep must be non-empty")
            if any(not (_is_real(q) and 0.0 <= q <= 1.0) for q in self.p_sweep):
                raise InputError("p_sweep values must be numbers in [0, 1]")
            if any(a >= b for a, b in zip(self.p_sweep, self.p_sweep[1:])):
                raise InputError("p_sweep must be strictly increasing")
        if self.first_rate is not None:
            second_round_rate(self._first_rate)  # the sampler's range check
        self._check_kind_fields()
        object.__setattr__(self, "regime_metadata",
                           asymptotic_regime_report(self.params, self.graph.get("n")))

    def _check_kind_fields(self):
        row = _KINDS[self.kind]
        for need in row.needs:
            names = need.split("|")
            if sum(getattr(self, name) is not None for name in names) != 1:
                both = ", not both" * (len(names) > 1)
                raise InputError(f"{self.kind}: needs {' or '.join(names)}{both}")
        reads = {name for field in row.needs + row.optional for name in field.split("|")}
        unread = [f.name for f in fields(self) if f.name in _KIND_FIELDS and f.name not in reads
                  and getattr(self, f.name) != f.default]
        if unread:
            raise InputError(f"{self.kind}: does not read {', '.join(unread)}")
        # a missing graph fails here too
        _check_recipe(self.graph, self.params, unseeded=True)
        _check_makes(self.graph, row.graph, f"experiment kind {self.kind!r} needs a graph recipe")
        complete = self.graph["kind"] == "complete"  # then k is the vertex count
        if self.kind == "proposition_check" and self.k is None and not complete:
            raise InputError("proposition_check needs k unless the graph is complete")

    @cached_property
    def _first_rate(self) -> Fraction:
        """first_rate parsed once per instance, as every two-round trial
        reads it. It is not a field, so ==, hash, to_dict and replace
        never see it, and __getstate__ keeps it out of the pickle."""
        return _as_fraction(self.first_rate, "first_rate")

    @cached_property
    def _graph_key(self) -> str:
        """The build cache's key of the graph, made once per instance for
        all of its trials, and kept out of ==, to_dict and the pickle as
        _first_rate is."""
        return _build_key(self.graph, self.params)

    def __getstate__(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.params is not None and self.params.alpha is not None:
            d["params"]["alpha"] = str(self.params.alpha)
        if self.p_sweep is not None:
            d["p_sweep"] = list(self.p_sweep)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise InputError("a config must be a JSON object")
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise InputError(f"unknown config fields: {sorted(unknown)}")
        missing = {f.name for f in fields(cls) if f.init and f.default is MISSING} - set(d)
        if missing:
            raise InputError(f"missing config fields: {sorted(missing)}")
        kwargs = dict(d)
        given = kwargs.pop("regime_metadata", MISSING)
        if kwargs.get("params") is not None:
            kwargs["params"] = _params_from_dict(kwargs["params"])
        config = cls(**kwargs)
        if given is not MISSING and given != config.regime_metadata:
            raise InputError("regime_metadata must be the report of params and graph: "
                             f"{config.regime_metadata!r}")
        return config

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"config is not valid JSON: {exc}") from None
        return cls.from_dict(d)


def load_config(path) -> ExperimentConfig:
    return ExperimentConfig.from_json(_read_text(path))


@dataclass(frozen=True)
class TrialRecord:
    """One trial's measurements. wall_time stays out of the serialized
    form so result files are byte-stable across machines and runs."""

    index: int
    stream_id: str
    values: dict
    error: str | None = None
    wall_time: float = 0.0

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "stream_id": self.stream_id,
            "values": self.values,
            "error": self.error,
        }


def trial_stream(config: ExperimentConfig, index: int) -> RngStream:
    """RngStream(config.master_seed).child("trial", index)."""
    return _trial_prefix(config.master_seed).child(index)


@lru_cache(maxsize=64)
def _trial_prefix(master_seed: int) -> RngStream:
    """The ("trial",) stream of a master seed, hashed once for all of its
    trials (a config's master seed is an int, never a bool)."""
    return RngStream(master_seed).child("trial")


# --------------------------- trial bodies ---------------------------------
# Each reads the layer functions from the module namespace at call time,
# so a wrapper installed on a module attribute sees every call.


def _trial_graph(config: ExperimentConfig, stream: RngStream):
    """The graph every kind's trial runs on: a random recipe without a
    seed gets one from the trial stream, giving an independent graph each
    trial. Such a graph is built outside the cache, since no later trial
    asks for it again; every other recipe comes from the build cache. A
    graph of another type than the kind's row takes is an InputError."""
    recipe = config.graph
    if "seed" not in recipe and "seed" in _RECIPES[recipe["kind"]].needs:
        built = _build_uncached(dict(recipe, seed=stream.child("graph-seed").key()), config.params)
    else:
        built = build_graph(recipe, config.params, key=config._graph_key)
    _expect(built[0], _KINDS[config.kind].graph, config.kind)
    return built


def _trial_core_emptiness(config: ExperimentConfig, stream: RngStream) -> dict:
    g, layout = _trial_graph(config, stream)
    if config.p is not None:
        sub = sample_subgraph(g, config.p, stream.child("sample"))
    else:
        sub = two_round_sample(g, config._first_rate, stream.child("sample")).survivors()
    # the classification computes the t-core itself
    cls = None if layout is None else classify_supervertices_thm3(sub, layout, config.t)
    core = t_core(sub, config.t) if cls is None else cls.core
    size = int(np.count_nonzero(core))
    values = {"core_size": size, "empty": size == 0, "kept_edges": sub.m}
    if cls is not None:
        values["dead_supers"] = int(np.count_nonzero(cls.dead))
    return values


def _trial_chromatic_tail(config: ExperimentConfig, stream: RngStream) -> dict:
    g, _ = _trial_graph(config, stream)
    sub = sample_subgraph(g, config.p, stream.child("sample"))
    res = chromatic_number_exact(sub, budget=config.budget)
    return {"chi": res.num_colours, "exact": res.exact, "chi_lower": res.lower_bound,
            "kept_edges": sub.m}


def _trial_proposition_check(config: ExperimentConfig, stream: RngStream) -> dict:
    g, _ = _trial_graph(config, stream)
    k = g.n if config.k is None else config.k
    sub = sample_subgraph(g, config.p, stream.child("sample"))
    res = chromatic_number_exact(sub, budget=config.budget)
    bound = proposition_lower_bound(config.p, k, g.n)
    ok = bool(res.exact and res.num_colours >= bound)
    return {"chi": res.num_colours, "exact": res.exact, "bound": bound, "ok": ok}


def _sweep(config: ExperimentConfig, stream: RngStream, process, audit, size_key, whole) -> dict:
    """One spread process at every p of the sweep, on one graph."""
    h, _ = _trial_graph(config, stream)
    sizes, rounds = [], []
    fixpoint_ok = True
    for p in config.p_sweep:
        state = process(h, p, config.root, stream)
        sizes.append(int(np.count_nonzero(state.infected)))
        rounds.append(len(state.round_trace))
        if audit(h, state):
            fixpoint_ok = False
    return {
        "v0_sizes": sizes,
        "rounds": rounds,
        "monotone": all(a >= b for a, b in zip(sizes, sizes[1:])),
        "fixpoint_ok": fixpoint_ok,
        size_key: int(np.count_nonzero(whole(h, config.root))),
    }


def _trial_product_colouring(config: ExperimentConfig, stream: RngStream) -> dict:
    g, _ = _trial_graph(config, stream)
    parts = partition_split(g, config.parts, stream.child("split"))
    report = product_colouring_check(g, parts, budget=config.budget)
    return {"chi": report.chi, "part_chis": list(report.part_values), "product": report.product,
            "margin": report.margin, "ok": report.ok}


def _per_p(config: ExperimentConfig, good: list) -> dict:
    per_p = []
    for j, p in enumerate(config.p_sweep):
        mu, var = mean_and_sample_variance(r.values["v0_sizes"][j] for r in good)
        per_p.append({"p": p, "v0_mean": mu, "v0_variance": var})
    return {"per_p": per_p}


class _Kind(NamedTuple):
    trial: Callable  # (config, stream) -> the trial's values
    graph: type = Graph  # the graph type its trials run on
    # fields of _KIND_FIELDS the kind requires ("a|b": exactly one), then the others it reads
    needs: tuple = ()
    optional: tuple = ()
    # aggregate: (key, value) pairs whose boolean value gets a Wilson
    # block, values that get a mean and variance, and (config, good
    # records) -> the kind's other aggregate entries
    proportions: tuple = ()
    moments: tuple = ()
    extra: Callable = lambda config, good: {}


_SWEEP = dict(needs=("p_sweep",), optional=("root",), extra=_per_p,
              proportions=(("monotone", "monotone"), ("fixpoint_ok", "fixpoint_ok")))

_KINDS = {
    "core_emptiness": _Kind(
        _trial_core_emptiness, needs=("t", "p|first_rate"),
        proportions=(("empty_core", "empty"),), moments=("core_size",)),
    "chromatic_tail": _Kind(
        _trial_chromatic_tail, needs=("p",), optional=("budget",), moments=("chi",),
        extra=lambda config, good: {
            "chi_histogram": dict(Counter(str(r.values["chi"]) for r in good)),
            "all_exact": all(r.values["exact"] for r in good),
        }),
    "proposition_check": _Kind(
        _trial_proposition_check, needs=("p",), optional=("k", "budget"),
        proportions=(("bound_holds", "ok"),), moments=("chi",),
        extra=lambda config, good: {"bound": good[0].values["bound"] if good else None}),
    "thm3_sweep": _Kind(
        lambda config, stream: _sweep(config, stream, thm3_process, thm3_fixpoint_violations,
                                      "component_size", connected_component), **_SWEEP),
    "thm4_sweep": _Kind(
        lambda config, stream: _sweep(config, stream, thm4_process, thm4_fixpoint_violations,
                                      "reachable_size", reachable_set), graph=DiGraph, **_SWEEP),
    "product_colouring": _Kind(
        _trial_product_colouring, optional=("parts", "budget"),
        proportions=(("inequality_holds", "ok"),), moments=("product",),
        extra=lambda config, good: {
            "min_margin": min((r.values["margin"] for r in good), default=None)}),
}


def run_trial(config: ExperimentConfig, index: int) -> TrialRecord:
    stream = trial_stream(config, index)
    start = time.perf_counter()
    values: dict = {}
    error = None
    try:
        values = _KINDS[config.kind].trial(config, stream)
    except RandcolError as exc:  # a trial's own failure; a bug raises
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    return TrialRecord(index, f"{stream.key():016x}", values, error, wall)


# --------------------------- aggregation ----------------------------------


def _proportion_block(flags) -> dict:
    flags = list(flags)
    successes = sum(1 for f in flags if f)
    lo, hi = wilson_interval(successes, len(flags)) if flags else (0.0, 1.0)
    return {
        "successes": successes,
        "of": len(flags),
        "proportion": successes / len(flags) if flags else None,
        "wilson_95": [lo, hi],
    }


def recompute_aggregate(config: ExperimentConfig, records) -> dict:
    """Aggregate statistics derived purely from (config, records); the
    emitted aggregate block is exactly this function's output."""
    records = sorted(records, key=lambda r: r.index)
    good = [r for r in records if r.error is None]
    row = _KINDS[config.kind]
    agg: dict = {
        "kind": config.kind,
        "trials": len(records),
        "valid_trials": len(good),
        "errors": len(records) - len(good),
        "config": config.to_dict(),
    }
    for key, flag in row.proportions:
        agg[key] = _proportion_block(r.values[flag] for r in good)
    for key in row.moments:
        moments = mean_and_sample_variance(r.values[key] for r in good)
        agg[f"{key}_mean"], agg[f"{key}_variance"] = moments
    agg.update(row.extra(config, good))
    agg["regime_metadata"] = config.regime_metadata
    return agg


# --------------------------- execution ------------------------------------


def _worker_count(trials: int) -> int:
    """RANDCOL_THREADS, at most one worker per trial and per CPU, since
    the pool starts all of its workers at once."""
    raw = os.environ.get("RANDCOL_THREADS", "1")
    try:
        cap = int(raw)
    except ValueError:
        raise InputError(f"RANDCOL_THREADS must be an integer, got {raw!r}")
    return max(1, min(cap, trials, os.cpu_count() or 1))


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    records: tuple
    aggregate: dict

    def text(self) -> str:
        dump = lambda obj: json.dumps(obj, sort_keys=True, separators=(",", ":"))
        lines = [dump(r.to_dict()) for r in self.records] + [dump({"aggregate": self.aggregate})]
        return "\n".join(lines) + "\n"


def run_experiment(config: ExperimentConfig, out_path=None) -> ExperimentResult:
    """Run all trials (in parallel when RANDCOL_THREADS > 1), aggregate,
    and write the result file when a path is configured. Output bytes
    depend only on the config, never on scheduling."""
    workers = _worker_count(config.trials)
    if workers == 1:
        records = [run_trial(config, i) for i in range(config.trials)]
    else:
        # imported here: multiprocessing would load with every `import randcol`
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, config.trials // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            trials = pool.map(run_trial, itertools.repeat(config), range(config.trials), chunksize=chunk)
            records = list(trials)
    aggregate = recompute_aggregate(config, records)
    result = ExperimentResult(config, tuple(records), aggregate)
    path = out_path if out_path is not None else config.output
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(result.text())
    return result


def load_result(path) -> tuple:
    """Read a result file back as (records, aggregate): trial records with
    exactly the keys index (distinct integers), stream_id (strings),
    values (objects) and error (strings or null), then one aggregate line
    {"aggregate": <object>}, the last."""
    records, aggregates = {}, []
    for number, line in enumerate(_read_text(path).split("\n"), 1):
        if not line.strip():
            continue
        where = f"{path}: line {number}"
        try:
            obj = json.loads(line)
        except ValueError:  # not JSON
            obj = None
        keys = obj.keys() if isinstance(obj, dict) else None
        if keys == {"aggregate"} and isinstance(obj["aggregate"], dict):
            record = None
        elif keys == {"index", "stream_id", "values", "error"}:
            record = TrialRecord(**obj)
        else:
            raise InputError(f"{where} is neither a trial record nor the aggregate")
        if aggregates:  # the aggregate is the last line
            what = "second aggregate" if record is None else "trial record after the aggregate"
            raise InputError(f"{where} is a {what} line")
        if record is None:
            aggregates.append(obj["aggregate"])
        elif not (_is_int(record.index) and isinstance(record.stream_id, str)
                  and isinstance(record.values, dict)
                  and (record.error is None or isinstance(record.error, str))):
            raise InputError(f"{where}: a record needs an integer index, a string stream_id, "
                             "an object of values and a string or null error")
        elif record.index in records:
            raise InputError(f"{where} repeats trial index {record.index}")
        else:
            records[record.index] = record
    if not aggregates:
        raise InputError(f"{path}: missing aggregate line")
    return list(records.values()), aggregates[0]
