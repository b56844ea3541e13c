"""Experiment configs, deterministic Monte Carlo execution, aggregation
and serialization.

Randomness discipline: trial i draws everything from the substream
(master_seed, "trial", i, purpose), so adding a new measured quantity or
changing the worker count never perturbs existing numbers. Result files
are newline-delimited JSON trial records followed by one aggregate
object, serialized with sorted keys so identical configs give
byte-identical files. CSV export is a flat projection of the records.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction

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
    blow_up,
    find_cubic_expander,
    gadget_blow_up,
    random_regular_graph,
    random_two_regular_digraph,
)
from .graphs import (
    Graph,
    complete_graph,
    connected_component,
    cycle_graph,
    load_graph,
    reachable_set,
)
from .percolation import (
    classify_supervertices_thm3,
    thm3_fixpoint_violations,
    thm3_process,
    thm4_fixpoint_violations,
    thm4_process,
)
from .sampling import RngStream, partition_split, sample_subgraph, two_round_sample

EXPERIMENT_KINDS = (
    "core_emptiness",
    "chromatic_tail",
    "proposition_check",
    "thm3_sweep",
    "thm4_sweep",
    "product_colouring",
)

# two-sided 95%
WILSON_Z = 1.959963984540054

MAX_SEED = 2**64 - 1


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z) -> tuple:
    """Wilson score interval for a binomial proportion."""
    if trials < 0 or not 0 <= successes <= trials:
        raise InputError("need 0 <= successes <= trials")
    if trials == 0:
        return (0.0, 1.0)
    ph = successes / trials
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
# configs stay self-describing; recipes without a "seed" are rebuilt per
# trial from the trial stream.
# ---------------------------------------------------------------------------

_BUILD_CACHE: dict = {}


def build_graph(recipe: dict, params: ConstructionParams | None = None):
    """Construct the (di)graph a recipe describes.

    Returns (graph, layout) where layout is None except for blow-up
    recipes. Results are cached per process keyed by the recipe.
    """
    if not isinstance(recipe, dict) or "kind" not in recipe:
        raise InputError("graph recipe must be a dict with a 'kind' entry")
    key = (json.dumps(recipe, sort_keys=True), params)
    if key not in _BUILD_CACHE:
        _BUILD_CACHE[key] = _build_uncached(recipe, params)
    return _BUILD_CACHE[key]


def _build_uncached(recipe: dict, params: ConstructionParams | None):
    kind = recipe["kind"]
    # RngStream hashes its seed through str(), so "5" would alias 5
    if "seed" in recipe and not _is_int(recipe["seed"]):
        raise InputError(f"graph recipe seed must be an integer, got {recipe['seed']!r}")
    layout = None
    if kind == "complete":
        g = complete_graph(_want(recipe, "n"))
    elif kind == "cycle":
        g = cycle_graph(_want(recipe, "n"))
    elif kind == "random":
        base = complete_graph(_want(recipe, "n"))
        stream = RngStream(_want(recipe, "seed")).child("recipe-random")
        g = sample_subgraph(base, _want(recipe, "density"), stream)
    elif kind == "random_regular":
        g = random_regular_graph(_want(recipe, "n"), _want(recipe, "d"), _want(recipe, "seed"))
    elif kind == "cubic_expander":
        g, _cert = find_cubic_expander(
            _want(recipe, "n"),
            _want(recipe, "seed"),
            lambda2_max=recipe.get("lambda2_max", 2.9),
            girth_min=recipe.get("girth_min", 3),
        )
    elif kind == "two_regular_digraph":
        g = random_two_regular_digraph(_want(recipe, "n"), _want(recipe, "seed"))
    elif kind == "blow_up":
        base, _ = build_graph(_want(recipe, "base"))
        g, layout = blow_up(base, _want(recipe, "m"))
    elif kind == "gadget":
        if params is None:
            raise InputError("gadget recipe needs construction params")
        base, _ = build_graph(_want(recipe, "base"))
        g, layout = gadget_blow_up(base, params)
    elif kind == "file":
        g = load_graph(_want(recipe, "path"))
    else:
        raise InputError(f"unknown graph recipe kind {kind!r}")
    return g, layout


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _want(recipe: dict, field: str):
    if field not in recipe:
        raise InputError(f"graph recipe {recipe.get('kind')!r} needs {field!r}")
    return recipe[field]


def _params_to_dict(params: ConstructionParams | None):
    if params is None:
        return None
    return {
        "mode": params.mode,
        "k": params.k,
        "t": params.t,
        "m": params.m,
        "alpha": None if params.alpha is None else str(params.alpha),
        "s": params.s,
    }


def _params_from_dict(d) -> ConstructionParams | None:
    if d is None:
        return None
    alpha = None if d.get("alpha") is None else Fraction(d["alpha"])
    return ConstructionParams(
        mode=d["mode"], k=d["k"], t=d["t"], m=d["m"], alpha=alpha, s=d.get("s")
    )


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


_CONFIG_FIELDS = (
    "kind",
    "trials",
    "master_seed",
    "graph",
    "params",
    "p",
    "p_sweep",
    "first_rate",
    "t",
    "k",
    "parts",
    "budget",
    "root",
    "suite",
    "output",
    "regime_metadata",
)


@dataclass(frozen=True, eq=True)
class ExperimentConfig:
    """Complete, serializable description of one experiment.

    first_rate is kept as the literal fraction/decimal string ("1/9",
    "0.03") so configs round-trip losslessly. regime_metadata is filled
    automatically when omitted.
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
    regime_metadata: dict | None = None

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise InputError(f"unknown experiment kind {self.kind!r}")
        for name in ("trials", "master_seed", "root", "parts", "budget", "t", "k"):
            value = getattr(self, name)
            if not (_is_int(value) or value is None and name in ("t", "k")):
                raise InputError(f"{name} must be an integer, got {value!r}")
        if self.trials < 1:
            raise InputError("trials must be a positive integer")
        if not 0 <= self.master_seed <= MAX_SEED:
            raise InputError("master_seed must be a 64-bit unsigned integer")
        if self.root < 0:
            raise InputError("root must be a non-negative integer")
        if self.p is not None and not 0.0 <= self.p <= 1.0:
            raise InputError("p must lie in [0, 1]")
        if self.p_sweep is not None:
            object.__setattr__(self, "p_sweep", tuple(self.p_sweep))
            if not self.p_sweep:
                raise InputError("p_sweep must be non-empty")
            if any(not 0.0 <= q <= 1.0 for q in self.p_sweep):
                raise InputError("p_sweep values must lie in [0, 1]")
            if any(a >= b for a, b in zip(self.p_sweep, self.p_sweep[1:])):
                raise InputError("p_sweep must be strictly increasing")
        if self.first_rate is not None:
            rate = self.first_rate_fraction()
            if not 0 <= rate <= Fraction(1, 2):
                raise InputError("first_rate must lie in [0, 1/2]")
        self._check_kind_fields()
        if self.regime_metadata is None:
            n = self.graph.get("n") if isinstance(self.graph, dict) else None
            object.__setattr__(
                self, "regime_metadata", asymptotic_regime_report(self.params, n)
            )

    def _check_kind_fields(self):
        kind = self.kind
        def need(cond, msg):
            if not cond:
                raise InputError(f"{kind}: {msg}")

        need(self.graph is not None, "needs a graph recipe")
        if kind == "core_emptiness":
            need(self.t is not None and self.t >= 0, "needs a threshold t >= 0")
            need(
                (self.p is None) != (self.first_rate is None),
                "needs exactly one of p (one round) or first_rate (two rounds)",
            )
        elif kind in ("chromatic_tail", "proposition_check"):
            need(self.p is not None, "needs p")
        elif kind in ("thm3_sweep", "thm4_sweep"):
            need(self.p_sweep is not None, "needs p_sweep")
        elif kind == "product_colouring":
            need(self.parts >= 2, "needs parts >= 2")

    def first_rate_fraction(self) -> Fraction:
        if self.first_rate is None:
            raise InputError("no first_rate configured")
        try:
            return Fraction(self.first_rate)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad first_rate {self.first_rate!r}: {exc}") from None

    def to_dict(self) -> dict:
        d = {name: getattr(self, name) for name in _CONFIG_FIELDS}
        d["params"] = _params_to_dict(self.params)
        if self.p_sweep is not None:
            d["p_sweep"] = list(self.p_sweep)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        unknown = set(d) - set(_CONFIG_FIELDS)
        if unknown:
            raise InputError(f"unknown config fields: {sorted(unknown)}")
        kwargs = dict(d)
        if kwargs.get("params") is not None:
            kwargs["params"] = _params_from_dict(kwargs["params"])
        if kwargs.get("p_sweep") is not None:
            kwargs["p_sweep"] = tuple(kwargs["p_sweep"])
        return cls(**kwargs)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return ExperimentConfig.from_json(fh.read())


def save_config(config: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config.to_json())


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

    @classmethod
    def from_dict(cls, d: dict) -> "TrialRecord":
        return cls(d["index"], d["stream_id"], d["values"], d.get("error"))


def trial_stream(config: ExperimentConfig, index: int) -> RngStream:
    return RngStream(config.master_seed).child("trial", index)


# --------------------------- trial bodies ---------------------------------


def _fixed_graph(config: ExperimentConfig):
    return build_graph(config.graph, config.params)


def _trial_graph(config: ExperimentConfig, stream: RngStream):
    """Per-trial graph: recipes without a seed get one from the trial
    stream, giving an independent graph each trial. Such a graph is
    built outside the cache, since no later trial asks for it again."""
    recipe = config.graph
    if "seed" not in recipe and recipe.get("kind") not in ("complete", "cycle", "file", "blow_up", "gadget"):
        seeded = dict(recipe, seed=stream.child("graph-seed").key())
        return _build_uncached(seeded, config.params)
    return build_graph(recipe, config.params)


def _sampled_graph(config: ExperimentConfig, g: Graph, stream: RngStream) -> Graph:
    if config.p is not None:
        return sample_subgraph(g, config.p, stream.child("sample"))
    rate = config.first_rate_fraction()
    return two_round_sample(g, rate, stream.child("sample")).survivors()


def _trial_core_emptiness(config: ExperimentConfig, stream: RngStream) -> dict:
    g, layout = _fixed_graph(config)
    sub = _sampled_graph(config, g, stream)
    # the classification computes the t-core itself
    cls = None if layout is None else classify_supervertices_thm3(sub, layout, config.t)
    core = t_core(sub, config.t) if cls is None else cls.core
    values = {
        "core_size": len(core),
        "empty": not core,
        "kept_edges": sub.m,
    }
    if cls is not None:
        values["dead_supers"] = len(cls.dead_set())
    return values


def _trial_chromatic_tail(config: ExperimentConfig, stream: RngStream) -> dict:
    g, _ = _fixed_graph(config)
    sub = sample_subgraph(g, config.p, stream.child("sample"))
    res = chromatic_number_exact(sub, budget=config.budget)
    return {
        "chi": res.num_colours,
        "exact": res.exact,
        "chi_lower": res.lower_bound,
        "kept_edges": sub.m,
    }


def _trial_proposition_check(config: ExperimentConfig, stream: RngStream) -> dict:
    g, _ = _fixed_graph(config)
    if config.k is not None:
        k = config.k
    elif config.graph.get("kind") == "complete":
        k = g.n
    else:
        raise InputError("proposition_check needs k unless the graph is complete")
    sub = sample_subgraph(g, config.p, stream.child("sample"))
    res = chromatic_number_exact(sub, budget=config.budget)
    bound = proposition_lower_bound(config.p, k, g.n)
    return {
        "chi": res.num_colours,
        "exact": res.exact,
        "bound": bound,
        "ok": bool(res.exact and res.num_colours >= bound),
    }


def _trial_sweep(config: ExperimentConfig, stream: RngStream) -> dict:
    """One spread process at every p of the sweep, on one graph. The
    process functions are read from the module namespace at call time,
    so a wrapper installed on a module attribute sees every call."""
    h, _ = _trial_graph(config, stream)
    if config.kind == "thm3_sweep":
        process, audit = thm3_process, thm3_fixpoint_violations
        size_key, whole = "component_size", connected_component
    else:
        process, audit = thm4_process, thm4_fixpoint_violations
        size_key, whole = "reachable_size", reachable_set
    sizes, rounds = [], []
    fixpoint_ok = True
    for p in config.p_sweep:
        state = process(h, p, config.root, stream)
        sizes.append(int(state.infected.sum()))
        rounds.append(len(state.round_trace))
        if audit(h, state):
            fixpoint_ok = False
    return {
        "v0_sizes": sizes,
        "rounds": rounds,
        "monotone": all(a >= b for a, b in zip(sizes, sizes[1:])),
        "fixpoint_ok": fixpoint_ok,
        size_key: len(whole(h, config.root)),
    }


def _trial_product_colouring(config: ExperimentConfig, stream: RngStream) -> dict:
    g, _ = _trial_graph(config, stream)
    parts = partition_split(g, config.parts, stream.child("split"))
    report = product_colouring_check(g, parts, budget=config.budget)
    return {
        "chi": report.chi,
        "part_chis": list(report.part_values),
        "product": report.product,
        "margin": report.margin,
        "ok": report.ok,
    }


_TRIAL_FUNCS = {
    "core_emptiness": _trial_core_emptiness,
    "chromatic_tail": _trial_chromatic_tail,
    "proposition_check": _trial_proposition_check,
    "thm3_sweep": _trial_sweep,
    "thm4_sweep": _trial_sweep,
    "product_colouring": _trial_product_colouring,
}


def run_trial(config: ExperimentConfig, index: int) -> TrialRecord:
    stream = trial_stream(config, index)
    start = time.perf_counter()
    values: dict = {}
    error = None
    try:
        values = _TRIAL_FUNCS[config.kind](config, stream)
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


def _put_moments(agg: dict, good: list, key: str) -> None:
    """agg[key_mean] and agg[key_variance] over the values of the good records."""
    agg[f"{key}_mean"], agg[f"{key}_variance"] = mean_and_sample_variance(r.values[key] for r in good)


def recompute_aggregate(config: ExperimentConfig, records) -> dict:
    """Aggregate statistics derived purely from (config, records); the
    emitted aggregate block is exactly this function's output."""
    records = sorted(records, key=lambda r: r.index)
    good = [r for r in records if r.error is None]
    agg: dict = {
        "kind": config.kind,
        "trials": len(records),
        "valid_trials": len(good),
        "errors": len(records) - len(good),
        "config": config.to_dict(),
    }
    kind = config.kind
    if kind == "core_emptiness":
        agg["empty_core"] = _proportion_block(r.values["empty"] for r in good)
        _put_moments(agg, good, "core_size")
    elif kind == "chromatic_tail":
        _put_moments(agg, good, "chi")
        agg["chi_histogram"] = dict(Counter(str(r.values["chi"]) for r in good))
        agg["all_exact"] = all(r.values["exact"] for r in good)
    elif kind == "proposition_check":
        agg["bound_holds"] = _proportion_block(r.values["ok"] for r in good)
        _put_moments(agg, good, "chi")
        agg["bound"] = good[0].values["bound"] if good else None
    elif kind in ("thm3_sweep", "thm4_sweep"):
        sweeps = [r.values["v0_sizes"] for r in good]
        per_p = []
        for j, p in enumerate(config.p_sweep):
            mu, var = mean_and_sample_variance(s[j] for s in sweeps)
            per_p.append({"p": p, "v0_mean": mu, "v0_variance": var})
        agg["per_p"] = per_p
        agg["monotone"] = _proportion_block(r.values["monotone"] for r in good)
        agg["fixpoint_ok"] = _proportion_block(r.values["fixpoint_ok"] for r in good)
    elif kind == "product_colouring":
        agg["inequality_holds"] = _proportion_block(r.values["ok"] for r in good)
        agg["min_margin"] = min((r.values["margin"] for r in good), default=None)
        _put_moments(agg, good, "product")
    agg["regime_metadata"] = config.regime_metadata
    return agg


# --------------------------- execution ------------------------------------


def _worker_count(trials: int) -> int:
    raw = os.environ.get("RANDCOL_THREADS", "1")
    try:
        cap = int(raw)
    except ValueError:
        raise InputError(f"RANDCOL_THREADS must be an integer, got {raw!r}")
    return max(1, min(cap, trials))


def _pool_trial(payload) -> TrialRecord:
    config, index = payload
    return run_trial(config, index)


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    records: tuple
    aggregate: dict
    path: str | None = None

    def lines(self) -> list:
        dump = lambda obj: json.dumps(obj, sort_keys=True, separators=(",", ":"))
        out = [dump(r.to_dict()) for r in self.records]
        out.append(dump({"aggregate": self.aggregate}))
        return out

    def text(self) -> str:
        return "\n".join(self.lines()) + "\n"


def run_experiment(config: ExperimentConfig, out_path=None) -> ExperimentResult:
    """Run all trials (in parallel when RANDCOL_THREADS > 1), aggregate,
    and write the result file when a path is configured. Output bytes
    depend only on the config, never on scheduling."""
    workers = _worker_count(config.trials)
    if workers == 1:
        records = [run_trial(config, i) for i in range(config.trials)]
    else:
        payloads = [(config, i) for i in range(config.trials)]
        chunk = max(1, config.trials // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_pool_trial, payloads, chunksize=chunk))
    records.sort(key=lambda r: r.index)
    aggregate = recompute_aggregate(config, records)
    result = ExperimentResult(config, tuple(records), aggregate)
    path = out_path if out_path is not None else config.output
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(result.text())
        result = replace(result, path=str(path))
    return result


def load_result(path) -> tuple:
    """Read a result file back as (records, aggregate)."""
    records = []
    aggregate = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if "aggregate" in obj:
                aggregate = obj["aggregate"]
            else:
                records.append(TrialRecord.from_dict(obj))
    if aggregate is None:
        raise InputError(f"{path}: missing aggregate line")
    return records, aggregate


def export_csv(result: ExperimentResult, path) -> None:
    """Flat projection of the trial records; list/dict values are
    embedded as compact JSON strings so nothing is lost."""
    keys = sorted({k for r in result.records for k in r.values})
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "stream_id", "error", *keys])
        for r in result.records:
            row = [r.index, r.stream_id, r.error if r.error is not None else ""]
            for k in keys:
                v = r.values.get(k)
                if isinstance(v, (list, dict)):
                    v = json.dumps(v, sort_keys=True, separators=(",", ":"))
                row.append("" if v is None else v)
            writer.writerow(row)
