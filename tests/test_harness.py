import hashlib
import json
import math
import os
import pickle
import re
import statistics
import subprocess
import sys
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binomtest

from randcol import harness
from randcol.errors import (
    CapacityError,
    ConstructionError,
    ConvergenceError,
    GenerationError,
    InputError,
    RandcolError,
)
from randcol.generators import ConstructionParams
from randcol.graphs import Graph, save_graph
from randcol.harness import (
    ExperimentConfig,
    TrialRecord,
    asymptotic_regime_report,
    build_graph,
    load_config,
    load_result,
    mean_and_sample_variance,
    recompute_aggregate,
    run_experiment,
    run_trial,
    trial_stream,
    wilson_interval,
)

from helpers import CORE_DEATH_GOLDEN, KIND_FIELDS, THM3_SWEEP_GOLDEN, THM4_SWEEP_GOLDEN, complete_graph


class TestStatistics:
    @pytest.mark.parametrize("successes,trials", [(0, 10), (3, 10), (50, 100), (100, 100), (1, 1)])
    def test_wilson_matches_scipy(self, successes, trials):
        lo, hi = wilson_interval(successes, trials)
        ref = binomtest(successes, trials).proportion_ci(0.95, method="wilson")
        assert lo == pytest.approx(ref.low, abs=1e-12)
        assert hi == pytest.approx(ref.high, abs=1e-12)

    def test_wilson_degenerate(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)
        with pytest.raises(InputError):
            wilson_interval(5, 3)

    def test_mean_variance(self):
        data = [2.0, 4.0, 4.0, 7.0, 9.0]
        mu, var = mean_and_sample_variance(data)
        assert mu == pytest.approx(statistics.mean(data))
        assert var == pytest.approx(statistics.variance(data))
        assert mean_and_sample_variance([]) == (None, None)
        assert mean_and_sample_variance([3.5]) == (3.5, 0.0)


BLOWUP_RECIPE = {"kind": "blow_up", "base": {"kind": "complete", "n": 4}, "m": 2}
GADGET_PARAMS = {"mode": "gadget", "k": 12, "t": 11, "m": 4, "s": 3}  # ConstructionParams.thm4(12, 3)


def uncached(*recipes):
    """The build-cache keys of the recipes (no params), each dropped from
    the cache, so that a test can check that nothing builds them again."""
    keys = {harness._build_key(recipe, None) for recipe in recipes}
    for key in keys:
        harness._BUILD_CACHE.pop(key, None)
    return keys


# the fields of harness._KIND_FIELDS that each kind reads
READS = {
    "core_emptiness": {"t", "p", "first_rate"},
    "chromatic_tail": {"p", "budget"},
    "proposition_check": {"p", "k", "budget"},
    "thm3_sweep": {"p_sweep", "root"},
    "thm4_sweep": {"p_sweep", "root"},
    "product_colouring": {"parts", "budget"},
}
# a value off the default of each field of harness._KIND_FIELDS
OFF_DEFAULT = {"p": 0.5, "p_sweep": (0.5,), "first_rate": "1/30", "t": 2, "k": 3, "parts": 3,
               "budget": 10, "root": 1, "suite": "two_round"}


def core_config(**overrides):
    base = dict(
        kind="core_emptiness",
        trials=20,
        master_seed=7,
        graph=BLOWUP_RECIPE,
        t=7,
        p=0.5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_round_trip_through_json(self):
        cfg = core_config()
        again = ExperimentConfig.from_json(json.dumps(cfg.to_dict()))
        assert again == cfg

    def test_round_trip_with_params_and_sweep(self):
        cfg = ExperimentConfig(
            kind="thm3_sweep",
            trials=5,
            master_seed=11,
            graph={"kind": "random_regular", "n": 20, "d": 3, "seed": 0},
            params=ConstructionParams.thm3(12, 0.05),
            p_sweep=(0.0, 0.01, 0.2),
        )
        again = ExperimentConfig.from_json(json.dumps(cfg.to_dict()))
        assert again == cfg
        assert again.params.alpha == ConstructionParams.thm3(12, 0.05).alpha

    def test_config_file_round_trip(self, tmp_path):
        cfg = core_config(first_rate="1/30", p=None)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert load_config(path) == cfg

    def test_parsed_rate_stays_out_of_the_value(self):
        """The rate is parsed once per config, but ==, to_dict, replace
        and the pickle see the fields alone."""
        cfg = core_config(first_rate="1/30", p=None)
        assert cfg._first_rate == Fraction(1, 30)
        assert cfg._first_rate is cfg._first_rate
        assert "_first_rate" not in cfg.to_dict()
        assert cfg.__getstate__() == {f.name: getattr(cfg, f.name) for f in fields(cfg)}
        again = pickle.loads(pickle.dumps(cfg))
        assert again == cfg and "_first_rate" not in vars(again)
        assert again._first_rate == Fraction(1, 30)
        other = replace(cfg, first_rate="1/9")
        assert other._first_rate == Fraction(1, 9) and other != cfg

    def test_graph_key_is_made_once_per_config(self, monkeypatch):
        """The build cache's key is made once for all trials, and ==,
        to_dict and the pickle see the fields alone, as for the rate."""
        made = []
        build_key = harness._build_key
        monkeypatch.setattr(harness, "_build_key", lambda *args: made.append(args) or build_key(*args))
        cfg = core_config(graph={"kind": "complete", "n": 6}, t=2, trials=6)
        plain = pickle.loads(pickle.dumps(cfg))
        result = run_experiment(cfg)
        assert len(made) == 1 and not any(r.error for r in result.records)
        assert cfg._graph_key == build_key(cfg.graph, cfg.params)
        assert cfg == plain and cfg.to_dict() == plain.to_dict()
        assert cfg.__getstate__() == plain.__getstate__() and "_graph_key" not in vars(plain)
        # a replaced config makes its own key, once
        run_experiment(replace(cfg, master_seed=8))
        assert len(made) == 2

    def test_numpy_integer_fields_are_stored_as_ints(self):
        """A config takes the package's integer rule, numpy integers
        included, and stores each as the int it is, so its result is the
        plain config's to the byte."""
        plain = core_config(graph={"kind": "complete", "n": 6}, trials=3, master_seed=7, t=2)
        cfg = replace(plain, trials=np.int64(3), master_seed=np.uint64(7), t=np.int32(2))
        assert cfg == plain
        assert [type(getattr(cfg, name)) for name in ("trials", "master_seed", "t")] == [int] * 3
        assert ExperimentConfig.from_json(json.dumps(cfg.to_dict())) == plain
        assert run_experiment(cfg).text() == run_experiment(plain).text()

    def test_validation_errors(self):
        with pytest.raises(InputError):
            core_config(kind="nonsense")
        with pytest.raises(InputError):
            core_config(trials=0)
        with pytest.raises(InputError):
            core_config(p=1.5)
        with pytest.raises(InputError):
            core_config(p=None)  # neither p nor first_rate
        with pytest.raises(InputError):
            core_config(first_rate="1/30")  # both given
        with pytest.raises(InputError):
            core_config(first_rate="2/3", p=None)  # rate above 1/2
        with pytest.raises(InputError):
            core_config(master_seed=-1)
        for root in (-1, 1.0, "0", None):
            with pytest.raises(InputError):
                core_config(root=root)
        with pytest.raises(InputError):
            ExperimentConfig(kind="thm3_sweep", trials=1, master_seed=0,
                             graph={"kind": "cycle", "n": 5}, p_sweep=(0.3, 0.1))
        with pytest.raises(InputError):
            ExperimentConfig.from_dict({**core_config().to_dict(), "bogus": 1})
        # a field the kind does not read would be recorded in the result as if it were used
        for kind, extra, unread in [
            ("chromatic_tail", {"p": 0.5, "first_rate": "1/30", "p_sweep": (0.1, 0.2), "t": 3},
             "p_sweep, first_rate, t"),
            ("chromatic_tail", {"p": 0.5, "k": 8}, "k"),
            ("thm3_sweep", {"p_sweep": (0.1, 0.2), "p": 0.7}, "p"),
            ("thm4_sweep", {"p_sweep": (0.1, 0.2), "t": 2}, "t"),
            ("product_colouring", {"first_rate": "1/30"}, "first_rate"),
            ("core_emptiness", {"p": 0.5, "t": 2, "suite": "two_round"}, "suite"),
            ("core_emptiness", {"p": 0.5, "t": 2, "root": 3, "parts": 7, "budget": 9},
             "parts, budget, root"),
        ]:
            with pytest.raises(InputError, match=f"{kind}: does not read {unread}$"):
                ExperimentConfig(kind=kind, trials=2, master_seed=1,
                                 graph={"kind": "complete", "n": 8}, **extra)

    @pytest.mark.parametrize("field,value", [
        ("parts", 2.5), ("t", 2.5), ("k", 3.5), ("budget", "x"), ("budget", None),
        ("trials", True), ("trials", 2.0), ("root", False), ("parts", None),
        ("master_seed", True), ("master_seed", "7"),
    ])
    def test_integer_fields_reject_other_types(self, field, value):
        with pytest.raises(InputError, match=field):
            core_config(**{field: value})

    @pytest.mark.parametrize("overrides", [
        {"p": "0.5"},
        {"p": True},
        {"kind": "thm3_sweep", "p": None, "t": None, "p_sweep": ["0.1"]},
        {"kind": "thm3_sweep", "p": None, "t": None, "p_sweep": [False, True]},
        {"kind": "thm3_sweep", "p": None, "t": None, "p_sweep": 0.5},
        {"params": {"k": 12, "t": 5, "m": 4, "alpha": "3/100"}},
        {"params": {"mode": "expander-blowup", "k": 12, "t": 5, "m": 4, "alpha": "abc"}},
        {"params": {"mode": "expander-blowup", "k": 12, "t": 5, "m": 4, "alpha": "1/0"}},
        {"params": {"mode": "foo", "k": 12, "t": 5, "m": 4}},
        {"params": {"mode": "expander-blowup", "k": "12", "t": 5, "m": 4, "alpha": "1/200"}},
        {"params": {"mode": "expander-blowup", "k": 12, "t": 5.0, "m": 4}},
        {"params": {"mode": "expander-blowup", "k": 12, "t": 5, "m": "4"}},
        {"params": {"mode": "gadget", "k": 12, "t": 27, "m": 4, "s": True}},
        {"params": {"mode": "gadget", "k": 12, "t": 27, "m": 4, "alpha": "1/20"}},
        {"params": {"mode": "expander-blowup", "k": 12, "t": 4, "m": 4, "alpha": "0"}},
        {"params": {"mode": "expander-blowup", "k": 12, "t": 3, "m": 4, "alpha": "-1/10"}},
        {"params": {"mode": "gadget", "k": 12, "t": 27, "m": 4, "s": 0}},
        {"params": {"mode": "expander-blowup", "k": 12, "t": 16, "m": 4, "alpha": True}},
        {"params": {"mode": "expander-blowup", "k": 12, "t": 5, "m": 4, "alpha": "1/12", "s": 5}},
        {"graph": {"kind": "martian"}},
        {"graph": "complete"},
        {"graph": {**BLOWUP_RECIPE, "seed": 3}},
        {"graph": {"kind": "blow_up", "base": {"kind": "complete", "n": 4}}},
        {"graph": {"kind": "blow_up", "m": 2,
                   "base": {"kind": "cubic_expander", "n": 40, "seed": 1, "girthmin": 9}}},
        {"graph": {"kind": "blow_up", "m": 2,
                   "base": {"kind": "random_regular", "n": 20, "d": 3, "seed": "5"}}},
        {"graph": {"kind": "blow_up", "m": 2.5, "base": {"kind": "complete", "n": 4}}},
        {"graph": {"kind": "blow_up", "m": 2, "base": {"kind": "complete", "n": 4.0}}},
        {"graph": {"kind": "blow_up", "m": 2,
                   "base": {"kind": "random_regular", "n": 20, "d": True, "seed": 5}}},
        {"graph": {"kind": "gadget", "base": {"kind": "complete", "n": 4}}},
        {"graph": {"kind": "gadget", "base": {"kind": "complete", "n": 4}},
         "params": GADGET_PARAMS},
        {"graph": {"kind": "blow_up", "m": 2,
                   "base": {"kind": "two_regular_digraph", "n": 4, "seed": 0}}},
        *({"graph": {"kind": "blow_up", "m": 2, "base": base}} for base in (
            {"kind": "cubic_expander", "n": 20, "seed": 1, "girth_min": "6"},
            {"kind": "cubic_expander", "n": 20, "seed": 1, "girth_min": True},
            {"kind": "cubic_expander", "n": 20, "seed": 1, "girth_min": 2.5},
            {"kind": "cubic_expander", "n": 20, "seed": 1, "lambda2_max": "2.9"},
            {"kind": "cubic_expander", "n": 20, "seed": 1, "lambda2_max": False},
            {"kind": "file", "path": 0},
            {"kind": "file", "path": 5},
            {"kind": "random", "n": 6, "density": 1.5, "seed": 1},
            {"kind": "random", "n": 6, "density": "0.5", "seed": 1},
            {"kind": "random", "n": 6, "density": True, "seed": 1},
        )),
        {"budget": 0},
        {"suite": "two_round"},
        {"k": 4},
        {"root": 1},
        {"kind": "chromatic_tail", "t": None, "parts": 3},
        {"kind": "thm3_sweep", "p": None, "t": None, "p_sweep": [0.5], "budget": 10},
        {"kind": "product_colouring", "p": None, "t": None, "root": 1},
        {"kind": "proposition_check", "t": None, "k": 1},
        {"kind": "proposition_check", "t": None, "k": -3},
        {"regime_metadata": {**core_config().regime_metadata, "in_asymptotic_regime": True}},
    ], ids=["p-str", "p-bool", "sweep-str", "sweep-bool", "sweep-scalar",
            "params-missing-mode", "params-bad-alpha", "params-zero-denominator",
            "params-unknown-mode", "params-k-str", "params-t-float", "params-m-str",
            "params-s-bool", "params-gadget-without-s", "params-alpha-zero",
            "params-alpha-negative", "params-gadget-s-zero", "params-alpha-bool",
            "params-blowup-with-s", "recipe-unknown-kind",
            "recipe-not-a-dict", "recipe-unknown-field", "recipe-missing-field",
            "recipe-misspelt-base-field", "recipe-base-seed-str", "recipe-m-float", "recipe-base-n-float",
            "recipe-base-d-bool", "recipe-gadget-without-params",
            "recipe-gadget-undirected-base", "recipe-blow-up-digraph-base",
            "recipe-girth-min-str", "recipe-girth-min-bool", "recipe-girth-min-float",
            "recipe-lambda2-max-str", "recipe-lambda2-max-bool", "recipe-path-zero",
            "recipe-path-int", "recipe-density-above-one", "recipe-density-str",
            "recipe-density-bool", "budget-zero", "suite-set", "unread-k", "unread-root",
            "unread-parts", "unread-budget", "unread-root-of-a-product", "proposition-k-one",
            "proposition-k-negative", "regime-false-report"])
    def test_values_from_outside_are_checked(self, overrides):
        # without the base config's report, so that only the overrides are at fault
        base = core_config().to_dict()
        del base["regime_metadata"]
        with pytest.raises(InputError):
            ExperimentConfig.from_dict({**base, **overrides})

    @pytest.mark.parametrize("kind", sorted(KIND_FIELDS))
    def test_a_field_at_its_default_counts_as_unset(self, kind):
        """A kind takes each field it does not read at that field's
        default, as every to_dict writes it, and refuses any other value."""
        row = harness._KINDS[kind]
        assert {name for field in row.needs + row.optional for name in field.split("|")} == READS[kind]
        graph = ({"kind": "two_regular_digraph", "n": 6, "seed": 0} if kind == "thm4_sweep"
                 else {"kind": "complete", "n": 4})
        plain = ExperimentConfig(kind=kind, trials=2, master_seed=1, graph=graph, **KIND_FIELDS[kind])
        defaults = {f.name: f.default for f in fields(ExperimentConfig)}
        assert set(OFF_DEFAULT) == set(harness._KIND_FIELDS)
        for name, value in OFF_DEFAULT.items():
            if name in READS[kind]:
                continue
            assert replace(plain, **{name: defaults[name]}) == plain
            with pytest.raises(InputError, match=f"^{kind}: does not read {name}$"):
                replace(plain, **{name: value})

    def test_recipe_options_take_null_and_any_real_number(self):
        for options in ({"girth_min": None, "lambda2_max": 3}, {"girth_min": 4, "lambda2_max": 2.95}):
            recipe = {"kind": "cubic_expander", "n": 12, "seed": 1, **options}
            assert build_graph(recipe)[0].regular_degree() == 3
        assert build_graph({"kind": "random", "n": 5, "density": 1, "seed": 1})[0].m == 10

    @pytest.mark.parametrize("field", ["kind", "trials", "master_seed"])
    def test_required_fields_are_checked(self, field):
        d = core_config().to_dict()
        del d[field]
        with pytest.raises(InputError, match=f"missing config fields: \\['{field}'\\]"):
            ExperimentConfig.from_dict(d)

    def test_a_proposition_check_reads_k_or_a_complete_graph(self):
        base = {"kind": "proposition_check", "trials": 3, "master_seed": 1, "p": 0.5}
        with pytest.raises(InputError, match="needs k unless the graph is complete"):
            ExperimentConfig.from_dict({**base, "graph": {"kind": "cycle", "n": 6}})
        for extra in ({"graph": {"kind": "cycle", "n": 6}, "k": 3},
                      {"graph": {"kind": "complete", "n": 6}}):
            cfg = ExperimentConfig.from_json(json.dumps({**base, **extra}))
            assert run_experiment(cfg).aggregate["errors"] == 0

    def test_a_directly_built_proposition_check_needs_k(self):
        # one rule for a config however it is made, not a failure in every trial
        with pytest.raises(InputError, match="needs k unless the graph is complete"):
            ExperimentConfig(kind="proposition_check", trials=3, master_seed=1,
                             graph={"kind": "cycle", "n": 6}, p=0.5)

    def test_config_that_is_not_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(InputError, match="not valid JSON"):
            load_config(path)

    def test_regime_metadata_is_truthful(self):
        report = asymptotic_regime_report(ConstructionParams.thm3(12, 0.09), 200)
        assert not report["in_asymptotic_regime"]
        want = 12**3 * math.log10(3 / (9 / 100))
        assert report["required_log10_n"] == pytest.approx(want)
        notes = " | ".join(report["notes"])
        assert "below the asymptotic requirement" in notes
        assert "not below the regime cap 1/100" in notes

        # alpha and s both inside the gadget regime: only the size fails
        gadget = asymptotic_regime_report(ConstructionParams.thm4(80, 40, "1/20"), 10)
        assert not gadget["in_asymptotic_regime"]
        assert len(gadget["notes"]) == 1
        assert "below the asymptotic requirement" in gadget["notes"][0]
        # s far below 2/alpha gets its own note
        off = asymptotic_regime_report(ConstructionParams.thm4(64, 16, "1/20"), 10)
        assert any("s=16 outside" in n for n in off["notes"])

        bare = asymptotic_regime_report(None, None)
        assert not bare["in_asymptotic_regime"]
        assert bare["required_log10_n"] is None

        cfg = core_config()
        assert cfg.regime_metadata["notes"][0].startswith("no construction parameters")
        # derived, so no argument, and replace() derives it again
        with pytest.raises(TypeError, match="regime_metadata"):
            core_config(regime_metadata=cfg.regime_metadata)
        params = ConstructionParams.thm3(12, 0.09)
        assert replace(cfg, params=params).regime_metadata == asymptotic_regime_report(params, None)


class TestBuildGraph:
    def test_basic_recipes(self):
        g, layout = build_graph({"kind": "complete", "n": 5})
        assert g.m == 10 and layout is None
        g, _ = build_graph({"kind": "cycle", "n": 6})
        assert g.m == 6
        g, layout = build_graph(BLOWUP_RECIPE)
        assert g.n == 8 and layout.m == 2

    def test_random_recipe_is_seed_deterministic(self):
        a, _ = build_graph({"kind": "random", "n": 12, "density": 0.5, "seed": 3})
        b, _ = build_graph({"kind": "random", "n": 12, "density": 0.5, "seed": 3})
        c, _ = build_graph({"kind": "random", "n": 12, "density": 0.5, "seed": 4})
        assert a == b
        assert a != c

    def test_file_recipe(self, tmp_path):
        g = Graph(3, [(0, 1), (1, 2)])
        path = tmp_path / "g.txt"
        save_graph(g, path)
        back, _ = build_graph({"kind": "file", "path": str(path)})
        assert back == g

    def test_recipe_errors(self):
        with pytest.raises(InputError):
            build_graph({"kind": "martian"})
        with pytest.raises(InputError):
            build_graph({"kind": "complete"})
        with pytest.raises(InputError):
            build_graph({"n": 4})
        with pytest.raises(InputError):
            build_graph({"kind": "gadget", "base": {"kind": "complete", "n": 3}})
        # a misspelt optional field would otherwise be dropped: this graph has girth 4
        with pytest.raises(InputError, match="girthmin"):
            build_graph({"kind": "cubic_expander", "n": 40, "seed": 1, "girthmin": 9})
        with pytest.raises(InputError, match="martian"):
            core_config(graph={"kind": "martian"})
        with pytest.raises(InputError, match="needs 'seed'"):  # a base is never seeded per trial
            core_config(graph={"kind": "blow_up", "m": 2,
                               "base": {"kind": "random_regular", "n": 20, "d": 3}})
        # the config checks its recipe, base included, and builds nothing; a
        # random recipe without a seed stays allowed
        base = {"kind": "random_regular", "n": 22, "d": 3, "seed": 5}
        recipes = [{"kind": "blow_up", "m": 2, "base": base},
                   {"kind": "random_regular", "n": 20, "d": 3},
                   {"kind": "file", "path": "no-such-file.txt"}]
        keys = uncached(base, *recipes)
        for recipe in recipes:
            core_config(graph=recipe)
        assert not keys & harness._BUILD_CACHE.keys()

    def test_base_must_build_the_graph_type_its_recipe_needs(self, tmp_path):
        # a blow-up takes a graph, a gadget a digraph: a known base is
        # checked at load, a file base when it is read
        params = ConstructionParams.thm4(12, 3)
        assert params == harness._params_from_dict(GADGET_PARAMS)
        digraph = {"kind": "two_regular_digraph", "n": 4, "seed": 0}
        gadget = build_graph({"kind": "gadget", "base": digraph}, params)[0]
        assert gadget.n == params.m * (params.s + 3) * 4
        with pytest.raises(InputError, match="'blow_up' needs a base that builds a Graph"):
            build_graph({"kind": "blow_up", "m": 2, "base": digraph})
        with pytest.raises(InputError, match="'gadget' needs a base that builds a DiGraph"):
            build_graph({"kind": "gadget", "base": {"kind": "complete", "n": 4}}, params)
        graph_file, digraph_file = tmp_path / "g.txt", tmp_path / "h.txt"
        save_graph(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), graph_file)
        save_graph(build_graph(digraph)[0], digraph_file)
        wrong = [({"kind": "blow_up", "m": 2, "base": {"kind": "file", "path": str(digraph_file)}},
                  None, "Graph, got a DiGraph"),
                 ({"kind": "gadget", "base": {"kind": "file", "path": str(graph_file)}},
                  params, "DiGraph, got a Graph")]
        for recipe, recipe_params, message in wrong:
            cfg = core_config(graph=recipe, params=recipe_params, t=2)  # loads: no file is read
            with pytest.raises(InputError, match=message):
                build_graph(recipe, recipe_params)
            errors = {r.error for r in run_experiment(replace(cfg, trials=2)).records}
            assert len(errors) == 1 and errors.pop().startswith("InputError: ")
        right = {"kind": "blow_up", "m": 2, "base": {"kind": "file", "path": str(graph_file)}}
        assert build_graph(right)[0].n == 8

    @pytest.mark.parametrize("seed", ["5", 5.0, True])
    def test_recipe_seed_must_be_an_int(self, seed):
        # RngStream("5") would hash like RngStream(5) and give seed 5's graph
        with pytest.raises(InputError, match="seed"):
            build_graph({"kind": "random_regular", "n": 20, "d": 3, "seed": seed})
        nested = {"kind": "blow_up", "m": 2,
                  "base": {"kind": "random_regular", "n": 20, "d": 3, "seed": seed}}
        with pytest.raises(InputError, match="seed"):
            build_graph(nested)

    @pytest.mark.parametrize("kind", sorted(KIND_FIELDS))
    def test_kind_rejects_a_recipe_of_the_other_graph_type_at_load(self, kind):
        # thm4_sweep spreads over arcs, every other kind samples edges
        takes, other = ("DiGraph", "Graph") if kind == "thm4_sweep" else ("Graph", "DiGraph")
        recipes = ([{"kind": "complete", "n": 4}, {"kind": "cycle", "n": 5}] if other == "Graph" else
                   [{"kind": "two_regular_digraph", "n": 6, "seed": 0},
                    {"kind": "two_regular_digraph", "n": 6}])
        keys = uncached(*recipes)
        for recipe in recipes:
            with pytest.raises(InputError, match=f"experiment kind '{kind}' needs a graph recipe "
                                                 f"that builds a {takes}, got a {other}"):
                ExperimentConfig(kind=kind, trials=2, master_seed=1, graph=recipe,
                                 **KIND_FIELDS[kind])
        assert not keys & harness._BUILD_CACHE.keys()

    @pytest.mark.parametrize("kind", sorted(KIND_FIELDS))
    def test_kind_on_a_file_of_the_other_graph_type_records_an_input_error(self, kind, tmp_path):
        # a file's graph type is known only once it is read, so each trial
        # records the error; a file of the right type runs
        graph_file, digraph_file = tmp_path / "g.txt", tmp_path / "h.txt"
        save_graph(complete_graph(5), graph_file)
        save_graph(build_graph({"kind": "two_regular_digraph", "n": 6, "seed": 0})[0], digraph_file)
        if kind == "thm4_sweep":
            takes, other, right, wrong = "DiGraph", "Graph", digraph_file, graph_file
        else:
            takes, other, right, wrong = "Graph", "DiGraph", graph_file, digraph_file
        cfg = ExperimentConfig(kind=kind, trials=3, master_seed=1,
                               graph={"kind": "file", "path": str(wrong)}, **KIND_FIELDS[kind])
        errors = [r.error for r in run_experiment(cfg).records]
        assert errors == [f"InputError: {kind} needs a {takes}, got a {other}"] * 3
        result = run_experiment(replace(cfg, graph={"kind": "file", "path": str(right)}))
        assert result.aggregate["errors"] == 0


class TestTrials:
    def test_stream_ids_distinct_and_stable(self):
        cfg = core_config()
        ids = {run_trial(cfg, i).stream_id for i in range(10)}
        assert len(ids) == 10
        assert run_trial(cfg, 3).stream_id == f"{trial_stream(cfg, 3).key():016x}"

    def test_trial_error_is_recorded_not_raised(self):
        cfg = ExperimentConfig(
            kind="proposition_check",
            trials=3,
            master_seed=1,
            graph={"kind": "complete", "n": 45},  # every sample is past the exact solver's n cap
            p=0.5,
        )
        rec = run_trial(cfg, 0)
        assert rec.error is not None and "CapacityError" in rec.error
        result = run_experiment(cfg)
        assert result.aggregate["errors"] == 3
        assert result.aggregate["valid_trials"] == 0

    def test_programming_errors_raise(self, monkeypatch):
        def broken(config, stream):
            raise TypeError("a bug, not a trial outcome")

        row = harness._KINDS["core_emptiness"]._replace(trial=broken)
        monkeypatch.setitem(harness._KINDS, "core_emptiness", row)
        with pytest.raises(TypeError, match="a bug"):
            run_trial(core_config(), 0)

    @pytest.mark.parametrize(
        "error", [InputError, CapacityError, GenerationError, ConstructionError, ConvergenceError]
    )
    def test_package_errors_are_recorded(self, monkeypatch, error):
        def failing(config, stream):
            raise error("no luck")

        assert issubclass(error, RandcolError)
        assert issubclass(error, ValueError) == (error in (InputError, CapacityError))
        row = harness._KINDS["core_emptiness"]._replace(trial=failing)
        monkeypatch.setitem(harness._KINDS, "core_emptiness", row)
        assert run_trial(core_config(), 0).error == f"{error.__name__}: no luck"

    def test_blow_up_record_holds_python_numbers(self):
        # a numpy integer or bool in the values would break the result file
        values = run_trial(core_config(t=3), 0).values
        assert set(values) == {"core_size", "empty", "kept_edges", "dead_supers"}
        assert [type(values[k]) for k in ("core_size", "kept_edges", "dead_supers")] == [int] * 3
        assert type(values["empty"]) is bool
        assert json.loads(json.dumps(values)) == values

    @pytest.mark.parametrize("kind,extra", [
        ("core_emptiness", {"t": 2, "p": 0.5}),
        ("chromatic_tail", {"p": 0.5}),
    ])
    def test_unseeded_recipes_get_a_graph_per_trial(self, kind, extra):
        # every kind builds its graph the one way: no seed, a fresh graph
        cfg = ExperimentConfig(kind=kind, trials=2, master_seed=5,
                               graph={"kind": "random_regular", "n": 20, "d": 3}, **extra)
        res = run_experiment(cfg)
        assert res.aggregate["errors"] == 0

    def test_wall_time_not_serialized(self):
        rec = run_trial(core_config(), 0)
        assert rec.wall_time > 0
        assert "wall_time" not in rec.to_dict()


class TestExperiments:
    def test_core_emptiness_blowup_example(self):
        # 6-regular graph: its 7-core is empty whatever survives
        res = run_experiment(core_config(trials=100))
        block = res.aggregate["empty_core"]
        assert block["proportion"] == 1.0
        assert block["wilson_95"][0] > 0.95
        assert res.aggregate["core_size_mean"] == 0.0

    def test_core_emptiness_two_round(self):
        res = run_experiment(core_config(first_rate="1/30", p=None, t=1, trials=30))
        assert res.aggregate["valid_trials"] == 30
        kept = [r.values["kept_edges"] for r in res.records]
        assert 0 < sum(kept) / len(kept) < 24  # half of 24 edges on average

    def test_chromatic_tail(self):
        cfg = ExperimentConfig(
            kind="chromatic_tail",
            trials=40,
            master_seed=5,
            graph={"kind": "complete", "n": 8},
            p=0.5,
        )
        res = run_experiment(cfg)
        agg = res.aggregate
        assert agg["all_exact"]
        assert 2.0 <= agg["chi_mean"] <= 8.0
        assert sum(agg["chi_histogram"].values()) == 40

    def test_proposition_check(self):
        cfg = ExperimentConfig(
            kind="proposition_check",
            trials=30,
            master_seed=9,
            graph={"kind": "complete", "n": 12},
            p=0.5,
        )
        res = run_experiment(cfg)
        assert res.aggregate["bound_holds"]["proportion"] == 1.0
        assert res.aggregate["bound"] == pytest.approx(0.5 * 12 / (2 * math.log(12)))

    def test_thm3_sweep(self):
        cfg = ExperimentConfig(
            kind="thm3_sweep",
            trials=25,
            master_seed=3,
            graph={"kind": "random_regular", "n": 40, "d": 3, "seed": 0},
            p_sweep=(0.0, 0.3, 0.9),
        )
        res = run_experiment(cfg)
        agg = res.aggregate
        assert agg["monotone"]["proportion"] == 1.0
        assert agg["fixpoint_ok"]["proportion"] == 1.0
        means = [row["v0_mean"] for row in agg["per_p"]]
        assert means[0] >= means[1] >= means[2]
        for rec in res.records:
            assert rec.values["v0_sizes"][0] == rec.values["component_size"]

    def test_thm4_sweep(self):
        cfg = ExperimentConfig(
            kind="thm4_sweep",
            trials=20,
            master_seed=3,
            graph={"kind": "two_regular_digraph", "n": 40, "seed": 0},
            p_sweep=(0.0, 0.5),
        )
        res = run_experiment(cfg)
        assert res.aggregate["monotone"]["proportion"] == 1.0
        assert res.aggregate["fixpoint_ok"]["proportion"] == 1.0
        for rec in res.records:
            assert rec.values["v0_sizes"][0] == rec.values["reachable_size"]

    def test_product_colouring_fresh_graph_per_trial(self):
        cfg = ExperimentConfig(
            kind="product_colouring",
            trials=25,
            master_seed=17,
            graph={"kind": "random", "n": 9, "density": 0.5},
            parts=2,
        )
        res = run_experiment(cfg)
        assert res.aggregate["inequality_holds"]["proportion"] == 1.0
        assert res.aggregate["min_margin"] >= 0
        assert len({tuple(r.values["part_chis"]) for r in res.records}) > 1

    def test_per_trial_graphs_stay_out_of_the_build_cache(self):
        cfg = ExperimentConfig(
            kind="product_colouring",
            trials=20,
            master_seed=23,
            graph={"kind": "random", "n": 8, "density": 0.5},
            parts=2,
        )
        keys = uncached(*(dict(cfg.graph, seed=trial_stream(cfg, i).child("graph-seed").key())
                          for i in range(cfg.trials)))
        res = run_experiment(cfg)
        assert res.aggregate["errors"] == 0
        assert not keys & harness._BUILD_CACHE.keys()


# sha256 of result texts that no acceptance criterion pins: a one-round
# core_emptiness run (sample_subgraph, then the peel of the sampled view),
# a product_colouring run (partition_split, then the exact solver over
# each part's CSR), a chromatic_tail and a proposition_check run (the
# exact solver on samples of complete graphs), and a proposition_check
# run whose every trial records a CapacityError (the aggregate over no
# good records)
RESULT_GOLDEN = {
    "core_emptiness": "e519dce6067b4e24c89cefa57dd0d80a96398d4e1efa5197868262ff328c99c2",
    "product_colouring": "1587f63ba53e30b15467ae3de85b4eaa6b0e319d4bf668abae29afeb9f25d252",
    "chromatic_tail": "07f7a401fd671f5a3feb867e3061d69cf428f95dcf378cca00f5addee668a9b3",
    "proposition_check": "eb89e37726e447cd429d072671f594e0c0529f63404e0e0d6abbda990aa5c596",
    "proposition_check_all_errors": "466ad9a72f5b8e8451e6fa6b5e13a9260d8a3cee22bc9a47a8a5829435adf022",
}

PINNED_CONFIGS = {
    "core_emptiness": core_config(t=3, trials=30),
    "product_colouring": ExperimentConfig(
        kind="product_colouring",
        trials=25,
        master_seed=17,
        graph={"kind": "random", "n": 9, "density": 0.5},
        parts=2,
    ),
    "chromatic_tail": ExperimentConfig(
        kind="chromatic_tail", trials=40, master_seed=5, graph={"kind": "complete", "n": 8}, p=0.5
    ),
    "proposition_check": ExperimentConfig(
        kind="proposition_check", trials=30, master_seed=9, graph={"kind": "complete", "n": 12}, p=0.5
    ),
    # every sample of K_45 is past the exact solver's n cap, so every trial fails
    "proposition_check_all_errors": ExperimentConfig(
        kind="proposition_check", trials=3, master_seed=1, graph={"kind": "complete", "n": 45}, p=0.5
    ),
}


@pytest.mark.parametrize("kind", sorted(RESULT_GOLDEN))
def test_result_text_is_pinned(kind):
    text = run_experiment(PINNED_CONFIGS[kind]).text()
    assert hashlib.sha256(text.encode()).hexdigest() == RESULT_GOLDEN[kind], (
        f"the pinned {kind} run's result text changed bytes; if the move is deliberate, "
        f"update its digest in RESULT_GOLDEN and give the reason in CHANGES.md"
    )


@pytest.mark.parametrize("kind", sorted(PINNED_CONFIGS))
def test_a_pinned_config_loads_back_from_its_own_dict(kind):
    # to_dict writes every field, those the kind does not read at their defaults
    cfg = PINNED_CONFIGS[kind]
    back = ExperimentConfig.from_json(json.dumps(cfg.to_dict()))
    assert back == cfg and back.regime_metadata == cfg.regime_metadata
    # a given regime_metadata is checked against the derived one, and may be left out
    d = cfg.to_dict()
    d["regime_metadata"]["in_asymptotic_regime"] = True
    with pytest.raises(InputError, match="^regime_metadata must be the report of params and graph"):
        ExperimentConfig.from_dict(d)
    del d["regime_metadata"]
    assert ExperimentConfig.from_dict(d) == cfg


def test_every_kind_has_a_result_pin():
    pinned = {cfg.kind for cfg in PINNED_CONFIGS.values()}
    # criteria 10 (two-round core_emptiness), 07 and 08 pin these result texts
    for kind, digest in [("core_emptiness", CORE_DEATH_GOLDEN), ("thm3_sweep", THM3_SWEEP_GOLDEN),
                         ("thm4_sweep", THM4_SWEEP_GOLDEN)]:
        assert len(digest) == 64
        pinned.add(kind)
    assert set(harness._KINDS) <= pinned, "a new experiment kind needs a result pin"


class TestOutputs:
    def test_byte_identical_runs(self, tmp_path):
        cfg = core_config(trials=10)
        a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        run_experiment(cfg, out_path=a)
        run_experiment(cfg, out_path=b)
        assert a.read_bytes() == b.read_bytes()

    def test_parallel_output_matches_serial(self, tmp_path, monkeypatch):
        cfg = core_config(trials=12)
        serial = run_experiment(cfg).text()
        monkeypatch.setenv("RANDCOL_THREADS", "3")
        parallel = run_experiment(cfg).text()
        assert parallel == serial

    def test_workers_are_capped_by_the_cpus(self, monkeypatch):
        # the pool starts every worker at once, so the count never passes the CPUs;
        # this asks for the count alone and starts no process
        monkeypatch.setenv("RANDCOL_THREADS", "4096")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert harness._worker_count(10**6) == 2
        assert harness._worker_count(1) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert harness._worker_count(10**6) == 1

    def test_bad_thread_env(self, monkeypatch):
        monkeypatch.setenv("RANDCOL_THREADS", "many")
        with pytest.raises(InputError):
            run_experiment(core_config(trials=2))

    def test_result_file_reload_and_recompute(self, tmp_path):
        cfg = core_config(trials=15)
        path = tmp_path / "res.ndjson"
        result = run_experiment(cfg, out_path=path)
        records, aggregate = load_result(path)
        assert len(records) == 15
        assert aggregate == result.aggregate
        assert recompute_aggregate(cfg, records) == aggregate

    @pytest.mark.parametrize("line", [
        json.dumps({"index": 0, "values": {"x": 1}, "error": None}),
        "{not json",
        json.dumps([0, "ab", {"x": 1}, None]),
    ], ids=["no-stream-id", "not-json", "json-array"])
    def test_malformed_result_line_names_the_file_and_line(self, tmp_path, line):
        path = tmp_path / "broken.ndjson"
        rec = TrialRecord(0, "ab", {"x": 1})
        path.write_text(json.dumps(rec.to_dict()) + "\n" + line + "\n"
                        + json.dumps({"aggregate": {}}) + "\n")
        with pytest.raises(InputError, match=rf"^{re.escape(str(path))}: line 2 "):
            load_result(path)

    @pytest.mark.parametrize("load", [load_config, load_result])
    def test_text_that_is_not_utf8_is_an_input_error(self, tmp_path, load):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"kind": "café"}\n'.encode("latin-1"))
        with pytest.raises(InputError, match="not UTF-8"):
            load(path)

    # a record line is (index, values, *(field, value) pairs over the written record);
    # a dict is written as it is
    @pytest.mark.parametrize("lines,problem", [
        ([(0, {"x": 1}), "aggregate", "aggregate"], "line 3 is a second aggregate line"),
        ([(0, [1]), "aggregate"], "line 1: a record needs an integer index"),
        ([("0", {"x": 1}), "aggregate"], "line 1: a record needs an integer index"),
        ([(0, {"x": 1}), (0, {"x": 2}), "aggregate"], "line 2 repeats trial index 0"),
        ([(0, {"x": 1}), "aggregate", (1, {"x": 2})],
         "line 3 is a trial record after the aggregate line"),
        ([(0, {}, ("stream_id", 5)), "aggregate"], "line 1: a record needs .* a string stream_id"),
        ([(0, {}, ("error", 3)), "aggregate"], "line 1: a record needs .* a string or null error"),
        ([(0, {}, ("extra", 1)), "aggregate"], "line 1 is neither a trial record nor the aggregate"),
        ([{"index": 0, "stream_id": "ab", "values": {}}, "aggregate"],
         "line 1 is neither a trial record nor the aggregate"),
        ([(0, {}), {"aggregate": 5, "index": 3}],
         "line 2 is neither a trial record nor the aggregate"),
        ([(0, {}), {"aggregate": 5}], "line 2 is neither a trial record nor the aggregate"),
    ], ids=["two-aggregates", "list-values", "str-index", "repeated-index",
            "record-after-aggregate", "int-stream-id", "int-error", "extra-key",
            "no-error-key", "aggregate-with-a-record-key", "aggregate-not-an-object"])
    def test_a_result_no_run_writes_names_the_file_and_line(self, tmp_path, lines, problem):
        path = tmp_path / "broken.ndjson"
        path.write_text("".join(
            json.dumps({"aggregate": {}} if line == "aggregate" else line if isinstance(line, dict)
                       else {"index": line[0], "stream_id": "ab", "values": line[1],
                             "error": None, **dict(line[2:])})
            + "\n" for line in lines))
        with pytest.raises(InputError, match=rf"^{re.escape(str(path))}: {problem}"):
            load_result(path)

    def test_missing_aggregate_line(self, tmp_path):
        path = tmp_path / "broken.ndjson"
        rec = TrialRecord(0, "ab", {"x": 1})
        path.write_text(json.dumps(rec.to_dict()) + "\n")
        with pytest.raises(InputError):
            load_result(path)


def test_start_up_loads_no_scipy_and_no_process_pool():
    """`import randcol` loads numpy and the standard library only, and a
    core_emptiness run on a blow-up (one worker) loads no scipy either:
    scipy serves the eigensolver and the binomial tail alone (the
    chi-square test, which loads none, has its own check in test_verify).
    Nor does a run load numpy.ma, which a plain np.unique imports, on a
    complete base or on a random regular one (as core_death's recipe),
    whose generator checks repeated stub pairs."""
    regular_base = {"kind": "blow_up", "m": 2,
                    "base": {"kind": "random_regular", "n": 20, "d": 3, "seed": 1}}
    code = (
        "import sys, randcol\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma'])\n"
        "pools = ('multiprocessing', 'concurrent.futures.process')\n"
        "print(loaded(), sorted(m for m in pools if m in sys.modules))\n"
        f"for graph in ({BLOWUP_RECIPE!r}, {regular_base!r}):\n"
        "    cfg = randcol.ExperimentConfig(kind='core_emptiness', trials=3, master_seed=7,\n"
        "                                   graph=graph, t=3, first_rate='1/30')\n"
        "    assert len(randcol.run_experiment(cfg).records) == 3\n"
        "    print(loaded())\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "RANDCOL_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.splitlines() == ["[] []", "[]", "[]"]
