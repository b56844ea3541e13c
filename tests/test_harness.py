import csv
import json
import math
import statistics

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
from randcol.graphs import Graph, load_graph, save_graph
from randcol.harness import (
    ExperimentConfig,
    TrialRecord,
    asymptotic_regime_report,
    build_graph,
    export_csv,
    load_config,
    load_result,
    mean_and_sample_variance,
    recompute_aggregate,
    run_experiment,
    run_trial,
    save_config,
    trial_stream,
    wilson_interval,
)


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
        again = ExperimentConfig.from_json(cfg.to_json())
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
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg
        assert again.params.alpha == ConstructionParams.thm3(12, 0.05).alpha

    def test_config_file_round_trip(self, tmp_path):
        cfg = core_config(first_rate="1/30", p=None)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

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

    @pytest.mark.parametrize("field,value", [
        ("parts", 2.5), ("t", 2.5), ("k", 3.5), ("budget", "x"), ("budget", None),
        ("trials", True), ("trials", 2.0), ("root", False), ("parts", None),
        ("master_seed", True), ("master_seed", "7"),
    ])
    def test_integer_fields_reject_other_types(self, field, value):
        with pytest.raises(InputError, match=field):
            core_config(**{field: value})

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

    @pytest.mark.parametrize("seed", ["5", 5.0, True])
    def test_recipe_seed_must_be_an_int(self, seed):
        # RngStream("5") would hash like RngStream(5) and give seed 5's graph
        with pytest.raises(InputError, match="seed"):
            build_graph({"kind": "random_regular", "n": 20, "d": 3, "seed": seed})
        nested = {"kind": "blow_up", "m": 2,
                  "base": {"kind": "random_regular", "n": 20, "d": 3, "seed": seed}}
        with pytest.raises(InputError, match="seed"):
            build_graph(nested)


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
            graph={"kind": "cycle", "n": 8},  # not complete and no k
            p=0.5,
        )
        rec = run_trial(cfg, 0)
        assert rec.error is not None and "InputError" in rec.error
        result = run_experiment(cfg)
        assert result.aggregate["errors"] == 3
        assert result.aggregate["valid_trials"] == 0

    def test_programming_errors_raise(self, monkeypatch):
        def broken(config, stream):
            raise TypeError("a bug, not a trial outcome")

        monkeypatch.setitem(harness._TRIAL_FUNCS, "core_emptiness", broken)
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
        monkeypatch.setitem(harness._TRIAL_FUNCS, "core_emptiness", failing)
        assert run_trial(core_config(), 0).error == f"{error.__name__}: no luck"

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
        before = len(harness._BUILD_CACHE)
        res = run_experiment(cfg)
        assert res.aggregate["errors"] == 0
        assert len(harness._BUILD_CACHE) == before


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

    def test_missing_aggregate_line(self, tmp_path):
        path = tmp_path / "broken.ndjson"
        rec = TrialRecord(0, "ab", {"x": 1})
        path.write_text(json.dumps(rec.to_dict()) + "\n")
        with pytest.raises(InputError):
            load_result(path)

    def test_csv_projection(self, tmp_path):
        cfg = core_config(trials=6)
        result = run_experiment(cfg)
        path = tmp_path / "out.csv"
        export_csv(result, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert rows[0]["index"] == "0"
        assert rows[0]["empty"] == "True"
        assert rows[3]["stream_id"] == result.records[3].stream_id
