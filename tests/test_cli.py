import hashlib
import json

import numpy as np
import pytest

from randcol.cli import main
from randcol.colouring import t_core
from randcol.graphs import DiGraph, Graph, load_graph, save_graph
from randcol.harness import ExperimentConfig

from helpers import KIND_FIELDS


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def last_json(stdout: str):
    return json.loads(stdout)


def assert_pinned(stdout: str, digest: str, command: str):
    """The JSON a command printed has the sha256 digest."""
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest, (
        f"`randcol {command}` printed different JSON bytes; if the move is deliberate, "
        f"update its digest here and give the reason in CHANGES.md"
    )


class TestGenerate:
    def test_regular_graph(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        code, stdout, _ = run_cli(capsys, "generate", "--n", "12", "--d", "3", "--seed", "0", "--out", str(out))
        assert code == 0
        info = last_json(stdout)
        assert info["n"] == 12 and info["m"] == 18
        g = load_graph(out)
        assert isinstance(g, Graph) and g.regular_degree() == 3

    def test_expander_with_filters(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        code, stdout, _ = run_cli(
            capsys, "generate", "--n", "14", "--d", "3", "--seed", "7",
            "--lambda2-max", "2.9", "--girth-min", "4", "--out", str(out),
        )
        assert code == 0
        info = last_json(stdout)
        assert info["kind"] == "cubic_expander"
        assert info["lambda2"] <= 2.9

    @pytest.mark.parametrize("flags,want", [
        (("--n", "14", "--seed", "7", "--lambda2-max", "2.9", "--girth-min", "4"),
         {"girth_min_checked": 4, "lambda2": 2.006613126311028, "m": 21, "n": 14}),
        (("--n", "20", "--seed", "1", "--lambda2-max", "2.9"),
         {"girth_min_checked": 6, "lambda2": 1.9354323319700304, "m": 30, "n": 20}),
        (("--n", "14", "--seed", "7", "--girth-min", "0"),
         {"girth_min_checked": 0, "lambda2": 2.5736724350762876, "m": 21, "n": 14}),
    ], ids=["both-filters", "default-girth", "girth-zero"])
    def test_expander_prints_its_filters_and_lambda2(self, tmp_path, capsys, flags, want):
        # every key and value, lambda2 to the bit; girth_min_checked is
        # the filter the search applied, 6 unless --girth-min is given
        out = tmp_path / "x.txt"
        code, stdout, _ = run_cli(capsys, "generate", *flags, "--out", str(out))
        assert code == 0
        assert last_json(stdout) == {**want, "kind": "cubic_expander", "out": str(out)}

    def test_digraph(self, tmp_path, capsys):
        out = tmp_path / "d.txt"
        code, stdout, _ = run_cli(capsys, "generate", "--digraph", "--n", "8", "--seed", "0", "--out", str(out))
        assert code == 0
        h = load_graph(out)
        assert isinstance(h, DiGraph) and h.is_regular(2)
        assert h.arc_colour is not None

    def test_spectral_filter_needs_cubic(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "generate", "--n", "10", "--d", "4", "--seed", "0",
            "--lambda2-max", "3.5", "--out", str(tmp_path / "no.txt"),
        )
        assert code == 2
        assert "error:" in err


@pytest.fixture
def cubic_file(tmp_path, capsys):
    path = tmp_path / "h.txt"
    assert main(["generate", "--n", "18", "--d", "3", "--seed", "0", "--out", str(path)]) == 0
    capsys.readouterr()
    return path


@pytest.fixture
def digraph_file(tmp_path, capsys):
    path = tmp_path / "dh.txt"
    assert main(["generate", "--digraph", "--n", "8", "--seed", "0", "--out", str(path)]) == 0
    capsys.readouterr()
    return path


class TestConstruct:
    def test_thm3(self, tmp_path, capsys, cubic_file):
        out = tmp_path / "g.txt"
        code, stdout, _ = run_cli(
            capsys, "construct", "--mode", "thm3", "--k", "12", "--alpha", "0.05",
            "--h-file", str(cubic_file), "--out", str(out),
        )
        assert code == 0
        info = last_json(stdout)
        assert info["n"] == 18 * 4
        g = load_graph(out)
        assert g.regular_degree() == 12
        assert (tmp_path / "g.txt.layout").exists()

    def test_thm4(self, tmp_path, capsys, digraph_file):
        out = tmp_path / "gad.txt"
        layout_out = tmp_path / "gad.layout"
        code, stdout, _ = run_cli(
            capsys, "construct", "--mode", "thm4", "--k", "8", "--s", "2",
            "--h-file", str(digraph_file), "--out", str(out), "--layout-out", str(layout_out),
        )
        assert code == 0
        info = last_json(stdout)
        assert info["layers"] == 5 and info["layer_size"] == 2
        g = load_graph(out)
        assert g.n == 8 * 5 * 2 and g.regular_degree() == 8
        assert layout_out.exists()

    def test_thm3_rejects_noncubic(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        save_graph(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), bad)
        code, _, err = run_cli(
            capsys, "construct", "--mode", "thm3", "--k", "12", "--alpha", "0.05",
            "--h-file", str(bad), "--out", str(tmp_path / "no.txt"),
        )
        assert code == 2 and "cubic" in err


class TestSampleCoreChroma:
    def test_one_round_sample_is_deterministic(self, tmp_path, capsys, cubic_file):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            code, stdout, _ = run_cli(
                capsys, "sample", "--in", str(cubic_file), "--seed", "11", "--p", "0.5", "--out", str(out)
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_two_round_alpha(self, tmp_path, capsys, cubic_file):
        out = tmp_path / "s.txt"
        code, stdout, _ = run_cli(
            capsys, "sample", "--in", str(cubic_file), "--seed", "2", "--alpha", "0.3", "--out", str(out)
        )
        assert code == 0
        info = last_json(stdout)
        assert info["mode"] == "two_round" and info["first_rate"] == "1/10"

    def test_sample_mode_exclusivity(self, tmp_path, capsys, cubic_file):
        code, _, err = run_cli(
            capsys, "sample", "--in", str(cubic_file), "--seed", "2", "--p", "0.5",
            "--alpha", "0.3", "--out", str(tmp_path / "no.txt"),
        )
        assert code == 2 and "exactly one" in err

    def test_core_matches_library(self, capsys, cubic_file):
        code, stdout, _ = run_cli(capsys, "core", "--in", str(cubic_file), "--t", "3")
        assert code == 0
        assert_pinned(stdout, "6d309d0770ba4d9039df99caabd80e84c5b953667f523eccca712c651bdfe364", "core")
        info = last_json(stdout)
        g = load_graph(cubic_file)
        assert info["vertices"] == np.flatnonzero(t_core(g, 3)).tolist()
        assert info["core_size"] == len(info["vertices"])

    def test_chroma(self, tmp_path, capsys):
        path = tmp_path / "k4.txt"
        save_graph(Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]), path)
        code, stdout, _ = run_cli(capsys, "chroma", "--in", str(path))
        assert code == 0
        info = last_json(stdout)
        assert info == {"num_colours": 4, "exact": True, "lower_bound": 4}


class TestPercolate:
    def test_threshold_process(self, capsys, cubic_file):
        code, stdout, _ = run_cli(
            capsys, "percolate", "--in", str(cubic_file), "--process", "threshold", "--t", "3"
        )
        assert code == 0
        assert_pinned(stdout, "b5a66948722c10d2036432f04c007a679dd99cdbffcd5aeba45447907ca85f02", "percolate")
        info = last_json(stdout)
        g = load_graph(cubic_file)
        assert info["core_size"] == int(t_core(g, 3).sum())

    def test_thm3_process(self, capsys, cubic_file):
        code, stdout, _ = run_cli(
            capsys, "percolate", "--in", str(cubic_file), "--process", "thm3",
            "--p", "0.2", "--seed", "4",
        )
        assert code == 0
        assert_pinned(stdout, "dc46d364044a81ba23b8dceef3d536f4faf16b9c7cdd8f454b3d1f97168e8f8d", "percolate")
        info = last_json(stdout)
        assert info["audit_violations"] == 0

    def test_thm4_process(self, capsys, digraph_file):
        code, stdout, _ = run_cli(
            capsys, "percolate", "--in", str(digraph_file), "--process", "thm4",
            "--p", "0.5", "--seed", "4",
        )
        assert code == 0
        assert_pinned(stdout, "cce6e0721cf7ed5041488f2887172bd3610ff95291ece3123597db37e6c919e6", "percolate")
        assert last_json(stdout)["audit_violations"] == 0

    def test_missing_p(self, capsys, cubic_file):
        code, _, err = run_cli(capsys, "percolate", "--in", str(cubic_file), "--process", "thm3")
        assert code == 2 and "--p" in err


@pytest.mark.parametrize("argv,flag", [
    (("percolate", "--process", "threshold", "--t", "3", "--p", "0.5"), "--p"),
    (("percolate", "--process", "thm3", "--p", "0.5", "--t", "3"), "--t"),
    (("percolate", "--process", "thm4", "--p", "0.5", "--t", "3"), "--t"),
    (("construct", "--mode", "thm3", "--k", "12", "--alpha", "0.05", "--s", "3"), "--s"),
    (("generate", "--digraph", "--n", "8", "--seed", "0", "--lambda2-max", "1.0"), "--lambda2-max"),
    (("generate", "--digraph", "--n", "8", "--seed", "0", "--girth-min", "4"), "--girth-min"),
], ids=["threshold-p", "thm3-t", "thm4-t", "construct-thm3-s", "digraph-lambda2-max",
        "digraph-girth-min"])
def test_a_flag_the_mode_does_not_read_is_refused(tmp_path, capsys, argv, flag):
    # the input file does not exist, so the flag is refused before any file is read
    missing, out = str(tmp_path / "missing.txt"), tmp_path / "out.txt"
    files = {"percolate": ("--in", missing), "construct": ("--h-file", missing, "--out", str(out)),
             "generate": ("--out", str(out))}[argv[0]]
    code, stdout, err = run_cli(capsys, *argv, *files)
    assert code == 2 and stdout == "" and f"does not read {flag}\n" in err
    assert not out.exists()


class TestExperimentAndVerify:
    def test_experiment_run(self, tmp_path, capsys):
        out = tmp_path / "res.ndjson"
        cfg = ExperimentConfig(
            kind="core_emptiness",
            trials=5,
            master_seed=1,
            graph={"kind": "blow_up", "base": {"kind": "complete", "n": 4}, "m": 2},
            t=7,
            p=0.5,
            output=str(out),
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        code, stdout, _ = run_cli(capsys, "experiment", "--config", str(cfg_path))
        assert code == 0
        agg = last_json(stdout)
        assert agg["kind"] == "core_emptiness"
        assert agg["empty_core"]["proportion"] == 1.0
        assert out.exists() and len(out.read_text().splitlines()) == 6

    def test_experiment_with_failed_trials_exits_1(self, tmp_path, capsys):
        # every trial's sample of K_45 is past the exact solver's n cap
        out = tmp_path / "res.ndjson"
        cfg = ExperimentConfig(kind="chromatic_tail", trials=3, master_seed=1,
                               graph={"kind": "complete", "n": 45}, p=0.5, output=str(out))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        code, stdout, _ = run_cli(capsys, "experiment", "--config", str(cfg_path))
        assert code == 1
        assert last_json(stdout)["errors"] == 3
        assert len(out.read_text().splitlines()) == 4

    def test_experiment_rejects_negative_root(self, tmp_path, capsys):
        cfg = ExperimentConfig(kind="thm3_sweep", trials=2, master_seed=1,
                               graph={"kind": "cycle", "n": 5}, p_sweep=(0.0, 0.5))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**cfg.to_dict(), "root": -1}))
        code, stdout, err = run_cli(capsys, "experiment", "--config", str(cfg_path))
        assert code == 2 and "root" in err and stdout == ""

    def test_experiment_rejects_a_field_its_kind_does_not_read(self, tmp_path, capsys):
        cfg = ExperimentConfig(kind="core_emptiness", trials=2, master_seed=1,
                               graph={"kind": "cycle", "n": 5}, p=0.5, t=2)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**cfg.to_dict(), "root": 3}))
        code, stdout, err = run_cli(capsys, "experiment", "--config", str(cfg_path))
        assert code == 2 and "core_emptiness: does not read root" in err and stdout == ""

    def test_experiment_rejects_a_proposition_check_without_k(self, tmp_path, capsys):
        # only a complete graph gives k, and a config file is checked as it loads
        cfg = {"kind": "proposition_check", "trials": 3, "master_seed": 1,
               "graph": {"kind": "cycle", "n": 6}, "p": 0.5}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, stdout, err = run_cli(capsys, "experiment", "--config", str(cfg_path))
        assert code == 2 and "needs k" in err and stdout == ""
        cfg_path.write_text(json.dumps({**cfg, "k": 3}))
        code, stdout, _ = run_cli(capsys, "experiment", "--config", str(cfg_path))
        assert code == 0 and last_json(stdout)["errors"] == 0

    @pytest.mark.parametrize("graph", [
        {"kind": "complete", "n": 6.5},
        {"kind": "blow_up", "base": {"kind": "complete", "n": 4}, "m": 2.5},
        {"kind": "random_regular", "n": 20.0, "d": 3, "seed": 0},
    ], ids=["complete-n-float", "blow-up-m-float", "regular-n-float"])
    def test_experiment_rejects_a_recipe_size_that_is_not_an_integer(self, tmp_path, capsys, graph):
        cfg = {"kind": "chromatic_tail", "trials": 2, "master_seed": 1, "graph": graph, "p": 0.5}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, stdout, err = run_cli(capsys, "experiment", "--config", str(cfg_path))
        assert code == 2 and "must be an integer" in err and stdout == ""

    @pytest.mark.parametrize("field,value", [
        ("girth_min", "6"), ("girth_min", 2.5), ("lambda2_max", "2.9"),
    ])
    def test_experiment_rejects_a_bad_expander_option(self, tmp_path, capsys, field, value):
        # these reached the first trial's build and printed a traceback
        cfg = {"kind": "thm3_sweep", "trials": 2, "master_seed": 1, "p_sweep": [0.1],
               "graph": {"kind": "cubic_expander", "n": 20, "seed": 1, field: value}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, stdout, err = run_cli(capsys, "experiment", "--config", str(cfg_path))
        assert code == 2 and err.startswith("error:") and field in err and stdout == ""

    @pytest.mark.parametrize("graph,params", [
        ({"kind": "gadget", "base": {"kind": "complete", "n": 4}},
         {"mode": "gadget", "k": 12, "t": 11, "m": 4, "s": 3}),
        ({"kind": "blow_up", "m": 2, "base": {"kind": "two_regular_digraph", "n": 4, "seed": 0}},
         None),
    ], ids=["gadget-undirected-base", "blow-up-digraph-base"])
    def test_experiment_rejects_a_base_of_the_wrong_graph_type(self, tmp_path, capsys, graph,
                                                               params):
        cfg = {"kind": "core_emptiness", "trials": 2, "master_seed": 1, "graph": graph,
               "params": params, "t": 2, "p": 0.5}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, stdout, err = run_cli(capsys, "experiment", "--config", str(cfg_path))
        assert code == 2 and err.startswith("error:") and "needs a base" in err and stdout == ""

    @pytest.mark.parametrize("kind", sorted(KIND_FIELDS))
    def test_experiment_rejects_a_recipe_of_the_wrong_graph_type(self, tmp_path, capsys, kind):
        graph = ({"kind": "complete", "n": 4} if kind == "thm4_sweep" else
                 {"kind": "two_regular_digraph", "n": 6, "seed": 0})
        cfg = {"kind": kind, "trials": 2, "master_seed": 1, "graph": graph, **KIND_FIELDS[kind]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, stdout, err = run_cli(capsys, "experiment", "--config", str(cfg_path))
        assert code == 2 and err.startswith("error:") and stdout == ""
        assert f"'{kind}' needs a graph recipe" in err

    def test_verify_suite(self, tmp_path, capsys):
        report_path = tmp_path / "rep.json"
        code, stdout, _ = run_cli(capsys, "verify", "--suite", "fixpoints", "--report", str(report_path))
        assert code == 0
        assert "RESULT: PASS" in stdout
        payload = json.loads(report_path.read_text())
        assert payload[0]["suite"] == "fixpoints" and payload[0]["passed"]

    def test_verify_unknown_suite_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "bogus"])
        capsys.readouterr()

    @pytest.mark.parametrize("text", ["3 1\n1 x\n", "3 two\n0 1\n0 2\n", "3 1 directed\n0 1.5\n"])
    def test_non_integer_token_is_reported(self, tmp_path, capsys, text):
        path = tmp_path / "bad.graph"
        path.write_text(text)
        code, stdout, err = run_cli(capsys, "core", "--in", str(path), "--t", "1")
        assert code == 2 and err.startswith("error:") and "line" in err and stdout == ""

    @pytest.mark.parametrize("command,flag,value", [
        ("sample", "--alpha", "abc"),
        ("sample", "--first-rate", "abc"),
        ("sample", "--first-rate", "1/0"),
        ("construct", "--alpha", "abc"),
    ])
    def test_bad_fraction_is_reported(self, tmp_path, capsys, cubic_file, command, flag, value):
        if command == "sample":
            argv = ["sample", "--in", str(cubic_file), "--seed", "2"]
        else:
            argv = ["construct", "--mode", "thm3", "--k", "12", "--h-file", str(cubic_file)]
        code, stdout, err = run_cli(capsys, *argv, flag, value, "--out", str(tmp_path / "no.txt"))
        assert code == 2 and err.startswith("error:") and value in err and stdout == ""

    def test_config_that_is_not_json_is_reported(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("kind: core_emptiness\n")
        code, stdout, err = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 2 and err.startswith("error:") and stdout == ""

    @pytest.mark.parametrize("argv,takes", [
        (["sample", "--in", "IN", "--seed", "1", "--p", "0.5", "--out", "OUT"], "Graph"),
        (["core", "--in", "IN", "--t", "2"], "Graph"),
        (["chroma", "--in", "IN"], "Graph"),
        (["percolate", "--in", "IN", "--process", "threshold", "--t", "2"], "Graph"),
        (["percolate", "--in", "IN", "--process", "thm3", "--p", "0.5"], "Graph"),
        (["percolate", "--in", "IN", "--process", "thm4", "--p", "0.5"], "DiGraph"),
        (["construct", "--mode", "thm3", "--k", "12", "--alpha", "0.05", "--h-file", "IN",
          "--out", "OUT"], "Graph"),
        (["construct", "--mode", "thm4", "--k", "12", "--s", "3", "--h-file", "IN",
          "--out", "OUT"], "DiGraph"),
    ], ids=["sample", "core", "chroma", "percolate-threshold", "percolate-thm3",
            "percolate-thm4", "construct-thm3", "construct-thm4"])
    def test_graph_file_of_the_other_type_is_reported(self, tmp_path, capsys, cubic_file,
                                                       digraph_file, argv, takes):
        wrong = digraph_file if takes == "Graph" else cubic_file
        out = tmp_path / "no.txt"
        argv = [{"IN": str(wrong), "OUT": str(out)}.get(a, a) for a in argv]
        code, stdout, err = run_cli(capsys, *argv)
        other = "DiGraph" if takes == "Graph" else "Graph"
        assert code == 2 and err.startswith("error:") and stdout == ""
        assert f"{wrong} needs a {takes}, got a {other}" in err and not out.exists()

    def test_missing_file_is_reported(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "core", "--in", str(tmp_path / "absent.txt"), "--t", "2")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("what", ["directory", "binary"])
    @pytest.mark.parametrize("argv", [["core", "--t", "2", "--in"], ["experiment", "--config"]],
                             ids=["core", "experiment"])
    def test_unreadable_input_is_reported(self, tmp_path, capsys, argv, what):
        # a directory is an OSError other than FileNotFoundError, and bytes
        # that are not UTF-8 fail to decode: both are the caller's input
        path = tmp_path / "input"
        if what == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"4 1\n0 1\n\xff\xfe\x00\x80\n")
        code, stdout, err = run_cli(capsys, *argv, str(path))
        assert code == 2 and err.startswith("error:") and str(path) in err and stdout == ""
