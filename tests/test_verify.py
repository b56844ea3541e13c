import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from randcol.errors import InputError
from randcol.generators import random_regular_graph
from randcol.graphs import cycle_graph
from randcol.sampling import RngStream, sample_subgraph, two_round_sample
from randcol.verify import (
    CHI_SQUARE_SIGNIFICANCE,
    SUITE_NAMES,
    SuiteReport,
    CheckResult,
    _chi2_isf,
    _chi2_sf,
    _histogram,
    _survivor_counts_one_round,
    _survivor_counts_two_round,
    pooled_chi_square,
    run_suite,
)


class TestPooledChiSquare:
    def test_identical_histograms_give_zero(self):
        a = np.array([3] * 500 + [7] * 500)
        stat, dof, critical = pooled_chi_square(a, a.copy(), 10)
        assert stat == 0.0
        assert dof == 1
        assert critical > 0

    def test_disjoint_histograms_blow_past_critical(self):
        a = np.full(1000, 2)
        b = np.full(1000, 9)
        stat, dof, critical = pooled_chi_square(a, b, 10)
        assert stat == pytest.approx(2000.0)
        assert stat > critical

    def test_sparse_cells_are_pooled(self):
        # values 0..9 once each against the same: every cell is tiny, so
        # pooling must merge neighbours until >= 10 observations
        a = np.arange(10)
        b = np.arange(10)
        stat, dof, _ = pooled_chi_square(a, b, 9)
        assert stat == 0.0
        assert dof == 1

    def test_a_sparse_tail_joins_the_last_cell(self):
        # cells 0 and 1 hold 10 observations each; cell 2's 1 + 1 join cell 1
        a = np.array([0] * 6 + [1] * 4 + [2])
        b = np.array([0] * 4 + [1] * 6 + [2])
        stat, dof, _ = pooled_chi_square(a, b, 2)
        assert dof == 1
        assert stat == pytest.approx((6 - 4) ** 2 / 10 + (5 - 7) ** 2 / 12)

    @pytest.mark.parametrize("a,b", [
        ([0, 1, 2], [2, 1, 0]),  # 6 observations: only the tail's cell forms
        ([0] * 6 + [1], [0] * 5 + [1] * 2),  # one full cell, then a tail that joins it
    ], ids=["tail-only", "tail-joins-the-only-cell"])
    def test_a_tail_that_leaves_one_cell_is_an_error(self, a, b):
        with pytest.raises(InputError, match="not enough occupied cells"):
            pooled_chi_square(np.array(a), np.array(b), 2)

    def test_single_cell_is_an_error(self):
        a = np.full(100, 5)
        with pytest.raises(InputError):
            pooled_chi_square(a, a.copy(), 10)

    def test_critical_value_is_the_chi2_quantile(self):
        # an independent closed form promises scipy's quantile to 1e-12, the
        # suite's printed digits and scipy's verdict 1e-9 either side of it,
        # not scipy's last bit
        stats = pytest.importorskip("scipy.stats")
        for dof in range(1, 401):
            a = np.repeat(np.arange(dof + 1), 10)  # one cell per value
            _, got_dof, critical = pooled_chi_square(a, a.copy(), dof)
            assert got_dof == dof
            ppf = float(stats.chi2.ppf(1.0 - CHI_SQUARE_SIGNIFICANCE, dof))
            assert abs(critical - ppf) <= 1e-12 * ppf
            assert f"{critical:.3f}" == f"{ppf:.3f}"
            assert ppf * (1 - 1e-9) < critical and not ppf * (1 + 1e-9) < critical

    def test_survival_function_matches_scipy_chdtrc(self):
        special = pytest.importorskip("scipy.special")
        for dof in range(1, 401):
            top = 2 * float(special.chdtri(dof, CHI_SQUARE_SIGNIFICANCE))
            for x in np.linspace(max(dof - 2, 0), top, 25):  # from the mode
                want = float(special.chdtrc(dof, x))
                assert abs(_chi2_sf(float(x), dof) - want) <= 1e-12 * want, (dof, x)

    def test_a_quantile_past_the_normal_doubles_is_an_error(self):
        # there e^-x/2 underflows, and bisection would settle below the quantile
        assert _chi2_isf(CHI_SQUARE_SIGNIFICANCE, 1250) < 1416
        with pytest.raises(InputError, match="past x = 1416"):
            _chi2_isf(CHI_SQUARE_SIGNIFICANCE, 1300)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
    def test_histograms_equal_bincount(self, dtype):
        # the histograms sort the samples in their own dtype, where bincount
        # would copy them to intp; both must give the same cells
        rng = np.random.default_rng(5)
        for m, size in ((50, 10_000), (200, 3_000), (7, 0), (1, 1)):
            x = rng.integers(0, m + 1, size).astype(dtype)
            want = np.bincount(x.astype(np.intp), minlength=m + 1)
            got = _histogram(x, m)
            assert got.dtype == np.float64 and np.array_equal(got, want), (m, size)

    @pytest.mark.parametrize("a,b,m", [
        (np.repeat([0, 1, 7], 500), np.repeat([0, 1, 2], 500), 2),
        (np.concatenate([np.repeat([0, 1, 2], 500), np.full(500, 7)]),
         np.repeat([0, 1, 2], 500), 2),
        (np.repeat([0, 1, 2], 500), np.repeat([0, 1, 2], 400), 2),
        (np.repeat([-1, 1, 2], 500), np.repeat([0, 1, 2], 500), 2),
        (np.repeat([0.0, 1.0, 2.0], 500), np.repeat([0.0, 1.0, 2.0], 500), 2),
        (np.repeat([0, 1, 2], 500), np.repeat([0, 1, 2], 500), 2.5),
        (np.repeat([0, 1], 500), np.repeat([0, 1], 500), True),
        (np.repeat([0, 1], 500).reshape(2, 500), np.repeat([0, 1], 500).reshape(2, 500), 1),
    ], ids=["above-m", "extra-above-m", "unequal-totals", "negative", "float", "m-float",
            "m-bool", "two-dimensional"])
    def test_counts_outside_the_histogram_are_an_error(self, a, b, m):
        # a count above m would otherwise drop out of the statistic unseen
        with pytest.raises(InputError):
            pooled_chi_square(a, b, m)


def test_import_does_not_load_scipy_stats():
    code = "import sys, randcol; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"


def test_chi_square_test_loads_no_scipy():
    code = ("import sys, numpy as np\n"
            "from randcol.verify import pooled_chi_square\n"
            "a = np.repeat(np.arange(4), 10)\n"
            "print(pooled_chi_square(a, a.copy(), 3)[1],\n"
            "      sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "3 []"


def test_survivor_counts_match_an_int64_loop_past_255_edges():
    # the counts' type is the narrowest that holds g.m; on 260 edges,
    # one round at p = 1 keeps all of them, which a uint8 would wrap
    g = random_regular_graph(130, 4, 0)
    root, trials = RngStream(0x260), 40
    for p in (1.0, 0.97):
        want = np.array([sample_subgraph(g, p, root.child(i)).m for i in range(trials)],
                        dtype=np.int64)
        assert np.array_equal(_survivor_counts_one_round(g, p, root, trials), want)
    want = np.array([two_round_sample(g, Fraction(1, 30), root.child(i)).survivors().m
                     for i in range(trials)], dtype=np.int64)
    assert np.array_equal(_survivor_counts_two_round(g, Fraction(1, 30), root, trials), want)


def test_survivor_counts_depend_on_the_edge_count_alone():
    # both loops read word j of a sample's stream for edge j, so the
    # two_round suite may draw on any 50 edges: a cycle's as a random
    # regular graph's
    regular, cycle = random_regular_graph(25, 4, 0), cycle_graph(50)
    assert regular.m == cycle.m == 50 and regular != cycle
    root, trials = RngStream(0x7B0), 300
    for count, rate in ((_survivor_counts_two_round, Fraction(1, 30)),
                        (_survivor_counts_one_round, 0.5)):
        want = count(regular, rate, root, trials)
        got = count(cycle, rate, root, trials)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_two_round_suite_loads_no_numpy_random_ma_or_scipy():
    # the suite's statistic needs none of them: numpy.random alone is
    # about 2 MB of a run's peak memory; fewer trials load the same modules
    code = ("import sys, randcol\n"
            "randcol.verify.TWO_ROUND_TRIALS = 1000\n"
            "assert len(randcol.run_suite('two_round').checks) == 4\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
            "             or m.split('.')[:2] in (['numpy', 'random'], ['numpy', 'ma'])))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]"


# sha256 of format_text() and of the to_dict() JSON (sorted keys, indent 2)
# of the suites that tests/test_golden.py does not pin; pinned here, where
# test_suite_passes runs them anyway.
SUITE_GOLDEN = {
    "tree_lemma": (
        "354c3c764c3fc6ca24cf4deb7347ae63bd62adcc3277d72771a5d4be0348d0a7",
        "82e30b6a23cb9ba7c5ccad090da6c2d73612ce534268b7f3ac612a41256f9b93",
    ),
    "core_oracle": (
        "f215cc2909a24ce8fa1691629bc25482df532e3a95a558174dca9045d6b940d4",
        "b457a2c3c3c491eef9b7df2fa7be792d9a72f7d7f8292d910eef76e2042396a1",
    ),
    "product_colouring": (
        "5798bc620cb0cb0f9f599563da36de0c5c1c092d70765e056f8880cbeaced7a8",
        "120a5593d019a41cecd80cee1a06f30d951128b45916a495b2fb59a5f8521072",
    ),
}


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(InputError):
            run_suite("nonexistent")

    @pytest.mark.parametrize(
        "name", ["alon_milman", "tree_lemma", "core_oracle", "product_colouring", "fixpoints", "expansion"]
    )
    def test_suite_passes(self, name, suite_report):
        report = suite_report(name)
        assert report.passed, [c for c in report.checks if not c.ok]
        assert report.name == name
        assert all(c.detail for c in report.checks)
        if name in SUITE_GOLDEN:
            digests = tuple(
                hashlib.sha256(text.encode()).hexdigest()
                for text in (report.format_text(), json.dumps(report.to_dict(), sort_keys=True, indent=2))
            )
            assert digests == SUITE_GOLDEN[name], (
                f"the {name} suite's text or JSON changed bytes; if the move is deliberate, "
                f"update its digests in SUITE_GOLDEN and give the reason in CHANGES.md"
            )

    def test_alon_milman_battery_size(self, suite_report):
        report = suite_report("alon_milman")
        assert len(report.checks) == 30

    def test_tree_lemma_battery_size(self, suite_report):
        report = suite_report("tree_lemma")
        assert len(report.checks) == 20

    def test_report_rendering(self):
        report = SuiteReport("demo", (CheckResult("a", True, "fine"), CheckResult("b", False, "broke")))
        assert not report.passed
        text = report.format_text()
        assert "RESULT: FAIL" in text
        assert "[FAIL] b: broke" in text
        d = report.to_dict()
        assert d["suite"] == "demo"
        assert d["checks"][1]["ok"] is False

    def test_report_dict_holds_plain_bools(self):
        # a check flag computed by numpy comparison (as the two_round
        # suite's chi-square test does) must still serialise
        report = SuiteReport("demo", (CheckResult("chi2", np.float64(1.0) < 2.0, "x"),))
        d = report.to_dict()
        assert d["checks"][0]["ok"] is True
        assert json.loads(json.dumps(d)) == d

    def test_all_names_are_runnable(self):
        # two_round is exercised by the acceptance gate; here we only
        # confirm the registry is complete
        assert set(SUITE_NAMES) == {
            "alon_milman",
            "tree_lemma",
            "core_oracle",
            "two_round",
            "product_colouring",
            "fixpoints",
            "expansion",
        }
