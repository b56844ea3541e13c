"""Runnable invariant batteries.

Each suite re-checks one of the library's load-bearing identities on a
fixed seeded battery, so `verify --suite NAME` is a regression gate, not
a statistical experiment. Seeds are pinned: the configuration-model
generators reject and retry, so arbitrary seeds may fail to produce a
graph at all; every pinned seed below is known to succeed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.special

from .colouring import product_colouring_check, t_core
from .errors import InputError
from .generators import random_regular_graph, random_two_regular_digraph
from .graphs import (
    DiGraph,
    _ids,
    complete_graph,
    count_connected_edge_subgraphs_upto,
    is_strongly_connected,
    vertex_boundary,
)
from .percolation import (
    t_core_via_percolation,
    thm3_fixpoint_violations,
    thm3_process,
    thm4_fixpoint_violations,
    thm4_process,
)
from .sampling import (
    RngStream,
    partition_split,
    sample_subgraph,
    second_round_rate,
    two_round_sample,
)
from .spectral import verify_alon_milman, verify_vertex_expansion

SUITE_NAMES = (
    "alon_milman",
    "tree_lemma",
    "core_oracle",
    "two_round",
    "product_colouring",
    "fixpoints",
    "expansion",
)

CHI_SQUARE_SIGNIFICANCE = 0.001


@dataclass(frozen=True)
class CheckResult:
    label: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class SuiteReport:
    name: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.name,
            "passed": self.passed,
            "checks": [
                # bool(): a check's flag may be a numpy bool, which json rejects
                {"label": c.label, "ok": bool(c.ok), "detail": c.detail}
                for c in self.checks
            ],
        }

    def format_text(self) -> str:
        lines = [f"suite: {self.name}"]
        for c in self.checks:
            mark = "ok " if c.ok else "FAIL"
            lines.append(f"  [{mark}] {c.label}: {c.detail}")
        lines.append(f"RESULT: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


# (n, d, seed): connected regular graphs the rejection sampler is known
# to produce; n <= 12 keeps the subset sweep exhaustive.
ALON_MILMAN_BATTERY = (
    (6, 2, 0), (6, 3, 0), (6, 4, 2), (6, 5, 19), (7, 2, 0), (7, 4, 1),
    (8, 2, 0), (8, 3, 0), (8, 4, 0), (8, 5, 3), (9, 2, 0), (9, 4, 1),
    (9, 6, 48), (10, 2, 1), (10, 3, 0), (10, 4, 0), (10, 5, 2), (11, 2, 2),
    (11, 4, 0), (12, 2, 1), (12, 3, 0), (12, 4, 0), (12, 5, 24),
    (8, 3, 10), (10, 3, 10), (12, 3, 10), (8, 4, 10), (10, 4, 10),
    (12, 4, 10), (11, 4, 11),
)

# (n, d, seed): max degree <= 4 so (e*degree)^t stays enumerable at t <= 6
TREE_LEMMA_BATTERY = (
    (6, 3, 0), (7, 2, 0), (7, 4, 1), (8, 3, 0), (8, 4, 0), (9, 2, 0),
    (9, 4, 1), (10, 3, 0), (10, 4, 0), (11, 4, 0), (12, 3, 0), (12, 4, 0),
    (13, 2, 0), (13, 4, 0), (14, 3, 0), (14, 4, 1), (6, 4, 2), (10, 2, 0),
    (11, 2, 0), (12, 2, 0),
)

TREE_LEMMA_MAX_T = 6
CORE_ORACLE_TRIALS = 500
TWO_ROUND_TRIALS = 100_000


def _suite_alon_milman() -> list:
    checks = []
    for n, d, seed in ALON_MILMAN_BATTERY:
        g = random_regular_graph(n, d, seed)
        report = verify_alon_milman(g)
        ok = report.mode == "exhaustive" and not report.violations
        checks.append(
            CheckResult(
                f"n={n} d={d} seed={seed}",
                ok,
                f"lambda2={report.lambda2:.6f} subsets={report.n_checked} "
                f"violations={len(report.violations)} "
                f"tightest_ratio={report.tightest_ratio:.4f}",
            )
        )
    return checks


def _suite_tree_lemma() -> list:
    checks = []
    for n, d, seed in TREE_LEMMA_BATTERY:
        g = random_regular_graph(n, d, seed)
        delta = g.max_degree()
        worst = 0.0
        violations = 0
        for v in range(g.n):
            counts = count_connected_edge_subgraphs_upto(g, v, TREE_LEMMA_MAX_T)
            for t in range(1, TREE_LEMMA_MAX_T + 1):
                bound = (math.e * delta) ** t
                if counts[t] >= bound:
                    violations += 1
                worst = max(worst, counts[t] / bound)
        checks.append(
            CheckResult(
                f"n={n} d={d} seed={seed}",
                violations == 0,
                f"max_degree={delta} violations={violations} "
                f"worst count/bound={worst:.4f}",
            )
        )
    return checks


def _suite_core_oracle() -> list:
    root = RngStream(0xC04E)
    mismatches = 0
    graphs = 0
    for i in range(CORE_ORACLE_TRIALS):
        n = 5 + (i % 36)
        g = sample_subgraph(complete_graph(n), 0.5, root.child("graph", i))
        graphs += 1
        for t in range(g.max_degree() + 2):
            if t_core(g, t) != _ids(t_core_via_percolation(g, t)):
                mismatches += 1
    return [
        CheckResult(
            f"peeling vs percolation on {graphs} graphs, all thresholds",
            mismatches == 0,
            f"{graphs - mismatches}/{graphs} exact matches",
        )
    ]


def _survivor_counts_two_round(g, first_rate, root: RngStream, trials: int) -> np.ndarray:
    counts = np.zeros(trials, dtype=np.int64)
    for i in range(trials):
        counts[i] = two_round_sample(g, first_rate, root.child(i)).survivors().m
    return counts


def _survivor_counts_one_round(g, p, root: RngStream, trials: int) -> np.ndarray:
    counts = np.zeros(trials, dtype=np.int64)
    for i in range(trials):
        counts[i] = sample_subgraph(g, p, root.child(i)).m
    return counts


def pooled_chi_square(a: np.ndarray, b: np.ndarray, m: int, min_expected: int = 10):
    """Two-sample chi-square on kept-edge histograms with equal totals.

    Sparse outer cells are pooled inward until every pooled cell holds at
    least min_expected combined observations. Returns (statistic,
    degrees of freedom, critical value at the 0.001 level)."""
    ha = np.bincount(a, minlength=m + 1).astype(np.float64)
    hb = np.bincount(b, minlength=m + 1).astype(np.float64)
    cells = []
    acc_a = acc_b = 0.0
    for x in range(m + 1):
        acc_a += ha[x]
        acc_b += hb[x]
        if acc_a + acc_b >= min_expected:
            cells.append((acc_a, acc_b))
            acc_a = acc_b = 0.0
    if acc_a + acc_b > 0:
        if cells:
            la, lb = cells[-1]
            cells[-1] = (la + acc_a, lb + acc_b)
        else:
            cells.append((acc_a, acc_b))
    if len(cells) < 2:
        raise InputError("not enough occupied cells for a chi-square test")
    stat = sum((oa - ob) ** 2 / (oa + ob) for oa, ob in cells)
    dof = len(cells) - 1
    # the chi-square quantile, as scipy.stats.chi2.ppf computes it;
    # importing scipy.stats would double the time of `import randcol`
    critical = float(2 * scipy.special.gammaincinv(dof / 2, 1.0 - CHI_SQUARE_SIGNIFICANCE))
    return stat, dof, critical


def _suite_two_round() -> list:
    checks = []
    for alpha in (Fraction(1, 100), Fraction(1, 10), Fraction(3, 10)):
        first = alpha / 3
        survival = (1 - first) * (1 - second_round_rate(first))
        checks.append(
            CheckResult(
                f"per-edge survival at alpha={alpha}",
                survival == Fraction(1, 2),
                f"(1-{first})*(1-{second_round_rate(first)}) = {survival}",
            )
        )
    g = random_regular_graph(25, 4, 0)  # exactly 50 edges
    root = RngStream(0x7B0)
    two = _survivor_counts_two_round(g, Fraction(1, 30), root.child("two"), TWO_ROUND_TRIALS)
    one = _survivor_counts_one_round(g, 0.5, root.child("one"), TWO_ROUND_TRIALS)
    stat, dof, critical = pooled_chi_square(two, one, g.m)
    checks.append(
        CheckResult(
            f"histogram two-round vs one-round, {TWO_ROUND_TRIALS} trials each",
            stat < critical,
            f"chi2={stat:.3f} dof={dof} critical@0.001={critical:.3f} "
            f"means {two.mean():.4f}/{one.mean():.4f}",
        )
    )
    return checks


def _suite_product_colouring() -> list:
    checks = []
    root = RngStream(0x990)
    for parts in (2, 3):
        worst = None
        failures = 0
        trials = 50
        for i in range(trials):
            stream = root.child("trial", parts, i)
            n = 8 + (i % 5)
            g = sample_subgraph(complete_graph(n), 0.5, stream.child("graph"))
            split = partition_split(g, parts, stream.child("split"))
            report = product_colouring_check(g, split)
            if not report.ok:
                failures += 1
            worst = report.margin if worst is None else min(worst, report.margin)
        checks.append(
            CheckResult(
                f"{parts}-way edge splits, {trials} trials",
                failures == 0,
                f"failures={failures} min margin={worst}",
            )
        )
    return checks


def _suite_fixpoints() -> list:
    checks = []
    h = random_regular_graph(60, 3, 0)
    root = RngStream(0xF1C)
    bad = 0
    runs = 0
    for i in range(20):
        for p in (0.0, 0.05, 0.3):
            state = thm3_process(h, p, 0, root.child("protect", i))
            runs += 1
            if thm3_fixpoint_violations(h, state):
                bad += 1
    checks.append(
        CheckResult(
            "protected-edge process terminal states",
            bad == 0,
            f"{runs - bad}/{runs} clean fixpoints",
        )
    )
    dg = random_two_regular_digraph(60, 0)
    bad = 0
    runs = 0
    for i in range(20):
        for p in (0.0, 0.05, 0.3):
            state = thm4_process(dg, p, 0, root.child("block", i))
            runs += 1
            if thm4_fixpoint_violations(dg, state):
                bad += 1
    checks.append(
        CheckResult(
            "blocked-vertex reachability terminal states",
            bad == 0,
            f"{runs - bad}/{runs} clean fixpoints",
        )
    )
    return checks


def _two_disjoint_directed_triangles() -> DiGraph:
    arcs = []
    for base in (0, 3):
        for i in range(3):
            arcs.append((base + i, base + (i + 1) % 3))
            arcs.append((base + i, base + (i + 2) % 3))
    return DiGraph(6, arcs)


def _suite_expansion() -> list:
    checks = []
    for n in (8, 10, 12):
        dg = random_two_regular_digraph(n, 0)
        cert = verify_vertex_expansion(dg)
        members = set(cert.witness)
        ratio = len(vertex_boundary(dg, members)) / min(len(members), n - len(members))
        ok = (
            cert.mode == "exhaustive"
            and is_strongly_connected(dg)
            and cert.c3_hat > 0
            and ratio == cert.c3_hat
        )
        checks.append(
            CheckResult(
                f"exhaustive sweep n={n} seed=0",
                ok,
                f"c3_hat={cert.c3_hat:.4f} witness_size={len(members)} "
                f"witness_ratio={ratio:.4f}",
            )
        )
    split = _two_disjoint_directed_triangles()
    cert = verify_vertex_expansion(split)
    checks.append(
        CheckResult(
            "disconnected digraph has zero expansion",
            cert.c3_hat == 0.0,
            f"c3_hat={cert.c3_hat}",
        )
    )
    small = random_two_regular_digraph(12, 0)
    exact = verify_vertex_expansion(small)
    sampled = verify_vertex_expansion(small, samples=4000, exhaustive_cap=4)
    checks.append(
        CheckResult(
            "sampled estimate dominates the exact minimum",
            sampled.mode == "sampled" and sampled.c3_hat >= exact.c3_hat - 1e-12,
            f"sampled={sampled.c3_hat:.4f} exact={exact.c3_hat:.4f}",
        )
    )
    return checks


_SUITES = {
    "alon_milman": _suite_alon_milman,
    "tree_lemma": _suite_tree_lemma,
    "core_oracle": _suite_core_oracle,
    "two_round": _suite_two_round,
    "product_colouring": _suite_product_colouring,
    "fixpoints": _suite_fixpoints,
    "expansion": _suite_expansion,
}


def run_suite(name: str) -> SuiteReport:
    if name not in _SUITES:
        raise InputError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    return SuiteReport(name, tuple(_SUITES[name]()))
