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

from .colouring import product_colouring_check, t_core
from .errors import InputError
from .generators import random_regular_graph, random_two_regular_digraph
from .graphs import (
    DiGraph,
    _integer,
    complete_graph,
    count_connected_edge_subgraphs_upto,
    cycle_graph,
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

CHI_SQUARE_SIGNIFICANCE = 0.001
CHI_SQUARE_MIN_CELL = 10  # least combined observations in a pooled cell


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
            if not np.array_equal(t_core(g, t), t_core_via_percolation(g, t)):
                mismatches += 1
    return [
        CheckResult(
            f"peeling vs percolation on {graphs} graphs, all thresholds",
            mismatches == 0,
            f"{graphs - mismatches}/{graphs} exact matches",
        )
    ]


def _survivor_counts_two_round(g, first_rate, root: RngStream, trials: int) -> np.ndarray:
    counts = np.zeros(trials, dtype=np.min_scalar_type(g.m))
    for i in range(trials):
        sample = two_round_sample(g, first_rate, root.child(i))
        counts[i] = g.m - np.count_nonzero(sample.round1_hit | sample.round2_hit)
    return counts


def _survivor_counts_one_round(g, p, root: RngStream, trials: int) -> np.ndarray:
    counts = np.zeros(trials, dtype=np.min_scalar_type(g.m))
    for i in range(trials):
        counts[i] = sample_subgraph(g, p, root.child(i)).m
    return counts


def _chi2_sf(x: float, dof: int) -> float:
    """P(X > x) for X chi-square with integer dof, h = x/2: e^-h * sum_{j < dof/2}
    h^j / j! for even dof, erfc(sqrt h) + e^-h * sum_{j <= (dof-3)/2} h^(j+1/2)
    / Gamma(j + 3/2) for odd dof (Abramowitz & Stegun 26.4.4 and 26.4.5)."""
    h, half = x / 2, (dof % 2) / 2
    total = math.erfc(math.sqrt(h)) if half else 0.0
    term = math.exp(-h) * (2 * math.sqrt(h / math.pi) if half else 1.0)
    for j in range(dof // 2):
        total += term
        term *= h / (j + 1 + half)
    return total


def _chi2_isf(q: float, dof: int) -> float:
    """The x with _chi2_sf(x, dof) = q, by bisection over doubles until the
    bracket no longer shrinks. It searches 0..1416, where e^-x/2 is a normal
    double and _chi2_sf keeps its precision; a quantile past 1416 is an InputError."""
    lo, hi = 0.0, 1416.0
    if _chi2_sf(hi, dof) > q:
        raise InputError(f"the chi-square quantile at dof={dof} is past x = 1416")
    while lo < (mid := (lo + hi) / 2) < hi:
        lo, hi = (mid, hi) if _chi2_sf(mid, dof) > q else (lo, mid)
    return hi


def _histogram(x: np.ndarray, m: int) -> np.ndarray:
    """np.bincount(x, minlength=m + 1) as floats, without bincount's intp copy
    of x (return_counts keeps np.unique off its numpy.ma path)."""
    values, counts = np.unique(x, return_counts=True)
    h = np.zeros(m + 1)
    h[values] = counts
    return h


def pooled_chi_square(a: np.ndarray, b: np.ndarray, m: int):
    """Two-sample chi-square on kept-edge histograms with equal totals.

    Sparse outer cells are pooled inward until every pooled cell holds at
    least CHI_SQUARE_MIN_CELL combined observations. Returns (statistic,
    degrees of freedom, critical value at the 0.001 level)."""
    m, a, b = _integer(m, "m"), np.asarray(a), np.asarray(b)
    for x in (a, b):
        if (x.dtype.kind not in "iu" or x.ndim != 1 or x.size != a.size
                or x.size and not 0 <= x.min() <= x.max() <= m):
            raise InputError(f"a and b must be equally long arrays of integers in 0..{m}")
    ha, hb = _histogram(a, m), _histogram(b, m)
    cells = []
    acc_a = acc_b = 0.0
    for x in range(m + 1):
        acc_a += ha[x]
        acc_b += hb[x]
        if acc_a + acc_b >= CHI_SQUARE_MIN_CELL:
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
    critical = _chi2_isf(CHI_SQUARE_SIGNIFICANCE, dof)
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
    # a count depends on m alone, so any 50 edges do: a cycle's need no
    # numpy.random, which a random regular graph's generator loads
    g = cycle_graph(50)
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
    # built here so the functions are looked up when the suite runs
    cases = (
        ("protected-edge process", random_regular_graph(60, 3, 0), "protect",
         thm3_process, thm3_fixpoint_violations),
        ("blocked-vertex reachability", random_two_regular_digraph(60, 0), "block",
         thm4_process, thm4_fixpoint_violations),
    )
    root = RngStream(0xF1C)
    checks = []
    for label, g, branch, process, violations in cases:
        bad = runs = 0
        for i in range(20):
            for p in (0.0, 0.05, 0.3):
                runs += 1
                bad += bool(violations(g, process(g, p, 0, root.child(branch, i))))
        checks.append(
            CheckResult(f"{label} terminal states", bad == 0, f"{runs - bad}/{runs} clean fixpoints")
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
        size = len(cert.witness)
        inside = np.isin(np.arange(n), cert.witness)
        ratio = int(vertex_boundary(dg, inside).sum()) / min(size, n - size)
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
                f"c3_hat={cert.c3_hat:.4f} witness_size={size} "
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
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str) -> SuiteReport:
    if name not in _SUITES:
        raise InputError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    return SuiteReport(name, tuple(_SUITES[name]()))
