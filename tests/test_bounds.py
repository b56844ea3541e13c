import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from randcol.bounds import (
    BoundConstants,
    binom_tail_geq,
    near_disjoint_family,
    proposition_lower_bound,
    resilient_pair_probability_bound,
    theorem2_tail_bound,
)
from randcol.errors import InputError


def rational_tail(n, q, x):
    q = Fraction(q)
    return sum(
        Fraction(math.comb(n, i)) * q**i * (1 - q) ** (n - i)
        for i in range(x, n + 1)
    )


class TestBinomTail:
    def test_worked_examples(self):
        assert binom_tail_geq(4, Fraction(1, 2), 2) == pytest.approx(11 / 16, rel=1e-14)
        assert binom_tail_geq(4, Fraction(1, 2), 0) == 1.0
        assert binom_tail_geq(8, Fraction(1, 2), 8) == pytest.approx(1 / 256, rel=1e-14)

    def test_degenerate_cases(self):
        assert binom_tail_geq(5, 0.3, 6) == 0.0
        assert binom_tail_geq(5, 0.3, -0.0) == 1.0
        assert binom_tail_geq(5, 0, 1) == 0.0
        assert binom_tail_geq(5, 1, 5) == 1.0
        assert binom_tail_geq(0, 0.5, 0) == 1.0
        assert binom_tail_geq(0, 0.5, 1) == 0.0

    def test_fractional_threshold_rounds_up(self):
        assert binom_tail_geq(4, 0.5, 1.5) == binom_tail_geq(4, 0.5, 2)
        assert binom_tail_geq(4, 0.5, Fraction(7, 4)) == binom_tail_geq(4, 0.5, 2)

    @pytest.mark.parametrize("n", [1, 2, 7, 20])
    @pytest.mark.parametrize("q", [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)])
    def test_matches_exact_rational_sum(self, n, q):
        for x in range(n + 2):
            want = float(rational_tail(n, q, x))
            got = binom_tail_geq(n, q, x)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_large_n_accuracy(self):
        # well away from the mean
        for x in (10, 32, 50, 64):
            want = float(rational_tail(64, Fraction(2, 3), x))
            assert binom_tail_geq(64, Fraction(2, 3), x) == pytest.approx(want, rel=1e-12)

    # thresholds from below the mean out to the far tail: down to ~1e-300
    # where the tail gets there, else to x = n, whose tail is q^n
    FAR_TAILS = {
        (300, Fraction(1, 100)): (1, 3, 34, 66, 97, 128, 160, 191),
        (300, Fraction(3, 10)): (67, 90, 125, 160, 195, 230, 265, 300),
        (300, Fraction(2, 3)): (176, 200, 217, 233, 250, 267, 283, 300),
        (600, Fraction(1, 100)): (1, 6, 44, 82, 120, 159, 197, 235),
        (600, Fraction(3, 10)): (147, 180, 249, 318, 387, 456, 525, 594),
        (600, Fraction(2, 3)): (366, 400, 433, 467, 500, 533, 567, 600),
    }

    @pytest.mark.parametrize("n, q", sorted(FAR_TAILS))
    def test_far_tail_accuracy(self, n, q):
        wants = []
        for x in self.FAR_TAILS[n, q]:
            want = float(rational_tail(n, q, x))
            assert binom_tail_geq(n, q, x) == pytest.approx(want, rel=1e-11, abs=0.0)
            wants.append(want)
        # normal floats all, and the last is far out in the tail
        assert min(wants) > 1e-300 and wants[-1] < 1e-50

    def test_n_is_an_integer(self):
        # scipy's bdtrc floors n, so 3.5 read as 3
        for n in (3.5, 4.0, True, "4"):
            with pytest.raises(InputError, match="n must be a non-negative integer"):
                binom_tail_geq(n, 0.5, 1)
        assert binom_tail_geq(np.int64(4), 0.5, 2) == binom_tail_geq(4, 0.5, 2)

    @given(
        n=st.integers(1, 40),
        num=st.integers(1, 9),
        x=st.integers(0, 41),
    )
    def test_monotone_in_threshold(self, n, num, x):
        q = Fraction(num, 10)
        x = min(x, n)
        assert binom_tail_geq(n, q, x + 1) <= binom_tail_geq(n, q, x) + 1e-15

    def test_input_errors(self):
        with pytest.raises(InputError):
            binom_tail_geq(-1, 0.5, 0)
        with pytest.raises(InputError):
            binom_tail_geq(4, 1.5, 0)
        with pytest.raises(InputError):
            binom_tail_geq(4, 0.5, 6)
        with pytest.raises(InputError):
            binom_tail_geq(4, 0.5, -1)
        # x is a real number, as a probability is (not a bool)
        for x in ("2", None, True):
            with pytest.raises(InputError):
                binom_tail_geq(5, 0.5, x)


class TestTailRegimes:
    def test_at_sqrt_bound_is_vacuous(self):
        out = theorem2_tail_bound(100, 10)
        assert out == (("near_sqrt", 1.0),)

    def test_interior_of_each_regime(self):
        (tag, val), = theorem2_tail_bound(100, 7)
        assert tag == "near_sqrt"
        assert val == pytest.approx(math.exp(-((10.0 - 7) ** 2) / 10.0))

        (tag, val), = theorem2_tail_bound(10**6, 200)
        assert tag == "mid"
        assert val == pytest.approx(math.exp(-(10**6) / 200))

        (tag, val), = theorem2_tail_bound(10**6, 50)
        assert tag == "small_d"
        assert val == pytest.approx(math.exp(-(10**6) * (10**6 - 125000) / 125000))

    def test_boundaries_report_both_regimes(self):
        # d**3 == k is shared by the mid and small-d ranges
        out = dict(theorem2_tail_bound(10**6, 100))
        assert set(out) == {"mid", "small_d"}
        assert out["small_d"] == 1.0
        # 4*d*d == k is shared by near-sqrt and mid
        out = dict(theorem2_tail_bound(400, 10))
        assert set(out) == {"near_sqrt", "mid"}

    def test_above_sqrt_is_trivial(self):
        assert theorem2_tail_bound(100, 11) == (("trivial", 1.0),)
        assert theorem2_tail_bound(100, 100) == (("trivial", 1.0),)

    def test_mid_regime_monotone_in_d(self):
        # k small enough that exp(-k/d) stays above the float underflow line
        out = [theorem2_tail_bound(10**4, d) for d in range(22, 50)]
        assert all(o[0][0] == "mid" and len(o) == 1 for o in out)
        vals = [o[0][1] for o in out]
        assert all(0 < a < b for a, b in zip(vals, vals[1:]))

    def test_constant_scales_exponent(self):
        strong = BoundConstants(c_thm2=3.0)
        (_, weak), = theorem2_tail_bound(2500, 24)
        (_, scaled), = theorem2_tail_bound(2500, 24, strong)
        assert weak > 0
        assert scaled == pytest.approx(weak**3)

    def test_input_errors(self):
        with pytest.raises(InputError):
            theorem2_tail_bound(100, 0)
        with pytest.raises(InputError):
            theorem2_tail_bound(100, 101)
        with pytest.raises(InputError):
            theorem2_tail_bound(100.0, 5)

    def test_sizes_take_the_integer_rule(self):
        # an int or a numpy integer, not a bool: graphs._is_integer
        for k, d in ((True, True), (16, True), (True, 1)):
            with pytest.raises(InputError, match="integers"):
                theorem2_tail_bound(k, d)
        assert theorem2_tail_bound(np.int64(16), np.int32(4)) == theorem2_tail_bound(16, 4)
        # d ** 3 as a numpy integer would wrap past 2^63
        assert theorem2_tail_bound(np.int64(10**15), np.int64(2_200_000)) == \
            theorem2_tail_bound(10**15, 2_200_000)


class TestPropositionBound:
    def test_value(self):
        assert proposition_lower_bound(0.5, 30, 30) == pytest.approx(30 / (4 * math.log(30)))

    def test_full_density_sanity(self):
        # keeping every edge needs k colours, and the bound stays below that
        k, n = 40, 40
        assert proposition_lower_bound(1.0, k, n) == pytest.approx(k / (2 * math.log(n)))
        assert proposition_lower_bound(1.0, k, n) < k

    def test_monotone_in_p_and_k(self):
        lo = proposition_lower_bound(0.2, 100, 50)
        assert lo < proposition_lower_bound(0.4, 100, 50)
        assert lo < proposition_lower_bound(0.2, 200, 50)
        assert lo > proposition_lower_bound(0.2, 100, 500)

    def test_input_errors(self):
        for bad in [(0.0, 10, 10), (1.2, 10, 10), (0.5, 1, 10), (0.5, 10, 1)]:
            with pytest.raises(InputError):
                proposition_lower_bound(*bad)
        assert proposition_lower_bound(1, np.int64(30), np.int64(30)) == proposition_lower_bound(1.0, 30, 30)


@pytest.mark.parametrize("args", [
    (binom_tail_geq, 5, "0.5", 2),
    (binom_tail_geq, 5, True, 2),
    (proposition_lower_bound, "0.5", 10, 10),
    (proposition_lower_bound, True, 10, 10),
    (proposition_lower_bound, 0.5, "10", 10),
    (proposition_lower_bound, 0.5, 10, "10"),
    (proposition_lower_bound, 0.5, 10.0, 10),
], ids=["q-str", "q-bool", "p-str", "p-bool", "k-str", "n-str", "k-float"])
def test_a_probability_or_size_of_the_wrong_type_is_an_input_error(args):
    # probabilities follow sampling._check_probability, sizes graphs._is_integer
    with pytest.raises(InputError):
        args[0](*args[1:])


class TestResilientPairBound:
    def test_exact_small_case(self):
        # M = 4, block = 4, prefactor 5*C(4,4); success rate 2/3 per trial
        tail = rational_tail(4, Fraction(2, 3), 3)
        assert tail == Fraction(16, 27)
        want = float(5 * tail**4)
        assert resilient_pair_probability_bound(12, 3) == pytest.approx(want, rel=1e-12)

    def test_s_two_has_no_room_for_a_block(self):
        # M = k/4 < k/2, so no candidate subset exists and the bound is 0
        assert resilient_pair_probability_bound(8, 2) == 0.0

    def test_decreasing_in_k(self):
        vals = [resilient_pair_probability_bound(k, 3) for k in (12, 24, 48, 96)]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_reference_comparison(self):
        value, ref = resilient_pair_probability_bound(12, 3, BoundConstants())
        assert value == pytest.approx(resilient_pair_probability_bound(12, 3))
        assert ref == pytest.approx(2.0**-144)

    def test_reference_underflow_clamps_to_zero(self):
        _, ref = resilient_pair_probability_bound(96, 3, BoundConstants())
        assert ref == 0.0

    def test_fractional_quarter_threshold(self):
        # k = 18: the success threshold 4.5 rounds up to 5 successes
        tail = rational_tail(6, Fraction(2, 3), 5)
        assert tail == Fraction(256, 729)
        want = float(5 * math.comb(6, 6) * tail**6)
        assert resilient_pair_probability_bound(18, 3) == pytest.approx(want, rel=1e-12)

    def test_input_errors(self):
        with pytest.raises(InputError):
            resilient_pair_probability_bound(12, 1)
        with pytest.raises(InputError):
            resilient_pair_probability_bound(13, 3)
        with pytest.raises(InputError):
            resilient_pair_probability_bound(0, 3)


def audit_family(blocks, k, block_size):
    assert all(isinstance(b, frozenset) for b in blocks)
    assert all(b <= set(range(k)) for b in blocks)
    assert all(len(b) >= block_size for b in blocks)
    for a, b in combinations(blocks, 2):
        assert len(a & b) <= 1


class TestNearDisjointFamily:
    def test_perfect_square_of_prime_gives_large_family(self):
        blocks = near_disjoint_family(9, 3)
        assert len(blocks) == 12
        audit_family(blocks, 9, 3)
        assert len(set(blocks)) == 12

    def test_smaller_blocks_still_use_the_plane(self):
        blocks = near_disjoint_family(25, 4)
        assert len(blocks) == 30
        audit_family(blocks, 25, 4)

    def test_fallback_partition(self):
        blocks = near_disjoint_family(10, 3)
        assert len(blocks) == 3
        audit_family(blocks, 10, 3)
        assert all(len(a & b) == 0 for a, b in combinations(blocks, 2))

    def test_square_of_composite_falls_back(self):
        blocks = near_disjoint_family(16, 4)
        assert len(blocks) == 4
        audit_family(blocks, 16, 4)

    def test_block_equal_to_k(self):
        blocks = near_disjoint_family(9, 9)
        assert blocks == [frozenset(range(9))]

    def test_every_point_is_covered_equally_by_the_plane(self):
        blocks = near_disjoint_family(49, 7)
        counts = {x: 0 for x in range(49)}
        for b in blocks:
            for x in b:
                counts[x] += 1
        # q + 1 lines through every point
        assert set(counts.values()) == {8}

    def test_input_errors(self):
        with pytest.raises(InputError):
            near_disjoint_family(9, 0)
        with pytest.raises(InputError):
            near_disjoint_family(9, 10)


def test_constants_must_be_positive():
    with pytest.raises(InputError, match="c4"):
        BoundConstants(c4=0.0)
    with pytest.raises(InputError, match="c_thm2"):
        BoundConstants(c_thm2=-1.0)
    c = BoundConstants(c4=2.5)
    assert c.c4 == 2.5 and c.c_thm2 == 1.0
    assert BoundConstants() == BoundConstants(c4=1.0, c_thm2=1.0)
