"""Closed-form probability bounds, binomial tails from scipy's bdtrc, and the
nearly-disjoint block family used by the equipartition argument.

Every asymptotic constant the bounds evaluate is a BoundConstants field
defaulting to 1.0. These defaults are NOT taken from any source; they
exist so the expressions are computable, and experiments must treat them
as free parameters to fit or sweep.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .generators import ConstructionParams
from .graphs import _integer, _is_integer
from .sampling import _check_probability


@dataclass(frozen=True)
class BoundConstants:
    """Positive constants for the implicit Omega/Theta factors that code
    evaluates: c4 the resilient-pair decay constant, and c_thm2 the scale
    of all three subgraph-colouring tail regimes.
    """

    c4: float = 1.0
    c_thm2: float = 1.0

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if getattr(self, name) <= 0:
                raise InputError(f"constant {name} must be positive")


def binom_tail_geq(n: int, q, x) -> float:
    """Upper tail P(Binom(n, q) >= x) as scipy's bdtrc(ceil(x) - 1, n, q), so a
    fractional x starts the sum at ceil(x); n must be an integer, which bdtrc
    floors, q a probability (sampling._check_probability) and x a real
    number, not a bool, in 0..n+1."""
    n = _integer(n, "n")
    _check_probability(q)
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or not 0 <= x <= n + 1:
        raise InputError(f"x must be a number in 0..n+1, got {x!r}")
    import scipy.special  # here, on first call, so `import randcol` skips it

    return float(scipy.special.bdtrc(math.ceil(x) - 1, n, float(q)))


def theorem2_tail_bound(k: int, d: int, constants: BoundConstants | None = None) -> tuple:
    """Tail bound(s) on P(chromatic number of a half-density subgraph of
    a k-clique is at most d), as (regime_tag, value) pairs.

    Regime membership is decided by exact integer comparisons
    (d*d vs k, d**3 vs k); on a shared boundary both regimes are
    reported. Above sqrt(k) the bound is vacuous and tagged "trivial".
    Values use C = constants.c_thm2 and are clamped to [0, 1].
    """
    if not (_is_integer(k) and _is_integer(d)):
        raise InputError("k and d must be integers")
    k, d = int(k), int(d)  # d ** 3 of a numpy integer would wrap
    if not 1 <= d <= k:
        raise InputError(f"d={d} outside 1..{k}")
    c = (constants or BoundConstants()).c_thm2
    sqrt_k = math.sqrt(k)
    out = []
    if d * d <= k and 4 * d * d >= k:
        exponent = c * (sqrt_k - d) ** 2 / sqrt_k
        out.append(("near_sqrt", min(1.0, math.exp(-exponent))))
    if d ** 3 >= k and 4 * d * d <= k:
        out.append(("mid", min(1.0, math.exp(-c * k / d))))
    if d ** 3 <= k:
        exponent = c * k * (k - d ** 3) / d ** 3
        out.append(("small_d", min(1.0, math.exp(-exponent))))
    if not out:
        out.append(("trivial", 1.0))
    return tuple(out)


def proposition_lower_bound(p: float, k, n) -> float:
    """Chromatic-number lower bound p*k / (2 ln n) for a p-subgraph of a
    graph whose every subgraph on the same vertices needs k colours."""
    _check_probability(p)
    if p == 0:
        raise InputError("p must lie in (0, 1]")
    k, n = _integer(k, "k", 2), _integer(n, "n", 2)
    return p * k / (2 * math.log(n))


def resilient_pair_probability_bound(k: int, s: int, constants: BoundConstants | None = None):
    """Union bound on one super-vertex containing a resilient pair:
    (s+2) * C(M, k/s) * P(Binom(M, 1/2 + 1/2s) >= k/4)^(k/s) with
    M = k/2 - k/2s (the gadget's layer size, so k and s are checked as
    ConstructionParams.thm4 checks them), evaluated in log-space and
    clamped to [0, 1].

    Returns the value alone, or (value, (1+c4)^(-k^2)) when constants
    are supplied for comparison against the target decay rate.
    """
    m = ConstructionParams.thm4(k, s).m
    size = k // s
    if size > m:
        value = 0.0
    else:
        tail = binom_tail_geq(m, Fraction(1, 2) + Fraction(1, 2 * s), Fraction(k, 4))
        if tail == 0.0:
            value = 0.0
        else:
            log_value = math.log(s + 2) + math.log(math.comb(m, size)) + size * math.log(tail)
            value = min(1.0, math.exp(log_value))
    if constants is None:
        return value
    log_ref = -(k ** 2) * math.log1p(constants.c4)
    reference = math.exp(log_ref) if log_ref > -745 else 0.0
    return value, reference


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    f = 2
    while f * f <= q:
        if q % f == 0:
            return False
        f += 1
    return True


def near_disjoint_family(k: int, block_size: int) -> list:
    """Subsets of range(k), each of size >= block_size, pairwise
    intersecting in at most one element.

    When k = q*q for a prime q and block_size <= q, the q*q + q lines of
    the affine plane over F_q give the large family; otherwise the
    fallback is the ceil-free disjoint partition into floor(k/block_size)
    blocks."""
    k, block_size = _integer(k, "k"), _integer(block_size, "block_size", 1)
    if block_size > k:
        raise InputError("block_size cannot exceed k")
    q = math.isqrt(k)
    if q * q == k and _is_prime(q) and block_size <= q:
        blocks = []
        for a in range(q):
            for b in range(q):
                blocks.append(frozenset((x * q + (a * x + b) % q) for x in range(q)))
        for cx in range(q):
            blocks.append(frozenset(cx * q + y for y in range(q)))
        return blocks
    return [
        frozenset(range(i * block_size, (i + 1) * block_size))
        for i in range(k // block_size)
    ]
