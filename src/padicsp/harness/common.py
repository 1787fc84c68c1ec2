"""What more than one module of the catalog reads: the seeded rational
sampler and its square classes, the matrix ranks of a campaign, p-power
constants, and the failure of a case on which a library self-check
raised.
"""

from fractions import Fraction as Q
from functools import lru_cache

from ..padic import _legendre, fraction_valuation
from .report import CheckFailure


def nonresidue(p: int) -> int:
    for u in range(2, p):
        if _legendre(u, p) == -1:
            return u
    raise AssertionError(p)


@lru_cache(maxsize=None)
def square_classes(p: int):
    u0 = nonresidue(p)
    return (Q(1), Q(u0), Q(p), Q(u0 * p))


def sample_rational(rng, p: int, m: int = 1, square_class=None, signed=False) -> Q:
    """u * p^k with unit height <= 10^3, |k| <= 3m, square class controlled."""
    if square_class is None:
        square_class = rng.choice(square_classes(p))
    num = rng.randint(1, 1000)
    while num % p == 0:
        num = rng.randint(1, 1000)
    den = rng.randint(1, 1000)
    while den % p == 0:
        den = rng.randint(1, 1000)
    span = max(0, (3 * m - abs(fraction_valuation(square_class, p))) // 2)
    k = rng.randint(-span, span)
    num, den = square_class.numerator * num * num, square_class.denominator * den * den
    if k >= 0:
        num *= p ** (2 * k)
    else:
        den *= p ** (-2 * k)
    if signed and rng.random() < 0.5:
        num = -num
    return Q(num, den)


def matrix_ranks(cfg):
    return [n for n in cfg.n if n <= 3]


def _power_times(c: int, p: int, v: int) -> Q:
    """c p^v as one Fraction, from integer powers."""
    return Q(c * p**v) if v >= 0 else Q(c, p**-v)


def _raised(case: dict, exc: Exception) -> CheckFailure:
    """The failure of one case on which a library self-check raised exc."""
    return CheckFailure({**case, "error": f"{type(exc).__name__}: {exc}"})
