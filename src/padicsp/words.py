"""Generator words of the Weil action and their lifts to the metaplectic cover.

A word is a list of items, applied rightmost first: ("upper", b),
("diag", a), ("flip",), ("sign", s) for the metaplectic SL2, and
("heis", x, xp, z) or a HeisenbergElem for the Heisenberg group.
_norm_item checks an item and puts it in one normal form; cover_lift
multiplies the unit-sheet lifts of a word's SL2 items into a MetaSL2,
and canonical_word reads a fixed generator word off a cover element's
matrix.  schwartz applies the words to Schwartz functions.
"""
from __future__ import annotations

from fractions import Fraction as Q

from .chirp import SchwartzError
from .metaplectic import MetaSL2
from .padic import PrimeCtx, _as_fraction, _as_sign
from .value import _Value, _set


class HeisenbergElem(_Value):
    """Group element [x, xp, z] of rationals; the commutator pairing carries a factor 2."""

    __slots__ = ("x", "xp", "z")

    def __init__(self, x: Q, xp: Q, z: Q):
        _set(self, "x", _as_fraction(x))
        _set(self, "xp", _as_fraction(xp))
        _set(self, "z", _as_fraction(z))

    def __mul__(self, other: "HeisenbergElem") -> "HeisenbergElem":
        shift = self.x * other.xp - other.x * self.xp
        return HeisenbergElem(self.x + other.x, self.xp + other.xp, self.z + other.z + shift)

    def inverse(self) -> "HeisenbergElem":
        return HeisenbergElem(-self.x, -self.xp, -self.z)

    def is_identity(self) -> bool:
        return not (self.x or self.xp or self.z)


def _norm_item(item):
    if isinstance(item, HeisenbergElem):
        return ("heis", item.x, item.xp, item.z)
    if not isinstance(item, tuple) or not item:
        raise SchwartzError(f"bad word item {item!r}")
    tag = item[0]
    if tag == "flip":
        return ("flip",)
    if tag == "upper":
        return ("upper", _as_fraction(item[1]))
    if tag == "diag":
        a = _as_fraction(item[1])
        if a == 0:
            raise SchwartzError("m1(a) needs a nonzero")
        return ("diag", a)
    if tag == "sign":
        return ("sign", _as_sign(item[1], SchwartzError, "sheet sign"))
    if tag == "heis":
        return ("heis", _as_fraction(item[1]), _as_fraction(item[2]), _as_fraction(item[3]))
    raise SchwartzError(f"unknown word item tag {tag!r}")


def cover_lift(ctx: PrimeCtx, word) -> MetaSL2:
    """Product of the unit-sheet lifts of the SL2 items of a word."""
    out = None
    for item in word:
        it = _norm_item(item)
        tag = it[0]
        if tag == "upper":
            g = MetaSL2.upper(ctx, it[1])
        elif tag == "diag":
            g = MetaSL2.diag(ctx, it[1])
        elif tag == "flip":
            g = MetaSL2.flip(ctx)
        elif tag == "sign":
            g = MetaSL2.identity(ctx, it[1])
        else:
            raise SchwartzError("Heisenberg items have no SL2 lift")
        out = g if out is None else out * g
    return MetaSL2.identity(ctx) if out is None else out


def canonical_word(g: MetaSL2) -> list:
    """A fixed generator word for the matrix of g: Bruhat form of the
    bottom row, read off the integer rows ((a, b), (c, d)) / den."""
    (a, b), (c, d) = g.mat.num
    den = g.mat.den
    if c:
        return [("upper", Q(a, c)), ("diag", Q(-den, c)), ("flip",), ("upper", Q(d, c))]
    return [("upper", Q(a * b, den * den)), ("diag", Q(a, den))]
