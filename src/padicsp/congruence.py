"""Congruence levels of Sp_2n: root positions, level tests, depth characters, volumes.

Matrix conventions as in chevalley: Sp_2n is defined by the form
[[0, J], [-J, 0]] with J the n x n antidiagonal of ones, the torus is
diag(a_1..a_n, a_n^-1..a_1^-1) and the Borel is upper triangular.
One-parameter root subgroups sit at positions read off the column pair
(a, b) of each positive root g (rootsys._root_columns: g is the weight
of column a less that of column b, a < b; 0-based, N = 2n):

  x_g(r)  = I + r E[a, b] + s r E[N-1-b, N-1-a],  s = -1 if b < n, else +1
  x_-g(r) = the transposes of g's positions, with the same signs.

A long root 2 e_i has b = N-1-a, so its mirror is (a, b) itself and it
has one position.  The first listed position is the "primary" one: the
coefficient of a root factor can be read off there.  _root_positions
holds that table, and refuses a root of another rank with MatrixError.

The depth-m congruence subgroup is conjugated by the torus element of
level_exponents; the coordinate bounds say at which valuation a root
factor enters it, the depth characters read psi off the superdiagonal,
and volume_exponent is the log_q volume of a coordinate box.  Only these
functions read valuations, and those that do take a PrimeCtx as their
leading argument.  The module is Mat-free: it reads a matrix's integer
rows and its methods but never builds one, so chevalley, which builds
every Mat, can import it.  Its annotations name chevalley's Mat, which
it does not import; under `from __future__ import annotations` they stay
strings.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import intmat
from .padic import Mono, PadicError, _as_int, _pfrac
from .rootsys import Root, WeylElem, _positive_columns, positive_roots

Q = Fraction


class MatrixError(PadicError):
    pass


# --------------------------------------------------- root group positions

class _Positions(dict):
    """{root: positions} of one rank; any other key raises MatrixError."""

    def __missing__(self, root):
        raise MatrixError(f"root {root!r} is not a root of rank {next(iter(self)).n}")


@lru_cache(maxsize=None)
def _root_positions(n: int) -> _Positions:
    """{root: (row, col, sign) triples, 0-based, primary first} over the
    2 n^2 roots of rank n, by the rule above from _positive_columns."""
    big = 2 * n - 1  # mirror index: pos p maps to big - p
    out = []
    for g, a, b in _positive_columns(n):
        pos = ((a, b, 1),) if big - b == a else ((a, b, 1), (big - b, big - a, -1 if b < n else 1))
        out += [(g, pos), (-g, tuple([(col, row, s) for row, col, s in pos]))]
    return _Positions(out)


# --------------------------------------------------- congruence layers

def level_exponents(n: int, m: int):
    """Diagonal valuations of the conjugating torus element."""
    n, m = _as_int(n, MatrixError, "n"), _as_int(m, MatrixError, "m")
    return [-(2 * n - 2 * i - 1) * m for i in range(n)] + [(2 * k + 1) * m for k in range(n)]


def in_standard_level(ctx, g: Mat, m: int) -> bool:
    """Membership in the principal congruence subgroup of depth m."""
    return intmat.in_level(ctx.p, g.den, g.num, m, [0] * g.size)


def in_skew_level(ctx, g: Mat, m: int) -> bool:
    """Membership in the torus-conjugated congruence subgroup."""
    return intmat.in_level(ctx.p, g.den, g.num, m, level_exponents(g.size // 2, m))


def radical_coordinate_bound(root: Root, m: int) -> int:
    """x_root(r) lies in the skew level iff v(r) >= this (positive root)."""
    return -(2 * root.height - 1) * _as_int(m, MatrixError, "m")


def negative_coordinate_bound(root: Root, m: int) -> int:
    """x_{-root}(r) lies in the skew level iff v(r) >= this."""
    return (2 * root.height + 1) * _as_int(m, MatrixError, "m")


def generic_character(ctx, u: Mat) -> Mono:
    """psi of the sum of the n superdiagonal entries through the middle."""
    n = u.size // 2
    if not u.is_upper_unitriangular():
        raise MatrixError("not unipotent upper triangular")
    total = Q(sum(u.num[i][i + 1] for i in range(n)), u.den)
    return Mono(turn=_pfrac(total, ctx.p))


def skew_level_character(ctx, h: Mat, m: int) -> Mono:
    """The depth-m character: conjugate back and read the superdiagonal."""
    n = h.size // 2
    if not in_skew_level(ctx, h, m):
        raise MatrixError("not in the skew level subgroup")
    # conjugating by d = diag(p^e_i) scales entry (i, j) by p^(e_j - e_i)
    es = level_exponents(n, m)
    p = Q(ctx.p)
    total = sum(h[i, i + 1] * p ** (es[i + 1] - es[i]) for i in range(n)) * p ** (-2 * m)
    return Mono(turn=_pfrac(total, ctx.p))


# --------------------------------------------------------- volume ledger

def volume_exponent(kind: str, n: int, m: int, root: Root = None, w: WeylElem = None) -> int:
    """log_q of the volume of a depth-m coordinate box, vol(U cap K) = 1.

    Each positive-root coordinate contributes (2 ht - 1) m.
    """
    n, m = _as_int(n, MatrixError, "n"), _as_int(m, MatrixError, "m", 0)
    if kind == "U":
        return m * sum(2 * g.height - 1 for g in positive_roots(n))
    if kind == "U_gamma":
        if root is None or not root.is_positive():
            raise MatrixError("needs a positive root")
        return m * (2 * root.height - 1)
    if kind in ("U_w_minus", "U_w_plus"):
        if w is None:
            raise MatrixError("needs a Weyl element")
        roots = w.negated_positive_roots() if kind == "U_w_minus" else w.kept_positive_roots()
        return m * sum(2 * g.height - 1 for g in roots)
    if kind == "D":
        # first-row slice of the radical: 2e_1 and e_1 + e_k
        if n < 2:
            raise MatrixError("needs rank >= 2")
        roots = [Root.from_euclid(n, tuple(2 if k == 0 else 0 for k in range(n)))]
        for j in range(2, n + 1):
            roots.append(Root.from_euclid(n, tuple(1 if k in (0, j - 1) else 0 for k in range(n))))
        return m * sum(2 * g.height - 1 for g in roots)
    raise MatrixError(f"unknown volume kind {kind!r}")
