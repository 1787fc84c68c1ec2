"""Subgroups of Sp_2n as matrices: block embeddings, tori, rotations and root peels.

The Levi embedding is m(A) = diag(A, J tA^-1 J) and the abelian radical
is n(X) = [[I, X], [0, I]] with tX = J X J, J the n x n antidiagonal of
ones; the middle SL_2 sits at lines n, n+1.  Here are those embeddings,
the torus and its conjugating element at a level, the coordinate
rotation, the zeta-integral slice and the long corner element, and the
routines that read a product of root factors back into coordinates:
peel_unipotent, commutator_coefficients and the Borel part of the cell
identity.  Every matrix is built through chevalley's Mat, which this
module imports and which does not import it.

peel_unipotent and commutator_coefficients check that the peel leaves
the identity, and cell_identity_borel_part checks that b lies in the
Borel, raising MatrixError or FactorizationError when a check fails.
"""
from __future__ import annotations

from fractions import Fraction

from . import intmat
from .chevalley import (
    FactorizationError,
    Mat,
    _coordinates,
    _mat,
    _stored,
    root_product,
    symplectic_inverse,
    weyl_rep,
)
from .congruence import MatrixError, level_exponents
from .padic import _as_fraction
from .badtriples import reflection
from .rootsys import Root, _root_table, coordinate_rotation, positive_roots

Q = Fraction


# ------------------------------------------------------- block builders

def _block(n: int, rows, what: str) -> Mat:
    """The n x n block of an embedding, built from its integer rows; every
    entry passes _as_fraction."""
    rows = [[_as_fraction(x) for x in row] for row in rows]
    if len(rows) != n or any(len(row) != n for row in rows):
        raise MatrixError(f"{what} block has wrong size")
    return _stored(*intmat.integer_rows(rows))


def levi_embed(n: int, a_rows) -> Mat:
    """m(A) = diag(A, J tA^-1 J) for A in GL_n."""
    a = _block(n, a_rows, "Levi")
    ainv = a.inverse()
    return _stored(*intmat.levi_block(a.den, a.num, ainv.den, ainv.num))


def radical_embed(n: int, x_rows) -> Mat:
    """n(X) = [[I, X], [0, I]]; X must satisfy tX = J X J."""
    x = _block(n, x_rows, "radical")
    for i in range(n):
        for j in range(n):
            if x.num[j][i] != x.num[n - 1 - i][n - 1 - j]:
                raise MatrixError("block is not symmetric about the antidiagonal")
    den = x.den
    num = [[den if i == j else 0 for j in range(2 * n)] for i in range(2 * n)]
    for i in range(n):
        num[i][n:] = x.num[i]
    return _mat(den, intmat.tuple_rows(num))


def torus(entries) -> Mat:
    es = [_as_fraction(e) for e in entries]
    if not all(es):
        raise MatrixError("a torus entry is 0")
    big = 2 * len(es) - 1
    entries = []
    for i, e in enumerate(es):
        # e at (i, i) and 1 / e, numerator and denominator swapped, at the mirror
        entries += [(i, i, e.numerator, e.denominator), (big - i, big - i, e.denominator, e.numerator)]
    return _stored(*intmat.from_entries(big + 1, entries))


def first_axis_torus(n: int, a) -> Mat:
    """diag(a, 1, ..., 1, a^-1)."""
    return torus([a] + [1] * (n - 1))


def conjugating_torus(ctx, n: int, m: int) -> Mat:
    p = Q(ctx.p)
    return Mat.diagonal([p**e for e in level_exponents(n, m)])


def sl2_embed(n: int, g2) -> Mat:
    """The middle SL_2 block at lines n, n+1."""
    rows = [[1 if i == j else 0 for j in range(2 * n)] for i in range(2 * n)]
    for i in range(2):
        for j in range(2):
            rows[n - 1 + i][n - 1 + j] = g2[i][j]
    return Mat(rows)


def rotation_matrix(n: int) -> Mat:
    """m of the n-cycle sending line k to line k+1 (line n to line 1):
    the representative of coordinate_rotation(n)."""
    return weyl_rep(coordinate_rotation(n))


def rotate_conjugate(g: Mat) -> Mat:
    """Conjugation by the coordinate rotation."""
    n = g.size // 2
    w1 = rotation_matrix(n)
    return w1 * g * symplectic_inverse(w1)


def corner_column_unipotent(n: int, ys, x) -> Mat:
    """m of [[I_{n-2}, 0, y], [0, 1, x], [0, 0, 1]]: the zeta-integral slice."""
    if n < 2:
        raise MatrixError("needs rank >= 2")
    if len(ys) != n - 2:
        raise MatrixError("y must have n - 2 entries")
    a = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, y in enumerate(ys):
        a[i][n - 1] = y
    a[n - 2][n - 1] = x
    return levi_embed(n, a)


def top_cell_matrix(n: int) -> Mat:
    """Representative of the reflection in 2 e_1: the long corner element."""
    num = [list(row) for row in intmat.eye(2 * n)]
    num[0][0] = num[-1][-1] = 0
    num[0][-1] = 1
    num[-1][0] = -1
    return _stored(1, intmat.tuple_rows(num))


# ------------------------------------------------ unipotent coordinates

def peel_unipotent(u: Mat):
    """Coordinates of an upper unipotent over ascending root height.

    Peels x_g(-c) off the left for each positive root in height order;
    exact because leftover cross terms always sit at taller positions.
    """
    n = u.size // 2
    if not u.is_upper_unitriangular():
        raise FactorizationError("not upper unitriangular")
    return _coordinates(n, u, [(g, g) for g in positive_roots(n)])


def commutator_coefficients(n: int, g1: Root, r, g2: Root, s):
    """[x_g1(r), x_g2(s)] = prod x_{i g1 + j g2}(c_ij); returns {(i, j): c}.

    Candidate roots are peeled in ascending height; the residue must be
    the identity, which is checked.
    """
    r, s = _as_fraction(r), _as_fraction(s)
    com = root_product(n, [(g1, r), (g2, s), (g1, -r), (g2, -s)])
    table = _root_table(n)
    cands = []
    for i in range(1, 5):
        for j in range(1, 5):
            root = table.get(tuple([i * a + j * b for a, b in zip(g1.euclid(), g2.euclid())]))
            if root is not None:
                cands.append(((i, j), root))
    cands.sort(key=lambda t: t[1].height)
    return _coordinates(n, com, cands)


def cell_identity_borel_part(n: int, root: Root, r) -> Mat:
    """b with x_g(r) x_{-g}(-1/r) = W(s_g) b; checks b is in the Borel."""
    r = _as_fraction(r)
    if not r:
        raise MatrixError("needs r nonzero")
    lhs = root_product(n, [(root, r), (-root, -1 / r)])
    s = reflection(root)
    b = symplectic_inverse(weyl_rep(s)) * lhs
    if not b.is_upper_triangular():
        raise MatrixError("cell identity failed")
    return b
