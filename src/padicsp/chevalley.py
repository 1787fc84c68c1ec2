"""The rank-n symplectic group over exact p-adic rationals.

Matrix conventions.  Sp_2n is defined by the form [[0, J], [-J, 0]]
with J the n x n antidiagonal of ones, so the torus is
diag(a_1..a_n, a_n^-1..a_1^-1) and the Borel is upper triangular.  The
Levi embedding is m(A) = diag(A, J tA^-1 J), the abelian radical is
n(X) = [[I, X], [0, I]] with tX = J X J.  One-parameter root subgroups
are realized as follows (rows/columns 1-based, N = 2n + 1):

  line root e_a - e_b:   I + r E[a, b]     - r E[N-b, N-a]
  sum root  e_a + e_b:   I + r E[a, N-b]   + r E[b, N-a]   (a < b)
  long root 2 e_a:       I + r E[a, N-a]
  negatives: the mirrored lower positions with the same signs.

The first listed position is the "primary" one: the coefficient of a
root factor can be read off there.  Weyl generators are m(swap) for the
short simple roots and the middle [[0, 1], [-1, 0]] block for the long
one; canonical monomial representatives multiply those along a reduced
word.  Everything is exact: a matrix is integer rows over one positive
denominator, in lowest terms.  A matrix carries no prime: cells, root
groups and Weyl representatives never read p, and only the functions
that read valuations (the congruence levels, the depth characters and
the cell-word rewrite) take a PrimeCtx, as their leading argument.

The structural routines verify their own output and raise MatrixError
(or FactorizationError) when a check fails, so their callers need not
re-derive it.  bruhat_decompose checks the shapes of its factors and
recomposes g; peel_unipotent and commutator_coefficients check that the
peel leaves the identity; cell_identity_borel_part checks that b lies in
the Borel; cell_word_rewrite checks the rewrite identity, the peel
residue and the pivot size; and cell_collapse_witness checks that the
cell it reads off the corner ranks drops below w.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .padic import Mono, fraction_valuation, _Value, _as_fraction, _pfrac
from .rootsys import (
    Root,
    WeylElem,
    bruhat_leq,
    is_bad_pair,
    ordered_negated_roots,
    positive_roots,
    reflection,
)

Q = Fraction


class MatrixError(ValueError):
    pass


class FactorizationError(MatrixError):
    pass


class Mat(_Value):
    """Immutable exact square matrix.

    Stored in lowest terms as one positive integer denominator `den` and
    integer rows `num` with gcd(den, *entries) == 1, so equal matrices
    have equal storage.  `rows` is the Fraction view, built on first use.
    """

    __slots__ = ("den", "num", "_rows")

    def __init__(self, rows):
        rows = [[_as_fraction(x) for x in row] for row in rows]
        if any(len(row) != len(rows) for row in rows):
            raise MatrixError("rows do not form a square matrix")
        _fill(self, *_integer_rows(rows))

    @classmethod
    def identity(cls, size: int) -> "Mat":
        return _mat(1, _eye(size))

    @classmethod
    def diagonal(cls, entries) -> "Mat":
        es = [_as_fraction(e) for e in entries]
        return _from_entries(len(es), [(i, i, e.numerator, e.denominator) for i, e in enumerate(es)])

    def __repr__(self):
        return f"Mat(rows={self.rows!r})"

    @property
    def rows(self) -> tuple:
        """The entries as Fractions."""
        rows = self._rows
        if rows is None:
            den = self.den
            rows = tuple([tuple([Q(x, den) for x in row]) for row in self.num])
            object.__setattr__(self, "_rows", rows)
        return rows

    @property
    def size(self) -> int:
        return len(self.num)

    def __getitem__(self, ij):
        return Q(self.num[ij[0]][ij[1]], self.den)

    def __mul__(self, other: "Mat") -> "Mat":
        """Exact product: integer rows times integer rows, skipping zeros,
        over the product of the two denominators."""
        if len(self.num) != len(other.num):
            raise MatrixError("incompatible matrices")
        brows = other.num
        out = []
        for arow in self.num:
            acc = [0] * len(arow)
            for a, brow in zip(arow, brows):
                if a:
                    for j, b in enumerate(brow):
                        if b:
                            acc[j] += a * b
            out.append(tuple(acc))
        return _mat(self.den * other.den, tuple(out))

    def transpose(self) -> "Mat":
        return _stored(self.den, tuple([*zip(*self.num)]))

    def inverse(self) -> "Mat":
        """Fraction-free Gauss-Jordan on the integer rows (Bareiss, Math.
        Comp. 22, 1968, with a gcd in place of his exact division).

        Each column is cleared with x pv - f y, and every touched row,
        with its half of the augmented matrix b, is reduced by its gcd.
        The elimination ends at diag(a_i) = b num, so row i of the
        inverse of num / den is den b[i] / a_i.
        """
        size = len(self.num)
        a = [list(row) for row in self.num]
        b = [list(row) for row in _eye(size)]
        for col in range(size):
            piv = next((r for r in range(col, size) if a[r][col]), None)
            if piv is None:
                raise MatrixError("singular matrix")
            a[col], a[piv] = a[piv], a[col]
            b[col], b[piv] = b[piv], b[col]
            prow, pb = a[col], b[col]
            pv = prow[col]
            for r in range(size):
                f = a[r][col]
                if f and r != col:
                    ra = [x * pv - f * y for x, y in zip(a[r], prow)]
                    rb = [x * pv - f * y for x, y in zip(b[r], pb)]
                    g = math.gcd(*ra, *rb)
                    if g != 1:
                        ra = [x // g for x in ra]
                        rb = [x // g for x in rb]
                    a[r], b[r] = ra, rb
        den = self.den
        return _mat(*_over_common_den([_reduced_row([den * x for x in b[i]], a[i][i]) for i in range(size)]))

    def is_identity(self) -> bool:
        return self.den == 1 and self.num == _eye(len(self.num))

    def is_diagonal(self) -> bool:
        return all(not x for i, row in enumerate(self.num) for j, x in enumerate(row) if i != j)

    def is_upper_triangular(self) -> bool:
        return not any(x for i, row in enumerate(self.num) for x in row[:i])

    def is_upper_unitriangular(self) -> bool:
        den = self.den
        return self.is_upper_triangular() and all(row[i] == den for i, row in enumerate(self.num))


def _fill(m: Mat, den: int, num: tuple) -> None:
    object.__setattr__(m, "den", den)
    object.__setattr__(m, "num", num)
    object.__setattr__(m, "_rows", None)


def _mat(den: int, num: tuple) -> Mat:
    """The Mat num / den for den > 0 and integer rows num, reduced to lowest terms."""
    if den != 1:
        g = math.gcd(den, *[x for row in num for x in row])
        if g != 1:
            den //= g
            num = tuple([tuple([x // g for x in row]) for row in num])
    return _stored(den, num)


def _stored(den: int, num: tuple) -> Mat:
    """The Mat num / den for num / den already in lowest terms, den > 0."""
    m = object.__new__(Mat)
    _fill(m, den, num)
    return m


def _from_entries(size: int, entries) -> Mat:
    """The Mat with num / den at (i, j) for each (i, j, num, den) of
    entries (integers, den != 0, each (i, j) once) and zeros elsewhere,
    over the lcm of the dens."""
    d = math.lcm(*[den for _, _, _, den in entries])
    rows = [[0] * size for _ in range(size)]
    for i, j, x, den in entries:
        rows[i][j] = x * (d // den)
    return _mat(d, _tuple_rows(rows))


def _unit_diagonal(size: int) -> list:
    """The entries of the identity, for _from_entries."""
    return [(i, i, 1, 1) for i in range(size)]


def _tuple_rows(rows) -> tuple:
    """Lists of rows as a tuple of tuples, each built at its exact size.

    Every row tuple here is built from a list, never from a generator or
    a map: CPython sizes a tuple built from an iterator of unknown length
    at 10 slots and shrinks it, and each such tuple freed lands on the
    free list of its size, up to 2,000 blocks a size.
    """
    return tuple([tuple(row) for row in rows])


@lru_cache(maxsize=None)
def _eye(size: int) -> tuple:
    return tuple([tuple([1 if i == j else 0 for j in range(size)]) for i in range(size)])


def _integer_rows(rows):
    """(d, integer rows) with rows == integer rows / d, d the lcm of the
    denominators; the entries are ints and Fractions."""
    # a list, not a generator, for the lcm's arguments too (see _tuple_rows)
    d = math.lcm(*[x.denominator for row in rows for x in row])
    return d, tuple([tuple([x.numerator * (d // x.denominator) for x in row]) for row in rows])


def _over_common_den(rows):
    """(d, integer rows) for a list of (integer row, den > 0) pairs, d the
    lcm of the dens."""
    d = math.lcm(*[den for _, den in rows])
    return d, tuple([tuple([x * (d // den) for x in row]) for row, den in rows])


def is_symplectic(g: Mat) -> bool:
    """g^-1 g == 1 with g^-1 = -J' tg J': the same test as tg J' g == J', since J'^2 = -1.

    Row i of num(g^-1) num(g) is e_i sum_k e_k num[N-1-k][N-1-i] num[k]
    (the sign-and-permute formula of symplectic_inverse); each row is
    compared with den^2 times row i of the identity as soon as it is formed.
    """
    num = g.num
    size = len(num)
    if size % 2:
        raise MatrixError("odd size")
    n = size // 2
    big = size - 1
    target = g.den * g.den
    for i in range(size):
        acc = [0] * size
        for k, row in enumerate(num):
            x = num[big - k][big - i]
            if x:
                if (k < n) != (i < n):
                    x = -x
                for j, y in enumerate(row):
                    if y:
                        acc[j] += x * y
        acc[i] -= target
        if any(acc):
            return False
    return True


def symplectic_inverse(g: Mat) -> Mat:
    # g^-1 = -J' tg J' for symplectic g.  J' is the antidiagonal with signs
    # e = +1 on the first n lines and -1 on the last n, so the product only
    # permutes and signs entries: inv[i][j] = e_i e_j g[N-1-j][N-1-i], so
    # the result is in lowest terms as g is
    num = g.num
    size = len(num)
    n = size // 2
    big = size - 1
    return _stored(
        g.den,
        tuple([
            tuple([num[big - j][big - i] if (i < n) == (j < n) else -num[big - j][big - i] for j in range(size)])
            for i in range(size)
        ]),
    )


# ------------------------------------------------------- block builders

def levi_embed(n: int, a_rows) -> Mat:
    """m(A) = diag(A, J tA^-1 J) for A in GL_n."""
    a = Mat(a_rows)
    if a.size != n:
        raise MatrixError("Levi block has wrong size")
    ainv = a.inverse()
    den = math.lcm(a.den, ainv.den)
    sa, sb = den // a.den, den // ainv.den
    num = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            num[i][j] = sa * a.num[i][j]
            # J tA^-1 J reverses both indices of the transpose
            num[n + i][n + j] = sb * ainv.num[n - 1 - j][n - 1 - i]
    return _mat(den, _tuple_rows(num))


def radical_embed(n: int, x_rows) -> Mat:
    """n(X) = [[I, X], [0, I]]; X must satisfy tX = J X J."""
    x = Mat(x_rows)
    if x.size != n:
        raise MatrixError("radical block has wrong size")
    for i in range(n):
        for j in range(n):
            if x.num[j][i] != x.num[n - 1 - i][n - 1 - j]:
                raise MatrixError("block is not symmetric about the antidiagonal")
    den = x.den
    num = [[den if i == j else 0 for j in range(2 * n)] for i in range(2 * n)]
    for i in range(n):
        num[i][n:] = x.num[i]
    return _mat(den, _tuple_rows(num))


def torus(entries) -> Mat:
    es = [_as_fraction(e) for e in entries]
    if not all(es):
        raise MatrixError("a torus entry is 0")
    big = 2 * len(es) - 1
    entries = []
    for i, e in enumerate(es):
        # e at (i, i) and 1 / e, numerator and denominator swapped, at the mirror
        entries += [(i, i, e.numerator, e.denominator), (big - i, big - i, e.denominator, e.numerator)]
    return _from_entries(big + 1, entries)


def first_axis_torus(n: int, a) -> Mat:
    """diag(a, 1, ..., 1, a^-1)."""
    return torus([a] + [1] * (n - 1))


def sl2_embed(n: int, g2) -> Mat:
    """The middle SL_2 block at lines n, n+1."""
    rows = [[1 if i == j else 0 for j in range(2 * n)] for i in range(2 * n)]
    for i in range(2):
        for j in range(2):
            rows[n - 1 + i][n - 1 + j] = g2[i][j]
    return Mat(rows)


def rotation_matrix(n: int) -> Mat:
    """m of the n-cycle sending line k to line k+1 (line n to line 1)."""
    c = [[0] * n for _ in range(n)]
    c[0][n - 1] = 1
    for i in range(n - 1):
        c[i + 1][i] = 1
    return levi_embed(n, c)


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


# --------------------------------------------------- root group elements

@lru_cache(maxsize=None)
def _root_positions(n: int) -> dict:
    """{root: (row, col, sign) triples, 0-based, primary first} over the
    2 n^2 roots of rank n."""
    big = 2 * n - 1  # mirror index: pos p maps to big - p
    out = {}
    for g in positive_roots(n):
        for root in (g, -g):
            nz = [(i, c) for i, c in enumerate(root.euclid()) if c]
            if len(nz) == 1:
                a, c = nz[0]
                out[root] = ((a, big - a, 1),) if c == 2 else ((big - a, a, 1),)
                continue
            (a, ca), (b, cb) = nz
            if ca == 1 and cb == -1:
                out[root] = ((a, b, 1), (big - b, big - a, -1))
            elif ca == -1 and cb == 1:
                out[root] = ((b, a, 1), (big - a, big - b, -1))
            elif ca == 1 and cb == 1:
                out[root] = ((a, big - b, 1), (b, big - a, 1))
            else:
                out[root] = ((big - b, a, 1), (big - a, b, 1))
    return out


def root_elem(n: int, root: Root, r) -> Mat:
    return mul_root_elem(Mat.identity(2 * n), root, r)


def mul_root_elem(g: Mat, root: Root, r) -> Mat:
    """g * x_root(r) as column updates: the one-letter root word."""
    return _times_roots(g, ((root, r),))


def root_product(n: int, factors) -> Mat:
    """x_{g_1}(r_1) ... x_{g_k}(r_k), left to right.

    The letters act in place on integer rows over one running
    denominator, and the product is reduced once, so its denominator is
    at most the product of the letter denominators.
    """
    return _times_roots(Mat.identity(2 * n), factors)


def _times_roots(g: Mat, factors) -> Mat:
    """g x_{g_1}(r_1) ... x_{g_k}(r_k) on the integer rows of g.

    x_root(r) = 1 + r E with E^2 = 0, and the two positions of a short
    root never chain (E1 E2 = E2 E1 = 0), so a letter adds s r times
    column a to column b and never writes column a.  A letter r = rn / rd
    first scales the rows and the running denominator by rd; the update
    then reads x // rd at column a, which is exact.
    """
    positions = _root_positions(len(g.num) // 2)
    den = g.den
    rows = [list(row) for row in g.num]
    for root, r in factors:
        r = _as_fraction(r)
        if not r:
            continue
        rn, rd = r.numerator, r.denominator
        if rd != 1:
            den *= rd
            rows = [[x * rd for x in row] for row in rows]
        for a, b, s in positions[root]:
            c = s * rn
            for row in rows:
                x = row[a]
                if x:
                    row[b] += c * x if rd == 1 else c * (x // rd)
    return _mat(den, _tuple_rows(rows))


@lru_cache(maxsize=None)
def _weyl_generator_matrix(n: int, k: int) -> Mat:
    if k < n:
        a = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        a[k - 1][k - 1] = a[k][k] = 0
        a[k - 1][k] = a[k][k - 1] = 1
        return levi_embed(n, a)
    return sl2_embed(n, ((0, 1), (-1, 0)))


def weyl_rep(w: WeylElem) -> Mat:
    """Canonical monomial representative: generators along a reduced word."""
    return _weyl_rep(w)


@lru_cache(maxsize=None)
def _weyl_rep(w: WeylElem) -> Mat:
    out = Mat.identity(2 * w.n)
    for k in w.reduced_word():
        out = out * _weyl_generator_matrix(w.n, k)
    return out


def top_cell_matrix(n: int) -> Mat:
    """Representative of the reflection in 2 e_1: the long corner element."""
    num = [list(row) for row in _eye(2 * n)]
    num[0][0] = num[-1][-1] = 0
    num[0][-1] = 1
    num[-1][0] = -1
    return _mat(1, _tuple_rows(num))


# --------------------------------------------------------- Bruhat cells

def _line_weight(n: int, idx: int):
    """Torus weight of coordinate line idx (0-based): +-e_k as (k, sign)."""
    if idx < n:
        return idx, 1
    return 2 * n - 1 - idx, -1


def weyl_from_monomial_pattern(n: int, positions) -> WeylElem:
    """w with w(weight(col)) = weight(row) for each pivot (row, col)."""
    imgs = [0] * n
    by_col = {col: row for row, col in positions}
    for j in range(n):
        row = by_col[j]
        k, s = _line_weight(n, row)
        imgs[j] = (k + 1) * s
    return WeylElem(n, tuple(imgs))


def bruhat_decompose(g: Mat):
    """g = u * t * W(w) * um with u in U, t in T, um in U_w^-.

    Gaussian elimination with lowest-possible pivots brings g to a
    monomial L g R: row operations only ever add a lower row to a higher
    one and column operations only push rightward, so L and R are upper
    unitriangular.  Only their inverses are needed, and the elimination
    writes them down as it goes: undoing the row operations of column col
    fills the pivot's column of L^-1 with column col of the working matrix
    over the pivot, and undoing its column operations fills row col of
    R^-1 with the pivot row over the pivot.  Rows of the working matrix
    are integer lists over their own denominator, and L^-1 is built from
    its entries as integer (num, den) pairs (_from_entries).  The result is verified by
    recomposition before returning; the torus and Weyl factors enter it
    as column moves (_times_monomial), so only the product by um is a
    general one.
    """
    size = g.size
    n = size // 2
    if not is_symplectic(g):
        raise MatrixError("not symplectic")
    a = [(list(row), g.den) for row in g.num]
    linv = _unit_diagonal(size)
    rinv = [None] * size
    used = [False] * size
    pivots = []
    for col in range(size):
        piv = max((r for r in range(size) if not used[r] and a[r][0][col]), default=None)
        if piv is None:
            raise MatrixError("singular input")
        used[piv] = True
        pivots.append((piv, col))
        prow, pden = a[piv]
        pval = prow[col]
        for r in range(piv):
            row, rden = a[r]
            c = row[col]
            if c:
                # row r -= (c / pval) row piv, over the denominator rden * pval
                linv.append((r, piv, c * pden, rden * pval))
                a[r] = _reduced_row([x * pval - c * y for x, y in zip(row, prow)], rden * pval)
        # Column col is now zero off the pivot, so clearing the pivot row by
        # column operations changes no other entry of the working matrix,
        # and the pivot row, zero left of col, over the pivot is row col of R^-1.
        rinv[col] = _reduced_row(prow, pval)
        a[piv] = ([pval if j == col else 0 for j in range(size)], pden)
    lm_inv = _from_entries(size, linv)
    u_r = _mat(*_over_common_den(rinv))
    monomial = _mat(*_over_common_den(a))
    w = weyl_from_monomial_pattern(n, pivots)
    wrep = weyl_rep(w)
    wrep_inv = symplectic_inverse(wrep)
    d = _times_monomial(monomial, wrep_inv)
    if not d.is_diagonal():
        raise FactorizationError("monomial part is not torus times the Weyl representative")
    bmat, cmat = _unitriangular_ul(_signed_conjugate(wrep, u_r))
    um = _signed_conjugate(wrep_inv, cmat)
    if not um.is_upper_unitriangular():
        raise FactorizationError("right factor is not upper unitriangular")
    u = lm_inv * _diagonal_conjugate(d, bmat)
    if not u.is_upper_unitriangular():
        raise FactorizationError("left factor is not upper unitriangular")
    if _times_monomial(_times_monomial(u, d), wrep) * um != g:
        raise FactorizationError("recomposition u t W(w) um differs from the input")
    if not all(is_symplectic(part) for part in (d, um, u)):
        raise FactorizationError("a Bruhat factor is not symplectic")
    return u, d, w, um


def _signed_conjugate(m: Mat, x: Mat) -> Mat:
    """m x m^-1 for a signed permutation matrix m, as a signed permutation
    of entries: when row i of m holds its sign s_i at column pi(i), entry
    (i, j) is s_i s_j x[pi(i)][pi(j)]."""
    perm = [row.index(1) if 1 in row else row.index(-1) for row in m.num]
    sign = [row[k] for row, k in zip(m.num, perm)]
    xn = x.num
    return _stored(
        x.den,
        tuple([
            tuple([xn[pi][pj] if si == sj else -xn[pi][pj] for pj, sj in zip(perm, sign)])
            for pi, si in zip(perm, sign)
        ]),
    )


def _times_monomial(a: Mat, m: Mat) -> Mat:
    """a m for a monomial m (at most one nonzero entry in each row and in
    each column), as column moves: when row k of m holds c at column j,
    column j of the product is c times column k of a.  A signed
    permutation only moves entries, so a m stays in lowest terms."""
    size = len(m.num)
    if len(a.num) != size:
        raise MatrixError("incompatible matrices")
    acols = [*zip(*a.num)]
    cols = [None] * size
    signed = m.den == 1
    for k, row in enumerate(m.num):
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            signed = False
        else:
            j = nz[0]
            if len(nz) > 1 or cols[j] is not None:
                raise MatrixError("not a monomial matrix")
            c = row[j]
            if c == 1:
                cols[j] = acols[k]
            else:
                cols[j] = [c * x for x in acols[k]]
                signed = signed and c == -1
    zero = (0,) * size
    num = tuple([*zip(*[zero if col is None else col for col in cols])])
    return _stored(a.den, num) if signed else _mat(a.den * m.den, num)


def _diagonal_conjugate(d: Mat, x: Mat) -> Mat:
    """d x d^-1 for an invertible diagonal d, as an integer scaling: entry
    (i, j) is d_i / d_j x[i][j], over x.den times the lcm of the d_j."""
    dn = [row[i] for i, row in enumerate(d.num)]
    lcm = math.lcm(*dn)
    scale = [lcm // e for e in dn]
    return _mat(
        x.den * lcm,
        tuple([tuple([y * di * sj for y, sj in zip(row, scale)]) for row, di in zip(x.num, dn)]),
    )


def _reduced_row(row, den):
    """(row, den) scaled to lowest terms with den > 0."""
    g = math.gcd(den, *row)
    if den < 0:
        g = -g
    if g == 1:
        return row, den
    return [x // g for x in row], den // g


def _unitriangular_ul(a: Mat):
    """A = B C with B upper and C lower unitriangular.

    Row operations that add a lower row to a higher one clear the columns
    above the diagonal from the right, and every pivot must be 1.  Undoing
    the operations of column k fills column k of B with the cleared
    entries; what is left is C.  Rows of the working matrix are integer
    lists over their own denominator.
    """
    size = a.size
    work = [(list(row), a.den) for row in a.num]
    b = _unit_diagonal(size)
    for k in range(size - 1, -1, -1):
        prow, pden = work[k]
        if prow[k] != pden:
            raise FactorizationError("input is not in the unitriangular cell")
        for i in range(k):
            row, rden = work[i]
            c = row[k]
            if c:
                # row i -= (c / rden) row k, over the denominator rden * pden
                b.append((i, k, c, rden))
                work[i] = _reduced_row([x * pden - c * y for x, y in zip(row, prow)], rden * pden)
    return _from_entries(size, b), _mat(*_over_common_den(work))


def weyl_from_rank_pattern(g: Mat) -> WeylElem:
    """Independent cell detector from corner ranks.

    r(i, j) = rank of the submatrix on rows i.., columns ..j; the pivot
    pattern is its discrete mixed difference.  No pivoting choices are
    involved, so this cross-checks the elimination route, and it is how
    cell_collapse_witness reads its cell.  The ranks come
    from _corner_ranks: one fraction-free column sweep per starting row
    reads off a whole row of the table, 2n sweeps in all.
    """
    size = g.size
    table = _corner_ranks(g)
    positions = []
    for i in range(size):
        for j in range(1, size + 1):
            if table[i][j] - table[i + 1][j] - table[i][j - 1] + table[i + 1][j - 1] == 1:
                positions.append((i, j - 1))
    return weyl_from_monomial_pattern(size // 2, positions)


def _corner_ranks(g: Mat) -> list:
    """table[i][j] = rank of g on rows i.., columns ..j - 1, for 0 <= i, j <= size.

    For each i, fraction-free elimination of rows i.. runs over the
    columns left to right (a row below the pivot becomes x pv - f y, with
    no division); after column j - 1 the number of pivots found is the
    rank of the first j columns, so one sweep fills row i of the table.
    """
    num = g.num
    size = len(num)
    table = [[0] * (size + 1) for _ in range(size + 1)]
    for i in range(size):
        sub = [list(row) for row in num[i:]]
        height = len(sub)
        ranks = table[i]
        rank = 0
        for col in range(size):
            piv = next((r for r in range(rank, height) if sub[r][col]), None)
            if piv is not None:
                sub[rank], sub[piv] = sub[piv], sub[rank]
                top = sub[rank]
                pv = top[col]
                for r in range(rank + 1, height):
                    f = sub[r][col]
                    if f:
                        sub[r] = [x * pv - f * y for x, y in zip(sub[r], top)]
                rank += 1
            ranks[col + 1] = rank
    return table


# ------------------------------------------------ unipotent coordinates

def peel_unipotent(u: Mat):
    """Coordinates of an upper unipotent over ascending root height.

    Peels x_g(-c) off the left for each positive root in height order;
    exact because leftover cross terms always sit at taller positions.
    """
    n = u.size // 2
    if not u.is_upper_unitriangular():
        raise FactorizationError("not upper unitriangular")
    return _peel(n, u, [(g, g) for g in positive_roots(n)])


def _peel(n: int, m: Mat, cands) -> dict:
    """{key: c} with m = prod x_root(c) over the (key, root) pairs of cands
    in order, zero coefficients left out: each c is read at the root's
    primary position and x_root(-c) is peeled off the left.  Raises
    FactorizationError unless the identity is left.

    The rows are (integer row, den) pairs: x_root(-c) subtracts s c times
    row b from row a at each position (a, b, s), and each touched row is
    reduced once.  As for the column updates, the rows b are never written
    by the same letter.
    """
    positions = _root_positions(n)
    rows = [(list(row), m.den) for row in m.num]
    out = {}
    for key, root in cands:
        pos = positions[root]
        i, j, s = pos[0]
        row, den = rows[i]
        if row[j]:
            c = Q(s * row[j], den)
            out[key] = c
            cn, cd = c.numerator, c.denominator
            for a, b, sg in pos:
                # row a -= sg c row b, over the denominator den_a den_b cd
                ra, da = rows[a]
                rb, db = rows[b]
                f, k = db * cd, sg * cn * da
                rows[a] = _reduced_row([x * f - k * y for x, y in zip(ra, rb)], da * f)
    if not all(
        row[i] == den and not any(row[:i]) and not any(row[i + 1:]) for i, (row, den) in enumerate(rows)
    ):
        raise FactorizationError("residue after peeling")
    return out


def commutator_coefficients(n: int, g1: Root, r, g2: Root, s):
    """[x_g1(r), x_g2(s)] = prod x_{i g1 + j g2}(c_ij); returns {(i, j): c}.

    Candidate roots are peeled in ascending height; the residue must be
    the identity, which is checked.
    """
    from .rootsys import root_from_vector

    r, s = _as_fraction(r), _as_fraction(s)
    com = root_product(n, [(g1, r), (g2, s), (g1, -r), (g2, -s)])
    cands = []
    for i in range(1, 5):
        for j in range(1, 5):
            vec = tuple(i * a + j * b for a, b in zip(g1.euclid(), g2.euclid()))
            root = root_from_vector(n, vec)
            if root is not None:
                cands.append(((i, j), root))
    cands.sort(key=lambda t: t[1].height)
    return _peel(n, com, cands)


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


# --------------------------------------------------- congruence layers

def level_exponents(n: int, m: int):
    """Diagonal valuations of the conjugating torus element."""
    return [-(2 * n - 2 * i - 1) * m for i in range(n)] + [(2 * k + 1) * m for k in range(n)]


def conjugating_torus(ctx, n: int, m: int) -> Mat:
    p = Q(ctx.p)
    return Mat.diagonal([p**e for e in level_exponents(n, m)])


def in_standard_level(ctx, g: Mat, m: int) -> bool:
    """Membership in the principal congruence subgroup of depth m."""
    return _in_level(ctx.p, g, m, [0] * g.size)


def in_skew_level(ctx, g: Mat, m: int) -> bool:
    """Membership in the torus-conjugated congruence subgroup."""
    return _in_level(ctx.p, g, m, level_exponents(g.size // 2, m))


def _in_level(p: int, g: Mat, m: int, es) -> bool:
    """v(g - 1)[i, j] >= m + es[i] - es[j] at every entry."""
    den = g.den
    base = m + fraction_valuation(den, p)
    for i, row in enumerate(g.num):
        for j, x in enumerate(row):
            if fraction_valuation(x - den if i == j else x, p) < base + es[i] - es[j]:
                return False
    return True


def radical_coordinate_bound(root: Root, m: int) -> int:
    """x_root(r) lies in the skew level iff v(r) >= this (positive root)."""
    return -(2 * root.height - 1) * m


def negative_coordinate_bound(root: Root, m: int) -> int:
    """x_{-root}(r) lies in the skew level iff v(r) >= this."""
    return (2 * root.height + 1) * m


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
    if m < 0:
        raise MatrixError("level must be nonnegative")
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


# ----------------------------------------------------------- cell moves

def cell_word_rewrite(ctx, t: Mat, w: WeylElem, rs, u: Mat, m: int):
    """Push a depth-m unipotent through a negated-root word.

    Input: torus t, w below the top reflection, coefficients rs along
    ordered_negated_roots(w) = (o_0, ..., o_top), and u in the depth-m
    unipotent subgroup.  With q the first index whose coefficient escapes
    depth m, rewrites

        t W(w) x_{q..top}(r) u  =  u~ t W(w) x_{0..top}(r~)

    returning (u_tilde, rs_tilde, q).  The product y = x_{q..top}(r) u
    splits as u1 v with u1 in U_w^+ (the roots w keeps positive) and v in
    U_w^-, both unique (Steinberg, Lectures on Chevalley Groups, 1967,
    Lemma 17).  Conjugating by W = W(w) makes the split upper times lower
    unitriangular, W y W^-1 = B C with B = W u1 W^-1 and C = W v W^-1,
    which _unitriangular_ul computes as in bruhat_decompose; then
    u~ = t B t^-1 and v = W^-1 C W.

    r~ is read off v^-1 = x_{o_0}(-r~_0) ... x_{o_top}(-r~_top) by one
    left peel along the order.  That is exact: every letter after o_k is
    at least as tall as o_k, except that a bad-pair partner g2 = 2e_i sits
    moved in front of its g1; every letter after g2 has height >= ht(g1),
    and 2 ht(g1) > ht(g2) (is_bad_pair).  So no product of two or more
    later letters reaches the primary position of o_k.

    The peel residue, the identity and the pivot coefficient's absolute
    value are all checked.  Raises FactorizationError when every
    coefficient already sits at depth m (nothing to rewrite).
    """
    n = w.n
    order = ordered_negated_roots(w)
    rs = [_as_fraction(r) for r in rs]
    if len(rs) != len(order):
        raise MatrixError("coefficient list does not match the negated-root order")
    q = next(
        (k for k, (g, r) in enumerate(zip(order, rs)) if fraction_valuation(r, ctx.p) < radical_coordinate_bound(g, m)),
        None,
    )
    if q is None:
        raise FactorizationError("word already lies at depth m")
    if not (u.is_upper_unitriangular() and in_skew_level(ctx, u, m)):
        raise MatrixError("u is not in the depth-m unipotent subgroup")
    if not t.is_diagonal() or not is_symplectic(t):
        raise MatrixError("t is not in the torus")

    y = root_product(n, [(order[k], rs[k]) for k in range(len(order) - 1, q - 1, -1)]) * u
    wrep = weyl_rep(w)
    bmat, cmat = _unitriangular_ul(_signed_conjugate(wrep, y))
    u_tilde = _diagonal_conjugate(t, bmat)
    if not u_tilde.is_upper_unitriangular():
        raise FactorizationError("conjugated plus part left the unipotent radical")
    v = _signed_conjugate(symplectic_inverse(wrep), cmat)
    coords = _peel(n, symplectic_inverse(v), [(g, g) for g in order])
    rs_tilde = [-coords.get(g, Q(0)) for g in order]

    tw = _times_monomial(t, wrep)
    if tw * y != _times_monomial(u_tilde, tw) * v:
        raise FactorizationError("rewrite identity failed")
    if fraction_valuation(rs_tilde[q], ctx.p) != fraction_valuation(rs[q], ctx.p):
        raise FactorizationError("pivot size drifted")
    return u_tilde, rs_tilde, q


def cell_collapse_witness(t: Mat, w: WeylElem, roots, rs, bad_index: int = None):
    """Append an opposite root factor and land strictly below w.

    roots is a height-ordered sublist of the negated positive roots of
    w (typically a tail of the insertion order) with coefficients rs.
    Without bad_index the lowest root must not start a bad pair inside
    the list and its coefficient must be nonzero; the product

        t W(w) x_{top}(r_top) ... x_{0}(r_0) x_{-roots[0]}(-1/r_0)

    is then formed.  With bad_index = l the pair (roots[0], roots[l])
    must be bad; the factor at l is omitted from the descending product
    and reinstated at the far right next to its opposite.  Returns the
    cell w' of the result, checking w' < w.

    w' is read off the corner-rank pattern (weyl_from_rank_pattern), with
    no decomposition.  That is exact for invertible g: left multiplication
    by an upper triangular matrix recombines rows i.. among themselves and
    right multiplication recombines columns ..j among themselves, so the
    rank of every lower-left corner is constant on each double coset
    B W(w) B, and on the monomial t W(w) those ranks count the pivots of w
    in the corner.  bruhat-oracle compares the two routes on every
    campaign, and the tests compare them on the collapse products.
    """
    n = w.n
    roots = list(roots)
    rs = [_as_fraction(r) for r in rs]
    if not roots or len(rs) != len(roots):
        raise MatrixError("coefficient list does not match the root list")
    negated = set(w.negated_positive_roots())
    if any(g not in negated for g in roots):
        raise MatrixError("list must consist of roots sent negative by w")
    if any(roots[k].height > roots[k + 1].height for k in range(len(roots) - 1)):
        raise MatrixError("list must be weakly increasing in height")
    if bad_index is None:
        if any(is_bad_pair(roots[0], g) for g in roots[1:]):
            raise MatrixError("lowest root starts a bad pair; pass bad_index")
        if not rs[0]:
            raise MatrixError("lowest coefficient must be nonzero")
        factors = [(roots[k], rs[k]) for k in range(len(roots) - 1, -1, -1)]
        factors.append((-roots[0], -1 / rs[0]))
    else:
        if not 1 <= bad_index < len(roots):
            raise MatrixError("bad_index out of range")
        if not is_bad_pair(roots[0], roots[bad_index]):
            raise MatrixError("chosen index does not complete a bad pair")
        if not rs[bad_index]:
            raise MatrixError("bad-pair coefficient must be nonzero")
        factors = [(roots[k], rs[k]) for k in range(len(roots) - 1, -1, -1) if k != bad_index]
        factors.append((roots[bad_index], rs[bad_index]))
        factors.append((-roots[bad_index], -1 / rs[bad_index]))
    if not t.is_diagonal() or not is_symplectic(t):
        raise MatrixError("t is not in the torus")
    w_prime = weyl_from_rank_pattern(_times_roots(_times_monomial(t, weyl_rep(w)), factors))
    if not (bruhat_leq(w_prime, w) and w_prime != w):
        raise FactorizationError("cell did not drop")
    return w_prime
