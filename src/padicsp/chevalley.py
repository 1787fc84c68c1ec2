"""The rank-n symplectic group over exact p-adic rationals: matrices and Bruhat cells.

Matrix conventions.  Sp_2n is defined by the form [[0, J], [-J, 0]]
with J the n x n antidiagonal of ones, so the torus is
diag(a_1..a_n, a_n^-1..a_1^-1) and the Borel is upper triangular; the
root subgroups sit at the positions of congruence._root_positions.
Weyl generators are the swaps of lines k, k+1 (with their mirrors) for
the short simple roots and the middle [[0, 1], [-1, 0]] block for the
long one; canonical monomial representatives multiply those along a
reduced word.  Everything is exact: a matrix is integer rows over one
positive denominator, in lowest terms.  A matrix carries no prime:
cells, root groups and Weyl representatives never read p, and only the
functions that read valuations (here the cell-word rewrite) take a
PrimeCtx, as their leading argument.

This module holds the matrix type Mat, root elements and root words,
Weyl representatives, the Bruhat decomposition, the corner-rank cell
detector and the two cell moves.  The structure of Sp_2n is spread over
three more modules, split along its seams so that each compiles small
(a module's compile peak grows with its syntax tree, and a process
keeps its RSS high-water mark, so the largest compile of the imports
sets a floor under every run's peak):

- intmat and intelim, the integer-row kernel: products, inverses, root
  words, peels, the Bruhat elimination, corner ranks and level tests,
  on (den, num) pairs.  Every routine here unpacks its Mats, calls the
  kernel and wraps what it returns with _mat or _stored.
- congruence, which never builds a Mat: the root positions, the level
  exponents and level tests, the coordinate bounds, the depth
  characters and the volume ledger, and MatrixError.
- subgroups, on top of this module: the Levi, radical and SL_2
  embeddings, the tori, the rotations, the long corner element and the
  peels into root coordinates.

The structural routines verify their own output and raise MatrixError
(or FactorizationError) when a check fails, so their callers need not
re-derive it.  bruhat_decompose checks the shapes of its factors and
recomposes g; cell_word_rewrite checks the rewrite identity, the peel
residue and the pivot size; and cell_collapse_witness checks that the
cell it reads off the corner ranks drops below w.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import intelim, intmat
from .congruence import MatrixError, _root_positions, in_skew_level, radical_coordinate_bound
from .padic import _as_fraction, _as_int, fraction_valuation
from .rootsys import Root, WeylElem, bruhat_leq, is_bad_pair, ordered_negated_roots
from .value import _Value

Q = Fraction


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
        _fill(self, *intmat.integer_rows(rows))

    @classmethod
    def identity(cls, size: int) -> "Mat":
        return _stored(1, intmat.eye(_as_int(size, MatrixError, "size", 0)))

    @classmethod
    def diagonal(cls, entries) -> "Mat":
        es = [_as_fraction(e) for e in entries]
        return _stored(*intmat.from_entries(len(es), [(i, i, e.numerator, e.denominator) for i, e in enumerate(es)]))

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
        """Exact product (intmat.mul)."""
        if len(self.num) != len(other.num):
            raise MatrixError("incompatible matrices")
        return _stored(*intmat.mul(self.den, self.num, other.den, other.num))

    def transpose(self) -> "Mat":
        return _stored(self.den, tuple([*zip(*self.num)]))

    def inverse(self) -> "Mat":
        """Fraction-free Gauss-Jordan on the integer rows (intelim.inverse)."""
        inv = intelim.inverse(self.den, self.num)
        if inv is None:
            raise MatrixError("singular matrix")
        return _stored(*inv)

    def is_identity(self) -> bool:
        return self.den == 1 and self.num == intmat.eye(len(self.num))

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
    return _stored(*intmat.lowest(den, num))


def _stored(den: int, num: tuple) -> Mat:
    """The Mat num / den for num / den already in lowest terms, den > 0."""
    m = object.__new__(Mat)
    _fill(m, den, num)
    return m


def is_symplectic(g: Mat) -> bool:
    """tg J' g == J' (intmat.is_symplectic)."""
    if len(g.num) % 2:
        raise MatrixError("odd size")
    return intmat.is_symplectic(g.den, g.num)


def symplectic_inverse(g: Mat) -> Mat:
    """g^-1 = -J' tg J' for symplectic g, by permuting and signing entries."""
    return _stored(g.den, intmat.symplectic_inverse(g.num))


# --------------------------------------------------- root group elements


def root_elem(n: int, root: Root, r) -> Mat:
    return mul_root_elem(Mat.identity(2 * n), root, r)


def mul_root_elem(g: Mat, root: Root, r) -> Mat:
    """g * x_root(r) as column updates: the one-letter root word."""
    return _root_word(g, ((root, r),))


def root_product(n: int, factors) -> Mat:
    """x_{g_1}(r_1) ... x_{g_k}(r_k), left to right.

    The letters act in place on integer rows over one running
    denominator, and the product is reduced once, so its denominator is
    at most the product of the letter denominators.
    """
    return _root_word(Mat.identity(2 * n), factors)


def _root_word(g: Mat, factors) -> Mat:
    """g x_{g_1}(r_1) ... x_{g_k}(r_k): intmat.times_roots on the nonzero
    letters, each root at its positions in _root_positions."""
    positions = _root_positions(len(g.num) // 2)
    letters = []
    for root, r in factors:
        r = _as_fraction(r)
        if r:
            letters.append((positions[root], r.numerator, r.denominator))
    return _stored(*intmat.times_roots(g.den, g.num, letters))


@lru_cache(maxsize=None)
def _weyl_generator_matrix(n: int, k: int) -> Mat:
    """The k-th Weyl generator (1-based) as integer rows: for k < n,
    m(A) of the swap A of lines k, k+1, which swaps them and their
    mirrors 2n+1-k, 2n-k (J tA^-1 J = J A J is the swap of the mirrors);
    for k = n, the middle [[0, 1], [-1, 0]] block at lines n, n+1."""
    num = [list(row) for row in intmat.eye(2 * n)]
    if k < n:
        for a, b in ((k - 1, k), (2 * n - k - 1, 2 * n - k)):
            num[a][a] = num[b][b] = 0
            num[a][b] = num[b][a] = 1
    else:
        num[n - 1][n - 1] = num[n][n] = 0
        num[n - 1][n] = 1
        num[n][n - 1] = -1
    return _stored(1, intmat.tuple_rows(num))


def weyl_rep(w: WeylElem) -> Mat:
    """Canonical monomial representative: generators along a reduced word."""
    return _weyl_rep(w)


@lru_cache(maxsize=None)
def _weyl_rep(w: WeylElem) -> Mat:
    out = Mat.identity(2 * w.n)
    for k in w.reduced_word():
        out = out * _weyl_generator_matrix(w.n, k)
    return out


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
    monomial L g R = t W with L and R upper unitriangular and W = W(w),
    and writes down L^-1 and R^-1 as it goes (intelim.monomial_form); the
    pivots give w.  Conjugated by W, R^-1 splits as W R^-1 W^-1 = B C
    with B upper and C lower unitriangular (intelim.unitriangular_ul), so
    g = L^-1 t B W um with um = W^-1 C W, and u = L^-1 t B t^-1.  The
    result is verified by recomposition before returning; the torus and
    Weyl factors enter it as column moves (intmat.times_monomial), so only
    the product by um is a general one.
    """
    n = g.size // 2
    if not is_symplectic(g):
        raise MatrixError("not symplectic")
    form = intelim.monomial_form(g.den, g.num)
    if form is None:
        raise MatrixError("singular input")
    pivots, lm_inv, (rden, rnum), monomial = form
    w = weyl_from_monomial_pattern(n, pivots)
    wrep = weyl_rep(w)
    wrep_inv = symplectic_inverse(wrep)
    d = _stored(*intmat.times_monomial(*monomial, wrep_inv.den, wrep_inv.num))
    if not d.is_diagonal():
        raise FactorizationError("monomial part is not torus times the Weyl representative")
    bmat, (cden, cnum) = _unitriangular_split(rden, intmat.signed_conjugate(wrep.num, rnum))
    um = _stored(cden, intmat.signed_conjugate(wrep_inv.num, cnum))
    if not um.is_upper_unitriangular():
        raise FactorizationError("right factor is not upper unitriangular")
    u = _stored(*lm_inv) * _stored(*intmat.diagonal_conjugate(d.num, *bmat))
    if not u.is_upper_unitriangular():
        raise FactorizationError("left factor is not upper unitriangular")
    ud = intmat.times_monomial(u.den, u.num, d.den, d.num)
    if _stored(*intmat.times_monomial(*ud, wrep.den, wrep.num)) * um != g:
        raise FactorizationError("recomposition u t W(w) um differs from the input")
    if not all(is_symplectic(part) for part in (d, um, u)):
        raise FactorizationError("a Bruhat factor is not symplectic")
    return u, d, w, um


def _unitriangular_split(den: int, num: tuple):
    """intelim.unitriangular_ul of num / den; raises FactorizationError
    when there is no split."""
    split = intelim.unitriangular_ul(den, num)
    if split is None:
        raise FactorizationError("input is not in the unitriangular cell")
    return split


def weyl_from_rank_pattern(g: Mat) -> WeylElem:
    """Independent cell detector from corner ranks.

    r(i, j) = rank of the submatrix on rows i.., columns ..j; the pivot
    pattern is its discrete mixed difference.  No pivoting choices are
    involved, so this cross-checks the elimination route, and it is how
    cell_collapse_witness reads its cell.  The ranks come
    from intelim.corner_ranks: one fraction-free column sweep per starting
    row reads off a whole row of the table, 2n sweeps in all.
    """
    size = g.size
    table = intelim.corner_ranks(g.num)
    positions = []
    for i in range(size):
        for j in range(1, size + 1):
            if table[i][j] - table[i + 1][j] - table[i][j - 1] + table[i + 1][j - 1] == 1:
                positions.append((i, j - 1))
    return weyl_from_monomial_pattern(size // 2, positions)


# ------------------------------------------------ unipotent coordinates


def _coordinates(n: int, m: Mat, cands) -> dict:
    """{key: c} with m = prod x_root(c) over the (key, root) pairs of cands
    in order, zero coefficients left out, read by one left peel
    (intelim.peel).  Raises FactorizationError unless the identity is left."""
    positions = _root_positions(n)
    coords = intelim.peel(m.den, m.num, [(key, positions[root]) for key, root in cands])
    if coords is None:
        raise FactorizationError("residue after peeling")
    return {key: Q(cn, cd) for key, (cn, cd) in coords.items()}


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
    which intelim.unitriangular_ul computes as in bruhat_decompose; then
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
    bmat, (cden, cnum) = _unitriangular_split(y.den, intmat.signed_conjugate(wrep.num, y.num))
    u_tilde = _stored(*intmat.diagonal_conjugate(t.num, *bmat))
    if not u_tilde.is_upper_unitriangular():
        raise FactorizationError("conjugated plus part left the unipotent radical")
    v = _stored(cden, intmat.signed_conjugate(symplectic_inverse(wrep).num, cnum))
    coords = _coordinates(n, symplectic_inverse(v), [(g, g) for g in order])
    rs_tilde = [-coords.get(g, Q(0)) for g in order]

    tw = _stored(*intmat.times_monomial(t.den, t.num, wrep.den, wrep.num))
    if tw * y != _stored(*intmat.times_monomial(u_tilde.den, u_tilde.num, tw.den, tw.num)) * v:
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
    wrep = weyl_rep(w)
    tw = _stored(*intmat.times_monomial(t.den, t.num, wrep.den, wrep.num))
    w_prime = weyl_from_rank_pattern(_root_word(tw, factors))
    if not (bruhat_leq(w_prime, w) and w_prime != w):
        raise FactorizationError("cell did not drop")
    return w_prime
