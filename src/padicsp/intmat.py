"""Integer-row kernel of the exact matrices: the ring arithmetic.

A matrix here is integer rows over one denominator: `num`, a tuple of
integer row tuples, and `den`, a positive integer, for num / den.  The
routines take and return (den, num) pairs, every returned pair in lowest
terms (gcd(den, *entries) == 1, so equal matrices have equal storage),
or a plain num where the denominator is implied: 1 for a signed
permutation, and the input's own for a routine that only moves or signs
entries.  Working rows are (integer list, den) pairs, each over its own
denominator.  A routine whose input lies outside its domain returns None
and its caller raises.  Nothing here builds a Fraction, and nothing here
imports the matrix type or the group structure.

This half holds the rows, products, root words, monomial moves and
level tests; intelim holds the elimination routines (inverse, peel,
monomial form, unitriangular split, corner ranks) on top of it.
chevalley holds the matrix type Mat and the structure of Sp_2n, and
every public routine there unpacks its Mats, calls in here and wraps the
result.  The kernel is apart from chevalley, and in two halves, for two
reasons.  A module's compile peak grows with its syntax tree and a
process keeps its RSS high-water mark, so the largest compile of the
imports sets a floor under every run's peak; smaller modules set a lower
one.  And a rank-n metaplectic cover needs these routines without the
Bruhat layer on top of them.
"""
import math
from functools import lru_cache

from .padic import fraction_valuation


# ------------------------------------------------------------- rows


def lowest(den: int, num: tuple):
    """(den, num) for den > 0 and integer rows num, reduced to lowest terms."""
    if den != 1:
        g = math.gcd(den, *[x for row in num for x in row])
        if g != 1:
            den //= g
            num = tuple([tuple([x // g for x in row]) for row in num])
    return den, num


def tuple_rows(rows) -> tuple:
    """Lists of rows as a tuple of tuples, each built at its exact size.

    Every row tuple here is built from a list, never from a generator or
    a map: CPython sizes a tuple built from an iterator of unknown length
    at 10 slots and shrinks it, and each such tuple freed lands on the
    free list of its size, up to 2,000 blocks a size.
    """
    return tuple([tuple(row) for row in rows])


@lru_cache(maxsize=None)
def eye(size: int) -> tuple:
    return tuple([tuple([1 if i == j else 0 for j in range(size)]) for i in range(size)])


def unit_diagonal(size: int) -> list:
    """The entries of the identity, for from_entries."""
    return [(i, i, 1, 1) for i in range(size)]


def from_entries(size: int, entries):
    """The matrix with num / den at (i, j) for each (i, j, num, den) of
    entries (integers, den != 0, each (i, j) once) and zeros elsewhere,
    over the lcm of the dens."""
    d = math.lcm(*[den for _, _, _, den in entries])
    rows = [[0] * size for _ in range(size)]
    for i, j, x, den in entries:
        rows[i][j] = x * (d // den)
    return lowest(d, tuple_rows(rows))


def integer_rows(rows):
    """(d, integer rows) with rows == integer rows / d, d the lcm of the
    denominators; the entries are ints and Fractions, and the pair is in
    lowest terms as they are."""
    # a list, not a generator, for the lcm's arguments too (see tuple_rows)
    d = math.lcm(*[x.denominator for row in rows for x in row])
    return d, tuple([tuple([x.numerator * (d // x.denominator) for x in row]) for row in rows])


def over_common_den(rows):
    """The matrix of a list of (integer row, den > 0) pairs, over the lcm
    of the dens."""
    d = math.lcm(*[den for _, den in rows])
    return lowest(d, tuple([tuple([x * (d // den) for x in row]) for row, den in rows]))


def reduced_row(row, den):
    """(row, den) scaled to lowest terms with den > 0."""
    g = math.gcd(den, *row)
    if den < 0:
        g = -g
    if g == 1:
        return row, den
    return [x // g for x in row], den // g


def levi_block(aden: int, anum: tuple, iden: int, inum: tuple):
    """diag(A, J tA^-1 J) for A = anum / aden and A^-1 = inum / iden, J
    the antidiagonal of ones."""
    n = len(anum)
    den = math.lcm(aden, iden)
    sa, sb = den // aden, den // iden
    num = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            num[i][j] = sa * anum[i][j]
            # J tA^-1 J reverses both indices of the transpose
            num[n + i][n + j] = sb * inum[n - 1 - j][n - 1 - i]
    return lowest(den, tuple_rows(num))


# ----------------------------------------------------------- products


def mul(aden: int, anum: tuple, bden: int, bnum: tuple):
    """The product of two matrices of one size: integer rows times
    integer rows, skipping zeros, over the product of the denominators."""
    out = []
    for arow in anum:
        acc = [0] * len(arow)
        for a, brow in zip(arow, bnum):
            if a:
                for j, b in enumerate(brow):
                    if b:
                        acc[j] += a * b
        out.append(tuple(acc))
    return lowest(aden * bden, tuple(out))


def symplectic_inverse(num: tuple) -> tuple:
    """The rows of g^-1 = -J' tg J' for a symplectic g = num / den, over den.

    J' is the antidiagonal with signs e = +1 on the first n lines and -1
    on the last n, so the product only permutes and signs entries:
    inv[i][j] = e_i e_j num[N-1-j][N-1-i], in lowest terms as num / den is.
    """
    size = len(num)
    n = size // 2
    big = size - 1
    return tuple([
        tuple([num[big - j][big - i] if (i < n) == (j < n) else -num[big - j][big - i] for j in range(size)])
        for i in range(size)
    ])


def is_symplectic(den: int, num: tuple) -> bool:
    """g^-1 g == 1 with g^-1 = -J' tg J' for g = num / den of even size:
    the same test as tg J' g == J', since J'^2 = -1.

    Row i of num(g^-1) num(g) is e_i sum_k e_k num[N-1-k][N-1-i] num[k]
    (the sign-and-permute formula of symplectic_inverse); each row is
    compared with den^2 times row i of the identity as soon as it is formed.
    """
    size = len(num)
    n = size // 2
    big = size - 1
    target = den * den
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


# --------------------------------------------------------- root words


def times_roots(den: int, num: tuple, letters):
    """num / den times the letters 1 + (rn / rd) E in order, for letters
    (positions, rn, rd) with rn != 0 and rd > 0, E the sum of s E[a, b]
    over the (a, b, s) of positions.

    The positions of one letter never chain (E^2 = 0, as for every root
    of Sp_2n), so a letter adds s r times column a to column b and never
    writes column a.  A letter first scales the rows and the running
    denominator by rd; the update then reads x // rd at column a, which
    is exact.  The product is reduced once, so its denominator is at
    most den times the product of the letter denominators.
    """
    rows = [list(row) for row in num]
    for positions, rn, rd in letters:
        if rd != 1:
            den *= rd
            rows = [[x * rd for x in row] for row in rows]
        for a, b, s in positions:
            c = s * rn
            for row in rows:
                x = row[a]
                if x:
                    row[b] += c * x if rd == 1 else c * (x // rd)
    return lowest(den, tuple_rows(rows))


# ----------------------------------------------- monomial moves and levels


def signed_conjugate(mnum: tuple, xnum: tuple) -> tuple:
    """The rows of m x m^-1 for a signed permutation m, over x's
    denominator: when row i of m holds its sign s_i at column pi(i),
    entry (i, j) is s_i s_j x[pi(i)][pi(j)]."""
    perm = [row.index(1) if 1 in row else row.index(-1) for row in mnum]
    sign = [row[k] for row, k in zip(mnum, perm)]
    return tuple([
        tuple([xnum[pi][pj] if si == sj else -xnum[pi][pj] for pj, sj in zip(perm, sign)])
        for pi, si in zip(perm, sign)
    ])


def times_monomial(aden: int, anum: tuple, mden: int, mnum: tuple):
    """a m for a monomial m (at most one nonzero entry in each row and in
    each column) of a's size, as column moves, or None when m is not
    one: when row k of m holds c at column j, column j of the product is
    c times column k of a.  A signed permutation only moves entries, so
    a m stays in lowest terms."""
    size = len(mnum)
    if len(anum) != size:
        return None
    acols = [*zip(*anum)]
    cols = [None] * size
    signed = mden == 1
    for k, row in enumerate(mnum):
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            signed = False
        else:
            j = nz[0]
            if len(nz) > 1 or cols[j] is not None:
                return None
            c = row[j]
            if c == 1:
                cols[j] = acols[k]
            else:
                cols[j] = [c * x for x in acols[k]]
                signed = signed and c == -1
    zero = (0,) * size
    num = tuple([*zip(*[zero if col is None else col for col in cols])])
    return (aden, num) if signed else lowest(aden * mden, num)


def diagonal_conjugate(dnum: tuple, xden: int, xnum: tuple):
    """d x d^-1 for an invertible diagonal d (its denominator cancels), as
    an integer scaling: entry (i, j) is d_i / d_j x[i][j], over xden
    times the lcm of the d_j."""
    dn = [row[i] for i, row in enumerate(dnum)]
    lcm = math.lcm(*dn)
    scale = [lcm // e for e in dn]
    return lowest(
        xden * lcm,
        tuple([tuple([y * di * sj for y, sj in zip(row, scale)]) for row, di in zip(xnum, dn)]),
    )


def in_level(p: int, den: int, num: tuple, m: int, es) -> bool:
    """v(g - 1)[i, j] >= m + es[i] - es[j] at every entry of g = num / den."""
    base = m + fraction_valuation(den, p)
    for i, row in enumerate(num):
        for j, x in enumerate(row):
            if fraction_valuation(x - den if i == j else x, p) < base + es[i] - es[j]:
                return False
    return True
