"""Integer-row kernel of the exact matrices: products, inverses, cells and peels.

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

chevalley holds the matrix type Mat and the structure of Sp_2n, and
every public routine there unpacks its Mats, calls in here and wraps the
result.  The kernel is a module of its own for two reasons.  A module's
compile peak grows with its syntax tree and a process keeps its RSS
high-water mark, so compiling one chevalley.py with both layers set the
high-water mark of every run's imports; two smaller modules set a lower
one.
And a rank-n metaplectic cover needs these routines without the Bruhat
layer on top of them.
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


# ------------------------------------------------- products and inverses


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


def inverse(den: int, num: tuple):
    """The inverse by fraction-free Gauss-Jordan on the integer rows
    (Bareiss, Math. Comp. 22, 1968, with a gcd in place of his exact
    division), or None for a singular matrix.

    Each column is cleared with x pv - f y, and every touched row, with
    its half of the augmented matrix b, is reduced by its gcd.  The
    elimination ends at diag(a_i) = b num, so row i of the inverse of
    num / den is den b[i] / a_i.
    """
    size = len(num)
    a = [list(row) for row in num]
    b = [list(row) for row in eye(size)]
    for col in range(size):
        piv = next((r for r in range(col, size) if a[r][col]), None)
        if piv is None:
            return None
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
    return over_common_den([reduced_row([den * x for x in b[i]], a[i][i]) for i in range(size)])


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


def peel(den: int, num: tuple, cands):
    """{key: (cn, cd)} with num / den = prod (1 + (cn / cd) E) over the
    (key, positions) pairs of cands in order, each cn / cd in lowest
    terms and zero coefficients left out, or None unless the peel leaves
    the identity.  Each coefficient is read at the first, primary
    position (a, b, s) as s times entry (a, b), and 1 - c E is peeled off
    the left.

    1 - c E subtracts s c times row b from row a at each position
    (a, b, s), and each touched row is reduced once.  As for times_roots,
    the rows b are never written by the same letter.
    """
    rows = [(list(row), den) for row in num]
    out = {}
    for key, pos in cands:
        i, j, s = pos[0]
        row, rden = rows[i]
        if row[j]:
            g = math.gcd(row[j], rden)
            cn, cd = s * row[j] // g, rden // g
            out[key] = cn, cd
            for a, b, sg in pos:
                # row a -= sg c row b, over the denominator den_a den_b cd
                ra, da = rows[a]
                rb, db = rows[b]
                f, k = db * cd, sg * cn * da
                rows[a] = reduced_row([x * f - k * y for x, y in zip(ra, rb)], da * f)
    if not all(
        row[i] == rden and not any(row[:i]) and not any(row[i + 1:]) for i, (row, rden) in enumerate(rows)
    ):
        return None
    return out


# ------------------------------------------------------ Bruhat cells


def monomial_form(den: int, num: tuple):
    """(pivots, L^-1, R^-1, L g R) for g = num / den, with L and R upper
    unitriangular and L g R monomial, or None for a singular g.

    Gaussian elimination with lowest-possible pivots: row operations only
    ever add a lower row to a higher one and column operations only push
    rightward.  Undoing the row operations of column col fills the
    pivot's column of L^-1 with column col of the working matrix over the
    pivot, and undoing its column operations fills row col of R^-1 with
    the pivot row over the pivot.  pivots lists the (row, col) of each
    pivot, by column.
    """
    size = len(num)
    a = [(list(row), den) for row in num]
    linv = unit_diagonal(size)
    rinv = [None] * size
    used = [False] * size
    pivots = []
    for col in range(size):
        piv = max((r for r in range(size) if not used[r] and a[r][0][col]), default=None)
        if piv is None:
            return None
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
                a[r] = reduced_row([x * pval - c * y for x, y in zip(row, prow)], rden * pval)
        # Column col is now zero off the pivot, so clearing the pivot row by
        # column operations changes no other entry of the working matrix,
        # and the pivot row, zero left of col, over the pivot is row col of R^-1.
        rinv[col] = reduced_row(prow, pval)
        a[piv] = ([pval if j == col else 0 for j in range(size)], pden)
    return pivots, from_entries(size, linv), over_common_den(rinv), over_common_den(a)


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


def unitriangular_ul(den: int, num: tuple):
    """(B, C) with A = B C, B upper and C lower unitriangular, for
    A = num / den, or None when A has no such split.

    Row operations that add a lower row to a higher one clear the columns
    above the diagonal from the right, and every pivot must be 1.  Undoing
    the operations of column k fills column k of B with the cleared
    entries; what is left is C.
    """
    size = len(num)
    work = [(list(row), den) for row in num]
    b = unit_diagonal(size)
    for k in range(size - 1, -1, -1):
        prow, pden = work[k]
        if prow[k] != pden:
            return None
        for i in range(k):
            row, rden = work[i]
            c = row[k]
            if c:
                # row i -= (c / rden) row k, over the denominator rden * pden
                b.append((i, k, c, rden))
                work[i] = reduced_row([x * pden - c * y for x, y in zip(row, prow)], rden * pden)
    return from_entries(size, b), over_common_den(work)


def corner_ranks(num: tuple) -> list:
    """table[i][j] = rank of num on rows i.., columns ..j - 1, for 0 <= i, j <= size.

    For each i, fraction-free elimination of rows i.. runs over the
    columns left to right (a row below the pivot becomes x pv - f y, with
    no division); after column j - 1 the number of pivots found is the
    rank of the first j columns, so one sweep fills row i of the table.
    """
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


def in_level(p: int, den: int, num: tuple, m: int, es) -> bool:
    """v(g - 1)[i, j] >= m + es[i] - es[j] at every entry of g = num / den."""
    base = m + fraction_valuation(den, p)
    for i, row in enumerate(num):
        for j, x in enumerate(row):
            if fraction_valuation(x - den if i == j else x, p) < base + es[i] - es[j]:
                return False
    return True
