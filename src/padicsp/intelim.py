"""Elimination kernels on integer rows: inverses, peels, cells and corner ranks.

The second half of the integer-row kernel, over intmat's ring
arithmetic and on its conventions: a matrix is (den, num), integer rows
num over one positive denominator, every returned pair in lowest terms,
and a routine whose input lies outside its domain returns None for its
caller to raise.  Here are the routines that eliminate: the fraction-free
inverse, the left peel of a root word, the monomial form behind the
Bruhat decomposition, the upper-times-lower split of a unitriangular
cell and the corner-rank table of the cell detector.  Nothing here
builds a Fraction, and of the package this half imports only intmat.
"""
import math

from .intmat import eye, from_entries, over_common_den, reduced_row, unit_diagonal


# ------------------------------------------------------------ inverse


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


# --------------------------------------------------------- root words


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
