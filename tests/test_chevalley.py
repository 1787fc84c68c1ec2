"""Symplectic matrix layer: root subgroups, cells, congruence filtrations.

Independent routes used here:
  * a standalone matrix multiplier plus literal generator matrices, so
    commutator tables and Weyl representatives are cross-checked without
    going through the Mat class: each representative, read off its signed
    permutation, against the generator product along two reduced words;
  * a Fraction Gauss-Jordan and literal root-group matrices built from
    the position table, against the integer kernels (the fraction-free
    inverse, root words over one denominator, the row-form peel);
  * the corner-rank cell detector (no pivoting choices) against the
    elimination-based Bruhat normal form;
  * a filtration-walk volume oracle that counts one-root coset layers
    directly, against the closed-form volume exponents (acceptance
    criterion 13 runs it).

The congruence filtration's sharp bounds, the corner-slice identities
and the cell rewriter and collapse are asserted by acceptance criteria
04, 05 and 07; the tests here hold what those do not.
"""
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction as Q

import pytest

import padicsp
from conftest import in_radical, simple_roots
from padicsp import chevalley, congruence, intelim, intmat
from padicsp.harness.matrix_checks import _deep_unipotent, _random_word_matrix
from padicsp.harness.cell_checks import _admissible_rewrite_case, _cells_below_top
from padicsp.padic import PadicError, PrimeCtx, fraction_valuation
from padicsp.badtriples import reflection
from padicsp.rootsys import (
    Root,
    RootError,
    WeylElem,
    bruhat_leq,
    coordinate_rotation,
    full_weyl_group,
    highest_root_reflection,
    is_bad_pair,
    ordered_negated_roots,
    positive_roots,
    root_from_vector,
)
from padicsp.chevalley import (
    FactorizationError,
    Mat,
    MatrixError,
    bruhat_decompose,
    cell_collapse_witness,
    cell_word_rewrite,
    is_symplectic,
    mul_root_elem,
    root_elem,
    root_product,
    symplectic_inverse,
    weyl_from_monomial_pattern,
    weyl_from_rank_pattern,
    weyl_rep,
)
from padicsp.subgroups import (
    cell_identity_borel_part,
    commutator_coefficients,
    conjugating_torus,
    corner_column_unipotent,
    first_axis_torus,
    levi_embed,
    peel_unipotent,
    radical_embed,
    rotation_matrix,
    top_cell_matrix,
    torus,
)
from padicsp.congruence import (
    generic_character,
    in_skew_level,
    in_standard_level,
    level_exponents,
    negative_coordinate_bound,
    radical_coordinate_bound,
    skew_level_character,
    volume_exponent,
)

C3 = PrimeCtx(3)


def pair(m):
    """A Mat as the (den, num) pair the integer kernel takes and returns."""
    return m.den, m.num


# --------------------------------------------------------------- oracles

def sl2_embed(n: int, g2) -> Mat:
    """The middle SL_2 block at lines n, n+1."""
    rows = [[1 if i == j else 0 for j in range(2 * n)] for i in range(2 * n)]
    for i in range(2):
        for j in range(2):
            rows[n - 1 + i][n - 1 + j] = g2[i][j]
    return Mat(rows)


def oracle_matmul(a, b):
    """Plain nested-loop product on tuples, independent of Mat."""
    size = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(size)) for j in range(size))
        for i in range(size)
    )


def form_matrix(n):
    """J' = [[0, J], [-J, 0]] with J the n x n antidiagonal of ones."""
    rows = [[Q(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[i][2 * n - 1 - i] = Q(1)
        rows[n + i][n - 1 - i] = Q(-1)
    return Mat(tuple(tuple(r) for r in rows))


def oracle_identity(size):
    return tuple(tuple(Q(1 if i == j else 0) for j in range(size)) for i in range(size))


def oracle_weyl_generator(n, k):
    """The k-th Weyl generator (1-based) as literal rows: for k < n, m(A) of
    the swap A of lines k, k+1, which swaps them and their mirrors 2n+1-k,
    2n-k; for k = n, the middle [[0, 1], [-1, 0]] block at lines n, n+1."""
    rows = [[int(i == j) for j in range(2 * n)] for i in range(2 * n)]
    if k < n:
        for a, b in ((k - 1, k), (2 * n - k - 1, 2 * n - k)):
            rows[a][a] = rows[b][b] = 0
            rows[a][b] = rows[b][a] = 1
    else:
        rows[n - 1][n - 1] = rows[n][n] = 0
        rows[n - 1][n] = 1
        rows[n][n - 1] = -1
    return tuple(tuple(row) for row in rows)


def oracle_weyl_word(n, word):
    """The product of the Weyl generators along word, by oracle_matmul."""
    gens = [None] + [oracle_weyl_generator(n, k) for k in range(1, n + 1)]
    out = tuple(tuple(int(i == j) for j in range(2 * n)) for i in range(2 * n))
    for k in word:
        out = oracle_matmul(out, gens[k])
    return out


def oracle_commutator(x, y):
    """x y x^-1 y^-1 for square-zero displacements, where I - N inverts I + N."""
    size = len(x)
    eye = oracle_identity(size)
    xi = tuple(tuple(2 * eye[i][j] - x[i][j] for j in range(size)) for i in range(size))
    yi = tuple(tuple(2 * eye[i][j] - y[i][j] for j in range(size)) for i in range(size))
    return oracle_matmul(oracle_matmul(x, y), oracle_matmul(xi, yi))


def rank2_literal(name, r):
    """Literal 4x4 one-parameter matrices for the rank-2 group."""
    r = Q(r)
    eye = [[Q(1 if i == j else 0) for j in range(4)] for i in range(4)]
    spots = {
        "line": [(0, 1, 1), (2, 3, -1)],    # e1 - e2
        "long_low": [(1, 2, 1)],            # 2 e2
        "sum": [(0, 2, 1), (1, 3, 1)],      # e1 + e2
        "long_high": [(0, 3, 1)],           # 2 e1
    }[name]
    for i, j, s in spots:
        eye[i][j] += s * r
    return tuple(tuple(row) for row in eye)


def oracle_volume_exponent(ctx, n, m, roots, rng, enumerate_cap=60000):
    """Walk the descending-height filtration and count each coset layer.

    Adding one root at level m on top of level-0 coordinates is a group
    step whose quotient is P^{-(2h-1)m}/O; the layer size is counted by
    enumerating representatives when small enough, asserting pairwise
    distinctness mod O on samples.  Membership semantics are checked
    through coordinate factorization.
    """
    total = 0
    for g in sorted(roots, key=lambda h: -h.height):
        bound = (2 * g.height - 1) * m
        layer = ctx.p**bound
        if layer <= enumerate_cap:
            reps = [Q(a, layer) for a in range(layer)]
            assert len(set(reps)) == layer
            for _ in range(8):
                a, b = rng.randrange(layer), rng.randrange(layer)
                diff = reps[a] - reps[b]
                assert (fraction_valuation(diff, ctx.p) >= 0) == (a == b)
        total += bound
        # the new coordinate is visible at exactly this layer
        r = Q(rng.randrange(1, ctx.p), layer)
        coords = peel_unipotent(root_elem(n, g, r))
        assert list(coords) == [g] and fraction_valuation(coords[g], ctx.p) == -bound
    # box closure and unique recovery of shuffled products
    for _ in range(12):
        factors = []
        for g in roots:
            v = -(2 * g.height - 1) * m + rng.randrange(0, 2 * g.height)
            factors.append((g, Q(rng.randrange(-4, 5)) * Q(ctx.p) ** v))
        rng.shuffle(factors)
        coords = peel_unipotent(root_product(n, factors))
        assert set(coords) <= set(roots)
        for g, c in coords.items():
            assert fraction_valuation(c, ctx.p) >= -(2 * g.height - 1) * m
    return total


def oracle_is_symplectic(g):
    """The two-product test tg J' g == J'."""
    jp = form_matrix(g.size // 2)
    return g.transpose() * jp * g == jp


def oracle_unitriangular_ul(a):
    """A = B C with B upper and C lower unitriangular, by back recursion."""
    size = a.size
    b = [[Q(1 if i == j else 0) for j in range(size)] for i in range(size)]
    c = [[Q(1 if i == j else 0) for j in range(size)] for i in range(size)]
    for k in range(size - 1, -1, -1):
        for i in range(k):
            b[i][k] = a.rows[i][k] - sum(b[i][kp] * c[kp][k] for kp in range(k + 1, size))
        for j in range(k):
            c[k][j] = a.rows[k][j] - sum(b[k][kp] * c[kp][j] for kp in range(k + 1, size))
        assert a.rows[k][k] - sum(b[k][kp] * c[kp][k] for kp in range(k + 1, size)) == 1
    return Mat(b), Mat(c)


def oracle_inverse(m):
    """Gauss-Jordan over Fractions on the Fraction view."""
    size = m.size
    a = [list(row) for row in m.rows]
    b = [list(row) for row in oracle_identity(size)]
    for col in range(size):
        piv = next((r for r in range(col, size) if a[r][col]), None)
        if piv is None:
            raise MatrixError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        d = a[col][col]
        a[col] = [x / d for x in a[col]]
        b[col] = [x / d for x in b[col]]
        for r in range(size):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                b[r] = [x - f * y for x, y in zip(b[r], b[col])]
    return Mat(b)


def oracle_root_elem(n, root, r):
    """I + r E read off the euclidean vector by the table of the chevalley
    module docstring (1-based, N = 2n + 1), without its position table."""
    size, big = 2 * n, 2 * n + 1
    rows = [list(row) for row in oracle_identity(size)]
    nz = [(i + 1, c) for i, c in enumerate(root.euclid()) if c]
    if len(nz) == 1:
        (a, c), = nz
        spots = [(a, big - a, 1)] if c > 0 else [(big - a, a, 1)]
    else:
        (a, ca), (b, cb) = nz
        if ca == -cb:
            if ca < 0:
                a, b = b, a
            spots = [(a, b, 1), (big - b, big - a, -1)]
        elif ca > 0:
            spots = [(a, big - b, 1), (b, big - a, 1)]
        else:
            spots = [(big - b, a, 1), (big - a, b, 1)]
    for i, j, sign in spots:
        rows[i - 1][j - 1] += sign * Q(r)
    return tuple(map(tuple, rows))


def oracle_bruhat_decompose(g):
    """The Gauss-Jordan route: Fraction elimination recording L and R, then
    L^-1, R^-1 and d^-1 by the Fraction Gauss-Jordan oracle."""
    size = g.size
    a = [list(row) for row in g.rows]
    lmat = [list(row) for row in oracle_identity(size)]
    rmat = [list(row) for row in oracle_identity(size)]
    used = [False] * size
    pivots = []
    for col in range(size):
        piv = max(r for r in range(size) if not used[r] and a[r][col])
        used[piv] = True
        pivots.append((piv, col))
        for r in range(piv):
            f = a[r][col] / a[piv][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[piv])]
            lmat[r] = [x - f * y for x, y in zip(lmat[r], lmat[piv])]
        for c2 in range(col + 1, size):
            f = a[piv][c2] / a[piv][col]
            for r in range(size):
                a[r][c2] -= f * a[r][col]
                rmat[r][c2] -= f * rmat[r][col]
    w = chevalley.weyl_from_monomial_pattern(size // 2, pivots)
    wrep = weyl_rep(w)
    wrep_inv = oracle_inverse(wrep)
    d = Mat(a) * wrep_inv
    bmat, cmat = oracle_unitriangular_ul(wrep * oracle_inverse(Mat(rmat)) * wrep_inv)
    um = wrep_inv * cmat * wrep
    u = oracle_inverse(Mat(lmat)) * (d * bmat * oracle_inverse(d))
    return u, d, w, um


# ---------------------------------------------------------- matrix layer

def _mixed_matrix(rng, size, p):
    """Entries over mixed p-power denominators, about 40 % zeros, any signs."""
    dens = (1, 2, 7 * p, p, p**2, p**3)
    return Mat([
        [Q(rng.randint(-9, 9), rng.choice(dens)) if rng.random() < 0.6 else Q(0) for _ in range(size)]
        for _ in range(size)
    ])


def test_mat_mul_matches_oracle():
    rng = random.Random(1)
    for _ in range(10):
        a = Mat(tuple(tuple(Q(rng.randint(-5, 5), rng.choice([1, 2, 3])) for _ in range(4)) for _ in range(4)))
        b = Mat(tuple(tuple(Q(rng.randint(-5, 5), rng.choice([1, 2, 3])) for _ in range(4)) for _ in range(4)))
        assert (a * b).rows == oracle_matmul(a.rows, b.rows)


def test_mat_mul_integer_kernel_matches_oracle():
    """Products through one integer denominator against the Fraction triple loop."""
    for n in (2, 3, 4):
        for p in (3, 5, 7):
            rng = random.Random(100 * n + p)
            size = 2 * n
            group = full_weyl_group(n)
            roots = positive_roots(n)
            pairs = []
            for _ in range(3):
                pairs.append((_random_word_matrix(p, n, rng), _random_word_matrix(p, n, rng)))
                w = weyl_rep(group[rng.randrange(len(group))])
                root = roots[rng.randrange(len(roots))]
                x = root_elem(n, rng.choice((root, -root)), Q(rng.randint(-9, 9), p ** rng.randrange(4)))
                pairs += [(w, x), (x, w), (_mixed_matrix(rng, size, p), _mixed_matrix(rng, size, p))]
            zero = Mat(tuple(tuple(Q(0) for _ in range(size)) for _ in range(size)))
            pairs += [(zero, pairs[0][0]), (pairs[0][1], zero), (zero, zero)]
            for a, b in pairs:
                got = (a * b).rows
                assert got == oracle_matmul(a.rows, b.rows)
                assert all(type(x) is Q for row in got for x in row)


def test_mat_inverse_round_trip():
    rng = random.Random(2)
    for n in (1, 2, 3, 4):
        g = _random_word_matrix(3, n, rng)
        assert (g * g.inverse()).is_identity()
        assert symplectic_inverse(g) == g.inverse()


def test_mat_inverse_matches_fraction_gauss_jordan_oracle():
    """The fraction-free inverse against the Fraction Gauss-Jordan: seeded
    words, mixed p-power denominators, negative pivots; singular input
    raises on both routes."""
    singular = 0
    for n in (1, 2, 3, 4):
        size = 2 * n
        for p in (3, 5, 7):
            rng = random.Random(200 + 10 * n + p)
            cases = [_random_word_matrix(p, n, rng) for _ in range(4)]
            cases += [_mixed_matrix(rng, size, p) for _ in range(6)]
            # negative pivots: a negated permutation matrix and a lower
            # triangular matrix with a negative diagonal
            perm = list(range(size))
            rng.shuffle(perm)
            cases.append(Mat([[Q(-1 if j == perm[i] else 0) for j in range(size)] for i in range(size)]))
            cases.append(Mat([
                [Q(-rng.randint(1, 5), rng.choice((1, p))) if i == j else Q(rng.randint(-3, 3)) if j < i else Q(0)
                 for j in range(size)]
                for i in range(size)
            ]))
            for m in cases:
                try:
                    want = oracle_inverse(m)
                except MatrixError:
                    singular += 1
                    with pytest.raises(MatrixError, match="singular matrix"):
                        m.inverse()
                    continue
                got = m.inverse()
                assert got == want and (m * got).is_identity()
            # a repeated row and a zero column are singular
            rows = [list(row) for row in _mixed_matrix(rng, size, p).rows]
            rows[-1] = list(rows[0])
            for m in (Mat(rows), Mat([[Q(0)] + list(row[1:]) for row in rows])):
                with pytest.raises(MatrixError, match="singular matrix"):
                    oracle_inverse(m)
                with pytest.raises(MatrixError, match="singular matrix"):
                    m.inverse()
                singular += 1
    assert singular >= 24


def test_form_matrix_and_symplectic_checks():
    jp = form_matrix(2)
    assert jp.rows == (
        (0, 0, 0, 1),
        (0, 0, 1, 0),
        (0, -1, 0, 0),
        (-1, 0, 0, 0),
    )
    assert not is_symplectic(Mat.diagonal([1, 2, 3, 4]))
    assert is_symplectic(Mat.diagonal([2, 3, Q(1, 3), Q(1, 2)]))


def test_is_symplectic_matches_two_product_oracle():
    verdicts = []
    for n in (1, 2, 3, 4):
        for p in (3, 5, 7):
            rng = random.Random(300 + 10 * n + p)
            for _ in range(8):
                g = _random_word_matrix(p, n, rng)
                assert is_symplectic(g) and oracle_is_symplectic(g)
                # one entry changed: symplectic again only when the change
                # is a long-root factor, which these draws rarely hit
                rows = [list(row) for row in g.rows]
                i, j = rng.randrange(2 * n), rng.randrange(2 * n)
                rows[i][j] += Q(rng.choice([1, -1]), rng.choice([1, p]))
                bent = Mat(rows)
                verdicts.append(is_symplectic(bent))
                assert verdicts[-1] == oracle_is_symplectic(bent)
    assert verdicts.count(False) >= 0.75 * len(verdicts)
    for entries in ([1, 2, 3, 4], [2, 3, Q(1, 3), Q(1, 2)], [Q(1, 5), 5]):
        g = Mat.diagonal(entries)
        assert is_symplectic(g) == oracle_is_symplectic(g)
    assert not is_symplectic(Mat.diagonal([1, 2, 3, 4]))


def test_matrix_canonical_form():
    """Lowest terms over one positive denominator, whatever the route."""
    root = Root(2, (1, 1))
    by_rows = Mat(rank2_literal("sum", Q(1, 3)))
    by_product = root_elem(2, root, Q(1, 6)) * root_elem(2, root, Q(1, 6))
    by_update = mul_root_elem(root_elem(2, root, Q(1, 2)), root, Q(-1, 6))
    for m in (by_product, by_update):
        assert m == by_rows and hash(m) == hash(by_rows)
        assert (m.den, m.num) == (3, by_rows.num)
    rng = random.Random(11)
    for n in (1, 2, 3):
        for _ in range(10):
            a, b = _random_word_matrix(3, n, rng), _random_word_matrix(3, n, rng)
            word = mul_root_elem(a, -positive_roots(n)[-1], Q(5, 9))
            for m in (a * b, symplectic_inverse(a), a.inverse(), word) + bruhat_decompose(b)[::3]:
                assert m.den > 0 and math.gcd(m.den, *(x for row in m.num for x in row)) == 1
                assert Mat(m.rows) == m and hash(Mat(m.rows)) == hash(m)
            zero = Mat([[Q(0, 1)] * (2 * n)] * (2 * n))
            assert zero.den == 1 and (a * zero).den == 1 and (a * zero) == zero
    for ragged in ([[1, 2], [3]], [[1, 2, 3], [4, 5, 6]]):
        with pytest.raises(MatrixError):
            Mat(ragged)
    assert not hasattr(by_rows, "ctx")


def test_matrix_constructors_reject_floats():
    root = Root(2, (1, 0))
    eye = Mat.identity(4)
    calls = [
        lambda: Mat(((0.5, 0), (0, 2))),
        lambda: Mat([[1, 0], [0, 2.0]]),
        lambda: Mat.diagonal([0.5, 2]),
        lambda: torus([0.1, 2]),
        lambda: first_axis_torus(2, 0.5),
        lambda: root_elem(2, root, 0.5),
        lambda: mul_root_elem(eye, root, 0.5),
        lambda: root_product(2, [(root, 1), (root, 0.5)]),
        lambda: corner_column_unipotent(3, [0.5], 1),
        lambda: corner_column_unipotent(2, [], 0.25),
        lambda: levi_embed(2, [[1, 0.5], [0, 1]]),
        lambda: radical_embed(1, [[0.5]]),
    ]
    for call in calls:
        with pytest.raises(PadicError):
            call()


def test_levi_embed_is_homomorphism():
    rng = random.Random(3)
    done = 0
    while done < 6:
        a = [[Q(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
        b = [[Q(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
        try:
            Mat(a).inverse()
            Mat(b).inverse()
        except MatrixError:
            continue
        done += 1
        ma = levi_embed(3, a)
        mb = levi_embed(3, b)
        assert is_symplectic(ma)
        ab = oracle_matmul(tuple(map(tuple, a)), tuple(map(tuple, b)))
        assert ma * mb == levi_embed(3, ab)


def test_embedding_blocks_take_any_iterable_of_rows():
    a, x = [[Q(2), Q(1)], [Q(1), Q(1)]], [[Q(1), Q(2)], [Q(3), Q(1)]]
    assert levi_embed(2, (iter(row) for row in a)) == levi_embed(2, a)
    assert radical_embed(2, (iter(row) for row in x)) == radical_embed(2, x)


def test_radical_embed_addition_and_validation():
    x = [[Q(1), Q(2)], [Q(3), Q(1)]]
    y = [[Q(0), Q(5)], [Q(7), Q(0)]]
    nx = radical_embed(2, x)
    ny = radical_embed(2, y)
    assert is_symplectic(nx)
    assert nx * ny == radical_embed(2, [[Q(1), Q(7)], [Q(10), Q(1)]])
    with pytest.raises(MatrixError):
        radical_embed(2, [[Q(1), Q(2)], [Q(3), Q(4)]])
    with pytest.raises(MatrixError):
        radical_embed(2, [[1, 2, 3], [4, 1, 5], [6, 7, 8]])
    with pytest.raises(MatrixError):
        radical_embed(2, [[1]])


def test_long_simple_root_groups_sit_in_the_middle_block():
    """x_b(r), x_-b(r) and the long Weyl generator's representative are
    the SL_2 block at lines n, n+1; a block of determinant 1 there is
    symplectic and one of determinant 2 is not."""
    r = Q(2, 3)
    for n in (1, 2, 3):
        b = simple_roots(n)[-1]
        assert root_elem(n, b, r) == sl2_embed(n, ((1, r), (0, 1)))
        assert root_elem(n, -b, r) == sl2_embed(n, ((1, 0), (r, 1)))
        assert weyl_rep(WeylElem.simple(n, n)) == sl2_embed(n, ((0, 1), (-1, 0)))
    assert is_symplectic(sl2_embed(3, ((Q(2), Q(1)), (Q(1), Q(1)))))
    assert not is_symplectic(sl2_embed(3, ((Q(2), Q(1)), (Q(0), Q(1)))))


# ------------------------------------------------------- root subgroups

@pytest.mark.parametrize("n", [2, 3, 4])
def test_one_parameter_property(n):
    rng = random.Random(10 + n)
    for g in positive_roots(n):
        for root in (g, -g):
            r = Q(rng.randint(-9, 9), rng.choice([1, 3, 9]))
            s = Q(rng.randint(-9, 9), rng.choice([1, 3]))
            x = root_elem(n, root, r)
            assert is_symplectic(x)
            assert x * root_elem(n, root, s) == root_elem(n, root, r + s)
            assert symplectic_inverse(x) == root_elem(n, root, -r)


def test_rank2_matrices_match_literals():
    names = {(1, 0): "line", (0, 1): "long_low", (1, 1): "sum", (2, 1): "long_high"}
    for coeffs, name in names.items():
        root = Root(2, coeffs)
        assert root_elem(2, root, Q(7, 3)).rows == rank2_literal(name, Q(7, 3))


@pytest.mark.parametrize("n", [2, 3])
def test_torus_conjugation_scales_by_root_value(n):
    rng = random.Random(20 + n)
    entries = [Q(rng.choice([1, 2, 3, 5]), rng.choice([1, 3])) for _ in range(n)]
    t = torus(entries)
    for g in positive_roots(n):
        for root in (g, -g):
            val = Q(1)
            for i, c in enumerate(root.euclid()):
                val *= entries[i] ** c
            x = root_elem(n, root, Q(5))
            assert t * x * symplectic_inverse(t) == root_elem(n, root, val * 5)


def test_torus_is_diag_of_the_entries_and_their_inverses():
    es = [Q(-2, 3), Q(5), Q(7, -9)]
    assert torus(es).rows == tuple(
        tuple(x if i == j else 0 for j in range(6)) for i, x in enumerate(es + [1 / e for e in reversed(es)])
    )
    with pytest.raises(MatrixError, match="torus entry is 0"):
        torus([Q(1), Q(0)])


@pytest.mark.parametrize("n", [2, 3])
def test_weyl_conjugation_permutes_root_groups(n):
    rng = random.Random(30 + n)
    group = full_weyl_group(n)
    for _ in range(15):
        w = group[rng.randrange(len(group))]
        wrep = weyl_rep(w)
        g = positive_roots(n)[rng.randrange(n * n)]
        r = Q(rng.randint(1, 7))
        conj = wrep * root_elem(n, g, r) * symplectic_inverse(wrep)
        target = w.apply(g)
        assert conj in (root_elem(n, target, r), root_elem(n, target, -r))


def test_root_product_matches_literal_oracle():
    """Root words over one running denominator against oracle_matmul over
    literal root-group matrices: letters with rd != 1, a repeated root, a
    root next to its negative, zero letters."""
    assert all(
        oracle_root_elem(2, Root(2, coeffs), Q(7, 3)) == rank2_literal(name, Q(7, 3))
        for coeffs, name in {(1, 0): "line", (0, 1): "long_low", (1, 1): "sum", (2, 1): "long_high"}.items()
    )
    for n in (1, 2, 3, 4):
        roots = positive_roots(n)
        roots = roots + [-g for g in roots]
        for p in (3, 5):
            rng = random.Random(400 + 10 * n + p)
            for _ in range(6):
                factors = []
                for _ in range(rng.randrange(1, 8)):
                    root = rng.choice(roots)
                    r = Q(rng.randint(-6, 6), rng.choice((1, p, p**2, 2 * p)))
                    factors.append((root, r))
                    if rng.random() < 0.3:
                        factors.append((rng.choice((root, -root)), Q(rng.randint(-4, 4), rng.choice((1, p)))))
                want = oracle_identity(2 * n)
                for root, r in factors:
                    want = oracle_matmul(want, oracle_root_elem(n, root, r))
                got = root_product(n, factors)
                assert got.rows == want
                assert got.den <= math.prod(Q(r).denominator for _, r in factors)
                g = _random_word_matrix(p, n, rng)
                assert mul_root_elem(g, factors[0][0], factors[0][1]).rows == oracle_matmul(
                    g.rows, oracle_root_elem(n, *factors[0])
                )


def test_fast_multiplication_paths():
    rng = random.Random(4)
    for n in (2, 3):
        g = _random_word_matrix(3, n, rng)
        for root in (positive_roots(n)[1], -positive_roots(n)[2]):
            r = Q(rng.randint(-5, 5), 3)
            assert mul_root_elem(g, root, r) == g * root_elem(n, root, r)


def line_weights(n):
    """The torus weights of the 2n lines as Euclidean vectors, e_1, ...,
    e_n, -e_n, ..., -e_1, enumerated here from the torus
    diag(a_1..a_n, a_n^-1..a_1^-1)."""
    units = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    return units + [tuple(-c for c in v) for v in reversed(units)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_root_positions_carry_each_root_between_line_weights(n):
    """Every position (row, col, s) of g has weight(row) - weight(col) = g,
    a long root has one position and a short one two, the positions of -g
    are the transposes of g's, and the signs make x_g(r) symplectic."""
    weights = line_weights(n)
    positions = congruence._root_positions(n)
    roots = positive_roots(n) + [-g for g in positive_roots(n)]
    assert set(positions) == set(roots) and len(positions) == 2 * n * n
    for g in roots:
        assert len(positions[g]) == (1 if 2 in map(abs, g.euclid()) else 2)
        for row, col, s in positions[g]:
            assert tuple(a - b for a, b in zip(weights[row], weights[col])) == g.euclid()
            assert s in (1, -1)
        assert positions[-g] == tuple((col, row, s) for row, col, s in positions[g])
        for r in (Q(1), Q(-2, 3)):
            assert is_symplectic(root_elem(n, g, r))


def test_foreign_roots_are_refused_by_the_position_table():
    """A root of another rank, or no root at all, raises MatrixError naming
    it and the rank, not KeyError."""
    g2, g3 = positive_roots(2)[0], positive_roots(3)[0]
    calls = (
        lambda: root_elem(2, g3, 1),
        lambda: mul_root_elem(Mat.identity(4), g3, 1),
        lambda: root_product(2, [("x", 1)]),
        lambda: commutator_coefficients(2, g2, 1, g3, 1),
        lambda: commutator_coefficients(3, g2, 1, g3, 1),
        lambda: cell_identity_borel_part(2, g3, 1),
    )
    for call in calls:
        with pytest.raises(PadicError) as exc:
            call()
        assert type(exc.value) is MatrixError
        assert "is not a root of rank" in str(exc.value)


# ------------------------------------------------------------ Weyl layer

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_weyl_from_monomial_pattern_inverts_the_representative(n):
    """The pivot pattern of weyl_rep(w) gives back w, on every element."""
    for w in full_weyl_group(n):
        rep = weyl_rep(w)
        pivots = [(i, j) for i, row in enumerate(rep.num) for j, x in enumerate(row) if x]
        assert weyl_from_monomial_pattern(n, pivots) == w


def test_weyl_from_monomial_pattern_refuses_an_incomplete_pattern():
    for pivots in ([(0, 0)], [], [(0, 0), (0, 1)]):
        with pytest.raises(RootError, match="signed permutation"):
            weyl_from_monomial_pattern(2, pivots)


def test_weyl_rep_patterns_and_frozen_top_cell():
    w0 = top_cell_matrix(2)
    assert w0.rows == ((0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (-1, 0, 0, 0))
    assert is_symplectic(w0)
    assert weyl_from_rank_pattern(w0) == highest_root_reflection(2)
    assert weyl_from_rank_pattern(rotation_matrix(3)) == coordinate_rotation(3)
    assert weyl_from_rank_pattern(Mat.identity(6)).is_identity()
    assert weyl_from_rank_pattern(torus([Q(3), Q(1, 3), Q(5)])).is_identity()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_weyl_rep_is_the_generator_product_along_reduced_words(n):
    """weyl_rep reads the representative off the signed permutation; the
    oracle multiplies literal generators along two reduced words of w, its
    own and the reverse of its inverse's, which often differ."""
    for w in full_weyl_group(n):
        word = w.reduced_word()
        other = tuple(reversed(w.inverse().reduced_word()))
        assert len(other) == len(word) == w.length()
        rows = weyl_rep(w).rows
        assert rows == oracle_weyl_word(n, word)
        assert rows == oracle_weyl_word(n, other)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rotation_matrix_is_the_levi_embedded_cycle(n):
    cycle = [[int(i == j + 1 or (i, j) == (0, n - 1)) for j in range(n)] for i in range(n)]
    assert rotation_matrix(n) == levi_embed(n, cycle)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_weyl_rep_consistent_with_abstract_group(n):
    for w in full_weyl_group(n):
        rep = weyl_rep(w)
        assert is_symplectic(rep)
        assert weyl_from_rank_pattern(rep) == w


def oracle_rank(rows):
    """Rank by Gauss-Jordan over Fractions."""
    a = [list(row) for row in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for r in range(len(a)):
            if r != rank and a[r][col]:
                f = a[r][col] / a[rank][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def _low_rank_matrix(rng, size):
    """An integer matrix of rank at most k < size: an (size x k) by (k x size) product."""
    k = rng.randrange(size)
    left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(size)]
    right = [[rng.randint(-3, 3) if rng.random() < 0.7 else 0 for _ in range(size)] for _ in range(k)]
    return Mat([[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(size)] for i in range(size)])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_corner_ranks_match_fraction_rank_of_every_corner(n):
    """Each row of the one-sweep table against the Fraction rank of every
    corner on its own, for symplectic words and rank-deficient matrices."""
    rng = random.Random(80 + n)
    size = 2 * n
    mats = [_random_word_matrix(p, n, rng) for p in (3, 5, 7) for _ in range(2)]
    mats += [_low_rank_matrix(rng, size) for _ in range(6)]
    for g in mats:
        want = [[oracle_rank([row[:j] for row in g.rows[i:]]) for j in range(size + 1)] for i in range(size + 1)]
        assert intelim.corner_ranks(g.num) == want


# ---------------------------------------------------------- Bruhat cells

@pytest.mark.parametrize("n", [2, 3])
def test_signed_and_diagonal_conjugations_match_products(n):
    """The entry permutation and integer scaling inside bruhat_decompose
    against plain products, on every Weyl element."""
    rng = random.Random(40 + n)
    for w in full_weyl_group(n):
        wrep = weyl_rep(w)
        wrep_inv = symplectic_inverse(wrep)
        x = _mixed_matrix(rng, 2 * n, 3)
        assert (x.den, intmat.signed_conjugate(wrep.num, x.num)) == pair(wrep * x * wrep_inv)
        assert (x.den, intmat.signed_conjugate(wrep_inv.num, x.num)) == pair(wrep_inv * x * wrep)
        d = torus([Q(rng.choice([1, -1, 2, -5]), rng.choice([1, 3, 9])) for _ in range(n)])
        assert intmat.diagonal_conjugate(d.num, *pair(x)) == pair(d * x * oracle_inverse(d))


def test_times_monomial_matches_mat_mul():
    """The column-move product against Mat.__mul__ for signed permutations,
    diagonals (a zero entry too) and their products at sizes 2-8; a row
    with two entries is refused."""
    rng = random.Random(90)
    for size in range(2, 9):
        for _ in range(4):
            perm = list(range(size))
            rng.shuffle(perm)
            signed = Mat([[rng.choice([1, -1]) if j == perm[i] else 0 for j in range(size)] for i in range(size)])
            diag = Mat.diagonal([Q(rng.choice([0, 1, -1, 2, -5]), rng.choice([1, 3, 9])) for _ in range(size)])
            x = _mixed_matrix(rng, size, 3)
            for m in (signed, diag, signed * diag, diag * signed):
                assert intmat.times_monomial(*pair(x), *pair(m)) == pair(x * m)
                assert intmat.times_monomial(*pair(m), *pair(signed)) == pair(m * signed)
    assert intmat.times_monomial(*pair(Mat.identity(2)), *pair(Mat([[1, 1], [0, 1]]))) is None


@pytest.mark.parametrize("n", [2, 3])
def test_bruhat_decompose_random_products(n):
    rng = random.Random(60 + n)
    for _ in range(60):
        g = _random_word_matrix(3, n, rng)
        u, d, w, um = bruhat_decompose(g)
        assert u * d * weyl_rep(w) * um == g
        assert weyl_from_rank_pattern(g) == w
        assert set(peel_unipotent(um)) <= set(w.negated_positive_roots())


def test_bruhat_decompose_edge_cells():
    assert bruhat_decompose(Mat.identity(4))[2].is_identity()
    u, d, w, um = bruhat_decompose(top_cell_matrix(3))
    assert w == highest_root_reflection(3)
    assert u.is_identity() and um.is_identity()
    g = root_elem(2, Root(2, (1, 0)), Q(2, 3))
    u, d, w, um = bruhat_decompose(g)
    assert w.is_identity() and um.is_identity() and d.is_identity()


def test_bruhat_decompose_matches_gauss_jordan_oracle():
    cases = 0
    for n in (1, 2, 3, 4):
        for p in (3, 5, 7):
            rng = random.Random(500 + 10 * n + p)
            for _ in range(20):
                g = _random_word_matrix(p, n, rng)
                assert bruhat_decompose(g) == oracle_bruhat_decompose(g)
                cases += 1
    assert cases >= 240


def test_bruhat_rejects_non_symplectic():
    with pytest.raises(MatrixError):
        bruhat_decompose(Mat.diagonal([1, 2, 3, 4]))


def test_unitriangular_ul_factors_products_and_rejects_matrices_outside_the_cell():
    """B C splits back into (B, C); adding 1 at (k, k) makes the trailing
    principal minor from k equal 2, so no unitriangular split exists."""
    rng = random.Random(12)
    for size in (2, 4, 6):
        for _ in range(10):
            def entry():
                return Q(rng.randint(-4, 4), rng.choice([1, 3, 9]))

            b = Mat([[entry() if j > i else Q(int(i == j)) for j in range(size)] for i in range(size)])
            c = Mat([[entry() if j < i else Q(int(i == j)) for j in range(size)] for i in range(size)])
            a = b * c
            assert intelim.unitriangular_ul(*pair(a)) == (pair(b), pair(c))
            assert (b, c) == oracle_unitriangular_ul(a)
            rows = [list(row) for row in a.rows]
            k = rng.randrange(size)
            rows[k][k] += 1
            assert intelim.unitriangular_ul(*pair(Mat(rows))) is None
            with pytest.raises(FactorizationError, match="not in the unitriangular cell"):
                chevalley._unitriangular_split(*pair(Mat(rows)))
            with pytest.raises(AssertionError):
                oracle_unitriangular_ul(Mat(rows))
    with pytest.raises(FactorizationError, match="not in the unitriangular cell"):
        chevalley._unitriangular_split(*pair(top_cell_matrix(2)))


# ------------------------------------------------- unipotent coordinates

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_peel_and_coords_round_trip(n):
    rng = random.Random(70 + n)
    roots = positive_roots(n)
    for _ in range(20):
        u = Mat.identity(2 * n)
        for g in roots:
            if rng.random() < 0.7:
                u = mul_root_elem(u, g, Q(rng.randint(-6, 6), rng.choice([1, 3, 9])))
        cs = peel_unipotent(u)
        asc = sorted(cs.items(), key=lambda t: (t[0].height, t[0].coeffs))
        assert root_product(n, asc) == u


def test_peel_rejects_non_unipotent():
    with pytest.raises(FactorizationError):
        peel_unipotent(torus([Q(3), Q(5)]))
    # upper unitriangular but not symplectic: half of a line-root factor
    for n in (2, 3):
        rows = [list(row) for row in oracle_identity(2 * n)]
        rows[0][1] = Q(2, 3)
        with pytest.raises(FactorizationError, match="residue after peeling"):
            peel_unipotent(Mat(rows))


# ------------------------------------------------------------ commutators

def test_commutators_match_literal_oracle_rank2():
    rng = random.Random(8)
    names = {(1, 0): "line", (0, 1): "long_low", (1, 1): "sum", (2, 1): "long_high"}
    pairs = [((1, 0), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (1, 1)), ((1, 1), (2, 1)), ((1, 0), (2, 1))]
    for c1, c2 in pairs:
        r = Q(rng.randint(1, 7), rng.choice([1, 3]))
        s = Q(rng.randint(1, 7), rng.choice([1, 3]))
        got = commutator_coefficients(2, Root(2, c1), r, Root(2, c2), s)
        lhs = oracle_commutator(rank2_literal(names[c1], r), rank2_literal(names[c2], s))
        rhs = oracle_identity(4)
        for (i, j), c in sorted(got.items(), key=lambda t: sum(t[0])):
            vec = tuple(i * a + j * b for a, b in zip(Root(2, c1).euclid(), Root(2, c2).euclid()))
            root = root_from_vector(2, vec)
            rhs = oracle_matmul(rhs, root_elem(2, root, c).rows)
        assert lhs == rhs


def test_commutator_frozen_values_rank2():
    # [x_{e1-e2}(r), x_{2e2}(s)] = x_{e1+e2}(rs) x_{2e1}(r^2 s)
    got = commutator_coefficients(2, Root(2, (1, 0)), Q(2), Root(2, (0, 1)), Q(3))
    assert got == {(1, 1): Q(6), (2, 1): Q(12)}
    # [x_{e1-e2}(r), x_{e1+e2}(s)] = x_{2e1}(2 r s)
    got = commutator_coefficients(2, Root(2, (1, 0)), Q(2), Root(2, (1, 1)), Q(3))
    assert got == {(1, 1): Q(12)}
    # members of a bad pair commute
    got = commutator_coefficients(2, Root(2, (1, 1)), Q(2), Root(2, (2, 1)), Q(3))
    assert got == {}


@pytest.mark.parametrize("n", [2, 3])
def test_radical_roots_commute(n):
    rng = random.Random(80 + n)
    radical = [g for g in positive_roots(n) if in_radical(g)]
    for g1 in radical:
        for g2 in radical:
            if g1 == g2:
                continue
            got = commutator_coefficients(n, g1, Q(rng.randint(1, 5)), g2, Q(rng.randint(1, 5)))
            assert got == {}


# ------------------------------------------------------- cell identities

@pytest.mark.parametrize("n", [2, 3])
def test_cell_identity_all_roots(n):
    rng = random.Random(90 + n)
    for g in positive_roots(n):
        for _ in range(5):
            r = Q(rng.choice([1, 2, 4, 5]), rng.choice([1, 3, 9]))
            if rng.random() < 0.5:
                r = -r
            b = cell_identity_borel_part(n, g, r)
            assert b.is_upper_triangular()
            lhs = root_product(n, [(g, r), (-g, -1 / r)])
            assert weyl_rep(reflection(g)) * b == lhs


def test_cell_identity_long_root_block():
    # the middle 2x2 content of the long-root identity, frozen
    r = Q(5, 3)
    lhs = root_product(2, [(Root(2, (0, 1)), r), (-Root(2, (0, 1)), -1 / r)])
    assert lhs == sl2_embed(2, ((Q(0), r), (-1 / r, Q(1))))


def test_cell_identity_rejects_zero():
    with pytest.raises(MatrixError):
        cell_identity_borel_part(2, Root(2, (1, 0)), Q(0))


# ------------------------------------------------------------ congruence

def test_level_exponents_frozen():
    assert level_exponents(2, 1) == [-3, -1, 1, 3]
    assert level_exponents(3, 2) == [-10, -6, -2, 2, 6, 10]
    assert conjugating_torus(C3, 2, 1) == Mat.diagonal([Q(3) ** e for e in (-3, -1, 1, 3)])


def test_skew_level_is_conjugated_standard_level():
    rng = random.Random(5)
    n, m = 2, 1
    d = conjugating_torus(C3, n, m)
    dinv = d.inverse()
    for _ in range(30):
        factors = []
        for g in positive_roots(n):
            v = radical_coordinate_bound(g, m) + rng.randrange(0, 4)
            factors.append((g, Q(rng.randint(-4, 4)) * Q(3) ** v))
        for g in positive_roots(n):
            v = negative_coordinate_bound(g, m) + rng.randrange(0, 3)
            factors.append((-g, Q(rng.randint(-4, 4)) * Q(3) ** v))
        rng.shuffle(factors)
        h = root_product(n, factors)
        assert in_skew_level(C3, h, m)
        assert in_standard_level(C3, dinv * h * d, m)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("m", [1, 2])
def test_depth_unipotent_product_closure(n, m):
    rng = random.Random(100 + n + m)
    for _ in range(10):
        factors = []
        for g in positive_roots(n):
            v = radical_coordinate_bound(g, m) + rng.randrange(0, 2 * g.height + 1)
            factors.append((g, Q(rng.randint(-6, 6)) * Q(3) ** v))
        rng.shuffle(factors)
        u = root_product(n, factors)
        assert u.is_upper_unitriangular() and in_skew_level(C3, u, m)
        # factoring back in ascending order stays within the box
        for g, c in peel_unipotent(u).items():
            assert fraction_valuation(c, 3) >= radical_coordinate_bound(g, m)


def test_generic_character_values_and_multiplicativity():
    rng = random.Random(6)
    n = 3
    for g in simple_roots(n):
        u = root_elem(n, g, Q(2, 9))
        assert generic_character(C3, u).turn == Q(2, 9)
    for g in positive_roots(n):
        if g.height > 1:
            u = root_elem(n, g, Q(1, 27))
            assert generic_character(C3, u).is_one()
    nontrivial = 0
    for _ in range(20):
        u1 = _deep_unipotent(3, n, rng, 1)
        u2 = _deep_unipotent(3, n, rng, 1)
        assert generic_character(C3, u1 * u2) == generic_character(C3, u1) * generic_character(C3, u2)
        nontrivial += not generic_character(C3, u1).is_one()
    assert nontrivial


def test_depth_character_multiplicative_and_nontrivial():
    n, m = 2, 1
    rng = random.Random(7)
    g = simple_roots(n)[0]
    h = root_elem(n, g, Q(1, 3**m))
    assert not skew_level_character(C3, h, m).is_one()
    for _ in range(15):
        h1 = _deep_unipotent(3, n, rng, m)
        h2 = _deep_unipotent(3, n, rng, m)
        lhs = skew_level_character(C3, h1 * h2, m)
        assert lhs == skew_level_character(C3, h1, m) * skew_level_character(C3, h2, m)
    with pytest.raises(MatrixError):
        skew_level_character(C3, root_elem(n, g, Q(1, 3 ** (m + 5))), m)


# --------------------------------------------------------------- volumes

def test_volume_exponent_closed_forms():
    for n in (2, 3, 4):
        w0 = highest_root_reflection(n)
        assert volume_exponent("U_w_minus", n, 1, w=w0) == (2 * n - 1) ** 2
        d_exp = volume_exponent("D", n, 1)
        assert d_exp - (2 * n - 1) ** 2 == -((n - 1) ** 2)
        total = volume_exponent("U", n, 1)
        assert total == sum(2 * g.height - 1 for g in positive_roots(n))
        assert volume_exponent("U_w_plus", n, 1, w=w0) == total - (2 * n - 1) ** 2
    for g in positive_roots(3):
        assert volume_exponent("U_gamma", 3, 2, root=g) == (2 * g.height - 1) * 2
    with pytest.raises(MatrixError):
        volume_exponent("U", 2, -1)
    with pytest.raises(MatrixError):
        volume_exponent("banana", 2, 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_volume_exponent_d_is_the_radicals_first_row(n):
    """D sums over the radical roots (the coefficient predicate) that
    carry e_1: 2 e_1 and e_1 + e_k, n roots."""
    row = [g for g in positive_roots(n) if in_radical(g) and g.euclid()[0] > 0]
    assert len(row) == n
    for m in range(4):
        assert volume_exponent("D", n, m) == m * sum(2 * g.height - 1 for g in row)


# -------------------------------------------------------- cell rewriting

@pytest.mark.parametrize("n", [2, 3, 4])
def test_rewrite_split_is_the_unitriangular_split_and_one_peel(n):
    """The two steps of cell_word_rewrite on every cell below the top
    reflection: for u1 in U_w^+ and v in U_w^-, W u1 v W^-1 splits back
    into (W u1 W^-1, W v W^-1), and one left peel of v^-1 along
    ordered_negated_roots(w) gives back the negated coefficients."""
    rng = random.Random(250 + n)
    cells = _cells_below_top(n)
    assert len(cells) == {2: 5, 3: 19, 4: 67}[n]

    def coeff():
        return Q(rng.choice([1, -1, 2, -4, 7]), 3 ** rng.randrange(4))

    positions = congruence._root_positions(n)
    for w in cells:
        wrep = weyl_rep(w)
        order = ordered_negated_roots(w)
        for _ in range(5):
            u1 = root_product(n, [(g, coeff()) for g in w.kept_positive_roots()])
            rs = [coeff() for _ in order]
            v = root_product(n, list(zip(reversed(order), reversed(rs))))
            uv = u1 * v
            split = intelim.unitriangular_ul(uv.den, intmat.signed_conjugate(wrep.num, uv.num))
            assert split == (
                (u1.den, intmat.signed_conjugate(wrep.num, u1.num)),
                (v.den, intmat.signed_conjugate(wrep.num, v.num)),
            )
            vinv = symplectic_inverse(v)
            coords = intelim.peel(vinv.den, vinv.num, [(g, positions[g]) for g in order])
            assert coords == {g: ((-r).numerator, (-r).denominator) for g, r in zip(order, rs)}


def test_cell_word_rewrite_rejects_shallow_u():
    n, m = 2, 1
    w = highest_root_reflection(n)
    order = ordered_negated_roots(w)
    rs = [Q(3) ** (radical_coordinate_bound(g, m) - 1) for g in order]
    u = root_elem(n, simple_roots(n)[0], Q(1, 3**5))
    t = torus([Q(1), Q(1)])
    with pytest.raises(MatrixError):
        cell_word_rewrite(C3, t, w, rs, u, m)


# the n = 4 cases keep their ids, m-p
_REWRITE_ORACLE_CASES = [
    pytest.param(n, m, p, id=f"{m}-{p}" if n == 4 else f"n{n}-{m}-{p}")
    for n in (2, 3, 4)
    for m in (1, 2)
    for p in (3, 5)
]


@pytest.mark.parametrize("n, m, p", _REWRITE_ORACLE_CASES)
def test_cell_word_rewrite_at_rank_four(n, m, p):
    # the independent oracle of the rewrite identity: both sides are
    # rebuilt here with general products from the returned (u~, r~), where
    # cell_word_rewrite compares against its lower factor v itself, so a
    # wrong r~ shows here and nowhere in the library; at n = 4, which the
    # campaigns' matrix work does not reach, and at n = 2, 3 as well
    rng = random.Random(100 * n + 10 * p + m)
    ctx = PrimeCtx(p)
    for _ in range(6):
        w, rs, u, t, q_at = _admissible_rewrite_case(p, n, m, rng)
        u_t, rs_t, q = cell_word_rewrite(ctx, t, w, rs, u, m)
        assert q == q_at and u_t.is_upper_unitriangular()
        assert fraction_valuation(rs_t[q], p) == fraction_valuation(rs[q], p)
        order = ordered_negated_roots(w)
        tw = t * weyl_rep(w)
        lhs = tw * root_product(n, [(order[k], rs[k]) for k in range(len(order) - 1, q - 1, -1)]) * u
        rhs = u_t * tw * root_product(n, [(order[k], rs_t[k]) for k in range(len(order) - 1, -1, -1)])
        assert lhs == rhs


# ------------------------------------------------------- cell collapsing

@pytest.mark.parametrize("n", [2, 3, 4])
def test_cell_collapse_all_insertion_tails(n):
    """At each of the 9, 52 and 252 insertion tails, the cell that
    cell_collapse_witness reads off the corner ranks is the one that
    bruhat_decompose finds for the product, rebuilt here:
    t W(w) x_top(r_top) ... x_0(r_0), the bad factor moved last, then
    x_-g(-1/r_g) for g the lowest root or its bad partner."""
    rng = random.Random(140 + n)
    mode2_seen = 0
    for w in _cells_below_top(n):
        order = ordered_negated_roots(w)
        for q in range(len(order)):
            tail = sorted(order[q:], key=lambda g: g.height)
            bad = next((l for l in range(1, len(tail)) if is_bad_pair(tail[0], tail[l])), None)
            t = torus([Q(rng.choice([1, 2, 3, 5]))] + [Q(1)] * (n - 1))
            rs = [Q(rng.choice([1, 2, 5]), rng.choice([1, 3])) for _ in tail]
            w_prime = cell_collapse_witness(t, w, tail, rs, bad_index=bad)
            assert bruhat_leq(w_prime, w) and w_prime != w
            word = [(tail[j], rs[j]) for j in reversed(range(len(tail))) if j != bad]
            k = 0
            if bad is not None:
                k = bad
                word.append((tail[k], rs[k]))
                mode2_seen += 1
            word.append((-tail[k], -1 / rs[k]))
            assert bruhat_decompose(t * weyl_rep(w) * root_product(n, word))[2] == w_prime
    assert mode2_seen >= 1


def test_cell_collapse_validation():
    n = 2
    w0 = highest_root_reflection(n)
    minus = sorted(w0.negated_positive_roots(), key=lambda g: g.height)
    t = torus([Q(1), Q(1)])
    with pytest.raises(MatrixError):
        cell_collapse_witness(t, w0, list(reversed(minus)), [Q(1)] * 3)
    with pytest.raises(MatrixError):
        cell_collapse_witness(t, w0, minus, [Q(0), Q(1), Q(1)])
    with pytest.raises(MatrixError):
        cell_collapse_witness(t, w0, [Root(2, (0, 1))], [Q(1)])
    tail = minus[1:]
    assert is_bad_pair(tail[0], tail[1])
    with pytest.raises(MatrixError):
        cell_collapse_witness(t, w0, tail, [Q(1), Q(1)])


# ------------------------------------------------------------ self-checks

def test_bruhat_torus_guard_raises(monkeypatch):
    monkeypatch.setattr(chevalley, "weyl_from_monomial_pattern", lambda n, positions: WeylElem.identity(n))
    with pytest.raises(FactorizationError, match="monomial part"):
        bruhat_decompose(top_cell_matrix(2))


def test_self_checks_survive_optimize_flag():
    """The guard in quadext, and the Bruhat torus guard and the collapse's
    drop check in chevalley, still raise under python -O."""
    script = textwrap.dedent(
        """
        from fractions import Fraction as Q
        from padicsp import chevalley, quadext, rootsys, subgroups
        from padicsp.padic import PadicError, PrimeCtx

        assert False, "python -O should strip this assert"
        ctx = PrimeCtx(3)
        w0 = rootsys.highest_root_reflection(2)

        chevalley.weyl_from_monomial_pattern = lambda n, positions: rootsys.WeylElem.identity(n)
        try:
            chevalley.bruhat_decompose(subgroups.top_cell_matrix(2))
        except chevalley.FactorizationError as exc:
            print(exc)

        chevalley.weyl_from_rank_pattern = lambda g: w0
        top = rootsys.ordered_negated_roots(w0)[-1:]
        try:
            chevalley.cell_collapse_witness(subgroups.torus([1, 1]), w0, top, [Q(1)])
        except chevalley.FactorizationError as exc:
            print(exc)

        real = quadext._chart_sign
        quadext._chart_sign = lambda a, p: -real(a, p)
        try:
            quadext.norm_one_decompose(quadext.QuadExt(ctx, Q(2)).elem(-4), 1)
        except PadicError as exc:
            print(exc)
        """
    )
    src = os.path.dirname(os.path.dirname(padicsp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    for message in ("monomial part", "cell did not drop", "principal-unit factor"):
        assert message in out.stdout
