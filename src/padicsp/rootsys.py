"""Type C_n root combinatorics.

Roots are stored by their coefficients over the simple basis
a_1, ..., a_{n-1}, b where a_i = e_i - e_{i+1} and b = 2 e_n; the last
coefficient tells whether a positive root lives in the block-diagonal
Levi (0) or in the abelian unipotent radical (1).  Weyl elements are
signed permutations of the coordinate lines; lengths, negated roots,
descents, the Bruhat order and chevalley's Weyl representatives are read
off the permutation of the 2n lines of Sp_2n that each induces (_lines),
and root positions, reflections, bad-pair witnesses and the radical's
first row off each root's column pair (_root_columns).
The module also carries the part of the cell analysis that the cell
moves read: the "bad pair" predicate and the height order on negated
roots with its one adjustment.  The rest of the bad-pair combinatorics
(the closed-form witness, bad triples, their Weyl factorizations and
root decompositions) is in badtriples, with the reflection in a root.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

from .padic import PadicError, _as_instance, _as_int
from .value import _Value, _set


class RootError(PadicError):
    pass


def _is_root_vector(vec) -> bool:
    nz = [(i, c) for i, c in enumerate(vec) if c]
    if len(nz) == 1:
        return abs(nz[0][1]) == 2
    if len(nz) == 2:
        return abs(nz[0][1]) == 1 and abs(nz[1][1]) == 1
    return False


def _euclid(n: int, coeffs: tuple) -> tuple:
    """Euclidean vector of the root with these simple coefficients.

    Raises RootError when coeffs is not a root.
    """
    if len(coeffs) != n:
        raise RootError("coefficient vector has wrong length")
    vec = []
    for k in range(n):
        prev = coeffs[k - 1] if k >= 1 else 0
        if k < n - 1:
            vec.append(coeffs[k] - prev)
        else:
            vec.append(2 * coeffs[n - 1] - prev)
    vec = tuple(vec)
    if not _is_root_vector(vec):
        raise RootError(f"{coeffs} is not a root for n={n}")
    return vec


class Root(_Value):
    """A root of C_n by its coefficients over the simple roots; _vec holds
    its Euclidean vector."""

    __slots__ = ("n", "coeffs", "_vec")

    def __init__(self, n: int, coeffs: tuple):
        _as_int(n, RootError, "rank", 1)
        for c in _as_instance(coeffs, tuple, RootError, "coefficients"):
            _as_int(c, RootError, "root coefficient")
        _set(self, "n", n)
        _set(self, "coeffs", coeffs)
        _set(self, "_vec", _euclid(n, coeffs))

    @classmethod
    def from_euclid(cls, n: int, vec) -> "Root":
        """The root with Euclidean coordinates vec, from the root table."""
        vec = tuple([_as_int(c, RootError, "root coordinate") for c in vec])
        return _root_table(_as_int(n, RootError, "rank", 1))[vec]

    def euclid(self) -> tuple:
        return self._vec

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    def is_positive(self) -> bool:
        """Every root is positive or negative, its coefficients all of one
        sign, so the sign of its height decides."""
        return sum(self.coeffs) > 0

    def is_negative(self) -> bool:
        return sum(self.coeffs) < 0

    def __neg__(self) -> "Root":
        return _root_table(self.n)[tuple([-c for c in self.euclid()])]

    def pairing(self, other: "Root") -> int:
        """<self, other_coroot> = 2 (self, other) / (other, other)."""
        if self.n != other.n:
            raise RootError("mixed ranks")
        u, v = self._vec, other._vec
        num = 2 * sum(a * b for a, b in zip(u, v))
        den = sum(b * b for b in v)
        if num % den:
            raise RootError("pairing is not integral")
        return num // den

    def reflect(self, other: "Root") -> "Root":
        """Image of other under the reflection in self."""
        k = other.pairing(self)
        return _root_table(self.n)[tuple([b - k * a for a, b in zip(self._vec, other._vec)])]


class _RootTable(dict):
    """{Euclidean vector: Root}; a vector that is not a key raises RootError."""

    def __missing__(self, vec):
        raise RootError(f"{vec} is not a root vector")


@lru_cache(maxsize=None)
def _root_table(n: int) -> _RootTable:
    """The 2n^2 roots of rank n by their Euclidean vectors, +-2 e_i and
    +-e_i +- e_j for i < j.

    Each root is built once, through the validating constructor, from
    its coefficients: the prefix sums of the vector, then half its sum.
    Every root the library derives from a root (a negative, a
    reflection, a Weyl image, a sum in subgroups.commutator_coefficients,
    the positive roots) is read from here, so there is one
    Root per root and none is validated twice; for a vector from a
    caller, being a key is the validation.  Outside this module only the
    sums of roots and the checks' oracles look a root up by its vector
    (Root.from_euclid, root_from_vector); every other fact about a root
    is read off its column pair (_root_columns) or its coefficients.
    The table is kept for the life of the process, as the other caches
    of this module are: 2n^2 entries, 32 at rank 4.
    """
    vecs = []
    for i in range(n):
        vecs += [tuple([s if k == i else 0 for k in range(n)]) for s in (2, -2)]
        for j in range(i + 1, n):
            for si, sj in itertools.product((1, -1), repeat=2):
                vecs.append(tuple([si if k == i else sj if k == j else 0 for k in range(n)]))
    return _RootTable({vec: Root(n, (*itertools.accumulate(vec[:-1]), sum(vec) // 2)) for vec in vecs})


def positive_roots(n: int):
    """All positive roots, sorted by (height, coefficients)."""
    return list(_positive_roots(_as_int(n, RootError, "rank", 1)))


@lru_cache(maxsize=None)
def _positive_roots(n: int) -> tuple:
    """The positive roots of the root table, by (height, coefficients)."""
    return tuple(sorted([r for r in _root_table(n).values() if r.is_positive()], key=lambda r: (r.height, r.coeffs)))


def root_from_vector(n: int, vec):
    """The Root for vec, or None if vec is not a root."""
    return Root.from_euclid(n, vec) if _is_root_vector(tuple(vec)) else None


class WeylElem(_Value):
    """Signed permutation: imgs[k] = +-(j+1) sends e_{k+1} to +-e_{j+1}.
    Its line map _lines sends column k < n of Sp_2n (weight e_{k+1}) to
    line j, or to the mirror line 2n-1-j if imgs[k] < 0, and column
    2n-1-k (weight -e_{k+1}) to the mirror of that line."""

    __slots__ = ("n", "imgs", "_lines")

    def __init__(self, n: int, imgs: tuple):
        _as_int(n, RootError, "rank", 1)
        _as_instance(imgs, tuple, RootError, "imgs")
        if sorted([abs(_as_int(v, RootError, "image")) for v in imgs]) != list(range(1, n + 1)):
            raise RootError(f"{imgs} is not a signed permutation")
        _fill(self, n, imgs)

    @classmethod
    def identity(cls, n: int) -> "WeylElem":
        return _weyl(_as_int(n, RootError, "rank", 1), tuple(range(1, n + 1)))

    @classmethod
    def simple(cls, n: int, k: int) -> "WeylElem":
        """Generators: k in 1..n-1 swaps lines k, k+1; k = n flips line n."""
        _as_int(n, RootError, "rank", 1)
        if not 1 <= _as_int(k, RootError, "generator index") <= n:
            raise RootError(f"generator index {k} out of range")
        imgs = list(range(1, n + 1))
        if k < n:
            imgs[k - 1], imgs[k] = imgs[k], imgs[k - 1]
        else:
            imgs[n - 1] = -n
        return _weyl(n, tuple(imgs))

    @classmethod
    def from_word(cls, n: int, word) -> "WeylElem":
        w = cls.identity(n)
        for k in word:
            w = w * cls.simple(n, k)
        return w

    def apply_euclid(self, vec) -> tuple:
        out = [0] * self.n
        for k, c in enumerate(vec):
            if c:
                t = self.imgs[k]
                out[abs(t) - 1] += c if t > 0 else -c
        return tuple(out)

    def apply(self, root: Root) -> Root:
        return _root_table(self.n)[self.apply_euclid(root.euclid())]

    def __mul__(self, other: "WeylElem") -> "WeylElem":
        if self.n != other.n:
            raise RootError("mixed ranks")
        imgs = []
        for k in range(self.n):
            t = other.imgs[k]
            s = self.imgs[abs(t) - 1]
            imgs.append(s if t > 0 else -s)
        return _weyl(self.n, tuple(imgs))

    def inverse(self) -> "WeylElem":
        imgs = [0] * self.n
        for k in range(self.n):
            t = self.imgs[k]
            imgs[abs(t) - 1] = (k + 1) if t > 0 else -(k + 1)
        return _weyl(self.n, tuple(imgs))

    def is_identity(self) -> bool:
        return self.imgs == tuple(range(1, self.n + 1))

    def negated_positive_roots(self):
        """Sigma_w^-: positive roots sent negative, by (height, coeffs) (_root_columns)."""
        lines = self._lines
        return [g for g, a, b in _positive_columns(self.n) if lines[a] > lines[b]]

    def kept_positive_roots(self):
        lines = self._lines
        return [g for g, a, b in _positive_columns(self.n) if lines[a] < lines[b]]

    def length(self) -> int:
        return len(self.negated_positive_roots())

    def right_descents(self):
        """The k with w(a_k) negative: a_k has the column pair (k-1, k)
        (_root_columns), for k = n the test imgs[n-1] < 0."""
        return [k for k in range(1, self.n + 1) if self._lines[k - 1] > self._lines[k]]

    def reduced_word(self) -> tuple:
        """Strip the first right descent until none is left."""
        w, rev = self, []
        while ds := w.right_descents():
            rev.append(ds[0])
            w = w * WeylElem.simple(w.n, ds[0])
        return tuple(reversed(rev))


def _weyl(n: int, imgs: tuple) -> WeylElem:
    """The WeylElem of a signed permutation imgs that the library derived
    itself (a product, an inverse, a generator), without the constructor's checks."""
    return _fill(object.__new__(WeylElem), n, imgs)


def _fill(w: WeylElem, n: int, imgs: tuple) -> WeylElem:
    """w with its slots set: n, imgs and the line map they fix (_line_image reads it back)."""
    top = 2 * n - 1
    lines = [t - 1 if t > 0 else top + t + 1 for t in imgs]
    _set(w, "n", n)
    _set(w, "imgs", imgs)
    _set(w, "_lines", tuple(lines + [top - line for line in reversed(lines)]))
    return w


def _line_image(n: int, line: int) -> int:
    """The image of a column k < n that goes to line: +(j+1) on line j < n,
    -(j+1) on its mirror 2n-1-j.  _fill's map read backwards."""
    return line + 1 if line < n else line - 2 * n


def _root_columns(g: Root) -> tuple:
    """(a, b), g the weight of column a less that of column b, read off g's
    first and last nonzero coordinates; for g > 0, a < b: (i, j), (i, 2n-1-j)
    and (i, 2n-1-i) for e_{i+1} - e_{j+1}, e_{i+1} + e_{j+1} and 2 e_{i+1}.

    w sends g negative exactly when w._lines[a] > w._lines[b]: w(g) is the
    weight of line _lines[a] less that of line _lines[b], and for lines
    l < l' that difference is a positive root, since the weights fall
    down the lines, e_1 > ... > e_n > -e_n > ... > -e_1 (Bjorner and
    Brenti, Combinatorics of Coxeter Groups, Prop 8.1.1, 8.1.2, Cor 8.1.9)."""
    vec, top = g.euclid(), 2 * g.n - 1
    nz = [k for k, c in enumerate(vec) if c]
    i, j = nz[0], nz[-1]
    return i if vec[i] > 0 else top - i, j if vec[j] < 0 else top - j


@lru_cache(maxsize=None)
def _positive_columns(n: int) -> tuple:
    """(g, *_root_columns(g)) for each positive root g, by (height, coeffs)."""
    return tuple([(g, *_root_columns(g)) for g in _positive_roots(n)])


def highest_root_reflection(n: int) -> WeylElem:
    """Reflection in 2 e_1; flips the first coordinate line only."""
    return _weyl(_as_int(n, RootError, "rank", 1), (-1, *range(2, n + 1)))


def coordinate_rotation(n: int) -> WeylElem:
    """e_k to e_{k+1} for k < n, and e_n to e_1."""
    return _weyl(_as_int(n, RootError, "rank", 1), (*range(2, n + 1), 1))


def bruhat_leq(w1: WeylElem, w2: WeylElem) -> bool:
    """w1 <= w2 exactly when no lower-left corner count of w1 exceeds w2's:
    the number of columns <= j whose line (WeylElem._lines) is >= i.  The
    Bruhat order of C_n is induced from the symmetric group on the 2n
    lines, where these counts decide it (Bjorner and Brenti, Combinatorics
    of Coxeter Groups, 2005, Thm 2.1.5, Thm 8.1.8 and Cor 8.1.9)."""
    if w1.n != w2.n:
        raise RootError("mixed ranks")
    gap = [0] * (2 * w1.n)  # by row i, w2's count less w1's, over the columns so far
    for a, b in zip(w1._lines, w2._lines):
        for i in range(min(a, b) + 1, max(a, b) + 1):
            gap[i] += 1 if b > a else -1
        if min(gap) < 0:
            return False
    return True


def subword_products(n: int, word):
    """All distinct products of subwords of word (the lower Bruhat cone)."""
    seen = {WeylElem.from_word(n, [c for i, c in enumerate(word) if mask >> i & 1]) for mask in range(1 << len(word))}
    return sorted(seen, key=lambda w: (w.length(), w.imgs))


def weyl_below(w: WeylElem):
    return list(_weyl_below(w))


@lru_cache(maxsize=None)
def _weyl_below(w: WeylElem) -> tuple:
    """Unbounded, since the library asks only for the cone of the top
    reflection, one entry per rank (68 elements in 9 KiB at n = 4); a miss
    multiplies out every subword, and a verify-matrix run makes 38 calls, 3 misses."""
    return tuple(subword_products(w.n, w.reduced_word()))


def full_weyl_group(n: int):
    n = _as_int(n, RootError, "rank", 1)
    signed = itertools.product(itertools.permutations(range(1, n + 1)), itertools.product((1, -1), repeat=n))
    return [_weyl(n, tuple([s * t for s, t in zip(signs, perm)])) for perm, signs in signed]


# ------------------------------------------------------------- bad pairs

def is_bad_pair(g1: Root, g2: Root) -> bool:
    """Both positive, distinct, ht(g2)/2 < ht(g1) <= ht(g2), <g2, g1vee> = 2."""
    if g1.n != g2.n:
        raise RootError("mixed ranks")
    if g1 == g2 or not (g1.is_positive() and g2.is_positive()):
        return False
    h1, h2 = g1.height, g2.height
    if not (2 * h1 > h2 and h1 <= h2):
        return False
    return g2.pairing(g1) == 2


def bad_pairs(n: int):
    """All bad pairs, via the predicate over positive root pairs."""
    return list(_bad_pairs(_as_int(n, RootError, "rank", 1)))


@lru_cache(maxsize=None)
def _bad_pairs(n: int) -> tuple:
    pos = _positive_roots(n)
    return tuple((g1, g2) for g2 in pos for g1 in pos if is_bad_pair(g1, g2))


def ordered_negated_roots(w: WeylElem):
    """Sigma_w^- in height order, each bad-pair partner pulled adjacent.

    Base order is (height, coeffs).  For every bad pair (g1, g2) inside
    the set, taken by increasing height of g1, the taller member g2 is
    reinserted immediately before g1.  When one g2 serves several g1
    only the last relocation can hold.
    """
    order = w.negated_positive_roots()
    inside = set(order)
    pairs = [(g1, g2) for (g1, g2) in _bad_pairs(w.n) if g1 in inside and g2 in inside]
    pairs.sort(key=lambda pair: (pair[0].height, pair[0].coeffs))
    for g1, g2 in pairs:
        order.remove(g2)
        order.insert(order.index(g1), g2)
    return order


