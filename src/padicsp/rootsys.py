"""Type C_n root combinatorics.

Roots are stored by their coefficients over the simple basis
a_1, ..., a_{n-1}, b where a_i = e_i - e_{i+1} and b = 2 e_n; the last
coefficient tells whether a positive root lives in the block-diagonal
Levi (0) or in the abelian unipotent radical (1).  Weyl elements are
signed permutations of the coordinate lines.  The module also carries
the part of the cell analysis that the cell moves read: the "bad pair"
predicate and the height order on negated roots with its one
adjustment.  The rest of the bad-pair combinatorics (the closed-form
witness, bad triples, their Weyl factorizations and root
decompositions) is in badtriples.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

from .padic import _as_int
from .value import _Value, _set


class RootError(ValueError):
    pass


def _is_root_vector(vec) -> bool:
    nz = [(i, c) for i, c in enumerate(vec) if c]
    if len(nz) == 1:
        return abs(nz[0][1]) == 2
    if len(nz) == 2:
        return abs(nz[0][1]) == 1 and abs(nz[1][1]) == 1
    return False


@lru_cache(maxsize=None)
def _euclid(n: int, coeffs: tuple) -> tuple:
    """Euclidean vector of the root with these simple coefficients.

    Raises RootError when coeffs is not a root; an error is never
    cached, so the cache holds the 2n^2 roots of each rank only.
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
    """A root of C_n by its coefficients over the simple roots."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: tuple):
        _euclid(n, coeffs)
        _set(self, "n", n)
        _set(self, "coeffs", coeffs)

    @classmethod
    def from_euclid(cls, n: int, vec) -> "Root":
        vec = tuple(vec)
        if len(vec) != n or not _is_root_vector(vec):
            raise RootError(f"{vec} is not a root vector")
        coeffs = []
        prev = 0
        for k in range(n - 1):
            c = vec[k] + prev
            coeffs.append(c)
            prev = c
        last = vec[n - 1] + prev
        if last % 2:
            raise RootError(f"{vec} is not in the root lattice")
        coeffs.append(last // 2)
        return cls(n, tuple(coeffs))

    def euclid(self) -> tuple:
        return _euclid(self.n, self.coeffs)

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    def is_positive(self) -> bool:
        return any(self.coeffs) and all(c >= 0 for c in self.coeffs)

    def is_negative(self) -> bool:
        return any(self.coeffs) and all(c <= 0 for c in self.coeffs)

    def __neg__(self) -> "Root":
        return Root(self.n, tuple(-c for c in self.coeffs))

    def is_long(self) -> bool:
        return any(abs(c) == 2 for c in self.euclid())

    def in_levi(self) -> bool:
        """Root space inside the block-diagonal GL_n."""
        return self.coeffs[-1] == 0

    def in_radical(self) -> bool:
        """Positive root whose space lies in the abelian radical."""
        return self.coeffs[-1] == 1

    def pairing(self, other: "Root") -> int:
        """<self, other_coroot> = 2 (self, other) / (other, other)."""
        u, v = self.euclid(), other.euclid()
        num = 2 * sum(a * b for a, b in zip(u, v))
        den = sum(b * b for b in v)
        if num % den:
            raise RootError("pairing is not integral")
        return num // den

    def reflect(self, other: "Root") -> "Root":
        """Image of other under the reflection in self."""
        k = other.pairing(self)
        vec = tuple(b - k * a for a, b in zip(self.euclid(), other.euclid()))
        return Root.from_euclid(self.n, vec)


def simple_roots(n: int):
    """a_1, ..., a_{n-1}, then the long simple root."""
    if n < 1:
        raise RootError("rank must be positive")
    out = []
    for i in range(1, n):
        out.append(Root(n, tuple(1 if k == i - 1 else 0 for k in range(n))))
    out.append(Root(n, tuple(1 if k == n - 1 else 0 for k in range(n))))
    return out


def positive_roots(n: int):
    """All positive roots, sorted by (height, coefficients)."""
    return list(_positive_roots(n))


@lru_cache(maxsize=None)
def _positive_roots(n: int) -> tuple:
    out = []
    for i in range(n):
        vec = [0] * n
        vec[i] = 2
        out.append(Root.from_euclid(n, vec))
        for j in range(i + 1, n):
            for sign in (1, -1):
                vec = [0] * n
                vec[i], vec[j] = 1, sign
                out.append(Root.from_euclid(n, vec))
    out.sort(key=lambda r: (r.height, r.coeffs))
    return tuple(out)


def root_from_vector(n: int, vec):
    """The Root for vec, or None if vec is not a root."""
    return Root.from_euclid(n, vec) if _is_root_vector(tuple(vec)) else None


class WeylElem(_Value):
    """Signed permutation: imgs[k] = +-(j+1) sends e_{k+1} to +-e_{j+1}."""

    __slots__ = ("n", "imgs")

    def __init__(self, n: int, imgs: tuple):
        if sorted(abs(v) for v in imgs) != list(range(1, n + 1)):
            raise RootError(f"{imgs} is not a signed permutation")
        _set(self, "n", n)
        _set(self, "imgs", imgs)

    @classmethod
    def identity(cls, n: int) -> "WeylElem":
        return cls(n, tuple(range(1, n + 1)))

    @classmethod
    def simple(cls, n: int, k: int) -> "WeylElem":
        """Generators: k in 1..n-1 swaps lines k, k+1; k = n flips line n."""
        if not 1 <= _as_int(k, RootError, "generator index") <= n:
            raise RootError(f"generator index {k} out of range")
        imgs = list(range(1, n + 1))
        if k < n:
            imgs[k - 1], imgs[k] = imgs[k], imgs[k - 1]
        else:
            imgs[n - 1] = -n
        return cls(n, tuple(imgs))

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
        return Root.from_euclid(self.n, self.apply_euclid(root.euclid()))

    def __mul__(self, other: "WeylElem") -> "WeylElem":
        if self.n != other.n:
            raise RootError("mixed ranks")
        imgs = []
        for k in range(self.n):
            t = other.imgs[k]
            s = self.imgs[abs(t) - 1]
            imgs.append(s if t > 0 else -s)
        return WeylElem(self.n, tuple(imgs))

    def inverse(self) -> "WeylElem":
        imgs = [0] * self.n
        for k in range(self.n):
            t = self.imgs[k]
            imgs[abs(t) - 1] = (k + 1) if t > 0 else -(k + 1)
        return WeylElem(self.n, tuple(imgs))

    def is_identity(self) -> bool:
        return self.imgs == tuple(range(1, self.n + 1))

    def in_levi(self) -> bool:
        """No sign flips: a word in the short generators only."""
        return all(v > 0 for v in self.imgs)

    def negated_positive_roots(self):
        """Sigma_w^-: positive roots sent negative, by (height, coeffs)."""
        return list(_root_split(self)[0])

    def kept_positive_roots(self):
        return list(_root_split(self)[1])

    def length(self) -> int:
        return len(_root_split(self)[0])

    def right_descents(self):
        out = []
        for k, s in enumerate(simple_roots(self.n), start=1):
            if self.apply(s).is_negative():
                out.append(k)
        return out

    def reduced_word(self) -> tuple:
        return _reduced_word(self)


@lru_cache(maxsize=None)
def _root_split(w: WeylElem) -> tuple:
    """(positive roots w sends negative, positive roots w keeps positive)."""
    negated, kept = [], []
    for g in _positive_roots(w.n):
        (negated if w.apply(g).is_negative() else kept).append(g)
    return tuple(negated), tuple(kept)


@lru_cache(maxsize=None)
def _reduced_word(w: WeylElem) -> tuple:
    """Strip the first right descent until none is left."""
    rev = []
    while True:
        ds = w.right_descents()
        if not ds:
            break
        k = ds[0]
        rev.append(k)
        w = w * WeylElem.simple(w.n, k)
    return tuple(reversed(rev))


def reflection(root: Root) -> WeylElem:
    n = root.n
    g = root.euclid()
    gg = sum(c * c for c in g)  # 2 for short roots, 4 for long
    imgs = []
    for k in range(n):
        if (2 * g[k]) % gg:
            raise RootError(f"reflection in {root.coeffs} is not integral")
        c = (2 * g[k]) // gg
        col = tuple((1 if t == k else 0) - c * g[t] for t in range(n))
        nz = [(i, v) for i, v in enumerate(col) if v]
        if len(nz) != 1 or abs(nz[0][1]) != 1:
            raise RootError(f"reflection in {root.coeffs} sends line {k + 1} to {col}")
        i, v = nz[0]
        imgs.append((i + 1) * (1 if v > 0 else -1))
    return WeylElem(n, tuple(imgs))


def highest_root_reflection(n: int) -> WeylElem:
    """Reflection in 2 e_1; flips the first coordinate line only."""
    return WeylElem(n, tuple([-1] + list(range(2, n + 1))))


def coordinate_rotation(n: int) -> WeylElem:
    """e_k to e_{k+1} for k < n, and e_n to e_1."""
    return WeylElem(n, tuple(list(range(2, n + 1)) + [1]))


def bruhat_leq(w1: WeylElem, w2: WeylElem) -> bool:
    if w1.n != w2.n:
        raise RootError("mixed ranks")
    return _bruhat_leq(w1, w2)


@lru_cache(maxsize=None)
def _bruhat_leq(w1: WeylElem, w2: WeylElem) -> bool:
    if w1.is_identity():
        res = True
    elif w1.length() > w2.length():
        res = False
    elif w1 == w2:
        res = True
    else:
        # strip a left descent s of w2: w2^{-1}(alpha_s) < 0
        n = w1.n
        w2inv = w2.inverse()
        s = None
        for k, a in enumerate(simple_roots(n), start=1):
            if w2inv.apply(a).is_negative():
                s = WeylElem.simple(n, k)
                break
        if s is None:
            raise RootError(f"{w2.imgs} has no left descent")
        sw2 = s * w2
        sw1 = s * w1
        if sw1.length() < w1.length():
            res = _bruhat_leq(sw1, sw2)
        else:
            res = _bruhat_leq(w1, sw2)
    return res


def subword_products(n: int, word):
    """All distinct products of subwords of word (the lower Bruhat cone)."""
    seen = {}
    for mask in range(1 << len(word)):
        sub = [word[i] for i in range(len(word)) if mask >> i & 1]
        w = WeylElem.from_word(n, sub)
        seen.setdefault(w.imgs, w)
    return sorted(seen.values(), key=lambda w: (w.length(), w.imgs))


def weyl_below(w: WeylElem):
    return list(_weyl_below(w))


@lru_cache(maxsize=None)
def _weyl_below(w: WeylElem) -> tuple:
    return tuple(subword_products(w.n, w.reduced_word()))


def full_weyl_group(n: int):
    out = []
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            out.append(WeylElem(n, tuple(s * t for s, t in zip(signs, perm))))
    return out


# ------------------------------------------------------------- bad pairs

def is_bad_pair(g1: Root, g2: Root) -> bool:
    """Both positive, distinct, ht(g2)/2 < ht(g1) <= ht(g2), <g2, g1vee> = 2."""
    if g1 == g2 or not (g1.is_positive() and g2.is_positive()):
        return False
    h1, h2 = g1.height, g2.height
    if not (2 * h1 > h2 and h1 <= h2):
        return False
    return g2.pairing(g1) == 2


def bad_pairs(n: int):
    """All bad pairs, via the predicate over positive root pairs."""
    return list(_bad_pairs(n))


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
    order = list(w.negated_positive_roots())
    inside = set(order)
    pairs = [(g1, g2) for (g1, g2) in bad_pairs(w.n) if g1 in inside and g2 in inside]
    pairs.sort(key=lambda pair: (pair[0].height, pair[0].coeffs))
    for g1, g2 in pairs:
        order.remove(g2)
        order.insert(order.index(g1), g2)
    return order


