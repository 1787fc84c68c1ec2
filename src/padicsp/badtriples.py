"""The bad-pair and bad-triple combinatorics of the cell analysis, in type C_n.

A bad pair (g1, g2) is the predicate rootsys.is_bad_pair; in closed form
g2 = 2 e_i and g1 = e_i + e_j with i < j, which bad_pair_witness reads
off the two column pairs (rootsys._root_columns).  A bad triple adds a
Weyl element w below the top reflection that negates both members of
the pair, and bad_pair_weyl_factorizations writes each such w as
w1p * sigma * w2p around the chain reflection word sigma of the pair;
reflection writes the reflection in any root as a Weyl element, off its
column pair.  root_decompositions enumerates the multisets of positive
roots with given simple coefficients.  No function here reads a root's
Euclidean vector.  The height order on negated roots, with its one
bad-pair adjustment, stays in rootsys (ordered_negated_roots), which the
cell moves of chevalley read.
"""
from __future__ import annotations

from .padic import _as_instance
from .rootsys import (
    Root,
    RootError,
    WeylElem,
    _line_image,
    _root_columns,
    _weyl,
    bad_pairs,
    highest_root_reflection,
    positive_roots,
    subword_products,
    weyl_below,
)


def bad_pair_witness(g1: Root, g2: Root):
    """(i, j) with g2 = 2 e_i and g1 = e_i + e_j, i < j <= n, or None.

    Read off the column pairs (rootsys._root_columns): 2 e_i is
    (i-1, 2n-i) and e_i + e_j is (i-1, 2n-j); a column a < n holds only
    positive roots, and b >= n with b < 2n-1-a only the sums e_i + e_j."""
    if g1.n != g2.n:
        raise RootError("mixed ranks")
    (a1, b1), (a2, b2) = _root_columns(g1), _root_columns(g2)
    top = 2 * g1.n - 1
    if a1 == a2 < g1.n <= b1 < b2 == top - a2:
        return a2 + 1, top + 1 - b1
    return None


def bad_triples(n: int):
    """(g1, g2, w) with (g1, g2) bad and w below the top reflection negating both."""
    return [(g1, g2, w) for g1, g2 in bad_pairs(n) for w in bad_triples_for_pair(g1, g2)]


def chain_word_sigma(n: int, i: int, j: int) -> tuple:
    """j-1, ..., n-1, n, n-1, ..., i: the middle factor for the pair (i, j)."""
    return tuple(list(range(j - 1, n)) + [n] + list(range(n - 1, i - 1, -1)))


def reflection(root: Root) -> WeylElem:
    """The reflection in root: on the 2n lines, the transposition of its
    column pair (a, b) (rootsys._root_columns) and of their mirrors, read
    back to images by rootsys._line_image."""
    _as_instance(root, Root, RootError, "root")
    n, top = root.n, 2 * root.n - 1
    a, b = _root_columns(root)
    swap = {a: b, b: a, top - a: top - b, top - b: top - a}
    return _weyl(n, tuple([_line_image(n, swap.get(k, k)) for k in range(n)]))


def bad_pair_weyl_factorizations(g1: Root, g2: Root):
    """For each w below the top reflection negating g1 and g2, a factorization.

    Returns a list of (w, w1p, w2p) with w = w1p * sigma * w2p where
    sigma is the chain reflection word for the pair, w1p runs below the
    increasing chain 1..j-2 and w2p below the decreasing chain i-2..1.
    The witness pair is the lexicographically first one found.
    """
    ij = bad_pair_witness(g1, g2)
    if ij is None:
        raise RootError("not a bad pair in closed form")
    i, j = ij
    n = g1.n
    sigma = WeylElem.from_word(n, chain_word_sigma(n, i, j))
    left_chain = list(range(1, j - 1))
    right_chain = list(range(i - 2, 0, -1))
    lefts = subword_products(n, tuple(left_chain))
    rights = subword_products(n, tuple(right_chain))
    out = []
    for w in bad_triples_for_pair(g1, g2):
        witness = None
        for w1p in lefts:
            target = w1p.inverse() * w
            for w2p in rights:
                if target == sigma * w2p:
                    witness = (w1p, w2p)
                    break
            if witness:
                break
        out.append((w, witness))
    return out


def bad_triples_for_pair(g1: Root, g2: Root):
    """The w below the top reflection sending g1 and g2 negative (rootsys._root_columns)."""
    if g1.n != g2.n:
        raise RootError("mixed ranks")
    (a1, b1), (a2, b2) = _root_columns(g1), _root_columns(g2)
    below = weyl_below(highest_root_reflection(g1.n))
    return [w for w in below if w._lines[a1] > w._lines[b1] and w._lines[a2] > w._lines[b2]]


def root_decompositions(n: int, coeffs):
    """All multisets of positive roots whose simple coefficients sum to
    coeffs, by DFS over the positive roots in (height, coeffs) order.

    A positive root has no negative coefficient, so a remainder with one
    has no decomposition and is dropped; each step lowers the height by
    at least 1, so the search ends."""
    pos = positive_roots(n)
    out = []

    def dfs(remaining, start, acc):
        if min(remaining) < 0:
            return
        if not any(remaining):
            if acc:
                out.append(tuple(acc))
            return
        for idx in range(start, len(pos)):
            g = pos[idx]
            dfs(tuple([r - c for r, c in zip(remaining, g.coeffs)]), idx, acc + [g])

    dfs(tuple(coeffs), 0, [])
    return out
