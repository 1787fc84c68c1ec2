"""The bad-pair and bad-triple combinatorics of the cell analysis, in type C_n.

A bad pair (g1, g2) is the predicate rootsys.is_bad_pair; in closed form
g2 = 2 e_i and g1 = e_i + e_j with i < j (bad_pair_witness).  A bad
triple adds a Weyl element w below the top reflection that negates both
members of the pair, and bad_pair_weyl_factorizations writes each such
w as w1p * sigma * w2p around the chain reflection word sigma of the
pair.  root_decompositions enumerates the multisets of positive roots
with a given sum.  The height order on negated roots, with its one
bad-pair adjustment, stays in rootsys (ordered_negated_roots), which the
cell moves of chevalley read.
"""
from __future__ import annotations

from .rootsys import (
    Root,
    RootError,
    WeylElem,
    bad_pairs,
    highest_root_reflection,
    positive_roots,
    subword_products,
    weyl_below,
)


def bad_pair_witness(g1: Root, g2: Root):
    """(i, j) with g2 = 2 e_i and g1 = e_i + e_j, i < j <= n, or None."""
    n = g1.n
    u, v = g1.euclid(), g2.euclid()
    two = [k for k, c in enumerate(v) if c == 2]
    if len(two) != 1 or any(c and abs(c) != 2 for c in v):
        return None
    i = two[0] + 1
    ones = [k for k, c in enumerate(u) if c == 1]
    if len(ones) != 2 or any(c not in (0, 1) for c in u):
        return None
    if ones[0] + 1 != i:
        return None
    j = ones[1] + 1
    return (i, j) if i < j <= n else None


def bad_triples(n: int):
    """(g1, g2, w) with (g1, g2) bad and w below the top reflection negating both."""
    return [(g1, g2, w) for g1, g2 in bad_pairs(n) for w in bad_triples_for_pair(g1, g2)]


def chain_word_sigma(n: int, i: int, j: int) -> tuple:
    """j-1, ..., n-1, n, n-1, ..., i: the middle factor for the pair (i, j)."""
    return tuple(list(range(j - 1, n)) + [n] + list(range(n - 1, i - 1, -1)))


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
    n = g1.n
    w0 = highest_root_reflection(n)
    return [
        w
        for w in weyl_below(w0)
        if w.apply(g1).is_negative() and w.apply(g2).is_negative()
    ]


def _double_height(vec) -> int:
    """Twice the simple-coefficient sum of an integer coweight vector."""
    n = len(vec)
    total = 0
    run = 0
    for k in range(n - 1):
        run += vec[k]
        total += 2 * run
    return total + run + vec[-1]  # last coefficient is (run + v_n)/2


def root_decompositions(n: int, vec):
    """All multisets of positive roots summing to vec (euclid), by DFS.

    Heights are additive and every positive root has height >= 1, so the
    remaining double height strictly decreases; no extra bound needed.
    """
    pos = positive_roots(n)
    out = []

    def dfs(remaining, start, acc):
        if all(c == 0 for c in remaining):
            if acc:
                out.append(tuple(acc))
            return
        rh2 = _double_height(remaining)
        if rh2 < 2:
            return
        for idx in range(start, len(pos)):
            g = pos[idx]
            if 2 * g.height > rh2:
                continue
            nxt = tuple(r - c for r, c in zip(remaining, g.euclid()))
            dfs(nxt, idx, acc + [g])

    dfs(tuple(vec), 0, [])
    return out
