"""The root-system checks of the catalog: the C_n roots, bad pairs and
the Weyl group, by exhaustion over every rank of the campaign.

They read no prime and use none of the samplers of `common`; `checks`
lists them in its catalog.
"""

import itertools

from ..badtriples import (
    bad_pair_weyl_factorizations,
    bad_pair_witness,
    bad_triples,
    bad_triples_for_pair,
    chain_word_sigma,
    reflection,
    root_decompositions,
)
from ..rootsys import (
    Root,
    WeylElem,
    bad_pairs,
    bruhat_leq,
    full_weyl_group,
    highest_root_reflection,
    is_bad_pair,
    ordered_negated_roots,
    positive_roots,
    weyl_below,
)
from .report import CheckFailure


BAD_PAIR_COUNTS = {2: 1, 3: 3, 4: 6}


def _radical_root(n, i, j):
    """e_i + e_j for i < j, or 2 e_i when i == j (1-based)."""
    vec = [0] * n
    vec[i - 1] += 1
    vec[j - 1] += 1
    return Root.from_euclid(n, vec)


def check_bad_pairs(cfg, rng):
    """The census, and the predicate and witness on every pair of positive
    roots against the closed form: the bad pairs are (e_i + e_j, 2 e_i)
    for i < j, each with witness (i, j)."""
    cases = 0
    counts = {}
    for n in cfg.n:
        pairs = bad_pairs(n)
        counts[f"n={n}"] = len(pairs)
        want = BAD_PAIR_COUNTS.get(n, n * (n - 1) // 2)
        if len(pairs) != want:
            raise CheckFailure({"n": n, "count": len(pairs), "expected": want})
        family = {
            (_radical_root(n, i, j), _radical_root(n, i, i)): (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        }
        if set(pairs) != set(family):
            raise CheckFailure({"n": n, "reason": "census vs closed form"})
        roots = positive_roots(n)
        for g1 in roots:
            for g2 in roots:
                if is_bad_pair(g1, g2) != ((g1, g2) in family):
                    raise CheckFailure({"n": n, "g1": g1, "g2": g2, "reason": "predicate vs closed form"})
                if bad_pair_witness(g1, g2) != family.get((g1, g2)):
                    raise CheckFailure({"n": n, "g1": g1, "g2": g2, "reason": "witness vs closed form"})
                cases += 1
    return cases, {"n": list(cfg.n), "counts": counts}


def check_bad_pair_factorizations(cfg, rng):
    """The frozen rank-3 completion sets; at every rank, each completion w
    of a bad pair (i, j) factors as w1' sigma w2', sigma its chain word,
    w1' below the chain 1..j-2 and w2' below i-2..1."""
    n = 3
    w0 = highest_root_reflection(n)
    expected = {
        (1, 2): {w0},
        (1, 3): {w0, WeylElem.from_word(n, [2, 3, 2, 1])},
        (2, 3): {WeylElem.from_word(n, [1, 2, 3, 2]), WeylElem.from_word(n, [2, 3, 2])},
    }
    cases = 0
    for g1, g2 in bad_pairs(n):
        i, j = bad_pair_witness(g1, g2)
        got = set(bad_triples_for_pair(g1, g2))
        if got != expected[(i, j)]:
            raise CheckFailure({"pair": [i, j], "got": sorted(w.imgs for w in got)})
        cases += 1
    for n in cfg.n:
        for g1, g2 in bad_pairs(n):
            i, j = bad_pair_witness(g1, g2)
            sigma = WeylElem.from_word(n, chain_word_sigma(n, i, j))
            left = WeylElem.from_word(n, range(1, j - 1))
            right = WeylElem.from_word(n, range(i - 2, 0, -1))
            for w, witness in bad_pair_weyl_factorizations(g1, g2):
                if witness is None:
                    raise CheckFailure({"n": n, "pair": [i, j], "w": w, "reason": "missing witness"})
                w1p, w2p = witness
                if w1p * sigma * w2p != w:
                    raise CheckFailure({"n": n, "pair": [i, j], "w": w, "reason": "witness product"})
                if not (bruhat_leq(w1p, left) and bruhat_leq(w2p, right)):
                    raise CheckFailure({"n": n, "pair": [i, j], "w": w, "reason": "factor too large"})
                cases += 1
    return cases, {"n": list(cfg.n)}


def check_bad_triple_shapes(cfg, rng):
    """Every bad triple (g1, g2, w) is a completion negating both roots,
    and every split of g2 - xi (ht g1 <= ht xi <= ht g2) into positive
    roots has a part that w sends negative.  For each bad pair (i, j):
    a root between the heights that g2's reflection sends negative lies
    in radical row i and, unless it is g1, survives the chain factor
    sigma; a root at least as tall as g1 that the reflection keeps
    positive stays positive under sigma."""
    cases = 0
    for n in cfg.n:
        roots = positive_roots(n)
        for g1, g2, w in bad_triples(n):
            neg = set(w.negated_positive_roots())
            if g1 not in neg or g2 not in neg:
                raise CheckFailure({"n": n, "g1": g1, "g2": g2, "w": w, "reason": "roots not negated"})
            cases += 1
            for xi in roots:
                if not g1.height <= xi.height <= g2.height:
                    continue
                diff = tuple(a - b for a, b in zip(g2.euclid(), xi.euclid()))
                for split in root_decompositions(n, diff):
                    if not any(w.apply(d).is_negative() for d in split):
                        raise CheckFailure({"n": n, "g2": g2, "xi": xi, "w": w, "split": split, "reason": "unobstructed split"})
                    cases += 1
        for g1, g2 in bad_pairs(n):
            if not bad_triples_for_pair(g1, g2):
                raise CheckFailure({"n": n, "g1": g1, "g2": g2, "reason": "no completion"})
            cases += 1
            i, j = bad_pair_witness(g1, g2)
            sigma = WeylElem.from_word(n, chain_word_sigma(n, i, j))
            row = {_radical_root(n, i, k) for k in range(i + 1, j + 1)}
            for g in roots:
                image = g2.reflect(g)
                if g1.height <= g.height < g2.height and image.is_negative():
                    if g not in row:
                        raise CheckFailure({"n": n, "pair": [i, j], "root": g, "reason": "off the radical row"})
                    if sigma.apply(g).is_negative() and g != g1:
                        raise CheckFailure({"n": n, "pair": [i, j], "root": g, "reason": "chain factor kills an extra root"})
                    cases += 1
                if g.height >= g1.height and image.is_positive():
                    if sigma.apply(g).is_negative():
                        raise CheckFailure({"n": n, "pair": [i, j], "root": g, "reason": "chain factor sign law"})
                    cases += 1
    return cases, {"n": list(cfg.n)}


WEYL_BELOW_COUNTS = {2: 6, 3: 20, 4: 68}


def check_bruhat_order(cfg, rng):
    cases = 0
    for n in cfg.n:
        w0 = highest_root_reflection(n)
        below = weyl_below(w0)
        if len(below) != WEYL_BELOW_COUNTS[n]:
            raise CheckFailure({"n": n, "count": len(below), "expected": WEYL_BELOW_COUNTS[n]})
        cases += len(below)
        if n == 2:
            group = full_weyl_group(2)
            for w1 in group:
                for w2 in group:
                    le = bruhat_leq(w1, w2)
                    if le and bruhat_leq(w2, w1) and w1 != w2:
                        raise CheckFailure({"n": n, "w1": w1, "w2": w2, "reason": "antisymmetry"})
                    if le and w1 != w2 and w1.length() >= w2.length():
                        raise CheckFailure({"n": n, "w1": w1, "w2": w2, "reason": "length monotonicity"})
                    cases += 1
    return cases, {"n": list(cfg.n)}


def check_sigma_minus_order(cfg, rng):
    frozen = [Root(2, (1, 0)), Root(2, (2, 1)), Root(2, (1, 1))]
    if ordered_negated_roots(highest_root_reflection(2)) != frozen:
        raise CheckFailure({"n": 2, "reason": "frozen insertion order"})
    cases = 1
    for n in cfg.n:
        for w in weyl_below(highest_root_reflection(n)):
            order = ordered_negated_roots(w)
            if sorted(order, key=lambda g: (g.height, g.coeffs)) != w.negated_positive_roots():
                raise CheckFailure({"n": n, "w": w, "reason": "order is not a permutation"})
            inside = set(order)
            partners = {}
            for g1, g2 in bad_pairs(n):
                if g1 in inside and g2 in inside:
                    partners.setdefault(g2, []).append(g1)
            for g2, g1s in partners.items():
                if len(g1s) == 1:
                    k = order.index(g1s[0])
                    if k == 0 or order[k - 1] != g2:
                        raise CheckFailure({"n": n, "w": w, "reason": "tall partner not adjacent"})
            tall = set(partners)
            heights = [g.height for g in order if g not in tall]
            if heights != sorted(heights):
                raise CheckFailure({"n": n, "w": w, "reason": "trimmed order not monotone"})
            cases += 1
        for g1, g2 in bad_pairs(n):
            i, j = bad_pair_witness(g1, g2)
            sigma = WeylElem.from_word(n, chain_word_sigma(n, i, j))
            if sigma.apply(g1).is_positive() or sigma.apply(g2).is_positive():
                raise CheckFailure({"n": n, "pair": [i, j], "reason": "chain word misses the pair"})
            cases += 1
    return cases, {"n": list(cfg.n)}


def check_reflection_positivity(cfg, rng):
    """Each reflection negates its root, permutes the roots and has odd
    length; a sign-flip-free (Levi) element keeps a positive root with
    long-generator coefficient >= 1 positive with that coefficient; and
    of two distinct positive roots that are not a bad pair, the taller
    reflected in the shorter stays positive."""
    cases = 0
    for n in cfg.n:
        roots = positive_roots(n)
        all_roots = set(roots) | {-g for g in roots}
        for g in roots:
            s = reflection(g)
            if s.apply(g) != -g:
                raise CheckFailure({"n": n, "root": g, "reason": "reflection fixes its root"})
            if {s.apply(h) for h in all_roots} != all_roots:
                raise CheckFailure({"n": n, "root": g, "reason": "not a root permutation"})
            flipped = [h for h in roots if s.apply(h).is_negative()]
            if len(flipped) % 2 == 0:
                raise CheckFailure({"n": n, "root": g, "reason": "even inversion count"})
            cases += 1
        radical = [g for g in roots if g.coeffs[-1] >= 1]
        # the Levi elements are the sign-free ones, the line permutations
        for perm in itertools.permutations(range(1, n + 1)):
            w = WeylElem(n, perm)
            for g in radical:
                image = w.apply(g)
                if not image.is_positive() or image.coeffs[-1] != g.coeffs[-1]:
                    raise CheckFailure({"n": n, "w": w, "root": g, "reason": "levi law"})
                cases += 1
        for g1 in roots:
            for g2 in roots:
                if g1 == g2 or g1.height > g2.height or is_bad_pair(g1, g2):
                    continue
                if not g1.reflect(g2).is_positive():
                    raise CheckFailure({"n": n, "g1": g1, "g2": g2, "reason": "reflection law"})
                cases += 1
    return cases, {"n": list(cfg.n)}
