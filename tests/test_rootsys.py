"""Root and Weyl combinatorics tests.

Independent oracles: BFS word length in the Cayley graph, the subword
characterization of the Bruhat order, a filter of the full group
against the corner-count order test, the root-walking definitions of
lengths, negated and kept roots and right descents (apply w to each
vector and read its sign), the Poincare polynomial of C_n, the bad-pair
predicate for the column-pair witness, brute-force multisets of
positive roots for root decompositions, and the coefficient predicates
of conftest for the Levi and the radical, against the column pairs and
the line maps.  Counts frozen below came from the
oracle routes.  The bad-pair census, factorizations, root laws and the
negated-root order are catalog checks run by acceptance criteria 01-03.
"""
from __future__ import annotations

import itertools
import random
from collections import deque

import pytest

from conftest import in_levi, in_radical, simple_roots
from padicsp.harness.root_checks import _radical_root as radical_root
from padicsp.rootsys import (
    Root,
    RootError,
    WeylElem,
    _root_columns,
    bad_pairs,
    bruhat_leq,
    coordinate_rotation,
    full_weyl_group,
    highest_root_reflection,
    is_bad_pair,
    positive_roots,
    weyl_below,
)
from padicsp.badtriples import bad_pair_witness, bad_triples_for_pair, reflection, root_decompositions


# ---------------------------------------------------------------- oracles

def bfs_lengths(n: int) -> dict:
    gens = [WeylElem.simple(n, k) for k in range(1, n + 1)]
    dist = {WeylElem.identity(n): 0}
    dq = deque([WeylElem.identity(n)])
    while dq:
        w = dq.popleft()
        for g in gens:
            v = w * g
            if v not in dist:
                dist[v] = dist[w] + 1
                dq.append(v)
    return dist


def oracle_bruhat_subword(w1: WeylElem, w2: WeylElem) -> bool:
    """Subword test against one fixed reduced word of w2."""
    word = w2.reduced_word()
    target_len = w1.length()
    n = w1.n
    for r in range(len(word) + 1):
        if r != target_len:
            continue
        for idxs in itertools.combinations(range(len(word)), r):
            if WeylElem.from_word(n, [word[i] for i in idxs]) == w1:
                return True
    return False


def flips_no_sign(w: WeylElem) -> bool:
    """A Weyl element of the block-diagonal Levi: a word in the short
    generators only, so no image is negative."""
    return all(v > 0 for v in w.imgs)


# ------------------------------------------------------------------ roots

def test_simple_roots_and_euclid():
    rs = simple_roots(3)
    vecs = [(1, -1, 0), (0, 1, -1), (0, 0, 2)]
    assert [Root.from_euclid(3, vec) for vec in vecs] == rs
    assert [r.euclid() for r in rs] == vecs
    assert set(rs) == {r for r in positive_roots(3) if r.height == 1}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_positive_root_count(n):
    pos = positive_roots(n)
    assert len(pos) == n * n
    assert all(r.is_positive() for r in pos)
    assert all((-r).is_negative() for r in pos)
    heights = [r.height for r in pos]
    assert heights == sorted(heights)


def test_euclid_round_trip():
    for n in (2, 3, 4):
        for r in positive_roots(n):
            assert Root.from_euclid(n, r.euclid()) == r
            assert Root(n, r.coeffs).euclid() == r.euclid()


def test_levi_vs_radical_split():
    for n in (2, 3, 4):
        pos = positive_roots(n)
        levi = [r for r in pos if in_levi(r)]
        rad = [r for r in pos if in_radical(r)]
        assert len(levi) == n * (n - 1) // 2
        assert len(rad) == n * (n + 1) // 2
        assert set(levi + rad) == set(pos)


def test_radical_heights_closed_form():
    # ht(2 e_i) = 2(n-i)+1, ht(e_i + e_j) = 2n-i-j+1
    for n in (2, 3, 4):
        for i in range(1, n + 1):
            assert radical_root(n, i, i).height == 2 * (n - i) + 1
            for j in range(i + 1, n + 1):
                assert radical_root(n, i, j).height == 2 * n - i - j + 1


def test_root_rejects_junk():
    with pytest.raises(RootError):
        Root.from_euclid(2, (1, 1, 0))
    with pytest.raises(RootError):
        Root.from_euclid(2, (3, 0))
    with pytest.raises(RootError):
        Root.from_euclid(3, (1, 1, 1))


# ----------------------------------------------------------- Weyl elements

def test_simple_reflection_action():
    n = 3
    s1 = WeylElem.simple(n, 1)
    sb = WeylElem.simple(n, 3)
    a1, a2, b = simple_roots(n)
    assert s1.apply(a1) == -a1
    assert s1.apply(a2).euclid() == (1, 0, -1)
    assert sb.apply(b) == -b
    assert sb.apply(a2).euclid() == (0, 1, 1)


def test_group_axioms_sampled():
    n = 4
    rng = random.Random(7)
    grp = full_weyl_group(n)
    for _ in range(200):
        w1, w2, w3 = (rng.choice(grp) for _ in range(3))
        assert (w1 * w2) * w3 == w1 * (w2 * w3)
        assert (w1 * w2).inverse() == w2.inverse() * w1.inverse()
        assert w1 * w1.inverse() == WeylElem.identity(n)
        g = rng.choice(positive_roots(n))
        assert (w1 * w2).apply(g) == w1.apply(w2.apply(g))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_length_matches_cayley_distance(n):
    for w, d in bfs_lengths(n).items():
        assert w.length() == d
        assert len(w.reduced_word()) == d
        assert WeylElem.from_word(n, w.reduced_word()) == w


def test_full_group_size():
    for n in (2, 3):
        grp = full_weyl_group(n)
        assert len(grp) == len(set(grp)) == 2**n * (1 if n == 1 else [2, 6, 24][n - 2] * 2 ** 0)
    assert len(full_weyl_group(2)) == 8
    assert len(full_weyl_group(3)) == 48


def test_reflection_properties():
    for n in (2, 3, 4):
        w0 = highest_root_reflection(n)
        assert reflection(positive_roots(n)[-1]) == w0  # tallest root is 2 e_1
        assert w0.length() == 2 * n - 1
        for g in positive_roots(n):
            s = reflection(g)
            assert s * s == WeylElem.identity(n)
            assert s.apply(g) == -g
            assert reflection(-g) == s
        # long skew-diagonal roots: chain words i..n..i
        for i in range(1, n + 1):
            assert reflection(radical_root(n, i, i)) == WeylElem.from_word(
                n, list(range(i, n)) + [n] + list(range(n - 1, i - 1, -1))
            )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_reflection_acts_as_the_pairing_formula(n):
    """reflection(g), read off g's column pair, against Root.reflect (the
    pairing formula) on every pair of roots."""
    roots = positive_roots(n) + [-g for g in positive_roots(n)]
    for g in roots:
        s = reflection(g)
        for h in roots:
            assert s.apply(h) == g.reflect(h)


def test_malformed_root_and_weyl_inputs_are_refused():
    """A pairing, a reflection or a bad-pair test across ranks, a reflection
    in a non-root and a list of images raise RootError naming the fault."""
    g2, g3 = positive_roots(2)[0], positive_roots(3)[1]
    for call in (lambda: g2.pairing(g3), lambda: g2.reflect(g3), lambda: is_bad_pair(g2, positive_roots(3)[0])):
        with pytest.raises(RootError, match="mixed ranks"):
            call()
    with pytest.raises(RootError, match="^root 'x' is not a Root"):
        reflection("x")
    with pytest.raises(RootError, match="^imgs "):
        WeylElem(2, [2, 1])


def test_reflection_conjugation():
    n = 3
    rng = random.Random(3)
    grp = full_weyl_group(n)
    for _ in range(100):
        w = rng.choice(grp)
        g = rng.choice(positive_roots(n))
        img = w.apply(g)
        assert w * reflection(g) * w.inverse() == reflection(img if img.is_positive() else -img)


def test_negated_set_of_top_reflection():
    for n in (2, 3, 4):
        w0 = highest_root_reflection(n)
        neg = set(w0.negated_positive_roots())
        expect = {radical_root(n, 1, 1)}
        for j in range(2, n + 1):
            expect.add(radical_root(n, 1, j))
            expect.add(Root.from_euclid(n, tuple(1 if k == 0 else (-1 if k == j - 1 else 0) for k in range(n))))
        assert neg == expect


def test_coordinate_rotation():
    n = 4
    w = coordinate_rotation(n)
    assert w.apply_euclid((1, 0, 0, 0)) == (0, 1, 0, 0)
    assert w.apply_euclid((0, 0, 0, 1)) == (1, 0, 0, 0)
    assert flips_no_sign(w)


def test_levi_elements_preserve_radical_roots():
    # sign-flip-free Weyl elements keep radical roots in the radical
    for n in (2, 3, 4):
        levis = [w for w in full_weyl_group(n) if flips_no_sign(w)]
        rad = [g for g in positive_roots(n) if in_radical(g)]
        for w in levis:
            for g in rad:
                img = w.apply(g)
                assert img.is_positive() and in_radical(img)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_levi_and_radical_are_read_off_column_pairs_and_line_maps(n):
    """A positive root with column pair (a, b) lies in the Levi exactly
    when b < n and in the radical exactly when a < n <= b; a Weyl element
    flips no sign exactly when its line map keeps the top n lines, and
    then it permutes the Levi roots of both signs."""
    for g in positive_roots(n):
        a, b = _root_columns(g)
        assert (in_levi(g), in_radical(g)) == (b < n, a < n <= b)
    levi = {h for g in positive_roots(n) if in_levi(g) for h in (g, -g)}
    for w in full_weyl_group(n):
        assert flips_no_sign(w) == (max(w._lines[:n]) < n)
        if flips_no_sign(w):
            assert {w.apply(g) for g in levi} == levi


def test_skew_diagonal_chain_action():
    # s_{a_k} shifts the skew-diagonal roots; the long generator fixes them
    for n in (3, 4):
        beta = [radical_root(n, i, i) for i in range(1, n + 1)]  # beta_i = 2 e_i
        for k in range(1, n):
            s = WeylElem.simple(n, k)
            for i in range(1, n + 1):
                img = s.apply(beta[i - 1])
                if i == k:
                    assert img == beta[i]
                elif i == k + 1:
                    assert img == beta[i - 2]
                else:
                    assert img == beta[i - 1]
        sb = WeylElem.simple(n, n)
        for i in range(1, n):
            assert sb.apply(beta[i - 1]) == beta[i - 1]


# -------------------------------------------------------------- root table

def oracle_roots_by_vector(n: int) -> dict:
    """{Euclidean vector: Root} over the coefficient vectors in [-2, 2]^n
    that the validating constructor takes, the highest root's (2, ..., 2, 1)
    and its negative included."""
    out = {}
    for coeffs in itertools.product(range(-2, 3), repeat=n):
        try:
            root = Root(n, coeffs)
        except RootError:
            continue
        out[root.euclid()] = root
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_root_table_hands_out_one_root_per_root(n):
    roots = oracle_roots_by_vector(n)
    assert len(roots) == 2 * n * n
    for vec, root in roots.items():
        got = Root.from_euclid(n, vec)
        assert got == root and got is Root.from_euclid(n, list(vec))
        assert -got is Root.from_euclid(n, tuple(-c for c in vec)) and -got == Root(n, tuple(-c for c in root.coeffs))
        for h in roots.values():
            u, v = h.euclid(), vec
            k = 2 * sum(a * b for a, b in zip(u, v)) // sum(b * b for b in v)
            image = tuple(a - k * b for a, b in zip(u, v))
            assert got.reflect(h) == roots[image] and got.reflect(h) is Root.from_euclid(n, image)
    for w in full_weyl_group(n):
        for g in roots.values():
            image = oracle_signed_image(w, g.euclid())
            assert w.apply(g) == roots[image] and w.apply(g) is Root.from_euclid(n, image)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_derived_weyl_elements_pass_the_validating_constructor(n):
    group = full_weyl_group(n)
    assert len({WeylElem(n, w.imgs) for w in group}) == len(group)
    for w in group:
        inv = w.inverse()
        assert WeylElem(n, inv.imgs) == inv and (w * inv).is_identity()
        for v in group:
            wv = w * v
            assert WeylElem(n, wv.imgs) == wv
            assert wv.apply_euclid(range(1, n + 1)) == w.apply_euclid(v.apply_euclid(range(1, n + 1)))


# ------------------------------------------------------------ Bruhat order

@pytest.mark.parametrize("n", [2, 3])
def test_bruhat_matches_subword_oracle(n):
    grp = full_weyl_group(n)
    rng = random.Random(17)
    pairs = (
        [(w1, w2) for w1 in grp for w2 in grp]
        if n == 2
        else [(rng.choice(grp), rng.choice(grp)) for _ in range(400)]
    )
    for w1, w2 in pairs:
        assert bruhat_leq(w1, w2) == oracle_bruhat_subword(w1, w2), (w1, w2)


def test_bruhat_poset_sanity():
    n = 3
    grp = full_weyl_group(n)
    top = [w for w in grp if w.length() == n * n]
    assert len(top) == 1
    assert all(bruhat_leq(w, top[0]) for w in grp)
    rng = random.Random(5)
    for _ in range(200):
        w1, w2 = rng.choice(grp), rng.choice(grp)
        if bruhat_leq(w1, w2) and bruhat_leq(w2, w1):
            assert w1 == w2
        if bruhat_leq(w1, w2) and w1 != w2:
            assert w1.length() < w2.length()


@pytest.mark.parametrize("n", [2, 3])
def test_weyl_below_matches_filter(n):
    w0 = highest_root_reflection(n)
    cone = set(weyl_below(w0))
    filtered = {w for w in full_weyl_group(n) if bruhat_leq(w, w0)}
    assert cone == filtered


def test_bruhat_matches_subword_cones_at_rank_4():
    """At n = 4 the pairwise subword oracle is too slow, so each lower cone
    weyl_below(w), the products of the subwords of one reduced word of w,
    is compared with the corner-count order over the whole group."""
    n = 4
    grp = full_weyl_group(n)
    rng = random.Random(41)
    short = [w for w in grp if 5 <= w.length() <= 10]
    for w in [highest_root_reflection(n)] + rng.sample(short, 4):
        assert {v for v in grp if bruhat_leq(v, w)} == set(weyl_below(w)), w


# --------------------------------------------------------- decompositions

def test_root_decompositions_basics():
    n = 3
    a1, a2, b = simple_roots(n)
    decs = root_decompositions(n, (1, 2, 1))  # e1 + e2
    as_sets = {tuple(sorted(r.coeffs for r in d)) for d in decs}
    assert ((1, 2, 1),) in as_sets  # the root itself
    assert len(decs) >= 3
    for d in decs:
        total = [0] * n
        for r in d:
            total = [x + y for x, y in zip(total, r.euclid())]
        assert tuple(total) == (1, 1, 0)
    assert root_decompositions(n, (0, 0, 0)) == []
    assert root_decompositions(n, (-1, 0, 0)) == []


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_root_decompositions_match_brute_force_multisets(n):
    """Every multiset of at most five positive roots, bucketed by its
    coefficient sum, against the DFS on every nonnegative coefficient
    vector of height <= 5: the same multisets, each once, in the order of
    their index sequences.  A vector with a negative entry has none."""
    pos = positive_roots(n)
    buckets = {}
    for k in range(1, 6):
        for combo in itertools.combinations_with_replacement(pos, k):
            total = tuple(map(sum, zip(*[g.coeffs for g in combo])))
            if sum(total) <= 5:
                buckets.setdefault(total, set()).add(combo)
    for coeffs in itertools.product(range(6), repeat=n):
        if sum(coeffs) <= 5:
            got = root_decompositions(n, coeffs)
            assert len(got) == len(set(got)) and set(got) == buckets.get(coeffs, set()), coeffs
            assert got == sorted(got, key=lambda d: [pos.index(g) for g in d])
    assert root_decompositions(n, tuple([2] * (n - 1) + [-1])) == []


# ---------------------------------------------------------- list accessors

def test_cached_accessors_hand_out_fresh_lists():
    w0 = highest_root_reflection(3)
    for read in (
        lambda: positive_roots(3),
        w0.negated_positive_roots,
        w0.kept_positive_roots,
        lambda: weyl_below(w0),
        lambda: bad_pairs(3),
    ):
        first = read()
        expected = list(first)
        first.reverse()
        first.append(first[0])
        assert read() == expected
        assert read() is not read()


def oracle_positive_vectors(n: int):
    """e_i +- e_j (i < j) and 2 e_i: the vectors whose first nonzero entry is positive."""
    out = []
    for i in range(n):
        out.append(tuple(2 if k == i else 0 for k in range(n)))
        for j in range(i + 1, n):
            for sign in (1, -1):
                out.append(tuple(1 if k == i else sign if k == j else 0 for k in range(n)))
    return out


def oracle_signed_image(w: WeylElem, vec) -> tuple:
    out = [0] * w.n
    for k, c in enumerate(vec):
        t = w.imgs[k]
        out[abs(t) - 1] += c if t > 0 else -c
    return tuple(out)


def oracle_sends_negative(w: WeylElem, vec) -> bool:
    """The root-walking definition: the first nonzero entry of w(vec) is negative."""
    return next(c for c in oracle_signed_image(w, vec) if c) < 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_forms_match_the_root_walking_definitions(n):
    for w in full_weyl_group(n):
        negated = {v for v in oracle_positive_vectors(n) if oracle_sends_negative(w, v)}
        assert w.length() == len(negated)
        got = w.negated_positive_roots()
        assert {g.euclid() for g in got} == negated
        assert got == sorted(got, key=lambda g: (g.height, g.coeffs))
        kept = w.kept_positive_roots()
        assert {g.euclid() for g in kept} == set(oracle_positive_vectors(n)) - negated
        assert kept == sorted(kept, key=lambda g: (g.height, g.coeffs))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_right_descents_are_the_simple_roots_sent_negative(n):
    simple = [tuple(1 if t == k else -1 if t == k + 1 else 0 for t in range(n)) for k in range(n - 1)]
    simple.append(tuple(2 if t == n - 1 else 0 for t in range(n)))
    for w in full_weyl_group(n):
        want = [k for k, v in enumerate(simple, start=1) if oracle_sends_negative(w, v)]
        assert w.right_descents() == want


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_length_generating_function_is_the_product_over_the_degrees(n):
    """sum_w t^l(w) = prod_{i=1..n} [2i]_t with [d]_t = 1 + t + ... + t^(d-1):
    the Poincare polynomial of C_n, whose degrees are 2, 4, ..., 2n
    (Bjorner and Brenti, Combinatorics of Coxeter Groups, ch. 7;
    Humphreys, Reflection Groups and Coxeter Groups, sec. 3.15)."""
    want = [1]
    for d in range(2, 2 * n + 1, 2):
        want = [sum(want[k - j] for j in range(d) if 0 <= k - j < len(want)) for k in range(len(want) + d - 1)]
    got = [0] * (n * n + 1)
    for w in full_weyl_group(n):
        got[w.length()] += 1
    assert got == want


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bad_triples_for_pair_matches_the_root_walking_filter(n):
    """Over every pair of roots, either sign, not only the bad pairs."""
    below = weyl_below(highest_root_reflection(n))
    roots = positive_roots(n) + [-g for g in positive_roots(n)]
    for g1, g2 in itertools.product(roots, repeat=2):
        want = [w for w in below if oracle_sends_negative(w, g1.euclid()) and oracle_sends_negative(w, g2.euclid())]
        assert bad_triples_for_pair(g1, g2) == want


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_bad_pair_witness_matches_the_definition(n):
    """Over every ordered pair of roots, either sign: a witness (i, j)
    names a pair that is_bad_pair accepts and that equals (e_i + e_j, 2 e_i)
    rebuilt by Root.from_euclid; no witness, no bad pair."""
    roots = positive_roots(n) + [-g for g in positive_roots(n)]
    for g1, g2 in itertools.product(roots, repeat=2):
        ij = bad_pair_witness(g1, g2)
        assert is_bad_pair(g1, g2) == (ij is not None)
        if ij is not None:
            i, j = ij
            assert g1 == Root.from_euclid(n, tuple(int(k in (i - 1, j - 1)) for k in range(n)))
            assert g2 == Root.from_euclid(n, tuple(2 * (k == i - 1) for k in range(n)))


MIXED = (Root.from_euclid(2, (1, 1)), Root.from_euclid(3, (2, 0, 0)))


@pytest.mark.parametrize("g1,g2", [MIXED, MIXED[::-1]])
def test_is_bad_pair_refuses_mixed_ranks(g1, g2):
    with pytest.raises(RootError, match="mixed ranks"):
        is_bad_pair(g1, g2)


def test_bad_pair_witness_refuses_mixed_ranks():
    with pytest.raises(RootError, match="mixed ranks"):
        bad_pair_witness(*MIXED)


def test_bad_triples_for_pair_refuses_mixed_ranks():
    with pytest.raises(RootError, match="mixed ranks"):
        bad_triples_for_pair(positive_roots(2)[0], positive_roots(3)[0])
