"""Affine symmetric group: windows, covers, factorizations, bijections."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagops import afperm as ap
from flagops.partitions import partitions


def brute_marked_covers(w, a, span=3):
    """Independent cover enumeration: scan all index pairs in a box."""
    n = w.n
    out = []
    for j1 in range(a - span * n, a + 1):
        for j2 in range(a + 1, a + span * n + 1):
            if (j1 - j2) % n == 0:
                continue
            moved, delta = ap.apply_transposition(w, (j1, j2))
            if delta == -1:
                out.append(((j1, j2), moved, moved.value(j2)))
    return sorted(out)


# --- constructors and length ------------------------------------------------


def test_from_reduced_word_examples():
    assert ap.from_reduced_word(3, []).window == (1, 2, 3)
    assert ap.from_reduced_word(3, [0]).window == (0, 2, 4)
    assert ap.from_reduced_word(3, [2, 1, 0]).window == (-1, 1, 6)
    assert sum(ap.from_reduced_word(3, [2, 1, 0]).window) == 6
    assert ap.from_reduced_word(3, [2, 1, 0]).length == 3


def test_length_examples():
    assert ap.identity(3).length == 0
    assert ap.AffinePermutation(3, [0, 2, 4]).length == 1
    assert ap.AffinePermutation(3, [-1, 1, 6]).length == 3


def test_window_validation():
    with pytest.raises(ValueError):
        ap.AffinePermutation(3, [1, 2, 4])  # wrong sum
    with pytest.raises(ValueError):
        ap.AffinePermutation(3, [0, 3, 3])  # repeated residues


def test_window_entries_become_ints_pooled_or_not():
    import gc

    gc.collect()
    assert (4, (101, -98, 3, 4)) not in ap.AffinePermutation._pool
    fresh = ap.AffinePermutation(4, (101.0, -98.0, 3.0, 4.0))
    assert fresh.window == (101, -98, 3, 4)
    assert all(type(v) is int for v in fresh.window)
    held = ap.AffinePermutation(4, [2, 1, 3, 4])
    pooled = ap.AffinePermutation(4, (2.0, 1.0, 3.0, 4.0))
    assert pooled is held and pooled.window == (2, 1, 3, 4)
    assert all(type(v) is int for v in pooled.window)


def test_apply_transposition_examples():
    s0, up = ap.apply_transposition(ap.identity(3), (0, 1))
    assert (s0, up) == (ap.simple(3, 0), 1)
    s1s0 = ap.from_reduced_word(3, [1, 0])
    moved, delta = ap.apply_transposition(s1s0, (0, 2))
    assert moved == ap.simple(3, 0) and delta == -1
    _, delta = ap.apply_transposition(ap.simple(3, 1), (0, 1))
    assert delta == 1
    # shifting the index by (n, n) changes nothing
    for t in ((0, 2), (3, 5), (-3, -1)):
        assert ap.apply_transposition(s1s0, t) == (ap.simple(3, 0), -1)


# --- marked covers ----------------------------------------------------------


def test_marked_covers_examples():
    assert ap.marked_covers(ap.identity(3), 0) == ()
    covers = ap.marked_covers(ap.simple(3, 0), 0)
    assert [(c.index, c.lower, c.label) for c in covers] == [((0, 1), ap.identity(3), 1)]
    covers = ap.marked_covers(ap.from_reduced_word(3, [1, 0]), 0)
    assert [(c.index, c.lower.window, c.label) for c in covers] == [
        ((0, 1), (2, 1, 3), 2),
        ((0, 2), (0, 2, 4), 2),
    ]


@pytest.mark.parametrize("word", [(), (0,), (1, 0), (2, 1), (0, 1, 2), (2, 1, 0, 1)])
@pytest.mark.parametrize("a", [-1, 0, 1, 2])
def test_marked_covers_match_brute_force(word, a):
    w = ap.from_reduced_word(3, word)
    got = sorted((c.index, c.lower, c.label) for c in ap.marked_covers(w, a))
    assert got == brute_marked_covers(w, a)


def test_marked_cover_shift_bijection():
    for word in [(1, 0), (0, 1, 2), (2, 0, 1, 0)]:
        w = ap.from_reduced_word(3, word)
        for a in (-2, 0, 1):
            low = ap.marked_covers(w, a)
            high = ap.marked_covers(w, a + 3)
            assert len(low) == len(high)
            shifted = sorted((c.index[0] + 3, c.index[1] + 3, c.lower, c.label + 3) for c in low)
            direct = sorted((c.index[0], c.index[1], c.lower, c.label) for c in high)
            assert shifted == direct


def test_labels_match_both_sides():
    w = ap.from_reduced_word(4, [0, 3, 2, 1, 0])
    for c in ap.marked_covers(w, 0):
        assert c.label == c.lower.value(c.index[1]) == c.upper.value(c.index[0])


# --- factorization, cyclically decreasing, bijection ------------------------


def test_grassmannian_factorize_examples():
    idw = ap.identity(3)
    assert ap.grassmannian_factorize(idw) == (idw, idw)
    s1s0 = ap.from_reduced_word(3, [1, 0])
    assert ap.grassmannian_factorize(s1s0) == (s1s0, idw)
    s0s1 = ap.from_reduced_word(3, [0, 1])
    assert ap.grassmannian_factorize(s0s1) == (ap.simple(3, 0), ap.simple(3, 1))


def test_factorize_recombines():
    for l in range(7):
        for w in ap.elements_of_length(3, l):
            w0, w1 = ap.grassmannian_factorize(w)
            assert w0 * w1 == w
            assert w0.length + w1.length == w.length
            assert w0.is_zero_grassmannian() and w1.is_finite()


def test_cyclically_decreasing():
    assert ap.cyclically_decreasing(3, {0, 1}) == ap.from_reduced_word(3, [1, 0])
    assert ap.cyclically_decreasing(3, {0, 2}) == ap.from_reduced_word(3, [0, 2])
    assert ap.cyclically_decreasing(3, set()) == ap.identity(3)
    with pytest.raises(ValueError):
        ap.cyclically_decreasing(3, {0, 1, 2})


def test_cyclically_decreasing_letter_order():
    # s_{i+1} precedes s_i whenever both occur
    for n in (3, 4, 5):
        for r in range(1, n):
            for J in itertools.combinations(range(n), r):
                word = ap.cyclically_decreasing(n, J).reduced_word()
                assert sorted(word) == sorted(J)


def test_partition_bijection():
    assert ap.partition_to_grassmannian(3, ()) == ap.identity(3)
    assert ap.partition_to_grassmannian(3, (1,)) == ap.simple(3, 0)
    assert ap.partition_to_grassmannian(3, (2,)) == ap.from_reduced_word(3, [1, 0])
    assert ap.partition_to_grassmannian(3, (1, 1)) == ap.from_reduced_word(3, [2, 0])
    for n in (2, 3, 4):
        for d in range(7):
            for lam in partitions(d, n - 1):
                w = ap.partition_to_grassmannian(n, lam)
                assert w.length == d and w.is_zero_grassmannian()
                assert ap.grassmannian_to_partition(w) == lam
    with pytest.raises(ValueError):
        ap.grassmannian_to_partition(ap.simple(3, 1))


def test_grassmannian_lift():
    assert ap.grassmannian_lift(ap.from_reduced_word(3, [1, 0])) == ap.identity(3)
    assert ap.grassmannian_lift(ap.identity(3)) == ap.identity(3)
    v = ap.grassmannian_lift(ap.simple(3, 1))
    assert v == ap.simple(3, 0)
    for l in range(5):
        for w in ap.elements_of_length(3, l):
            v = ap.grassmannian_lift(w)
            assert (w * v).is_zero_grassmannian()
            assert (w * v).length == w.length + v.length


def test_rho_element():
    assert ap.rho_element(3, 0, 2) == ap.from_reduced_word(3, [1, 0])
    assert ap.rho_element(3, 1, 2) == ap.from_reduced_word(3, [2, 0])
    assert ap.rho_element(3, 0, 1) == ap.simple(3, 0)
    for n in (3, 4):
        for m in range(1, n):
            for i in range(m):
                assert ap.rho_element(n, i, m).length == m
    with pytest.raises(ValueError):
        ap.rho_element(3, 2, 2)


# --- enumeration against the Poincare series --------------------------------


def test_element_counts_match_generating_function():
    for n in (2, 3, 4):
        finite_by_len = {}
        for w in itertools.permutations(range(1, n + 1)):
            inv = sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])
            finite_by_len[inv] = finite_by_len.get(inv, 0) + 1
        for d in range(7):
            expected = sum(
                len(partitions(a, n - 1)) * finite_by_len.get(d - a, 0) for a in range(d + 1)
            )
            assert len(ap.elements_of_length(n, d)) == expected


def test_reduced_word_is_reduced_and_lex_minimal():
    for l in range(6):
        for w in ap.elements_of_length(3, l):
            word = w.reduced_word()
            assert len(word) == w.length
            assert ap.from_reduced_word(3, word) == w


# --- properties -------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), max_size=8), st.integers(2, 4))
def test_word_products_are_valid_windows(word, n):
    word = [i % n for i in word]
    w = ap.from_reduced_word(n, word)
    assert sum(w.window) == n * (n + 1) // 2
    assert w.length <= len(word)
    assert (w.length - len(word)) % 2 == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2), max_size=6))
def test_length_equals_word_length_iff_reduced(word):
    """Exhaustive subword check of the reducedness criterion."""
    w = ap.from_reduced_word(3, word)
    shorter_hit = any(
        ap.from_reduced_word(3, [word[i] for i in subset]) == w
        for size in range(len(word))
        for subset in itertools.combinations(range(len(word)), size)
    )
    if w.length == len(word):
        assert not shorter_hit
    else:
        assert shorter_hit


def test_json_roundtrip():
    w = ap.from_reduced_word(4, [0, 3, 2, 1, 0])
    assert ap.AffinePermutation.from_json(w.to_json()) == w
