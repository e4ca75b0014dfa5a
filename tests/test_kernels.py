"""The window kernels against brute-force oracles kept in this file."""

import random

import pytest

from flagops import kernels

NS = [2, 3, 4, 5, 6, 7]


def value(window, n, j):
    """w(j) for any integer j, straight from the definition w(j + n) = w(j) + n."""
    r = (j - 1) % n
    k = (j - 1 - r) // n
    return window[r] + k * n


def brute_length(window, n, margin=None):
    """Count inversions (i, j), 1 <= i <= n < j unbounded, by direct scan."""
    if margin is None:
        margin = (max(window) - min(window)) // n + 2
    count = 0
    for i in range(1, n + 1):
        for j in range(i + 1, i + (margin + 1) * n + 1):
            if value(window, n, i) > value(window, n, j):
                count += 1
    return count


def brute_product(u, v, n):
    """Window of uv by composing values: (uv)(j) = u(v(j))."""
    return tuple(value(u, n, value(v, n, j)) for j in range(1, n + 1))


def brute_apply_transposition(window, n, p, q):
    """Window of w t_{p,q} by evaluating w(t(j)), t swapping every p + kn <-> q + kn."""

    def t(j):
        if (j - p) % n == 0:
            return j + (q - p)
        if (j - q) % n == 0:
            return j - (q - p)
        return j

    return tuple(value(window, n, t(j)) for j in range(1, n + 1))


def brute_cover_classes(window, n):
    """Every (p, q), 1 <= p <= n, p < q, whose transposition drops the length by one.

    Scans q over a bounded range that contains every inversion partner of p.
    """
    base = brute_length(window, n)
    span = max(window) - min(window) + 2 * n
    out = []
    for p in range(1, n + 1):
        for q in range(p + 1, p + span + 1):
            if (q - p) % n == 0 or value(window, n, p) < value(window, n, q):
                continue
            if brute_length(brute_apply_transposition(window, n, p, q), n) == base - 1:
                out.append((p, q))
    return tuple(out)


def random_window(rng, n, steps, reduced=False):
    """A window reached by up to ``steps`` random simple reflections s_1..s_n.

    With ``reduced``, every letter is a right ascent, w(i) < w(i+1), so the
    length grows by one per letter and the window spreads out.
    """
    w = tuple(range(1, n + 1))
    for _ in range(rng.randint(0, steps)):
        letters = range(1, n + 1)
        if reduced:
            letters = [i for i in letters if value(w, n, i) < value(w, n, i + 1)]
        i = rng.choice(letters)
        w = brute_apply_transposition(w, n, i, i + 1)
    return w


def random_windows(rng, n, count=40):
    """Random words of up to 9 letters, and reduced words of up to 30 letters,
    whose windows spread |w(p) - w(q)| over several multiples of n."""
    return [random_window(rng, n, 9) if t % 2 else random_window(rng, n, 30, True) for t in range(count)]


def random_transposition(rng, n):
    """(p, q), p < q with distinct residues, anywhere within a few periods."""
    while True:
        p = rng.randint(-3 * n, 3 * n)
        q = p + rng.randint(1, 6 * n)
        if (q - p) % n:
            return p, q


@pytest.mark.parametrize("n", NS)
def test_length_matches_brute_force(n):
    rng = random.Random(11 + n)
    for w in random_windows(rng, n):
        assert kernels.length(w, n) == brute_length(w, n), w


@pytest.mark.parametrize("n", NS)
def test_product_matches_composition(n):
    rng = random.Random(23 + n)
    for u in random_windows(rng, n):
        for v in random_windows(rng, n, count=3):
            assert kernels.product(u, v, n) == brute_product(u, v, n), (u, v)


@pytest.mark.parametrize("n", NS)
def test_apply_transposition_matches_evaluation(n):
    rng = random.Random(37 + n)
    for w in random_windows(rng, n):
        for _ in range(5):
            p, q = random_transposition(rng, n)
            got = kernels.apply_transposition(w, n, p, q)
            assert got == brute_apply_transposition(w, n, p, q), (w, p, q)


@pytest.mark.parametrize("n", NS)
def test_cover_classes_match_brute_force(n):
    """Both sweeps of the kernel are exercised: some covers have q - p < n,
    some q - p >= n."""
    rng = random.Random(5 + n)
    spans = set()
    for w in random_windows(rng, n, count=20):
        covers = kernels.cover_classes(w, n)
        assert covers == brute_cover_classes(w, n), w
        spans.update(q - p < n for p, q in covers)
    assert spans == {True, False}


def test_affine_condition_rejects_a_finite_type_cover():
    """(2, 7) on (3, 5, -4, 6): w(2) = 5 > w(7) = 0 and no value of w(3..6)
    = -4, 6, 7, 9 lies between, but q - p and w(p) - w(q) are both >= n."""
    w, n = (3, 5, -4, 6), 4
    assert (2, 7) not in brute_cover_classes(w, n)
    assert (2, 7) not in kernels.cover_classes(w, n)
    assert kernels.cover_classes(w, n) == brute_cover_classes(w, n)


def test_cover_classes_drop_length_by_one():
    n = 3
    rng = random.Random(3)
    for w in random_windows(rng, n):
        base = kernels.length(w, n)
        for p, q in kernels.cover_classes(w, n):
            moved = kernels.apply_transposition(w, n, p, q)
            assert kernels.length(moved, n) == base - 1
