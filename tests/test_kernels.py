"""The window kernels against brute-force oracles kept in this file."""

import random

import pytest

from flagops import kernels

NS = [2, 3, 4, 5]


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


def random_window(rng, n, steps=9):
    """A window reached by up to ``steps`` random simple reflections s_0..s_{n-1}."""
    w = tuple(range(1, n + 1))
    for _ in range(rng.randint(0, steps)):
        i = rng.randrange(n) or n
        w = brute_apply_transposition(w, n, i, i + 1)
    return w


def random_windows(rng, n, count=40):
    return [random_window(rng, n) for _ in range(count)]


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
            p = rng.randint(-2 * n, 2 * n)
            q = p + rng.randint(1, 3 * n)
            if (q - p) % n == 0:
                continue
            got = kernels.apply_transposition(w, n, p, q)
            assert got == brute_apply_transposition(w, n, p, q), (w, p, q)


@pytest.mark.parametrize("n", NS)
def test_cover_classes_match_brute_force(n):
    rng = random.Random(5 + n)
    for w in random_windows(rng, n, count=20):
        assert kernels.cover_classes(w, n) == brute_cover_classes(w, n), w


def test_cover_classes_drop_length_by_one():
    n = 3
    rng = random.Random(3)
    for w in random_windows(rng, n):
        base = kernels.length(w, n)
        for p, q in kernels.cover_classes(w, n):
            moved = kernels.apply_transposition(w, n, p, q)
            assert kernels.length(moved, n) == base - 1
