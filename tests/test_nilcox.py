"""nilCoxeter algebra: products, h elements, k-Schur elimination, bases."""

import random
from fractions import Fraction

import pytest

from flagops import afperm as ap
from flagops import nilcox as nc
from flagops import symfunc as sf
from flagops.errors import InternalInconsistencyError
from flagops.partitions import partitions
from rref_oracle import rref


def test_multiply_examples():
    A0 = nc.basis_element(ap.simple(3, 0))
    assert (A0 * A0).is_zero()
    A1 = nc.basis_element(ap.simple(3, 1))
    assert A1 * A0 == nc.basis_element(ap.from_reduced_word(3, [1, 0]))
    h1 = nc.h_element(3, 1)
    sq = h1 * h1
    assert len(sq.terms) == 6
    assert set(sq.terms.values()) == {Fraction(1)}


def test_modulus_mismatch():
    with pytest.raises(Exception):
        nc.h_element(3, 1) * nc.h_element(4, 1)


def test_h_examples():
    h1 = nc.h_element(3, 1)
    assert h1 == nc.NilCoxElement(
        3, {ap.simple(3, i): Fraction(1) for i in range(3)}
    )
    h2 = nc.h_element(3, 2)
    expected = {
        ap.from_reduced_word(3, [1, 0]),
        ap.from_reduced_word(3, [2, 1]),
        ap.from_reduced_word(3, [0, 2]),
    }
    assert set(h2.terms) == expected
    for n in (3, 4, 5):
        from math import comb

        for i in range(n):
            assert len(nc.h_element(n, i).terms) == comb(n, i)
    assert nc.h_element(3, 0) == nc.unit(3)
    assert nc.h_element(3, -1).is_zero()
    with pytest.raises(ValueError):
        nc.h_element(3, 3)


def test_h_commute():
    for n in (2, 3, 4):
        hs = [nc.h_element(n, i) for i in range(n)]
        for a in hs:
            for b in hs:
                assert a * b == b * a


def test_coeff_of_identity():
    idw = ap.identity(3)
    assert nc.coeff_of_identity(nc.unit(3)) == 1
    assert nc.coeff_of_identity(nc.basis_element(ap.simple(3, 0))) == 0
    x = nc.NilCoxElement(3, {idw: Fraction(3), ap.simple(3, 1): Fraction(-2)})
    assert nc.coeff_of_identity(x) == 3


def test_k_schur_examples():
    assert nc.noncommutative_k_schur(3, (1,)) == nc.h_element(3, 1)
    assert nc.noncommutative_k_schur(3, (2,)) == nc.h_element(3, 2)
    assert nc.k_schur_h_coeffs(3, (1, 1)) == {
        (1, 1): Fraction(1),
        (2,): Fraction(-1),
    }
    for lam in ((3,), (0,), (-1,), (2, -1), (1, 2), (2, 0)):
        with pytest.raises(ValueError):
            nc.k_schur_h_coeffs(3, lam)


def test_k_kostka_rows_are_affine_stanley_of_grassmannians():
    assert nc.k_kostka(3, (2,)) == {(2,): 1, (1, 1): 1}
    assert nc.k_kostka(3, (1, 1)) == {(1, 1): 1}
    for n, top in ((3, 6), (4, 5)):
        for d in range(top + 1):
            for lam in partitions(d, n - 1):
                g = ap.partition_to_grassmannian(n, lam)
                assert nc.k_kostka(n, lam) == sf.affine_stanley(g).terms, (n, lam)


def test_k_schur_unique_grassmannian_support():
    for n in (2, 3, 4):
        for d in range(6):
            for lam in partitions(d, n - 1):
                el = nc.noncommutative_k_schur(n, lam)
                grass = {w for w in el.terms if w.is_zero_grassmannian()}
                assert grass == {ap.partition_to_grassmannian(n, lam)}
                assert el.coeff(ap.partition_to_grassmannian(n, lam)) == 1


def test_tensor_decompose_examples():
    s1 = ap.simple(3, 1)
    assert nc.tensor_decompose(nc.basis_element(s1)) == {
        (ap.identity(3), s1): Fraction(1)
    }
    x = nc.h_element(3, 1) * nc.basis_element(s1)
    assert nc.tensor_decompose(x) == {(ap.simple(3, 0), s1): Fraction(1)}
    assert nc.tensor_decompose(nc.h_element(3, 2)) == {
        (ap.from_reduced_word(3, [1, 0]), ap.identity(3)): Fraction(1)
    }


def test_tensor_roundtrip():
    for n in (3, 4):
        for l in range(7):
            for w in ap.elements_of_length(n, l):
                x = nc.basis_element(w)
                assert nc.tensor_reconstruct(n, nc.tensor_decompose(x)) == x


def test_multiply_associative_random():
    rng = random.Random(42)
    pool = [w for l in range(5) for w in ap.elements_of_length(3, l)]
    for _ in range(15):
        xs = []
        for _ in range(3):
            terms = {
                rng.choice(pool): Fraction(rng.randint(-3, 3)) for _ in range(3)
            }
            xs.append(nc.NilCoxElement(3, terms))
        a, b, c = xs
        assert (a * b) * c == a * (b * c)


def test_json_roundtrip():
    x = nc.h_element(3, 2) - nc.unit(3).scale(Fraction(1, 2))
    assert nc.NilCoxElement.from_json(x.to_json()) == x


def eliminate_per_lambda(n, lam):
    """Slow oracle: row-reduce the augmented system of lam alone."""
    mus = list(partitions(sum(lam), n - 1))
    grs = [ap.partition_to_grassmannian(n, nu) for nu in mus]
    aug = [
        [nc.h_product(n, mu).coeff(g) for mu in mus] + [Fraction(int(nu == lam))]
        for g, nu in zip(grs, mus)
    ]
    red, pivots = rref(aug)
    assert pivots == list(range(len(mus)))
    return {mu: row[-1] for mu, row in zip(mus, red) if row[-1] != 0}


def test_k_schur_inverse_matches_per_lambda_elimination():
    lams = [
        (n, lam)
        for n, top in ((3, 9), (4, 8), (5, 6))
        for d in range(top + 1)
        for lam in partitions(d, n - 1)
    ]
    assert len(lams) == 98
    for n, lam in lams:
        assert nc.k_schur_h_coeffs(n, lam) == eliminate_per_lambda(n, lam), (n, lam)


def test_k_schur_columns_reject_a_row_outside_the_triangle(monkeypatch):
    """A k-Kostka row with an entry before its diagonal raises, even though
    the matrix stays nonsingular and an inverse exists."""
    real = nc.k_kostka

    def broken(n, lam):
        row = dict(real(n, lam))
        if (n, lam) == (3, (1, 1)):
            row[(2,)] = 2  # (2,) comes before (1, 1) in partitions order
        return row

    mus = partitions(2, 2)
    assert mus == ((2,), (1, 1))
    _, pivots = rref([[Fraction(broken(3, lam).get(mu, 0)) for mu in mus] for lam in mus])
    assert pivots == [0, 1]
    nc._k_schur_columns.cache_clear()
    monkeypatch.setattr(nc, "k_kostka", broken)
    try:
        with pytest.raises(InternalInconsistencyError, match=r"n=3: row \(1, 1\)"):
            nc._k_schur_columns(3, 2)
    finally:
        nc._k_schur_columns.cache_clear()


def test_weak_pieri_matches_grassmannian_part_of_h_product():
    for n, top in ((3, 7), (4, 7), (5, 8)):
        for d in range(top + 1):
            for mu in partitions(d, n - 1):
                full = nc.h_product(n, mu).terms
                grass = {w: c for w, c in full.items() if w.is_zero_grassmannian()}
                assert nc._grassmannian_h(n, mu) == grass, (n, mu)
