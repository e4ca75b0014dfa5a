"""Symmetric functions: conversions, Hall pairing, quotient, dual bases."""

import itertools
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagops import afperm as ap
from flagops import nilcox
from flagops import symfunc as sf
from flagops.partitions import conjugate, partitions, z_lambda
from rref_oracle import rref
import symfunc_oracle

CLASSICAL = ("m", "h", "p", "e", "s")


def _ssyt_contents(lam, nvars):
    """Content vectors of the semistandard tableaux of shape lam, entries <= nvars."""
    cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]
    filling, content, counts = {}, [0] * nvars, {}

    def place(idx):
        if idx == len(cells):
            key = tuple(content)
            counts[key] = counts.get(key, 0) + 1
            return
        i, j = cells[idx]
        # rows weakly increase, columns strictly increase
        low = max(filling.get((i, j - 1), 1), filling.get((i - 1, j), 0) + 1)
        for v in range(low, nvars + 1):
            filling[i, j] = v
            content[v - 1] += 1
            place(idx + 1)
            content[v - 1] -= 1
        filling.pop((i, j), None)

    place(0)
    return counts


def _generator(basis, r, nvars):
    """h_r, e_r or p_r as a polynomial {exponent vector: coeff} in nvars variables."""
    if basis == "p":
        combos = [(i,) * r for i in range(nvars)]
    elif basis == "h":
        combos = itertools.combinations_with_replacement(range(nvars), r)
    else:
        combos = itertools.combinations(range(nvars), r)
    gen = {}
    for combo in combos:
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        gen[tuple(e)] = gen.get(tuple(e), 0) + 1
    return gen


@lru_cache(maxsize=None)
def brute_monomial_expansion(basis, lam):
    """basis_lam as an explicit polynomial in |lam| variables, read in the m basis.

    An independent oracle: h, e and p products are multiplied out, s sums
    x^T over semistandard tableaux T (its m-coefficients are the Kostka
    numbers), and m_lam is itself.
    """
    if basis == "m":
        return {lam: Fraction(1)}
    nvars = sum(lam)
    if basis == "s":
        poly = _ssyt_contents(lam, nvars)
    else:
        poly = {(0,) * nvars: 1}
        for part in lam:
            out = {}
            for e1, c1 in poly.items():
                for e2, c2 in _generator(basis, part, nvars).items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    out[key] = out.get(key, 0) + c1 * c2
            poly = out
    # the m_mu coefficient sits on the weakly decreasing exponent vector
    return {
        tuple(x for x in expo if x): Fraction(c)
        for expo, c in poly.items()
        if c and all(expo[i] >= expo[i + 1] for i in range(nvars - 1))
    }


@lru_cache(maxsize=None)
def brute_inverse(basis, d):
    """The inverse of the brute-force basis -> m matrix on partitions of d."""
    lams = partitions(d)
    size = len(lams)
    rows = [
        [brute_monomial_expansion(basis, lam).get(mu, Fraction(0)) for mu in lams]
        + [Fraction(int(i == j)) for j in range(size)]
        for i, lam in enumerate(lams)
    ]
    reduced, pivots = rref(rows)
    assert pivots == list(range(size)), (basis, d)
    return [row[size:] for row in reduced]


def test_convert_examples():
    p2 = sf.SymFunc("p", {(2,): 1})
    assert sf.convert_basis(p2, "m").terms == {(2,): Fraction(1)}
    h2 = sf.SymFunc("h", {(2,): 1})
    assert sf.convert_basis(h2, "m").terms == {(2,): Fraction(1), (1, 1): Fraction(1)}
    m = sf.SymFunc("m", {(2, 1): 1})
    assert sf.convert_basis(sf.convert_basis(m, "p"), "m").terms == m.terms


@pytest.mark.parametrize("basis", ["h", "p", "e", "s"])
def test_to_m_matches_brute_force(basis):
    for d in range(1, 7):
        for lam in partitions(d):
            got = sf.convert_basis(sf.SymFunc(basis, {lam: 1}), "m").terms
            assert got == brute_monomial_expansion(basis, lam), lam
    # spot value: e_2 = m_{11}
    assert sf.convert_basis(sf.SymFunc("e", {(2,): 1}), "m").terms == {(1, 1): Fraction(1)}


@pytest.mark.parametrize("src", CLASSICAL)
def test_classical_pairs_match_brute_force(src):
    """src_lam in every classical basis, solved from the brute-force m-expansions."""
    for d in range(7):
        lams = partitions(d)
        for dst in CLASSICAL:
            inv = brute_inverse(dst, d)
            for lam in lams:
                v = brute_monomial_expansion(src, lam)
                want = {}
                for j, nu in enumerate(lams):
                    c = sum((v.get(mu, 0) * inv[i][j] for i, mu in enumerate(lams)), Fraction(0))
                    if c:
                        want[nu] = c
                got = sf.convert_basis(sf.SymFunc(src, {lam: 1}), dst).terms
                assert got == want, (src, dst, lam)


def test_schur_conversion_known_values():
    s21 = sf.SymFunc("s", {(2, 1): 1})
    assert sf.convert_basis(s21, "m").terms == {(2, 1): Fraction(1), (1, 1, 1): Fraction(2)}
    s11 = sf.SymFunc("s", {(1, 1): 1})
    assert sf.convert_basis(s11, "h").terms == {(1, 1): Fraction(1), (2,): Fraction(-1)}


def test_schur_of_a_long_column_is_elementary():
    # s_(1^12) = e_(12): s_lam is read through its conjugate when l(lam) >
    # lam_1, so the Jacobi-Trudi determinant has one term here, not 12!
    s = sf.SymFunc("s", {(1,) * 12: 1})
    assert sf.convert_basis(s, "e").terms == {(12,): 1}
    for d in range(9):
        for lam in partitions(d):
            assert conjugate(conjugate(lam)) == lam and sum(conjugate(lam)) == d, lam
            assert len(conjugate(lam)) == (lam[0] if lam else 0), lam


def test_roundtrips_all_bases():
    for src in ("m", "h", "p", "e", "s"):
        for d in range(1, 5):
            for lam in partitions(d):
                f = sf.SymFunc(src, {lam: Fraction(3, 2)})
                for dst in ("m", "h", "p", "e", "s"):
                    g = sf.convert_basis(sf.convert_basis(f, dst), src)
                    assert g.terms == f.terms, (src, dst, lam)


def test_hall_examples():
    assert sf.hall_inner(sf.SymFunc("m", {(2,): 1}), sf.SymFunc("h", {(2,): 1})) == 1
    p21 = sf.SymFunc("p", {(2, 1): 1})
    assert sf.hall_inner(p21, p21) == 2
    assert sf.hall_inner(sf.SymFunc("p", {(2,): 1}), sf.SymFunc("p", {(1, 1): 1})) == 0


def test_hall_dualities():
    for d in range(1, 5):
        for lam in partitions(d):
            for mu in partitions(d):
                delta = Fraction(int(lam == mu))
                m = sf.SymFunc("m", {lam: 1})
                h = sf.SymFunc("h", {mu: 1})
                assert sf.hall_inner(m, h) == delta
                s1 = sf.SymFunc("s", {lam: 1})
                s2 = sf.SymFunc("s", {mu: 1})
                assert sf.hall_inner(s1, s2) == delta
                p1 = sf.SymFunc("p", {lam: 1})
                p2 = sf.SymFunc("p", {mu: 1})
                assert sf.hall_inner(p1, p2) == delta * z_lambda(lam)


def test_project_to_quotient():
    assert sf.project_to_quotient(sf.SymFunc("p", {(3,): 1}), 2).is_zero()
    f = sf.SymFunc("p", {(2, 1): 1})
    assert sf.project_to_quotient(f, 2).terms == {(2, 1): Fraction(1)}
    h3 = sf.SymFunc("h", {(3,): 1})
    assert sf.project_to_quotient(h3, 2).terms == {
        (1, 1, 1): Fraction(1, 6),
        (2, 1): Fraction(1, 2),
    }


def test_quotient_multiplicative_on_p():
    f = sf.SymFunc("p", {(2,): 1})
    g = sf.SymFunc("p", {(2, 2): 1})
    assert (f * g).terms == {(2, 2, 2): Fraction(1)}


def test_k_schur_examples():
    assert sf.k_schur(3, (1,)).terms == {(1,): Fraction(1)}
    assert sf.k_schur(3, (2,)).terms == {(2,): Fraction(1)}
    assert sf.k_schur(3, (1, 1)).terms == {(1, 1): Fraction(1), (2,): Fraction(-1)}


def test_affine_schur_examples():
    assert sf.affine_schur(3, (1,)).terms == {(1,): Fraction(1)}
    assert sf.affine_schur(3, (2,)).terms == {(2,): Fraction(1), (1, 1): Fraction(1)}
    assert sf.affine_schur(3, (1, 1)).terms == {(1, 1): Fraction(1)}
    for lam in ((3,), (0,), (1, 2), (2, 0)):
        with pytest.raises(ValueError):
            sf.affine_schur_p(3, lam)


def affine_schur_oracle(n, d):
    """lam -> p-coefficients of F~_lam over the k-bounded partitions of d.

    The affine Schur functions as the Hall duals of the k-Schur functions:
    the inverse transpose of the matrix z_alpha [p_alpha] s^(k)_lam.
    """
    lams = partitions(d, n - 1)
    m = len(lams)
    aug = [
        [sf.k_schur_p(n, lam).coeff(alpha) * z_lambda(alpha) for alpha in lams]
        + [Fraction(int(i == j)) for j in range(m)]
        for i, lam in enumerate(lams)
    ]
    red, pivots = rref(aug)
    assert pivots == list(range(m))
    return {
        lam: {alpha: row[m + i] for alpha, row in zip(lams, red) if row[m + i] != 0}
        for i, lam in enumerate(lams)
    }


def test_affine_schur_matches_hall_dual_oracle():
    count = 0
    for n, top in ((2, 8), (3, 9), (4, 8), (5, 8)):
        for d in range(top + 1):
            for lam, terms in affine_schur_oracle(n, d).items():
                assert sf.affine_schur_p(n, lam).terms == terms, (n, lam)
                count += 1
    assert count == 133


def test_affine_schur_above_degree_8_matches_k_kostka():
    """F~_lam in the m basis, on the k-bounded mu, is row lam of the k-Kostka
    matrix; that row comes from the weak Pieri rule, with no p-expansion and
    no pairing with h, so it checks both at degrees 9..16."""
    cases = [(3, lam) for d in range(9, 17) for lam in partitions(d, 2)]
    cases += [(4, lam) for d in range(9, 13) for lam in partitions(d, 3)]
    cases += [(5, lam) for d in range(9, 11) for lam in partitions(d, 4)]
    cases += [(6, (5, 5, 5, 1)), (6, (1,) * 16)]
    for n, lam in cases:
        f = sf.affine_schur(n, lam)
        bounded = {mu: c for mu, c in f.terms.items() if max(mu) < n}
        assert bounded == nilcox.k_kostka(n, lam), (n, lam)
    assert len(cases) == 160


def test_affine_stanley_examples():
    assert sf.affine_stanley(ap.simple(3, 0)).terms == {(1,): Fraction(1)}
    assert sf.affine_stanley(ap.from_reduced_word(3, [1, 0])).terms == {
        (2,): Fraction(1),
        (1, 1): Fraction(1),
    }
    assert sf.affine_stanley(ap.from_reduced_word(3, [2, 0])).terms == {
        (1, 1): Fraction(1)
    }


def test_stanley_p_route_matches_projection():
    for l in range(6):
        for w in ap.elements_of_length(3, l):
            direct = sf.affine_stanley_p(w).terms
            via_m = sf.project_to_quotient(sf.affine_stanley(w), 2).terms
            assert direct == via_m


def test_h_to_p_convolution_matches_conversion():
    # sum_alpha h_to_p(mu)_alpha * brute(p_alpha) == brute(h_mu), in the m basis
    for d in range(1, 7):
        for mu in partitions(d):
            acc = {}
            for alpha, c in sf.h_to_p(mu):
                for nu, c2 in brute_monomial_expansion("p", alpha).items():
                    acc[nu] = acc.get(nu, Fraction(0)) + c * c2
            assert {nu: c for nu, c in acc.items() if c} == brute_monomial_expansion("h", mu), mu


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(0, 4))
def test_p_to_h_inverts_h_to_p(d, seed):
    lams = partitions(d)
    lam = lams[seed % len(lams)]
    # expand p_lam in h, then back to p through the convolution
    acc = {}
    for mu, c in sf.p_to_h(lam):
        for nu, c2 in sf.h_to_p(mu):
            acc[nu] = acc.get(nu, Fraction(0)) + c * c2
    acc = {k: v for k, v in acc.items() if v != 0}
    assert acc == {lam: Fraction(1)}


def test_integer_p_expansions_match_fraction_oracle():
    # each memoised (D, ((alpha, N), ...)) is N / D of the Fraction route,
    # with D > 0, int numerators and no zero term
    count = 0
    for d in range(9):
        for lam in partitions(d):
            for basis in ("h", "e", "s", "m", "forgotten"):
                D, terms = sf._p_expansion(basis, lam)
                assert type(D) is int and D > 0
                assert all(type(N) is int and N for _, N in terms), (basis, lam)
                got = {alpha: Fraction(N, D) for alpha, N in terms}
                assert got == symfunc_oracle.p_expansion(basis, lam), (basis, lam)
                count += 1
    assert count == 5 * 67


def test_k_bases_match_fraction_oracle():
    for n in (3, 4):
        for d in range(7):
            for lam in partitions(d, n - 1):
                assert sf.k_schur_p(n, lam).terms == symfunc_oracle.k_schur_p(n, lam), (n, lam)
                f = sf.affine_schur_p(n, lam).terms
                assert f == symfunc_oracle.affine_schur_p(n, lam), (n, lam)


def _n4_duality_table():
    """(F~_lam, s^(3)_mu, delta) over every pair of the n = 4 table, d <= 7."""
    return [
        (sf.affine_schur_p(4, lam), sf.k_schur(4, mu), int(lam == mu))
        for d in range(1, 8)
        for lam in partitions(d, 3)
        for mu in partitions(d, 3)
    ]


def test_hall_inner_is_canonical_on_the_duality_table():
    # LinearCombination.exact's rule: an int when integral, never Fraction(1, 1)
    table = _n4_duality_table()
    assert len(table) == sum(len(partitions(d, 3)) ** 2 for d in range(1, 8))
    for f, g, delta in table:
        v = sf.hall_inner(f, g)
        assert type(v) is int and v == delta
    half = sf.hall_inner(sf.SymFunc("p", {(1,): Fraction(1, 2)}), sf.SymFunc("p", {(1,): 1}))
    assert half == Fraction(1, 2) and type(half) is Fraction


def test_hall_inner_builds_at_most_one_fraction():
    table = _n4_duality_table()
    table += [(sf.SymFunc("s", {(3, 1): Fraction(2, 3)}), sf.SymFunc("e", {(2, 1, 1): 1}), None)]
    built = []
    original = Fraction.__dict__["__new__"]

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return original.__func__(cls, *args, **kwargs)

    per_call = []
    Fraction.__new__ = staticmethod(counting_new)
    try:
        for f, g, _ in table:
            before = len(built)
            sf.hall_inner(f, g)
            per_call.append(len(built) - before)
    finally:
        Fraction.__new__ = original
    assert Fraction(1, 2) + Fraction(1, 2) == 1  # the class works again
    assert max(per_call) == 1


def test_kschur_affschur_tagged_conversion():
    f = sf.SymFunc("kschur", {(1, 1): 1}, k=2)
    m = sf.convert_basis(f, "m")
    back = sf.convert_basis(m, "kschur")
    assert back.terms == {(1, 1): Fraction(1)}
    g = sf.SymFunc("affschur", {(2,): 1}, k=2)
    assert sf.convert_basis(g, "m").terms == {(2,): Fraction(1), (1, 1): Fraction(1)}
    for k in (2, 3):
        for d in range(6):
            for lam in partitions(d, k):
                for basis in ("kschur", "affschur"):
                    m = sf.convert_basis(sf.SymFunc(basis, {lam: 1}, k=k), "m")
                    assert sf.convert_basis(m, basis).terms == {lam: Fraction(1)}, (basis, k, lam)
    h21 = sf.SymFunc("h", {(2, 1): 1}, k=2)
    assert sf.convert_basis(h21, "kschur").terms == {(2, 1): Fraction(1)}
    with pytest.raises(ValueError, match="span of the 2-Schur"):
        sf.convert_basis(sf.SymFunc("h", {(3,): 1}, k=2), "kschur")


def test_json_roundtrip():
    f = sf.SymFunc("p", {(2, 1): Fraction(1, 3)}, 2)
    assert sf.SymFunc.from_json(f.to_json()) == f
