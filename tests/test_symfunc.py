"""Symmetric functions: conversions, Hall pairing, quotient, dual bases."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagops import afperm as ap
from flagops import symfunc as sf
from flagops.errors import BoundExceededError
from flagops.partitions import partitions, z_lambda


def brute_monomial_expansion(basis, lam):
    """Expand h/e/p products directly as polynomials (independent oracle)."""
    d = sum(lam)
    nvars = d
    poly = {tuple([0] * nvars): Fraction(1)}
    for part in lam:
        gen = {}
        if basis == "p":
            for i in range(nvars):
                e = [0] * nvars
                e[i] = part
                gen[tuple(e)] = Fraction(1)
        elif basis == "h":
            for combo in itertools.combinations_with_replacement(range(nvars), part):
                e = [0] * nvars
                for i in combo:
                    e[i] += 1
                key = tuple(e)
                gen[key] = gen.get(key, Fraction(0)) + 1
        out = {}
        for e1, c1 in poly.items():
            for e2, c2 in gen.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        poly = out
    collected = {}
    for expo, c in poly.items():
        if all(expo[i] >= expo[i + 1] for i in range(nvars - 1)):
            collected[tuple(x for x in expo if x)] = c
    return collected


def test_convert_examples():
    p2 = sf.SymFunc("p", {(2,): 1})
    assert sf.convert_basis(p2, "m").terms == {(2,): Fraction(1)}
    h2 = sf.SymFunc("h", {(2,): 1})
    assert sf.convert_basis(h2, "m").terms == {(2,): Fraction(1), (1, 1): Fraction(1)}
    m = sf.SymFunc("m", {(2, 1): 1})
    assert sf.convert_basis(sf.convert_basis(m, "p"), "m").terms == m.terms


@pytest.mark.parametrize("basis", ["h", "p", "e"])
def test_to_m_matches_brute_force(basis):
    for d in range(1, 6):
        for lam in partitions(d):
            want = brute_monomial_expansion(basis, lam) if basis != "e" else None
            got = dict(sf._to_m_row(basis, lam))
            if want is not None:
                want = {k: v for k, v in want.items() if v != 0}
                assert got == want
            # e is checked through the involution h <-> e on small degrees
    # spot value: e_2 = m_{11}
    assert dict(sf._to_m_row("e", (2,))) == {(1, 1): Fraction(1)}


def test_schur_conversion_known_values():
    s21 = sf.SymFunc("s", {(2, 1): 1})
    assert sf.convert_basis(s21, "m").terms == {(2, 1): Fraction(1), (1, 1, 1): Fraction(2)}
    s11 = sf.SymFunc("s", {(1, 1): 1})
    assert sf.convert_basis(s11, "h").terms == {(1, 1): Fraction(1), (2,): Fraction(-1)}


def test_roundtrips_all_bases():
    for src in ("m", "h", "p", "e", "s"):
        for d in range(1, 5):
            for lam in partitions(d):
                f = sf.SymFunc(src, {lam: Fraction(3, 2)})
                for dst in ("m", "h", "p", "e", "s"):
                    g = sf.convert_basis(sf.convert_basis(f, dst), src)
                    assert g.terms == f.terms, (src, dst, lam)


def test_degree_bound_enforced():
    big = sf.SymFunc("h", {(9,): 1})
    with pytest.raises(BoundExceededError):
        sf.convert_basis(big, "m")


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
    for d in range(1, 6):
        for mu in partitions(d):
            conv = dict(sf.h_to_p(mu))
            via_m = sf.convert_basis(sf.SymFunc("h", {mu: 1}), "p").terms
            assert conv == via_m


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
