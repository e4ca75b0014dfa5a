"""R_n: normal form, Weyl action, divided differences, Schubert calculus."""

import itertools
import random
from fractions import Fraction

import pytest

from flagops import afperm as ap
from flagops import nilcox as nc
from flagops import schubert as sr
from flagops import strongorder as so
from flagops import symfunc as sf
from flagops import verify
from flagops.errors import InternalInconsistencyError, ModulusMismatchError
from flagops.partitions import partitions
from rref_oracle import rref
from schubert_oracle import bgg_expansion, strip_lift
from schubert_oracle import structure_constants as bgg_structure_constants

A = nc.basis_element
HALF = Fraction(1, 2)


def test_normal_form_examples():
    x = [sr.x_gen(3, i) for i in range(3)]
    assert (x[0] + x[1] + x[2]).is_zero()
    assert (sr.x_gen(2, 1) * sr.x_gen(2, 1)).is_zero()
    p1 = sr.p_gen(3, 1)
    assert p1.terms == {((1,), (0, 0, 0)): Fraction(1)}
    # x_1^2 = -x_0^2 - x_0 x_1 (from e_1, e_2)
    sq = sr.x_gen(3, 1) * sr.x_gen(3, 1)
    assert sq.terms == {
        ((), (2, 0, 0)): Fraction(-1),
        ((), (1, 1, 0)): Fraction(-1),
    }


def test_normal_form_idempotent_and_staircase():
    rng_terms = {
        ((2, 1), (0, 2, 1)): Fraction(3),
        ((), (3, 0, 0)): Fraction(1, 2),
    }
    f = sr.RnElement(3, rng_terms)
    for (_, xpart) in f.terms:
        assert all(xpart[i] <= 3 - 1 - i for i in range(3))
    again = sr.RnElement(3, dict(f.terms))
    assert again == f


def test_multiply_examples():
    assert (sr.p_gen(2, 1) * sr.p_gen(2, 1)).terms == {((1, 1), (0, 0)): Fraction(1)}
    assert (sr.p_gen(3, 2) * sr.p_gen(3, 2)).terms == {((2, 2), (0, 0, 0)): Fraction(1)}
    with pytest.raises(ModulusMismatchError):
        sr.p_gen(2, 1) * sr.p_gen(3, 1)


def test_weyl_action_examples():
    # s_1(x_1) = x_2 = -x_0 - x_1 in normal form
    assert sr.weyl_action(1, sr.x_gen(3, 1)) == sr.x_gen(3, 2)
    got = sr.weyl_action(0, sr.p_gen(3, 2))
    expect = sr.p_gen(3, 2) + sr.x_gen(3, 1) * sr.x_gen(3, 1) - sr.x_gen(3, 0) * sr.x_gen(3, 0)
    assert got == expect
    assert sr.weyl_action(2, sr.p_gen(3, 1)) == sr.p_gen(3, 1)


def test_weyl_action_is_involutive_automorphism():
    f = sr.affine_schubert(ap.from_reduced_word(3, [2, 1]))
    g = sr.affine_schubert(ap.from_reduced_word(3, [1, 0]))
    for i in range(3):
        assert sr.weyl_action(i, sr.weyl_action(i, f)) == f
        assert sr.weyl_action(i, f * g) == sr.weyl_action(i, f) * sr.weyl_action(i, g)


def test_divided_difference_examples():
    assert sr.divided_difference(0, sr.p_gen(3, 1)) == sr.unit(3)
    assert sr.divided_difference(1, sr.p_gen(3, 1) + sr.x_gen(3, 1)) == sr.unit(3)
    f = (sr.p_gen(3, 1) * sr.p_gen(3, 1) + sr.p_gen(3, 2)).scale(HALF)
    assert sr.divided_difference(0, f) == sr.p_gen(3, 1) + sr.x_gen(3, 1)


def test_divided_difference_via_definition():
    """(x_i - x_{i+1}) * dd_i(f) = f - s_i(f) for assorted f.

    ``weyl_action`` is built from this identity, so s_i comes from the
    independent Leibniz oracle below.
    """
    samples = [
        sr.p_gen(3, 2),
        sr.x_gen(3, 0) * sr.x_gen(3, 0),
        sr.affine_schubert(ap.from_reduced_word(3, [2, 1])),
        sr.affine_schubert(ap.from_reduced_word(3, [1, 0])) * sr.x_gen(3, 1),
    ]
    for f in samples:
        for i in range(3):
            lhs = (sr.x_gen(3, i) - sr.x_gen(3, (i + 1) % 3)) * sr.divided_difference(i, f)
            assert lhs == f - leibniz_weyl_action(i, f)


def test_schubert_table_n3():
    p1, p2 = sr.p_gen(3, 1), sr.p_gen(3, 2)
    x1, x2 = sr.x_gen(3, 1), sr.x_gen(3, 2)
    assert sr.affine_schubert(ap.identity(3)) == sr.unit(3)
    assert sr.affine_schubert(ap.simple(3, 0)) == p1
    assert sr.affine_schubert(ap.simple(3, 1)) == p1 + x1
    assert sr.affine_schubert(ap.simple(3, 2)) == p1 + x1 + x2
    assert sr.affine_schubert(ap.from_reduced_word(3, [1, 0])) == (p1 * p1 + p2).scale(HALF)
    assert sr.affine_schubert(ap.from_reduced_word(3, [2, 1])) == (
        (p1 + x1) * (p1 + x1) + p2 + x1 * x1
    ).scale(HALF)
    cubic = sr.affine_schubert(ap.from_reduced_word(3, [2, 1, 0]))
    assert cubic.terms == {
        ((2, 1), (0, 0, 0)): Fraction(1, 2),
        ((1, 1, 1), (0, 0, 0)): Fraction(1, 6),
    }


def test_schubert_n2_towers():
    p1, x1 = sr.p_gen(2, 1), sr.x_gen(2, 1)
    w21 = ap.from_reduced_word(2, [0, 1])
    assert sr.affine_schubert(w21) == (p1 * p1).scale(HALF) + p1 * x1
    w30 = ap.from_reduced_word(2, [0, 1, 0])
    assert sr.affine_schubert(w30) == (p1 * p1 * p1).scale(Fraction(1, 6))


def test_defining_recursion():
    for l in range(5):
        for w in ap.elements_of_length(3, l):
            Sw = sr.affine_schubert(w)
            for i in range(3):
                moved = w.times_s(i)
                got = sr.divided_difference(i, Sw)
                if moved.length == w.length - 1:
                    assert got == sr.affine_schubert(moved)
                else:
                    assert got.is_zero()


def test_schubert_basis_and_dimensions():
    for n in (2, 3):
        for d in range(6):
            basis = sr.schubert_basis(n, d)
            assert len(basis.elements) == sr.rn_dimension(n, d)
            assert len(basis.elements) == len(ap.elements_of_length(n, d))
    b = sr.schubert_basis(2, 2)
    assert [w.reduced_word() for w in b.elements] == [(1, 0), (0, 1)]


def test_structure_constants_examples():
    s0 = ap.simple(2, 0)
    table = sr.structure_constants(s0, s0)
    assert table == {ap.from_reduced_word(2, [1, 0]): Fraction(2)}
    # unit rule
    for w in ap.elements_of_length(3, 3):
        assert sr.structure_constants(ap.identity(3), w) == {w: Fraction(1)}


def test_structure_constants_symmetry_and_positivity():
    for lu in range(3):
        for u in ap.elements_of_length(3, lu):
            for lv in range(3):
                for v in ap.elements_of_length(3, lv):
                    t1 = sr.structure_constants(u, v)
                    t2 = sr.structure_constants(v, u)
                    assert t1 == t2
                    for c in t1.values():
                        assert c.denominator == 1 and c >= 0


def test_cap_examples():
    s0 = ap.simple(3, 0)
    x = A(s0)
    assert sr.cap_apply(ap.identity(3), x) == x
    assert sr.cap_apply(s0, x) == nc.unit(3)
    got = sr.cap_apply(ap.rho_element(3, 0, 2), A(ap.from_reduced_word(3, [1, 0])))
    assert got == nc.unit(3)


def test_cap_equals_bss_small():
    for m in (1, 2):
        for i in range(m):
            rho = ap.rho_element(3, i, m)
            J = (m - i,) + (1,) * i
            for l in range(5):
                for w in ap.elements_of_length(3, l):
                    assert sr.cap_apply(rho, A(w)) == so.bss_apply(A(w), J, 0)


def test_xi_class():
    signed, rep, sym = sr.xi_class(3, 1)
    assert signed == [(1, ap.simple(3, 0))]
    assert rep == sr.p_gen(3, 1)
    assert sym.terms == {(1,): Fraction(1)}
    signed, rep, sym = sr.xi_class(3, 2)
    assert [(s, w.reduced_word()) for s, w in signed] == [(1, (1, 0)), (-1, (2, 0))]
    assert rep == sr.affine_schubert(ap.from_reduced_word(3, [1, 0])) - sr.affine_schubert(
        ap.from_reduced_word(3, [2, 0])
    )
    assert sym.terms == {(2,): Fraction(1)}


def test_symmetric_part_is_stanley():
    for l in range(5):
        for w in ap.elements_of_length(3, l):
            assert sr.symmetric_part(sr.affine_schubert(w)).terms == sf.affine_stanley_p(w).terms


def test_json_roundtrip():
    f = sr.affine_schubert(ap.from_reduced_word(3, [2, 1]))
    assert sr.RnElement.from_json(f.to_json()) == f


def test_constructor_rejects_malformed_x_parts():
    # too short, negative, too long for n = 3: the normal form reads exactly
    # n non-negative exponents, and the operator memos rely on it
    for x_part in ((1,), (-1, 0, 0), (0, 0, 0, 5)):
        with pytest.raises(ValueError, match="x part"):
            sr.RnElement(3, {((), x_part): 1})
        data = {"n": 3, "terms": [{"p": [], "x": list(x_part), "coeff": "1"}]}
        with pytest.raises(ValueError, match="x part"):
            sr.RnElement.from_json(data)


# -- slow oracles: the row-reduced normal form, dense expansion, per-w cap rows


def rref_reduction_table(n, d):
    """Degree-d x-monomial -> staircase normal form, by row-reducing the
    degree-d slice of <e_1..e_n> with the non-staircase monomials first."""
    mons = sr._monomials(n, d)
    stair = {m for m in mons if all(m[i] <= n - 1 - i for i in range(n))}
    non_stair = [m for m in mons if m not in stair]
    cols = non_stair + [m for m in mons if m in stair]
    col_idx = {m: i for i, m in enumerate(cols)}
    rows = []
    for j in range(1, min(n, d) + 1):
        for alpha in sr._monomials(n, d - j):
            row = [Fraction(0)] * len(cols)
            for combo in itertools.combinations(range(n), j):
                mono = tuple(a + (i in combo) for i, a in enumerate(alpha))
                row[col_idx[mono]] += 1
            rows.append(row)
    red, pivots = rref(rows)
    assert pivots == list(range(len(non_stair)))
    table = {m: {m: Fraction(1)} for m in stair}
    for r, m in enumerate(non_stair):
        table[m] = {
            cols[c]: -red[r][c] for c in range(len(non_stair), len(cols)) if red[r][c] != 0
        }
    return table


def _monomials_of_degree(n, d):
    """The normal-form monomials (p_part, x_part) of R_n in degree d."""
    return [
        (lam, stair)
        for a in range(d + 1)
        for lam in partitions(a, n - 1)
        for stair in sr._staircase_monomials(n, d - a)
    ]


def dense_expander(basis):
    """Dense expansion: solve M^T c = f by rref of [M^T | f], M the Schubert
    polynomials of the basis elements on the normal-form monomials."""
    monomials = _monomials_of_degree(basis.n, basis.degree)
    col_idx = {m: i for i, m in enumerate(monomials)}
    m = len(basis.elements)
    assert len(monomials) == m
    transpose = [[Fraction(0)] * m for _ in monomials]
    for j, w in enumerate(basis.elements):
        for key, c in sr.affine_schubert(w).terms.items():
            transpose[col_idx[key]][j] = c

    def expand(f):
        aug = [row + [f.terms.get(key, Fraction(0))] for row, key in zip(transpose, monomials)]
        red, pivots = rref(aug)
        if m in pivots:
            raise InternalInconsistencyError("element is outside the Schubert span")
        assert pivots == list(range(m))
        return {basis.elements[j]: red[j][m] for j in range(m) if red[j][m] != 0}

    return expand


def test_groebner_normal_form_matches_rref_table():
    checked = 0
    for n in (2, 3, 4):
        for d in range(8):
            for mono, expected in rref_reduction_table(n, d).items():
                assert sr._x_normal_form(n, mono) == expected, (n, mono)
                checked += 1
    assert checked == 36 + 120 + 330


def _elements_up_to(n, top):
    return [w for l in range(top + 1) for w in ap.elements_of_length(n, l)]


def test_sparse_expand_matches_dense():
    pairs = [
        (u, v)
        for u, v in itertools.combinations_with_replacement(_elements_up_to(3, 6), 2)
        if u.length + v.length <= 6
    ]
    n4 = _elements_up_to(4, 2)
    pairs += [(u, v) for u in n4 for v in n4 if u.length + v.length <= 3]
    pairs += [(ap.rho_element(4, i, 2), v) for i in range(2) for v in ap.elements_of_length(4, 2)]
    oracles = {}
    for u, v in pairs:
        f = sr.affine_schubert(u) * sr.affine_schubert(v)
        basis = sr.schubert_basis(u.n, u.length + v.length)
        key = (basis.n, basis.degree)
        if key not in oracles:
            oracles[key] = dense_expander(basis)
        expected = oracles[key](f)
        got = basis.expand(f)
        assert got == expected, (u, v)
        assert list(got) == [w for w in basis.elements if w in got]
        assert sr.structure_constants(u, v) == expected, (u, v)


def test_structure_constants_match_bgg_operators():
    """Every (u, v) with l(u) + l(v) <= 6 at n = 3 and <= 5 at n = 4, read
    by divided differences alone, against the expansion in the Schubert basis."""
    pairs = 0
    for n, top in ((3, 6), (4, 5)):
        elements = _elements_up_to(n, top)
        for u in elements:
            for v in elements:
                if u.length + v.length <= top:
                    assert sr.structure_constants(u, v) == bgg_structure_constants(u, v), (u, v)
                    pairs += 1
    assert pairs == 2026


def test_bgg_expansion_reads_a_sum_of_schubert_polynomials():
    n, d = 4, 3
    ws = ap.elements_of_length(n, d)
    coeffs = {w: Fraction(k - 3, 2) for k, w in enumerate(ws[:7])}
    f = sr.RnElement(n)
    for w, c in coeffs.items():
        f = f + sr.affine_schubert(w).scale(c)
    assert bgg_expansion(f, d) == {w: c for w, c in coeffs.items() if c}


def _canonical(c):
    return type(c) is type(sr.RnElement.exact(c))


def test_expansion_coefficients_are_canonical():
    # every coefficient follows LinearCombination's one rule: an int when
    # integral (no Fraction(1, 1)), else a Fraction
    s0, s2 = ap.simple(3, 0), ap.simple(3, 2)
    assert type(sr.structure_constants(s0, s2)[ap.AffinePermutation(3, (-1, 3, 4))]) is int
    checked = 0
    for u in _elements_up_to(3, 5):
        for v in _elements_up_to(3, 5 - u.length):
            for c in sr.structure_constants(u, v).values():
                assert _canonical(c), (u, v, c)
                checked += 1
    assert checked == 1243
    f = sr.affine_schubert(s0) * sr.affine_schubert(s2)
    for g in (f, f.scale(HALF), f.scale(3)):
        assert all(_canonical(c) for c in sr.schubert_basis(3, 2).expand(g).values())


def test_expand_rescales_for_denominators():
    # the residual's denominator grows when some c * D / D_w is not an
    # integer: a scaled element, and a sum whose terms have other denominators
    for n, d in ((3, 4), (4, 3)):
        basis = sr.schubert_basis(n, d)
        for w in basis.elements:
            f = sr.affine_schubert(w) + sr.affine_schubert(basis.elements[0])
            seventh = {v: sr.RnElement.exact(Fraction(c, 7)) for v, c in basis.expand(f).items()}
            assert basis.expand(f.scale(Fraction(1, 7))) == seventh, w
    # S_(1,0) - S_(2,0) at n = 3 is p_2 + ...: halves in each term, none in the sum
    a, b = ap.from_reduced_word(3, [1, 0]), ap.from_reduced_word(3, [2, 0])
    assert sr._schubert_numerators(a)[0] == sr._schubert_numerators(b)[0] == 2
    f = sr.affine_schubert(a) - sr.affine_schubert(b)
    assert all(type(c) is int for c in f.terms.values())
    assert sr.schubert_basis(3, 2).expand(f) == {a: 1, b: -1}
    g = f.scale(Fraction(1, 3)) + sr.affine_schubert(a).scale(Fraction(2, 5))
    assert sr.schubert_basis(3, 2).expand(g) == {a: Fraction(11, 15), b: Fraction(-1, 3)}


def test_expansion_leaves_the_numerator_memo_unchanged():
    u, v = ap.from_reduced_word(4, [1, 0]), ap.from_reduced_word(4, [3, 2, 0])
    basis = sr.schubert_basis(4, 5)
    f = sr.affine_schubert(u) * sr.affine_schubert(v)
    before = {w: (D, dict(terms)) for w, (D, terms) in sr._numerators.items()}
    got = basis.expand(f.scale(Fraction(1, 3)))
    assert sr.structure_constants(u, v) == {w: 3 * c for w, c in got.items()}
    assert {w: (D, dict(terms)) for w, (D, terms) in sr._numerators.items()} == before


def test_expand_raises_on_perturbed_basis(monkeypatch):
    # expand reads each row from the numerator memo: a row that no longer
    # matches the basis it was checked in must leave a nonzero residual
    basis = sr.schubert_basis(3, 2)
    w = basis.elements[0]
    f = sr.affine_schubert(w)
    assert basis.expand(f) == {w: 1}
    D, terms = sr._schubert_numerators(w)
    (key, c), *rest = terms.items()
    changed = {key: c + D, **dict(rest)}
    outside = next(m for m in _monomials_of_degree(3, 2) if m not in terms)
    added = {**terms, outside: D}
    s = [ap.simple(3, i) for i in range(3)]
    u, v = next((u, v) for u in s for v in s if w in sr.structure_constants(u, v))
    for bad in (changed, added):
        monkeypatch.setitem(sr._numerators, w, (D, bad))
        with pytest.raises(InternalInconsistencyError):
            basis.expand(f)
        with pytest.raises(InternalInconsistencyError):
            sr.structure_constants(u, v)


def _clear_schubert_memos():
    """Forget every Schubert polynomial, chain intermediate, finite block and basis built so far."""
    sr._numerators.clear()
    sr._finite_block.cache_clear()
    sr.schubert_basis.cache_clear()
    sr._cap_table.cache_clear()


def _numerators_with(monkeypatch, swap):
    """Make ``_schubert_numerators`` answer for w what the real one gives for swap(w)."""
    real = sr._schubert_numerators
    monkeypatch.setattr(sr, "_schubert_numerators", lambda w: real(swap(w)))


def test_schubert_basis_rejects_dependent_polynomials(monkeypatch):
    elements = ap.elements_of_length(3, 2)
    _numerators_with(monkeypatch, lambda w: elements[0] if w == elements[1] else w)
    _clear_schubert_memos()
    try:
        with pytest.raises(InternalInconsistencyError, match="linearly dependent"):
            sr.schubert_basis(3, 2)
    finally:
        _clear_schubert_memos()


def test_schubert_basis_rejects_singular_finite_block(monkeypatch):
    elements = ap.elements_of_length(3, 2)
    finite = [w for w in elements if w.is_finite()]
    _numerators_with(monkeypatch, lambda w: finite[1] if w == finite[0] else w)
    _clear_schubert_memos()
    try:
        with pytest.raises(InternalInconsistencyError, match="linearly dependent") as info:
            sr.schubert_basis(3, 2)
    finally:
        _clear_schubert_memos()
    witness = info.value.witness
    assert set(witness) == {"n", "d", "w", "w0", "w1"}
    assert (witness["n"], witness["d"], witness["w0"]) == (3, 2, [1, 2, 3])
    assert witness["w1"] in [list(w.window) for w in finite[:2]]


def test_singular_finite_block_names_its_own_degree(monkeypatch):
    # every w = w0 * finite[0] reads the polynomial of w0 * finite[1], so the
    # product theorem holds and only the degree-2 finite block is singular;
    # schubert_basis(3, 3) reaches it first at its level a = 1
    finite = [w for w in ap.elements_of_length(3, 2) if w.is_finite()]

    def swap(w):
        w0, w1 = ap.grassmannian_factorize(w)
        return w0 * finite[1] if w1 == finite[0] else w

    _numerators_with(monkeypatch, swap)
    _clear_schubert_memos()
    try:
        with pytest.raises(InternalInconsistencyError, match="degree 2 is singular") as info:
            sr.schubert_basis(3, 3)
        report = verify.run_suite("dimensions", n=3)
    finally:
        _clear_schubert_memos()
    witness = info.value.witness
    assert (witness["n"], witness["d"], witness["w0"]) == (3, 2, [1, 2, 3])
    assert witness["w"] == witness["w1"] in [list(w.window) for w in finite]
    result = next(c for c in report.checks if c.name.startswith("graded-dimension"))
    assert (result.status, result.witness) == ("fail", witness)


def test_dimensions_suite_reports_dependence_witness(monkeypatch):
    elements = ap.elements_of_length(3, 2)
    _numerators_with(monkeypatch, lambda w: elements[0] if w == elements[1] else w)
    _clear_schubert_memos()
    try:
        report = verify.run_suite("dimensions", n=3)
    finally:
        _clear_schubert_memos()
    assert not report.passed
    result = next(c for c in report.checks if c.name.startswith("graded-dimension"))
    assert result.status == "fail"
    w0, w1 = ap.grassmannian_factorize(elements[1])
    assert result.witness == {
        "n": 3,
        "d": 2,
        "w": list(elements[1].window),
        "w0": list(w0.window),
        "w1": list(w1.window),
    }


def test_product_theorem_is_checked_exactly(monkeypatch):
    # (K D_w, K N_w) is the same S_w for every w; a check that went through
    # floats would lose the last digits of K N_w and reject the basis
    K = 10**17 + 1
    real = sr._schubert_numerators

    def scaled(w):
        D, terms = real(w)
        return K * D, {key: K * c for key, c in terms.items()}

    monkeypatch.setattr(sr, "_schubert_numerators", scaled)
    _clear_schubert_memos()
    try:
        for n, d in ((3, 3), (4, 4)):
            assert len(sr.schubert_basis(n, d).elements) == sr.rn_dimension(n, d)
    finally:
        _clear_schubert_memos()


def test_finite_blocks_are_built_once_and_shared(monkeypatch):
    # S_4 has lengths 0..6: seven finite blocks serve every level of d <= 6
    calls = []
    real = sr.rref

    def counting(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(sr, "rref", counting)
    _clear_schubert_memos()
    try:
        for d in range(7):
            sr.schubert_basis(4, d)
        assert len(calls) == 7
        (one,) = (lv for lv in sr.schubert_basis(4, 5).levels if lv.p_degree == 1)
        (zero,) = (lv for lv in sr.schubert_basis(4, 4).levels if lv.p_degree == 0)
        assert one.inverse is zero.inverse
        assert [w.length for w in one.members[0]] == [5] * len(one.inverse)
    finally:
        _clear_schubert_memos()


def test_schubert_basis_checks_duality_per_level(monkeypatch):
    # F~_(2) + F~_(1,1) in place of F~_(2): the affine Schur functions of
    # degree 2 stay independent but are no longer dual to the k-Schur ones
    real = sf.affine_schur_p

    def fake(n, lam):
        f = real(n, lam)
        return f + real(n, (1, 1)) if (n, lam) == (3, (2,)) else f

    w0 = list(ap.partition_to_grassmannian(3, (2,)).window)
    expected = {"n": 3, "d": 2, "w": w0, "w0": w0, "w1": [1, 2, 3]}
    monkeypatch.setattr(sr, "affine_schur_p", fake)
    _clear_schubert_memos()
    try:
        with pytest.raises(InternalInconsistencyError, match="linearly dependent") as info:
            sr.schubert_basis(3, 2)
        report = verify.run_suite("dimensions", n=3)
    finally:
        _clear_schubert_memos()
    assert "not Hall-dual" in str(info.value)
    assert info.value.witness == expected
    result = next(c for c in report.checks if c.name.startswith("graded-dimension"))
    assert (result.status, result.witness) == ("fail", expected)


def _tensor_part(n, w):
    """F~_lam(w0) (x) low(S_w1): the product of the affine Schur function of
    w0 and the p-free part of the Schubert polynomial of w1, as R_n terms."""
    w0, w1 = ap.grassmannian_factorize(w)
    low = {x: c for (p, x), c in sr.affine_schubert(w1).terms.items() if p == ()}
    f = sf.affine_schur_p(n, ap.grassmannian_to_partition(w0))
    return w0.length, sr.RnElement(
        n, {(alpha, x): c * c2 for alpha, c in f.terms.items() for x, c2 in low.items()}
    )


def test_product_theorem_lowest_p_degree_part():
    for n, top in ((3, 6), (4, 5)):
        for w in _elements_up_to(n, top):
            a, expected = _tensor_part(n, w)
            terms = sr.affine_schubert(w).terms
            assert all(sum(p) >= a for p, _ in terms), w
            lowest = sr.RnElement(n, {key: c for key, c in terms.items() if sum(key[0]) == a})
            assert lowest == expected, w


def test_level_coefficients_are_canonical():
    # the stored duals and inverse blocks follow the ring's one coefficient
    # rule, LinearCombination.exact: an int when integral, else a Fraction
    for n in (3, 4):
        for d in range(6):
            for level in sr.schubert_basis(n, d).levels:
                values = [c for dual in level.duals for _, c in dual]
                values += [c for _, row in level.inverse for _, c in row]
                assert values, (n, d, level.p_degree)
                for c in values:
                    assert type(c) is (int if c.denominator == 1 else Fraction), (n, d, c)


def test_expand_round_trips_random_combinations():
    rng = random.Random(90210)
    for n, d in ((3, 5), (4, 4)):
        basis = sr.schubert_basis(n, d)
        for _ in range(5):
            coeffs = {w: Fraction(rng.randint(-4, 4)) for w in basis.elements}
            f = sr.RnElement(n)
            for w, c in coeffs.items():
                f = f + sr.affine_schubert(w).scale(c)
            assert basis.expand(f) == {w: c for w, c in coeffs.items() if c != 0}, (n, d)


def test_cap_table_matches_per_w_rows():
    products = {}

    def cap_row(u, w):
        """Pairs (v, p^w_{u,v}) over v of length l(w) - l(u), one w at a time."""
        out = []
        for v in ap.elements_of_length(3, w.length - u.length):
            if (u, v) not in products:
                products[u, v] = sr.structure_constants(u, v)
            c = products[u, v].get(w, Fraction(0))
            if c != 0:
                out.append((v, c))
        return tuple(out)

    for lw in range(6):
        for u in _elements_up_to(3, lw):
            table = sr._cap_table(u, lw)
            ws = ap.elements_of_length(3, lw)
            assert set(table) <= set(ws)
            for w in ws:
                assert table.get(w, ()) == cap_row(u, w), (u, w)


# -- slow oracle: the Weyl action and divided differences by the twisted
# Leibniz rule, one normalised RnElement product per generator power


def _term_factors(n, p_part, x_part):
    for m in p_part:
        yield ("p", m)
    for i, e in enumerate(x_part):
        if e:
            yield ("x", i, e)


def _x_power(n, i, e):
    expo = [0] * n
    expo[i] = e
    return sr.RnElement(n, {((), tuple(expo)): Fraction(1)})


def _s_factor(n, i, factor):
    if factor[0] == "p":
        m = factor[1]
        if i == 0:
            return sr.p_gen(n, m) + _x_power(n, 1 % n, m) - _x_power(n, 0, m)
        return sr.p_gen(n, m)
    _, j, e = factor
    return _x_power(n, (j + 1) % n if j == i else (j - 1) % n if j == (i + 1) % n else j, e)


def _d_factor(n, i, factor):
    """Divided difference of a single generator power."""
    if factor[0] == "p":
        m = factor[1]
        if i != 0:
            return sr.RnElement(n)
        out = sr.RnElement(n)
        for t in range(m):
            out = out + _x_power(n, 1 % n, m - 1 - t) * _x_power(n, 0, t)
        return out
    _, j, e = factor
    ip1 = (i + 1) % n
    if j == i:
        out = sr.RnElement(n)
        for t in range(e):
            out = out + _x_power(n, ip1, t) * _x_power(n, i, e - 1 - t)
        return out
    if j == ip1:
        out = sr.RnElement(n)
        for t in range(e):
            out = out + _x_power(n, i, t) * _x_power(n, ip1, e - 1 - t)
        return -out
    return sr.RnElement(n)


def _factor_element(n, factor):
    if factor[0] == "p":
        return sr.p_gen(n, factor[1])
    _, j, e = factor
    return _x_power(n, j, e)


def leibniz_weyl_action(i, f):
    n = f.n
    i = i % n
    out = sr.RnElement(n)
    for (p_part, x_part), c in f.terms.items():
        term = sr.unit(n).scale(c)
        for factor in _term_factors(n, p_part, x_part):
            term = term * _s_factor(n, i, factor)
        out = out + term
    return out


def leibniz_divided_difference(i, f):
    n = f.n
    i = i % n
    out = sr.RnElement(n)
    for (p_part, x_part), c in f.terms.items():
        factors = list(_term_factors(n, p_part, x_part))
        prefix = sr.unit(n).scale(c)  # s_i of everything to the left
        for b, factor in enumerate(factors):
            d = _d_factor(n, i, factor)
            if not d.is_zero():
                tail = sr.unit(n)
                for g in factors[b + 1 :]:
                    tail = tail * _factor_element(n, g)
                out = out + prefix * d * tail
            prefix = prefix * _s_factor(n, i, factor)
    return out


def _normal_form_monomials(n, top):
    return [mono for d in range(top + 1) for mono in _monomials_of_degree(n, d)]


def test_tabulated_operators_match_leibniz_oracle():
    # every normal-form monomial of degree <= 6 at n = 2, 3, 4, and a seeded
    # sample of them at n = 5
    cases = [(n, mono) for n in (2, 3, 4) for mono in _normal_form_monomials(n, 6)]
    assert len(cases) == sum(sr.rn_dimension(n, d) for n in (2, 3, 4) for d in range(7))
    cases += [(5, mono) for mono in random.Random(16).sample(_normal_form_monomials(5, 6), 60)]
    for n, mono in cases:
        f = sr.RnElement(n, {mono: Fraction(3, 2)})
        for i in range(n):
            assert sr.divided_difference(i, f) == leibniz_divided_difference(i, f), (n, i, mono)
            assert sr.weyl_action(i, f) == leibniz_weyl_action(i, f), (n, i, mono)


def test_operator_memos_hold_only_normal_form_monomials(monkeypatch):
    # record every call of the memoised operator from an empty memo on, so
    # that the recorded arguments are exactly the memo's keys (weyl_action
    # reads d_i too)
    n = 4
    memo = sr._dd_monomial
    memo.cache_clear()
    calls = {}

    def recording(*args):
        calls[args] = memo(*args)
        return calls[args]

    monkeypatch.setattr(sr, "_dd_monomial", recording)
    _clear_schubert_memos()
    try:
        for w in _elements_up_to(n, 6):
            f = sr.affine_schubert(w)
            for i in range(n):
                sr.weyl_action(i, f)
    finally:
        _clear_schubert_memos()

    def normal(p_part, x_part):
        return (
            list(p_part) == sorted(p_part, reverse=True)
            and all(0 < p < n for p in p_part)
            and len(x_part) == n
            and all(0 <= e < n - j for j, e in enumerate(x_part))
        )

    assert len(calls) == memo.cache_info().currsize > 0
    for (nn, i, p_part, x_part), image in calls.items():
        assert nn == n and 0 <= i < n and normal(p_part, x_part), (p_part, x_part)
        for (p, x), c in image:
            assert normal(p, x) and type(c) is int and c != 0, (p_part, x_part, p, x)


def test_affine_schubert_matches_leibniz_oracle():
    elements = _elements_up_to(3, 6)
    assert len(elements) == 64
    for w in elements:
        assert sr.affine_schubert(w) == strip_lift(w, leibniz_divided_difference), w


def test_affine_schubert_matches_strip_oracle():
    for n in (2, 3, 4):
        for w in _elements_up_to(n, 6):
            got = sr.affine_schubert(w)
            assert got == strip_lift(w), w
            assert all(
                type(c) is (int if c.denominator == 1 else Fraction) and c != 0
                for c in got.terms.values()
            ), w
    rng = random.Random(5)
    for w in rng.sample(_elements_up_to(5, 6), 40):
        assert sr.affine_schubert(w) == strip_lift(w), w


def test_chain_stops_at_nearest_memoised_element():
    # u = w s_0 lies one right ascent above w, so once S_u is memoised the
    # chain of w is the single step S_w = d_0 S_u
    w = ap.from_reduced_word(3, [0, 2])
    u = w.times_s(0)
    assert u.length == w.length + 1
    _clear_schubert_memos()
    try:
        sr.affine_schubert(u)
        before = set(sr._numerators)
        assert sr.affine_schubert(w) == strip_lift(w)
        assert set(sr._numerators) - before == {w}
    finally:
        _clear_schubert_memos()


def test_affine_schubert_independent_of_evaluation_order():
    # a chain climbs to the nearest element that is memoised or
    # 0-Grassmannian, so the three orders fill different memos, with
    # different chain tops and denominators D: descending order often finds
    # a longer element already known a step or two up, ascending order only
    # the intermediates that shorter chains left; a shuffle mixes both, and
    # the polynomials must not depend on any of it
    elements = _elements_up_to(4, 6) + random.Random(7).sample(_elements_up_to(5, 6), 30)
    shuffled = random.Random(8).sample(elements, len(elements))
    orders = [
        sorted(elements, key=lambda w: w.length),
        sorted(elements, key=lambda w: -w.length),
        shuffled,
    ]
    results = []
    for ordered in orders:
        _clear_schubert_memos()
        results.append({w: sr.affine_schubert(w) for w in ordered})
    _clear_schubert_memos()
    for w in elements:
        assert results[0][w] == results[1][w] == results[2][w], w
