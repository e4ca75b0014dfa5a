"""R_n: normal form, Weyl action, divided differences, Schubert calculus."""

import dataclasses
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
from schubert_oracle import strip_lift

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
    """(x_i - x_{i+1}) * dd_i(f) = f - s_i(f) for assorted f."""
    samples = [
        sr.p_gen(3, 2),
        sr.x_gen(3, 0) * sr.x_gen(3, 0),
        sr.affine_schubert(ap.from_reduced_word(3, [2, 1])),
        sr.affine_schubert(ap.from_reduced_word(3, [1, 0])) * sr.x_gen(3, 1),
    ]
    for f in samples:
        for i in range(3):
            lhs = (sr.x_gen(3, i) - sr.x_gen(3, (i + 1) % 3)) * sr.divided_difference(i, f)
            assert lhs == f - sr.weyl_action(i, f)


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


def dense_expander(basis):
    """Dense expansion: solve M^T c = f by rref of [M^T | f], M the Schubert rows."""
    col_idx = {m: i for i, m in enumerate(basis.monomials)}
    m = len(basis.elements)
    transpose = [[Fraction(0)] * m for _ in basis.monomials]
    for j, row in enumerate(basis.rows):
        for key, c in row:
            transpose[col_idx[key]][j] = c

    def expand(f):
        aug = [row + [f.terms.get(key, Fraction(0))] for row, key in zip(transpose, basis.monomials)]
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
                assert sr.reduce_x_monomial(n, mono) == expected, (n, mono)
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
        got = basis.expand(f)
        assert got == oracles[key](f), (u, v)
        assert list(got) == [w for w in basis.elements if w in got]


def test_expand_raises_on_perturbed_basis():
    basis = sr.schubert_basis(3, 2)
    f = sr.affine_schubert(basis.elements[0])
    assert basis.expand(f) == {basis.elements[0]: 1}
    (key, c), *rest = basis.rows[0]
    changed = ((key, c + 1), *rest)
    outside = next(m for m in basis.monomials if m not in f.terms)
    added = basis.rows[0] + ((outside, Fraction(1)),)
    for row in (changed, added):
        bad = dataclasses.replace(basis, rows=(row,) + basis.rows[1:])
        with pytest.raises(InternalInconsistencyError):
            bad.expand(f)


def test_schubert_basis_rejects_dependent_polynomials(monkeypatch):
    elements = ap.elements_of_length(3, 2)
    shared = sr.affine_schubert(elements[0])
    real = sr.affine_schubert

    def fake(w):
        return shared if w == elements[1] else real(w)

    sr.schubert_basis.cache_clear()
    monkeypatch.setattr(sr, "affine_schubert", fake)
    try:
        with pytest.raises(InternalInconsistencyError, match="linearly dependent"):
            sr.schubert_basis(3, 2)
    finally:
        sr.schubert_basis.cache_clear()


def test_schubert_basis_rejects_singular_finite_block(monkeypatch):
    elements = ap.elements_of_length(3, 2)
    finite = [w for w in elements if w.is_finite()]
    shared = sr.affine_schubert(finite[1])
    real = sr.affine_schubert

    def fake(w):
        return shared if w == finite[0] else real(w)

    sr.schubert_basis.cache_clear()
    monkeypatch.setattr(sr, "affine_schubert", fake)
    try:
        with pytest.raises(InternalInconsistencyError, match="linearly dependent") as info:
            sr.schubert_basis(3, 2)
    finally:
        sr.schubert_basis.cache_clear()
    witness = info.value.witness
    assert set(witness) == {"n", "d", "w", "w0", "w1"}
    assert (witness["n"], witness["d"], witness["w0"]) == (3, 2, [1, 2, 3])
    assert witness["w1"] in [list(w.window) for w in finite[:2]]


def test_dimensions_suite_reports_dependence_witness(monkeypatch):
    elements = ap.elements_of_length(3, 2)
    shared = sr.affine_schubert(elements[0])
    real = sr.affine_schubert

    def fake(w):
        return shared if w == elements[1] else real(w)

    sr.schubert_basis.cache_clear()
    monkeypatch.setattr(sr, "affine_schubert", fake)
    try:
        report = verify.run_suite("dimensions", n=3)
    finally:
        sr.schubert_basis.cache_clear()
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


def _clear_schubert_memos():
    """Forget every Schubert polynomial, chain intermediate and basis built so far."""
    sr.affine_schubert.cache_clear()
    sr._numerators.clear()
    sr.schubert_basis.cache_clear()
    sr._cap_table.cache_clear()


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


def test_tabulated_operators_match_leibniz_oracle():
    checked = 0
    for n in (2, 3, 4):
        for d in range(7):
            for a in range(d + 1):
                for lam in partitions(a, n - 1):
                    for stair in sr._staircase_monomials(n, d - a):
                        f = sr.RnElement(n, {(lam, stair): Fraction(3, 2)})
                        for i in range(n):
                            assert sr.divided_difference(i, f) == leibniz_divided_difference(
                                i, f
                            ), (n, i, lam, stair)
                            assert sr.weyl_action(i, f) == leibniz_weyl_action(i, f), (
                                n, i, lam, stair,
                            )
                        checked += 1
    assert checked == sum(sr.rn_dimension(n, d) for n in (2, 3, 4) for d in range(7))


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


def test_affine_schubert_independent_of_evaluation_order():
    # a chain stops at the first memoised element, which another chain top
    # may have left there: ascending order reuses the tails of short lifts,
    # descending order the intermediates of long ones; a shuffle mixes both
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
