"""Strong-order label paths: BSS operators, ribbons, tableaux, characters."""

import pytest
from fractions import Fraction

from flagops import afperm as ap
from flagops import bruhat_ops as bo
from flagops import nilcox as nc
from flagops import strongorder as so
from flagops import symfunc as sf
from flagops.partitions import compositions_of_partition, partitions

A = nc.basis_element


def test_ascent_composition():
    assert so.ascent_composition([2, 1]) == (2,)
    assert so.ascent_composition([1, 2, 3]) == (1, 1, 1)
    assert so.ascent_composition([3, 1, 2]) == (2, 1)
    assert so.ascent_composition([5]) == (1,)
    # equal labels do not ascend
    assert so.ascent_composition([2, 2, 1]) == (3,)
    with pytest.raises(ValueError):
        so.ascent_composition([])


def test_bss_examples():
    assert so.bss_apply(nc.unit(3), (1,), 0).is_zero()
    s1s0 = ap.from_reduced_word(3, [1, 0])
    assert so.bss_apply(A(s1s0), (2,), 0) == nc.unit(3)
    assert so.bss_apply(A(s1s0), (1, 1), 0).is_zero()


def test_bss_brute_force_by_paths():
    """Independent path enumeration with explicit ascent compositions."""

    def paths(w, length, a):
        if length == 0:
            yield [], w
            return
        for cov in w.marked_covers(a):
            for labs, end in paths(cov.lower, length - 1, a):
                yield [cov.label] + labs, end

    for l in range(5):
        for w in ap.elements_of_length(3, l):
            for d in range(1, 4):
                buckets = {}
                for labs, end in paths(w, d, 0):
                    J = so.ascent_composition(labs)
                    buckets.setdefault(J, nc.zero(3))
                    buckets[J] = buckets[J] + A(end)
                for lam in partitions(d):
                    for J in compositions_of_partition(lam):
                        got = so.bss_apply(A(w), J, 0)
                        want = buckets.get(J, nc.zero(3))
                        assert got == want, (w.window, J)


def test_composition_recursion():
    for J in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 1, 1)):
        head, tail = J[0], J[1:]
        for l in range(5):
            for w in ap.elements_of_length(3, l):
                x = A(w)
                lhs = so.bss_apply(x, J, 0)
                rhs = so.bss_apply(so.bss_apply(x, tail, 0), (head,), 0) - so.bss_apply(
                    x, (head + tail[0],) + tail[1:], 0
                )
                assert lhs == rhs


def test_ribbons_examples():
    assert so.ribbons(ap.identity(3), 1) == ()
    s1s0 = ap.from_reduced_word(3, [1, 0])
    rib = so.ribbons(s1s0, 2)
    assert len(rib) == 1
    assert rib[0].word == ((0, 2), (0, 1))
    assert rib[0].sign == 1
    assert rib[0].outside == ap.identity(3)
    with pytest.raises(ValueError):
        so.ribbons(s1s0, 3)


def test_ribbons_list_the_mn_chain_classes():
    for n in (3, 4):
        for l in range(6):
            for w in ap.elements_of_length(n, l):
                for m in range(1, n):
                    got = [
                        (min(bo._commutation_orbit(r.word)), r.sign, r.outside)
                        for r in so.ribbons(w, m)
                    ]
                    assert got == list(bo.mn_chain_terms(w, m, 0)), (w, m)


def _clear_chain_memos():
    for mod in (bo, so):
        for fn in vars(mod).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()


def test_one_chain_search_per_w_m_a(monkeypatch):
    """act_mn, mn_chain_terms, ribbons and mn_coefficient on one (w, m) at
    anchor 0 share a single chain-class search."""
    real = bo.tree_from_boxes
    calls = []

    def counting(boxes, n, a):
        calls.append(boxes)
        return real(boxes, n, a)

    monkeypatch.setattr(bo, "tree_from_boxes", counting)
    w = ap.from_reduced_word(4, [0, 3, 2, 1, 0])
    target = ap.from_reduced_word(4, [1, 0])
    _clear_chain_memos()
    try:
        bo.act_mn(A(w), 3, 0)
        one_search = len(calls)
        assert one_search > 0
        calls.clear()
        _clear_chain_memos()
        bo.act_mn(A(w), 3, 0)
        bo.mn_chain_terms(w, 3, 0)
        so.ribbons(w, 3)
        so.mn_coefficient(w, 3, target)
        assert len(calls) == one_search
    finally:
        _clear_chain_memos()


def test_ribbons_paper_example_n4():
    w = ap.from_reduced_word(4, [0, 3, 2, 1, 0])
    target = ap.from_reduced_word(4, [1, 0])
    hits = [r for r in so.ribbons(w, 3) if r.outside == target]
    assert [(r.word, r.sign) for r in hits] == [(((0, 6), (0, 5), (0, 3)), 1)]


def test_mn_coefficient():
    s1s0 = ap.from_reduced_word(3, [1, 0])
    assert so.mn_coefficient(s1s0, 2, ap.identity(3)) == 1
    for m in (1, 2):
        for l in range(3):
            for v in ap.elements_of_length(3, l):
                assert so.mn_coefficient(ap.identity(3), m, v) == 0
    # signed counts reproduce the MN operator
    for l in range(5):
        for w in ap.elements_of_length(3, l):
            for m in (1, 2):
                img = bo.act_mn(A(w), m, 0)
                for v in ap.elements_of_length(3, l - m) if l >= m else ():
                    assert img.coeff(v) == so.mn_coefficient(w, m, v)


def test_paper_trio_signs():
    target = ap.from_reduced_word(4, [1, 0])
    words = ([1, 2, 3, 1, 0], [2, 0, 3, 1, 0], [0, 3, 2, 1, 0])
    signs = (1, -1, 1)
    for word, sign in zip(words, signs):
        assert so.mn_coefficient(ap.from_reduced_word(4, word), 3, target) == sign


def test_ribbon_tableaux_examples():
    idw = ap.identity(3)
    t = so.ribbon_tableaux(idw, ())
    assert len(t) == 1 and t[0].sigma == 1 and t[0].weight == ()
    s1s0 = ap.from_reduced_word(3, [1, 0])
    t11 = so.ribbon_tableaux(s1s0, (1, 1))
    assert len(t11) == 1 and t11[0].sigma == 1
    assert [c.outside.window for c in t11[0].chains] == [(0, 2, 4), (1, 2, 3)]
    t2 = so.ribbon_tableaux(s1s0, (2,))
    assert len(t2) == 1 and t2[0].sigma == 1
    with pytest.raises(ValueError):
        so.ribbon_tableaux(s1s0, (1,))


def test_k_schur_via_ribbons_examples():
    s1s0 = ap.from_reduced_word(3, [1, 0])
    f = so.k_schur_via_ribbons(s1s0)
    assert f.terms == {(2,): Fraction(1, 2), (1, 1): Fraction(1, 2)}
    s2s0 = ap.from_reduced_word(3, [2, 0])
    f = so.k_schur_via_ribbons(s2s0)
    assert f.terms == {(2,): Fraction(-1, 2), (1, 1): Fraction(1, 2)}
    assert so.k_schur_via_ribbons(ap.simple(3, 0)).terms == {(1,): Fraction(1)}
    with pytest.raises(ValueError):
        so.k_schur_via_ribbons(ap.simple(3, 1))


def test_k_schur_via_ribbons_matches_elimination():
    for n in (3, 4):
        for d in range(1, 5):
            for lam in partitions(d, n - 1):
                u = ap.partition_to_grassmannian(n, lam)
                assert so.k_schur_via_ribbons(u).terms == sf.k_schur_p(n, lam).terms


def test_character_weight_order_invariance():
    for d in range(2, 5):
        for lam in partitions(d, 2):
            u = ap.partition_to_grassmannian(3, lam)
            for mu in partitions(d, 2):
                vals = {c: so.tableau_character(u, c) for c in compositions_of_partition(mu)}
                assert len(set(vals.values())) == 1


def test_serialization():
    s1s0 = ap.from_reduced_word(3, [1, 0])
    blob = so.ribbons(s1s0, 2)[0].to_json()
    assert blob["sigma"] == 1
    assert blob["chain"][0]["index"] == [0, 2]
    t = so.ribbon_tableaux(s1s0, (1, 1))[0].to_json()
    assert t["weight"] == [1, 1] and t["sigma"] == 1
