"""Bruhat operators: letters, Dunkl, MN trees, divided differences on words."""

from fractions import Fraction

import pytest

from flagops import afperm as ap
from flagops import bruhat_ops as bo
from flagops import nilcox as nc
from flagops import strongorder as so
from flagops.partitions import compositions_of_partition, partitions

A = nc.basis_element


def brute_dunkl(x, i, span=4):
    """Dunkl action by scanning all letters through i in a large box."""
    n = x.n
    out = nc.zero(n)
    for j in range(i - span * n, i + span * n + 1):
        if (j - i) % n == 0:
            continue
        letter = (i, j) if i < j else (j, i)
        sign = 1 if i < j else -1
        out = out + bo.act_letter(x, letter, sign)
    return out


def test_act_letter_examples():
    s0 = ap.simple(3, 0)
    assert bo.act_letter(A(s0), (0, 1)) == nc.unit(3)
    assert bo.act_letter(nc.unit(3), (0, 1)).is_zero()
    assert bo.act_letter(A(ap.simple(3, 1)), (0, 1)).is_zero()
    # [j i] = -[i j]
    assert bo.act_letter(A(s0), (1, 0)) == nc.unit(3).scale(-1)


def test_act_dunkl_examples():
    assert bo.act_dunkl(nc.unit(3), 0).is_zero()
    assert bo.act_dunkl(A(ap.simple(3, 1)), 1) == nc.unit(3)
    assert bo.act_dunkl(A(ap.simple(3, 1)), 0).is_zero()


def test_act_dunkl_matches_brute_force():
    for l in range(5):
        for w in ap.elements_of_length(3, l):
            for i in (-1, 0, 1, 2, 3):
                assert bo.act_dunkl(A(w), i) == brute_dunkl(A(w), i)


def test_dunkl_shift_periodicity():
    for l in range(5):
        for w in ap.elements_of_length(3, l):
            for i in range(3):
                assert bo.act_dunkl(A(w), i) == bo.act_dunkl(A(w), i + 3)


def test_dunkl_power_examples():
    for w in ap.elements_of_length(3, 2):
        for i in range(3):
            assert bo.act_dunkl_power(A(w), i, 3).is_zero()
            assert bo.act_dunkl_power(A(w), i, 4).is_zero()
    assert bo.act_dunkl_power(nc.unit(3), 0, 1).is_zero()


def test_dunkl_power_matches_chain_oracle():
    for l in range(6):
        for w in ap.elements_of_length(3, l):
            for i in range(3):
                for m in (1, 2):
                    assert bo.act_dunkl_power(A(w), i, m) == bo.dunkl_chain_oracle(
                        A(w), i, m
                    )


def test_act_mn_examples():
    assert bo.act_mn(nc.unit(3), 1, 0).is_zero()
    assert bo.act_mn(A(ap.simple(3, 0)), 1, 0) == nc.unit(3)
    assert bo.act_mn(A(ap.from_reduced_word(3, [1, 0])), 2, 0) == nc.unit(3)
    with pytest.raises(ValueError):
        bo.act_mn(nc.unit(3), 3, 0)
    with pytest.raises(ValueError):
        bo.act_mn(nc.unit(3), 0, 0)


def test_mn_chain_class_details():
    # the unique degree-2 chain class from s1 s0 at anchor 0
    terms = bo.mn_chain_terms(ap.from_reduced_word(3, [1, 0]), 2, 0)
    assert len(terms) == 1
    word, sign, end = terms[0]
    assert word == ((0, 2), (0, 1))
    assert sign == 1 and end == ap.identity(3)


def test_tree_from_boxes():
    t = bo.tree_from_boxes(((0, 2), (0, 1)), 3, 0)
    assert t is not None and t.c == 1 and t.support == (0, 1, 2)
    # repeated box: not a tree
    assert bo.tree_from_boxes(((0, 1), (0, 1)), 3, 0) is None
    # disconnected
    assert bo.tree_from_boxes(((0, 1), (-1, 2)), 4, 0) is None
    # repeated residue among vertices
    assert bo.tree_from_boxes(((0, 1), (0, 4)), 3, 0) is None
    # box outside the strip
    assert bo.tree_from_boxes(((1, 2),), 3, 0) is None


def test_admissibility_pattern_variants_agree():
    """Splitting at c and at c - 1 select the same admissible labeling classes."""
    import itertools

    n, a = 4, 0
    box_pool = [(x, y) for x in range(-4, 1) for y in range(1, 5) if (x - y) % n]
    seen = 0
    for boxes in itertools.combinations(box_pool, 3):
        tree = bo.tree_from_boxes(boxes, n, a)
        if tree is None:
            continue
        seen += 1
        for word in itertools.permutations(boxes):
            split_before_c = any(
                bo._pattern_split_ok(v, tree.c - 1) for v in bo._commutation_orbit(word)
            )
            assert bo.class_is_admissible(word, tree.c) == split_before_c
        if seen > 60:
            break
    assert seen > 10


def test_paper_example_chains_n4():
    target = ap.from_reduced_word(4, [1, 0])
    cases = [
        ([1, 2, 3, 1, 0], ((-2, 1), (-4, 1), (-1, 1)), 1),
        ([2, 0, 3, 1, 0], ((-4, 1), (-1, 2), (-1, 1)), -1),
        ([0, 3, 2, 1, 0], ((0, 6), (0, 5), (0, 3)), 1),
    ]
    for word, chain, sign in cases:
        w = ap.from_reduced_word(4, word)
        assert bo.act_word(A(w), chain) == A(target)
        hits = [
            (wd, s)
            for wd, s, end in bo.mn_chain_terms(w, 3, 0)
            if end == target
        ]
        assert hits == [(min(bo._commutation_orbit(chain)), sign)]


def test_telescoping_and_vanishing():
    for l in range(5):
        for w in ap.elements_of_length(3, l):
            x = A(w)
            for m in (1, 2):
                for i in (-1, 0, 1, 2):
                    assert bo.act_mn(x, m, i) + bo.act_dunkl_power(x, i + 1, m) == bo.act_mn(
                        x, m, i + 1
                    )
            total = nc.zero(3)
            for i in range(1, 4):
                total = total + bo.act_dunkl_power(x, i, 2)
            assert total.is_zero()


def test_cyclic_class_sums_vanish():
    for l in range(4):
        for w in ap.elements_of_length(3, l):
            for bs in ((1,), (2,), (1, 2), (2, 1), (4, 2)):
                assert bo.act_cyclic_sum(A(w), 0, bs).is_zero()


def test_mn_on_h_elements():
    for n in (2, 3, 4):
        for i in range(1, n):
            for m in range(1, i + 1):
                for a in range(n):
                    assert bo.act_mn(nc.h_element(n, i), m, a) == nc.h_element(n, i - m)


def test_word_divided_difference_examples():
    one = bo.word_divided_difference({((0, 1),): Fraction(1)}, 0, 1, 3)
    assert one == {(): Fraction(1)}
    assert bo.word_divided_difference({((2, 3),): Fraction(1)}, 0, 1, 3) == {}
    leib = bo.word_divided_difference({((0, 1), (2, 3)): Fraction(1)}, 0, 1, 3)
    assert leib == {((2, 3),): Fraction(1)}
    # shift-equality of letters: [3,4] = [0,1] in degree one
    assert bo.word_divided_difference({((3, 4),): Fraction(1)}, 0, 1, 3) == {(): Fraction(1)}


def test_twist_word_signs():
    word, sign = bo.twist_word(((0, 1),), 0, 1, 3)
    assert word == ((0, 1),) and sign == -1  # t_{01} maps [0,1] to [1,0] = -[0,1]
    # 3 = 0 mod 3, so t_{01} sends the endpoint 3 to 4
    word, sign = bo.twist_word(((2, 3),), 0, 1, 3)
    assert word == ((2, 4),) and sign == 1


def test_chain_layer_stays_on_int_coefficients():
    # a stray Fraction accumulator gives equal results, only slower, and the
    # constructors hand back ints either way: so pin the output types and
    # count every Fraction built while the chain layer runs
    n = 4
    elements = [w for l in range(5) for w in ap.elements_of_length(n, l)]
    assert len(elements) == 69
    built = []
    original = Fraction.__dict__["__new__"]

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting_new)
    try:
        h = {mu: nc.h_product(n, mu) for d in range(5) for mu in partitions(d, n - 1)}
        outputs = list(h.values())
        outputs += [nc.noncommutative_k_schur(n, lam) for lam in h]
        for w in elements:
            x = A(w)
            outputs += [nc.multiply(x, A(v)) for v in elements[:15]]
            outputs += [nc.multiply(x, y) for y in h.values()]
            for i in range(n):
                outputs.append(bo.act_dunkl(x, i))
                for m in range(1, n):
                    outputs.append(bo.act_mn(x, m, i))
                    outputs.append(bo.act_dunkl_power(x, i, m))
                    outputs.append(bo.dunkl_chain_oracle(x, i, m))
                    for lam in partitions(m):
                        outputs += [so.bss_apply(x, J, i) for J in compositions_of_partition(lam)]
    finally:
        Fraction.__new__ = original
    assert Fraction(1, 2) + Fraction(1, 2) == 1  # the class works again
    assert built == []
    assert sum(not y.is_zero() for y in outputs) > 1000
    for y in outputs:
        assert all(type(c) is int for c in y.terms.values()), y
