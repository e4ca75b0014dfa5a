"""Verification suites: machine checks of the operator identities.

Each suite runs a list of named checks and returns a VerificationReport;
a failing check carries a minimal witness (the n, m, a, w, or (u, v, w)
that broke).  All iteration orders are canonical and the sampled checks use
fixed seeds, so reports are deterministic.

A check is a generator function: it yields a failure witness (a dict) for
each case that breaks and yields nothing when every case holds; the report
keeps the first witness.  Every check is one row of the table ``CHECKS``,
which names its suite, the n it runs at and its bounds at each n; a check
function reads every n and bound it iterates over from its arguments.
"""

from __future__ import annotations

import time
from collections import namedtuple
from fractions import Fraction
from functools import partial
from math import factorial

from . import bruhat_ops as bo
from . import nilcox as nc
from . import schubert as sr
from . import strongorder as so
from . import symfunc as sf
from .afperm import (
    elements_of_length,
    from_reduced_word,
    partition_to_grassmannian,
    rho_element,
    simple,
)
from .partitions import compositions_of_partition, partitions
from .errors import BoundExceededError, FlagopsError, InternalInconsistencyError


class CheckResult(namedtuple("CheckResult", "name status witness")):
    """One named check: ``status`` is "pass", or "fail" with a witness dict (else None)."""

    __slots__ = ()

    def to_json(self):
        out = {"name": self.name, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class VerificationReport(namedtuple("VerificationReport", "suite params checks flags wall_time_s")):
    """One suite run: its CheckResults and interpretive flags, in order."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_json(self):
        return {
            "suite": self.suite,
            "params": self.params,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
            "flags": list(self.flags),
            "wall_time_s": round(self.wall_time_s, 3),
        }


def _elements_upto(n, lmax):
    for l in range(lmax + 1):
        yield from elements_of_length(n, l)


def _basis_upto(n, lmax):
    for w in _elements_upto(n, lmax):
        yield w, nc.basis_element(w)


def _alternating_routes(n, m, x, route):
    total = nc.zero(n)
    for i in range(m):
        if route == "bss":
            term = so.bss_apply(x, (m - i,) + (1,) * i, 0)
        else:
            term = sr.cap_apply(rho_element(n, i, m), x)
        total = total + (term if i % 2 == 0 else -term)
    return total


# ---------------------------------------------------------------------------
# checks: a check that follows --n takes one n, a check at fixed n takes the
# tuple ns of the n it runs at; each then takes its case and its bounds


def _routes_agree(n, m, l):
    for w, x in _basis_upto(n, l):
        a = bo.act_mn(x, m, 0)
        b = _alternating_routes(n, m, x, "bss")
        c = _alternating_routes(n, m, x, "cap")
        if not (a == b == c):
            yield {"n": n, "m": m, "w": list(w.window)}


def _cap_equals_bss(n, m, i, l):
    rho = rho_element(n, i, m)
    J = (m - i,) + (1,) * i
    for w, x in _basis_upto(n, l):
        if sr.cap_apply(rho, x) != so.bss_apply(x, J, 0):
            yield {"n": n, "m": m, "i": i, "w": list(w.window)}


def _composition_recursion(ns, l, size):
    comps = [c for d in range(2, size + 1) for lam in partitions(d)
             for c in compositions_of_partition(lam) if len(c) >= 2]
    for n in ns:
        for J in sorted(set(comps)):
            for w, x in _basis_upto(n, l):
                lhs = so.bss_apply(x, J, 0)
                head, tail = J[0], J[1:]
                rhs = so.bss_apply(so.bss_apply(x, tail, 0), (head,), 0)
                rhs = rhs - so.bss_apply(x, (head + tail[0],) + tail[1:], 0)
                if lhs != rhs:
                    yield {"J": list(J), "w": list(w.window)}


def _deg1_mn_covers_cap(n, a, l):
    for w, x in _basis_upto(n, l):
        mn = bo.act_mn(x, 1, a)
        covers = {}
        for cov in w.marked_covers(a):
            covers[cov.lower] = covers.get(cov.lower, 0) + 1
        if mn != nc.NilCoxElement(n, covers) or mn != sr.cap_apply(simple(n, a), x):
            yield {"n": n, "a": a, "w": list(w.window)}


def _mn_difference_is_dunkl(n, a, l):
    for w, x in _basis_upto(n, l):
        lhs = bo.act_mn(x, 1, a + 1) - bo.act_mn(x, 1, a)
        if lhs != bo.act_dunkl(x, a + 1):
            yield {"n": n, "a": a, "w": list(w.window)}


def _mn_on_h(n):
    for i in range(1, n):
        for m in range(1, i + 1):
            for a in range(n):
                if bo.act_mn(nc.h_element(n, i), m, a) != nc.h_element(n, i - m):
                    yield {"n": n, "i": i, "m": m, "a": a}


def _pass_through(ns, l, finite_l):
    for n in ns:
        finite = [w for w in _elements_upto(n, finite_l) if w.is_finite()]
        for w, x in _basis_upto(n, l):
            for wp in finite:
                y = nc.basis_element(wp)
                for m in range(1, n):
                    if bo.act_mn(x * y, m, 0) != bo.act_mn(x, m, 0) * y:
                        yield {"w": list(w.window), "w'": list(wp.window), "m": m}


def _leibniz(ns, l, d):
    for n in ns:
        for e in range(d + 1):
            for mu in partitions(e, n - 1):
                h = nc.h_product(n, mu)
                for w, x in _basis_upto(n, l):
                    for m in range(1, n):
                        lhs = bo.act_mn(h * x, m, 0)
                        rhs = bo.act_mn(h, m, 0) * x + h * bo.act_mn(x, m, 0)
                        if lhs != rhs:
                            yield {"mu": list(mu), "w": list(w.window), "m": m}


def _dunkl_commute(n, l):
    for w, x in _basis_upto(n, l):
        for i in range(n):
            for j in range(i + 1, n):
                a = bo.act_dunkl(bo.act_dunkl(x, i), j)
                b = bo.act_dunkl(bo.act_dunkl(x, j), i)
                if a != b:
                    yield {"n": n, "i": i, "j": j, "w": list(w.window)}


def _dunkl_mn_commute(n, l):
    for w, x in _basis_upto(n, l):
        for i in range(n):
            for m in range(1, n):
                a = bo.act_mn(bo.act_dunkl(x, i), m, 0)
                b = bo.act_dunkl(bo.act_mn(x, m, 0), i)
                if a != b:
                    yield {"n": n, "i": i, "m": m, "w": list(w.window)}


def _mn_mn_commute(n, l):
    for w, x in _basis_upto(n, l):
        for m1 in range(1, n):
            for m2 in range(m1 + 1, n):
                a = bo.act_mn(bo.act_mn(x, m1, 0), m2, 0)
                b = bo.act_mn(bo.act_mn(x, m2, 0), m1, 0)
                if a != b:
                    yield {"n": n, "m1": m1, "m2": m2, "w": list(w.window)}


def _period_sum(n, l):
    for w, x in _basis_upto(n, l):
        for m in range(1, n + 1):
            total = nc.zero(n)
            for i in range(1, n + 1):
                total = total + bo.act_dunkl_power(x, i, m)
            if not total.is_zero():
                yield {"n": n, "m": m, "w": list(w.window)}


def _high_power(n, l):
    for w, x in _basis_upto(n, l):
        for i in range(n):
            for m in (n, n + 1):
                if not bo.act_dunkl_power(x, i, m).is_zero():
                    yield {"n": n, "i": i, "m": m, "w": list(w.window)}


def _chain_oracle(n, l):
    for w, x in _basis_upto(n, l):
        for i in range(n):
            for m in range(1, n):
                if bo.act_dunkl_power(x, i, m) != bo.dunkl_chain_oracle(x, i, m):
                    yield {"n": n, "i": i, "m": m, "w": list(w.window)}


def _cyclic(n, l, size):
    tuples = []
    for s in range(1, min(n, size + 1)):
        base = tuple(range(1, s + 1))
        tuples.append(base)
        tuples.append(tuple(reversed(base)))
        tuples.append(tuple(b + n for b in base))
    for w, x in _basis_upto(n, l):
        for bs in tuples:
            if len({b % n for b in bs}) != len(bs) or 0 in {b % n for b in bs}:
                continue
            if not bo.act_cyclic_sum(x, 0, bs).is_zero():
                yield {"n": n, "a": 0, "bs": list(bs), "w": list(w.window)}


def _telescope(n, l):
    for w, x in _basis_upto(n, l):
        for m in range(1, n):
            for i in range(-1, n):
                lhs = bo.act_mn(x, m, i) + bo.act_dunkl_power(x, i + 1, m)
                if lhs != bo.act_mn(x, m, i + 1):
                    yield {"n": n, "m": m, "i": i, "w": list(w.window)}


def _table_rows_n3():
    """The seven-row table of Schubert representatives for n = 3."""
    n = 3
    p1, p2 = sr.p_gen(n, 1), sr.p_gen(n, 2)
    x1, x2 = sr.x_gen(n, 1), sr.x_gen(n, 2)
    half = Fraction(1, 2)
    return [
        ((), sr.unit(n)),
        ((0,), p1),
        ((1,), p1 + x1),
        ((2,), p1 + x1 + x2),
        ((1, 0), (p1 * p1 + p2).scale(half)),
        ((2, 1), ((p1 + x1) * (p1 + x1) + p2 + x1 * x1).scale(half)),
        # the printed cubic row carries a p_3 term, which is 0 in the quotient
        ((2, 1, 0), sr.from_symfunc_p(n, sf.project_to_quotient(
            sf.SymFunc("p", {(3,): Fraction(1, 3), (2, 1): Fraction(1, 2), (1, 1, 1): Fraction(1, 6)}),
            n - 1,
        ))),
    ]


def _table_n3(ns):
    for n in ns:
        for word, expected in _table_rows_n3():
            w = from_reduced_word(n, word)
            if sr.affine_schubert(w) != expected:
                yield {"n": n, "word": list(word)}


def _family_n2(ns, l):
    for n in ns:
        x1 = sr.x_gen(n, 1)
        for a in range(1, l + 1):
            grass = _p_power(n, a).scale(Fraction(1, factorial(a)))
            one_grass = grass + _p_power(n, a - 1).scale(Fraction(1, factorial(a - 1))) * x1
            w0 = _unique_grassmannian(n, a, 0)
            w1 = _unique_grassmannian(n, a, 1)
            if sr.affine_schubert(w0) != grass:
                yield {"n": n, "a": a, "family": 0}
            elif sr.affine_schubert(w1) != one_grass:
                yield {"n": n, "a": a, "family": 1}


def _p_power(n, e):
    out = sr.unit(n)
    for _ in range(e):
        out = out * sr.p_gen(n, 1)
    return out


def _unique_grassmannian(n, a, i):
    """The unique i-Grassmannian element of length a (n = 2 towers)."""
    found = [
        w
        for w in elements_of_length(n, a)
        if all((not w.has_right_ascent(j)) == (j == i) for j in range(n))
    ]
    if len(found) != 1:
        raise FlagopsError(f"expected a unique {i}-Grassmannian element of length {a}")
    return found[0]


def _worked_example(ns):
    for n in ns:
        target = from_reduced_word(n, [1, 0])
        data = [
            ([1, 2, 3, 1, 0], ((-2, 1), (-4, 1), (-1, 1)), 1),
            ([2, 0, 3, 1, 0], ((-4, 1), (-1, 2), (-1, 1)), -1),
            ([0, 3, 2, 1, 0], ((0, 6), (0, 5), (0, 3)), 1),
        ]
        for word, chain_word, sign in data:
            w = from_reduced_word(n, word)
            hits = [
                r
                for r in so.ribbons(w, 3)
                if r.outside == target and r.canon == min(bo._commutation_orbit(chain_word))
            ]
            if len(hits) != 1 or hits[0].sign != sign:
                yield {"word": word, "chain": [list(b) for b in chain_word]}
            elif so.mn_coefficient(w, 3, target) != sign:
                yield {"word": word, "coefficient": "mismatch"}


def _stanley_identity(ns):
    for n in ns:
        v = from_reduced_word(n, [1, 0])
        lhs = sf.project_to_quotient(sf.SymFunc("p", {(3,): 1}, 3) * sf.affine_stanley_p(v), 3)
        rhs = (
            sf.affine_stanley_p(from_reduced_word(n, [1, 2, 3, 1, 0]))
            - sf.affine_stanley_p(from_reduced_word(n, [2, 0, 3, 1, 0]))
            + sf.affine_stanley_p(from_reduced_word(n, [0, 3, 2, 1, 0]))
        )
        if lhs.terms != rhs.terms:
            yield {"identity": "p3 * F_{s1s0}"}


def _mn_rule_ring(ns, l):
    for n in ns:
        for lv in range(l + 1):
            for v in elements_of_length(n, lv):
                Sv = sr.affine_schubert(v)
                for m in range(1, n):
                    _, rep, _ = sr.xi_class(n, m)
                    exp = sr.schubert_basis(n, lv + m).expand(rep * Sv)
                    for w in elements_of_length(n, lv + m):
                        if exp.get(w, 0) != so.mn_coefficient(w, m, v):
                            yield {"v": list(v.window), "m": m, "w": list(w.window)}


def _mn_rule_stanley(ns, l):
    for n in ns:
        k = n - 1
        for lv in range(l + 1):
            for v in elements_of_length(n, lv):
                Fv = sf.affine_stanley_p(v)
                for m in range(1, n):
                    lhs = sf.project_to_quotient(sf.SymFunc("p", {(m,): 1}, k) * Fv, k)
                    rhs = sf.SymFunc("p", {}, k)
                    for w in elements_of_length(n, lv + m):
                        c = so.mn_coefficient(w, m, v)
                        if c:
                            rhs = rhs + sf.affine_stanley_p(w).scale(c)
                    if lhs.terms != rhs.terms:
                        yield {"v": list(v.window), "m": m}


def _xi_projects_to_p(ns):
    for n in ns:
        for m in range(1, n):
            _, _, sym = sr.xi_class(n, m)
            if sym.terms != {(m,): 1}:
                yield {"n": n, "m": m}


def _ribbon_formula(n, d):
    for e in range(1, d + 1):
        for lam in partitions(e, n - 1):
            u = partition_to_grassmannian(n, lam)
            if so.k_schur_via_ribbons(u).terms != sf.k_schur_p(n, lam).terms:
                yield {"n": n, "lam": list(lam)}


def _hall_duality(ns, d):
    for n in ns:
        for e in range(1, d + 1):
            for lam in partitions(e, n - 1):
                for mu in partitions(e, n - 1):
                    v = sf.hall_inner(sf.affine_schur_p(n, lam), sf.k_schur(n, mu))
                    if v != (1 if lam == mu else 0):
                        yield {"n": n, "lam": list(lam), "mu": list(mu)}


def _stanley_grassmannian(ns, d):
    for n in ns:
        for e in range(1, d + 1):
            for lam in partitions(e, n - 1):
                u = partition_to_grassmannian(n, lam)
                if sf.affine_stanley_p(u).terms != sf.affine_schur_p(n, lam).terms:
                    yield {"n": n, "lam": list(lam)}


def _weight_invariance(ns, d):
    for n in ns:
        for e in range(1, d + 1):
            for lam in partitions(e, n - 1):
                u = partition_to_grassmannian(n, lam)
                for mu in partitions(e, n - 1):
                    vals = {
                        comp: so.tableau_character(u, comp)
                        for comp in compositions_of_partition(mu)
                    }
                    if len(set(vals.values())) != 1:
                        yield {"u": list(lam), "weight": list(mu)}


def _graded_dimension(n, d):
    for e in range(d + 1):
        count = len(elements_of_length(n, e))
        dim = sr.rn_dimension(n, e)
        if count != dim:
            yield {"n": n, "d": e, "count": count, "dim": dim}
            continue
        try:
            basis = sr.schubert_basis(n, e)
        except InternalInconsistencyError as exc:
            if exc.witness is None:
                raise
            yield exc.witness
            continue
        if len(basis.elements) != count:
            yield {"n": n, "d": e, "count": count, "basis": len(basis.elements)}


def _symmetric_projection(n, l):
    for w in _elements_upto(n, l):
        got = sr.symmetric_part(sr.affine_schubert(w)).terms
        if got != sf.affine_stanley_p(w).terms:
            yield {"w": list(w.window)}


def _positive(n, l):
    for lu in range(l + 1):
        for u in elements_of_length(n, lu):
            for lv in range(l - lu + 1):
                for v in elements_of_length(n, lv):
                    for w, c in sorted(
                        sr.structure_constants(u, v).items(),
                        key=lambda t: t[0].window,
                    ):
                        if c.denominator != 1 or c < 0:
                            yield {"n": n, "u": list(u.window), "v": list(v.window),
                                   "w": list(w.window), "value": str(c)}


def _bgg_words(ns, l, d):
    import random  # here, not at the top: only the sampled checks draw

    for n in ns:
        rng = random.Random(20240811)
        letters = [
            (a, b)
            for a in range(-3, 4)
            for b in range(a + 1, a + 7)
            if (a - b) % n != 0 and b <= 6
        ]
        words = []
        for _ in range(24):
            deg = rng.randint(1, d)
            words.append(tuple(rng.choice(letters) for _ in range(deg)))
        for word in sorted(set(words)):
            ws = {word: 1}
            for i in range(n):
                dws = bo.word_divided_difference(ws, i, i + 1, n)
                Ai = nc.basis_element(simple(n, i))
                for w, x in _basis_upto(n, l):
                    shifted = x * Ai
                    lhs = (
                        nc.coeff_of_identity(bo.act_word_sum(shifted, ws))
                        if not shifted.is_zero()
                        else 0
                    )
                    rhs = nc.coeff_of_identity(bo.act_word_sum(x, dws))
                    if lhs != rhs:
                        yield {"word": [list(letter) for letter in word], "i": i, "w": list(w.window)}


def _dd_relations(ns, d):
    import random  # here, not at the top: only the sampled checks draw

    for n in ns:
        rng = random.Random(99173)
        for trial in range(10):
            terms = {}
            for _ in range(6):
                d1 = rng.randint(0, d)
                lam = rng.choice(partitions(d1, n - 1)) if d1 > 0 else ()
                stair = tuple(rng.randint(0, n - 1 - i) for i in range(n))
                terms[(tuple(lam), stair)] = rng.randint(-3, 3)
            f = sr.RnElement(n, terms)
            for i in range(n):
                if not sr.divided_difference(i, sr.divided_difference(i, f)).is_zero():
                    yield {"relation": "square", "i": i, "trial": trial}
            for i in range(n):
                j = (i + 1) % n
                a = sr.divided_difference(i, sr.divided_difference(j, sr.divided_difference(i, f)))
                b = sr.divided_difference(j, sr.divided_difference(i, sr.divided_difference(j, f)))
                if a != b:
                    yield {"relation": "braid", "i": i, "j": j, "trial": trial}


def _defining_property(ns, l):
    # affine_schubert builds S_w as d_i S_{w s_i} for the one letter i
    # that its chain takes from w towards the nearest memoised or
    # 0-Grassmannian element, so there the recursion holds by
    # construction; at every other descent of w it is a real check
    for n in ns:
        for w in _elements_upto(n, l):
            Sw = sr.affine_schubert(w)
            for i in range(n):
                moved = w.times_s(i)
                got = sr.divided_difference(i, Sw)
                if moved.length == w.length - 1:
                    broken = got != sr.affine_schubert(moved)
                else:
                    broken = not got.is_zero()
                if broken:
                    yield {"w": list(w.window), "i": i}


# ---------------------------------------------------------------------------
# the check table

NS = (2, 3, 4, 5, 6)  # every n the table has a scale at
_DEFAULT_NS = (2, 3, 4)


class Bound(namedtuple("Bound", "option default ceiling", defaults=(None,))):
    """A bound that `option` ("max_length" or "max_degree") can move.

    `default` holds while the option is unset.  With a `ceiling`, a set
    option replaces the default at every n the row runs at, and a value
    above the ceiling at that n is refused: the request would outrun the
    CLI's budget.  Without one, the option can only lower the default.
    `default` and `ceiling` are each an int or a per-n dict.
    """

    __slots__ = ()


class Check(namedtuple("Check", "suite name test each at cases bounds")):
    """One row of the check table.

    The row makes one check per n of `each` (the default n; a requested --n
    replaces them), or one check over the fixed tuple `at`, whatever --n is.
    `cases(n)` lists case dicts, one check each (default: one, empty).
    `bounds` maps argument names of `test` to an int, a per-n dict (a row
    that follows --n exists only at the n it names) or a Bound.  `name` is
    formatted with n (for a fixed row, its first n), the case and the bounds.
    """

    __slots__ = ()


def _row(suite, name, test, each=None, at=None, cases=None, **bounds):
    return Check(suite, name, test, each, at, cases, bounds)


# Length ceilings: at every --max-length they accept, verify main-theorem,
# chevalley, commutativity and all answer within 30 s and 1 GiB (2 cores,
# Python 3.11); 12 is the CLI's own ceiling, and below it one length more
# runs past 30 s (chevalley at n = 5 and 6, commutativity at n = 6)
_OPERATOR_L = Bound("max_length", {2: 6, 3: 6, 4: 5, 5: 5, 6: 5}, {2: 12, 3: 12, 4: 12, 5: 10, 6: 7})
_COMMUTE_L = Bound("max_length", 6, {2: 12, 3: 12, 4: 12, 5: 12, 6: 11})
_COMMUTE_L5 = Bound("max_length", 5)
# Degree ceilings: at every --max-degree they accept, verify dimensions,
# kschur-duality and all answer within 30 s and 1 GiB (2 cores, Python
# 3.11); one degree more runs past 30 s, or past 2 GiB (ribbons at n = 2),
# or to 975 MiB (dimensions at n = 5), too near the budget to admit;
# stanley-equals-affschur-on-grassmannians takes 0.4 s at the CLI's own 16
_DIMENSIONS_D = Bound("max_degree", 6, {2: 16, 3: 16, 4: 16, 5: 12, 6: 8})
_RIBBON_D = Bound("max_degree", 6, {2: 10, 3: 10, 4: 11, 5: 11, 6: 11})

CHECKS = (
    _row("main-theorem", "routes-agree[n={n},m={m},l<={l}]", _routes_agree,
         each=_DEFAULT_NS, cases=lambda n: [{"m": m} for m in range(1, n)], l=_OPERATOR_L),
    _row("main-theorem", "cap-equals-bss[n={n},m={m},i={i}]", _cap_equals_bss,
         each=_DEFAULT_NS, l=_OPERATOR_L,
         cases=lambda n: [{"m": m, "i": i} for m in range(1, n) for i in range(m)]),
    _row("main-theorem", "composition-recursion[n={n},|J|<={size}]", _composition_recursion,
         at=(3,), l=4, size=5),
    _row("chevalley", "deg1-mn-covers-cap[n={n},a={a}]", _deg1_mn_covers_cap,
         each=_DEFAULT_NS, cases=lambda n: [{"a": a} for a in range(n)], l=_OPERATOR_L),
    _row("chevalley", "mn-difference-is-dunkl[n={n},a={a}]", _mn_difference_is_dunkl,
         each=_DEFAULT_NS, cases=lambda n: [{"a": a} for a in range(n)], l=_OPERATOR_L),
    _row("leibniz", "mn-on-h[n={n}]", _mn_on_h, each=_DEFAULT_NS),
    _row("leibniz", "finite-right-factor-pass-through[n={n}]", _pass_through,
         at=(3,), l=4, finite_l=3),
    _row("leibniz", "leibniz-on-h-times-basis[n={n}]", _leibniz, at=(3,), l=4, d=4),
    _row("commutativity", "dunkl-commute[n={n}]", _dunkl_commute, each=_DEFAULT_NS, l=_COMMUTE_L),
    _row("commutativity", "dunkl-mn-commute[n={n}]", _dunkl_mn_commute,
         each=_DEFAULT_NS, l=_COMMUTE_L),
    _row("commutativity", "mn-mn-commute[n={n}]", _mn_mn_commute, each=_DEFAULT_NS, l=_COMMUTE_L5),
    _row("commutativity", "dunkl-power-period-sum-vanishes[n={n}]", _period_sum,
         each=_DEFAULT_NS, l=_COMMUTE_L),
    _row("commutativity", "dunkl-power-order-n-vanishes[n={n}]", _high_power,
         each=_DEFAULT_NS, l=_COMMUTE_L),
    _row("commutativity", "dunkl-power-matches-chain-oracle[n={n}]", _chain_oracle,
         each=_DEFAULT_NS, l=_COMMUTE_L5),
    _row("commutativity", "cyclic-class-sums-vanish[n={n}]", _cyclic,
         each=_DEFAULT_NS, l=Bound("max_length", 4), size=3),
    _row("commutativity", "mn-dunkl-telescope[n={n}]", _telescope, each=_DEFAULT_NS, l=_COMMUTE_L5),
    _row("schubert-table", "table-n{n}-seven-rows", _table_n3, at=(3,)),
    _row("schubert-table", "family-n{n}-both-towers", _family_n2, at=(2,), l=3),
    _row("mn-rule", "worked-example-n{n}-chains", _worked_example, at=(4,)),
    _row("mn-rule", "worked-example-n{n}-stanley-identity", _stanley_identity, at=(4,)),
    _row("mn-rule", "mn-rule-schubert-expansion[n={n}]", _mn_rule_ring, at=(3,), l=3),
    _row("mn-rule", "mn-rule-stanley[n={n}]", _mn_rule_stanley, at=(3,), l=4),
    _row("mn-rule", "xi-symmetric-part-is-p", _xi_projects_to_p, at=(2, 3, 4)),
    _row("kschur-duality", "kschur-ribbon-formula[n={n},d<={d}]", _ribbon_formula,
         each=(3, 4), d=_RIBBON_D),
    _row("kschur-duality", "hall-duality-affschur-kschur", _hall_duality,
         at=(2, 3, 4), d=Bound("max_degree", 6)),
    _row("kschur-duality", "stanley-equals-affschur-on-grassmannians", _stanley_grassmannian,
         at=(3, 4), d=Bound("max_degree", 6, 16)),
    _row("kschur-duality", "tableau-character-weight-order-invariance[n={n}]", _weight_invariance,
         at=(3,), d=4),
    _row("dimensions", "graded-dimension-and-independence[n={n},d<={d}]", _graded_dimension,
         each=_DEFAULT_NS, d=_DIMENSIONS_D),
    _row("dimensions", "schubert-symmetric-part-is-stanley[n={n}]", _symmetric_projection,
         each=(3,), l={3: 5}),
    _row("positivity", "structure-constants-nonnegative-integers[n={n},l(u)+l(v)<={l}]", _positive,
         each=_DEFAULT_NS, l=Bound("max_length", {2: 6, 3: 5, 4: 4, 5: 4, 6: 4})),
    _row("bgg", "divided-difference-shifts-argument[n={n}]", _bgg_words, at=(3,), l=4, d=3),
    _row("bgg", "divided-difference-square-and-braid[n={n}]", _dd_relations, at=(3,), d=4),
    _row("bgg", "schubert-defining-recursion[n={n}]", _defining_property, at=(3,), l=6),
)
SUITES = tuple(dict.fromkeys(row.suite for row in CHECKS))

_FLAGS = {
    "schubert-table": (
        "n=2 family: the printed exponent n is read as the length a (both towers reproduce under this reading)",
        "n=3 cubic row: the printed p_3 term is interpreted in the quotient, where p_3 = 0",
    ),
}


def _at(value, n):
    """An int, or a per-n dict's entry at n (None where it has none)."""
    return value.get(n) if isinstance(value, dict) else value


def _resolve(bound, n, options):
    """The value of one bound at n, or None where a per-n dict has no entry."""
    if not isinstance(bound, Bound):
        return _at(bound, n)
    default, ceiling, value = _at(bound.default, n), _at(bound.ceiling, n), options[bound.option]
    if value is None:
        return default
    if ceiling is None:
        return min(value, default)
    if value > ceiling:
        flag = "--" + bound.option.replace("_", "-")
        raise BoundExceededError(f"{flag} {value} is above its ceiling {ceiling} at n={n}")
    return value


def expand(suite: str, n: int | None = None, max_length: int | None = None,
           max_degree: int | None = None) -> list:
    """The (name, check) pairs of `suite` in report order, without running any.

    Consecutive rows that follow --n over the same default n make one block,
    ordered by n, then case, then row; a case sorts before its extensions, so
    routes-agree[m] precedes its cap-equals-bss[m,i].  A fixed-n row is a
    block of its own.  A bound above its ceiling raises BoundExceededError.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    if n is not None and n not in NS:
        raise BoundExceededError(f"the check table has no scales at n={n}, only at n = 2..{NS[-1]}")
    options = {"max_length": max_length, "max_degree": max_degree}
    keyed, block, previous = [], 0, None
    for position, row in enumerate(r for r in CHECKS if r.suite == suite):
        if row.each is None or row.each != previous:
            block += 1
        previous = row.each
        for nn in ([row.at] if row.each is None else (row.each if n is None else [n])):
            bounds = {k: _resolve(b, nn, options) for k, b in row.bounds.items()}
            if None in bounds.values():
                continue
            for case in row.cases(nn) if row.cases else [{}]:
                name = row.name.format(n=nn if row.each else nn[0], **case, **bounds)
                key = (block, nn, tuple(case.values()), position)
                keyed.append((key, name, partial(row.test, nn, **case, **bounds)))
    keyed.sort(key=lambda item: item[0])
    return [(name, check) for _, name, check in keyed]


def run_suite(
    suite: str,
    n: int | None = None,
    max_length: int | None = None,
    max_degree: int | None = None,
) -> VerificationReport:
    """Run every check of `suite`; each records its first failure witness."""
    t0 = time.perf_counter()
    results = []
    for name, check in expand(suite, n, max_length, max_degree):
        witness = next(check(), None)
        results.append(CheckResult(name, "pass" if witness is None else "fail", witness))
    return VerificationReport(
        suite=suite,
        params={"n": n, "max_length": max_length, "max_degree": max_degree},
        checks=tuple(results),
        flags=_FLAGS.get(suite, ()),
        wall_time_s=time.perf_counter() - t0,
    )
