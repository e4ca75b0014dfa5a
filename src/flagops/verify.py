"""Verification suites: machine checks of the operator identities.

Each suite runs a list of named checks and returns a VerificationReport;
a failing check carries a minimal witness (the n, m, a, w, or (u, v, w)
that broke).  All iteration orders are canonical and the sampled checks use
fixed seeds, so reports are deterministic.

A check is a generator function: it yields a failure witness (a dict) for
each case that breaks and yields nothing when every case holds; the report
keeps the first witness.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
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
from .errors import FlagopsError, InternalInconsistencyError

# default (n, max_length) scales for the operator identity suites
_OPERATOR_SCALES = ((2, 6), (3, 6), (4, 5))


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail"
    witness: dict | None = None

    def to_json(self):
        out = {"name": self.name, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class VerificationReport:
    suite: str
    params: dict
    checks: list = field(default_factory=list)
    flags: list = field(default_factory=list)
    wall_time_s: float = 0.0

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


def _scales(n=None, max_length=None):
    if n is None:
        scales = list(_OPERATOR_SCALES)
        if max_length is not None:
            scales = [(m, min(l, max_length)) for m, l in scales]
        return scales
    default = 5 if n >= 4 else 6
    return [(n, max_length if max_length is not None else default)]


def _elements_upto(n, lmax):
    for l in range(lmax + 1):
        yield from elements_of_length(n, l)


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
# suites


def _suite_main_theorem(n, max_length, max_degree):
    checks = []
    for nn, lmax in _scales(n, max_length):
        for m in range(1, nn):

            def routes_check(nn=nn, lmax=lmax, m=m):
                for w in _elements_upto(nn, lmax):
                    x = nc.basis_element(w)
                    a = bo.act_mn(x, m, 0)
                    b = _alternating_routes(nn, m, x, "bss")
                    c = _alternating_routes(nn, m, x, "cap")
                    if not (a == b == c):
                        yield {"n": nn, "m": m, "w": list(w.window)}

            checks.append((f"routes-agree[n={nn},m={m},l<={lmax}]", routes_check))
            for i in range(m):

                def bc_check(nn=nn, lmax=lmax, m=m, i=i):
                    rho = rho_element(nn, i, m)
                    J = (m - i,) + (1,) * i
                    for w in _elements_upto(nn, lmax):
                        x = nc.basis_element(w)
                        if sr.cap_apply(rho, x) != so.bss_apply(x, J, 0):
                            yield {"n": nn, "m": m, "i": i, "w": list(w.window)}

                checks.append((f"cap-equals-bss[n={nn},m={m},i={i}]", bc_check))

    def comp_recursion():
        nn, lmax = 3, 4
        comps = [
            c
            for d in range(2, 6)
            for lam in partitions(d)
            for c in compositions_of_partition(lam)
            if len(c) >= 2
        ]
        for J in sorted(set(comps)):
            for w in _elements_upto(nn, lmax):
                x = nc.basis_element(w)
                lhs = so.bss_apply(x, J, 0)
                head, tail = J[0], J[1:]
                rhs = so.bss_apply(so.bss_apply(x, tail, 0), (head,), 0)
                rhs = rhs - so.bss_apply(x, (head + tail[0],) + tail[1:], 0)
                if lhs != rhs:
                    yield {"J": list(J), "w": list(w.window)}

    checks.append(("composition-recursion[n=3,|J|<=5]", comp_recursion))
    return checks, []


def _suite_chevalley(n, max_length, max_degree):
    checks = []
    for nn, lmax in _scales(n, max_length):
        for a in range(nn):

            def deg1_check(nn=nn, lmax=lmax, a=a):
                for w in _elements_upto(nn, lmax):
                    x = nc.basis_element(w)
                    mn = bo.act_mn(x, 1, a)
                    covers = {}
                    for cov in w.marked_covers(a):
                        covers[cov.lower] = covers.get(cov.lower, 0) + 1
                    if mn != nc.NilCoxElement(nn, covers) or mn != sr.cap_apply(simple(nn, a), x):
                        yield {"n": nn, "a": a, "w": list(w.window)}

            checks.append((f"deg1-mn-covers-cap[n={nn},a={a}]", deg1_check))

            def dunkl_check(nn=nn, lmax=lmax, a=a):
                for w in _elements_upto(nn, lmax):
                    x = nc.basis_element(w)
                    lhs = bo.act_mn(x, 1, a + 1) - bo.act_mn(x, 1, a)
                    if lhs != bo.act_dunkl(x, a + 1):
                        yield {"n": nn, "a": a, "w": list(w.window)}

            checks.append((f"mn-difference-is-dunkl[n={nn},a={a}]", dunkl_check))
    return checks, []


def _suite_leibniz(n, max_length, max_degree):
    checks = []
    for nn in ([n] if n else [2, 3, 4]):

        def h_rule(nn=nn):
            for i in range(1, nn):
                for m in range(1, i + 1):
                    for a in range(nn):
                        if bo.act_mn(nc.h_element(nn, i), m, a) != nc.h_element(nn, i - m):
                            yield {"n": nn, "i": i, "m": m, "a": a}

        checks.append((f"mn-on-h[n={nn}]", h_rule))

    def pass_through():
        nn = 3
        finite = [w for l in range(4) for w in elements_of_length(nn, l) if w.is_finite()]
        for w in _elements_upto(nn, 4):
            x = nc.basis_element(w)
            for wp in finite:
                y = nc.basis_element(wp)
                for m in (1, 2):
                    if bo.act_mn(x * y, m, 0) != bo.act_mn(x, m, 0) * y:
                        yield {
                            "w": list(w.window),
                            "w'": list(wp.window),
                            "m": m,
                        }

    checks.append(("finite-right-factor-pass-through[n=3]", pass_through))

    def leibniz():
        nn = 3
        for d in range(5):
            for mu in partitions(d, nn - 1):
                h = nc.h_product(nn, mu)
                for w in _elements_upto(nn, 4):
                    x = nc.basis_element(w)
                    for m in (1, 2):
                        lhs = bo.act_mn(h * x, m, 0)
                        rhs = bo.act_mn(h, m, 0) * x + h * bo.act_mn(x, m, 0)
                        if lhs != rhs:
                            yield {
                                "mu": list(mu),
                                "w": list(w.window),
                                "m": m,
                            }

    checks.append(("leibniz-on-h-times-basis[n=3]", leibniz))
    return checks, []


def _suite_commutativity(n, max_length, max_degree):
    checks = []
    lmax = max_length if max_length is not None else 6
    for nn in ([n] if n else [2, 3, 4]):

        def dunkl_comm(nn=nn, lmax=lmax):
            for w in _elements_upto(nn, lmax):
                x = nc.basis_element(w)
                for i in range(nn):
                    for j in range(i + 1, nn):
                        a = bo.act_dunkl(bo.act_dunkl(x, i), j)
                        b = bo.act_dunkl(bo.act_dunkl(x, j), i)
                        if a != b:
                            yield {"n": nn, "i": i, "j": j, "w": list(w.window)}

        checks.append((f"dunkl-commute[n={nn}]", dunkl_comm))

        def dunkl_mn_comm(nn=nn, lmax=lmax):
            for w in _elements_upto(nn, lmax):
                x = nc.basis_element(w)
                for i in range(nn):
                    for m in range(1, nn):
                        a = bo.act_mn(bo.act_dunkl(x, i), m, 0)
                        b = bo.act_dunkl(bo.act_mn(x, m, 0), i)
                        if a != b:
                            yield {"n": nn, "i": i, "m": m, "w": list(w.window)}

        checks.append((f"dunkl-mn-commute[n={nn}]", dunkl_mn_comm))

        def mn_mn_comm(nn=nn, lmax=lmax):
            for w in _elements_upto(nn, min(lmax, 5)):
                x = nc.basis_element(w)
                for m1 in range(1, nn):
                    for m2 in range(m1 + 1, nn):
                        a = bo.act_mn(bo.act_mn(x, m1, 0), m2, 0)
                        b = bo.act_mn(bo.act_mn(x, m2, 0), m1, 0)
                        if a != b:
                            yield {"n": nn, "m1": m1, "m2": m2, "w": list(w.window)}

        checks.append((f"mn-mn-commute[n={nn}]", mn_mn_comm))

        def period_sum(nn=nn, lmax=lmax):
            for w in _elements_upto(nn, lmax):
                x = nc.basis_element(w)
                for m in range(1, nn + 1):
                    total = nc.zero(nn)
                    for i in range(1, nn + 1):
                        total = total + bo.act_dunkl_power(x, i, m)
                    if not total.is_zero():
                        yield {"n": nn, "m": m, "w": list(w.window)}

        checks.append((f"dunkl-power-period-sum-vanishes[n={nn}]", period_sum))

        def high_power(nn=nn, lmax=lmax):
            for w in _elements_upto(nn, lmax):
                x = nc.basis_element(w)
                for i in range(nn):
                    for m in (nn, nn + 1):
                        if not bo.act_dunkl_power(x, i, m).is_zero():
                            yield {"n": nn, "i": i, "m": m, "w": list(w.window)}

        checks.append((f"dunkl-power-order-n-vanishes[n={nn}]", high_power))

        def oracle(nn=nn, lmax=lmax):
            for w in _elements_upto(nn, min(lmax, 5)):
                x = nc.basis_element(w)
                for i in range(nn):
                    for m in range(1, nn):
                        if bo.act_dunkl_power(x, i, m) != bo.dunkl_chain_oracle(x, i, m):
                            yield {"n": nn, "i": i, "m": m, "w": list(w.window)}

        checks.append((f"dunkl-power-matches-chain-oracle[n={nn}]", oracle))

        def cyclic(nn=nn, lmax=lmax):
            tuples = []
            for size in range(1, min(nn, 4)):
                base = tuple(range(1, size + 1))
                tuples.append(base)
                tuples.append(tuple(reversed(base)))
                tuples.append(tuple(b + nn for b in base))
            for w in _elements_upto(nn, min(lmax, 4)):
                x = nc.basis_element(w)
                for bs in tuples:
                    if len({b % nn for b in bs}) != len(bs) or 0 in {b % nn for b in bs}:
                        continue
                    if not bo.act_cyclic_sum(x, 0, bs).is_zero():
                        yield {"n": nn, "a": 0, "bs": list(bs), "w": list(w.window)}

        checks.append((f"cyclic-class-sums-vanish[n={nn}]", cyclic))

        def telescope(nn=nn, lmax=lmax):
            for w in _elements_upto(nn, min(lmax, 5)):
                x = nc.basis_element(w)
                for m in range(1, nn):
                    for i in range(-1, nn):
                        lhs = bo.act_mn(x, m, i) + bo.act_dunkl_power(x, i + 1, m)
                        if lhs != bo.act_mn(x, m, i + 1):
                            yield {"n": nn, "m": m, "i": i, "w": list(w.window)}

        checks.append((f"mn-dunkl-telescope[n={nn}]", telescope))
    return checks, []


def _table_rows_n3():
    """The seven-row table of Schubert representatives for n = 3."""
    n = 3
    p1, p2 = sr.p_gen(n, 1), sr.p_gen(n, 2)
    x1, x2 = sr.x_gen(n, 1), sr.x_gen(n, 2)
    half = Fraction(1, 2)
    rows = [
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
    return rows


def _suite_schubert_table(n, max_length, max_degree):
    checks = []

    def table_n3():
        for word, expected in _table_rows_n3():
            w = from_reduced_word(3, word)
            if sr.affine_schubert(w) != expected:
                yield {"n": 3, "word": list(word)}

    checks.append(("table-n3-seven-rows", table_n3))

    def family_n2():
        n = 2
        x1 = sr.x_gen(n, 1)
        for a in (1, 2, 3):
            grass = _p_power(n, a).scale(Fraction(1, factorial(a)))
            one_grass = grass + _p_power(n, a - 1).scale(Fraction(1, factorial(a - 1))) * x1
            w0 = _unique_grassmannian(n, a, 0)
            w1 = _unique_grassmannian(n, a, 1)
            if sr.affine_schubert(w0) != grass:
                yield {"n": 2, "a": a, "family": 0}
            elif sr.affine_schubert(w1) != one_grass:
                yield {"n": 2, "a": a, "family": 1}

    checks.append(("family-n2-both-towers", family_n2))
    flags = [
        "n=2 family: the printed exponent n is read as the length a (both towers reproduce under this reading)",
        "n=3 cubic row: the printed p_3 term is interpreted in the quotient, where p_3 = 0",
    ]
    return checks, flags


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


def _suite_mn_rule(n, max_length, max_degree):
    checks = []

    def worked_example():
        n = 4
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

    checks.append(("worked-example-n4-chains", worked_example))

    def stanley_identity():
        n = 4
        v = from_reduced_word(n, [1, 0])
        lhs = sf.project_to_quotient(sf.SymFunc("p", {(3,): 1}, 3) * sf.affine_stanley_p(v), 3)
        rhs = (
            sf.affine_stanley_p(from_reduced_word(n, [1, 2, 3, 1, 0]))
            - sf.affine_stanley_p(from_reduced_word(n, [2, 0, 3, 1, 0]))
            + sf.affine_stanley_p(from_reduced_word(n, [0, 3, 2, 1, 0]))
        )
        if lhs.terms != rhs.terms:
            yield {"identity": "p3 * F_{s1s0}"}

    checks.append(("worked-example-n4-stanley-identity", stanley_identity))

    def mn_rule_ring():
        nn = 3
        for l in range(4):
            for v in elements_of_length(nn, l):
                Sv = sr.affine_schubert(v)
                for m in (1, 2):
                    _, rep, _ = sr.xi_class(nn, m)
                    exp = sr.schubert_basis(nn, l + m).expand(rep * Sv)
                    for w in elements_of_length(nn, l + m):
                        if exp.get(w, 0) != so.mn_coefficient(w, m, v):
                            yield {
                                "v": list(v.window),
                                "m": m,
                                "w": list(w.window),
                            }

    checks.append(("mn-rule-schubert-expansion[n=3]", mn_rule_ring))

    def mn_rule_stanley():
        nn, k = 3, 2
        for l in range(5):
            for v in elements_of_length(nn, l):
                Fv = sf.affine_stanley_p(v)
                for m in (1, 2):
                    lhs = sf.project_to_quotient(sf.SymFunc("p", {(m,): 1}, k) * Fv, k)
                    rhs = sf.SymFunc("p", {}, k)
                    for w in elements_of_length(nn, l + m):
                        c = so.mn_coefficient(w, m, v)
                        if c:
                            rhs = rhs + sf.affine_stanley_p(w).scale(c)
                    if lhs.terms != rhs.terms:
                        yield {"v": list(v.window), "m": m}

    checks.append(("mn-rule-stanley[n=3]", mn_rule_stanley))

    def xi_projects_to_p():
        for nn in (2, 3, 4):
            for m in range(1, nn):
                _, _, sym = sr.xi_class(nn, m)
                if sym.terms != {(m,): 1}:
                    yield {"n": nn, "m": m}

    checks.append(("xi-symmetric-part-is-p", xi_projects_to_p))
    return checks, []


def _suite_kschur_duality(n, max_length, max_degree):
    checks = []
    dmax = max_degree if max_degree is not None else 6

    for nn in ([n] if n else [3, 4]):

        def ribbon_formula(nn=nn, dmax=dmax):
            for d in range(1, dmax + 1):
                for lam in partitions(d, nn - 1):
                    u = partition_to_grassmannian(nn, lam)
                    if so.k_schur_via_ribbons(u).terms != sf.k_schur_p(nn, lam).terms:
                        yield {"n": nn, "lam": list(lam)}

        checks.append((f"kschur-ribbon-formula[n={nn},d<={dmax}]", ribbon_formula))

    def duality(dmax=min(dmax, 6)):
        for nn in (2, 3, 4):
            for d in range(1, dmax + 1):
                for lam in partitions(d, nn - 1):
                    for mu in partitions(d, nn - 1):
                        v = sf.hall_inner(sf.affine_schur_p(nn, lam), sf.k_schur(nn, mu))
                        if v != (1 if lam == mu else 0):
                            yield {"n": nn, "lam": list(lam), "mu": list(mu)}

    checks.append(("hall-duality-affschur-kschur", duality))

    def stanley_grassmannian(dmax=dmax):
        for nn in (3, 4):
            for d in range(1, dmax + 1):
                for lam in partitions(d, nn - 1):
                    u = partition_to_grassmannian(nn, lam)
                    if sf.affine_stanley_p(u).terms != sf.affine_schur_p(nn, lam).terms:
                        yield {"n": nn, "lam": list(lam)}

    checks.append(("stanley-equals-affschur-on-grassmannians", stanley_grassmannian))

    def weight_invariance():
        nn = 3
        for d in range(1, 5):
            for lam in partitions(d, nn - 1):
                u = partition_to_grassmannian(nn, lam)
                for mu in partitions(d, nn - 1):
                    vals = {
                        comp: so.tableau_character(u, comp)
                        for comp in compositions_of_partition(mu)
                    }
                    if len(set(vals.values())) != 1:
                        yield {"u": list(lam), "weight": list(mu)}

    checks.append(("tableau-character-weight-order-invariance[n=3]", weight_invariance))
    return checks, []


def _suite_dimensions(n, max_length, max_degree):
    checks = []
    dmax = max_degree if max_degree is not None else 6
    for nn in ([n] if n else [2, 3, 4]):

        def dims(nn=nn, dmax=dmax):
            for d in range(dmax + 1):
                count = len(elements_of_length(nn, d))
                dim = sr.rn_dimension(nn, d)
                if count != dim:
                    yield {"n": nn, "d": d, "count": count, "dim": dim}
                    continue
                try:
                    basis = sr.schubert_basis(nn, d)
                except InternalInconsistencyError as exc:
                    if exc.witness is None:
                        raise
                    yield exc.witness
                    continue
                if len(basis.elements) != count:
                    yield {"n": nn, "d": d, "count": count, "basis": len(basis.elements)}

        checks.append((f"graded-dimension-and-independence[n={nn},d<={dmax}]", dims))

    def symmetric_projection():
        nn = 3
        for w in _elements_upto(nn, 5):
            got = sr.symmetric_part(sr.affine_schubert(w)).terms
            if got != sf.affine_stanley_p(w).terms:
                yield {"w": list(w.window)}

    if n is None or n == 3:
        checks.append(("schubert-symmetric-part-is-stanley[n=3]", symmetric_projection))
    return checks, []


def _suite_positivity(n, max_length, max_degree):
    checks = []
    ranges = {2: 6, 3: 5, 4: 4}
    for nn in ([n] if n else [2, 3, 4]):
        cap = ranges.get(nn, 4)
        if max_length is not None:
            cap = min(cap, max_length)

        def positive(nn=nn, cap=cap):
            for lu in range(cap + 1):
                for u in elements_of_length(nn, lu):
                    for lv in range(cap - lu + 1):
                        for v in elements_of_length(nn, lv):
                            for w, c in sorted(
                                sr.structure_constants(u, v).items(),
                                key=lambda t: t[0].window,
                            ):
                                if c.denominator != 1 or c < 0:
                                    yield {
                                        "n": nn,
                                        "u": list(u.window),
                                        "v": list(v.window),
                                        "w": list(w.window),
                                        "value": str(c),
                                    }

        checks.append((f"structure-constants-nonnegative-integers[n={nn},l(u)+l(v)<={cap}]", positive))
    return checks, []


def _suite_bgg(n, max_length, max_degree):
    checks = []

    def bgg_words():
        nn = 3
        rng = random.Random(20240811)
        letters = [
            (a, b)
            for a in range(-3, 4)
            for b in range(a + 1, a + 7)
            if (a - b) % nn != 0 and b <= 6
        ]
        words = []
        for _ in range(24):
            deg = rng.randint(1, 3)
            words.append(tuple(rng.choice(letters) for _ in range(deg)))
        for word in sorted(set(words)):
            ws = {word: 1}
            for i in range(nn):
                dws = bo.word_divided_difference(ws, i, i + 1, nn)
                Ai = nc.basis_element(simple(nn, i))
                for w in _elements_upto(nn, 4):
                    x = nc.basis_element(w)
                    shifted = x * Ai
                    lhs = (
                        nc.coeff_of_identity(bo.act_word_sum(shifted, ws))
                        if not shifted.is_zero()
                        else 0
                    )
                    rhs = nc.coeff_of_identity(bo.act_word_sum(x, dws))
                    if lhs != rhs:
                        yield {
                            "word": [list(l) for l in word],
                            "i": i,
                            "w": list(w.window),
                        }

    checks.append(("divided-difference-shifts-argument[n=3]", bgg_words))

    def dd_relations():
        nn = 3
        rng = random.Random(99173)
        for trial in range(10):
            terms = {}
            for _ in range(6):
                d1 = rng.randint(0, 4)
                lam = rng.choice(partitions(d1, nn - 1)) if d1 > 0 else ()
                stair = tuple(rng.randint(0, nn - 1 - i) for i in range(nn))
                terms[(tuple(lam), stair)] = rng.randint(-3, 3)
            f = sr.RnElement(nn, terms)
            for i in range(nn):
                if not sr.divided_difference(i, sr.divided_difference(i, f)).is_zero():
                    yield {"relation": "square", "i": i, "trial": trial}
            for i in range(nn):
                j = (i + 1) % nn
                a = sr.divided_difference(i, sr.divided_difference(j, sr.divided_difference(i, f)))
                b = sr.divided_difference(j, sr.divided_difference(i, sr.divided_difference(j, f)))
                if a != b:
                    yield {"relation": "braid", "i": i, "j": j, "trial": trial}

    checks.append(("divided-difference-square-and-braid[n=3]", dd_relations))

    def defining_property():
        # affine_schubert builds S_w as d_i S_{w s_i} for the one letter i
        # that its chain takes from w towards the Grassmannian lift, so there
        # the recursion holds by construction; at every other descent of w
        # it is a real check
        nn = 3
        for w in _elements_upto(nn, 6):
            Sw = sr.affine_schubert(w)
            for i in range(nn):
                moved = w.times_s(i)
                got = sr.divided_difference(i, Sw)
                if moved.length == w.length - 1:
                    broken = got != sr.affine_schubert(moved)
                else:
                    broken = not got.is_zero()
                if broken:
                    yield {"w": list(w.window), "i": i}

    checks.append(("schubert-defining-recursion[n=3]", defining_property))
    return checks, []


_SUITE_BUILDERS = {
    "main-theorem": _suite_main_theorem,
    "chevalley": _suite_chevalley,
    "leibniz": _suite_leibniz,
    "commutativity": _suite_commutativity,
    "schubert-table": _suite_schubert_table,
    "mn-rule": _suite_mn_rule,
    "kschur-duality": _suite_kschur_duality,
    "dimensions": _suite_dimensions,
    "positivity": _suite_positivity,
    "bgg": _suite_bgg,
}
SUITES = tuple(_SUITE_BUILDERS)


def run_suite(
    suite: str,
    n: int | None = None,
    max_length: int | None = None,
    max_degree: int | None = None,
) -> VerificationReport:
    """Run every check of `suite`; each records its first failure witness."""
    if suite not in _SUITE_BUILDERS:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    t0 = time.perf_counter()
    checks, flags = _SUITE_BUILDERS[suite](n, max_length, max_degree)
    results = []
    for name, check in checks:
        witness = next(check(), None)
        results.append(CheckResult(name, "pass" if witness is None else "fail", witness))
    return VerificationReport(
        suite=suite,
        params={"n": n, "max_length": max_length, "max_degree": max_degree},
        checks=results,
        flags=flags,
        wall_time_s=time.perf_counter() - t0,
    )
