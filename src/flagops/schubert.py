"""The ring R_n and affine Schubert calculus inside it.

R_n = Q[p_1..p_{n-1}, x_0..x_{n-1}] / <e_j(x), j > 0>.  Elements are stored
in normal form: the symmetric part as a k-bounded partition of power-sum
subscripts, the x part reduced to the staircase basis (exponent of x_i at
most n-1-i) by the lex Groebner basis {h_{n-i}(x_0..x_i)} of the elementary
symmetric ideal, memoised per monomial.

On top of the ring: the Weyl action and divided differences (tabulated per
monomial of the free ring Q[p, x], normalised once per call), affine Schubert
polynomials, per-degree Schubert bases with sparse exact expansion, structure
constants, cap operators on the nilCoxeter algebra (computed independently
through the coproduct, from one table of structure constants per
(u, degree)), and the alternating Chevalley-type classes attached to power
sums.

An affine Schubert polynomial is the end of a chain of divided differences,
S_u = d_i S_{u s_i}, that starts at the affine Schur function of the
Grassmannian lift.  Every polynomial on a chain is memoised as integer
numerators over the lcm D of the seed's denominators, and a later chain
stops at the first memoised element it meets; only the polynomials that
are asked for are divided by D.

The Schubert bases rest on the product theorem H*(Fl) = H*(Gr) (x) H*(Fl_n):
for w = w0 * w1 (w0 0-Grassmannian, w1 in S_n) the lowest p-degree part of
S_w is the affine Schur function of w0 times the finite Schubert polynomial
of w1.  So each basis is block-triangular in p-degree; it is checked and
inverted one block at a time (k-Schur duality on the symmetric side, a
finite Schubert matrix of at most 101 x 101 at n = 6 on the other), and an
expansion peels the blocks from the lowest p-degree up.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .afperm import (
    AffinePermutation,
    elements_of_length,
    grassmannian_factorize,
    grassmannian_lift,
    grassmannian_to_partition,
    partition_to_grassmannian,
    rho_element,
)
from .errors import InternalInconsistencyError, ModulusMismatchError
from .linalg import LinearCombination, rref
from .nilcox import NilCoxElement
from .partitions import as_partition, partitions, z_lambda
from .symfunc import SymFunc, affine_schur_p, k_schur_p

__all__ = [
    "RnElement",
    "unit",
    "p_gen",
    "x_gen",
    "weyl_action",
    "divided_difference",
    "affine_schubert",
    "SchubertBasis",
    "schubert_basis",
    "structure_constants",
    "cap_apply",
    "xi_class",
    "symmetric_part",
    "rn_dimension",
]


# ---------------------------------------------------------------------------
# coinvariant normal form


def _monomials(n: int, d: int):
    """Exponent tuples of total degree d in n variables, lex order."""
    if n == 1:
        return [(d,)]
    out = []
    for first in range(d, -1, -1):
        for rest in _monomials(n - 1, d - first):
            out.append((first,) + rest)
    return out


@lru_cache(maxsize=None)
def _staircase_monomials(n: int, d: int) -> tuple:
    return tuple(m for m in _monomials(n, d) if all(m[i] < n - i for i in range(n)))


@lru_cache(maxsize=None)
def _groebner_tail(n: int, i: int) -> tuple:
    """Monomials of h_{n-i}(x_0..x_i) other than its leading term x_i^{n-i}.

    {h_{n-i}(x_0..x_i) : 0 <= i < n} is the lex Groebner basis of the
    coinvariant ideal <e_1..e_n> with x_{n-1} > ... > x_0 (Cox-Little-O'Shea,
    ch. 7 sec. 1); its standard monomials are the staircase.
    """
    pad = (0,) * (n - 1 - i)
    return tuple(m + pad for m in _monomials(i + 1, n - i) if m[i] != n - i)


@lru_cache(maxsize=None)
def _x_normal_form(n: int, expo: tuple) -> dict:
    """Rewrite x_i^{n-i} -> -(tail of h_{n-i}) at the highest such i, recursively."""
    i = next((i for i in range(n - 1, -1, -1) if expo[i] >= n - i), None)
    if i is None:
        return {expo: 1}
    rest = expo[:i] + (expo[i] - (n - i),) + expo[i + 1 :]
    out: dict[tuple, int] = {}
    for tail in _groebner_tail(n, i):
        mono = tuple(a + b for a, b in zip(rest, tail))
        for stair, c in _x_normal_form(n, mono).items():
            out[stair] = out.get(stair, 0) - c
    return {m: c for m, c in out.items() if c != 0}


def reduce_x_monomial(n: int, expo) -> dict:
    """Staircase expansion of one x-monomial (a shared dict: do not mutate)."""
    return _x_normal_form(n, tuple(int(e) for e in expo))


# ---------------------------------------------------------------------------
# elements


class RnElement(LinearCombination):
    """Normal-form element of R_n; immutable once built.

    Coefficients are canonical (``LinearCombination.exact``): an int when
    integral, else a Fraction.
    """

    __slots__ = ("n",)
    _mismatch_error = ModulusMismatchError

    def __init__(self, n: int, terms=None):
        self.n = n
        k = n - 1
        exact = self.exact
        out: dict[tuple, object] = {}
        for (p_part, x_part), c in (terms or {}).items():
            c = exact(c)
            if c == 0:
                continue
            p_part = as_partition(p_part)
            if any(p > k for p in p_part):
                raise ValueError(f"power-sum part {p_part} is not {k}-bounded")
            for stair, c2 in reduce_x_monomial(n, x_part).items():
                key = (p_part, stair)
                out[key] = out.get(key, 0) + c * c2
        self.terms = {key: exact(c) for key, c in out.items() if c != 0}

    def _like(self, terms) -> "RnElement":
        return _trusted(self.n, terms)

    def _context(self):
        return self.n

    @staticmethod
    def _degree(key):
        return sum(key[0]) + sum(key[1])

    def __repr__(self):
        if not self.terms:
            return f"RnElement({self.n}, 0)"
        bits = []
        for (p_part, x_part), c in self.items():
            factors = [f"p{list(p_part)}" if p_part else ""]
            factors += [f"x{i}^{e}" for i, e in enumerate(x_part) if e]
            body = "*".join(f for f in factors if f) or "1"
            bits.append(f"({c})*{body}")
        return " + ".join(bits)

    def items(self):
        return sorted(
            self.terms.items(),
            key=lambda t: (sum(t[0][0]) + sum(t[0][1]), tuple(-p for p in t[0][0]), t[0][1]),
        )

    def __mul__(self, other):
        if not isinstance(other, RnElement):
            return self.scale(other)
        self._check(other)
        out: dict[tuple, object] = {}
        for (p1, x1), c1 in self.terms.items():
            for (p2, x2), c2 in other.terms.items():
                key = (as_partition(p1 + p2), tuple(a + b for a, b in zip(x1, x2)))
                out[key] = out.get(key, 0) + c1 * c2
        return RnElement(self.n, out)  # normalization reduces the x parts

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"p": list(p), "x": list(x), "coeff": str(c)} for (p, x), c in self.items()
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "RnElement":
        n = int(data["n"])
        terms = {}
        for t in data["terms"]:
            key = (tuple(t["p"]), tuple(t["x"]))
            terms[key] = terms.get(key, 0) + RnElement.exact(t["coeff"])
        return RnElement(n, terms)


def _trusted(n: int, terms: dict) -> RnElement:
    """An RnElement of clean terms (normal-form keys, nonzero canonical coefficients), as is."""
    out = object.__new__(RnElement)
    out.n = n
    out.terms = terms
    return out


def unit(n: int) -> RnElement:
    return RnElement(n, {((), (0,) * n): 1})


def p_gen(n: int, m: int) -> RnElement:
    if not 1 <= m <= n - 1:
        raise ValueError(f"p_m needs 1 <= m <= n-1, got {m}")
    return RnElement(n, {((m,), (0,) * n): 1})


def x_gen(n: int, i: int) -> RnElement:
    e = [0] * n
    e[i % n] = 1
    return RnElement(n, {((), tuple(e)): 1})


def from_symfunc_p(n: int, f: SymFunc) -> RnElement:
    """Embed a p-basis element of the k-quotient as the symmetric part of R_n."""
    if f.basis != "p":
        raise ValueError("expected a p-basis SymFunc")
    zero_x = (0,) * n
    return RnElement(n, {(lam, zero_x): c for lam, c in f.terms.items()})


def symmetric_part(f: RnElement) -> SymFunc:
    """Projection killing the x variables, landing in the p-quotient."""
    out = {}
    zero_x = (0,) * f.n
    for (p_part, x_part), c in f.terms.items():
        if x_part == zero_x:
            out[p_part] = c
    return SymFunc("p", out, f.n - 1)


# ---------------------------------------------------------------------------
# Weyl action and divided differences, tabulated per monomial
#
# Both operators are computed in the free ring Q[p_1..p_{n-1}, x_0..x_{n-1}]
# one monomial at a time (the ideal of R_n is stable under them) and memoised
# per (n, i, monomial) with int coefficients; a call sums the tables over its
# terms and normalises once.  A monomial is peeled one generator power g at a
# time: s_i(g*b) = s_i(g)*s_i(b) and d_i(g*b) = d_i(g)*b + s_i(g)*d_i(b), with
#   s_0 p_m = p_m + x_1^m - x_0^m,   d_0 p_m = sum_{a+b=m-1} x_1^a x_0^b,
#   s_i p_m = p_m, d_i p_m = 0 (i != 0),
#   s_i swaps x_i and x_{i+1} (indices mod n),
#   d_i x_i^e = sum_{a+b=e-1} x_{i+1}^a x_i^b = -d_i x_{i+1}^e.
# So for i != 0, d_i(p_alpha x^beta) = p_alpha d_i(x^beta): that table is
# keyed on x^beta alone and p_alpha is attached to each of its terms.


def _x_mono(n, powers) -> tuple:
    """The free-ring monomial prod x_j^e over (j, e) in powers."""
    expo = [0] * n
    for j, e in powers:
        expo[j] += e
    return ((), tuple(expo))


def _mono_mul(a, b) -> tuple:
    return (
        tuple(sorted(a[0] + b[0], reverse=True)),
        tuple(s + t for s, t in zip(a[1], b[1])),
    )


def _split_power(p_part, x_part):
    """(g, rest): the first generator power of a monomial and its cofactor.

    g is ("p", m) for p_m or ("x", j, e) for x_j^e.
    """
    if p_part:
        return ("p", p_part[0]), (p_part[1:], x_part)
    j = next(j for j, e in enumerate(x_part) if e)
    return ("x", j, x_part[j]), (p_part, x_part[:j] + (0,) + x_part[j + 1 :])


def _s_power(n, i, g) -> tuple:
    """s_i of one generator power, as ((monomial, coeff), ...)."""
    if g[0] == "p":
        m = g[1]
        p_m = ((m,), (0,) * n)
        if i != 0:
            return ((p_m, 1),)
        return ((p_m, 1), (_x_mono(n, [(1, m)]), 1), (_x_mono(n, [(0, m)]), -1))
    _, j, e = g
    ip1 = (i + 1) % n
    return ((_x_mono(n, [(ip1 if j == i else i if j == ip1 else j, e)]), 1),)


def _d_power(n, i, g) -> tuple:
    """d_i of one generator power, as ((monomial, coeff), ...)."""
    if g[0] == "p":
        m = g[1]
        if i != 0:
            return ()
        return tuple((_x_mono(n, [(1, m - 1 - t), (0, t)]), 1) for t in range(m))
    _, j, e = g
    ip1 = (i + 1) % n
    if j == i:
        return tuple((_x_mono(n, [(ip1, t), (i, e - 1 - t)]), 1) for t in range(e))
    if j == ip1:
        return tuple((_x_mono(n, [(i, t), (ip1, e - 1 - t)]), -1) for t in range(e))
    return ()


def _collect(pairs) -> tuple:
    out: dict[tuple, int] = {}
    for key, c in pairs:
        out[key] = out.get(key, 0) + c
    return tuple((key, c) for key, c in out.items() if c != 0)


@lru_cache(maxsize=None)
def _weyl_monomial(n: int, i: int, p_part: tuple, x_part: tuple) -> tuple:
    """s_i of the free-ring monomial p_{p_part} x^{x_part}: ((monomial, int), ...)."""
    if not p_part and not any(x_part):
        return (((p_part, x_part), 1),)
    g, rest = _split_power(p_part, x_part)
    s_rest = _weyl_monomial(n, i, *rest)
    return _collect(
        (_mono_mul(a, b), ca * cb) for a, ca in _s_power(n, i, g) for b, cb in s_rest
    )


@lru_cache(maxsize=None)
def _dd_monomial(n: int, i: int, p_part: tuple, x_part: tuple) -> tuple:
    """d_i of the free-ring monomial p_{p_part} x^{x_part}: ((monomial, int), ...)."""
    if not p_part and not any(x_part):
        return ()
    g, rest = _split_power(p_part, x_part)
    d_rest = _dd_monomial(n, i, *rest)
    pairs = [(_mono_mul(a, rest), c) for a, c in _d_power(n, i, g)]
    pairs += [(_mono_mul(a, b), ca * cb) for a, ca in _s_power(n, i, g) for b, cb in d_rest]
    return _collect(pairs)


def _dd_table(n: int, i: int, p_part: tuple, x_part: tuple):
    """d_i of p_{p_part} x^{x_part}, from the table of x^{x_part} alone if i != 0."""
    if i == 0 or not p_part:
        return _dd_monomial(n, i, p_part, x_part)
    return [((p_part, x), c) for (_, x), c in _dd_monomial(n, i, (), x_part)]


def _apply_table(table, n: int, i: int, terms: dict) -> dict:
    """The tabulated operator on normal-form terms, in normal form.

    int numerators stay ints; a Fraction result may be integral, so the
    public operators pass it through ``RnElement.exact``.
    """
    free: dict[tuple, object] = {}
    for (p_part, x_part), c in terms.items():
        for key, a in table(n, i, p_part, x_part):
            free[key] = free.get(key, 0) + c * a
    out: dict[tuple, object] = {}
    for (p_part, x_part), c in free.items():
        if c:
            for stair, a in _x_normal_form(n, x_part).items():
                key = (p_part, stair)
                out[key] = out.get(key, 0) + c * a
    return {key: c for key, c in out.items() if c}


def weyl_action(i: int, f: RnElement) -> RnElement:
    """The ring automorphism s_i (i mod n)."""
    terms = _apply_table(_weyl_monomial, f.n, i % f.n, f.terms)
    return _trusted(f.n, {key: RnElement.exact(c) for key, c in terms.items()})


def divided_difference(i: int, f: RnElement) -> RnElement:
    """The operator (1 - s_i)/(x_i - x_{i+1}) (i mod n)."""
    terms = _apply_table(_dd_table, f.n, i % f.n, f.terms)
    return _trusted(f.n, {key: RnElement.exact(c) for key, c in terms.items()})


# ---------------------------------------------------------------------------
# affine Schubert polynomials

# w -> (D, {key: int}) with S_w = sum (c / D) key, for every w a chain passed
_numerators: dict = {}


def _schubert_numerators(w: AffinePermutation) -> tuple:
    """(D, numerators) of S_w, memoising every element of its chain.

    The chain runs up from w along its lift v = s_{v1}...s_{vm}, through
    w s_{v1}, w s_{v1} s_{v2}, ..., to wv or to the first element already
    memoised, then comes back down one divided difference per step.
    """
    if w in _numerators:
        return _numerators[w]
    n = w.n
    steps = []  # (u, i) with S_u = d_i S_{u s_i}
    u = w
    if not w.is_zero_grassmannian():
        for i in grassmannian_lift(w).reduced_word():
            steps.append((u, i))
            u = u.times_s(i)
            if u in _numerators:
                break
    if u not in _numerators:  # u = wv: seed with its affine Schur function
        f = affine_schur_p(n, grassmannian_to_partition(u))
        D = lcm(*(c.denominator for c in f.terms.values()))
        zero_x = (0,) * n
        _numerators[u] = D, {
            (lam, zero_x): c.numerator * (D // c.denominator) for lam, c in f.terms.items()
        }
    D, terms = _numerators[u]
    for u, i in reversed(steps):
        terms = _apply_table(_dd_table, n, i, terms)
        if not terms:  # pragma: no cover
            raise InternalInconsistencyError(f"divided-difference strip died for {u!r}")
        _numerators[u] = (D, terms)
    return _numerators[w]


@lru_cache(maxsize=None)
def affine_schubert(w: AffinePermutation) -> RnElement:
    """The degree-l(w) representative of the Schubert class of w.

    Lift w to a 0-Grassmannian element wv, seed S_{wv} with its affine Schur
    function as the symmetric part, and strip the letters of v with divided
    differences, S_u = d_i S_{u s_i} (BGG; Macdonald, Notes on Schubert
    polynomials, 1991).  Every polynomial met on the way is memoised on
    integer numerators over the seed's common denominator, so another chain
    that reaches it stops there; only a requested S_w is divided by D.
    """
    n = w.n
    if w.is_identity():
        return unit(n)
    D, terms = _schubert_numerators(w)
    f = _trusted(n, {key: RnElement.exact(Fraction(c, D)) for key, c in terms.items()})
    if f.degrees() != [w.length]:  # pragma: no cover
        raise InternalInconsistencyError(f"Schubert polynomial of {w!r} has wrong degree")
    return f


class _Level(namedtuple("_Level", "p_degree duals inverse members")):
    """The diagonal block of a Schubert basis at one p-degree a.

    Its elements are w = w_lam * w1 over k-bounded lam of size a and w1 in
    S_n of length d - a; the component of S_w at p-degree a is
    F~_lam (x) low(S_w1), with F~_lam the affine Schur function and low(S_w1)
    the finite Schubert polynomial on the staircase monomials of degree d - a.
    ``duals[i0]`` pairs a p-expansion with the k-Schur function of lam i0
    (the (alpha, z_alpha [p_alpha] s^(k)_lam) pairs), ``inverse`` holds the
    rows (stair, ((i1, coeff), ...)) of the inverse finite Schubert matrix,
    and ``members[i0][i1]`` is the index in the basis of w_{lam i0} * w1_{i1}.
    """

    __slots__ = ()


@dataclass(frozen=True)
class SchubertBasis:
    """All Schubert polynomials of one degree with exact expansion support.

    ``rows[j]`` holds the nonzero (monomial, coeff) pairs of the Schubert
    polynomial of ``elements[j]``; ``monomials`` is the normal-form basis of
    R_n in the degree, so this matrix is square.  It is block-triangular in
    p-degree (one ``_Level`` per p-degree), and ``expand`` peels the levels
    from the lowest up: the coefficients at a level are read from the
    residual's component there by k-Schur duality and the inverse finite
    Schubert matrix, and their Schubert polynomials are subtracted.  The
    residual must end at zero.
    """

    n: int
    degree: int
    elements: tuple  # AffinePermutation, canonical order
    monomials: tuple  # (p_part, x_part) keys spanning degree d
    rows: tuple
    levels: tuple  # _Level, p-degree ascending

    def expand(self, f: RnElement) -> dict:
        """Coefficients of f in this basis; f must be homogeneous of the degree."""
        if f.is_zero():
            return {}
        if f.degrees() != [self.degree]:
            raise ValueError(f"element is not homogeneous of degree {self.degree}")
        residual = dict(f.terms)
        coeffs: dict[int, object] = {}
        for level in self.levels:
            component: dict[tuple, dict] = {}
            for (alpha, stair), c in residual.items():
                if c and sum(alpha) == level.p_degree:
                    component.setdefault(stair, {})[alpha] = c
            if not component:
                continue
            for dual, members in zip(level.duals, level.members):
                # pair with the k-Schur function, then apply the inverse block
                paired = {}
                for stair, part in component.items():
                    t = sum(part[alpha] * c for alpha, c in dual if alpha in part)
                    if t:
                        paired[stair] = t
                by_w1: dict[int, object] = {}
                for stair, inv_row in level.inverse:
                    t = paired.get(stair)
                    if t:
                        for i1, a in inv_row:
                            by_w1[i1] = by_w1.get(i1, 0) + t * a
                for i1, c in by_w1.items():
                    if c:
                        j = members[i1]
                        coeffs[j] = c
                        for key, a in self.rows[j]:
                            residual[key] = residual.get(key, 0) - c * a
        if any(residual.values()):
            raise InternalInconsistencyError("element is outside the Schubert span")
        return {self.elements[j]: coeffs[j] for j in sorted(coeffs)}


def rn_dimension(n: int, d: int) -> int:
    """Graded dimension of R_n at degree d."""
    total = 0
    for a in range(d + 1):
        total += len(partitions(a, n - 1)) * len(_staircase_monomials(n, d - a))
    return total


def _dependent(n, d, w, w0, w1, why) -> InternalInconsistencyError:
    return InternalInconsistencyError(
        f"cannot rule out that the Schubert polynomials of degree {d} are linearly "
        f"dependent (n={n}): {why}",
        {
            "n": n,
            "d": d,
            "w": list(w.window),
            "w0": list(w0.window),
            "w1": list(w1.window),
        },
    )


@lru_cache(maxsize=None)
def schubert_basis(n: int, d: int) -> SchubertBasis:
    """Schubert polynomials of degree d with the expansion machinery.

    Checks that the count matches both the graded dimension of R_n and the
    number of length-d group elements, then proves independence from the
    product theorem H*(Fl) = H*(Gr) (x) H*(Fl_n): for w = w0 * w1 (w0
    0-Grassmannian, w1 in S_n) S_w has no term below p-degree a = l(w0), and
    its component at a is F~_lam(w0) (x) low(S_w1).  First, at each level a,
    the affine Schur functions of size a are checked to be Hall-dual to the
    k-Schur functions (a theorem: they are read from the k-Kostka matrix and
    its inverse through two different p-expansions); that makes them
    independent and is how ``expand`` reads their coefficients.  Then
    independence comes down to inverting each finite Schubert matrix, one
    rref of [B | I] per level.  A failure raises with the witness
    {n, d, w, w0, w1}; for a failed duality w0 is the Grassmannian element of
    lam and w1 the level's first finite element (in window order).
    """
    elements = elements_of_length(n, d)
    dim = rn_dimension(n, d)
    if len(elements) != dim:
        raise InternalInconsistencyError(
            f"#{{l(w)={d}}} = {len(elements)} but dim R_{n}[{d}] = {dim}"
        )
    monomials = []
    for a in range(d + 1):
        for lam in partitions(a, n - 1):
            for stair in _staircase_monomials(n, d - a):
                monomials.append((lam, stair))
    col_idx = {m: i for i, m in enumerate(monomials)}
    # expand reads the F~_lam coefficients by pairing with the k-Schur
    # functions: the pairing must be the identity at every level in use
    duals = {}
    for a in range(d + 1):
        if not _staircase_monomials(n, d - a):
            continue
        lams = partitions(a, n - 1)
        duals[a] = tuple(
            tuple((alpha, c * z_lambda(alpha)) for alpha, c in k_schur_p(n, lam).items())
            for lam in lams
        )
        for lam in lams:
            f = affine_schur_p(n, lam).terms
            paired = [sum(f.get(alpha, 0) * c for alpha, c in dual) for dual in duals[a]]
            if paired != [int(mu == lam) for mu in lams]:
                w0 = partition_to_grassmannian(n, lam)
                w1 = min(
                    (w for w in elements_of_length(n, d - a) if w.is_finite()),
                    key=lambda w: w.window,
                )
                why = f"F~_{lam} is not Hall-dual to the k-Schur functions of degree {a}"
                raise _dependent(n, d, w0 * w1, w0, w1, why)
    rows = []
    index: dict[tuple, int] = {}  # (w0, w1) -> position in elements
    lows: dict[AffinePermutation, dict] = {}  # w1 -> p-free part of S_w1
    for j, w in enumerate(elements):
        f = affine_schubert(w)
        rows.append(tuple(sorted(f.terms.items(), key=lambda t: col_idx[t[0]])))
        w0, w1 = grassmannian_factorize(w)
        a = w0.length
        low = {stair: c for (alpha, stair), c in affine_schubert(w1).terms.items() if not alpha}
        expected = {
            (alpha, stair): c * c2
            for alpha, c in affine_schur_p(n, grassmannian_to_partition(w0)).terms.items()
            for stair, c2 in low.items()
        }
        lowest = {key: c for key, c in f.terms.items() if sum(key[0]) <= a}
        if lowest != expected:
            raise _dependent(
                n, d, w, w0, w1, "the lowest p-degree part of S_w is not F~_lam(w0) * S_w1"
            )
        index[w0, w1] = j
        lows[w1] = low
    levels = []
    for a in range(d + 1):
        w1s = sorted((w1 for w1 in lows if w1.length == d - a), key=lambda w: w.window)
        stairs = _staircase_monomials(n, d - a)
        if len(w1s) != len(stairs):
            raise InternalInconsistencyError(
                f"level {a} of degree {d} (n={n}) is not square: "
                f"{len(w1s)} elements of S_{n}, {len(stairs)} staircase monomials"
            )
        if not stairs:
            continue
        lams = partitions(a, n - 1)
        w0s = [partition_to_grassmannian(n, lam) for lam in lams]
        stair_idx = {s: i for i, s in enumerate(stairs)}
        m = len(stairs)
        # one rref of [B | I]: the pivots show independence, the right half inverts
        aug = []
        for i1, w1 in enumerate(w1s):
            row = [0] * m + [int(i1 == j) for j in range(m)]
            for stair, c in lows[w1].items():
                row[stair_idx[stair]] = c
            aug.append(row)
        reduced, pivots = rref(aug)
        if pivots != list(range(m)):
            # the first row past the rank holds a dependency among the w1 rows
            tie = reduced[sum(1 for p in pivots if p < m)][m:]
            w1 = w1s[next(i for i, c in enumerate(tie) if c != 0)]
            why = f"the finite Schubert matrix of degree {d - a} is singular"
            raise _dependent(n, d, w0s[0] * w1, w0s[0], w1, why)
        levels.append(
            _Level(
                a,
                duals[a],
                tuple((stair, _sparse(row[m:], range(m))) for stair, row in zip(stairs, reduced)),
                tuple(tuple(index[w0, w1] for w1 in w1s) for w0 in w0s),
            )
        )
    return SchubertBasis(n, d, tuple(elements), tuple(monomials), tuple(rows), tuple(levels))


def _sparse(row, labels) -> tuple:
    return tuple((lab, c) for lab, c in zip(labels, row) if c != 0)


def structure_constants(u: AffinePermutation, v: AffinePermutation) -> dict:
    """Expansion of S_u * S_v in the Schubert basis of degree l(u) + l(v)."""
    if u.n != v.n:
        raise ModulusMismatchError("modulus mismatch")
    d = u.length + v.length
    basis = schubert_basis(u.n, d)
    return basis.expand(affine_schubert(u) * affine_schubert(v))


# ---------------------------------------------------------------------------
# cap operators through the cohomology structure constants


@lru_cache(maxsize=None)
def _cap_table(u: AffinePermutation, d: int) -> dict:
    """w -> ((v, p^w_{u,v}), ...) for every w of length d, v of length d - l(u).

    p^w_{u,v} is the coefficient of the class of w in the product of the
    classes of u and v, read off from the exact Schubert expansion in R_n.
    Each S_u * S_v is expanded once; v runs in ``elements_of_length`` order.
    """
    table: dict[AffinePermutation, list] = {}
    for v in elements_of_length(u.n, d - u.length):
        for w, c in structure_constants(u, v).items():
            table.setdefault(w, []).append((v, c))
    return {w: tuple(row) for w, row in table.items()}


def cap_apply(u: AffinePermutation, x: NilCoxElement) -> NilCoxElement:
    """Cap operator D_u: A_w -> sum_v p^w_{u,v} A_v."""
    if u.n != x.n:
        raise ModulusMismatchError("modulus mismatch")
    out: dict[AffinePermutation, object] = {}
    for w, c in x.terms.items():
        for v, mult in _cap_table(u, w.length).get(w, ()):
            out[v] = out.get(v, 0) + c * mult
    return NilCoxElement(x.n, out)


# ---------------------------------------------------------------------------
# alternating classes for power sums


def xi_class(n: int, m: int):
    """The alternating combination of rho classes attached to p_m.

    Returns (signed list of (sign, rho_{i,m}), R_n representative, symmetric
    projection as a p-basis SymFunc).
    """
    if not 1 <= m < n:
        raise ValueError(f"need 1 <= m < n, got m={m}")
    signed = []
    rep = RnElement(n)
    for i in range(m):
        rho = rho_element(n, i, m)
        sign = (-1) ** i
        signed.append((sign, rho))
        rep = rep + affine_schubert(rho).scale(sign)
    return signed, rep, symmetric_part(rep)
