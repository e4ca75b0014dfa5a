"""The ring R_n and affine Schubert calculus inside it.

R_n = Q[p_1..p_{n-1}, x_0..x_{n-1}] / <e_j(x), j > 0>.  Elements are stored
in normal form: the symmetric part as a k-bounded partition of power-sum
subscripts, the x part reduced to the staircase basis (exponent of x_i at
most n-1-i) by the lex Groebner basis {h_{n-i}(x_0..x_i)} of the elementary
symmetric ideal, memoised per monomial.  Every product, of two elements or
inside an operator, reduces each product of two terms as it is formed.

On top of the ring: divided differences (memoised per normal-form monomial
with normal-form images, so a call is one sum over its terms) and the Weyl
action s_i = 1 - (x_i - x_{i+1}) d_i read from them, affine Schubert
polynomials, per-degree Schubert bases with sparse exact expansion,
structure constants, cap operators on the nilCoxeter algebra (computed
independently through the coproduct, from one table of structure constants
per (u, degree)), and the alternating Chevalley-type classes attached to
power sums.

An affine Schubert polynomial is the end of a chain of divided differences,
S_u = d_i S_{u s_i}.  The chain climbs from w by right ascents, breadth
first, to the nearest element whose polynomial is memoised or that is
0-Grassmannian, where it starts at the affine Schur function; the identity
is its own top, seeded with F~_() = 1.  Every polynomial on a chain is
memoised as integer numerators over the lcm D of its seed's denominators,
the one store of S_w: a polynomial asked for is divided by D on each call.
Expansions run on those numerators too: a structure constant p^w_{u,v} is
read off the int product N_u * N_v over D_u * D_v, and an element to expand
is first cleared of its denominators, so Fractions are formed per
coefficient found, never per term.

The Schubert bases rest on the product theorem H*(Fl) = H*(Gr) (x) H*(Fl_n):
for w = w0 * w1 (w0 0-Grassmannian, w1 in S_n) the lowest p-degree part of
S_w is the affine Schur function of w0 times the finite Schubert polynomial
of w1.  So each basis is block-triangular in p-degree; it is checked and
inverted one block of elements w0 * w1 at a time (k-Schur duality on the
symmetric side; on the other, the finite Schubert matrix of degree e, at
most 101 x 101 at n = 6, inverted once for all degrees >= e and reported at
degree e when singular), and an expansion peels the blocks from the lowest
p-degree up.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add, attrgetter

from .afperm import (
    AffinePermutation,
    ascent,
    elements_of_length,
    from_reduced_word,
    grassmannian_factorize,
    grassmannian_to_partition,
    identity,
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


def _product(n: int, left, right, out=None) -> dict:
    """out plus the product of two sums of (key, coeff) pairs, in normal form.

    Each product of two terms is reduced by ``_x_normal_form`` as it is
    formed, so the x parts of the factors need not be reduced; their p parts
    must be (n-1)-bounded partitions.  Coefficients are summed as they come:
    the caller drops the zeros.
    """
    out = {} if out is None else out
    for (p1, x1), c1 in left:
        for (p2, x2), c2 in right:
            p = tuple(sorted(p1 + p2, reverse=True)) if p1 and p2 else p1 or p2
            c = c1 * c2
            for stair, a in _x_normal_form(n, tuple(map(add, x1, x2))).items():
                key = (p, stair)
                out[key] = out.get(key, 0) + c * a
    return out


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
            x_part = tuple(x_part)
            if len(x_part) != n or not all(type(e) is int and e >= 0 for e in x_part):
                raise ValueError(f"x part {x_part} is not {n} non-negative ints")
            for stair, c2 in _x_normal_form(n, x_part).items():
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
        exact = self.exact
        out = _product(self.n, self.terms.items(), other.terms.items())
        return _trusted(self.n, {key: exact(c) for key, c in out.items() if c})

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"p": list(p), "x": list(x), "coeff": str(c)} for (p, x), c in self.items()
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "RnElement":
        """The element ``to_json`` wrote; a payload of another shape raises ValueError."""
        try:
            n = data["n"]
            if type(n) is not int or n < 2 or not isinstance(data["terms"], list):
                raise TypeError("n must be an int >= 2 and terms a list")
            terms = {}
            for t in data["terms"]:
                p, x, coeff = t["p"], t["x"], t["coeff"]
                if type(coeff) is not str or not all(type(e) is int for e in (*p, *x)):
                    raise TypeError(f"term {t} needs int p and x entries and a string coeff")
                key = (tuple(p), tuple(x))
                terms[key] = terms.get(key, 0) + RnElement.exact(coeff)
            return RnElement(n, terms)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed R_n element: {exc!r}") from None


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
# divided differences, memoised per normal-form monomial, and the Weyl action
#
# d_i (the ideal of R_n is stable under it) is memoised per (n, i,
# normal-form monomial), with int coefficients and the image in normal form;
# a call sums the images over its terms.  A monomial is peeled one generator
# power g at a time, each product reduced by _product, by the twisted Leibniz
# rule d_i(g*b) = d_i(g)*b + s_i(g)*d_i(b), with
#   s_0 p_m = p_m + x_1^m - x_0^m,   d_0 p_m = sum_{a+b=m-1} x_1^a x_0^b,
#   s_i p_m = p_m, d_i p_m = 0 (i != 0),
#   s_i swaps x_i and x_{i+1} (indices mod n),
#   d_i x_i^e = sum_{a+b=e-1} x_{i+1}^a x_i^b = -d_i x_{i+1}^e.
# Only d_i is memoised: the Weyl action is read from it,
# s_i f = f - (x_i - x_{i+1}) d_i f.  For i != 0, d_i commutes with every
# p_m, so its memo holds x-monomials only and a term's p part is joined to
# each key of the image, whose p parts are empty.


def _x_mono(n, powers) -> tuple:
    """The x-monomial prod x_j^e over (j, e) in powers, as a (p_part, x_part) key."""
    expo = [0] * n
    for j, e in powers:
        expo[j] += e
    return ((), tuple(expo))


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


@lru_cache(maxsize=None)
def _dd_monomial(n: int, i: int, p_part: tuple, x_part: tuple) -> tuple:
    """d_i of the normal-form monomial p_{p_part} x^{x_part}: ((key, int), ...)."""
    if not p_part and not any(x_part):
        return ()
    g, rest = _split_power(p_part, x_part)
    image = _product(n, _d_power(n, i, g), ((rest, 1),))
    _product(n, _s_power(n, i, g), _dd_monomial(n, i, *rest), image)
    return tuple((key, c) for key, c in image.items() if c)


def _dd_terms(n: int, i: int, terms: dict) -> dict:
    """d_i of normal-form terms: one sum of their memoised images.

    int numerators stay ints; a Fraction result may be integral, so
    ``divided_difference`` passes it through ``RnElement.exact``.
    """
    out: dict[tuple, object] = {}
    for (p_part, x_part), c in terms.items():
        if i:  # p-linear: d_i(p_alpha x^beta) = p_alpha d_i(x^beta)
            for (_, stair), a in _dd_monomial(n, i, (), x_part):
                key = (p_part, stair)
                out[key] = out.get(key, 0) + c * a
            continue
        for key, a in _dd_monomial(n, i, p_part, x_part):
            out[key] = out.get(key, 0) + c * a
    return {key: c for key, c in out.items() if c}


def divided_difference(i: int, f: RnElement) -> RnElement:
    """The operator (1 - s_i)/(x_i - x_{i+1}) (i mod n)."""
    terms = _dd_terms(f.n, i % f.n, f.terms)
    return _trusted(f.n, {key: RnElement.exact(c) for key, c in terms.items()})


def weyl_action(i: int, f: RnElement) -> RnElement:
    """The ring automorphism s_i (i mod n): s_i f = f - (x_i - x_{i+1}) d_i f."""
    return f - (x_gen(f.n, i) - x_gen(f.n, i + 1)) * divided_difference(i, f)


# ---------------------------------------------------------------------------
# affine Schubert polynomials

# w -> (D, {key: int}) with S_w = sum (c / D) key, for every w a chain passed
_numerators: dict = {}


def _schubert_numerators(w: AffinePermutation) -> tuple:
    """(D, numerators) of S_w, memoising every element of its chain.

    The chain climbs from w by right ascents along the least word v (see
    ``afperm.ascent``) to the nearest element that is memoised or
    0-Grassmannian, seeds a 0-Grassmannian top with its affine Schur
    function, and comes back down v one divided difference per letter.
    """
    if w in _numerators:
        return _numerators[w]
    n = w.n
    word = ascent(w, _numerators)
    u = w * from_reduced_word(n, word)
    if u not in _numerators:  # a 0-Grassmannian top: seed it with F~_lam
        D, f = affine_schur_p(n, grassmannian_to_partition(u)).numerators()
        zero_x = (0,) * n
        _numerators[u] = D, {(lam, zero_x): c for lam, c in f.items()}
    D, terms = _numerators[u]
    for i in reversed(word):  # S_{u s_i} = d_i S_u
        terms = _dd_terms(n, i, terms)
        u = u.times_s(i)
        if not terms:  # pragma: no cover
            raise InternalInconsistencyError(f"divided-difference strip died for {u!r}")
        _numerators[u] = (D, terms)
    return _numerators[w]


def affine_schubert(w: AffinePermutation) -> RnElement:
    """The degree-l(w) representative of the Schubert class of w.

    Climb from w by right ascents to the nearest polynomial already known or
    to a 0-Grassmannian element, seeded with its affine Schur function as the
    symmetric part, and come back down with divided differences,
    S_u = d_i S_{u s_i} (BGG; Macdonald, Notes on Schubert polynomials, 1991).
    Every polynomial met on the way is memoised on integer numerators over
    the seed's common denominator, so a later chain may stop there; each
    call divides them by D.  Schubert polynomials are unique, so the result
    does not depend on which chains came first.
    """
    n = w.n
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
    rows (stair, ((i1, coeff), ...)) of the inverse finite Schubert matrix
    (``_finite_block(n, d - a)``, shared), and ``members[i0][i1]`` is the
    element w_{lam i0} * w1_{i1}.  Coefficients are canonical
    (``RnElement.exact``): ints when integral.
    """

    __slots__ = ()


class SchubertBasis(namedtuple("SchubertBasis", "n degree elements levels")):
    """All Schubert polynomials of one degree with exact expansion support.

    ``elements`` lists the AffinePermutations in canonical order; their
    Schubert polynomials are not copied here but read as (D_w, N_w) from
    the numerator memo.  They form a square matrix on the normal-form
    monomials of the degree, block-triangular in p-degree (``levels`` holds
    one ``_Level`` per p-degree, ascending), and ``expand`` peels the levels
    from the lowest up: the coefficients at a level are read from the
    residual's component there by k-Schur duality and the inverse finite
    Schubert matrix, each lands on a member element of the level, and its
    Schubert polynomial is subtracted.  The residual is int numerators over
    one running denominator D, multiplied up when a subtraction needs it
    (nothing assumes integral coefficients), and it must end at zero.
    """

    __slots__ = ()

    def expand(self, f: RnElement) -> dict:
        """Coefficients of f in this basis; f must be homogeneous of the degree."""
        if f.is_zero():
            return {}
        if f.degrees() != [self.degree]:
            raise ValueError(f"element is not homogeneous of degree {self.degree}")
        return self._expand(*f.numerators())

    def _expand(self, D: int, residual: dict) -> dict:
        """Coefficients of (sum residual[key] key) / D, residual holding ints (consumed).

        The pairing and the inverse rows give c * D; c * S_w is taken off as
        (c * D / D_w) * N_w, after the residual and D are multiplied by the
        lcm of the level's denominators of c * D / D_w.
        """
        exact = RnElement.exact
        coeffs: dict[AffinePermutation, object] = {}
        for level in self.levels:
            component: dict[tuple, dict] = {}
            for (alpha, stair), c in residual.items():
                if c and sum(alpha) == level.p_degree:
                    component.setdefault(stair, {})[alpha] = c
            if not component:
                continue
            found = []  # (c * D / D_w, N_w)
            scale = 1
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
                for i1, t in by_w1.items():
                    if t:
                        w = members[i1]
                        coeffs[w] = exact(Fraction(t, D))
                        D_w, terms = _schubert_numerators(w)
                        q = Fraction(t, D_w)
                        scale = lcm(scale, q.denominator)
                        found.append((q, terms))
            if scale != 1:
                D *= scale
                residual = {key: c * scale for key, c in residual.items()}
            for q, terms in found:
                q = q.numerator * (scale // q.denominator)
                for key, a in terms.items():
                    residual[key] = residual.get(key, 0) - q * a
        if any(residual.values()):
            raise InternalInconsistencyError("element is outside the Schubert span")
        return {w: coeffs[w] for w in sorted(coeffs, key=attrgetter("window"))}


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
def _finite_block(n: int, e: int) -> tuple:
    """(w1s, inverse) for degree e: the elements of S_n of length e in window
    order, and the rows (stair, ((i1, coeff), ...)) of B^-1, row i1 of B being
    the p-free part of S_{w1s[i1]}.  One rref of [B | I] proves independence
    by its pivots and inverts by its right half; every basis of degree d >= e
    shares the result at its level d - e.  A singular B raises with the
    witness of its own degree, {n, d: e, w: w1, w0: identity, w1}.
    """
    w1s = tuple(w for w in elements_of_length(n, e) if w.is_finite())
    stairs = _staircase_monomials(n, e)
    m = len(stairs)
    if len(w1s) != m:
        raise InternalInconsistencyError(
            f"the finite Schubert matrix of degree {e} (n={n}) is not square: "
            f"{len(w1s)} elements of S_{n}, {m} staircase monomials"
        )
    exact = RnElement.exact
    stair_idx = {s: i for i, s in enumerate(stairs)}
    aug = []
    for i1, w1 in enumerate(w1s):
        row = [0] * m + [int(i1 == j) for j in range(m)]
        D, terms = _schubert_numerators(w1)
        for (alpha, stair), c in terms.items():
            if not alpha:
                row[stair_idx[stair]] = exact(Fraction(c, D))
        aug.append(row)
    reduced, pivots = rref(aug)
    if pivots != list(range(m)):
        # the first row past the rank holds a dependency among the w1 rows
        tie = reduced[sum(1 for p in pivots if p < m)][m:]
        w1 = w1s[next(i for i, c in enumerate(tie) if c != 0)]
        why = f"the finite Schubert matrix of degree {e} is singular"
        raise _dependent(n, e, w1, identity(n), w1, why)
    inverse = tuple(
        (stair, tuple((i1, exact(c)) for i1, c in enumerate(row[m:]) if c))
        for stair, row in zip(stairs, reduced)
    )
    return w1s, inverse


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
    independent and is how ``expand`` reads their coefficients.  Then each
    element's lowest part is checked on its numerators, in canonical order
    (both checks compare cross-multiplied ints, with no Fraction arithmetic),
    and last each level's finite Schubert matrix by ``_finite_block``.  A
    failure raises with the witness {n, d, w, w0, w1}; for a failed duality
    w0 is the Grassmannian element of lam and w1 the level's first finite
    element (in window order); a singular finite block names its own degree.
    """
    elements = elements_of_length(n, d)
    dim = rn_dimension(n, d)
    if len(elements) != dim:
        raise InternalInconsistencyError(
            f"#{{l(w)={d}}} = {len(elements)} but dim R_{n}[{d}] = {dim}"
        )
    # expand reads the F~_lam coefficients by pairing with the k-Schur
    # functions: the pairing must be the identity at every level in use.  With
    # s^(k)_mu = sum (N / D) p_alpha and F~_lam = sum (N_f / D_f) p_alpha, that
    # reads sum N_f * (N z_alpha) = delta * D_f * D on ints
    exact = RnElement.exact
    duals = {}
    for a in range(d + 1):
        if not _staircase_monomials(n, d - a):
            continue
        lams = partitions(a, n - 1)
        kschur = []
        for lam in lams:
            D, terms = k_schur_p(n, lam).numerators()
            kschur.append((D, {alpha: N * z_lambda(alpha) for alpha, N in terms.items()}))
        duals[a] = tuple(
            tuple((alpha, exact(Fraction(N, D))) for alpha, N in terms.items())
            for D, terms in kschur
        )
        for lam in lams:
            Df, f = affine_schur_p(n, lam).numerators()
            paired = [sum(f.get(alpha, 0) * N for alpha, N in terms.items()) for _, terms in kschur]
            if paired != [Df * D if mu == lam else 0 for mu, (D, _) in zip(lams, kschur)]:
                w0 = partition_to_grassmannian(n, lam)
                w1 = next(w for w in elements_of_length(n, d - a) if w.is_finite())
                why = f"F~_{lam} is not Hall-dual to the k-Schur functions of degree {a}"
                raise _dependent(n, d, w0 * w1, w0, w1, why)
    for w in elements:
        D, terms = _schubert_numerators(w)
        w0, w1 = grassmannian_factorize(w)
        D1, terms1 = _schubert_numerators(w1)
        # N_w = D * S_w: its lowest part is D * F~_lam(w0) (x) low(N_w1) / D1, and
        # with F~_lam(w0) = sum (N / Df) p_alpha that reads terms * Df * D1 == N * D * c1
        Df, f = affine_schur_p(n, grassmannian_to_partition(w0)).numerators()
        low = [(stair, c1) for (beta, stair), c1 in terms1.items() if not beta]
        expected = {(alpha, stair): N * D * c1 for alpha, N in f.items() for stair, c1 in low}
        scale = Df * D1
        lowest = {key: c * scale for key, c in terms.items() if sum(key[0]) <= w0.length}
        if lowest != expected:
            raise _dependent(
                n, d, w, w0, w1, "the lowest p-degree part of S_w is not F~_lam(w0) * S_w1"
            )
    levels = []
    for a, dual in duals.items():
        w1s, inverse = _finite_block(n, d - a)
        w0s = [partition_to_grassmannian(n, lam) for lam in partitions(a, n - 1)]
        levels.append(_Level(a, dual, inverse, tuple(tuple(w0 * w1 for w1 in w1s) for w0 in w0s)))
    return SchubertBasis(n, d, tuple(elements), tuple(levels))


def structure_constants(u: AffinePermutation, v: AffinePermutation) -> dict:
    """Expansion of S_u * S_v in the Schubert basis of degree l(u) + l(v).

    The product is formed on the memoised numerators, N_u * N_v over
    D_u * D_v, and expanded as it is.
    """
    if u.n != v.n:
        raise ModulusMismatchError("modulus mismatch")
    d = u.length + v.length
    basis = schubert_basis(u.n, d)
    D_u, terms_u = _schubert_numerators(u)
    D_v, terms_v = _schubert_numerators(v)
    product = _product(u.n, terms_u.items(), terms_v.items())
    return basis._expand(D_u * D_v, {key: c for key, c in product.items() if c})


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
