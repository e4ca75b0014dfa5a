"""Symmetric functions with exact rational coefficients (ints where integral).

A SymFunc is a linalg.LinearCombination keyed by partitions whose context is
a basis (m, h, p, e, s, kschur, affschur) and a k (required by the last
two); sums need equal contexts.
The p basis is the hub, on int numerators over one denominator: since
h_r = (1/r!) sum_{alpha |- r} (r!/z_alpha) p_alpha with r!/z_alpha an
integer, every classical p-expansion has a small common denominator, and
<p_alpha, p_beta> = z_alpha delta pairs integers.  Each classical basis
element has one memoised p-expansion (D, ((alpha, N), ...)) (``_p_expansion``:
h by int convolution over D = prod lam_i!, e and the forgotten functions by
omega, s by Jacobi-Trudi, m by duality with Newton's p -> h expansion); the
two k-bases keep their memoised SymFuncs and are put over the lcm of their
denominators at each use.  ``_p_terms`` sums these into (D, {alpha: N}): it
is the one way into p for products, the Hall pairing, the k-quotient and
every basis change, which all run on ints and form each output coefficient
once.  The coefficient of a target basis element other than p is the Hall
pairing with its dual basis element (Macdonald, Symmetric Functions and Hall
Polynomials, I.2-I.4).  There is no degree bound here; the CLI's
``--max-degree`` is the one ceiling.
The two k-bases come from one matrix of the nilCoxeter algebra, the
k-Kostka matrix K: the affine Schur functions are its rows in the m basis,
and the k-Schur functions are the columns of K^{-1} in the h basis.

The quotient by the ideal spanned by p_lam with a part > k is normalised by
truncating the p-expansion to k-bounded partitions.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from . import nilcox
from .afperm import AffinePermutation
from .linalg import LinearCombination
from .partitions import as_partition, conjugate, partitions, z_lambda

__all__ = [
    "SymFunc",
    "convert_basis",
    "hall_inner",
    "project_to_quotient",
    "k_schur",
    "k_schur_p",
    "affine_schur",
    "affine_schur_p",
    "affine_stanley",
    "h_to_p",
]


class SymFunc(LinearCombination):
    """Symmetric function in a tagged basis."""

    __slots__ = ("basis", "k")

    def __init__(self, basis: str, terms=None, k: int | None = None):
        clean = {}
        for lam, c in (terms or {}).items():
            lam = tuple(lam)
            c = self.exact(c)
            if c != 0:
                clean[lam] = c
        self.basis = basis
        self.terms = clean
        self.k = k
        if basis in ("kschur", "affschur"):
            if k is None:
                raise ValueError(f"basis {basis} needs a k context")
            if any(p > k for p in itertools.chain(*clean)):
                raise ValueError(f"{basis} terms must be {k}-bounded")

    def _like(self, terms) -> "SymFunc":
        out = object.__new__(SymFunc)
        out.basis = self.basis
        out.terms = terms
        out.k = self.k
        return out

    def _context(self):
        return (self.basis, self.k)

    @staticmethod
    def _degree(lam):
        return sum(lam)

    def __repr__(self):
        return f"SymFunc(basis={self.basis!r}, terms={self.terms!r}, k={self.k!r})"

    def items(self):
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), tuple(-p for p in t[0])))

    def coeff(self, lam):
        return self.terms.get(tuple(lam), 0)

    def __mul__(self, other):
        """Product, computed in the p basis (multiplicative: concatenation).

        The bases may differ; the k contexts must agree where both are set.
        """
        if not isinstance(other, SymFunc):
            return self.scale(other)
        if None not in (self.k, other.k) and self.k != other.k:
            raise ValueError(f"SymFunc context mismatch: k={self.k} vs k={other.k}")
        (Da, a), (Db, b) = _p_terms(self), _p_terms(other)
        out: dict[tuple, int] = {}
        for la, ca in a.items():
            for lb, cb in b.items():
                key = as_partition(la + lb)
                out[key] = out.get(key, 0) + ca * cb
        return _from_ints("p", Da * Db, out, self.k if self.k is not None else other.k)

    def to_json(self) -> dict:
        return {
            "basis": self.basis,
            "k": self.k,
            "terms": [{"partition": list(l), "coeff": str(c)} for l, c in self.items()],
        }

    @staticmethod
    def from_json(data: dict) -> "SymFunc":
        terms = {tuple(t["partition"]): SymFunc.exact(t["coeff"]) for t in data["terms"]}
        return SymFunc(data["basis"], terms, data.get("k"))


# ---------------------------------------------------------------------------
# basis changes: one p-expansion per basis element, coefficients by Hall duality
#
# A p-expansion is carried as (D, terms): int numerators N over one
# denominator D > 0, the element being sum (N / D) p_alpha.


def _jacobi_trudi_h(lam: tuple) -> tuple:
    """s_lam as a signed sum of h_mu via det(h_{lam_i - i + j})."""
    l = len(lam)
    out: dict[tuple, int] = {}
    for perm in itertools.permutations(range(l)):
        parts = [lam[i] - i + perm[i] for i in range(l)]
        if any(v < 0 for v in parts):
            continue
        inversions = sum(1 for i in range(l) for j in range(i + 1, l) if perm[i] > perm[j])
        mu = as_partition(v for v in parts if v)
        out[mu] = out.get(mu, 0) + (-1) ** inversions
    return tuple(sorted((mu, c) for mu, c in out.items() if c != 0))


def _linear_sum(pairs) -> tuple:
    """(D, {alpha: N}) of sum c * e over the (c, e) in pairs, each e a
    p-expansion (D', ((alpha, N'), ...)) and c canonical: D is the lcm of the
    D' * denominator(c), and no N is zero."""
    pairs = [(c.numerator, D * c.denominator, terms) for c, (D, terms) in pairs]
    L = lcm(*(D for _, D, _ in pairs))
    out: dict[tuple, int] = {}
    for a, D, terms in pairs:
        s = a * (L // D)
        for alpha, N in terms:
            out[alpha] = out.get(alpha, 0) + s * N
    return L, {alpha: N for alpha, N in out.items() if N}


def _h_sum_to_p(h_terms) -> tuple:
    """(D, {alpha: N}) of sum c h_mu over the (mu, c) in h_terms."""
    return _linear_sum((c, _p_expansion("h", mu)) for mu, c in h_terms)


def _omega(expansion) -> tuple:
    """The involution omega on a p-expansion: p_alpha -> (-1)^(|alpha| - l(alpha)) p_alpha."""
    D, terms = expansion
    return D, tuple((alpha, -N if (sum(alpha) - len(alpha)) % 2 else N) for alpha, N in terms)


def _m_to_p(terms: dict, alphas) -> tuple:
    """(D, {alpha: N}): the p_alpha-coefficients, alpha in alphas, of sum_mu terms[mu] m_mu.

    <m_mu, p_alpha> is the coefficient of h_mu in p_alpha, so the coefficient
    of p_alpha is sum_mu terms[mu] [h_mu] p_alpha / z_alpha, read off the
    Newton expansion p_to_h(alpha): an int over z_alpha, and D is the lcm of
    those z_alpha.  No variable expansion.
    """
    out: dict[tuple, tuple] = {}
    for alpha in alphas:
        total = 0
        for mu, c in p_to_h(alpha):
            c2 = terms.get(mu)
            if c2 is not None:
                total += c * c2
        if total != 0:
            out[alpha] = total, z_lambda(alpha)
    D = lcm(*(z for _, z in out.values()))
    return D, {alpha: total * (D // z) for alpha, (total, z) in out.items()}


@lru_cache(maxsize=None)
def _p_expansion(basis: str, lam: tuple) -> tuple:
    """basis_lam in the p basis as (D, ((alpha, N), ...)), ints N over D > 0, for
    the classical bases h, e, s, m and "forgotten" (omega m_lam, the Hall dual of e).

    h_r = sum_{alpha |- r} (r! / z_alpha) p_alpha / r!, with r! / z_alpha an
    integer, so h_lam = h_{lam_1} h_{lam_2...} is an int convolution over
    D = prod lam_i!; e and the forgotten functions are omega of h and m, s
    comes from Jacobi-Trudi and m by duality with Newton's p -> h expansion.
    """
    if basis == "h":
        if not lam:
            return 1, (((), 1),)
        r = lam[0]
        D, tail = _p_expansion("h", lam[1:])
        out: dict[tuple, int] = {}
        for alpha in partitions(r):
            w = factorial(r) // z_lambda(alpha)
            for mu, N in tail:
                key = tuple(sorted(alpha + mu, reverse=True))
                out[key] = out.get(key, 0) + w * N
        return D * factorial(r), tuple(sorted(out.items()))
    if basis == "e":
        return _omega(_p_expansion("h", lam))
    if basis == "s":
        if lam and len(lam) > lam[0]:  # s_lam = omega s_lam': min(l, lam_1)! JT terms
            return _omega(_p_expansion("s", conjugate(lam)))
        D, out = _h_sum_to_p(_jacobi_trudi_h(lam))
        return D, tuple(sorted(out.items()))
    if basis == "m":
        D, out = _m_to_p({lam: 1}, partitions(sum(lam)))
        return D, tuple(out.items())
    if basis == "forgotten":
        return _omega(_p_expansion("m", lam))
    raise ValueError(f"unknown basis {basis!r}")


def _expansion(basis: str, lam: tuple, k: int | None) -> tuple:
    """basis_lam in the p basis as (D, ((alpha, N), ...)), for every basis but p.

    The k-bases are read from their memoised SymFuncs, over the lcm of their
    denominators."""
    if basis == "kschur":
        D, terms = k_schur_p(k + 1, lam).numerators()
    elif basis == "affschur":
        D, terms = affine_schur_p(k + 1, lam).numerators()
    else:
        return _p_expansion(basis, lam)
    return D, terms.items()


def _from_ints(basis: str, D: int, terms: dict, k: int | None = None) -> SymFunc:
    """sum (N / D) basis_lam over the (lam, N) in terms: one canonical coefficient
    per nonzero N, and a Fraction only when D is not 1."""
    if D == 1:
        return SymFunc(basis, {lam: N for lam, N in terms.items() if N}, k)
    return SymFunc(basis, {lam: Fraction(N, D) for lam, N in terms.items() if N}, k)


# the Hall dual of each basis: <b_lam, (dual b)_mu> = delta_{lam, mu}
_DUAL = {
    "m": "h",
    "h": "m",
    "s": "s",
    "e": "forgotten",
    "kschur": "affschur",
    "affschur": "kschur",
}


def _p_terms(f: SymFunc) -> tuple:
    """(D, {alpha: N}), f = sum (N / D) p_alpha with no zero N: f's own terms
    over their lcm in p, else the sum of the p-expansions of its basis elements."""
    if f.basis == "p":
        return f.numerators()
    return _linear_sum((c, _expansion(f.basis, lam, f.k)) for lam, c in f.terms.items())


def convert_basis(f: SymFunc, target: str) -> SymFunc:
    """Express f in the target basis; exact, at any degree.

    The p coefficients are ``_p_terms(f)``; for any other target the
    coefficient of target_lam is <f, dual_lam>, the Hall pairing with the
    dual basis element.  The affine Schur coefficients are the projection to
    the k-quotient and always exist.  The k-Schur functions span
    Q[h_1..h_k] = Q[p_1..p_k], so f has k-Schur coefficients iff its power
    sums are k-bounded.
    """
    if target == f.basis:
        return f
    k = f.k
    if target == "p":
        return _from_ints("p", *_p_terms(f), k)
    if target not in _DUAL:
        raise ValueError(f"unknown basis {target!r}")
    max_part = None
    if target in ("kschur", "affschur"):
        if k is None:
            raise ValueError(f"target basis {target} needs a k context on the input")
        max_part = k
    fp = _p_terms(f)
    if target == "kschur" and any(p > k for alpha in fp[1] for p in alpha):
        raise ValueError(f"element is not in the span of the {k}-Schur functions")
    out = {
        lam: _pair(fp, _expansion(_DUAL[target], lam, k))
        for d in f.degrees()
        for lam in partitions(d, max_part)
    }
    return SymFunc(target, out, k)


# ---------------------------------------------------------------------------
# pairings and the k-quotient


def hall_inner(f: SymFunc, g: SymFunc):
    """Hall pairing <.,.> with <p_lam, p_mu> = delta * z_lam."""
    D, gp = _p_terms(g)
    return _pair(_p_terms(f), (D, gp.items()))


def _pair(f: tuple, g: tuple):
    """<f, g>, canonical, from f as (D, {alpha: N}) and g as (D, ((alpha, N), ...)):
    an int sum over D_f * D_g, and one Fraction at most."""
    (Df, fp), (Dg, gp) = f, g
    total = 0
    for alpha, N in gp:
        N2 = fp.get(alpha)
        if N2 is not None:
            total += N * N2 * z_lambda(alpha)
    return SymFunc.exact(Fraction(total, Df * Dg))


def project_to_quotient(f: SymFunc, k: int) -> SymFunc:
    """Image in the quotient by <p_lam : some part > k>, p-truncated normal form."""
    D, fp = _p_terms(f)
    return _from_ints("p", D, {lam: N for lam, N in fp.items() if all(p <= k for p in lam)}, k)


# ---------------------------------------------------------------------------
# k-Schur / affine Schur / affine Stanley


def h_to_p(mu: tuple) -> tuple:
    """p-expansion of h_mu as ((alpha, coeff), ...), canonical coefficients:
    a reader of the integer convolution ``_p_expansion("h", mu)``."""
    D, terms = _p_expansion("h", tuple(mu))
    return tuple((alpha, SymFunc.exact(Fraction(N, D))) for alpha, N in terms)


def k_schur(n: int, lam) -> SymFunc:
    """k-Schur function in the h basis, via the nilCoxeter elimination."""
    lam = tuple(lam)
    return SymFunc("h", dict(nilcox.k_schur_h_coeffs(n, lam)), n - 1)


@lru_cache(maxsize=None)
def k_schur_p(n: int, lam: tuple) -> SymFunc:
    """k-Schur function in the p basis, summing its h-expansion on ints."""
    return _from_ints("p", *_h_sum_to_p(nilcox.k_schur_h_coeffs(n, lam).items()), n - 1)


@lru_cache(maxsize=None)
def affine_schur_p(n: int, lam: tuple) -> SymFunc:
    """Affine Schur function F~_lam in the p basis of the k-quotient.

    Its m-expansion is row lam of the k-Kostka matrix, sum_mu K[lam, mu] m_mu
    with K[lam, mu] the coefficient of A_{w_lam} in h_mu (``nilcox.k_kostka``;
    Lam, Affine Stanley symmetric functions, Amer. J. Math. 2006;
    Lapointe-Morse, Quantum cohomology and k-Schur functions, Adv. Math.
    2008), converted to p as in ``affine_stanley_p``.  The k-Schur functions
    are the columns of K^{-1} in the h basis, so the two bases are Hall-dual;
    ``schubert_basis`` checks that at every degree it uses.
    """
    return _from_ints("p", *_m_to_p(nilcox.k_kostka(n, lam), partitions(sum(lam), n - 1)), n - 1)


def affine_schur(n: int, lam) -> SymFunc:
    """Affine Schur function in the m basis."""
    return convert_basis(affine_schur_p(n, tuple(lam)), "m")


def affine_stanley(w: AffinePermutation) -> SymFunc:
    """Affine Stanley symmetric function of w in the m basis.

    The coefficient of m_lam is the coefficient of A_w in h_lam.
    """
    n = w.n
    d = w.length
    out: dict[tuple, object] = {}
    for lam in partitions(d, n - 1):
        c = nilcox.h_product(n, lam).coeff(w)
        if c != 0:
            out[lam] = c
    return SymFunc("m", out, n - 1)


@lru_cache(maxsize=None)
def _newton_h(r: int) -> tuple:
    """h-expansion of p_r by Newton's identity p_r = r h_r - sum_{0<i<r} h_i p_{r-i}."""
    out = {(r,): r}
    for i in range(1, r):
        for mu, c in _newton_h(r - i):
            key = as_partition(mu + (i,))
            out[key] = out.get(key, 0) - c
    return tuple((mu, c) for mu, c in out.items() if c != 0)


@lru_cache(maxsize=None)
def p_to_h(beta: tuple) -> tuple:
    """h-expansion of p_beta via Newton's identity (parts stay <= max(beta))."""
    out = {(): 1}
    for r in beta:
        nxt: dict[tuple, int] = {}
        for mu, c in out.items():
            for nu, c2 in _newton_h(r):
                key = tuple(sorted(mu + nu, reverse=True))
                nxt[key] = nxt.get(key, 0) + c * c2
        out = nxt
    return tuple(sorted(out.items()))


def affine_stanley_p(w: AffinePermutation) -> SymFunc:
    """Affine Stanley function reduced in the k-quotient, p basis.

    The m-expansion converted to p by duality with Newton's p -> h
    expansion, as for m in ``_p_expansion``, reading only the k-bounded alpha.
    """
    k = w.n - 1
    return _from_ints("p", *_m_to_p(affine_stanley(w).terms, partitions(w.length, k)), k)
