"""Symmetric functions with exact rational coefficients (ints where integral).

A SymFunc is a linalg.LinearCombination keyed by partitions whose context is
a basis (m, h, p, e, s, kschur, affschur) and a k (required by the last
two); sums need equal contexts, products go through the p basis.
Every basis change goes through the p basis: each basis element has one
memoised p-expansion (h by convolution, e and the forgotten functions by
omega, s by Jacobi-Trudi, m by duality with Newton's p -> h expansion), and
the coefficient of a target basis element is the Hall pairing with its dual
basis element (Macdonald, Symmetric Functions and Hall Polynomials, I.2-I.4).
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

from . import nilcox
from .afperm import AffinePermutation
from .errors import BoundExceededError
from .linalg import LinearCombination
from .partitions import as_partition, partitions, z_lambda

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

# Largest degree convert_basis expands.  Kept at 8: `compute affschur` converts
# through it, so it decides which requests exit 2, and each m-expansion makes
# 2^(r-1) Newton recursion calls per part r; raising it belongs with the CLI
# ceilings.
DEGREE_BOUND = 8


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
        a = convert_basis(self, "p") if self.basis != "p" else self
        b = convert_basis(other, "p") if other.basis != "p" else other
        out: dict[tuple, object] = {}
        for la, ca in a.terms.items():
            for lb, cb in b.terms.items():
                key = as_partition(la + lb)
                out[key] = out.get(key, 0) + ca * cb
        return SymFunc("p", out, self.k if self.k is not None else other.k)

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


@lru_cache(maxsize=None)
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


def _h_sum_to_p(h_terms) -> dict:
    """p-coefficients of sum c h_mu over the (mu, c) in h_terms."""
    out: dict[tuple, object] = {}
    for mu, c in h_terms:
        for alpha, c2 in h_to_p(mu):
            out[alpha] = out.get(alpha, 0) + c * c2
    return out


def _omega(expansion) -> tuple:
    """The involution omega on a p-expansion: p_alpha -> (-1)^(|alpha| - l(alpha)) p_alpha."""
    return tuple((alpha, -c if (sum(alpha) - len(alpha)) % 2 else c) for alpha, c in expansion)


def _m_to_p(terms: dict, alphas) -> dict:
    """The p_alpha-coefficients, alpha in alphas, of sum_mu terms[mu] m_mu.

    <m_mu, p_alpha> is the coefficient of h_mu in p_alpha, so the coefficient
    of p_alpha is sum_mu terms[mu] [h_mu] p_alpha / z_alpha, read off the
    Newton expansion p_to_h(alpha).  No variable expansion.
    """
    out: dict[tuple, object] = {}
    for alpha in alphas:
        total = 0
        for mu, c in p_to_h(alpha):
            c2 = terms.get(mu)
            if c2 is not None:
                total += c * c2
        if total != 0:
            out[alpha] = Fraction(total, z_lambda(alpha))
    return out


@lru_cache(maxsize=None)
def _p_expansion(basis: str, lam: tuple, k: int | None) -> tuple:
    """basis_lam in the p basis, as ((alpha, coeff), ...).

    Besides the SymFunc bases this knows the two Hall duals that are not one:
    "forgotten" (omega m_lam) and "p/z" (p_lam / z_lam).
    """
    if basis == "p":
        return ((lam, 1),)
    if basis == "p/z":
        return ((lam, Fraction(1, z_lambda(lam))),)
    if basis == "h":
        return h_to_p(lam)
    if basis == "e":
        return _omega(h_to_p(lam))
    if basis == "s":
        return tuple(SymFunc("p", _h_sum_to_p(_jacobi_trudi_h(lam))).terms.items())
    if basis == "m":
        return tuple(_m_to_p({lam: 1}, partitions(sum(lam))).items())
    if basis == "forgotten":
        return _omega(_p_expansion("m", lam, None))
    if basis == "kschur":
        return tuple(k_schur_p(k + 1, lam).terms.items())
    if basis == "affschur":
        return tuple(affine_schur_p(k + 1, lam).terms.items())
    raise ValueError(f"unknown basis {basis!r}")


# the Hall dual of each basis: <b_lam, (dual b)_mu> = delta_{lam, mu}
_DUAL = {
    "m": "h",
    "h": "m",
    "s": "s",
    "e": "forgotten",
    "p": "p/z",
    "kschur": "affschur",
    "affschur": "kschur",
}


def convert_basis(f: SymFunc, target: str) -> SymFunc:
    """Express f in the target basis; exact, degree-bounded.

    f goes to the p basis term by term, and the coefficient of target_lam is
    <f, dual_lam>, the Hall pairing with the dual basis element.  The affine
    Schur coefficients are the projection to the k-quotient and always
    exist.  The k-Schur functions span Q[h_1..h_k] = Q[p_1..p_k], so f has
    k-Schur coefficients iff its power sums are k-bounded.
    """
    for d in f.degrees():
        if d > DEGREE_BOUND:
            raise BoundExceededError(
                f"degree {d} exceeds the configured conversion bound {DEGREE_BOUND}"
            )
    if target == f.basis:
        return f
    if target not in _DUAL:
        raise ValueError(f"unknown basis {target!r}")
    k = f.k
    max_part = None
    if target in ("kschur", "affschur"):
        if k is None:
            raise ValueError(f"target basis {target} needs a k context on the input")
        max_part = k
    fp: dict[tuple, object] = {}
    for lam, c in f.terms.items():
        for alpha, c2 in _p_expansion(f.basis, lam, k):
            fp[alpha] = fp.get(alpha, 0) + c * c2
    fp = SymFunc("p", fp).terms
    if target == "kschur" and any(p > k for alpha in fp for p in alpha):
        raise ValueError(f"element is not in the span of the {k}-Schur functions")
    out = {
        lam: _pair(fp, _p_expansion(_DUAL[target], lam, k))
        for d in f.degrees()
        for lam in partitions(d, max_part)
    }
    return SymFunc(target, out, k)


# ---------------------------------------------------------------------------
# pairings and the k-quotient


def hall_inner(f: SymFunc, g: SymFunc):
    """Hall pairing <.,.> with <p_lam, p_mu> = delta * z_lam."""
    fp = convert_basis(f, "p") if f.basis != "p" else f
    gp = convert_basis(g, "p") if g.basis != "p" else g
    return _pair(fp.terms, gp.terms.items())


def _pair(fp: dict, gp):
    """<f, g> from f's p-coefficients (a dict) and g's (alpha, coeff) pairs."""
    total = 0
    for alpha, c in gp:
        c2 = fp.get(alpha)
        if c2 is not None:
            total += c * c2 * z_lambda(alpha)
    return total


def project_to_quotient(f: SymFunc, k: int) -> SymFunc:
    """Image in the quotient by <p_lam : some part > k>, p-truncated normal form."""
    fp = convert_basis(f, "p") if f.basis != "p" else f
    out = {lam: c for lam, c in fp.terms.items() if all(p <= k for p in lam)}
    return SymFunc("p", out, k)


# ---------------------------------------------------------------------------
# k-Schur / affine Schur / affine Stanley


@lru_cache(maxsize=None)
def h_to_p(mu: tuple) -> tuple:
    """p-expansion of h_mu by convolution: h_r = sum_{alpha |- r} p_alpha / z_alpha."""
    out = {(): 1}
    for r in mu:
        nxt: dict[tuple, object] = {}
        for alpha in partitions(r):
            w = Fraction(1, z_lambda(alpha))
            for lam, c in out.items():
                key = as_partition(lam + alpha)
                nxt[key] = nxt.get(key, 0) + c * w
        out = nxt
    return tuple(sorted(out.items()))


def k_schur(n: int, lam) -> SymFunc:
    """k-Schur function in the h basis, via the nilCoxeter elimination."""
    lam = tuple(lam)
    return SymFunc("h", dict(nilcox.k_schur_h_coeffs(n, lam)), n - 1)


@lru_cache(maxsize=None)
def k_schur_p(n: int, lam: tuple) -> SymFunc:
    """k-Schur function in the p basis (convolution route, no degree bound)."""
    return SymFunc("p", _h_sum_to_p(nilcox.k_schur_h_coeffs(n, lam).items()), n - 1)


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
    return SymFunc("p", _m_to_p(nilcox.k_kostka(n, lam), partitions(sum(lam), n - 1)), n - 1)


def affine_schur(n: int, lam) -> SymFunc:
    """Affine Schur function in the m basis (degree-bounded conversion)."""
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
def p_to_h(beta: tuple) -> tuple:
    """h-expansion of p_beta via Newton's identity (parts stay <= max(beta))."""

    def single(r):
        if r == 1:
            return {(1,): 1}
        out = {(r,): r}
        for i in range(1, r):
            for mu, c in single(r - i).items():
                key = as_partition(mu + (i,))
                out[key] = out.get(key, 0) - c
        return {mu: c for mu, c in out.items() if c != 0}

    out = {(): 1}
    for r in beta:
        nxt: dict[tuple, int] = {}
        for mu, c in out.items():
            for nu, c2 in single(r).items():
                key = as_partition(mu + nu)
                nxt[key] = nxt.get(key, 0) + c * c2
        out = nxt
    return tuple(sorted(out.items()))


def affine_stanley_p(w: AffinePermutation) -> SymFunc:
    """Affine Stanley function reduced in the k-quotient, p basis.

    The m-expansion converted to p as in convert_basis, reading only the
    k-bounded alpha, so it needs no degree bound.
    """
    k = w.n - 1
    return SymFunc("p", _m_to_p(affine_stanley(w).terms, partitions(w.length, k)), k)
