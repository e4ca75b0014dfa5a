"""Symmetric functions with exact rational coefficients.

A SymFunc is a finitely supported map partition -> Fraction tagged with a
basis (m, h, p, e, s, kschur, affschur; the last two carry a k context).
Classical basis changes go through the monomial basis: a degree-d component
is expanded as an honest polynomial in d variables, which is faithful, and
the per-degree transition matrices are cached.  The h -> p expansion is also
available as a convolution (no variable expansion), which is what the
higher-degree Schubert pipeline uses.

The quotient by the ideal spanned by p_lam with a part > k is normalised by
truncating the p-expansion to k-bounded partitions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import nilcox
from .afperm import AffinePermutation
from .errors import BoundExceededError
from .linalg import invert
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

CLASSICAL = ("m", "h", "p", "e", "s")

DEGREE_BOUND = 8  # largest degree convert_basis expands


@dataclass(frozen=True)
class SymFunc:
    """Symmetric function in a tagged basis."""

    basis: str
    terms: dict = field(default_factory=dict)
    k: int | None = None

    def __post_init__(self):
        clean = {}
        for lam, c in self.terms.items():
            lam = tuple(lam)
            c = Fraction(c)
            if c != 0:
                clean[lam] = c
        object.__setattr__(self, "terms", clean)
        if self.basis in ("kschur", "affschur"):
            if self.k is None:
                raise ValueError(f"basis {self.basis} needs a k context")
            if any(p > self.k for p in itertools.chain(*clean)):
                raise ValueError(f"{self.basis} terms must be {self.k}-bounded")

    def items(self):
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), tuple(-p for p in t[0])))

    def coeff(self, lam) -> Fraction:
        return self.terms.get(tuple(lam), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self):
        return sorted({sum(lam) for lam in self.terms})

    def homogeneous(self, d: int) -> "SymFunc":
        return SymFunc(self.basis, {l: c for l, c in self.terms.items() if sum(l) == d}, self.k)

    def __add__(self, other):
        if self.basis != other.basis or self.k != other.k:
            raise ValueError("cannot add SymFuncs in different bases")
        out = dict(self.terms)
        for lam, c in other.terms.items():
            out[lam] = out.get(lam, Fraction(0)) + c
        return SymFunc(self.basis, out, self.k)

    def __neg__(self):
        return SymFunc(self.basis, {l: -c for l, c in self.terms.items()}, self.k)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "SymFunc":
        c = Fraction(c)
        return SymFunc(self.basis, {l: c * v for l, v in self.terms.items()}, self.k)

    def __mul__(self, other):
        """Product, computed in the p basis (multiplicative: concatenation)."""
        if not isinstance(other, SymFunc):
            return self.scale(other)
        a = convert_basis(self, "p") if self.basis != "p" else self
        b = convert_basis(other, "p") if other.basis != "p" else other
        out: dict[tuple, Fraction] = {}
        for la, ca in a.terms.items():
            for lb, cb in b.terms.items():
                key = as_partition(la + lb)
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return SymFunc("p", out, self.k if self.k is not None else other.k)

    __rmul__ = __mul__

    def to_json(self) -> dict:
        return {
            "basis": self.basis,
            "k": self.k,
            "terms": [{"partition": list(l), "coeff": str(c)} for l, c in self.items()],
        }

    @staticmethod
    def from_json(data: dict) -> "SymFunc":
        terms = {tuple(t["partition"]): Fraction(t["coeff"]) for t in data["terms"]}
        return SymFunc(data["basis"], terms, data.get("k"))


# ---------------------------------------------------------------------------
# monomial expansions of the classical bases (faithful in d variables)


def _poly_mul(p1, p2, nvars):
    out: dict[tuple, Fraction] = {}
    for e1, c1 in p1.items():
        for e2, c2 in p2.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return out


def _gen_poly(basis: str, r: int, nvars: int):
    """h_r, e_r or p_r as a polynomial dict in nvars variables."""
    out: dict[tuple, Fraction] = {}
    if basis == "p":
        for i in range(nvars):
            e = [0] * nvars
            e[i] = r
            out[tuple(e)] = Fraction(1)
    elif basis == "h":
        for combo in itertools.combinations_with_replacement(range(nvars), r):
            e = [0] * nvars
            for i in combo:
                e[i] += 1
            out[tuple(e)] = Fraction(1)
    elif basis == "e":
        for combo in itertools.combinations(range(nvars), r):
            e = [0] * nvars
            for i in combo:
                e[i] = 1
            out[tuple(e)] = Fraction(1)
    else:  # pragma: no cover
        raise ValueError(basis)
    return out


@lru_cache(maxsize=None)
def _jacobi_trudi_h(lam: tuple) -> tuple:
    """s_lam as a signed sum of h_mu via det(h_{lam_i - i + j})."""
    l = len(lam)
    out: dict[tuple, Fraction] = {}
    for perm in itertools.permutations(range(l)):
        sign = Fraction(1)
        seen = list(perm)
        # permutation sign by counting inversions
        inv = sum(1 for i in range(l) for j in range(i + 1, l) if seen[i] > seen[j])
        sign = Fraction(-1) ** inv
        parts = []
        ok = True
        for i in range(l):
            v = lam[i] - (i + 1) + (perm[i] + 1)
            if v < 0:
                ok = False
                break
            if v > 0:
                parts.append(v)
        if not ok:
            continue
        mu = as_partition(tuple(parts)) if parts else ()
        out[mu] = out.get(mu, Fraction(0)) + sign
    return tuple(sorted((mu, c) for mu, c in out.items() if c != 0))


@lru_cache(maxsize=None)
def _to_m_row(basis: str, lam: tuple) -> tuple:
    """Expansion of basis_lam in the monomial basis, as ((mu, coeff), ...)."""
    d = sum(lam)
    if basis == "m":
        return ((lam, Fraction(1)),)
    if basis == "s":
        out: dict[tuple, Fraction] = {}
        for mu, c in _jacobi_trudi_h(lam):
            for nu, c2 in _to_m_row("h", mu):
                out[nu] = out.get(nu, Fraction(0)) + c * c2
        return tuple(sorted((m, c) for m, c in out.items() if c != 0))
    if d == 0:
        return (((), Fraction(1)),)
    nvars = d
    poly = {tuple([0] * nvars): Fraction(1)}
    for part in lam:
        poly = _poly_mul(poly, _gen_poly(basis, part, nvars), nvars)
    out = {}
    for expo, c in poly.items():
        # the m_mu coefficient sits on the weakly decreasing exponent vector
        if all(expo[i] >= expo[i + 1] for i in range(nvars - 1)):
            out[tuple(x for x in expo if x)] = c
    return tuple(sorted(out.items()))


@lru_cache(maxsize=None)
def _m_matrix(basis: str, d: int):
    """Partitions of d and the inverse of the basis -> m matrix at degree d."""
    lams = list(partitions(d))
    idx = {lam: i for i, lam in enumerate(lams)}
    mat = [[Fraction(0)] * len(lams) for _ in lams]
    for i, lam in enumerate(lams):
        for mu, c in _to_m_row(basis, lam):
            mat[i][idx[mu]] = c
    return lams, invert(mat)


def _component_to_m(f: SymFunc, d: int) -> dict:
    out: dict[tuple, Fraction] = {}
    comp = f.homogeneous(d)
    if f.basis in CLASSICAL:
        for lam, c in comp.terms.items():
            for mu, c2 in _to_m_row(f.basis, lam):
                out[mu] = out.get(mu, Fraction(0)) + c * c2
    elif f.basis == "kschur":
        for lam, c in comp.terms.items():
            g = convert_basis(k_schur(f.k + 1, lam), "m")
            for mu, c2 in g.terms.items():
                out[mu] = out.get(mu, Fraction(0)) + c * c2
    elif f.basis == "affschur":
        for lam, c in comp.terms.items():
            g = affine_schur(f.k + 1, lam)
            for mu, c2 in g.terms.items():
                out[mu] = out.get(mu, Fraction(0)) + c * c2
    else:  # pragma: no cover
        raise ValueError(f.basis)
    return out


def convert_basis(f: SymFunc, target: str) -> SymFunc:
    """Express f in the target basis; exact, degree-bounded."""
    for d in f.degrees():
        if d > DEGREE_BOUND:
            raise BoundExceededError(
                f"degree {d} exceeds the configured conversion bound {DEGREE_BOUND}"
            )
    if target == f.basis:
        return f
    out: dict[tuple, Fraction] = {}
    for d in f.degrees():
        m_terms = _component_to_m(f, d)
        if target == "m":
            for mu, c in m_terms.items():
                out[mu] = out.get(mu, Fraction(0)) + c
            continue
        if target in ("kschur", "affschur"):
            out.update(_m_to_k_basis(m_terms, d, target, f.k))
            continue
        lams, inv = _m_matrix(target, d)
        idx = {lam: i for i, lam in enumerate(lams)}
        vec = [Fraction(0)] * len(lams)
        for mu, c in m_terms.items():
            vec[idx[mu]] = c
        for j, lam in enumerate(lams):
            c = sum((vec[i] * inv[i][j] for i in range(len(lams))), Fraction(0))
            if c != 0:
                out[lam] = out.get(lam, Fraction(0)) + c
    return SymFunc(target, out, f.k)


def _m_to_k_basis(m_terms: dict, d: int, target: str, k: int | None) -> dict:
    """Degree-d coefficients in the k-Schur or affine Schur basis, by Hall duality.

    The affine Schur functions are the Hall duals of the k-Schur functions, so
    the coefficient of s^(k)_lam is <f, affschur_lam> and that of affschur_lam
    is <f, s^(k)_lam>.  The affine Schur coefficients are the projection to the
    k-quotient and always exist.  The k-Schur functions span Q[h_1..h_k] =
    Q[p_1..p_k], so f has k-Schur coefficients iff its power sums are k-bounded.
    """
    if k is None:
        raise ValueError(f"target basis {target} needs a k context on the input")
    n = k + 1
    fp = convert_basis(SymFunc("m", m_terms), "p")
    if target == "kschur" and any(p > k for alpha in fp.terms for p in alpha):
        raise ValueError(f"element is not in the span of the {k}-Schur functions")
    dual = affine_schur_p if target == "kschur" else k_schur_p
    coeffs = {lam: hall_inner(fp, dual(n, lam)) for lam in partitions(d, k)}
    return {lam: c for lam, c in coeffs.items() if c != 0}


# ---------------------------------------------------------------------------
# pairings and the k-quotient


def hall_inner(f: SymFunc, g: SymFunc) -> Fraction:
    """Hall pairing <.,.> with <p_lam, p_mu> = delta * z_lam."""
    fp = convert_basis(f, "p") if f.basis != "p" else f
    gp = convert_basis(g, "p") if g.basis != "p" else g
    total = Fraction(0)
    for lam, c in fp.terms.items():
        c2 = gp.terms.get(lam)
        if c2 is not None:
            total += c * c2 * z_lambda(lam)
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
    out = {(): Fraction(1)}
    for r in mu:
        nxt: dict[tuple, Fraction] = {}
        for alpha in partitions(r):
            w = Fraction(1, z_lambda(alpha))
            for lam, c in out.items():
                key = as_partition(lam + alpha)
                nxt[key] = nxt.get(key, Fraction(0)) + c * w
        out = nxt
    return tuple(sorted(out.items()))


def k_schur(n: int, lam) -> SymFunc:
    """k-Schur function in the h basis, via the nilCoxeter elimination."""
    lam = tuple(lam)
    return SymFunc("h", dict(nilcox.k_schur_h_coeffs(n, lam)), n - 1)


@lru_cache(maxsize=None)
def k_schur_p(n: int, lam: tuple) -> SymFunc:
    """k-Schur function in the p basis (convolution route, no degree bound)."""
    out: dict[tuple, Fraction] = {}
    for mu, c in nilcox.k_schur_h_coeffs(n, lam).items():
        for alpha, c2 in h_to_p(mu):
            out[alpha] = out.get(alpha, Fraction(0)) + c * c2
    return SymFunc("p", out, n - 1)


@lru_cache(maxsize=None)
def _affine_schur_p_matrix(n: int, d: int):
    """Rows: p-coefficients of affschur_lam over k-bounded partitions of d."""
    k = n - 1
    lams = list(partitions(d, k))
    idx = {lam: i for i, lam in enumerate(lams)}
    mat = [[Fraction(0)] * len(lams) for _ in lams]
    for i, lam in enumerate(lams):
        for alpha, c in k_schur_p(n, lam).terms.items():
            mat[i][idx[alpha]] = c * z_lambda(alpha)
    inv = invert(mat)
    # rows of transpose(inv) are the duals
    return lams, [[inv[j][i] for j in range(len(lams))] for i in range(len(lams))]


def affine_schur_p(n: int, lam) -> SymFunc:
    """Affine Schur function in the p basis of the k-quotient.

    Dual basis to the k-Schur functions under the Hall pairing.
    """
    lam = tuple(lam)
    lams, rows = _affine_schur_p_matrix(n, sum(lam))
    row = rows[lams.index(lam)]
    return SymFunc("p", {alpha: c for alpha, c in zip(lams, row)}, n - 1)


def affine_schur(n: int, lam) -> SymFunc:
    """Affine Schur function in the m basis (degree-bounded conversion)."""
    return convert_basis(affine_schur_p(n, lam), "m")


def affine_stanley(w: AffinePermutation) -> SymFunc:
    """Affine Stanley symmetric function of w in the m basis.

    The coefficient of m_lam is the coefficient of A_w in h_lam.
    """
    n = w.n
    d = w.length
    out: dict[tuple, Fraction] = {}
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
            return {(1,): Fraction(1)}
        out = {(r,): Fraction(r)}
        for i in range(1, r):
            for mu, c in single(r - i).items():
                key = as_partition(mu + (i,))
                out[key] = out.get(key, Fraction(0)) - c
        return {mu: c for mu, c in out.items() if c != 0}

    out = {(): Fraction(1)}
    for r in beta:
        nxt: dict[tuple, Fraction] = {}
        for mu, c in out.items():
            for nu, c2 in single(r).items():
                key = as_partition(mu + nu)
                nxt[key] = nxt.get(key, Fraction(0)) + c * c2
        out = nxt
    return tuple(sorted(out.items()))


def affine_stanley_p(w: AffinePermutation) -> SymFunc:
    """Affine Stanley function reduced in the k-quotient, p basis.

    The m-coefficient of m_mu equals <F, h_mu>, so the p-coefficient of a
    k-bounded alpha is sum_mu [p_alpha : h_mu] <F, h_mu> / z_alpha with the
    Newton expansion of p_alpha in h's.  No variable expansion, no bound.
    """
    n = w.n
    k = n - 1
    m_coeffs = {lam: c for lam, c in affine_stanley(w).terms.items()}
    out: dict[tuple, Fraction] = {}
    for alpha in partitions(w.length, k):
        total = Fraction(0)
        for mu, c in p_to_h(alpha):
            c2 = m_coeffs.get(mu)
            if c2 is not None:
                total += c * c2
        if total != 0:
            out[alpha] = total / z_lambda(alpha)
    return SymFunc("p", out, k)
