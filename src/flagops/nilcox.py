"""The affine nilCoxeter algebra and its commutative subalgebra.

Elements are finitely supported rational combinations of basis elements A_w
indexed by affine permutations, with A_v A_w = A_{vw} when lengths add and 0
otherwise.  The subalgebra spanned by the cyclically-decreasing sums h_i is
commutative; its distinguished basis of noncommutative k-Schur elements is
pinned down by having a single 0-Grassmannian term: its h-coefficients are
the inverse of the k-Kostka matrix, the 0-Grassmannian coefficients of the h_mu.
That matrix is unitriangular, so the inverse is integer substitution, with the
triangular shape checked on every row rather than assumed.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from . import kernels
from .afperm import (
    AffinePermutation,
    _grassmannian_of_length,
    cyclically_decreasing,
    grassmannian_factorize,
    grassmannian_to_partition,
    identity,
    partition_to_grassmannian,
)
from .errors import InternalInconsistencyError, ModulusMismatchError
from .linalg import LinearCombination
from .partitions import as_partition, partitions

__all__ = [
    "NilCoxElement",
    "basis_element",
    "unit",
    "zero",
    "multiply",
    "h_element",
    "h_product",
    "coeff_of_identity",
    "noncommutative_k_schur",
    "k_kostka",
    "k_schur_h_coeffs",
    "tensor_decompose",
]


class NilCoxElement(LinearCombination):
    """Finitely supported map AffinePermutation -> coefficient; no zero terms.

    Coefficients are canonical (``LinearCombination.exact``): an int when
    integral, else a Fraction.  The Bruhat operators, products and h-elements
    all stay on ints.
    """

    __slots__ = ("n",)
    _mismatch_error = ModulusMismatchError

    def __init__(self, n: int, terms=None):
        self.n = n
        clean = {}
        if terms:
            exact = self.exact
            for w, c in terms.items():
                c = exact(c)
                if c != 0:
                    clean[w] = c
        self.terms = clean

    def _like(self, terms) -> "NilCoxElement":
        out = object.__new__(NilCoxElement)
        out.n = self.n
        out.terms = terms
        return out

    def _context(self):
        return self.n

    @staticmethod
    def _degree(w):
        return w.length

    def __repr__(self):
        if not self.terms:
            return f"NilCoxElement({self.n}, 0)"
        bits = [f"{c}*A{list(w.window)}" for w, c in self.items()]
        return " + ".join(bits)

    def items(self):
        return sorted(self.terms.items(), key=lambda t: (t[0].length, t[0].window))

    def __mul__(self, other):
        if isinstance(other, NilCoxElement):
            return multiply(self, other)
        return self.scale(other)

    def coeff(self, w: AffinePermutation):
        return self.terms.get(w, 0)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"word": list(w.reduced_word()), "coeff": str(c)} for w, c in self.items()
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "NilCoxElement":
        from .afperm import from_reduced_word

        n = int(data["n"])
        terms = {}
        for t in data["terms"]:
            w = from_reduced_word(n, t["word"])
            terms[w] = terms.get(w, 0) + NilCoxElement.exact(t["coeff"])
        return NilCoxElement(n, terms)


def zero(n: int) -> NilCoxElement:
    return NilCoxElement(n)


def unit(n: int) -> NilCoxElement:
    return NilCoxElement(n, {identity(n): 1})


def basis_element(w: AffinePermutation) -> NilCoxElement:
    return NilCoxElement(w.n, {w: 1})


def multiply(x: NilCoxElement, y: NilCoxElement) -> NilCoxElement:
    """Bilinear extension of A_v A_w = A_{vw} if lengths add, else 0."""
    x._check(y)
    out: dict[AffinePermutation, object] = {}
    for v, cv in x.terms.items():
        for w, cw in y.terms.items():
            vw = v * w
            if vw.length == v.length + w.length:
                out[vw] = out.get(vw, 0) + cv * cw
    return NilCoxElement(x.n, out)


@lru_cache(maxsize=None)
def h_element(n: int, i: int) -> NilCoxElement:
    """h_i = sum of A_{w_J} over i-subsets J of the residues; h_0 = 1."""
    if i >= n:
        raise ValueError(f"h_i needs i < n, got i={i}, n={n}")
    if i < 0:
        return zero(n)
    terms = {cyclically_decreasing(n, J): 1 for J in combinations(range(n), i)}
    return NilCoxElement(n, terms)


@lru_cache(maxsize=None)
def h_product(n: int, mu: tuple) -> NilCoxElement:
    """h_mu = h_{mu_1} ... h_{mu_l} (the factors commute)."""
    if not mu:
        return unit(n)
    return h_product(n, mu[:-1]) * h_element(n, mu[-1])


def coeff_of_identity(x: NilCoxElement):
    return x.coeff(identity(x.n))


@lru_cache(maxsize=None)
def _grassmannian_h(n: int, mu: tuple) -> dict:
    """The 0-Grassmannian part of h_mu, as {w: int}: the weak Pieri rule.

    h_mu = h_{mu_1} (h_{mu_2} (...)) as the h_i commute.  A product A_v A_w
    with lengths adding keeps every right descent of w, so a term that is not
    0-Grassmannian never feeds one and is dropped after each factor; what is
    left counts the weak k-tableaux of shape w and weight mu (Lapointe-Morse,
    Quantum cohomology and k-Schur functions, Adv. Math. 2008).  Products
    are formed and summed on windows, and each distinct one is tested once:
    first for an increasing window (0-Grassmannian, false for most), and
    only then for length additivity, l(vw) = |mu|.  An AffinePermutation is
    built only for a term of the result.
    """
    if not mu:
        return {identity(n): 1}
    rest = _grassmannian_h(n, mu[1:])
    sums: dict[tuple, int] = {}
    product, get = kernels.product, sums.get
    for v in h_element(n, mu[0]).terms:
        vwin = v.window
        for w, c in rest.items():
            vw = product(vwin, w.window, n)
            sums[vw] = get(vw, 0) + c
    size = sum(mu)  # l(v) + l(w) for every pair
    out: dict[AffinePermutation, int] = {}
    for vw, c in sums.items():
        g = _grassmannian_of_length(n, vw, size)
        if g is not None:
            out[g] = c
    return out


def _check_k_bounded(n: int, lam: tuple) -> None:
    k = n - 1
    if as_partition(lam) != lam:
        raise ValueError(f"{lam!r} is not a partition")
    if any(p > k for p in lam):
        raise ValueError(f"partition {lam} is not {k}-bounded")


def k_kostka(n: int, lam: tuple) -> dict:
    """Row lam of the k-Kostka matrix K, as {mu: K[lam, mu]} over its nonzero entries.

    K[lam, mu] is the coefficient of A_{w_lam} in h_mu, over the k-bounded mu
    of |lam|, read by the weak Pieri rule: the number of weak k-tableaux of
    shape lam and weight mu.
    """
    _check_k_bounded(n, lam)
    g = partition_to_grassmannian(n, lam)
    out = {}
    for mu in partitions(sum(lam), n - 1):
        c = _grassmannian_h(n, mu).get(g)
        if c:
            out[mu] = c
    return out


@lru_cache(maxsize=None)
def _k_schur_columns(n: int, d: int) -> dict:
    """lam -> {mu: c_mu} for every k-bounded partition lam of d.

    s^(k)_lam = sum_mu K^{-1}[mu, lam] h_mu: column lam of the inverse of the
    k-Kostka matrix K of degree d (rows from ``k_kostka``).  K is unitriangular
    in ``partitions`` order: K[lam, lam] = 1 and K[lam, mu] != 0 only for lam
    at or before mu (mu is dominated by lam; Lapointe-Morse 2008).  So column
    lam of K^{-1} is e_lam - sum K[nu, lam] * (column nu) over the nu before
    lam: integer substitution, front to back.  The shape is checked on every
    row; a row that breaks it raises rather than being solved.
    """
    mus = partitions(d, n - 1)
    order = {mu: i for i, mu in enumerate(mus)}
    rows = {}
    for lam in mus:
        row = rows[lam] = k_kostka(n, lam)
        if row.get(lam) != 1 or any(order[mu] < order[lam] for mu in row):
            raise InternalInconsistencyError(
                f"k-Kostka matrix not unitriangular at n={n}: row {lam} is {row}"
            )
    cols: dict[tuple, dict] = {}
    for lam in mus:
        col = {lam: 1}
        for nu, before in cols.items():
            k = rows[nu].get(lam)
            if k:
                for mu, c in before.items():
                    col[mu] = col.get(mu, 0) - k * c
        cols[lam] = {mu: col[mu] for mu in mus if col.get(mu)}
    return cols


def k_schur_h_coeffs(n: int, lam: tuple) -> dict:
    """Coefficients c_mu with s^(k)_lam = sum_mu c_mu h_mu (a shared dict: do not mutate).

    Column lam of the inverse k-Kostka matrix of the degree.
    """
    _check_k_bounded(n, lam)
    return _k_schur_columns(n, sum(lam))[lam]


def noncommutative_k_schur(n: int, lam) -> NilCoxElement:
    """The element of the h-subalgebra whose sole 0-Grassmannian term is A_{w_lam}."""
    lam = tuple(lam)
    out = zero(n)
    for mu, c in k_schur_h_coeffs(n, lam).items():
        out = out + h_product(n, mu).scale(c)
    grass = {w: c for w, c in out.terms.items() if w.is_zero_grassmannian()}
    if grass != {partition_to_grassmannian(n, lam): 1}:  # pragma: no cover
        raise InternalInconsistencyError(f"k-Schur uniqueness failed for {lam}")
    return out


def tensor_decompose(x: NilCoxElement) -> dict:
    """Coefficients of x in the basis s^(k)_{w0} * A_{w1}.

    Peels terms with the longest Grassmannian part first; within one pass the
    subtraction only disturbs terms with strictly shorter Grassmannian part.
    """
    n = x.n
    work = x
    out: dict[tuple[AffinePermutation, AffinePermutation], object] = {}
    while not work.is_zero():
        w = max(work.terms, key=lambda w: (grassmannian_factorize(w)[0].length, w.window))
        c = work.terms[w]
        w0, w1 = grassmannian_factorize(w)
        out[(w0, w1)] = out.get((w0, w1), 0) + c
        lam = grassmannian_to_partition(w0)
        basis_vec = noncommutative_k_schur(n, lam) * basis_element(w1)
        work = work - basis_vec.scale(c)
    return {key: c for key, c in out.items() if c != 0}


def tensor_reconstruct(n: int, decomposition: dict) -> NilCoxElement:
    """Inverse of :func:`tensor_decompose`."""
    out = zero(n)
    for (w0, w1), c in decomposition.items():
        lam = grassmannian_to_partition(w0)
        out = out + (noncommutative_k_schur(n, lam) * basis_element(w1)).scale(c)
    return out
