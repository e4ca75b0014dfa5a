"""Label paths in the marked strong order: BSS operators, ribbons, tableaux.

Paths descend through marked strong covers; each step carries the label
lower(j2) = upper(j1) of its index representative.  The BSS operator for a
composition J sums the endpoints of paths whose label sequence has ascent
composition J (a position p is an ascent iff labels[p] < labels[p+1],
strictly; the calibration tests pin this convention).

A ribbon is a descending chain whose word is a term of the degree-m MN
element: an MN chain class at anchor 0, the ``bruhat_ops.RibbonChain`` record
of the one memoised chain search.  A ribbon tableau stacks ribbons with
matching boundaries.  Summing tableau signs per weight gives the power-sum
expansion of k-Schur functions and the character values attached to them.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .afperm import AffinePermutation, grassmannian_to_partition
from .bruhat_ops import RibbonChain, chain_classes
from .errors import InternalInconsistencyError
from .nilcox import NilCoxElement
from .partitions import partitions, z_lambda
from .symfunc import SymFunc

__all__ = [
    "ascent_composition",
    "bss_apply",
    "RibbonChain",
    "RibbonTableau",
    "ribbons",
    "mn_coefficient",
    "ribbon_tableaux",
    "tableau_character",
    "k_schur_via_ribbons",
]


def ascent_composition(labels) -> tuple[int, ...]:
    """Composition of maximal weakly decreasing runs of a label sequence.

    >>> ascent_composition([2, 1])
    (2,)
    >>> ascent_composition([3, 1, 2])
    (2, 1)
    """
    labels = list(labels)
    if not labels:
        raise ValueError("empty label sequence")
    comp = []
    run = 1
    for p in range(len(labels) - 1):
        if labels[p] < labels[p + 1]:
            comp.append(run)
            run = 1
        else:
            run += 1
    comp.append(run)
    return tuple(comp)


@lru_cache(maxsize=None)
def _bss_terms(w: AffinePermutation, J: tuple, a: int) -> tuple:
    """Endpoints (with multiplicity) of label paths from w with composition J."""
    out: dict[AffinePermutation, int] = {}

    def rec(cur, bi, t, last):
        if bi == len(J) - 1 and t == J[bi]:
            out[cur] = out.get(cur, 0) + 1
            return
        for cover in cur.marked_covers(a):
            lab = cover.label
            if t < J[bi]:
                if t > 0 or bi > 0:
                    if lab > last:
                        continue
                rec(cover.lower, bi, t + 1, lab)
            else:
                # block bi complete: the next step must ascend into block bi+1
                if lab > last:
                    rec(cover.lower, bi + 1, 1, lab)

    if any(j < 1 for j in J):
        raise ValueError(f"composition parts must be positive: {J}")
    rec(w, 0, 0, 0)
    del rec  # rec's closure refers to rec: without this, each call leaves a cycle for the GC
    return tuple(sorted(out.items(), key=lambda t: t[0].window))


def bss_apply(x: NilCoxElement, J, a: int) -> NilCoxElement:
    """BSS operator D_J at anchor a on a nilCoxeter element."""
    J = tuple(int(j) for j in J)
    out: dict[AffinePermutation, object] = {}
    for w, c in x.terms.items():
        for end, mult in _bss_terms(w, J, a):
            out[end] = out.get(end, 0) + c * mult
    return NilCoxElement(x.n, out)


# ---------------------------------------------------------------------------
# ribbons


def ribbons(w: AffinePermutation, m: int) -> tuple:
    """All size-m ribbons with inside w: the MN chain classes at anchor 0."""
    if not 1 <= m < w.n:
        raise ValueError(f"ribbon size out of range: need 1 <= m < n, got {m}")
    return chain_classes(w, m, 0)


def mn_coefficient(w: AffinePermutation, m: int, v: AffinePermutation) -> int:
    """Signed ribbon count from w to v: the coefficient of A_v in D_{p_m}(A_w)."""
    return sum(r.sign for r in ribbons(w, m) if r.outside == v)


# ---------------------------------------------------------------------------
# ribbon tableaux


class RibbonTableau(namedtuple("RibbonTableau", "chains")):
    """Stack of ribbons (RibbonChain records) with matching boundaries, inside first."""

    __slots__ = ()

    @property
    def weight(self) -> tuple:
        return tuple(c.size for c in self.chains)

    @property
    def sigma(self) -> int:
        s = 1
        for c in self.chains:
            s *= c.sign
        return s

    @property
    def inside(self) -> AffinePermutation:
        return self.chains[0].inside

    def to_json(self) -> dict:
        return {
            "ribbons": [c.to_json() for c in self.chains],
            "sigma": self.sigma,
            "weight": list(self.weight),
        }


def ribbon_tableaux(u: AffinePermutation, weight) -> tuple:
    """All tableaux from u down to the identity with the given size sequence.

    The weight is a composition; trailing empty ribbons are never stored.
    """
    weight = tuple(int(x) for x in weight)
    if any(x < 1 for x in weight):
        raise ValueError(f"weight parts must be positive: {weight}")
    if sum(weight) != u.length:
        raise ValueError(f"weight {weight} does not sum to l(u) = {u.length}")
    if not weight:
        return (RibbonTableau(()),) if u.is_identity() else ()
    out = []

    def rec(cur, i, acc):
        if i == len(weight):
            if not cur.is_identity():  # pragma: no cover - forced by lengths
                raise InternalInconsistencyError("tableau did not land on the identity")
            out.append(RibbonTableau(tuple(acc)))
            return
        for chain in ribbons(cur, weight[i]):
            rec(chain.outside, i + 1, acc + [chain])

    rec(u, 0, [])
    del rec  # rec's closure refers to rec: without this, each call leaves a cycle for the GC
    return tuple(out)


def tableau_character(u: AffinePermutation, weight) -> int:
    """Signed tableau count for one weight composition."""
    return sum(t.sigma for t in ribbon_tableaux(u, weight))


def k_schur_via_ribbons(u: AffinePermutation, with_character: bool = False):
    """k-Schur function of a 0-Grassmannian element from ribbon tableaux.

    Returns sum_lam chi(lam)/z_lam p_lam where chi(lam) is the signed count
    of tableaux of weight lam; with_character=True also returns the chi map.
    """
    if not u.is_zero_grassmannian():
        raise ValueError(f"{u!r} is not 0-Grassmannian")
    n = u.n
    grassmannian_to_partition(u)  # validates membership
    terms = {}
    chi = {}
    for lam in partitions(u.length, n - 1):
        val = tableau_character(u, lam)
        if val:
            chi[lam] = val
            terms[lam] = Fraction(val, z_lambda(lam))
    f = SymFunc("p", terms, n - 1)
    if with_character:
        return f, chi
    return f
