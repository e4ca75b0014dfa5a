"""Small exact linear algebra over the rationals.

LinearCombination is the one element type of the nilCoxeter algebra, the
ring R_n and symmetric functions: sparse rational combinations of basis keys.
Every coefficient is in the one canonical form that
``LinearCombination.exact`` gives: an int when the value is integral, a
Fraction otherwise.  Most coefficients met in practice (the signed chain sums
of the Bruhat operators) are integers, and int arithmetic is several times
cheaper than Fraction arithmetic; the two forms compare and hash equal, and
print the same with ``str``.  Where Fractions would pile up, a caller works
on int numerators over one common denominator instead (``numerators``; the
Schubert polynomial memo and ``SchubertBasis.expand`` in ``schubert``, every
p-expansion in ``symfunc``) and forms a canonical coefficient only for each
value it returns.

``rref`` serves only ``schubert._finite_block``, one elimination per finite
degree e, shared by every Schubert basis of degree at least e (at most
101 x 101 at n = 6): plain Gaussian elimination on lists of exact
rationals, no floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class LinearCombination:
    """Finitely supported map basis key -> nonzero coefficient, over a context.

    A coefficient is always in ``exact``'s canonical form (int if integral,
    else Fraction): the public constructors, ``+``, ``-`` and ``scale`` put
    it there, and negation keeps it.

    Subclasses fix the keys and provide:

    - ``_context()``: what two operands must share (the modulus n, or a basis
      and k); a mismatch raises the class's ``_mismatch_error``;
    - ``_like(terms)``: an element with the same context and the given terms,
      which must already be clean (normal-form keys, nonzero canonical
      coefficients);
    - ``_degree(key)``: the degree of one key.

    Elements are immutable once built: no method changes ``terms``.
    """

    __slots__ = ("terms",)
    _mismatch_error = ValueError

    @staticmethod
    def exact(c):
        """The canonical coefficient equal to c: an int if c is integral, else a Fraction.

        >>> LinearCombination.exact(Fraction(4, 2)), LinearCombination.exact("3/1")
        (2, 3)
        >>> LinearCombination.exact(Fraction(1, 3))
        Fraction(1, 3)
        """
        t = type(c)
        if t is int:
            return c
        if t is not Fraction:
            c = Fraction(c)
        return c.numerator if c.denominator == 1 else c

    def _check(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self._context() != other._context():
            raise self._mismatch_error(
                f"{type(self).__name__} context mismatch: "
                f"{self._context()!r} vs {other._context()!r}"
            )

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self._context() == other._context()
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self._context(), frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> list:
        return sorted({self._degree(key) for key in self.terms})

    def homogeneous(self, d: int):
        return self._like({key: c for key, c in self.terms.items() if self._degree(key) == d})

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        exact = self.exact
        return self._like({key: exact(c) for key, c in out.items() if c != 0})

    def __neg__(self):
        return self._like({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def numerators(self) -> tuple:
        """(D, {key: N}): the terms as int numerators N over their least common denominator D."""
        D = lcm(*(c.denominator for c in self.terms.values()))
        return D, {key: c.numerator * (D // c.denominator) for key, c in self.terms.items()}

    def scale(self, c):
        exact = self.exact
        c = exact(c)
        return self._like({key: exact(c * v) for key, v in self.terms.items()} if c != 0 else {})

    __rmul__ = scale


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1, 1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots

