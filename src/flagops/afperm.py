"""The affine symmetric group in window notation.

An element w is the bijection of Z with w(i + n) = w(i) + n determined by its
window [w(1), ..., w(n)].  The window entries sum to n(n+1)/2 and have
pairwise distinct residues mod n.  Products compose as (uv)(j) = u(v(j)), so
right multiplication by s_i swaps the window values in positions i, i+1 and
their translates.

Instances are interned and immutable; windows are tuples of ints, and group
arithmetic, lengths and cover enumeration delegate to the window kernels in
:mod:`flagops.kernels`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache

from . import kernels
from .errors import InternalInconsistencyError
from .partitions import partitions

__all__ = [
    "AffinePermutation",
    "MarkedCover",
    "identity",
    "simple",
    "from_reduced_word",
    "length",
    "apply_transposition",
    "marked_covers",
    "grassmannian_factorize",
    "cyclically_decreasing",
    "partition_to_grassmannian",
    "grassmannian_to_partition",
    "grassmannian_lift",
    "rho_element",
    "elements_of_length",
    "transposition_shift_interval",
]


def _validate_window(n, window):
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    if len(window) != n:
        raise ValueError(f"window must have {n} entries, got {len(window)}")
    if sum(window) != n * (n + 1) // 2:
        raise ValueError(f"window {window} does not sum to n(n+1)/2")
    if len({v % n for v in window}) != n:
        raise ValueError(f"window {window} has repeated residues mod {n}")


class AffinePermutation:
    """Interned element of the affine symmetric group on modulus n."""

    __slots__ = ("n", "window", "_len", "_classes", "_mcov", "_hash", "__weakref__")
    _pool: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

    def __new__(cls, n: int, window):
        # Kernel outputs are tuples of ints and are looked up as they are;
        # equal tuples hash alike, so other input is converted on a miss.
        if type(window) is tuple:
            cached = cls._pool.get((n, window))
            if cached is not None:
                return cached
        window = tuple(int(v) for v in window)
        key = (n, window)
        cached = cls._pool.get(key)
        if cached is not None:
            return cached
        _validate_window(n, window)
        self = object.__new__(cls)
        self.n = n
        self.window = window
        self._len = None
        self._classes = None
        self._mcov = {}
        self._hash = hash(key)
        cls._pool[key] = self
        return self

    def __repr__(self):
        return f"AffinePermutation({self.n}, {list(self.window)})"

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, AffinePermutation):
            return NotImplemented
        return self.n == other.n and self.window == other.window

    def __lt__(self, other):
        # canonical order: by length, then lex window
        return (self.length, self.window) < (other.length, other.window)

    def value(self, j: int) -> int:
        """w(j) for any integer j."""
        r = (j - 1) % self.n
        k = (j - 1 - r) // self.n
        return self.window[r] + k * self.n

    @property
    def length(self) -> int:
        if self._len is None:
            self._len = kernels.length(self.window, self.n)
        return self._len

    def __mul__(self, other: "AffinePermutation") -> "AffinePermutation":
        if self.n != other.n:
            raise ValueError("modulus mismatch")
        return AffinePermutation(self.n, kernels.product(self.window, other.window, self.n))

    def inverse(self) -> "AffinePermutation":
        win = [0] * self.n
        for j in range(1, self.n + 1):
            v = self.window[j - 1]
            r = (v - 1) % self.n
            k = (v - 1 - r) // self.n
            win[r] = j - k * self.n
        return AffinePermutation(self.n, win)

    def times_s(self, i: int) -> "AffinePermutation":
        """Right multiplication by the simple reflection s_i."""
        return apply_transposition(self, (i, i + 1))[0]

    def has_right_ascent(self, i: int) -> bool:
        """True iff l(w s_i) = l(w) + 1, i.e. w(i) < w(i+1)."""
        return self.value(i) < self.value(i + 1)

    def is_identity(self) -> bool:
        return self.window == tuple(range(1, self.n + 1))

    def is_zero_grassmannian(self) -> bool:
        """Minimal coset representative of w S_n: strictly increasing window."""
        return all(self.window[i] < self.window[i + 1] for i in range(self.n - 1))

    def is_finite(self) -> bool:
        """True iff w lies in the finite subgroup S_n (window is a permutation of 1..n)."""
        return sorted(self.window) == list(range(1, self.n + 1))

    def cover_classes(self):
        """Canonical indices (p, q) of Bruhat cocovers, with the lower element.

        Each class (p, q) has 1 <= p <= n, p < q, and l(w t_{p,q}) = l(w) - 1;
        all mod-n shifted representatives describe the same lower element.
        """
        if self._classes is None:
            out = []
            for p, q in kernels.cover_classes(self.window, self.n):
                lower, delta = apply_transposition(self, (p, q))
                if delta != -1:
                    raise InternalInconsistencyError("cover kernel returned a non-cover")
                out.append((p, q, lower))
            self._classes = tuple(out)
        return self._classes

    def marked_covers(self, a: int):
        """All marked strong covers of w with respect to the integer a."""
        cached = self._mcov.get(a)
        if cached is not None:
            return cached
        n = self.n
        out = []
        for p, q, lower in self.cover_classes():
            tmin, tmax = transposition_shift_interval(p, q, a, n)
            for t in range(tmin, tmax + 1):
                j1, j2 = p + t * n, q + t * n
                out.append(MarkedCover(self, lower, (j1, j2), self.value(p) + t * n))
        out = tuple(sorted(out, key=lambda c: c.index))
        self._mcov[a] = out
        return out

    def reduced_word(self) -> tuple[int, ...]:
        """Lexicographically minimal reduced word (letters are residues)."""
        w, word = self, []
        while not w.is_identity():
            for i in range(w.n):
                # left descent: s_i w shorter <=> i+1 appears before i in w^{-1}
                cand = simple(w.n, i) * w
                if cand.length == w.length - 1:
                    word.append(i)
                    w = cand
                    break
            else:  # pragma: no cover
                raise InternalInconsistencyError("no descent on a non-identity element")
        return tuple(word)

    def to_json(self) -> dict:
        return {"n": self.n, "window": list(self.window)}

    @staticmethod
    def from_json(data: dict) -> "AffinePermutation":
        return AffinePermutation(int(data["n"]), data["window"])


@dataclass(frozen=True)
class MarkedCover:
    """A Bruhat cocover together with an integer representative of its index.

    lower = upper * t_{index}, the length drops by one, index = (j1, j2) with
    j1 <= a < j2 for the anchor a it was enumerated at, and
    label = lower(j2) = upper(j1).
    """

    upper: AffinePermutation
    lower: AffinePermutation
    index: tuple[int, int]
    label: int


def transposition_shift_interval(p: int, q: int, a: int, n: int) -> tuple[int, int]:
    """Integer t with p + t*n <= a < q + t*n, as a closed interval (tmin, tmax).

    These are exactly the marked representatives of the class (p, q) with
    respect to a: t ranges over ((a - q)/n, (a - p)/n].
    """
    tmin = (a - q) // n + 1
    tmax = (a - p) // n
    return tmin, tmax


def identity(n: int) -> AffinePermutation:
    return AffinePermutation(n, range(1, n + 1))


def simple(n: int, i: int) -> AffinePermutation:
    """The simple reflection s_i (i taken mod n).

    >>> simple(3, 0).window
    (0, 2, 4)
    """
    return apply_transposition(identity(n), (i, i + 1))[0]


def from_reduced_word(n: int, word) -> AffinePermutation:
    """Product s_{i_1} ... s_{i_l}; the word need not be reduced.

    >>> from_reduced_word(3, [2, 1, 0]).window
    (-1, 1, 6)
    """
    w = identity(n)
    for i in word:
        if not 0 <= int(i) < n:
            raise ValueError(f"letter {i} is not a residue mod {n}")
        w = w.times_s(int(i))
    return w


def length(w: AffinePermutation) -> int:
    return w.length


def apply_transposition(w: AffinePermutation, index) -> tuple[AffinePermutation, int]:
    """(w * t_{j1,j2}, length delta).  Invariant under shifting the index by n."""
    j1, j2 = int(index[0]), int(index[1])
    if j1 >= j2:
        raise ValueError(f"transposition index needs j1 < j2, got {index}")
    if (j1 - j2) % w.n == 0:
        raise ValueError(f"transposition index {index} has equal residues mod {w.n}")
    moved = AffinePermutation(w.n, kernels.apply_transposition(w.window, w.n, j1, j2))
    return moved, moved.length - w.length


def marked_covers(w: AffinePermutation, a: int):
    return w.marked_covers(a)


def grassmannian_factorize(w: AffinePermutation) -> tuple[AffinePermutation, AffinePermutation]:
    """w = w0 * w1 with w0 0-Grassmannian, w1 in S_n, lengths adding."""
    w0 = AffinePermutation(w.n, sorted(w.window))
    w1 = w0.inverse() * w
    if w0.length + w1.length != w.length:  # pragma: no cover
        raise InternalInconsistencyError("grassmannian factorization lengths do not add")
    return w0, w1


def cyclically_decreasing(n: int, J) -> AffinePermutation:
    """The cyclically decreasing element w_J for a proper subset J of residues.

    s_{i+1} precedes s_i whenever both occur; J decomposes into maximal
    cyclic runs, each contributing its letters in decreasing order.
    """
    J = {int(j) % n for j in J}
    if len(J) >= n:
        raise ValueError("J must be a proper subset of the residues")
    word = []
    seen = set()
    for j in sorted(J):
        if j in seen:
            continue
        # walk to the cyclic top of the run containing j
        top = j
        while (top + 1) % n in J:
            top = (top + 1) % n
        i = top
        while True:
            word.append(i)
            seen.add(i)
            if (i - 1) % n not in J or (i - 1) % n in seen:
                break
            i = (i - 1) % n
    w = from_reduced_word(n, word)
    if w.length != len(J):  # pragma: no cover
        raise InternalInconsistencyError("cyclically decreasing word is not reduced")
    return w


@lru_cache(maxsize=None)
def _grassmannian_table(n: int, size: int) -> dict:
    return {partition_to_grassmannian(n, lam): lam for lam in partitions(size, n - 1)}


def partition_to_grassmannian(n: int, lam) -> AffinePermutation:
    """The 0-Grassmannian element w_lam of an (n-1)-bounded partition.

    Reads the residues (col - row) mod n of the cells of lam, rows bottom to
    top, each row right to left, and multiplies the corresponding simples.
    """
    lam = tuple(lam)
    k = n - 1
    if any(p > k for p in lam):
        raise ValueError(f"partition {lam} is not {k}-bounded")
    word = []
    for row in range(len(lam), 0, -1):
        for col in range(lam[row - 1], 0, -1):
            word.append((col - row) % n)
    w = from_reduced_word(n, word)
    if w.length != sum(lam) or not w.is_zero_grassmannian():  # pragma: no cover
        raise InternalInconsistencyError(f"bad Grassmannian correspondent for {lam}")
    return w


def grassmannian_to_partition(w: AffinePermutation) -> tuple[int, ...]:
    """Inverse of :func:`partition_to_grassmannian`."""
    if not w.is_zero_grassmannian():
        raise ValueError(f"{w!r} is not 0-Grassmannian")
    table = _grassmannian_table(w.n, w.length)
    lam = table.get(w)
    if lam is None:  # pragma: no cover
        raise InternalInconsistencyError("0-Grassmannian element missing from bijection table")
    return lam


def grassmannian_lift(w: AffinePermutation) -> AffinePermutation:
    """Minimal v such that w*v is 0-Grassmannian with l(wv) = l(w) + l(v).

    Breadth-first ascent by right multiplication; ties broken by the
    lexicographically smallest word for v.
    """
    if w.is_zero_grassmannian():
        return identity(w.n)
    n = w.n
    frontier = [(w, identity(n))]
    seen = {w}
    depth_cap = 4 * w.length + n * n + 16
    for _ in range(depth_cap):
        nxt = []
        for cur, v in frontier:
            for i in range(n):
                if cur.has_right_ascent(i):
                    moved = cur.times_s(i)
                    if moved in seen:
                        continue
                    seen.add(moved)
                    v2 = v.times_s(i)
                    if moved.is_zero_grassmannian():
                        return v2
                    nxt.append((moved, v2))
        if not nxt:  # pragma: no cover
            break
        frontier = nxt
    raise InternalInconsistencyError("grassmannian lift search exhausted")  # pragma: no cover


def rho_element(n: int, i: int, m: int) -> AffinePermutation:
    """The length-m element s_{-i} s_{-i+1} ... s_{-1} s_{m-1-i} ... s_1 s_0.

    >>> rho_element(3, 1, 2).reduced_word()
    (2, 0)
    """
    if not 0 <= i < m < n:
        raise ValueError(f"need 0 <= i < m < n, got i={i}, m={m}, n={n}")
    word = [(-i + t) % n for t in range(i)]
    word += [(m - 1 - i - t) % n for t in range(m - i)]
    w = from_reduced_word(n, word)
    if w.length != m:  # pragma: no cover
        raise InternalInconsistencyError("rho word is not reduced")
    return w


@lru_cache(maxsize=None)
def elements_of_length(n: int, l: int) -> tuple:
    """All elements of S~_n of length l, in canonical (length, window) order."""
    if l < 0:
        return ()
    if l == 0:
        return (identity(n),)
    out = set()
    for w in elements_of_length(n, l - 1):
        for i in range(n):
            if w.has_right_ascent(i):
                out.add(w.times_s(i))
    return tuple(sorted(out, key=lambda w: w.window))
