"""The affine symmetric group in window notation.

An element w is the bijection of Z with w(i + n) = w(i) + n determined by its
window [w(1), ..., w(n)].  The window entries sum to n(n+1)/2 and have
pairwise distinct residues mod n.  Products compose as (uv)(j) = u(v(j)), so
right multiplication by s_i swaps the window values in positions i, i+1 and
their translates.

Instances are interned and immutable; windows are tuples of ints, and group
arithmetic, lengths and cover enumeration delegate to the window kernels in
:mod:`flagops.kernels`.  The searches (``ascent``, ``elements_of_length``,
``from_reduced_word`` and the words built on it, ``reduced_word``) walk bare
windows and construct an instance only for what they return: w has a right
ascent at i iff w(i) < w(i+1), with w(0) = w(n) - n; w s_i is
``kernels.apply_transposition(window, n, i, i + 1)``; w is 0-Grassmannian iff
its window increases.
"""

from __future__ import annotations

import weakref
from collections import namedtuple
from functools import lru_cache
from operator import itemgetter

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
    "ascent",
    "grassmannian_lift",
    "rho_element",
    "elements_of_length",
    "transposition_shift_interval",
]


def _has_ascent(window, n: int, i: int) -> bool:
    """w(i) < w(i+1) for the residue 0 <= i < n, with w(0) = w(n) - n."""
    if i:
        return window[i - 1] < window[i]
    return window[-1] - n < window[0]


def _increasing(window) -> bool:
    """True iff the window increases: w is 0-Grassmannian."""
    for j in range(len(window) - 1):
        if window[j] > window[j + 1]:
            return False
    return True


def _with_length(n: int, window: tuple, length: int) -> "AffinePermutation":
    """The element of a window whose length a search has already counted."""
    w = AffinePermutation(n, window)
    w._len = length
    return w


def _grassmannian_of_length(n: int, window: tuple, length: int):
    """The element of window if it is 0-Grassmannian of this length, else None.

    The increasing test runs first; a live element gives its stored length,
    so only a window new to the pool is measured, and an element is built
    only when the answer is yes.
    """
    if not _increasing(window):
        return None
    held = AffinePermutation.interned(n, window)
    if held is None:
        return _with_length(n, window, length) if kernels.length(window, n) == length else None
    return held if held.length == length else None


def _inverse_window(window, n: int) -> tuple:
    """Window of w^{-1}."""
    win = [0] * n
    for j, v in enumerate(window, 1):
        r = (v - 1) % n
        win[r] = j - (v - 1 - r)
    return tuple(win)


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
    """Interned element of the affine symmetric group on modulus n.

    ``__new__`` keeps a weak pool with one live instance per (n, window), so
    identity is equality: instances compare and hash as plain objects, and
    every dict or set keyed by elements hashes in C.  Hashes are addresses,
    so a set of elements iterates in an order that changes from run to run;
    whatever reaches output is sorted (``__lt__``: length, then window) or
    read from a dict in insertion order, never from a set.
    """

    __slots__ = ("n", "window", "_len", "_classes", "_mcov", "__weakref__")
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
        cls._pool[key] = self
        return self

    @classmethod
    def interned(cls, n: int, window: tuple):
        """The live instance with this int-tuple window, or None; never constructs."""
        return cls._pool.get((n, window))

    def __repr__(self):
        return f"AffinePermutation({self.n}, {list(self.window)})"

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
        return AffinePermutation(self.n, _inverse_window(self.window, self.n))

    def times_s(self, i: int) -> "AffinePermutation":
        """Right multiplication by the simple reflection s_i."""
        return AffinePermutation(self.n, kernels.apply_transposition(self.window, self.n, i, i + 1))

    def has_right_ascent(self, i: int) -> bool:
        """True iff l(w s_i) = l(w) + 1, i.e. w(i) < w(i+1)."""
        return _has_ascent(self.window, self.n, i % self.n)

    def is_identity(self) -> bool:
        return self.window == tuple(range(1, self.n + 1))

    def is_zero_grassmannian(self) -> bool:
        """Minimal coset representative of w S_n: strictly increasing window."""
        return _increasing(self.window)

    def is_finite(self) -> bool:
        """True iff w lies in the finite subgroup S_n (window is a permutation of 1..n)."""
        return sorted(self.window) == list(range(1, self.n + 1))

    def cover_classes(self):
        """Canonical indices (p, q) of Bruhat cocovers, with the lower element.

        Each class (p, q) has 1 <= p <= n, p < q, and l(w t_{p,q}) = l(w) - 1;
        all mod-n shifted representatives describe the same lower element.
        The kernel's indices have distinct residues by construction; the
        length of each lower element, memoised on it, guards the kernel.
        """
        if self._classes is None:
            n, window, out = self.n, self.window, []
            for p, q in kernels.cover_classes(window, n):
                lower = AffinePermutation(n, kernels.apply_transposition(window, n, p, q))
                if lower.length != self.length - 1:
                    raise InternalInconsistencyError("cover kernel returned a non-cover")
                out.append((p, q, lower))
            self._classes = tuple(out)
        return self._classes

    def marked_covers(self, a: int):
        """All marked strong covers of w with respect to the integer a.

        A class (p, q) has 1 <= p <= n, so its label at shift t is
        w(p) + t n = window[p - 1] + t n; t runs over
        ``transposition_shift_interval(p, q, a, n)``.
        """
        cached = self._mcov.get(a)
        if cached is not None:
            return cached
        n, window, out = self.n, self.window, []
        for p, q, lower in self.cover_classes():
            label = window[p - 1]
            for t in range((a - q) // n + 1, (a - p) // n + 1):
                tn = t * n
                out.append(_new_tuple(MarkedCover, (self, lower, (p + tn, q + tn), label + tn)))
        out.sort(key=_by_index)
        out = tuple(out)
        self._mcov[a] = out
        return out

    def reduced_word(self) -> tuple[int, ...]:
        """Lexicographically minimal reduced word (letters are residues)."""
        # left descent of w at i <=> w^{-1}(i) > w^{-1}(i+1): strip the least
        # one, as a right descent of the inverse
        n = self.n
        x, word, one = _inverse_window(self.window, n), [], tuple(range(1, n + 1))
        while x != one:
            i = next(i for i in range(n) if not _has_ascent(x, n, i))
            word.append(i)
            x = kernels.apply_transposition(x, n, i, i + 1)
        return tuple(word)

    def to_json(self) -> dict:
        return {"n": self.n, "window": list(self.window)}

    @staticmethod
    def from_json(data: dict) -> "AffinePermutation":
        return AffinePermutation(int(data["n"]), data["window"])


class MarkedCover(namedtuple("MarkedCover", "upper lower index label")):
    """A Bruhat cocover together with an integer representative of its index.

    lower = upper * t_{index}, the length drops by one, index = (j1, j2) with
    j1 <= a < j2 for the anchor a it was enumerated at, and
    label = lower(j2) = upper(j1).
    """

    __slots__ = ()


# a MarkedCover from its four fields without the namedtuple's Python-level __new__
_new_tuple = tuple.__new__
_by_index = itemgetter(2)


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
    win = tuple(range(1, n + 1))
    for i in word:
        i = int(i)
        if not 0 <= i < n:
            raise ValueError(f"letter {i} is not a residue mod {n}")
        win = kernels.apply_transposition(win, n, i, i + 1)
    return AffinePermutation(n, win)


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

    s_{i+1} precedes s_i whenever both occur; since some residue is missing
    from J, no run of consecutive residues in J wraps all the way round.
    """
    J = {int(j) % n for j in J}
    if len(J) >= n:
        raise ValueError("J must be a proper subset of the residues")
    g = next(g for g in range(n) if g not in J)
    word = [(g - t) % n for t in range(1, n) if (g - t) % n in J]
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


def ascent(w: AffinePermutation, memo=()) -> tuple[int, ...]:
    """The least word v, shortest first and then lexicographic, such that w v
    is 0-Grassmannian or a key of memo.

    Breadth-first climb by right ascents, so l(w v) = l(w) + l(v).  Each
    element keeps the first word that reaches it, which is its least one,
    since a prefix of a least word is least.  Every w has a 0-Grassmannian
    element above it, so the climb ends.  It runs on windows and constructs
    nothing: an element held in memo is alive, so ``interned`` finds it.
    """
    n = w.n

    def stop(win):
        if _increasing(win):
            return True
        held = AffinePermutation.interned(n, win) if memo else None
        return held is not None and held in memo

    if stop(w.window):
        return ()
    frontier, seen = [(w.window, ())], {w.window}
    while True:
        nxt = []
        for cur, word in frontier:
            for i in range(n):
                if _has_ascent(cur, n, i):
                    moved = kernels.apply_transposition(cur, n, i, i + 1)
                    if moved in seen:
                        continue
                    if stop(moved):
                        return word + (i,)
                    seen.add(moved)
                    nxt.append((moved, word + (i,)))
        frontier = nxt


def grassmannian_lift(w: AffinePermutation) -> AffinePermutation:
    """Minimal v such that w*v is 0-Grassmannian with l(wv) = l(w) + l(v).

    Of several, the one with the least word; see :func:`ascent`.
    """
    return from_reduced_word(w.n, ascent(w))


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
        win = w.window
        for i in range(n):
            if _has_ascent(win, n, i):
                out.add(kernels.apply_transposition(win, n, i, i + 1))
    return tuple(_with_length(n, win, l) for win in sorted(out))
