"""Bruhat operators on the nilCoxeter algebra.

A letter [i j] (integers i < j, distinct residues) acts on a basis element by
A_w . [i j] = A_{w t_{ij}} when the length drops by one and kills it
otherwise; [j i] is -[i j].  On top of the letters sit

* Dunkl operators: sum of all letters through a fixed integer i;
* Murnaghan-Nakayama operators of degree m at anchor a: the signed sum of
  words x_{D_L} over connected-tree diagrams D with m boxes in the strip
  {(x, y) : x <= a < y} and labelings L drawn from one representative per
  admissible commutation class, weighted by (-1)^(c(D)-1) where c(D) counts
  tree vertices <= a;
* divided differences on formal words of letters, by the twisted Leibniz
  rule.

Evaluation of the MN operator on A_w enumerates descending chains of marked
covers, filters the chain words through the tree/labeling admissibility
test, and counts each commutation class once.  That search, ``chain_classes``,
is the one chain memo, keyed by (w, m, a): it returns one ``RibbonChain``
record per class, which ``act_mn`` and ``mn_chain_terms`` read here and
``strongorder.ribbons`` reads at anchor 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .afperm import AffinePermutation, apply_transposition
from .nilcox import NilCoxElement

__all__ = [
    "ConnectedTree",
    "RibbonChain",
    "chain_classes",
    "act_letter",
    "act_word",
    "act_word_sum",
    "act_dunkl",
    "act_dunkl_power",
    "dunkl_chain_oracle",
    "act_mn",
    "mn_chain_terms",
    "word_divided_difference",
    "twist_word",
    "act_cyclic_sum",
]


# ---------------------------------------------------------------------------
# letters and plain words


def _normalize_letter(letter):
    i, j = int(letter[0]), int(letter[1])
    if i == j:
        raise ValueError("letter endpoints must differ")
    if i < j:
        return (i, j), 1
    return (j, i), -1


def act_letter(x: NilCoxElement, letter, sign: int = 1) -> NilCoxElement:
    """Right action of sign * [letter] on x."""
    (i, j), s = _normalize_letter(letter)
    out = {}
    for w, c in x.terms.items():
        moved, delta = apply_transposition(w, (i, j))
        if delta == -1:
            out[moved] = out.get(moved, 0) + c * s * sign
    return NilCoxElement(x.n, out)


def act_word(x: NilCoxElement, word, coeff=1) -> NilCoxElement:
    """Apply a product of letters, leftmost letter first."""
    cur = x.scale(coeff)
    for letter in word:
        if cur.is_zero():
            break
        cur = act_letter(cur, letter)
    return cur


def act_word_sum(x: NilCoxElement, words: dict) -> NilCoxElement:
    """Apply a formal rational combination {word: coeff} of letter words."""
    out = NilCoxElement(x.n)
    for word, c in words.items():
        out = out + act_word(x, word, c)
    return out


# ---------------------------------------------------------------------------
# Dunkl operators


def _covers_through(w: AffinePermutation, i: int):
    """Cover steps of w by a representative with endpoint exactly i.

    Yields (other_endpoint, sign, lower): sign -1 when the letter is [b i]
    with b < i (it enters the Dunkl sum as -[b i]).
    """
    n = w.n
    for p, q, lower in w.cover_classes():
        if (i - p) % n == 0:
            t = (i - p) // n
            yield q + t * n, 1, lower
        if (i - q) % n == 0:
            t = (i - q) // n
            yield p + t * n, -1, lower


def act_dunkl(x: NilCoxElement, i: int) -> NilCoxElement:
    """Action of the Dunkl element at the integer i: sum of letters through i."""
    out = {}
    for w, c in x.terms.items():
        for _other, s, lower in _covers_through(w, i):
            out[lower] = out.get(lower, 0) + c * s
    return NilCoxElement(x.n, out)


def act_dunkl_power(x: NilCoxElement, i: int, m: int) -> NilCoxElement:
    """m-fold composition of the Dunkl operator at i."""
    if m < 1:
        raise ValueError("power must be >= 1")
    cur = x
    for _ in range(m):
        if cur.is_zero():
            break
        cur = act_dunkl(cur, i)
    return cur


def dunkl_chain_oracle(x: NilCoxElement, i: int, m: int) -> NilCoxElement:
    """Independent evaluation of the m-th Dunkl power.

    Enumerates words [i a_1]...[i a_m] whose other endpoints have residues
    distinct from each other and from i, instead of composing the operator.
    """
    n = x.n
    out: dict[AffinePermutation, object] = {}

    def rec(w, depth, used, sign, c):
        if depth == m:
            out[w] = out.get(w, 0) + c * sign
            return
        for other, s, lower in _covers_through(w, i):
            r = other % n
            if r in used:
                continue
            rec(lower, depth + 1, used | {r}, sign * s, c)

    for w, c in x.terms.items():
        rec(w, 0, frozenset(), 1, c)
    return NilCoxElement(n, out)


# ---------------------------------------------------------------------------
# connected trees and admissible labelings


@dataclass(frozen=True)
class ConnectedTree:
    """Tree diagram of boxes (x, y), x <= a < y, with distinct vertex residues."""

    boxes: tuple
    anchor: int
    support: tuple
    c: int  # number of tree vertices <= anchor


def tree_from_boxes(boxes, n: int, a: int) -> ConnectedTree | None:
    """Build the connected tree on the given boxes, or None if not a tree."""
    boxes = tuple(boxes)
    m = len(boxes)
    if len(set(boxes)) != m:
        return None
    verts = set()
    for x, y in boxes:
        if not (x <= a < y):
            return None
        verts.update((x, y))
    if len(verts) != m + 1:
        return None
    if len({v % n for v in verts}) != m + 1:
        return None
    # connectivity of the box graph
    adj = {v: set() for v in verts}
    for x, y in boxes:
        adj[x].add(y)
        adj[y].add(x)
    seen = set()
    stack = [next(iter(verts))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adj[v] - seen)
    if len(seen) != m + 1:
        return None
    c = sum(1 for v in verts if v <= a)
    return ConnectedTree(tuple(sorted(boxes)), a, tuple(sorted(verts)), c)


def _boxes_disjoint(b1, b2) -> bool:
    return not ({b1[0], b1[1]} & {b2[0], b2[1]})


@lru_cache(maxsize=None)
def _commutation_orbit(word: tuple) -> frozenset:
    """All words reachable by swapping adjacent vertex-disjoint boxes."""
    seen = {word}
    stack = [word]
    while stack:
        cur = stack.pop()
        for b in range(len(cur) - 1):
            if _boxes_disjoint(cur[b], cur[b + 1]):
                nxt = cur[:b] + (cur[b + 1], cur[b]) + cur[b + 2 :]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return frozenset(seen)


def _pattern_split_ok(word, split: int) -> bool:
    """Hook pattern: first `split` boxes have distinct rows (left endpoints)
    and weakly increasing columns; the rest have distinct columns and weakly
    increasing rows."""
    first, rest = word[:split], word[split:]
    if len({b[0] for b in first}) != len(first):
        return False
    if any(first[t][1] > first[t + 1][1] for t in range(len(first) - 1)):
        return False
    if len({b[1] for b in rest}) != len(rest):
        return False
    if any(rest[t][0] > rest[t + 1][0] for t in range(len(rest) - 1)):
        return False
    return True


def class_is_admissible(word: tuple, c: int) -> bool:
    """True when the commutation class of `word` carries an admissible labeling.

    The split point is c, the number of distinct left endpoints.
    """
    return any(_pattern_split_ok(v, c) for v in _commutation_orbit(word))


class RibbonChain(NamedTuple):
    """One admissible chain class: a descending marked-cover chain whose word
    is a term of the degree-m MN element at its anchor (a ribbon at anchor 0).
    """

    canon: tuple  # canonical (least) word of the commutation class
    steps: tuple  # MarkedCover, inside first: the first chain the search finds
    sign: int  # (-1)^(c - 1), c the number of tree vertices <= the anchor
    outside: AffinePermutation  # endpoint of the chain

    @property
    def inside(self) -> AffinePermutation:
        return self.steps[0].upper

    @property
    def size(self) -> int:
        return len(self.steps)

    @property
    def word(self) -> tuple:
        return tuple(s.index for s in self.steps)

    def to_json(self) -> dict:
        return {
            "chain": [{"index": list(s.index), "to": list(s.lower.window)} for s in self.steps],
            "sigma": self.sign,
        }


@lru_cache(maxsize=None)
def chain_classes(w: AffinePermutation, m: int, a: int) -> tuple:
    """Admissible chain classes of length m from w in the strip at a.

    One RibbonChain per commutation class of descending marked-cover chains
    whose boxes form a connected tree and whose labeling class is admissible,
    in canonical-word order.
    """
    n = w.n
    found: dict[tuple, RibbonChain] = {}

    def rec(cur, steps, word):
        if len(word) == m:
            tree = tree_from_boxes(word, n, a)
            if tree is None:
                return
            canon = min(_commutation_orbit(word))
            if canon in found:
                return
            if not class_is_admissible(canon, tree.c):
                return
            found[canon] = RibbonChain(canon, tuple(steps), (-1) ** (tree.c - 1), cur)
            return
        for cover in cur.marked_covers(a):
            rec(cover.lower, steps + [cover], word + (cover.index,))

    rec(w, [], ())
    return tuple(found[canon] for canon in sorted(found))


def mn_chain_terms(w: AffinePermutation, m: int, a: int) -> tuple:
    """((canonical_word, sign, endpoint), ...), one per admissible chain class."""
    return tuple((r.canon, r.sign, r.outside) for r in chain_classes(w, m, a))


def act_mn(x: NilCoxElement, m: int, a: int) -> NilCoxElement:
    """Murnaghan-Nakayama operator of degree m at anchor a."""
    n = x.n
    if not 1 <= m < n:
        raise ValueError(f"degree out of range: need 1 <= m < n, got m={m}, n={n}")
    out: dict[AffinePermutation, object] = {}
    for w, c in x.terms.items():
        for r in chain_classes(w, m, a):
            out[r.outside] = out.get(r.outside, 0) + c * r.sign
    return NilCoxElement(n, out)


# ---------------------------------------------------------------------------
# divided differences on formal words


def twist_word(word, j1: int, j2: int, n: int):
    """Apply the reflection t_{j1,j2} to a word letterwise: w[ab] = [w(a) w(b)].

    Returns (word, sign)."""

    def t(v):
        if (v - j1) % n == 0:
            return v + (j2 - j1)
        if (v - j2) % n == 0:
            return v - (j2 - j1)
        return v

    out = []
    sign = 1
    for a, b in word:
        ta, tb = t(a), t(b)
        if ta < tb:
            out.append((ta, tb))
        else:
            out.append((tb, ta))
            sign = -sign
    return tuple(out), sign


def _letters_equal_mod_shift(l1, l2, n: int) -> bool:
    return (l1[1] - l1[0]) == (l2[1] - l2[0]) and (l1[0] - l2[0]) % n == 0


def word_divided_difference(words: dict, j1: int, j2: int, n: int) -> dict:
    """Divided difference Delta_{j1,j2} on a formal sum of letter words.

    Twisted Leibniz rule: Delta(l_1 ... l_r) expands over positions b with
    l_b = [j1 j2] (equality up to the diagonal shift), replacing the prefix
    by its t_{j1,j2}-twist and deleting l_b.
    """
    if j1 >= j2:
        raise ValueError("need j1 < j2")
    if (j1 - j2) % n == 0:
        raise ValueError("equal residues")
    out: dict[tuple, object] = {}
    for word, c in words.items():
        for b, letter in enumerate(word):
            if not _letters_equal_mod_shift(letter, (j1, j2), n):
                continue
            prefix, sign = twist_word(word[:b], j1, j2, n)
            new = prefix + word[b + 1 :]
            out[new] = out.get(new, 0) + c * sign
    return {w: c for w, c in out.items() if c != 0}


# ---------------------------------------------------------------------------
# cyclic relation helper (used by the verification suites)


def _act_dunkl_component(x: NilCoxElement, i: int, beta: int) -> NilCoxElement:
    """Sum of letters through i whose other endpoint has residue beta mod n."""
    n = x.n
    out: dict[AffinePermutation, object] = {}
    for w, c in x.terms.items():
        for other, s, lower in _covers_through(w, i):
            if (other - beta) % n == 0:
                out[lower] = out.get(lower, 0) + c * s
    return NilCoxElement(n, out)


def act_cyclic_sum(x: NilCoxElement, a: int, bs) -> NilCoxElement:
    """The cyclic sum of chain operators at a over the tuple bs; vanishes.

    Term r applies the plain letters [a b_r]...[a b_{r+m-2}] of the r-th
    rotation, then the residue-class sums of the two closing letters
    [a b'][b_last a'] with b' running over the class of the rotation's last
    entry and a' over the class of a.  At m = 1 this is the quadratic
    class-sum relation; the general sum telescopes to zero.
    """
    bs = tuple(bs)
    n = x.n
    m = len(bs)
    total = NilCoxElement(n)
    for r in range(m):
        rot = bs[r:] + bs[:r]
        prefix, last = rot[:-1], rot[-1]
        cur = x
        for b in prefix:
            letter, s = _normalize_letter((a, b))
            cur = act_letter(cur, letter, s)
            if cur.is_zero():
                break
        if cur.is_zero():
            continue
        for w, c in cur.terms.items():
            for other, s, lower in _covers_through(w, a):
                if (other - last) % n:
                    continue
                y = NilCoxElement(n, {lower: c * s})
                total = total + _act_dunkl_component(y, last, a % n)
    return total
