"""Bruhat operators on the nilCoxeter algebra.

A letter [i j] (integers i < j, distinct residues) acts on a basis element by
A_w . [i j] = A_{w t_{ij}} when the length drops by one and kills it
otherwise; [j i] is -[i j].  On top of the letters sit

* Dunkl operators: sum of all letters through a fixed integer i, read
  straight from the cover classes of each term;
* Murnaghan-Nakayama operators of degree m at anchor a: the signed sum of
  words x_{D_L} over connected-tree diagrams D with m boxes in the strip
  {(x, y) : x <= a < y} and labelings L drawn from one representative per
  admissible commutation class, weighted by (-1)^(c(D)-1) where c(D) counts
  tree vertices <= a;
* divided differences on formal words of letters, by the twisted Leibniz
  rule.

Evaluation of the MN operator on A_w enumerates descending chains of marked
covers whose boxes stay a forest, keeps those that end as one tree with an
admissible labeling class, and counts each commutation class once.  That
search, ``chain_classes``, is the one chain memo, keyed by (w, m, a): it
returns one ``RibbonChain`` record per class, which ``act_mn`` reads here
and ``strongorder.ribbons`` reads at anchor 0.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .afperm import AffinePermutation, apply_transposition
from .nilcox import NilCoxElement

__all__ = [
    "RibbonChain",
    "chain_classes",
    "act_letter",
    "act_word",
    "act_word_sum",
    "act_dunkl",
    "act_dunkl_power",
    "dunkl_chain_oracle",
    "act_mn",
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
    """Action of the Dunkl element at the integer i: sum of letters through i.

    A cover class (p, q) of w has one representative through i when p or q
    has the residue of i: [i q'] adds A_lower, [p' i] with p' < i subtracts it.
    """
    n = x.n
    out = {}
    get = out.get
    for w, c in x.terms.items():
        for p, q, lower in w.cover_classes():
            if (i - p) % n == 0:
                out[lower] = get(lower, 0) + c
            elif (i - q) % n == 0:
                out[lower] = get(lower, 0) - c
    return NilCoxElement(n, out)


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
    del rec  # rec's closure refers to rec: without this, each call leaves a cycle for the GC
    return NilCoxElement(n, out)


# ---------------------------------------------------------------------------
# admissible labelings


def _boxes_disjoint(b1, b2) -> bool:
    return not ({b1[0], b1[1]} & {b2[0], b2[1]})


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


# word -> the least word of its commutation class if that class is admissible,
# else None; filled for every word of a class on its first visit
_admissible_canon: dict = {}


def _canon_if_admissible(word: tuple):
    """The least word of the commutation class of `word`, or None when the
    class is not admissible; decided once per class.

    A class is admissible when one of its words passes the hook pattern
    split at c, the number of tree vertices <= the anchor a.  In a chain at
    anchor a every box (x, y) has x <= a < y, so c is the word's number of
    distinct left endpoints.
    """
    canon = _admissible_canon.get(word, False)
    if canon is not False:
        return canon
    orbit = _commutation_orbit(word)
    c = len({x for x, _ in word})
    canon = min(orbit) if any(_pattern_split_ok(v, c) for v in orbit) else None
    for v in orbit:
        _admissible_canon[v] = canon
    return canon


class RibbonChain(namedtuple("RibbonChain", "canon steps sign outside")):
    """One admissible chain class: a descending marked-cover chain whose word
    is a term of the degree-m MN element at its anchor (a ribbon at anchor 0).

    ``canon`` is the canonical (least) word of the commutation class,
    ``steps`` the MarkedCovers of the first chain the search finds (inside
    first), ``sign`` is (-1)^(c - 1) with c the number of tree vertices <= the
    anchor, and ``outside`` the endpoint of the chain.
    """

    __slots__ = ()

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

    Every prefix of such a chain is a forest of distinct boxes whose vertices
    have distinct residues, so a branch is dropped at the first box that
    repeats a box, adds a vertex of a residue already used, or closes a
    cycle.  The search carries that forest, so the leaf reads the tree from
    it: a forest of m boxes is connected iff it has m + 1 vertices, and c
    counts its vertices <= a.  The unpruned oracle in the tests makes the
    same decision from the boxes alone.  Whether a leaf's class is
    admissible, and its canonical word, is decided once per class across all
    searches (``_canon_if_admissible``).
    """
    n = w.n
    found: dict[tuple, RibbonChain] = {}

    def rec(cur, steps, word, comp, used):
        # comp: vertex -> a label of its component in the forest of word;
        # used: the residues of its vertices
        if len(word) == m:
            if len(comp) != m + 1:
                return  # more than one tree
            canon = _canon_if_admissible(word)
            if canon is None or canon in found:
                return
            c = sum(1 for v in comp if v <= a)
            found[canon] = RibbonChain(canon, steps, (-1) ** (c - 1), cur)
            return
        for cover in cur.marked_covers(a):
            x, y = cover.index
            cx, cy = comp.get(x), comp.get(y)
            if cx is not None and cx == cy:
                continue  # repeats a box or closes a cycle
            if (cx is None and x % n in used) or (cy is None and y % n in used):
                continue
            if cx is not None and cy is not None:  # joins two trees
                joined = {v: cx if c == cy else c for v, c in comp.items()}
                grown = used
            else:  # an endpoint already in the forest has its residue in used
                label = cx if cx is not None else cy if cy is not None else x
                joined = {**comp, x: label, y: label}
                grown = used | {x % n, y % n}
            rec(cover.lower, steps + (cover,), word + (cover.index,), joined, grown)

    rec(w, (), (), {}, frozenset())
    del rec  # rec's closure refers to rec: without this, each call leaves a cycle for the GC
    return tuple(found[canon] for canon in sorted(found))


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
    out: dict[AffinePermutation, object] = {}
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
                for back, s2, bottom in _covers_through(lower, last):
                    if (back - a) % n == 0:
                        out[bottom] = out.get(bottom, 0) + c * s * s2
    return NilCoxElement(n, out)
