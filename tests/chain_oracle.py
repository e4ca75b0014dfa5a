"""Admissible chain classes with no pruning: a search oracle for tests.

The enumerator ``bruhat_ops.chain_classes`` drops a branch as soon as its
prefix of boxes stops being a forest with distinct vertex residues, and
reads the tree at a leaf from the forest it carries.  This one walks every
descending chain of m marked covers to its leaf and lets ``tree_from_boxes``
alone decide, from the boxes, in the same depth-first order, so the two
must return the same records.
"""

from collections import namedtuple

from flagops.bruhat_ops import RibbonChain, _commutation_orbit, _pattern_split_ok


class ConnectedTree(namedtuple("ConnectedTree", "boxes anchor support c")):
    """Tree diagram of boxes (x, y), x <= a < y, with distinct vertex residues.

    ``support`` is the sorted vertex set and ``c`` the number of tree
    vertices <= the anchor.
    """

    __slots__ = ()


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


def class_is_admissible(word: tuple, c: int) -> bool:
    """True when the commutation class of `word` carries an admissible labeling.

    The split point is c, the number of distinct left endpoints.
    """
    return any(_pattern_split_ok(v, c) for v in _commutation_orbit(word))


def unpruned_chain_classes(w, m, a):
    n = w.n
    found = {}

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
    del rec
    return tuple(found[canon] for canon in sorted(found))
