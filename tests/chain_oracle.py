"""Admissible chain classes with no pruning: a search oracle for tests.

The enumerator ``bruhat_ops.chain_classes`` drops a branch as soon as its
prefix of boxes stops being a forest with distinct vertex residues, and
reads the tree at a leaf from the forest it carries.  This one walks every
descending chain of m marked covers to its leaf and lets ``tree_from_boxes``
alone decide, from the boxes, in the same depth-first order, so the two
must return the same records.
"""

from flagops.bruhat_ops import (
    RibbonChain,
    _commutation_orbit,
    class_is_admissible,
    tree_from_boxes,
)


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
