"""Integer partitions and compositions as plain tuples.

Partitions are weakly decreasing tuples of positive integers; compositions
are tuples of positive integers.  Everything downstream keys dictionaries by
these tuples, so no wrapper class.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial


def as_partition(parts) -> tuple[int, ...]:
    """Sort a composition into partition order.

    >>> as_partition((1, 3, 2))
    (3, 2, 1)
    """
    t = tuple(sorted(parts, reverse=True))
    if not all(isinstance(p, int) and p > 0 for p in t):
        raise ValueError(f"not a valid partition/composition: {parts!r}")
    return t


@lru_cache(maxsize=None)
def partitions(d: int, max_part: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of d with parts bounded by max_part, reverse-lex order.

    >>> partitions(4, 2)
    ((2, 2), (2, 1, 1), (1, 1, 1, 1))
    """
    if d < 0:
        return ()
    if max_part is None:
        max_part = d
    if d == 0:
        return ((),)
    out = []
    for first in range(min(d, max_part), 0, -1):
        for rest in partitions(d - first, first):
            out.append((first,) + rest)
    return tuple(out)


def conjugate(lam) -> tuple[int, ...]:
    """The conjugate partition: its part i (from 0) counts the parts of lam above i.

    >>> conjugate((3, 1))
    (2, 1, 1)
    """
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0] if lam else 0))


def compositions_of_partition(lam) -> tuple[tuple[int, ...], ...]:
    """All distinct rearrangements of the parts of lam, sorted.

    Each part is inserted at every position of each arrangement of the parts
    before it; the set keeps repeated parts from multiplying the work.

    >>> compositions_of_partition((2, 1, 1))
    ((1, 1, 2), (1, 2, 1), (2, 1, 1))
    """
    out = {()}
    for p in lam:
        out = {c[:i] + (p,) + c[i:] for c in out for i in range(len(c) + 1)}
    return tuple(sorted(out))


def z_lambda(lam) -> int:
    """Centraliser size prod_i alpha_i! * i^alpha_i (alpha_i = #parts equal i).

    >>> z_lambda((2, 1))
    2
    >>> z_lambda((2, 2, 1, 1, 1))
    48
    """
    lam = tuple(lam)
    mult: dict[int, int] = {}
    for p in lam:
        mult[p] = mult.get(p, 0) + 1
    z = 1
    for i, a in mult.items():
        z *= factorial(a) * i**a
    return z
