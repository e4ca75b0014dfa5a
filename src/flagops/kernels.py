"""Window kernels of the affine symmetric group.

Everything upstream (cover graphs, operator evaluation, Schubert bases) sits
on top of four small kernels over windows, tuples (w(1), ..., w(n)) of ints:

* ``length``              -- Coxeter length from a window
* ``product``             -- group product of two windows
* ``apply_transposition`` -- right multiplication by t_{p,q}
* ``cover_classes``       -- canonical indices of Bruhat cocovers

Windows are plain Python tuples, so the arithmetic is exact at any scale.
Covers are decided in closed form, by values and positions of w alone, with
no length computed.  ``tests/test_kernels.py`` checks each kernel against a
brute-force oracle on values of w over several periods; for
``cover_classes`` that oracle is two lengths per candidate, counted
inversion by inversion.
"""

from __future__ import annotations

BACKEND = "python"


def length(window, n: int) -> int:
    """Number of inversions (i, j), 1 <= i <= n, i < j, w(i) > w(j).

    Shi's formula: the sum over window positions a < b of
    |floor((w(b) - w(a)) / n)| (Bjorner-Brenti, GTM 231, Prop. 8.3.1).
    """
    total = 0
    for a, wa in enumerate(window):
        for wb in window[a + 1:]:
            total += abs((wb - wa) // n)
    return total


def product(u, v, n: int) -> tuple:
    """Window of the group product (uv)(j) = u(v(j))."""
    out = []
    for vj in v:
        r = (vj - 1) % n  # v(j) = r + 1 + k n, and u(v(j)) = u(r + 1) + k n
        out.append(u[r] + vj - 1 - r)
    return tuple(out)


def apply_transposition(window, n: int, p: int, q: int) -> tuple:
    """Window of w * t_{p,q} (t swaps p <-> q along with all mod-n translates).

    p and q must have distinct residues mod n.  Only the window positions of
    the residues of p and q change: they trade values, shifted by the
    multiple of n that carries one residue class onto the other.
    """
    rp, rq = (p - 1) % n, (q - 1) % n
    shift = (q - p) - (rq - rp)
    out = list(window)
    out[rp] = window[rq] + shift
    out[rq] = window[rp] - shift
    return tuple(out)


def cover_classes(window, n: int) -> tuple:
    """Canonical indices (p, q), 1 <= p <= n, p < q, of all cocovers, sorted.

    (p, q) with distinct residues is a cocover, l(w t_{p,q}) = l(w) - 1, iff
    w(p) > w(q), no p < j < q has w(q) < w(j) < w(p), and q - p < n or
    w(p) - w(q) < n (Bjorner-Brenti, GTM 231, Sec. 8.3).  The last condition
    is the affine one: (3, 5, -4, 6) with (2, 7) passes the other two but
    is no cover.  So each p needs two sweeps of n - 1 steps.  Over q = p + 1,
    ..., p + n - 1, q is a cocover iff w(q) < w(p) exceeds every w(j) < w(p)
    before it.  Over v = w(p) - 1, ..., w(p) - n + 1, the position q of v is
    a cocover iff q - p >= n and p < q precedes every position > p of a
    value swept before.  Every other q > p with w(q) < w(p) fails the last
    condition.
    """
    ext = window + tuple(v + n for v in window)  # w(1), ..., w(2n)
    start = [0] * n  # w^{-1}(v) = v + start[v % n]
    for i, v in enumerate(window, 1):
        start[v % n] = i - v
    floor = min(window) - 1
    out = []
    for p, wp in enumerate(window, 1):
        lo = floor  # the largest w(j) < w(p) at p < j < q, floor if none
        for q in range(p + 1, p + n):
            if lo < ext[q - 1] < wp:
                lo = ext[q - 1]
                out.append((p, q))
        hi = wp - floor + n  # the least j > p with v < w(j) < w(p), past all if none
        for v in range(wp - 1, wp - n, -1):
            q = v + start[v % n]
            if p < q < hi:
                hi = q
                if q - p >= n:
                    out.append((p, q))
    out.sort()
    return tuple(out)
