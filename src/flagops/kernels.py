"""Window kernels of the affine symmetric group.

Everything upstream (cover graphs, operator evaluation, Schubert bases) sits
on top of four small kernels over windows, tuples (w(1), ..., w(n)) of ints:

* ``length``              -- Coxeter length from a window
* ``product``             -- group product of two windows
* ``apply_transposition`` -- right multiplication by t_{p,q}
* ``cover_classes``       -- canonical indices of Bruhat cocovers

Windows are plain Python tuples, so the arithmetic is exact at any scale.
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
        k, r = divmod(vj - 1, n)
        out.append(u[r] + k * n)
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

    A pair qualifies when w(p) > w(q) and the length drops by exactly one.
    For each residue class r, the partners q = r + k*n with w(p) > w(q) are
    those with (p - r)/n < k < (w(p) - w(r))/n.
    """
    base = length(window, n)
    out = []
    for p in range(1, n + 1):
        wp = window[p - 1]
        for r in range(1, n + 1):
            wr = window[r - 1]
            kmin = (p - r) // n + 1
            kmax = -((wr - wp) // n) - 1
            for k in range(kmin, kmax + 1):
                q = r + k * n
                if length(apply_transposition(window, n, p, q), n) == base - 1:
                    out.append((p, q))
    out.sort()
    return tuple(out)
