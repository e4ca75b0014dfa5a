"""Affine Schubert polynomials one lift at a time: a construction oracle for tests.

For every w separately: lift w to the 0-Grassmannian element wv, seed the
affine Schur function of wv as the symmetric part, and apply d_i for every
letter of v, on Fractions through the public constructor.  Nothing is shared
between elements, so it checks ``flagops.schubert.affine_schubert``, which
memoises the intermediates of its chains on integer numerators and reuses
them across chains.
"""

from flagops import afperm as ap
from flagops import schubert as sr
from flagops import symfunc as sf


def strip_lift(w, divided_difference=sr.divided_difference):
    """S_w from its own Grassmannian lift, stripped letter by letter."""
    n = w.n
    if w.is_identity():
        return sr.unit(n)
    v = ap.grassmannian_lift(w)
    lam = ap.grassmannian_to_partition(w * v)
    f = sr.from_symfunc_p(n, sf.affine_schur_p(n, lam))
    for i in reversed(v.reduced_word()):
        f = divided_difference(i, f)
    return f
