"""Oracles for the ring code: Schubert polynomials and expansions, for tests.

``strip_lift`` builds affine Schubert polynomials one lift at a time.

For every w separately: lift w to the 0-Grassmannian element wv, seed the
affine Schur function of wv as the symmetric part, and apply d_i for every
letter of v, on Fractions through the public constructor.  Its path is
always the whole lift, and nothing is shared between elements, so it checks
``flagops.schubert.affine_schubert``, whose chains climb only to the nearest
element that is memoised or 0-Grassmannian, so their paths depend on what
earlier chains left in the memo.

``bgg_expansion`` reads Schubert coefficients, and so structure constants,
with the BGG operators alone, through the public ``divided_difference``: it
shares no code with ``schubert_basis``, its block inverses or ``expand``.
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


def bgg_expansion(f, d):
    """{w: coefficient of S_w in f}, f homogeneous of degree d, by BGG operators.

    For w = s_{i_1} ... s_{i_d} reduced, d_{i_1} ... d_{i_d} sends S_w to 1
    and every other S_u of length d to 0, since d_i S_u is S_{u s_i} when
    l(u s_i) < l(u) and 0 otherwise.  So the coefficient of S_w is the
    constant term of that composite applied to f.  The walk grows words on
    the left, from the identity by left ascents s_i w > w, so each composite
    is one more d_i on its parent's image.  The composite does not depend on
    the reduced word, so each w keeps its first, and a branch whose image is
    0 is dropped: the image of every w above it is 0 too.
    """
    n = f.n
    one = ((), (0,) * n)
    level, seen = {ap.identity(n): f}, set()
    for _ in range(d):
        up_level = {}
        for w, g in level.items():
            for i in range(n):
                up = ap.simple(n, i) * w
                if up in seen or up.length != w.length + 1:
                    continue
                seen.add(up)
                image = sr.divided_difference(i, g)
                if not image.is_zero():
                    up_level[up] = image
        level = up_level
    return {w: g.terms[one] for w, g in level.items() if one in g.terms}


def structure_constants(u, v):
    """p^w_{u,v} for every w with a nonzero constant: S_u * S_v through ``bgg_expansion``."""
    return bgg_expansion(sr.affine_schubert(u) * sr.affine_schubert(v), u.length + v.length)
