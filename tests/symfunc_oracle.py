"""p-expansions in Fraction arithmetic: a symmetric-function oracle for tests.

A separate copy of the Fraction route that ``flagops.symfunc`` took before it
moved to int numerators over one denominator: h_mu by convolution of
h_r = sum_{alpha |- r} p_alpha / z_alpha, e and the forgotten functions by
omega, s by Jacobi-Trudi, m by duality with Newton's p -> h expansion, and
the two k-bases from their nilCoxeter data, all summed as Fractions.  Each
expansion is a dict {alpha: coeff} without zero coefficients.
"""

from fractions import Fraction

from flagops import nilcox
from flagops.partitions import as_partition, conjugate, partitions, z_lambda
from flagops.symfunc import _jacobi_trudi_h, p_to_h


def h_to_p(mu) -> dict:
    """p-expansion of h_mu by convolution: h_r = sum_{alpha |- r} p_alpha / z_alpha."""
    out = {(): Fraction(1)}
    for r in mu:
        nxt = {}
        for alpha in partitions(r):
            w = Fraction(1, z_lambda(alpha))
            for lam, c in out.items():
                key = as_partition(lam + alpha)
                nxt[key] = nxt.get(key, 0) + c * w
        out = nxt
    return {alpha: c for alpha, c in out.items() if c}


def _h_sum(h_terms) -> dict:
    out = {}
    for mu, c in h_terms:
        for alpha, c2 in h_to_p(mu).items():
            out[alpha] = out.get(alpha, 0) + c * c2
    return {alpha: c for alpha, c in out.items() if c}


def _omega(expansion: dict) -> dict:
    return {alpha: -c if (sum(alpha) - len(alpha)) % 2 else c for alpha, c in expansion.items()}


def _m_to_p(terms: dict, alphas) -> dict:
    """[p_alpha] sum_mu terms[mu] m_mu = sum_mu terms[mu] [h_mu] p_alpha / z_alpha."""
    out = {}
    for alpha in alphas:
        total = sum(c * terms.get(mu, 0) for mu, c in p_to_h(alpha))
        if total:
            out[alpha] = Fraction(total, z_lambda(alpha))
    return out


def p_expansion(basis: str, lam: tuple) -> dict:
    """basis_lam in the p basis, for h, e, s, m and forgotten (omega m_lam)."""
    if basis == "h":
        return h_to_p(lam)
    if basis == "e":
        return _omega(h_to_p(lam))
    if basis == "s":
        if lam and len(lam) > lam[0]:
            return _omega(p_expansion("s", conjugate(lam)))
        return _h_sum(_jacobi_trudi_h(lam))
    if basis == "m":
        return _m_to_p({lam: 1}, partitions(sum(lam)))
    if basis == "forgotten":
        return _omega(_m_to_p({lam: 1}, partitions(sum(lam))))
    raise ValueError(basis)


def k_schur_p(n: int, lam: tuple) -> dict:
    """The k-Schur function from its h-expansion, summed as Fractions."""
    return _h_sum(nilcox.k_schur_h_coeffs(n, lam).items())


def affine_schur_p(n: int, lam: tuple) -> dict:
    """F~_lam from its k-Kostka row in m, converted to p as Fractions."""
    return _m_to_p(nilcox.k_kostka(n, lam), partitions(sum(lam), n - 1))
