"""Exact-arithmetic certificates of the paper's all-k claims.

The closed forms are typed here as claims, as in `bench/reference.py`, and
not imported from the package.  With rho = R^{2-N-2k} and R^N symbolic, the
only other power of R, R^{2-2k} in e_res^2, is R^N rho.
"""

import sympy as sp

N, K, SIGMA, RHO, R_N = sp.symbols("N k sigma rho R_N", positive=True)

F = N * (N - 2 + K + K * SIGMA) * RHO + K * N * (1 - SIGMA)
# corrected numerators F/N - k(...) for e_in and e_out, the printed e_res
E_IN = (
    (2 * R_N / N)
    * ((1 - SIGMA) / SIGMA)
    * (F / N - K * (K * (1 - SIGMA) + (N - 2 + K) * (1 - SIGMA) * RHO))
    / F
)
E_OUT = (2 / N) * (F / N - K * ((2 - N - K) * (1 - SIGMA) + (N - 2 + K + K * SIGMA) * RHO)) / F
E_RES_SQUARED = (4 * (SIGMA - 1) / N) ** 2 * R_N * RHO * ((N - 2) * K + 2 * K * K) ** 2 / F**2

BRACKET = SIGMA * K * (RHO - 1) + (N - 2 + K) * RHO + K
G = (SIGMA - 1) * K * (N - 1 + K) * (RHO - 1) + (N - 2 + 2 * K) * RHO
PREFACTOR = -16 * (SIGMA - 1) * (K - 1) * R_N / (SIGMA * N**2 * F**2)


def test_factored_discriminant_is_the_discriminant():
    delta = E_RES_SQUARED - 4 * E_IN * E_OUT
    assert sp.simplify(PREFACTOR * BRACKET * G - delta) == 0


def test_discriminant_is_negative_for_every_degree_past_one_when_sigma_exceeds_one():
    # sigma > 1, rho > 1 (R < 1 and 2-N-2k < 0), N >= 2, k >= 2: every
    # coefficient of the bracket and of G positive, the constant term
    # included, makes both positive at a, b > 0 and c, d >= 0; the prefactor
    # -16 a (1+d) R^N / (sigma N^2 F^2) is then negative, so delta < 0.
    a, b, c, d = sp.symbols("a b c d", nonnegative=True)
    shifted = {SIGMA: 1 + a, RHO: 1 + b, N: 2 + c, K: 2 + d}
    for factor in (BRACKET, G):
        poly = sp.Poly(sp.expand(factor.subs(shifted)), a, b, c, d)
        assert poly.coeff_monomial(1) > 0
        assert all(coefficient > 0 for coefficient in poly.coeffs())
    assert sp.expand((-16 * (SIGMA - 1) * (K - 1)).subs(shifted) + 16 * a * (1 + d)) == 0
