"""Exact-arithmetic certificates of the paper's all-k claims.

The closed forms are typed here as claims, as in `bench/reference.py`, and
not imported from the package.  With rho = R^{2-N-2k} and R^N symbolic, the
only other power of R, R^{2-2k} in e_res^2, is R^N rho.

The claims are linked to the mode solve: conditions (i)-(iii), as the
solve's docstring writes them in its scaled unknowns, are solved here and
assembled with spectrum_grid's formulas.  Their signs then prove the
classifier's verdict at every degree, past any kmax: for sigma > 1, e_in < 0
at every degree, e_out < 0 and delta < 0 past degree 1, so every admissible
degree is negative definite (LocalMaximum); for sigma < 1, e_in(1) > 0 is
a positive admissible direction (no LocalMaximum).
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


# the shift variables: sigma = 1 + a (or 1/(1 + a)) and rho = 1 + b, with
# a, b > 0; N = 2 + c and k = k_0 + d, with c, d >= 0
SHIFT = sp.symbols("a b c d", nonnegative=True)


def _positive(expression, shift) -> bool:
    """The shift-to-positive-coefficients device: after the shift, the
    numerator and the denominator of expression are polynomials in the shift
    variables and R^N > 0, every coefficient positive and one monomial free
    of c and d, so positive wherever a, b > 0 and c, d >= 0."""
    parts = sp.fraction(sp.cancel(sp.together(expression.subs(shift))))
    polys = [sp.Poly(part, *SHIFT, R_N) for part in parts]
    return all(
        all(coefficient > 0 for coefficient in poly.coeffs())
        and any(monomial[2] == monomial[3] == 0 for monomial in poly.monoms())
        for poly in polys
    )


def _mode_unknowns(r1, r2):
    """(b, c) of the mode solve's conditions, in its scaled unknowns, with
    eps = R^{N-2+2k} = 1/rho:
      (i)   -sigma k b + (2-N-k) c + k d = 0
      (ii)  -b + c + d = r1
      (iii) eps c + d = r2"""
    b, c, d = sp.symbols("b c d")
    conditions = (
        -SIGMA * K * b + (2 - N - K) * c + K * d,
        -b + c + d - r1,
        c / RHO + d - r2,
    )
    (solution,) = sp.solve(conditions, (b, c, d), dict=True)
    return solution[b], solution[c]


def test_the_mode_conditions_give_the_typed_spectrum():
    # r1 = -[d_n u], the jump of the state's normal derivative at r = R,
    # from the state function of exact_state's docstring; r2 = 0 (Inner),
    # and r1 = 0, r2 = 1/N (Outer)
    radius, r = sp.symbols("R r", positive=True)
    core = (1 - radius**2) / (2 * N) + (radius**2 - r**2) / (2 * N * SIGMA)
    shell = (1 - r**2) / (2 * N)
    jump = (sp.diff(shell, r) - sp.diff(core, r)).subs(r, radius)
    b_in, c_in = _mode_unknowns(-jump, 0)
    b_out, c_out = _mode_unknowns(0, 1 / N)
    # spectrum_grid's formulas, with R^{N-1} = R^N / R
    e_in = (2 * R_N / (N * radius)) * (1 - SIGMA) * (radius / (N * SIGMA) - K * b_in)
    e_out = 2 * (1 - K) / N**2 + (2 / N) * (N - 2 + 2 * K) * c_out / RHO
    # e_res = P e_res_over_p, with P = R^{N-2+k}, R^{N-1+k} = R P and
    # P^2 = R^N eps / R^2
    e_res_over_p = (2 / N) * ((N - 2 + 2 * K) * c_in + (SIGMA - 1) * K * b_out * radius)
    assert sp.simplify(e_in - E_IN) == 0
    assert sp.simplify(e_out - E_OUT) == 0
    assert sp.simplify(R_N / (RHO * radius**2) * e_res_over_p**2 - E_RES_SQUARED) == 0


def test_every_admissible_degree_is_negative_when_sigma_exceeds_one():
    # e_in < 0 at every degree, and e_out < 0 past degree 1 (the outer
    # degree 1 is a translation); with delta < 0 past degree 1, every
    # admissible degree is negative definite
    a, b, c, d = SHIFT
    above = {SIGMA: 1 + a, RHO: 1 + b, N: 2 + c}
    assert _positive(-E_IN, {**above, K: 1 + d})
    assert _positive(-E_OUT, {**above, K: 2 + d})
    # the device is no tautology: e_in is not proven positive
    assert not _positive(E_IN, {**above, K: 1 + d})


def test_degree_one_is_positive_on_the_inner_channel_when_sigma_is_below_one():
    a, b, c, _ = SHIFT
    assert _positive(E_IN, {SIGMA: 1 / (1 + a), RHO: 1 + b, N: 2 + c, K: 1})
