#!/usr/bin/env python3
"""Solving the Hermiticity constraints for a PT5-symmetric family.

Walks the running example: mu = (1, 0, 1, 2, 1, 1, *, 0, *) with mu7 and
mu9 fixed by the special choice, at deformation theta = 12.  The solved
Dyson map turns the non-hermitian member into an honestly hermitian
operator, verified through two independent routes.
"""

from deformed_e2 import hermiticity_residual, max_coeff_diff
from deformed_e2.dyson import adjoint_poly
from deformed_e2.models import (
    Mu,
    MuAbbrev,
    build_pt5,
    extract_coeffs,
    hermitian_counterpart_pt5,
    solve_generic_numeric,
    solve_pt5_special,
    with_special_choice,
)


def main():
    base = Mu(mu1=1.0, mu2=0.0, mu3=1.0, mu4=2.0, mu5=1.0, mu6=1.0, mu8=0.0)
    mu = with_special_choice(base)
    theta = 12.0
    print("family:", mu)
    print("abbreviations:", MuAbbrev.from_mu(mu))
    print()

    ham = build_pt5(mu, theta)
    print("H =", ham)
    print("hermiticity residual of H itself:", hermiticity_residual(ham))
    print()

    params = solve_pt5_special(mu, theta)
    print("solved map:", params)
    h = adjoint_poly(params, ham)
    print("residual after conjugation:", hermiticity_residual(h))
    print()

    closed = hermitian_counterpart_pt5(mu, theta)
    print("closed-form counterpart h =", closed)
    print("engine vs closed form:", max_coeff_diff(h, closed))
    print()

    print("cross-check with the generic solver (no PT5 closed forms):")
    num_params, residual, num_h = solve_generic_numeric(extract_coeffs(ham),
                                                        theta)
    print("  numeric map:", num_params)
    print("  certificate residual:", residual)
    print("  numeric h vs closed form:", max(
        abs(a - b) for a, b in zip(num_h.c, extract_coeffs(closed).c)))


if __name__ == "__main__":
    main()
