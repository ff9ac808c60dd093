#!/usr/bin/env python3
"""Conjugation by exp(lambda J + rho U + tau V), two independent ways.

The closed forms for eta g eta^{-1} are compared against a 4x4 matrix
exponential of the adjoint action on span{U, V, J, 1}.  The two routes
share no code, which is what makes the agreement meaningful.
"""

import numpy as np

from deformed_e2.dyson import (
    DysonParams,
    adjoint_generator_closed,
    adjoint_generator_oracle,
    adjoint_poly,
)
from deformed_e2 import OperatorPoly, commutator, max_coeff_diff


def main():
    params = DysonParams(lam=0.8, rho=0.3, tau=-0.4, theta=1.5)
    print("map parameters:", params)
    print()

    print("images of the generators (closed form):")
    for g in ("U", "V", "J"):
        # (1, U, V, J) components of eta g eta^-1 by each route
        closed = adjoint_generator_closed(params, g)
        oracle = adjoint_generator_oracle(params, g)
        image = adjoint_poly(params, OperatorPoly.generator(g, params.theta))
        print(f"  {g} -> {image}")
        print("       closed vs exp(ad) oracle: "
              f"{np.abs(closed - oracle).max():.3e}")
    print()

    print("random-draw comparison over the full parameter box:")
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(300):
        lam, rho, tau, theta = rng.uniform(-2, 2, 4)
        p = DysonParams(lam=float(lam), rho=float(rho), tau=float(tau),
                        theta=float(theta))
        for g in ("U", "V", "J"):
            worst = max(worst, np.abs(adjoint_generator_closed(p, g)
                                      - adjoint_generator_oracle(p, g)).max())
    print(f"  worst deviation over 300 draws x 3 generators: {worst:.3e}")
    print()

    print("conjugation is an algebra automorphism:")
    theta = params.theta
    u = adjoint_poly(params, OperatorPoly.generator("U", theta))
    v = adjoint_poly(params, OperatorPoly.generator("V", theta))
    print("  [img(U), img(V)] - i theta =",
          max_coeff_diff(commutator(u, v),
                         1j * theta * OperatorPoly.identity(theta)))
    print()

    print("and the inverse map undoes it:")
    p = OperatorPoly({(1, 1, 0): 1.0, (0, 0, 2): 2.0}, theta)
    back = adjoint_poly(params.inverse(), adjoint_poly(params, p))
    print("  roundtrip deviation:", max_coeff_diff(back, p))


if __name__ == "__main__":
    main()
