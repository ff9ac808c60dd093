#!/usr/bin/env python3
"""Region classification and exceptional points.

Scans the running example's (mu3, theta) plane, prints a coarse text
phase diagram, and then bisects two one-parameter families to their
exceptional points.
"""

import numpy as np

from deformed_e2.models import (
    BROKEN,
    SYMMETRIC,
    Mu,
    classify_region,
    find_exceptional_point,
    with_special_choice,
)

MARK = {SYMMETRIC: "+", BROKEN: "-", "Boundary": "0"}


def main():
    print("phase diagram of H(mu3, theta) for the mu1 = mu4 = 1 family")
    print("(+ symmetric, - broken, 0 boundary)")
    print()
    thetas = np.linspace(0.0, 5.0, 11)
    mu3s = np.linspace(0.25, 2.0, 15)
    header = "  mu3\\theta " + " ".join(f"{t:4.1f}" for t in thetas)
    print(header)
    for m3 in mu3s:
        mu = with_special_choice(Mu(mu1=1.0, mu3=float(m3), mu4=1.0))
        row = [MARK[classify_region(mu, float(t)).phase] for t in thetas]
        print(f"  {m3:8.3f}  " + "    ".join(row))
    print()
    print("the transition sits at mu3 = 1 independently of theta:")
    for theta in (0.0, 1.0, 5.0):
        def fam(t, theta=theta):
            return with_special_choice(Mu(mu1=1.0, mu3=t, mu4=1.0)), theta
        ep, _, _ = find_exceptional_point(fam, (0.5, 2.0))
        print(f"  theta = {theta}: exceptional point at mu3 = {ep!r}")
    print()

    worked = with_special_choice(
        Mu(mu1=1.0, mu2=0.0, mu3=1.0, mu4=2.0, mu5=1.0, mu6=1.0, mu8=0.0))
    print("the running example instead transitions as theta grows:")
    for theta in (0.0, 4.0, 8.0, 12.0):
        v = classify_region(worked, theta, mode="special")
        print(f"  theta = {theta:5.1f}: {v.phase:10s} ({v.witness})")

    def fam(t):
        return worked, t
    ep, _, _ = find_exceptional_point(fam, (0.0, 16.0), mode="special",
                                      tol=1e-7)
    print(f"  bisected exceptional point: theta = {ep!r}")


if __name__ == "__main__":
    main()
