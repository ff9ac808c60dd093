"""Acceptance gate: one test per deliverable criterion, at the stated
tolerances and time budgets.  Everything here runs against public API only.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from deformed_e2 import OperatorPoly, hermiticity_residual, max_coeff_diff
from deformed_e2.dyson import (
    DysonParams,
    adjoint_generator_closed,
    adjoint_generator_oracle,
    adjoint_poly,
)
from deformed_e2.models import (
    HamiltonianCoeffs,
    Mu,
    build_general,
    build_pt5,
    constraint_residuals,
    find_exceptional_point,
    hermitian_counterpart_pt5,
    solve_pt5_special,
    toy_spectrum,
    with_special_choice,
)
from deformed_e2.representations import (
    ALL_REAL,
    CONJUGATE_PAIRS,
    diagonalize_classify,
    isospectral_check,
    make_representation,
    poly_to_matrix,
)

WORKED = with_special_choice(
    Mu(mu1=1.0, mu2=0.0, mu3=1.0, mu4=2.0, mu5=1.0, mu6=1.0, mu8=0.0))


def test_criterion_1_closed_form_matches_exp_ad_oracle():
    # 1000 random parameter draws, all three generators, 1e-12, under 1s
    rng = np.random.default_rng(12345)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        lam, rho, tau, theta = rng.uniform(-2, 2, 4)
        params = DysonParams(lam=float(lam), rho=float(rho),
                             tau=float(tau), theta=float(theta))
        for g in ("U", "V", "J"):
            closed = adjoint_generator_closed(params, g)
            oracle = adjoint_generator_oracle(params, g)
            worst = max(worst, np.abs(closed - oracle).max())
    elapsed = time.perf_counter() - start
    assert worst < 1e-12, f"worst deviation {worst:.3e}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_undeformed_limit():
    # at theta = 0 the images collapse to the known rotation-like forms, 1e-13
    rng = np.random.default_rng(23456)
    worst = 0.0
    for _ in range(200):
        lam, rho, tau = (float(x) for x in rng.uniform(-2, 2, 3))
        params = DysonParams(lam=lam, rho=rho, tau=tau, theta=0.0)
        ch, sh = math.cosh(lam), math.sinh(lam)
        # each image is a column of (1, U, V, J) components
        s0, sU, sV, _ = adjoint_generator_closed(params, "U")
        worst = max(worst, abs(s0), abs(sU - ch), abs(sV + 1j * sh))
        s0, sU, sV, _ = adjoint_generator_closed(params, "V")
        worst = max(worst, abs(s0), abs(sU - 1j * sh), abs(sV - ch))
        s0, sU, sV, _ = adjoint_generator_closed(params, "J")
        worst = max(worst, abs(s0),
                    abs(sU - (-1j * tau * sh / lam + rho * (1 - ch) / lam)),
                    abs(sV - (1j * rho * sh / lam + tau * (1 - ch) / lam)))
    assert worst < 1e-13, f"worst deviation {worst:.3e}"


def test_criterion_3_hermiticity_constraints_equivalent():
    # the ten residuals vanish exactly when the operator equals its dagger:
    # 1000 draws mixing generic and constructed-hermitian coefficients,
    # boolean agreement at 1e-12, under 1s
    rng = np.random.default_rng(34567)
    start = time.perf_counter()
    for k in range(1000):
        theta = float(rng.uniform(-2, 2))
        if k % 2 == 0:
            vals = tuple(complex(*rng.uniform(-1, 1, 2)) for _ in range(10))
        else:
            a = rng.uniform(-1, 1, 10)
            vals = (complex(a[0]), complex(a[1]),
                    complex(a[2], a[5] / 2), complex(a[3], -a[4] / 2),
                    complex(a[4]), complex(a[5]), complex(a[6]),
                    complex(a[7]), complex(a[8]),
                    complex(a[9], -theta * a[8] / 2))
        coeffs = HamiltonianCoeffs(vals)
        res = float(np.max(np.abs(constraint_residuals(coeffs, theta))))
        direct = hermiticity_residual(build_general(coeffs, theta))
        assert (res < 1e-12) == (direct < 1e-12), f"draw {k} disagrees"
        if k % 2 == 1:
            assert res < 1e-12 and direct < 1e-12, f"draw {k} not hermitian"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_4_special_family_counterparts():
    # 100 admissible draws: the closed-form counterpart is hermitian and
    # agrees with conjugating through the solved map, 1e-10, under 5s
    rng = np.random.default_rng(45678)
    start = time.perf_counter()
    done = 0
    while done < 100:
        mu = with_special_choice(Mu(
            mu1=float(rng.uniform(0.5, 2.0)),
            mu2=float(rng.uniform(-1, 1)),
            mu3=float(rng.uniform(-2, 2)),
            mu4=float(rng.uniform(-2, 2)),
            mu5=float(rng.uniform(-1, 1)),
            mu6=float(rng.uniform(-1, 1)),
            mu8=float(rng.uniform(-1, 1))))
        theta = float(rng.uniform(0.0, 4.0))
        try:
            params = solve_pt5_special(mu, theta)
        except ZeroDivisionError:
            continue
        if not params.is_real:
            continue
        done += 1
        h = hermitian_counterpart_pt5(mu, theta)
        assert hermiticity_residual(h) < 1e-10
        engine = adjoint_poly(params, build_pt5(mu, theta))
        assert max_coeff_diff(h, engine) < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_5_exceptional_points():
    # the mu3 transition does not move with theta (spread below 1e-9), and
    # the worked family crosses at theta = 8 +/- 1e-6; under 1s
    start = time.perf_counter()
    points = []
    for theta in (0.0, 1.0, 5.0):
        def fam(t, theta=theta):
            return with_special_choice(Mu(mu1=1.0, mu3=t, mu4=1.0)), theta
        points.append(find_exceptional_point(fam, (0.5, 2.0))[0])
    assert max(points) - min(points) <= 1e-9

    def worked_fam(t):
        return WORKED, t
    ep, _, _ = find_exceptional_point(worked_fam, (0.0, 16.0),
                                      mode="special", tol=1e-7)
    assert abs(ep - 8.0) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_6_fock_phase_concordance():
    # spectra of the same family on both sides of its transition, at two
    # truncations, agree with the algebraic verdicts; under 10s
    start = time.perf_counter()
    h_real = OperatorPoly({(0, 0, 2): 1.0, (1, 0, 0): 2.0, (0, 1, 0): 1j}, 1.0)
    h_pair = OperatorPoly({(0, 0, 2): 1.0, (1, 0, 0): 1.0, (0, 1, 0): 2j}, 1.0)
    for n in (60, 75):
        rep = make_representation("fock", 1.0, n)
        ra = diagonalize_classify(h_real, rep)
        rb = diagonalize_classify(h_pair, rep)
        assert ra.verdict == ALL_REAL, f"N={n}: {ra.verdict}"
        assert rb.verdict == CONJUGATE_PAIRS, f"N={n}: {rb.verdict}"
        assert rb.pairs >= 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_7_isospectrality():
    # H and its hermitian counterpart share converged eigenvalues to a
    # relative 1e-5 at the worked point; under 20s
    start = time.perf_counter()
    rep = make_representation("fock", 12.0, 80)
    ham = build_pt5(WORKED, 12.0)
    herm = hermitian_counterpart_pt5(WORKED, 12.0)
    iso = isospectral_check(ham, herm, rep, delta=20, rel_tol=1e-5)
    assert iso.passed, iso.diagnostic
    assert iso.n_matched >= 40
    assert iso.max_mismatch < 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0, f"took {elapsed:.2f}s"


def test_criterion_8_circle_spectrum_exact():
    # the toy counterpart on the circle diagonalizes exactly, and the two
    # spectral conventions are related by n -> 2 pi n; 1e-12, under 1s
    start = time.perf_counter()
    rep = make_representation("circle", 0.1, 6)
    h = OperatorPoly({(0, 0, 2): 1.0, (0, 0, 1): 0.3}, 0.1)
    got = sorted(np.linalg.eigvalsh(poly_to_matrix(h, rep)).tolist())
    want = sorted(m * m + 0.3 * m for m in range(-6, 7))
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12
    for n in range(-6, 7):
        paper = toy_spectrum(1.0, 0.3, n, convention="paper")
        assert abs(paper - toy_spectrum(1.0, 0.3, 2 * math.pi * n)) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_9_cli_determinism(tmp_path):
    # two fresh interpreter runs of the same sweep, different worker counts,
    # byte-identical CSV
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    base = [sys.executable, "-m", "deformed_e2.cli", "classify",
            "-c", "configs/classify_theta_sweep.json"]
    r1 = subprocess.run(base + ["-o", str(out1), "--workers", "1"],
                        capture_output=True, text=True)
    r2 = subprocess.run(base + ["-o", str(out2), "--workers", "4"],
                        capture_output=True, text=True)
    assert r1.returncode == 0, r1.stderr
    assert r2.returncode == 0, r2.stderr
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    # sanity: the sweep actually crossed the transition
    text = b1.decode()
    assert "Broken" in text and "Symmetric" in text and "Boundary" in text
