import math

import numpy as np
import pytest

from deformed_e2 import OperatorPoly
from deformed_e2.dyson import DysonParams
from deformed_e2.models import (
    Mu,
    build_pt5,
    hermitian_counterpart_pt5,
    with_special_choice,
)
from deformed_e2.representations import (
    ALL_REAL,
    Representation,
    commutator_fidelity,
    diagonalize_classify,
    eta_matrix,
    isospectral_check,
    make_representation,
    poly_to_matrix,
)

WORKED = with_special_choice(
    Mu(mu1=1.0, mu2=0.0, mu3=1.0, mu4=2.0, mu5=1.0, mu6=1.0, mu8=0.0))


def test_fock_matrices_small():
    # theta = 2 makes sqrt(theta/2) = 1, so U is the bare position ladder
    rep = make_representation("fock", 2.0, 3)
    sq2 = math.sqrt(2)
    expect_u = np.array([[0, 1, 0], [1, 0, sq2], [0, sq2, 0]], dtype=complex)
    expect_v = np.array([[0, -1j, 0], [1j, 0, -1j * sq2], [0, 1j * sq2, 0]])
    assert np.allclose(rep.U, expect_u, atol=1e-15)
    assert np.allclose(rep.V, expect_v, atol=1e-15)
    assert np.allclose(np.diagonal(rep.J), [0, 1, 2], atol=0)


def test_fock_j0_offset():
    rep = make_representation("fock", 1.0, 4, j0=0.25)
    assert np.allclose(np.diagonal(rep.J), [0.25, 1.25, 2.25, 3.25])


def test_fock_rejects_nonpositive_theta():
    with pytest.raises(ValueError):
        make_representation("fock", 0.0, 8)
    with pytest.raises(ValueError):
        make_representation("fock", -1.0, 8)


def test_fock_casimir():
    # U^2 + V^2 - 2 theta J = theta (1 - 2 j0) away from the truncation edge
    theta, j0 = 0.7, 0.25
    rep = make_representation("fock", theta, 20, j0=j0)
    cas = rep.U @ rep.U + rep.V @ rep.V - 2 * theta * rep.J
    expect = theta * (1 - 2 * j0)
    interior = cas[:-2, :-2]
    assert np.allclose(interior, expect * np.eye(18), atol=1e-13)


def test_generators_hermitian():
    fock = make_representation("fock", 1.0, 24)
    assert set(commutator_fidelity(fock)) == {"UJ", "VJ", "UV"}
    for rep in (fock,
                make_representation("planar", 0.5, (10, 10)),
                make_representation("circle", 0.3, 5)):
        for m in (rep.U, rep.V, rep.J):
            assert np.array_equal(m, m.conj().T)


def test_planar_index_convention():
    # site (ix, iy) lives at flat index ix*ny + iy
    nx, ny = 5, 7
    rep = make_representation("planar", 0.4, (nx, ny))
    assert rep.U.shape == (nx * ny, nx * ny)
    # the p_+ = (|1,0> + i|0,1>)/sqrt(2) state carries J = -1
    psi = np.zeros(nx * ny, dtype=complex)
    psi[1 * ny + 0] = 1 / math.sqrt(2)
    psi[0 * ny + 1] = 1j / math.sqrt(2)
    jexp = (psi.conj() @ rep.J @ psi).real
    assert jexp == pytest.approx(-1.0, abs=1e-12)


def test_circle_representation():
    rep = make_representation("circle", 0.3, 5)
    assert np.array_equal(np.diagonal(rep.J).real, np.arange(-5, 6))
    # polynomials in J map to exact diagonals
    p = OperatorPoly({(0, 0, 2): 1.0, (0, 0, 1): 0.3}, 0.3)
    mat = poly_to_matrix(p, rep)
    want = np.diag([m * m + 0.3 * m for m in range(-5, 6)]).astype(complex)
    assert np.array_equal(mat, want)
    # U and V have no action on the circle
    with pytest.raises(ValueError):
        poly_to_matrix(OperatorPoly({(1, 0, 0): 1.0}, 0.3), rep)


def test_poly_to_matrix_normal_ordered_word():
    # the matrix of U V J must be U @ V @ J in that order
    theta = 1.0
    rep = make_representation("fock", theta, 12)
    p = OperatorPoly({(1, 1, 1): 1.0}, theta)
    assert np.allclose(poly_to_matrix(p, rep), rep.U @ rep.V @ rep.J)
    # scalars lift to multiples of the identity
    one = OperatorPoly.identity(theta) * 2.5
    assert np.allclose(poly_to_matrix(one, rep), 2.5 * np.eye(12))


def test_eta_matrix_positive_definite():
    # real parameters give a hermitian, positive-definite eta
    rep = make_representation("fock", 1.0, 32)
    eta = eta_matrix(DysonParams(lam=0.4, rho=0.2, tau=-0.1, theta=1.0), rep)
    asym = float(np.max(np.abs(eta - eta.conj().T)))
    scale = float(np.max(np.abs(eta)))
    assert asym / scale < 1e-12
    evals = np.linalg.eigvalsh(0.5 * (eta + eta.conj().T))
    assert float(np.min(evals)) > 0


def test_diagonalize_flags_align_with_eigenvalues():
    rep = make_representation("fock", 1.0, 60)
    h = OperatorPoly({(0, 0, 2): 1.0, (1, 0, 0): 2.0, (0, 1, 0): 1j}, 1.0)
    r = diagonalize_classify(h, rep, delta=15)
    assert len(r.converged) >= 40
    assert len(r.flags) == len(r.eigenvalues)
    assert len(r.converged) == sum(r.flags)
    # eigenvalues come back sorted by real part, then imaginary part
    order = [(e.real, e.imag) for e in r.eigenvalues]
    assert order == sorted(order)


def test_diagonalize_rejects_tiny_truncations():
    rep = make_representation("fock", 1.0, 8)
    with pytest.raises(ValueError):
        diagonalize_classify(OperatorPoly({(0, 0, 2): 1.0}, 1.0), rep)


def test_isospectral_worked_point():
    rep = make_representation("fock", 12.0, 80)
    ham = build_pt5(WORKED, 12.0)
    herm = hermitian_counterpart_pt5(WORKED, 12.0)
    iso = isospectral_check(ham, herm, rep, delta=20)
    assert iso.passed
    assert iso.n_matched >= 40
    assert iso.max_mismatch < 1e-5
    assert iso.verdict_h == ALL_REAL and iso.verdict_hh == ALL_REAL


def test_isospectral_detects_mismatch():
    # shifting one operator must break the match
    rep = make_representation("fock", 12.0, 80)
    ham = build_pt5(WORKED, 12.0)
    herm = hermitian_counterpart_pt5(WORKED, 12.0) + 0.5
    iso = isospectral_check(ham, herm, rep, delta=20)
    assert not iso.passed
