import math

import numpy as np
import pytest

from deformed_e2 import OperatorPoly, ThetaMismatchError, dagger, dyson, max_coeff_diff
from deformed_e2.dyson import (
    DysonParams,
    ad_matrix,
    adjoint_generator_closed,
    adjoint_generator_oracle,
    adjoint_poly,
)


def test_closed_matches_oracle_complex_params():
    rng = np.random.default_rng(18)
    worst = 0.0
    for _ in range(100):
        vals = rng.uniform(-2, 2, 4) + 1j * rng.uniform(-1, 1, 4)
        params = DysonParams(lam=complex(vals[0]), rho=complex(vals[1]),
                             tau=complex(vals[2]), theta=float(vals[3].real))
        for g in ("U", "V", "J"):
            worst = max(worst,
                        adjoint_generator_closed(params, g).max_diff(
                            adjoint_generator_oracle(params, g)))
    assert worst < 1e-11


def test_pinned_images():
    # cosh(ln 3) = 5/3, sinh(ln 3) = 4/3 makes the coefficients exact
    lam, rho, tau, theta = math.log(3), 0.5, -0.25, 2.0
    params = DysonParams(lam=lam, rho=rho, tau=tau, theta=theta)
    ch, sh = 5 / 3, 4 / 3
    s = sh / lam
    c2 = (1 - ch) / lam
    c3 = (1 - ch) / lam ** 2

    img_u = adjoint_generator_closed(params, "U")
    assert img_u.sU == pytest.approx(ch, abs=1e-14)
    assert img_u.sV == pytest.approx(-1j * sh, abs=1e-14)
    assert img_u.sJ == 0
    assert img_u.s0 == pytest.approx(-rho * theta * c2 - 1j * tau * theta * s, abs=1e-14)

    img_v = adjoint_generator_closed(params, "V")
    assert img_v.sU == pytest.approx(1j * sh, abs=1e-14)
    assert img_v.sV == pytest.approx(ch, abs=1e-14)
    assert img_v.s0 == pytest.approx(-tau * theta * c2 + 1j * rho * theta * s, abs=1e-14)

    img_j = adjoint_generator_closed(params, "J")
    assert img_j.sJ == 1
    assert img_j.sU == pytest.approx(-1j * tau * s + rho * c2, abs=1e-14)
    assert img_j.sV == pytest.approx(1j * rho * s + tau * c2, abs=1e-14)
    assert img_j.s0 == pytest.approx(theta * (rho ** 2 + tau ** 2) * c3, abs=1e-14)


def test_series_branch_is_continuous():
    # the small-lambda Taylor branch must join the closed branch smoothly
    for lam in (9.9e-5, -9.9e-5):
        inside = DysonParams(lam=lam, rho=0.7, tau=-0.4, theta=1.5)
        outside = DysonParams(lam=math.copysign(1.0001e-4, lam), rho=0.7, tau=-0.4, theta=1.5)
        for g in ("U", "V", "J"):
            a = adjoint_generator_closed(inside, g)
            b = adjoint_generator_closed(outside, g)
            # images differ by O(|dlam|) across the seam, nothing worse
            assert a.max_diff(b) < 5e-6
            # and the series branch agrees with the oracle to full precision
            assert a.max_diff(adjoint_generator_oracle(inside, g)) < 1e-12


def test_lambda_zero_exact():
    params = DysonParams(lam=0.0, rho=0.3, tau=0.6, theta=2.0)
    img_j = adjoint_generator_closed(params, "J")
    # at lam = 0: J - i tau U + i rho V - theta (rho^2 + tau^2)/2
    assert img_j.sU == pytest.approx(-1j * 0.6, abs=1e-16)
    assert img_j.sV == pytest.approx(1j * 0.3, abs=1e-16)
    assert img_j.s0 == pytest.approx(-2.0 * (0.09 + 0.36) / 2, abs=1e-15)
    for g in ("U", "V"):
        img = adjoint_generator_closed(params, g)
        assert img.max_diff(adjoint_generator_oracle(params, g)) < 1e-13


def test_ad_matrix_layout():
    # basis order (U, V, J, 1); columns hold the bracket of G with each basis element
    params = DysonParams(lam=0.7, rho=0.3, tau=-0.2, theta=2.0)
    m = ad_matrix(params)
    lam, rho, tau, theta = 0.7, 0.3, -0.2, 2.0
    assert m[1, 0] == pytest.approx(-1j * lam)
    assert m[3, 0] == pytest.approx(-1j * tau * theta)
    assert m[0, 1] == pytest.approx(1j * lam)
    assert m[3, 1] == pytest.approx(1j * rho * theta)
    assert m[0, 2] == pytest.approx(-1j * tau)
    assert m[1, 2] == pytest.approx(1j * rho)
    assert np.all(m[:, 3] == 0)
    assert np.all(m[2, :] == 0)


def test_adjoint_poly_is_homomorphism():
    rng = np.random.default_rng(20)
    theta = 1.2
    params = DysonParams(lam=0.9, rho=-0.5, tau=0.3, theta=theta)
    for _ in range(10):
        terms_p = {tuple(int(x) for x in rng.integers(0, 3, 3)):
                   complex(*rng.uniform(-1, 1, 2)) for _ in range(4)}
        terms_q = {tuple(int(x) for x in rng.integers(0, 3, 3)):
                   complex(*rng.uniform(-1, 1, 2)) for _ in range(4)}
        p = OperatorPoly(terms_p, theta)
        q = OperatorPoly(terms_q, theta)
        lhs = adjoint_poly(params, p * q)
        rhs = adjoint_poly(params, p) * adjoint_poly(params, q)
        assert max_coeff_diff(lhs, rhs) < 1e-9


def test_real_params_preserve_hermiticity():
    # exp(lam J + rho U + tau V) with real parameters is a similarity by a
    # positive operator; conjugating a hermitian polynomial can break
    # hermiticity, but the roundtrip with dagger and inversion is consistent:
    # dagger(eta p eta^{-1}) = eta^{-1} dagger(p) eta for hermitian eta
    theta = 0.9
    params = DysonParams(lam=0.8, rho=0.1, tau=-0.3, theta=theta)
    u = OperatorPoly.generator("U", theta)
    j = OperatorPoly.generator("J", theta)
    p = u * j + 1j * u
    inv = params.inverse()
    assert inv.lam == -params.lam and inv.rho == -params.rho and inv.tau == -params.tau
    lhs = dagger(adjoint_poly(params, p))
    rhs = adjoint_poly(inv, dagger(p))
    assert max_coeff_diff(lhs, rhs) < 1e-12


@pytest.mark.parametrize("route, expm_calls", [("closed", 0), ("oracle", 1)])
def test_adjoint_poly_builds_one_image_matrix(route, expm_calls, monkeypatch):
    calls = {"image_matrix": 0, "expm": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(dyson, "image_matrix",
                        counted("image_matrix", dyson.image_matrix))
    monkeypatch.setattr(dyson, "expm", counted("expm", dyson.expm))
    theta = 0.7
    u, v, j = (OperatorPoly.generator(g, theta) for g in ("U", "V", "J"))
    ham = j * j + u * v + 2 * (u * j) + 1j * v * j + u + 3.0
    adjoint_poly(DysonParams(0.4, -0.3, 0.2, theta), ham, route=route)
    assert calls == {"image_matrix": 1, "expm": expm_calls}
    with pytest.raises(ValueError):
        adjoint_poly(DysonParams(0.4, -0.3, 0.2, theta), ham, route="exact")


def test_theta_mismatch_rejected():
    params = DysonParams(lam=0.5, rho=0.0, tau=0.0, theta=1.0)
    with pytest.raises(ThetaMismatchError):
        adjoint_poly(params, OperatorPoly.generator("U", 0.0))


def test_params_reality_flag():
    assert DysonParams(lam=0.5, rho=0.1, tau=0.2, theta=1.0).is_real
    assert not DysonParams(lam=0.5 + 1j, rho=0.1, tau=0.2, theta=1.0).is_real
    assert not DysonParams(lam=0.5, rho=1j * 0.1, tau=0.2, theta=1.0).is_real
