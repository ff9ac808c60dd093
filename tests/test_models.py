import cmath
import math
import os
import struct
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from deformed_e2 import hermiticity_residual, max_coeff_diff
from deformed_e2 import OperatorPoly, algebra, dyson, models
from deformed_e2.dyson import SERIES_CUTOFF, DysonParams, adjoint_poly
from deformed_e2.models import (
    BOUNDARY,
    BROKEN,
    CERT_TOL,
    SYMMETRIC,
    BrokenPhaseError,
    DegenerateLambdaError,
    HamiltonianCoeffs,
    Mu,
    MuAbbrev,
    arccoth,
    build_general,
    build_pt5,
    classify_points,
    classify_region,
    constraint_residuals,
    extract_coeffs,
    find_exceptional_point,
    hermitian_counterpart_pt5,
    mu3_deformed,
    product_table,
    rho_of_lambda,
    solve_generic_multistart,
    solve_generic_numeric,
    solve_pt5_special,
    solve_pt5_undeformed,
    special_mu7,
    special_mu9,
    toy_dyson_params,
    toy_lambda,
    toy_model,
    toy_mu,
    toy_spectrum,
    with_special_choice,
)

import pt5_reference

HALF_LN2 = 0.34657359027997264
HALF_LN3 = 0.5493061443340549

# the running example used throughout: mu7 and mu9 fixed by the special choice
WORKED = with_special_choice(
    Mu(mu1=1.0, mu2=0.0, mu3=1.0, mu4=2.0, mu5=1.0, mu6=1.0, mu8=0.0))

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


def test_mu_as_coeffs_pattern():
    mu = Mu(mu1=1.0, mu2=0.2, mu3=0.3, mu4=0.4, mu5=0.5, mu6=0.6,
            mu7=0.7, mu8=0.8, mu9=0.9)
    c = mu.as_coeffs()
    assert c[1] == 1.0 and c[2] == 0.2 and c[3] == 0.3
    assert c[4] == 0.4j          # V enters as i mu4
    assert c[5] == 0.5
    assert c[6] == 0.6j          # VJ as i mu6
    assert c[7] == 0.7 and c[8] == 0.8
    assert c[9] == 0.9j          # UV as i mu9
    assert c[10] == 0.0


def test_mu_hermiticity_predicate():
    assert Mu(mu1=1.0, mu4=1.0, mu5=-2.0).is_hermitian
    assert not Mu(mu1=1.0, mu4=1.0, mu5=-2.0, mu6=0.1).is_hermitian
    assert not Mu(mu1=1.0, mu4=1.0, mu5=-1.0).is_hermitian
    # mu9 multiplies UV, whose normal-ordered dagger picks up -i theta,
    # so it must vanish as well
    assert not Mu(mu1=1.0, mu4=1.0, mu5=-2.0, mu9=0.3).is_hermitian


def test_abbreviations_worked_values():
    ab = MuAbbrev.from_mu(WORKED)
    assert ab.mu23 == pytest.approx(-1.5)
    assert ab.mu24 == pytest.approx(-2.5)
    assert ab.mu78 == pytest.approx(0.0)
    assert ab.mu19 == pytest.approx(0.0)


def test_build_pt5_is_pt5_invariant():
    from deformed_e2 import PTKind, pt_invariance_check
    ham = build_pt5(WORKED, 12.0)
    assert pt_invariance_check(PTKind.PT5, ham)


def test_constraint_residuals_isolate_components():
    # a lone imaginary U coefficient trips exactly the third residual
    theta = 0.0
    coeffs = HamiltonianCoeffs((1.0, 0.0, 1j, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    res = constraint_residuals(coeffs, theta)
    assert res[2] == pytest.approx(1.0)
    assert np.max(np.abs(np.delete(res, 2))) < 1e-15
    # the UV coefficient drags the scalar with it through the deformation
    theta = 2.0
    coeffs = HamiltonianCoeffs((1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.9,
                                -1j * theta * 0.9 / 2))
    res = constraint_residuals(coeffs, theta)
    assert np.max(np.abs(res)) < 1e-15


def test_arccoth_branches():
    assert arccoth(2.0) == pytest.approx(HALF_LN3, abs=1e-15)
    assert arccoth(-2.0) == pytest.approx(-HALF_LN3, abs=1e-15)
    # inside the unit interval the principal branch carries +i pi/2
    inside = arccoth(0.5)
    assert inside.real == pytest.approx(HALF_LN3, abs=1e-15)
    assert inside.imag == pytest.approx(math.pi / 2, abs=1e-15)
    inside_neg = arccoth(-0.5)
    assert inside_neg.imag == pytest.approx(math.pi / 2, abs=1e-15)
    with pytest.raises(ZeroDivisionError):
        arccoth(1.0)
    # arccoth really inverts coth where defined
    for x in (3.0, -1.5, 0.2):
        lam = arccoth(x)
        assert cmath.cosh(lam) / cmath.sinh(lam) == pytest.approx(x, abs=1e-12)


def test_undeformed_solver_branches():
    # real branch: coth(lam) = 2
    params, residual = solve_pt5_undeformed(Mu(mu1=1.0, mu3=2.0, mu4=1.0))
    assert params.lam == pytest.approx(HALF_LN3, abs=1e-15)
    assert residual == 0.0
    # broken branch: ratio inside the unit interval gives complex lam
    params, _ = solve_pt5_undeformed(Mu(mu1=1.0, mu3=0.5, mu4=1.0))
    assert params.lam.imag == pytest.approx(math.pi / 2, abs=1e-15)
    assert not params.is_real
    # mu24 = 0 with mu23 != 0 has no finite lam
    with pytest.raises(DegenerateLambdaError):
        solve_pt5_undeformed(Mu(mu1=1.0, mu3=1.0))
    # both vacuous: any lam works, lam = 0 returned
    params, residual = solve_pt5_undeformed(Mu(mu1=1.0))
    assert params.lam == 0 and residual == 0.0
    # fourth relation vacuous, third one takes over: coth(2 lam) = mu78/mu19
    params, residual = solve_pt5_undeformed(Mu(mu1=1.0, mu9=0.5, mu8=-1.0))
    assert params.lam == pytest.approx(math.log(3) / 4, abs=1e-15)
    assert residual == 0.0
    # incompatible overdetermined system is reported, not hidden
    _, residual = solve_pt5_undeformed(Mu(mu1=1.0, mu8=1.0))
    assert residual == math.inf


def test_special_solver_worked_point():
    params = solve_pt5_special(WORKED, 12.0)
    assert params.lam == pytest.approx(HALF_LN2, abs=1e-14)
    assert params.rho == pytest.approx(-HALF_LN2, abs=1e-14)
    assert params.tau == 0.0
    assert params.is_real
    # and the map actually does the job
    ham = build_pt5(WORKED, 12.0)
    assert hermiticity_residual(adjoint_poly(params, ham)) < 1e-12


def test_mu3_deformed_worked_value():
    # the deformed constraint recovers the worked mu3 = 1 at lam = ln(2)/2
    assert mu3_deformed(WORKED, HALF_LN2, 12.0) == pytest.approx(1.0, abs=1e-12)
    # theta = 0 reduction: -mu24 coth(lam) + mu2 mu5/(2 mu1) - mu6/2
    mu = Mu(mu1=2.0, mu2=0.3, mu3=0.0, mu4=1.0, mu5=0.4, mu6=0.6, mu8=0.1)
    lam = 0.8
    ab = MuAbbrev.from_mu(mu)
    expected = -ab.mu24 / math.tanh(lam) + mu.mu2 * mu.mu5 / (2 * mu.mu1) - mu.mu6 / 2
    assert mu3_deformed(mu, lam, 0.0) == pytest.approx(expected, abs=1e-12)


def test_rho_of_lambda_continuation():
    mu = Mu(mu1=1.0, mu5=0.8, mu6=0.4)
    # lam -> 0: lam coth(lam) -> 1, so rho -> (mu5 - mu6)/2... times 0 for
    # the mu5 part; the continued value is -mu6/2 plus lam mu5/(2 mu1)
    tiny = rho_of_lambda(mu, 1e-9)
    assert tiny == pytest.approx(-0.2, abs=1e-8)
    direct = rho_of_lambda(mu, 0.3)
    manual = 0.3 * (0.8 - 0.4 / math.tanh(0.3)) / 2
    assert direct == pytest.approx(manual, abs=1e-14)


def test_classify_region_worked_triple():
    v12 = classify_region(WORKED, 12.0, mode="special")
    assert v12.phase == SYMMETRIC
    assert v12.lam == pytest.approx(HALF_LN2, abs=1e-12)
    v8 = classify_region(WORKED, 8.0, mode="special")
    assert v8.phase == BOUNDARY
    v0 = classify_region(WORKED, 0.0, mode="special")
    assert v0.phase == BROKEN
    assert v0.lam.imag == pytest.approx(math.pi / 2, abs=1e-12)


def test_special_and_general_modes_agree_on_special_choice_members():
    # two routes to one phase: the special coth ratio and general mode's
    # root search for the deformed mu3 condition (the coth(2 lambda)
    # condition is vacuous under the special choice); draws within 1e-3 of
    # either threshold are skipped, as a near-tie may legitimately split
    rng = np.random.default_rng(1407)
    seen = {SYMMETRIC: 0, BROKEN: 0}
    for k in range(3000):
        m = rng.uniform(-2.0, 2.0, 9)
        m[0] = math.copysign(rng.uniform(0.3, 2.0), m[0])
        if k % 7 == 0:
            m[4] = m[5] = 0.0   # general mode's exact coth-ratio branch
        mu = with_special_choice(Mu(*(float(x) for x in m)))
        theta = float(rng.uniform(0.05, 6.0))
        special = classify_region(mu, theta, mode="special")
        general = classify_region(mu, theta, mode="general")
        if BOUNDARY in (special.phase, general.phase) or \
                min(abs(special.margin1), abs(general.margin2)) < 1e-3:
            continue
        assert special.phase == general.phase, (mu, theta)
        seen[special.phase] += 1
    assert min(seen.values()) > 1000 and sum(seen.values()) > 2950


def test_classify_special_degenerate_denominator():
    # an already-hermitian member makes the special coth ratio 0/0; the
    # classifier reports the degeneracy as Boundary with NaN margin rather
    # than inventing a lambda
    mu = Mu(mu1=1.0, mu4=1.0, mu5=-2.0)
    v = classify_region(mu, 0.0, mode="special")
    assert v.phase == BOUNDARY
    assert "zero denominator" in v.witness
    assert math.isnan(v.margin1)
    assert v.lam is None


def test_hermitian_counterpart_matches_engine():
    h = hermitian_counterpart_pt5(WORKED, 12.0)
    assert hermiticity_residual(h) < 1e-12
    params = solve_pt5_special(WORKED, 12.0)
    engine = adjoint_poly(params, build_pt5(WORKED, 12.0))
    assert max_coeff_diff(h, engine) < 1e-10


def test_hermitian_counterpart_rejects_broken_phase():
    with pytest.raises(BrokenPhaseError):
        hermitian_counterpart_pt5(WORKED, 0.0)


def test_exceptional_point_first_family():
    # sweep mu3 with everything else held; the transition is at mu3 = 1
    # and does not move with theta
    points = []
    for theta in (0.0, 1.0, 5.0):
        def fam(t, theta=theta):
            return with_special_choice(Mu(mu1=1.0, mu3=t, mu4=1.0)), theta
        point, low, high = find_exceptional_point(fam, (0.5, 2.0))
        assert (low, high) == (BROKEN, SYMMETRIC)
        points.append(point)
    assert all(p == pytest.approx(1.0, abs=1e-8) for p in points)
    assert max(points) - min(points) < 1e-12


def test_exceptional_point_needs_a_sign_change():
    def fam(t):
        return with_special_choice(Mu(mu1=1.0, mu3=t, mu4=1.0)), 1.0
    with pytest.raises(ValueError):
        find_exceptional_point(fam, (1.5, 2.0))


def test_exceptional_point_stops_between_adjacent_floats(monkeypatch):
    # the crossing is at mu3 = 1e7 - 1e-3, where no float puts |mu23|
    # within BOUNDARY_TOL of mu4 and the float spacing is wider than tol:
    # the midpoint used to round onto an end and repeat there forever
    calls = []
    classify = models.classify_region

    def counted(*args, **kwargs):
        calls.append(args)
        return classify(*args, **kwargs)
    monkeypatch.setattr(models, "classify_region", counted)

    def fam(t):
        return Mu(mu1=1.0, mu3=t, mu4=1e-3, mu6=-2e7), 0.0
    lo, hi = 9999999.7, 10000000.0003
    point, low, high = find_exceptional_point(fam, (lo, hi))
    assert point == pytest.approx(1e7 - 1e-3, abs=1e-8)
    assert (low, high) == (SYMMETRIC, BROKEN)
    # the two ends, then one midpoint per halving down to adjacent floats
    halvings = math.ceil(math.log2((hi - lo) / math.ulp(point)))
    assert len(calls) <= 2 + halvings


def test_toy_family_values():
    mu = toy_mu(1.0, 1.0, math.log(3))
    # coth(ln(3)/2) = 2 fixes mu3
    assert mu.mu3 == pytest.approx(2.0)
    assert mu.mu5 == pytest.approx(-2.0)      # -2 mu4
    assert mu.mu6 == pytest.approx(-4.0)      # -2 mu3
    assert mu.mu8 == pytest.approx(-4.0)      # -mu3^2/mu1
    assert mu.mu7 == pytest.approx(special_mu7(mu))
    assert mu.mu9 == pytest.approx(special_mu9(mu))


def test_toy_lambda_inverts():
    lam = toy_lambda(2.0, 1.0)
    assert lam == pytest.approx(math.log(3), abs=1e-14)
    # ratio inside the unit interval lands on the complex branch
    broken = toy_lambda(0.5, 1.0)
    assert broken.real == pytest.approx(math.log(3), abs=1e-13)
    assert broken.imag == pytest.approx(math.pi, abs=1e-13)


def test_toy_dyson_params_hermitize():
    # the closed map for the toy family: tau = 0 and
    # rho = lam mu4 / (2 mu1 sinh^2(lam/2))
    for theta in (0.0, 0.1, 0.7):
        for lam in (0.3, 1.0, math.log(3), 2.5):
            mu = toy_mu(1.0, 1.0, lam)
            params = toy_dyson_params(1.0, 1.0, lam, theta)
            ham = build_pt5(mu, theta)
            assert hermiticity_residual(adjoint_poly(params, ham)) < 1e-12
    params = toy_dyson_params(1.0, 1.0, math.log(3), 0.1)
    assert params.rho == pytest.approx(
        math.log(3) / (2 * math.sinh(math.log(3) / 2) ** 2), abs=1e-14)
    assert params.tau == 0.0


def test_toy_model_worked_numbers():
    h, eps, shift = toy_model(1.0, 1.0, lam=math.log(3), theta=0.1)
    assert eps == pytest.approx(0.3)
    # the stated closed-form shift; the conjugation engine instead yields
    # -theta coth(lam/2) + eps^2/4 = -0.1775 here, and the verify suite
    # records that discrepancy rather than papering over it
    assert shift == pytest.approx(-0.17)
    engine_shift = -0.1 * 2.0 + 0.3 ** 2 / 4
    params = toy_dyson_params(1.0, 1.0, math.log(3), 0.1)
    conj = adjoint_poly(params, build_pt5(toy_mu(1.0, 1.0, math.log(3)), 0.1))
    assert conj.coeff(0, 0, 0).real == pytest.approx(engine_shift, abs=1e-12)
    # quadratic-plus-linear form in J; the sign of the linear term only
    # relabels n -> -n, so the spectrum as a set is unchanged
    assert h.coeff(0, 0, 2) == pytest.approx(1.0)
    assert abs(h.coeff(0, 0, 1)) == pytest.approx(eps)
    # the rescaled convention's E_1 = 4 pi^2 mu1 - 2 pi eps for this h
    assert toy_spectrum(1.0, eps, 1, convention="paper") == pytest.approx(
        4 * math.pi ** 2 - 0.6 * math.pi, abs=1e-12)


def test_toy_model_argument_validation():
    with pytest.raises(ValueError):
        toy_model(1.0, 1.0)                       # needs lam or mu3
    with pytest.raises(ValueError):
        toy_model(1.0, 1.0, lam=1.0, mu3=2.0)     # but not both


def test_generic_numeric_solver_finds_closed_form():
    # J^2 + 2U + iV at theta = 0: the closed-form answer is lam = ln(3)/2
    coeffs = HamiltonianCoeffs((1.0, 0.0, 2.0, 1j, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    params, residual, _ = solve_generic_numeric(coeffs, 0.0)
    assert residual < 1e-12
    assert abs(params.lam - HALF_LN3) < 1e-6
    assert abs(params.rho) < 1e-6 and abs(params.tau) < 1e-6


def test_generic_numeric_solver_hermitian_input():
    # already hermitian and J-invariant: every exp(lam J) is a solution, and
    # the tie goes to the smallest |lam|, the identity map
    coeffs = HamiltonianCoeffs((1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.3, 0.3, 0.0, 0.0))
    params, residual, _ = solve_generic_numeric(coeffs, 1.0)
    assert residual < 1e-10
    assert (params.lam, params.rho, params.tau) == (0.0, 0.0, 0.0)


def test_generic_matches_special_on_worked_family():
    coeffs = build_pt5(WORKED, 12.0)
    params, residual, _ = solve_generic_numeric(extract_coeffs(coeffs), 12.0)
    assert residual < 1e-9
    # the special-choice map: lam = ln2/2, rho = -lam, tau = 0
    assert params.lam == pytest.approx(HALF_LN2, abs=1e-12)
    assert params.rho == pytest.approx(-HALF_LN2, abs=1e-12)
    assert abs(params.tau) < 1e-12
    closed = solve_pt5_special(WORKED, 12.0)
    ham = build_pt5(WORKED, 12.0)
    # different parameter triples can hermitize the same family; compare
    # the produced hermitian operators on the J-diagonal part instead
    h_num = adjoint_poly(DysonParams(params.lam, params.rho, params.tau, 12.0), ham)
    assert hermiticity_residual(h_num) < 1e-8


def _conjugation_draws(n):
    """Seeded (params, c, theta), with the lam -> 0 and theta = 0 edges."""
    rng = np.random.default_rng(314)
    for k in range(n):
        theta = 0.0 if k % 7 == 0 else float(rng.uniform(-4.0, 4.0))
        lam, rho, tau = (float(x) for x in rng.uniform(-2.0, 2.0, 3))
        if k % 5 == 1:
            lam *= 0.9 * SERIES_CUTOFF / 2.0   # series branch
        elif k % 5 == 2:
            lam = 0.0
        c = rng.uniform(-1.0, 1.0, 10) + 1j * rng.uniform(-1.0, 1.0, 10)
        yield DysonParams(lam, rho, tau, theta), c, theta


def _conjugated(params, c):
    """One row of the solver's conjugated c_1..c_10 at a single map."""
    x = [np.array([float(v)]) for v in (params.lam, params.rho, params.tau)]
    return models._conjugated_coeffs(models._coeff_matrix(c), params.theta,
                                     *x)[0]


def test_conjugated_coeffs_match_adjoint_poly():
    worst = {"closed": 0.0, "oracle": 0.0}
    for params, c, theta in _conjugation_draws(210):
        got = _conjugated(params, c)
        ham = build_general(HamiltonianCoeffs(tuple(c)), theta)
        for route in worst:
            ref = np.array(extract_coeffs(
                adjoint_poly(params, ham, route=route)).c)
            err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
            worst[route] = max(worst[route], err)
    assert worst["closed"] <= 1e-12 and worst["oracle"] <= 1e-12, worst


def test_zero_map_and_product_table():
    # lam = rho = tau = 0 is the identity map, at any theta
    rng = np.random.default_rng(3)
    c = rng.uniform(-1.0, 1.0, 10) + 1j * rng.uniform(-1.0, 1.0, 10)
    assert np.array_equal(_conjugated(DysonParams(0.0, 0.0, 0.0, 2.0), c), c)
    # J U = UJ - iV and V U = UV - i theta in normal order
    table = product_table(2.0)
    ju, vu = np.zeros(10, complex), np.zeros(10, complex)
    ju[4], ju[3] = 1.0, -1j
    vu[8], vu[9] = 1.0, -2j
    assert np.array_equal(table[3, 1], ju)
    assert np.array_equal(table[2, 1], vu)


def _engine_product_table(theta):
    """product_table's reference: all 16 products through the engine."""
    gens = [OperatorPoly.identity(theta)]
    gens += [OperatorPoly.generator(g, theta) for g in ("U", "V", "J")]
    table = np.zeros((4, 4, 10), dtype=complex)
    for k, left in enumerate(gens):
        for l, right in enumerate(gens):
            table[k, l] = extract_coeffs(left * right).c
    return table


def test_product_table_matches_the_engine():
    rng = np.random.default_rng(11)
    thetas = [0.0, 1e-14, -1e-14, 2.0, -3.0]
    thetas += [float(x) for x in rng.uniform(-6.0, 6.0, 30)]
    thetas += [float(x) for x in 10.0 ** rng.uniform(-14.0, 8.0, 30)]
    for theta in thetas:
        got, want = product_table(theta), _engine_product_table(theta)
        assert np.array_equal(got, want), theta
        assert got.tobytes() == want.tobytes(), theta   # signed zeros too


def test_product_table_keeps_theta_below_the_prune_tolerance():
    # the engine drops coefficients below PRUNE_TOL, so its V U loses the
    # -i theta scalar; the table keeps it, as the closed images keep theta
    theta = 1e-300
    assert _engine_product_table(theta)[2, 1, 9] == 0j
    assert product_table(theta)[2, 1, 9] == -1j * theta
    assert product_table(theta)[2, 1, 9] != 0


def test_solver_makes_no_engine_products(monkeypatch):
    cases = list(_planted_family(5))   # planting conjugates through the engine
    rng = np.random.default_rng(5)
    z = rng.uniform(-1.0, 1.0, 10) + 1j * rng.uniform(-1.0, 1.0, 10)
    z[0] = z[0].real
    cases.append((HamiltonianCoeffs(tuple(z)), 0.7))

    def forbidden(*args, **kwargs):
        raise AssertionError("a scalar or engine route was called")
    monkeypatch.setattr(algebra, "normal_order_product", forbidden)
    # the scalar image evaluator: every residual comes from the array rows
    monkeypatch.setattr(dyson, "_lam_functions", forbidden)
    for k, (coeffs, theta) in enumerate(cases):
        residual = solve_generic_numeric(coeffs, theta)[1]
        assert (residual <= CERT_TOL) == (k < 5)


def test_solver_residual_is_one_of_its_own_rows(monkeypatch):
    seen = set()
    real = models._conjugated_coeffs

    def recorded(cmat, theta, *maps):
        rows = real(cmat, theta, *maps)
        seen.update(models._max_abs(
            constraint_residuals(rows, theta)).tolist())
        return rows

    monkeypatch.setattr(models, "_conjugated_coeffs", recorded)
    cases = list(_planted_family(5))   # c1 generic, 0, 1e-9, 1e-12
    rng = np.random.default_rng(5)
    for c1 in (0.3 + 0.4j, 0.8, 0.0):   # uncertifiable, real, zero
        z = rng.uniform(-1.0, 1.0, 10) + 1j * rng.uniform(-1.0, 1.0, 10)
        z[0] = c1
        cases.append((HamiltonianCoeffs(tuple(z)), 0.7))
    for k, (coeffs, theta) in enumerate(cases):
        seen.clear()
        residual = solve_generic_numeric(coeffs, theta)[1]
        assert (residual <= CERT_TOL) == (k < 5)
        assert residual in seen, (k, residual)


def _planted(a, theta, lam, rho, tau):
    """H = eta^-1 h eta for the Hermitian h with alphas `a` and a real map.

    The betas of h are pinned from the alphas; the conjugation goes
    through the oracle route.
    """
    b = np.zeros(10)
    b[2], b[3], b[9] = a[5] / 2, -a[4] / 2, -theta * a[8] / 2
    h = build_general(HamiltonianCoeffs(tuple(a + 1j * b)), theta)
    ham = adjoint_poly(DysonParams(lam, rho, tau, theta).inverse(), h,
                       route="oracle")
    return extract_coeffs(ham)


def _planted_family(n):
    """Seeded inputs H = eta^-1 h eta with h Hermitian and a real map eta.

    |lam|, |rho|, |tau| <= 2, theta in [-3, 3]; theta = 0 on every tenth
    draw, lam ~ 1e-6 on every seventh, and c1 (which conjugation leaves
    alone) set to 0, 1e-9 or 1e-12 on three of every five draws.
    """
    rng = np.random.default_rng(2024)
    for k in range(n):
        theta = 0.0 if k % 10 == 0 else float(rng.uniform(-3.0, 3.0))
        a = rng.uniform(-1.0, 1.0, 10)
        a[0] = (a[0], 0.0, 1e-9, 1e-12, a[0])[k % 5]
        lam, rho, tau = (float(x) for x in rng.uniform(-2.0, 2.0, 3))
        if k % 7 == 0:
            lam *= 1e-6
        yield _planted(a, theta, lam, rho, tau), theta


# planted c1 = c5 = c6 = 0 inputs, (theta, alphas, (lam, rho, tau)), whose
# maps a search bracketing sign changes of single residuals missed (best
# residuals 0.54 and 2.47), and two that the local minima of an 801-point
# lam grid missed (best residuals 3.6e-5 and 6.4e-4)
_MISSED_BY_BRACKETS = [
    (-4.6, [0, 0, 1.35, 0.6, 0, 0, 1.15, 0.58, 1.63, -0.22],
     (1.66, -1.95, -0.23)),
    (-3.0, [0, 0.36, -1.0, 0.66, 0, 0, 0.29, 0.43, -0.76, -0.77],
     (1.14, -0.63, 1.93)),
    (-2.06, [0, 0.82, 0.38, 1.17, 0, 0, -1.03, -1.55, 0.09, -0.55],
     (0.85, 1.02, 1.38)),
    (-4.18, [0, 0.39, 0.57, -0.04, 0, 0, 0.34, -0.62, 0.21, -0.82],
     (1.85, 1.51, 1.15)),
]


def test_elimination_certifies_what_the_multistart_certifies():
    cases = list(_planted_family(200))
    cases += [(_planted(np.array(a, dtype=float), theta, *eta), theta)
              for theta, a, eta in _MISSED_BY_BRACKETS]
    certified = 0
    for coeffs, theta in cases:
        params, residual, _ = solve_generic_numeric(coeffs, theta)
        _, multi = solve_generic_multistart(coeffs, theta)
        assert residual <= CERT_TOL or multi > CERT_TOL, (coeffs, theta)
        if residual <= CERT_TOL:
            ham = build_general(coeffs, theta)
            conj = adjoint_poly(params, ham, route="oracle")
            assert hermiticity_residual(conj) <= 1e-8 * max(
                1.0, ham.max_abs_coeff())
        certified += residual <= CERT_TOL
    assert certified == 204   # every input is planted, so a map exists


def test_curve_roots_of_every_degree():
    # rows sampled from products over known roots, times (1 - t^2)^-2 as
    # along the curves; a zero row and a row that is no polynomial of
    # degree <= 8 in t add no root
    t = np.cos(models._ANGLES)
    noise = np.random.default_rng(4).standard_normal(len(t))
    for degree in range(1, 9):
        roots = 0.9 * np.cos(np.pi * (np.arange(degree) + 0.3) / degree)
        rows = np.stack([np.prod(t[:, None] - roots, axis=1), 0 * t, noise],
                        axis=1) / (1 - t * t)[:, None] ** 2
        lam, rho, tau = models._curve_maps(lambda x: (x, -x), rows)
        assert lam[0] == 0.0 and (rho == lam).all() and (tau == -lam).all()
        assert np.sort(np.tanh(lam[1:] / 2)) == pytest.approx(
            np.sort(roots), abs=1e-10)


def _hard_family(n):
    """Seeded planted inputs at the edges of the solver's range.

    theta = 0 on every eleventh draw, else in [-5, 5]; alphas in [-2, 2];
    c1 generic, 0, 1e-9, 1e-6, generic, generic by draw mod 6; c5 = c6 = 0
    on every thirteenth; maps in [-s, s]^3 with s = 0.5, 2, 4 by draw mod 3,
    and lam ~ 1e-6 on every seventh.
    """
    rng = np.random.default_rng(99)
    for k in range(n):
        theta = 0.0 if k % 11 == 0 else float(rng.uniform(-5.0, 5.0))
        a = rng.uniform(-2.0, 2.0, 10)
        a[0] = (a[0], 0.0, 1e-9, 1e-6, a[0], a[0])[k % 6]
        if k % 13 == 0:
            a[4] = a[5] = 0.0
        s = (0.5, 2.0, 4.0)[k % 3]
        lam, rho, tau = (float(x) for x in rng.uniform(-s, s, 3))
        if k % 7 == 0:
            lam *= 1e-6
        yield _planted(a, theta, lam, rho, tau), theta


def test_hard_family_certifies():
    # every input is planted; the few misses sit at the rounding floor of
    # CERT_TOL, which is absolute while the residuals grow with max |c|.
    # The returned row is the one the returned residual was taken on.
    certified = 0
    for coeffs, theta in _hard_family(1500):
        _, residual, h = solve_generic_numeric(coeffs, theta)
        assert residual == np.max(np.abs(constraint_residuals(h, theta)))
        certified += residual <= CERT_TOL
    assert certified >= 1492, certified


def test_elimination_never_calls_the_optimizers(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an optimizer was called")
    monkeypatch.setattr(models, "minimize", forbidden)
    monkeypatch.setattr(models, "least_squares", forbidden)
    for coeffs, theta in _planted_family(10):
        assert solve_generic_numeric(coeffs, theta)[1] <= CERT_TOL


def _counting_conjugated_coeffs(monkeypatch):
    calls = []
    real = models._conjugated_coeffs

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(models, "_conjugated_coeffs", counted)
    return calls


def test_uncertifiable_real_c1_solves_stay_cheap(monkeypatch):
    # random coefficients with real c1: both elimination curves are sampled
    # and the best three candidates polished, yet no map certifies
    calls = _counting_conjugated_coeffs(monkeypatch)
    rng = np.random.default_rng(7)
    worst = 0
    for _ in range(30):
        z = rng.uniform(-1.0, 1.0, 10) + 1j * rng.uniform(-1.0, 1.0, 10)
        z[0] = z[0].real
        theta = float(rng.uniform(0.2, 2.0))
        calls.clear()
        solve_generic_numeric(HamiltonianCoeffs(tuple(z)), theta)
        worst = max(worst, len(calls))
    assert worst <= 40, worst


def test_complex_c1_is_unresolved_after_one_evaluation(monkeypatch):
    # the J^2 residual is Im c1 for every map, so no search runs: the
    # identity map comes back with its own residual
    calls = _counting_conjugated_coeffs(monkeypatch)
    rng = np.random.default_rng(3)
    z = rng.uniform(-1.0, 1.0, 10) + 1j * rng.uniform(-1.0, 1.0, 10)
    values = {f"c{k + 1}": x.real for k, x in enumerate(z)}
    values.update({f"c{k + 1}_im": x.imag for k, x in enumerate(z)})
    cells = classify_points("general-coeffs", {
        k: np.array([v]) for k, v in {**values, "theta": 0.9}.items()})
    assert len(calls) == 1
    assert cells.mapped.tolist() == [True]
    assert (cells.lam.tolist(), cells.rho.tolist(), cells.tau.tolist(),
            cells.verdict) == ([0j], [0j], [0.0], ["Unresolved"])
    assert cells.margin2 is None
    assert cells.margin1[0] == CERT_TOL - np.max(np.abs(
        constraint_residuals(z, 0.9)))


def _counting_least_squares(monkeypatch):
    calls = []
    real = models.least_squares

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(models, "least_squares", counted)
    return calls


def test_solver_stops_at_first_certified_start(monkeypatch):
    rng = np.random.default_rng(8)
    theta = 1.3
    a = rng.uniform(-1.0, 1.0, 10)
    b = np.zeros(10)
    b[2], b[3], b[9] = a[5] / 2, -a[4] / 2, -theta * a[8] / 2
    h = build_general(HamiltonianCoeffs(tuple(a + 1j * b)), theta)
    planted = DysonParams(0.6, -0.4, 0.3, theta)
    ham = adjoint_poly(planted.inverse(), h, route="oracle")
    calls = _counting_least_squares(monkeypatch)
    params, residual = solve_generic_multistart(extract_coeffs(ham), theta)
    assert len(calls) == 1
    assert residual <= CERT_TOL
    assert hermiticity_residual(adjoint_poly(params, ham)) < 1e-8


def test_solver_generic_input_runs_every_start(monkeypatch):
    rng = np.random.default_rng(5)
    z = rng.uniform(-1.0, 1.0, 10) + 1j * rng.uniform(-1.0, 1.0, 10)
    calls = _counting_least_squares(monkeypatch)
    params, residual = solve_generic_multistart(HamiltonianCoeffs(tuple(z)),
                                                0.7)
    assert len(calls) == 16
    # best residual of the same 16 starts with every residual computed by
    # adjoint_poly; the finite-difference optimizers settle within ~1e-8
    # relative of each other when the residual differs only in rounding
    assert residual == pytest.approx(0.5877098164951151, rel=2e-8)


def _random_deformed_member(rng):
    m = rng.uniform(-2.0, 2.0, 9)
    m[0] = math.copysign(rng.uniform(0.2, 2.0), m[0])
    return Mu(*(float(x) for x in m)), float(rng.uniform(0.05, 6.0))


def _mu3_residual(mu, theta):
    def f(lam):
        return mu3_deformed(mu, lam, theta) - mu.mu3
    return f


# the scan of the independent route: both half-lines of |lam| <= 29 in
# steps of 0.1, so no bracket spans the pole at lam = 0
_SCAN = np.concatenate([np.linspace(-29.0, -0.1, 290),
                        np.linspace(0.1, 29.0, 290)])


def test_quintic_root_matches_dense_scan_and_brentq():
    # independent route: a scalar scan of mu3_deformed, and brentq on a
    # bracket around the root the quintic returns
    rng = np.random.default_rng(2718)
    found = missed = 0
    for _ in range(1000):
        mu, theta = _random_deformed_member(rng)
        f = _mu3_residual(mu, theta)
        vals = [f(x) for x in _SCAN]
        first = next((b for a, b, fa, fb in zip(_SCAN, _SCAN[1:], vals,
                                                 vals[1:])
                      if a * b > 0 and fa * fb <= 0), None)
        column = Mu(*(np.array([x]) for x in vars(mu).values()))
        (root,), (miss,) = models._deformed_mu3_roots(
            column, MuAbbrev.from_mu(column), np.array([theta]))
        root = None if math.isnan(root) else root
        if first is None:
            missed += root is None
            continue
        assert root is not None and miss == 0.0, (mu, theta)
        assert root <= first, (mu, theta)   # the most negative root
        d = 1e-6 * max(1.0, abs(root))
        assert f(root - d) * f(root + d) < 0, (mu, theta)
        want = brentq(f, root - d, root + d, xtol=1e-15)
        assert abs(root - want) <= 1e-12 * abs(want), (mu, theta)
        found += 1
    assert found >= 500 and missed >= 100, (found, missed)


# F changes sign at lam = 1.14986 and 1.19665, both inside one interval of a
# 400-point log grid over |lam| <= 30
_CLOSE_ROOT_PAIR = (
    Mu(0.9467007032827586, 0.555528331011125, 1.2853341188001872,
       1.4591265848707677, -1.6965758291313904, -1.327259729903413,
       1.7024403838168727, 1.953750945300472, -1.6180213122709293),
    5.392048540968697)


def test_close_root_pair_is_found():
    mu, theta = _CLOSE_ROOT_PAIR
    verdict = classify_region(mu, theta)
    assert verdict.margin2 == 1.0
    lam = verdict.lam.real
    assert lam == pytest.approx(1.14986, abs=1e-5)
    assert abs(_mu3_residual(mu, theta)(lam)) <= 1e-12


_DEGENERATE_MU3 = [
    # mu5 = mu6 and mu3 = mu4: F tends to 0 as lam -> +inf, with no root
    (Mu(1.0, 0.5, -1.0, -1.0, 0.5, 0.5, -0.5, 0.5, 0.25), BOUNDARY),
    # mu19 = mu23 = mu24 = mu68 = mu78 = 0: every lam solves
    (Mu(1.0, 0.0, -0.25, 0.0, 0.0, 0.5, 0.0, -0.0625, 0.0), SYMMETRIC),
]


@pytest.mark.parametrize("mu, phase", _DEGENERATE_MU3)
@pytest.mark.parametrize("theta", [0.25, 1.0, 2.5])
def test_degenerate_mu3_condition(mu, phase, theta):
    verdict = classify_region(mu, theta)
    assert verdict.phase == phase
    if phase == SYMMETRIC:
        assert _mu3_residual(mu, theta)(verdict.lam.real) == 0.0


@pytest.mark.parametrize("planted", [-29.0, -25.0, -12.0, -6.0, 6.0, 12.0,
                                     25.0])
def test_planted_far_root_passes_the_bench_rule(planted, monkeypatch):
    # t = tanh(lam/2) cannot resolve lam beyond about 15; the polish in lam
    # must meet the rule the benchmark applies to every printed lam
    monkeypatch.syspath_prepend(BENCH)
    from workloads import _mu3_root_error

    base = Mu(1.0, 0.3, 0.0, -0.7, 0.8, -0.4, 0.2, 0.5, 0.1)
    theta = 1.5
    mu = replace(base, mu3=mu3_deformed(base, planted, theta))
    verdict = classify_region(mu, theta)
    assert verdict.margin2 == 1.0
    assert _mu3_root_error(mu, verdict.lam.real, theta) is None


def _same_cells(a, b):
    """Cell tuples equal field by field: floats bit for bit (so -0.0 is not
    0.0), complex parts likewise, and NaN wherever the other has NaN."""
    def key(x):
        if isinstance(x, complex):
            return key(x.real), key(x.imag)
        if isinstance(x, float):
            return "nan" if math.isnan(x) else struct.pack("<d", x)
        return x
    return [key(x) for x in a] == [key(x) for x in b]


def _pow_traps(rng):
    """Members whose squares Python's pow and x * x round apart: mu5, mu6,
    and |mu5| + |mu6| (the quintic's noise term) alone."""
    def trap(ok):
        while True:
            x = float(rng.uniform(-2.0, 2.0))
            if ok(x):
                return x

    def split(x):
        return x ** 2 != x * x

    members = []
    for theta in (0.0, 0.7, 3.1):
        mu, _ = _random_deformed_member(rng)
        members.append((replace(mu, mu5=trap(split)), theta))
        members.append((replace(mu, mu6=trap(split)), theta))
        mu5 = trap(lambda x: not split(x))
        mu6 = trap(lambda x: not split(x) and split(abs(mu5) + abs(x)))
        members.append((replace(mu, mu5=mu5, mu6=mu6), theta))
    return members


def _q_factor(mu, s, ulps):
    """`mu` with mu7 and mu8 set so that mu78 = mu8 = s mu19 exactly, then
    mu8 moved `ulps` steps of its last bit up, inside the quintic's
    rounding noise."""
    mu = replace(mu, mu7=(mu.mu5 ** 2 + mu.mu6 ** 2) / (4 * mu.mu1))
    mu8 = s * MuAbbrev.from_mu(mu).mu19
    for _ in range(ulps):
        mu8 = math.nextafter(mu8, math.inf)
    return replace(mu, mu8=mu8)


def _factor_stratum(rng):
    """Deformed members whose quintic has exact factors t - s, k(s) of them
    for s = +-1 (see `pt5_reference.mu3_quintic`): mu6 = s mu5 puts two in
    L, mu3 = s mu4 on top makes mu23 = s mu24, mu78 = s mu19 puts one in Q,
    and mu6 = 0 with mu4 = -mu5/2 makes mu24 and R(0) zero."""
    members = []
    for _ in range(8):
        mu, theta = _random_deformed_member(rng)
        for s in (1.0, -1.0):
            on_l = replace(mu, mu6=s * mu.mu5)
            on_a = replace(on_l, mu3=s * on_l.mu4)
            members += [(m, theta) for m in (
                on_l, on_a, _q_factor(on_a, s, 0), _q_factor(mu, s, 0),
                _q_factor(mu, s, 2))]
        members.append((replace(mu, mu6=0.0, mu4=-mu.mu5 / 2), theta))
    return members


def _factor_classes(mu, theta):
    """The exact-factor classes of a deformed member's quintic by the
    reference route: ("k", s, k(s)) for each k(s) > 0, ("Q", s, exact) for
    a factor of Q alone, "R = 0" and "R(0) = 0"."""
    ab = MuAbbrev.from_mu(mu)
    r, e = pt5_reference.mu3_quintic(mu, ab, theta)
    classes = {"R = 0"} if not r else {"R(0) = 0"} if e[0] >= 0 else set()
    for s, k in zip((1.0, -1.0), (e[1] + 1, e[2] + 1)):
        if k:
            classes.add(("k", s, k))
        if k and mu.mu6 != s * mu.mu5:
            classes.add(("Q", s, ab.mu78 == s * ab.mu19))
    return classes


_SPLIT_SQUARES = (0.5102, 0.6352, 0.8329, 0.9477)


def _block_members(rng, model):
    """3,000 random members in three strata (deformed, theta = 0 and
    mu5 = mu6 = 0), with the exact-factor stratum and the degenerate,
    close-root, overflowing-ratio, pow-trap and split-square members,
    shuffled so every block mixes them; special members drop mu7 and
    mu9."""
    members = []
    for k in range(3000):
        mu, theta = _random_deformed_member(rng)
        if k % 3 == 1:
            theta = 0.0
        elif k % 3 == 2:
            mu = replace(mu, mu5=0.0, mu6=0.0)
        members.append((mu, theta))
    members += [(mu, theta) for mu, _ in _DEGENERATE_MU3
                for theta in (0.25, 1.0, 2.5)]
    members.append(_CLOSE_ROOT_PAIR)
    # a 0/0 special ratio: Boundary with a NaN margin
    members.append((Mu(mu1=1.0, mu4=1.0, mu5=-2.0), 0.0))
    # coth ratios mu23/mu24 and the special one past the float range
    members += [(Mu(mu1=1.0, mu3=1.0, mu4=1e-320), theta)
                for theta in (0.0, 1.0)]
    members += _pow_traps(rng) + _factor_stratum(rng)
    # mu5 and mu6 whose squares x ** 2 rounds below x * x (0.5102 ** 2 is
    # 0.26030403999999996, 0.5102 * 0.5102 is 0.26030404), mu5 = mu6 too;
    # mu8 = 0 keeps the last bit of mu6^2 in mu68, the special ratio's term
    members += [(Mu(1.0, 0.5, -4.0, -1.0, mu5, mu6, -0.5, 0.0, 0.25), theta)
                for mu5 in _SPLIT_SQUARES for mu6 in _SPLIT_SQUARES
                for theta in (0.0, 0.7, 3.1)]
    points = []
    for i in rng.permutation(len(members)):
        mu, theta = members[i]
        values = dict(vars(mu))
        if model == "pt5-special":
            del values["mu7"], values["mu9"]
        points.append({**values, "theta": theta})
    return points


@pytest.mark.parametrize("model", ["pt5-general", "pt5-special"])
def test_blocks_match_one_point_calls(model):
    # the blocks' column arithmetic and stacked eigvals against the scalar
    # reference route, point by point, and classify_region against it
    points = _block_members(np.random.default_rng(22), model)
    mode = "special" if model == "pt5-special" else "general"
    cells = []
    for i in range(0, len(points), models.BLOCK_POINTS):
        chunk = points[i:i + models.BLOCK_POINTS]
        cells += pt5_reference.rows(classify_points(model, {
            k: np.array([p[k] for p in chunk]) for k in chunk[0]}))
    assert len(cells) == len(points)
    phases, classes, factored = set(), set(), set()
    for i, (p, row) in enumerate(zip(points, cells)):
        assert _same_cells(row, pt5_reference.cells(model, p)), p
        mu = Mu(**{k: v for k, v in p.items() if k != "theta"})
        if model == "pt5-general" and p["theta"] != 0 and (
                mu.mu5 != 0 or mu.mu6 != 0):
            found = _factor_classes(mu, p["theta"])
            classes |= found
            if found:
                factored.add(i // models.BLOCK_POINTS)
        if model == "pt5-special":
            mu = with_special_choice(mu)
        verdict = classify_region(mu, p["theta"], mode=mode)
        assert _same_cells(
            (verdict.phase, verdict.witness, verdict.margin1,
             verdict.margin2, verdict.lam),
            pt5_reference.verdict(mode, mu, p["theta"])), p
        phases.add(verdict.phase)
    assert phases == {SYMMETRIC, BROKEN, BOUNDARY}
    if model == "pt5-general":
        assert classes == {"R = 0", "R(0) = 0"} | {
            ("k", s, k) for s in (1.0, -1.0) for k in (1, 2, 3)} | {
            ("Q", s, exact) for s in (1.0, -1.0) for exact in (True, False)}
        assert factored == set(range(-(-len(points) // models.BLOCK_POINTS)))


# golden-sweep member of classify_deformed_sweep.json at mu3 = -4 and 0
_SWEPT = Mu(1.0, 0.5, -4.0, -1.0, 0.5, 0.5, -0.5, 0.5, 0.25)


@pytest.mark.parametrize("mode, mu, theta, witness", [
    ("special", WORKED, 1.0, "|special coth ratio| = 0.5555555555555556"),
    ("special", Mu(mu1=1.0, mu4=1.0, mu5=-2.0), 0.0,
     "special coth ratio: zero denominator (lambda degenerates)"),
    ("general", Mu(1.0, 0.0, 1.0, 2.0, 0.0, 0.0, 0.5, 0.5, 2.0), 0.0,
     "violated: |mu78| >= |mu19|"),
    ("general", Mu(1.0, 0.0, 1.0, 2.0, 0.0, 0.0, 2.0, 0.5, 0.5), 0.0,
     "violated: |mu23| >= |mu24|"),
    ("general", Mu(1.0, 0.0, 3.0, 2.0, 0.0, 0.0, 1.5, 0.5, 1.0), 0.0,
     "first ratio at 1"),
    ("general", Mu(1.0, 0.0, 2.0, 2.0, 0.0, 0.0, 2.0, 0.5, 0.5), 0.0,
     "second ratio at 1"),
    ("general", _SWEPT, 1.0, "both conditions hold"),
    ("general", replace(_SWEPT, mu3=0.0), 1.0,
     "violated: real lambda for mu3 condition"),
    ("general", _DEGENERATE_MU3[0][0], 1.0, "mu3 condition grazes zero"),
], ids=["special-ratio", "zero-denominator", "first-ratio", "second-ratio",
        "first-at-1", "second-at-1", "mu3-root", "no-mu3-root", "graze"])
def test_witness_names_the_deciding_branch(mode, mu, theta, witness):
    verdict = classify_region(mu, theta, mode=mode)
    assert verdict.witness == witness
    if mu is _SWEPT:   # decided by the quintic's root
        assert verdict.margin2 == 1.0 and verdict.lam.imag == 0.0
    assert verdict.witness == pt5_reference.verdict(mode, mu, theta)[1]
