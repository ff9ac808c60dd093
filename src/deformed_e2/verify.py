"""Self-check registry for the identities the package rests on.

`CHECKS` is a flat, ordered registry of deterministic checks with fixed
seeds in six suites (algebra, adjoint, constraints, pt5, toy, spectral),
run sequentially so a failure report is reproducible run to run.  The CLI
renders ``run_suites`` results as text or JSON; pytest runs each check.

A fault-injection hook (``fault="adjoint-theta"``) perturbs theta by 1e-3
in the parameters handed to the closed-form adjoint route only.  That must
make the "adjoint closed-form vs oracle" check fail, which proves the
dual-route comparison actually distinguishes the routes instead of
comparing a formula with itself.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .algebra import (
    OperatorPoly,
    PTKind,
    commutator,
    dagger,
    hermiticity_residual,
    max_coeff_diff,
    normal_order_product,
    pt_algebra_consistent,
    pt_invariance_check,
)
from .dyson import DysonParams, adjoint_generator_closed, adjoint_generator_oracle, adjoint_poly
from .models import (
    BOUNDARY,
    BROKEN,
    CERT_TOL,
    SYMMETRIC,
    HamiltonianCoeffs,
    Mu,
    build_general,
    build_pt5,
    classify_region,
    constraint_residuals,
    extract_coeffs,
    find_exceptional_point,
    hermitian_counterpart_pt5,
    mu3_deformed,
    solve_generic_multistart,
    solve_generic_numeric,
    solve_pt5_special,
    solve_pt5_undeformed,
    special_mu7,
    special_mu9,
    toy_dyson_params,
    toy_model,
    toy_mu,
    toy_spectrum,
    with_special_choice,
)
from .representations import (
    ALL_REAL,
    CONJUGATE_PAIRS,
    commutator_fidelity,
    diagonalize_classify,
    eig,
    enlarged_representation,
    eta_matrix,
    generator_matrices,
    isospectral_check,
    make_representation,
    poly_to_matrix,
    real_gauge,
    truncation_report,
    truncations,
)

FAULT_ADJOINT_THETA = "adjoint-theta"
KNOWN_FAULTS = (FAULT_ADJOINT_THETA,)


# one registry entry: run(fault) returns (passed, detail)
Check = namedtuple("Check", "suite name run")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""


CHECKS = []


def _register(suite, name):
    def add(fn):
        CHECKS.append(Check(suite, name, fn))
        return fn
    return add


def _random_poly(rng, theta, nterms=4, max_deg=2):
    terms = {}
    for _ in range(nterms):
        a, b, c = (int(rng.integers(0, max_deg + 1)) for _ in range(3))
        w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        terms[(a, b, c)] = terms.get((a, b, c), 0) + w
    return OperatorPoly(terms, theta)


@_register("algebra", "defining relations")
def _defining_relations(fault):
    worst = 0.0
    for theta in (0.0, 1.0, -0.7, 12.0):
        u = OperatorPoly.generator("U", theta)
        v = OperatorPoly.generator("V", theta)
        j = OperatorPoly.generator("J", theta)
        worst = max(
            worst,
            max_coeff_diff(commutator(u, j), 1j * v),
            max_coeff_diff(commutator(v, j), -1j * u),
            max_coeff_diff(commutator(u, v),
                           1j * theta * OperatorPoly.identity(theta)),
        )
    return worst == 0.0, f"worst deviation {worst:.3e}"


@_register("algebra", "product associativity")
def _product_associativity(fault):
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(25):
        p = _random_poly(rng, 0.6)
        q = _random_poly(rng, 0.6)
        r = _random_poly(rng, 0.6)
        lhs = normal_order_product(normal_order_product(p, q), r)
        rhs = normal_order_product(p, normal_order_product(q, r))
        worst = max(worst, max_coeff_diff(lhs, rhs))
    return worst < 1e-10, f"worst deviation {worst:.3e} over 25 draws"


@_register("algebra", "dagger involution and antihomomorphism")
def _dagger_laws(fault):
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(25):
        p = _random_poly(rng, 1.3)
        q = _random_poly(rng, 1.3)
        worst = max(
            worst,
            max_coeff_diff(dagger(dagger(p)), p),
            max_coeff_diff(dagger(normal_order_product(p, q)),
                           normal_order_product(dagger(q), dagger(p))),
        )
    return worst < 1e-10, f"worst deviation {worst:.3e}"


@_register("algebra", "UV - i theta/2 is hermitian")
def _uv_hermitian(fault):
    theta = 0.8
    u = OperatorPoly.generator("U", theta)
    v = OperatorPoly.generator("V", theta)
    comb = normal_order_product(u, v) - 0.5j * theta * OperatorPoly.identity(theta)
    res = max_coeff_diff(comb, dagger(comb))
    return res == 0.0, f"self-adjointness deviation {res:.3e}"


@_register("algebra", "PT maps vs the deformed bracket")
def _pt_maps(fault):
    notes = []
    for kind in (PTKind.PT3, PTKind.PT4, PTKind.PT5):
        for theta in (0.0, 1.0, 5.0):
            if not pt_algebra_consistent(kind, theta):
                notes.append(f"{kind.name} fails at theta={theta}")
    for kind in (PTKind.PT1, PTKind.PT2):
        if not pt_algebra_consistent(kind, 0.0):
            notes.append(f"{kind.name} fails at theta=0")
        if pt_algebra_consistent(kind, 1.0):
            notes.append(f"{kind.name} unexpectedly survives theta=1")
    return not notes, ("; ".join(notes) or
                       "PT3/PT4/PT5 consistent at every theta, "
                       "PT1/PT2 only at theta=0")


@_register("algebra", "PT5 coefficient pattern")
def _pt5_pattern(fault):
    rng = np.random.default_rng(103)
    notes = []
    for _ in range(10):
        mu = Mu(*rng.uniform(-2, 2, 9))
        theta = float(rng.uniform(0.1, 3))
        ham = build_pt5(mu, theta)
        if not pt_invariance_check(PTKind.PT5, ham):
            notes.append(f"PT5 pattern violated for {mu}")
        bad = ham + 1j * OperatorPoly.generator("U", theta)
        if pt_invariance_check(PTKind.PT5, bad):
            notes.append("imaginary U term escaped the PT5 check")
    return not notes, ("; ".join(notes) or "10 random family members "
                       "invariant, perturbed ones rejected")


@_register("adjoint", "adjoint closed-form vs oracle")
def _closed_vs_oracle(fault):
    theta_fault = 1e-3 if fault == FAULT_ADJOINT_THETA else 0.0
    rng = np.random.default_rng(2024)
    worst = 0.0
    worst_at = None
    for i in range(300):
        lam, rho, tau, theta = rng.uniform(-2, 2, 4)
        params = DysonParams(float(lam), float(rho), float(tau), float(theta))
        closed_params = replace(params, theta=params.theta + theta_fault)
        for g in ("U", "V", "J"):
            d = adjoint_generator_closed(closed_params, g).max_diff(
                adjoint_generator_oracle(params, g))
            if d > worst:
                worst, worst_at = d, (i, g, params)
    detail = f"worst |closed - oracle| {worst:.3e} over 300 draws"
    if worst >= 1e-12 and worst_at is not None:
        i, g, params = worst_at
        detail += (f"; offending draw {i}, generator {g}, lam={params.lam!r},"
                   f" rho={params.rho!r}, tau={params.tau!r},"
                   f" theta={params.theta!r}")
        if theta_fault:
            detail += f" (fault injection active: theta_fault={theta_fault})"
    return worst < 1e-12, detail


@_register("adjoint", "series branch continuity at the cutoff")
def _series_continuity(fault):
    worst = 0.0
    for lam in (9.9e-5, 1e-4, 1.0001e-4, -9.9e-5, -1.0001e-4):
        params = DysonParams(lam, 0.4, -0.3, 0.7)
        for g in ("U", "V", "J"):
            worst = max(worst,
                        adjoint_generator_closed(params, g).max_diff(
                            adjoint_generator_oracle(params, g)))
    return worst < 1e-12, f"worst deviation {worst:.3e}"


@_register("adjoint", "theta = 0 reduction to undeformed formulas")
def _undeformed_reduction(fault):
    rng = np.random.default_rng(2025)
    worst = 0.0
    for _ in range(100):
        lam, rho, tau = rng.uniform(-2, 2, 3)
        params = DysonParams(float(lam), float(rho), float(tau), 0.0)
        ch, sh = math.cosh(lam), math.sinh(lam)
        expected = {
            "U": (0.0, ch, -1j * sh, 0.0),
            "V": (0.0, 1j * sh, ch, 0.0),
            "J": (0.0,
                  -1j * tau * sh / lam + rho * (1 - ch) / lam,
                  1j * rho * sh / lam + tau * (1 - ch) / lam,
                  1.0),
        }
        for g in ("U", "V", "J"):
            img = adjoint_generator_closed(params, g)
            s0, su, sv, sj = expected[g]
            worst = max(worst, abs(img.s0 - s0), abs(img.sU - su),
                        abs(img.sV - sv), abs(img.sJ - sj))
    return worst < 1e-13, f"worst deviation {worst:.3e}"


@_register("adjoint", "homomorphism and inverse round trip")
def _homomorphism(fault):
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(15):
        lam, rho, tau = rng.uniform(-1.5, 1.5, 3)
        theta = float(rng.uniform(-1, 1))
        params = DysonParams(float(lam), float(rho), float(tau), theta)
        p = _random_poly(rng, theta)
        q = _random_poly(rng, theta)
        worst = max(
            worst,
            max_coeff_diff(adjoint_poly(params, normal_order_product(p, q)),
                           normal_order_product(adjoint_poly(params, p),
                                                adjoint_poly(params, q))),
            max_coeff_diff(adjoint_poly(params.inverse(),
                                        adjoint_poly(params, p)), p),
        )
    return worst < 1e-9, f"worst deviation {worst:.3e}"


@_register("adjoint", "images satisfy the deformed relations")
def _image_relations(fault):
    rng = np.random.default_rng(2027)
    worst = 0.0
    for _ in range(20):
        lam, rho, tau = rng.uniform(-1.5, 1.5, 3)
        theta = float(rng.uniform(-2, 2))
        params = DysonParams(float(lam), float(rho), float(tau), theta)
        iu = adjoint_poly(params, OperatorPoly.generator("U", theta))
        iv = adjoint_poly(params, OperatorPoly.generator("V", theta))
        ij = adjoint_poly(params, OperatorPoly.generator("J", theta))
        worst = max(
            worst,
            max_coeff_diff(commutator(iu, ij), 1j * iv),
            max_coeff_diff(commutator(iv, ij), -1j * iu),
            max_coeff_diff(commutator(iu, iv),
                           1j * theta * OperatorPoly.identity(theta)),
        )
    return worst < 1e-12, f"worst deviation {worst:.3e}"


@_register("constraints", "residuals vanish iff the polynomial is self-adjoint")
def _residuals_vs_dagger(fault):
    rng = np.random.default_rng(7)
    agree = True
    worst_herm = 0.0
    for _ in range(300):
        theta = float(rng.uniform(-2, 2))
        c = HamiltonianCoeffs(tuple(
            complex(x, y) for x, y in rng.uniform(-1, 1, (10, 2))))
        p = build_general(c, theta)
        res = float(np.max(np.abs(constraint_residuals(extract_coeffs(p),
                                                       theta))))
        direct = max_coeff_diff(p, dagger(p))
        if (res < 1e-12) != (direct < 1e-12):
            agree = False
        # hermitian projection: average with the dagger, then both vanish
        h = 0.5 * (p + dagger(p))
        hres = constraint_residuals(extract_coeffs(h), theta)
        worst_herm = max(worst_herm, float(np.max(np.abs(hres))),
                         max_coeff_diff(h, dagger(h)))
    return (agree and worst_herm < 1e-12,
            f"both criteria agreed on 300 draws; worst residual "
            f"on hermitian projections {worst_herm:.3e}")


@_register("constraints", "worked residual patterns")
def _residual_patterns(fault):
    theta = 1.7
    c = [0.0] * 10
    c[8] = 0.9            # real UV coefficient couples into the scalar
    c[9] = -1j * theta * 0.9 / 2
    res = constraint_residuals(HamiltonianCoeffs(tuple(c)), theta)
    ok1 = float(np.max(np.abs(res))) == 0.0
    c2 = [0.0] * 10
    c2[2] = 1j
    res2 = constraint_residuals(HamiltonianCoeffs(tuple(c2)), 0.0)
    ok2 = abs(res2[2] - 1.0) < 1e-15 and np.count_nonzero(res2) == 1
    return (ok1 and ok2,
            f"c9/c10 coupling residual {float(np.max(np.abs(res))):.3e}; "
            f"imaginary c3 residual vector {res2.tolist()}")


@_register("constraints", "coefficient round trip")
def _coefficient_round_trip(fault):
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(50):
        theta = float(rng.uniform(-2, 2))
        c = HamiltonianCoeffs(tuple(
            complex(x, y) for x, y in rng.uniform(-1, 1, (10, 2))))
        back = extract_coeffs(build_general(c, theta))
        worst = max(worst, max(abs(a - b) for a, b in zip(c.c, back.c)))
    return worst == 0.0, f"worst round-trip deviation {worst:.3e}"


@_register("constraints", "elimination solve vs multistart")
def _elimination_vs_multistart(fault):
    # planted: eta^-1 h eta for a Hermitian h and a real map, one with
    # c1 = 0; generic: random complex coefficients, which no map certifies
    rng = np.random.default_rng(11)
    agree, certified, worst, drift = True, 0, 0.0, 0.0
    for k in range(6):
        theta = float(rng.uniform(-2, 2))
        if k < 4:
            a = rng.uniform(-1, 1, 10)
            a[0] = 0.0 if k == 3 else a[0]
            b = np.zeros(10)
            b[2], b[3], b[9] = a[5] / 2, -a[4] / 2, -theta * a[8] / 2
            h = build_general(HamiltonianCoeffs(tuple(a + 1j * b)), theta)
            eta = DysonParams(*(float(x) for x in rng.uniform(-1.5, 1.5, 3)),
                              theta)
            coeffs = extract_coeffs(adjoint_poly(eta.inverse(), h,
                                                 route="oracle"))
        else:
            coeffs = HamiltonianCoeffs(tuple(
                complex(x, y) for x, y in rng.uniform(-1, 1, (10, 2))))
        params, residual, h = solve_generic_numeric(coeffs, theta)
        multi = solve_generic_multistart(coeffs, theta)[1]
        agree = agree and (residual <= CERT_TOL) == (multi <= CERT_TOL)
        if residual <= CERT_TOL:
            certified += 1
            ham = build_general(coeffs, theta)
            conj = adjoint_poly(params, ham, route="oracle")
            scale = max(1.0, ham.max_abs_coeff())
            worst = max(worst, hermiticity_residual(conj) / scale)
            # the row the solver certified against the oracle's conjugation
            drift = max(drift, np.max(np.abs(
                np.subtract(h.c, extract_coeffs(conj).c))) / scale)
    return (agree and certified == 4 and worst <= 1e-8 and drift <= 1e-10,
            f"routes agree on {'all' if agree else 'not all'} 6 inputs, "
            f"{certified} of 4 planted certified; worst relative oracle "
            f"Hermiticity residual {worst:.3e}, solver row vs oracle "
            f"conjugation {drift:.3e}")


_WORKED_MU = with_special_choice(Mu(mu1=1.0, mu2=0.0, mu3=1.0, mu4=2.0,
                                    mu5=1.0, mu6=1.0, mu8=0.0))


@_register("pt5", "worked special-mode classification")
def _worked_special(fault):
    v12 = classify_region(_WORKED_MU, 12.0, mode="special")
    v8 = classify_region(_WORKED_MU, 8.0, mode="special")
    v0 = classify_region(_WORKED_MU, 0.0, mode="special")
    p12 = solve_pt5_special(_WORKED_MU, 12.0)
    lam_ok = (abs(p12.lam - 0.5 * math.log(2)) < 1e-12
              and abs(p12.rho + 0.5 * math.log(2)) < 1e-12)
    ok = (v12.phase == SYMMETRIC and v8.phase == BOUNDARY
          and v0.phase == BROKEN and lam_ok)
    return ok, (f"theta=12: {v12.phase}, theta=8: {v8.phase}, "
                f"theta=0: {v0.phase}; lam={p12.lam!r}, rho={p12.rho!r}")


@_register("pt5", "special-choice coefficient values")
def _special_values(fault):
    ok = (abs(special_mu7(_WORKED_MU) - 0.5) < 1e-15
          and abs(special_mu9(_WORKED_MU) - 0.5) < 1e-15)
    return ok, (f"mu7={special_mu7(_WORKED_MU)!r}, "
                f"mu9={special_mu9(_WORKED_MU)!r}")


@_register("pt5", "deformed mu3 condition vs general-mode root")
def _deformed_mu3(fault):
    lam = 0.5 * math.log(2)
    m3 = mu3_deformed(_WORKED_MU, lam, 12.0)
    gen = classify_region(_WORKED_MU, 12.0, mode="general")
    ok = (abs(m3 - 1.0) < 1e-12 and gen.phase == SYMMETRIC
          and gen.lam is not None and abs(gen.lam - lam) < 1e-9)
    return ok, f"mu3(lam)={m3!r}, general-mode lam={gen.lam!r}"


@_register("pt5", "closed-form counterpart vs engine conjugation")
def _counterpart_vs_engine(fault):
    rng = np.random.default_rng(11)
    worst_herm = 0.0
    worst_match = 0.0
    done = 0
    while done < 40:
        mu = Mu(mu1=float(rng.uniform(0.5, 2.0)),
                mu2=float(rng.uniform(-1, 1)),
                mu3=float(rng.uniform(-2, 2)),
                mu4=float(rng.uniform(-2, 2)),
                mu5=float(rng.uniform(-1, 1)),
                mu6=float(rng.uniform(-1, 1)),
                mu8=float(rng.uniform(-1, 1)))
        mu = with_special_choice(mu)
        theta = float(rng.uniform(-1.5, 1.5))
        try:
            params = solve_pt5_special(mu, theta)
        except ZeroDivisionError:
            continue
        if not params.is_real:
            continue
        done += 1
        ham = build_pt5(mu, theta)
        conj = adjoint_poly(DysonParams(params.lam.real, params.rho.real,
                                        0.0, theta), ham)
        worst_herm = max(worst_herm, max_coeff_diff(conj, dagger(conj)))
        closed = hermitian_counterpart_pt5(mu, theta)
        worst_match = max(worst_match, max_coeff_diff(conj, closed))
    return (worst_herm < 1e-10 and worst_match < 1e-10,
            f"worst hermiticity {worst_herm:.3e}, worst coefficient "
            f"mismatch {worst_match:.3e} over 40 admissible draws")


@_register("pt5", "exceptional points: invariant vs deformed")
def _exceptional_points(fault):
    eps = [find_exceptional_point(
        lambda t: (Mu(mu1=1.0, mu3=float(t), mu4=1.0), theta),
        (0.5, 2.0))[0] for theta in (0.0, 1.0, 5.0)]
    spread = max(eps) - min(eps)
    ep_theta, _, _ = find_exceptional_point(
        lambda t: (_WORKED_MU, float(t)), (0.0, 16.0), mode="special",
        tol=1e-7)
    ok = spread < 1e-9 and abs(ep_theta - 8.0) < 1e-6
    return ok, (f"first-family EPs {eps} (spread {spread:.3e}); "
                f"worked-family theta EP {ep_theta!r}")


@_register("pt5", "undeformed solver branch behaviour")
def _undeformed_branches(fault):
    mu_b = Mu(mu1=1.0, mu3=2.0, mu4=1.0)
    pb, rb = solve_pt5_undeformed(mu_b)   # coth lam = mu23/mu24 = 2
    mu_c = Mu(mu1=1.0, mu3=0.5, mu4=1.0)
    pc, rc = solve_pt5_undeformed(mu_c)   # ratio 0.5, broken branch
    ok = (abs(pb.lam - 0.5 * math.log(3)) < 1e-12
          and abs(pc.lam.imag - math.pi / 2) < 1e-12
          and pb.is_real and not pc.is_real)
    return ok, (f"ratio 2 -> lam={pb.lam!r} (residual {rb:.3e}); "
                f"ratio 0.5 -> lam={pc.lam!r}")


@_register("toy", "toy family hermitizes exactly")
def _toy_hermitizes(fault):
    worst = 0.0
    for theta in (0.0, 0.7):
        for lam in (0.3, 1.0, math.log(3), 2.5):
            mu = toy_mu(1.2, 0.8, lam)
            conj = adjoint_poly(toy_dyson_params(1.2, 0.8, lam, theta),
                                build_pt5(mu, theta))
            worst = max(worst, max_coeff_diff(conj, dagger(conj)))
    return worst < 1e-10, (f"worst hermiticity {worst:.3e} over a lambda "
                           f"grid at theta = 0 and 0.7")


@_register("toy", "worked toy numbers and scalar arbitration")
def _toy_numbers(fault):
    theta = 0.1
    lam = math.log(3)
    h, eps, shift = toy_model(1.0, 1.0, mu3=2.0, theta=theta)
    mu = toy_mu(1.0, 1.0, lam)
    conj = adjoint_poly(toy_dyson_params(1.0, 1.0, lam, theta),
                        build_pt5(mu, theta))
    engine_const = conj.coeff(0, 0, 0)
    # independently derived scalar: -(theta mu4^2/mu1) coth(lam/2)
    # + eps^2/(4 mu1); the stated closed form replaces eps^2/(4 mu1) by
    # eps^2 sinh^2(lam/2) and is carried verbatim by toy_model
    derived = (-theta * 1.0 / math.tanh(lam / 2)
               + eps ** 2 / 4.0)
    ok = (abs(eps - 0.3) < 1e-13
          and abs(engine_const - derived) < 1e-12
          and abs(shift - (-0.17)) < 1e-13
          and abs(h.coeff(0, 0, 2) - 1.0) < 1e-15
          and abs(h.coeff(0, 0, 1) - eps) < 1e-15)
    return ok, (f"eps={eps!r}; engine scalar {engine_const!r} matches "
                f"derived {derived!r}; stated shift {shift!r} "
                f"(documented discrepancy, see README)")


@_register("toy", "spectrum conventions related by n -> 2 pi n")
def _toy_conventions(fault):
    worst = 0.0
    for n in range(-3, 4):
        worst = max(worst, abs(toy_spectrum(1.0, 0.3, n, "paper")
                               - toy_spectrum(1.0, 0.3, 2 * math.pi * n,
                                              "oracle")))
    oracle_vals = [toy_spectrum(1.0, 0.3, n) for n in range(-3, 4)]
    expect = [n * n - 0.3 * n for n in range(-3, 4)]
    worst2 = max(abs(a - b) for a, b in zip(oracle_vals, expect))
    return (worst < 1e-12 and worst2 == 0.0,
            f"worst convention deviation {worst:.3e}")


@_register("toy", "circle diagonalization of the toy counterpart")
def _toy_circle(fault):
    rep = make_representation("circle", 0.1, 6)
    hmat = poly_to_matrix(OperatorPoly({(0, 0, 2): 1.0, (0, 0, 1): 0.3}, 0.1),
                          rep)
    got = sorted(np.linalg.eigvalsh(hmat).tolist())
    want = sorted(1.0 * m * m + 0.3 * m for m in range(-6, 7))
    worst = max(abs(a - b) for a, b in zip(got, want))
    return worst < 1e-12, f"worst eigenvalue deviation {worst:.3e}"


@_register("spectral", "generator matrices: hermitian, interior relations hold")
def _generator_matrices(fault):
    fock = make_representation("fock", 1.0, 24)
    ffid = commutator_fidelity(fock)
    planar = make_representation("planar", 0.5, (12, 12))
    pfid = commutator_fidelity(planar)
    herm = max(float(np.max(np.abs(m - m.conj().T)))
               for m in generator_matrices(fock) + generator_matrices(planar))
    worst = max(max(ffid.values()), max(pfid.values()))
    return (worst < 1e-10 and herm == 0.0,
            f"worst interior fidelity {worst:.3e}, "
            f"worst non-hermiticity {herm:.3e}")


@_register("spectral", "angular-momentum sign convention")
def _sign_convention(fault):
    planar = make_representation("planar", 0.5, (12, 12))
    psi = np.zeros(planar.size, dtype=complex)
    psi[1 * 12 + 0] = 1 / math.sqrt(2)       # |1, 0>
    psi[0 * 12 + 1] = 1j / math.sqrt(2)      # i |0, 1>
    jexp = float((psi.conj() @ generator_matrices(planar)[2] @ psi).real)
    jdiag = make_representation("circle", 0.3, 5).factors[0].real
    ok = abs(jexp + 1.0) < 1e-12 and np.array_equal(jdiag, np.arange(-5, 6))
    return ok, (f"planar <J> on the p_+ state = {jexp!r} "
                f"(convention: J acts as -m on e^(i m phi))")


@_register("spectral", "phase concordance in the fock representation")
def _fock_concordance(fault):
    rep = make_representation("fock", 1.0, 60)
    h_real = OperatorPoly({(0, 0, 2): 1.0, (1, 0, 0): 2.0, (0, 1, 0): 1j},
                          1.0)
    h_pair = OperatorPoly({(0, 0, 2): 1.0, (1, 0, 0): 1.0, (0, 1, 0): 2j},
                          1.0)
    ra = diagonalize_classify(h_real, rep, delta=15)
    rb = diagonalize_classify(h_pair, rep, delta=15)
    ok = ra.verdict == ALL_REAL and rb.verdict == CONJUGATE_PAIRS and rb.pairs >= 1
    return ok, (f"(2, 1): {ra.verdict} ({len(ra.converged)} converged); "
                f"(1, 2): {rb.verdict}, pairs={rb.pairs}")


@_register("spectral", "matrix-level dyson conjugation")
def _matrix_conjugation(fault):
    # truncating eta contaminates its tail rows, so the conjugated matrix is
    # compared on a leading block well inside the truncation (32 of 48)
    rng = np.random.default_rng(5)
    rep = make_representation("fock", 1.0, 48)
    block = 32
    worst_asym = 0.0
    worst_conj = 0.0
    pd_ok = True
    done = 0
    while done < 3:
        mu = with_special_choice(Mu(
            mu1=float(rng.uniform(0.8, 1.5)), mu2=float(rng.uniform(-0.5, 0.5)),
            mu3=float(rng.uniform(-1.5, 1.5)), mu4=float(rng.uniform(-1.5, 1.5)),
            mu5=float(rng.uniform(-0.5, 0.5)), mu6=float(rng.uniform(-0.5, 0.5)),
            mu8=float(rng.uniform(-0.5, 0.5))))
        try:
            params = solve_pt5_special(mu, 1.0)
        except ZeroDivisionError:
            continue
        if not params.is_real or abs(params.lam) > 1.5 or abs(params.rho) > 1.5:
            continue
        done += 1
        real = DysonParams(params.lam.real, params.rho.real, 0.0, 1.0)
        eta = eta_matrix(real, rep)
        scale = float(np.max(np.abs(eta)))
        worst_asym = max(worst_asym,
                         float(np.max(np.abs(eta - eta.conj().T))) / scale)
        if float(np.min(np.linalg.eigvalsh(0.5 * (eta + eta.conj().T)))) <= 0:
            pd_ok = False
        hm = poly_to_matrix(build_pt5(mu, 1.0), rep)
        hh = poly_to_matrix(hermitian_counterpart_pt5(mu, 1.0), rep)
        lhs = (eta @ hm @ np.linalg.inv(eta))[:block, :block]
        rhs = hh[:block, :block]
        worst_conj = max(worst_conj,
                         float(np.max(np.abs(lhs - rhs)))
                         / max(1.0, float(np.max(np.abs(rhs)))))
    ok = pd_ok and worst_asym < 1e-10 and worst_conj < 1e-6
    return ok, (f"worst relative asymmetry {worst_asym:.3e}, worst "
                f"relative conjugation deviation {worst_conj:.3e} on "
                f"the leading {block}x{block} block, "
                f"positive-definite: {pd_ok}")


@_register("spectral", "isospectrality at the worked point")
def _isospectrality(fault):
    rep = make_representation("fock", 12.0, 80)
    ham = build_pt5(_WORKED_MU, 12.0)
    hh = hermitian_counterpart_pt5(_WORKED_MU, 12.0)
    iso = isospectral_check(ham, hh, rep, delta=20)
    ok = iso.passed and iso.n_matched >= 40
    return ok, (f"matched {iso.n_matched}, worst relative mismatch "
                f"{iso.max_mismatch:.3e}, verdicts "
                f"({iso.verdict_h}, {iso.verdict_hh})")


def _one_by_one(solve, q, rep):
    """solve(matrix, rep) on the matrix of q, a stack of fock sectors
    taken one sector at a time, each built on its own representation."""
    if np.ndim(rep.j0) == 0:
        return solve(poly_to_matrix(q, rep), rep)
    sectors = (make_representation("fock", rep.theta, rep.size, j0=j)
               for j in rep.j0)
    return np.array([solve(poly_to_matrix(q, r), r) for r in sectors])


@_register("spectral", "real-gauge eig vs complex eig")
def _real_gauge_route(fault):
    # the worked member on fock and a pt5-general member with conjugate
    # pairs in the Casimir sectors of planar 10: the real route of
    # `diagonalize_classify`, one stacked eig per truncation, against the
    # same truncations diagonalized as complex matrices, sector by sector.
    # Fock 60: at 80 levels the worked H is so far from normal that its
    # converged eigenvalues move by up to 2e-7 with the rounding of eig
    cases = ((build_pt5(_WORKED_MU, 12.0),
              make_representation("fock", 12.0, 60), 15),
             (build_pt5(Mu(mu1=1.0, mu3=1.0, mu4=2.0), 2.0),
              make_representation("planar", 2.0, (10, 10)), None))
    same = True
    worst = 0.0
    summary = []
    for p, rep, delta in cases:
        q, *reps = truncations(p, rep, delta)
        real = all(real_gauge(poly_to_matrix(q, r), r).dtype == np.float64
                   for r in reps)
        got = diagonalize_classify(p, rep, delta)
        want = truncation_report(*(_one_by_one(lambda m, r: eig(m), q, r)
                                   for r in reps))
        same = (same and real and got.flags == want.flags
                and (got.verdict, got.pairs) == (want.verdict, want.pairs))
        for a, b in zip(got.converged, want.converged):
            worst = max(worst, abs(a - b) / abs(b))
        summary.append(f"{rep.kind}: {got.verdict}, pairs={got.pairs}, "
                       f"{len(got.converged)} converged")
    return same and worst < 1e-10, (
        f"{'; '.join(summary)}; real matrices, same flags and verdicts: "
        f"{same}, worst relative converged deviation {worst:.3e}")


@_register("spectral", "Hermitian route vs eig route")
def _hermitian_route(fault):
    # two Hermitian counterparts h, which `diagonalize_classify` hands to
    # eigvalsh, against eig of the same real-gauged truncations: the
    # worked member on fock and a member in the Casimir sectors of planar
    # 10, one stacked eigvalsh per truncation against eig sector by
    # sector.  Control: h + 0.1i J is not its own adjoint, takes eig, and
    # keeps the eig route's eigenvalues exactly
    hh = hermitian_counterpart_pt5(_WORKED_MU, 12.0)
    fock = make_representation("fock", 12.0, 60)
    cases = ((hh, fock, 15),
             (hermitian_counterpart_pt5(with_special_choice(
                 Mu(mu1=1.0, mu3=2.0, mu4=1.0)), 2.0),
              make_representation("planar", 2.0, (10, 10)), None))
    same = True
    worst = 0.0
    summary = []
    for p, rep, delta in cases:
        q, *reps = truncations(p, rep, delta)
        got = diagonalize_classify(p, rep, delta)
        want = truncation_report(*(
            _one_by_one(lambda m, r: eig(real_gauge(m, r)), q, r)
            for r in reps))
        same = (same and p == dagger(p) and got.flags == want.flags
                and (got.verdict, got.pairs) == (want.verdict, want.pairs))
        for a, b in zip(got.converged, want.converged):
            worst = max(worst, abs(a - b) / abs(b))
        summary.append(f"{rep.kind}: {got.verdict}, "
                       f"{len(got.converged)} converged")
    control = hh + OperatorPoly({(0, 0, 1): 0.1j}, 12.0)
    reps = (fock, enlarged_representation(fock, 15))
    eig_kept = (control != dagger(control)
                and diagonalize_classify(control, fock, 15).eigenvalues
                == truncation_report(*(eig(poly_to_matrix(control, r))
                                       for r in reps)).eigenvalues)
    return same and eig_kept and worst < 1e-10, (
        f"{'; '.join(summary)}; same flags and verdicts: {same}, worst "
        f"relative converged deviation {worst:.3e}; h + 0.1i J keeps the "
        f"eig eigenvalues: {eig_kept}")


@_register("spectral", "planar grid vs Casimir sectors")
def _grid_vs_sectors(fault):
    # the spectrum_planar member at planar 20: its 10 lowest-|E| converged
    # sector eigenvalues against eig of the planar grids 16 and 20, the
    # dense route the sectors replace.  The grid eigenvalues change their
    # last bits with the BLAS thread count, so the detail counts matches
    # instead of printing the deviation
    p = build_pt5(with_special_choice(
        Mu(mu1=1.0, mu3=1.0, mu4=2.0, mu5=0.5, mu6=0.5)), 2.0)
    report = diagonalize_classify(p, make_representation("planar", 2.0, 20))
    lowest = np.array(sorted(report.converged, key=abs)[:10])
    grid = np.concatenate([
        eig(real_gauge(poly_to_matrix(p, r), r))
        for r in (make_representation("planar", 2.0, n) for n in (16, 20))])
    dev = np.abs(lowest[:, None] - grid[None, :]).min(axis=1) / np.abs(lowest)
    matched = int(np.sum(dev < 1e-10))
    return len(lowest) == 10 and matched == 10, (
        f"{report.verdict}, pairs={report.pairs}, "
        f"{len(report.converged)} converged; {matched} of the "
        f"{len(lowest)} lowest-|E| (up to {abs(lowest[-1]):.6f}) within "
        f"1e-10 relative of a planar grid 16 or 20 eigenvalue")


SUITES = tuple(dict.fromkeys(check.suite for check in CHECKS))


def run_check(check, fault=None):
    passed, detail = check.run(fault)
    return CheckResult(check.suite, check.name, bool(passed), detail)


def run_suites(only=None, fault=None):
    """Run the named suites' checks sequentially; returns CheckResults.

    `only` is an iterable of suite names (None = all, in registry order);
    `fault` is None or one of KNOWN_FAULTS.  Unknown names raise ValueError
    so the CLI can map them to a config error.
    """
    if fault is not None and fault not in KNOWN_FAULTS:
        raise ValueError(f"unknown fault {fault!r}; known: {KNOWN_FAULTS}")
    names = SUITES if only is None else list(only)
    results = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; known: {SUITES}")
        results.extend(run_check(check, fault) for check in CHECKS
                       if check.suite == name)
    return results


def all_passed(results):
    return all(r.passed for r in results)


def render_text(results):
    lines = []
    current = None
    for r in results:
        if r.suite != current:
            current = r.suite
            lines.append(f"suite {current}:")
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"  [{mark}] {r.name}: {r.detail}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines)


def render_json(results, fault=None):
    suites = {}
    for r in results:
        suites.setdefault(r.suite, []).append(
            {"name": r.name, "passed": r.passed, "detail": r.detail})
    return {
        "fault": fault,
        "suites": [{"name": k, "passed": all(c["passed"] for c in v),
                    "checks": v} for k, v in suites.items()],
        "passed": all_passed(results),
    }
