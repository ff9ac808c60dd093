import math
import os

import numpy as np
import pytest

from deformed_e2 import OperatorPoly
from deformed_e2 import representations
from deformed_e2.dyson import DysonParams
from deformed_e2.models import (
    BrokenPhaseError,
    HamiltonianCoeffs,
    Mu,
    build_general,
    build_pt5,
    hermitian_counterpart_pt5,
    toy_mu,
    with_special_choice,
)
from deformed_e2.representations import (
    ALL_REAL,
    Representation,
    _greedy_match,
    commutator_fidelity,
    diagonalize_classify,
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

WORKED = with_special_choice(
    Mu(mu1=1.0, mu2=0.0, mu3=1.0, mu4=2.0, mu5=1.0, mu6=1.0, mu8=0.0))


def test_fock_matrices_small():
    # theta = 2 makes sqrt(theta/2) = 1, so U is the bare position ladder
    u, v, j = generator_matrices(make_representation("fock", 2.0, 3))
    sq2 = math.sqrt(2)
    expect_u = np.array([[0, 1, 0], [1, 0, sq2], [0, sq2, 0]], dtype=complex)
    expect_v = np.array([[0, -1j, 0], [1j, 0, -1j * sq2], [0, 1j * sq2, 0]])
    assert np.allclose(u, expect_u, atol=1e-15)
    assert np.allclose(v, expect_v, atol=1e-15)
    assert np.allclose(j, np.diag([0, 1, 2]), atol=0)


def test_fock_j0_offset():
    rep = make_representation("fock", 1.0, 4, j0=0.25)
    # the last fock factor is the diagonal of J
    assert np.allclose(rep.factors[-1], [0.25, 1.25, 2.25, 3.25])


def test_fock_rejects_nonpositive_theta():
    with pytest.raises(ValueError):
        make_representation("fock", 0.0, 8)
    with pytest.raises(ValueError):
        make_representation("fock", -1.0, 8)


def test_fock_casimir():
    # U^2 + V^2 - 2 theta J = theta (1 - 2 j0) away from the truncation edge
    theta, j0 = 0.7, 0.25
    u, v, j = generator_matrices(make_representation("fock", theta, 20,
                                                     j0=j0))
    cas = u @ u + v @ v - 2 * theta * j
    expect = theta * (1 - 2 * j0)
    interior = cas[:-2, :-2]
    assert np.allclose(interior, expect * np.eye(18), atol=1e-13)


def test_generators_hermitian():
    fock = make_representation("fock", 1.0, 24)
    assert set(commutator_fidelity(fock)) == {"UJ", "VJ", "UV"}
    for rep in (fock, make_representation("planar", 0.5, (10, 10))):
        for m in generator_matrices(rep):
            assert np.array_equal(m, m.conj().T)
    # the circle carries only J, whose diagonal is real
    circle = make_representation("circle", 0.3, 5)
    assert np.array_equal(circle.factors[0], circle.factors[0].conj())
    with pytest.raises(ValueError):
        generator_matrices(circle)


def test_planar_index_convention():
    # site (ix, iy) lives at flat index ix*ny + iy
    nx, ny = 5, 7
    rep = make_representation("planar", 0.4, (nx, ny))
    u, v, j = generator_matrices(rep)
    assert rep.size == nx * ny and u.shape == (nx * ny, nx * ny)
    # the p_+ = (|1,0> + i|0,1>)/sqrt(2) state carries J = -1
    psi = np.zeros(nx * ny, dtype=complex)
    psi[1 * ny + 0] = 1 / math.sqrt(2)
    psi[0 * ny + 1] = 1j / math.sqrt(2)
    jexp = (psi.conj() @ j @ psi).real
    assert jexp == pytest.approx(-1.0, abs=1e-12)


def test_circle_representation():
    rep = make_representation("circle", 0.3, 5)
    assert np.array_equal(rep.factors[0].real, np.arange(-5, 6))
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
    u, v, j = generator_matrices(rep)
    p = OperatorPoly({(1, 1, 1): 1.0}, theta)
    assert np.allclose(poly_to_matrix(p, rep), u @ v @ j)
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


@pytest.mark.parametrize("terms, verdict, pairs", [
    ({(0, 0, 2): 1.0, (0, 0, 1): 0.3}, "AllReal", 0),
    ({(0, 0, 2): 1.0, (0, 0, 1): 1j}, "ConjugatePairs", 3),
    # Im E(m) = 1e-13 m: below the reality cutoff 1e-12 max(1, radius)
    ({(0, 0, 2): 1.0, (0, 0, 1): 1e-13j}, "AllReal", 0),
])
def test_circle_spectrum_is_exact_at_any_size(terms, verdict, pairs):
    rep = make_representation("circle", 0.5, 3)  # 7 rows, below 16
    p = OperatorPoly(terms, 0.5)
    r = diagonalize_classify(p, rep)
    exact = np.sort_complex(np.diagonal(poly_to_matrix(p, rep)))
    assert r.eigenvalues == tuple(complex(z) for z in exact)
    assert r.flags == (True,) * 7 and r.converged == r.eigenvalues
    assert (r.verdict, r.pairs, r.diagnostic) == (verdict, pairs, "")
    assert diagonalize_classify(p, rep, delta=1) == r


def test_rounding_split_conjugate_pair_comes_out_negative_imaginary_first():
    # E(j) = 2^10 j^2 - 2^-43 j + i j^3 on J = diag(-1, 0, 1): E(1) =
    # (2^10 - 2^-43) + i and E(-1) rounds to 2^10 - i, conjugates whose real
    # parts are one ulp apart
    p = OperatorPoly({(0, 0, 2): 2.0 ** 10, (0, 0, 1): -2.0 ** -43,
                      (0, 0, 3): 1j}, 0.5)
    r = diagonalize_classify(p, make_representation("circle", 0.5, 1))
    below = float(np.nextafter(2.0 ** 10, 0.0))
    assert r.eigenvalues == (0j, 2.0 ** 10 - 1j, complex(below, 1.0))
    assert (r.verdict, r.pairs) == ("ConjugatePairs", 1)


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


# ---------------------------------------------------------------------------
# poly_to_matrix against dense products


def _ladder(n):
    return np.diag(np.sqrt(np.arange(1, n, dtype=float)), 1)


def _dense_generators(rep):
    """U, V and J of the representation's kind, theta, dims and j0 from the
    ladder and Kronecker formulas, without reading its factors."""
    if rep.kind == "circle":
        (m,) = rep.dims
        zero = np.zeros((2 * m + 1, 2 * m + 1))
        return zero, zero, np.diag(np.arange(-m, m + 1, dtype=float))
    if rep.kind == "fock":
        (n,) = rep.dims
        a = _ladder(n)
        s = math.sqrt(rep.theta / 2)
        return (s * (a + a.T), -1j * s * (a - a.T),
                a.T @ a + rep.j0 * np.eye(n))
    nx, ny = rep.dims
    ix, iy = np.eye(nx), np.eye(ny)
    xa, ya = _ladder(nx), _ladder(ny)
    x = np.kron((xa + xa.T) / np.sqrt(2), iy)
    px = np.kron(1j * (xa.T - xa) / np.sqrt(2), iy)
    y = np.kron(ix, (ya + ya.T) / np.sqrt(2))
    py = np.kron(ix, 1j * (ya.T - ya) / np.sqrt(2))
    h = rep.theta / 2
    return x - h * py, y + h * px, y @ px - x @ py


def _dense_matrix(p, rep):
    """Reference route: each monomial as a chain of dense products started
    from the identity, 1 @ U ... @ V ... @ J ..., of `_dense_generators`."""
    gens = _dense_generators(rep)
    out = np.zeros((rep.size, rep.size), dtype=complex)
    for (a, b, c), w in p.terms.items():
        term = np.eye(rep.size, dtype=complex)
        for mat, e in zip(gens, (a, b, c)):
            for _ in range(e):
                term = term @ mat
        out += w * term
    return out


def _random_poly(rng, theta, degree):
    return OperatorPoly({(a, b, c): complex(*rng.normal(size=2))
                         for a in range(degree + 1)
                         for b in range(degree + 1 - a)
                         for c in range(degree + 1 - a - b)}, theta)


def _matrix_draws(count, seed=8):
    """Seeded polynomials: pt5-general H, pt5-special H and h, and
    degree-3 and degree-4 products of random polynomials."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        theta = float(rng.uniform(0.5, 12.0))
        draws.append(build_pt5(Mu(*rng.uniform(-2.0, 2.0, 9)), theta))
        special = with_special_choice(Mu(
            mu1=rng.uniform(0.8, 1.2), mu2=rng.uniform(-0.3, 0.3),
            mu3=rng.uniform(0.5, 1.5), mu4=rng.uniform(1.5, 2.5),
            mu5=rng.uniform(0.5, 1.5), mu6=rng.uniform(0.5, 1.5),
            mu8=rng.uniform(-0.2, 0.2)))
        draws.append(build_pt5(special, theta))
        try:
            draws.append(hermitian_counterpart_pt5(special, theta))
        except BrokenPhaseError:
            pass
        quad = _random_poly(rng, theta, 2)
        draws.append(quad * _random_poly(rng, theta, 1))
        draws.append(quad * _random_poly(rng, theta, 2))
    return draws


def test_generators_keep_the_bytes_of_dense_products():
    reps = [make_representation("fock", 1.3, n, j0=j0)
            for n, j0 in ((1, 0.0), (24, 0.25), (75, -0.3))]
    reps += [make_representation("planar", theta, dims)
             for theta in (0.0, 0.5, 3.0, 12.0)
             for dims in ((1, 1), (5, 9), (7, 3), (12, 12))]
    for rep in reps:
        for got, want in zip(generator_matrices(rep), _dense_generators(rep)):
            assert got.tobytes() == want.astype(complex).tobytes()


def test_fock_and_circle_matrices_keep_the_bytes_of_dense_products():
    rng = np.random.default_rng(9)
    draws = _matrix_draws(12)
    assert max(p.degree for p in draws) == 4
    for p in draws:
        rep = make_representation("fock", p.theta, int(rng.integers(16, 90)),
                                  j0=float(rng.choice([0.0, 0.25, -0.3])))
        assert poly_to_matrix(p, rep).tobytes() == \
            _dense_matrix(p, rep).tobytes()
    for _ in range(20):
        theta = float(rng.uniform(0.1, 2.0))
        p = OperatorPoly({(0, 0, c): complex(*rng.normal(size=2))
                          for c in range(5)}, theta)
        rep = make_representation("circle", theta, int(rng.integers(0, 12)))
        assert poly_to_matrix(p, rep).tobytes() == \
            _dense_matrix(p, rep).tobytes()


def test_planar_matrix_matches_dense_products():
    rng = np.random.default_rng(10)
    for p in _matrix_draws(12):
        dims = tuple(int(d) for d in rng.integers(3, 10, 2))
        rep = make_representation("planar", p.theta, dims)
        got, want = poly_to_matrix(p, rep), _dense_matrix(p, rep)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    zero = OperatorPoly.zero(0.5)
    rep = make_representation("planar", 0.5, (3, 4))
    assert np.array_equal(poly_to_matrix(zero, rep), np.zeros((12, 12)))


def _grid_report(p, rep, matrix=poly_to_matrix):
    """diagonalize_classify's route on the N_x N_y planar grid, the one
    theta = 0 takes: both truncations real-gauged, eigvalsh of the
    Hermitian part for a p that is its own adjoint, else eig."""
    def spectrum(r):
        m = real_gauge(matrix(p, r), r)
        if p != p.dagger():
            return representations.eig(m)
        return np.linalg.eigvalsh((m + m.conj().T) / 2)
    return truncation_report(*(spectrum(r)
                               for r in (rep, enlarged_representation(rep))))


def test_planar_spectra_match_dense_products():
    rng = np.random.default_rng(11)
    draws = [p for p in _matrix_draws(3, seed=12) if p.degree == 2]
    # at theta = 2, U^2 + V^2 is an oscillator whose low levels converge on
    # these small grids; perturbations give some conjugate pairs
    oscillator = OperatorPoly({(2, 0, 0): 1.0, (0, 2, 0): 1.0}, 2.0)
    draws.append(oscillator)
    draws += [oscillator + 0.3 * _random_poly(rng, 2.0, 1) for _ in range(8)]
    reports = []
    for p in draws:
        dims = tuple(int(d) for d in rng.integers(6, 10, 2))
        rep = make_representation("planar", p.theta, dims)
        got, want = _grid_report(p, rep), _grid_report(p, rep, _dense_matrix)
        reports.append(got)
        # position by position: a conjugate pair whose real parts differ by
        # rounding comes out in the same order on both routes
        g, w = np.array(got.eigenvalues), np.array(want.eigenvalues)
        assert np.all(np.abs(g - w) <= 1e-12 * (1 + np.abs(w)))
        assert got.flags == want.flags
        assert (got.verdict, got.pairs) == (want.verdict, want.pairs)
    assert {r.verdict for r in reports} == {
        "AllReal", "ConjugatePairs", "Inconclusive"}


# ---------------------------------------------------------------------------
# _greedy_match against a flat stable argsort


def _flat_argsort_match(a, b):
    """Reference pairing: walk every (i, j) in one stable argsort of the
    flattened distance matrix and keep the pairs whose i and j are free."""
    dist = np.abs(a[:, None] - b[None, :])
    used_a = np.zeros(len(a), dtype=bool)
    used_b = np.zeros(len(b), dtype=bool)
    pairs = []
    for flat in np.argsort(dist, axis=None, kind="stable"):
        i, j = divmod(int(flat), len(b))
        if used_a[i] or used_b[j]:
            continue
        used_a[i] = used_b[j] = True
        pairs.append((i, j))
        if len(pairs) == len(a):
            break
    return pairs


def test_greedy_match_equals_flat_argsort_pairing():
    rng = np.random.default_rng(13)
    cases = []
    for k in range(150):
        n1 = int(rng.integers(1, 50))
        n2 = n1 + (0 if k % 3 == 0 else int(rng.integers(1, 30)))
        a = rng.normal(size=n1) + 1j * rng.normal(size=n1)
        b = np.concatenate([a + 1e-7 * rng.normal(size=n1),
                            rng.normal(size=n2 - n1)])
        rng.shuffle(b)
        if k % 2:
            # exact ties: a coarse grid of values, many repeated
            a, b = np.round(a, 1), np.round(b, 1)
        cases.append((a, b))
    # duplicated eigenvalues on both sides
    a = np.repeat(rng.normal(size=6), 4).astype(complex)
    cases.append((a, np.concatenate([a, a[:5]])))
    cases.append((np.full(7, 2.0 + 0j), np.full(9, 2.0 + 0j)))
    # a degenerate circle-like spectrum, E(m) = E(-m) = m^2
    m = np.arange(-8, 9)
    cases.append(((m * m).astype(complex), (m * m).astype(complex)))
    cases.append(((m * m).astype(complex),
                  np.concatenate([m * m, np.arange(9, 13) ** 2]).astype(complex)))
    for a, b in cases:
        assert _greedy_match(a, b) == _flat_argsort_match(a, b)


# ---------------------------------------------------------------------------
# real_gauge: PT5 matrices go to eig as real ones


def _pt5_member(rng, which, theta):
    """A PT5 polynomial at theta: which 0 pt5-general H, 1 pt5-special H,
    2 pt5-special h (redrawn until the phase is unbroken), 3 toy H."""
    def u(lo=-2.0, hi=2.0):
        return float(rng.uniform(lo, hi))
    if which == 0:
        return build_pt5(Mu(u(0.5, 1.5), *(u() for _ in range(8))), theta)
    if which == 3:
        return build_pt5(toy_mu(u(0.5, 1.5), u(0.5, 2.0), u(0.2, 2.0)),
                         theta)
    while True:
        mu = with_special_choice(Mu(mu1=u(0.5, 1.5), mu2=u(), mu3=u(),
                                    mu4=u(), mu5=u(), mu6=u(), mu8=u()))
        if which == 1:
            return build_pt5(mu, theta)
        try:
            return hermitian_counterpart_pt5(mu, theta)
        except (BrokenPhaseError, ZeroDivisionError):
            continue


def _complex_route(p, rep):
    """diagonalize_classify with every matrix handed to eig as complex."""
    q, *reps = truncations(p, rep)
    return truncation_report(*(representations.eig(poly_to_matrix(q, r))
                               for r in reps))


@pytest.mark.parametrize("kind, theta, dims, j0", [
    ("fock", 1.3, 30, 0.0),
    ("fock", 0.4, 25, 0.25),
    ("fock", 6.0, 20, -1.5),
    ("planar", 1.3, (8, 8), 0.0),
    ("planar", 2.5, (9, 13), 0.0),
    ("planar", 0.8, (12, 5), 0.0),
    ("planar", -1.7, (7, 10), 0.0),
    ("planar", 0.0, (9, 9), 0.0),
])
def test_real_gauge_makes_pt5_matrices_real(kind, theta, dims, j0):
    rng = np.random.default_rng(21)
    rep = make_representation(kind, theta, dims, j0=j0)
    for which in (0, 1, 2, 3) * 3:
        m = poly_to_matrix(_pt5_member(rng, which, theta), rep)
        g = real_gauge(m, rep)
        assert g.dtype == np.float64 and g.shape == m.shape
        # a similarity: the same characteristic data, entry sizes kept
        assert np.array_equal(np.abs(g), np.abs(m))
        assert abs(np.trace(g) - np.trace(m)) <= 1e-12 * (1 + abs(np.trace(m)))


def test_real_gauge_leaves_non_pt5_matrices_alone():
    rng = np.random.default_rng(22)
    for kind, dims in (("fock", 30), ("planar", (6, 7))):
        rep = make_representation(kind, 0.9, dims)
        c = HamiltonianCoeffs(tuple(complex(*rng.normal(size=2))
                                    for _ in range(10)))
        m = poly_to_matrix(build_general(c, 0.9), rep)
        assert real_gauge(m, rep) is m


def test_eig_sees_real_input_for_pt5_and_complex_for_general(monkeypatch):
    seen, hermitian = [], []
    eig, eigvalsh = representations.eig, representations.eigvalsh

    def recording_eig(a, *args, **kwargs):
        seen.append(a.dtype)
        return eig(a, *args, **kwargs)

    def recording_eigvalsh(a, *args, **kwargs):
        hermitian.append((a.dtype, np.array_equal(a, np.swapaxes(a, -1, -2))))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(representations, "eig", recording_eig)
    monkeypatch.setattr(representations, "eigvalsh", recording_eigvalsh)
    rng = np.random.default_rng(23)
    general = build_general(HamiltonianCoeffs(
        (1.0, 0.5, 1.0, 0.75, 0.5j, 0.0, 0.25, 0.25, 0.5 + 0.25j, 0.0)), 1.5)
    for kind, dims in (("fock", 24), ("planar", (6, 8))):
        rep = make_representation(kind, 1.5, dims)
        for which in range(4):
            diagonalize_classify(_pt5_member(rng, which, 1.5), rep)
        # the three H members reach eig real; h, its own adjoint, reaches
        # eigvalsh as an exactly symmetric real matrix (on planar a stack
        # of Casimir sectors, one call per truncation)
        assert seen == [np.float64] * 6
        assert hermitian == [(np.float64, True)] * 2
        seen.clear()
        hermitian.clear()
        diagonalize_classify(general, rep)
        assert seen == [np.complex128] * 2
        assert hermitian == []
        seen.clear()


def test_hermitian_and_eig_routes_agree_on_the_spectra_members(monkeypatch):
    # the Hermitian counterparts h of the spectra benchmark's members, which
    # diagonalize_classify hands to eigvalsh, against eig of the same
    # real-gauged truncations: on planar its Casimir sectors, each built
    # and diagonalized on its own
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))), "bench"))
    from workloads import FOCK_STRATA, PLANAR_SIZES, _special_member

    rng = np.random.default_rng(25)
    cases = [("fock", n, delta) for n, delta in FOCK_STRATA[::3]]
    cases += [("planar", n, None) for n in PLANAR_SIZES[:3]] * 2
    for kind, dims, delta in cases:
        vals, theta = _special_member(rng)
        p = hermitian_counterpart_pt5(with_special_choice(Mu(**vals)), theta)
        rep = make_representation(kind, theta, dims)
        got = diagonalize_classify(p, rep, delta)
        q, *reps = truncations(p, rep, delta)
        want = truncation_report(*(
            [representations.eig(real_gauge(poly_to_matrix(q, s), s))
             for s in _sectors(r)] for r in reps))
        assert got.flags == want.flags, (kind, dims)
        assert (got.verdict, got.pairs) == (want.verdict, want.pairs)


def test_hermitian_route_refuses_nonfinite_matrices():
    # as eig does: J^2 overflows on the last level of the enlarged
    # truncation only (24^2 * 3.25e305 > 1.8e308 > 23^2 * 3.25e305)
    p = OperatorPoly({(0, 0, 2): 3.25e305}, 0.5)
    assert p == p.dagger()
    with pytest.raises(np.linalg.LinAlgError,
                       match="Array must not contain infs or NaNs"):
        diagonalize_classify(p, make_representation("fock", 0.5, 20), 5)


def test_real_and_complex_routes_agree_on_drawn_members():
    # ill-conditioned edge eigenvalues sit at the 1e-6 stability threshold,
    # where the last bits of eig decide a flag: a few may flip
    rng = np.random.default_rng(24)
    flags = flips = unpaired = 0
    worst = 0.0
    for k in range(240):
        if k % 2:
            theta = float(rng.uniform(0.2, 8.0))
            rep = make_representation("fock", theta, int(rng.integers(20, 50)),
                                      j0=float(rng.choice([0.0, 0.5, -2.0])))
        else:
            theta = float(rng.choice([-1, 1]) * rng.uniform(0.0, 6.0))
            rep = make_representation("planar", theta,
                                      tuple(int(d) for d in
                                            rng.integers(5, 10, 2)))
        p = _pt5_member(rng, k % 4, theta)
        real, ref = diagonalize_classify(p, rep), _complex_route(p, rep)
        if (real.verdict, real.pairs) != (ref.verdict, ref.pairs):
            # complex eig left a converged nonreal eigenvalue without its
            # conjugate, which the spectrum of a real matrix cannot have
            assert (ref.verdict, ref.pairs, real.verdict) == (
                "ConjugatePairs", 0, ALL_REAL)
            unpaired += 1
        flags += len(real.flags)
        flips += sum(a != b for a, b in zip(real.flags, ref.flags))
        a, b = np.array(real.eigenvalues), np.array(ref.eigenvalues)
        for i, j in _greedy_match(a, b):
            if real.flags[i] and ref.flags[j]:
                worst = max(worst, abs(a[i] - b[j]) / (1 + abs(b[j])))
    assert unpaired <= 2
    assert flips <= 0.01 * flags
    assert worst < 1e-5


# ---------------------------------------------------------------------------
# planar spectra on Casimir sectors


def _sectors(rep):
    """One fock representation per j0 of a stack of sectors; [rep] for a
    single truncation."""
    if np.ndim(rep.j0) == 0:
        return [rep]
    return [make_representation("fock", rep.theta, rep.size, j0=j)
            for j in rep.j0]


def test_sector_stack_keeps_the_bytes_of_single_sectors():
    # matrices and eigenvalues of the stacked route against poly_to_matrix,
    # real_gauge and eig on each sector's own fock representation
    rng = np.random.default_rng(31)
    count = 0
    for k in range(20):
        theta = float(rng.uniform(0.5, 12.0))
        p = _pt5_member(rng, k % 4, theta)
        dims = tuple(int(d) for d in rng.integers(4, 20, 2))
        q, *reps = truncations(p, make_representation("planar", theta, dims))
        assert q is p
        for r in reps:
            assert r.j0 == tuple(float(-j) for j in range(dims[0]))
            stack = real_gauge(poly_to_matrix(q, r), r)
            assert stack.shape == (dims[0], r.size, r.size)
            values = representations.eig(stack).astype(complex)
            for s, m, e in zip(_sectors(r), stack, values):
                one = real_gauge(poly_to_matrix(q, s), s)
                assert one.tobytes() == m.tobytes()
                assert (representations.eig(one).astype(complex).tobytes()
                        == e.tobytes())
                count += 1
    assert count > 200


def test_sectors_of_a_non_square_grid():
    p = build_pt5(Mu(mu1=1.0, mu3=1.0, mu4=2.0), 2.0)
    rep = make_representation("planar", 2.0, (5, 12))
    q, base, big = truncations(p, rep, delta=4)
    assert (base.size, big.size, len(base.j0)) == (12, 16, 5)
    r = diagonalize_classify(p, rep, delta=4)
    assert len(r.eigenvalues) == len(r.flags) == 60


def test_negative_theta_sectors_match_the_grid():
    # the sectors of |theta| carry p under (U, V, J) -> (U, -V, -J); the
    # planar grid (which converges at |theta| = 2, not at 0.7 or 5) and
    # the relabelling (U, V, J) -> (V, U, -J), normal-ordered by products,
    # give the same lowest converged eigenvalues
    theta = -2.0
    mu = with_special_choice(Mu(mu1=1.0, mu3=1.0, mu4=2.0, mu5=0.5,
                                mu6=0.5))
    p = build_pt5(mu, theta)
    rep = make_representation("planar", theta, 20)
    got = diagonalize_classify(p, rep)
    lowest = np.array(sorted(got.converged, key=abs)[:10])
    assert len(lowest) == 10
    grid = representations.eig(real_gauge(poly_to_matrix(p, rep), rep))
    dev = np.abs(lowest[:, None] - grid[None, :]).min(axis=1)
    assert np.all(dev < 1e-8 * np.abs(lowest))

    t = abs(theta)
    u, v, j = (OperatorPoly({w: 1.0}, t)
               for w in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    swapped = OperatorPoly.zero(t)
    for (a, b, c), w in p.terms.items():
        term = OperatorPoly.identity(t) * w
        for g in [v] * a + [u] * b + [-1.0 * j] * c:
            term = term * g
        swapped = swapped + term
    other = np.array(diagonalize_classify(
        swapped, make_representation("planar", t, 20)).converged)
    dev = np.abs(lowest[:, None] - other[None, :]).min(axis=1)
    assert np.all(dev < 1e-10 * np.abs(lowest))


def test_theta_zero_keeps_the_grid():
    p = build_pt5(Mu(mu1=1.0, mu3=1.0, mu4=2.0), 0.0)
    rep = make_representation("planar", 0.0, (6, 7))
    q, base, big = truncations(p, rep)
    assert (q, base, big.dims) == (p, rep, (7, 8))
    assert diagonalize_classify(p, rep) == _grid_report(p, rep)


def test_isospectral_check_on_planar_goes_through_sectors(monkeypatch):
    def no_grid(*args):
        raise AssertionError("a planar grid matrix was built")

    monkeypatch.setattr(representations, "_planar_matrix", no_grid)
    # on square grids of 10-16 the top eigenvalues match by coincidence,
    # the defect that fock shows at N = 63 (ROADMAP item 3)
    rep = make_representation("planar", 12.0, (8, 30))
    iso = isospectral_check(build_pt5(WORKED, 12.0),
                            hermitian_counterpart_pt5(WORKED, 12.0), rep)
    assert iso.passed and iso.n_matched >= 40
    assert (iso.verdict_h, iso.verdict_hh) == (ALL_REAL, ALL_REAL)
