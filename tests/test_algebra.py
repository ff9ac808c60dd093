import numpy as np
import pytest

from deformed_e2 import (
    OperatorPoly,
    PTKind,
    ThetaMismatchError,
    anticommutator,
    commutator,
    dagger,
    hermiticity_residual,
    max_coeff_diff,
    pt_apply,
    pt_invariance_check,
)


def gens(theta):
    return (OperatorPoly.generator("U", theta),
            OperatorPoly.generator("V", theta),
            OperatorPoly.generator("J", theta))


def test_rewriting_identities():
    # the three basic moves the normal orderer is built on
    theta = 0.8
    u, v, j = gens(theta)
    assert max_coeff_diff(j * u, u * j - 1j * v) == 0
    assert max_coeff_diff(j * v, v * j + 1j * u) == 0
    assert max_coeff_diff(v * u, u * v - 1j * theta * OperatorPoly.identity(theta)) == 0


def test_j_squared_u():
    # one nontrivial reordering worked by hand: J^2 U = U J^2 - 2i V J + U
    theta = 1.3
    u, v, j = gens(theta)
    lhs = j * j * u
    rhs = u * j * j - 2j * v * j + u
    assert max_coeff_diff(lhs, rhs) == 0


def test_ladder_product():
    # (U + iV)(U - iV) = U^2 + V^2 + theta
    theta = 0.37
    u, v, _ = gens(theta)
    lhs = (u + 1j * v) * (u - 1j * v)
    rhs = u * u + v * v + theta * OperatorPoly.identity(theta)
    assert max_coeff_diff(lhs, rhs) < 1e-15


def test_product_associativity():
    rng = np.random.default_rng(3)
    theta = 0.6
    for _ in range(20):
        polys = []
        for _k in range(3):
            terms = {}
            for _t in range(4):
                key = tuple(int(x) for x in rng.integers(0, 3, 3))
                terms[key] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            polys.append(OperatorPoly(terms, theta))
        p, q, r = polys
        assert max_coeff_diff((p * q) * r, p * (q * r)) < 1e-10


def test_scalar_arithmetic_and_pow():
    theta = 0.5
    u, v, j = gens(theta)
    p = 2 * u - v * 1j + 3.0
    assert p.coeff(1, 0, 0) == 2
    assert p.coeff(0, 1, 0) == -1j
    assert p.coeff(0, 0, 0) == 3
    assert (u ** 3).coeff(3, 0, 0) == 1
    assert (j ** 0) == OperatorPoly.identity(theta)
    q = p - p
    assert q.is_zero()
    assert q.degree == -1
    assert p.degree == 1
    assert (u * u + j).degree == 2


def test_theta_mismatch_rejected():
    u0 = OperatorPoly.generator("U", 0.0)
    u1 = OperatorPoly.generator("U", 1.0)
    with pytest.raises(ThetaMismatchError):
        u0 * u1
    with pytest.raises(ThetaMismatchError):
        u0 + u1


def test_small_coefficients_pruned():
    theta = 0.0
    p = OperatorPoly({(1, 0, 0): 1e-20, (0, 0, 1): 1.0}, theta)
    assert p.coeff(1, 0, 0) == 0
    assert p.coeff(0, 0, 1) == 1.0


def test_dagger_involution_and_antihomomorphism():
    rng = np.random.default_rng(4)
    theta = 1.1
    for _ in range(20):
        terms_p = {tuple(int(x) for x in rng.integers(0, 3, 3)):
                   complex(*rng.uniform(-1, 1, 2)) for _ in range(4)}
        terms_q = {tuple(int(x) for x in rng.integers(0, 3, 3)):
                   complex(*rng.uniform(-1, 1, 2)) for _ in range(4)}
        p = OperatorPoly(terms_p, theta)
        q = OperatorPoly(terms_q, theta)
        assert max_coeff_diff(dagger(dagger(p)), p) < 1e-12
        assert max_coeff_diff(dagger(p * q), dagger(q) * dagger(p)) < 1e-10


def test_dagger_of_uv():
    # reversal picks up the commutator: (UV)^dag = UV - i theta
    theta = 2.0
    u, v, _ = gens(theta)
    lhs = dagger(u * v)
    rhs = u * v - 1j * theta * OperatorPoly.identity(theta)
    assert max_coeff_diff(lhs, rhs) == 0
    # and UV - i theta/2 is hermitian
    comb = u * v - 0.5j * theta * OperatorPoly.identity(theta)
    assert max_coeff_diff(comb, dagger(comb)) == 0


def test_hermiticity_residual():
    theta = 0.9
    u, v, j = gens(theta)
    herm = u * u + v * v + 2.5 * j
    assert hermiticity_residual(herm) < 1e-15
    skew = herm + 0.25j * u
    assert hermiticity_residual(skew) == pytest.approx(0.5)


def test_commutator_anticommutator():
    theta = 0.4
    u, v, j = gens(theta)
    assert max_coeff_diff(anticommutator(u, j), 2 * (u * j) - 1j * v) == 0
    # [A, BC] = [A, B]C + B[A, C] on a sample
    a, b, c = u + j, v * v, u * j
    lhs = commutator(a, b * c)
    rhs = commutator(a, b) * c + b * commutator(a, c)
    assert max_coeff_diff(lhs, rhs) < 1e-12


def test_pt_actions_on_generators():
    theta = 0.7
    u, v, j = gens(theta)
    # linear parts; coefficients conjugate because the maps are antilinear
    assert max_coeff_diff(pt_apply(PTKind.PT1, u), -u) == 0
    assert max_coeff_diff(pt_apply(PTKind.PT2, j), -j) == 0
    assert max_coeff_diff(pt_apply(PTKind.PT3, u), v) == 0
    assert max_coeff_diff(pt_apply(PTKind.PT3, v), u) == 0
    assert max_coeff_diff(pt_apply(PTKind.PT4, u), -u) == 0
    assert max_coeff_diff(pt_apply(PTKind.PT4, v), v) == 0
    assert max_coeff_diff(pt_apply(PTKind.PT5, v), -v) == 0
    assert max_coeff_diff(pt_apply(PTKind.PT5, 1j * u), -1j * u) == 0


def test_pt3_reorders_swapped_words():
    # U V -> V U, which must be re-normal-ordered to U V - i theta
    theta = 1.9
    u, v, _ = gens(theta)
    image = pt_apply(PTKind.PT3, u * v)
    assert max_coeff_diff(image, u * v - 1j * theta * OperatorPoly.identity(theta)) == 0


def test_pt5_invariant_coefficient_pattern():
    """PT5 invariance holds iff c4, c6, c9 are imaginary and the rest real."""
    theta = 0.6
    u, v, j = gens(theta)
    ham = (1.0 * j * j + 0.4 * j + 0.9 * u + 1j * 0.7 * v + 0.2 * (u * j)
           + 1j * 0.1 * (v * j) + 0.5 * (u * u) + 0.3 * (v * v)
           + 1j * 0.8 * (u * v) + 0.25 * OperatorPoly.identity(theta))
    assert pt_invariance_check(PTKind.PT5, ham)
    assert not pt_invariance_check(PTKind.PT5, ham + 0.3j * u)
    assert not pt_invariance_check(PTKind.PT5, ham + 0.3 * v)


def test_pt4_invariant_coefficient_pattern():
    theta = 0.6
    u, v, j = gens(theta)
    ham = (1.0 * j * j + 0.4 * j + 1j * 0.9 * u + 0.7 * v + 1j * 0.2 * (u * j)
           + 0.1 * (v * j) + 0.5 * (u * u) + 0.3 * (v * v)
           + 1j * 0.8 * (u * v))
    assert pt_invariance_check(PTKind.PT4, ham)
    assert not pt_invariance_check(PTKind.PT4, ham + 0.3 * u)


def test_pt3_invariant_coefficient_pattern():
    # swap symmetry pairs the mixed coefficients and couples c9 to the scalar
    theta = 1.2
    u, v, j = gens(theta)
    c3 = 0.4 + 0.2j
    c5 = -0.3 + 0.5j
    c7 = 0.6 - 0.1j
    c9 = 0.75
    ham = (1.1 * (j * j) - 0.8 * j
           + c3 * u + np.conj(c3) * v
           + c5 * (u * j) + np.conj(c5) * (v * j)
           + c7 * (u * u) + np.conj(c7) * (v * v)
           + c9 * (u * v)
           + complex(0.2, -theta * c9 / 2) * OperatorPoly.identity(theta))
    assert pt_invariance_check(PTKind.PT3, ham)
    assert not pt_invariance_check(PTKind.PT3, ham + 0.1 * u)


def test_equality_and_repr():
    theta = 0.3
    u, v, j = gens(theta)
    p = u * v + 2 * j
    q = 2 * j + u * v
    assert p == q
    assert hash(p) == hash(q)
    assert p != p + u
    text = repr(u * u * v + j)
    assert "U^2V" in text and "J" in text
