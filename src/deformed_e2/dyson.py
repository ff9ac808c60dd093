"""Conjugation by the Dyson map eta = exp(lam*J + rho*U + tau*V).

The adjoint action of A = lam*J + rho*U + tau*V closes on the span
{1, U, V, J}, so eta X eta^{-1} is an affine combination of the generators
for X in {U, V, J}.  Two independent routes compute it (`image_matrix`):

* closed-form expressions in cosh/sinh of lam (with series fallbacks where
  the written forms have removable lam -> 0 singularities), also evaluated
  in numpy for whole arrays of maps (`closed_image_columns`), and
* a 4x4 matrix exponential of ad_A on the invariant span, built from nothing
  but the commutation relations.

The two must agree to high accuracy; the verification suite compares them on
random draws.  `adjoint_poly` extends either route multiplicatively to whole
polynomials, which is exact because conjugation is an algebra homomorphism.

`lam` stands in for lambda (a Python keyword, hence the short name).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .algebra import OperatorPoly, ThetaMismatchError
from .lazy import expm

# Reality of the solved Dyson parameters decides the phase; this is the
# imaginary-part cutoff for calling them real.
REALITY_TOL = 1e-10

# Below this |lam| the grouped closed forms switch to 4th-order Taylor
# expansions; the crossover keeps relative error near machine precision.
SERIES_CUTOFF = 1e-4


@dataclass(frozen=True)
class DysonParams:
    """Parameters of eta = exp(lam*J + rho*U + tau*V) over a fixed theta."""

    lam: complex
    rho: complex
    tau: complex
    theta: float

    @property
    def is_real(self):
        """True iff all three parameters are real to within REALITY_TOL.

        Real parameters make the exponent Hermitian, hence eta a genuine
        (positive) Dyson map; complex ones signal the broken phase.
        """
        return (abs(self.lam.imag) < REALITY_TOL
                and abs(self.rho.imag) < REALITY_TOL
                and abs(self.tau.imag) < REALITY_TOL)

    def inverse(self):
        """Parameters of eta^{-1} (the exponent negated)."""
        return DysonParams(-self.lam, -self.rho, -self.tau, self.theta)


def _lam_functions(lam):
    """cosh, sinh and the grouped ratios S = sinh(lam)/lam,
    C2 = (1-cosh(lam))/lam, C3 = (1-cosh(lam))/lam^2.

    The ratios have removable singularities at lam = 0; below the series
    cutoff they are evaluated by 4th-order Taylor expansions instead, which
    keeps every branch finite and smooth through lam = 0.
    """
    lam = complex(lam)
    if abs(lam) < SERIES_CUTOFF:
        x2 = lam * lam
        x4 = x2 * x2
        ch = 1 + x2 / 2 + x4 / 24
        s = 1 + x2 / 6 + x4 / 120
        c3 = -(0.5 + x2 / 24 + x4 / 720)
        return ch, lam * s, s, lam * c3, c3
    ch = cmath.cosh(lam)
    sh = cmath.sinh(lam)
    # 1 - cosh(lam) = -2 sinh^2(lam/2), which avoids the cancellation the
    # literal difference suffers for small lam
    one_minus_ch = -2 * cmath.sinh(lam / 2) ** 2
    return ch, sh, sh / lam, one_minus_ch / lam, one_minus_ch / lam ** 2


# column of each generator in `image_matrix`, and the monomial of each row
_BASIS_INDEX = {"U": 1, "V": 2, "J": 3}
_MONOMIALS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
# ad_matrix orders its basis (U, V, J, 1); this lists it in (1, U, V, J)
_AD_ORDER = [3, 0, 1, 2]


def _fill_images(ch, sh, s1, c2, c3, rho, tau, theta):
    """s[..., i, k] = the (1, U, V, J) component i of eta g_k eta^{-1},
    g = (1, U, V, J), from `_lam_functions` or `lam_functions_array` values,
    one 4x4 block per entry of ch.  For example eta U eta^{-1} =
    (U + rho*theta/lam) cosh(lam) - i (V + tau*theta/lam) sinh(lam)
    - rho*theta/lam, regrouped so each coefficient stays finite at lam -> 0.
    """
    s = np.zeros(np.shape(ch) + (4, 4), dtype=complex)
    s[..., 0, 0] = s[..., 3, 3] = 1.0 + 0j
    s[..., 0, 1] = -rho * theta * c2 - 1j * tau * theta * s1
    s[..., 1, 1] = ch
    s[..., 2, 1] = -1j * sh
    s[..., 0, 2] = -tau * theta * c2 + 1j * rho * theta * s1
    s[..., 1, 2] = 1j * sh
    s[..., 2, 2] = ch
    s[..., 0, 3] = theta * (rho * rho + tau * tau) * c3
    s[..., 1, 3] = -1j * tau * s1 + rho * c2
    s[..., 2, 3] = 1j * rho * s1 + tau * c2
    return s


def image_matrix(params, route="closed"):
    """s[i, k] = the (1, U, V, J) component i of eta g_k eta^{-1}, g = (1, U,
    V, J), by the closed forms ("closed") or by exp(ad_A) ("oracle").
    """
    if route == "closed":
        return _fill_images(*_lam_functions(params.lam), complex(params.rho),
                            complex(params.tau), params.theta)
    if route == "oracle":
        return expm(ad_matrix(params))[np.ix_(_AD_ORDER, _AD_ORDER)]
    raise ValueError(f"unknown route {route!r}")


def adjoint_generator_closed(params, g):
    """Closed-form (1, U, V, J) components of eta g eta^{-1}: column g of
    `image_matrix`."""
    return image_matrix(params)[:, _BASIS_INDEX[g]]


def lam_functions_array(lam):
    """`_lam_functions` on a real array, with the same series branch."""
    x2 = lam * lam
    x4 = x2 * x2
    small = np.abs(lam) < SERIES_CUTOFF
    s_series = 1 + x2 / 6 + x4 / 120
    c3_series = -(0.5 + x2 / 24 + x4 / 720)
    with np.errstate(all="ignore"):
        sh = np.sinh(lam)
        one_minus_ch = -2 * np.sinh(lam / 2) ** 2
        return (np.where(small, 1 + x2 / 2 + x4 / 24, np.cosh(lam)),
                np.where(small, lam * s_series, sh),
                np.where(small, s_series, sh / lam),
                np.where(small, lam * c3_series, one_minus_ch / lam),
                np.where(small, c3_series, one_minus_ch / x2))


def closed_image_columns(lam, rho, tau, theta):
    """The closed-form generator images for arrays of real (lam, rho, tau).

    Returns s of shape (n, 4, 4): s[i, :, k] holds the (1, U, V, J)
    components of eta g_k eta^-1 for g = (1, U, V, J) and the i-th map; the
    same formulas as `image_matrix`, evaluated in numpy.
    """
    return _fill_images(*lam_functions_array(lam), rho, tau, theta)


def ad_matrix(params):
    """Matrix of ad_A on the ordered basis (U, V, J, 1).

    Columns are the images of the basis elements:
    [A,U] = -i*lam*V - i*tau*theta*1, [A,V] = i*lam*U + i*rho*theta*1,
    [A,J] = i*rho*V - i*tau*U, [A,1] = 0.
    """
    lam, rho, tau, th = params.lam, params.rho, params.tau, params.theta
    m = np.zeros((4, 4), dtype=complex)
    m[1, 0] = -1j * lam
    m[3, 0] = -1j * tau * th
    m[0, 1] = 1j * lam
    m[3, 1] = 1j * rho * th
    m[0, 2] = -1j * tau
    m[1, 2] = 1j * rho
    return m


def adjoint_generator_oracle(params, g):
    """The (1, U, V, J) components of eta g eta^{-1} via exp(ad_A) on the
    4-dimensional span: column g of `image_matrix(params, "oracle")`."""
    return image_matrix(params, "oracle")[:, _BASIS_INDEX[g]]


def adjoint_poly(params, p, route="closed"):
    """eta p eta^{-1} for an arbitrary polynomial.

    Each monomial U^a V^b J^c maps to the normal-ordered product
    img(U)^a img(V)^b img(J)^c; linearity does the rest.  `route` selects
    which generator-image computation backs the map ("closed" or "oracle").
    """
    if p.theta != params.theta:
        raise ThetaMismatchError(
            f"polynomial theta {p.theta} != params theta {params.theta}"
        )
    s = image_matrix(params, route).T.tolist()
    polys = [OperatorPoly(dict(zip(_MONOMIALS, s[k])), p.theta)
             for k in (1, 2, 3)]

    out = OperatorPoly.zero(p.theta)
    for (a, b, c), w in p.terms.items():
        term = OperatorPoly({(0, 0, 0): w}, p.theta)
        for img, e in zip(polys, (a, b, c)):
            for _ in range(e):
                term = term * img
        out = out + term
    return out
