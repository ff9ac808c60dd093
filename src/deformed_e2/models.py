"""PT-invariant Hamiltonian families on the deformed E2 algebra.

The general degree-2 Hamiltonian is

    H = c1 J^2 + c2 J + c3 U + c4 V + c5 UJ + c6 VJ + c7 U^2 + c8 V^2
        + c9 UV + c10,

with c_j = alpha_j + i beta_j.  Hermiticity pins the beta_j:

    beta_1 = beta_2 = 0,  beta_3 = alpha_6/2,  beta_4 = -alpha_5/2,
    beta_5 = ... = beta_9 = 0,  beta_10 = -theta*alpha_9/2.

Invariance under the antilinear maps forces coefficient patterns, which we
take as the definition of each invariant family:

    PT5 (U -> U, V -> -V):  c4, c6, c9 imaginary, the rest real;
    PT4 (U -> -U, V -> V):  c3, c5, c9 imaginary, the rest real;
    PT3 (U <-> V):          c1, c2, c9, c10+i*theta*c9/2 real,
                            c4 = conj(c3), c6 = conj(c5), c8 = conj(c7).

The PT5 family is parameterized by nine reals mu_1..mu_9:

    H = mu1 J^2 + mu2 J + mu3 U + i mu4 V + mu5 UJ + i mu6 VJ
        + mu7 U^2 + mu8 V^2 + i mu9 UV.

A Dyson map eta = exp(lam*J + rho*U + tau*V) with tau = 0,
rho = lam (mu5 - mu6 coth lam)/(2 mu1) renders H Hermitian when lam solves
coth(2 lam) = mu78/mu19 and coth(lam) = mu23/mu24 (undeformed), the latter
being replaced at theta != 0 by a condition on mu3 (`mu3_deformed`).  Real
solutions lam mark the PT-symmetric (real-spectrum) region; complex lam the
spontaneously broken one; exceptional points sit on the boundary.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import OperatorPoly
from .dyson import (
    DysonParams,
    closed_image_columns,
    lam_functions_array,
)
from .lazy import least_squares, minimize

SYMMETRIC = "Symmetric"
BROKEN = "Broken"
BOUNDARY = "Boundary"
UNRESOLVED = "Unresolved"  # no certified map found; not a broken-phase proof

# |ratio| within this distance of 1 is reported as Boundary, and the
# exceptional-point bisection stops at this bracket width.
BOUNDARY_TOL = 1e-9

# A numerically solved Dyson map is certified when the max-norm of its
# Hermiticity residuals is at most this.
CERT_TOL = 1e-9

# The ten basis monomials in c_1..c_10 order.
_BASIS = ((0, 0, 2), (0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 0, 1),
          (0, 1, 1), (2, 0, 0), (0, 2, 0), (1, 1, 0), (0, 0, 0))
_BASIS_INDEX = {m: j for j, m in enumerate(_BASIS)}

# Each basis monomial as an ordered product of two factors from
# (1, U, V, J), indexed 0..3: J^2 = J*J, J = 1*J, ..., UV = U*V, 1 = 1*1.
_LEFT = np.array([3, 0, 0, 0, 1, 2, 1, 2, 1, 0])
_RIGHT = np.array([3, 3, 1, 2, 3, 3, 1, 2, 2, 0])


class BrokenPhaseError(ValueError):
    """A construction that needs a real Dyson map met a broken-phase input."""


class DegenerateLambdaError(ValueError):
    """The coth constraint degenerates (lambda -> 0 limit)."""


@dataclass(frozen=True)
class HamiltonianCoeffs:
    """The ten complex coefficients c_1..c_10 of the general Hamiltonian."""

    c: tuple

    def __post_init__(self):
        vals = tuple(complex(x) for x in self.c)
        if len(vals) != 10:
            raise ValueError("need exactly ten coefficients c_1..c_10")
        object.__setattr__(self, "c", vals)

    def __getitem__(self, j):
        """1-based access matching the c_j labels."""
        if not 1 <= j <= 10:
            raise IndexError("coefficient index runs from 1 to 10")
        return self.c[j - 1]


MU_NAMES = tuple(f"mu{k}" for k in range(1, 10))


@dataclass(frozen=True)
class Mu:
    """Real parameters mu_1..mu_9 of the PT5-invariant family."""

    mu1: float
    mu2: float = 0.0
    mu3: float = 0.0
    mu4: float = 0.0
    mu5: float = 0.0
    mu6: float = 0.0
    mu7: float = 0.0
    mu8: float = 0.0
    mu9: float = 0.0

    @property
    def is_hermitian(self):
        """True iff the built polynomial is Hermitian as an operator.

        Requires mu6 = 0, mu5 + 2 mu4 = 0 and mu9 = 0; the first two alone
        are necessary but not sufficient, since i*mu9*UV has no Hermitian
        completion inside the family (there is no constant term to absorb
        the theta shift).
        """
        return self.mu6 == 0 and self.mu5 + 2 * self.mu4 == 0 and self.mu9 == 0

    def as_coeffs(self):
        """The c_j image of Eq-style mu parameters: c4, c6, c9 imaginary."""
        return HamiltonianCoeffs((
            self.mu1, self.mu2, self.mu3, 1j * self.mu4, self.mu5,
            1j * self.mu6, self.mu7, self.mu8, 1j * self.mu9, 0.0,
        ))


class MuAbbrev(NamedTuple):
    """The combinations controlling the Dyson constraints."""

    mu78: float
    mu19: float
    mu23: float
    mu24: float
    mu68: float

    @classmethod
    def from_mu(cls, mu):
        """The abbreviations of `mu`, whose fields are floats or, for a
        block of members, float64 columns of one length."""
        mu1 = mu.mu1
        if (mu1 == 0).any() if isinstance(mu1, np.ndarray) else mu1 == 0:
            raise ValueError("mu1 must be nonzero")
        sq5, sq6 = _pow2(mu.mu5), _pow2(mu.mu6)
        return cls(
            (sq5 + sq6) / (4 * mu.mu1) - mu.mu7 + mu.mu8,        # mu78
            mu.mu5 * mu.mu6 / (2 * mu.mu1) - mu.mu9,             # mu19
            mu.mu2 * mu.mu5 / (2 * mu.mu1) - mu.mu6 / 2 - mu.mu3,  # mu23
            mu.mu2 * mu.mu6 / (2 * mu.mu1) - mu.mu5 / 2 - mu.mu4,  # mu24
            sq6 / (4 * mu.mu1) + mu.mu8,                         # mu68
        )


def _pow2(x):
    """x ** 2 by Python's float pow, value by value on a float64 column.

    numpy squares by x * x, which rounds differently from pow on about 9
    in 10,000 values, and only pow raises OverflowError past the float range.
    """
    if isinstance(x, np.ndarray):
        return np.array([v ** 2 for v in x.tolist()])
    return x ** 2


def _mu56(mu, ch, sh):
    """(mu6 cosh - mu5 sinh)/(2 mu1 (1 + cosh)) of lambda."""
    return (mu.mu6 * ch - mu.mu5 * sh) / (2 * mu.mu1 * (1 + ch))


@dataclass(frozen=True)
class RegionVerdict:
    """Outcome of a phase classification.

    `witness` names the inequality (or ratio) that decided the verdict;
    margins are signed, positive when the corresponding condition holds.
    In deformed general mode the second margin is +1.0 when a real lambda
    solves the mu3 condition, else minus the exact infimum over real lambda
    of |mu3_deformed(mu, lambda, theta) - mu3|.
    """

    phase: str
    witness: str
    margin1: float = math.nan
    margin2: float = math.nan
    lam: complex = None


def special_mu7(mu):
    return (mu.mu5 ** 2 + mu.mu6 ** 2 + 4 * mu.mu1 * mu.mu8) / (4 * mu.mu1)


def special_mu9(mu):
    return mu.mu5 * mu.mu6 / (2 * mu.mu1)


def with_special_choice(mu):
    """Fix mu7 and mu9 so the coth(2 lambda) constraint drops out."""
    if mu.mu1 == 0:
        raise ValueError("mu1 must be nonzero")
    return Mu(mu.mu1, mu.mu2, mu.mu3, mu.mu4, mu.mu5, mu.mu6,
              special_mu7(mu), mu.mu8, special_mu9(mu))


def build_general(coeffs, theta):
    """The normal-ordered polynomial with the given c_1..c_10."""
    return OperatorPoly(
        {m: coeffs.c[j] for j, m in enumerate(_BASIS) if coeffs.c[j] != 0},
        theta,
    )


def build_pt5(mu, theta):
    """The PT5-invariant Hamiltonian for the given mu parameters."""
    return build_general(mu.as_coeffs(), theta)


def extract_coeffs(p):
    """Read c_1..c_10 back off a polynomial; rejects higher monomials."""
    c = [0j] * 10
    for mono, w in p.terms.items():
        j = _BASIS_INDEX.get(mono)
        if j is None:
            raise ValueError(f"monomial U^{mono[0]} V^{mono[1]} J^{mono[2]} "
                             "is outside the degree-2 coefficient basis")
        c[j] = w
    return HamiltonianCoeffs(tuple(c))


def _engine_table(theta):
    """The c_1..c_10 of each g_k g_l, g = (1, U, V, J), from the engine."""
    gens = [OperatorPoly.identity(theta)]
    gens += [OperatorPoly.generator(g, theta) for g in ("U", "V", "J")]
    return np.array([[extract_coeffs(a * b).c for b in gens] for a in gens])


# Only V U = UV - i theta depends on theta, and linearly.
_TABLE_BASE = _engine_table(0.0)
_TABLE_SLOPE = _engine_table(1.0) - _TABLE_BASE


def product_table(theta):
    """The c_1..c_10 of each g_k g_l like `_engine_table`, except that it
    keeps -i theta at any theta, where the engine prunes it below PRUNE_TOL.
    """
    return _TABLE_BASE + theta * _TABLE_SLOPE


def constraint_residuals(coeffs, theta):
    """The ten signed Hermiticity residuals, all zero iff H = H^dagger.

    Ordered as [beta1, beta2, beta3 - alpha6/2, beta4 + alpha5/2, beta5,
    beta6, beta7, beta8, beta9, beta10 + theta*alpha9/2].  `coeffs` is a
    HamiltonianCoeffs or a complex array of c_1..c_10 along its last axis.
    """
    c = np.asarray(getattr(coeffs, "c", coeffs), dtype=complex)
    r = c.imag.copy()
    r[..., 2] -= c[..., 5].real / 2
    r[..., 3] += c[..., 4].real / 2
    r[..., 9] += theta * c[..., 8].real / 2
    return r


def arccoth(x):
    """Principal-branch inverse coth: 0.5*log((x+1)/(x-1)).

    Complex-capable.  For real x in (-1, 1) the imaginary part is +pi/2,
    which is the fixed branch used everywhere in this package.
    """
    x = complex(x)
    if x == 1 or x == -1:
        raise ZeroDivisionError("arccoth diverges at +/-1")
    w = (x + 1) / (x - 1)
    if w.imag == 0:
        # complex division can leave -0.0 here, which would flip cmath.log
        # onto the lower branch; pin the +pi/2 branch for real arguments
        w = complex(w.real, 0.0)
    return 0.5 * cmath.log(w)


def _coth(z):
    z = complex(z)
    s = cmath.sinh(z)
    if s == 0:
        raise ZeroDivisionError("coth pole at lambda = 0 (mod i*pi)")
    return cmath.cosh(z) / s


def rho_of_lambda(mu, lam):
    """rho = lam (mu5 - mu6 coth lam)/(2 mu1), continued through lam = 0."""
    return _rho(mu.mu1, mu.mu5, mu.mu6, lam)


def _rho(mu1, mu5, mu6, lam):
    """`rho_of_lambda` of the member with these mu1, mu5 and mu6."""
    lam = complex(lam)
    if abs(lam) < 1e-4:
        # lam*coth(lam) = 1 + lam^2/3 - lam^4/45 + ...
        lc = 1 + lam * lam / 3 - lam ** 4 / 45
    else:
        lc = lam * _coth(lam)
    return (lam * mu5 - mu6 * lc) / (2 * mu1)


def solve_pt5_undeformed(mu):
    """Dyson parameters for the theta = 0 family, Eq-13 style.

    lam is taken from coth(lam) = mu23/mu24 via the principal arccoth; the
    remaining coth(2 lam) = mu78/mu19 relation is reported as a
    compatibility residual since the system is overdetermined.  When the
    fourth relation is vacuous (mu23 = mu24 = 0) lam is taken from the
    third instead, and when both are vacuous lam = 0 is returned (any lam
    works; the conjugation is well-defined for the whole family).
    """
    ab = MuAbbrev.from_mu(mu)
    if ab.mu24 == 0 and ab.mu23 != 0:
        raise DegenerateLambdaError(
            "coth(lambda) = mu23/mu24 degenerates (mu24 = 0, mu23 != 0): "
            "lambda -> 0 is the only limit and the map becomes singular")

    def third_residual(lam):
        if ab.mu19 != 0:
            return abs(_coth(2 * lam) - ab.mu78 / ab.mu19)
        return 0.0 if ab.mu78 == 0 else math.inf

    if ab.mu24 == 0:
        # fourth relation vacuous; fall back to the third
        if ab.mu19 != 0:
            lam = arccoth(ab.mu78 / ab.mu19) / 2
            residual = 0.0
        else:
            lam = 0j
            residual = 0.0 if ab.mu78 == 0 else math.inf
    else:
        lam = arccoth(ab.mu23 / ab.mu24)
        residual = third_residual(lam)

    rho = rho_of_lambda(mu, lam)
    return DysonParams(lam, rho, 0.0, 0.0), float(residual)


def mu3_deformed(mu, lam, theta):
    """The mu3 value enforcing Hermiticity at deformation theta.

    Replaces the coth(lambda) = mu23/mu24 relation; reduces to
    mu3 = -mu24 coth(lam) + mu2 mu5/(2 mu1) - mu6/2 at theta = 0.
    The mu3 stored on `mu` is ignored (this is the equation for it).
    """
    ab = MuAbbrev.from_mu(mu)
    return _mu3_condition(mu.mu1, mu.mu2, 0.0, mu.mu5, mu.mu6, ab.mu19,
                          ab.mu24, ab.mu68, ab.mu78, theta)(float(lam))


def _mu3_condition(mu1, mu2, mu3, mu5, mu6, mu19, mu24, mu68, mu78, theta):
    """F(lam) = mu3_deformed(mu, lam, theta) - mu3 of the member with these
    values, as a function of a float lam; the terms free of lam are
    computed once."""
    neg24, c0, c6 = -mu24, mu2 * mu5 / (2 * mu1), mu6 / 2
    twice1, twice_theta = 2 * mu1, theta * 2

    def f(lam):
        ch, sh = math.cosh(lam), math.sinh(lam)
        if sh == 0:
            raise ValueError("lambda = 0 is singular in the (1+cosh)/sinh term")
        mu56 = (mu6 * ch - mu5 * sh) / (twice1 * (1 + ch))
        return (neg24 * ch / sh + c0 - c6 + twice_theta * mu56 * (
            mu19 * (0.5 + ch) - mu78 * sh - mu68 * (1 + ch) / sh) - mu3)
    return f


def _special_ratio(mu, theta):
    """The coth(lambda) ratio of the special-choice family."""
    ab = MuAbbrev.from_mu(mu)
    num = mu.mu1 * ab.mu23 + theta * mu.mu5 * ab.mu68
    den = mu.mu1 * ab.mu24 + theta * mu.mu6 * ab.mu68
    return num, den


def solve_pt5_special(mu, theta):
    """Dyson parameters under the special mu7, mu9 choice.

    coth(lam) = (mu1 mu23 + theta mu5 mu68)/(mu1 mu24 + theta mu6 mu68);
    |ratio| <= 1 yields complex lam (broken phase), visible on the returned
    params' reality flag.  Assumes the special choice is in force, otherwise
    the resulting map does not Hermitize the Hamiltonian.
    """
    ratio = _div(*_special_ratio(mu, theta))
    if math.isnan(ratio):
        raise ZeroDivisionError(
            "special-choice coth ratio has zero denominator; "
            "lambda degenerates")
    lam = arccoth(ratio)
    rho = lam * (mu.mu5 - mu.mu6 * ratio) / (2 * mu.mu1)
    return DysonParams(lam, rho, 0.0, theta)


def _where(cond, a, b):
    """a where `cond` holds, else b: `np.where` on a block's columns, a
    conditional expression on one point's values."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def _div(num, den):
    """num / den, NaN where den = 0 or the quotient is not finite."""
    if isinstance(den, np.ndarray):
        q = num / den
        return np.where(np.isfinite(q), q, math.nan)
    q = num / den if den != 0 else math.nan
    return q if math.isfinite(q) else math.nan


def _ratio_test(num, den):
    """(margin, at_boundary, `_div(num, den)`) of an |num| >= |den| test.

    A zero denominator never flags Boundary: 0/0 means the constraint is
    vacuous (satisfied with zero margin, lambda unconstrained by it) and
    |num| >= 0 with num != 0 is strictly satisfied.
    """
    ratio = _div(num, den)
    return abs(num) - abs(den), abs(abs(ratio) - 1) <= BOUNDARY_TOL, ratio


def _arccoths(mask, x):
    """arccoth(x) where `mask` holds: a complex128 column, 0 elsewhere, on a
    block; a complex or None on one point."""
    if not isinstance(mask, np.ndarray):
        return arccoth(x) if mask else None
    lam = np.zeros(mask.shape, dtype=complex)
    # arccoth stays in cmath, point by point: numpy's complex log differs
    # from libm's in the last bit, which the printed lambda would show
    lam[mask] = list(map(arccoth, x[mask].tolist()))
    return lam


def _unit_roots(c):
    """The real roots in (-1, 1) of each polynomial sum c[k] t^k, a row of
    the float array `c`: a row of roots each, NaN past them.

    Trailing zero coefficients drop.  The companion matrices are stacked by
    degree, one `eigvals` call per degree; a matrix in a stack gets the same
    eigenvalues, bit for bit, as one on its own.
    """
    nonzero = c != 0
    degree = np.where(nonzero.any(axis=1),
                      c.shape[1] - 1 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    roots = np.full((len(c), c.shape[1] - 1), math.nan)
    for n in sorted(set(degree.tolist())):
        idx = np.flatnonzero(degree == n)
        lead = c[idx, n:n + 1]
        col = -c[idx, :n] / lead
        if not (np.isfinite(col).all() and np.isfinite(lead).all()):
            raise ArithmeticError("non-finite mu3 condition coefficients")
        if n:
            comp = np.zeros((len(idx), n, n))
            comp[:, 1:, :-1] = np.eye(n - 1)
            comp[:, :, -1] = col
            z = np.linalg.eigvals(comp)
            roots[idx, :n] = np.where(
                (z.imag == 0) & (-1 < z.real) & (z.real < 1), z.real, math.nan)
    return roots


def _mu3_quintics(mu, ab, theta):
    """(R, e) of the deformed mu3 condition of each member (see
    `_deformed_mu3_roots`): the coefficients of R ascending, a row per
    member padded with zeros (R = 0 a row of zeros), and e, a row each."""
    a0, a1 = -mu.mu1 * ab.mu24, 2 * mu.mu1 * ab.mu23
    g, h, c = theta * mu.mu6, -2 * theta * mu.mu5, ab.mu19 / 2
    d = ab.mu68 - 2 * ab.mu78   # L = g + h t + g t^2, Q = -mu68 + 3c t + ...
    r = np.stack([a0 - g * ab.mu68, a1 + 3 * g * c - h * ab.mu68,
                  3 * h * c - 2 * g * ab.mu78, -a1 + 4 * g * c + h * d,
                  -a0 + g * d + h * c, g * c], axis=1)
    noise = 8 * math.ulp(1.0) * (_pow2(abs(mu.mu5) + abs(mu.mu6)) / abs(
        4 * mu.mu1) + abs(mu.mu7) + abs(mu.mu8) + abs(mu.mu9))
    # t - s divides (1 - t^2) A once (thrice if mu23 = s mu24), L twice if
    # mu6 = s mu5, Q once if mu78 = s mu19 up to their rounding noise
    k = np.stack([np.minimum(1 + 2 * (ab.mu23 == s * ab.mu24),
                             2 * (mu.mu6 == s * mu.mu5)
                             + (abs(ab.mu78 - s * ab.mu19) <= noise))
                  for s in (1.0, -1.0)], axis=1)
    e = np.concatenate([np.full((len(r), 1), -1), k - 1], axis=1)
    for j, s in enumerate((1.0, -1.0)):
        for count in range(1, k[:, j].max() + 1):
            # synthetic division by t - s; the remainder is rounding, and a
            # row padded with zeros divides as the row alone (up to -0.0)
            i = np.flatnonzero(k[:, j] >= count)
            q = r[i]
            for x in range(4, 0, -1):
                q[:, x] += s * q[:, x + 1]
            r[i, :-1], r[i, -1] = q[:, 1:], 0.0
    # the factors t: a row with R(0) = 0 but R != 0 shifts down a degree
    while (i := np.flatnonzero((r[:, 0] == 0) & r.any(axis=1))).size:
        r[i, :-1], r[i, -1], e[i, 0] = r[i, 1:], 0.0, e[i, 0] + 1
    return r, e


def _polished_root(f, t):
    """The root lam = 2 atanh(t) of f, polished by secant steps in lam.

    Scalar, in `math`: numpy's cosh, sinh and arctanh differ from libm's in
    the last bit on 14% to 18% of arguments, and the printed lambda would
    show it.
    """
    x = best = 2 * math.atanh(t)
    fx = f_best = f(x)
    y = x + 1e-8 * max(1.0, abs(x))
    for k in range(12):   # secant steps, clipped to 1, while |F| falls
        fy = f(y)
        if abs(fy) < abs(f_best):
            best, f_best = y, fy
        elif k or fy == fx:
            break
        x, fx, y = y, fy, y - min(1.0, max(-1.0, fy * (y - x) / (fy - fx)))
    return best


def _least_abs_f(r, e, mu1, ts):
    """inf |F| of a member without real roots: the least |F| over the
    critical points `ts` in t and the limits t = 0, 1, -1 that F keeps, the
    padding of `r` adding zeros.  Scalar: numpy's power is not libm's pow."""
    def f_of_t(t):
        return (-sum(x * t ** j for j, x in enumerate(r)) * t ** e[0]
                * (t - 1) ** e[1] * (t + 1) ** e[2] / (2 * mu1))

    ts += [s for s, j in zip((0.0, 1.0, -1.0), e) if j >= 0]
    return min((abs(f_of_t(t)) for t in ts if t or e[0] >= 0),
               default=math.inf)


def _deformed_mu3_roots(mu, ab, theta):
    """(lam, inf |F|) of deformed members: `mu`, `ab` = MuAbbrev.from_mu(mu)
    and `theta` hold float64 columns, and lam is the most negative real root
    of F(lam) = mu3_deformed(mu, lam, theta) - mu3, NaN where F has none.

    In t = tanh(lam/2), 2 mu1 t (1 - t^2) F is P = (1 - t^2) A + L Q with
    A = mu1 (2 mu23 t - mu24 (1 + t^2)), L = theta (mu6 (1 + t^2) - 2 mu5 t)
    and Q = mu19 t^3/2 + (mu68 - 2 mu78) t^2 + 3 mu19 t/2 - mu68.  Dividing
    out its exact factors t - 1, t + 1 (lam = +-inf) and t leaves R, with
    F = -R t^e0 (t - 1)^e1 (t + 1)^e2 / (2 mu1).  Real lam are the t in
    (-1, 1) but 0; with no root, inf |F| is over critical points and limits.

    Each stage runs over all members before the next: R (`_mu3_quintics`),
    the roots of every R (`_unit_roots`), the secant polish of each first
    root, then the roots of the critical-point polynomials of the rootless
    members.
    """
    r, e = _mu3_quintics(mu, ab, theta)
    lam, miss = np.where(r.any(axis=1), math.nan, -1.0), np.zeros(len(r))
    live = np.flatnonzero(np.isnan(lam))   # R = 0: every lam solves F = 0
    roots = _unit_roots(r[live])
    first = np.where(np.isnan(roots) | (roots == 0), np.inf, roots).min(axis=1)
    wet, dry = live[first < np.inf], live[first == np.inf]
    members = zip(*(x[wet].tolist() for x in (
        mu.mu1, mu.mu2, mu.mu3, mu.mu5, mu.mu6, ab.mu19, ab.mu24, ab.mu68,
        ab.mu78, theta)))
    for k, member, t in zip(wet.tolist(), members,
                            first[first < np.inf].tolist()):
        lam[k] = _polished_root(_mu3_condition(*member), t)
    if dry.size:
        # F' vanishes where R' T + R S does, T = t^3 - t, S = T sum e_s/(t - s)
        rd, ed = r[dry], e[dry]
        rp = np.pad(rd, ((0, 0), (2, 2)))
        j = np.arange(rd.shape[1] + 2)
        crit = ((j - 2 + ed.sum(axis=1, keepdims=True)) * rp[:, :-2]
                + (ed[:, 1:2] - ed[:, 2:]) * rp[:, 1:-1]
                - (ed[:, :1] + j) * rp[:, 2:])
        for k, rk, ek, mu1, ts in zip(
                dry.tolist(), rd.tolist(), ed.tolist(), mu.mu1[dry].tolist(),
                _unit_roots(crit).tolist()):
            miss[k] = _least_abs_f(rk, ek, mu1,
                                   sorted(t for t in ts if t == t))
    return lam, miss


class _Verdicts(NamedTuple):
    """The verdicts of PT5 points: each field a column for a block of
    points, a value for one point."""

    why: object       # the deciding branch, an index into _BRANCHES
    margin1: object
    margin2: object
    lam: object       # the map's lambda, where `mapped`
    mapped: object
    ratio: object     # the special coth ratio; None in general mode


# The branches that decide a PT5 verdict, as (phase, witness); the special
# ratio's witnesses take |ratio|.
_BRANCHES = (
    (BOUNDARY, "special coth ratio: zero denominator (lambda degenerates)"),
    (BOUNDARY, "|special coth ratio| = 1"),
    (SYMMETRIC, "|special coth ratio| = {!r}"),
    (BROKEN, "|special coth ratio| = {!r}"),
    (BROKEN, "violated: |mu78| >= |mu19|"),
    (BROKEN, "violated: |mu23| >= |mu24|"),
    (BROKEN, "violated: real lambda for mu3 condition"),
    (BOUNDARY, "mu3 condition grazes zero"),
    (BOUNDARY, "first ratio at 1"),
    (BOUNDARY, "second ratio at 1"),
    (SYMMETRIC, "both conditions hold"),
)
_PHASES = np.array([phase for phase, _ in _BRANCHES])


def _pt5_verdicts(mode, mu, theta):
    """The `_Verdicts` of PT5 points: `mu` is a Mu whose fields are floats
    (one point) or float64 columns (a block), and `theta` a float or a
    column.

    The same code runs on both: + - * / and abs in the order of the scalar
    formulas, squares by `_pow2`, comparisons, and `_where` for each
    choice, so a point in a block gets the bits it gets alone.  Per point
    are only the libm scalars: arccoth, and the deformed roots' polish and
    least |F|.  A deformed point alone is classified as a block of one.
    """
    if mode == "special":
        ratio = _div(*_special_ratio(mu, theta))
        margin = abs(ratio) - 1
        zero = ratio != ratio   # NaN: den = 0, or the ratio overflows
        # _BRANCHES 0: zero denominator, 1: |ratio| at 1, 2 and 3: ratio
        why = _where(zero | (abs(margin) <= BOUNDARY_TOL), 1 - zero,
                     3 - (margin > 0))
        mapped = why >= 2
        return _Verdicts(why, margin, math.nan, _arccoths(mapped, ratio),
                         mapped, ratio)
    if mode != "general":
        raise ValueError(f"unknown mode {mode!r}")

    # at mu5 = mu6 = 0 the deformed mu3 condition collapses to the
    # undeformed coth(lambda) = mu23/mu24 for every theta
    deformed = (theta != 0) & ((mu.mu5 != 0) | (mu.mu6 != 0))
    if not isinstance(deformed, np.ndarray) and deformed:
        block = Mu(*(np.array([x], dtype=float) for x in vars(mu).values()))
        with np.errstate(all="ignore"):
            v = _pt5_verdicts(mode, block, np.array([theta], dtype=float))
        mapped = bool(v.mapped[0])
        return _Verdicts(int(v.why[0]), float(v.margin1[0]),
                         float(v.margin2[0]),
                         complex(v.lam[0]) if mapped else None, mapped, None)

    ab = MuAbbrev.from_mu(mu)
    m1, b1, _ = _ratio_test(ab.mu78, ab.mu19)
    m2, b2, ratio = _ratio_test(ab.mu23, ab.mu24)
    mapped = _where(deformed, False,
                    (ratio == ratio) & (abs(ab.mu23) != abs(ab.mu24)))
    lam = _arccoths(mapped, ratio)
    graze = False
    if isinstance(deformed, np.ndarray) and deformed.any():
        d = np.flatnonzero(deformed)
        lam_d, miss = _deformed_mu3_roots(
            Mu(*(x[d] for x in vars(mu).values())),
            MuAbbrev(*(x[d] for x in ab)), theta[d])
        found = ~np.isnan(lam_d)
        graze = np.zeros(deformed.shape, dtype=bool)
        graze[d] = ~found & (miss <= BOUNDARY_TOL)
        lam[d], mapped[d], b2[d] = lam_d, found, graze[d]
        m2[d] = np.where(found, 1.0, np.where(graze[d], 0.0, -miss))
    viol1 = _where(b1, False, m1 < 0)
    viol2 = _where(b2, False, m2 < 0)
    # _BRANCHES 4-6: a violation, 7-9: at the boundary, 10: both hold
    why = _where(viol1, 4, _where(viol2, 5 + deformed, _where(
        b1 | b2, _where(graze, 7, 9 - b1), 10)))
    return _Verdicts(why, m1, m2, lam, mapped, None)


def classify_region(mu, theta, mode="general"):
    """Phase verdict for the PT5 family at the given deformation.

    general mode, theta = 0: the two inequalities |mu78| >= |mu19| and
    |mu23| >= |mu24|.  general mode, theta != 0: the first inequality is
    unchanged and the second is replaced by existence of a real lambda
    solving the deformed mu3 condition (checked exactly via the coth ratio
    when mu5 = mu6 = 0, else by the real roots of a quintic in tanh(lambda/2),
    all found up to |lambda| of about 35, where tanh(lambda/2) rounds to +-1).
    special mode: the single condition |coth ratio| > 1 of the special-choice
    family.  Boundary is returned when the deciding ratio sits within 1e-9 of
    1 (the mu3 mismatch within 1e-9 of 0), or on zero denominators.

    A general-mode Symmetric verdict means both conditions hold separately,
    not that one real map solves both: at mu = (1, 0, 1, 2, 1, 1, 0.5, 0.5,
    0.5) and theta = 12 it is Symmetric, yet mu19 = 0 while mu78 != 0, so
    coth(2 lam) = mu78/mu19 has no finite root.

    This is the one-point case of the block computation `classify_points`
    runs; only the witness text is made here.
    """
    v = _pt5_verdicts(mode, mu, theta)
    phase, witness = _BRANCHES[v.why]
    if v.ratio is not None:
        witness = witness.format(abs(v.ratio))
    return RegionVerdict(phase, witness, v.margin1, v.margin2, v.lam)


# The CLI hands `classify_points` at most this many grid points at a time:
# a deformed 40 x 40 grid in one block peaked at 1.8 MB of traced heap, in
# blocks of 256 points at 0.64 MB.
BLOCK_POINTS = 256


class Cells(NamedTuple):
    """The result columns of a block of grid points: float64 but for `lam`
    and `rho` (complex128) and `verdict` (a list of phase names).  `lam`,
    `rho` and `tau` hold the Dyson map where `mapped`; `margin2` is None
    for a model with one margin."""

    theta: np.ndarray
    lam: np.ndarray
    rho: np.ndarray
    tau: np.ndarray
    verdict: list
    margin1: np.ndarray
    margin2: np.ndarray
    mapped: np.ndarray


def classify_points(model, block):
    """The result columns (`Cells`) of a block of grid points for the CLI
    `model`: `block` maps "theta" and parameter names to float64 columns of
    one length, an absent parameter being 0.

    PT5 points are classified together (`_pt5_verdicts`); one point alone
    is what `classify_region` computes.  When a block fails, its points are
    re-run one at a time, so the error raised is that of the first failing
    point, as in a point-by-point run.  Toy and general-coeffs points are
    computed one by one.
    """
    if model in ("toy", "general-coeffs"):
        point = _toy_point if model == "toy" else _coeffs_point
        names = list(block)
        return _map_cells(block["theta"], [
            point(dict(zip(names, values)))
            for values in zip(*(block[k].tolist() for k in names))])
    try:
        return _pt5_cells(model, block)
    except (ValueError, ArithmeticError):
        for i in range(len(block["theta"])):
            _pt5_cells(model, {k: c[i:i + 1] for k, c in block.items()})
        raise


def _pt5_cells(model, block):
    theta = block["theta"]
    zero = np.zeros(len(theta))
    mu = Mu(*(block.get(k, zero) for k in MU_NAMES))
    mode = "special" if model == "pt5-special" else "general"
    with np.errstate(all="ignore"):   # inf and nan, as in float arithmetic
        v = _pt5_verdicts(mode, mu, theta)
    m = v.mapped
    rho = np.zeros(len(theta), dtype=complex)
    # _rho stays in cmath, point by point, for the reason arccoth does
    rho[m] = list(map(_rho, mu.mu1[m].tolist(), mu.mu5[m].tolist(),
                      mu.mu6[m].tolist(), v.lam[m].tolist()))
    return Cells(theta, v.lam, rho, zero, _PHASES[v.why].tolist(), v.margin1,
                 np.broadcast_to(v.margin2, theta.shape), m)


def _toy_point(p):
    """(phase, margin, Dyson map or None) of a toy grid point."""
    mu3, mu4 = p.get("mu3", 0.0), p.get("mu4", 0.0)
    # a quotient that overflows counts as mu4 = 0, as in the PT5 ratios
    margin = abs(_div(mu3, mu4)) - 1
    if math.isnan(margin) or abs(margin) <= BOUNDARY_TOL:
        return BOUNDARY, margin, None
    params = toy_dyson_params(p["mu1"], mu4, toy_lambda(mu3, mu4), p["theta"])
    return SYMMETRIC if margin > 0 else BROKEN, margin, params


def _coeffs_point(p):
    """(phase, margin, Dyson map) of a general-coeffs grid point."""
    params, residual, _ = solve_generic_numeric(coeffs_from_values(p),
                                                p["theta"])
    # a failed search is no proof of the broken phase; the margin is the
    # certificate residual's distance from its threshold
    phase = SYMMETRIC if residual <= CERT_TOL else UNRESOLVED
    return phase, CERT_TOL - residual, params


def _map_cells(theta, points):
    """The Cells of points given as (phase, margin1, Dyson map or None),
    with no second margin."""
    phases, margins, maps = zip(*points)

    def column(name, dtype):
        return np.array([0.0 if p is None else getattr(p, name) for p in maps],
                        dtype=dtype)

    return Cells(theta, column("lam", complex), column("rho", complex),
                 column("tau", float), list(phases),
                 np.array(margins, dtype=float), None,
                 np.array([p is not None for p in maps]))


def coeffs_from_values(values):
    """The coefficients c_k + i c_k_im of a name -> value map, 0 if absent."""
    return HamiltonianCoeffs(tuple(
        complex(values.get(f"c{k}", 0.0), values.get(f"c{k}_im", 0.0))
        for k in range(1, 11)))


def hermitian_counterpart_pt5(mu, theta):
    """The closed-form Hermitian partner of the special-choice family.

    Valid when mu7, mu9 take their special values and the solved lambda is
    real; otherwise raises.  Must agree with conjugating the Hamiltonian by
    the solved Dyson map, which the tests check coefficient by coefficient.
    """
    if abs(mu.mu7 - special_mu7(mu)) > 1e-9 or abs(mu.mu9 - special_mu9(mu)) > 1e-9:
        raise ValueError("mu7/mu9 do not take the special-choice values")
    params = solve_pt5_special(mu, theta)
    if not params.is_real:
        num, den = _special_ratio(mu, theta)
        raise BrokenPhaseError(
            f"|coth ratio| = {abs(num / den)} <= 1, lambda is complex")
    lam = params.lam.real
    ch, sh = math.cosh(lam), math.sinh(lam)
    ab = MuAbbrev.from_mu(mu)
    mu56, mu68 = _mu56(mu, ch, sh), ab.mu68
    mu65 = mu.mu5 / 2 - mu.mu6 / 2 * math.tanh(lam / 2)

    c_j = mu.mu2 + theta * mu.mu6 * mu56
    c_u2 = mu.mu8 + mu.mu5 ** 2 / (4 * mu.mu1) + mu.mu6 * mu56
    c_u = (mu.mu2 / mu.mu1 * mu65 - ab.mu23 * ch + ab.mu24 * sh
           + theta * mu56 * (mu.mu6 / mu.mu1 * mu65 + 2 * mu68 * sh))
    scalar = (-theta * (mu.mu5 * mu.mu6 / (4 * mu.mu1)
                        + mu56 * (ab.mu24 * ch - ab.mu23 * sh
                                  - mu.mu4 - mu.mu5 / 2))
              - theta ** 2 * mu56 ** 2 * (mu68 * (1 + 2 * ch) + mu.mu8))

    # mu65 {U, J} with {U, J} = 2 UJ - iV in normal order
    return OperatorPoly({
        (0, 0, 2): mu.mu1,
        (0, 0, 1): c_j,
        (2, 0, 0): c_u2,
        (0, 2, 0): mu68,
        (1, 0, 0): c_u,
        (1, 0, 1): 2 * mu65,
        (0, 1, 0): -1j * mu65,
        (0, 0, 0): scalar,
    }, theta)


def toy_mu(mu1, mu4, lam):
    """The fully pinned toy family: mu2 = 0, mu5 = -2 mu4, mu6 = -2 mu3,
    mu8 = -mu3^2/mu1 with mu3 = mu4 coth(lam/2), special mu7 and mu9."""
    mu3 = mu4 / math.tanh(lam / 2)
    return with_special_choice(Mu(
        mu1=mu1, mu2=0.0, mu3=mu3, mu4=mu4,
        mu5=-2 * mu4, mu6=-2 * mu3, mu8=-mu3 ** 2 / mu1,
    ))


def toy_dyson_params(mu1, mu4, lam, theta):
    """The Dyson map of the toy family member at the given lam:
    rho = lam mu4/(2 mu1 sinh^2(lam/2)), tau = 0.  A complex lam (as from
    `toy_lambda`, complex on the broken branch) takes complex arithmetic."""
    # a real lam stays in float arithmetic, whose squaring rounds differently
    sinh = cmath.sinh if isinstance(lam, complex) else math.sinh
    rho = lam * mu4 / (2 * mu1 * sinh(lam / 2) ** 2)
    return DysonParams(lam, rho, 0.0, theta)


def toy_lambda(mu3, mu4):
    """Inverse toy parameterization lam = 2 arccoth(mu3/mu4)."""
    return 2 * arccoth(mu3 / mu4)


def toy_model(mu1, mu4, lam=None, theta=0.0, mu3=None):
    """The toy Hermitian counterpart h = mu1 J^2 + eps J + shift.

    eps = theta mu4^2 / (mu1 sinh^2(lam/2)) and
    shift = (theta mu4^2 / mu1)(eps - coth(lam/2)), as stated in the source
    closed form; the engine conjugation arbitrates the scalar (see tests).
    Pass either lam directly or mu3 for the inverse parameterization
    lam = 2 arccoth(mu3/mu4); |mu3/mu4| <= 1 makes lam complex and is
    rejected as broken-phase.
    """
    if mu1 == 0:
        raise ValueError("mu1 must be nonzero")
    if (lam is None) == (mu3 is None):
        raise ValueError("pass exactly one of lam, mu3")
    if lam is None:
        z = toy_lambda(mu3, mu4)
        if abs(z.imag) > 1e-10:
            raise BrokenPhaseError(
                f"|mu3/mu4| <= 1 gives complex lambda {z}")
        lam = z.real
    lam = float(lam)
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    s2 = math.sinh(lam / 2) ** 2
    eps = theta * mu4 ** 2 / (mu1 * s2)
    shift = theta * mu4 ** 2 / mu1 * (eps - 1 / math.tanh(lam / 2))
    h = OperatorPoly({(0, 0, 2): mu1, (0, 0, 1): eps, (0, 0, 0): shift},
                     theta)
    return h, eps, shift


def toy_spectrum(mu1, epsilon, n, convention="oracle"):
    """Energy of mode n for h = mu1 J^2 + eps J (scalar shift excluded).

    "oracle": E_n = mu1 n^2 - eps n, from single-valued e^{i n phi} modes
    (J acts as -n on them, matching the circle representation).
    "paper": E_n = 4 pi^2 mu1 n^2 - 2 pi eps n, the published convention;
    it equals the oracle value with n -> 2 pi n.  Both kept deliberately.
    """
    if convention == "oracle":
        return mu1 * n * n - epsilon * n
    if convention == "paper":
        return 4 * math.pi ** 2 * mu1 * n * n - 2 * math.pi * epsilon * n
    raise ValueError(f"unknown convention {convention!r}")


# The general-coeffs solver samples residual rows at Chebyshev nodes in
# t = tanh(lam/2).  On either elimination curve the images are rational in
# t with denominator 1 - t^2, so each row times (1 - t^2)^2 is a polynomial
# in t, of degree 6 at most (the constant row; U and V 5; the others 4).
_ANGLES = np.pi * (np.arange(12) + 0.5) / 12   # the nodes are t = cos(angle)
_LAM_NODES = 2 * np.arctanh(np.cos(_ANGLES))
# node values -> Chebyshev coefficients of (1 - t^2)^2 = sin^4 times them
# (at its own nodes the Chebyshev-Vandermonde matrix inverts by cosines)
_TO_CHEB = np.cos(np.outer(np.arange(12), _ANGLES)) * np.sin(_ANGLES) ** 4 / 6
_TO_CHEB[0] /= 2
_ROW_DEGREE = 8
_ROUNDING = 1e-10   # rounding: a coefficient below this times a row's largest
# x T_k in the Chebyshev basis: x T_0 = T_1, x T_k = (T_(k-1) + T_(k+1))/2
_COLLEAGUE = 0.5 * (np.eye(_ROW_DEGREE, k=1) + np.eye(_ROW_DEGREE, k=-1))
_COLLEAGUE[1, 0] = 1.0


def _coeff_matrix(c):
    """C with H = sum C[k, l] g_k g_l over the factors g = (1, U, V, J)."""
    cmat = np.zeros((4, 4), dtype=complex)
    cmat[_LEFT, _RIGHT] = c
    return cmat


def _conjugated_coeffs(cmat, theta, lam, rho, tau):
    """The c_1..c_10 of eta H eta^-1 for arrays of real maps, shape (n, 10).

    Conjugation by a linear exponent maps span{1, U, V, J} into itself, so
    conjugating both factors of each g_k g_l turns C into Q = s C s^T, with
    s the closed-form image matrices, and `product_table` maps Q's 16
    entries to c_1..c_10.  This is the only evaluation of the 10x10 map.
    """
    s = closed_image_columns(lam, rho, tau, theta)
    sc = (s.reshape(-1, 4) @ cmat).reshape(s.shape)
    q = sc @ s.transpose(0, 2, 1)
    return q.reshape(-1, 16) @ product_table(theta).reshape(16, 10)


def _max_abs(r):
    """Row-wise max |r|, with inf for rows that are not finite."""
    m = np.max(np.abs(r), axis=-1)
    return np.where(np.isfinite(m), m, math.inf)


def _uj_vj_solution(c):
    """(rho, tau)(lam) zeroing the UJ and VJ residuals, for c1 != 0.

    Only c5 UJ, c6 VJ and c1 J^2 reach UJ and VJ.  Their coefficients in
    eta H eta^-1 are c5 ch + i c6 sh + 2 c1 s_U(J) and c6 ch - i c5 sh
    + 2 c1 s_V(J), with s_U(J) = rho C2 - i tau S and s_V(J) = tau C2
    + i rho S the U and V components of eta J eta^-1 (S = sinh(lam)/lam
    >= 1, C2 = (1 - cosh(lam))/lam).  So the two residuals are
    A [rho, tau] + b, and A multiplies rho + i tau by
    w = 2 (Im c1 C2 + i Re c1 S), which vanishes only at c1 = 0.
    """
    c1, c5, c6 = c[0], c[4], c[5]

    def solve(lam):
        ch, sh, s1, c2, _ = lam_functions_array(lam)
        b = (c5 * ch + 1j * c6 * sh).imag + 1j * (c6 * ch - 1j * c5 * sh).imag
        z = -b / (2 * (c1.imag * c2 + 1j * c1.real * s1))
        return z.real + 0.0, z.imag + 0.0   # no -0.0 at b = 0
    return solve


def _c1_zero_solution(cmat0, theta):
    """(rho, tau)(lam) solving the J, U^2, V^2 and UV rows at c1 = 0.

    Without c1 J^2 those four rows are affine in (rho, tau); they are
    solved in least squares, read off the residuals at (rho, tau) = (0, 0),
    (1, 0) and (0, 1).
    """
    def solve(lam):
        n = len(lam)
        r = _conjugated_coeffs(
            cmat0, theta, np.tile(lam, 3), np.repeat([0.0, 1.0, 0.0], n),
            np.repeat([0.0, 0.0, 1.0], n))
        b, r_rho, r_tau = constraint_residuals(r, theta)[
            :, [1, 6, 7, 8]].reshape(3, n, 4)
        a = np.stack([r_rho - b, r_tau - b], axis=-1)
        bad = ~(np.isfinite(a).all(axis=(1, 2)) & np.isfinite(b).all(axis=1))
        a[bad], b[bad] = 0.0, 0.0
        x = -(np.linalg.pinv(a) @ b[:, :, None])[:, :, 0]
        x[bad] = math.nan
        return x[:, 0] + 0.0, x[:, 1] + 0.0   # no -0.0 at b = 0
    return solve


def _gauss_newton(cmat, theta, x):
    """Gauss-Newton on all ten residuals over x = (lam, rho, tau).

    Returns the last iterate, its max-norm residual and its conjugated
    c_1..c_10, from the same `_conjugated_coeffs` call that gives the step's
    finite differences.  Steps go on while that residual keeps decreasing,
    at most nine after x, so the last iterate is the best; they stop at a
    Jacobian that is not finite, where no nearby point can certify either.
    """
    best = (x, math.inf, None)
    for _ in range(10):
        h = 1e-7 * np.maximum(1.0, np.abs(x))
        pts = x + np.vstack([np.zeros(3), np.diag(h)])
        rows = _conjugated_coeffs(cmat, theta, pts[:, 0], pts[:, 1], pts[:, 2])
        r = constraint_residuals(rows, theta)
        size = float(_max_abs(r[0]))
        if not size < best[1]:
            break
        best = (x, size, rows[0])
        jac = (r[1:] - r[0]).T / h
        if not np.isfinite(jac).all():
            break
        x = x + np.linalg.lstsq(jac, -r[0], rcond=None)[0]
    return best


def solve_generic_numeric(coeffs, theta):
    """Search real (lam, rho, tau) Hermitizing the given Hamiltonian.

    Works for any of the invariant families (no tau = 0 assumption).  The
    candidates are lam = 0 and the real roots, over all real lam, of the
    residual rows along two elimination curves (`_candidate_maps`), ranked
    by max-norm residual with ties to the smaller |lam| (so a Hermitian
    input gets the identity map); the best three are polished by
    Gauss-Newton steps in (lam, rho, tau) on all ten residuals.  The J^2
    residual is Im c1 for every map: when |Im c1| > CERT_TOL nothing can
    certify, and the identity map comes back unpolished.

    Every residual is a row of `_conjugated_coeffs`, the one evaluation of
    the 10x10 map: the first polished map whose max-norm residual is at
    most CERT_TOL is returned (Symmetric phase), otherwise the map with the
    smallest residual.  Returns (params, residual, h), with h the
    HamiltonianCoeffs of eta H eta^-1 at that map, the row the residual was
    taken on.  The independent route is the exp(ad) oracle of `verify` and
    the benchmark check.  A failed search proves nothing about the phase.
    """
    c = np.array(coeffs.c, dtype=complex)
    cmat = _coeff_matrix(c)
    search = abs(c[0].imag) <= CERT_TOL
    with np.errstate(all="ignore"):
        maps = _candidate_maps(c, cmat, theta) if search else np.zeros((3, 1))
        rows = _conjugated_coeffs(cmat, theta, *maps)
        m = _max_abs(constraint_residuals(rows, theta))
        best = (maps[:, 0], m[0], rows[0])
        for i in np.lexsort((np.abs(maps[0]), m))[:3 * search]:
            found = _gauss_newton(cmat, theta, maps[:, i])
            if found[1] <= best[1]:
                best = found
            if best[1] <= CERT_TOL:
                break
    x, residual, h = best
    if not residual < math.inf:
        raise ArithmeticError("residuals non-finite at every candidate map")
    return (DysonParams(float(x[0]), float(x[1]), float(x[2]), theta),
            residual, HamiltonianCoeffs(tuple(h)))


def _candidate_maps(c, cmat, theta):
    """Candidate maps (lam, rho, tau), shape (3, n), on both elimination
    curves, each giving (rho, tau) at every lam: for c1 != 0 the UJ and VJ
    rows fix them (`_uj_vj_solution`); at c1 = 0, and in the c1 -> 0 limit
    where that is ill-conditioned, the J, U^2, V^2 and UV rows do, with c1
    zeroed (`_c1_zero_solution`).  There the UJ and VJ rows are free of
    (rho, tau) and sampled at rho = tau = 0; when c5 = c6 = 0 they vanish
    and the U^2, V^2 and UV rows, then free of (rho, tau), stand in.
    """
    cmat0 = _coeff_matrix(np.concatenate([[0.0], c[1:]]))
    maps = []
    if c[0] != 0:
        solve = _uj_vj_solution(c)
        r = _conjugated_coeffs(cmat, theta, _LAM_NODES, *solve(_LAM_NODES))
        maps.append(_curve_maps(solve, constraint_residuals(r, theta)))
    rows = [4, 5] if c[4] or c[5] else [6, 7, 8]
    r = _conjugated_coeffs(cmat0, theta, _LAM_NODES,
                           *np.zeros((2, _LAM_NODES.size)))
    maps.append(_curve_maps(_c1_zero_solution(cmat0, theta),
                            constraint_residuals(r, theta)[:, rows]))
    return np.concatenate(maps, axis=1)


def _curve_maps(solve, r):
    """The maps at lam = 0 and at the real roots of the sampled rows `r`
    (nodes by rows) that are polynomials in t: finite, not zero, and of
    degree at most _ROW_DEGREE without their rounding coefficients.  The
    roots are eigenvalues of the rows' colleague matrices, padded with
    eigenvalues 2, from one `eigvals` call; `solve` gives (rho, tau).
    """
    coef = _TO_CHEB @ r
    big = np.abs(coef) > _ROUNDING * np.max(np.abs(coef), axis=0)
    # the last big coefficient; 11, past _ROW_DEGREE, where none is big
    degree = len(coef) - 1 - np.argmax(big[::-1], axis=0)
    mats = [2 * np.eye(_ROW_DEGREE)]   # all padding: the stack is never empty
    for col, n in zip(coef.T, degree):
        if 0 < n <= _ROW_DEGREE:
            mats.append(2 * np.eye(_ROW_DEGREE))
            mats[-1][:n, :n] = _COLLEAGUE[:n, :n]
            # T_n = -sum_k col[k] T_k / col[n] in x T_(n-1)
            mats[-1][:n, n - 1] -= col[:n] / (col[n] * min(n, 2))
    t = np.linalg.eigvals(np.array(mats)).ravel()
    t = t.real[(t.imag == 0) & (np.abs(t.real) < 1)]
    lam = 2 * np.arctanh(np.append(0.0, t))
    return np.array([lam, *solve(lam)])


def solve_generic_multistart(coeffs, theta):
    """Search real (lam, rho, tau) by multistart optimization.

    An independent route that the tests and `verify` compare
    `solve_generic_numeric` against; the CLI does not call it.
    Multi-start quasi-Newton on the summed squared Hermiticity residuals
    of one `_conjugated_coeffs` row per point, each start polished by
    nonlinear least squares.  Returns at the first start whose max-norm
    residual is at most CERT_TOL, which certifies a numerically Hermitizing
    real map (Symmetric phase), otherwise the best of all starts.  Failure
    to certify is only a candidate for the broken phase, never a proof.
    The starts are zero, then 15 draws from a fixed generator, so the
    search is deterministic.
    """
    cmat = _coeff_matrix(coeffs.c)

    def resid(x):
        r = constraint_residuals(
            _conjugated_coeffs(cmat, theta, x[:1], x[1:2], x[2:]), theta)[0]
        return np.where(np.isfinite(r), r, 1e50)

    def objective(x):
        r = resid(x)
        return 0.5 * float(r @ r)

    rng = np.random.default_rng(0)
    starts = [np.zeros(3)]
    starts += [rng.uniform(-2.0, 2.0, 3) for _ in range(15)]
    bounds = [(-20.0, 20.0)] * 3

    best_x, best_r = None, math.inf
    for x0 in starts:
        res = minimize(objective, x0, method="L-BFGS-B", bounds=bounds)
        pol = least_squares(resid, np.clip(res.x, -20, 20),
                            bounds=(-20, 20), xtol=1e-15, ftol=1e-15,
                            gtol=1e-15)
        r = float(np.max(np.abs(resid(pol.x))))
        if r < best_r:
            best_x, best_r = pol.x, r
        if best_r <= CERT_TOL:
            break
    if not math.isfinite(best_r):
        raise ArithmeticError("objective non-finite at every optimum")
    params = DysonParams(float(best_x[0]), float(best_x[1]),
                         float(best_x[2]), theta)
    return params, best_r


def find_exceptional_point(family, bracket, mode="general", tol=BOUNDARY_TOL):
    """Bisect a one-parameter family to the phase boundary.

    `family` maps the sweep parameter t to (Mu, theta).  The verdicts at the
    bracket ends must differ; bisection then narrows the bracket to `tol`,
    or until no float lies between its ends, and returns the boundary
    parameter (immediately, if a midpoint lands on Boundary) with the
    phases of the two ends: (point, phase_low, phase_high).
    """
    a, b = float(bracket[0]), float(bracket[1])
    va = classify_region(*family(a), mode=mode).phase
    vb = classify_region(*family(b), mode=mode).phase
    if va == vb:
        raise ValueError(
            f"bracket endpoints agree ({va}); no boundary to bisect")
    while abs(b - a) > tol:
        m = 0.5 * (a + b)
        if m == a or m == b:  # adjacent floats: no midpoint left to try
            break
        vm = classify_region(*family(m), mode=mode).phase
        if vm == BOUNDARY:
            return m, va, vb
        if vm == va:
            a = m
        else:
            b = m
    return 0.5 * (a + b), va, vb
