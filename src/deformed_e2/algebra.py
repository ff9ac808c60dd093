"""Normal-ordered operator algebra on the deformed Euclidean algebra E2.

Three Hermitian generators U, V, J obey

    [U, J] = iV,      [V, J] = -iU,      [U, V] = i*theta,

with a real deformation parameter theta; theta = 0 recovers the ordinary
Euclidean algebra e2.  Every element of the enveloping algebra is stored as a
complex linear combination of PBW monomials U^a V^b J^c, so each polynomial
has a unique normal-ordered representation.  All rewriting used to restore
that order follows from the three relations above:

    J U = U J - iV,   J V = V J + iU,   V U = U V - i*theta.

Polynomials are immutable after construction and every operation is a pure
function, so values can be shared freely between threads.
"""

from __future__ import annotations

from enum import Enum
from math import comb

# Coefficients with magnitude below this are dropped when a polynomial is
# built.  Comparisons elsewhere always use looser, explicit tolerances so
# pruning cannot mask a real mismatch.
PRUNE_TOL = 1e-14

# Monomials are exponent triples (a, b, c) standing for U^a V^b J^c.


class ThetaMismatchError(ValueError):
    """Two polynomials with different deformation parameters were combined."""


class PTKind(Enum):
    """The five antilinear symmetry candidates of the algebra.

    PT3, PT4, PT5 leave the deformed relations invariant for every theta;
    PT1 and PT2 are symmetries of the undeformed algebra only and fail the
    algebra consistency check once theta != 0 (see
    :func:`pt_algebra_consistent`).
    """

    PT1 = 1  # J -> -J, U -> -U, V -> -V, i -> -i
    PT2 = 2  # J -> -J, U ->  U, V ->  V, i -> -i
    PT3 = 3  # J ->  J, U ->  V, V ->  U, i -> -i
    PT4 = 4  # J ->  J, U -> -U, V ->  V, i -> -i
    PT5 = 5  # J ->  J, U ->  U, V -> -V, i -> -i


def _acc(terms, key, value):
    """Accumulate value onto terms[key] in place."""
    terms[key] = terms.get(key, 0j) + value


def _times_u(terms, theta):
    """Right-multiply a normal-ordered term dict by U.

    Uses J^c U = sum_k C(c,k) [U (k even) | -iV (k odd)] J^(c-k), which
    follows from iterating JU = UJ - iV and JV = VJ + iU, and then
    V^b U = U V^b - i*theta*b V^(b-1).
    """
    out = {}
    for (a, b, c), w in terms.items():
        for k in range(c + 1):
            wk = w * comb(c, k)
            if k % 2 == 0:
                _acc(out, (a + 1, b, c - k), wk)
                if b:
                    _acc(out, (a, b - 1, c - k), wk * (-1j * theta * b))
            else:
                _acc(out, (a, b + 1, c - k), -1j * wk)
    return out


def _times_v(terms, theta):
    """Right-multiply a normal-ordered term dict by V."""
    out = {}
    for (a, b, c), w in terms.items():
        for k in range(c + 1):
            wk = w * comb(c, k)
            if k % 2 == 0:
                _acc(out, (a, b + 1, c - k), wk)
            else:
                _acc(out, (a + 1, b, c - k), 1j * wk)
                if b:
                    _acc(out, (a, b - 1, c - k), wk * (theta * b))
    return out


def _times_monomial(terms, a, b, c, theta):
    """Right-multiply a term dict by the normal-ordered monomial U^a V^b J^c."""
    cur = terms
    for _ in range(a):
        cur = _times_u(cur, theta)
    for _ in range(b):
        cur = _times_v(cur, theta)
    if c:
        cur = {(x, y, z + c): w for (x, y, z), w in cur.items()}
    return cur


class OperatorPoly:
    """A normal-ordered polynomial in U, V, J with complex coefficients.

    Parameters
    ----------
    terms : dict
        Mapping from exponent triples (a, b, c) to complex coefficients.
        Keys must already be in PBW order (they always are, because only
        exponents are stored).
    theta : float
        Deformation parameter of the algebra the polynomial lives in.
        Operations combining two polynomials require equal theta.
    """

    __slots__ = ("terms", "theta")

    def __init__(self, terms, theta):
        clean = {}
        for key, w in terms.items():
            w = complex(w)
            if abs(w) >= PRUNE_TOL:
                clean[key] = w
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "theta", float(theta))

    def __setattr__(self, name, value):
        raise AttributeError("OperatorPoly is immutable")

    # ---- constructors ----

    @classmethod
    def zero(cls, theta):
        return cls({}, theta)

    @classmethod
    def identity(cls, theta):
        return cls({(0, 0, 0): 1.0}, theta)

    @classmethod
    def generator(cls, name, theta):
        """The generator U, V or J as a polynomial."""
        idx = {"U": (1, 0, 0), "V": (0, 1, 0), "J": (0, 0, 1)}
        return cls({idx[name]: 1.0}, theta)

    # ---- inspection ----

    def coeff(self, a, b, c):
        """Coefficient of U^a V^b J^c (0 if absent)."""
        return self.terms.get((a, b, c), 0j)

    @property
    def degree(self):
        """Total degree, -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(a + b + c for a, b, c in self.terms)

    def is_zero(self, tol=0.0):
        return all(abs(w) <= tol for w in self.terms.values()) if tol else not self.terms

    def max_abs_coeff(self):
        return max((abs(w) for w in self.terms.values()), default=0.0)

    # ---- arithmetic ----

    def _require_same_theta(self, other):
        if self.theta != other.theta:
            raise ThetaMismatchError(
                f"deformation parameters differ: {self.theta} vs {other.theta}"
            )

    def __add__(self, other):
        if not isinstance(other, OperatorPoly):
            other = complex(other) * OperatorPoly.identity(self.theta)
        self._require_same_theta(other)
        out = dict(self.terms)
        for key, w in other.terms.items():
            _acc(out, key, w)
        return OperatorPoly(out, self.theta)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1) * (other if isinstance(other, OperatorPoly)
                              else complex(other) * OperatorPoly.identity(self.theta))

    def __rsub__(self, other):
        return (-1) * self + other

    def __neg__(self):
        return (-1) * self

    def __mul__(self, other):
        if isinstance(other, OperatorPoly):
            return normal_order_product(self, other)
        return OperatorPoly({k: w * complex(other) for k, w in self.terms.items()},
                            self.theta)

    def __rmul__(self, other):
        # scalars commute with everything; operator * operator goes via __mul__
        return self * other

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative operator powers are not defined")
        out = OperatorPoly.identity(self.theta)
        for _ in range(int(n)):
            out = normal_order_product(out, self)
        return out

    def dagger(self):
        return dagger(self)

    # ---- comparison ----

    def __eq__(self, other):
        if not isinstance(other, OperatorPoly):
            return NotImplemented
        return self.theta == other.theta and self.terms == other.terms

    def __hash__(self):
        return hash((self.theta, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (a, b, c) in sorted(self.terms, key=lambda k: (sum(k), k)):
            w = self.terms[(a, b, c)]
            name = "".join(
                f"{g}^{e}" if e > 1 else g
                for g, e in (("U", a), ("V", b), ("J", c)) if e
            ) or "1"
            bits.append(f"({w:.6g})*{name}")
        return " + ".join(bits)


def normal_order_product(p, q):
    """Normal-ordered product p*q.

    Exact in the coefficients up to floating-point rounding; the degree never
    exceeds degree(p) + degree(q).
    """
    p._require_same_theta(q)
    out = {}
    for (a, b, c), w in q.terms.items():
        for key, u in _times_monomial(p.terms, a, b, c, p.theta).items():
            _acc(out, key, u * w)
    return OperatorPoly(out, p.theta)


def commutator(p, q):
    """[p, q] = pq - qp, normal-ordered."""
    return normal_order_product(p, q) - normal_order_product(q, p)


def anticommutator(p, q):
    """{p, q} = pq + qp, normal-ordered."""
    return normal_order_product(p, q) + normal_order_product(q, p)


def dagger(p):
    """Hermitian conjugate.

    The generators are Hermitian, so conjugation reverses each monomial and
    conjugates its coefficient; the reversed word J^c V^b U^a is re-expanded
    into the PBW basis.  dagger is involutive and anti-multiplicative.
    """
    out = {}
    for (a, b, c), w in p.terms.items():
        rev = _times_monomial({(0, 0, c): w.conjugate()}, 0, b, 0, p.theta)
        rev = _times_monomial(rev, a, 0, 0, p.theta)
        for key, u in rev.items():
            _acc(out, key, u)
    return OperatorPoly(out, p.theta)


# For each kind: (sign of U, sign of V, sign of J, swap U<->V?).  The
# coefficient is always conjugated (antilinear maps).
_PT_ACTION = {
    PTKind.PT1: (-1, -1, -1, False),
    PTKind.PT2: (+1, +1, -1, False),
    PTKind.PT3: (+1, +1, +1, True),
    PTKind.PT4: (-1, +1, +1, False),
    PTKind.PT5: (+1, -1, +1, False),
}


def pt_apply(kind, p):
    """Apply one of the antilinear maps PT1..PT5 to a polynomial.

    Coefficients are conjugated and generators are mapped according to the
    symmetry table; the image is returned normal-ordered (relevant for PT3,
    which swaps U and V and therefore reorders every mixed monomial).
    """
    su, sv, sj, swap = _PT_ACTION[kind]
    out = {}
    for (a, b, c), w in p.terms.items():
        w = w.conjugate() * (su ** a) * (sv ** b) * (sj ** c)
        if swap:
            # U^a V^b J^c -> V^a U^b J^c, then restore PBW order
            img = _times_monomial({(0, a, 0): w}, b, 0, c, p.theta)
            for key, u in img.items():
                _acc(out, key, u)
        else:
            _acc(out, (a, b, c), w)
    return OperatorPoly(out, p.theta)


def max_coeff_diff(p, q):
    """Max-norm of the coefficient difference p - q (theta must match)."""
    p._require_same_theta(q)
    keys = set(p.terms) | set(q.terms)
    return max((abs(p.terms.get(k, 0j) - q.terms.get(k, 0j)) for k in keys),
               default=0.0)


def hermiticity_residual(p):
    """Max-norm of the coefficients of p - dagger(p); zero iff Hermitian."""
    return max_coeff_diff(p, dagger(p))


def pt_invariance_check(kind, p, tol=1e-12):
    """True iff p is invariant under the given map to within tol."""
    return max_coeff_diff(p, pt_apply(kind, p)) < tol


def pt_algebra_consistent(kind, theta, tol=1e-12):
    """Check whether a map is still an algebra symmetry at this deformation.

    An antilinear map phi is consistent with the algebra iff
    phi([x, y]) = [phi(x), phi(y)] for all generator pairs.  PT3/PT4/PT5
    pass for every theta; PT1/PT2 fail the [U, V] = i*theta relation as soon
    as theta != 0, which is precisely how their breaking by the deformation
    shows up at the algebra level.
    """
    gens = [OperatorPoly.generator(g, theta) for g in ("U", "V", "J")]
    for i in range(3):
        for j in range(i + 1, 3):
            lhs = pt_apply(kind, commutator(gens[i], gens[j]))
            rhs = commutator(pt_apply(kind, gens[i]), pt_apply(kind, gens[j]))
            if max_coeff_diff(lhs, rhs) >= tol:
                return False
    return True
