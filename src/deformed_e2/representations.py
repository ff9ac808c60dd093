"""Truncated matrix representations of the deformed E2 algebra.

Three concrete realizations back the abstract algebra:

fock     U = sqrt(theta/2)(a + a^dag), V = -i sqrt(theta/2)(a - a^dag),
         J = a^dag a + j0, on N number states.  Exact in infinite
         dimension; needs theta > 0.
planar   Two-oscillator realization of the Bopp shift
         J = y p_x - x p_y, U = x - (theta/2) p_y, V = y + (theta/2) p_x
         on N_x x N_y oscillator levels; any theta, including 0.
circle   Fourier modes on the circle; only J is represented
         (J = diag(-M..M)), so only polynomials in J can be mapped.
         On the mode e^{i m phi} the differential operator
         J = y p_x - x p_y = +i d/dphi acts as -m; the planar
         consistency test in the suite pins this sign.

Truncation contaminates the highest few levels (the truncated ladder
commutator [a, a^dag] fails only in its last diagonal entry), so algebra
checks run on an interior block and spectra are filtered by comparing two
truncation sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eig, expm

# Rows/columns this close to the truncation edge are excluded from
# interior-block algebra checks (per axis for planar).
_INTERIOR_BUFFER = {"fock": 2, "planar": 3, "circle": 0}

ALL_REAL = "AllReal"
CONJUGATE_PAIRS = "ConjugatePairs"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Representation:
    """Generator matrices for one realization at one truncation size."""

    kind: str
    theta: float
    dims: tuple
    j0: float
    U: np.ndarray = field(repr=False)
    V: np.ndarray = field(repr=False)
    J: np.ndarray = field(repr=False)

    @property
    def size(self):
        return self.U.shape[0]

    def identity(self):
        return np.eye(self.size, dtype=complex)

    def interior_mask(self):
        """Boolean mask of basis states far enough from the truncation edge."""
        buf = _INTERIOR_BUFFER[self.kind]
        if self.kind == "planar":
            nx, ny = self.dims
            mask = np.zeros(self.size, dtype=bool)
            for ix in range(nx - buf):
                mask[ix * ny:ix * ny + max(ny - buf, 0)] = True
            return mask
        mask = np.ones(self.size, dtype=bool)
        if buf:
            mask[self.size - buf:] = False
        return mask


def _ladder(n):
    return np.diag(np.sqrt(np.arange(1, n, dtype=float)), 1)


def make_representation(kind, theta, dims, j0=0.0):
    """Build generator matrices; see the module docstring for conventions.

    dims: N for fock, (N_x, N_y) or a single int for planar, M for circle
    (matrix size 2M+1).  Small sizes are allowed for inspection, but
    `diagonalize_classify` insists on size >= 16.
    """
    theta = float(theta)
    if kind == "fock":
        if theta <= 0:
            raise ValueError("fock representation needs theta > 0")
        n = int(dims)
        if n < 1:
            raise ValueError("need at least one level")
        a = _ladder(n)
        ad = a.T.conj()
        s = np.sqrt(theta / 2)
        u = s * (a + ad)
        v = -1j * s * (a - ad)
        j = ad @ a + j0 * np.eye(n)
        return Representation("fock", theta, (n,), j0, u, v, j.astype(complex))
    if kind == "planar":
        if np.isscalar(dims):
            nx = ny = int(dims)
        else:
            nx, ny = (int(d) for d in dims)
        if nx < 1 or ny < 1:
            raise ValueError("need at least one level per axis")
        ix, iy = np.eye(nx), np.eye(ny)
        xa, ya = _ladder(nx), _ladder(ny)
        x1 = (xa + xa.T) / np.sqrt(2)
        p1 = 1j * (xa.T - xa) / np.sqrt(2)
        y1 = (ya + ya.T) / np.sqrt(2)
        q1 = 1j * (ya.T - ya) / np.sqrt(2)
        x, px = np.kron(x1, iy), np.kron(p1, iy)
        y, py = np.kron(ix, y1), np.kron(ix, q1)
        j = y @ px - x @ py
        u = x - theta / 2 * py
        v = y + theta / 2 * px
        return Representation("planar", theta, (nx, ny), 0.0, u, v, j)
    if kind == "circle":
        m = int(dims)
        if m < 0:
            raise ValueError("mode cutoff must be nonnegative")
        diag = np.arange(-m, m + 1, dtype=float)
        z = np.zeros((2 * m + 1, 2 * m + 1), dtype=complex)
        return Representation("circle", theta, (m,), 0.0,
                              z, z.copy(), np.diag(diag).astype(complex))
    raise ValueError(f"unknown representation kind {kind!r}")


def poly_to_matrix(p, rep):
    """Map a normal-ordered polynomial to its matrix in a representation."""
    if p.theta != rep.theta:
        raise ValueError(
            f"polynomial theta {p.theta} != representation theta {rep.theta}")
    out = np.zeros((rep.size, rep.size), dtype=complex)
    eye = rep.identity()
    for (a, b, c), w in p.terms.items():
        if rep.kind == "circle" and (a or b):
            raise ValueError(
                "circle representation carries only polynomials in J")
        term = eye
        for mat, e in ((rep.U, a), (rep.V, b), (rep.J, c)):
            for _ in range(e):
                term = term @ mat
        out += w * term
    return out


def commutator_fidelity(rep):
    """Max interior-block deviation of the three defining relations.

    Returns {"UJ": ., "VJ": ., "UV": .} with each entry the max abs entry
    of [X, Y] - expected on the interior sub-block.
    """
    mask = rep.interior_mask()
    eye = np.eye(rep.size)

    def dev(m):
        sub = m[np.ix_(mask, mask)]
        return float(np.abs(sub).max()) if sub.size else 0.0

    u, v, j = rep.U, rep.V, rep.J
    return {
        "UJ": dev(u @ j - j @ u - 1j * v),
        "VJ": dev(v @ j - j @ v + 1j * u),
        "UV": dev(u @ v - v @ u - 1j * rep.theta * eye),
    }


def eta_matrix(params, rep):
    """Matrix of eta = exp(lam J + rho U + tau V) in the representation."""
    gen = (params.lam * rep.J + params.rho * rep.U + params.tau * rep.V)
    return expm(gen)


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues at the base truncation with a convergence verdict.

    `eigenvalues` is the full base-truncation spectrum sorted by (re, im),
    `flags` marks which of them are stable against the enlarged truncation,
    and `converged` is that stable sublist; verdict is AllReal,
    ConjugatePairs (with `pairs` counting them) or Inconclusive, judged on
    the converged sublist only.
    """

    eigenvalues: tuple
    flags: tuple
    converged: tuple
    verdict: str
    pairs: int = 0
    diagnostic: str = ""


def _grow_dims(rep, delta):
    if rep.kind == "planar":
        nx, ny = rep.dims
        dx = delta if delta is not None else max(nx // 4, 1)
        dy = delta if delta is not None else max(ny // 4, 1)
        return (nx + dx, ny + dy)
    (n,) = rep.dims
    d = delta if delta is not None else max(n // 4, 1)
    return n + d


def _greedy_match(a, b):
    """One-to-one nearest pairing of two eigenvalue arrays (len(a) <= len(b)).

    Returns index pairs (i, j) in ascending distance order; every i used
    exactly once, every j at most once.
    """
    dist = np.abs(a[:, None] - b[None, :])
    order = np.argsort(dist, axis=None, kind="stable")
    used_a = np.zeros(len(a), dtype=bool)
    used_b = np.zeros(len(b), dtype=bool)
    pairs = []
    for flat in order:
        i, j = divmod(int(flat), len(b))
        if used_a[i] or used_b[j]:
            continue
        used_a[i] = used_b[j] = True
        pairs.append((i, j))
        if len(pairs) == len(a):
            break
    return pairs


def count_conjugate_pairs(values, tol):
    """Number of conjugate pairs among `values`.

    Values are taken from the end of the list; each is paired with the
    remaining value nearest its conjugate when that distance is below
    tol(z), and both leave the pool.
    """
    pool = list(values)
    pairs = 0
    while pool:
        z = pool.pop()
        best, best_d = None, None
        for k, w in enumerate(pool):
            d = abs(w - z.conjugate())
            if best_d is None or d < best_d:
                best, best_d = k, d
        if best is not None and best_d < tol(z):
            pool.pop(best)
            pairs += 1
    return pairs


def diagonalize_classify(p, rep, delta=None):
    """Spectrum of p in the representation, with truncation filtering.

    Diagonalizes at the representation's size and again with the truncation
    enlarged by `delta` (default: a quarter), pairs eigenvalues greedily by
    distance, and keeps those that moved less than 1e-6 (1 + |E|).  The
    verdict inspects only the converged set, with reality tolerance
    1e-6 times its spectral radius.
    """
    if rep.size < 16:
        raise ValueError("matrix size below 16 is all edge, no interior")
    big = make_representation(rep.kind, rep.theta, _grow_dims(rep, delta),
                              rep.j0)
    try:
        e1 = eig(poly_to_matrix(p, rep), right=False)
        e2 = eig(poly_to_matrix(p, big), right=False)
    except np.linalg.LinAlgError as exc:
        return SpectrumReport((), (), (), INCONCLUSIVE,
                              diagnostic=f"eigensolver failure: {exc}")
    stable = np.zeros(len(e1), dtype=bool)
    for i, j in _greedy_match(e1, e2):
        if abs(e1[i] - e2[j]) < 1e-6 * (1 + abs(e1[i])):
            stable[i] = True
    order = np.lexsort((e1.imag, e1.real))
    eigenvalues = tuple(complex(z) for z in e1[order])
    flags = tuple(bool(f) for f in stable[order])
    converged = tuple(z for z, f in zip(eigenvalues, flags) if f)
    if not converged:
        return SpectrumReport(eigenvalues, flags, (), INCONCLUSIVE,
                              diagnostic="no eigenvalue stable under "
                                         "truncation growth")
    radius = max(abs(z) for z in converged)
    tol = 1e-6 * radius if radius > 0 else 1e-12
    nonreal = [z for z in converged if abs(z.imag) > tol]
    if not nonreal:
        return SpectrumReport(eigenvalues, flags, converged, ALL_REAL)
    pairs = count_conjugate_pairs(nonreal, lambda z: 1e-6 * (1 + abs(z)))
    return SpectrumReport(eigenvalues, flags, converged, CONJUGATE_PAIRS,
                          pairs=pairs)


@dataclass(frozen=True)
class IsospectralReport:
    """Greedy matching of two converged spectra."""

    n_matched: int
    max_mismatch: float
    passed: bool
    verdict_h: str
    verdict_hh: str
    diagnostic: str = ""


def isospectral_check(ham, herm, rep, delta=None, rel_tol=1e-5):
    """Compare converged spectra of two polynomials in one representation.

    Greedily matches the smaller converged set into the larger and passes
    when every match differs by less than rel_tol (1 + |E|).  Reports
    Inconclusive (passed=False with diagnostic) when either side has no
    converged eigenvalues.
    """
    ra = diagonalize_classify(ham, rep, delta)
    rb = diagonalize_classify(herm, rep, delta)
    if not ra.converged or not rb.converged:
        return IsospectralReport(0, float("inf"), False, ra.verdict,
                                 rb.verdict, "too few converged eigenvalues")
    a = np.array(ra.converged)
    b = np.array(rb.converged)
    if len(a) > len(b):
        a, b = b, a
    worst = 0.0
    for i, j in _greedy_match(a, b):
        worst = max(worst, abs(a[i] - b[j]) / (1 + abs(a[i])))
    return IsospectralReport(len(a), float(worst), bool(worst < rel_tol),
                             ra.verdict, rb.verdict)
