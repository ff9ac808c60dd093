"""Truncated matrix representations of the deformed E2 algebra.

Three concrete realizations back the abstract algebra:

fock     U = sqrt(theta/2)(a + a^dag), V = -i sqrt(theta/2)(a - a^dag),
         J = a^dag a + j0, on N number states.  Exact in infinite
         dimension; needs theta > 0.  A column of j0 values gives a stack
         of such sectors, one per j0, sharing U and V.
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
truncation sizes (on the circle, where J is diagonal, they are exact).

The Casimir C = U^2 + V^2 - 2 theta J commutes with U, V and J.  On the
planar grid at theta > 0 it is theta (2 n' + 1) for n' = 0, 1, ..., and the
eigenspace of n' carries the fock realization with j0 = -n'.  So planar
spectra at theta != 0 are computed on these Casimir sectors
(`truncations`): dims (N_x, N_y) means N_x sectors j0 = 0, -1, ...,
-(N_x - 1) of N_y levels each.  theta < 0 is the algebra at |theta| under
(U, V, J) -> (U, -V, -J), the reflection y -> -y of the plane.  theta = 0
has no fock realization and keeps the grid.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import eigvals as eig
from numpy.linalg import eigvalsh

from .algebra import OperatorPoly, dagger
from .lazy import expm

# Rows/columns this close to the truncation edge are excluded from
# interior-block algebra checks (per axis for planar).
_INTERIOR_BUFFER = {"fock": 2, "planar": 3, "circle": 0}

ALL_REAL = "AllReal"
CONJUGATE_PAIRS = "ConjugatePairs"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Representation:
    """One realization at one truncation size, held as the complex factors
    its matrices are built from: fock (U, V, diagonal of J), planar the 1-D
    oscillator factors (x1, p1, y1, q1), circle (diagonal of J,).  Dense
    U, V and J of fock and planar come from `generator_matrices`.
    """

    kind: str
    theta: float
    dims: tuple
    j0: object  # a float, or a tuple of floats for a stack of fock sectors
    size: int
    factors: tuple = field(repr=False)

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
    """Build the factors; see the module docstring for conventions.

    dims: N for fock, (N_x, N_y) or a single int for planar, M for circle
    (matrix size 2M+1).  j0 offsets the fock J only; a sequence of j0
    values makes a stack of fock sectors, whose `poly_to_matrix` is a
    (K, N, N) array.  Small sizes are allowed for inspection, but
    `diagonalize_classify` insists on size >= 16 for fock and planar.
    """
    theta = float(theta)
    stacked = np.ndim(j0) == 1
    if kind in ("planar", "circle") and (stacked or j0 != 0):
        raise ValueError(f"j0 offsets only the fock J, not the {kind} one")
    if kind == "fock":
        if theta <= 0:
            raise ValueError("fock representation needs theta > 0")
        n = int(dims)
        if n < 1:
            raise ValueError("need at least one level")
        a = _ladder(n)
        ad = a.T.conj()
        s = np.sqrt(theta / 2)
        # a^dag a is diagonal with entries sqrt(k) * sqrt(k), the one
        # nonzero product of each diagonal entry of the matrix product
        root = np.sqrt(np.arange(n, dtype=float))
        dims, size = (n,), n
        factors = (s * (a + ad), -1j * s * (a - ad),
                   root * root + np.array(j0, dtype=float)[..., None])
    elif kind == "planar":
        if np.isscalar(dims):
            nx = ny = int(dims)
        else:
            nx, ny = (int(d) for d in dims)
        if nx < 1 or ny < 1:
            raise ValueError("need at least one level per axis")
        xa, ya = _ladder(nx), _ladder(ny)
        dims, size = (nx, ny), nx * ny
        factors = ((xa + xa.T) / np.sqrt(2), 1j * (xa.T - xa) / np.sqrt(2),
                   (ya + ya.T) / np.sqrt(2), 1j * (ya.T - ya) / np.sqrt(2))
    elif kind == "circle":
        m = int(dims)
        if m < 0:
            raise ValueError("mode cutoff must be nonnegative")
        dims, size = (m,), 2 * m + 1
        factors = (np.arange(-m, m + 1, dtype=float),)
    else:
        raise ValueError(f"unknown representation kind {kind!r}")
    # complex, so fock products run in zgemm as the identity-started dense
    # chain does, and keep its bytes
    j0 = tuple(float(j) for j in j0) if stacked else float(j0)
    return Representation(kind, theta, dims, j0, size,
                          tuple(f.astype(complex) for f in factors))


def poly_to_matrix(p, rep):
    """Map a normal-ordered polynomial to its matrix in a representation.

    The monomial U^a V^b J^c maps to the ordered product of its factors.
    On fock and circle, J is diagonal and acts as a column scaling; on the
    planar grid every monomial is assembled from 1-D factors.  A stack of
    fock sectors gives a (K, N, N) array: the U and V products are shared,
    and each sector scales them by its own J diagonal.
    """
    if p.theta != rep.theta:
        raise ValueError(
            f"polynomial theta {p.theta} != representation theta {rep.theta}")
    if rep.kind == "planar":
        return _planar_matrix(p, rep)
    jdiag = rep.factors[-1]
    jcols = jdiag[..., None, :]
    out = np.zeros(jdiag.shape[:-1] + (rep.size, rep.size), dtype=complex)
    diag = out.reshape(jdiag.shape[:-1] + (-1,))[..., ::rep.size + 1]
    for (a, b, c), w in p.terms.items():
        if rep.kind == "circle" and (a or b):
            raise ValueError(
                "circle representation carries only polynomials in J")
        if not (a or b):
            # a polynomial in J alone is diagonal: add only the diagonal
            term = 1.0
            for _ in range(c):
                term = term * jdiag
            diag += w * term
            continue
        u, v = rep.factors[:2]
        factors = [u] * a + [v] * b
        term = factors[0]
        for mat in factors[1:]:
            term = term @ mat
        for _ in range(c):
            term = term * jcols
        out += w * term
    return out


def _planar_matrix(p, rep):
    """Planar matrix of p as one contraction of Kronecker pairs.

    Each monomial expands into pairs (A, B) of 1-D words, with products
    of nx x nx and ny x ny matrices only; the sum of c A (x) B over all
    pairs is a single (nx^2, P) @ (P, ny^2) product, reshaped to n x n.
    """
    nx, ny = rep.dims
    h = rep.theta / 2
    # U, V, J as Kronecker pairs c A (x) B: A is a word in x1 ("x") and p1
    # ("p"), B a word in y1 ("y") and q1 ("q"); the empty word is 1
    gens = ({("x", ""): 1.0, ("", "q"): -h},      # U = x1(x)1 - h 1(x)q1
            {("", "y"): 1.0, ("p", ""): h},       # V = 1(x)y1 + h p1(x)1
            {("p", "y"): 1.0, ("x", "q"): -1.0})  # J = p1(x)y1 - x1(x)q1
    pairs = {}
    for (a, b, c), w in p.terms.items():
        expansion = {("", ""): w}
        for gen in [gens[0]] * a + [gens[1]] * b + [gens[2]] * c:
            grown = {}
            for (wa, wb), coef in expansion.items():
                for (fa, fb), g in gen.items():
                    key = (wa + fa, wb + fb)
                    grown[key] = grown.get(key, 0) + coef * g
            expansion = grown
        for key, coef in expansion.items():
            pairs[key] = pairs.get(key, 0) + coef
    if not pairs:
        return np.zeros((rep.size, rep.size), dtype=complex)
    x1, p1, y1, q1 = rep.factors
    words_x = {"": np.eye(nx, dtype=complex), "x": x1, "p": p1}
    words_y = {"": np.eye(ny, dtype=complex), "y": y1, "q": q1}

    def word(cache, w):
        if w not in cache:
            cache[w] = word(cache, w[:-1]) @ cache[w[-1]]
        return cache[w]

    left = np.stack([word(words_x, wa).reshape(-1) for wa, _ in pairs],
                    axis=1)
    right = np.stack([coef * word(words_y, wb).reshape(-1)
                      for (_, wb), coef in pairs.items()])
    out = (left @ right).reshape(nx, nx, ny, ny).transpose(0, 2, 1, 3)
    return out.reshape(nx * ny, nx * ny)


def generator_matrices(rep):
    """Dense (U, V, J) of a fock or planar representation, each the
    `poly_to_matrix` of its generator; adding 0.0 turns the negative zeros
    of the planar Kronecker contraction into +0."""
    return tuple(poly_to_matrix(OperatorPoly({word: 1.0}, rep.theta), rep)
                 + 0.0 for word in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


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

    u, v, j = generator_matrices(rep)
    return {
        "UJ": dev(u @ j - j @ u - 1j * v),
        "VJ": dev(v @ j - j @ v + 1j * u),
        "UV": dev(u @ v - v @ u - 1j * rep.theta * eye),
    }


def eta_matrix(params, rep):
    """Matrix of eta = exp(lam J + rho U + tau V) in the representation."""
    u, v, j = generator_matrices(rep)
    return expm(params.lam * j + params.rho * u + params.tau * v)


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues at the base truncation with a convergence verdict.

    `eigenvalues` is the full base-truncation spectrum in `_canonical_order`,
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


def enlarged_dims(dims, delta=None):
    """Per-axis sizes of the truncation `diagonalize_classify` compares
    against: each axis of `dims` grown by `delta`, by default by a quarter
    (at least one level)."""
    return tuple(n + (delta if delta is not None else max(n // 4, 1))
                 for n in dims)


def _greedy_match(a, b):
    """One-to-one nearest pairing of two eigenvalue arrays (len(a) <= len(b)).

    Returns index pairs (i, j) in ascending distance order, ties broken by
    the flat index i * len(b) + j; every i used exactly once, every j at
    most once.  A heap holds each unmatched row's nearest free column; a
    row whose column was taken is sorted (stably, on first need) and moves
    on to its next free column.
    """
    nb = len(b)
    if not nb:
        return []
    dist = np.abs(a[:, None] - b[None, :])
    # (distance, flat index, row, position in the row's sorted order)
    heap = [(dist[i, j], i * nb + j, i, 0)
            for i, j in enumerate(np.argmin(dist, axis=1).tolist())]
    heapq.heapify(heap)
    orders = {}
    free = np.ones(nb, dtype=bool)
    pairs = []
    while heap:
        _, flat, i, k = heapq.heappop(heap)
        j = flat - i * nb
        if free[j]:
            free[j] = False
            pairs.append((i, j))
            continue
        if i not in orders:
            orders[i] = np.argsort(dist[i], kind="stable").tolist()
        order = orders[i]
        while not free[order[k]]:
            k += 1
        j = order[k]
        heapq.heappush(heap, (dist[i, j], i * nb + j, i, k))
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


def _canonical_order(e):
    """Indices sorting e by (re, im), real parts within 1e-12 (1 + |z|) of
    the previous one counting as equal: a conjugate pair split by rounding
    comes out negative-imaginary first, whatever its real parts' last bits."""
    order = np.lexsort((e.imag, e.real))
    z = e[order]
    jump = np.diff(z.real, prepend=z.real[:1]) > 1e-12 * (1 + np.abs(z))
    return order[np.lexsort((z.imag, np.cumsum(jump)))]


# i^k for k mod 4, exact: multiplying by these only swaps and negates parts
_I_POWERS = np.array([1, 1j, -1, -1j])


def real_gauge(m, rep):
    """The matrix `diagonalize_classify` hands to `eig` for m: a real one
    with the same spectrum when there is one, else m itself.

    Fock U and J are real and V is imaginary, so a PT5 member (U -> U,
    V -> -V, conjugation) is a real matrix as it stands; a stack of fock
    sectors is judged as one array.  On the planar
    grid PT5 acts as P_y K, and S = diag(i^{n_y}) squares to P_y, so
    S^-1 m S, entry ((ix, iy), (jx, jy)) times i^(jy - iy), is real.
    When that gauged matrix has an exactly zero imaginary part, its real
    part is returned; otherwise m, ungauged, so a spectrum that is not
    PT5 keeps its bytes.
    """
    g = m
    if rep.kind == "planar":
        nx, ny = rep.dims
        k = np.arange(ny)
        phase = _I_POWERS[(k[None, :] - k[:, None]) % 4]
        g = (m.reshape(nx, ny, nx, ny) * phase[:, None, :]).reshape(m.shape)
    return m if g.imag.any() else g.real


def enlarged_representation(rep, delta=None):
    """`rep` with every axis grown by `delta` (see `enlarged_dims`)."""
    big = enlarged_dims(rep.dims, delta)
    return make_representation(rep.kind, rep.theta,
                               big if rep.kind == "planar" else big[0],
                               rep.j0)


def truncations(p, rep, delta=None):
    """(q, base, big): the polynomial and the two fock or planar
    truncations that `diagonalize_classify` diagonalizes for p in rep.

    A planar rep at theta != 0 becomes its Casimir sectors: base stacks
    the N_x fock sectors j0 = 0, -1, ..., -(N_x - 1) of N_y levels each,
    big the same sectors grown by `delta` levels (default a quarter of
    N_y, at least one), and q is p at |theta|; for theta < 0 that is
    (U, V, J) -> (U, -V, -J), which flips the sign of the terms with odd
    b + c.  Any other rep gives p, rep and `enlarged_representation`.
    """
    if rep.kind != "planar" or rep.theta == 0:
        return p, rep, enlarged_representation(rep, delta)
    nx, ny = rep.dims
    theta = abs(rep.theta)
    q = p if rep.theta > 0 else OperatorPoly(
        {(a, b, c): -w if (b + c) % 2 else w
         for (a, b, c), w in p.terms.items()}, theta)
    base = make_representation("fock", theta, ny,
                               j0=tuple(float(-k) for k in range(nx)))
    return q, base, enlarged_representation(base, delta)


def diagonalize_classify(p, rep, delta=None):
    """Spectrum of p in the representation, with truncation filtering.

    Fock and planar (size >= 16): diagonalizes again with the truncation
    enlarged by `delta` (default: a quarter) and judges the two spectra by
    `truncation_report`; each matrix goes through `real_gauge`.  A planar
    rep at theta != 0 is diagonalized as its Casimir sectors, one
    stacked solver call per truncation: the document keeps N_x N_y
    eigenvalues, each sector is judged against itself grown by `delta`
    levels, and `delta` grows N_y only.  theta = 0 keeps the N_x N_y grid.
    A p that is exactly its own adjoint (p == dagger(p)) takes `eigvalsh`
    of the Hermitian part (m + m^H) / 2 of each gauged matrix, every other
    p `eig`.  On fock the Hermitian part is m up to rounding; on the grid
    it is a second truncation of the same operator, which differs from m
    only in the edge rows that the truncated ladder commutator spoils.
    Circle: the matrix is diagonal, all exact, both tolerances
    1e-12 max(1, radius).
    """
    if rep.kind == "circle":
        e1 = np.diagonal(poly_to_matrix(p, rep))
        return _report(e1, np.ones(len(e1), dtype=bool), exact=True)
    if rep.size < 16:
        raise ValueError("matrix size below 16 is all edge, no interior")
    p, *reps = truncations(p, rep, delta)
    hermitian = p == dagger(p)

    def spectrum(r):
        m = real_gauge(poly_to_matrix(p, r), r)
        if not hermitian:
            return eig(m)
        m = (m + np.swapaxes(m.conj(), -1, -2)) / 2
        # eig refuses inf and nan entries; eigvalsh may return nan for them
        if not np.isfinite(m).all():
            raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
        return eigvalsh(m)

    # an overflowing matrix is built silently and fails in `spectrum`
    with np.errstate(over="ignore", invalid="ignore"):
        e1, e2 = (spectrum(r) for r in reps)
    return truncation_report(e1, e2)


def truncation_report(e1, e2):
    """Judge the base-truncation eigenvalues e1 against the enlarged e2.

    Keeps the eigenvalues whose greedy partner moved less than
    1e-6 (1 + |E|); the verdict on them has reality tolerance 1e-6 radius
    and pair tolerance 1e-6 (1 + |E|).  Stacks (K, n) and (K, m) of
    sector spectra are matched sector by sector, and the verdict is taken
    on all sectors together.
    """
    e1, e2 = np.atleast_2d(e1), np.atleast_2d(e2)
    stable = np.zeros(e1.shape, dtype=bool)
    for a, b, flags in zip(e1, e2, stable):
        for i, j in _greedy_match(a, b):
            if abs(a[i] - b[j]) < 1e-6 * (1 + abs(a[i])):
                flags[i] = True
    return _report(e1.reshape(-1), stable.reshape(-1), exact=False)


def _report(e1, stable, exact):
    """SpectrumReport of e1 with stability flags `stable`; `exact` picks
    the circle's tolerances."""
    order = _canonical_order(e1)
    eigenvalues = tuple(complex(z) for z in e1[order])
    flags = tuple(bool(f) for f in stable[order])
    converged = tuple(z for z, f in zip(eigenvalues, flags) if f)
    if not converged:
        return SpectrumReport(eigenvalues, flags, (), INCONCLUSIVE,
                              diagnostic="no eigenvalue stable under "
                                         "truncation growth")
    radius = max(abs(z) for z in converged)
    if exact:
        tol = 1e-12 * max(1.0, radius)
        pair_tol = lambda z: tol
    else:
        tol = 1e-6 * radius if radius > 0 else 1e-12
        pair_tol = lambda z: 1e-6 * (1 + abs(z))
    nonreal = [z for z in converged if abs(z.imag) > tol]
    if not nonreal:
        return SpectrumReport(eigenvalues, flags, converged, ALL_REAL)
    return SpectrumReport(eigenvalues, flags, converged, CONJUGATE_PAIRS,
                          pairs=count_conjugate_pairs(nonreal, pair_tol))


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
