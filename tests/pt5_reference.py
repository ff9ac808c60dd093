"""The scalar reference route for PT5 classification: one grid point at a
time, in Python floats, as the package classified points before its
verdicts became column arithmetic.

`models.classify_points` decides a block of points with array arithmetic;
the tests hold it to this route bit for bit, NaN for NaN.  The scalar
pieces both routes share (the abbreviations, `arccoth`, `_rho`) come from
`models`; the ratio tests, the quintic's synthetic division, the root
filter, the secant polish and the verdict selection are this module's own.
"""

import math

import numpy as np

from deformed_e2.models import (
    BOUNDARY,
    BOUNDARY_TOL,
    BROKEN,
    SYMMETRIC,
    MU_NAMES,
    Mu,
    MuAbbrev,
    _mu56,
    _rho,
    _special_ratio,
    arccoth,
)


def _ratio_test(num, den):
    """(margin, at_boundary) for an |num| >= |den| inequality."""
    if den == 0:
        return abs(num), False
    return abs(num) - abs(den), abs(abs(num / den) - 1) <= BOUNDARY_TOL


def mu3_deformed(mu, ab, lam, theta):
    """The mu3 value enforcing Hermiticity at deformation theta."""
    ch, sh = math.cosh(lam), math.sinh(lam)
    if sh == 0:
        raise ValueError("lambda = 0 is singular in the (1+cosh)/sinh term")
    mu3_0 = -ab.mu24 * ch / sh + mu.mu2 * mu.mu5 / (2 * mu.mu1) - mu.mu6 / 2
    return mu3_0 + theta * 2 * _mu56(mu, ch, sh) * (
        ab.mu19 * (0.5 + ch) - ab.mu78 * sh - ab.mu68 * (1 + ch) / sh)


def polished_root(mu, ab, theta, t):
    """The root lam = 2 atanh(t) of F, polished by secant steps in lam."""
    def f(x):
        return mu3_deformed(mu, ab, x, theta) - mu.mu3

    x = best = 2 * math.atanh(t)
    fx = f_best = f(x)
    y = x + 1e-8 * max(1.0, abs(x))
    for k in range(12):
        fy = f(y)
        if abs(fy) < abs(f_best):
            best, f_best = y, fy
        elif k or fy == fx:
            break
        x, fx, y = y, fy, y - min(1.0, max(-1.0, fy * (y - x) / (fy - fx)))
    return best


def unit_roots(polys):
    """The real roots in (-1, 1) of each polynomial sum c[k] t^k, ascending;
    each companion matrix alone in its `eigvals` call."""
    roots = []
    for c in polys:
        while len(c) > 1 and c[-1] == 0:
            c = c[:-1]
        col = [-x / c[-1] for x in c[:-1]]
        if not all(map(math.isfinite, col + c[-1:])):
            raise ArithmeticError("non-finite mu3 condition coefficients")
        if not col:
            roots.append([])
            continue
        comp = np.zeros((len(col), len(col)))
        comp[1:, :-1] = np.eye(len(col) - 1)
        comp[:, -1] = col
        roots.append(sorted(w.real for w in np.linalg.eigvals(comp).tolist()
                            if w.imag == 0 and -1 < w.real < 1))
    return roots


def mu3_quintic(mu, ab, theta):
    """(R, e) of the deformed mu3 condition of one member."""
    a0, a1 = -mu.mu1 * ab.mu24, 2 * mu.mu1 * ab.mu23
    g, h, c = theta * mu.mu6, -2 * theta * mu.mu5, ab.mu19 / 2
    d = ab.mu68 - 2 * ab.mu78
    r = [a0 - g * ab.mu68, a1 + 3 * g * c - h * ab.mu68,
         3 * h * c - 2 * g * ab.mu78, -a1 + 4 * g * c + h * d,
         -a0 + g * d + h * c, g * c]
    noise = 8 * math.ulp(1.0) * ((abs(mu.mu5) + abs(mu.mu6)) ** 2 / abs(
        4 * mu.mu1) + abs(mu.mu7) + abs(mu.mu8) + abs(mu.mu9))
    e = [-1, -1, -1]
    for i, s in ((1, 1.0), (2, -1.0)):
        for _ in range(min(1 + 2 * (ab.mu23 == s * ab.mu24),
                           2 * (mu.mu6 == s * mu.mu5)
                           + (abs(ab.mu78 - s * ab.mu19) <= noise))):
            q = [r[-1]]
            for x in r[-2:0:-1]:
                q.append(x + s * q[-1])
            r, e[i] = q[::-1], e[i] + 1
    while r and r[0] == 0:
        r, e[0] = r[1:], e[0] + 1
    return r, e


def deformed_mu3_root(mu, ab, theta):
    """(lam, inf |F|) of one deformed member; lam None without a root."""
    r, e = mu3_quintic(mu, ab, theta)
    if not r:
        return -1.0, 0.0
    ts = [t for t in unit_roots([r])[0] if t != 0]
    if ts:
        return polished_root(mu, ab, theta, ts[0]), 0.0
    rp = [0.0, 0.0] + r + [0.0, 0.0]
    crit = [(j - 2 + sum(e)) * rp[j] + (e[1] - e[2]) * rp[j + 1]
            - (e[0] + j) * rp[j + 2] for j in range(len(r) + 2)]
    ts = unit_roots([crit])[0]

    def f_of_t(t):
        return (-sum(x * t ** j for j, x in enumerate(r)) * t ** e[0]
                * (t - 1) ** e[1] * (t + 1) ** e[2] / (2 * mu.mu1))

    ts += [s for s, j in zip((0.0, 1.0, -1.0), e) if j >= 0]
    return None, min((abs(f_of_t(t)) for t in ts if t or e[0] >= 0),
                     default=math.inf)


def verdict(mode, mu, theta):
    """(phase, witness, margin1, margin2, lam) of one point, in floats."""
    if mode == "special":
        num, den = _special_ratio(mu, theta)
        # a ratio past the float range counts as a zero denominator
        if den == 0 or not math.isfinite(num / den):
            return (BOUNDARY, "special coth ratio: zero denominator "
                    "(lambda degenerates)", math.nan, math.nan, None)
        ratio = num / den
        margin = abs(ratio) - 1
        if abs(margin) <= BOUNDARY_TOL:
            return BOUNDARY, "|special coth ratio| = 1", margin, math.nan, None
        return (SYMMETRIC if margin > 0 else BROKEN,
                f"|special coth ratio| = {abs(ratio)!r}", margin, math.nan,
                arccoth(ratio))
    ab = MuAbbrev.from_mu(mu)
    m1, b1 = _ratio_test(ab.mu78, ab.mu19)
    d2 = None
    if theta == 0 or (mu.mu5 == 0 and mu.mu6 == 0):
        m2, b2 = _ratio_test(ab.mu23, ab.mu24)
        name2 = "|mu23| >= |mu24|"
        lam = None
        if (ab.mu24 != 0 and abs(ab.mu23) != abs(ab.mu24)
                and math.isfinite(ab.mu23 / ab.mu24)):
            lam = arccoth(ab.mu23 / ab.mu24)
    else:
        name2 = "real lambda for mu3 condition"
        root, miss = deformed_mu3_root(mu, ab, theta)
        if root is not None:
            m2, b2, lam = 1.0, False, complex(root)
        elif miss <= BOUNDARY_TOL:
            m2, b2, lam = 0.0, True, None
            d2 = "mu3 condition grazes zero"
        else:
            m2, b2, lam = -miss, False, None
    viol1 = m1 < 0 and not b1
    viol2 = m2 < 0 and not b2
    if viol1 or viol2:
        which = "|mu78| >= |mu19|" if viol1 else name2
        return BROKEN, f"violated: {which}", m1, m2, lam
    if b1 or b2:
        which = d2 or ("first ratio at 1" if b1 else "second ratio at 1")
        return BOUNDARY, which, m1, m2, lam
    return SYMMETRIC, "both conditions hold", m1, m2, lam


def cells(model, point):
    """The result cells (theta, lambda_re, lambda_im, rho, tau, verdict,
    margin_ineq1, margin_ineq2) of one grid point, a dict of floats."""
    mu = Mu(*(float(point.get(k, 0.0)) for k in MU_NAMES))
    theta = float(point["theta"])
    mode = "special" if model == "pt5-special" else "general"
    phase, _, m1, m2, lam = verdict(mode, mu, theta)
    if lam is None:
        return (theta, None, None, None, None, phase, m1, m2)
    return (theta, lam.real, lam.imag, _rho(mu.mu1, mu.mu5, mu.mu6, lam),
            0.0, phase, m1, m2)


def cell(x):
    """The CSV text of one result cell."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, complex):
        if abs(x.imag) <= 1e-12:
            return repr(float(x.real))
        return repr(complex(x))
    return repr(float(x))


def rows(cells):
    """The per-point cell tuples of a block's `models.Cells`, in the form
    `cells` gives them."""
    m2 = cells.margin2
    m2 = [None] * len(cells.theta) if m2 is None else m2.tolist()
    out = []
    for th, lam, rho, tau, verdict, m1, v2, mapped in zip(
            cells.theta.tolist(), cells.lam.tolist(), cells.rho.tolist(),
            cells.tau.tolist(), cells.verdict, cells.margin1.tolist(), m2,
            cells.mapped.tolist()):
        if mapped:
            out.append((th, lam.real, lam.imag, rho, tau, verdict, m1, v2))
        else:
            out.append((th, None, None, None, None, verdict, m1, v2))
    return out
