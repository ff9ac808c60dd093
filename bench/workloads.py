"""Seeded request pools, request execution and correctness checks.

Each workload turns a seed into a pool of ``blocks`` request blocks.  A
block holds one request of every stratum (branch and grid size, planted or
generic input, representation and size), with fresh draws, so every block
costs about the same.  The client runs the blocks in order, cycling when
it reaches the end, and times each request alone.  The pool is small
enough that every request runs several times in a run; the latency
figures take each request's fastest run.  Every request is an
in-process call to ``deformed_e2.cli.main(argv)`` with its config and
output in files in the work directory.  Outputs are checked afterwards,
outside the timed window.

Calls go through module attributes (``cli.main``) at call time, so the
wrappers the tracer installs are seen.

The seed draws parameter values and the order inside each block; the
strata are fixed.  Two seeds thus give work of nearly the same cost, and
their figures can be compared.
"""

import hashlib
import json
import math
import os

import numpy as np

from deformed_e2 import algebra, cli, dyson, models

VERDICTS = ("Symmetric", "Broken", "Boundary")
MU_NAMES = tuple(f"mu{k}" for k in range(1, 10))
SPECIAL_PARAMS = ("mu1", "mu2", "mu3", "mu4", "mu5", "mu6", "mu8")

# seed of the warm-up requests; fixed so set-up does the same work on every
# benchmark seed
WARMUP_SEED = 20140731


class Request:
    """One pool entry: a kind, its inputs and its index in the pool."""

    __slots__ = ("index", "kind", "payload")

    def __init__(self, kind, payload):
        self.index = -1
        self.kind = kind
        self.payload = payload


class Outcome:
    """What a finished request left behind, with the bytes it is judged by."""

    __slots__ = ("raw", "data", "digest")

    def __init__(self, raw, data):
        self.raw = raw
        self.data = data
        self.digest = hashlib.sha256(data).hexdigest()


class CheckResult:
    """A check's verdict and the counts the end-to-end metrics need."""

    __slots__ = ("error", "points", "planted", "certified", "eigs",
                 "converged")

    def __init__(self, error=None, points=1, planted=0, certified=0,
                 eigs=0, converged=0):
        self.error = error
        self.points = points
        self.planted = planted
        self.certified = certified
        self.eigs = eigs
        self.converged = converged


# ---------------------------------------------------------------------------
# CLI requests: shared plumbing


class CliWorkload:
    """Requests that call ``cli.main`` on a config file in the work dir."""

    def __init__(self, workdir):
        self.workdir = workdir

    def _cli_request(self, sub, cfg, ext, **extra):
        return Request(sub, {"sub": sub, "cfg": cfg, "ext": ext, **extra})

    def place(self, pool, tag):
        """Write each request's config file; called once, at set-up."""
        for req in pool:
            p = req.payload
            stem = os.path.join(self.workdir, f"{tag}-{req.index:03d}")
            p["config"] = stem + ".json"
            p["output"] = stem + "-out." + p["ext"]
            with open(p["config"], "w") as f:
                json.dump(p["cfg"], f, indent=1)

    def execute(self, req):
        p = req.payload
        return cli.main([p["sub"], "-c", p["config"], "-o", p["output"]])

    def outcome(self, req, rc):
        try:
            with open(req.payload["output"], "rb") as f:
                data = f.read()
            os.remove(req.payload["output"])
        except FileNotFoundError:
            data = b""
        return Outcome(rc, b"rc=%d\n" % (rc if isinstance(rc, int) else -1)
                       + data)


# ---------------------------------------------------------------------------
# phase-sweep


SWEEP_SIZES = (50, 100, 200, 400, 800, 1600)
# A deformed point costs about 80x a point of the other branches, so its
# requests are the slowest of a block and hold req_ms_p90.  A ladder of
# sizes would put p90 on a single request, whose cost moves with its
# draws by up to 40%; four requests of one size put p90 inside a group.
DEFORMED_SIZES = (50, 400, 400, 400, 400, 1600)
GRID_SHAPES = {100: (10, 10), 200: (10, 20), 400: (20, 20), 800: (20, 40),
               1600: (40, 40)}
EP_PER_BLOCK = 6


def _sign(rng):
    return 1.0 if rng.random() < 0.5 else -1.0


def _axis(name, lo, hi, steps):
    return {"name": name, "min": float(lo), "max": float(hi), "steps": steps}


class PhaseSweep(CliWorkload):
    """classify and ep requests over the three classification branches.

    deformed: pt5-general with theta != 0 and mu5 or mu6 != 0, decided by
    the bracketed root grid; closed: pt5-general with theta = 0 or
    mu5 = mu6 = 0, decided by the coth ratio; special: pt5-special, decided
    by the special ratio.  One classify request per grid size of each
    branch, plus six ep bisections with brackets whose midpoints miss the
    boundary.
    """

    name = "phase-sweep"

    blocks = 2

    def __init__(self, workdir):
        super().__init__(workdir)
        self._made = 0

    def block(self, rng):
        # every other block sweeps the sizes in GRID_SHAPES on a 2-D grid,
        # so the mix of shapes, which changes the cost, is fixed
        grid2d = self._made % 2 == 0
        self._made += 1
        reqs = []
        for branch, sizes in (("deformed", DEFORMED_SIZES),
                              ("closed", SWEEP_SIZES),
                              ("special", SWEEP_SIZES)):
            for size in sizes:
                reqs.append(self._classify(rng, branch, size, grid2d))
        for k in range(EP_PER_BLOCK):
            reqs.append(self._ep(rng, "special" if k % 2 == 0 else "closed"))
        order = rng.permutation(len(reqs))
        return [reqs[i] for i in order]

    def warmup(self, rng):
        return [self._classify(rng, "deformed", 50), self._ep(rng, "special")]

    # -- generators

    def _classify(self, rng, branch, size, grid2d=False):
        fixed = {"mu1": float(rng.uniform(0.5, 2.0)),
                 "mu2": float(rng.uniform(-1.0, 1.0)),
                 "mu3": float(rng.uniform(-2.0, 2.0)),
                 "mu4": _sign(rng) * float(rng.uniform(0.3, 2.0))}
        mu3_lo = float(rng.uniform(-3.0, 1.0))
        mu3_axis = ("mu3", mu3_lo, mu3_lo + float(rng.uniform(2.0, 4.0)))
        if branch == "special":
            model = "pt5-special"
            fixed["mu5"] = float(rng.uniform(-1.5, 1.5))
            fixed["mu6"] = float(rng.uniform(-1.5, 1.5))
            fixed["mu8"] = float(rng.uniform(-1.0, 1.0))
            theta = float(rng.uniform(0.0, 16.0))
            second = ("theta", 0.0, 16.0)
        else:
            model = "pt5-general"
            for k in ("mu5", "mu6", "mu7", "mu8", "mu9"):
                fixed[k] = float(rng.uniform(-1.0, 1.0))
            theta = float(rng.uniform(0.2, 2.0))
            second = ("theta", 0.2, 2.0)
            if branch == "deformed":
                # theta != 0 and mu5, mu6 != 0: the root-grid branch
                fixed["mu5"] = _sign(rng) * float(rng.uniform(0.2, 1.0))
                fixed["mu6"] = _sign(rng) * float(rng.uniform(0.2, 1.0))
            elif rng.random() < 0.5:
                # undeformed: the coth ratio decides for any mu5, mu6
                theta = 0.0
                m4 = abs(fixed["mu4"]) + 1.0
                second = ("mu4", -m4, m4)
            else:
                # mu5 = mu6 = 0: the ratio is exact again at every theta
                fixed["mu5"] = fixed["mu6"] = 0.0
                second = ("theta", -2.0, 2.0)
        if grid2d and size in GRID_SHAPES:
            nx, ny = GRID_SHAPES[size]
            axes = [_axis(*mu3_axis, nx), _axis(*second, ny)]
        else:
            axes = [_axis(*(mu3_axis if rng.random() < 0.5 else second),
                          size)]
        cfg = {"model": model, "axes": axes}
        swept = {ax["name"] for ax in axes}
        cfg["fixed"] = {k: v for k, v in fixed.items() if k not in swept}
        if "theta" not in swept:
            cfg["theta"] = theta
        return self._cli_request("classify", cfg, "csv",
                                 branch=branch, size=size)

    def _ep(self, rng, branch):
        """An ep bracket around one exactly known crossing.

        Both branches have a ratio that is a Moebius function of the swept
        parameter, so |ratio| = 1 is solved in closed form and the bracket
        is placed with the crossing at a random fraction u of its width, u
        kept off the dyadic midpoints the bisection visits first.
        """
        while True:
            mu1 = float(rng.uniform(0.5, 2.0))
            vals = {"mu1": mu1, "mu2": float(rng.uniform(-1, 1)),
                    "mu3": float(rng.uniform(-2, 2)),
                    "mu4": _sign(rng) * float(rng.uniform(0.5, 2.0)),
                    "mu5": float(rng.uniform(-1.5, 1.5)),
                    "mu6": float(rng.uniform(-1.5, 1.5)),
                    "mu8": float(rng.uniform(-1, 1))}
            if branch == "special":
                # ratio(theta) = (a + theta b) / (c + theta d)
                mu = models.with_special_choice(models.Mu(**vals))
                ab = models.MuAbbrev.from_mu(mu)
                mu68 = mu.mu6 ** 2 / (4 * mu1) + mu.mu8
                a, b = mu1 * ab.mu23, mu.mu5 * mu68
                c, d = mu1 * ab.mu24, mu.mu6 * mu68
                name = "theta"
                lo_lim, hi_lim = 0.0, 30.0
            else:
                # theta = 0: ratio(mu3) = mu23 / mu24 with mu23 linear in mu3
                vals.update(mu7=float(rng.uniform(-1, 1)),
                            mu9=float(rng.uniform(-1, 1)))
                mu = models.Mu(**vals)
                ab = models.MuAbbrev.from_mu(mu)
                if abs(ab.mu78) < 1.2 * abs(ab.mu19) + 0.05:
                    continue  # first inequality must hold with room to spare
                base = ab.mu23 + mu.mu3
                a, b, c, d = base, -1.0, ab.mu24, 0.0
                name = "mu3"
                lo_lim, hi_lim = -10.0, 10.0
            roots = []
            for s in (1.0, -1.0):
                if b - s * d != 0:
                    roots.append((s * c - a) / (b - s * d))
            specials = roots + ([-c / d] if d != 0 else [])
            inside = [r for r in roots if lo_lim + 0.2 < r < hi_lim - 0.2]
            if not inside:
                continue
            t_star = inside[int(rng.integers(len(inside)))]
            gap = min([abs(t_star - s) for s in specials if s != t_star]
                      + [t_star - lo_lim, hi_lim - t_star, 4.0])
            if gap < 0.2:
                continue
            u = float(rng.uniform(0.1, 0.9))
            if any(abs(u * 2 ** j - round(u * 2 ** j)) < 1e-3
                   for j in range(1, 12)):
                continue
            width = 0.8 * gap
            lo, hi = t_star - u * width, t_star + (1 - u) * width
            break
        model = "pt5-special" if branch == "special" else "pt5-general"
        fixed = {k: v for k, v in vals.items() if k != name}
        if branch == "special":
            fixed = {k: v for k, v in fixed.items() if k in SPECIAL_PARAMS}
        cfg = {"model": model, "fixed": fixed,
               "sweep": {"name": name, "min": lo, "max": hi},
               "tol": float(10.0 ** -rng.integers(7, 10))}
        if name != "theta":
            cfg["theta"] = 0.0
        return self._cli_request("ep", cfg, "json", branch=branch)

    # -- checks

    def check(self, req, out):
        """Rows count as points; an ep request emits none."""
        if out.raw != 0:
            return CheckResult(f"exit code {out.raw}", points=0)
        text = out.data.split(b"\n", 1)[1].decode()
        if req.kind == "ep":
            return self._check_ep(req.payload["cfg"], json.loads(text))
        return self._check_classify(req.payload, text)

    @staticmethod
    def _mu(model, values):
        mu = models.Mu(**{k: v for k, v in values.items() if k in MU_NAMES})
        if model == "pt5-special":
            mu = models.with_special_choice(mu)
        return mu

    def _check_classify(self, payload, text):
        cfg = payload["cfg"]
        lines = text.splitlines()
        header, rows = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
        want = math.prod(ax["steps"] for ax in cfg["axes"])
        if len(rows) != want:
            return CheckResult(f"{len(rows)} rows for a grid of {want}",
                               points=len(rows))
        col = {name: i for i, name in enumerate(header)}
        model = cfg["model"]
        for row in rows:
            verdict = row[col["verdict"]]
            if verdict not in VERDICTS:
                return CheckResult(f"verdict {verdict!r}", points=len(rows))
            values = dict(cfg["fixed"])
            for ax in cfg["axes"]:
                values[ax["name"]] = float(row[col[ax["name"]]])
            theta = values.pop("theta", cfg.get("theta", 0.0))
            if verdict == "Boundary":
                continue
            mu = self._mu(model, values)
            if model == "pt5-special":
                real = models.solve_pt5_special(mu, theta).is_real
                if real != (verdict == "Symmetric"):
                    return CheckResult(
                        f"special verdict {verdict} but solve_pt5_special "
                        f"is_real={real} at {values}, theta={theta}",
                        points=len(rows))
            elif (verdict == "Symmetric" and theta != 0
                  and (mu.mu5 != 0 or mu.mu6 != 0)):
                lam = float(row[col["lambda_re"]])
                err = _mu3_root_error(mu, lam, theta)
                if err is not None:
                    return CheckResult(err, points=len(rows))
        return CheckResult(points=len(rows))

    def _check_ep(self, cfg, doc):
        lo, hi = cfg["sweep"]["min"], cfg["sweep"]["max"]
        point = doc["exceptional_point"]
        if not lo <= point <= hi:
            return CheckResult(f"ep {point} outside [{lo}, {hi}]", points=0)
        name = cfg["sweep"]["name"]
        mode = "special" if cfg["model"] == "pt5-special" else "general"
        eps = 1e-4 * (hi - lo)
        for t, want in ((point - eps, doc["phase_low"]),
                        (point + eps, doc["phase_high"])):
            values = dict(cfg["fixed"])
            theta = cfg.get("theta", 0.0)
            if name == "theta":
                theta = t
            else:
                values[name] = t
            got = models.classify_region(self._mu(cfg["model"], values),
                                         theta, mode=mode).phase
            if got != want:
                return CheckResult(f"classify at {t} gives {got}, ep says "
                                   f"{want}", points=0)
        return CheckResult(points=0)


def _mu3_root_error(mu, lam, theta):
    """None when lam solves mu3_deformed(mu, lam, theta) = mu3.

    Accepts a small residual, or a sign change of the residual across a
    few ulps of lam (the root is exact but the slope is steep).
    """
    def f(x):
        return models.mu3_deformed(mu, x, theta) - mu.mu3

    r = f(lam)
    if abs(r) <= 1e-8 * (1 + abs(mu.mu3)):
        return None
    d = 1e-11 * max(1.0, abs(lam))
    if f(lam - d) * f(lam + d) <= 0:
        return None
    return (f"Symmetric row lambda={lam!r} leaves mu3 residual {r!r} "
            f"(mu={mu}, theta={theta})")


# ---------------------------------------------------------------------------
# numeric-solve


PLANTED_PER_BLOCK = 4
# Generic inputs are the slowest, so they set req_ms_p90.  Two per block
# put p90 inside their group.
GENERIC_PER_BLOCK = 2
COEFF_NAMES = tuple(f"c{k}" for k in range(1, 11))


def hermitian_coeffs(rng, theta):
    """Random c_1..c_10 of a Hermitian degree-2 h (betas pinned by alphas)."""
    a = rng.uniform(-1.0, 1.0, 10)
    b = np.zeros(10)
    b[2], b[3], b[9] = a[5] / 2, -a[4] / 2, -theta * a[8] / 2
    return models.HamiltonianCoeffs(tuple(a + 1j * b))


def _coeff_fixed(coeffs):
    fixed = {}
    for name, z in zip(COEFF_NAMES, coeffs.c):
        fixed[name] = float(z.real)
        fixed[f"{name}_im"] = float(z.imag)
    return fixed


class NumericSolve(CliWorkload):
    """hermitize --model general-coeffs on planted and generic inputs.

    Planted: H = eta^-1 h eta for a random Hermitian h and a real map with
    |lam|, |rho|, |tau| <= 0.8, theta in [0.2, 2], so a certificate exists.
    Generic: random complex coefficients, where the solver searches in full.
    The solver's own start seed stays at the CLI default, so the seed of
    the benchmark moves only the inputs.
    """

    name = "numeric-solve"

    blocks = 2

    def block(self, rng):
        # theta stratified over [0.2, 2], one planted input per stratum
        width = 1.8 / PLANTED_PER_BLOCK
        reqs = [self._planted(rng, 0.2 + width * (k + rng.random()))
                for k in range(PLANTED_PER_BLOCK)]
        reqs += [self._generic(rng) for _ in range(GENERIC_PER_BLOCK)]
        order = rng.permutation(len(reqs))
        return [reqs[i] for i in order]

    def warmup(self, rng):
        return [self._planted(rng, 1.0)]

    def _planted(self, rng, theta):
        theta = float(theta)
        h = models.build_general(hermitian_coeffs(rng, theta), theta)
        lam, rho, tau = (float(x) for x in rng.uniform(-0.8, 0.8, 3))
        eta = dyson.DysonParams(lam, rho, tau, theta)
        ham = dyson.adjoint_poly(eta.inverse(), h, route="oracle")
        cfg = {"model": "general-coeffs", "theta": theta,
               "fixed": _coeff_fixed(models.extract_coeffs(ham))}
        return self._cli_request("hermitize", cfg, "json",
                                 planted=True)

    def _generic(self, rng):
        z = rng.uniform(-1.0, 1.0, 10) + 1j * rng.uniform(-1.0, 1.0, 10)
        cfg = {"model": "general-coeffs",
               "theta": float(rng.uniform(0.2, 2.0)),
               "fixed": _coeff_fixed(models.HamiltonianCoeffs(tuple(z)))}
        return self._cli_request("hermitize", cfg, "json",
                                 planted=False)

    def check(self, req, out):
        planted = int(req.payload["planted"])
        if out.raw != 0:
            return CheckResult(f"exit code {out.raw}", planted=planted)
        doc = json.loads(out.data.split(b"\n", 1)[1])
        cfg = req.payload["cfg"]
        certified = bool(doc["certified"])
        if certified != (doc["residual"] <= 1e-9):
            return CheckResult(f"certified={certified} but residual "
                               f"{doc['residual']!r}", planted=planted)
        if certified:
            fx = cfg["fixed"]
            coeffs = models.HamiltonianCoeffs(tuple(
                complex(fx[n], fx[f"{n}_im"]) for n in COEFF_NAMES))
            ham = models.build_general(coeffs, cfg["theta"])
            d = doc["dyson"]
            eta = dyson.DysonParams(complex(d["lambda_re"], d["lambda_im"]),
                                    d["rho"], d["tau"], cfg["theta"])
            conj = dyson.adjoint_poly(eta, ham, route="oracle")
            res = algebra.hermiticity_residual(conj)
            scale = max(1.0, ham.max_abs_coeff())
            if res > 1e-8 * scale:
                return CheckResult(f"certified map leaves oracle Hermiticity "
                                   f"residual {res!r}", planted=planted,
                                   certified=int(certified and planted))
        return CheckResult(planted=planted,
                           certified=int(certified and planted))


# ---------------------------------------------------------------------------
# spectra


# (N, delta) of the fock spectra: fixed, so the cost of a block does not
# depend on the seed
FOCK_STRATA = tuple((40 + round(80 * k / 11), 10 + round(10 * k / 11))
                    for k in range(12))
PLANAR_SIZES = (8, 10, 12, 14)


def _special_member(rng, margin=0.2):
    """Symmetric special-choice member near the worked point, theta > 0."""
    while True:
        vals = {"mu1": float(rng.uniform(0.8, 1.2)),
                "mu2": float(rng.uniform(-0.3, 0.3)),
                "mu3": float(rng.uniform(0.5, 1.5)),
                "mu4": float(rng.uniform(1.5, 2.5)),
                "mu5": float(rng.uniform(0.5, 1.5)),
                "mu6": float(rng.uniform(0.5, 1.5)),
                "mu8": float(rng.uniform(-0.2, 0.2))}
        theta = float(rng.uniform(4.0, 16.0))
        mu = models.with_special_choice(models.Mu(**vals))
        verdict = models.classify_region(mu, theta, mode="special")
        if verdict.phase == "Symmetric" and verdict.margin1 > margin:
            return vals, theta


def _general_member(rng):
    vals = {"mu1": float(rng.uniform(0.8, 1.2)),
            "mu2": float(rng.uniform(-0.5, 0.5)),
            "mu3": float(rng.uniform(0.5, 2.5)),
            "mu4": float(rng.uniform(0.5, 2.5))}
    return vals, float(rng.uniform(0.5, 2.0))


class Spectra(CliWorkload):
    """spectrum requests on fock and planar truncations.

    isospectral_check is left out: it fails on some symmetric members at
    the seed code (see README.md), and a run may not fail.
    """

    name = "spectra"

    blocks = 4

    def block(self, rng):
        reqs = []
        for k, (n, delta) in enumerate(FOCK_STRATA):
            reqs.append(self._spectrum(rng, k % 3, {
                "kind": "fock", "dims": n, "delta": delta}))
        for k, n in enumerate(PLANAR_SIZES):
            reqs.append(self._spectrum(rng, k % 3,
                                       {"kind": "planar", "dims": n}))
        order = rng.permutation(len(reqs))
        return [reqs[i] for i in order]

    def warmup(self, rng):
        return [self._spectrum(rng, 2, {"kind": "fock", "dims": 40,
                                        "delta": 10}),
                self._spectrum(rng, 0, {"kind": "planar", "dims": 8})]

    def _spectrum(self, rng, which, rep):
        """which: 0 pt5-general H, 1 pt5-special H, 2 pt5-special h."""
        if which == 0:
            fixed, theta = _general_member(rng)
            model, ham = "pt5-general", "H"
        else:
            fixed, theta = _special_member(rng)
            model, ham = "pt5-special", "H" if which == 1 else "h"
        cfg = {"model": model, "fixed": fixed, "theta": theta,
               "hamiltonian": ham, "representation": rep}
        return self._cli_request("spectrum", cfg, "json")

    def check(self, req, out):
        if out.raw != 0:
            return CheckResult(f"exit code {out.raw}", points=0)
        doc = json.loads(out.data.split(b"\n", 1)[1])
        rep = req.payload["cfg"]["representation"]
        size = rep["dims"] if rep["kind"] == "fock" else rep["dims"] ** 2
        eigs = doc["eigenvalues"]
        conv = sum(1 for e in eigs if e["converged"])
        if len(eigs) != size:
            return CheckResult(f"{len(eigs)} eigenvalues for size {size}",
                               points=len(eigs), eigs=len(eigs),
                               converged=conv)
        return CheckResult(points=len(eigs), eigs=len(eigs), converged=conv)


def make_pool(wl, rng):
    """The workload's blocks, with every request numbered in pool order."""
    blocks = [wl.block(rng) for _ in range(wl.blocks)]
    for k, req in enumerate(req for b in blocks for req in b):
        req.index = k
    return blocks


WORKLOADS = {cls.name: cls for cls in (PhaseSweep, NumericSolve, Spectra)}
