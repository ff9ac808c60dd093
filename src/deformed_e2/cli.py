"""Command-line front end: scans, spectra, solving, and the verify suites.

Subcommands: classify, spectrum, verify, ep, hermitize.  Each data command
reads a single JSON config (--config) which any --set KEY=VALUE flag can
override; output goes to the config's "output" path, the --output flag, or
stdout.  Emission is deterministic: fixed row order, shortest round-trip
float formatting, so identical configs give byte-identical files.

Exit codes: 0 ok, 1 verification failure, 2 config error, 3 numeric or
representation failure.
"""

import argparse
import itertools
import json
import math
import os
import sys

# One BLAS/OpenMP thread unless the caller chose otherwise.  The matrices
# here are small, and OpenBLAS's default of one thread per core only made
# them slower on 2 vCPUs, with the same results (the 1,500-draw hard family
# of `solve_generic_numeric`: 12-13 s against 10-11 s with one thread), and
# `classify --workers 2` oversubscribed the cores.  The libraries read these
# when numpy first loads, so this runs before the first numpy import; a
# value already set wins.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402

from .algebra import OperatorPoly, hermiticity_residual, max_coeff_diff
from .dyson import DysonParams, adjoint_poly
from .lazy import ProcessPoolExecutor
from .models import (
    BLOCK_POINTS,
    BOUNDARY_TOL,
    CERT_TOL,
    MU_NAMES,
    BrokenPhaseError,
    Mu,
    build_general,
    build_pt5,
    classify_points,
    coeffs_from_values,
    extract_coeffs,
    find_exceptional_point,
    hermitian_counterpart_pt5,
    solve_generic_numeric,
    solve_pt5_special,
    toy_dyson_params,
    toy_lambda,
    toy_model,
    toy_mu,
    toy_spectrum,
    with_special_choice,
)
from .representations import (
    diagonalize_classify,
    enlarged_dims,
    make_representation,
)
from .verify import KNOWN_FAULTS, all_passed, render_json, render_text, run_suites


class ConfigError(Exception):
    """Bad config or flags; maps to exit code 2."""


_COEFF_NAMES = tuple(f"c{k}" for k in range(1, 11))

# parameter names each model accepts in `fixed` and as sweep axes
_MODEL_PARAMS = {
    "pt5-general": MU_NAMES,
    "pt5-special": ("mu1", "mu2", "mu3", "mu4", "mu5", "mu6", "mu8"),
    "toy": ("mu1", "mu3", "mu4"),
    "general-coeffs": _COEFF_NAMES + tuple(f"{c}_im" for c in _COEFF_NAMES),
}

# classify rejects a grid of more points than this before building it
MAX_GRID_POINTS = 10 ** 6
# spectrum rejects a truncation whose enlarged matrix has more rows than
# this before building any matrix; planar counts the states of the enlarged
# N_x x N_y grid, also where its Casimir sectors are diagonalized instead
MAX_MATRIX_SIZE = 4096

_CSV_FIELDS = ("theta", "lambda_re", "lambda_im", "rho", "tau",
               "verdict", "margin_ineq1", "margin_ineq2")


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path, sets):
    cfg = {}
    if path:
        try:
            with open(path) as f:
                cfg = json.load(f)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}")
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
    for item in sets or ():
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"--set needs KEY=VALUE, got {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        _set_path(cfg, key.split("."), value, item)
    return cfg


def _set_path(obj, parts, value, flag):
    for i, part in enumerate(parts):
        last = i == len(parts) - 1
        if isinstance(obj, list):
            try:
                idx = int(part)
            except ValueError:
                raise ConfigError(f"--set {flag!r}: {part!r} is not a list index")
            if not 0 <= idx < len(obj):
                raise ConfigError(f"--set {flag!r}: index {idx} out of range")
            if last:
                obj[idx] = value
            else:
                obj = obj[idx]
        elif isinstance(obj, dict):
            if last:
                obj[part] = value
            else:
                obj = obj.setdefault(part, {})
        else:
            raise ConfigError(f"--set {flag!r}: cannot descend into "
                              f"{type(obj).__name__}")


def _require_model(cfg):
    model = cfg.get("model")
    if model not in _MODEL_PARAMS:
        raise ConfigError(f"model must be one of {sorted(_MODEL_PARAMS)}, "
                          f"got {model!r}")
    return model


def _check_keys(cfg, allowed, where="config"):
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {where} keys: {unknown} "
                          f"(allowed: {sorted(allowed)})")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value, name):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return value


def _model_values(cfg, model, command, swept=None):
    """The checked `fixed` values of a data command's model.

    Every name must be one the model allows (toy spectrum and hermitize
    also take lam, and exactly one of lam and mu3: a lam nonzero, a mu3
    with a nonzero mu4) and every number finite.
    The PT5 and toy formulas divide by mu1, so it must be given, fixed or
    swept, and nonzero; toy spectrum and hermitize default it to 1, and
    spectrum of a pt5-general member divides by nothing and accepts 0.
    `swept` maps each swept name to the values it takes; none may also be
    fixed, theta included.
    """
    fixed = cfg.get("fixed", {})
    if not isinstance(fixed, dict):
        raise ConfigError("fixed must be a name -> value object")
    toy_lam = model == "toy" and command != "classify"
    allowed = _MODEL_PARAMS[model] + (("lam",) if toy_lam else ())
    values = {}
    for name, value in fixed.items():
        if name not in allowed:
            raise ConfigError(f"parameter {name!r} is not valid for model "
                              f"{model} (allowed: {list(allowed)})")
        values[name] = _number(value, f"fixed.{name}")
    swept = swept or {}
    for name in swept:
        if name in values or name == "theta" and "theta" in cfg:
            raise ConfigError(f"{name!r} is both fixed and swept")
    if toy_lam and ("lam" in values) == ("mu3" in values):
        raise ConfigError("toy model needs exactly one of fixed.lam, "
                          "fixed.mu3")
    if toy_lam and values.get("lam") == 0:
        raise ConfigError("toy lam must be nonzero")
    # a mu4 so small that mu3/mu4 overflows counts as 0, as in classify
    mu4 = values.get("mu4", 0.0)
    if toy_lam and "mu3" in values and (
            mu4 == 0 or math.isinf(values["mu3"] / mu4)):
        raise ConfigError("toy mu3 needs a nonzero mu4: "
                          "lam = 2 arccoth(mu3/mu4)")
    if model == "general-coeffs":
        return values
    mu1s = [values["mu1"]] if "mu1" in values else list(swept.get("mu1", ()))
    if not mu1s and not toy_lam:
        raise ConfigError("mu1 must be given")
    if 0 in mu1s and (command, model) != ("spectrum", "pt5-general"):
        raise ConfigError("mu1 must be nonzero")
    return values


def _toy_member(values, theta):
    """(mu1, mu4, lam, eps, shift) of the toy member given by lam or by mu3
    in the checked `values`; mu1 defaults to 1 and mu4 to 0."""
    mu1, mu4 = values.get("mu1", 1.0), values.get("mu4", 0.0)
    _, eps, shift = toy_model(mu1, mu4, lam=values.get("lam"), theta=theta,
                              mu3=values.get("mu3"))
    lam = values["lam"] if "lam" in values else toy_lambda(
        values["mu3"], mu4).real
    return mu1, mu4, lam, eps, shift


def _axes(cfg, model):
    axes = cfg.get("axes")
    if not isinstance(axes, list) or not 1 <= len(axes) <= 2:
        raise ConfigError("axes must be a list of one or two sweeps")
    allowed = set(_MODEL_PARAMS[model]) | {"theta"}
    seen = set()
    sweeps = []
    for i, ax in enumerate(axes):
        if not isinstance(ax, dict):
            raise ConfigError(f"axes[{i}] must be an object")
        _check_keys(ax, ("name", "min", "max", "steps"), f"axes[{i}]")
        name = ax.get("name")
        if name not in allowed:
            raise ConfigError(f"axes[{i}].name {name!r} is not sweepable for "
                              f"model {model}")
        if name in seen:
            raise ConfigError(f"duplicate sweep axis {name!r}")
        seen.add(name)
        steps = ax.get("steps")
        if not isinstance(steps, int) or isinstance(steps, bool) or steps < 2:
            raise ConfigError(f"axes[{i}].steps must be an integer >= 2")
        lo = _number(ax.get("min"), f"axes[{i}].min")
        hi = _number(ax.get("max"), f"axes[{i}].max")
        if not math.isfinite(hi - lo):
            raise ConfigError(f"axes[{i}]: max - min overflows to {hi - lo!r}")
        sweeps.append((name, lo, hi, steps))
    total = math.prod(steps for *_, steps in sweeps)
    if total > MAX_GRID_POINTS:
        raise ConfigError(f"grid has {total} points; at most "
                          f"{MAX_GRID_POINTS} are allowed")
    return [(name, np.linspace(lo, hi, steps))
            for name, lo, hi, steps in sweeps]


def _mu_from_values(model, values):
    mu = Mu(*(values.get(k, 0.0) for k in MU_NAMES))
    return with_special_choice(mu) if model == "pt5-special" else mu


def _emit(text, output):
    """Write `text`, a string or an iterable of strings, to the output."""
    if isinstance(text, str):
        text = (text,)
    if output:
        with open(output, "w", newline="") as f:
            f.writelines(text)
        print(f"wrote {output}", file=sys.stderr)
    else:
        sys.stdout.writelines(text)


# json's spellings of the non-finite floats, keyed by their repr
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_EIGENVALUE_ITEM = ('\n    {\n      "re": %s,\n      "im": %s,\n'
                    '      "converged": %s\n    }')


def _json_float(x):
    """A float as `json` writes it: its repr, or NaN, Infinity, -Infinity."""
    text = repr(x)
    return _JSON_NONFINITE.get(text, text)


def _eigenvalues_json(values, flags):
    """The list of {re, im, converged} objects of a spectrum document, as
    JSON text that `_json_doc` writes at the top level: the bytes of
    `json.dumps(..., indent=2)`, without the pure-Python encoder that
    `indent` selects."""
    if not values:
        return "[]"
    return "[" + ",".join(
        _EIGENVALUE_ITEM % (_json_float(z.real), _json_float(z.imag),
                            "true" if f else "false")
        for z, f in zip(values, flags)) + "\n  ]"


def _json_doc(doc, raw=()):
    """`json.dumps(doc, indent=2)` and a newline, except that the value of
    each key in `raw` is JSON text already and is written as it stands.
    Every value is dumped on its own and indented one level; `json` writes
    no raw line break inside a value."""
    items = (f"  {json.dumps(key)}: "
             + (value if key in raw
                else json.dumps(value, indent=2).replace("\n", "\n  "))
             for key, value in doc.items())
    return "{\n" + ",\n".join(items) + "\n}\n"


# ---------------------------------------------------------------------------
# classify


def _texts(col, end=""):
    """repr of each value of a float64 column, and `end`, each distinct
    value formatted once.  Values are told apart by their bits, so 0.0 and
    -0.0, which compare equal, keep their own texts."""
    bits, at = np.unique(col.view(np.int64), return_inverse=True)
    texts = [repr(x) + end for x in bits.view(np.float64).tolist()]
    return np.array(texts, dtype=object)[at].tolist()


def _cell_lines(cells):
    """The end of the CSV line of each point of `cells` (models.Cells): the
    cells from lambda_re on, and the newline.

    Every float prints as its repr, a cell without a value as nothing, and
    rho, complex, as its real part where |Im rho| <= 1e-12.  The columns
    whose values repeat (lambda_im of real roots, tau, the margins) are
    formatted once per distinct value.
    """
    m = cells.mapped
    lam, rho = cells.lam[m], cells.rho[m]
    real = (np.abs(rho.imag) <= 1e-12).tolist()
    mapped = [list(map(repr, lam.real.tolist())), _texts(lam.imag),
              [repr(z.real) if r else repr(z)
               for z, r in zip(rho.tolist(), real)],
              _texts(cells.tau[m])]
    if not m.all():
        for k, texts in enumerate(mapped):
            column = np.full(len(m), "", dtype=object)
            column[m] = texts
            mapped[k] = column.tolist()
    margin2 = (["\n"] * len(m) if cells.margin2 is None
               else _texts(cells.margin2, "\n"))
    return list(map(",".join, zip(*mapped, cells.verdict,
                                  _texts(cells.margin1), margin2)))


def _classify_point(payload):
    """(model, block) -> the end of the CSV line of each grid point of the
    block, from lambda_re on (`_cell_lines`).

    The task the pool maps, one block at a time; top level for pickling.
    No cell holds a comma, a quote or a line break, so the lines need no
    CSV quoting.
    """
    return _cell_lines(classify_points(*payload))


def cmd_classify(cfg, workers):
    _check_keys(cfg, ("model", "fixed", "axes", "theta", "output"))
    if workers < 1:
        raise ConfigError("workers must be a positive integer")
    model = _require_model(cfg)
    axes = _axes(cfg, model)
    fixed = _model_values(cfg, model, "classify", dict(axes))
    axis_names = [name for name, _ in axes]
    if "theta" not in axis_names:
        fixed["theta"] = _number(cfg.get("theta", 0.0), "theta")

    # the row-major grid, first axis the outer loop, as one column of
    # axis-value indices per axis
    sizes = [len(values) for _, values in axes]
    total = math.prod(sizes)
    index = [np.tile(np.repeat(np.arange(n), math.prod(sizes[k + 1:])),
                     math.prod(sizes[:k])) for k, n in enumerate(sizes)]
    columns = {name: values[i] for (name, values), i in zip(axes, index)}
    # blocks of at most BLOCK_POINTS, and at least one per worker
    size = min(BLOCK_POINTS, -(-total // workers))
    blocks = []
    for start in range(0, total, size):
        block = {name: np.full(min(size, total - start), value)
                 for name, value in fixed.items()}
        block.update((name, column[start:start + size])
                     for name, column in columns.items())
        blocks.append((model, block))
    results = _run_pool(_classify_point, blocks, workers)

    # the swept columns, then theta, swept or fixed: each value is
    # formatted once, then repeated in grid order
    texts = {name: np.array(list(map(repr, values.tolist())), dtype=object)[i]
             for (name, values), i in zip(axes, index)}
    theta = (texts.pop("theta") if "theta" in texts
             else np.full(total, repr(fixed["theta"]), dtype=object))
    header = ",".join([*texts, *_CSV_FIELDS]) + "\n"
    lines = map(",".join, zip(*(t.tolist() for t in texts.values()),
                              theta.tolist(), itertools.chain(*results)))
    _emit(itertools.chain([header], lines), cfg.get("output"))
    return 0


def _run_pool(fn, payloads, workers):
    """Map fn over payloads preserving order; inline for one worker."""
    if workers == 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(payloads) // (4 * workers))
            return list(pool.map(fn, payloads, chunksize=chunk))
    except OSError as exc:
        print(f"worker pool unavailable ({exc}); running sequentially",
              file=sys.stderr)
        return [fn(p) for p in payloads]


# ---------------------------------------------------------------------------
# spectrum


def _representation_from(cfg, model):
    rep_cfg = cfg.get("representation")
    if rep_cfg is None:
        rep_cfg = ({"kind": "circle", "dims": 3} if model == "toy"
                   else {"kind": "fock", "dims": 60})
    if not isinstance(rep_cfg, dict):
        raise ConfigError("representation must be an object")
    kind = rep_cfg.get("kind")
    _check_keys(rep_cfg, ("kind", "dims", "delta")
                + (("j0",) if kind == "fock" else ()), "representation")
    if kind not in ("fock", "planar", "circle"):
        raise ConfigError(f"representation.kind must be fock, planar or "
                          f"circle, got {kind!r}")
    dims = rep_cfg.get("dims")
    if kind == "planar":
        axes = dims if isinstance(dims, list) else [dims, dims]
        valid = len(axes) == 2 and all(_is_int(d) and d >= 1 for d in axes)
        want = "a positive integer or a list of two positive integers"
    else:
        axes = [dims]
        valid = _is_int(dims) and dims >= (1 if kind == "fock" else 0)
        want = ("a positive integer" if kind == "fock"
                else "a non-negative integer")
    if not valid:
        raise ConfigError(f"representation.dims must be {want} for {kind}, "
                          f"got {json.dumps(dims)}")
    delta = rep_cfg.get("delta")
    if delta is not None and (not _is_int(delta) or delta < 1):
        raise ConfigError("representation.delta must be a positive integer")
    size = (2 * dims + 1 if kind == "circle"
            else math.prod(enlarged_dims(axes, delta)))
    if size > MAX_MATRIX_SIZE:
        raise ConfigError(f"the enlarged truncation has {size} states; at "
                          f"most {MAX_MATRIX_SIZE} are allowed")
    if isinstance(dims, list):
        dims = tuple(dims)
    j0 = _number(rep_cfg.get("j0", 0.0), "representation.j0")
    return kind, dims, delta, j0


def _spectrum_operator(model, values, theta, which):
    """The requested operator of a pt5 or general-coeffs member."""
    if model == "general-coeffs":
        if which != "H":
            raise ConfigError("hamiltonian must be \"H\" for general-coeffs")
        return build_general(coeffs_from_values(values), theta)
    mu = _mu_from_values(model, values)
    if which == "H":
        return build_pt5(mu, theta)
    if model != "pt5-special":
        raise ConfigError("hamiltonian \"h\" needs model pt5-special or toy")
    return hermitian_counterpart_pt5(mu, theta)


def cmd_spectrum(cfg):
    _check_keys(cfg, ("model", "fixed", "theta", "hamiltonian",
                      "representation", "output"))
    model = _require_model(cfg)
    fixed = _model_values(cfg, model, "spectrum")
    theta = _number(cfg.get("theta", 0.0), "theta")
    which = cfg.get("hamiltonian", "h" if model == "toy" else "H")
    if which not in ("H", "h"):
        raise ConfigError('hamiltonian must be "H" or "h"')
    kind, dims, delta, j0 = _representation_from(cfg, model)

    extras = {}
    if model == "toy":
        mu1, mu4, lam, eps, shift = _toy_member(fixed, theta)
        extras = {"epsilon": eps, "lambda": lam, "shift_stated": shift}
        # h without its scalar shift: the shift moves every eigenvalue
        # equally and its two printed conventions disagree
        poly = (OperatorPoly({(0, 0, 2): mu1, (0, 0, 1): eps}, theta)
                if which == "h" else build_pt5(toy_mu(mu1, mu4, lam), theta))
    else:
        poly = _spectrum_operator(model, fixed, theta, which)
    rep = make_representation(kind, theta, dims, j0=j0)
    report = diagonalize_classify(poly, rep, delta=delta)

    params = {**fixed, "theta": theta, **extras}
    doc = {
        "model": model,
        "params": params,
        "representation": {"kind": kind,
                           "dims": list(dims) if isinstance(dims, tuple)
                           else dims,
                           "delta": delta, "j0": j0},
        "hamiltonian": which,
        "eigenvalues": _eigenvalues_json(report.eigenvalues, report.flags),
        "verdict": report.verdict,
        "pairs": report.pairs,
        "diagnostic": report.diagnostic,
    }
    if model == "toy":
        nmax = dims if isinstance(dims, int) else 3
        doc["conventions"] = [
            {"n": n,
             "oracle": toy_spectrum(mu1, eps, n, "oracle"),
             "paper": toy_spectrum(mu1, eps, n, "paper")}
            for n in range(-nmax, nmax + 1)
        ]
    _emit(_json_doc(doc, raw=("eigenvalues",)), cfg.get("output"))
    return 0


# ---------------------------------------------------------------------------
# ep


def cmd_ep(cfg):
    _check_keys(cfg, ("model", "fixed", "theta", "sweep", "tol", "output"))
    model = _require_model(cfg)
    if model not in ("pt5-general", "pt5-special"):
        raise ConfigError("ep supports models pt5-general and pt5-special")
    sweep = cfg.get("sweep")
    if not isinstance(sweep, dict):
        raise ConfigError("sweep must be an object {name, min, max}")
    _check_keys(sweep, ("name", "min", "max"), "sweep")
    name = sweep.get("name")
    if name != "theta" and name not in _MODEL_PARAMS[model]:
        raise ConfigError(f"sweep.name {name!r} is not valid for {model}")
    lo = _number(sweep.get("min"), "sweep.min")
    hi = _number(sweep.get("max"), "sweep.max")
    fixed = _model_values(cfg, model, "ep", {name: (lo, hi)})
    theta = _number(cfg.get("theta", 0.0), "theta")
    tol = _number(cfg.get("tol", BOUNDARY_TOL), "tol")
    if tol <= 0:
        raise ConfigError(f"tol must be positive, got {tol!r}")
    mode = "special" if model == "pt5-special" else "general"

    def family(t):
        values = dict(fixed)
        th = theta
        if name == "theta":
            th = float(t)
        else:
            values[name] = float(t)
        return _mu_from_values(model, values), th

    try:
        point, lo_phase, hi_phase = find_exceptional_point(
            family, (lo, hi), mode=mode, tol=tol)
    except ValueError as exc:  # both ends in one phase, or mu1 = 0 between
        raise ConfigError(str(exc))
    doc = {
        "model": model,
        "sweep": {"name": name, "min": lo, "max": hi},
        "theta": None if name == "theta" else theta,
        "tol": tol,
        "exceptional_point": point,
        "phase_low": lo_phase,
        "phase_high": hi_phase,
    }
    _emit(_json_doc(doc), cfg.get("output"))
    return 0


# ---------------------------------------------------------------------------
# hermitize


def _coeff_doc(coeffs):
    return {name: [z.real, z.imag] for name, z in zip(_COEFF_NAMES, coeffs.c)}


def cmd_hermitize(cfg):
    _check_keys(cfg, ("model", "fixed", "theta", "output"))
    model = _require_model(cfg)
    if model == "pt5-general":
        raise ConfigError("hermitize supports pt5-special, toy and "
                          "general-coeffs (use general-coeffs for arbitrary "
                          "coefficient input)")
    theta = _number(cfg.get("theta", 0.0), "theta")
    values = _model_values(cfg, model, "hermitize")

    echo = values
    if model == "toy":
        mu1, mu4, lam, eps, shift = _toy_member(values, theta)
        params = toy_dyson_params(mu1, mu4, lam, theta)
        conj = adjoint_poly(params, build_pt5(toy_mu(mu1, mu4, lam), theta))
        extra = {
            "residual": hermiticity_residual(conj),
            "h": _coeff_doc(extract_coeffs(conj)),
            "epsilon": eps,
            "shift_engine": conj.coeff(0, 0, 0).real,
            "shift_stated": shift,
            "note": "h carries the engine scalar; shift_stated is the "
                    "published closed form, kept for comparison",
        }
    elif model == "pt5-special":
        mu = _mu_from_values(model, values)
        solved = solve_pt5_special(mu, theta)
        closed = hermitian_counterpart_pt5(mu, theta)
        params = DysonParams(solved.lam.real, solved.rho.real, 0.0, theta)
        conj = adjoint_poly(params, build_pt5(mu, theta))
        echo = {**values, "mu7": mu.mu7, "mu9": mu.mu9}
        extra = {
            "residual": hermiticity_residual(conj),
            "h": _coeff_doc(extract_coeffs(closed)),
            "closed_vs_engine": max_coeff_diff(closed, conj),
        }
    else:  # general-coeffs
        params, residual, h = solve_generic_numeric(
            coeffs_from_values(values), theta)
        extra = {
            "residual": residual,
            "h": _coeff_doc(h),
            "certified": bool(residual <= CERT_TOL),
        }
    doc = {"model": model, "params": {**echo, "theta": theta},
           "dyson": _dyson_doc(params), **extra}
    _emit(_json_doc(doc), cfg.get("output"))
    return 0


def _dyson_doc(params):
    return {
        "lambda_re": complex(params.lam).real,
        "lambda_im": complex(params.lam).imag,
        "rho": complex(params.rho).real,
        "tau": complex(params.tau).real,
    }


# ---------------------------------------------------------------------------
# verify


def cmd_verify(only, fault, json_path):
    names = None
    if only:
        names = [n.strip() for n in only.split(",") if n.strip()]
        if not names:
            raise ConfigError("--only got no suite names")
    try:
        results = run_suites(only=names, fault=fault)
    except ValueError as exc:
        raise ConfigError(str(exc))
    print(render_text(results))
    if json_path:
        _emit(_json_doc(render_json(results, fault=fault)), json_path)
    return 0 if all_passed(results) else 1


# ---------------------------------------------------------------------------
# entry point


def _add_config_flags(sp):
    sp.add_argument("--config", "-c", metavar="PATH",
                    help="JSON config file")
    sp.add_argument("--set", "-s", dest="sets", action="append",
                    metavar="KEY=VALUE",
                    help="override a config field (dotted path, JSON value); "
                         "repeatable")
    sp.add_argument("--output", "-o", metavar="PATH",
                    help="output file (default: config output or stdout)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="deformed-e2",
        description="Scans, spectra and verification for the theta-deformed "
                    "E2 operator toolkit.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    sp = sub.add_parser("classify", help="sweep a parameter grid and emit "
                                         "one CSV row of phase data per point")
    _add_config_flags(sp)
    sp.add_argument("--workers", "-w", type=int, default=1, metavar="N",
                    help="worker processes (default: 1, inline); on 2 "
                         "cores a pool beat inline on no measured sweep")

    sp = sub.add_parser("spectrum", help="diagonalize a family member in a "
                                         "truncated representation (JSON)")
    _add_config_flags(sp)

    sp = sub.add_parser("ep", help="bisect a one-parameter family to its "
                                   "exceptional point (JSON)")
    _add_config_flags(sp)

    sp = sub.add_parser("hermitize", help="solve for the Dyson map and emit "
                                          "the hermitian counterpart (JSON)")
    _add_config_flags(sp)

    sp = sub.add_parser("verify", help="run the identity suites")
    sp.add_argument("--only", metavar="SUITES",
                    help="comma-separated suite names to run")
    sp.add_argument("--fault", choices=KNOWN_FAULTS,
                    help="inject a deliberate fault (self-test of the suite)")
    sp.add_argument("--json", metavar="PATH",
                    help="also write a JSON report")
    return parser


# built once per process: a build takes about as long as a small
# in-process request, and every `main` call parses with the same one
_PARSER = _build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.only, args.fault, args.json)
        cfg = _load_config(args.config, args.sets)
        if args.output:
            cfg["output"] = args.output
        output = cfg.get("output")
        if output is not None and not isinstance(output, str):
            raise ConfigError(f"output must be a path string, got "
                              f"{json.dumps(output)}")
        if args.command == "classify":
            return cmd_classify(cfg, args.workers)
        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        if args.command == "ep":
            return cmd_ep(cfg)
        return cmd_hermitize(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BrokenPhaseError as exc:
        print(f"broken phase: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        # numpy's LinAlgError is a ValueError
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
