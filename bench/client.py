"""One workload process: set up, signal ready, run the request loop.

Started by ``run.py`` in a fresh interpreter with ``src`` on PYTHONPATH.
It imports the package, generates the seeded pool, places its config files,
runs one warm-up request of each kind (fixed inputs, the same for every
seed), then prints ``READY`` on stdout; the parent takes the time from
launch to that line as the set-up time.

Modes: ``setup`` exits at ready; ``timed`` runs whole request blocks,
from block ``--first-block`` on, until ``--seconds`` have gone by;
``blocks`` runs exactly ``--blocks`` blocks (the traced run uses it to
repeat the untraced run's work).  One client,
closed loop: each request starts when the previous one has ended.  Checks
run after the loop.  The result goes to ``--result`` as JSON.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

_T_IMPORT = time.perf_counter()
_MODULES_BEFORE = len(sys.modules)
import deformed_e2.cli  # noqa: E402,F401  (the import closure being timed)
IMPORT_S = time.perf_counter() - _T_IMPORT
MODULES_LOADED = len(sys.modules) - _MODULES_BEFORE

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(
        workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "blocks"),
                    required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--blocks", type=int, default=0)
    ap.add_argument("--first-block", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    return ap.parse_args(argv)


def versions():
    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError, ValueError):
        pass
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pool(wl, blocks, stop, start=0):
    """Closed loop over whole blocks from block ``start``, cycling.

    stop(blocks, elapsed) ends it.  The first block always runs, so the
    run digest covers the same requests in every run of a seed and first
    block.
    """
    latencies, occurrences, errors = [], [], {}
    first, extra = {}, {}
    t_start = time.perf_counter()
    done = 0
    while True:
        for req in blocks[(start + done) % len(blocks)]:
            t0 = time.perf_counter()
            try:
                raw = wl.execute(req)
                err = None
            except Exception:  # a failed request is counted, not fatal
                raw, err = None, traceback.format_exc(limit=4)
            latencies.append(time.perf_counter() - t0)
            if err is None:
                out = wl.outcome(req, raw)
                digest = out.digest
                if req.index not in first:
                    first[req.index] = out
                elif first[req.index].digest != digest:
                    extra.setdefault((req.index, digest), out)
            else:
                digest = None
                errors.setdefault(req.index, err)
            occurrences.append((req.index, digest))
        done += 1
        if stop(done, time.perf_counter() - t_start):
            break
    return {"latencies": latencies, "occurrences": occurrences,
            "errors": errors, "first": first, "extra": extra,
            "blocks": done, "window_s": time.perf_counter() - t_start}


def check_all(wl, blocks, loop):
    """Check each distinct output once; tally per occurrence."""
    by_index = {req.index: req for b in blocks for req in b}
    verdicts = {}
    for index, out in loop["first"].items():
        verdicts[(index, out.digest)] = safe_check(wl, by_index[index], out)
    for (index, digest), out in loop["extra"].items():
        verdicts[(index, digest)] = safe_check(wl, by_index[index], out)
    tally = {"attempted": 0, "failed": 0, "planted": 0, "certified": 0,
             "eigs": 0, "converged": 0}
    points, messages = [], []
    for index, digest in loop["occurrences"]:
        tally["attempted"] += 1
        if digest is None:
            res = workloads.CheckResult(loop["errors"][index], points=0)
        else:
            res = verdicts[(index, digest)]
        if res.error is not None:
            tally["failed"] += 1
            if len(messages) < 5:
                messages.append(f"request {index}: {res.error}")
        points.append(res.points)
        for key in ("planted", "certified", "eigs", "converged"):
            tally[key] += getattr(res, key)
    tally["errors"] = messages
    tally["points"] = points
    return tally


def safe_check(wl, req, out):
    try:
        return wl.check(req, out)
    except Exception:  # a check that crashes fails the request
        return workloads.CheckResult(
            "check raised: " + traceback.format_exc(limit=4))


def digests(blocks, loop, first):
    """Digest of the first block's outputs, and repeats within the run."""
    h = hashlib.sha256()
    for req in blocks[first % len(blocks)]:
        out = loop["first"].get(req.index)
        h.update((out.digest if out else "failed").encode())
    seen = set()
    repeats = 0
    for index, digest in loop["occurrences"]:
        if digest is not None and index in seen:
            repeats += 1
        seen.add(index)
    return {"run_digest": h.hexdigest(),
            "digests": {str(i): out.digest
                        for i, out in loop["first"].items()},
            "repeated_requests": repeats,
            "repeat_mismatches": len(loop["extra"])}


def main(argv=None):
    args = parse_args(argv)
    wl = workloads.WORKLOADS[args.workload](args.workdir)
    blocks = workloads.make_pool(wl, np.random.default_rng(args.seed))
    wl.place([r for b in blocks for r in b], "pool")
    warm = [wl.warmup(np.random.default_rng(workloads.WARMUP_SEED))]
    for k, req in enumerate(warm[0]):
        req.index = k
    wl.place(warm[0], "warm")
    t0 = time.perf_counter()
    warm_loop = run_pool(wl, warm, lambda done, elapsed: True)
    warmup_s = time.perf_counter() - t0

    print("READY", flush=True)
    sys.stdout = sys.stderr  # nothing else may reach the ready pipe
    warm_tally = check_all(wl, warm, warm_loop)

    result = {"import_s": IMPORT_S, "modules_loaded": MODULES_LOADED,
              "warmup_s": warmup_s, "warmup_failed": warm_tally["failed"],
              "warmup_errors": warm_tally["errors"], "versions": versions(),
              "pool_size": sum(len(b) for b in blocks)}
    if args.mode != "setup":
        tracer = uninstall = None
        if args.trace:
            import tracer as tracing
            tracer, uninstall = tracing.install()
        if args.mode == "timed":
            def stop(done, elapsed):
                return elapsed >= args.seconds
        else:
            def stop(done, elapsed):
                return done >= args.blocks
        loop = run_pool(wl, blocks, stop, args.first_block)
        result["peak_rss_mb"] = peak_rss_mb()  # before the checks allocate
        if tracer is not None:
            uninstall()
            result["trace"] = tracer.summary()
            tracer.save(os.path.join(args.workdir, "spans.npz"))
        result.update(check_all(wl, blocks, loop))
        result.update(digests(blocks, loop, args.first_block))
        result.update(latencies=loop["latencies"], blocks=loop["blocks"],
                      indices=[i for i, _ in loop["occurrences"]],
                      window_s=loop["window_s"])
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
