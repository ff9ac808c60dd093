"""deformed-e2 benchmark: run one workload for one seed and print its metrics.

    python3 bench/run.py --workload spectra --seed 7 --seconds 27 --trace 0

Run it from the root of a checkout: it takes the package from ``src`` and
writes scratch files and reports under ``.bench_out``.  The last line on
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a summary, the provenance and the output digest go to stderr
and to ``.bench_out/report-<workload>-seed<seed>-trace<t>.json``.

--trace 0 measures the end-to-end metrics.  TIMED_CLIENTS fresh clients,
one after the other, run whole request blocks for ``--seconds`` in total;
set-up-only clients run before, between and after them.  Every launch to
ready is a set-up sample, and their median is reported.  Every request
runs several times; the latency percentiles are over each request's
fastest run.

--trace 1 measures the per-layer metrics.  An untraced client and then a
traced one, started with ``-X importtime``, each run the same fixed number
of blocks (about half of ``--seconds`` at the seed code), so the counts
repeat exactly for a given seed.  Tracing overhead is the ratio of the two
clients' median request latencies.

See README.md next to this file for the workloads and every metric.
"""

import argparse
import collections
import compileall
import glob
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CLIENT = os.path.join(HERE, "client.py")
WORKLOADS = ("phase-sweep", "numeric-solve", "spectra")
# The timed run is split over this many clients, one after the other, and
# a set-up-only client is launched before, between and after them.  Each
# launch to ready is a set-up sample; setup_s is their median.  The speed
# of the machine the benchmark was tuned on flips between two modes, 1.6x
# apart, every few seconds: samples taken back to back all land in one
# mode, samples spread over the run see both.
TIMED_CLIENTS = 3
# Seconds one block took at the seed code on 2 cores.  The traced run does
# round(seconds / 2 / this) blocks: fixed work, so its counts repeat exactly
# for a seed whatever the speed of the code under test.
NOMINAL_BLOCK_S = {"phase-sweep": 5.5, "numeric-solve": 3.8, "spectra": 0.65}
# every run must end within this many seconds of its start
RUN_DEADLINE_S = 170.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS")
# One BLAS/OpenMP thread per client.  With the default (one per core) on a
# shared 2-vCPU machine, one request's eig time varied up to 10x between
# repeats, and the spectra p50 spread 26% over runs of the same seed;
# with one thread it spread 7%.  The CLI's process pool is left at its
# default size.
PINNED_THREADS = {name: "1" for name in THREAD_ENV}

END_TO_END = (
    ("setup_s", "s"), ("req_ms_p50", "ms"), ("req_ms_p90", "ms"),
    ("req_per_s", "1/s"), ("points_per_s", "1/s"), ("peak_rss_mb", "MB"),
    ("certified_frac", "ratio"), ("converged_frac", "ratio"),
)

# per-layer metric -> unit; values come from layer_metrics()
PER_LAYER = (
    ("setup.import_s", "s"), ("setup.modules_loaded", "count"),
    ("setup.import.numpy_s", "s"), ("setup.import.scipy_linalg_s", "s"),
    ("setup.import.scipy_optimize_s", "s"), ("setup.warmup_s", "s"),
    ("cli.main.calls", "count"), ("cli.main.self_s", "s"),
    ("cli.pool.created", "count"), ("cli.pool.span_s", "s"),
    ("cli.pool.worker_busy_s", "s"),
    ("models.classify_region.calls", "count"),
    ("models.classify_region.self_s", "s"),
    ("models.mu3_deformed.calls", "count"),
    ("models.find_exceptional_point.calls", "count"),
    ("models.find_exceptional_point.self_s", "s"),
    ("models.find_exceptional_point.classify_calls", "count"),
    ("models.solve_generic_numeric.calls", "count"),
    ("models.solve_generic_numeric.self_s", "s"),
    ("models.solve_generic_numeric.resid_evals", "count"),
    ("models.minimize.calls", "count"), ("models.minimize.self_s", "s"),
    ("models.least_squares.calls", "count"),
    ("models.least_squares.self_s", "s"),
    ("dyson.adjoint_poly.calls", "count"), ("dyson.adjoint_poly.self_s", "s"),
    ("dyson.adjoint_generator_closed.calls", "count"),
    ("dyson.adjoint_generator_oracle.calls", "count"),
    ("dyson.adjoint_generator_oracle.self_s", "s"),
    ("algebra.normal_order_product.calls", "count"),
    ("algebra.normal_order_product.self_s", "s"),
    ("algebra.normal_order_product.term_pairs", "count"),
    ("algebra.OperatorPoly.new.calls", "count"),
    ("algebra.dagger.calls", "count"), ("algebra.dagger.self_s", "s"),
    ("algebra.pt_apply.calls", "count"), ("algebra.pt_apply.self_s", "s"),
    ("representations.make_representation.calls", "count"),
    ("representations.make_representation.self_s", "s"),
    ("representations.poly_to_matrix.calls", "count"),
    ("representations.poly_to_matrix.self_s", "s"),
    ("representations.eig.calls", "count"),
    ("representations.eig.self_s", "s"),
    ("representations.eig.n3_sum", "count"),
    ("representations.diagonalize_classify.calls", "count"),
    ("representations.diagonalize_classify.self_s", "s"),
    ("representations.converged_ratio", "ratio"),
    ("trace.req_ms_p50_untraced", "ms"), ("trace.req_ms_p50_traced", "ms"),
    ("trace.overhead_ratio", "ratio"), ("trace.blocks", "count"),
)


class BenchError(Exception):
    """A run that cannot produce a result; exits nonzero, prints none."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 < args.seconds <= 120:
        ap.error("--seconds must be in (0, 120]")
    return args


# ---------------------------------------------------------------------------
# launching clients


class Child:
    """A client process in its own session, so its pool workers die with it."""

    def __init__(self, root, workdir, name, argv, importtime=False):
        self.result = os.path.join(workdir, name + ".json")
        self.errlog = os.path.join(workdir, name + ".err")
        cmd = [sys.executable]
        if importtime:
            cmd += ["-X", "importtime"]
        cmd += [CLIENT, *argv, "--workdir", workdir, "--result", self.result]
        env = dict(os.environ, **PINNED_THREADS)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        self._err = open(self.errlog, "wb")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env,
                                     stdout=subprocess.PIPE, stderr=self._err,
                                     start_new_session=True)

    def wait_ready(self, deadline):
        """Seconds from launch to the client's READY line."""
        fd = self.proc.stdout
        left = deadline - time.perf_counter()
        ready, _, _ = select.select([fd], [], [], max(left, 0.0))
        line = fd.readline() if ready else b""
        t = time.perf_counter() - self.t0
        if line.strip() != b"READY":
            raise BenchError("client did not get ready: "
                             + self.stderr_tail())
        return t

    def finish(self, deadline):
        try:
            rc = self.proc.wait(timeout=max(deadline - time.perf_counter(),
                                            0.0))
        except subprocess.TimeoutExpired:
            raise BenchError("client overran the run deadline")
        if rc != 0:
            raise BenchError(f"client exited {rc}: " + self.stderr_tail())
        with open(self.result) as f:
            return json.load(f)

    def stderr_tail(self, n=2000):
        self._err.flush()
        with open(self.errlog, "rb") as f:
            return f.read()[-n:].decode(errors="replace")

    def stop(self):
        # the whole session: the client and any pool worker it left behind
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        self.proc.stdout.close()
        self._err.close()


def run_child(children, root, workdir, name, argv, deadline, **kw):
    child = Child(root, workdir, name, argv, **kw)
    children.append(child)
    setup_s = child.wait_ready(deadline)
    result = child.finish(deadline)
    result["setup_s"] = setup_s
    result["stderr"] = child.errlog
    if result["warmup_failed"]:
        raise BenchError("warm-up failed: " + "; ".join(
            result["warmup_errors"]))
    return result


# ---------------------------------------------------------------------------
# metrics


def p50_ms(latencies):
    return 1e3 * statistics.median(latencies)


def p90_ms(latencies):
    return 1e3 * statistics.quantiles(latencies, n=10, method="inclusive")[8]


def best_latencies(main):
    """Each distinct request's fastest run, in pool order.

    Every request runs several times in a run, spread over it.  The host's
    single-thread speed flips between two modes 1.6x apart every few
    seconds, so one timing lands in either; the fastest of a request's
    runs is its time on the fast mode, and does not hang on how much of
    the run the slow mode took.
    """
    best = {}
    for index, t in zip(main["indices"], main["latencies"]):
        best[index] = min(t, best.get(index, t))
    return [best[k] for k in sorted(best)]


def end_to_end(main, setup_samples):
    lat = main["latencies"]
    best = best_latencies(main)
    window = main["window_s"]
    return {
        "setup_s": statistics.median(setup_samples),
        "req_ms_p50": p50_ms(best),
        "req_ms_p90": p90_ms(best),
        "req_per_s": len(lat) / window,
        "points_per_s": sum(main["points"]) / window,
        "peak_rss_mb": main["peak_rss_mb"],
        # workloads without planted inputs or eigenvalues leave nothing
        # uncertified or unconverged: the share is 1
        "certified_frac": (main["certified"] / main["planted"]
                           if main["planted"] else 1.0),
        "converged_frac": (main["converged"] / main["eigs"]
                           if main["eigs"] else 1.0),
    }


def importtime(path):
    """Cumulative import seconds per top-level name from -X importtime."""
    out = {}
    with open(path, errors="replace") as f:
        for line in f:
            if not line.startswith("import time:"):
                continue
            parts = line.split("|")
            if len(parts) != 3:
                continue
            try:
                cumulative = int(parts[1].strip())
            except ValueError:
                continue
            out[parts[2].strip()] = cumulative * 1e-6
    return out


def layer_metrics(untraced, traced):
    s = traced["trace"]
    c, self_s = s["counts"], s["self_s"]
    imp = importtime(traced["stderr"])

    def calls(name):
        return c.get(name, 0)

    m = {
        "setup.import_s": untraced["import_s"],
        "setup.modules_loaded": untraced["modules_loaded"],
        "setup.import.numpy_s": imp.get("numpy", 0.0),
        "setup.import.scipy_linalg_s": imp.get("scipy.linalg", 0.0),
        "setup.import.scipy_optimize_s": imp.get("scipy.optimize", 0.0),
        "setup.warmup_s": untraced["warmup_s"],
        "cli.pool.created": calls("cli.pool.created"),
        "cli.pool.span_s": s["pool_span_s"],
        "cli.pool.worker_busy_s": s["worker_busy_s"],
        "models.mu3_deformed.calls": calls("models.mu3_deformed"),
        "models.find_exceptional_point.classify_calls":
            calls("models.find_exceptional_point.classify_calls"),
        "dyson.adjoint_generator_closed.calls":
            calls("dyson.adjoint_generator_closed"),
        "algebra.normal_order_product.term_pairs":
            calls("algebra.normal_order_product.term_pairs"),
        "algebra.OperatorPoly.new.calls": calls("algebra.OperatorPoly.new"),
        "representations.eig.n3_sum": calls("representations.eig.n3_sum"),
    }
    solves = calls("models.solve_generic_numeric")
    m["models.solve_generic_numeric.resid_evals"] = (
        calls("models.solve_generic_numeric.resid_evals") / solves
        if solves else 0.0)
    eigs = calls("representations.diagonalize_classify.eigenvalues")
    m["representations.converged_ratio"] = (
        calls("representations.diagonalize_classify.converged") / eigs
        if eigs else 1.0)
    for name, unit in PER_LAYER:
        if name in m:
            continue
        base, _, field = name.rpartition(".")
        if field == "calls":
            m[name] = calls(base)
        elif field == "self_s":
            m[name] = self_s.get(base, 0.0)
    p50_u = p50_ms(untraced["latencies"])
    p50_t = p50_ms(traced["latencies"])
    m.update({"trace.req_ms_p50_untraced": p50_u,
              "trace.req_ms_p50_traced": p50_t,
              "trace.overhead_ratio": p50_t / p50_u,
              "trace.blocks": traced["blocks"]})
    return m


# ---------------------------------------------------------------------------
# provenance and digests


def provenance(root, versions):
    sha = "unavailable"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "code_digest": code_digest(package_dir(root)),
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "client_thread_env": PINNED_THREADS,
        "caller_thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        **versions,
    }


def package_dir(root):
    return os.path.join(root, "src", "deformed_e2")


def code_digest(directory):
    """sha256 over the *.py files of a directory, to key digests by code."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(directory, "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def digest_repeat(out_dir, key, digest):
    """Compare with the digest an earlier run of the same code recorded."""
    path = os.path.join(out_dir, "digests.json")
    try:
        with open(path) as f:
            ledger = json.load(f)
    except (OSError, ValueError):
        ledger = {}
    seen = ledger.get(key)
    if seen is None:
        ledger[key] = digest
        with open(path, "w") as f:
            json.dump(ledger, f, indent=1, sort_keys=True)
        return "first run of this code and seed"
    return "repeats" if seen == digest else "DIFFERS from an earlier run"


# ---------------------------------------------------------------------------
# runs


def merge_parts(parts):
    """One result for timed clients that ran one after the other."""
    main = dict(parts[0])  # versions, pool size and the run digest
    for key in ("latencies", "indices", "points", "errors"):
        main[key] = [x for part in parts for x in part[key]]
    for key in ("attempted", "failed", "planted", "certified", "eigs",
                "converged", "blocks", "window_s", "repeated_requests",
                "repeat_mismatches"):
        main[key] = sum(part[key] for part in parts)
    main["peak_rss_mb"] = max(part["peak_rss_mb"] for part in parts)
    # a request that a later client ran again must give the same bytes
    seen = {}
    for part in parts:
        for index, digest in part["digests"].items():
            if index in seen:
                main["repeated_requests"] += 1
                main["repeat_mismatches"] += seen[index] != digest
            else:
                seen[index] = digest
    return main


def plain_run(args, root, workdir, children, deadline):
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    samples, parts = [], []
    for k in range(TIMED_CLIENTS + 1):
        r = run_child(children, root, workdir, f"setup{k}",
                      base + ["--mode", "setup"], deadline)
        samples.append(r["setup_s"])
        if k == TIMED_CLIENTS:
            break
        # a client stops at a block boundary; the next one takes up the
        # slack, so the run as a whole overshoots --seconds by one block
        share = (args.seconds * (k + 1) / TIMED_CLIENTS
                 - sum(part["window_s"] for part in parts))
        first = sum(part["blocks"] for part in parts)
        part = run_child(children, root, workdir, f"timed{k}",
                         base + ["--mode", "timed", "--seconds",
                                 str(max(share, 0.0)),
                                 "--first-block", str(first)], deadline)
        samples.append(part["setup_s"])
        parts.append(part)
    main = merge_parts(parts)
    metrics = end_to_end(main, samples)
    runs = collections.Counter(main["indices"])
    extra = {"setup_samples": samples,
             "failed_frac": main["failed"] / main["attempted"],
             "timed_requests": len(main["latencies"]),
             "distinct_requests": len(runs),
             "runs_per_request": [min(runs.values()), max(runs.values())],
             "p90_samples_beyond": int(len(runs) * 0.1)}
    return main, metrics, extra


def traced_run(args, root, workdir, children, deadline):
    blocks = max(2, round(args.seconds / 2 / NOMINAL_BLOCK_S[args.workload]))
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--mode", "blocks", "--blocks", str(blocks)]
    untraced = run_child(children, root, workdir, "untraced", base, deadline)
    traced = run_child(children, root, workdir, "traced", base + ["--trace"],
                       deadline, importtime=True)
    metrics = layer_metrics(untraced, traced)
    same = untraced["digests"] == traced["digests"]
    if not same:
        print("warning: tracing changed at least one output", file=sys.stderr)
    main = dict(traced)
    for key in ("attempted", "failed"):
        main[key] = untraced[key] + traced[key]
    extra = {"trace_changes_output": not same,
             "untraced_failed": untraced["failed"],
             "failed_frac": main["failed"] / main["attempted"],
             "pool_workers_traced": traced["trace"]["worker_tasks"] > 0
             or traced["trace"]["counts"].get("cli.pool.created", 0) == 0}
    shutil.copy(os.path.join(workdir, "spans.npz"),
                os.path.join(os.path.dirname(workdir),
                             f"spans-{args.workload}-seed{args.seed}.npz"))
    return main, metrics, extra


def main(argv=None):
    args = parse_args(argv)
    t_start = time.perf_counter()
    deadline = t_start + RUN_DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(package_dir(root), "cli.py")):
        print("run.py: no src/deformed_e2 here; run it from the root of a "
              "deformed-e2 checkout", file=sys.stderr)
        return 2
    # the build: byte-compile once so no client pays for it in set-up
    for d in (os.path.join(root, "src"), HERE):
        if not compileall.compile_dir(d, quiet=1):
            print(f"run.py: cannot byte-compile {d}", file=sys.stderr)
            return 2
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    children = []
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        run = plain_run if args.trace == 0 else traced_run
        main_result, metrics, extra = run(args, root, workdir, children,
                                          deadline)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3
    finally:
        for child in children:
            child.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    names = END_TO_END if args.trace == 0 else PER_LAYER
    # same package and same benchmark code: the outputs must repeat
    key = ":".join((code_digest(package_dir(root)), code_digest(HERE),
                    args.workload, str(args.seed)))
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance(root, main_result["versions"]),
        "metrics": metrics, **extra,
        "attempted": main_result["attempted"],
        "failed": main_result["failed"],
        "errors": main_result["errors"],
        "blocks": main_result["blocks"],
        "pool_size": main_result["pool_size"],
        "run_digest": main_result["run_digest"],
        "repeated_requests": main_result["repeated_requests"],
        "repeat_mismatches": main_result["repeat_mismatches"],
        "digest_across_runs": digest_repeat(out_dir, key,
                                            main_result["run_digest"]),
        "wall_s": time.perf_counter() - t_start,
    }
    path = os.path.join(
        out_dir, f"report-{args.workload}-seed{args.seed}-trace{args.trace}"
        ".json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    summary = {k: v for k, v in report.items() if k != "metrics"}
    print(json.dumps(summary, indent=1), file=sys.stderr)
    print(json.dumps({
        "correct": main_result["failed"] == 0,
        "attempted": main_result["attempted"],
        "failed": main_result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
