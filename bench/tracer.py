"""In-memory span tracer for the traced benchmark run.

``install`` wraps the public functions of each ``deformed_e2`` module.  A
wrapped function records a span (name, start, end, parent) or only bumps a
counter.  Names bound by ``from ... import`` are rebound in every module
that holds them, so ``adjoint_poly`` is traced whether ``dyson``,
``models`` or ``cli`` calls it, and ``minimize``, ``least_squares`` and
``eig`` are traced where the package imported them.

The CLI's classify pool forks its workers.  A worker records the spans of
each grid point in a fresh buffer and returns it attached to the point's
result; the wrapper around ``cli._run_pool`` merges the buffers into the
parent's trace under the pool's span.  The clock is CLOCK_MONOTONIC, which
forked processes share, so worker spans line up with the parent's.

A span's self time is its duration minus the union of its children's
intervals, so children that ran in parallel workers are not counted twice.
"""

import functools
import os
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import numpy as np

# module -> functions that get a span (calls and self time)
SPANS = {
    "cli": ("main", "_run_pool", "_classify_point"),
    "models": ("classify_region", "find_exceptional_point",
               "solve_generic_numeric", "minimize", "least_squares"),
    "dyson": ("adjoint_poly", "adjoint_generator_oracle"),
    "algebra": ("normal_order_product", "dagger", "pt_apply"),
    "representations": ("make_representation", "poly_to_matrix", "eig",
                        "diagonalize_classify"),
}
# module -> functions that only count calls
COUNTS = {
    "models": ("mu3_deformed",),
    "dyson": ("adjoint_generator_closed",),
}


def span_name(module, func):
    return f"{module}.{func.lstrip('_')}"


class WorkerResult(tuple):
    """A pool task's result tuple carrying the spans the worker recorded."""


class Tracer:
    """Spans as parallel lists, plus named counters, for one process."""

    def __init__(self):
        self.pid = os.getpid()
        self.pools = []
        self.worker_busy_s = 0.0
        self.worker_tasks = 0
        self.counts = Counter()  # cleared in place: wrappers hold it
        self._reset()

    def _reset(self):
        self.names, self.parents, self.starts, self.ends = [], [], [], []
        self.stack = [-1]
        self.counts.clear()

    def open(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.stack.append(i)
        self.counts[name] += 1
        self.starts.append(time.perf_counter())
        return i

    def close(self, i):
        self.ends[i] = time.perf_counter()
        self.stack.pop()

    def take(self):
        """Detach this process's buffer (used inside pool workers)."""
        out = (self.names, self.parents, self.starts, self.ends,
               dict(self.counts))
        self._reset()
        return out

    def merge(self, buf, parent):
        names, parents, starts, ends, counts = buf
        base = len(self.names)
        for k, name in enumerate(names):
            self.names.append(name)
            self.parents.append(parent if parents[k] < 0
                                else base + parents[k])
            self.starts.append(starts[k])
            self.ends.append(ends[k])
            if parents[k] < 0:
                self.worker_busy_s += ends[k] - starts[k]
                self.worker_tasks += 1
        self.counts.update(counts)

    # ---- summary

    def self_times(self):
        """Per-span self time: duration minus the union of child intervals."""
        starts = np.asarray(self.starts)
        ends = np.asarray(self.ends)
        selfs = ends - starts
        kids = {}
        for i, p in enumerate(self.parents):
            if p >= 0:
                kids.setdefault(p, []).append(i)
        for p, idx in kids.items():
            lo, hi = starts[p], ends[p]
            iv = sorted((max(starts[i], lo), min(ends[i], hi)) for i in idx)
            covered, cur_a, cur_b = 0.0, None, None
            for a, b in iv:
                if b <= a:
                    continue
                if cur_b is None or a > cur_b:
                    if cur_b is not None:
                        covered += cur_b - cur_a
                    cur_a, cur_b = a, b
                else:
                    cur_b = max(cur_b, b)
            if cur_b is not None:
                covered += cur_b - cur_a
            selfs[p] -= covered
        return selfs

    def summary(self):
        selfs = self.self_times()
        by_name = {}
        for name, s in zip(self.names, selfs):
            by_name[name] = by_name.get(name, 0.0) + float(s)
        return {"self_s": by_name, "counts": dict(self.counts),
                "pools": len(self.pools),
                "pool_span_s": sum(b - a for a, b in self.pools),
                "worker_busy_s": self.worker_busy_s,
                "worker_tasks": self.worker_tasks}

    def save(self, path):
        table = sorted(set(self.names))
        code = {n: k for k, n in enumerate(table)}
        np.savez(path, names=np.array(table),
                 name=np.array([code[n] for n in self.names], dtype=np.int32),
                 parent=np.array(self.parents, dtype=np.int64),
                 start=np.array(self.starts), end=np.array(self.ends))


def _span(tr, name, fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        i = tr.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.close(i)
    return wrapped


def _counted(tr, name, fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        tr.counts[name] += 1
        return fn(*args, **kwargs)
    return wrapped


def _wrap_special(tr, name, fn):
    """Spans that also keep a layer-specific counter."""
    inner = _span(tr, name, fn)
    c = tr.counts

    if name == "algebra.normal_order_product":
        def wrapped(p, q):
            c[name + ".term_pairs"] += len(p.terms) * len(q.terms)
            return inner(p, q)
    elif name == "models.find_exceptional_point":
        def wrapped(*args, **kwargs):
            before = c["models.classify_region"]
            try:
                return inner(*args, **kwargs)
            finally:
                c[name + ".classify_calls"] += (c["models.classify_region"]
                                                - before)
    elif name == "models.solve_generic_numeric":
        def wrapped(*args, **kwargs):
            before = c["dyson.adjoint_poly"]
            try:
                return inner(*args, **kwargs)
            finally:
                c[name + ".resid_evals"] += c["dyson.adjoint_poly"] - before
    elif name == "representations.eig":
        def wrapped(a, *args, **kwargs):
            c[name + ".n3_sum"] += int(a.shape[0]) ** 3
            return inner(a, *args, **kwargs)
    elif name == "representations.diagonalize_classify":
        def wrapped(*args, **kwargs):
            report = inner(*args, **kwargs)
            c[name + ".eigenvalues"] += len(report.flags)
            c[name + ".converged"] += sum(report.flags)
            return report
    elif name == "cli.classify_point":
        def wrapped(payload):
            if os.getpid() == tr.pid:
                return inner(payload)
            # a forked pool worker: ship this point's spans with its result
            tr.take()
            out = WorkerResult(inner(payload))
            out.trace = tr.take()
            return out
    elif name == "cli.run_pool":
        def wrapped(fn_, payloads, workers):
            i = tr.open(name)
            try:
                results = fn(fn_, payloads, workers)
                out = []
                for r in results:
                    if isinstance(r, WorkerResult):
                        tr.merge(r.trace, i)
                        r = tuple(r)
                    out.append(r)
                return out
            finally:
                tr.close(i)
    else:
        return inner
    return functools.wraps(fn)(wrapped)


def _pool_class(tr):
    class TracedPool(ProcessPoolExecutor):
        """Counts pool creations and times each pool from start to shutdown."""

        def __init__(self, *args, **kwargs):
            self._bench_t0 = time.perf_counter()
            tr.counts["cli.pool.created"] += 1
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            try:
                super().shutdown(*args, **kwargs)
            finally:
                tr.pools.append((self._bench_t0, time.perf_counter()))

    return TracedPool


def _package_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "deformed_e2"
                                  or k.startswith("deformed_e2."))]


def install():
    """Wrap the package's public functions; returns (tracer, undo)."""
    import deformed_e2.algebra as algebra
    import deformed_e2.cli as cli

    tr = Tracer()
    mods = _package_modules()
    undo = []

    def rebind(original, wrapper):
        for mod in mods:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))

    for table, make in ((SPANS, _wrap_special), (COUNTS, _counted)):
        for modname, funcs in table.items():
            mod = sys.modules[f"deformed_e2.{modname}"]
            for func in funcs:
                original = getattr(mod, func)
                rebind(original, make(tr, span_name(modname, func), original))

    init = algebra.OperatorPoly.__init__
    counts = tr.counts

    @functools.wraps(init)
    def counted_init(self, terms, theta):
        counts["algebra.OperatorPoly.new"] += 1
        init(self, terms, theta)

    algebra.OperatorPoly.__init__ = counted_init
    undo.append((algebra.OperatorPoly, "__init__", init))
    rebind(cli.ProcessPoolExecutor, _pool_class(tr))

    def uninstall():
        for obj, key, original in reversed(undo):
            setattr(obj, key, original)

    return tr, uninstall
