"""In-memory call spans around the public functions of levylab's modules.

`install` rebinds every public function of covariance, simulate, spectral,
levy_kernel and pvariation, and the `cmd_*` handlers of cli, on their module
objects. The package calls across modules through module attributes
(`cov.gram_matrix`) and within a module through module globals
(`variation_profile -> v2p_grid`), so both kinds of call land in a wrapper.
Private helpers (`_batch_increments`, `_star_term`) stay unwrapped: their
cost shows in the self time of the public caller.

A span records name, start, end, process CPU time at both ends, its parent
span on the calling thread's stack, and a few exact counts taken from the
call's arguments and result. Spans stay in memory until `Tracer.spans` is
written out by the caller. Wrappers only read arguments and results, so
traced and untraced runs write the same artifacts byte for byte.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time

TRACED_MODULES = ("covariance", "simulate", "spectral", "levy_kernel", "pvariation")


def _jitter_rung(ladder, gram, factor) -> int:
    """Index of the jitter ladder rung that produced `factor`.

    cholesky_factor returns L with L L^T = G + j * max|G| * I, so
    (L L^T - G)[0,0] / max|G| = L[0,0]^2 / max|G| - G[0,0] / max|G| is j up
    to rounding (about 1e-16), far below the smallest nonzero rung (1e-12).
    """
    matrix = gram.matrix
    scale = float(abs(matrix).max()) or 1.0
    j = (float(factor[0, 0]) ** 2 - float(matrix[0, 0])) / scale
    return min(range(len(ladder)), key=lambda k: abs(ladder[k] - j))


def _counters(levylab):
    """Exact per-call counts, keyed by span name: fn(args, kwargs, result) -> dict."""
    ladder = levylab.covariance.JITTER_LADDER

    def threads(args, kwargs):
        return kwargs.get("threads", args[1] if len(args) > 1 else 1)

    return {
        "covariance.eval_grid": lambda a, k, r: {"points": int(r.size)},
        "covariance.gram_matrix": lambda a, k, r: {"entries": int(r.matrix.size)},
        "covariance.cholesky_factor": lambda a, k, r: {
            "jitter_rung": _jitter_rung(ladder, a[0] if a else k["gram"], r)
        },
        "simulate.run_mc": lambda a, k, r: {
            "samples": int(r.config.n_samples),
            "workers": int(threads(a, k)),
        },
        "spectral.eigen_solve": lambda a, k, r: {
            "dim": int((a[0] if a else k["matrix"]).shape[0])
        },
    }


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                cpu1 = time.process_time()
                stack.pop()
            span = {
                "id": span_id,
                "parent": parent,
                "name": name,
                "start": t0,
                "end": t1,
                "cpu": cpu1 - cpu0,
                "thread": threading.get_ident(),
            }
            if counter is not None:
                span.update(counter(args, kwargs, result))
            self.spans.append(span)
            return result

        return traced

    def install(self, levylab):
        """Rebind the public functions of the traced modules and cli.cmd_*."""
        counters = _counters(levylab)
        targets = [(getattr(levylab, mod), mod, lambda n: not n.startswith("_"))
                   for mod in TRACED_MODULES]
        targets.append((levylab.cli, "cli", lambda n: n.startswith("cmd_")))
        for module, label, keep in targets:
            for attr, obj in list(vars(module).items()):
                if not (keep(attr) and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    continue
                name = f"{label}.{attr}"
                setattr(module, attr, self.wrap(name, obj, counters.get(name)))


def self_times(spans):
    """Span duration minus the union of its children's intervals, per span id."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for child in sorted(children.get(span["id"], ()), key=lambda s: s["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = span["end"] - span["start"] - covered
    return result
