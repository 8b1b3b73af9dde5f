"""Span tracer for the traced (--trace 1) run.

Each public function of the ngfiber modules is replaced, in every module
namespace that holds it, by a wrapper that records a span: name, start, end
and parent.  The package binds names with ``from .x import f``, so patching
only the defining module would miss most calls.  Methods and constructors
are not wrapped; their time counts toward the function that called them.

Spans stay in memory; ``summary`` turns them into per-layer self times
(span time minus the part of it covered by child spans), inclusive times
of a few functions, and work counts recorded at the same boundaries.
"""

from __future__ import annotations

import inspect
import sys
import threading
import time
from collections import defaultdict

MODULES = ("states", "bath", "channel", "negativity", "fock", "bangbang", "design",
           "config", "validate", "cli")

# private helpers wrapped only so their work can be counted
EXTRA = {"channel": ("_thermal_phase_means",)}

INCLUSIVE = ("states.build_state", "bath.gibbs_weights", "bath.dissipation_rate_quadrature",
             "fock.partial_transpose", "fock.expm_hermitian", "bangbang.build_hamiltonian",
             "bangbang.joint_phase_shifter")

CALLS = ("bath.dissipation_rate_quadrature", "bath.dissipation_rate_closed",
         "fock.expm_hermitian", "bangbang.build_hamiltonian")


class Tracer:
    def __init__(self):
        self.spans = []  # records [name, start, end, parent record]
        self.counts = defaultdict(int)
        self.op = None
        self._levels = 0
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # a sweep worker thread: its spans belong to the span waiting on it
        return self._main[-1] if self._main else self.op

    def begin_op(self):
        self.op = ["op", time.perf_counter(), None, None]
        self.spans.append(self.op)

    def end_op(self):
        self.op[2] = time.perf_counter()
        self.op = None

    def _count(self, name, args, result):
        c = self.counts
        if name == "states.build_state":
            c["states.build_state.terms"] += result.n_max + 1
        elif name == "bath.gibbs_weights":
            self._levels = result[1] + 1
            c["bath.gibbs_weights.levels"] += self._levels
        elif name == "channel._thermal_phase_means":
            c["channel.thermal_cells"] += (args[0] + 1) * self._levels
        elif name == "channel.fidelity":
            c["channel.thermal_cells"] += (args[0].n_max + 1) * self._levels
        elif name in ("negativity.negativity_fock", "negativity.negative_eigenvalue_count"):
            c["negativity.eig_dim3"] += args[0].space.dim ** 3
        elif name == "fock.expm_hermitian":
            c["fock.expm_hermitian.dim3"] += args[0].shape[0] ** 3
        elif name in ("bangbang.propagate_bb", "bangbang.propagate_free"):
            c["bangbang.segments"] += len(args[0])

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            stack = self._stack()
            rec = [name, time.perf_counter(), None, self._parent(stack)]
            self.spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            self._count(name, args, result)
            return result

        return traced

    def install(self):
        """Wrap every public ngfiber function wherever it is bound."""
        wrappers = {}
        for short in MODULES:
            mod = sys.modules[f"ngfiber.{short}"]
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in EXTRA.get(short, ()):
                    continue
                wrappers[id(obj)] = self.wrap(obj, f"{short}.{attr}")
        for name, ns in list(sys.modules.items()):
            if name != "ngfiber" and not name.startswith("ngfiber."):
                continue
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    setattr(ns, attr, wrappers[id(obj)])

    def summary(self, passes):
        """Per-pass layer metrics from the recorded spans."""
        children = defaultdict(list)
        for rec in self.spans:
            if rec[3] is not None:
                children[id(rec[3])].append(rec)
        metrics = defaultdict(float)
        for name in INCLUSIVE:
            metrics[f"{name}.ms"] = 0.0
        op_ms = 0.0
        for rec in self.spans:
            dur = rec[2] - rec[1]
            covered = _union(children.get(id(rec), ()))
            name = rec[0]
            if name == "op":
                op_ms += dur
                metrics["remainder_ms"] += dur - covered
                continue
            module = name.split(".")[0]
            metrics[f"{module}.self_ms"] += dur - covered
            if name in ("bangbang.propagate_bb", "bangbang.propagate_free"):
                metrics["bangbang.propagate.self_ms"] += dur - covered
            if name in INCLUSIVE:
                metrics[f"{name}.ms"] += dur
            if name in CALLS:
                metrics[f"{name}.calls"] += 1
            if module in ("channel", "negativity") and not name.split(".")[1].startswith("_"):
                metrics[f"{module}.calls"] += 1
        out = {}
        for key, value in metrics.items():
            out[key] = value * 1e3 if key.endswith("ms") else value
        out["op_ms_total"] = op_ms * 1e3
        out.update(self.counts)
        return {k: v / passes for k, v in out.items()}


def _union(recs):
    """Length of the union of the records' [start, end] intervals."""
    total, reach = 0.0, None
    for rec in sorted(recs, key=lambda r: r[1]):
        start, end = rec[1], rec[2]
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total
