"""Span tracing around calls into sympovm's public functions.

Wrappers are installed from the benchmark's side: each traced function is
replaced in its defining module and in every loaded sympovm module that
bound it with ``from ... import``; methods are replaced on their class.
Spans (name, start, end, parent) stay in memory and are written once, at
the end of a run.  A span's self time is its duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute path, reported fields) of every traced function; the
# metric prefix is the module name without the package and without a
# leading underscore (metric names must start with a letter).
TARGETS = (
    ("sympovm.extremal", "catalog_extrema", ("calls", "self_s")),
    ("sympovm.feasible", "lp_solve", ("calls", "self_s")),
    ("sympovm.feasible", "convex_decompose", ("self_s",)),
    ("sympovm.feasible", "build_feasible_polytope", ("self_s",)),
    ("sympovm.discrimination", "optimal_local_bayes", ("self_s",)),
    ("sympovm.discrimination", "optimal_local_info", ("self_s",)),
    ("sympovm.protocols", "verify_protocol", ("self_s",)),
    ("sympovm.protocols", "LocalProtocol.outcome_operator", ("calls", "self_s")),
    ("sympovm.protocols", "build_pure_state_set", ("calls", "self_s")),
    ("sympovm.symmetry", "twirl_coefficients", ("calls", "self_s")),
    ("sympovm.operators", "mat_kron", ("calls", "self_s")),
    ("sympovm.operators", "psd_exact", ("calls", "self_s")),
    ("sympovm.operators", "BipartiteOperator.__matmul__", ("self_s",)),
    ("sympovm.symmetry", "commutant_basis", ("self_s",)),
    ("sympovm.symmetry", "pt_coefficient_map", ("self_s",)),
    ("sympovm._exactlin", "rref", ("calls", "self_s")),
    ("sympovm._exactlin", "det", ("self_s",)),
    ("sympovm.nogo", "naive_transform_search", ("self_s",)),
    ("sympovm.nogo", "verify_L_requirements", ("calls", "self_s")),
    ("sympovm.extremal", "enumerate_vertices", ("self_s",)),
    ("sympovm.extremal", "brute_force_vertices", ("self_s",)),
)


def span_name(module, attr):
    return module.split(".", 1)[1].lstrip("_") + "." + attr


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self._stack = []         # indices of the open spans

    def span(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
        return wrapper

    def adopt(self, spans):
        """Append spans recorded by a child process, keeping their nesting."""
        base = len(self.spans)
        for name, start, end, parent in spans:
            self.spans.append([name, start, end,
                               None if parent is None else parent + base])

    def install(self, targets=TARGETS):
        """Wrap every target for the rest of the process."""
        for modname, attr, _ in targets:
            mod = importlib.import_module(modname)
            name = span_name(modname, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self.span(name, orig))
                continue
            orig = getattr(mod, attr)
            wrapped = self.span(name, orig)
            for other in list(sys.modules.values()):
                oname = getattr(other, "__name__", "") or ""
                if (oname == "sympovm" or oname.startswith("sympovm.")) and \
                        getattr(other, attr, None) is orig:
                    setattr(other, attr, wrapped)

    def summary(self, since=0, until=None):
        """{name: [calls, self seconds]} over spans[since:until]."""
        chosen = self.spans[since:until]
        base = since
        child = [0.0] * len(chosen)
        for rec in chosen:
            parent = rec[3]
            if parent is not None and parent >= base:
                child[parent - base] += rec[2] - rec[1]
        out = {}
        for rec, c in zip(chosen, child):
            acc = out.setdefault(rec[0], [0, 0.0])
            acc[0] += 1
            acc[1] += rec[2] - rec[1] - c
        return out

    def dump(self, path, extra=None):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, **(extra or {})}, fh)
