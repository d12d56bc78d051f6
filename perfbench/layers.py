"""Spans and counters around fockop's public functions, installed from outside.

install() replaces each traced function in every fockop module that holds
it, so calls through a name another module imported (for example
dynamics' `build_truncation`) are traced as well as calls through the
module.  Spans (name, start, end, parent, job) stay in memory until
write(); self time is a span's duration minus its child spans' durations.
"""

import importlib
import json
import math
import sys
import time

# layer name -> (module, attribute) of every function the layer times
SPANS = {
    "cli.main": [("cli", "main")],
    "truncation.build_basis": [("truncation", "build_basis")],
    "truncation.build_truncation": [("truncation", "build_truncation")],
    "truncation.build_adjoint_truncation": [("truncation", "build_adjoint_truncation")],
    "truncation.norm": [("truncation", "TruncatedOperator.norm"),
                        ("truncation", "TruncatedOperator.singular_values")],
    "truncation.spectrum": [("truncation", "TruncatedOperator.spectrum")],
    "truncation.commutator": [("truncation", "truncated_commutator_norm")],
    "analysis.schatten_integrals": [("analysis", "schatten_integrals")],
    "analysis.hilbert_schmidt_norm_sq": [("analysis", "hilbert_schmidt_norm_sq")],
    "analysis.classify": [("analysis", "classify")],
    "analysis.closed_forms": [
        ("analysis", name) for name in (
            "check_bounded", "check_compact", "solve_z0", "operator_norm",
            "essential_norm", "check_normal", "check_hyponormal",
            "check_essentially_normal", "hilbert_schmidt_norm_sq_closed_form",
            "berezin_transform",
        )
    ],
    "spectrum.enumerate_spectrum": [("spectrum", "enumerate_spectrum")],
    "spectrum.eigenfunction": [("spectrum", "construct_eigenfunction"),
                               ("spectrum", "verify_eigenfunction")],
    "symbol.block_schur_of_symbol": [("symbol", "block_schur_of_symbol"),
                                     ("symbol", "block_schur_form")],
    "dynamics.check_cyclic": [("dynamics", "check_cyclic")],
    "dynamics.rational_independence": [("dynamics", "rational_independence")],
}

# layers reported as inclusive time per job rather than self time: each is
# a whole entry point whose cost is the question
INCLUSIVE = {"cli.main", "analysis.classify"}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job]
        self.self_time = {}
        self.inclusive = {}
        self.counts = {
            "polynomials.mul_calls": 0, "dynamics.pslq_calls": 0,
            "truncation.columns": 0, "spectrum.products": 0, "spectrum.kept": 0,
            "analysis.check_bounded_in_classify": 0, "analysis.classify_calls": 0,
        }
        self.matrix_mb = 0.0
        self.job = None
        self._stack = []  # [span index, child time]
        self._in_classify = 0

    # -- spans

    def _wrap(self, name, fn, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            label = name
            if fn.__name__ == "build_truncation" and kwargs.get("exact", args[2:3] == (True,)):
                label = "truncation.build_truncation_exact"
            if fn.__name__ == "check_bounded" and tracer._in_classify:
                tracer.counts["analysis.check_bounded_in_classify"] += 1
            if fn.__name__ == "classify":
                tracer._in_classify += 1
                tracer.counts["analysis.classify_calls"] += 1
            idx = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else None
            tracer.spans.append([label, time.perf_counter(), None, parent, tracer.job])
            tracer._stack.append([idx, 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, child = tracer._stack.pop()
                span = tracer.spans[idx]
                span[2] = end
                dur = end - span[1]
                tracer.self_time[label] = tracer.self_time.get(label, 0.0) + dur - child
                tracer.inclusive[label] = tracer.inclusive.get(label, 0.0) + dur
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                if fn.__name__ == "classify":
                    tracer._in_classify -= 1
            if on_result is not None:
                on_result(result)
            return result

        traced.__name__ = fn.__name__
        traced.__wrapped__ = fn
        return traced

    def _count(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _built(self, op):
        self.counts["truncation.columns"] += op.dim
        self.matrix_mb = max(self.matrix_mb, 16.0 * op.dim**2 / 2**20)

    def _enumerated(self, spec):
        n = spec.eigenvalues.shape[0]
        self.counts["spectrum.products"] += math.comb(spec.max_degree + n, n)
        self.counts["spectrum.kept"] += len(spec.products)

    def install(self):
        """Wrap every traced function of the imported fockop package."""
        import mpmath

        pkg = importlib.import_module("fockop")
        for modname in {m for targets in SPANS.values() for m, _ in targets}:
            importlib.import_module("fockop." + modname)
        mods = [m for k, m in sys.modules.items() if k == "fockop" or k.startswith("fockop.")]
        hooks = {
            "build_truncation": self._built,
            "build_adjoint_truncation": self._built,
            "enumerate_spectrum": self._enumerated,
        }
        for name, targets in SPANS.items():
            for modname, attr in targets:
                mod = getattr(pkg, modname)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                    continue
                orig = getattr(mod, attr)
                wrapped = self._wrap(name, orig, hooks.get(attr))
                for m in mods:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, key, wrapped)
        mul = pkg.polynomials.MultiPolynomial.__mul__
        pkg.polynomials.MultiPolynomial.__mul__ = self._count("polynomials.mul_calls", mul)
        mpmath.pslq = self._count("dynamics.pslq_calls", mpmath.pslq)

    # -- results

    def metrics(self, jobs):
        """Per-layer metrics: seconds and counts per job, except
        check_bounded per classify call and the largest matrix built."""
        out = {}
        for name in SPANS:
            table = self.inclusive if name in INCLUSIVE else self.self_time
            out[name + "_s"] = (table.get(name, 0.0) / jobs, "s")
        out["truncation.build_truncation_exact_s"] = (
            self.self_time.get("truncation.build_truncation_exact", 0.0) / jobs, "s")
        c = self.counts
        for key in ("polynomials.mul_calls", "dynamics.pslq_calls", "truncation.columns",
                    "spectrum.products", "spectrum.kept"):
            out[key] = (c[key] / jobs, "count")
        calls = c["analysis.classify_calls"]
        out["analysis.check_bounded_per_classify"] = (
            c["analysis.check_bounded_in_classify"] / calls if calls else 0.0, "count")
        out["truncation.matrix_mb"] = (self.matrix_mb, "MB")
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"], "spans": self.spans}, fh)
