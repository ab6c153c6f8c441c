"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function with a wrapper in every
namespace that holds it: the defining module and every package module that
imported the name (``identities`` imports ``sample_counts``, ``suite`` each
``*_check``, and so on), so no call path slips past a span.  Spans are kept
in memory as ``[name, start_ns, end_ns, parent, request]`` and turned into
per-layer metrics once, at the end of the run.  A span's self time is its
duration minus the time its direct child spans cover.  The tracer's own
counting work after a call returns is recorded as a ``trace.hooks`` span and
taken out of every enclosing span's time.
"""
from __future__ import annotations

import importlib
import math
import sys
import time
from collections import Counter
from functools import wraps

import numpy as np

_PM = "poisson_malliavin"
# span name of the counting hooks, the tracer's own work
HOOKS = "trace.hooks"

# span name -> (module, attribute) targets that record under it
SPANS = {
    "montecarlo.sample_counts": [(f"{_PM}.montecarlo", "sample_counts")],
    "montecarlo.paired": [(f"{_PM}.montecarlo", "MonteCarloBackend.paired")],
    "exact.plan_truncation": [(f"{_PM}.exact", "plan_truncation")],
    "exact.StateTable.build": [(f"{_PM}.exact", "StateTable.build")],
    "exact.paired": [(f"{_PM}.exact", "ExactBackend.paired")],
    "exact.expectation": [(f"{_PM}.exact", "exact_expectation")],
    "exact.build_generator_matrix": [(f"{_PM}.exact", "build_generator_matrix")],
    "exact.ou_pseudo_inverse": [(f"{_PM}.exact", "ou_pseudo_inverse")],
    "exact.splu": [("scipy.sparse.linalg", "splu")],
    "functionals.add_diff_all": [(f"{_PM}.functionals", "add_diff_all")],
    "functionals.field_add_tensor": [(f"{_PM}.functionals", "field_add_tensor")],
    "functionals.field_dropped_diag": [(f"{_PM}.functionals", "field_dropped_diag")],
    "operators.divergence_batch": [(f"{_PM}.operators", "divergence_batch")],
    "operators.bracket_batch": [(f"{_PM}.operators", "bracket_batch")],
    "operators.gamma_batch": [(f"{_PM}.operators", "gamma_batch")],
    "registry.from_spec": [
        (f"{_PM}.registry", "functional_from_spec"),
        (f"{_PM}.registry", "field_from_spec"),
    ],
    "suite.load_config": [(f"{_PM}.suite", "load_config")],
    "suite.run_suite": [(f"{_PM}.suite", "run_suite")],
    "suite.reports_to_json": [(f"{_PM}.suite", "reports_to_json")],
}
_CHECKS = {
    "mecke": "mecke_check",
    "duality": "duality_check",
    "skorokhod": "skorokhod_check",
    "commutation": "commutation_check",
    "product_formula": "product_formula_check",
    "energy_derivation": "energy_derivation_check",
    "gamma_representation": "gamma_representation_check",
    "gamma_form_bound": "gamma_form_bound_check",
    "bracket_expectation": "bracket_expectation_check",
    "non_diffusion": "non_diffusion_counterexample",
    "non_diffusion_control": "chain_rule_control_check",
}
SPANS.update(
    {f"identities.{k}": [(f"{_PM}.identities", v)] for k, v in _CHECKS.items()}
)

# counters a later change may cite; each repeats exactly run to run
COUNTS = {
    "montecarlo.sample_counts.rows": "count",
    "exact.states": "count",
    "exact.paired.rows": "count",
    "exact.generator.nnz": "count",
    "exact.lu_fill_nnz": "count",
    "exact.ou_pseudo_inverse.failures": "count",
    "functionals.field_add_tensor.bytes": "bytes",
    "functionals.batch.rows": "count",
}
# derived from spans and the run's own timings
DERIVED = {
    "montecarlo.distinct_share": "share",
    "functionals.share_of_run": "share",
    "trace.hooks_s": "s",
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPANS:
        units.update({f"{name}.calls": "count", f"{name}.s": "s", f"{name}.self_s": "s"})
    units.update(COUNTS)
    units.update(DERIVED)
    return units


def _distinct_rows(counts: np.ndarray) -> int:
    # mixed-radix key per row, so sorting one int64 column finds repeats
    radix = counts.max(axis=0) + 1
    keys = np.sort(counts @ np.concatenate(([1], np.cumprod(radix[:-1]))))
    return 1 + int(np.count_nonzero(np.diff(keys)))


def _rows(counts) -> int:
    return math.prod(np.shape(counts)[:-1])


# counters updated after a traced call returns: (tracer counts, args, result)
def _after_sample_counts(c, args, out):
    c["montecarlo.sample_counts.rows"] += out.shape[0]
    c["montecarlo.distinct_rows"] += _distinct_rows(out)


def _after_build(c, args, out):
    c["exact.states"] += out.state_count


def _after_exact_paired(c, args, out):
    c["exact.paired.rows"] += args[0].state_count


def _after_generator(c, args, out):
    c["exact.generator.nnz"] += out.matrix.nnz


def _after_splu(c, args, out):
    c["exact.lu_fill_nnz"] += out.L.nnz + out.U.nnz


def _after_add_tensor(c, args, out):
    c["functionals.field_add_tensor.bytes"] += out.nbytes


_AFTER = {
    "montecarlo.sample_counts": _after_sample_counts,
    "exact.StateTable.build": _after_build,
    "exact.paired": _after_exact_paired,
    "exact.build_generator_matrix": _after_generator,
    "exact.splu": _after_splu,
    "functionals.field_add_tensor": _after_add_tensor,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, failure: type[BaseException]):
        self.failure = failure  # typed error counted as ``<span>.failures``
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def span(self, name: str, fn):
        after = _AFTER.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0, 0, stack[-1] if stack else -1, stack[0] if stack else index]
            spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except self.failure:
                counts[f"{name}.failures"] += 1
                raise
            finally:
                record[2] = time.perf_counter_ns()
                stack.pop()
            if after is not None:
                hook = [HOOKS, 0, 0, stack[-1] if stack else -1, record[4]]
                spans.append(hook)
                hook[1] = time.perf_counter_ns()
                after(counts, args, out)
                hook[2] = time.perf_counter_ns()
            return out

        return wrapper

    def row_counter(self, fn):
        counts = self.counts

        @wraps(fn)
        def wrapper(obj, c, *args, **kwargs):
            counts["functionals.batch.rows"] += _rows(c)
            return fn(obj, c, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function in every namespace that holds it."""
        package = [m for k, m in list(sys.modules.items()) if k == _PM or k.startswith(_PM + ".")]
        for name, targets in SPANS.items():
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                if "." in attr:
                    owner, method = attr.split(".")
                    _wrap_method(getattr(module, owner), method, lambda f: self.span(name, f))
                    continue
                original = getattr(module, attr)
                wrapped = self.span(name, original)
                for namespace in [module] + package:
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, key, wrapped)
        functionals = importlib.import_module(f"{_PM}.functionals")
        _wrap_method(functionals.Functional, "batch", self.row_counter)
        _wrap_method(functionals.RandomField, "values", self.row_counter)

    def metrics(self, run_s: float) -> dict[str, float]:
        """Per-layer metrics of this process: calls, inclusive and self time
        per span name, the counters, and the functionals layer's share of
        ``run_s``."""
        n = len(self.spans)
        duration = [(e - s) / 1e9 for _, s, e, _, _ in self.spans]
        # hook time leaves every enclosing span; hooks are leaves
        hooks_s = 0.0
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            if name == HOOKS:
                hooks_s += duration[i]
                while parent >= 0:
                    duration[parent] -= duration[i]
                    parent = self.spans[parent][3]
        covered = [0.0] * n
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0 and name != HOOKS:
                covered[parent] += duration[i]
        out = {}
        for name in SPANS:
            out.update({f"{name}.calls": 0, f"{name}.s": 0.0, f"{name}.self_s": 0.0})
        functionals_s = 0.0
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            if name == HOOKS:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += duration[i] - covered[i]
            ancestors = set()
            while parent >= 0:
                ancestors.add(self.spans[parent][0])
                parent = self.spans[parent][3]
            # recursion (registry specs) must not count time twice
            if name not in ancestors:
                out[f"{name}.s"] += duration[i]
            if name.startswith("functionals.") and not any(
                a.startswith("functionals.") for a in ancestors
            ):
                functionals_s += duration[i]
        for key in COUNTS:
            out[key] = self.counts[key]
        rows = self.counts["montecarlo.sample_counts.rows"]
        out["montecarlo.distinct_share"] = (
            self.counts["montecarlo.distinct_rows"] / rows if rows else 0.0
        )
        out["functionals.share_of_run"] = functionals_s / run_s
        out["trace.hooks_s"] = hooks_s
        return out


def _wrap_method(cls, method: str, wrap) -> None:
    raw = cls.__dict__[method]
    if isinstance(raw, classmethod):
        setattr(cls, method, classmethod(wrap(raw.__func__)))
    else:
        setattr(cls, method, wrap(raw))
