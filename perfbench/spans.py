"""Span tracing of abelerg's layers, from outside the program.

The tracer replaces public functions of abelerg's modules with wrappers by
setting module attributes.  The modules call each other (and themselves)
through module globals, as ``linalg.operator_norm(...)``, so a replaced
attribute also catches calls between modules.  Each call records a span:
name, parent span, start and end.  A span's self time is its duration minus
the durations of its direct children; children of one span never overlap,
because the program is single-threaded.

Spans stay in memory; ``Tracer.totals`` folds them into flat, additive
counters that the benchmark prints as per-layer metrics.
"""

import time

# Traced public functions per abelerg module.
TRACED = {
    "cli": ("main",),
    "matrixio": ("load_matrix", "payload_digest", "canonical_json"),
    "linalg": ("operator_norm", "numerical_rank", "kernel_basis",
               "image_basis", "eigendecompose", "solve_linear",
               "matrix_exponential"),
    "abel": ("abel_average", "power_iterate", "riesz_projection_at_one"),
    "certify": ("check_power_convergence", "check_spectral_condition",
                "cesaro_sup_estimate", "abel_partial_sup_estimate"),
    "semigroup": ("abel_average_quadrature", "abel_power_quadrature",
                  "laguerre_rule"),
    "oscillator": ("eigen_residual", "hermite_function"),
}

# linalg functions that run one SVD of their first argument per call.
SVD_BACKED = frozenset({"linalg.operator_norm", "linalg.numerical_rank",
                        "linalg.kernel_basis", "linalg.image_basis"})
CONDITION_II = "certify.check_spectral_condition"

SPAN_NAMES = tuple(f"{module}.{func}"
                   for module, funcs in TRACED.items() for func in funcs)


def _svd_work(matrix):
    """m * n * min(m, n): the n^3 of a square SVD, computed, not timed."""
    shape = getattr(matrix, "shape", None)
    if shape is None or len(shape) != 2:
        return 0
    m, n = int(shape[0]), int(shape[1])
    return m * n * min(m, n)


class Tracer:
    """Records one span per call of a traced function while installed.

    A span is [name, parent index or -1, start, end, svd work, doublings].
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, name, func):
        spans = self.spans
        stack = self._stack
        svd = name in SVD_BACKED
        doublings = name == "abel.power_iterate"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0, 0]
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if svd:
                span[4] = _svd_work(args[0] if args else None)
            elif doublings:
                span[5] = len(result.history)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self, modules):
        """Wrap every TRACED function of ``modules`` (name -> module)."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module_name, funcs in TRACED.items():
            module = modules[module_name]
            for func_name in funcs:
                original = getattr(module, func_name)
                self._saved.append((module, func_name, original))
                setattr(module, func_name,
                        self._wrap(f"{module_name}.{func_name}", original))

    def remove(self):
        """Put every original function back."""
        while self._saved:
            module, func_name, original = self._saved.pop()
            setattr(module, func_name, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def totals(self):
        """Additive counters over all recorded spans.

        Keys: ``<span>.calls`` and ``<span>.self_s`` for every traced
        function, plus ``linalg.svd.calls``, ``linalg.svd.work_n3``,
        ``linalg.svd.calls_condition_ii`` and ``abel.power_iterate.doublings``.
        """
        if self._stack:
            raise RuntimeError("totals taken while a span is open")
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        svd_calls = svd_work = svd_condition_ii = doublings = 0
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, parent, start, end, work, steps) in \
                enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_time[index]
            doublings += steps
            if name in SVD_BACKED:
                svd_calls += 1
                svd_work += work
                if self._has_ancestor(parent, CONDITION_II):
                    svd_condition_ii += 1
        out["linalg.svd.calls"] = svd_calls
        out["linalg.svd.work_n3"] = svd_work
        out["linalg.svd.calls_condition_ii"] = svd_condition_ii
        out["abel.power_iterate.doublings"] = doublings
        return out

    def _has_ancestor(self, index, name):
        while index >= 0:
            span = self.spans[index]
            if span[0] == name:
                return True
            index = span[1]
        return False


def add_totals(into, other):
    """Sum the counters of ``other`` into ``into``."""
    for key, value in other.items():
        into[key] = into.get(key, 0) + value
    return into
