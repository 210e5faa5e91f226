"""Span tracing of the program's layers from outside the program.

`Tracer.install` replaces every binding of each traced function in the
loaded `beltrami_jets` modules (and each traced method on its class) with a
wrapper that records a span: layer name, start, end and parent.  Because a
name is replaced wherever a module imported it, calls resolved through
`single_degree.kernel_basis` or `cascade.kernel_basis` are traced as well as
`linalg.kernel_basis`.  `Tracer.remove` puts every original back.

Spans are recorded only between `begin_op` and `end_op`, so the checks the
benchmark runs between operations leave no spans.  Count metrics are read
from arguments and return values at the same boundaries; the time spent
computing them is its own `trace.count` span, so it is not charged to the
layer that called the traced function.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter_ns

PACKAGE = "beltrami_jets"
ROOT = "op"
COUNTING = "trace.count"


def _count_assembly(counts, args, result):
    counts["assembly.rows"] += len(result)
    counts["assembly.entries"] += sum(len(row) for _, row in result)


def _count_echelon(counts, args, result):
    counts["linalg.echelon.rows_in"] += len(args[0])
    counts["linalg.echelon.rank"] += len(result)
    counts["linalg.echelon.fill_nnz"] += sum(len(row) for row in result.values())
    bits = max(
        (abs(row[lead]).bit_length() for lead, row in result.items()), default=0
    )
    counts["linalg.echelon.max_pivot_bits"] = max(
        counts["linalg.echelon.max_pivot_bits"], bits
    )


def _count_kernel(counts, args, result):
    counts["linalg.kernel_dim"] += result.dimension


# (module, attribute path, layer, count function).  Methods are given as
# "Class.method"; module functions are replaced under every name bound to them.
TRACED = (
    ("_assembly", "curl_rows", "assembly", _count_assembly),
    ("_assembly", "div_rows", "assembly", _count_assembly),
    ("_assembly", "first_integral_rows", "assembly", _count_assembly),
    ("linalg", "ConstraintMatrix.from_rows", "linalg.from_rows", None),
    ("linalg", "_integer_rows", "linalg.clear", None),
    ("linalg", "_echelon", "linalg.echelon", _count_echelon),
    ("linalg", "kernel_basis", "linalg.backsub", _count_kernel),
    ("linalg", "ConstraintMatrix.multiply", "linalg.remultiply", None),
    ("linalg", "is_consistent", "linalg.consistency", None),
    ("linalg", "rank_of_vectors", "linalg.projection", None),
    ("cascade", "block_projection_dim", "linalg.projection", None),
    ("single_degree", "assemble_single", "single_degree.assemble_single", None),
    ("single_degree", "kernel_single", "single_degree.kernel_single", None),
    ("cascade", "assemble_window", "cascade.assemble_window", None),
    ("cascade", "check_window_solution", "cascade.guard", None),
    ("cascade", "forced_source_feasible", "cascade.feasibility", None),
    ("polynomials", "HomogeneousPolynomial.__add__", "polynomials.arith", None),
    ("polynomials", "HomogeneousPolynomial.__sub__", "polynomials.arith", None),
    ("polynomials", "HomogeneousPolynomial.__neg__", "polynomials.arith", None),
    ("polynomials", "HomogeneousPolynomial.__mul__", "polynomials.arith", None),
    ("polynomials", "HomogeneousPolynomial.__rmul__", "polynomials.arith", None),
    ("polynomials", "HomogeneousPolynomial.__pow__", "polynomials.arith", None),
    ("polynomials", "PolynomialVectorField.__add__", "polynomials.arith", None),
    ("polynomials", "PolynomialVectorField.__sub__", "polynomials.arith", None),
    ("polynomials", "PolynomialVectorField.__neg__", "polynomials.arith", None),
    ("polynomials", "PolynomialVectorField.__mul__", "polynomials.arith", None),
    ("polynomials", "grad", "polynomials.operators", None),
    ("polynomials", "curl", "polynomials.operators", None),
    ("polynomials", "div", "polynomials.operators", None),
    ("polynomials", "dot", "polynomials.operators", None),
    ("polynomials", "laplacian", "polynomials.operators", None),
    ("polynomials", "scale_mul", "polynomials.operators", None),
    ("polynomials", "fields_from_vector", "polynomials.fields_from_vector", None),
    ("cylindrical", "solve_cylindrical_recurrence", "cylindrical.recurrence", None),
    ("cylindrical", "bessel_series_coefficients", "cylindrical.recurrence", None),
    ("cylindrical", "_radial_equations_hold", "cylindrical.recurrence", None),
    ("cylindrical", "cartesian_lift", "cylindrical.lift", None),
    ("cylindrical", "verify_beltrami_cylindrical", "cylindrical.verify", None),
    ("cascade", "TruncatedFactor.to_json", "cli.report", None),
    ("cascade", "RiskyWindowResult.to_json", "cli.report", None),
    ("cascade", "CascadeReport.to_json", "cli.report", None),
    ("cylindrical", "CylindricalReport.to_json", "cli.report", None),
    ("cli", "_run_report", "cli.report", None),
    ("cli", "_emit", "cli.emit", None),
)

LAYERS = tuple(dict.fromkeys([ROOT] + [layer for _, _, layer, _ in TRACED]))
COUNTS = (
    "assembly.rows",
    "assembly.entries",
    "linalg.echelon.rows_in",
    "linalg.echelon.rank",
    "linalg.echelon.fill_nnz",
    "linalg.echelon.max_pivot_bits",
    "linalg.kernel_dim",
)


def _package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Spans of one traced pass: (layer, start_ns, end_ns, parent index)."""

    def __init__(self, clock=perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._active = False
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, self.clock(), 0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def begin_op(self) -> None:
        self._active = True
        self._open(ROOT)

    def end_op(self) -> None:
        self._close(self._stack[0])
        self._stack.clear()
        self._active = False

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, layer: str, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            index = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if count is not None:
                counting = tracer._open(COUNTING)
                count(tracer.counts, args, result)
                tracer._close(counting)
            return result

        wrapper.__bench_original__ = fn
        return wrapper

    def _replace(self, owner, name: str, new) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self) -> None:
        """Wrap every traced function under every name that binds it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module_name, *_ in TRACED:
            importlib.import_module(f"{PACKAGE}.{module_name}")
        modules = _package_modules()
        for module_name, path, layer, count in TRACED:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            if "." in path:
                cls_name, method = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                if isinstance(original, classmethod):
                    self._replace(cls, method, classmethod(self._wrap(original.__func__, layer, count)))
                else:
                    self._replace(cls, method, self._wrap(original, layer, count))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(original, layer, count)
            for holder in modules:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._replace(holder, name, wrapper)

    def remove(self) -> None:
        """Restore every original binding, last replaced first."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)


def wrapped_bindings() -> list[str]:
    """Names in the program's modules and classes still bound to a wrapper."""
    found = []
    for module in _package_modules():
        for name, value in vars(module).items():
            if hasattr(value, "__bench_original__"):
                found.append(f"{module.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    target = member.__func__ if isinstance(member, classmethod) else member
                    if hasattr(target, "__bench_original__"):
                        found.append(f"{module.__name__}.{name}.{attr}")
    return found


def self_times(spans: list[list]) -> list[int]:
    """Per span: its duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_seconds(spans: list[list]) -> dict[str, float]:
    """Self time per layer, in seconds; `trace.count` is left out."""
    totals = dict.fromkeys(LAYERS, 0)
    for span, own in zip(spans, self_times(spans)):
        if span[0] != COUNTING:
            totals[span[0]] += own
    return {layer: ns / 1e9 for layer, ns in totals.items()}
