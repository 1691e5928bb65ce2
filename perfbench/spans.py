"""Spans around calls into edcurve's layers, recorded from outside the program.

``Tracer.install`` rebinds each named function in every ``edcurve`` module that
holds it (a name imported with ``from ... import`` is a separate binding), and
replaces ``UniPoly``/``HomPoly2`` methods on the class, ``__mul__`` and
``__rmul__`` together since they are one object.  Spans stay in memory as
parallel arrays (name, start, end, parent span, op id) and are written out
once, after the run.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

from edcurve.eddeg import DataInstabilityError

# layer -> functions; "Class.method" names a method
TARGETS = {
    "exactnum": (
        "UniPoly.__mul__", "HomPoly2.__mul__", "UniPoly.evaluate", "poly_gcd",
        "squarefree_part", "hom_resultant", "hom_resultant_is_nonzero",
        "hom_discriminant", "hom_gcd", "sturm_isolate", "refine_root",
    ),
    "scene": ("apply_camera", "genericity_certificate", "random_camera", "random_curve"),
    "eddeg": (
        "critical_polynomial", "reduce_critical_polynomial", "ed_degree_affine",
        "euler_cross_check", "triangulate",
    ),
    "grassmann": ("wedge_camera", "l3_curve", "bezier_scroll"),
    "multidegree": ("curve_multidegree",),
    "cli": ("main",),
}

OP = "perfbench.op"


def metric_prefix(layer: str, target: str) -> str:
    return f"{layer}.{target.replace('__mul__', 'mul')}"


FUNCTIONS = [metric_prefix(layer, t) for layer, ts in TARGETS.items() for t in ts]

# Counts that depend only on the inputs; two traced passes of one seed must agree.
COUNT_METRICS = (
    [f"{f}.calls" for f in FUNCTIONS]
    + [
        "exactnum.poly_gcd.coprime_ratio",
        "exactnum.refine_root.bisections",
        "scene.apply_camera.calls_per_count",
        "eddeg.critical_polynomial.degree_max",
        "eddeg.critical_polynomial.coeff_bits_max",
        "eddeg.ed_degree_affine.raised",
        "cli.attempts_per_cell",
    ]
)


def _coeff_bits(poly) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.coeffs),
        default=0,
    )


class Tracer:
    def __init__(self):
        self.names = [OP] + FUNCTIONS
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.op = -1
        self.active = False
        self.gcd_coprime = 0
        self.bisections = 0
        self.degree_max = 0
        self.coeff_bits_max = 0
        self.raised = 0
        self.cells = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_op.append(self.op)
        self.span_start.append(perf_counter())
        self.span_end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self.stack.pop()

    def run_op(self, k: int, fn, arg):
        """Run one op as a root span; returns (result, wall seconds)."""
        self.op = k
        idx = self._open(0)
        try:
            return fn(arg)
        finally:
            self._close(idx)
            self.op = -1

    def _wrap(self, name: str, fn, observe=None):
        name_id = self.name_id[name]
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except DataInstabilityError:
                if name == "eddeg.ed_degree_affine":
                    tracer.raised += 1
                raise
            finally:
                tracer._close(idx)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # -- observers for the extra counts ---------------------------------------

    def _seen_gcd(self, args, result):
        if result.degree == 0:
            self.gcd_coprime += 1

    def _seen_refine(self, args, result):
        self.bisections += result.refinements - args[1].refinements

    def _seen_critical(self, args, result):
        self.degree_max = max(self.degree_max, result.degree or 0)
        self.coeff_bits_max = max(self.coeff_bits_max, _coeff_bits(result))

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; spans are recorded only while ``active``."""
        observers = {
            "exactnum.poly_gcd": self._seen_gcd,
            "exactnum.refine_root": self._seen_refine,
            "eddeg.critical_polynomial": self._seen_critical,
        }
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "edcurve" or n.startswith("edcurve."))]
        for layer, targets in TARGETS.items():
            home = sys.modules[f"edcurve.{layer}"]
            for target in targets:
                name = metric_prefix(layer, target)
                if "." in target:
                    cls_name, attr = target.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    wrapped = self._wrap(name, original, observers.get(name))
                    for a in (attr, "__rmul__") if attr == "__mul__" else (attr,):
                        if cls.__dict__.get(a) is original:
                            self._restore.append((cls, a, original))
                            setattr(cls, a, wrapped)
                    continue
                original = getattr(home, target)
                wrapped = self._wrap(name, original, observers.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- aggregation ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls and self seconds, op wall time, and the counts."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += self.span_end[i] - self.span_start[i] - child[i]
        op_wall = sum(self.span_end[i] - self.span_start[i]
                      for i in range(n) if self.span_name[i] == 0)
        counts = {f"{f}.calls": calls[f] for f in FUNCTIONS}
        gcds = calls["exactnum.poly_gcd"]
        counts["exactnum.poly_gcd.coprime_ratio"] = self.gcd_coprime / gcds if gcds else 0.0
        counts["exactnum.refine_root.bisections"] = self.bisections
        affine = calls["eddeg.ed_degree_affine"]
        counts["scene.apply_camera.calls_per_count"] = (
            calls["scene.apply_camera"] / affine if affine else 0.0)
        counts["eddeg.critical_polynomial.degree_max"] = self.degree_max
        counts["eddeg.critical_polynomial.coeff_bits_max"] = self.coeff_bits_max
        counts["eddeg.ed_degree_affine.raised"] = self.raised
        counts["cli.attempts_per_cell"] = affine / self.cells if self.cells else 0.0
        return {
            "op_wall_s": op_wall,
            "self_s": {f: self_s[f] for f in self.names},
            "counts": counts,
        }

    def write_spans(self, path) -> None:
        """One tab-separated line per span: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.span_name)):
                fh.write(f"{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                         f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_op[i]}\n")
