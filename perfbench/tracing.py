"""Span tracing of k3ord layers from outside the package.

The package modules import names directly (``from .matrices import snf``),
so wrapping ``k3ord.matrices.snf`` alone would miss the calls made from
``cohomology`` or ``embeddings``.  ``Tracer.install`` therefore rebinds each
wrapped function in every loaded ``k3ord`` module whose namespace holds it,
and patches methods on their class, which every caller shares.
``Tracer.uninstall`` puts the originals back, so untraced passes run the
unmodified package.

Each call becomes a span ``[name, start, end, parent, item]`` kept in
memory.  Self time is a span's duration minus the durations of its direct
children: calls run on one thread, so children never overlap.  A call that
directly recurses into the same wrapped name (``jsonio.encode`` walks its
tree through its own module global) is not a new layer boundary and is not
recorded.
"""

import functools
import importlib
import json
import sys
import time

# (module, attribute path) of each traced function, and the metric name.
FUNCTIONS = [
    ("k3ord.matrices", "RatMatrix.__matmul__", "matrices.RatMatrix.matmul"),
    ("k3ord.matrices", "RatMatrix.inverse", "matrices.RatMatrix.inverse"),
    ("k3ord.matrices", "IntMatrix.__matmul__", "matrices.IntMatrix.matmul"),
    ("k3ord.matrices", "snf", "matrices.snf"),
    ("k3ord.matrices", "solve_integer", "matrices.solve_integer"),
    ("k3ord.matrices", "integer_kernel", "matrices.integer_kernel"),
    ("k3ord.matrices", "hermite_row_basis", "matrices.hermite_row_basis"),
    ("k3ord.matrices", "det", "matrices.det"),
    ("k3ord.matrices", "signature", "matrices.signature"),
    ("k3ord.lattices", "build_K3", "lattices.build_K3"),
    ("k3ord.embeddings", "orthogonal_complement", "embeddings.orthogonal_complement"),
    ("k3ord.embeddings", "is_primitive", "embeddings.is_primitive"),
    ("k3ord.embeddings", "check_isometric", "embeddings.check_isometric"),
    ("k3ord.extension", "extend_by_minus_one", "extension.extend_by_minus_one"),
    ("k3ord.cohomology", "h1", "cohomology.h1"),
    ("k3ord.cohomology", "norm_and_diff", "cohomology.norm_and_diff"),
    ("k3ord.cohomology", "GLattice.__post_init__", "cohomology.GLattice.init"),
    ("k3ord.cohomology", "fixed_sublattice", "cohomology.fixed_sublattice"),
    ("k3ord.cohomology", "half_gram_quotient", "cohomology.half_gram_quotient"),
    ("k3ord.divisors", "nakai_certificate", "divisors.nakai_certificate"),
    ("k3ord.orders", "classify_order", "orders.classify_order"),
    ("k3ord.orders", "maximality_check", "orders.maximality_check"),
    ("k3ord.fibrations", "h1_structured", "fibrations.h1_structured"),
    ("k3ord.fibrations", "cocycle_check", "fibrations.cocycle_check"),
    ("k3ord.fibrations", "coboundary_check", "fibrations.coboundary_check"),
    ("k3ord.jsonio", "load_file", "jsonio.load_file"),
    ("k3ord.jsonio", "encode", "jsonio.encode"),
    ("k3ord.jsonio", "dumps_canonical", "jsonio.dumps_canonical"),
    ("k3ord.cli", "main", "cli.main"),
]

# Entry points whose inclusive time is reported as well as their self time.
TOTAL_NAMES = ("extension.extend_by_minus_one", "cohomology.h1", "cli.main")

KINDS = (
    "embedding-check",
    "isometry-extend",
    "h1",
    "quotient-pic",
    "ample-cert",
    "order-classify",
    "fibration-h1",
    "twist-check",
)


def metric_names() -> list:
    """Every per-layer metric name a traced run reports, in report order."""
    names = []
    for _, _, name in FUNCTIONS:
        names += [f"{name}.calls", f"{name}.self_s"]
        if name in TOTAL_NAMES:
            names.append(f"{name}.total_s")
        if name == "matrices.snf":
            names.append("matrices.snf.max_bits")
    names += [f"runner.run_check.{kind}.total_s" for kind in KINDS]
    names.append("trace.overhead_ratio")
    return names


def _max_bits(matrices) -> int:
    return max(
        (abs(x).bit_length() for m in matrices for x in m.entries), default=0
    )


class Tracer:
    """Records spans of calls into k3ord while installed."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = -1
        self.snf_max_bits = 0
        self._patches = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name_of, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = name_of(args, kwargs)
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _snf_bits(self, args, result):
        bits = _max_bits((args[0], result.U, result.D, result.V))
        if bits > self.snf_max_bits:
            self.snf_max_bits = bits

    def install(self) -> None:
        """Rebind every traced function wherever a k3ord module holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, _, _ in FUNCTIONS:
            importlib.import_module(module_name)
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "k3ord" or n.startswith("k3ord.")) and m is not None]
        for module_name, path, name in FUNCTIONS:
            owner = sys.modules[module_name]
            if "." in path:  # a method: patch its class, which every caller shares
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, attr, self._wrap(cls.__dict__[attr], lambda a, k, n=name: n))
            else:
                after = self._snf_bits if name == "matrices.snf" else None
                self._rebind(modules, getattr(owner, path), lambda a, k, n=name: n, after)
        self._rebind(
            modules,
            sys.modules["k3ord.runner"].run_check,
            lambda a, k: "runner.run_check." + (a[1] if len(a) > 1 else k["kind"]),
        )

    def _rebind(self, modules, fn, name_of, after=None) -> None:
        traced = self._wrap(fn, name_of, after)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, traced)

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, inclusive seconds and self seconds."""
        out = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[i]
        return {
            name: {"calls": c, "total_s": t, "self_s": s}
            for name, (c, t, s) in out.items()
        }

    def write_spans(self, path) -> None:
        """Write the recorded spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
