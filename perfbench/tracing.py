"""Span tracing for the benchmark's traced runs.

``Tracer.install`` replaces the public functions of each specflow layer,
and the numpy/scipy kernels they call, with wrappers that record one span
per call: name, parent span, start, end and a work figure.  A function is
replaced under every name a specflow module holds it by (``flow`` imports
``eigh`` from ``operators`` by name, ``bundles`` imports ``gap_partition``
from ``flow``, and so on), so a call is seen whichever module makes it.
``uninstall`` puts every original back.  Spans stay in memory; the caller
writes them out when the run ends.

``layer_metrics`` turns the spans of one solve into the per-layer metrics
listed in ``PER_LAYER``.
"""

from __future__ import annotations

import importlib
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: (module, attribute, span name).  ``Class.method`` wraps the method on
#: the class, so every instance sees it.
LAYER_TARGETS = (
    ("specflow.operators", "eigh", "operators.eigh"),
    ("specflow.operators", "build_dirac", "operators.build_dirac"),
    ("specflow.operators", "build_multiplication",
     "operators.build_multiplication"),
    ("specflow.flow", "gap_partition", "flow.gap_partition"),
    ("specflow.flow", "certify_level", "flow.certify_level"),
    ("specflow.flow", "_SpectrumCache.lipschitz", "flow.lipschitz"),
    ("specflow.flow", "aps_projection", "flow.aps_projection"),
    ("specflow.flow", "difference_element", "flow.difference_element"),
    ("specflow.flow", "validate_section_for", "flow.validate_section_for"),
    ("specflow.flow", "spectral_flow", "flow.spectral_flow"),
    ("specflow.flow", "sf_pairs", "flow.sf_pairs"),
    ("specflow.toeplitz", "toeplitz_compress", "toeplitz.compress"),
    ("specflow.toeplitz", "toeplitz_small_subspaces",
     "toeplitz.small_subspaces"),
    ("specflow.toeplitz", "fredholm_index", "toeplitz.fredholm_index"),
    ("specflow.toeplitz", "odd_chern_integral", "toeplitz.odd_chern_integral"),
    ("specflow.bundles", "toeplitz_family_index",
     "bundles.toeplitz_family_index"),
    ("specflow.bundles", "higher_spectral_flow",
     "bundles.higher_spectral_flow"),
    ("specflow.bundles", "_common_partition", "bundles.common_partition"),
    ("specflow.bundles", "kernel_bundle", "bundles.kernel_bundle"),
    ("specflow.bundles", "ProjectorFamily.__init__",
     "bundles.projector_family"),
    ("specflow.bundles", "chern_number", "bundles.chern_number"),
    ("specflow.mapping_torus", "build_mapping_torus", "mapping_torus.build"),
    ("specflow.mapping_torus", "index", "mapping_torus.index"),
)

#: Dense numpy factorizations; their work figure is batch * m * n * min(m, n).
DENSE_KERNELS = ("eigh", "eigvalsh", "svd", "det", "qr", "inv")

#: Per-layer metrics in report order: (name, unit, better).
PER_LAYER = (
    ("linalg.eigh.calls", "count", "lower"),
    ("linalg.eigh.s", "s", "lower"),
    ("linalg.eigvalsh.calls", "count", "lower"),
    ("linalg.eigvalsh.s", "s", "lower"),
    ("linalg.svd.calls", "count", "lower"),
    ("linalg.svd.s", "s", "lower"),
    ("linalg.norm2.calls", "count", "lower"),
    ("linalg.norm2.s", "s", "lower"),
    ("linalg.det.calls", "count", "lower"),
    ("linalg.qr.calls", "count", "lower"),
    ("linalg.inv.calls", "count", "lower"),
    ("linalg.splu.calls", "count", "lower"),
    ("linalg.splu.s", "s", "lower"),
    ("linalg.lu_solves", "count", "lower"),
    ("linalg.dense_n3", "count", "lower"),
    ("linalg.s", "s", "lower"),
    ("outside_linalg_s", "s", "lower"),
    ("operators.eigh.calls", "count", "lower"),
    ("operators.eigh.s", "s", "lower"),
    ("operators.eigh.self_s", "s", "lower"),
    ("operators.build_dirac.calls", "count", "lower"),
    ("operators.build_dirac.s", "s", "lower"),
    ("operators.build_multiplication.calls", "count", "lower"),
    ("operators.build_multiplication.s", "s", "lower"),
    ("flow.gap_partition.calls", "count", "lower"),
    ("flow.gap_partition.s", "s", "lower"),
    ("flow.intervals", "count", "lower"),
    ("flow.certify_level.calls", "count", "lower"),
    ("flow.certify_level.s", "s", "lower"),
    ("flow.lipschitz.calls", "count", "lower"),
    ("flow.lipschitz.s", "s", "lower"),
    ("flow.aps_projection.calls", "count", "lower"),
    ("flow.aps_projection.s", "s", "lower"),
    ("flow.difference_element.calls", "count", "lower"),
    ("flow.difference_element.s", "s", "lower"),
    ("flow.validate_section_for.calls", "count", "lower"),
    ("flow.validate_section_for.s", "s", "lower"),
    ("flow.spectral_flow.s", "s", "lower"),
    ("flow.sf_pairs.s", "s", "lower"),
    ("toeplitz.compress.calls", "count", "lower"),
    ("toeplitz.compress.s", "s", "lower"),
    ("toeplitz.small_subspaces.calls", "count", "lower"),
    ("toeplitz.small_subspaces.s", "s", "lower"),
    ("toeplitz.fredholm_index.s", "s", "lower"),
    ("toeplitz.odd_chern_integral.s", "s", "lower"),
    ("bundles.toeplitz_family_index.s", "s", "lower"),
    ("bundles.higher_spectral_flow.s", "s", "lower"),
    ("bundles.common_partition.s", "s", "lower"),
    ("bundles.kernel_bundle.calls", "count", "lower"),
    ("bundles.kernel_bundle.s", "s", "lower"),
    ("bundles.projector_family.calls", "count", "lower"),
    ("bundles.projector_family.s", "s", "lower"),
    ("bundles.chern_number.calls", "count", "lower"),
    ("bundles.chern_number.s", "s", "lower"),
    ("mapping_torus.build.calls", "count", "lower"),
    ("mapping_torus.build.s", "s", "lower"),
    ("mapping_torus.index.calls", "count", "lower"),
    ("mapping_torus.index.s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def _dense_work(a) -> int:
    shape = getattr(a, "shape", None)
    if shape is None or len(shape) < 2:
        return 0
    m, n = shape[-2], shape[-1]
    return math.prod(shape[:-2]) * m * n * min(m, n)


def _partition_work(args, out) -> int:
    return len(out.intervals)


class _TracedLU:
    """SuperLU factor whose solves are recorded as spans."""

    def __init__(self, lu, tracer: "Tracer"):
        self._lu = lu
        self._solve = tracer.wrap("linalg.lu_solve", lu.solve)

    def solve(self, rhs, trans="N"):
        return self._solve(rhs, trans)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Installs span-recording wrappers and collects the spans.

    A span is ``[name, parent index, start, end, work, outermost]``; work
    is the dense n^3 figure of a numpy factorization or the interval
    count of a gap partition, and ``outermost`` is false for a call nested
    inside another call of the same name (``mapping_torus.index`` calls
    itself for its doubling checks).
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def wrap(self, name, fn, work=None):
        spans, stack, depth = self.spans, self._stack, self._depth

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, perf_counter(), 0.0, 0,
                   depth[name] == 0]
            stack.append(len(spans))
            spans.append(rec)
            depth[name] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                depth[name] -= 1
                stack.pop()
            if work is not None:
                rec[4] = work(args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation ---------------------------------------------------
    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _replace_everywhere(self, original, new, owners):
        """Replace ``original`` under every name any of ``owners`` (the
        specflow modules plus the defining module) holds it by."""
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._replace(owner, attr, new)

    def install(self):
        import numpy.linalg
        import scipy.sparse.linalg
        owners = [m for n, m in sorted(sys.modules.items())
                  if n == "specflow" or n.startswith("specflow.")]
        for module_name, attr, span in LAYER_TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._replace(cls, method,
                              self.wrap(span, getattr(cls, method)))
                continue
            original = getattr(module, attr)
            work = _partition_work if span == "flow.gap_partition" else None
            self._replace_everywhere(original, self.wrap(span, original, work),
                                     owners)

        lin_owners = owners + [numpy.linalg]
        for kernel in DENSE_KERNELS:
            original = getattr(numpy.linalg, kernel)
            self._replace_everywhere(
                original,
                self.wrap(f"linalg.{kernel}", original,
                          lambda args, out: _dense_work(args[0])),
                lin_owners)

        norm = numpy.linalg.norm
        norm2 = self.wrap("linalg.norm2", norm,
                          lambda args, out: _dense_work(args[0]))

        def traced_norm(x, ord=None, *args, **kwargs):
            if ord == 2 and getattr(x, "ndim", 0) == 2:
                return norm2(x, ord, *args, **kwargs)
            return norm(x, ord, *args, **kwargs)

        self._replace_everywhere(norm, traced_norm, lin_owners)

        splu = scipy.sparse.linalg.splu
        traced_splu = self.wrap("linalg.splu", splu)
        self._replace_everywhere(
            splu, lambda *a, **kw: _TracedLU(traced_splu(*a, **kw), self),
            owners + [scipy.sparse.linalg])

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a fresh list."""
        out = self.spans[:]
        self.spans.clear()
        return out


def layer_metrics(spans: list[list], wall: float) -> dict:
    """Per-layer metrics of one solve from its spans (without the overhead
    figure, which needs an untraced solve to compare with)."""
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    self_time: defaultdict = defaultdict(float)
    work: Counter = Counter()
    child_time = [0.0] * len(spans)
    for name, parent, start, end, w, outermost in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, parent, start, end, w, outermost) in enumerate(spans):
        calls[name] += 1
        if outermost:
            total[name] += end - start
        self_time[name] += end - start - child_time[i]
        work[name] += w

    linalg_s = sum(t for n, t in total.items() if n.startswith("linalg."))
    values = {
        "linalg.lu_solves": calls["linalg.lu_solve"],
        "linalg.dense_n3": sum(work[f"linalg.{k}"] for k in DENSE_KERNELS)
        + work["linalg.norm2"],
        "linalg.s": linalg_s,
        "outside_linalg_s": wall - linalg_s,
        "flow.intervals": work["flow.gap_partition"],
    }
    for metric, unit, _ in PER_LAYER:
        if metric in values or metric == "trace.overhead_pct":
            continue
        span, _, kind = metric.rpartition(".")
        values[metric] = {"calls": calls[span], "s": total[span],
                          "self_s": self_time[span]}[kind]
    return values
