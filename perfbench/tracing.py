"""Span recorder for the traced benchmark run.

The program is traced from outside: ``install`` replaces the public
functions of every kreinalg layer with timing wrappers, at every module
attribute that binds them (modules import each other by name, so
``kreinalg.unitary.jacobi_hermitian`` and ``kreinalg.eigen.jacobi_hermitian``
are separate bindings of one function).  Nothing under ``src/`` changes.

A span is ``[op, name, start, end, parent, error]``; ``parent`` indexes the
enclosing span in the same list, or is -1.  Spans stay in memory and are
written once, when the run ends.  A span's self time is its duration minus
the time covered by its direct children.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import json
import sys
import time
import types
from collections import defaultdict

LAYERS = (
    "matrices", "spaces", "tensors", "eigen", "unitary",
    "indefinite", "generators", "lemmas", "io", "cli",
)
# Classes whose constructors factorize or validate; their __init__ is traced.
CLASSES = {"spaces": ("Basis",), "unitary": ("InnerProduct",), "indefinite": ("HForm",)}
# Lemma families: the part of a lemma id before the first dot.
FAMILIES = ("matrix", "duality", "tensor", "inner", "spectral", "metric", "dirac")


def _sweeps(counters, args, result):
    counters["eigen.jacobi_hermitian.sweeps"] += result[2]


def _bytes_in(counters, args, result):
    text = args[0]
    counters["io.bytes_in"] += len(text.encode() if isinstance(text, str) else text)


def _bytes_out(counters, args, result):
    counters["io.bytes_out"] += len(result)


COUNTERS = {
    "eigen.jacobi_hermitian": _sweeps,
    "io.parse_matrix_document": _bytes_in,
    "io.dumps": _bytes_out,
}


class Tracer:
    """In-memory span list plus counters recorded at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list = []
        self.counters = defaultdict(float)
        self.op = 0

    def wrap(self, name: str, fn, counter=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.op, name, clock(), 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                counter(self.counters, args, result)
            return result

        return traced

    def merge(self, spans, counters) -> None:
        """Append spans recorded in another process, re-indexing parents."""
        offset = len(self.spans)
        for op, name, start, end, parent, error in spans:
            self.spans.append([op, name, start, end, parent + offset if parent >= 0 else -1, error])
        for key, value in counters.items():
            self.counters[key] += value

    def write(self, path, meta: dict) -> None:
        payload = {"meta": meta, "counters": dict(self.counters),
                   "fields": ["op", "name", "start", "end", "parent", "error"],
                   "spans": self.spans}
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def _targets(layer: str, module):
    names = list(module.__all__)
    if layer == "cli":
        names += [name for name in vars(module) if name.startswith("_cmd_")]
    for name in names:
        obj = getattr(module, name)
        if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
            yield name, obj


def install(tracer: Tracer):
    """Trace every layer of the imported kreinalg package; returns an undo function."""
    import kreinalg.cli  # noqa: F401  (loads every layer module)

    modules = {layer: sys.modules[f"kreinalg.{layer}"] for layer in LAYERS}
    wrappers = {}
    undo = []
    for layer, module in modules.items():
        for name, fn in _targets(layer, module):
            full = f"{layer}.{name}"
            wrappers[id(fn)] = (fn, tracer.wrap(full, fn, COUNTERS.get(full)))
        for cls_name in CLASSES.get(layer, ()):
            cls = getattr(module, cls_name)
            init = cls.__init__
            cls.__init__ = tracer.wrap(f"{layer}.{cls_name}", init)
            undo.append((cls, "__init__", init))
    package = [m for n, m in sys.modules.items() if n == "kreinalg" or n.startswith("kreinalg.")]
    for module in package:
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                undo.append((module, attr, value))
    lemmas = modules["lemmas"]
    undo.append((lemmas, "REGISTRY", lemmas.REGISTRY))
    lemmas.REGISTRY = tuple(
        dataclasses.replace(
            lemma, check=tracer.wrap("lemmas." + lemma.lemma_id.split(".")[0], lemma.check)
        )
        for lemma in lemmas.REGISTRY
    )

    def restore():
        for target, attr, value in reversed(undo):
            setattr(target, attr, value)

    return restore


def summarize(spans) -> dict:
    """Per span name: [calls, self seconds, errors]."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[4] >= 0:
            covered[span[4]] += span[3] - span[2]
    stats = defaultdict(lambda: [0, 0.0, 0])
    for span, child in zip(spans, covered):
        entry = stats[span[1]]
        entry[0] += 1
        entry[1] += span[3] - span[2] - child
        entry[2] += int(span[5])
    return stats


# (metric, unit, better) for every per-layer metric the traced run reports.
PER_LAYER = [
    ("eigen.jacobi_hermitian.calls", "count/op", "lower"),
    ("eigen.jacobi_hermitian.self_s", "s/op", "lower"),
    ("eigen.jacobi_hermitian.sweeps", "count/op", "lower"),
    ("eigen.eigen_hermitian.self_s", "s/op", "lower"),
    ("unitary.InnerProduct.calls", "count/op", "lower"),
    ("unitary.InnerProduct.self_s", "s/op", "lower"),
    ("unitary.g_selfadjoint_eigen.self_s", "s/op", "lower"),
    ("unitary.spectral_representation.self_s", "s/op", "lower"),
    ("unitary.adjoint.calls", "count/op", "lower"),
    ("unitary.adjoint.self_s", "s/op", "lower"),
    ("indefinite.HForm.calls", "count/op", "lower"),
    ("indefinite.HForm.self_s", "s/op", "lower"),
    ("indefinite.compatible_structure_from_hform.self_s", "s/op", "lower"),
    ("indefinite.metric_structure_from.self_s", "s/op", "lower"),
    ("indefinite.dirac_spectral.self_s", "s/op", "lower"),
    ("indefinite.h_orthonormal_basis.self_s", "s/op", "lower"),
    ("indefinite.h_orthonormal_basis.errors", "count/op", "lower"),
    ("indefinite.is_pseudo_unitary.self_s", "s/op", "lower"),
    ("spaces.Basis.calls", "count/op", "lower"),
    ("spaces.Basis.self_s", "s/op", "lower"),
    ("spaces.Basis.errors", "count/op", "lower"),
    ("tensors.calls", "count/op", "lower"),
    ("tensors.self_s", "s/op", "lower"),
    ("matrices.calls", "count/op", "lower"),
    ("matrices.self_s", "s/op", "lower"),
    ("io.parse_matrix_document.self_s", "s/op", "lower"),
    ("io.bytes_in", "B/op", "lower"),
    ("io.serialize.self_s", "s/op", "lower"),
    ("io.bytes_out", "B/op", "lower"),
    ("cli.interpreter_s", "s/op", "lower"),
    ("cli.import_s", "s/op", "lower"),
    ("cli.handler.self_s", "s/op", "lower"),
    *[(f"lemmas.{family}.self_s", "s/op", "lower") for family in FAMILIES],
    ("lemmas.failed", "count/op", "lower"),
    ("generators.calls", "count/op", "lower"),
    ("generators.self_s", "s/op", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.ops", "count", "higher"),
]


def layer_metrics(stats: dict, counters: dict, ops: int, overhead_ratio: float) -> dict:
    """Per-op value of every PER_LAYER metric, from span stats and counters."""

    def entries(*names, prefix=None):
        return [v for k, v in stats.items() if k in names or (prefix and k.startswith(prefix))]

    def per_op(items, field):
        return sum(item[field] for item in items) / ops

    values = {}
    for metric, _unit, _better in PER_LAYER:
        head, _, kind = metric.rpartition(".")
        if metric == "trace.overhead_ratio":
            values[metric] = overhead_ratio
        elif metric == "trace.ops":
            values[metric] = ops
        elif head in ("tensors", "matrices", "generators"):
            values[metric] = per_op(entries(prefix=head + "."), 0 if kind == "calls" else 1)
        elif metric == "io.serialize.self_s":
            items = entries("io.matrix_document", "io.dumps", "io.serialize_matrix_document")
            values[metric] = per_op(items, 1)
        elif metric == "cli.handler.self_s":
            values[metric] = per_op(entries(prefix="cli._cmd_"), 1)
        elif kind in ("calls", "self_s", "errors"):
            values[metric] = per_op(entries(head), ("calls", "self_s", "errors").index(kind))
        else:
            values[metric] = counters.get(metric, 0.0) / ops
    return values
