"""Span recorder and linear-algebra call counter for the traced run.

framekit modules import each other's functions by name, so a function is
wrapped at every binding a caller looks it up through (``framekit.cli.generate``
as well as ``framekit.gallery.generate`` would be two bindings).  Each wrapped
call records a span: name, layer, start, end and the enclosing span.  A layer is
the framekit module that defines the function.  Factorization calls into
``numpy.linalg`` and ``scipy.linalg`` are counted and charged to the innermost
open span, together with the bytes of their array operands (a computed figure,
not a measured memory transfer).

Spans stay in memory until `write_spans` runs at the end of the benchmark.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from collections import Counter
from time import perf_counter

import numpy as np
import numpy.linalg
import scipy.linalg

LAYERS = ("gallery", "core", "metrics", "selection", "extraction", "serialization", "cli")

# Bindings wrapped in a traced run, by the module a caller looks them up in.
BOUNDARIES = {
    "framekit.cli": (
        "main", "generate", "basis_metrics", "extract_frame", "extract_biorthogonal",
        "select_greedy", "select_exhaustive", "frame_report", "canonical_dual_reconstruct",
        "check_counting_lemmas", "power_transform", "random_unit_vector",
    ),
    # framekit.cli reaches these as ser.<name>; serialization calls them internally too.
    "framekit.serialization": (
        "load_system", "save_system", "save_trace", "_read_json", "dumps", "system_to_json",
        "system_from_json", "trace_to_json", "gallery_spec_from_json", "report_to_json",
        "metrics_to_json", "selection_to_json",
    ),
    "framekit.extraction": (
        "greedy_order", "bt_guarantee_size", "separation_constant", "riesz_constant",
        "singular_values", "frame_report", "coverage_target",
    ),
    "framekit.metrics": ("separation_constant", "schauder_basis_constant"),
    "framekit.selection": ("greedy_order",),
    "framekit.gallery": ("schauder_basis_constant", "smallest_singular_value", "frame_operator"),
}
# Methods are looked up on the class, so one patch covers every caller.
METHODS = {"framekit.core.VectorSystem": ("__post_init__", "gram", "norms", "subsystem")}

DECODE = {"load_system", "_read_json", "system_from_json", "gallery_spec_from_json"}
ENCODE = {
    "save_system", "save_trace", "dumps", "system_to_json", "trace_to_json",
    "report_to_json", "metrics_to_json", "selection_to_json",
}

LINALG = {
    numpy.linalg: (
        "svd", "eigh", "eigvalsh", "eig", "eigvals", "qr", "cholesky", "pinv", "inv",
        "solve", "lstsq", "norm",
    ),
    scipy.linalg: (
        "svd", "svdvals", "eigh", "eigvalsh", "eig", "eigvals", "qr", "cholesky", "pinv",
        "inv", "solve", "solve_triangular", "lstsq", "lu", "lu_factor", "norm",
    ),
}


def _is_matrix_2norm(args, kwargs) -> bool:
    """norm(x, 2) on a matrix is an SVD; vector and Frobenius norms are not counted."""
    x = args[0] if args else kwargs.get("a", kwargs.get("x"))
    order = args[1] if len(args) > 1 else kwargs.get("ord")
    axis = args[2] if len(args) > 2 else kwargs.get("axis")
    return order in (2, -2) and axis is None and np.ndim(x) == 2


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "child_s", "linalg_calls", "linalg_bytes", "error")

    def __init__(self, name: str, layer: str, parent: int):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = perf_counter()
        self.end = 0.0
        self.child_s = 0.0
        self.linalg_calls = 0
        self.linalg_bytes = 0
        self.error = ""

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Installs the wrappers, records spans per pass and reduces them to per-layer metrics."""

    def __init__(self):
        self.passes: list[list[Span]] = []
        self.counts: list[Counter] = []
        self.unwrapped: list[str] = []  # boundary names this framekit version lacks
        self._stack: list[int] = []
        self._spans: list[Span] = []
        self._count: Counter = Counter()
        self._raised: list[BaseException] = []
        self._harness = Span("harness", "harness", -1)
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module_name, names in BOUNDARIES.items():
            module = importlib.import_module(module_name)
            for name in names:
                self._wrap_binding(module, name, f"{module_name}.{name}")
        for path, names in METHODS.items():
            module_name, cls_name = path.rsplit(".", 1)
            cls = getattr(importlib.import_module(module_name), cls_name)
            for name in names:
                self._wrap_binding(cls, name, f"{path}.{name}")
        counted = {}
        for module, names in LINALG.items():
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    continue
                counted[id(original)] = self._counter(original, name == "norm")
                self._patch(module, name, counted[id(original)])
        # Names a framekit module imported directly (from numpy.linalg import svd).
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "framekit":
                continue
            for name, value in list(vars(module).items()):
                if id(value) in counted:
                    self._patch(module, name, counted[id(value)])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _patch(self, owner, name: str, replacement) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _wrap_binding(self, owner, name: str, label: str) -> None:
        fn = getattr(owner, name, None)
        if fn is None:
            self.unwrapped.append(label)
            return
        layer = fn.__module__.rsplit(".", 1)[-1]
        self._patch(owner, name, self._wrapper(fn, name, layer))

    # -- recording ----------------------------------------------------------

    def _wrapper(self, fn, name: str, layer: str):
        # Count hooks are the methods named _before_<function> and _after_<function>.
        before = getattr(self, f"_before_{name}", None)
        after = getattr(self, f"_after_{name}", None)
        stack, spans = self._stack, self._spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            errors_before = len(self._raised)
            span = Span(name, layer, stack[-1] if stack else -1)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if not any(exc is seen for seen in self._raised):
                    self._raised.append(exc)
                    self._count[f"{layer}.errors"] += 1
                span.error = type(exc).__name__
                raise
            finally:
                stack.pop()
                span.end = perf_counter()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.duration
            if name == "main" and result != 0 and len(self._raised) == errors_before:
                self._count["cli.errors"] += 1  # a failed verification exits 1 without raising
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _counter(self, fn, matrix_norm_only: bool):
        stack, spans, harness = self._stack, self._spans, self._harness

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if matrix_norm_only and not _is_matrix_2norm(args, kwargs):
                return fn(*args, **kwargs)
            span = spans[stack[-1]] if stack else harness
            span.linalg_calls += 1
            span.linalg_bytes += sum(a.nbytes for a in args[:2] if isinstance(a, np.ndarray))
            return fn(*args, **kwargs)

        return counted

    def _before__read_json(self, args, kwargs) -> None:
        path = args[0] if args else kwargs["path"]
        if os.path.exists(path):
            self._count["serialization.bytes_in"] += os.path.getsize(path)

    def _after_dumps(self, args, kwargs, result) -> None:
        self._count["serialization.bytes_out"] += len(result.encode())

    def _after_generate(self, args, kwargs, result) -> None:
        self._count["gallery.calls"] += 1

    def _after_greedy_order(self, args, kwargs, result) -> None:
        gram = args[0] if args else kwargs["gram"]
        limit = args[1] if len(args) > 1 else kwargs["limit"]
        m = gram.shape[0]
        picks = len(result[0])
        # one step per pick, plus the step that found no pick above stop_below
        steps = picks + (1 if picks < min(limit, m) else 0)
        self._count["selection.picks"] += picks
        self._count["selection.candidates"] += steps * m - steps * (steps - 1) // 2

    def _after_extract_frame(self, args, kwargs, trace) -> None:
        self._count["extraction.rounds"] += len(trace.rounds)
        self._count["extraction.examined"] += sum(len(r.examined) for r in trace.rounds)
        self._count["extraction.accepted"] += sum(len(r.selected) for r in trace.rounds)

    _after_extract_biorthogonal = _after_extract_frame

    # -- passes and metrics ---------------------------------------------------

    def begin_pass(self) -> None:
        self._spans.clear()
        self._count = Counter()
        self._raised.clear()
        self._harness.linalg_calls = 0

    def end_pass(self) -> None:
        self._count["harness.linalg_calls"] = self._harness.linalg_calls
        self.passes.append(list(self._spans))
        self.counts.append(self._count)

    def pass_metrics(self, index: int, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced pass whose whole duration was wall_s."""
        spans, count = self.passes[index], self.counts[index]
        out: dict[str, float] = {}
        for layer in LAYERS:
            mine = [s for s in spans if s.layer == layer]
            out[f"{layer}.self_s"] = sum((s.self_s for s in mine), 0.0)
            out[f"{layer}.linalg_calls"] = sum(s.linalg_calls for s in mine)
            out[f"{layer}.linalg_mb"] = sum(s.linalg_bytes for s in mine) / 1e6
            out[f"{layer}.errors"] = count[f"{layer}.errors"]
        out["metrics.separation_s"] = sum((s.duration for s in spans if s.name == "separation_constant"), 0.0)
        out["metrics.schauder_s"] = sum((s.duration for s in spans if s.name == "schauder_basis_constant"), 0.0)
        out["selection.picks"] = count["selection.picks"]
        out["selection.candidates"] = count["selection.candidates"]
        out["selection.pick_ratio"] = _ratio(count["selection.picks"], count["selection.candidates"])
        out["extraction.rounds"] = count["extraction.rounds"]
        out["extraction.accept_ratio"] = _ratio(count["extraction.accepted"], count["extraction.examined"])
        out["serialization.encode_s"] = sum((s.self_s for s in spans if s.layer == "serialization" and s.name in ENCODE), 0.0)
        out["serialization.decode_s"] = sum((s.self_s for s in spans if s.layer == "serialization" and s.name in DECODE), 0.0)
        out["serialization.bytes_out"] = count["serialization.bytes_out"]
        out["serialization.bytes_in"] = count["serialization.bytes_in"]
        out["gallery.calls"] = count["gallery.calls"]
        out["harness.self_s"] = wall_s - sum(s.duration for s in spans if s.parent < 0)
        out["harness.linalg_calls"] = count["harness.linalg_calls"]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            for number, spans in enumerate(self.passes):
                for index, s in enumerate(spans):
                    record = {
                        "pass": number, "id": index, "parent": s.parent, "name": s.name,
                        "layer": s.layer, "start": s.start, "end": s.end, "self_s": s.self_s,
                        "linalg_calls": s.linalg_calls, "linalg_bytes": s.linalg_bytes,
                        "error": s.error,
                    }
                    handle.write(json.dumps(record) + "\n")


def _ratio(part: float, whole: float) -> float:
    """part / whole, or 0 when nothing was attempted."""
    return part / whole if whole else 0.0
