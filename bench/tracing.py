"""Spans and counters around the program's public layers.

``Tracer.install`` replaces each traced function or method, at every name
a ``lambda_forge`` module imported it under, with a wrapper that records a
span (layer, item, parent span, start, end) and keeps per-layer call
counts, raised counts and self time (span time minus child spans).
``FieldElem`` arithmetic is counted, not timed.  ``uninstall`` puts the
originals back.  Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

#: (metric prefix, module, attribute path) of every traced layer.
LAYERS = (
    ("cli.main", "lambda_forge.cli", "main"),
    ("polytope.membership", "lambda_forge.polytope", "membership"),
    ("polytope.is_vertex", "lambda_forge.polytope", "is_vertex"),
    ("polytope.decompose", "lambda_forge.polytope", "decompose"),
    ("simplex.solve_feasibility", "lambda_forge.simplex", "solve_feasibility"),
    ("orbit.enumerate_family", "lambda_forge.orbit", "enumerate_family"),
    ("stabilizer.enumerate_stabilizer_states", "lambda_forge.stabilizer",
     "enumerate_stabilizer_states"),
    ("clifford.conjugate", "lambda_forge.clifford", "CliffordTableau.conjugate"),
    ("clifford.compose", "lambda_forge.clifford", "CliffordTableau.compose"),
    ("reduction.process", "lambda_forge.reduction", "ReductionEngine.process"),
    ("reduction.resolve_coin", "lambda_forge.reduction", "ReductionEngine.resolve_coin"),
    ("orbit.measure_update", "lambda_forge.orbit", "measure_update"),
    ("pauli.project", "lambda_forge.pauli", "QOperator.project"),
    ("cnc.measure_update", "lambda_forge.cnc", "CncSet.measure_update"),
    ("simulate.exact_distribution", "lambda_forge.simulate", "exact_distribution"),
    ("simulate.born_distribution", "lambda_forge.simulate", "born_distribution"),
    ("lifting.lift_tensor", "lambda_forge.lifting", "lift_tensor"),
    ("simulate.sample", "lambda_forge.simulate", "sample"),
    ("simulate.update_state", "lambda_forge.simulate", "update_state"),
    ("simulate.decompose_known", "lambda_forge.simulate", "decompose_known"),
    ("gf2.span", "lambda_forge.gf2", "span"),
)

#: ``FieldElem`` methods counted as field operations.
FIELD_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "sign",
    "__lt__", "__le__", "__gt__", "__ge__",
)

#: Layers whose calls must be nonzero on each workload's traced run.
EXPECTED = {
    "certify": (
        "cli.main", "polytope.membership", "polytope.is_vertex",
        "orbit.enumerate_family", "stabilizer.enumerate_stabilizer_states",
        "clifford.conjugate", "gf2.span",
    ),
    "verify": (
        "clifford.conjugate", "clifford.compose", "reduction.process",
        "reduction.resolve_coin", "orbit.measure_update", "pauli.project",
        "cnc.measure_update", "simulate.exact_distribution",
        "simulate.born_distribution", "lifting.lift_tensor",
        "simulate.update_state", "gf2.span",
    ),
    "sample": (
        "polytope.decompose", "simplex.solve_feasibility", "clifford.compose",
        "reduction.process", "reduction.resolve_coin", "cnc.measure_update",
        "simulate.sample", "simulate.update_state", "simulate.decompose_known",
        "gf2.span",
    ),
}


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        n = len(LAYERS)
        self.calls = [0] * n
        self.raised = [0] * n
        self.self_s = [0.0] * n
        self.field_ops = 0
        self.update_calls = 0
        self.update_keys: set = set()
        self.item = -1  # -1 marks set-up
        self.span_layer = array("H")
        self.span_id = array("l")
        self.span_parent = array("l")
        self.span_item = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._next_id = 0
        self._stack: list = []
        self._patches: list = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "lambda_forge" or name.startswith("lambda_forge."))
        ]
        for idx, (_, module, path) in enumerate(LAYERS):
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            wrapper = self._span_wrapper(idx, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)
        field_cls = sys.modules["lambda_forge.field"].FieldElem
        for attr in FIELD_OPS:
            self._patch(field_cls, attr, self._count_wrapper(vars(field_cls)[attr]))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _count_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.field_ops += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, idx: int, fn):
        tracer = self
        is_update = LAYERS[idx][0] == "simulate.update_state"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_update:
                tracer._note_update(*args[:3])
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.raised[idx] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                span = end - start
                tracer.calls[idx] += 1
                tracer.self_s[idx] += span - frame[1]
                if stack:
                    stack[-1][1] += span
                tracer._record(idx, frame[0], parent, start, end)

        return traced

    def _note_update(self, state, axis, outcome) -> None:
        self.update_calls += 1
        self.update_keys.add((state, axis, outcome & 1))

    def _record(self, idx, span_id, parent, start, end) -> None:
        self.span_layer.append(idx)
        self.span_id.append(span_id)
        self.span_parent.append(parent)
        self.span_item.append(self.item)
        self.span_start.append(start)
        self.span_end.append(end)

    # -- results --------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for idx, (name, _, _) in enumerate(LAYERS):
            out[f"{name}.calls"] = (self.calls[idx], "count")
            out[f"{name}.self_ms"] = (self.self_s[idx] * 1e3, "ms")
        out["cnc.measure_update.raised"] = (self.raised[_index("cnc.measure_update")], "count")
        repeat = 0.0
        if self.update_calls:
            repeat = 1 - len(self.update_keys) / self.update_calls
        out["simulate.update_state.repeat_share"] = (repeat, "ratio")
        out["field.ops"] = (self.field_ops, "count")
        return out

    def missing(self, workload: str) -> list:
        """Expected layers that recorded no call."""
        return [name for name in EXPECTED[workload] if not self.calls[_index(name)]]

    def save(self, path: str) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            layers=np.array([name for name, _, _ in LAYERS]),
            layer=np.frombuffer(self.span_layer, dtype=np.uint16),
            id=np.frombuffer(self.span_id, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            item=np.frombuffer(self.span_item, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def _index(name: str) -> int:
    for idx, (layer, _, _) in enumerate(LAYERS):
        if layer == name:
            return idx
    raise KeyError(name)
