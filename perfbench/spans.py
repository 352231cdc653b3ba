"""Span tracing around the layers of framescale, installed from outside.

Each layer's public functions are replaced, for the traced pass only, at the
module attribute their callers look up at call time. ``solver`` binds
``leverage_scores`` and ``numerical_rank`` as its own globals, so those are
wrapped there (and in every other importing module) under their ``linalg``
span names. ``framescale.regularize`` on the package is the function, so the
module is reached through ``sys.modules``. QR and Cholesky calls are counted,
not spanned, at ``numpy.linalg`` and ``scipy.linalg``.

Spans live in flat arrays in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np
import scipy.linalg

MARK = "__perfbench_wrapped__"

# Layer name, owning module, wrapped attributes. An attribute "Class.method"
# wraps the method on the class.
_SPANS = [
    ("solver", "framescale.solver", ("scale_frame", "select_margin_set",
                                     "infeasibility_certificate")),
    ("linalg", "framescale.solver", ("leverage_scores", "numerical_rank")),
    ("linalg", "framescale.linalg", ("numerical_rank",)),
    ("update", "framescale.update", ("compute_update", "approx_small_eigen_sum",
                                     "det_local_opt", "newton_dinkelbach")),
    ("linalg", "framescale.update", ("numerical_rank", "gram_context", "logdet_psd")),
    ("regularize", "framescale.regularize", ("regularize", "rho_overestimate",
                                             "RhoCache.rho")),
    ("linalg", "framescale.regularize", ("gram_context", "pinv_trace")),
    ("matrixscale", "framescale.matrixscale", ("scale_matrix", "column_sums", "neighborhood",
                                               "matrix_update", "matrix_regularize",
                                               "matrix_rho_prefixes", "matrix_proxy_gain")),
    ("solver", "framescale.matrixscale", ("select_margin_set",)),
    ("perceptron", "framescale.perceptron", ("improved_perceptron", "margin_fraction",
                                             "update_vector")),
    ("linalg", "framescale.perceptron", ("gram_context", "leverage_scores")),
    ("cli", "framescale.cli", ("main", "cmd_verify")),
    ("linalg", "framescale.cli", ("leverage_scores", "numerical_rank")),
    ("matrixscale", "framescale.cli", ("column_sums",)),
    ("io", "framescale.io", ("read_matrix_file", "read_vector_file", "read_result",
                             "write_matrix_file", "write_vector_file", "result_document",
                             "write_result")),
    ("rational", "framescale.rational", ("parse_matrix_tokens", "parse_vector_tokens",
                                         "rational_rank", "column_submatrix")),
]

_COUNTERS = [
    ("qr", np.linalg, "qr"),
    ("qr", scipy.linalg, "qr"),
    ("cholesky", scipy.linalg, "cho_factor"),
]

LAYERS = ("solver", "linalg", "update", "regularize", "matrixscale", "perceptron",
          "cli", "io", "rational")


def _targets():
    """(owner object, attribute, span or counter name, is_span) for every wrap site."""
    out = []
    for layer, module, attrs in _SPANS:
        mod = sys.modules[module]
        for attr in attrs:
            owner, name = mod, attr
            if "." in attr:
                cls, name = attr.split(".")
                owner = getattr(mod, cls)
            span = "cli.verify" if attr == "cmd_verify" else f"{layer}.{attr}"
            out.append((owner, name, span, True))
    for counter, owner, attr in _COUNTERS:
        out.append((owner, attr, counter, False))
    return out


def assert_pristine() -> None:
    """Raise if any wrap site still holds a benchmark wrapper."""
    for owner, attr, name, _ in _targets():
        if getattr(getattr(owner, attr), MARK, False):
            raise RuntimeError(f"tracing wrapper left installed at {name}")


class Tracer:
    """Records spans and counters while installed; every span is tagged with a group.

    A group is one unit of benchmark work (a solve, a perceptron demo, a
    verify), so spans of one solve share an identifier.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.group = array("q")
        self.group_kind: list[str] = []
        self.group_label: list[str] = []
        self.counts: dict[tuple[str, str], int] = {}
        self.observed: dict[str, float] = {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def begin_group(self, kind: str, label: str) -> None:
        self.group_kind.append(kind)
        self.group_label.append(label)

    def _span_wrapper(self, name: str, fn):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        observe = _OBSERVERS.get(name)
        stack, spans_start, spans_end = self._stack, self.start, self.end
        parents, names, groups = self.parent, self.name, self.group
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans_start)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            groups.append(len(self.group_kind) - 1)
            spans_start.append(0)
            spans_end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans_start[idx] = t0
                spans_end[idx] = t1
            if observe is not None:
                observe(self.observed, result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _counter_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (self.group_kind[-1], name)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, True)
        return wrapper

    def install(self) -> None:
        assert_pristine()
        for owner, attr, name, is_span in _targets():
            original = getattr(owner, attr)
            if isinstance(owner, type):
                original = owner.__dict__[attr]
            make = self._span_wrapper if is_span else self._counter_wrapper
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(name, original))

    def restore(self) -> None:
        """Put every original back and check that it is back."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        for owner, attr, original in self._saved:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if current is not original:
                raise RuntimeError(f"failed to restore {attr}")
        self._saved.clear()
        assert_pristine()

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (end - start).astype(np.float64) * 1e-9
        children = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                               minlength=dur.size)
        return {
            "name": np.frombuffer(self.name, dtype=np.int64),
            "start_ns": start,
            "end_ns": end,
            "parent": parent,
            "group": np.frombuffer(self.group, dtype=np.int64),
            "duration_s": dur,
            "self_s": dur - children,
        }

    def write(self, path: str) -> None:
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), group_kind=np.array(self.group_kind),
                            group_label=np.array(self.group_label), **a)


def _observe_update(observed: dict, result) -> None:
    observed["update.compute_update.returns"] = observed.get("update.compute_update.returns", 0) + 1
    observed["update.seeded"] = observed.get("update.seeded", 0) + int(result.seeded)
    observed["update.nd_steps"] = observed.get("update.nd_steps", 0) + result.nd_iters


_OBSERVERS = {"update.compute_update": _observe_update}
