"""Outside-in tracing of evarank's layers from the benchmark's own files.

`Tracer` replaces each traced function at every place it is looked up: the
module that defines it, every evarank module that imported it by name, and
the class that holds it for a method.  Leaving the `with` block puts every
original back.  Spans (name, start, end, parent, invocation id) stay in
memory; counters are bumped where the work happens.  Functions called too
often, or too cheaply, to time are counted only.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass

import numpy as np


def _gamma_counts(args, kwargs, model) -> dict:
    return {
        "covariance.gamma_bytes": model.gamma.nbytes,
        "covariance.factor_rows": model.stacked.shape[0],
    }


def _rank_counts(args, kwargs, result) -> dict:
    matrix = args[0] if args else kwargs["matrix"]
    dim = np.shape(matrix)[0]
    return {"rank.numerical_rank.n3": dim ** 3}


def _saved_bytes(args, kwargs, result) -> dict:
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"covariance.bytes_written": os.path.getsize(path)}


def _certificate_found(args, kwargs, cert) -> dict:
    return {"rank.certificates_found": int(cert is not None)}


def _snapshot_bytes(args, kwargs, batch) -> dict:
    return {"fields.snapshot_bytes": batch.nbytes}


# (module, attribute, span name, counts from (args, kwargs, result)).
# A dotted attribute is a method looked up on its class.
SPANS = (
    ("evarank.cli", "main", "cli", None),
    ("evarank.covariance", "assemble_gamma", "covariance.assemble_gamma", _gamma_counts),
    ("evarank.covariance", "CovarianceModel.factorization_residual",
     "covariance.factorization_residual", None),
    ("evarank.covariance", "sample_covariance", "covariance.sample_covariance", None),
    ("evarank.covariance", "save_matrix_binary", "covariance.save_matrix_binary", _saved_bytes),
    ("evarank.rank", "numerical_rank", "rank.numerical_rank", _rank_counts),
    ("evarank.rank", "predict_rank", "rank.predict_rank", None),
    ("evarank.rank", "find_certificate", "rank.find_certificate", _certificate_found),
    ("evarank.rank", "verify_certificate", "rank.verify_certificate", None),
    ("evarank.fields", "synthesize_batch", "fields.synthesize_batch", _snapshot_bytes),
    ("evarank.stap", "dominant_projection", "stap.dominant_projection", None),
    ("evarank.stap", "suppression_experiment", "stap.suppression_experiment", None),
)

# (module, attribute, counter name): each call adds one, no span.
COUNTED = (
    ("evarank.rank", "shift_tuple_admissible", "rank.shift_tuples_tried"),
    ("evarank.rank", "make_certificate", "rank.certificates_made"),
)

WRAPPED_MARK = "__perfbench_original__"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    invocation: int


class Tracer:
    """Context manager that wraps the traced functions and records into itself."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self.invocation = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _span_wrapper(self, fn, name: str, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            if parent is None:
                self.invocation += 1
            span = Span(name, time.perf_counter(), 0.0, parent, self.invocation)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                for key, amount in counts(args, kwargs, result).items():
                    self.count(key, amount)
            return result

        setattr(traced, WRAPPED_MARK, fn)
        return traced

    def _count_wrapper(self, fn, name: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        setattr(counted, WRAPPED_MARK, fn)
        return counted

    def _install(self, module_name: str, attr: str, make_wrapper) -> None:
        home = importlib.import_module(module_name)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(home, cls_name)
            self._patch(owner, attr, make_wrapper(getattr(owner, attr)))
            return
        original = getattr(home, attr)
        wrapper = make_wrapper(original)
        for module in evarank_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Tracer":
        try:
            for module_name, attr, name, counts in SPANS:
                self._install(module_name, attr,
                              lambda fn, n=name, c=counts: self._span_wrapper(fn, n, c))
            for module_name, attr, name in COUNTED:
                self._install(module_name, attr, lambda fn, n=name: self._count_wrapper(fn, n))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, name: str) -> float:
        """Summed duration of `name` spans minus the time their children cover.

        Children of one span run one after another, so the time they cover is
        the sum of their durations.
        """
        covered = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = covered.get(span.parent, 0.0) + span.end - span.start
        return sum(
            s.end - s.start - covered.get(i, 0.0)
            for i, s in enumerate(self.spans)
            if s.name == name
        )


def evarank_modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "evarank" or key.startswith("evarank."))]

