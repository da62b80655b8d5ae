"""Span tracing around qpattn's public functions, for the per-layer metrics.

`Tracer.active` replaces each traced function with a timing wrapper in every
loaded qpattn module that holds it (``qpattn.circuit.score_grad_batch``, and
``qpattn.cli.split`` as well as ``qpattn.data.split`` for names imported with
``from ... import``). The package looks these names up in module globals at
call time, so calls made from inside the package are captured too.

Each span records its name, start, end and parent span. Spans stay in memory
and are written out when the run ends; a span's self time is its duration
minus the time its child spans cover. A re-entrant call of a function that is
already on the span stack (``circuit.score_grad_batch`` recursing over
chunks) is folded into the outer span, so its elements are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from contextlib import ExitStack, contextmanager

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _pairs(args, kwargs):
    return int(np.broadcast(_arg(args, kwargs, 0, "qs"), _arg(args, kwargs, 1, "ks")).size)


def _size(index, name):
    return lambda args, kwargs: int(_arg(args, kwargs, index, name).size)


def _batch(index):
    return lambda args, kwargs: int(len(_arg(args, kwargs, index, "images")))


def _dot_pairs(args, kwargs):
    q, k = _arg(args, kwargs, 0, "Q"), _arg(args, kwargs, 1, "K")
    return int(math.prod(q.shape[:-1]) * k.shape[-2])


# Traced functions, as "<module>.<function>", each with the element count of a
# call computed from its arguments (None: the function reports calls and
# self time only). Elements are (pair, dim) circuit evaluations for the
# circuit and quantum scorer layers, score-matrix entries for the classical
# scorers and softmax, images for the model and evaluation layers, and
# parameter scalars for the optimizer.
TARGETS: dict[str, object] = {
    "data.synthetic_dataset": lambda a, kw: 2 * _arg(a, kw, 0, "spec").n_per_class,
    "data.split": lambda a, kw: _arg(a, kw, 1, "train_n") + _arg(a, kw, 2, "valid_n"),
    "qcore.apply_single": None,
    "qcore.apply_channel": None,
    "circuit.score_grad_batch": _pairs,
    "circuit.score_batch": _pairs,
    "circuit.score_noisy_batch": _pairs,
    "circuit.score_sampled": None,
    "circuit.score": None,
    "scorers.quantum_scores_backward": lambda a, kw: int(
        _arg(a, kw, 4, "d_scores").size * _arg(a, kw, 3, "depth")
    ),
    "scorers.dot_scores": _dot_pairs,
    "scorers.dot_scores_backward": _size(2, "d_scores"),
    "scorers.row_softmax": _size(0, "A"),
    "scorers.row_softmax_backward": _size(0, "P"),
    "vit.patch_embed": _batch(0),
    "vit.forward": _batch(1),
    "vit.forward_with_stats": _batch(1),
    "vit.backward": _batch(1),
    "vit.init_model": None,
    "vit.save_checkpoint": None,
    "vit.load_checkpoint": None,
    "training.sgd_step": lambda a, kw: sum(p.size for p in _arg(a, kw, 0, "params").values()),
    "training.evaluate": lambda a, kw: int(_arg(a, kw, 1, "dataset").n),
    "training.compute_metrics": lambda a, kw: int(len(_arg(a, kw, 0, "labels"))),
    "lab.run_claims": None,
    "cli.main": None,
}


def layer_metric_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    names = []
    for target, count in TARGETS.items():
        names += [(f"{target}.calls", "count"), (f"{target}.self_s", "s")]
        if count is not None:
            names += [(f"{target}.elements", "count"), (f"{target}.ns_per_element", "ns")]
    return names


def _resolve(target: str):
    module_name, attr = target.split(".")
    module = importlib.import_module(f"qpattn.{module_name}")
    return getattr(module, attr)


@contextmanager
def replaced(target: str, make_wrapper):
    """Replace a qpattn function everywhere it is bound, for the ``with`` body.

    ``make_wrapper(original)`` returns the replacement. Every loaded qpattn
    module attribute that is the original function object is swapped, and all
    are restored on exit.
    """
    original = _resolve(target)
    wrapper = make_wrapper(original)
    swapped = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "qpattn" or name.startswith("qpattn.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                swapped.append((module, attr))
    try:
        yield wrapper
    finally:
        for module, attr in swapped:
            setattr(module, attr, original)


class Tracer:
    """In-memory span recorder with per-function call, self-time and element totals."""

    def __init__(self, max_spans: int = 200_000):
        self.max_spans = max_spans
        self.totals = {target: [0, 0.0, 0] for target in TARGETS}  # calls, self_s, elements
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.dropped_spans = 0
        self._stack: list[list] = []  # frames [span id, name, child seconds]
        self._next_id = 0

    def _wrap(self, target, count, fn):
        totals = self.totals[target]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            if any(frame[1] == target for frame in stack):
                return fn(*args, **kwargs)
            elements = count(args, kwargs) if count is not None else 0
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, target, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                totals[0] += 1
                totals[1] += duration - frame[2]
                totals[2] += elements
                if stack:
                    stack[-1][2] += duration
                if len(self.spans) < self.max_spans:
                    self.spans.append((span_id, target, start, end, parent))
                else:
                    self.dropped_spans += 1

        return wrapper

    @contextmanager
    def active(self):
        """Trace every target for the duration of the ``with`` body."""
        with ExitStack() as stack:
            for target, count in TARGETS.items():
                stack.enter_context(
                    replaced(target, functools.partial(self._wrap, target, count))
                )
            yield self

    def layer_metrics(self) -> dict[str, float]:
        out = {}
        for target, (calls, self_s, elements) in self.totals.items():
            out[f"{target}.calls"] = calls
            out[f"{target}.self_s"] = self_s
            if TARGETS[target] is not None:
                out[f"{target}.elements"] = elements
                out[f"{target}.ns_per_element"] = self_s / elements * 1e9 if elements else 0.0
        return out

    def write_spans(self, path) -> None:
        payload = {
            "fields": ["id", "name", "start_s", "end_s", "parent_id"],
            "dropped_spans": self.dropped_spans,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f, separators=(",", ":"))

