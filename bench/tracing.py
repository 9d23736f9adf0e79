"""Span tracing installed from outside the program.

A :class:`Tracer` wraps the public functions of the ``dflow`` modules and a
model's methods, and records one span per call: name, start, end and the
index of the enclosing span. Nothing under ``src/`` changes; the wrappers
are bound into every ``dflow`` module namespace that holds the original
function (``from .tensor import add`` copies the name, so patching
``dflow.tensor`` alone would miss the callers) and removed again by
:meth:`Tracer.uninstall`. Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

ELEMENTWISE_OPS = (
    "sigmoid", "tanh", "add", "sub_from_one", "hadamard", "scale", "log",
    "clamp", "power", "sum_all", "mean_all", "stack_steps", "time_slice",
)


def _conv2d_flop(args, kwargs):
    x, kernel = args[0], args[1]
    cout, cin, m, _ = kernel.data.shape
    h, w = x.data.shape[1:]
    return "tensor.conv2d_flop", 2 * cout * cin * m * m * h * w


def _tape_records(args, kwargs):
    return "tensor.tape_records", len(args[0])


# (module, function, span name, counter hook) for every module-level target
FUNCTION_TARGETS = (
    ("tensor", "conv2d_same", "tensor.conv2d", _conv2d_flop),
    ("tensor", "conv3d_same", "tensor.conv3d", None),
    *(("tensor", op, f"tensor.elementwise.{op}", None) for op in ELEMENTWISE_OPS),
    ("tensor", "backward", "tensor.backward", _tape_records),
    ("network", "frames_for_flow", "color.render", None),
    ("losses", "bce_loss", "losses.bce", None),
    ("losses", "focal_loss", "losses.focal", None),
    ("losses", "dice_coefficient", "losses.dice", None),
    ("losses", "silhouette_score", "losses.silhouette", None),
    ("baselines", "adaptive_threshold_mean", "baselines.mean", None),
    ("baselines", "adaptive_threshold_gaussian", "baselines.gaussian", None),
    ("baselines", "distance_transform_threshold", "baselines.dtransform", None),
)


def _model_targets(model):
    """(object, method, span name) for each traced method of a built model."""
    out = [(model, "forward_window", "network.forward"),
           (model, "_decode", "network.decoder")]
    for tag in ("flow_a", "flow_b"):
        flow = getattr(model, tag, None)
        if flow is None:
            continue
        if hasattr(flow, "stack"):  # residual block: block minus stack is the shortcut
            out.append((flow, "forward", f"recurrent.{tag}.block"))
            out.append((flow.stack, "forward_all", f"recurrent.{tag}.stack"))
        for layer in ("layer1", "layer2"):
            out.append((getattr(flow, layer), "step", f"recurrent.{tag}.{layer}"))
    return out


class Tracer:
    """In-memory span recorder with install/uninstall of call wrappers."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counters = Counter()
        self._open = []
        self._undo = []

    @contextmanager
    def span(self, name):
        spans, open_ = self.spans, self._open
        idx = len(spans)
        spans.append([name, time.perf_counter(), 0.0, open_[-1] if open_ else -1])
        open_.append(idx)
        try:
            yield
        finally:
            open_.pop()
            spans[idx][2] = time.perf_counter()

    def _wrap(self, fn, name, hook=None):
        spans, open_, counters, clock = self.spans, self._open, self.counters, time.perf_counter

        def traced(*args, **kwargs):
            if hook is not None:
                key, amount = hook(args, kwargs)
                counters[key] += amount
            idx = len(spans)
            spans.append([name, clock(), 0.0, open_[-1] if open_ else -1])
            open_.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[idx][2] = clock()

        return traced

    def install(self, model=None):
        """Wrap the module functions, and ``model``'s methods when given."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        wrappers = {}  # id of the original -> its wrapper
        for module, attr, name, hook in FUNCTION_TARGETS:
            fn = getattr(sys.modules[f"dflow.{module}"], attr, None)
            if fn is not None:
                wrappers[id(fn)] = self._wrap(fn, name, hook)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "dflow" and not mod_name.startswith("dflow."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
                    self._undo.append((module, attr, value))
        if model is not None:
            for obj, attr, name in _model_targets(model):
                if hasattr(obj, attr):
                    setattr(obj, attr, self._wrap(getattr(obj, attr), name))
                    self._undo.append((obj, attr, None))

    def uninstall(self):
        while self._undo:
            obj, attr, original = self._undo.pop()
            if original is None:
                delattr(obj, attr)  # drop the instance attribute, exposing the class method
            else:
                setattr(obj, attr, original)

    @contextmanager
    def op(self, name, model=None):
        """Install, record one span ``name`` around the body, uninstall."""
        self.install(model)
        try:
            with self.span(name):
                yield
        finally:
            self.uninstall()

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Per-span self time: its duration minus the part of its interval that
    the union of its direct children's intervals covers."""
    children = {}
    for idx, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(idx)
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children.get(idx, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


def summarize(spans):
    """{name: {"count", "total_s", "self_s"}} over all recorded spans."""
    selfs = self_times(spans)
    out = {}
    for (name, start, end, _), self_s in zip(spans, selfs):
        row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += end - start
        row["self_s"] += self_s
    return out
