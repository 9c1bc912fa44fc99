"""Per-layer spans put around the package's public callables from outside.

``Tracer.install()`` replaces each traced callable at the name where its
caller binds it (the op names that ``blocks``/``model``/``losses`` import, the
``training`` module globals, the block classes' ``__call__`` ...) and
``uninstall()`` puts every original back.  Nothing under ``src/`` changes.

Three kinds of wrapper:

* a *span* times one call and adds it to a named total.  A span that starts
  while no other span is open is top-level; the top-level time inside a
  ``window`` (one ``fit`` call, one request) is the coverage numerator.
* an *op span* times one autodiff op and books it to an op kind and to the
  model group that is open.  The ``Graph.nodes`` index range the op appended
  is tagged with the same (kind, group), so that backward time can be booked
  to it too.  An op called from inside another op (``concat`` under
  ``concat_channels``) belongs to the outer one.
* a *group* wrapper on a block's ``__call__`` opens one of the 12
  ``model.PARAM_GROUPS`` when the block is a direct part of the model.

``backward`` is wrapped so that, before the real backward runs, the tape is
measured (nodes and output bytes, per group) and the ``backward_fn`` of
every node an op span tagged is replaced by a timed copy.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager

from medlitenet import autodiff, blocks, checkpoint, data, losses, model, netpbm, training

MIB = 1024.0 * 1024.0

KINDS = ("conv_dense", "conv_dw", "conv_1x1", "silu", "sigmoid", "batchnorm",
         "matmul", "softmax", "upsample", "elementwise", "layout")

# autodiff function name -> kind ("conv" is split by its spec)
OP_KIND = {
    "conv2d": "conv",
    "silu": "silu",
    "sigmoid": "sigmoid",
    "batchnorm2d": "batchnorm",
    "matmul": "matmul",
    "softmax": "softmax",
    "upsample_bilinear": "upsample",
    **{name: "elementwise" for name in (
        "add", "sub", "mul", "div", "neg", "pow_scalar", "exp", "log", "sqrt",
        "clamp", "relu", "tmean", "tsum")},
    **{name: "layout" for name in (
        "reshape", "transpose", "concat", "concat_channels",
        "broadcast_spatial", "global_avg_pool")},
}

# module globals that are spans: (module, attribute, span name)
_SPANS = (
    (training, "augment", "data.augment"),
    (training, "batch_arrays", "data.batch"),
    (training, "total_loss", "losses.total_loss"),
    (training, "predict_mask", "model.predict_mask"),
    (training, "dice_coef", "metrics.dice_iou"),
    (training, "iou_metric", "metrics.dice_iou"),
    (training, "_apply_step", "training.step"),
    (training, "clip_grad_norm", "training.clip"),
    (training, "evaluate", "training.evaluate"),
    (training, "tta_predict", "training.tta"),
    (training.AdamW, "step", "training.adamw"),
    (training.EmaState, "update", "training.ema"),
    (training.EmaState, "averaged", "training.ema_swap"),
    (training.EmaState, "averaged_states", "training.ema_swap"),
    (training._SwappedWeights, "__enter__", "training.ema_swap"),
    (training._SwappedWeights, "__exit__", "training.ema_swap"),
    (data, "make_split", "data.synth"),
    (data, "generate_samples", "data.synth"),
    (data, "normalize_imagenet", "data.normalize"),
    (model, "predict_mask", "model.predict_mask"),
    (checkpoint, "load_checkpoint", "checkpoint.load"),
    (netpbm, "load_image_ppm", "netpbm.load"),
    (netpbm, "save_mask_pgm", "netpbm.save"),
)

# modules whose imported op names are rebound; autodiff itself is included
# because Tensor's operator methods call its globals
_OP_BINDERS = (autodiff, blocks, model, losses)


def conv_kind(spec) -> str:
    if spec.kernel == 1:
        return "conv_1x1"
    if spec.groups > 1 and spec.depthwise:
        return "conv_dw"
    return "conv_dense"


def _op_kind(name, args, kwargs) -> str:
    kind = OP_KIND[name]
    if kind == "conv":
        spec = args[2] if len(args) > 2 else kwargs["spec"]
        return conv_kind(spec)
    return kind


def model_groups(net) -> dict:
    """id(direct part of ``net``) -> its ``model.PARAM_GROUPS`` name."""
    groups = {}
    for name, child in net._children.items():
        if name == "stages":
            for i, stage in enumerate(child):
                for block in stage:
                    groups[id(block)] = f"stage{i + 1}"
            continue
        group = "transformer" if name in ("tokenizer", "transformer") else name
        parts = list(child) if isinstance(child, blocks.ModuleList) else [child]
        for part in parts:
            groups[id(part)] = group
    return groups


class Tracer:
    """In-memory span totals for one traced pass of a workload."""

    def __init__(self):
        self.ms = defaultdict(float)          # span name -> summed ms
        self.kind_fwd = defaultdict(float)
        self.kind_bwd = defaultdict(float)
        self.kind_calls = defaultdict(int)
        self.group_fwd = defaultdict(float)
        self.group_bwd = defaultdict(float)
        self.group_tape = defaultdict(float)  # largest per-backward MiB
        self.tape_nodes = 0
        self.tape_mib = 0.0
        self.checkpoint_mib = 0.0
        self.windows = defaultdict(lambda: [0.0, 0.0])  # name -> [top ms, wall ms]
        self._depth = 0
        self._in_op = False
        self._window = None
        self._groups = []          # open model groups, innermost last
        self._model_parts = {}     # id(block) -> group for the running model
        self._ranges = {}          # Graph -> [(start, end, kind, group)]
        self._saved = []           # (owner, attribute, original)

    # -- bookkeeping --------------------------------------------------------
    def _close(self, name, t0):
        dt = (time.perf_counter() - t0) * 1000.0
        self._depth -= 1
        self.ms[name] += dt
        if self._depth == 0 and self._window is not None:
            self.windows[self._window][0] += dt
        return dt

    @contextmanager
    def window(self, name):
        """Time a stretch whose coverage by top-level spans is reported."""
        prev, self._window = self._window, name
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.windows[name][1] += (time.perf_counter() - t0) * 1000.0
            self._window = prev

    def coverage_pct(self, name) -> float:
        top, wall = self.windows[name]
        return 100.0 * top / wall if wall else 0.0

    # -- wrappers -----------------------------------------------------------
    def _span(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(name, t0)

        return wrapper

    def _op(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._in_op:
                return fn(*args, **kwargs)
            kind = _op_kind(name, args, kwargs)
            group = tracer._groups[-1] if tracer._groups else None
            graph = autodiff._active_graph()
            start = len(graph.nodes) if graph is not None else 0
            tracer._in_op = True
            tracer._depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._in_op = False
                dt = tracer._close("op." + kind, t0)
                tracer.kind_fwd[kind] += dt
                tracer.kind_calls[kind] += 1
                if group is not None:
                    tracer.group_fwd[group] += dt
                if graph is not None and len(graph.nodes) > start:
                    tracer._ranges.setdefault(graph, []).append(
                        (start, len(graph.nodes), kind, group))

        return wrapper

    def _group(self, fn):
        tracer = self

        def wrapper(module, *args, **kwargs):
            group = tracer._model_parts.get(id(module))
            if group is None:
                return fn(module, *args, **kwargs)
            tracer._groups.append(group)
            try:
                return fn(module, *args, **kwargs)
            finally:
                tracer._groups.pop()

        return wrapper

    def _model_call(self, fn):
        tracer = self
        span = self._span(fn, "model.forward")

        def wrapper(net, *args, **kwargs):
            # ops the model runs outside its parts (the final x2 upsample and
            # sigmoid) belong to the head
            saved = tracer._model_parts, tracer._groups
            tracer._model_parts, tracer._groups = model_groups(net), ["head"]
            try:
                return span(net, *args, **kwargs)
            finally:
                tracer._model_parts, tracer._groups = saved

        return wrapper

    def _backward(self, fn):
        tracer = self
        span = self._span(fn, "autodiff.backward")

        def wrapper(loss, graph=None):
            if graph is None and loss.creator is not None:
                graph = loss.creator.graph
            if graph is not None:
                tracer._time_nodes(graph)
            return span(loss, graph)

        return wrapper

    def _save(self, fn):
        tracer = self
        span = self._span(fn, "checkpoint.save")

        def wrapper(net, path, **kwargs):
            span(net, path, **kwargs)
            tracer.checkpoint_mib += os.path.getsize(path) / MIB

        return wrapper

    def _time_nodes(self, graph):
        nodes = graph.nodes
        group_bytes = defaultdict(int)
        for start, end, kind, group in self._ranges.pop(graph, ()):
            for node in nodes[start:end]:
                if group is not None:
                    group_bytes[group] += node.out.data.nbytes
                node.backward_fn = self._timed_backward(node.backward_fn, kind, group)
        total = sum(node.out.data.nbytes for node in nodes)
        self.tape_nodes = max(self.tape_nodes, len(nodes))
        self.tape_mib = max(self.tape_mib, total / MIB)
        for group, size in group_bytes.items():
            self.group_tape[group] = max(self.group_tape[group], size / MIB)

    def _timed_backward(self, fn, kind, group):
        tracer = self

        def backward_fn(g):
            t0 = time.perf_counter()
            try:
                return fn(g)
            finally:
                dt = (time.perf_counter() - t0) * 1000.0
                tracer.kind_bwd[kind] += dt
                if group is not None:
                    tracer.group_bwd[group] += dt

        return backward_fn

    # -- install / uninstall ------------------------------------------------
    def _replace(self, owner, attr, wrapper):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name in _SPANS:
            self._replace(owner, attr, self._span(vars(owner)[attr], name))
        self._replace(training, "backward", self._backward(training.backward))
        self._replace(checkpoint, "save_checkpoint",
                      self._save(checkpoint.save_checkpoint))
        self._replace(model.MedLiteNet, "__call__",
                      self._model_call(vars(model.MedLiteNet)["__call__"]))
        for binder in _OP_BINDERS:
            for name in OP_KIND:
                if name in vars(binder):
                    self._replace(binder, name, self._op(vars(binder)[name], name))
        for cls in vars(blocks).values():
            if isinstance(cls, type) and issubclass(cls, blocks.Module):
                for attr in ("__call__", "tokenize", "detokenize"):
                    if attr in vars(cls):
                        self._replace(cls, attr, self._group(vars(cls)[attr]))
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._ranges.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, exc_type, exc, tb):
        self.uninstall()
        return False

    # -- report -------------------------------------------------------------
    def layer_metrics(self) -> dict:
        """The per-layer metric values, by their fixed names."""
        m = {}
        m["data.synth_ms"] = self.ms["data.synth"]
        m["data.augment_ms"] = self.ms["data.augment"]
        m["data.batch_ms"] = self.ms["data.batch"]
        for kind in KINDS:
            m[f"autodiff.{kind}.fwd_ms"] = self.kind_fwd[kind]
            m[f"autodiff.{kind}.bwd_ms"] = self.kind_bwd[kind]
            m[f"autodiff.{kind}.calls"] = self.kind_calls[kind]
        m["autodiff.backward_ms"] = self.ms["autodiff.backward"]
        m["autodiff.tape_nodes"] = self.tape_nodes
        m["autodiff.tape_mib"] = self.tape_mib
        for group in model.PARAM_GROUPS:
            m[f"model.{group}.fwd_ms"] = self.group_fwd[group]
            m[f"model.{group}.bwd_ms"] = self.group_bwd[group]
            m[f"model.{group}.tape_mib"] = self.group_tape[group]
        m["losses.total_loss_ms"] = self.ms["losses.total_loss"]
        m["metrics.dice_iou_ms"] = self.ms["metrics.dice_iou"]
        m["training.clip_ms"] = self.ms["training.clip"]
        m["training.adamw_ms"] = self.ms["training.adamw"]
        m["training.ema_ms"] = self.ms["training.ema"]
        m["training.evaluate_ms"] = (self.ms["training.evaluate"]
                                     + self.ms["training.ema_swap"])
        m["training.tta_ms"] = self.ms["training.tta"]
        m["checkpoint.save_ms"] = self.ms["checkpoint.save"]
        m["checkpoint.load_ms"] = self.ms["checkpoint.load"]
        m["checkpoint.mib"] = self.checkpoint_mib
        m["netpbm.load_ms"] = self.ms["netpbm.load"]
        m["netpbm.save_ms"] = self.ms["netpbm.save"]
        return m
