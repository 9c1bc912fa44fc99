"""Dense N-D float tensors with reverse-mode automatic differentiation.

The engine is tape-based: while a :class:`Graph` is active, every operation
appends a node holding the operands that require gradients and a backward
closure.  ``backward``
walks the tape in exact reverse append order and accumulates gradients
(``+=``) into the ``grad`` buffer of every leaf tensor that requires them.
A tape is backpropagated once, inside its ``Graph`` block, and is freed as
backward runs: each node is popped and released once its gradients are
passed on, so reference counting frees every activation that only the
processed nodes held.  Gradients accumulate across tapes, one ``Graph`` per
micro-batch.  On exit the rest of the tape is unlinked, so that reference
counting frees it at once.

Layout convention is NCHW for 4-D tensors, row-major, float32 by default.
All ops are dtype-preserving so the gradient-check harness can run the same
code in float64.

An op never writes into a tensor it was given; with no active Graph a unit
may overwrite the conv output it created.  The unit marks that output with
:func:`handover`, and ``batchnorm2d`` then writes its affine (and SiLU) into
the conv output's own buffer instead of a fresh one.  Both destinations run
the same element-wise float ops, so the result is bitwise the same.

Under an active Graph a unit may instead :func:`release` a tensor it created
once every op that reads it in forward has run.  The tensor drops its array
but keeps its shape and dtype; the first read of ``data`` (in backward)
rebuilds the array from the tape with the forward's own float ops, so it is
bitwise the same, and the tensor keeps it until its node is released.  Only a
``batchnorm2d``, ``silu`` or bias-free 1x1 ``conv2d`` output can be rebuilt;
with no active Graph ``release`` does nothing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "AutodiffError",
    "ShapeError",
    "Tensor",
    "Parameter",
    "Graph",
    "Conv2dSpec",
    "BatchNormState",
    "backward",
    "add",
    "sub",
    "mul",
    "div",
    "log",
    "sqrt",
    "clamp",
    "relu",
    "sigmoid",
    "silu",
    "softmax",
    "matmul",
    "tsum",
    "tmean",
    "reshape",
    "transpose",
    "concat_channels",
    "conv2d",
    "conv2d_direct",
    "batchnorm2d",
    "upsample_bilinear",
    "pad_edge",
]


class AutodiffError(RuntimeError):
    """Raised on invalid use of the autodiff machinery."""


class ShapeError(ValueError):
    """Raised when operand shapes are inconsistent for an op."""


# ---------------------------------------------------------------------------
# Tensor and graph plumbing
# ---------------------------------------------------------------------------

class _Released:
    """What a released tensor keeps of its array."""

    __slots__ = ("shape", "ndim", "size", "dtype")

    def __init__(self, arr: np.ndarray):
        self.shape, self.ndim, self.size, self.dtype = (
            arr.shape, arr.ndim, arr.size, arr.dtype)


class Tensor:
    """A dense float array plus optional gradient buffer and graph linkage."""

    __slots__ = ("_data", "requires_grad", "grad", "creator", "decay_exempt")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self._data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.creator: Optional[_Node] = None
        self.decay_exempt = False

    @property
    def data(self) -> np.ndarray:
        """The array; a released tensor rebuilds it here, once."""
        if type(self._data) is _Released:
            if self.creator is None:
                raise AutodiffError("a released tensor was read after its tape "
                                    "node was freed, so it cannot be rebuilt")
            self._data = self.creator.rebuild()
        return self._data

    @data.setter
    def data(self, arr: np.ndarray):
        self._data = arr

    # -- basic introspection (a released tensor answers without rebuilding) --
    @property
    def shape(self):
        return self._data.shape

    @property
    def ndim(self):
        return self._data.ndim

    @property
    def size(self):
        return self._data.size

    @property
    def dtype(self):
        return self._data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        head = f"Tensor(shape={tuple(self.shape)}, dtype={self.dtype}"
        return head + (", requires_grad=True)" if self.requires_grad else ")")

    # -- operator sugar -----------------------------------------------------
    def __add__(self, other):
        return add(self, _lift(other, self.dtype))

    def __rsub__(self, other):
        return sub(_lift(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, _lift(other, self.dtype))

    def __rmul__(self, other):
        return mul(_lift(other, self.dtype), self)

    def __truediv__(self, other):
        return div(self, _lift(other, self.dtype))

    def __neg__(self):
        return mul(self, _lift(-1.0, self.dtype))


class Parameter(Tensor):
    """A leaf tensor registered as trainable by the module system."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class _Node:
    """One taped op.  ``parents`` holds the inputs that require gradients
    (None in place of the others); ``rebuild``, if set, recomputes ``out``'s
    array bitwise from them."""

    __slots__ = ("op", "parents", "out", "backward_fn", "graph", "rebuild")

    def __init__(self, op, parents, out, backward_fn, graph, rebuild):
        self.op = op
        self.parents = parents
        self.out = out
        self.backward_fn = backward_fn
        self.graph = graph
        self.rebuild = rebuild


def _release(node: _Node):
    """Drop what a node holds, and the out -> node and node -> graph cycles."""
    node.out.creator = None
    node.parents = node.out = node.backward_fn = node.graph = node.rebuild = None


class Graph:
    """Append-only op tape, backpropagated once in exact reverse append order.

    ``backward`` pops each node off ``nodes`` and releases it; exiting the
    block unlinks whatever is left, also after a backward that raised.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.exited = False
        self.consumed = False

    def __enter__(self):
        _GRAPH_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _GRAPH_STACK.pop()
        # out.creator -> node -> out and node.graph -> graph -> nodes are
        # cycles; without them the tape is freed when the graph is dropped,
        # not when the cyclic collector next reaches it
        for node in self.nodes:
            node.out.creator = None
            node.graph = None
        self.exited = True
        return False


_GRAPH_STACK: list[Graph] = []


def _active_graph() -> Optional[Graph]:
    return _GRAPH_STACK[-1] if _GRAPH_STACK else None


def _lift(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


class _Handover(Tensor):
    """A conv output that the unit which created it no longer reads."""

    __slots__ = ()


def handover(t: Tensor) -> Tensor:
    """Let the next op write its result into ``t``'s buffer.

    Only the unit that created ``t`` (a conv output it reads no more) may
    call this.  Under an active Graph the tape may keep ``t``, so ``t`` comes
    back unmarked.
    """
    if _active_graph() is not None or not t.data.flags.c_contiguous:
        return t
    return _Handover(t.data)


def release(t: Tensor) -> None:
    """Drop ``t``'s array until backward reads it, which rebuilds it bitwise.

    Only the unit that created ``t`` may call this, once every forward op
    that reads ``t`` has run.  With no active Graph it does nothing; under
    one, a tensor whose op cannot rebuild its output raises AutodiffError.
    """
    if _active_graph() is None:
        return
    node = t.creator
    if node is None or node.rebuild is None:
        what = "a leaf" if node is None else f"a {node.op} output"
        raise AutodiffError(f"release: the tape cannot rebuild {what}")
    t.data = _Released(t.data)


def _record(op: str, out: Tensor, parents: Sequence[Tensor],
            backward_fn: Callable[[np.ndarray], tuple],
            rebuild: Optional[Callable[[], np.ndarray]] = None) -> Tensor:
    graph = _active_graph()
    if graph is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        node = _Node(op, tuple(p if p.requires_grad else None for p in parents),
                     out, backward_fn, graph, rebuild)
        out.creator = node
        graph.nodes.append(node)
    return out


def backward(loss: Tensor, graph: Optional[Graph] = None):
    """Accumulate d(loss)/d(leaf) into ``grad`` for every requires_grad leaf.

    A tape is backpropagated once: nodes are released as their gradients are
    passed on, and a second call on the same graph raises.  Gradients add up
    across graphs, so two tapes of the same loss yield exactly twice the
    single-pass gradient.  The graph's block must still be open.
    """
    if loss.data.size != 1:
        raise AutodiffError(
            f"backward requires a scalar loss, got shape {tuple(loss.shape)}")
    if graph is None:
        if loss.creator is None:
            raise AutodiffError("loss tensor is not attached to any graph")
        graph = loss.creator.graph
    if graph.exited:
        raise AutodiffError("backward on a Graph whose block has exited: its "
                            "tape is unlinked, so run backward inside the block")
    if graph.consumed:
        raise AutodiffError("backward already ran on this Graph: its tape is "
                            "freed as backward runs, so record a new Graph")
    if loss.creator is not None and loss.creator.graph is not graph:
        raise AutodiffError("loss was recorded on another Graph than the one "
                            "passed to backward")
    graph.consumed = True
    pending: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    if loss.creator is None:
        # degenerate: the loss is itself a leaf
        if loss.requires_grad:
            if loss.grad is None:
                loss.grad = np.zeros_like(loss.data)
            loss.grad += pending[id(loss)]
        return
    nodes = graph.nodes
    while nodes:
        node = nodes.pop()
        try:
            gout = pending.pop(id(node.out), None)
            if gout is None:
                continue
            grads = node.backward_fn(gout)
            for parent, g in zip(node.parents, grads):
                if g is None or parent is None:
                    continue
                if parent.creator is not None and parent.creator.graph is graph:
                    prev = pending.get(id(parent))
                    pending[id(parent)] = g if prev is None else prev + g
                else:
                    if parent.grad is None:
                        parent.grad = np.zeros_like(parent.data)
                    parent.grad += g
        finally:
            _release(node)


def _reduce_to_shape(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Undo numpy broadcasting: sum gradient down to the operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# Elementwise arithmetic
# ---------------------------------------------------------------------------

# The closures of add, sub, tsum, tmean, reshape and concat_channels keep the
# shapes their backward reads, not the input tensors: the tape then holds no
# input that requires no gradient, and reads no released tensor's shape.

def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)
    sa = a.shape if a.requires_grad else None
    sb = b.shape if b.requires_grad else None

    def bw(g):
        return (None if sa is None else _reduce_to_shape(g, sa),
                None if sb is None else _reduce_to_shape(g, sb))

    return _record("add", out, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)
    sa = a.shape if a.requires_grad else None
    sb = b.shape if b.requires_grad else None

    def bw(g):
        return (None if sa is None else _reduce_to_shape(g, sa),
                None if sb is None else _reduce_to_shape(-g, sb))

    return _record("sub", out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)

    def bw(g):
        ga = _reduce_to_shape(g * b.data, a.data.shape) if a.requires_grad else None
        gb = _reduce_to_shape(g * a.data, b.data.shape) if b.requires_grad else None
        return ga, gb

    return _record("mul", out, (a, b), bw)


def div(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data / b.data)

    def bw(g):
        ga = _reduce_to_shape(g / b.data, a.data.shape) if a.requires_grad else None
        gb = None
        if b.requires_grad:
            gb = _reduce_to_shape(-g * a.data / (b.data * b.data), b.data.shape)
        return ga, gb

    return _record("div", out, (a, b), bw)


def log(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.data))
    return _record("log", out, (a,), lambda g: (g / a.data,))


def sqrt(a: Tensor) -> Tensor:
    out = Tensor(np.sqrt(a.data))
    return _record("sqrt", out, (a,), lambda g: (g * (0.5 / out.data),))


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    out = Tensor(np.clip(a.data, lo, hi))

    def bw(g):
        inside = (a.data >= lo) & (a.data <= hi)
        return (g * inside.astype(a.data.dtype),)

    return _record("clamp", out, (a,), bw)


# ---------------------------------------------------------------------------
# Activations and softmax
# ---------------------------------------------------------------------------

def _stable_sigmoid(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    # (1 + tanh(x/2)) / 2 cannot overflow and saturates to exactly 0 and 1;
    # every step writes one preallocated buffer, which also keeps a 0-d input
    # an array (a bare ufunc would return a numpy scalar)
    if out is None:
        out = np.empty_like(x)
    np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def sigmoid(a: Tensor) -> Tensor:
    out = Tensor(_stable_sigmoid(a.data))

    def bw(g):
        s = out.data
        ds = 1.0 - s
        ds *= s
        return (g * ds,)

    return _record("sigmoid", out, (a,), bw)


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0))

    def bw(g):
        return (g * (a.data > 0).astype(a.data.dtype),)

    return _record("relu", out, (a,), bw)


def _silu_grad(g: np.ndarray, x: np.ndarray, s: np.ndarray,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    # d/dx x*sig(x) = sig(x) * (1 + x * (1 - sig(x))), times g, in one buffer
    ds = np.subtract(1.0, s, out=out)
    ds *= x
    ds += 1.0
    ds *= s
    ds *= g
    return ds


def silu(a: Tensor) -> Tensor:
    s = _stable_sigmoid(a.data)
    out = Tensor(a.data * s)

    def bw(g):
        return (_silu_grad(g, a.data, s),)

    return _record("silu", out, (a,), bw, lambda: a.data * s)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {tuple(a.shape)}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = Tensor(e / e.sum(axis=axis, keepdims=True))

    def bw(g):
        s = out.data
        return (s * (g - (g * s).sum(axis=axis, keepdims=True)),)

    return _record("softmax", out, (a,), bw)


# ---------------------------------------------------------------------------
# Reductions and shape ops
# ---------------------------------------------------------------------------

def _norm_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, a.ndim)
    out = Tensor(a.data.sum(axis=axes, keepdims=keepdims))
    shape, dtype = a.shape, a.dtype

    def bw(g):
        if not keepdims:
            g = np.expand_dims(g, axes) if axes else g
        return (np.broadcast_to(g, shape).astype(dtype, copy=False),)

    return _record("sum", out, (a,), bw)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, a.ndim)
    shape, dtype = a.shape, a.dtype
    count = int(np.prod([shape[i] for i in axes])) if axes else 1
    out = Tensor(a.data.mean(axis=axes, keepdims=keepdims))

    def bw(g):
        if not keepdims:
            g = np.expand_dims(g, axes) if axes else g
        # divide before broadcasting: the same quotients, no full-size array
        return (np.broadcast_to(g / count, shape).astype(dtype, copy=False),)

    return _record("mean", out, (a,), bw)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    in_shape = a.shape
    return _record("reshape", out, (a,), lambda g: (g.reshape(in_shape),))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = Tensor(np.ascontiguousarray(a.data.transpose(axes)))
    return _record("transpose", out, (a,),
                   lambda g: (np.ascontiguousarray(g.transpose(inv)),))


def concat_channels(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate NCHW tensors along the channel axis."""
    first = tensors[0]
    for i, t in enumerate(tensors[1:], start=1):
        if t.ndim != first.ndim:
            raise ShapeError(f"concat_channels: rank mismatch at input {i}")
        same = (t.shape[0] == first.shape[0] and t.shape[2:] == first.shape[2:])
        if not same:
            raise ShapeError(
                f"concat_channels: input {i} has shape {tuple(t.shape)}, "
                f"expected N={first.shape[0]} and spatial {tuple(first.shape[2:])}")
    out = Tensor(np.concatenate([t.data for t in tensors], axis=1))
    splits = np.cumsum([t.shape[1] for t in tensors])[:-1]
    wanted = [t.requires_grad for t in tensors]

    def bw(g):
        pieces = np.split(g, splits, axis=1)
        return tuple(p if w else None for p, w in zip(pieces, wanted))

    return _record("concat_channels", out, tuple(tensors), bw)


# ---------------------------------------------------------------------------
# Matrix multiply
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(
            f"matmul: inner dims differ, {a.shape[-1]} (lhs) vs {b.shape[-2]} (rhs)")
    out = Tensor(np.matmul(a.data, b.data))

    def bw(g):
        ga = gb = None
        if a.requires_grad:
            ga = _reduce_to_shape(np.matmul(g, np.swapaxes(b.data, -1, -2)),
                                  a.data.shape)
        if b.requires_grad:
            gb = _reduce_to_shape(np.matmul(np.swapaxes(a.data, -1, -2), g),
                                  b.data.shape)
        return ga, gb

    return _record("matmul", out, (a, b), bw)


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

@dataclass
class Conv2dSpec:
    """Static description of a 2-D convolution (square kernel)."""

    in_channels: int
    out_channels: int
    kernel: int
    stride: int = 1
    dilation: int = 1
    groups: int = 1
    padding: Optional[int] = None   # None -> "same" for stride 1, odd kernel

    def __post_init__(self):
        if self.stride <= 0 or self.dilation <= 0:
            raise ShapeError(
                f"conv2d: stride/dilation must be positive, got "
                f"stride={self.stride} dilation={self.dilation}")
        if self.kernel <= 0:
            raise ShapeError(f"conv2d: kernel must be positive, got {self.kernel}")
        if self.groups != 1 and not self.depthwise:
            raise ShapeError(
                f"conv2d: groups={self.groups} with channels "
                f"{self.in_channels}->{self.out_channels}; only dense "
                f"(groups=1) and depthwise (groups = in = out) convs exist")
        if self.padding is None:
            self.padding = self.dilation * (self.kernel - 1) // 2

    @property
    def depthwise(self) -> bool:
        return self.groups == self.in_channels == self.out_channels

    @property
    def weight_shape(self) -> tuple:
        return (self.out_channels, self.in_channels // self.groups,
                self.kernel, self.kernel)

    def out_size(self, size: int) -> int:
        eff = self.dilation * (self.kernel - 1) + 1
        out = (size + 2 * self.padding - eff) // self.stride + 1
        if out <= 0:
            raise ShapeError(
                f"conv2d: kernel span {eff} exceeds padded input of size "
                f"{size + 2 * self.padding}")
        return out


def _conv_windows(xp: np.ndarray, k: int, stride: int, dilation: int) -> np.ndarray:
    span = dilation * (k - 1) + 1
    win = np.lib.stride_tricks.sliding_window_view(xp, (span, span), axis=(2, 3))
    return win[:, :, ::stride, ::stride, ::dilation, ::dilation]


def conv2d(x: Tensor, weight: Tensor, spec: Conv2dSpec,
           bias: Optional[Tensor] = None) -> Tensor:
    """Dense or depthwise, strided/dilated 2-D convolution.

    Depthwise specs run per channel block as a matrix of the k*k tap
    windows of the input's stride phases times the weights (one batched
    matmul), unpadded stride-1 dense 1x1 specs as one batched matmul, and
    every other spec as an einsum over the input's sliding windows.  The
    tape can rebuild the output of a bias-free 1x1 spec (see :func:`release`).
    """
    _check_conv_args(x, weight, spec, bias)
    rebuild = None
    if spec.depthwise:
        out_data, conv_bw = _conv_depthwise(x, weight, spec)
    elif spec.kernel == 1 and spec.stride == 1 and spec.padding == 0:
        out_data, conv_bw, rebuild = _conv_pointwise(x, weight)
    else:
        out_data, conv_bw = _conv_windowed(x, weight, spec)
    if bias is not None:
        out_data += bias.data.reshape(1, spec.out_channels, 1, 1)
        rebuild = None
    out = Tensor(out_data)

    def bw(g):
        gx, gw = conv_bw(g)
        if bias is None:
            return gx, gw
        return gx, gw, (g.sum(axis=(0, 2, 3)) if bias.requires_grad else None)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _record("conv2d", out, parents, bw, rebuild)


def _tap_slice(ki: int, li: int, spec: Conv2dSpec, ho: int, wo: int) -> tuple:
    """Index of the padded-input pixels that kernel tap (ki, li) multiplies."""
    d, s = spec.dilation, spec.stride
    return (slice(None), slice(None),
            slice(ki * d, ki * d + s * ho, s), slice(li * d, li * d + s * wo, s))


# Scratch bytes of one depthwise channel block, counting its k*k tap
# matrices: small enough to stay in L2.  1 MiB ran the model's depthwise
# shapes faster than 0.5, 2 or 4 MiB.
_DW_BLOCK_BYTES = 1 << 20


def _phase_rows(a: int, s: int, p: int, size: int) -> tuple:
    """Rows of stride phase ``a`` that hold input rows, and those input rows.

    Phase ``a`` holds padded rows a, a+s, a+2s, ...; padded row y is input
    row y-p.
    """
    r0 = -((a - p) // s)                         # first phase row with y >= p
    y0 = s * r0 + a - p
    return slice(r0, r0 + len(range(y0, size, s))), slice(y0, size, s)


def _channel_blocks(n: int, c: int, channel_bytes: int,
                    budget: Optional[int] = None) -> tuple:
    """Channel-block size and the slices of C that one call works through.

    ``budget`` is the scratch bytes of one block, ``_DW_BLOCK_BYTES`` if None.
    """
    budget = _DW_BLOCK_BYTES if budget is None else budget
    m = max(1, min(c, budget // (n * channel_bytes)))
    return m, [slice(c0, min(c0 + m, c)) for c0 in range(0, c, m)]


def _block_view(buf: np.ndarray, n: int, mb: int, *shape) -> np.ndarray:
    """The first n*mb*prod(shape) elements of a flat scratch buffer, shaped."""
    return buf[:n * mb * math.prod(shape)].reshape(n, mb, *shape)


def _conv_depthwise(x: Tensor, weight: Tensor, spec: Conv2dSpec):
    """Depthwise conv as tap matrices times the weights, per channel block.

    Each block of the input is copied into s*s zero-bordered phases
    [n, m, s*s, hq, wq] of its padded image.  Tap (ki, li) reads phase
    (ki*d mod s, li*d mod s) as one contiguous run of ``span`` elements at
    row width wq.  The k*k runs form one tap matrix [n, m, k*k, span], and
    one matmul with the block's weights [m, 1, k*k] computes the block; the
    wq-wo columns past each output row are dropped when it is copied out.

    Backward copies ``g`` at row width wq into a buffer that is zero around
    it.  Phase q's gradient at flat index j is the sum of w_t * g[j - off_t]
    over the taps t of phase q, so those shifted copies of ``g`` form one
    tap matrix: times the taps' weights it gives the phase gradient, and
    times the phase it gives their weight gradients.  Backward rebuilds the
    phases from ``x``, so no padded copy stays on the tape.
    """
    n, c, h, w = x.shape
    k, s, d, p = spec.kernel, spec.stride, spec.dilation, spec.padding
    kk, ho, wo = k * k, spec.out_size(h), spec.out_size(w)
    hq, wq = -(-(h + 2 * p) // s), -(-(w + 2 * p) // s)
    ss, hw, span, dt = s * s, hq * wq, (ho - 1) * wq + wo, x.data.dtype
    taps = [((ki * d % s) * s + li * d % s, (ki * d // s) * wq + li * d // s)
            for ki in range(k) for li in range(k)]      # (phase, offset)
    fills = [(a * s + b, _phase_rows(a, s, p, h), _phase_rows(b, s, p, w))
             for a in range(s) for b in range(s)]
    wt = weight.data.reshape(c, 1, kk)

    def load_phases(ph, cb):
        for q, (rq, rx), (cq, cx) in fills:
            ph[:, :, q, rq, cq] = x.data[:, cb, rx, cx]
        return ph.reshape(ph.shape[0], ph.shape[1], ss, hw)

    m, blocks = _channel_blocks(n, c, dt.itemsize * (ss * hw + kk * span + ho * wq))
    ph_buf = np.zeros(n * m * ss * hw, dt)        # borders stay zero across blocks
    tap_buf = np.empty(n * m * kk * span, dt)
    acc_buf = np.empty(n * m * ho * wq, dt)
    out_data = np.empty((n, c, ho, wo), dt)
    for cb in blocks:
        mb = cb.stop - cb.start
        phf = load_phases(_block_view(ph_buf, n, mb, ss, hq, wq), cb)
        tm = _block_view(tap_buf, n, mb, kk, span)
        for t, (q, off) in enumerate(taps):
            tm[:, :, t] = phf[:, :, q, off:off + span]
        acc = _block_view(acc_buf, n, mb, 1, ho * wq)
        np.matmul(wt[cb], tm, out=acc[..., :span])
        out_data[:, cb] = acc.reshape(n, mb, ho, wq)[..., :wo]

    lead = max(off for _, off in taps)            # zeros before g in its copy
    phase_taps = [[t for t, tap in enumerate(taps) if tap[0] == q]
                  for q in range(ss)]
    nq = max(len(ts) for ts in phase_taps)

    def bw(g):
        gx = gw = None
        if weight.requires_grad:
            gw = np.empty_like(weight.data)
        if x.requires_grad:
            gx = np.empty(x.data.shape, dtype=g.dtype)
        gt = g.dtype
        m, blocks = _channel_blocks(n, c, gt.itemsize * ((ss + nq + 2) * hw + lead))
        gz_buf = np.zeros(n * m * (lead + hw), gt)   # zeros outside g stay zero
        ph_buf = np.zeros(n * m * ss * hw, dt) if gw is not None else None
        tap_buf = np.empty(n * m * nq * hw, gt)
        gph_buf = np.empty(n * m * hw, gt) if gx is not None else None
        for cb in blocks:
            mb = cb.stop - cb.start
            gz = _block_view(gz_buf, n, mb, lead + hw)
            gz[:, :, lead:lead + ho * wq].reshape(n, mb, ho, wq)[..., :wo] = g[:, cb]
            if gw is not None:
                phf = load_phases(_block_view(ph_buf, n, mb, ss, hq, wq), cb)
            if gx is not None:
                gph = _block_view(gph_buf, n, mb, 1, hw)
            for q, (rq, rx), (cq, cx) in fills:
                ts = phase_taps[q]
                tm = _block_view(tap_buf, n, mb, len(ts), hw)
                for j, t in enumerate(ts):
                    off = lead - taps[t][1]
                    tm[:, :, j] = gz[:, :, off:off + hw]
                if gw is not None:
                    gw.reshape(c, kk)[cb, ts] = np.matmul(
                        tm, phf[:, :, q, :, None]).sum(axis=(0, 3))
                if gx is not None:
                    np.matmul(wt[cb][:, :, ts], tm, out=gph)
                    gx[:, cb, rx, cx] = gph.reshape(n, mb, hq, wq)[:, :, rq, cq]
        return gx, gw

    return out_data, bw


def _conv_pointwise(x: Tensor, weight: Tensor):
    """1x1 conv as one batched matmul; returns the output, its backward and
    the forward itself, which rebuilds the output bitwise.  Both closures
    read ``x`` through the tensor, which may be released by then."""
    n, c, h, w = x.shape
    wmat = weight.data[:, :, 0, 0]               # [Cout, C]

    def forward():
        return np.matmul(wmat, x.data.reshape(n, c, h * w)).reshape(n, -1, h, w)

    def bw(g):
        g3 = g.reshape(n, -1, h * w)
        gx = gw = None
        if weight.requires_grad:
            x3t = x.data.reshape(n, c, h * w).transpose(0, 2, 1)
            gw = np.matmul(g3, x3t).sum(axis=0).reshape(weight.shape)
        if x.requires_grad:
            gx = np.matmul(wmat.T, g3).reshape(n, c, h, w)
        return gx, gw

    return forward(), bw, forward


def _conv_windowed(x: Tensor, weight: Tensor, spec: Conv2dSpec):
    n, c, h, w = x.shape
    k, p = spec.kernel, spec.padding
    ho, wo = spec.out_size(h), spec.out_size(w)

    xp = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p))) if p else x.data
    win = _conv_windows(xp, k, spec.stride, spec.dilation)   # [N, C, Ho, Wo, K, K]
    out_data = np.ascontiguousarray(
        np.einsum("nchwkl,ockl->nohw", win, weight.data, optimize=True))

    def bw(g):
        gx = gw = None
        if weight.requires_grad:
            gw = np.ascontiguousarray(
                np.einsum("nchwkl,nohw->ockl", win, g, optimize=True))
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for ki in range(k):
                for li in range(k):
                    t = np.einsum("nohw,oc->nchw", g, weight.data[:, :, ki, li],
                                  optimize=True)
                    gxp[_tap_slice(ki, li, spec, ho, wo)] += t
            gx = gxp[:, :, p:p + h, p:p + w] if p else gxp
            gx = np.ascontiguousarray(gx)
        return gx, gw

    return out_data, bw


def conv2d_direct(x: Tensor, weight: Tensor, spec: Conv2dSpec,
                  bias: Optional[Tensor] = None) -> Tensor:
    """Direct-summation reference convolution (forward only, no graph).

    Slow by design; used to cross-check the fast paths of :func:`conv2d`.
    """
    _check_conv_args(x, weight, spec, bias)
    n, c, h, w = x.shape
    k, s, d, p, grp = spec.kernel, spec.stride, spec.dilation, spec.padding, spec.groups
    cout = spec.out_channels
    cg = c // grp
    og = cout // grp
    ho, wo = spec.out_size(h), spec.out_size(w)
    out = np.zeros((n, cout, ho, wo), dtype=x.data.dtype)
    for ni in range(n):
        for o in range(cout):
            gidx = o // og
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(cg):
                        cin = gidx * cg + ci
                        for ki in range(k):
                            hi = i * s + ki * d - p
                            if hi < 0 or hi >= h:
                                continue
                            for li in range(k):
                                wi = j * s + li * d - p
                                if wi < 0 or wi >= w:
                                    continue
                                acc += float(x.data[ni, cin, hi, wi]) * \
                                    float(weight.data[o, ci, ki, li])
                    out[ni, o, i, j] = acc
    if bias is not None:
        out += bias.data.reshape(1, cout, 1, 1)
    return Tensor(out)


def _check_conv_args(x, weight, spec, bias):
    if x.ndim != 4:
        raise ShapeError(f"conv2d: input must be 4-D NCHW, got rank {x.ndim}")
    if x.shape[1] != spec.in_channels:
        raise ShapeError(
            f"conv2d: input has {x.shape[1]} channels, spec expects "
            f"{spec.in_channels}")
    if tuple(weight.shape) != spec.weight_shape:
        raise ShapeError(
            f"conv2d: weight shape {tuple(weight.shape)} does not match spec "
            f"{spec.weight_shape}")
    if bias is not None and tuple(bias.shape) != (spec.out_channels,):
        raise ShapeError(
            f"conv2d: bias shape {tuple(bias.shape)} != ({spec.out_channels},)")


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------

@dataclass
class BatchNormState:
    """Running statistics for one BatchNorm layer (not trainable)."""

    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def initial(cls, channels: int, dtype=np.float32) -> "BatchNormState":
        return cls(np.zeros(channels, dtype=dtype), np.ones(channels, dtype=dtype))


# The variance epsilon of batchnorm2d and blocks.LayerNorm.
NORM_EPS = 1e-5

# Scratch bytes of one tanh chunk in _affine_silu.
_SILU_CHUNK_BYTES = 1 << 18


def _affine_silu(x: np.ndarray, scale: np.ndarray, shift: np.ndarray,
                 silu: bool, out: np.ndarray) -> np.ndarray:
    """``out = z = x*scale + shift``, or ``z * sigmoid(z)`` if ``silu``.

    The SiLU is h * (1 + tanh h) with h = x*(scale/2) + shift/2: three ops
    per chunk.  Halving is exact for normal floats, so h is z/2 and the
    result is bitwise ``z * _stable_sigmoid(z)``.
    ``out`` is C-contiguous with x's shape and may be ``x`` itself.  The tanh
    runs chunk by chunk through one scratch buffer of at most
    ``_SILU_CHUNK_BYTES``; each element sees the float ops it would see on
    the whole array, so neither the destination nor the chunking changes a
    bit of the result.
    """
    half = 0.5 if silu else 1.0
    np.multiply(x, scale * half, out=out)
    out += shift * half
    if silu:
        flat = out.reshape(-1)
        step = max(1, _SILU_CHUNK_BYTES // out.itemsize)
        scratch = np.empty(min(step, flat.size), out.dtype)
        for i in range(0, flat.size, step):
            chunk = flat[i:i + step]
            t = np.tanh(chunk, out=scratch[:chunk.size])
            t += 1.0
            chunk *= t
    return out


def batchnorm2d(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState,
                training: bool, momentum: float = 0.1,
                silu: bool = False) -> Tensor:
    """Per-channel batch normalization over (N, H, W), optionally then SiLU.

    Train mode normalizes with biased batch statistics and updates the running
    stats in place; eval mode uses the stored running stats.

    ``silu=True`` returns ``silu(batchnorm2d(...))`` as one node that keeps
    only ``x``: backward recomputes the normalized map and its sigmoid, one
    channel block at a time, with the forward's float ops.  Output, gradients
    and running stats equal the two-op chain bit for bit, while the tape
    holds two fewer full-size arrays and backward one fewer.

    An ``x`` marked by :func:`handover` receives the output in its own
    buffer.  The tape can rebuild the output (see :func:`release`).
    """
    if x.ndim != 4:
        raise ShapeError(f"batchnorm2d: input must be 4-D NCHW, got rank {x.ndim}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"batchnorm2d: affine params must have shape ({c},), got "
            f"{tuple(gamma.shape)} / {tuple(beta.shape)}")
    axes = (0, 2, 3)
    m = x.shape[0] * x.shape[2] * x.shape[3]
    if training:
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        state.mean = ((1.0 - momentum) * state.mean + momentum * mean).astype(
            state.mean.dtype, copy=False)
        state.var = ((1.0 - momentum) * state.var + momentum * var).astype(
            state.var.dtype, copy=False)
    else:
        mean = state.mean.astype(x.data.dtype, copy=False)
        var = state.var.astype(x.data.dtype, copy=False)
    invstd = 1.0 / np.sqrt(var + NORM_EPS)
    scale = (gamma.data * invstd).reshape(1, c, 1, 1)
    shift = beta.data.reshape(1, c, 1, 1) - mean.reshape(1, c, 1, 1) * scale

    dtype = np.result_type(x.data, scale)
    into_x = isinstance(x, _Handover) and x.data.dtype == dtype

    def rebuild():
        return _affine_silu(x.data, scale, shift, silu, np.empty(x.shape, dtype))

    out = Tensor(_affine_silu(x.data, scale, shift, silu, x.data) if into_x
                 else rebuild())

    def bn_bw(g):
        sum_g = g.sum(axis=axes)
        sum_g_xhat = xhat = None
        if gamma.requires_grad or (training and x.requires_grad):
            xhat = x.data - mean.reshape(1, c, 1, 1)
            xhat *= invstd.reshape(1, c, 1, 1)
            sum_g_xhat = np.einsum("nchw,nchw->c", g, xhat)
        gx = None
        if x.requires_grad:
            if training:
                # gradient through the batch statistics, built in xhat's buffer:
                # gamma*invstd * (g - mean(g) - xhat * mean(g*xhat))
                gx = xhat
                gx *= -(sum_g_xhat / m).reshape(1, c, 1, 1)
                gx += g
                gx -= (sum_g / m).reshape(1, c, 1, 1)
                gx *= scale
            elif xhat is not None and xhat.dtype == np.result_type(g, scale):
                gx = np.multiply(g, scale, out=xhat)   # the einsum has read it
            else:
                gx = g * scale
        ggamma = sum_g_xhat if gamma.requires_grad else None
        gbeta = sum_g if beta.requires_grad else None
        return gx, ggamma, gbeta

    def silu_bn_bw(g):
        # the normalized map and its sigmoid exist one channel block at a
        # time, in scratch of _SILU_CHUNK_BYTES: gz is the only full-size
        # array until BN backward allocates xhat
        n, _, h, w = x.shape
        mb, blocks = _channel_blocks(n, c, 2 * h * w * dtype.itemsize,
                                     _SILU_CHUNK_BYTES)
        z_buf, s_buf = (np.empty(n * mb * h * w, dtype) for _ in range(2))
        gz = np.empty(x.shape, dtype)
        for cb in blocks:
            mb = cb.stop - cb.start
            z = _affine_silu(x.data[:, cb], scale[:, cb], shift[:, cb], False,
                             _block_view(z_buf, n, mb, h, w))
            s = _stable_sigmoid(z, _block_view(s_buf, n, mb, h, w))
            _silu_grad(g[:, cb], z, s, out=gz[:, cb])
        return bn_bw(gz)

    return _record("batchnorm2d", out, (x, gamma, beta),
                   silu_bn_bw if silu else bn_bw, rebuild)


# ---------------------------------------------------------------------------
# Resampling and pooling
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _upsample_matrix(size: int, scale: int, dtype) -> np.ndarray:
    """Dense [scale*size, size] bilinear interpolation matrix.

    Half-pixel centers (align_corners=False) with edge clamping.  Cached: one
    forward at one resolution asks for at most ten matrices per dtype.
    """
    out_size = size * scale
    mat = np.zeros((out_size, size), dtype=dtype)
    for j in range(out_size):
        src = (j + 0.5) / scale - 0.5
        src = min(max(src, 0.0), size - 1.0)
        i0 = int(np.floor(src))
        i1 = min(i0 + 1, size - 1)
        t = src - i0
        mat[j, i0] += 1.0 - t
        mat[j, i1] += t
    return mat


def upsample_bilinear(x: Tensor, scale: int = 2) -> Tensor:
    """Bilinear upsampling with half-pixel centers and edge clamping: the
    interpolation matrices times ``x``, rows then columns, as two matmuls."""
    if x.ndim != 4:
        raise ShapeError("upsample_bilinear: input must be 4-D NCHW")
    if scale < 1:
        raise ShapeError(f"upsample_bilinear: scale must be >= 1, got {scale}")
    ah = _upsample_matrix(x.shape[2], scale, x.data.dtype)
    aw = _upsample_matrix(x.shape[3], scale, x.data.dtype)
    return matmul(matmul(Tensor(ah), x), Tensor(aw.T))


def pad_edge(x: Tensor, p: int) -> Tensor:
    """Pad H and W of an NCHW map by ``p`` copies of its edge rows/columns.

    Valid for any ``p >= 0``, also one larger than the map.  The gradient of
    each padded border is summed back onto the edge row or column it copies.
    """
    if x.ndim != 4:
        raise ShapeError("pad_edge: input must be 4-D NCHW")
    if p < 0:
        raise ShapeError(f"pad_edge: pad must be >= 0, got {p}")
    h, w = x.shape[2], x.shape[3]
    out = Tensor(np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p)), mode="edge"))

    def bw(g):
        rows = g[:, :, p:p + h, :].copy()
        rows[:, :, 0, :] += g[:, :, :p, :].sum(axis=2)
        rows[:, :, -1, :] += g[:, :, p + h:, :].sum(axis=2)
        gx = rows[:, :, :, p:p + w].copy()
        gx[:, :, :, 0] += rows[:, :, :, :p].sum(axis=3)
        gx[:, :, :, -1] += rows[:, :, :, p + w:].sum(axis=3)
        return (gx,)

    return _record("pad_edge", out, (x,), bw)
