"""Dense float tensors with a reverse-mode tape.

The autodiff granularity is coarse: each primitive (matmul, softmax,
layer_norm, conv2d_same, ...) records one tape entry holding a closure that
maps the output gradient to input gradients. Recording happens only while a
:class:`Graph` is active (``with Graph() as g: ...``), so plain calls outside
a graph are tape-free inference.

Storage is float32 by default. ``using_dtype(np.float64)`` switches new
tensors to float64; it exists for numerical verification (finite-difference
gradient checks need more headroom than float32 offers) and is not used by
the training stack.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Tensor",
    "Graph",
    "GraphReuseError",
    "ShapeError",
    "tensor",
    "using_dtype",
    "default_dtype",
    "backward",
    "matmul",
    "add",
    "sub",
    "mul",
    "scale",
    "neg",
    "reshape",
    "transpose",
    "sum_",
    "mean_",
    "softmax",
    "log_softmax",
    "layer_norm",
    "conv2d_same",
    "gelu",
    "relu",
    "sin",
    "finite_diff_check",
    "GradCheckReport",
]

_DEFAULT_DTYPE = np.float32


def default_dtype():
    return _DEFAULT_DTYPE


@contextmanager
def using_dtype(dtype):
    """Temporarily change the dtype used for newly created tensors."""
    global _DEFAULT_DTYPE
    prev = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = np.dtype(dtype).type
    try:
        yield
    finally:
        _DEFAULT_DTYPE = prev


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class GraphReuseError(RuntimeError):
    """A graph was asked to backward twice without re-recording."""


class Tensor:
    """A dense n-dimensional float array, optionally tracked for gradients.

    Invariants: ``data`` is contiguous row-major; ``grad`` is either None or
    an array of identical shape; finite values in, finite values out for
    every forward op.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.ascontiguousarray(np.asarray(data, dtype=dtype or _DEFAULT_DTYPE))
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False, dtype=self.data.dtype)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Small amount of operator sugar; everything routes through the module ops.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return neg(self)


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


# --------------------------------------------------------------------------
# Tape


class Graph:
    """Ordered record of executed differentiable ops.

    Ops append themselves in execution order, so the record is topologically
    sorted by construction: every operand precedes its result. One backward
    pass per recording; a second backward without re-recording raises
    :class:`GraphReuseError`.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], object]] = []
        self._consumed = False

    def __enter__(self) -> "Graph":
        _GRAPH_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _GRAPH_STACK.pop()
        assert popped is self

    def __len__(self) -> int:
        return len(self._nodes)


_GRAPH_STACK: list[Graph] = []


def _active_graph() -> Graph | None:
    return _GRAPH_STACK[-1] if _GRAPH_STACK else None


def record(out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Attach ``out = op(inputs)`` to the active graph, if any.

    ``backward_fn(out_grad)`` must return one gradient array (or None) per
    input, in order. Exposed so layers outside this module can define fused
    primitives on the same tape.
    """
    g = _active_graph()
    if g is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        g._nodes.append((out, inputs, backward_fn))
    return out


def backward(loss: Tensor, graph: Graph, params=None, free_intermediates: bool = False) -> None:
    """Populate ``grad`` on every requires_grad tensor reachable from ``loss``.

    Accumulation over fan-out is additive. ``params``, when given, is an
    iterable of tensors whose grads are zero-filled if they were untouched
    (disconnected parameters read as zero gradient rather than None).
    ``free_intermediates`` drops intermediate gradients as soon as they have
    been consumed, which bounds peak memory during training.
    """
    if loss.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    if graph._consumed:
        raise GraphReuseError("graph already consumed by a previous backward; re-record the forward pass")
    graph._consumed = True

    loss.grad = np.ones_like(loss.data)
    nodes = graph._nodes
    for i in range(len(nodes) - 1, -1, -1):
        out, inputs, backward_fn = nodes[i]
        if out.grad is not None:  # otherwise a side branch that never reached the loss
            grads = backward_fn(out.grad)
            for t, g in zip(inputs, grads):
                if g is None or not t.requires_grad:
                    continue
                if g.dtype != t.data.dtype:
                    g = g.astype(t.data.dtype)
                t.grad = g if t.grad is None else t.grad + g
            if free_intermediates and out is not loss:
                out.grad = None
        if free_intermediates:
            nodes[i] = None  # release the closure and its captured buffers

    if params is not None:
        for p in params:
            if p.requires_grad and p.grad is None:
                p.grad = np.zeros_like(p.data)


# --------------------------------------------------------------------------
# Broadcasting helper


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a gradient back to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# --------------------------------------------------------------------------
# Elementwise / structural ops


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return record(out, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)
    return record(out, (a,), lambda g: (-g,))


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return record(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)

    def bwd(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return record(out, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    out = Tensor(a.data * c)
    return record(out, (a,), lambda g: (g * c,))


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    return record(out, (a,), lambda g: (g.reshape(a.shape),))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = Tensor(a.data.transpose(axes))
    return record(out, (a,), lambda g: (g.transpose(inv),))


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return record(out, (a,), bwd)


def mean_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.size if axis is None else a.shape[axis]
    out = Tensor(a.data.mean(axis=axis, keepdims=keepdims))

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape) / n,)

    return record(out, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0))
    return record(out, (a,), lambda g: (g * (a.data > 0),))


def sin(a: Tensor) -> Tensor:
    out = Tensor(np.sin(a.data))
    return record(out, (a,), lambda g: (g * np.cos(a.data),))


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a: Tensor) -> Tensor:
    """Smooth GELU (tanh form): 0.5 x (1 + tanh(c (x + 0.044715 x^3)))."""
    x = a.data
    x2 = x * x
    inner = x2 * x
    inner *= 0.044715
    inner += x
    inner *= _GELU_C
    t = np.tanh(inner)
    out = Tensor(0.5 * x * (1.0 + t))

    def bwd(g):
        dinner = x2 * (3 * 0.044715)
        dinner += 1.0
        dinner *= _GELU_C
        dx = 1.0 - t * t
        dx *= dinner
        dx *= 0.5 * x
        dx += 0.5 * (1.0 + t)
        dx *= g
        return (dx,)

    return record(out, (a,), bwd)


# --------------------------------------------------------------------------
# matmul


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product, 2-D operands or stacked operands with equal leading dims."""
    A, B = a.data, b.data
    if A.ndim < 2 or B.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {A.shape} @ {B.shape}")
    if A.shape[-1] != B.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {A.shape} @ {B.shape}")
    if A.shape[:-2] != B.shape[:-2]:
        raise ShapeError(f"matmul leading dims differ: {A.shape} @ {B.shape}")
    out = Tensor(A @ B)

    def bwd(g):
        da = g @ B.swapaxes(-1, -2) if a.requires_grad else None
        db = A.swapaxes(-1, -2) @ g if b.requires_grad else None
        return da, db

    return record(out, (a, b), bwd)


# --------------------------------------------------------------------------
# softmax / log-softmax


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax (max-subtraction) along ``axis``."""
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {a.shape}")
    p = a.data - a.data.max(axis=axis, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=axis, keepdims=True)
    out = Tensor(p)

    def bwd(g):
        dx = g - (g * p).sum(axis=axis, keepdims=True)
        dx *= p
        return (dx,)

    return record(out, (a,), bwd)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    z = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
    ls = z - lse
    out = Tensor(ls)

    def bwd(g):
        p = np.exp(ls)
        return (g - p * g.sum(axis=axis, keepdims=True),)

    return record(out, (a,), bwd)


# --------------------------------------------------------------------------
# layer norm


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-token normalization over the last axis, then affine transform."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm affine params must have shape ({d},)")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(xhat * gamma.data + beta.data)

    def bwd(g):
        reduce_axes = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=reduce_axes)
        dbeta = g.sum(axis=reduce_axes)
        gx = g * gamma.data
        dx = inv * (gx - gx.mean(axis=-1, keepdims=True) - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
        return dx, dgamma, dbeta

    return record(out, (x, gamma, beta), bwd)


# --------------------------------------------------------------------------
# conv2d, same padding


def conv2d_same(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """2-D convolution over a token lattice, stride 1, zero 'same' padding.

    ``x`` is [batch, h, w, c_in], ``kernel`` is [K, K, c_in, c_out] with K odd,
    ``bias`` is [c_out]. Taps accumulate in row-major order over the receptive
    field with the channel contraction innermost, so the summation order is
    fixed and documented.
    """
    K = kernel.shape[0]
    if kernel.ndim != 4 or kernel.shape[1] != K:
        raise ShapeError(f"kernel must be [K, K, c_in, c_out], got {kernel.shape}")
    if K % 2 == 0:
        raise ShapeError(f"kernel size must be odd, got K={K}")
    if x.ndim != 4 or x.shape[-1] != kernel.shape[2]:
        raise ShapeError(f"input {x.shape} incompatible with kernel {kernel.shape}")
    if bias.shape != (kernel.shape[3],):
        raise ShapeError(f"bias must have shape ({kernel.shape[3]},)")

    b, h, w, _ = x.shape
    pk = K // 2
    xp = np.pad(x.data, ((0, 0), (pk, pk), (pk, pk), (0, 0)))
    out_data = np.tile(bias.data, (b, h, w, 1)).astype(x.data.dtype)
    for i in range(K):
        for j in range(K):
            out_data += xp[:, i : i + h, j : j + w, :] @ kernel.data[i, j]
    out = Tensor(out_data)

    def bwd(g):
        dk = np.empty_like(kernel.data)
        dxp = np.zeros_like(xp)
        for i in range(K):
            for j in range(K):
                patch = xp[:, i : i + h, j : j + w, :]
                dk[i, j] = np.tensordot(patch, g, axes=([0, 1, 2], [0, 1, 2]))
                dxp[:, i : i + h, j : j + w, :] += g @ kernel.data[i, j].T
        dx = dxp[:, pk : pk + h, pk : pk + w, :]
        dbias = g.sum(axis=(0, 1, 2))
        return dx, dk, dbias

    return record(out, (x, kernel, bias), bwd)


# --------------------------------------------------------------------------
# Finite-difference gradient checking


@dataclass
class GradCheckReport:
    """Result of comparing analytic gradients against central differences.

    ``kinks`` lists flat indices where one-sided differences disagree (a
    non-differentiable point under the probe); those entries are excluded
    from ``max_rel_err`` and the pass verdict.
    """

    max_rel_err: float
    n_checked: int
    tol: float
    kinks: list[int] = field(default_factory=list)
    worst_index: int | None = None

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def finite_diff_check(f, x: Tensor, step: float = 1e-3, tol: float = 1e-3, indices=None) -> GradCheckReport:
    """Check the analytic gradient of scalar ``f(x)`` against central differences.

    ``f`` must be deterministic. ``indices`` restricts the check to a subset
    of flat entries of ``x`` (all entries by default). Relative error per
    entry is |a - n| / max(|a|, |n|, 1e-8).
    """
    x.requires_grad = True
    x.zero_grad()
    g = Graph()
    with g:
        y = f(x)
    backward(y, g, params=[x])
    analytic = x.grad.reshape(-1).copy()

    flat = x.data.reshape(-1)
    if indices is None:
        indices = range(flat.size)

    def eval_at(i, v):
        old = flat[i]
        flat[i] = v
        out = f(x).item()
        flat[i] = old
        return out

    max_rel = 0.0
    worst = None
    kinks: list[int] = []
    n_checked = 0
    for i in indices:
        x0 = float(flat[i])
        fp = eval_at(i, x0 + step)
        fm = eval_at(i, x0 - step)
        f0 = eval_at(i, x0)
        fwd = (fp - f0) / step
        bwdiff = (f0 - fm) / step
        if abs(fwd - bwdiff) > 0.1 * max(1.0, abs(fwd), abs(bwdiff)):
            kinks.append(int(i))
            continue
        numeric = (fp - fm) / (2 * step)
        a = float(analytic[i])
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        n_checked += 1
        if rel > max_rel:
            max_rel, worst = rel, int(i)
    return GradCheckReport(max_rel_err=max_rel, n_checked=n_checked, tol=tol, kinks=kinks, worst_index=worst)
