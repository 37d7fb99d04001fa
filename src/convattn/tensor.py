"""Dense float tensors with a reverse-mode tape.

The autodiff granularity is coarse: each primitive (matmul, layer_norm,
conv2d_same, gelu, ...) records one tape entry holding a closure that
maps the output gradient to input gradients. Recording happens only while a
:class:`Graph` is active (``with Graph() as g: ...``), so plain calls outside
a graph are tape-free inference. The open graphs and the default dtype are
held per context, so each thread sees only its own, and :func:`backward`
accumulates into a gradient map it owns and returns, so threads may run
backward over shared parameters at once.

Storage is float32 by default. ``using_dtype(np.float64)`` switches new
tensors to float64; it exists for numerical verification (finite-difference
gradient checks need more headroom than float32 offers) and is not used by
the training stack.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import Context, ContextVar, copy_context
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Tensor",
    "Graph",
    "GraphReuseError",
    "ShapeError",
    "using_dtype",
    "default_dtype",
    "backward",
    "tape_free_context",
    "matmul",
    "add",
    "reshape",
    "transpose",
    "mean_",
    "layer_norm",
    "conv2d_same",
    "gelu",
    "finite_diff_check",
    "GradCheckReport",
]

# Per context (each thread has its own), so a dtype switch in one thread
# leaves tensors created by another alone.
_DEFAULT_DTYPE: ContextVar[type] = ContextVar("convattn_default_dtype", default=np.float32)


def default_dtype():
    return _DEFAULT_DTYPE.get()


@contextmanager
def using_dtype(dtype):
    """Temporarily change the dtype used for newly created tensors, in the
    current context only."""
    token = _DEFAULT_DTYPE.set(np.dtype(dtype).type)
    try:
        yield
    finally:
        _DEFAULT_DTYPE.reset(token)


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
        self.data = np.ascontiguousarray(np.asarray(data, dtype=dtype or _DEFAULT_DTYPE.get()))
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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


# --------------------------------------------------------------------------
# Tape


class Graph:
    """Ordered record of executed differentiable ops.

    Ops append themselves in execution order, so the record is topologically
    sorted by construction: every operand precedes its result. One backward
    pass per recording; a second backward without re-recording raises
    :class:`GraphReuseError`. The stack of open graphs is per context: ops in
    one thread never record onto a graph another thread holds open.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], object]] = []
        self._consumed = False

    def __enter__(self) -> "Graph":
        _GRAPH_STACK.set(_GRAPH_STACK.get() + (self,))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = _GRAPH_STACK.get()
        assert stack and stack[-1] is self
        _GRAPH_STACK.set(stack[:-1])

    def __len__(self) -> int:
        return len(self._nodes)


_GRAPH_STACK: ContextVar[tuple[Graph, ...]] = ContextVar("convattn_graph_stack", default=())


def _active_graph() -> Graph | None:
    stack = _GRAPH_STACK.get()
    return stack[-1] if stack else None


def recording(inputs: tuple[Tensor, ...]) -> bool:
    """Whether :func:`record` would put an op over ``inputs`` on a tape."""
    return _active_graph() is not None and any(t.requires_grad for t in inputs)


def record(out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Attach ``out = op(inputs)`` to the active graph, if any.

    ``backward_fn(out_grad)`` must return one gradient array (or None) per
    input, in order. Exposed so layers outside this module can define fused
    primitives on the same tape.
    """
    if recording(inputs):
        out.requires_grad = True
        _active_graph()._nodes.append((out, inputs, backward_fn))
    return out


def backward(loss: Tensor, graph: Graph, params=None,
             free_intermediates: bool = False) -> dict[Tensor, np.ndarray]:
    """Gradients of scalar ``loss`` with respect to the graph's leaves.

    The accumulators live in a map owned by this call, keyed by tensor;
    accumulation over fan-out is additive. Each node's output gradient is
    dropped once the node has consumed it, so the returned map holds the
    leaves only: the parameters and any input that requires grad. Nothing
    shared is written, so two graphs over the same parameters can run
    backward at once on two threads.

    ``params`` is the single-graph convenience: each of these tensors gets
    its gradient added to ``grad`` (zero-filled when untouched, so a
    disconnected parameter reads as zero rather than None). It is kept only
    because the benchmark's ``sweep`` (``perfbench/child.py``) still calls it.
    ``free_intermediates`` releases each node's closure and captured
    buffers as soon as it has run, which bounds peak memory in training.
    """
    if loss.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    if graph._consumed:
        raise GraphReuseError("graph already consumed by a previous backward; re-record the forward pass")
    graph._consumed = True

    grads = {loss: np.ones_like(loss.data)}
    nodes = graph._nodes
    for i in range(len(nodes) - 1, -1, -1):
        out, inputs, backward_fn = nodes[i]
        out_grad = grads.pop(out, None)
        if out_grad is not None:  # otherwise a side branch that never reached the loss
            for t, g in zip(inputs, backward_fn(out_grad)):
                if g is None or not t.requires_grad:
                    continue
                if g.dtype != t.data.dtype:
                    g = g.astype(t.data.dtype)
                acc = grads.get(t)
                grads[t] = g if acc is None else acc + g
        if free_intermediates:
            nodes[i] = None  # release the closure and its captured buffers

    if params is not None:
        for p in params:
            if p.requires_grad:
                g = grads.get(p)
                if g is None:
                    g = np.zeros_like(p.data)
                p.grad = g if p.grad is None else p.grad + g
    return grads


def tape_free_context() -> Context:
    """A copy of the current context with no graph open.

    Work run in it (``ctx.run(fn)``, on any thread) sees the caller's
    ``using_dtype`` setting but records onto no graph the caller holds
    open. One copy serves one run at a time.
    """
    ctx = copy_context()
    ctx.run(_GRAPH_STACK.set, ())
    return ctx


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


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    return record(out, (a,), lambda g: (g.reshape(a.shape),))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = Tensor(a.data.transpose(axes))
    return record(out, (a,), lambda g: (g.transpose(inv),))


def mean_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.size if axis is None else a.shape[axis]
    out = Tensor(a.data.mean(axis=axis, keepdims=keepdims))

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape) / n,)

    return record(out, (a,), bwd)


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
    g = Graph()
    with g:
        y = f(x)
    analytic = backward(y, g).get(x, np.zeros_like(x.data)).reshape(-1)

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
