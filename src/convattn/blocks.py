"""Token-mixing blocks: patch embedding, conv mixer, relative-bias MHSA, MLP.

Both mixers share the residual block skeleton
    z' = Mixer(LN(z)) + z
    z  = MLP(LN(z')) + z'
and take and return token maps: [batch, h_t, w_t, d] tensors whose middle
axes are the 2-D token lattice. Both attention mixers carry a relative
positional bias table. Fresh attention adds q/k logits; a convolution
rewritten as attention has none: its attention is one softmax over each
head's table, whose entries are all (2h-1)(2w-1) offsets a query can see.
A query reads the N that land on the grid; the mass of the rest, off the
grid, mixes nothing, which is what makes a reparameterized convolution match
zero padding on border tokens.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import tensor as tt
from .runtime import run_shards, shard_slices
from .schedule import CONV, SA
from .tensor import ShapeError, Tensor, record

__all__ = [
    "PatchEmbed",
    "ConvMixer",
    "AttnMixer",
    "PositionalMixer",
    "Mlp",
    "HybridBlock",
    "Model",
    "patch_embed_forward",
    "conv_mixer_forward",
    "mhsa_forward",
    "block_forward",
    "model_forward",
    "model_forward_features",
    "build_model",
]


# --------------------------------------------------------------------------
# Patch embedding


class PatchEmbed:
    """Non-overlapping PxP patches, flattened and linearly projected to d.

    Patch vectors are laid out row-major within the patch with the image
    channel innermost. The absolute position table is optional and off by
    default; the conv phase encodes position through locality and the
    attention phase through the relative bias.
    """

    def __init__(self, patch_size: int, in_channels: int, dim: int, grid_hw: tuple[int, int],
                 rng: np.random.Generator, use_abs_pos: bool = False):
        self.patch_size = patch_size
        self.in_channels = in_channels
        self.dim = dim
        self.grid_hw = grid_hw
        self.use_abs_pos = use_abs_pos
        p2c = patch_size * patch_size * in_channels
        self.projection = Tensor(rng.normal(0.0, 0.02, size=(p2c, dim)), requires_grad=True)
        n = grid_hw[0] * grid_hw[1]
        self.pos_table = Tensor(rng.normal(0.0, 0.02, size=(n, dim)), requires_grad=True) if use_abs_pos else None

    def named_parameters(self):
        yield "projection", self.projection
        if self.use_abs_pos:
            yield "pos_table", self.pos_table


def patch_embed_forward(image: Tensor, pe: PatchEmbed) -> Tensor:
    """Embed a [batch, H, W, C] image batch into [batch, h_t, w_t, d] token maps."""
    b, h, w, c = image.shape
    p = pe.patch_size
    if h % p or w % p:
        raise ShapeError(f"image extent {h}x{w} not divisible by patch size {p}")
    if c != pe.in_channels:
        raise ShapeError(f"image has {c} channels, embedding expects {pe.in_channels}")
    ht, wt = h // p, w // p
    if (ht, wt) != pe.grid_hw:
        raise ShapeError(f"image implies a {ht}x{wt} grid, embedding was built for {pe.grid_hw}")
    x = tt.reshape(image, (b, ht, p, wt, p, c))
    x = tt.transpose(x, (0, 1, 3, 2, 4, 5))
    x = tt.reshape(x, (b * ht * wt, p * p * c))
    tokens = tt.reshape(tt.matmul(x, pe.projection), (b, ht, wt, pe.dim))
    if pe.use_abs_pos:
        tokens = tt.add(tokens, tt.reshape(pe.pos_table, (ht, wt, pe.dim)))
    return tokens


# --------------------------------------------------------------------------
# Conv mixer


class ConvMixer:
    """KxK convolution token mixer; K odd, K^2 spatial taps."""

    def __init__(self, kernel: Tensor, bias: Tensor):
        if kernel.ndim != 4 or kernel.shape[0] != kernel.shape[1]:
            raise ShapeError(f"conv kernel must be [K, K, d, d], got {kernel.shape}")
        if kernel.shape[0] % 2 == 0:
            raise ShapeError(f"kernel size must be odd, got K={kernel.shape[0]}")
        self.kernel = kernel
        self.bias = bias

    @property
    def kernel_size(self) -> int:
        return self.kernel.shape[0]

    @property
    def dim(self) -> int:
        return self.kernel.shape[2]

    @staticmethod
    def init(kernel_size: int, dim: int, rng: np.random.Generator) -> "ConvMixer":
        k = Tensor(rng.normal(0.0, 0.02, size=(kernel_size, kernel_size, dim, dim)), requires_grad=True)
        b = Tensor(np.zeros(dim), requires_grad=True)
        return ConvMixer(k, b)

    def named_parameters(self):
        yield "kernel", self.kernel
        yield "bias", self.bias


def conv_mixer_forward(x: Tensor, m: ConvMixer) -> Tensor:
    if x.ndim != 4 or x.shape[3] != m.dim:
        raise ShapeError(f"token maps {x.shape} are not [batch, h_t, w_t, {m.dim}]")
    return tt.conv2d_same(x, m.kernel, m.bias)


# --------------------------------------------------------------------------
# Relative-bias geometry

# Cached per lattice: the flat relative-offset index for every (key, query)
# pair, key-major like the probabilities. Every caller shares the cached
# array, so it is read-only.


@lru_cache(maxsize=32)
def _rel_geometry(h_t: int, w_t: int) -> np.ndarray:
    """idx [N_keys, N_queries] into the R = (2h-1)(2w-1) table offsets:
    each query reads N of them, one per key, and the other R - N step off
    the grid."""
    n = h_t * w_t
    rows, cols = np.divmod(np.arange(n), w_t)
    drow = rows[:, None] - rows[None, :]  # key minus query
    dcol = cols[:, None] - cols[None, :]
    idx = (drow + h_t - 1) * (2 * w_t - 1) + (dcol + w_t - 1)
    idx.setflags(write=False)
    return idx


def _bias_logits(b_rel: np.ndarray, h_t: int, w_t: int) -> np.ndarray:
    """Expand a [H, 2h-1, 2w-1] table into grid [H, N_keys, N_queries]:
    B[h, k, q] = table entry at the key-minus-query offset, so equal
    relative offsets always read the same entry. The positional path
    expands its table's probabilities the same way."""
    heads = b_rel.shape[0]
    if b_rel.shape[1] != 2 * h_t - 1 or b_rel.shape[2] != 2 * w_t - 1:
        raise ShapeError(f"bias table {b_rel.shape} does not match lattice {h_t}x{w_t}")
    # contiguous; flat[:, idx] would put the heads innermost
    return np.take(b_rel.reshape(heads, -1), _rel_geometry(h_t, w_t), axis=1)


def _table_grad(grid_grad: np.ndarray, b_rel: np.ndarray) -> np.ndarray:
    """Gradient of the [H, 2h-1, 2w-1] table from the batch-summed
    key-major grid gradient [H, N_keys, N_queries]: every grid entry lands
    on its offset's table entry, all heads in one pass over the index."""
    heads, rows, cols = b_rel.shape
    idx = _rel_geometry((rows + 1) // 2, (cols + 1) // 2)
    r = rows * cols
    bins = (np.arange(heads)[:, None] * r + idx.reshape(1, -1)).reshape(-1)
    d_flat = np.bincount(bins, weights=grid_grad.reshape(-1).astype(np.float64), minlength=heads * r)
    return d_flat.reshape(b_rel.shape).astype(b_rel.dtype)


# Probabilities are key-major, [.., N_keys, N_queries], so the softmax's max
# and sum run over axis -2, across contiguous rows.


# A sample whose logits lie within this bound of zero is not shifted: each
# exponent is a normal float32 and the sum finite.
_NARROW_RANGE = 64.0


def _softmax_shift(p: np.ndarray) -> np.ndarray | None:
    """Each query column's shift, or None if no sample needs one: 0 in a
    sample within _NARROW_RANGE, else the column's maximum (a +100 spike, a
    wide or non-finite range). It depends on the sample's own logits alone,
    not on the batch it is sliced with."""
    inside = (p.min(axis=(1, 2, 3)) >= -_NARROW_RANGE) & (p.max(axis=(1, 2, 3)) <= _NARROW_RANGE)
    if inside.all():
        return None
    m = p.max(axis=-2)
    m[inside] = 0.0
    return m


def _exp_shifted(p: np.ndarray, shift: np.ndarray | None):
    """exp(p - shift) in place, the shift broadcast over the keys. A logit
    gap below log(tiny) of the buffer's dtype would exponentiate to a
    subnormal; it is flushed to -inf so its probability is an exact zero.
    After a switch at beta=100 that is nearly the whole column, and
    subnormal arithmetic is many times slower than normal arithmetic. Only
    a column's own shift can leave such a gap: with no shift, exp(p)."""
    if shift is not None:
        p -= shift[..., None, :]
        floor = np.log(np.finfo(p.dtype).tiny)
        if np.min(p, initial=0.0) < floor:
            np.copyto(p, -np.inf, where=p < floor)
    np.exp(p, out=p)


def attn_probs_inplace(p: np.ndarray, grid: np.ndarray, pad: None):
    """Turn key-major raw scores into probabilities in place; returns the
    shift and the column totals.

    ``p`` is [B, G, N_keys, Q] and ``grid`` the bias [G, N_keys, Q]: one
    column per head over its whole table on the positional path, one group
    of (head, query) columns on the general path. ``pad`` is always None.
    The logits are shifted by :func:`_softmax_shift` and exponentiated by
    :func:`_exp_shifted`. The shift and the totals [B, G, Q] are the
    statistics from which :func:`attn_probs_again` rebuilds the same
    probabilities, bitwise.
    """
    p += grid
    shift = _softmax_shift(p)
    _exp_shifted(p, shift)
    total = np.einsum("...kq->...q", p)  # bitwise p.sum(axis=-2) on [keys, queries] blocks, in under half its time
    p /= total[..., None, :]
    return shift, total


def attn_probs_again(p: np.ndarray, grid: np.ndarray, shift: np.ndarray, total: np.ndarray):
    """:func:`attn_probs_inplace`'s probabilities again, in place, from the
    same raw scores and the shift and totals it returned: the same
    arithmetic without its reductions."""
    p += grid
    _exp_shifted(p, shift)
    p /= total[..., None, :]


def attn_softmax_backward(p: np.ndarray, dp: np.ndarray):
    """Softmax-input gradient in place on the key-major ``dp``."""
    dot = np.einsum("bhkq,bhkq->bhq", p, dp)
    dp -= dot[..., None, :]
    dp *= p


# --------------------------------------------------------------------------
# Attention mixer


class _Heads:
    """What both attention mixers hold, checked once: w_v [H, d, d_h], w_o
    [H, d_h, d], b_rel [H, 2*h_t-1, 2*w_t-1] and the output bias."""

    def __init__(self, w_v: Tensor, w_o: Tensor, b_rel: Tensor, out_bias: Tensor, grid_hw: tuple[int, int]):
        heads, d, d_h = w_v.shape
        if w_o.shape != (heads, d_h, d):
            raise ShapeError(f"w_o must be [H, d_h, d], got {w_o.shape}")
        h_t, w_t = grid_hw
        if b_rel.shape != (heads, 2 * h_t - 1, 2 * w_t - 1):
            raise ShapeError(f"b_rel {b_rel.shape} does not match {heads} heads on a {h_t}x{w_t} grid")
        self.w_v, self.w_o, self.b_rel, self.out_bias, self.grid_hw = w_v, w_o, b_rel, out_bias, grid_hw

    @property
    def n_heads(self) -> int:
        return self.w_v.shape[0]

    @property
    def dim(self) -> int:
        return self.w_v.shape[1]

    @property
    def d_head(self) -> int:
        return self.w_v.shape[2]

    def named_parameters(self):
        yield "w_v", self.w_v
        yield "w_o", self.w_o
        yield "b_rel", self.b_rel
        yield "out_bias", self.out_bias


class AttnMixer(_Heads):
    """Fresh multi-head self-attention: q/k logits ([H, d, d_h] w_q and w_k)
    plus the bias table. The scale divisor is sqrt(d) (the
    token width, not the head width)."""

    def __init__(self, w_q: Tensor, w_k: Tensor, w_v: Tensor, w_o: Tensor,
                 b_rel: Tensor, out_bias: Tensor, grid_hw: tuple[int, int]):
        if w_q.shape != w_v.shape or w_k.shape != w_v.shape:
            raise ShapeError("w_q/w_k/w_v shapes disagree")
        super().__init__(w_v, w_o, b_rel, out_bias, grid_hw)
        self.w_q, self.w_k = w_q, w_k

    @staticmethod
    def init(dim: int, n_heads: int, d_head: int, grid_hw: tuple[int, int],
             rng: np.random.Generator) -> "AttnMixer":
        """Fresh trainable attention (zero bias table, no conv ancestry)."""
        def w(*shape):
            return Tensor(rng.normal(0.0, 0.02, size=shape), requires_grad=True)

        h_t, w_t = grid_hw
        return AttnMixer(
            w(n_heads, dim, d_head), w(n_heads, dim, d_head), w(n_heads, dim, d_head),
            w(n_heads, d_head, dim),
            Tensor(np.zeros((n_heads, 2 * h_t - 1, 2 * w_t - 1)), requires_grad=True),
            Tensor(np.zeros(dim), requires_grad=True), grid_hw,
        )

    def named_parameters(self):
        yield "w_q", self.w_q
        yield "w_k", self.w_k
        yield from super().named_parameters()


class PositionalMixer(_Heads):
    """Attention whose logits are the bias table alone, with no q or k: a
    convolution as :func:`convattn.reparam.reparameterize` rewrites it.
    :func:`_positional_mix` is its forward; at the switch W_v,h = I, so its
    folded M_h = W_v,h W_o,h is the conv tap itself."""


def _attn_scale(d: int) -> float:
    """1/sqrt(d) as a Python float, so it keeps float32 scores float32 (a
    numpy float64 scalar would promote them and every probability buffer)."""
    return 1.0 / math.sqrt(d)


def _check_attn_input(x: Tensor, a: _Heads) -> None:
    if x.ndim != 4:
        raise ShapeError(f"token maps must be [batch, h_t, w_t, d], got {x.shape}")
    if x.shape[1:3] != a.grid_hw:
        raise ShapeError(f"lattice {x.shape[1]}x{x.shape[2]} does not match mixer geometry {a.grid_hw}")
    if x.shape[3] != a.dim:
        raise ShapeError(f"token channels {x.shape[3]} != mixer dim {a.dim}")


# Bytes of probabilities per batch slice: each pass over a slice's buffers
# (scores, softmax, value mixing, and their backward) stays in a core's L2.
# The general path's Y, probabilities and mix Z, and in its backward their
# gradients, live only in slice-sized buffers; a tape keeps none of them.
_SLICE_BYTES = 512 * 1024


def _batch_slices(batch: int, heads: int, n: int, dtype) -> list[slice]:
    """Consecutive batch slices of _SLICE_BYTES of probabilities each (at
    least one row; an empty batch gets one empty slice)."""
    rows = max(1, _SLICE_BYTES // (heads * n * n * np.dtype(dtype).itemsize))
    return [slice(s, min(s + rows, batch)) for s in range(0, max(batch, 1), rows)]


def _slice_buffers(rows: int, heads: int, n: int, d: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Y [rows, H*N, d], rows (head, query) per sample, and the key-major
    probabilities [rows, 1, N_keys, H*N_queries] of one batch slice."""
    return np.empty((rows, heads * n, d), dtype=dtype), np.empty((rows, 1, n, heads * n), dtype=dtype)


def _slice_probs(x_s: np.ndarray, a_h: np.ndarray, grid: np.ndarray, y_s: np.ndarray, p: np.ndarray,
                 stats=None):
    """Y = [x_s A_h]_h of the batch slice ``x_s`` [rows, N, d] into ``y_s``,
    and its logits x_s Y^T into ``p``, turned into probabilities in place:
    by :func:`attn_probs_inplace`, whose statistics are returned, or, given
    those ``stats``, rebuilt bitwise by :func:`attn_probs_again`."""
    rows, n, d = x_s.shape
    np.matmul(x_s[:, None], a_h, out=y_s.reshape(rows, len(a_h), n, d))
    np.matmul(x_s, y_s.swapaxes(-1, -2), out=p[:, 0])
    if stats is None:
        return attn_probs_inplace(p, grid, None)
    attn_probs_again(p, grid, *stats)
    return stats


def _head_mix(p: np.ndarray, v: np.ndarray, out: np.ndarray, by_key: bool = False) -> None:
    """Every head's P_h^T v (or, ``by_key``, P_h v) for a batch slice, into
    ``out`` [rows, N, H, d]: ``p`` is key-major [rows, 1, N_keys,
    H*N_queries] and ``v`` [rows, N, d], so each output row is a query
    (a key) and each head's d channels are contiguous."""
    rows, n, heads, _ = out.shape
    blocks = p.reshape(rows, n, heads, n)  # [rows, key, head, query]
    lhs = blocks.transpose(0, 2, 1, 3) if by_key else blocks.transpose(0, 2, 3, 1)
    np.matmul(lhs, v[:, None], out=out.swapaxes(1, 2))


def attention_mix(x: Tensor, a: AttnMixer | PositionalMixer) -> Tensor:
    """Either attention mixer as one tape node: [B, h_t, w_t, d] in and out.

    Sum over heads of softmax(q k^T * scale + B) v W_o, plus the output
    bias. Both paths fold each head's value side, M_h = W_v,h W_o,h, which
    is exact for any d_h and costs more flops than the per-head form only
    when d_h < d/2, which :func:`build_model` never builds (d_h = d). The
    mixer's type picks the path: a :class:`PositionalMixer`'s logits are
    the same for every sample, so :func:`_positional_mix` computes them with
    one softmax per call and mixes every head's keys in one gemm. An
    :class:`AttnMixer` runs in token space, its logit side folded per head
    too, A_h = scale W_q,h W_k,h^T. It runs per batch slice of about
    _SLICE_BYTES of probabilities (:func:`_slice_probs`): Y = [x A_h]_h,
    rows (head, query), gives each sample's logits in one gemm, key-major
    [N_keys, H*N_queries]; each head's mix Z_h = P_h^T x is written
    token-major, [rows*N, H*d], and the slice's output is y = Z M, one gemm.
    No batch-sized Y, Z or probability array is formed, with or without a
    tape. The tape keeps x, the weights and each slice's softmax
    statistics. The backward recomputes each slice's Y and logits and
    rebuilds its probabilities bitwise (:func:`attn_probs_again`). With
    W_h = P_h dy, token-major by key, it takes dM_h = Z_h^T dy = x^T W_h
    and the value side's dx = sum_h W_h M_h^T, so Z is not recomputed; dZ
    = dy M^T gives the logit gradient, and dA = x^T dY the w_q/w_k
    gradients. dM and dA are summed over the slices.
    """
    if isinstance(a, PositionalMixer):
        return _positional_mix(x, a)
    batch, h_t, w_t, d = x.shape
    n, heads = h_t * w_t, a.n_heads
    inputs = (x, a.w_q, a.w_k, a.w_v, a.w_o, a.b_rel, a.out_bias)
    taped = tt.recording(inputs)
    dtype = x.data.dtype
    y = np.empty((batch, n, d), dtype=dtype)  # before the temporaries: see tensor._ln_stats
    w_q, w_k, w_v, w_o = a.w_q.data, a.w_k.data, a.w_v.data, a.w_o.data
    scale = _attn_scale(d)
    a_h = np.matmul(w_q, w_k.swapaxes(-1, -2)) * scale  # [H, d, d]
    x_b = x.data.reshape(batch, n, d)
    grid = _bias_logits(a.b_rel.data, h_t, w_t)
    grid = np.ascontiguousarray(grid.swapaxes(0, 1)).reshape(1, n, heads * n)  # [1, keys, (head, query)]
    m_h = np.matmul(w_v, w_o)  # [H, d, d]
    slices = _batch_slices(batch, heads, n, dtype)
    y_buf, p_buf = _slice_buffers(slices[0].stop, heads, n, d, dtype)
    z_buf = np.empty((slices[0].stop, n, heads, d), dtype=dtype)  # Z, rows (sample, query)
    stats = []  # per slice: shift and column totals
    for s in slices:
        rows = s.stop - s.start
        slice_stats = _slice_probs(x_b[s], a_h, grid, y_buf[:rows], p_buf[:rows])
        if taped:
            stats.append(slice_stats)
        _head_mix(p_buf[:rows], x_b[s], z_buf[:rows])
        np.matmul(z_buf[:rows].reshape(-1, heads * d), m_h.reshape(heads * d, d), out=y[s].reshape(-1, d))
    y += a.out_bias.data
    out = Tensor(y.reshape(x.shape))

    def bwd(g):
        g_b = g.reshape(batch, n, d)
        dx = np.empty(x_b.shape, dtype=g.dtype)
        d_out_bias = g_b.reshape(batch * n, d).sum(axis=0)
        y_buf, p_buf = _slice_buffers(slices[0].stop, heads, n, d, dtype)
        d_z, dp = np.empty_like(y_buf), np.empty_like(p_buf)  # dZ head-major like Y
        w_dy = np.empty((slices[0].stop, n, 2, heads, d), dtype=g.dtype)  # W by key and dY by query
        # dx += [W, dY] [M^T; A^T] and [dM, dA] += x^T [W, dY], rows (head, channel)
        back = np.concatenate([m_h.swapaxes(1, 2), a_h.swapaxes(1, 2)]).reshape(2 * heads * d, d)
        d_ma = np.zeros((d, 2 * heads * d), dtype=g.dtype)
        grid_sum = np.zeros((n, heads * n), dtype=dp.dtype)  # batch-summed logit gradient
        for s, slice_stats in zip(slices, stats):
            rows = s.stop - s.start
            x_s, g_s, y_s, ps, d_zs, dps, wd = (
                x_b[s], g_b[s], y_buf[:rows], p_buf[:rows], d_z[:rows], dp[:rows], w_dy[:rows])
            _slice_probs(x_s, a_h, grid, y_s, ps, slice_stats)  # bitwise the forward's
            _head_mix(ps, g_s, wd[:, :, 0], by_key=True)
            np.matmul(g_s[:, None], m_h.swapaxes(1, 2), out=d_zs.reshape(rows, heads, n, d))
            np.matmul(x_s, d_zs.swapaxes(-1, -2), out=dps[:, 0])
            attn_softmax_backward(ps, dps)  # dps becomes the logit gradient
            for row in dps:
                grid_sum += row[0]
            _head_mix(dps, x_s, wd[:, :, 1])
            np.matmul(dps[:, 0], y_s, out=dx[s])
            wd = wd.reshape(rows * n, 2 * heads * d)
            dx[s] += (wd @ back).reshape(rows, n, d)
            d_ma += x_s.reshape(-1, d).T @ wd
        d_m, d_a = d_ma.reshape(d, 2, heads, d).transpose(1, 2, 0, 3)
        d_a = d_a * scale
        d_wq, d_wk = np.matmul(d_a, w_k), np.matmul(d_a.swapaxes(-1, -2), w_q)
        d_wv, d_w_o = np.matmul(d_m, w_o.swapaxes(-1, -2)), np.matmul(w_v.swapaxes(-1, -2), d_m)
        d_rel = _table_grad(grid_sum.reshape(n, heads, n).swapaxes(0, 1), a.b_rel.data)
        return dx.reshape(x.shape), d_wq, d_wk, d_wv, d_w_o, d_rel, d_out_bias

    return record(out, inputs, bwd)


def _positional_mix(x: Tensor, a: PositionalMixer) -> Tensor:
    """:func:`attention_mix` for a :class:`PositionalMixer`, whose logits
    are the bias table alone.

    A query's N keys and its off-grid offsets are exactly the R table
    entries, so every query's softmax is one softmax over its head's table,
    built once per call by :func:`attn_probs_inplace` on a zero [1, H, R, 1]
    buffer and expanded to P [H, N_keys, N_queries] as the general path
    expands the logits. The mass left off the grid mixes nothing, which is
    zero padding. With x token-major, [N*B, d] rows (token, sample), u = x M
    is one batched gemm, [H, N*B, d], which the tape keeps, and y = [P_h^T]_h
    u one [N, H*N] by [H*N, B*d] gemm. The backward takes the batch-summed
    dP_h = u_h g^T in one batched gemm, folds it onto the table and runs the
    softmax backward once, and goes through du_h = P_h g: dM_h = x^T du_h,
    then dW_v,h and dW_o,h, and dx = sum_h du_h M_h^T.
    """
    batch, h_t, w_t, d = x.shape
    n, heads = h_t * w_t, a.n_heads
    inputs = (x, a.w_v, a.w_o, a.b_rel, a.out_bias)
    w_v, w_o = a.w_v.data, a.w_o.data
    y = np.empty((batch, n, d), dtype=x.data.dtype)  # before the temporaries: see tensor._ln_stats
    x_tok = np.ascontiguousarray(x.data.reshape(batch, n, d).swapaxes(0, 1)).reshape(n * batch, d)
    m_h = np.matmul(w_v, w_o)  # [H, d, d]
    u = np.matmul(x_tok, m_h)  # [H, N*B, d]: rows (token, sample) per head
    table = a.b_rel.data
    s = np.zeros((1, heads, table[0].size, 1), dtype=u.dtype)
    attn_probs_inplace(s, table.reshape(heads, -1, 1), None)
    p = _bias_logits(s.reshape(table.shape), h_t, w_t)  # [H, N_keys, N_queries]
    p_cat = p.transpose(2, 0, 1).reshape(n, heads * n)  # [N_queries, (head, key)]
    y_tok = (p_cat @ u.reshape(heads * n, batch * d)).reshape(n, batch, d)
    np.add(y_tok.swapaxes(0, 1), a.out_bias.data, out=y)  # back to batch-major
    out = Tensor(y.reshape(x.shape))

    def bwd(g):
        d_out_bias = g.reshape(batch * n, d).sum(axis=0)
        g_tok = np.ascontiguousarray(g.reshape(batch, n, d).swapaxes(0, 1)).reshape(n, batch * d)
        dp = np.matmul(u.reshape(heads, n, batch * d), g_tok.T)  # batch-summed, key-major
        du = np.matmul(p, g_tok).reshape(heads, n * batch, d)
        d_rel = _table_grad(dp, table)
        attn_softmax_backward(s, d_rel.reshape(s.shape))  # d_rel becomes the table's gradient
        d_m = np.matmul(x_tok.T, du)  # [H, d, d]
        d_wv, d_w_o = np.matmul(d_m, w_o.swapaxes(-1, -2)), np.matmul(w_v.swapaxes(-1, -2), d_m)
        dx_tok = du[0] @ m_h[0].T
        for du_h, m in zip(du[1:], m_h[1:]):
            dx_tok += du_h @ m.T
        dx = np.ascontiguousarray(dx_tok.reshape(n, batch, d).swapaxes(0, 1)).reshape(x.shape)
        return dx, d_wv, d_w_o, d_rel, d_out_bias

    return record(out, inputs, bwd)


def mhsa_forward(x: Tensor, a: AttnMixer | PositionalMixer) -> Tensor:
    """Sum over heads of softmax(QK^T/sqrt(d) + B) V W_o, plus output bias.

    The scale divisor is sqrt(d) as the block's token width. A positional
    mixer has no Q or K: its logits are the bias table alone, and the mass
    it puts on offsets off the grid mixes nothing.
    """
    _check_attn_input(x, a)
    return attention_mix(x, a)


# --------------------------------------------------------------------------
# MLP and block


class Mlp:
    """Two linear layers with smooth-GELU in between; hidden = ratio * d.
    :meth:`forward` runs the block's second LayerNorm too, all in one node."""

    def __init__(self, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor):
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2

    @staticmethod
    def init(dim: int, ratio: int, rng: np.random.Generator) -> "Mlp":
        hidden = ratio * dim
        return Mlp(
            Tensor(rng.normal(0.0, 0.02, size=(dim, hidden)), requires_grad=True),
            Tensor(np.zeros(hidden), requires_grad=True),
            Tensor(rng.normal(0.0, 0.02, size=(hidden, dim)), requires_grad=True),
            Tensor(np.zeros(dim), requires_grad=True),
        )

    def named_parameters(self):
        yield "w1", self.w1
        yield "b1", self.b1
        yield "w2", self.w2
        yield "b2", self.b2

    def forward(self, z: Tensor, ln: "LayerNormParams") -> Tensor:
        """MLP(LN(z)) for token maps ``z`` [..., d], the LayerNorm ``ln``
        included: one tape node (:func:`convattn.tensor.norm_mlp`)."""
        return tt.norm_mlp(z, ln.gamma, ln.beta, self.w1, self.b1, self.w2, self.b2)


class LayerNormParams:
    def __init__(self, dim: int):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)

    def named_parameters(self):
        yield "gamma", self.gamma
        yield "beta", self.beta

    def forward(self, x: Tensor) -> Tensor:
        return tt.layer_norm(x, self.gamma, self.beta)


class HybridBlock:
    """One transformer block whose token mixer is a conv or self-attention.

    The block holds exactly one mixer: in ``conv`` or in ``attn``, with the
    other attribute None. ``attn`` holds fresh attention (:class:`AttnMixer`)
    or a switched layer (:class:`PositionalMixer`). ``mode`` is read from
    the mixer. A switch (:func:`convattn.reparam.switch_block`) replaces the
    conv with its positional rewrite and keeps no conv.
    """

    def __init__(self, mixer: ConvMixer | _Heads, ln1: LayerNormParams, ln2: LayerNormParams, mlp: Mlp):
        self.conv, self.attn = (mixer, None) if isinstance(mixer, ConvMixer) else (None, mixer)
        self.ln1 = ln1
        self.ln2 = ln2
        self.mlp = mlp

    @property
    def mode(self) -> str:
        return CONV if self.conv is not None else SA

    def named_parameters(self):
        mixer = ("conv", self.conv) if self.conv is not None else ("attn", self.attn)
        for prefix, comp in (mixer, ("ln1", self.ln1), ("ln2", self.ln2), ("mlp", self.mlp)):
            for name, p in comp.named_parameters():
                yield f"{prefix}.{name}", p


def block_forward(z: Tensor, b: HybridBlock) -> Tensor:
    return _block_outputs(z, b)[0]


def _block_outputs(z: Tensor, b: HybridBlock) -> tuple[Tensor, Tensor]:
    """(z_l, pre-residual MLP branch); the branch feeds the spectral tap
    option. The branch is the output of the tail's one node, LN2 and the
    MLP (:meth:`Mlp.forward`); its residual add is a node of its own."""
    normed = b.ln1.forward(z)
    mixed = conv_mixer_forward(normed, b.conv) if b.conv is not None else mhsa_forward(normed, b.attn)
    z1 = tt.add(mixed, z)
    branch = b.mlp.forward(z1, b.ln2)
    return tt.add(branch, z1), branch


# --------------------------------------------------------------------------
# Model


class Model:
    """Patch embedding, L hybrid blocks, LayerNorm + GAP + linear head."""

    def __init__(self, patch_embed: PatchEmbed, blocks: list[HybridBlock],
                 head_w: Tensor, head_b: Tensor,
                 final_ln: LayerNormParams | None = None):
        if not blocks:
            raise ValueError("model needs at least one block")
        self.patch_embed = patch_embed
        self.blocks = blocks
        self.final_ln = final_ln
        self.head_w = head_w
        self.head_b = head_b

    @property
    def num_layers(self) -> int:
        return len(self.blocks)

    @property
    def num_classes(self) -> int:
        return self.head_w.shape[1]

    def named_parameters(self):
        for name, p in self.patch_embed.named_parameters():
            yield f"patch_embed.{name}", p
        for i, blk in enumerate(self.blocks):
            for name, p in blk.named_parameters():
                yield f"blocks.{i}.{name}", p
        if self.final_ln is not None:
            for name, p in self.final_ln.named_parameters():
                yield f"final_ln.{name}", p
        yield "head.w", self.head_w
        yield "head.b", self.head_b

    def modes(self) -> list[str]:
        return [b.mode for b in self.blocks]


def model_forward(images: Tensor, model: Model) -> Tensor:
    """Logits [batch, classes]."""
    return _forward(images, model, tap=None)[0]


def model_forward_features(images: Tensor, model: Model,
                           tap: str = "post-residual") -> tuple[Tensor, list[Tensor]]:
    """Forward pass that also captures each block's output token maps.

    ``tap`` selects what is captured: "post-residual" is z_l itself,
    "pre-residual" is the final sublayer branch before its residual add.
    """
    if tap not in ("post-residual", "pre-residual"):
        raise ValueError(f"unknown tap point {tap!r}")
    return _forward(images, model, tap)


def _forward(images: Tensor, model: Model, tap: str | None) -> tuple[Tensor, list[Tensor]]:
    """Logits plus the token maps ``tap`` selects (none when ``tap`` is None).

    A forward that records onto no tape splits its batch into shards
    (:func:`convattn.runtime.run_shards`) and concatenates the logits and
    each map in shard order. A taped forward runs whole on the caller's
    graph.
    """
    slices = shard_slices(images.shape[0])
    if len(slices) < 2 or tt.recording((images, *(p for _, p in model.named_parameters()))):
        return _forward_whole(images, model, tap)
    parts = run_shards(lambda s: _forward_whole(Tensor(images.data[s]), model, tap), slices)
    logits, maps = zip(*parts)
    return _concat(logits), [_concat(layer) for layer in zip(*maps)]


def _concat(tensors) -> Tensor:
    return Tensor(np.concatenate([t.data for t in tensors]))


def _forward_whole(images: Tensor, model: Model, tap: str | None) -> tuple[Tensor, list[Tensor]]:
    z = patch_embed_forward(images, model.patch_embed)
    captured: list[Tensor] = []
    for blk in model.blocks:
        z, branch = _block_outputs(z, blk)
        if tap is not None:
            captured.append(z if tap == "post-residual" else branch)
    batch, h_t, w_t, d = z.shape
    if model.final_ln is not None:
        z = model.final_ln.forward(z)
    pooled = tt.mean_(tt.reshape(z, (batch, h_t * w_t, d)), axis=1)
    return tt.add(tt.matmul(pooled, model.head_w), model.head_b), captured


def build_model(dim: int, num_layers: int, kernel_size: int, patch_size: int,
                image_hw: tuple[int, int], in_channels: int, num_classes: int,
                modes: list[str], rng: np.random.Generator,
                mlp_ratio: int = 4, use_abs_pos: bool = False, final_ln: bool = True) -> Model:
    """Assemble a model with the given initial per-layer modes.

    All blocks use the reparameterizable attention configuration (d_h = dim,
    K^2 heads) so conv and attention layers are interchangeable mid-training.
    """
    if len(modes) != num_layers:
        raise ValueError(f"need one mode per layer, got {len(modes)} for L={num_layers}")
    h, w = image_hw
    if h % patch_size or w % patch_size:
        raise ShapeError(f"image {h}x{w} not divisible by patch size {patch_size}")
    grid_hw = (h // patch_size, w // patch_size)
    pe = PatchEmbed(patch_size, in_channels, dim, grid_hw, rng, use_abs_pos=use_abs_pos)
    blocks = []
    for mode in modes:
        if mode == CONV:
            mixer = ConvMixer.init(kernel_size, dim, rng)
        elif mode == SA:
            mixer = AttnMixer.init(dim, kernel_size * kernel_size, dim, grid_hw, rng)
        else:
            raise ValueError(f"mode must be {CONV!r} or {SA!r}, got {mode!r}")
        blocks.append(HybridBlock(mixer, LayerNormParams(dim), LayerNormParams(dim),
                                  Mlp.init(dim, mlp_ratio, rng)))
    head_w = Tensor(rng.normal(0.0, 0.02, size=(dim, num_classes)), requires_grad=True)
    head_b = Tensor(np.zeros(num_classes), requires_grad=True)
    return Model(pe, blocks, head_w, head_b, LayerNormParams(dim) if final_ln else None)
