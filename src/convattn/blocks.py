"""Token-mixing blocks: patch embedding, conv mixer, relative-bias MHSA, MLP.

Both mixers share the residual block skeleton
    z' = Mixer(LN(z)) + z
    z  = MLP(LN(z')) + z'
and take and return token maps: [batch, h_t, w_t, d] tensors whose middle
axes are the 2-D token lattice. The attention mixer carries a relative
positional bias table plus an optional pad slot: one extra key whose value
vector is all zeros, standing in for every position outside the grid. The pad
logit is the exact collapse (logsumexp) of the bias entries at the query's
off-grid offsets, which is what makes a reparameterized convolution match
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

# Cached per lattice: flat relative-offset index for every (key, query) pair,
# key-major like the probabilities, and the per-query mask of table offsets
# that step outside the grid. Every caller shares the cached arrays, so they
# are read-only.


@lru_cache(maxsize=32)
def _rel_geometry(h_t: int, w_t: int):
    n = h_t * w_t
    rows, cols = np.divmod(np.arange(n), w_t)
    drow = rows[:, None] - rows[None, :]  # key minus query
    dcol = cols[:, None] - cols[None, :]
    idx = (drow + h_t - 1) * (2 * w_t - 1) + (dcol + w_t - 1)  # [N_keys, N_queries]

    all_dr = np.arange(-(h_t - 1), h_t)
    all_dc = np.arange(-(w_t - 1), w_t)
    tr = rows[:, None, None] + all_dr[None, :, None]  # [N, 2h-1, 2w-1]
    tc = cols[:, None, None] + all_dc[None, None, :]
    offgrid = ((tr < 0) | (tr >= h_t) | (tc < 0) | (tc >= w_t)).reshape(n, -1)  # [N, R]
    idx.setflags(write=False)
    offgrid.setflags(write=False)
    return idx, offgrid


_PAD_NEG = -1e30  # logit for an empty pad slot; never survives the softmax


def _bias_logits(b_rel: np.ndarray, h_t: int, w_t: int, pad_token: bool):
    """Expand a [H, 2h-1, 2w-1] table into (grid [H, N_keys, N_queries],
    pad [H, N_queries], pad weights [H, N_queries, R]).

    Grid part: B[h, k, q] = table entry at the key-minus-query offset, so
    equal relative offsets always read the same entry. Pad logit: stable
    masked logsumexp of the table over the query's off-grid offsets. The
    weights are the softmax over that masked subset, i.e. the pad logit's
    gradient w.r.t. the flat table. Without a pad slot (and for a query with
    no off-grid offset) the pad logit is _PAD_NEG and its weights are zero,
    so the slot takes no probability and routes no gradient.
    """
    heads = b_rel.shape[0]
    if b_rel.shape[1] != 2 * h_t - 1 or b_rel.shape[2] != 2 * w_t - 1:
        raise ShapeError(f"bias table {b_rel.shape} does not match lattice {h_t}x{w_t}")
    idx, offgrid = _rel_geometry(h_t, w_t)
    flat = b_rel.reshape(heads, -1)
    grid = np.take(flat, idx, axis=1)  # contiguous; flat[:, idx] would put the heads innermost
    if not pad_token:
        return (grid, np.full((heads, idx.shape[0]), _PAD_NEG, dtype=flat.dtype),
                np.zeros((heads, *offgrid.shape), dtype=flat.dtype))
    masked = np.where(offgrid[None, :, :], flat[:, None, :], -np.inf)
    m = masked.max(axis=-1)  # [H, N]
    have_any = np.isfinite(m)
    m_safe = np.where(have_any, m, 0.0)
    e = np.exp(masked - m_safe[:, :, None])
    e = np.where(offgrid[None, :, :], e, 0.0)
    s = np.where(have_any, e.sum(axis=-1), 1.0)  # >= 1 where any offset is off-grid
    pad = np.where(have_any, m_safe + np.log(s), _PAD_NEG)
    weights = e / s[:, :, None]
    return grid, pad.astype(flat.dtype), weights.astype(flat.dtype)


def _table_grad(grid_grad: np.ndarray, pad_grad: np.ndarray, pad_weights: np.ndarray,
                b_rel: np.ndarray) -> np.ndarray:
    """Gradient of the [H, 2h-1, 2w-1] table from the batch-summed logit
    gradients: key-major grid [H, N_keys, N_queries] and pad [H, N_queries].

    Every grid entry lands on its offset's table entry, all heads in one
    pass over the key-major index; the pad-logit gradient reaches the table
    through the off-grid logsumexp weights of :func:`_bias_logits`.
    """
    heads, rows, cols = b_rel.shape
    idx = _rel_geometry((rows + 1) // 2, (cols + 1) // 2)[0]
    r = rows * cols
    bins = (np.arange(heads)[:, None] * r + idx.reshape(1, -1)).reshape(-1)
    d_flat = np.bincount(bins, weights=grid_grad.reshape(-1).astype(np.float64),
                         minlength=heads * r).reshape(heads, r)
    d_flat += np.einsum("hq,hqr->hr", pad_grad, pad_weights)
    return d_flat.reshape(b_rel.shape).astype(b_rel.dtype)


# Probabilities are stored key-major, [.., N_keys, N_queries], so the
# softmax's max and sum run over axis -2, across contiguous rows. The pad
# slot is carried out-of-band: the pad probability is a separate [.., N_queries]
# array, which keeps every gemm touching the probabilities contiguous.


# A sample whose logits span at most this range is shifted by its largest
# logit: every exponent is then at least e^-64 (about 1.6e-28), a normal
# number even in float32, so no query column needs its own maximum.
_NARROW_RANGE = 64.0


def _softmax_shift(p: np.ndarray, pad: np.ndarray) -> np.ndarray:
    """The shift of each query column of the logits ``p``, broadcastable
    to [B, H, N_queries]: the sample's largest logit (pad logits included)
    when every logit of the sample in ``p`` lies within _NARROW_RANGE of
    it, otherwise the column's own maximum. A sample's shift depends on its
    own logits alone, not on the batch it is sliced with."""
    hi = np.maximum(p.max(axis=(1, 2, 3)), pad.max())
    narrow = hi - p.min(axis=(1, 2, 3)) <= _NARROW_RANGE  # False for a non-finite range
    if narrow.all():
        return hi[:, None, None]
    m = p.max(axis=-2)
    np.maximum(m, pad, out=m)
    m[narrow] = hi[narrow, None, None]
    return m


def _exp_shifted(p: np.ndarray, shift: np.ndarray):
    """exp(p - shift) in place, the shift broadcast over the keys. A logit
    gap below log(tiny) of the buffer's dtype would exponentiate to a
    subnormal; it is flushed to -inf so its probability is an exact zero.
    After a switch at beta=100 that is nearly the whole column, and
    subnormal arithmetic is many times slower than normal arithmetic on
    this path. Only a column's own shift can leave such a gap, so the
    flush runs only when the minimum is below the floor."""
    p -= shift[..., None, :]
    floor = np.log(np.finfo(p.dtype).tiny)
    if np.min(p, initial=0.0) < floor:
        np.copyto(p, -np.inf, where=p < floor)
    np.exp(p, out=p)


def attn_probs_inplace(p: np.ndarray, grid: np.ndarray, pad: np.ndarray):
    """Turn key-major raw scores into probabilities in place; returns the
    pad probabilities, the shift and the column totals.

    ``grid`` is the key-major bias [H, N_keys, N_queries] and ``pad`` the
    pad logit [H, N_queries]. The logits are shifted by
    :func:`_softmax_shift` and exponentiated by :func:`_exp_shifted`; the
    pad logit is flushed on its own. The shift and the totals [B, H,
    N_queries] (pad included) are the softmax statistics from which
    :func:`attn_probs_again` rebuilds the same probabilities from the same
    raw scores, bitwise.
    """
    p += grid
    shift = _softmax_shift(p, pad)
    _exp_shifted(p, shift)
    e_pad = pad - shift
    np.copyto(e_pad, -np.inf, where=e_pad < np.log(np.finfo(p.dtype).tiny))
    np.exp(e_pad, out=e_pad)
    total = np.einsum("...kq->...q", p)  # bitwise p.sum(axis=-2), in under half its time
    total += e_pad
    p /= total[..., None, :]
    return e_pad / total, shift, total


def attn_probs_again(p: np.ndarray, grid: np.ndarray, shift: np.ndarray, total: np.ndarray):
    """:func:`attn_probs_inplace`'s probabilities again, in place, from the
    same raw scores and the shift and totals it returned: the same
    arithmetic without its reductions."""
    p += grid
    _exp_shifted(p, shift)
    p /= total[..., None, :]


def attn_softmax_backward(p: np.ndarray, p_pad: np.ndarray, dp: np.ndarray):
    """Softmax-input gradient in place on the key-major ``dp``; returns the
    pad-logit gradient."""
    dot = np.einsum("bhkq,bhkq->bhq", p, dp)
    dp -= dot[..., None, :]
    dp *= p
    return p_pad * -dot


# --------------------------------------------------------------------------
# Attention mixer


class AttnMixer:
    """Multi-head self-attention with a relative positional bias table.

    Per-head projections are stored stacked: w_q, w_k, w_v are [H, d, d_h]
    and w_o is [H, d_h, d]; b_rel is [H, 2*h_t-1, 2*w_t-1]. The scale divisor
    is sqrt(d) (the token width, not the head width).
    """

    def __init__(self, w_q: Tensor, w_k: Tensor, w_v: Tensor, w_o: Tensor,
                 b_rel: Tensor, out_bias: Tensor, grid_hw: tuple[int, int],
                 pad_token_enabled: bool = False):
        heads, d, d_h = w_q.shape
        if w_k.shape != (heads, d, d_h) or w_v.shape != (heads, d, d_h):
            raise ShapeError("w_q/w_k/w_v shapes disagree")
        if w_o.shape != (heads, d_h, d):
            raise ShapeError(f"w_o must be [H, d_h, d], got {w_o.shape}")
        h_t, w_t = grid_hw
        if b_rel.shape != (heads, 2 * h_t - 1, 2 * w_t - 1):
            raise ShapeError(f"b_rel {b_rel.shape} does not match {heads} heads on a {h_t}x{w_t} grid")
        self.w_q, self.w_k, self.w_v, self.w_o = w_q, w_k, w_v, w_o
        self.b_rel = b_rel
        self.out_bias = out_bias
        self.grid_hw = grid_hw
        self.pad_token_enabled = pad_token_enabled

    @property
    def n_heads(self) -> int:
        return self.w_q.shape[0]

    @property
    def dim(self) -> int:
        return self.w_q.shape[1]

    @property
    def d_head(self) -> int:
        return self.w_q.shape[2]

    @staticmethod
    def init(dim: int, n_heads: int, d_head: int, grid_hw: tuple[int, int],
             rng: np.random.Generator, pad_token_enabled: bool = False) -> "AttnMixer":
        """Fresh trainable attention (zero bias table, no conv ancestry)."""
        def w(*shape):
            return Tensor(rng.normal(0.0, 0.02, size=shape), requires_grad=True)

        h_t, w_t = grid_hw
        return AttnMixer(
            w(n_heads, dim, d_head), w(n_heads, dim, d_head), w(n_heads, dim, d_head),
            w(n_heads, d_head, dim),
            Tensor(np.zeros((n_heads, 2 * h_t - 1, 2 * w_t - 1)), requires_grad=True),
            Tensor(np.zeros(dim), requires_grad=True),
            grid_hw, pad_token_enabled,
        )

    def named_parameters(self):
        yield "w_q", self.w_q
        yield "w_k", self.w_k
        yield "w_v", self.w_v
        yield "w_o", self.w_o
        yield "b_rel", self.b_rel
        yield "out_bias", self.out_bias


def _attn_scale(d: int) -> float:
    """1/sqrt(d) as a Python float, so it keeps float32 scores float32 (a
    numpy float64 scalar would promote q and every probability buffer)."""
    return 1.0 / math.sqrt(d)


def _check_attn_input(x: Tensor, a: AttnMixer) -> None:
    if x.ndim != 4:
        raise ShapeError(f"token maps must be [batch, h_t, w_t, d], got {x.shape}")
    if x.shape[1:3] != a.grid_hw:
        raise ShapeError(f"lattice {x.shape[1]}x{x.shape[2]} does not match mixer geometry {a.grid_hw}")
    if x.shape[3] != a.dim:
        raise ShapeError(f"token channels {x.shape[3]} != mixer dim {a.dim}")


# Bytes of probabilities per batch slice: each pass over a slice's buffer
# (scores, softmax, value mixing, and their backward) stays in a core's L2.
_SLICE_BYTES = 512 * 1024


def _batch_slices(batch: int, heads: int, n: int, dtype) -> list[slice]:
    """Consecutive batch slices of _SLICE_BYTES of probabilities each (at
    least one row; an empty batch gets one empty slice)."""
    rows = max(1, _SLICE_BYTES // (heads * n * n * np.dtype(dtype).itemsize))
    return [slice(s, min(s + rows, batch)) for s in range(0, max(batch, 1), rows)]


def _head_views(qkv: np.ndarray, batch: int, n: int, heads: int, d_h: int):
    """q, k, v as strided [B, H, N, d_h] views of a [B*N, 3*H*d_h] buffer."""
    split = qkv.reshape(batch, n, 3, heads, d_h)
    return tuple(split[:, :, i].transpose(0, 2, 1, 3) for i in range(3))


def _qkv_gemm(x_flat: np.ndarray, a: AttnMixer, batch: int, n: int):
    """One gemm X[B*N, d] @ W[d, 3*H*d_h] for q, k and v.

    Returns (W, the projected buffer, its (q_scaled, k, v) head views); q is
    scaled in place.
    """
    w = np.concatenate([t.data.transpose(1, 0, 2) for t in (a.w_q, a.w_k, a.w_v)], axis=1)
    w = w.reshape(a.dim, -1)
    qkv = x_flat @ w
    q_s, k, v = _head_views(qkv, batch, n, a.n_heads, a.d_head)
    q_s *= _attn_scale(a.dim)
    return w, qkv, (q_s, k, v)


def _positional(a: AttnMixer) -> bool:
    """Whether the logits are the bias table alone: w_q and w_k both exactly
    zero, as in every reparameterized layer. Both must be zero, because
    dW_q = x^T (dS k) needs the per-sample logit gradient dS unless k = 0."""
    return not (a.w_q.data.any() or a.w_k.data.any())


def attention_mix(x: Tensor, a: AttnMixer) -> Tensor:
    """The attention mixer as one tape node: [B, h_t, w_t, d] in and out.

    Sum over heads of softmax(q k^T * scale + B) v W_o, plus the output
    bias. When w_q and w_k are both exactly zero the logits are the same for
    every sample, and :func:`_positional_mix` computes the node with one
    softmax per call. Otherwise q, k and v come from one stacked gemm and
    are read as strided per-head views; head outputs are written straight
    into a [B, N, H, d_h] buffer that the output projection reads flat, so
    no head transpose is copied. Scores, softmax and value mixing run per
    batch slice of about _SLICE_BYTES of probabilities, in one slice buffer
    whether or not a tape records the node: no [B, H, N, N] tensor is
    kept. A taped forward keeps each slice's softmax statistics (pad
    probabilities, shift and column totals, [B, H, N] in all); the
    backward recomputes each slice's scores and rebuilds its probabilities
    from them with :func:`attn_probs_again`, bitwise the forward's. The pad
    key contributes only to the softmax denominator since its value vector
    is zero.
    """
    if _positional(a):
        return _positional_mix(x, a)
    batch, h_t, w_t, d = x.shape
    n, heads, d_h = h_t * w_t, a.n_heads, a.d_head
    inputs = (x, a.w_q, a.w_k, a.w_v, a.w_o, a.b_rel, a.out_bias)
    taped = tt.recording(inputs)
    x_flat = x.data.reshape(batch * n, d)
    w, qkv, (q_s, k, v) = _qkv_gemm(x_flat, a, batch, n)
    grid, pad, pad_weights = _bias_logits(a.b_rel.data, h_t, w_t, a.pad_token_enabled)
    slices = _batch_slices(batch, heads, n, qkv.dtype)
    p = np.empty((slices[0].stop, heads, n, n), dtype=qkv.dtype)  # one slice's probabilities
    stats = []  # per slice: pad probabilities, shift and column totals
    merged = np.empty((batch * n, heads * d_h), dtype=qkv.dtype)
    o = merged.reshape(batch, n, heads, d_h).transpose(0, 2, 1, 3)
    for s in slices:
        ps = p[: s.stop - s.start]
        np.matmul(k[s], q_s[s].swapaxes(-1, -2), out=ps)
        slice_stats = attn_probs_inplace(ps, grid, pad)
        if taped:
            stats.append(slice_stats)
        np.matmul(ps.swapaxes(-1, -2), v[s], out=o[s])
    w_o = a.w_o.data.reshape(heads * d_h, d)
    y = merged @ w_o
    y += a.out_bias.data
    out = Tensor(y.reshape(x.shape))

    def bwd(g):
        g_flat = g.reshape(batch * n, d)
        d_out_bias = g_flat.sum(axis=0)
        d_w_o = (merged.T @ g_flat).reshape(a.w_o.shape)
        d_o = (g_flat @ w_o.T).reshape(batch, n, heads, d_h).transpose(0, 2, 1, 3)
        d_qkv = np.empty_like(qkv)
        dq, dk, dv = _head_views(d_qkv, batch, n, heads, d_h)
        p = np.empty((slices[0].stop, heads, n, n), dtype=qkv.dtype)
        dp = np.empty(p.shape, dtype=np.result_type(v, d_o))
        ones_row = np.ones((1, dp.shape[0]), dtype=dp.dtype)
        grid_sum = np.zeros((heads, n, n), dtype=dp.dtype)  # batch-summed logit gradient
        pad_sum = np.zeros((heads, n), dtype=dp.dtype)
        for s, (p_pad, shift, total) in zip(slices, stats):
            rows = s.stop - s.start
            ps, dps = p[:rows], dp[:rows]
            np.matmul(k[s], q_s[s].swapaxes(-1, -2), out=ps)
            attn_probs_again(ps, grid, shift, total)  # bitwise the forward's probabilities
            np.matmul(ps, d_o[s], out=dv[s])
            np.matmul(v[s], d_o[s].swapaxes(-1, -2), out=dps)
            dpad = attn_softmax_backward(ps, p_pad, dps)  # dps becomes the logit gradient
            summed = ones_row[:, :rows] @ dps.reshape(rows, grid_sum.size)  # batch-sum via gemv
            grid_sum += summed.reshape(grid_sum.shape)
            pad_sum += dpad.sum(axis=0)
            np.matmul(dps.swapaxes(-1, -2), k[s], out=dq[s])
            np.matmul(dps, q_s[s], out=dk[s])
        dq *= _attn_scale(d)
        d_w = (x_flat.T @ d_qkv).reshape(d, 3, heads, d_h)
        d_wq, d_wk, d_wv = (np.ascontiguousarray(d_w[:, i].transpose(1, 0, 2)) for i in range(3))
        dx = (d_qkv @ w.T).reshape(x.shape)
        d_rel = _table_grad(grid_sum, pad_sum, pad_weights, a.b_rel.data)
        return dx, d_wq, d_wk, d_wv, d_w_o, d_rel, d_out_bias

    return record(out, inputs, bwd)


def _positional_mix(x: Tensor, a: AttnMixer) -> Tensor:
    """:func:`attention_mix` for q = k = 0, where the logits are the bias
    table alone.

    The probabilities [H, N_keys, N_queries] (plus the pad column) are built
    once per call, by the same :func:`attn_probs_inplace` arithmetic on a
    zero [1, H, N, N] score buffer, and applied to v as one gemm per head
    across the batch: each head's v is one token-major [N, B*d_h] matrix.
    The backward sums dP over the batch with one gemm per head and runs the
    softmax backward once. w_q and w_k get no gradient, which is exact:
    dq = dS k = 0 and dk = dS^T q = 0.
    """
    batch, h_t, w_t, d = x.shape
    n, heads, d_h = h_t * w_t, a.n_heads, a.d_head
    inputs = (x, a.w_q, a.w_k, a.w_v, a.w_o, a.b_rel, a.out_bias)
    x_flat = x.data.reshape(batch * n, d)
    x_tok = np.ascontiguousarray(x.data.reshape(batch, n, d).swapaxes(0, 1)).reshape(n * batch, d)
    v = np.matmul(x_tok, a.w_v.data).reshape(heads, n, batch * d_h)
    grid, pad, pad_weights = _bias_logits(a.b_rel.data, h_t, w_t, a.pad_token_enabled)
    p = np.zeros((1, heads, n, n), dtype=v.dtype)
    p_pad, _, _ = attn_probs_inplace(p, grid, pad)
    merged = _batch_major(np.matmul(p[0].swapaxes(-1, -2), v), batch, d_h)
    w_o = a.w_o.data.reshape(heads * d_h, d)
    y = merged @ w_o
    y += a.out_bias.data
    out = Tensor(y.reshape(x.shape))

    def bwd(g):
        g_flat = g.reshape(batch * n, d)
        d_out_bias = g_flat.sum(axis=0)
        d_w_o = (merged.T @ g_flat).reshape(a.w_o.shape)
        g_tok = np.ascontiguousarray(g.reshape(batch, n, d).swapaxes(0, 1)).reshape(n * batch, d)
        d_o = np.matmul(g_tok, a.w_o.data.swapaxes(-1, -2)).reshape(heads, n, batch * d_h)
        dv = _batch_major(np.matmul(p[0], d_o), batch, d_h)
        dp = np.matmul(v, d_o.swapaxes(-1, -2))[None]  # batch-summed, key-major
        dpad = attn_softmax_backward(p, p_pad, dp)  # dp becomes the logit gradient
        d_rel = _table_grad(dp[0], dpad[0], pad_weights, a.b_rel.data)
        w_v = a.w_v.data.transpose(1, 0, 2).reshape(d, heads * d_h)
        d_wv = np.ascontiguousarray((x_flat.T @ dv).reshape(d, heads, d_h).transpose(1, 0, 2))
        dx = (dv @ w_v.T).reshape(x.shape)
        return dx, None, None, d_wv, d_w_o, d_rel, d_out_bias

    return record(out, inputs, bwd)


def _batch_major(per_head: np.ndarray, batch: int, d_h: int) -> np.ndarray:
    """[H, N, B*d_h] per-head token-major rows as a flat [B*N, H*d_h] copy,
    the layout the general path's projections read. The weight gradients
    then reduce over rows in the general path's order, which keeps their
    bits."""
    heads, n = per_head.shape[:2]
    return np.ascontiguousarray(per_head.reshape(heads, n, batch, d_h).transpose(2, 1, 0, 3)).reshape(
        batch * n, heads * d_h)


def mhsa_forward(x: Tensor, a: AttnMixer) -> Tensor:
    """Sum over heads of softmax(QK^T/sqrt(d) + B) V W_o, plus output bias.

    The scale divisor is sqrt(d) as the block's token width, and the pad key
    (when enabled) contributes a zero value vector.
    """
    _check_attn_input(x, a)
    return attention_mix(x, a)


# --------------------------------------------------------------------------
# MLP and block


class Mlp:
    """Two linear layers with smooth-GELU in between; hidden = ratio * d."""

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

    def forward(self, tokens_flat: Tensor) -> Tensor:
        h = tt.gelu(tt.add(tt.matmul(tokens_flat, self.w1), self.b1))
        return tt.add(tt.matmul(h, self.w2), self.b2)


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
    other attribute None. ``mode`` is read from the mixer. A switch
    (:func:`convattn.reparam.switch_block`) replaces the conv with its
    attention rewrite and keeps no conv.
    """

    def __init__(self, mixer: ConvMixer | AttnMixer, ln1: LayerNormParams, ln2: LayerNormParams,
                 mlp: Mlp):
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
    """(z_l, pre-residual MLP branch); the branch feeds the spectral tap option."""
    normed = b.ln1.forward(z)
    mixed = conv_mixer_forward(normed, b.conv) if b.conv is not None else mhsa_forward(normed, b.attn)
    z1 = tt.add(mixed, z)
    flat = tt.reshape(b.ln2.forward(z1), (-1, z1.shape[3]))
    branch = tt.reshape(b.mlp.forward(flat), z1.shape)
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
