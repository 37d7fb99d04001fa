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
    "attention_scores",
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
    grid = flat[:, idx]
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


# Probabilities are stored key-major, [.., N_keys, N_queries], so the
# softmax's max and sum run over axis -2, across contiguous rows. The pad
# slot is carried out-of-band: the pad probability is a separate [.., N_queries]
# array, which keeps every gemm touching the probabilities contiguous.


def attn_probs_inplace(p: np.ndarray, grid: np.ndarray, pad: np.ndarray):
    """Turn key-major raw scores into probabilities in place; returns the
    pad probability array.

    ``grid`` is the key-major bias [H, N_keys, N_queries] and ``pad`` the
    pad logit [H, N_queries]. A logit gap below log(tiny) of the buffer's
    dtype would exponentiate to a subnormal; it is flushed to -inf so its
    probability is an exact zero. After a switch at beta=100 that is nearly
    the whole column, and subnormal arithmetic is many times slower than
    normal arithmetic on this path.
    """
    p += grid
    m = p.max(axis=-2)
    np.maximum(m, pad, out=m)
    p -= m[..., None, :]
    floor = np.log(np.finfo(p.dtype).tiny)
    np.copyto(p, -np.inf, where=p < floor)
    np.exp(p, out=p)
    e_pad = pad - m
    np.copyto(e_pad, -np.inf, where=e_pad < floor)
    np.exp(e_pad, out=e_pad)
    s = p.sum(axis=-2)
    s += e_pad
    p /= s[..., None, :]
    return e_pad / s


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
    numpy float64 scalar would promote the whole [B, H, N, N] buffer)."""
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


def _slice_probs(k: np.ndarray, q_s: np.ndarray, grid: np.ndarray, pad: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """Key-major probabilities of one batch slice into ``out``; returns the
    pad probabilities. Shared by the fused op and the inspection helper so
    both always compute the same thing."""
    np.matmul(k, q_s.swapaxes(-1, -2), out=out)
    return attn_probs_inplace(out, grid, pad)


def attention_mix(x: Tensor, a: AttnMixer) -> Tensor:
    """The attention mixer as one tape node: [B, h_t, w_t, d] in and out.

    Sum over heads of softmax(q k^T * scale + B) v W_o, plus the output
    bias. q, k and v come from one stacked gemm and are read as strided
    per-head views; head outputs are written straight into a [B, N, H, d_h]
    buffer that the output projection reads flat, so no head transpose is
    copied. Scores, softmax and value mixing run per batch slice of about
    _SLICE_BYTES of probabilities. The full probability buffer is kept only
    when a tape records the node; a tape-free forward reuses one slice.
    The pad key contributes only to the softmax denominator since its value
    vector is zero.
    """
    batch, h_t, w_t, d = x.shape
    n, heads, d_h = h_t * w_t, a.n_heads, a.d_head
    inputs = (x, a.w_q, a.w_k, a.w_v, a.w_o, a.b_rel, a.out_bias)
    taped = tt.recording(inputs)
    x_flat = x.data.reshape(batch * n, d)
    w, qkv, (q_s, k, v) = _qkv_gemm(x_flat, a, batch, n)
    grid, pad, pad_weights = _bias_logits(a.b_rel.data, h_t, w_t, a.pad_token_enabled)
    slices = _batch_slices(batch, heads, n, qkv.dtype)
    p = np.empty((batch if taped else slices[0].stop, heads, n, n), dtype=qkv.dtype)
    p_pad = np.empty((batch, heads, n), dtype=qkv.dtype)
    merged = np.empty((batch * n, heads * d_h), dtype=qkv.dtype)
    o = merged.reshape(batch, n, heads, d_h).transpose(0, 2, 1, 3)
    for s in slices:
        ps = p[s] if taped else p[: s.stop - s.start]
        p_pad[s] = _slice_probs(k[s], q_s[s], grid, pad, ps)
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
        dp = np.empty((slices[0].stop, heads, n, n), dtype=np.result_type(v, d_o))
        ones_row = np.ones((1, dp.shape[0]), dtype=dp.dtype)
        grid_sum = np.zeros((heads, n, n), dtype=dp.dtype)  # batch-summed logit gradient
        pad_sum = np.zeros((heads, n), dtype=dp.dtype)
        for s in slices:
            rows = s.stop - s.start
            ps, dps = p[s], dp[:rows]
            np.matmul(ps, d_o[s], out=dv[s])
            np.matmul(v[s], d_o[s].swapaxes(-1, -2), out=dps)
            dpad = attn_softmax_backward(ps, p_pad[s], dps)  # dps becomes the logit gradient
            summed = ones_row[:, :rows] @ dps.reshape(rows, grid_sum.size)  # batch-sum via gemv
            grid_sum += summed.reshape(grid_sum.shape)
            pad_sum += dpad.sum(axis=0)
            np.matmul(dps.swapaxes(-1, -2), k[s], out=dq[s])
            np.matmul(dps, q_s[s], out=dk[s])
        dq *= _attn_scale(d)
        d_w = (x_flat.T @ d_qkv).reshape(d, 3, heads, d_h)
        d_wq, d_wk, d_wv = (np.ascontiguousarray(d_w[:, i].transpose(1, 0, 2)) for i in range(3))
        dx = (d_qkv @ w.T).reshape(x.shape)
        # key-major grid-logit gradient scattered into the table, all heads
        # in one pass over the key-major index
        idx = _rel_geometry(h_t, w_t)[0]
        r = a.b_rel.data[0].size
        bins = (np.arange(heads)[:, None] * r + idx.reshape(1, -1)).reshape(-1)
        d_flat = np.bincount(bins, weights=grid_sum.reshape(-1).astype(np.float64),
                             minlength=heads * r).reshape(heads, r)
        # pad-logit gradient routed into the table through the off-grid
        # logsumexp weights
        d_flat += np.einsum("hq,hqr->hr", pad_sum, pad_weights)
        d_rel = d_flat.reshape(a.b_rel.shape).astype(a.b_rel.data.dtype)
        return dx, d_wq, d_wk, d_wv, d_w_o, d_rel, d_out_bias

    return record(out, inputs, bwd)


def attention_scores(x: Tensor, head: int, a: AttnMixer) -> Tensor:
    """Attention rows for one head on a single sample: [N, N_keys].

    Inspection helper over the same probability computation mhsa_forward
    uses, returned query-major; the result is detached from any active tape.
    """
    _check_attn_input(x, a)
    if x.shape[0] != 1:
        raise ShapeError("attention_scores inspects a single sample; pass batch 1")
    if not 0 <= head < a.n_heads:
        raise ShapeError(f"head {head} out of range 0..{a.n_heads - 1}")
    h_t, w_t = a.grid_hw
    n = h_t * w_t
    _, qkv, (q_s, k, _) = _qkv_gemm(x.data.reshape(n, a.dim), a, 1, n)
    grid, pad, _ = _bias_logits(a.b_rel.data, h_t, w_t, a.pad_token_enabled)
    p = np.empty((1, a.n_heads, n, n), dtype=qkv.dtype)
    p_pad = _slice_probs(k, q_s, grid, pad, p)
    rows = p[0, head].T
    if a.pad_token_enabled:
        rows = np.concatenate([rows, p_pad[0, head][:, None]], axis=-1)
    return Tensor(rows)


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
