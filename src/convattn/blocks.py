"""Token-mixing blocks: patch embedding, conv mixer, relative-bias MHSA, MLP.

Both mixers share the residual block skeleton
    z' = Mixer(LN(z)) + z
    z  = MLP(LN(z')) + z'
and operate on a TokenGrid, a batch of token maps with explicit 2-D lattice
geometry. The attention mixer carries a relative positional bias table plus
an optional pad slot: one extra key whose value vector is all zeros, standing
in for every position outside the grid. The pad logit is the exact collapse
(logsumexp) of the bias entries at the query's off-grid offsets, which is
what makes a reparameterized convolution match zero padding on border tokens.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import tensor as tt
from .schedule import CONV, SA
from .tensor import ShapeError, Tensor, record

__all__ = [
    "TokenGrid",
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
    "expand_rel_bias",
    "build_model",
]


class TokenGrid:
    """Batch of token maps: a [batch, h_t, w_t, d] tensor plus its geometry.

    Flattening to [batch, N, d] tokens and back is lossless; N = h_t * w_t.
    """

    __slots__ = ("data", "h_t", "w_t")

    def __init__(self, data: Tensor, h_t: int, w_t: int):
        if data.ndim != 4 or data.shape[1] != h_t or data.shape[2] != w_t:
            raise ShapeError(f"token grid data {data.shape} does not match lattice {h_t}x{w_t}")
        self.data = data
        self.h_t = h_t
        self.w_t = w_t

    @property
    def batch(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[3]

    @property
    def n_tokens(self) -> int:
        return self.h_t * self.w_t

    def tokens(self) -> Tensor:
        """Row-major flattening to [batch, N, d]."""
        return tt.reshape(self.data, (self.batch, self.n_tokens, self.d))

    @staticmethod
    def from_tokens(tokens: Tensor, h_t: int, w_t: int) -> "TokenGrid":
        b, n, d = tokens.shape
        if n != h_t * w_t:
            raise ShapeError(f"{n} tokens cannot fill a {h_t}x{w_t} lattice")
        return TokenGrid(tt.reshape(tokens, (b, h_t, w_t, d)), h_t, w_t)

    def like(self, data: Tensor) -> "TokenGrid":
        return TokenGrid(data, self.h_t, self.w_t)


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


def patch_embed_forward(image: Tensor, pe: PatchEmbed) -> TokenGrid:
    """Embed a [batch, H, W, C] image batch into a token grid."""
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
    tokens = tt.matmul(x, pe.projection)
    tokens = tt.reshape(tokens, (b, ht * wt, pe.dim))
    if pe.use_abs_pos:
        tokens = tt.add(tokens, pe.pos_table)
    return TokenGrid.from_tokens(tokens, ht, wt)


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

    def freeze(self) -> None:
        self.kernel.requires_grad = False
        self.bias.requires_grad = False


def conv_mixer_forward(x: TokenGrid, m: ConvMixer) -> TokenGrid:
    if x.d != m.dim:
        raise ShapeError(f"grid channels {x.d} != mixer dim {m.dim}")
    return x.like(tt.conv2d_same(x.data, m.kernel, m.bias))


# --------------------------------------------------------------------------
# Relative-bias geometry

# Cached per lattice: flat relative-offset index for every (query, key) pair,
# and the per-query mask of table offsets that step outside the grid. Every
# caller shares the cached arrays, so they are read-only.


@lru_cache(maxsize=32)
def _rel_geometry(h_t: int, w_t: int):
    n = h_t * w_t
    rows, cols = np.divmod(np.arange(n), w_t)
    drow = rows[None, :] - rows[:, None]  # key minus query
    dcol = cols[None, :] - cols[:, None]
    idx = (drow + h_t - 1) * (2 * w_t - 1) + (dcol + w_t - 1)  # [N, N]

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
    """Expand a [H, 2h-1, 2w-1] table into (grid [H, N, N], pad [H, N], pad weights [H, N, R]).

    Grid part: B[h, q, k] = table entry at the key-minus-query offset, so
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
    grid = flat[:, idx]  # [H, N, N]
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


def expand_rel_bias(b_rel: np.ndarray, h_t: int, w_t: int, pad_token: bool) -> np.ndarray:
    """Per-pair logits [H, N, N(+1)]: the grid logits, then the pad column when enabled."""
    grid, pad, _ = _bias_logits(b_rel, h_t, w_t, pad_token)
    return np.concatenate([grid, pad[:, :, None]], axis=-1) if pad_token else grid


# The pad slot is carried out-of-band: probability arrays stay [.., N] over
# grid keys and the pad probability is a separate [batch, heads, N] array,
# which keeps every gemm touching the probabilities contiguous.


def attn_probs_inplace(p: np.ndarray, grid: np.ndarray, pad: np.ndarray):
    """Turn raw scores into probabilities in place; returns the pad
    probability array."""
    p += grid
    pad_b = np.broadcast_to(pad, p.shape[:-1])
    m = np.maximum(p.max(axis=-1), pad_b)
    p -= m[..., None]
    np.exp(p, out=p)
    e_pad = np.exp(pad_b - m)
    s = p.sum(axis=-1) + e_pad
    p /= s[..., None]
    return (e_pad / s).astype(p.dtype)


def attn_softmax_backward(p: np.ndarray, p_pad: np.ndarray, dp: np.ndarray):
    """Softmax-input gradient in place on ``dp``; returns the pad-logit
    gradient."""
    dot = np.einsum("bhqk,bhqk->bhq", p, dp)
    dp -= dot[..., None]
    dp *= p
    return p_pad * -dot


def _attn_probs(q_scaled: np.ndarray, k: np.ndarray, b_rel_data: np.ndarray,
                h_t: int, w_t: int, pad_token: bool):
    """Attention probabilities over grid keys plus backward ingredients.

    Returns (p [B, H, N, N], p_pad [B, H, N], pad_weights). Shared by the
    fused training op and the inspection helper so both always compute the
    same thing.
    """
    grid, pad, pad_weights = _bias_logits(b_rel_data, h_t, w_t, pad_token)
    p = np.matmul(q_scaled, k.swapaxes(-1, -2))
    p_pad = attn_probs_inplace(p, grid, pad)
    return p, p_pad, pad_weights


def attention_mix(q: Tensor, k: Tensor, v: Tensor, b_rel: Tensor,
                  h_t: int, w_t: int, pad_token: bool, scale: float) -> Tensor:
    """Fused per-head attention: softmax(q k^T * scale + B) v.

    One tape node covering score computation, bias attachment (pad slot
    included), softmax, and value mixing; fusing these keeps the [B, H, N,
    N] traffic to a single retained buffer. The pad key contributes only to
    the softmax denominator since its value vector is zero.
    """
    q_s = q.data * scale
    p, p_pad, pad_weights = _attn_probs(q_s, k.data, b_rel.data, h_t, w_t, pad_token)
    out = Tensor(p @ v.data)
    heads = b_rel.shape[0]

    def bwd(g):
        dv = p.swapaxes(-1, -2) @ g
        dp = g @ v.data.swapaxes(-1, -2)  # [B, H, N, N]
        dpad = attn_softmax_backward(p, p_pad, dp)  # dp becomes the logit gradient
        batch = dp.shape[0]
        ones_row = np.ones((1, batch), dtype=dp.dtype)
        summed = (ones_row @ dp.reshape(batch, -1)).reshape(dp.shape[1:])  # batch-sum via gemv
        idx = _rel_geometry(h_t, w_t)[0]
        r = b_rel.data.reshape(heads, -1).shape[1]
        # grid-logit gradient scattered into the table, all heads in one pass
        bins = (np.arange(heads)[:, None] * r + idx.reshape(1, -1)).reshape(-1)
        d_flat = np.bincount(bins, weights=summed.reshape(-1).astype(np.float64),
                             minlength=heads * r).reshape(heads, r)
        # pad-logit gradient routed into the table through the off-grid
        # logsumexp weights
        d_flat += np.einsum("hq,hqr->hr", dpad.sum(axis=0), pad_weights)
        dq = dp @ k.data
        dq *= scale
        dk = dp.swapaxes(-1, -2) @ q_s
        return dq, dk, dv, d_flat.reshape(b_rel.shape).astype(b_rel.data.dtype)

    return record(out, (q, k, v, b_rel), bwd)


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


def _project_heads(tokens_flat: Tensor, w: Tensor, b: int, n: int) -> Tensor:
    """[B*N, d] x [H, d, d_h] -> [B, H, N, d_h] through one flat matmul."""
    heads, d, d_h = w.shape
    w_flat = tt.reshape(tt.transpose(w, (1, 0, 2)), (d, heads * d_h))
    p = tt.matmul(tokens_flat, w_flat)
    p = tt.reshape(p, (b, n, heads, d_h))
    return tt.transpose(p, (0, 2, 1, 3))


def _project_qkv(x: TokenGrid, a: AttnMixer) -> tuple[Tensor, Tensor, Tensor]:
    if (x.h_t, x.w_t) != a.grid_hw:
        raise ShapeError(f"grid {x.h_t}x{x.w_t} does not match mixer geometry {a.grid_hw}")
    b, n, d = x.batch, x.n_tokens, x.d
    if d != a.dim:
        raise ShapeError(f"grid channels {d} != mixer dim {a.dim}")
    flat = tt.reshape(x.tokens(), (b * n, d))
    q = _project_heads(flat, a.w_q, b, n)
    k = _project_heads(flat, a.w_k, b, n)
    v = _project_heads(flat, a.w_v, b, n)
    return q, k, v


def attention_scores(x: TokenGrid, head: int, a: AttnMixer) -> Tensor:
    """Attention rows for one head on a single sample: [N, N_keys].

    Inspection helper over the same probability computation mhsa_forward
    uses; the result is detached from any active tape.
    """
    if x.batch != 1:
        raise ShapeError("attention_scores inspects a single sample; pass batch 1")
    if not 0 <= head < a.n_heads:
        raise ShapeError(f"head {head} out of range 0..{a.n_heads - 1}")
    q, k, _ = _project_qkv(x, a)
    q_s = q.data * (1.0 / np.sqrt(a.dim))
    p, p_pad, _ = _attn_probs(q_s, k.data, a.b_rel.data, x.h_t, x.w_t, a.pad_token_enabled)
    rows = p[0, head]
    if a.pad_token_enabled:
        rows = np.concatenate([rows, p_pad[0, head][:, None]], axis=-1)
    return Tensor(rows.copy())


def mhsa_forward(x: TokenGrid, a: AttnMixer) -> TokenGrid:
    """Sum over heads of softmax(QK^T/sqrt(d) + B) V W_o, plus output bias.

    The scale divisor is sqrt(d) as the block's token width, and the pad key
    (when enabled) contributes a zero value vector.
    """
    b, n, d = x.batch, x.n_tokens, x.d
    q, k, v = _project_qkv(x, a)
    per_head = attention_mix(q, k, v, a.b_rel, x.h_t, x.w_t, a.pad_token_enabled, 1.0 / np.sqrt(d))
    merged = tt.reshape(tt.transpose(per_head, (0, 2, 1, 3)), (b * n, a.n_heads * a.d_head))
    w_o_flat = tt.reshape(a.w_o, (a.n_heads * a.d_head, d))
    out = tt.add(tt.matmul(merged, w_o_flat), a.out_bias)
    return x.like(tt.reshape(out, (b, x.h_t, x.w_t, d)))


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
    """One transformer block whose token mixer is conv or self-attention.

    Both mixers may be stored during a transition (the conv is kept frozen
    for audit after a switch) but only the one matching ``mode`` runs.
    """

    def __init__(self, mode: str, conv: ConvMixer | None, attn: AttnMixer | None,
                 ln1: LayerNormParams, ln2: LayerNormParams, mlp: Mlp):
        if mode not in (CONV, SA):
            raise ValueError(f"mode must be {CONV!r} or {SA!r}, got {mode!r}")
        self.mode = mode
        self.conv = conv
        self.attn = attn
        self.ln1 = ln1
        self.ln2 = ln2
        self.mlp = mlp

    def active_mixer(self):
        mixer = self.conv if self.mode == CONV else self.attn
        if mixer is None:
            raise RuntimeError(f"block is in {self.mode!r} mode but has no such mixer")
        return mixer

    def named_parameters(self):
        # The off-mode conv kept after a switch is frozen and not enumerated.
        if self.mode == CONV and self.conv is not None:
            for name, p in self.conv.named_parameters():
                yield f"conv.{name}", p
        if self.mode == SA and self.attn is not None:
            for name, p in self.attn.named_parameters():
                yield f"attn.{name}", p
        for prefix, comp in (("ln1", self.ln1), ("ln2", self.ln2), ("mlp", self.mlp)):
            for name, p in comp.named_parameters():
                yield f"{prefix}.{name}", p


def block_forward(z: TokenGrid, b: HybridBlock) -> TokenGrid:
    return _block_outputs(z, b)[0]


def _block_outputs(z: TokenGrid, b: HybridBlock) -> tuple[TokenGrid, TokenGrid]:
    """(z_l, pre-residual MLP branch); the branch feeds the spectral tap option."""
    mixer = b.active_mixer()
    normed = z.like(b.ln1.forward(z.data))
    mixed = conv_mixer_forward(normed, mixer) if b.mode == CONV else mhsa_forward(normed, mixer)
    z1 = z.like(tt.add(mixed.data, z.data))
    flat = tt.reshape(b.ln2.forward(z1.data), (z1.batch * z1.n_tokens, z1.d))
    branch = tt.reshape(b.mlp.forward(flat), z1.data.shape)
    return z1.like(tt.add(branch, z1.data)), z1.like(branch)


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


def _check_modes(model: Model, epoch: int | None, sched) -> None:
    if sched is None:
        return
    from .schedule import mode_at  # local import keeps module deps one-way

    for i, blk in enumerate(model.blocks):
        expected = mode_at(sched, epoch, i + 1)
        if blk.mode != expected:
            raise AssertionError(
                f"block {i + 1} is {blk.mode!r} but the schedule expects {expected!r} at epoch {epoch}"
            )


def model_forward(images: Tensor, model: Model, epoch: int | None = None, sched=None) -> Tensor:
    """Logits [batch, classes]; asserts block modes match the schedule when given."""
    return _forward(images, model, epoch, sched, tap=None)[0]


def model_forward_features(images: Tensor, model: Model, epoch: int | None = None, sched=None,
                           tap: str = "post-residual") -> tuple[Tensor, list[TokenGrid]]:
    """Forward pass that also captures each block's output TokenGrid.

    ``tap`` selects what is captured: "post-residual" is z_l itself,
    "pre-residual" is the final sublayer branch before its residual add.
    """
    if tap not in ("post-residual", "pre-residual"):
        raise ValueError(f"unknown tap point {tap!r}")
    return _forward(images, model, epoch, sched, tap)


def _forward(images: Tensor, model: Model, epoch: int | None, sched,
             tap: str | None) -> tuple[Tensor, list[TokenGrid]]:
    """Logits plus the grids ``tap`` selects (none when ``tap`` is None)."""
    _check_modes(model, epoch, sched)
    z = patch_embed_forward(images, model.patch_embed)
    captured: list[TokenGrid] = []
    for blk in model.blocks:
        z, branch = _block_outputs(z, blk)
        if tap is not None:
            captured.append(z if tap == "post-residual" else branch)
    feats = z.data
    if model.final_ln is not None:
        feats = model.final_ln.forward(feats)
    pooled = tt.mean_(tt.reshape(feats, (z.batch, z.n_tokens, z.d)), axis=1)
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
        conv = attn = None
        if mode == CONV:
            conv = ConvMixer.init(kernel_size, dim, rng)
        else:
            attn = AttnMixer.init(dim, kernel_size * kernel_size, dim, grid_hw, rng)
        blocks.append(HybridBlock(mode, conv, attn, LayerNormParams(dim), LayerNormParams(dim),
                                  Mlp.init(dim, mlp_ratio, rng)))
    head_w = Tensor(rng.normal(0.0, 0.02, size=(dim, num_classes)), requires_grad=True)
    head_b = Tensor(np.zeros(num_classes), requires_grad=True)
    return Model(pe, blocks, head_w, head_b, LayerNormParams(dim) if final_ln else None)
