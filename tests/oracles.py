"""Brute-force reference implementations used as independent oracles.

Everything here is deliberately naive: explicit loops, plain numpy, no reuse
of the library's forward code. These pin down expected values for the fast
implementations. The exception is ``attention_scores``, an inspection helper
that runs the library's own softmax kernel on one sample.
"""

import numpy as np

from convattn import blocks
from convattn.tensor import ShapeError, Tensor, record


def conv2d_loops(x, kernel, bias):
    """Six-nested-loop zero-padded same convolution; [b, h, w, cin] input."""
    b, h, w, cin = x.shape
    k = kernel.shape[0]
    cout = kernel.shape[3]
    half = k // 2
    out = np.zeros((b, h, w, cout), dtype=np.float64)
    for bi in range(b):
        for r in range(h):
            for c in range(w):
                for i in range(k):
                    for j in range(k):
                        rr, cc = r + i - half, c + j - half
                        if 0 <= rr < h and 0 <= cc < w:
                            for ci in range(cin):
                                out[bi, r, c] += x[bi, rr, cc, ci] * kernel[i, j, ci]
                out[bi, r, c] += bias
    return out


def patch_embed_loops(image, proj, patch):
    """Reshape+matmul patch embedding, one patch at a time."""
    b, h, w, c = image.shape
    ht, wt = h // patch, w // patch
    d = proj.shape[1]
    out = np.zeros((b, ht, wt, d), dtype=np.float64)
    for bi in range(b):
        for pr in range(ht):
            for pc in range(wt):
                vec = []
                for i in range(patch):
                    for j in range(patch):
                        for ci in range(c):
                            vec.append(image[bi, pr * patch + i, pc * patch + j, ci])
                out[bi, pr, pc] = np.asarray(vec) @ proj
    return out


def mhsa_loops(x, w_q, w_k, w_v, w_o, b_rel, out_bias, h_t, w_t, pad_token):
    """Definition-level multi-head self-attention with relative bias.

    Builds the full bias matrix per head by reading the table at key-minus-
    query offsets; the pad slot (if any) aggregates every off-grid offset of
    the table as a zero-valued virtual key via exp-sum.
    """
    b, n, d = x.shape
    heads = w_q.shape[0]
    out = np.zeros((b, n, d), dtype=np.float64)
    rows, cols = np.divmod(np.arange(n), w_t)
    for bi in range(b):
        for head in range(heads):
            q = x[bi] @ w_q[head]
            k = x[bi] @ w_k[head]
            v = x[bi] @ w_v[head]
            logits = q @ k.T / np.sqrt(d)
            for qi in range(n):
                exps = []
                vals = []
                for ki in range(n):
                    dr, dc = rows[ki] - rows[qi], cols[ki] - cols[qi]
                    z = logits[qi, ki] + b_rel[head, dr + h_t - 1, dc + w_t - 1]
                    exps.append(np.exp(z))
                    vals.append(v[ki])
                if pad_token:
                    for dr in range(-(h_t - 1), h_t):
                        for dc in range(-(w_t - 1), w_t):
                            tr, tc = rows[qi] + dr, cols[qi] + dc
                            if not (0 <= tr < h_t and 0 <= tc < w_t):
                                exps.append(np.exp(b_rel[head, dr + h_t - 1, dc + w_t - 1]))
                                vals.append(np.zeros(w_v.shape[2]))
                total = np.sum(exps)
                mixed = sum(e * val for e, val in zip(exps, vals)) / total
                out[bi, qi] += mixed @ w_o[head]
        out[bi] += out_bias
    return out


def mixer_loops(x, a):
    """:func:`mhsa_loops` on the weights of the mixer ``a``; x is [b, n, d].
    A positional mixer is q = k = 0 with the pad slot."""
    if isinstance(a, blocks.PositionalMixer):
        w_q = w_k = np.zeros(a.w_v.shape, dtype=a.w_v.data.dtype)
        pad = True
    else:
        w_q, w_k, pad = a.w_q.data, a.w_k.data, False
    return mhsa_loops(x, w_q, w_k, a.w_v.data, a.w_o.data, a.b_rel.data, a.out_bias.data, *a.grid_hw, pad)


def attention_scores(x, head, a):
    """Attention rows for one head of an attention mixer on a single
    sample: [N, N_keys], with a last column for a positional mixer: the
    mass its query puts on table offsets off the grid, where the loop
    oracle's pad slot sits.

    Unlike the loop oracles this reuses the library's bias expansion and
    softmax kernel (``blocks.attn_probs_inplace``, read at call time so a
    test's spy on it sees the call), so the tests that read it exercise
    them. Its scores come from each head's own q and k, not from the
    layer's token-space products; a positional mixer has none, and its
    softmax runs over its head's table.
    """
    blocks._check_attn_input(x, a)
    if x.shape[0] != 1:
        raise ShapeError("attention_scores inspects a single sample; pass batch 1")
    if not 0 <= head < a.n_heads:
        raise ShapeError(f"head {head} out of range 0..{a.n_heads - 1}")
    h_t, w_t = a.grid_hw
    n = h_t * w_t
    table = a.b_rel.data
    if isinstance(a, blocks.PositionalMixer):
        s = np.zeros((1, a.n_heads, table[0].size, 1), dtype=table.dtype)
        blocks.attn_probs_inplace(s, table.reshape(a.n_heads, -1, 1), None)
        s, idx = s[0, head, :, 0], blocks._rel_geometry(h_t, w_t)  # idx [N_keys, N_queries]
        off_grid = np.ones((s.size, n), dtype=bool)
        off_grid[idx, np.arange(n)] = False  # column q: every offset query q reads
        return Tensor(np.concatenate([s[idx].T, (s[:, None] * off_grid).sum(axis=0)[:, None]], axis=-1))
    flat = x.data.reshape(n, a.dim)
    q_s = flat @ a.w_q.data * blocks._attn_scale(a.dim)  # [H, N, d_h]
    k = flat @ a.w_k.data
    p = (k @ q_s.swapaxes(-1, -2))[None]  # key-major [1, H, N_keys, N_queries]
    blocks.attn_probs_inplace(p, blocks._bias_logits(table, h_t, w_t), None)
    return Tensor(p[0, head].T)


def model_forward_straightline(images, model):
    """Reference no-tape forward pass of a whole model in float64 numpy."""
    from convattn.schedule import CONV

    pe = model.patch_embed
    x = patch_embed_loops(images.astype(np.float64), pe.projection.data.astype(np.float64), pe.patch_size)
    b, ht, wt, d = x.shape
    if pe.use_abs_pos:
        x = x + pe.pos_table.data.reshape(ht, wt, d)
    n = ht * wt

    def layer_norm(v, gamma, beta, eps=1e-5):
        mu = v.mean(axis=-1, keepdims=True)
        var = ((v - mu) ** 2).mean(axis=-1, keepdims=True)
        return (v - mu) / np.sqrt(var + eps) * gamma + beta

    def gelu(v):
        c = np.sqrt(2.0 / np.pi)
        return 0.5 * v * (1.0 + np.tanh(c * (v + 0.044715 * v**3)))

    for blk in model.blocks:
        normed = layer_norm(x, blk.ln1.gamma.data, blk.ln1.beta.data)
        if blk.mode == CONV:
            mixed = conv2d_loops(normed, blk.conv.kernel.data.astype(np.float64),
                                 blk.conv.bias.data.astype(np.float64))
        else:
            mixed = mixer_loops(normed.reshape(b, n, d), blk.attn).reshape(b, ht, wt, d)
        x = x + mixed
        normed = layer_norm(x, blk.ln2.gamma.data, blk.ln2.beta.data)
        hidden = gelu(normed.reshape(-1, d) @ blk.mlp.w1.data + blk.mlp.b1.data)
        x = x + (hidden @ blk.mlp.w2.data + blk.mlp.b2.data).reshape(x.shape)

    if model.final_ln is not None:
        x = layer_norm(x, model.final_ln.gamma.data, model.final_ln.beta.data)
    pooled = x.reshape(b, n, d).mean(axis=1)
    return pooled @ model.head_w.data + model.head_b.data


def box_blur_circular(maps):
    """3x3 circular box blur of [n, h, w] maps (for filter-response oracles)."""
    out = np.zeros_like(maps)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            out += np.roll(np.roll(maps, di, axis=1), dj, axis=2)
    return out / 9.0


def box_filter_log_response(h, w):
    """Closed-form |H(u,v)| of the 3x3 box filter on an h x w DFT grid."""
    fu = np.fft.fftfreq(h)
    fv = np.fft.fftfreq(w)
    amp = np.abs((1 + 2 * np.cos(2 * np.pi * fu))[:, None] * (1 + 2 * np.cos(2 * np.pi * fv))[None, :]) / 9.0
    return np.log(amp + 1e-12)


def adamw_closed_form(x0, grad, lr, beta1, beta2, eps, wd):
    """One AdamW step from zero moments, written out directly."""
    m = (1 - beta1) * grad
    v = (1 - beta2) * grad * grad
    m_hat = m / (1 - beta1)
    v_hat = v / (1 - beta2)
    return x0 - lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * x0)


# Tape ops the library never records, kept for the tests: sin has a
# closed-form derivative, relu a kink at zero, and sum_/mul turn an output
# into the scalar loss a gradient check differentiates.


def relu(a):
    out = Tensor(np.maximum(a.data, 0))
    return record(out, (a,), lambda g: (g * (a.data > 0),))


def sin(a):
    out = Tensor(np.sin(a.data))
    return record(out, (a,), lambda g: (g * np.cos(a.data),))


def sum_(a):
    """Sum of every element, as a scalar."""
    out = Tensor(a.data.sum())
    return record(out, (a,), lambda g: (np.broadcast_to(g, a.shape).copy(),))


def mul(a, b):
    """Elementwise product of two tensors of one shape."""
    if a.shape != b.shape:
        raise ValueError(f"mul needs equal shapes, got {a.shape} and {b.shape}")
    out = Tensor(a.data * b.data)
    return record(out, (a, b), lambda g: (g * b.data, g * a.data))


def depth_slope(profile, target):
    """Least-squares slope of a DepthProfile's delta log amplitude at
    ``target`` against normalized depth."""
    col = profile.targets.index(target)
    y = np.array([row[col] for row in profile.deltas])
    x = np.array(profile.depths)
    xc = x - x.mean()
    return float((xc * (y - y.mean())).sum() / (xc * xc).sum())


def make_synthetic_loop(num_classes=10, n_per_class=200, image_hw=(32, 32), channels=3, seed=0,
                        split="train", shift=6, noise=0.15):
    """``data.make_synthetic`` over the whole split, built one image at a time
    with two ``np.roll`` calls; returns (images, labels) in the dataset's order.

    The split's stream draws the label order, then every image's shift; image
    ``i`` draws its noise from the stream with spawn key ``i`` under the split's
    seed."""
    h, w = image_hw
    tag = 1 if split == "test" else 0
    pattern_rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5F17)))
    split_rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5A3B, tag)))
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    patterns = []
    for _ in range(num_classes):
        pat = np.zeros((h, w, channels), dtype=np.float64)
        for _ in range(4):
            fy, fx = pattern_rng.integers(1, 4, size=2)
            phase = pattern_rng.uniform(0, 2 * np.pi)
            amp = pattern_rng.uniform(0.5, 1.0)
            wave = amp * np.sin(2 * np.pi * (fy * yy / h + fx * xx / w) + phase)
            pat += wave[:, :, None] * pattern_rng.uniform(0.3, 1.0, size=channels)
        patterns.append(pat.astype(np.float32))
    n = num_classes * n_per_class
    labels = split_rng.permutation(np.repeat(np.arange(num_classes, dtype=np.int64), n_per_class))
    shifts = split_rng.integers(-shift, shift + 1, size=(n, 2))
    images = np.empty((n, h, w, channels), dtype=np.float32)
    for i in range(n):
        image_rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5A3B, tag), spawn_key=(i,)))
        dy, dx = shifts[i]
        img = np.roll(np.roll(patterns[labels[i]], dy, axis=0), dx, axis=1)
        img = image_rng.standard_normal((h, w, channels), dtype=np.float32) * noise + img
        images[i] = np.clip(0.5 + 0.2 * img, 0.0, 1.0)
    return images, labels


def hflip(image):
    return image[:, ::-1, :].copy()


def pad_crop(image, dy, dx, pad=4):
    """Zero-pad by ``pad`` then crop at offset (dy, dx); (pad, pad) restores."""
    h, w, _ = image.shape
    padded = np.pad(image, ((pad, pad), (pad, pad), (0, 0)))
    return padded[dy : dy + h, dx : dx + w, :].copy()


def augment(image, rng, pad=4, flip=True):
    """``data.augment_batch`` on one [h, w, c] image: random crop from zero
    padding plus horizontal flip, seeded by ``rng``."""
    dy, dx = rng.integers(0, 2 * pad + 1, size=2)
    out = pad_crop(image, int(dy), int(dx), pad=pad)
    if flip and rng.random() < 0.5:
        out = hflip(out)
    return out
