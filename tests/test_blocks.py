import numpy as np
import pytest

from convattn import blocks
from convattn import tensor as tt
from convattn.blocks import (
    AttnMixer,
    ConvMixer,
    HybridBlock,
    LayerNormParams,
    Mlp,
    PatchEmbed,
    _bias_logits,
    _rel_geometry,
    attention_mix,
    attention_scores,
    block_forward,
    build_model,
    conv_mixer_forward,
    mhsa_forward,
    model_forward,
    model_forward_features,
    patch_embed_forward,
)
from convattn.schedule import CONV, SA
from convattn.tensor import ShapeError, Tensor, finite_diff_check
from oracles import mhsa_loops, model_forward_straightline, mul, patch_embed_loops, sum_


def grid_of(rng, b, h, w, d):
    return Tensor(rng.normal(size=(b, h, w, d)))


# --------------------------------------------------------------------------
# Patch embedding


def test_patch_embed_grid_arithmetic(rng):
    pe = PatchEmbed(4, 3, 16, (8, 8), rng)
    image = Tensor(rng.normal(size=(2, 32, 32, 3)))
    out = patch_embed_forward(image, pe)
    assert out.shape == (2, 8, 8, 16)


def test_patch_embed_constant_image_gives_equal_tokens(rng):
    pe = PatchEmbed(2, 1, 6, (3, 3), rng)
    image = Tensor(np.full((1, 6, 6, 1), 0.5))
    out = patch_embed_forward(image, pe).data.reshape(9, 6)
    np.testing.assert_allclose(out, np.broadcast_to(out[0], out.shape), rtol=1e-5, atol=1e-7)


def test_patch_embed_matches_loop_oracle(rng):
    pe = PatchEmbed(4, 3, 8, (2, 2), rng)
    image = rng.normal(size=(2, 8, 8, 3)).astype(np.float32)
    out = patch_embed_forward(Tensor(image), pe)
    expected = patch_embed_loops(image, pe.projection.data, 4)
    np.testing.assert_allclose(out.data, expected, atol=1e-5)


def test_patch_embed_rejects_indivisible(rng):
    pe = PatchEmbed(5, 3, 8, (6, 6), rng)
    with pytest.raises(ShapeError, match="divisible"):
        patch_embed_forward(Tensor(rng.normal(size=(1, 32, 32, 3))), pe)


def test_patch_embed_abs_pos_added(rng):
    pe = PatchEmbed(4, 1, 4, (2, 2), rng, use_abs_pos=True)
    image = Tensor(np.zeros((1, 8, 8, 1)))
    out = patch_embed_forward(image, pe)
    np.testing.assert_allclose(out.data.reshape(4, 4), pe.pos_table.data, atol=1e-6)


# --------------------------------------------------------------------------
# Conv mixer


def test_conv_mixer_zero_input_gives_bias(rng):
    m = ConvMixer.init(3, 4, rng)
    m.bias.data[:] = rng.normal(size=4)
    out = conv_mixer_forward(Tensor(np.zeros((1, 3, 3, 4))), m)
    np.testing.assert_allclose(out.data, np.broadcast_to(m.bias.data, (1, 3, 3, 4)), atol=1e-7)


# --------------------------------------------------------------------------
# Input checks


@pytest.mark.parametrize("call, shape, message", [
    ("mhsa", (2, 9, 4), r"must be \[batch, h_t, w_t, d\]"),  # flat tokens, not token maps
    ("mhsa", (2, 3, 4, 4), "does not match mixer geometry"),
    ("mhsa", (2, 3, 3, 5), "!= mixer dim"),
    ("conv", (2, 3, 3, 5), r"are not \[batch, h_t, w_t, 4\]"),
    ("scores", (2, 3, 3, 4), "single sample"),
])
def test_mixers_check_token_maps(rng, call, shape, message):
    # the lattice is read from the input's shape, so each mixer checks it
    # against its own geometry before computing anything
    d = 4
    a = AttnMixer.init(d, 9, d, (3, 3), rng)
    m = ConvMixer.init(3, d, rng)
    run = {"mhsa": lambda x: mhsa_forward(x, a), "conv": lambda x: conv_mixer_forward(x, m),
           "scores": lambda x: attention_scores(x, 0, a)}[call]
    with pytest.raises(ShapeError, match=message):
        run(Tensor(rng.normal(size=shape)))


# --------------------------------------------------------------------------
# Relative bias expansion


def test_rel_bias_translation_consistency(rng):
    h_t = w_t = 4
    b_rel = rng.normal(size=(2, 2 * h_t - 1, 2 * w_t - 1))
    grid, _, _ = _bias_logits(b_rel, h_t, w_t, pad_token=False)
    n = h_t * w_t
    rows, cols = np.divmod(np.arange(n), w_t)
    for _ in range(50):
        q1, k1, q2, k2 = rng.integers(0, n, size=4)
        off1 = (rows[k1] - rows[q1], cols[k1] - cols[q1])
        off2 = (rows[k2] - rows[q2], cols[k2] - cols[q2])
        # key-major: grid[:, k, q] reads the table at the key-minus-query offset
        np.testing.assert_array_equal(grid[:, k1, q1], b_rel[:, off1[0] + h_t - 1, off1[1] + w_t - 1])
        if off1 == off2:
            np.testing.assert_array_equal(grid[:, k1, q1], grid[:, k2, q2])


def test_rel_bias_pad_collapses_offgrid_mass(rng):
    # pad logit equals logsumexp of the table over the query's off-grid offsets
    h_t = w_t = 3
    b_rel = rng.normal(size=(1, 5, 5))
    _, pad, _ = _bias_logits(b_rel, h_t, w_t, pad_token=True)
    rows, cols = np.divmod(np.arange(9), 3)
    for q in range(9):
        offgrid = []
        for dr in range(-2, 3):
            for dc in range(-2, 3):
                if not (0 <= rows[q] + dr < 3 and 0 <= cols[q] + dc < 3):
                    offgrid.append(b_rel[0, dr + 2, dc + 2])
        expected = np.log(np.exp(np.asarray(offgrid)).sum())
        np.testing.assert_allclose(pad[0, q], expected, rtol=1e-5)


def test_rel_geometry_cache_is_read_only():
    # the cached index and mask are shared by every later caller
    idx, offgrid = _rel_geometry(3, 4)
    with pytest.raises(ValueError, match="read-only"):
        idx[0, 0] = 0
    with pytest.raises(ValueError, match="read-only"):
        offgrid[0, 0] = True


# --------------------------------------------------------------------------
# Attention


def test_attention_zero_weights_uniform(rng):
    d, heads = 4, 2
    a = AttnMixer.init(d, heads, d, (2, 2), rng)
    a.w_q.data[:] = 0
    a.w_k.data[:] = 0
    a.b_rel.data[:] = 0
    scores = attention_scores(grid_of(rng, 1, 2, 2, d), 0, a)
    np.testing.assert_allclose(scores.data, 0.25, atol=1e-6)


def test_attention_spike_is_one_hot(rng):
    d = 4
    a = AttnMixer.init(d, 1, d, (3, 3), rng)
    a.w_q.data[:] = 0
    a.w_k.data[:] = 0
    a.b_rel.data[:] = 0
    a.b_rel.data[0, 2 + 0, 2 + 1] = 100.0  # offset (0, +1)
    scores = attention_scores(grid_of(rng, 1, 3, 3, d), 0, a).data
    # query (0,0) -> key (0,1) which is flat index 1
    assert scores[0].argmax() == 1
    assert scores[0, 1] >= 1.0 - 9 * np.exp(-100.0)


def test_attention_rows_sum_to_one_with_pad(rng):
    d = 6
    a = AttnMixer.init(d, 3, d, (3, 3), rng, pad_token_enabled=True)
    a.b_rel.data[:] = rng.normal(size=a.b_rel.shape)
    scores = attention_scores(grid_of(rng, 1, 3, 3, d), 1, a).data
    assert scores.shape == (9, 10)
    np.testing.assert_allclose(scores.sum(axis=-1), 1.0, atol=1e-6)
    assert np.all(scores >= 0)


def test_attention_scores_match_bruteforce(rng):
    with tt.using_dtype(np.float64):
        d, h_t, w_t = 5, 3, 3
        a = AttnMixer.init(d, 2, d, (h_t, w_t), rng)
        a.b_rel.data = rng.normal(size=a.b_rel.shape)
        x = rng.normal(size=(1, h_t, w_t, d))
        got = attention_scores(Tensor(x), 1, a).data
        # brute force: softmax over expanded logits
        flat = x.reshape(9, d)
        q = flat @ a.w_q.data[1]
        k = flat @ a.w_k.data[1]
        grid = _bias_logits(a.b_rel.data, h_t, w_t, False)[0][1]  # [k, q]
        logits = q @ k.T / np.sqrt(d) + grid.T
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        expected = e / e.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(got, expected, atol=1e-6)


def test_mhsa_zero_output_projection_gives_bias(rng):
    d = 4
    a = AttnMixer.init(d, 2, d, (2, 3), rng)
    a.w_o.data[:] = 0
    a.out_bias.data[:] = rng.normal(size=d)
    out = mhsa_forward(grid_of(rng, 2, 2, 3, d), a)
    np.testing.assert_allclose(out.data, np.broadcast_to(a.out_bias.data, (2, 2, 3, d)), atol=1e-6)


def test_mhsa_one_hot_offset_selection(rng):
    # single head, spike at offset (0,1), identity values: out[p] = x[p+(0,1)] @ w_o
    d, h_t, w_t = 3, 2, 3
    a = AttnMixer.init(d, 1, d, (h_t, w_t), rng, pad_token_enabled=True)
    a.w_q.data[:] = 0
    a.w_k.data[:] = 0
    a.w_v.data[0] = np.eye(d)
    a.b_rel.data[:] = 0
    a.b_rel.data[0, h_t - 1, w_t - 1 + 1] = 100.0
    a.out_bias.data[:] = 0
    x = rng.normal(size=(1, h_t, w_t, d)).astype(np.float32)
    out = mhsa_forward(Tensor(x), a).data
    shifted = np.zeros_like(x)
    shifted[:, :, :-1, :] = x[:, :, 1:, :]  # token at p+(0,1), zero where off-grid
    np.testing.assert_allclose(out, shifted @ a.w_o.data[0], atol=1e-5)


@pytest.mark.parametrize("pad", [False, True])
def test_mhsa_matches_bruteforce(rng, pad):
    with tt.using_dtype(np.float64):
        d, h_t, w_t = 4, 2, 2
        a = AttnMixer.init(d, 2, d, (h_t, w_t), rng, pad_token_enabled=pad)
        a.b_rel.data = rng.normal(size=a.b_rel.shape)
        a.out_bias.data = rng.normal(size=d)
        x = rng.normal(size=(2, h_t, w_t, d))
        got = mhsa_forward(Tensor(x), a).data
        expected = mhsa_loops(x.reshape(2, 4, d), a.w_q.data, a.w_k.data, a.w_v.data,
                              a.w_o.data, a.b_rel.data, a.out_bias.data, h_t, w_t, pad)
        np.testing.assert_allclose(got, expected.reshape(2, h_t, w_t, d), atol=1e-6)


@pytest.mark.parametrize("wrt", ["x", "q", "k", "v", "o", "b_rel", "out_bias"])
@pytest.mark.parametrize("pad", [False, True])
def test_attention_mix_gradient(rng, monkeypatch, pad, wrt):
    # the fused node w.r.t. its input and every parameter (q, k, v and o are
    # the projections w_q, w_k, w_v and w_o). Batch 5 in 2-row slices: two
    # full slices and a remainder, so the bias gradient's batch-sum runs
    # across slices; with the pad slot on, the pad logit's gradient also
    # reaches the table through the off-grid logsumexp weights
    with tt.using_dtype(np.float64):
        b, heads, h_t, w_t, d = 5, 2, 3, 3, 3
        n = h_t * w_t
        monkeypatch.setattr(blocks, "_SLICE_BYTES", 2 * heads * n * n * 8)
        assert [s.stop - s.start for s in blocks._batch_slices(b, heads, n, np.float64)] == [2, 2, 1]
        a = AttnMixer.init(d, heads, d, (h_t, w_t), rng, pad_token_enabled=pad)
        for _, param in a.named_parameters():
            param.data[:] = rng.normal(size=param.shape) / np.sqrt(d)
        a.b_rel.data[:] = rng.normal(size=a.b_rel.shape)
        x = Tensor(rng.normal(size=(b, h_t, w_t, d)))
        r = Tensor(rng.uniform(-1, 1, size=x.shape))
        targets = {"x": x, "q": a.w_q, "k": a.w_k, "v": a.w_v, "o": a.w_o, "b_rel": a.b_rel,
                   "out_bias": a.out_bias}

        def f(_):
            return sum_(mul(attention_mix(x, a), r))

        report = finite_diff_check(f, targets[wrt], step=1e-4, tol=1e-5)
        assert report.passed, report


def test_attention_mix_tape_free_forward_matches_taped(rng, monkeypatch):
    # without a tape the slices share one slice-sized probability buffer;
    # with one, each slice is its own part of the full buffer. The numbers
    # are bitwise the same either way, and the layer is one tape node
    d, h_t, w_t, b = 8, 4, 4, 7
    monkeypatch.setattr(blocks, "_SLICE_BYTES", 3 * 9 * (h_t * w_t) ** 2 * 4)  # slices of 3, 3, 1
    buffers = []
    probs_inplace = blocks.attn_probs_inplace

    def keep_buffer(p, grid, pad):
        buffers.append(p)
        return probs_inplace(p, grid, pad)

    monkeypatch.setattr(blocks, "attn_probs_inplace", keep_buffer)
    a = AttnMixer.init(d, 9, d, (h_t, w_t), rng, pad_token_enabled=True)
    a.b_rel.data[:] = rng.normal(size=a.b_rel.shape)
    x = Tensor(rng.normal(size=(b, h_t, w_t, d)))
    free = attention_mix(x, a)
    free_buffers, buffers[:] = list(buffers), []
    g = tt.Graph()
    with g:
        taped = attention_mix(x, a)
    assert not free.requires_grad and taped.requires_grad and len(g) == 1
    np.testing.assert_array_equal(free.data, taped.data)
    assert [p.shape[0] for p in free_buffers] == [p.shape[0] for p in buffers] == [3, 3, 1]
    assert all(np.shares_memory(p, free_buffers[0]) for p in free_buffers)
    assert not any(np.shares_memory(p, q) for i, p in enumerate(buffers) for q in buffers[:i])


def capture_attention(monkeypatch):
    """Record each slice's probabilities (p, p_pad) and each raw gradient
    tuple the fused attention op returns, before the tape casts it.

    ``p`` is stored as a query-major copy [B, H, N_queries, N_keys]: the op
    keeps it key-major, and a tape-free forward reuses its buffer."""
    probs, grads = [], []
    probs_inplace, record = blocks.attn_probs_inplace, blocks.record

    def capture_probs(p, grid, pad):
        p_pad = probs_inplace(p, grid, pad)
        probs.append((p.swapaxes(-1, -2).copy(), p_pad))
        return p_pad

    def capture_record(out, inputs, backward_fn):
        def bwd(g):
            result = backward_fn(g)
            grads.append(result)
            return result

        return record(out, inputs, bwd)

    monkeypatch.setattr(blocks, "attn_probs_inplace", capture_probs)
    monkeypatch.setattr(blocks, "record", capture_record)
    return probs, grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_runs_in_tensor_dtype(rng, monkeypatch, dtype):
    # float32 tensors keep the [B, H, N, N] buffer and every gradient float32
    # (a float64 scale would promote them); the float64 oracles stay float64
    probs, grads = capture_attention(monkeypatch)
    with tt.using_dtype(dtype):
        d = 8
        a = AttnMixer.init(d, 9, d, (4, 4), rng, pad_token_enabled=True)
        g = tt.Graph()
        with g:
            out = mhsa_forward(grid_of(rng, 2, 4, 4, d), a)
            loss = sum_(out)
        tt.backward(loss, g)
    [(p, p_pad)] = probs
    [raw] = grads  # dx, dw_q, dw_k, dw_v, dw_o, db_rel, dout_bias
    assert out.data.dtype == dtype
    assert p.dtype == p_pad.dtype == dtype
    assert [t.dtype for t in raw] == [dtype] * 7


# --------------------------------------------------------------------------
# Block


def make_block(rng, d, mode, h_t, w_t, k=3):
    mixer = ConvMixer.init(k, d, rng) if mode == CONV else AttnMixer.init(d, k * k, d, (h_t, w_t), rng)
    return HybridBlock(mixer, LayerNormParams(d), LayerNormParams(d), Mlp.init(d, 4, rng))


@pytest.mark.parametrize("mode", [CONV, SA])
def test_block_zero_sublayers_is_identity(rng, mode):
    d, h_t, w_t = 4, 3, 3
    blk = make_block(rng, d, mode, h_t, w_t)
    if mode == CONV:
        blk.conv.kernel.data[:] = 0
        blk.conv.bias.data[:] = 0
    else:
        blk.attn.w_o.data[:] = 0
        blk.attn.out_bias.data[:] = 0
    blk.mlp.w2.data[:] = 0
    blk.mlp.b2.data[:] = 0
    x = grid_of(rng, 2, h_t, w_t, d)
    out = block_forward(x, blk)
    np.testing.assert_array_equal(out.data, x.data)


@pytest.mark.parametrize("mode", [CONV, SA])
def test_block_gradient(rng, mode):
    with tt.using_dtype(np.float64):
        d, h_t, w_t = 3, 2, 2
        blk = make_block(rng, d, mode, h_t, w_t)
        r = Tensor(rng.uniform(-1, 1, size=(1, h_t, w_t, d)))
        x = Tensor(rng.uniform(-1, 1, size=(1, h_t, w_t, d)), requires_grad=True)

        def f(t):
            return sum_(mul(block_forward(t, blk), r))

        report = finite_diff_check(f, x, step=1e-3, tol=1e-3)
        assert report.passed, report


# --------------------------------------------------------------------------
# Model


def small_model(rng, modes, d=8, p=4, img=16, classes=5):
    return build_model(d, len(modes), 3, p, (img, img), 3, classes, modes, rng)


def test_model_zero_weights_logits_equal_head_bias(rng):
    model = small_model(rng, [CONV, SA])
    for _, param in model.named_parameters():
        param.data[:] = 0
    model.head_b.data[:] = rng.normal(size=5)
    logits = model_forward(Tensor(rng.normal(size=(3, 16, 16, 3))), model)
    np.testing.assert_allclose(logits.data, np.broadcast_to(model.head_b.data, (3, 5)), atol=1e-6)


def test_model_batch_permutation_equivariance(rng):
    model = small_model(rng, [CONV, SA])
    images = rng.normal(size=(4, 16, 16, 3)).astype(np.float32)
    perm = np.array([2, 0, 3, 1])
    base = model_forward(Tensor(images), model).data
    permuted = model_forward(Tensor(images[perm]), model).data
    np.testing.assert_allclose(permuted, base[perm], atol=1e-5)


def test_model_matches_straightline_reference(rng):
    with tt.using_dtype(np.float64):
        model = small_model(rng, [CONV, SA], d=8)
        model.blocks[1].attn.b_rel.data = rng.normal(size=model.blocks[1].attn.b_rel.shape)
        images = rng.normal(size=(2, 16, 16, 3))
        got = model_forward(Tensor(images), model).data
        expected = model_forward_straightline(images, model)
        np.testing.assert_allclose(got, expected, atol=1e-6)


def test_model_forward_features_taps(rng):
    model = small_model(rng, [CONV, SA])
    images = Tensor(rng.normal(size=(2, 16, 16, 3)))
    logits, post = model_forward_features(images, model, tap="post-residual")
    _, pre = model_forward_features(images, model, tap="pre-residual")
    assert len(post) == len(pre) == 2
    # post-residual captures include the residual stream, pre-residual only the branch
    assert not np.allclose(post[0].data, pre[0].data)
    np.testing.assert_allclose(logits.data, model_forward(images, model).data, atol=1e-6)


def test_model_gradient_through_two_blocks(rng):
    # tiny full model (2 blocks, d=8): gradients w.r.t. an early parameter
    # match central differences; composition curvature needs a smaller step
    # than the single-op default
    with tt.using_dtype(np.float64):
        model = small_model(rng, [CONV, SA], d=8, p=8, img=16, classes=3)
        images = Tensor(rng.uniform(-1, 1, size=(2, 16, 16, 3)))
        r = Tensor(rng.uniform(-1, 1, size=(2, 3)))
        probe = Tensor(model.blocks[0].conv.kernel.data.copy(), requires_grad=True)
        model.blocks[0].conv.kernel = probe

        def f(_):
            return sum_(mul(model_forward(images, model), r))

        idx = rng.choice(probe.size, size=40, replace=False)
        report = finite_diff_check(f, probe, step=1e-4, tol=1e-3, indices=idx)
        assert report.passed, report
