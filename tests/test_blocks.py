import tracemalloc

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
    PositionalMixer,
    _bias_logits,
    _rel_geometry,
    attention_mix,
    block_forward,
    build_model,
    conv_mixer_forward,
    mhsa_forward,
    model_forward,
    model_forward_features,
    patch_embed_forward,
)
from convattn.reparam import reparameterize, switch_block
from convattn.schedule import CONV, SA
from convattn.tensor import ShapeError, Tensor, finite_diff_check
from oracles import attention_scores, mixer_loops, model_forward_straightline, mul, patch_embed_loops, sum_


def grid_of(rng, b, h, w, d):
    return Tensor(rng.normal(size=(b, h, w, d)))


def positional_init(dim, n_heads, d_head, grid_hw, rng):
    """A PositionalMixer holding what AttnMixer.init draws for its value side
    and table (the draws for w_q and w_k are made and dropped)."""
    a = AttnMixer.init(dim, n_heads, d_head, grid_hw, rng)
    return PositionalMixer(a.w_v, a.w_o, a.b_rel, a.out_bias, grid_hw)


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
    grid = _bias_logits(b_rel, h_t, w_t)
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


def test_one_token_grid_has_no_pad_mass(rng):
    # on a 1x1 grid the table has one offset and it is on the grid, so a
    # positional layer puts all mass on its one token, whatever the table
    d = 3
    a = positional_init(d, 2, d, (1, 1), rng)
    a.b_rel.data[:] = rng.normal(size=a.b_rel.shape)
    x = Tensor(rng.normal(size=(2, 1, 1, d)), requires_grad=True)
    g = tt.Graph()
    with g:
        out = attention_mix(x, a)
        loss = sum_(out)
    grads = tt.backward(loss, g)
    expected = sum(x.data @ a.w_v.data[h] @ a.w_o.data[h] for h in range(2)) + a.out_bias.data
    np.testing.assert_allclose(out.data, expected, atol=1e-6)
    assert not grads[a.b_rel].any()


def test_rel_geometry_cache_is_read_only():
    # the cached index is shared by every later caller
    idx = _rel_geometry(3, 4)
    with pytest.raises(ValueError, match="read-only"):
        idx[0, 0] = 0


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
    # a positional row's last column is its mass off the grid, which the
    # loop oracle gives its pad slot
    d = 6
    a = positional_init(d, 3, d, (3, 3), rng)
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
        grid = _bias_logits(a.b_rel.data, h_t, w_t)[1]  # [k, q]
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
    a = positional_init(d, 1, d, (h_t, w_t), rng)
    a.w_v.data[0] = np.eye(d)
    a.b_rel.data[:] = 0
    a.b_rel.data[0, h_t - 1, w_t - 1 + 1] = 100.0
    a.out_bias.data[:] = 0
    x = rng.normal(size=(1, h_t, w_t, d)).astype(np.float32)
    out = mhsa_forward(Tensor(x), a).data
    shifted = np.zeros_like(x)
    shifted[:, :, :-1, :] = x[:, :, 1:, :]  # token at p+(0,1), zero where off-grid
    np.testing.assert_allclose(out, shifted @ a.w_o.data[0], atol=1e-5)


@pytest.mark.parametrize("mixer", ["general", "zero_qk", "positional"],
                         ids=["False", "zero_qk-False", "zero_qk-True"])
def test_mhsa_matches_bruteforce(rng, mixer):
    # general attention, general attention at w_q = w_k = 0 (the mixer's
    # type picks the path, so this runs the general one), and a positional
    # mixer, which the oracle reads as q = k = 0 with the pad slot
    with tt.using_dtype(np.float64):
        d, h_t, w_t = 4, 2, 2
        a = (positional_init if mixer == "positional" else AttnMixer.init)(d, 2, d, (h_t, w_t), rng)
        if mixer == "zero_qk":
            a.w_q.data[:] = 0
            a.w_k.data[:] = 0
        a.b_rel.data = rng.normal(size=a.b_rel.shape)
        a.out_bias.data = rng.normal(size=d)
        x = rng.normal(size=(2, h_t, w_t, d))
        got = mhsa_forward(Tensor(x), a).data
        expected = mixer_loops(x.reshape(2, 4, d), a)
        np.testing.assert_allclose(got, expected.reshape(2, h_t, w_t, d), atol=1e-6)


@pytest.mark.parametrize("d_h", [2, 6])
@pytest.mark.parametrize("positional", [False, True])
def test_head_width_other_than_token_width(rng, monkeypatch, d_h, positional):
    # the general path (positional False) takes each head's forms as [d, d]
    # matrices in token space, which holds for any head width; the
    # positional mixer (no q or k) takes any head width too. The loop oracle and float64 finite differences through
    # every input, in 2-row slices
    with tt.using_dtype(np.float64):
        b, heads, h_t, w_t, d = 5, 3, 3, 3, 4
        monkeypatch.setattr(blocks, "_SLICE_BYTES", 2 * heads * (h_t * w_t) ** 2 * 8)
        a = (positional_init if positional else AttnMixer.init)(d, heads, d_h, (h_t, w_t), rng)
        for _, param in a.named_parameters():
            param.data[:] = rng.normal(size=param.shape) / np.sqrt(d)
        x = Tensor(rng.normal(size=(b, h_t, w_t, d)))
        expected = mixer_loops(x.data.reshape(b, h_t * w_t, d), a)
        np.testing.assert_allclose(mhsa_forward(x, a).data, expected.reshape(x.shape), atol=1e-12)
        r = Tensor(rng.uniform(-1, 1, size=x.shape))
        for target in (x, *(param for _, param in a.named_parameters())):
            report = finite_diff_check(lambda _: sum_(mul(attention_mix(x, a), r)), target, step=1e-4, tol=1e-5)
            assert report.passed, report


def _gradient_cases():
    # (q/k, sliced, wrt, head width) with ids; a general case's id starts
    # with `sliced`. A head width of None is the token width
    slicings = [False, True]
    wrts = ["x", "q", "k", "v", "o", "b_rel", "out_bias"]
    cases = [pytest.param("random", sliced, wrt, None, id=f"{sliced}-{wrt}") for wrt in wrts for sliced in slicings]
    cases += [pytest.param("zero", sliced, wrt, None, id=f"zero-{sliced}-{wrt}")
              for wrt in wrts for sliced in slicings]
    cases += [pytest.param("q_zero", sliced, "q", None, id=f"q_zero-{sliced}-q") for sliced in slicings]
    cases += [pytest.param("wide", sliced, wrt, None, id=f"wide-{sliced}-{wrt}")
              for wrt in wrts for sliced in slicings]
    positional_wrts = [wrt for wrt in wrts if wrt not in ("q", "k")]
    cases += [pytest.param("positional", False, wrt, None, id=f"positional-{wrt}") for wrt in positional_wrts]
    cases += [pytest.param("positional", False, wrt, d_h, id=f"positional-dh{d_h}-{wrt}")
              for d_h in (2, 5) for wrt in positional_wrts]
    return cases


@pytest.mark.parametrize("qk, sliced, wrt, d_h", _gradient_cases())
def test_attention_mix_gradient(rng, monkeypatch, qk, sliced, wrt, d_h):
    # the fused node w.r.t. its input and every parameter (q, k, v and o are
    # the projections w_q, w_k, w_v and w_o). Batch 5, sliced in 2-row
    # slices (two full slices and a remainder, so the bias gradient's
    # batch-sum runs across slices) or whole in one slice.
    # qk "zero" (w_q = w_k = 0) and "q_zero" (w_q = 0 only) run the general
    # path, since the mixer's type picks it: w_q's gradient x^T (dS k) needs
    # the per-sample dS. "positional" is a PositionalMixer: no q or k, its
    # batch-sum one gemm per head, its logit gradient folded onto the table
    # before one softmax backward over the whole table, off-grid offsets
    # included; float64 keeps the softmax tail, so the table gradient is
    # not zero; it also runs with
    # heads 2 or 5 wide against d = 3, since the folded W_v W_o is [d, d]
    # whatever the head width.
    # Every logit of these cases lies within +-_NARROW_RANGE, so the
    # softmax takes no shift, except in "wide": its channel 0 is about +1 or
    # -1 over each sample's tokens and w_k reads it 100 times over, so each
    # query's logits move by about +-100. That takes every sample past the
    # bound, onto the per-query shift, while each softmax stays unsaturated;
    # the larger logits need a finer step
    with tt.using_dtype(np.float64):
        b, heads, h_t, w_t, d = 5, 2, 3, 3, 3
        n = h_t * w_t
        if sliced:
            monkeypatch.setattr(blocks, "_SLICE_BYTES", 2 * heads * n * n * 8)
        rows = [s.stop - s.start for s in blocks._batch_slices(b, heads, n, np.float64)]
        assert rows == ([2, 2, 1] if sliced else [5])
        a = (positional_init if qk == "positional" else AttnMixer.init)(d, heads, d_h or d, (h_t, w_t), rng)
        for _, param in a.named_parameters():
            param.data[:] = rng.normal(size=param.shape) / np.sqrt(d)
        a.b_rel.data[:] = rng.normal(size=a.b_rel.shape)
        if qk in ("zero", "q_zero"):
            a.w_q.data[:] = 0
        if qk == "zero":
            a.w_k.data[:] = 0
        xs = rng.normal(size=(b, h_t, w_t, d))
        if qk == "wide":
            xs[..., 0] = np.array([1, -1, 1, -1, 1])[:, None, None] + 0.02 * xs[..., 0]
            a.w_k.data[:, 0] *= 100
        x = Tensor(xs)
        r = Tensor(rng.uniform(-1, 1, size=x.shape))
        targets = {"x": x, "v": a.w_v, "o": a.w_o, "b_rel": a.b_rel, "out_bias": a.out_bias}
        if qk != "positional":
            targets.update(q=a.w_q, k=a.w_k)
        bounds = []
        probs_inplace = blocks.attn_probs_inplace

        def spy(p, grid, pad):
            bounds.extend(np.abs(p + grid).max(axis=(1, 2, 3)))
            return probs_inplace(p, grid, pad)

        monkeypatch.setattr(blocks, "attn_probs_inplace", spy)
        attention_mix(x, a)
        assert bounds and all((bound > blocks._NARROW_RANGE) == (qk == "wide") for bound in bounds), bounds

        def f(_):
            return sum_(mul(attention_mix(x, a), r))

        report = finite_diff_check(f, targets[wrt], step=1e-5 if qk == "wide" else 1e-4, tol=1e-5)
        assert report.passed, report


def test_attention_mix_tape_free_forward_matches_taped(rng, monkeypatch):
    # with or without a tape the slices share one slice-sized probability
    # buffer, so no [B, H, N, N] tensor is kept. The numbers are bitwise the
    # same either way, and the layer is one tape node
    d, h_t, w_t, b = 8, 4, 4, 7
    monkeypatch.setattr(blocks, "_SLICE_BYTES", 3 * 9 * (h_t * w_t) ** 2 * 4)  # slices of 3, 3, 1
    buffers = []
    probs_inplace = blocks.attn_probs_inplace

    def keep_buffer(p, grid, pad):
        buffers.append(p)
        return probs_inplace(p, grid, pad)

    monkeypatch.setattr(blocks, "attn_probs_inplace", keep_buffer)
    a = AttnMixer.init(d, 9, d, (h_t, w_t), rng)
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
    for run in (free_buffers, buffers):
        assert all(np.shares_memory(p, run[0]) for p in run)

    # a switched (positional) mixer builds its probabilities once per call
    # on a [1, H, R, 1] table buffer, whatever the batch, taped or not
    switched = reparameterize(ConvMixer.init(3, d, rng), (h_t, w_t))
    for batch in (1, b):
        x = Tensor(rng.normal(size=(batch, h_t, w_t, d)))
        buffers[:] = []
        free = attention_mix(x, switched)
        assert [p.shape[0] for p in buffers] == [1]
        g = tt.Graph()
        with g:
            taped = attention_mix(x, switched)
        assert taped.requires_grad and len(g) == 1
        assert [p.shape[0] for p in buffers] == [1, 1]
        np.testing.assert_array_equal(free.data, taped.data)


def test_attention_softmax_takes_no_pad_slot(rng, monkeypatch):
    # neither path has a pad slot: over a taped forward and backward of
    # fresh attention and of a switched layer, every softmax call is passed
    # None for the pad, and a switched layer's one call per forward is each
    # head's softmax over its whole (2h-1)(2w-1) bias table
    d, h_t, w_t = 4, 3, 4
    calls = []
    probs_inplace = blocks.attn_probs_inplace

    def spy(p, grid, pad):
        calls.append((p.shape, pad))
        return probs_inplace(p, grid, pad)

    monkeypatch.setattr(blocks, "attn_probs_inplace", spy)
    fresh = AttnMixer.init(d, 9, d, (h_t, w_t), rng)
    switched = reparameterize(ConvMixer.init(3, d, rng), (h_t, w_t))
    for a in (fresh, switched):
        calls[:] = []
        g = tt.Graph()
        with g:
            loss = sum_(attention_mix(Tensor(rng.normal(size=(2, h_t, w_t, d)), requires_grad=True), a))
        tt.backward(loss, g)
        assert calls and all(pad is None for _, pad in calls)
    assert [shape for shape, _ in calls] == [(1, 9, (2 * h_t - 1) * (2 * w_t - 1), 1)]


def capture_attention(monkeypatch):
    """Record each slice's probabilities and each raw gradient tuple the
    fused attention op returns, before the tape casts it.

    The probabilities are stored as a query-major copy [B, G, Q, N_keys]:
    the op keeps them key-major, and a tape-free forward reuses its buffer.
    On the positional path that is [1, H, 1, R], each head's softmax over
    its table."""
    probs, grads = [], []
    probs_inplace, record = blocks.attn_probs_inplace, blocks.record

    def capture_probs(p, grid, pad):
        result = probs_inplace(p, grid, pad)
        probs.append(p.swapaxes(-1, -2).copy())
        return result

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
    # float32 tensors keep the probability slices and every gradient float32
    # (a float64 scale would promote them); the float64 oracles stay float64
    probs, grads = capture_attention(monkeypatch)
    with tt.using_dtype(dtype):
        d = 8
        a = AttnMixer.init(d, 9, d, (4, 4), rng)
        g = tt.Graph()
        with g:
            out = mhsa_forward(grid_of(rng, 2, 4, 4, d), a)
            loss = sum_(out)
        tt.backward(loss, g)
    [p] = probs
    [raw] = grads  # dx, dw_q, dw_k, dw_v, dw_o, db_rel, dout_bias
    assert out.data.dtype == dtype
    assert p.dtype == dtype
    assert [t.dtype for t in raw] == [dtype] * 7


@pytest.mark.parametrize("spike", [False, True], ids=["narrow", "wide"])
def test_backward_recomputes_the_forward_probabilities_bitwise(rng, monkeypatch, spike):
    # the general path keeps only each slice's softmax statistics between
    # its forward and its backward: the backward recomputes the scores and
    # rebuilds the probabilities from them, and must get the forward's
    # bits on either shift (a +100 spike widens every sample's logit range
    # past _NARROW_RANGE)
    d, h_t, w_t, b = 8, 4, 4, 7
    monkeypatch.setattr(blocks, "_SLICE_BYTES", 3 * 9 * (h_t * w_t) ** 2 * 4)  # slices of 3, 3, 1
    probs, _ = capture_attention(monkeypatch)
    recomputed = []
    probs_again = blocks.attn_probs_again

    def capture_again(p, grid, shift, total):
        probs_again(p, grid, shift, total)
        recomputed.append(p.swapaxes(-1, -2).copy())

    monkeypatch.setattr(blocks, "attn_probs_again", capture_again)
    a = AttnMixer.init(d, 9, d, (h_t, w_t), rng)
    a.b_rel.data[:] = rng.normal(size=a.b_rel.shape)
    if spike:
        a.b_rel.data[:, h_t - 1, w_t - 1] += 100.0
    g = tt.Graph()
    with g:
        loss = sum_(attention_mix(grid_of(rng, b, h_t, w_t, d), a))
    assert not recomputed
    tt.backward(loss, g)
    assert [p.shape[0] for p in probs] == [p.shape[0] for p in recomputed] == [3, 3, 1]
    for p, q in zip(probs, recomputed):
        assert p.tobytes() == q.tobytes()
    if spike:
        assert all(p.max() == 1.0 for p in probs)


def _taped_peak_per_sample(rng, d, init=AttnMixer.init, taped=True):
    """Growth of the tracemalloc peak of a taped forward and backward (or,
    with ``taped`` False, of a tape-free forward) of the mixer ``init``
    builds (9 heads, 8x8 grid) per sample, between batches of 18 and 6."""
    h_t, w_t = 8, 8
    a = init(d, 9, d, (h_t, w_t), rng)

    def traced_peak(batch):
        x = grid_of(rng, batch, h_t, w_t, d)
        tracemalloc.start()
        try:
            if taped:
                g = tt.Graph()
                with g:
                    loss = sum_(attention_mix(x, a))
                tt.backward(loss, g)
            else:
                attention_mix(x, a)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(3)  # fill the geometry cache first
    return (traced_peak(18) - traced_peak(6)) / 12


def test_general_path_keeps_no_probability_block_per_sample(rng):
    # a taped forward and backward keeps no [B, H, N, N] tensor: between two
    # batch sizes its traced peak grows by less than one float32 [H, N, N]
    # block (147 KB at 9 heads on an 8x8 grid) per sample. Keeping every
    # slice's probabilities for the backward grows it by about 227 KB
    assert _taped_peak_per_sample(rng, 4) < 9 * (8 * 8) ** 2 * 4


@pytest.mark.parametrize("d", [4, 16])
def test_general_path_keeps_few_token_arrays_per_sample(rng, d):
    # the tape keeps x, the weights and each slice's softmax statistics, and
    # both passes hold Y, the mix Z and their gradients only in slice-sized
    # buffers: a taped forward and backward grows by fewer than 1.0 float32
    # [H*N, d] arrays per sample, and a tape-free forward by fewer than 0.5.
    # Batch-wide Y and Z, kept on the tape, read about 5.4-5.6 and 2.0-2.1
    per_sample = 9 * (8 * 8) * d * 4
    assert _taped_peak_per_sample(rng, d) < 1.0 * per_sample
    assert _taped_peak_per_sample(rng, d, taped=False) < 0.5 * per_sample


@pytest.mark.parametrize("d", [4, 16])
def test_positional_path_keeps_few_token_arrays_per_sample(rng, d):
    # the value side is folded into one W_v W_o per head and every head's
    # keys are mixed in one gemm, so a taped forward and backward keeps u =
    # x M and its gradient, and no per-head value buffer or batch-major
    # copy of one: fewer than 3.5 float32 [H*N, d] arrays per sample, and a
    # tape-free forward fewer than 2. Projecting v and mixing it per head
    # reads about 4.3 and 3.1
    per_sample = 9 * (8 * 8) * d * 4
    assert _taped_peak_per_sample(rng, d, positional_init) < 3.5 * per_sample
    assert _taped_peak_per_sample(rng, d, positional_init, taped=False) < 2.0 * per_sample


def _column_softmax(p, grid):
    """Key-major softmax with each query's own shift and the subnormal
    flush, written out: the arithmetic for a wide sample."""
    p = p + grid
    z = p - p.max(axis=-2)[..., None, :]
    z[z < np.log(np.finfo(p.dtype).tiny)] = -np.inf
    e = np.exp(z)
    return e / e.sum(axis=-2)[..., None, :]


@pytest.mark.parametrize("case", ["spike", "wide", "non-finite"])
def test_wide_logit_ranges_keep_the_per_query_softmax_bits(rng, case):
    heads, n, rows = 3, 16, 2
    p = rng.normal(size=(rows, heads, n, n)).astype(np.float32)
    grid = rng.normal(size=(heads, n, n)).astype(np.float32)
    if case == "spike":
        grid[:, np.arange(n), np.arange(n)] += 100.0
    elif case == "wide":
        p[..., ::2] += 65.0  # every other query 65 above the rest, each softmax unsaturated
    elif case == "non-finite":
        p[:, 0, 0, 0] = np.inf
    assert blocks._softmax_shift(p + grid).shape == (rows, heads, n)
    with np.errstate(invalid="ignore"):  # inf - inf in the non-finite case
        expected = _column_softmax(p, grid)
        blocks.attn_probs_inplace(p, grid, None)
    np.testing.assert_array_equal(p, expected)


@pytest.mark.parametrize("rebuilt", [False, True])
def test_logits_within_64_of_zero_take_no_shift(rng, rebuilt):
    # a sample whose logits lie in [-64, 64] is not shifted: each exponent
    # is a normal float32 and their sum is finite, so nothing is flushed or
    # overflows (a RuntimeWarning fails the test), and
    # the probabilities are the softmax's to float32 rounding. A sample
    # 1e-3 past the bound keeps the per-query shift, bit for bit. Rebuilt,
    # the probabilities come from attn_probs_again on the same raw scores
    # with the shift and totals attn_probs_inplace returned, and must be
    # those same bits
    heads, n = 3, 16
    p = rng.uniform(-1, 1, size=(3, heads, n, n)).astype(np.float32)
    grid = rng.uniform(-1, 1, size=(heads, n, n)).astype(np.float32)
    grid[0, 0, 0] = grid[1, 2, 3] = grid[2, 5, 5] = 0.0
    p[:2, 0, 0, 0] = 64.0  # sample 0 touches both bounds, sample 1 the upper one
    p[0, 1, 2, 3] = -64.0
    p[2, 2, 5, 5] = 64.0 + 1e-3
    assert blocks._softmax_shift(p[:2] + grid) is None
    shift = blocks._softmax_shift(p + grid)
    assert not shift[:2].any()
    np.testing.assert_array_equal(shift[2], (p[2] + grid).max(axis=-2))

    logits = (p[:2] + grid).astype(np.float64)
    e = np.exp(logits - logits.max(axis=-2, keepdims=True))
    expected = e / e.sum(axis=-2, keepdims=True)
    expected_wide = _column_softmax(p[2:], grid)
    raw = p.copy()
    stats = blocks.attn_probs_inplace(p, grid, None)
    if rebuilt:
        narrow = raw[:2].copy()
        narrow_stats = blocks.attn_probs_inplace(narrow.copy(), grid, None)
        assert narrow_stats[0] is None  # no shift for the narrow samples alone
        blocks.attn_probs_again(narrow, grid, *narrow_stats)
        np.testing.assert_array_equal(narrow, p[:2])
        blocks.attn_probs_again(raw, grid, *stats)
        np.testing.assert_array_equal(raw, p)
        p = raw
    assert p.dtype == np.float32
    np.testing.assert_allclose(p[:2], expected, rtol=2e-5)
    assert p[:2].min() > np.finfo(np.float32).tiny
    np.testing.assert_array_equal(p[2:], expected_wide)


def test_each_sample_softmax_is_independent_of_its_batch(rng, monkeypatch):
    # a sample's probabilities are bitwise those of the sample alone,
    # whichever shift its neighbours take, so the general path's output
    # does not depend on how the batch is sliced
    heads, n = 3, 16
    p = rng.normal(size=(4, heads, n, n)).astype(np.float32)
    p[1] *= 40.0  # a wide sample between narrow ones
    p[3] += 30.0
    grid = rng.normal(size=(heads, n, n)).astype(np.float32)
    alone = [p[i:i + 1].copy() for i in range(len(p))]
    for q in alone:
        blocks.attn_probs_inplace(q, grid, None)
    for batch in ([0, 2, 3], [0, 1, 2, 3]):  # all narrow, and mixed
        probs = p[batch]
        blocks.attn_probs_inplace(probs, grid, None)
        for j, i in enumerate(batch):
            assert probs[j].tobytes() == alone[i].tobytes()

    d, h_t, w_t = 8, 4, 4
    a = AttnMixer.init(d, 9, d, (h_t, w_t), rng)
    for _, param in a.named_parameters():
        param.data[:] = rng.normal(size=param.shape) / np.sqrt(d)
    a.w_k.data[:, 0] *= 100.0
    xs = rng.normal(size=(7, h_t, w_t, d))
    xs[..., 0] = np.array([0, 0, 1, 0, 0, -1, 0])[:, None, None]  # samples 2 and 5 wide
    x = Tensor(xs)
    spans = []
    probs_inplace = blocks.attn_probs_inplace

    def spy(p, grid, pad):
        logits = p + grid
        spans.extend(logits.max(axis=(1, 2, 3)) - logits.min(axis=(1, 2, 3)))
        return probs_inplace(p, grid, pad)

    monkeypatch.setattr(blocks, "attn_probs_inplace", spy)
    outs = []
    for rows in (1, 2, 3, 7):
        monkeypatch.setattr(blocks, "_SLICE_BYTES", rows * 9 * (h_t * w_t) ** 2 * 4)
        outs.append(attention_mix(x, a).data)
    assert [span > blocks._NARROW_RANGE for span in spans] == [False, False, True, False, False, True, False] * 4
    assert all(out.tobytes() == outs[0].tobytes() for out in outs)


def test_general_path_takes_an_empty_batch(rng):
    # one empty slice: forward and backward run, the output is empty and
    # every parameter gradient is zero
    d, h_t, w_t = 8, 4, 4
    a = AttnMixer.init(d, 9, d, (h_t, w_t), rng)
    x = Tensor(np.zeros((0, h_t, w_t, d)), requires_grad=True)
    g = tt.Graph()
    with g:
        out = attention_mix(x, a)
        loss = sum_(out)
    grads = tt.backward(loss, g)
    assert out.shape == x.shape
    params = [param for _, param in a.named_parameters()]
    assert all(grads[param].shape == param.shape and not grads[param].any() for param in params)


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


@pytest.mark.parametrize("geometry", ["desk", "interp"])
def test_fused_tail_matches_straightline_reference(rng, geometry):
    # the preset shapes, with LayerNorm affines away from 1 and 0 (so the
    # fold of gamma and beta into W1 shows) and first-layer weights wide
    # enough that the GELU bends; the last block is switched (positional)
    dim, patch, modes, batch = {"desk": (32, 8, [CONV, SA, CONV, CONV], 2), "interp": (16, 4, [CONV, CONV], 1)}[geometry]
    with tt.using_dtype(np.float64):
        model = build_model(dim, len(modes), 3, patch, (32, 32), 3, 10, modes, rng)
        switch_block(model.blocks[-1], model.patch_embed.grid_hw)
        for blk in model.blocks:
            for ln in (blk.ln1, blk.ln2):
                ln.gamma.data = rng.uniform(0.5, 1.5, size=dim)
                ln.beta.data = rng.uniform(-0.5, 0.5, size=dim)
            blk.mlp.w1.data = rng.normal(0.0, 0.5, size=blk.mlp.w1.shape)
            blk.mlp.b1.data = rng.normal(0.0, 0.5, size=blk.mlp.b1.shape)
        images = rng.normal(size=(batch, 32, 32, 3))
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
