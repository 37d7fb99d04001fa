import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convattn.blocks import ConvMixer, PositionalMixer, conv_mixer_forward, mhsa_forward, model_forward
from convattn.checkpoint import load_checkpoint, model_from_checkpoint, save_checkpoint
from convattn.reparam import reparameterize, switch_block, verify_equivalence
from convattn.schedule import CONV, SA
from convattn.tensor import Graph, ShapeError, Tensor, backward
from convattn.train import TrainConfig, cross_entropy_label_smooth
from oracles import attention_scores
from test_blocks import capture_attention, make_block, small_model


def random_conv(rng, k=3, d=16, std=0.1):
    return ConvMixer(Tensor(rng.normal(0, std, (k, k, d, d)), requires_grad=True),
                     Tensor(rng.normal(0, std, d), requires_grad=True))


def test_k3_gives_nine_heads(rng):
    attn = reparameterize(random_conv(rng), (8, 8))
    assert attn.n_heads == 9
    assert attn.d_head == attn.dim == 16
    assert isinstance(attn, PositionalMixer)


def test_k1_single_head_exact(rng):
    conv = random_conv(rng, k=1, d=8)
    attn = reparameterize(conv, (5, 4))
    assert attn.n_heads == 1
    x = Tensor(rng.normal(size=(3, 5, 4, 8)))
    conv_out = conv_mixer_forward(x, conv).data
    attn_out = mhsa_forward(x, attn).data
    np.testing.assert_allclose(attn_out, conv_out, atol=1e-6)


def test_reparam_construction_shapes(rng):
    conv = random_conv(rng, k=3, d=4)
    attn = reparameterize(conv, (6, 5))
    assert [name for name, _ in attn.named_parameters()] == ["w_v", "w_o", "b_rel", "out_bias"]  # no q or k
    for head in range(9):
        np.testing.assert_array_equal(attn.w_v.data[head], np.eye(4))
        i, j = divmod(head, 3)
        np.testing.assert_array_equal(attn.w_o.data[head], conv.kernel.data[i, j])
        spike = attn.b_rel.data[head]
        assert spike.max() == 100.0
        assert (spike == 100.0).sum() == 1
        r, c = np.unravel_index(spike.argmax(), spike.shape)
        assert (r - 5, c - 4) == (i - 1, j - 1)
    np.testing.assert_array_equal(attn.out_bias.data, conv.bias.data)


def test_reparam_rejects_even_kernel(rng):
    with pytest.raises(ShapeError, match="odd"):
        ConvMixer(Tensor(rng.normal(size=(2, 2, 4, 4))), Tensor(np.zeros(4)))


def test_reparam_rejects_nonsquare_channels(rng):
    conv = ConvMixer(Tensor(rng.normal(size=(3, 3, 4, 6))), Tensor(np.zeros(6)))
    with pytest.raises(ShapeError, match="identity"):
        reparameterize(conv, (4, 4))


@pytest.mark.parametrize("k, grid", [(5, (2, 2)), (3, (1, 6)), (7, (8, 3)), (3, (5, 1))])
def test_reparam_rejects_kernel_wider_than_grid(rng, k, grid):
    # an offset beyond the grid has no bias-table entry to hold its spike
    with pytest.raises(ShapeError, match=f"K={k} kernel needs both grid sides above {k // 2}"):
        reparameterize(random_conv(rng, k=k, d=4), grid)


@settings(max_examples=40, deadline=None)
@given(k=st.sampled_from([1, 3, 5, 7]), extra=st.tuples(st.integers(1, 6), st.integers(1, 6)),
       d=st.integers(1, 12), seed=st.integers(0, 2**16))
def test_equivalence_on_every_grid_the_kernel_fits(k, extra, d, seed):
    # init-scale taps (std 0.1) on grids from one token past K//2 to six past, either side longer
    grid = (k // 2 + extra[0], k // 2 + extra[1])
    conv = random_conv(np.random.default_rng(seed), k=k, d=d)
    report = verify_equivalence(conv, reparameterize(conv, grid), num_samples=4, seed=seed)
    assert report.max_abs_diff < 1e-5


def test_equivalence_random_case(rng):
    conv = random_conv(rng)
    report = verify_equivalence(conv, reparameterize(conv, (8, 8)), num_samples=100, seed=5)
    assert report.passed
    assert report.max_abs_diff < 1e-5
    assert len(report.per_position_max) == 8 and len(report.per_position_max[0]) == 8


def test_equivalence_detects_perturbation(rng):
    conv = random_conv(rng)
    attn = reparameterize(conv, (8, 8))
    attn.w_o.data[4, 3, 5] += 0.1
    report = verify_equivalence(conv, attn, num_samples=20, seed=6)
    assert not report.passed
    assert report.max_abs_diff >= 0.01


def test_equivalence_zero_input_is_exact(rng):
    conv = random_conv(rng, d=4)
    attn = reparameterize(conv, (3, 3))
    x = Tensor(np.zeros((1, 3, 3, 4)))
    diff = np.abs(conv_mixer_forward(x, conv).data - mhsa_forward(x, attn).data)
    assert diff.max() == 0.0


def test_equivalence_holds_on_large_inputs(rng):
    # function preservation for inputs with entries in [-3, 3]
    conv = random_conv(rng, d=8)
    attn = reparameterize(conv, (6, 6))
    x = Tensor(rng.uniform(-3, 3, size=(20, 6, 6, 8)))
    diff = np.abs(conv_mixer_forward(x, conv).data - mhsa_forward(x, attn).data)
    assert diff.max() < 1e-5


def test_report_json_roundtrip(rng):
    conv = random_conv(rng, d=4)
    report = verify_equivalence(conv, reparameterize(conv, (4, 4)), num_samples=5, seed=1)
    payload = json.loads(report.to_json())
    assert set(payload) == {"num_samples", "max_abs_diff", "per_position_max", "tolerance", "pass"}
    assert payload["pass"] is True


def test_softmax_tail_bound(rng):
    conv = random_conv(rng, d=4)
    attn = reparameterize(conv, (4, 4))
    x = Tensor(rng.normal(size=(1, 4, 4, 4)))
    n = 16
    for head in (0, 4, 8):
        rows = attention_scores(x, head, attn).data
        off_mass = 1.0 - rows.max(axis=-1)
        assert np.all(off_mass < n * np.exp(-100.0) + 1e-12)


def test_switched_softmax_tail_is_exact_zero(rng, monkeypatch):
    # every off-spike logit gap is about -beta, below log(float32 tiny), so
    # it is flushed to an exact zero instead of a subnormal exp(-100): each
    # head's one softmax over its table is exactly one-hot on its offset
    d, h_t, w_t = 16, 8, 8
    probs, _ = capture_attention(monkeypatch)
    blk = make_block(rng, d, CONV, h_t, w_t)
    switch_block(blk, (h_t, w_t))
    x = rng.normal(size=(2, h_t, w_t, d))
    mhsa_forward(Tensor(x), blk.attn)
    [s] = probs  # [1, H, 1, R]
    assert s.dtype == np.float32
    tiny = np.finfo(np.float32).tiny
    assert not np.any((s > 0) & (s < tiny))
    table = np.zeros((9, 2 * h_t - 1, 2 * w_t - 1), dtype=np.float32)
    for head in range(9):
        dr, dc = divmod(head, 3)
        table[head, dr - 1 + h_t - 1, dc - 1 + w_t - 1] = 1.0
    np.testing.assert_array_equal(s.reshape(table.shape), table)
    # so the one-hot target of head i*3+j at query (r, c) is the key at
    # (r+i-1, c+j-1), or the off-grid column when that leaves the grid
    for head in range(9):
        dr, dc = divmod(head, 3)
        expected = np.zeros((h_t * w_t, h_t * w_t + 1), dtype=np.float32)
        for q in range(h_t * w_t):
            r, c = divmod(q, w_t)
            r, c = r + dr - 1, c + dc - 1
            expected[q, r * w_t + c if 0 <= r < h_t and 0 <= c < w_t else -1] = 1.0
        np.testing.assert_array_equal(attention_scores(Tensor(x[:1]), head, blk.attn).data, expected)


def test_switch_block_preserves_function(rng):
    d, h_t, w_t = 8, 4, 4
    blk = make_block(rng, d, CONV, h_t, w_t)
    x = Tensor(rng.normal(size=(4, h_t, w_t, d)))
    from convattn.blocks import block_forward

    before = block_forward(x, blk).data.copy()
    switch_block(blk, (h_t, w_t))
    assert blk.mode == SA
    after = block_forward(x, blk).data
    assert np.abs(after - before).max() < 1e-5


def test_switch_block_drops_the_conv_and_is_idempotent(rng):
    blk = make_block(rng, 4, CONV, 3, 3)
    switch_block(blk, (3, 3))
    assert blk.conv is None
    first_attn = blk.attn
    with pytest.warns(UserWarning, match="no-op"):
        switch_block(blk, (3, 3))
    assert blk.attn is first_attn
    names = [n for n, _ in blk.named_parameters()]
    assert not any(n.startswith("conv.") for n in names)


def test_switched_model_matches_its_checkpoint_round_trip(rng, tmp_path):
    # the live switched model and the one rebuilt from its checkpoint are the
    # same object graph: positional attention alone in every block
    model = small_model(rng, [CONV, CONV], d=8)
    for blk in model.blocks:
        switch_block(blk, (4, 4))
    path = str(tmp_path / "switched.bin")
    config = TrainConfig(dim=8, num_layers=2, patch_size=4, image_hw=(16, 16), num_classes=5)
    save_checkpoint(path, model, config.to_dict(), epoch=1, metric_history=[])
    rebuilt = model_from_checkpoint(*load_checkpoint(path))
    for live, loaded in zip(model.blocks, rebuilt.blocks, strict=True):
        assert live.conv is None and loaded.conv is None
        assert isinstance(live.attn, PositionalMixer) and isinstance(loaded.attn, PositionalMixer)
        assert [n for n, _ in live.named_parameters()] == [n for n, _ in loaded.named_parameters()]
    for (name, p), (_, q) in zip(model.named_parameters(), rebuilt.named_parameters(), strict=True):
        np.testing.assert_array_equal(p.data, q.data, err_msg=name)


def test_switch_loss_continuity_on_model(rng):
    model = small_model(rng, [CONV, CONV], d=8)
    images = rng.normal(size=(8, 16, 16, 3)).astype(np.float32)
    labels = rng.integers(0, 5, size=8)

    def loss_value():
        return cross_entropy_label_smooth(model_forward(Tensor(images), model), labels, 0.1).item()

    before = loss_value()
    switch_block(model.blocks[1], (4, 4))
    after = loss_value()
    assert abs(after - before) / before < 1e-4


def _post_switch_grads(rng, beta):
    model = small_model(rng, [CONV, CONV], d=8)
    switch_block(model.blocks[1], (4, 4), beta=beta)
    params = dict(model.named_parameters())
    images = rng.normal(size=(8, 16, 16, 3)).astype(np.float32)
    labels = rng.integers(0, 5, size=8)
    g = Graph()
    with g:
        loss = cross_entropy_label_smooth(model_forward(Tensor(images), model), labels, 0.1)
    backward(loss, g, params=params.values())
    return {name.split(".")[-1]: p.grad for name, p in params.items() if name.startswith("blocks.1.attn")}


def test_gradient_flow_after_switch(rng):
    grads = _post_switch_grads(rng, beta=30.0)
    assert set(grads) == {"w_v", "w_o", "b_rel", "out_bias"}  # a switched layer has no query/key
    for name, grad in grads.items():
        assert np.all(np.isfinite(grad)), name
    for name in ("w_v", "w_o", "out_bias", "b_rel"):
        assert np.abs(grads[name]).max() > 0, name


def test_gradient_flow_at_default_spike_is_finite(rng):
    # at beta=100 the softmax tail sits below float32 resolution by design,
    # so the b_rel gradient underflows to exactly zero on a generic batch;
    # everything stays finite and the value/output paths still train
    grads = _post_switch_grads(rng, beta=100.0)
    for name, grad in grads.items():
        assert np.all(np.isfinite(grad)), name
    for name in ("w_v", "w_o", "out_bias"):
        assert np.abs(grads[name]).max() > 0, name
