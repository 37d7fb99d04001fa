"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
inline. Criteria 6 and 7 need the real CIFAR-10 binaries (place them under
./data/cifar-10-batches-bin or point CONVATTN_DATA_DIR at them); without the
dataset they skip with an explicit message, and reduced synthetic-data
pipeline checks exercise the same machinery without claiming the CIFAR
result.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from convattn import tensor as tt
from convattn.blocks import ConvMixer, model_forward
from convattn.checkpoint import load_checkpoint, model_from_checkpoint
from convattn.config import build_train_config, load_preset
from convattn.data import load_cifar, stratified_indices
from convattn.reparam import reparameterize, switch_block, verify_equivalence
from convattn.schedule import CONV, SA, SwitchSchedule, mode_at, switch_epochs
from convattn.spectral import delta_log_amplitude, spectrum_of_maps
from convattn.tensor import Tensor, finite_diff_check
from convattn.train import run_interpolation_suite, train
from conftest import real_cifar10_dir
from oracles import box_blur_circular, box_filter_log_response, depth_slope, mul, sum_
from test_blocks import make_block


def _verdict(criterion, passed, detail, started):
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {criterion}] {status} ({detail}; {time.time() - started:.1f}s)")
    assert passed, f"criterion {criterion}: {detail}"


def _desk_config(**overrides):
    cfg = build_train_config(load_preset("desk"))
    data_dir = real_cifar10_dir()
    if data_dir is not None:
        overrides.setdefault("data_dir", data_dir)
    else:
        overrides.setdefault("dataset", "synthetic")
    return replace(cfg, **overrides)


def test_criterion_1_reparameterization_exactness():
    t0 = time.time()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        conv = ConvMixer(Tensor(rng.normal(0, 0.1, (3, 3, 16, 16))), Tensor(rng.normal(0, 0.1, 16)))
        attn = reparameterize(conv, (8, 8))
        report = verify_equivalence(conv, attn, num_samples=1, tolerance=1e-5,
                                    seed=int(rng.integers(1 << 31)), batch=1)
        worst = max(worst, report.max_abs_diff)
        if not report.passed:
            break
    _verdict(1, worst < 1e-5, f"100 random K=3 d=16 8x8 cases, worst max_abs_diff {worst:.2e} < 1e-5", t0)


def test_criterion_2_loss_continuity_on_desk_preset():
    t0 = time.time()
    cfg = _desk_config(eval_fraction=0.1)
    result = train(cfg)
    events = result.switch_events
    expected_events = len(switch_epochs(cfg.schedule()))
    rels = [abs(ev["loss_after"] - ev["loss_before"]) / ev["loss_before"] for ev in events]
    ok = len(events) == expected_events and all(r < 1e-4 for r in rels)
    _verdict(2, ok,
             f"dataset={cfg.dataset}, {len(events)}/{expected_events} switch events, "
             f"worst relative loss change {max(rels):.2e} < 1e-4", t0)


def test_criterion_3_scheduler_table():
    t0 = time.time()
    sched = SwitchSchedule(400, 6)
    table = switch_epochs(sched)
    expected = [(6, 58), (5, 115), (4, 172), (3, 229), (2, 286), (1, 343)]
    by_layer = dict(table)
    decreasing = all(by_layer[layer] > by_layer[layer + 1] for layer in range(1, 6))
    all_conv_start = all(mode_at(sched, 1, layer) == CONV for layer in range(1, 7))
    all_sa_end = all(mode_at(sched, 400, layer) == SA for layer in range(1, 7))
    ok = table == expected and decreasing and all_conv_start and all_sa_end
    _verdict(3, ok, f"T=400 L=6 first-SA epochs {sorted(by_layer.values())}", t0)


def test_criterion_4_gradient_integrity_desk_block():
    t0 = time.time()
    worst = {}
    with tt.using_dtype(np.float64):
        rng = np.random.default_rng(7)
        d, h_t, w_t = 32, 4, 4  # desk-scale block geometry
        for mode in (CONV, SA):
            blk = make_block(rng, d, CONV, h_t, w_t)
            if mode == SA:
                # a switched block (a positional mixer) at a small spike, its
                # table perturbed: an unsaturated softmax
                switch_block(blk, (h_t, w_t), beta=2.0)
                blk.attn.b_rel.data += rng.normal(0, 0.5, blk.attn.b_rel.shape)
            x = Tensor(rng.uniform(-1, 1, (2, h_t, w_t, d)))
            r = Tensor(rng.uniform(-1, 1, (2, h_t, w_t, d)))
            params = dict(blk.named_parameters())
            checked = 0
            worst[mode] = 0.0
            for name, p in params.items():
                probe = Tensor(p.data.copy(), requires_grad=True)
                parent, leaf = name.rsplit(".", 1)
                obj = {"conv": blk.conv, "attn": blk.attn, "ln1": blk.ln1,
                       "ln2": blk.ln2, "mlp": blk.mlp}[parent]
                setattr(obj, leaf, probe)

                def f(_):
                    from convattn.blocks import block_forward

                    return sum_(mul(block_forward(x, blk), r))

                take = min(12, probe.size)
                idx = rng.choice(probe.size, size=take, replace=False)
                report = finite_diff_check(f, probe, step=1e-4, tol=1e-3, indices=idx)
                checked += report.n_checked
                worst[mode] = max(worst[mode], report.max_rel_err)
                setattr(obj, leaf, p)
            assert checked >= 100, f"only {checked} entries sampled in {mode} mode"
    ok = all(v < 1e-3 for v in worst.values())
    _verdict(4, ok, f"conv-mode worst rel err {worst[CONV]:.2e}, sa-mode {worst[SA]:.2e}, "
                    f">=100 entries each, tol 1e-3", t0)


def test_criterion_5_spectral_oracles():
    t0 = time.time()
    rng = np.random.default_rng(21)
    checks = []

    imp = np.zeros((1, 32, 32))
    imp[0, 5, 9] = 1.0
    p_imp = spectrum_of_maps(imp)
    d_imp = max(abs(delta_log_amplitude(p_imp, f)) for f in (math.pi / 3, 2 * math.pi / 3, math.pi))
    checks.append(("impulse |delta| < 1e-6", d_imp < 1e-6))

    noise = rng.standard_normal((256, 32, 32))
    p_noise = spectrum_of_maps(noise)
    p_blur = spectrum_of_maps(box_blur_circular(noise))
    oracle = box_filter_log_response(32, 32)
    # radial-bin the closed form with the module's own binning
    wu = 2 * math.pi * np.abs(np.fft.fftfreq(32))
    r = np.minimum(np.hypot(wu[:, None], wu[None, :]), math.pi)
    idx = np.minimum((r / (math.pi / 16)).astype(int), 15)
    bins = np.bincount(idx.reshape(-1), weights=oracle.reshape(-1), minlength=16)
    bins /= np.bincount(idx.reshape(-1), minlength=16)
    d_measured = delta_log_amplitude(p_blur, math.pi) - delta_log_amplitude(p_noise, math.pi)
    d_oracle = bins[-1] - bins[0]
    checks.append((f"box blur delta(pi) {d_measured:.3f} within 0.1 of {d_oracle:.3f}",
                   abs(d_measured - d_oracle) < 0.1))

    p_high = spectrum_of_maps(noise - box_blur_circular(noise))
    checks.append(("high-pass delta(pi) > 0", delta_log_amplitude(p_high, math.pi) > 0))

    p_scaled = spectrum_of_maps(noise * 11.3)
    scale_drift = max(
        abs(delta_log_amplitude(p_scaled, f) - delta_log_amplitude(p_noise, f))
        for f in (math.pi / 3, 2 * math.pi / 3, math.pi)
    )
    checks.append(("scale invariance < 1e-6", scale_drift < 1e-6))

    ok = all(flag for _, flag in checks)
    _verdict(5, ok, "; ".join(name for name, _ in checks), t0)


def _interp_config(**overrides):
    cfg = build_train_config(load_preset("interp"))
    return replace(cfg, **overrides)


def _trend_votes(base_cfg, seeds, out_root):
    votes, all_slopes = [], []
    for seed in seeds:
        results = run_interpolation_suite(replace(base_cfg, seed=seed),
                                          os.path.join(out_root, f"seed{seed}"))
        # paper orientation: positive slope = low-pass character grows with
        # depth; stored deltas are high-minus-low so the sign flips
        slopes = [-depth_slope(rec["profile"], math.pi) for rec in results]
        all_slopes.append(slopes)
        votes.append(all(b <= a + 1e-6 for a, b in zip(slopes, slopes[1:])))
    return votes, all_slopes


def test_criterion_6_interpolation_trend_cifar10(tmp_path):
    t0 = time.time()
    data_dir = real_cifar10_dir()
    if data_dir is None:
        pytest.skip("criterion 6 needs the real CIFAR-10 binaries "
                    "(./data/cifar-10-batches-bin or CONVATTN_DATA_DIR); not present")
    seeds = range(int(os.environ.get("CONVATTN_ACCEPT_SEEDS", "3")))
    cfg = _interp_config(data_dir=data_dir)
    votes, slopes = _trend_votes(cfg, seeds, str(tmp_path))
    ok = sum(votes) > len(votes) / 2
    _verdict(6, ok, f"per-seed slope sequences (conv-most to SA-most) {slopes}, votes {votes}", t0)


def test_criterion_6_pipeline_check_synthetic(tmp_path):
    # machinery-only variant on translated-pattern data: trains all four
    # settings, emits profiles, computes slopes and the vote; the CIFAR trend
    # itself is not claimed here
    cfg = _interp_config(dataset="synthetic", num_classes=4, total_epochs=8,
                         fraction=1.0, eval_fraction=1.0)
    votes, slopes = _trend_votes(cfg, [0], str(tmp_path))
    finite = all(np.isfinite(s) for row in slopes for s in row)
    print(f"\n[criterion 6 - synthetic pipeline check] slopes {slopes}, vote {votes[0]}")
    assert finite and len(slopes[0]) == 4


def test_criterion_7_directional_training_cifar10(tmp_path):
    t0 = time.time()
    data_dir = real_cifar10_dir()
    if data_dir is None:
        pytest.skip("criterion 7 needs the real CIFAR-10 binaries "
                    "(./data/cifar-10-batches-bin or CONVATTN_DATA_DIR); not present")
    seeds = range(int(os.environ.get("CONVATTN_ACCEPT_SEEDS", "3")))
    finals = {"linear": [], "all-sa": [], "all-conv": []}
    for seed in seeds:
        for kind in finals:
            cfg = _desk_config(schedule_kind=kind, seed=seed, eval_fraction=0.2)
            result = train(cfg)
            finals[kind].append(result.metrics[-1]["top1"])
    med = {kind: float(np.median(v)) for kind, v in finals.items()}
    ok = med["linear"] >= med["all-sa"]
    _verdict(7, ok, f"median top-1: scheduled-switch {med['linear']:.2f} vs all-SA {med['all-sa']:.2f} "
                    f"(all-conv baseline {med['all-conv']:.2f}); per-seed {finals}", t0)


def test_criterion_7_pipeline_check_synthetic():
    # machinery-only variant: the three schedules train and evaluate; the
    # synthetic task is globally structured so no direction is asserted
    cfg_base = dict(total_epochs=6, eval_fraction=0.5, dataset="synthetic", fraction=1.0)
    finals = {}
    for kind in ("linear", "all-sa", "all-conv"):
        cfg = _desk_config(schedule_kind=kind, **cfg_base)
        result = train(cfg)
        finals[kind] = result.metrics[-1]["top1"]
        assert len(result.metrics) == 6
    print(f"\n[criterion 7 - synthetic pipeline check] final top-1 {finals}")
    assert all(v > 10.0 for v in finals.values())  # above chance on 10 classes


def test_criterion_8_determinism_and_persistence(tmp_path):
    t0 = time.time()
    cfg = _desk_config(dataset="synthetic", total_epochs=6, warmup_epochs=2,
                       fraction=1.0, eval_fraction=0.5, checkpoint_every=3)
    r1 = train(cfg, out_dir=str(tmp_path / "a"))
    r2 = train(cfg, out_dir=str(tmp_path / "b"))

    def strip(metrics):
        return [{k: v for k, v in m.items() if k != "epoch_seconds"} for m in metrics]

    same_history = strip(r1.metrics) == strip(r2.metrics)

    _, blobs1 = load_checkpoint(r1.checkpoint_path)
    _, blobs2 = load_checkpoint(r2.checkpoint_path)
    same_blobs = set(blobs1) == set(blobs2) and all(
        np.array_equal(blobs1[name], blobs2[name]) for name in blobs1
    )

    header, tensors = load_checkpoint(r1.checkpoint_path)
    rebuilt = model_from_checkpoint(header, tensors)
    probe = Tensor(np.random.default_rng(5).normal(size=(8, 32, 32, 3)).astype(np.float32))
    bitwise_forward = np.array_equal(model_forward(probe, r1.model).data,
                                     model_forward(probe, rebuilt).data)

    resumed = train(cfg, out_dir=str(tmp_path / "c"),
                    resume_from=str(tmp_path / "a" / "checkpoint_epoch_3.bin"))
    same_switches = ([(e["epoch"], e["layer"]) for e in resumed.switch_events] ==
                     [(e["epoch"], e["layer"]) for e in r1.switch_events])

    ok = same_history and same_blobs and bitwise_forward and same_switches
    _verdict(8, ok, f"history {same_history}, blobs {same_blobs}, "
                    f"save/load forward bitwise {bitwise_forward}, resume switches {same_switches}", t0)


def test_criterion_9_data_ingestion(cifar100_balanced_dir):
    t0 = time.time()
    size = os.path.getsize(os.path.join(cifar100_balanced_dir, "train.bin"))
    size_ok = size == 50000 * 3074 == 153_700_000

    ds = load_cifar(cifar100_balanced_dir, "cifar100", "train", fraction=0.1, seed=4)
    counts = np.bincount(ds.labels, minlength=100)
    stratified_ok = len(ds) == 5000 and np.all(counts == 50)

    full = load_cifar(cifar100_balanced_dir, "cifar100", "train")
    a = stratified_indices(full.labels, 0.1, seed=4)
    b = stratified_indices(full.labels, 0.1, seed=4)
    seed_stable = np.array_equal(a, b)

    ok = size_ok and stratified_ok and seed_stable
    _verdict(9, ok, f"train.bin {size} bytes, 10% subset {len(ds)} samples at 50/class, "
                    f"seed-stable {seed_stable}", t0)
