import math

import numpy as np
import pytest

from convattn.blocks import build_model
from convattn.schedule import CONV, SA
from convattn.spectral import (
    TARGET_FREQS,
    auto_bin_width,
    delta_log_amplitude,
    depth_profile,
    depth_profile_rows,
    feature_spectrum,
    spectrum_of_maps,
)
from convattn.tensor import Tensor
from oracles import box_blur_circular, box_filter_log_response


def binned(values, h, w, bin_width=math.pi / 16):
    """Radial binning of per-frequency values with the module's convention."""
    wu = 2 * math.pi * np.abs(np.fft.fftfreq(h))
    wv = 2 * math.pi * np.abs(np.fft.fftfreq(w))
    r = np.minimum(np.hypot(wu[:, None], wv[None, :]), math.pi)
    n_bins = int(math.ceil(math.pi / bin_width))
    idx = np.minimum((r / bin_width).astype(int), n_bins - 1)
    sums = np.bincount(idx.reshape(-1), weights=values.reshape(-1), minlength=n_bins)
    counts = np.bincount(idx.reshape(-1), minlength=n_bins)
    out = np.full(n_bins, np.nan)
    out[counts > 0] = sums[counts > 0] / counts[counts > 0]
    return out


def test_impulse_spectrum_is_flat():
    imp = np.zeros((1, 16, 16))
    imp[0, 4, 7] = 1.0
    profile = spectrum_of_maps(imp)
    for f in TARGET_FREQS:
        assert abs(delta_log_amplitude(profile, f)) < 1e-6


def test_constant_map_concentrates_at_zero():
    profile = spectrum_of_maps(np.ones((2, 16, 16)))
    assert profile.log_amp[0] == pytest.approx(math.log(256.0), rel=1e-6)
    assert profile.log_amp[-1] == pytest.approx(math.log(1e-12), rel=1e-3)
    assert delta_log_amplitude(profile, math.pi) < -30


def test_box_blur_matches_closed_form(rng):
    h = w = 32
    noise = rng.standard_normal((256, h, w))
    blurred = box_blur_circular(noise)
    p_noise = spectrum_of_maps(noise)
    p_blur = spectrum_of_maps(blurred)
    oracle = binned(box_filter_log_response(h, w), h, w)
    measured = np.array(p_blur.log_amp) - np.array(p_noise.log_amp)  # noise floor cancels
    np.testing.assert_allclose(measured, oracle, atol=0.1)
    d_pi = delta_log_amplitude(p_blur, math.pi) - delta_log_amplitude(p_noise, math.pi)
    assert abs(d_pi - (oracle[-1] - oracle[0])) < 0.1


def test_lowpass_negative_highpass_positive(rng):
    noise = rng.standard_normal((64, 32, 32))
    low = spectrum_of_maps(box_blur_circular(noise))
    assert delta_log_amplitude(low, math.pi) < 0
    high = spectrum_of_maps(noise - box_blur_circular(noise))  # center-minus-mean kernel
    assert delta_log_amplitude(high, math.pi) > 0


def test_scale_invariance_of_delta(rng):
    noise = rng.standard_normal((8, 16, 16))
    base = spectrum_of_maps(noise)
    scaled = spectrum_of_maps(noise * 37.5)
    for f in TARGET_FREQS:
        assert abs(delta_log_amplitude(base, f) - delta_log_amplitude(scaled, f)) < 1e-6


def test_parseval_convention(rng):
    x = rng.standard_normal((16, 16))
    f = np.fft.fft2(x)
    lhs = (np.abs(f) ** 2).sum()
    rhs = 16 * 16 * (x**2).sum()
    assert abs(lhs - rhs) / rhs < 1e-3


def test_empty_bin_raises_with_guidance(rng):
    profile = spectrum_of_maps(rng.standard_normal((2, 8, 8)))  # default width pi/16
    with pytest.raises(ValueError, match="at least"):
        delta_log_amplitude(profile, 2 * math.pi / 3)
    wide = spectrum_of_maps(rng.standard_normal((2, 8, 8)), bin_width=math.pi / 8)
    delta_log_amplitude(wide, 2 * math.pi / 3)  # populated at the wider bin


def test_degenerate_grid_rejected(rng):
    with pytest.raises(ValueError, match="2x2"):
        spectrum_of_maps(rng.standard_normal((1, 1, 1)))


def test_feature_spectrum_counts_maps(rng):
    grid = Tensor(rng.standard_normal((4, 8, 8, 3)))
    profile = feature_spectrum(grid, bin_width=math.pi / 8)
    assert profile.n_maps == 12


def test_auto_bin_width():
    assert auto_bin_width(32, 32) == math.pi / 16
    assert auto_bin_width(8, 8) == math.pi / 8
    assert auto_bin_width(4, 4) == math.pi / 4


# --------------------------------------------------------------------------
# Depth profiles


def test_depth_profile_composed_blur_decreases(rng):
    # stand-in for 4 blocks: block l outputs noise blurred l times
    maps = rng.standard_normal((64, 32, 32))
    d_pi = []
    for _ in range(4):
        maps = box_blur_circular(maps)
        profile = feature_spectrum(Tensor(maps[..., None].astype(np.float32)))
        d_pi.append(delta_log_amplitude(profile, math.pi))
    assert all(b < a for a, b in zip(d_pi, d_pi[1:]))


def test_depth_profile_identity_model_is_flat(rng):
    model = build_model(4, 3, 3, 4, (32, 32), 1, 3, [CONV, CONV, CONV], rng)
    for blk in model.blocks:
        blk.conv.kernel.data[:] = 0
        blk.conv.bias.data[:] = 0
        blk.mlp.w2.data[:] = 0
        blk.mlp.b2.data[:] = 0
    images = rng.standard_normal((256, 32, 32, 1)).astype(np.float32)
    profile = depth_profile(model, images, bin_width=math.pi / 8)
    d_pi = [row[-1] for row in profile.deltas]
    for a, b in zip(d_pi, d_pi[1:]):
        assert abs(a - b) < 0.2


def test_depth_profile_single_layer(rng):
    model = build_model(4, 1, 3, 4, (32, 32), 1, 3, [SA], rng)
    images = rng.standard_normal((8, 32, 32, 1)).astype(np.float32)
    profile = depth_profile(model, images, bin_width=math.pi / 8)
    assert profile.depths == [1.0]
    assert len(profile.deltas) == 1
    assert profile.modes == [SA]


def test_depth_profile_rows_layout(rng):
    model = build_model(4, 2, 3, 4, (32, 32), 1, 3, [CONV, SA], rng)
    profile = depth_profile(model, rng.standard_normal((4, 32, 32, 1)), bin_width=math.pi / 8)
    rows = depth_profile_rows(profile)
    assert len(rows) == 2 * len(TARGET_FREQS)
    assert rows[0][0] == 0.5 and rows[-1][0] == 1.0
