"""Fourier analysis of feature maps.

Each h x w map goes through an unnormalized 2-D DFT (so Parseval reads
sum |F|^2 = h*w * sum x^2), amplitudes are floored and logged, and log
amplitudes are averaged into radial bins by the Euclidean magnitude of the
normalized frequency (Nyquist at pi, clipped to pi). The headline statistic
is the difference in log amplitude between a high-frequency bin and the
zero-frequency bin: positive means the maps carry relatively more
high-frequency energy (high-pass character), strongly negative means
low-pass.

Analysis runs in float64 regardless of the model's storage dtype; log
amplitudes are taken per map and frequency, then averaged (log, then mean).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blocks import Model, model_forward_features
from .checkpoint import write_file
from .tensor import Tensor

__all__ = [
    "SpectrumProfile",
    "DepthProfile",
    "TARGET_FREQS",
    "AMPLITUDE_FLOOR",
    "channel_maps",
    "feature_spectrum",
    "spectrum_of_maps",
    "delta_log_amplitude",
    "depth_profile",
    "depth_profile_rows",
    "write_depth_profile_csv",
    "write_csv",
    "auto_bin_width",
    "populated_targets",
    "require_targets",
]

TARGET_FREQS = (math.pi / 3, 2 * math.pi / 3, math.pi)
AMPLITUDE_FLOOR = 1e-12


@dataclass
class SpectrumProfile:
    """Radially binned log-amplitude profile averaged over a set of maps.

    ``bins`` holds bin centers; empty bins (possible on coarse lattices)
    carry count 0 and NaN log amplitude and cannot serve as delta targets.
    """

    bins: list[float]
    log_amp: list[float]
    counts: list[int]
    n_maps: int
    bin_width: float

    def to_dict(self) -> dict:
        return {
            "bins": self.bins,
            "log_amp": self.log_amp,
            "counts": self.counts,
            "n_maps": self.n_maps,
            "bin_width": self.bin_width,
        }


@dataclass
class DepthProfile:
    """Delta log amplitude per block output, ordered by normalized depth."""

    depths: list[float]
    targets: list[float]
    deltas: list[list[float]]  # [layer][target]
    modes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"depths": self.depths, "targets": self.targets, "deltas": self.deltas, "modes": self.modes}


def _radial_bins(h: int, w: int, bin_width: float) -> tuple[np.ndarray, int]:
    wu = 2 * math.pi * np.abs(np.fft.fftfreq(h))
    wv = 2 * math.pi * np.abs(np.fft.fftfreq(w))
    r = np.hypot(wu[:, None], wv[None, :])
    r = np.minimum(r, math.pi)
    n_bins = int(math.ceil(math.pi / bin_width))
    idx = np.minimum((r / bin_width).astype(int), n_bins - 1)
    return idx, n_bins


def _bin_of(f: float, bin_width: float, n_bins: int) -> int:
    return min(int(f / bin_width), n_bins - 1)


def spectrum_of_maps(maps: np.ndarray, bin_width: float = 0.0) -> SpectrumProfile:
    """Profile a stack of spatial maps [n, h, w] (or one [h, w] map);
    ``bin_width`` 0 picks ``auto_bin_width`` of the maps' grid."""
    maps = np.asarray(maps, dtype=np.float64)
    if maps.ndim == 2:
        maps = maps[None]
    if maps.ndim != 3:
        raise ValueError(f"expected [n, h, w] maps, got shape {maps.shape}")
    n, h, w = maps.shape
    if h < 2 or w < 2:
        raise ValueError(f"grid {h}x{w} too small for spectral analysis; need at least 2x2")

    bin_width = bin_width or auto_bin_width(h, w)
    amp = np.abs(np.fft.fft2(maps))  # unnormalized forward transform
    idx, n_bins = _radial_bins(h, w, bin_width)
    flat_idx = idx.reshape(-1)
    counts = np.bincount(flat_idx, minlength=n_bins)
    la = np.log(amp + AMPLITUDE_FLOOR)
    sums = np.bincount(flat_idx, weights=la.sum(axis=0).reshape(-1), minlength=n_bins)

    log_amp = np.full(n_bins, np.nan)
    nonzero = counts > 0
    log_amp[nonzero] = sums[nonzero] / (counts[nonzero] * n)
    centers = (np.arange(n_bins) + 0.5) * bin_width
    return SpectrumProfile(
        bins=[float(c) for c in centers],
        log_amp=[float(v) for v in log_amp],
        counts=[int(c) for c in counts],
        n_maps=int(n),
        bin_width=bin_width,
    )


def channel_maps(features: np.ndarray) -> np.ndarray:
    """Split channel-last features [B, h, w, d] into [B*d, h, w] spatial maps."""
    return np.moveaxis(features, -1, 1).reshape(-1, features.shape[1], features.shape[2])


def feature_spectrum(x: Tensor, bin_width: float = 0.0) -> SpectrumProfile:
    """Profile every channel of every sample in [batch, h_t, w_t, d] token
    maps; ``bin_width`` 0 picks ``auto_bin_width`` of the token grid."""
    return spectrum_of_maps(channel_maps(x.data), bin_width=bin_width)


def delta_log_amplitude(profile: SpectrumProfile, f_target: float) -> float:
    """Log amplitude at the bin containing ``f_target`` minus at bin 0; a
    target in bin 0 or in an empty bin has none and raises ValueError."""
    if not 0.0 < f_target <= math.pi + 1e-12:
        raise ValueError(f"target frequency must lie in (0, pi], got {f_target}")
    idx = _bin_of(f_target, profile.bin_width, len(profile.bins))
    if idx == 0:
        raise ValueError(f"frequency {f_target:.4f} falls in the zero-frequency bin at bin width "
                         f"{profile.bin_width:.4f}; a narrower bin (bin_width=0 picks the grid's own) is needed")
    if profile.counts[idx] == 0:
        raise ValueError(f"bin at frequency {f_target:.4f} is empty for this geometry at bin width "
                         f"{profile.bin_width:.4f}; a wider bin (bin_width=0 picks the grid's own) is needed")
    if profile.counts[0] == 0:
        raise ValueError("zero-frequency bin is empty")
    return float(profile.log_amp[idx] - profile.log_amp[0])


def depth_profile(model: Model, images, tap: str = "post-residual", bin_width: float = 0.0) -> DepthProfile:
    """Delta log amplitude of every block's output at the standard target
    frequencies the model's token grid populates (``require_targets``).

    ``bin_width`` 0 picks ``auto_bin_width`` of the grid. Blocks are captured
    post-residual by default, or the pre-residual branch with
    tap="pre-residual". A grid with no target raises before any forward.
    """
    targets, width = require_targets(*model.patch_embed.grid_hw, bin_width)
    images = images if isinstance(images, Tensor) else Tensor(images)
    grids = model_forward_features(images, model, tap=tap)[1]
    n_layers = len(grids)
    depths, deltas = [], []
    for i, grid in enumerate(grids):
        profile = feature_spectrum(grid, bin_width=width)
        depths.append((i + 1) / n_layers)
        deltas.append([delta_log_amplitude(profile, f) for f in targets])
    return DepthProfile(depths=depths, targets=targets, deltas=deltas, modes=model.modes())


def depth_profile_rows(profile: DepthProfile) -> list[tuple[float, float, float]]:
    """Flatten to (depth, f, delta_log_amp) rows, the CSV layout."""
    return [(depth, f, v) for depth, values in zip(profile.depths, profile.deltas)
            for f, v in zip(profile.targets, values)]


def write_csv(path: str, header: str, rows) -> None:
    """Write ``rows`` under a ``header`` line, atomically; floats get six
    decimals, every other value its ``str``. Every profile CSV goes through here."""
    cells = (",".join(f"{v:.6f}" if isinstance(v, float) else str(v) for v in row) for row in rows)
    write_file(path, (f"{line}\n".encode("utf-8") for line in (header, *cells)))


def write_depth_profile_csv(path: str, profile: DepthProfile) -> None:
    """Write ``profile`` as a ``depth,f,delta_log_amp`` CSV."""
    write_csv(path, "depth,f,delta_log_amp", depth_profile_rows(profile))


def auto_bin_width(h_t: int, w_t: int) -> float:
    """Default bin width for a lattice: pi/16, widened on coarse grids so the
    standard target frequencies land in populated bins."""
    side = min(h_t, w_t)
    if side >= 16:
        return math.pi / 16
    if side >= 8:
        return math.pi / 8
    return math.pi / 4


def populated_targets(h_t: int, w_t: int, bin_width: float = 0.0) -> tuple[list[float], float]:
    """Standard target frequencies an h_t x w_t grid reports at ``bin_width``
    (0 picks ``auto_bin_width``), with the width used.

    A target reports when its radial bin is populated and is not the
    zero-frequency bin, whose delta would be that bin minus itself.
    """
    width = bin_width or auto_bin_width(h_t, w_t)
    if h_t < 2 or w_t < 2:
        return [], width
    idx, n_bins = _radial_bins(h_t, w_t, width)
    counts = np.bincount(idx.reshape(-1), minlength=n_bins)
    return [f for f in TARGET_FREQS if 0 < (b := _bin_of(f, width, n_bins)) and counts[b] > 0], width


def require_targets(h_t: int, w_t: int, bin_width: float = 0.0) -> tuple[list[float], float]:
    """``populated_targets``, raising ValueError when the grid reports none;
    commands that must write a profile call it before any work."""
    targets, width = populated_targets(h_t, w_t, bin_width)
    if not targets:
        raise ValueError(f"no standard target frequency is populated on a {h_t}x{w_t} grid at bin width "
                         f"{width:.4f}; grids of at least 2x2 tokens and a compatible bin width are needed")
    return targets, width
