"""Hybrid conv/attention transformer blocks with scheduled exact
reparameterization from convolution into multi-head self-attention, plus
Fourier analysis of feature-map frequency content."""

__version__ = "0.1.0"

from .blocks import (
    AttnMixer,
    ConvMixer,
    HybridBlock,
    Model,
    PatchEmbed,
    PositionalMixer,
    block_forward,
    build_model,
    conv_mixer_forward,
    mhsa_forward,
    model_forward,
    patch_embed_forward,
)
from .config import TrainConfig
from .reparam import ReparamReport, reparameterize, switch_block, verify_equivalence
from .schedule import CONV, SA, SwitchSchedule, interpolation_settings, mode_at, switch_epochs
from .spectral import (
    DepthProfile,
    SpectrumProfile,
    delta_log_amplitude,
    depth_profile,
    feature_spectrum,
    spectrum_of_maps,
)
from .tensor import Graph, Tensor, backward, finite_diff_check, using_dtype
from .train import TrainResult, evaluate, run_interpolation_suite
