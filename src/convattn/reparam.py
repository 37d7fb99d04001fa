"""Exact weight transfer from a conv mixer to an attention mixer.

A KxK convolution becomes K^2 attention heads, one per receptive-field
offset (the construction of Cordonnier et al. 2020), as a
:class:`convattn.blocks.PositionalMixer`: no query/key projections, an
identity value projection, the conv tap as each head's output projection
(so the forward's folded M_h = W_v,h W_o,h is exactly the tap), and a bias
spike that makes each head's softmax over its table one-hot on that offset:
on the key there, or on no key when the offset leaves the grid, which
reproduces zero padding. Exactness rests on that softmax: off the spike
every logit gap is about -beta; at the default beta=100 that is below
log(tiny) of float32, so the softmax flushes the tail to exact zero, each
head is exactly one-hot, and the output matches the convolution up to
float32 rounding. A tail that stays above tiny (a small beta, or the
float64 verification dtype) bounds the difference by ~N*exp(-beta).

The attention layer replaces the conv; a switched block keeps no conv.
Every produced weight is trainable, but at the default beta the one-hot
softmax passes no gradient to the bias table, so only w_v, w_o and the
output bias learn. The layer's logits are the same for every sample, so
:func:`convattn.blocks.attention_mix` computes its probabilities once per
call rather than once per sample.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .blocks import AttnMixer, ConvMixer, HybridBlock, PositionalMixer, conv_mixer_forward, mhsa_forward
from .schedule import SA
from .tensor import ShapeError, Tensor

__all__ = ["ReparamReport", "reparameterize", "verify_equivalence", "switch_block", "DEFAULT_BETA"]

DEFAULT_BETA = 100.0


@dataclass
class ReparamReport:
    """Function-preservation evidence for one conv/attention pair."""

    num_samples: int
    max_abs_diff: float
    per_position_max: list[list[float]]
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_abs_diff < self.tolerance

    def to_dict(self) -> dict:
        return {
            "num_samples": self.num_samples,
            "max_abs_diff": self.max_abs_diff,
            "per_position_max": self.per_position_max,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def reparameterize(conv: ConvMixer, grid_hw: tuple[int, int], beta: float = DEFAULT_BETA) -> PositionalMixer:
    """Build the positional mixer (no q or k) that computes
    exactly what ``conv`` computes.

    Heads are indexed row-major over the receptive field: head k = i*K + j
    handles offset (i - K//2, j - K//2). All produced weights are trainable
    and the bias spikes are finite; the module docstring says what learns.
    """
    k_size = conv.kernel_size
    if k_size % 2 == 0:
        raise ShapeError(f"kernel size must be odd, got K={k_size}")
    d = conv.dim
    if conv.kernel.shape[3] != d:
        raise ShapeError("reparameterization needs a square conv (d_in == d_out) so W_v can be identity")
    h_t, w_t = grid_hw
    heads = k_size * k_size
    half = k_size // 2
    if half >= min(h_t, w_t):
        raise ShapeError(f"a K={k_size} kernel needs both grid sides above {half}, got {h_t}x{w_t}")
    dtype = conv.kernel.data.dtype

    w_v = np.broadcast_to(np.eye(d, dtype=dtype), (heads, d, d)).copy()
    w_o = np.empty((heads, d, d), dtype=dtype)
    b_rel = np.zeros((heads, 2 * h_t - 1, 2 * w_t - 1), dtype=dtype)
    for i in range(k_size):
        for j in range(k_size):
            head = i * k_size + j
            dr, dc = i - half, j - half
            w_o[head] = conv.kernel.data[i, j]
            b_rel[head, dr + h_t - 1, dc + w_t - 1] = beta
    weights = (w_v, w_o, b_rel, conv.bias.data.copy())
    return PositionalMixer(*(Tensor(w, requires_grad=True) for w in weights), (h_t, w_t))


def verify_equivalence(conv: ConvMixer, attn: AttnMixer | PositionalMixer, num_samples: int = 100,
                       tolerance: float = 1e-5, seed: int = 0,
                       batch: int = 25) -> ReparamReport:
    """Compare both mixers on random unit-normal token maps.

    Reports the global and per-position max absolute output difference over
    ``num_samples`` [h_t, w_t, d] maps of the attention mixer's geometry.
    """
    if num_samples < 1:
        raise ValueError(f"verify_equivalence needs at least 1 sample, got {num_samples}")
    h_t, w_t = attn.grid_hw
    d = attn.dim
    rng = np.random.default_rng(seed)
    per_pos = np.zeros((h_t, w_t))
    done = 0
    while done < num_samples:
        n = min(batch, num_samples - done)
        x = Tensor(rng.standard_normal((n, h_t, w_t, d)))
        diff = np.abs(conv_mixer_forward(x, conv).data - mhsa_forward(x, attn).data)
        per_pos = np.maximum(per_pos, diff.max(axis=(0, 3)))
        done += n
    return ReparamReport(
        num_samples=num_samples,
        max_abs_diff=float(per_pos.max()),
        per_position_max=[[float(v) for v in row] for row in per_pos],
        tolerance=tolerance,
    )


def switch_block(block: HybridBlock, grid_hw: tuple[int, int], beta: float = DEFAULT_BETA) -> HybridBlock:
    """Replace a conv-mode block's conv with the attention layer that
    computes the same function.

    The block keeps no conv afterwards; LayerNorm and MLP parameters are
    untouched. Switching an attention-mode block is a warned no-op, so the
    operation is idempotent.
    """
    if block.mode == SA:
        warnings.warn("switch_block called on a block already in attention mode; no-op", stacklevel=2)
        return block
    block.attn = reparameterize(block.conv, grid_hw, beta=beta)
    block.conv = None
    return block
