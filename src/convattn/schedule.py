"""Per-layer conv-to-attention switch schedules.

A schedule keeps layer l convolutional for its first conv_epochs(l) epochs,
0 to T. The linear rule gives floor(T * (1 - l/(L+1))), so rear layers switch
first and spend the longest stretch as self-attention. Epochs are 1-indexed;
a layer is reparameterized before the first batch of its first SA epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CONV",
    "SA",
    "KINDS",
    "SwitchSchedule",
    "conv_epochs",
    "mode_at",
    "switch_epochs",
    "interpolation_settings",
]

CONV = "conv"
SA = "sa"

KINDS = ("linear", "uniform", "all-conv", "all-sa")


@dataclass(frozen=True)
class SwitchSchedule:
    """Switch rule over a training run: T epochs, L layers, one of KINDS.

    ``e_switch`` applies to the uniform kind only: all layers are
    convolutional through epoch e_switch and self-attention afterwards.
    """

    total_epochs: int
    num_layers: int
    kind: str = "linear"
    e_switch: int | None = None

    def __post_init__(self):
        if self.total_epochs < 1 or self.num_layers < 1:
            raise ValueError(f"need T >= 1 and L >= 1, got T={self.total_epochs}, L={self.num_layers}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "uniform":
            if self.e_switch is None or not 0 <= self.e_switch <= self.total_epochs:
                raise ValueError(f"uniform schedule needs 0 <= e_switch <= T, got {self.e_switch}")
        elif self.e_switch is not None:
            raise ValueError(f"e_switch only applies to the uniform kind, not {self.kind!r}")


def conv_epochs(schedule: SwitchSchedule, layer: int) -> int:
    """How many epochs ``layer`` (1-based) stays convolutional, 0 to T, in
    exact integer arithmetic."""
    T, L = schedule.total_epochs, schedule.num_layers
    if not 1 <= layer <= L:
        raise ValueError(f"layer {layer} out of range 1..{L}")
    if schedule.kind == "linear":
        return T * (L + 1 - layer) // (L + 1)
    if schedule.kind == "uniform":
        return schedule.e_switch
    return T if schedule.kind == "all-conv" else 0


def mode_at(schedule: SwitchSchedule, t: int, layer: int) -> str:
    """Mode of ``layer`` (1-based) at epoch ``t`` (1-based), CONV or SA."""
    if not 1 <= t <= schedule.total_epochs:
        raise ValueError(f"epoch {t} out of range 1..{schedule.total_epochs}")
    return CONV if t <= conv_epochs(schedule, layer) else SA


def switch_epochs(schedule: SwitchSchedule) -> list[tuple[int, int]]:
    """(layer, first SA epoch) of every layer that switches within the run,
    by epoch and rear layers first on ties: the order switches are applied in."""
    counts = ((layer, conv_epochs(schedule, layer)) for layer in range(schedule.num_layers, 0, -1))
    return sorted(((layer, n + 1) for layer, n in counts if 0 < n < schedule.total_epochs),
                  key=lambda pair: pair[1])


def interpolation_settings(total_epochs: int = 300, num_layers: int = 6) -> list[SwitchSchedule]:
    """The conv/SA epoch splits of the interpolation experiment.

    At T=300 these are conv 300/SA 0, 250/50, 150/150 and 50/250; other T
    values preserve the split ratios (used for desk-scale runs). A split whose
    rounded switch epoch an earlier split already has is skipped, so a short
    run trains fewer than four settings (T=2 gives conv 2, 1 and 0), each once.
    """
    if total_epochs < 1:
        raise ValueError("total_epochs must be >= 1")
    splits = ((1, 1), (5, 6), (1, 2), (1, 6))
    e_switches = dict.fromkeys(round(total_epochs * num / den) for num, den in splits)
    return [SwitchSchedule(total_epochs, num_layers, "uniform", e) for e in e_switches]
