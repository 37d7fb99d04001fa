"""Per-layer conv-to-attention switch schedules.

The linear rule keeps layer l convolutional while t <= T * (1 - l/(L+1)),
so rear layers switch first and spend the longest stretch as self-attention.
Epochs are 1-indexed and the rule is evaluated at epoch start: a layer whose
condition flips is reparameterized before the first batch of that epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CONV",
    "SA",
    "KINDS",
    "SwitchSchedule",
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


def mode_at(schedule: SwitchSchedule, t: int, layer: int) -> str:
    """Mode of ``layer`` (1-based) at epoch ``t`` (1-based), CONV or SA.

    The linear condition t <= T*(1 - l/(L+1)) is evaluated in exact integer
    arithmetic as t*(L+1) <= T*(L+1-l).
    """
    T, L = schedule.total_epochs, schedule.num_layers
    if not 1 <= t <= T:
        raise ValueError(f"epoch {t} out of range 1..{T}")
    if not 1 <= layer <= L:
        raise ValueError(f"layer {layer} out of range 1..{L}")
    if schedule.kind == "all-conv":
        return CONV
    if schedule.kind == "all-sa":
        return SA
    if schedule.kind == "uniform":
        return CONV if t <= schedule.e_switch else SA
    return CONV if t * (L + 1) <= T * (L + 1 - layer) else SA


def switch_epochs(schedule: SwitchSchedule) -> list[tuple[int, int]]:
    """(layer, first SA epoch) for every layer that switches within the run.

    Sorted ascending by epoch, rear layers first on ties, matching the order
    switches are applied within an epoch.
    """
    out = []
    for layer in range(1, schedule.num_layers + 1):
        first_sa = None
        if mode_at(schedule, 1, layer) == SA:
            first_sa = 1
        else:
            for t in range(2, schedule.total_epochs + 1):
                if mode_at(schedule, t, layer) == SA:
                    first_sa = t
                    break
        if first_sa is not None and first_sa > 1:
            out.append((layer, first_sa))
    out.sort(key=lambda pair: (pair[1], -pair[0]))
    return out


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
