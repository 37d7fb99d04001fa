"""Run configuration: ``TrainConfig``, which checks its ranges and model
geometry when built, and its line-oriented file grammar. A checkpoint
carries ``TrainConfig.to_dict()``; ``checkpoint.config_from_checkpoint``
reads it back.

Grammar: one ``key = value`` pair per line, ``#`` comments, blank lines
ignored. Keys may be dotted (``optimizer.lr``) or the flat field names of
TrainConfig (``lr``); the dotted spellings below are aliases. Values are
parsed as int, float, bool (true/false), none, or a bare string.

Presets ship as config files inside the package (``desk``, ``interp``,
``fullscale``) and can be combined with a config file and ``--set`` overrides;
later sources win.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, fields
from importlib import resources

import numpy as np

from .blocks import Model, build_model
from .data import DATASETS
from .reparam import DEFAULT_BETA
from .schedule import SwitchSchedule

__all__ = ["TrainConfig", "ConfigError", "parse_config_text", "load_config_file", "load_preset",
           "apply_overrides", "build_train_config", "PRESETS"]

PRESETS = ("desk", "interp", "fullscale")


# each TrainConfig annotation: the values a field takes, and their name in errors
_FIELD_TYPES = {
    "int": (numbers.Integral, "an integer"),
    "int | None": ((numbers.Integral, type(None)), "an integer or none"),
    "float": (numbers.Real, "a number"),
    "bool": (bool, "true or false"),
    "str": (str, "a string"),
    "tuple[int, int]": (tuple, "a pair of positive integers"),
}


class ConfigError(ValueError):
    pass


@dataclass
class TrainConfig:
    # model
    dim: int = 32
    num_layers: int = 4
    kernel_size: int = 3
    patch_size: int = 4
    mlp_ratio: int = 4
    num_classes: int = 10
    image_hw: tuple[int, int] = (32, 32)
    in_channels: int = 3
    use_abs_pos: bool = False
    final_ln: bool = True
    beta_spike: float = DEFAULT_BETA
    # schedule
    schedule_kind: str = "linear"
    total_epochs: int = 40
    e_switch: int | None = None
    # optimizer
    lr: float = 5e-4
    weight_decay: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    warmup_epochs: int = 5
    cosine_decay: bool = True
    label_smoothing: float = 0.1
    batch_size: int = 128
    # data
    dataset: str = "cifar10"
    data_dir: str = "data"
    fraction: float = 0.1
    eval_fraction: float = 1.0
    seed: int = 0
    augment: bool = True
    normalize: bool = True
    # artifacts
    checkpoint_every: int = 0  # 0 = final checkpoint only

    def __post_init__(self):
        for f in fields(self):
            value, (expected, what) = getattr(self, f.name), _FIELD_TYPES[f.type]
            # bool is an int to Python: a number field refuses it, a bool field takes nothing else
            if isinstance(value, bool) != (expected is bool) or not isinstance(value, expected):
                raise ValueError(f"{f.name} must be {what}, got {value!r}")
        if len(self.image_hw) != 2 or not all(
                isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 1 for v in self.image_hw):
            raise ValueError(f"image_hw must be a pair of positive integers, got {self.image_hw!r}")
        for name in ("fraction", "eval_fraction"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {getattr(self, name)}")
        if self.total_epochs < 1:
            raise ValueError("total_epochs must be >= 1")
        if self.dataset not in DATASETS:
            raise ValueError(f"unknown dataset {self.dataset!r}; expected one of {DATASETS}")
        for name in ("dim", "num_layers", "kernel_size", "patch_size", "mlp_ratio",
                     "num_classes", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer, got {getattr(self, name)!r}")
        if self.kernel_size % 2 == 0:
            raise ValueError(f"kernel size must be odd, got K={self.kernel_size}")
        h, w = self.image_hw
        if h % self.patch_size or w % self.patch_size:
            raise ValueError(f"image {h}x{w} not divisible by patch size {self.patch_size}")

    def schedule(self) -> SwitchSchedule:
        """The switch schedule. Checked here, not when built: interp replaces its kind."""
        try:
            return SwitchSchedule(self.total_epochs, self.num_layers, self.schedule_kind, self.e_switch)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def grid_hw(self) -> tuple[int, int]:
        return (self.image_hw[0] // self.patch_size, self.image_hw[1] // self.patch_size)

    def build_model(self, modes: list[str], rng: np.random.Generator) -> Model:
        """A model of this architecture with the given per-layer modes."""
        return build_model(self.dim, self.num_layers, self.kernel_size, self.patch_size, self.image_hw,
                           self.in_channels, self.num_classes, modes, rng, mlp_ratio=self.mlp_ratio,
                           use_abs_pos=self.use_abs_pos, final_ln=self.final_ln)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["image_hw"] = list(self.image_hw)
        return d


# dotted-key aliases -> TrainConfig field
KEY_ALIASES = {
    "model.dim": "dim",
    "model.num_layers": "num_layers",
    "model.kernel_size": "kernel_size",
    "model.patch_size": "patch_size",
    "model.mlp_ratio": "mlp_ratio",
    "model.num_classes": "num_classes",
    "model.use_abs_pos": "use_abs_pos",
    "model.final_ln": "final_ln",
    "model.beta_spike": "beta_spike",
    "schedule.kind": "schedule_kind",
    "schedule.total_epochs": "total_epochs",
    "schedule.e_switch": "e_switch",
    "optimizer.lr": "lr",
    "optimizer.weight_decay": "weight_decay",
    "optimizer.beta1": "beta1",
    "optimizer.beta2": "beta2",
    "optimizer.warmup_epochs": "warmup_epochs",
    "optimizer.cosine_decay": "cosine_decay",
    "train.batch_size": "batch_size",
    "train.label_smoothing": "label_smoothing",
    "train.checkpoint_every": "checkpoint_every",
    "data.dataset": "dataset",
    "data.dir": "data_dir",
    "data.fraction": "fraction",
    "data.eval_fraction": "eval_fraction",
    "data.seed": "seed",
    "data.augment": "augment",
    "data.normalize": "normalize",
}

_FIELDS = set(TrainConfig.__dataclass_fields__)


def _parse_value(raw: str):
    text = raw.strip()
    low = text.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    if low in ("none", "null"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_config_text(text: str, source: str = "<config>") -> dict:
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        out[key] = _parse_value(raw)
    return out


def load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, source=path)


def load_preset(name: str) -> dict:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}")
    text = resources.files("convattn").joinpath(f"presets/{name}.cfg").read_text()
    return parse_config_text(text, source=f"preset:{name}")


def apply_overrides(mapping: dict, overrides) -> dict:
    out = dict(mapping)
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, _, raw = item.partition("=")
        out[key.strip()] = _parse_value(raw)
    return out


def build_train_config(mapping: dict) -> TrainConfig:
    fields: dict = {}
    for key, value in mapping.items():
        name = KEY_ALIASES.get(key, key)
        if name not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        fields[name] = value
    if "image_hw" in fields and isinstance(fields["image_hw"], str):
        try:
            h, w = (int(p) for p in fields["image_hw"].lower().split("x"))
        except ValueError:
            raise ConfigError(f"image_hw must look like 32x32, got {fields['image_hw']!r}") from None
        fields["image_hw"] = (h, w)
    try:
        return TrainConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
