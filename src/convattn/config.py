"""Line-oriented run configuration.

Grammar: one ``key = value`` pair per line, ``#`` comments, blank lines
ignored. Keys may be dotted (``optimizer.lr``) or the flat field names of
TrainConfig (``lr``); the dotted spellings below are aliases. Values are
parsed as int, float, bool (true/false), none, or a bare string.

Presets ship as config files inside the package (``desk``, ``interp``,
``fullscale``) and can be combined with a config file and ``--set`` overrides;
later sources win.
"""

from __future__ import annotations

from importlib import resources

from .train import TrainConfig

__all__ = ["ConfigError", "parse_config_text", "load_config_file", "load_preset",
           "apply_overrides", "build_train_config", "PRESETS"]

PRESETS = ("desk", "interp", "fullscale")

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


class ConfigError(ValueError):
    pass


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
