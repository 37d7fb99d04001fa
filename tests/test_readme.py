"""The README's library snippets run as documented."""

import os
import re

import numpy as np
import pytest

from convattn.blocks import build_model
from convattn.config import build_train_config, load_preset
from convattn.spectral import TARGET_FREQS
from convattn.tensor import Tensor

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _library_snippets() -> list[str]:
    text = open(README, encoding="utf-8").read()
    section = text.split("## Library entry points", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


@pytest.mark.parametrize("preset, targets", [("desk", TARGET_FREQS[1:]), ("interp", TARGET_FREQS)])
def test_library_snippets_run(preset, targets):
    snippets = _library_snippets()
    assert len(snippets) == 2
    assert all(name in snippets[1] for name in ("model_forward(", "model_forward_features(", "depth_profile("))
    c = build_train_config(load_preset(preset))
    rng = np.random.default_rng(0)
    model = build_model(c.dim, c.num_layers, c.kernel_size, c.patch_size, c.image_hw, c.in_channels, c.num_classes,
                        ["conv"] * (c.num_layers - 1) + ["sa"], rng, mlp_ratio=c.mlp_ratio)
    images = rng.standard_normal((4, *c.image_hw, c.in_channels)).astype(np.float32)
    scope = {"model": model, "images": Tensor(images)}
    for snippet in snippets:
        exec(compile(snippet, README, "exec"), scope)
    assert scope["logits"].shape == (4, c.num_classes)
    assert len(scope["maps"]) == c.num_layers
    assert scope["profile"].targets == list(targets)
    assert len(scope["profile"].deltas) == c.num_layers
