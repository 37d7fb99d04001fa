"""AdamW with decoupled weight decay, plus the warmup/cosine LR rule.

Optimizer state is keyed by parameter name, so a parameter set rebuilt
mid-training (a conv mixer replaced by attention) keeps moments for the
names that persist and starts fresh moments, including step counts for bias
correction, for the names that are new.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor

__all__ = ["AdamW", "lr_at"]


class AdamW:
    def __init__(self, named_params, lr: float = 5e-4, betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.05):
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.params: dict[str, Tensor] = {}
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.steps: dict[str, int] = {}
        self.set_params(named_params)

    def set_params(self, named_params) -> None:
        """Adopt a (possibly changed) parameter set, pruning stale state."""
        self.params = dict(named_params)
        for name, p in self.params.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
                self.steps[name] = 0
        for name in list(self.m):
            if name not in self.params:
                del self.m[name], self.v[name], self.steps[name]

    def zero_grad(self) -> None:
        """Clear each parameter's ``grad``; kept only for the benchmark's ``sweep``."""
        for p in self.params.values():
            p.grad = None

    def step(self, grads: dict | None = None) -> None:
        """One update from ``grads``, a map from parameter tensor to gradient
        (as :func:`convattn.tensor.backward` returns), or from each
        parameter's ``grad`` without it; that form is kept only for the
        benchmark's ``sweep``. A missing gradient reads as zero."""
        for name, p in self.params.items():
            g = p.grad if grads is None else grads.get(p)
            if g is None:
                g = np.zeros_like(p.data)
            t = self.steps[name] + 1
            self.steps[name] = t
            m = self.m[name]
            v = self.v[name]
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            m_hat = m / (1.0 - self.beta1**t)
            v_hat = v / (1.0 - self.beta2**t)
            p.data -= self.lr * (m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * p.data)


def lr_at(epoch: int, total_epochs: int, base_lr: float, warmup_epochs: int = 5,
          cosine_decay: bool = True) -> float:
    """Learning rate for a 1-indexed epoch: linear warmup then cosine to zero."""
    if epoch <= warmup_epochs:
        return base_lr * epoch / max(warmup_epochs, 1)
    if not cosine_decay or total_epochs <= warmup_epochs:
        return base_lr
    progress = (epoch - warmup_epochs) / (total_epochs - warmup_epochs)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))
