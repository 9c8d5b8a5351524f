"""Decoupled-weight-decay adaptive optimizer and the warmup schedule."""

from __future__ import annotations

import numpy as np

from .errors import NumericalError


def effective_lr(config):
    """Base learning rate, linearly scaled by batch size when enabled."""
    lr = config.learning_rate
    if config.scale_lr_with_batch:
        lr = lr * config.batch_size / config.base_batch_size
    return lr


def warmup_lr(step, config):
    """Linear ramp from the warmup rate to the base rate, constant after."""
    base = effective_lr(config)
    horizon = config.warmup_steps
    if horizon <= 0 or step >= horizon:
        return base
    frac = step / horizon
    return config.warmup_start_lr + frac * (base - config.warmup_start_lr)


class AdamW:
    """Standard decoupled update with bias-corrected moments.

    Frozen parameter paths are skipped entirely; a missing gradient is a
    zero gradient (the decay term still applies).
    """

    def __init__(self, params, config, frozen=()):
        self.params = params
        self.config = config
        self.frozen = set(frozen)
        self.step_count = 0
        self._m = {}
        self._v = {}
        for name, p in params.items():
            if name not in self.frozen:
                self._m[name] = np.zeros(p.shape)
                self._v[name] = np.zeros(p.shape)

    def step(self, lr=None):
        cfg = self.config
        if lr is None:
            lr = effective_lr(cfg)
        self.step_count += 1
        t = self.step_count
        b1, b2 = cfg.beta1, cfg.beta2
        bias1 = 1.0 - b1**t
        bias2 = 1.0 - b2**t
        for name, p in self.params.items():
            if name in self.frozen:
                continue
            g = p.grad if p.grad is not None else np.zeros(p.shape)
            if not np.isfinite(g).all():
                raise NumericalError(f"non-finite gradient for {name}")
            if cfg.weight_decay:
                p.data -= lr * cfg.weight_decay * p.data
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.data -= lr * (m / bias1) / (np.sqrt(v / bias2) + cfg.adam_eps)

