"""Decoupled-weight-decay adaptive optimizer and the warmup schedule.

Optimizer state is float64 whatever the parameters' dtype (mixed
precision in the manner of Micikevicius et al., arXiv:1710.03740): the
moments, and for a float32 parameter a float64 master copy that takes
every update and is rounded back into the parameter after each step.
Without the master, updates below float32 resolution would vanish: the
default lr * weight_decay is about 7.5e-10, under half an ulp of 1.0.
"""

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
    zero gradient (the decay term still applies). `master` maps each
    trained parameter to its float64 weights: the parameter's own array
    when it is float64 (so float64 training is exactly the plain update),
    a copy taken here when it is float32. After construction, change
    trained parameters only through `step`: the master does not see a
    direct write to a float32 parameter.
    """

    def __init__(self, params, config, frozen=()):
        self.params = params
        self.config = config
        self.frozen = set(frozen)
        self.step_count = 0
        self.master = {}
        self._m = {}
        self._v = {}
        for name, p in params.items():
            if name not in self.frozen:
                self.master[name] = p.data.astype(np.float64, copy=False)
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
            g = np.asarray(p.grad, dtype=np.float64) if p.grad is not None else np.zeros(p.shape)
            if not np.isfinite(g).all():
                raise NumericalError(f"non-finite gradient for {name}")
            w = self.master[name]
            if cfg.weight_decay:
                w -= lr * cfg.weight_decay * w
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            w -= lr * (m / bias1) / (np.sqrt(v / bias2) + cfg.adam_eps)
            if w is not p.data:
                p.data[...] = w

