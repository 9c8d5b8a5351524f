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

# the standard moment decay rates and eps (Loshchilov & Hutter, arXiv:1711.05101)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def warmup_lr(step, config):
    """Linear ramp from the warmup rate to the base rate, constant after."""
    base = config.learning_rate
    horizon = config.warmup_steps
    if horizon <= 0 or step >= horizon:
        return base
    frac = step / horizon
    return config.warmup_start_lr + frac * (base - config.warmup_start_lr)


class AdamW:
    """Standard decoupled update with bias-corrected moments.

    It trains exactly the parameters that require gradients when it is
    built; a frozen parameter (`requires_grad` False) is never touched,
    and freezing or unfreezing one later does not change that set. A
    missing gradient is a zero gradient (the decay term still applies).
    `master` maps each trained parameter to its float64 weights: the
    parameter's own array when it is float64 (so float64 training is
    exactly the plain update), a copy taken here when it is float32.
    After construction, change trained parameters only through `step`:
    the master does not see a direct write to a float32 parameter.
    """

    def __init__(self, params, config):
        self.params = params
        self.config = config
        self.step_count = 0
        self.master = {}
        self._m = {}
        self._v = {}
        for name, p in params.items():
            if p.requires_grad:
                self.master[name] = p.data.astype(np.float64, copy=False)
                self._m[name] = np.zeros(p.shape)
                self._v[name] = np.zeros(p.shape)

    def step(self, lr=None):
        cfg = self.config
        if lr is None:
            lr = cfg.learning_rate
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - BETA1**t
        bias2 = 1.0 - BETA2**t
        for name, w in self.master.items():
            p = self.params[name]
            g = np.asarray(p.grad, dtype=np.float64) if p.grad is not None else np.zeros(p.shape)
            if not np.isfinite(g).all():
                raise NumericalError(f"non-finite gradient for {name}")
            if cfg.weight_decay:
                w -= lr * cfg.weight_decay * w
            m = self._m[name]
            v = self._v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            w -= lr * (m / bias1) / (np.sqrt(v / bias2) + EPS)
            if w is not p.data:
                p.data[...] = w

