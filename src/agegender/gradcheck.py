"""Central finite-difference verification of analytic gradients.

The contract everywhere in this project: analytic vs central differences
(h=1e-5, float64), max elementwise relative error with the denominator
floored at 1e-8.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import InputError
from .tensor import Tape

DEFAULT_H = 1e-5
DENOM_FLOOR = 1e-8


def relative_error(analytic, numeric, floor=DENOM_FLOOR):
    """max |a - n| / max(|a|, |n|, floor), elementwise."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - n) / denom))


def numeric_grad(f, param, coords=None, h=DEFAULT_H):
    """Central differences of scalar-valued f() wrt entries of `param`.

    `f` must re-run the full forward pass and return a float; `param` is
    perturbed in place and restored. `coords` limits the check to a subset
    of flat indices (None checks every entry).
    """
    flat = param.data.reshape(-1)
    coords = list(range(flat.size)) if coords is None else list(coords)
    grad = np.zeros(len(coords))
    for out_i, i in enumerate(coords):
        orig = flat[i]
        flat[i] = orig + h
        up = f()
        flat[i] = orig - h
        down = f()
        flat[i] = orig
        grad[out_i] = (up - down) / (2.0 * h)
    return grad


def analytic_grad(build_loss, params):
    """Run one taped backward pass; returns {name: grad array} for `params`."""
    for p in params.values():
        p.zero_grad()
    with Tape() as tape:
        loss = build_loss()
        tape.backward(loss)
    out = {}
    for name, p in params.items():
        out[name] = np.zeros(p.shape) if p.grad is None else p.grad.copy()
    return out


def check_gradients(build_loss, params, coords_per_param=None, h=DEFAULT_H, rng=None):
    """Compare analytic and numeric gradients for every parameter group.

    build_loss: zero-arg callable returning the scalar loss Tensor (must be
    safe to call repeatedly). params: {name: Tensor}. When
    coords_per_param is given, that many flat coordinates are sampled per
    group with `rng`; otherwise every coordinate is checked.

    Returns (max_rel_err, {name: rel_err}); a NaN error in any group makes
    the max NaN, which no tolerance passes.
    """
    analytic = analytic_grad(build_loss, params)

    def loss_value():
        return build_loss().item()

    per_param = {}
    for name, p in params.items():
        if coords_per_param is None or p.size <= coords_per_param:
            coords = list(range(p.size))
        else:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = sorted(rng.choice(p.size, size=coords_per_param, replace=False).tolist())
        num = numeric_grad(loss_value, p, coords=coords, h=h)
        ana = analytic[name].reshape(-1)[coords]
        per_param[name] = relative_error(ana, num)
    # np.max keeps a NaN, where max() would drop it
    return float(np.max(list(per_param.values()), initial=0.0)), per_param


def model_gradcheck(config, coords_per_param=16, h=DEFAULT_H, seed=0, batch=2):
    """End-to-end check: combined training loss vs finite differences over
    every parameter group of a freshly initialized model, built in float64
    whatever `config.dtype` says (h=1e-5 is far below float32 resolution).

    Age targets sit near the untrained model's own predictions so the loss
    value stays small; that keeps central-difference cancellation noise
    below the tolerance for near-zero gradient entries (the error floor is
    one ulp of the loss divided by 2h).

    `coords_per_param` must be at least 1 and `h` finite and positive, or
    InputError: zero coordinates check nothing.
    """
    if coords_per_param < 1:
        raise InputError(f"gradcheck: coords per parameter group must be at least 1, got {coords_per_param}")
    if not 0 < h < math.inf:  # NaN fails both comparisons
        raise InputError(f"gradcheck: step h must be finite and positive, got {h}")
    from .fusion import FaceBodyModel
    from .losses import combined_loss, gender_loss, weighted_mse

    model = FaceBodyModel(dataclasses.replace(config, dtype="float64"))
    rng = np.random.default_rng(seed)
    side = config.image_side
    faces = rng.random((batch, side, side, 3))
    bodies = rng.random((batch, side, side, 3))
    g0, a0 = model.forward_batch(faces, bodies)
    ages = a0.data + rng.uniform(-0.05, 0.05, batch)
    labels = list(np.argmax(g0.data, axis=1))
    weights = rng.uniform(0.5, 1.5, batch)

    def build_loss():
        g, a = model.forward_batch(faces, bodies)
        return combined_loss(
            weighted_mse(a, ages, weights), gender_loss(g, labels), config.gender_loss_weight
        )

    return check_gradients(
        build_loss,
        model.params,
        coords_per_param=coords_per_param,
        h=h,
        rng=np.random.default_rng(seed + 1),
    )
