"""Cross-view feature fusion and the dual-input model.

A :class:`CropPair` is the unit of inference: a face crop, a body crop, or
both. An absent side is by convention the zero image, so flagging a side
absent and feeding explicit zeros are bitwise-identical, and the skip path
can substitute the zero-input embedding (the bias, tiled) without running
the projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .config import ModelConfig
from .errors import DimensionError, InputError
from .volo import (
    head_forward,
    init_linear,
    init_norm,
    init_patch_embed,
    init_trunk,
    linear,
    lnorm,
    patch_embed,
    trunk_forward,
    zero_input_tokens,
)


@dataclass
class CropPair:
    """Preprocessed (face, body) input pair; either side may be absent."""

    face: Optional[np.ndarray] = None  # [S, S, 3] normalized crop, channels-last
    body: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.face is None and self.body is None:
            raise InputError("a crop pair needs at least one of face/body")

    @property
    def face_present(self):
        return self.face is not None

    @property
    def body_present(self):
        return self.body is not None

    def as_arrays(self, side, dtype):
        """(face, body) [side, side, 3] arrays in `dtype`, with the zero
        image standing in for absence."""
        zero = np.zeros((side, side, 3), dtype=dtype)
        face = self.face if self.face_present else zero
        body = self.body if self.body_present else zero
        return np.asarray(face, dtype=dtype), np.asarray(body, dtype=dtype)


# ---------------------------------------------------------------------------
# feature enhancer


def init_enhancer(params, rng, cfg):
    c = cfg.stage1_width
    for prefix in ("enhancer.face_from_body", "enhancer.body_from_face"):
        init_norm(params, prefix + ".norm_q", rng, c)
        init_norm(params, prefix + ".norm_kv", rng, c)
        for name in ("q", "k", "v", "proj"):
            init_linear(params, f"{prefix}.{name}", rng, c, c)
    init_norm(params, "enhancer.fuse.norm", rng, 2 * c)
    init_linear(params, "enhancer.fuse.fc1", rng, 2 * c, 2 * c)
    init_linear(params, "enhancer.fuse.fc2", rng, 2 * c, c)


def cross_attention_unit(params, prefix, q_tokens, kv_tokens, cfg):
    """Residual multi-head cross-attention: queries from one view, keys and
    values from the other. Pre-norm on both views."""
    qn = lnorm(params, prefix + ".norm_q", q_tokens)
    kn = lnorm(params, prefix + ".norm_kv", kv_tokens)
    q = linear(params, prefix + ".q", qn)
    k = linear(params, prefix + ".k", kn)
    v = linear(params, prefix + ".v", kn)
    out = T.attention(q, k, v, cfg.enhancer_heads)
    return q_tokens + linear(params, prefix + ".proj", out)


def enhance(params, face_tokens, body_tokens, cfg):
    """Cross-enrich both views, concatenate (2C) and fuse back down to C."""
    if face_tokens.shape != body_tokens.shape:
        raise DimensionError(
            f"enhance: face {face_tokens.shape} and body {body_tokens.shape} must match"
        )
    f = cross_attention_unit(params, "enhancer.face_from_body", face_tokens, body_tokens, cfg)
    b = cross_attention_unit(params, "enhancer.body_from_face", body_tokens, face_tokens, cfg)
    cat = T.concat([f, b], axis=-1)  # [B, T, 2C]
    h = T.gelu(linear(params, "enhancer.fuse.fc1", lnorm(params, "enhancer.fuse.norm", cat)))
    return linear(params, "enhancer.fuse.fc2", h)  # [B, T, C]


# ---------------------------------------------------------------------------
# full model


def init_params(config: ModelConfig, rng):
    """The model's parameters {path: Tensor} in `config.dtype`, drawn from
    `rng`. With rng None nothing is drawn or allocated: each parameter is a
    `volo.placeholder` array, the architecture's names and shapes for a
    loader.
    """
    params = {}
    init_patch_embed(params, "face_embed", rng, config)
    init_patch_embed(params, "body_embed", rng, config)
    init_enhancer(params, rng, config)
    init_trunk(params, rng, config)
    if rng is None:
        return params
    # drawn in float64, so a seed gives the same weights in both dtypes
    # up to rounding
    dtype = np.dtype(config.dtype)
    for p in params.values():
        p.data = p.data.astype(dtype, copy=False)
    return params


class FaceBodyModel:
    """Dual-input age & gender estimator.

    Two patch embeddings (separate face/body parameter sets) feed the
    feature enhancer, whose fused token grid runs through the VOLO-style
    trunk into the single joint 3-vector head. Parameters, inputs and
    activations are all in `config.dtype`.
    """

    def __init__(self, config: ModelConfig, rng=None, params=None):
        """Random init from `rng` (default: seeded by `config.seed`), or,
        when `params` {path: Tensor} is given, those parameters as they
        are and no random draws."""
        self.config = config
        self.dtype = np.dtype(config.dtype)
        if params is None:
            params = init_params(config, np.random.default_rng(config.seed) if rng is None else rng)
        self.params = params

    # -- parameter bookkeeping ------------------------------------------------

    @property
    def frozen(self):
        """Paths of the parameters that take no gradient."""
        return {name for name, p in self.params.items() if not p.requires_grad}

    def freeze(self, prefix):
        """Freeze every parameter whose path starts with `prefix`."""
        hits = [name for name in self.params if name.startswith(prefix)]
        if not hits:
            raise InputError(f"no parameters under {prefix!r}")
        for name in hits:
            self.params[name].requires_grad = False
            self.params[name].grad = None

    def zero_grads(self):
        for p in self.params.values():
            p.grad = None

    def parameter_count(self):
        return sum(p.size for p in self.params.values())

    # -- forward ---------------------------------------------------------------

    def forward_batch(self, faces, bodies, ctx=None, skip=None):
        """Run a batch of (face, body) image pairs.

        faces/bodies: channels-last [B, S, S, 3] arrays (zero image where
        absent), cast to the model's dtype.
        skip: None, "face" or "body"; the named side is known absent for
        the whole batch and its embedding is substituted by the zero-input
        tokens (the embedding bias, tiled) instead of running the projection.

        Returns (gender_logits [B, 2], age_norm [B]) tensors.
        """
        if skip not in (None, "face", "body"):
            raise InputError(f"forward_batch: skip must be None, 'face' or 'body', got {skip!r}")
        cfg = self.config
        s = cfg.image_side
        batch = faces.shape[0] if skip != "face" else bodies.shape[0]

        def embed(side, images):
            if skip == side:
                return zero_input_tokens(self.params, side + "_embed", cfg, batch)
            if np.shape(images)[1:] != (s, s, 3):
                raise DimensionError(
                    f"forward_batch: {side} images must be channels-last [B, {s}, {s}, 3], got {np.shape(images)}"
                )
            # cast inline, so the cast copy is freed before the projection
            # runs: kept alive, it shifted heap reuse enough to make a
            # batch-64 skip forward slower than the full one
            return patch_embed(self.params, side + "_embed", T.constant(np.asarray(images, dtype=self.dtype)), cfg)

        fused = enhance(self.params, embed("face", faces), embed("body", bodies), cfg)
        g = cfg.grid_side
        grid = T.reshape(fused, (batch, g, g, cfg.stage1_width))
        tokens = trunk_forward(self.params, grid, cfg, ctx)
        return head_forward(self.params, "head", tokens, cfg, ctx)

    def forward_pair(self, pair: CropPair):
        """One pair -> (gender logits [2], normalized age scalar)."""
        face, body = pair.as_arrays(self.config.image_side, self.dtype)
        logits, age = self.forward_batch(face[None], body[None])
        return logits.data[0].copy(), float(age.data[0])

    def forward_pair_skip(self, pair: CropPair):
        """Like forward_pair, but substitutes the absent side's zero-input
        embedding without running its projection. Only applicable when
        exactly one side is absent."""
        if pair.face_present and pair.body_present:
            raise InputError("skip path inapplicable: both sides present")
        skip = "face" if not pair.face_present else "body"
        face, body = pair.as_arrays(self.config.image_side, self.dtype)
        logits, age = self.forward_batch(face[None], body[None], skip=skip)
        return logits.data[0].copy(), float(age.data[0])
