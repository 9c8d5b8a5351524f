"""VOLO-style trunk blocks over the tape engine.

Everything is functional: parameters live in a flat {path: Tensor} dict
and every forward takes (params, prefix, input). That keeps checkpointing,
freezing and finite-difference checks trivial, and matches the
pure-function concurrency story: the active tape is per thread, so threads
may read the same frozen weights at once, each training under its own tape
or inferring untaped.

Token grids are [B, H, W, C]; token sequences are [B, T, C].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DimensionError


@dataclass
class TrainContext:
    """Training-only stochasticity (dropout / stochastic depth)."""

    rng: np.random.Generator
    drop_rate: float = 0.0
    drop_path_rate: float = 0.0


def _mask(u, keep, dtype):
    """Inverted-dropout mask: 1/keep where u < keep, else 0, in `dtype`.

    The bool array times a `dtype` scalar is built in one pass, with the
    values of `((u < keep) / keep).astype(dtype)`: 1/keep rounded once.
    """
    return (u < keep) * dtype.type(1.0 / keep)


def _dropout(x, ctx):
    if ctx is None or ctx.drop_rate <= 0.0:
        return x
    keep = 1.0 - ctx.drop_rate
    return x * T.constant(_mask(ctx.rng.random(x.shape), keep, x.data.dtype))


def _drop_path(x, ctx):
    # per-sample residual-branch drop (stochastic depth)
    if ctx is None or ctx.drop_path_rate <= 0.0:
        return x
    keep = 1.0 - ctx.drop_path_rate
    shape = (x.shape[0],) + (1,) * (x.ndim - 1)
    return x * T.constant(_mask(ctx.rng.random(shape), keep, x.data.dtype))


# ---------------------------------------------------------------------------
# parameter construction


def trunc_normal(rng, shape, std=0.02):
    """Normal(0, std) with resampling beyond 2 std."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out


def placeholder(shape):
    """A read-only zero of `shape` that allocates nothing (every stride 0):
    what the init functions give for a parameter when rng is None."""
    return np.broadcast_to(np.float64(0.0), shape)


def init_linear(params, name, rng, fan_in, fan_out):
    """Truncated-normal weight and zero bias; with rng None both are
    placeholders and nothing is drawn."""
    shape = (fan_in, fan_out)
    if rng is None:
        params[name + ".weight"], params[name + ".bias"] = placeholder(shape), placeholder((fan_out,))
        return
    params[name + ".weight"] = T.parameter(trunc_normal(rng, shape))
    params[name + ".bias"] = T.parameter(np.zeros(fan_out))


def init_norm(params, name, rng, width):
    """Unit gain and zero shift; with rng None both are placeholders."""
    if rng is None:
        params[name + ".gamma"], params[name + ".beta"] = placeholder((width,)), placeholder((width,))
        return
    params[name + ".gamma"] = T.parameter(np.ones(width))
    params[name + ".beta"] = T.parameter(np.zeros(width))


def linear(params, name, x):
    return T.linear(x, params[name + ".weight"], params[name + ".bias"])


def lnorm(params, name, x):
    return T.layer_norm(x, params[name + ".gamma"], params[name + ".beta"])


def _init_mlp(params, prefix, rng, width, ratio):
    init_linear(params, prefix + ".fc1", rng, width, ratio * width)
    init_linear(params, prefix + ".fc2", rng, ratio * width, width)


def _mlp(params, prefix, x, ctx):
    h = T.gelu(linear(params, prefix + ".fc1", x))
    h = _dropout(h, ctx)
    return linear(params, prefix + ".fc2", h)


# ---------------------------------------------------------------------------
# patch embedding


def init_patch_embed(params, prefix, rng, cfg):
    init_linear(params, prefix, rng, 3 * cfg.patch_size**2, cfg.stage1_width)


def patch_embed(params, prefix, images, cfg):
    """[B, H, W, 3] image batch -> [B, T, C] tokens, T = (H/p)*(W/p)."""
    return linear(params, prefix, T.space_to_depth(images, cfg.patch_size))


def zero_input_tokens(params, prefix, cfg, batch):
    """Token grid a zero image embeds to: the bias, tiled.

    Exactly what `patch_embed` produces on a zero image (0 @ W + b == b,
    bitwise), so the skip path can substitute it without running the
    projection.
    """
    bias = params[prefix + ".bias"].data
    t = cfg.token_count
    return T.constant(np.broadcast_to(bias, (batch, t, bias.shape[0])))  # the tensor copies


# ---------------------------------------------------------------------------
# outlooker


def init_outlooker(params, prefix, rng, cfg):
    c = cfg.stage1_width
    k = cfg.outlook_window
    init_norm(params, prefix + ".norm1", rng, c)
    init_linear(params, prefix + ".attn", rng, c, cfg.outlook_heads * k**4)
    init_linear(params, prefix + ".v", rng, c, c)
    init_linear(params, prefix + ".proj", rng, c, c)
    init_norm(params, prefix + ".norm2", rng, c)
    _init_mlp(params, prefix + ".mlp", rng, c, cfg.mlp_ratio)


def outlooker_forward(params, prefix, x, cfg, ctx=None):
    """Local-window attention where the weights come straight from a linear
    projection of each center token (no query-key products), then MLP.
    Spatial shape is preserved.
    """
    _, h, w, _ = x.shape
    k = cfg.outlook_window
    if h < k or w < k:
        raise ConfigError(f"outlook window {k} exceeds token grid {h}x{w}")

    xn = lnorm(params, prefix + ".norm1", x)
    attn = linear(params, prefix + ".attn", xn)
    v = linear(params, prefix + ".v", xn)
    grid = linear(params, prefix + ".proj", T.outlook_attention(attn, v, k, cfg.outlook_heads))

    x = x + _drop_path(grid, ctx)
    x = x + _drop_path(_mlp(params, prefix + ".mlp", lnorm(params, prefix + ".norm2", x), ctx), ctx)
    return x


# ---------------------------------------------------------------------------
# downsampling


def init_downsample(params, prefix, rng, cfg):
    c = cfg.stage1_width
    init_linear(params, prefix, rng, 4 * c, 2 * c)


def downsample_forward(params, prefix, x):
    """2x2 patch merge via linear projection: [B, h, w, C] grid ->
    [B, (h/2)*(w/2), 2C] token sequence."""
    return linear(params, prefix, T.space_to_depth(x, 2))


# ---------------------------------------------------------------------------
# transformer


def init_transformer(params, prefix, rng, cfg):
    d = cfg.stage2_width
    init_norm(params, prefix + ".norm1", rng, d)
    init_linear(params, prefix + ".qkv", rng, d, 3 * d)
    init_linear(params, prefix + ".proj", rng, d, d)
    init_norm(params, prefix + ".norm2", rng, d)
    _init_mlp(params, prefix + ".mlp", rng, d, cfg.mlp_ratio)


def transformer_forward(params, prefix, x, cfg, ctx=None):
    width = x.shape[-1]
    xn = lnorm(params, prefix + ".norm1", x)
    qkv = linear(params, prefix + ".qkv", xn)  # [B, T, 3*width]
    q, k, v = (T.narrow(qkv, -1, i * width, width) for i in range(3))
    out = linear(params, prefix + ".proj", T.attention(q, k, v, cfg.attn_heads))

    x = x + _drop_path(out, ctx)
    x = x + _drop_path(_mlp(params, prefix + ".mlp", lnorm(params, prefix + ".norm2", x), ctx), ctx)
    return x


# ---------------------------------------------------------------------------
# head


def init_head(params, prefix, rng, cfg):
    init_linear(params, prefix + ".fc1", rng, cfg.stage2_width, cfg.head_hidden)
    init_linear(params, prefix + ".fc2", rng, cfg.head_hidden, 3)


def head_forward(params, prefix, tokens, cfg, ctx=None):
    """Mean-pool tokens, two linear layers -> one 3-vector per sample.

    Single joint head: [0:2] gender logits, [2] normalized age (left
    unbounded here; clamping happens at denormalization).
    """
    if tokens.shape[1] == 0:
        raise DimensionError("head needs a non-empty token set")
    pooled = tokens.mean(axis=1)
    hidden = _dropout(T.gelu(linear(params, prefix + ".fc1", pooled)), ctx)
    out = linear(params, prefix + ".fc2", hidden)  # [B, 3]
    gender_logits = T.narrow(out, 1, 0, 2)
    age_norm = T.reshape(T.narrow(out, 1, 2, 1), (tokens.shape[0],))
    return gender_logits, age_norm


# ---------------------------------------------------------------------------
# trunk assembly


def init_trunk(params, rng, cfg):
    for i in range(cfg.outlooker_blocks):
        init_outlooker(params, f"trunk.outlooker{i}", rng, cfg)
    init_downsample(params, "trunk.downsample", rng, cfg)
    for i in range(cfg.transformer_blocks):
        init_transformer(params, f"trunk.transformer{i}", rng, cfg)
    init_norm(params, "trunk.norm", rng, cfg.stage2_width)
    init_head(params, "head", rng, cfg)


def trunk_forward(params, grid, cfg, ctx=None):
    """Outlooker stage -> downsample -> transformer stage -> final norm."""
    for i in range(cfg.outlooker_blocks):
        grid = outlooker_forward(params, f"trunk.outlooker{i}", grid, cfg, ctx)
    x = downsample_forward(params, "trunk.downsample", grid)
    for i in range(cfg.transformer_blocks):
        x = transformer_forward(params, f"trunk.transformer{i}", x, cfg, ctx)
    return lnorm(params, "trunk.norm", x)
