import numpy as np
import pytest

from agegender import tensor as T
from agegender.config import ModelConfig, d1_config, micro_config, tiny_config
from agegender.errors import ConfigError, DimensionError
from agegender.gradcheck import check_gradients
from agegender.volo import (
    TrainContext,
    downsample_forward,
    head_forward,
    init_downsample,
    init_head,
    init_outlooker,
    init_patch_embed,
    init_transformer,
    outlooker_forward,
    patch_embed,
    transformer_forward,
    trunc_normal,
    zero_input_tokens,
)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def images(rng, batch, side):
    return T.constant(rng.random((batch, side, side, 3)))


# ---------------------------------------------------------------------------
# patch embedding


def test_patch_embed_token_count(rng):
    cfg = tiny_config()
    params = {}
    init_patch_embed(params, "embed", rng, cfg)
    tokens = patch_embed(params, "embed", images(rng, 2, 64), cfg)
    assert tokens.shape == (2, 64, 64)  # 8x8 grid of tokens


def test_patch_embed_zero_image_gives_bias(rng):
    cfg = tiny_config()
    params = {}
    init_patch_embed(params, "embed", rng, cfg)
    params["embed.bias"].data[:] = rng.random(64)
    tokens = patch_embed(params, "embed", T.constant(np.zeros((1, 64, 64, 3))), cfg)
    expected = np.broadcast_to(params["embed.bias"].data, (1, 64, 64))
    np.testing.assert_array_equal(tokens.data, expected)
    cached = zero_input_tokens(params, "embed", cfg, 1)
    np.testing.assert_array_equal(cached.data, tokens.data)


def test_patch_embed_full_scale_grid(rng):
    cfg = d1_config()
    params = {}
    init_patch_embed(params, "embed", rng, cfg)
    tokens = patch_embed(params, "embed", images(rng, 1, 224), cfg)
    assert tokens.shape == (1, 28 * 28, 192)


def test_patch_embed_indivisible_dims(rng):
    cfg = tiny_config()
    params = {}
    init_patch_embed(params, "embed", rng, cfg)
    with pytest.raises(DimensionError):
        patch_embed(params, "embed", T.constant(np.zeros((1, 60, 64, 3))), cfg)


# ---------------------------------------------------------------------------
# outlooker


def grid_input(rng, cfg, batch=1):
    g = cfg.grid_side
    return T.constant(rng.standard_normal((batch, g, g, cfg.stage1_width)))


def test_outlooker_preserves_shape(rng):
    cfg = tiny_config()
    params = {}
    init_outlooker(params, "blk", rng, cfg)
    x = grid_input(rng, cfg)
    out = outlooker_forward(params, "blk", x, cfg)
    assert out.shape == x.shape


def test_outlooker_zero_value_path_reduces_to_mlp_residual(rng):
    # with the value projection zeroed the attention contributes nothing,
    # so the block is input + MLP branch only
    from agegender.volo import _mlp, lnorm

    cfg = tiny_config()
    params = {}
    init_outlooker(params, "blk", rng, cfg)
    params["blk.v.weight"].data[:] = 0.0
    params["blk.v.bias"].data[:] = 0.0
    params["blk.proj.bias"].data[:] = 0.0
    x = grid_input(rng, cfg)
    out = outlooker_forward(params, "blk", x, cfg)
    expected = x + _mlp(params, "blk.mlp", lnorm(params, "blk.norm2", x), None)
    np.testing.assert_allclose(out.data, expected.data, atol=1e-12)


def test_outlooker_window_vs_grid(rng):
    cfg = micro_config()  # 4x4 grid
    params = {}
    init_outlooker(params, "blk", rng, cfg)
    x = T.constant(rng.standard_normal((1, 2, 2, cfg.stage1_width)))
    with pytest.raises(ConfigError):
        outlooker_forward(params, "blk", x, cfg)


def test_outlooker_attention_rows_normalized(rng):
    # reconstruct the attention the block computes and check normalization
    from agegender.volo import linear, lnorm

    cfg = tiny_config()
    params = {}
    init_outlooker(params, "blk", rng, cfg)
    x = grid_input(rng, cfg)
    xn = lnorm(params, "blk.norm1", x)
    k = cfg.outlook_window
    attn = linear(params, "blk.attn", xn)
    attn = T.reshape(attn, (1, cfg.token_count, cfg.outlook_heads, k * k, k * k))
    attn = T.softmax(attn, axis=-1)
    sums = attn.data.sum(axis=-1)
    np.testing.assert_allclose(sums, np.ones_like(sums), atol=1e-12)
    assert (attn.data >= 0).all()


def test_outlooker_gradients(rng):
    cfg = micro_config()
    params = {}
    init_outlooker(params, "blk", rng, cfg)
    x = grid_input(rng, cfg)
    w = T.constant(rng.standard_normal(x.shape))

    def loss():
        return (outlooker_forward(params, "blk", x, cfg) * w).mean()

    worst, _ = check_gradients(loss, params, coords_per_param=6, rng=np.random.default_rng(1))
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# downsample


def test_downsample_shape_and_zero_input(rng):
    cfg = tiny_config()
    params = {}
    init_downsample(params, "down", rng, cfg)
    x = T.constant(rng.standard_normal((1, 8, 8, 64)))
    out = downsample_forward(params, "down", x)
    assert out.shape == (1, 16, 128)  # a 4x4 grid of merged tokens, as a sequence
    zeros = downsample_forward(params, "down", T.constant(np.zeros((1, 8, 8, 64))))
    np.testing.assert_array_equal(zeros.data, np.broadcast_to(params["down.bias"].data, (1, 16, 128)))


def test_downsample_odd_dims(rng):
    cfg = tiny_config()
    params = {}
    init_downsample(params, "down", rng, cfg)
    with pytest.raises(DimensionError):
        downsample_forward(params, "down", T.constant(np.zeros((1, 7, 8, 64))))


def test_downsample_parameter_count_formula(rng):
    cfg = tiny_config()
    params = {}
    init_downsample(params, "down", rng, cfg)
    c = cfg.stage1_width
    expected = 4 * c * 2 * c + 2 * c  # weight + bias by construction
    assert sum(p.size for p in params.values()) == expected


# ---------------------------------------------------------------------------
# transformer


def test_transformer_preserves_shape_and_rows(rng):
    cfg = tiny_config()
    params = {}
    init_transformer(params, "tf", rng, cfg)
    x = T.constant(rng.standard_normal((2, 16, cfg.stage2_width)))
    out = transformer_forward(params, "tf", x, cfg)
    assert out.shape == x.shape


def test_transformer_attention_rows_normalized(rng):
    from agegender.volo import linear, lnorm

    cfg = tiny_config()
    params = {}
    init_transformer(params, "tf", rng, cfg)
    x = T.constant(rng.standard_normal((1, 16, cfg.stage2_width)))
    xn = lnorm(params, "tf.norm1", x)
    qkv = linear(params, "tf.qkv", xn)
    d = cfg.stage2_width
    heads = cfg.attn_heads
    hd = d // heads
    qkv = T.transpose(T.reshape(qkv, (1, 16, 3, heads, hd)), (2, 0, 3, 1, 4))
    q = T.reshape(T.narrow(qkv, 0, 0, 1), (1, heads, 16, hd))
    k = T.reshape(T.narrow(qkv, 0, 1, 1), (1, heads, 16, hd))
    att = T.softmax((q @ T.transpose(k, (0, 1, 3, 2))) * float(hd**-0.5), axis=-1)
    sums = att.data.sum(axis=-1)
    np.testing.assert_allclose(sums, np.ones_like(sums), atol=1e-12)


def test_transformer_gradients(rng):
    cfg = micro_config()
    params = {}
    init_transformer(params, "tf", rng, cfg)
    x = T.constant(rng.standard_normal((1, 4, cfg.stage2_width)))
    w = T.constant(rng.standard_normal(x.shape))

    def loss():
        return (transformer_forward(params, "tf", x, cfg) * w).mean()

    worst, _ = check_gradients(loss, params, coords_per_param=6, rng=np.random.default_rng(2))
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# head


def test_head_zero_weights_pass_bias_through(rng):
    cfg = tiny_config()
    params = {}
    init_head(params, "head", rng, cfg)
    for name in ("head.fc1.weight", "head.fc1.bias", "head.fc2.weight"):
        params[name].data[:] = 0.0
    params["head.fc2.bias"].data[:] = [0.0, 0.0, 0.5]
    tokens = T.constant(rng.standard_normal((3, 16, cfg.stage2_width)))
    logits, age = head_forward(params, "head", tokens, cfg)
    np.testing.assert_array_equal(logits.data, np.zeros((3, 2)))
    np.testing.assert_array_equal(age.data, np.full(3, 0.5))


def test_head_permutation_invariant(rng):
    cfg = tiny_config()
    params = {}
    init_head(params, "head", rng, cfg)
    tokens = rng.standard_normal((1, 16, cfg.stage2_width))
    perm = np.random.default_rng(3).permutation(16)
    l1, a1 = head_forward(params, "head", T.constant(tokens), cfg)
    l2, a2 = head_forward(params, "head", T.constant(tokens[:, perm]), cfg)
    np.testing.assert_allclose(l1.data, l2.data, atol=1e-12)
    np.testing.assert_allclose(a1.data, a2.data, atol=1e-12)


def test_head_is_a_single_joint_head(rng):
    # one head produces the whole 3-vector: a single final linear of
    # output width 3, and no other parameters under the head namespace
    cfg = tiny_config()
    params = {}
    init_head(params, "head", rng, cfg)
    head_names = sorted(n for n in params if n.startswith("head."))
    assert head_names == ["head.fc1.bias", "head.fc1.weight", "head.fc2.bias", "head.fc2.weight"]
    assert params["head.fc2.weight"].shape == (cfg.head_hidden, 3)
    assert params["head.fc2.bias"].shape == (3,)


def test_head_empty_tokens(rng):
    cfg = tiny_config()
    params = {}
    init_head(params, "head", rng, cfg)
    with pytest.raises(DimensionError):
        head_forward(params, "head", T.constant(np.zeros((1, 0, cfg.stage2_width))), cfg)


# ---------------------------------------------------------------------------
# misc


def test_trunk_shape_trace_matches_config(rng):
    from agegender.fusion import FaceBodyModel

    cfg = tiny_config()
    model = FaceBodyModel(cfg)
    g = cfg.grid_side
    x = T.constant(rng.standard_normal((2, g, g, cfg.stage1_width)))
    for i in range(cfg.outlooker_blocks):
        x = outlooker_forward(model.params, f"trunk.outlooker{i}", x, cfg)
        assert x.shape == (2, g, g, cfg.stage1_width)
    x = downsample_forward(model.params, "trunk.downsample", x)
    assert x.shape == (2, (g // 2) ** 2, cfg.stage2_width)
    for i in range(cfg.transformer_blocks):
        x = transformer_forward(model.params, f"trunk.transformer{i}", x, cfg)
        assert x.shape == (2, (g // 2) ** 2, cfg.stage2_width)
    logits, age = head_forward(model.params, "head", x, cfg)
    assert logits.shape == (2, 2) and age.shape == (2,)


def test_trunc_normal_bounds(rng):
    draws = trunc_normal(rng, (10000,), std=0.02)
    assert np.abs(draws).max() <= 0.04
    assert abs(draws.mean()) < 0.002


def test_train_context_drops_are_train_only(rng):
    cfg = micro_config()
    params = {}
    init_transformer(params, "tf", rng, cfg)
    x = T.constant(rng.standard_normal((2, 4, cfg.stage2_width)))
    ctx = TrainContext(rng=np.random.default_rng(5), drop_rate=0.5, drop_path_rate=0.5)
    out_train = transformer_forward(params, "tf", x, cfg, ctx)
    out_eval = transformer_forward(params, "tf", x, cfg, None)
    out_eval2 = transformer_forward(params, "tf", x, cfg, None)
    assert not np.array_equal(out_train.data, out_eval.data)
    np.testing.assert_array_equal(out_eval.data, out_eval2.data)


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(face_input_dropout=1.5)
    with pytest.raises(ConfigError):
        ModelConfig(image_side=65)
    with pytest.raises(ConfigError):
        ModelConfig(outlook_window=4)
    with pytest.raises(ConfigError):
        ModelConfig(y_min=50, y_max=50)
    for dtype in ("float16", "int32", "f4", np.float32):
        with pytest.raises(ConfigError, match="dtype"):
            ModelConfig(dtype=dtype)


def test_dtype_defaults_to_float32_and_is_not_architecture():
    assert ModelConfig().dtype == "float32"
    a, b = tiny_config(), tiny_config(dtype="float64")
    assert a.arch_hash() == b.arch_hash()
    assert a.config_hash() != b.config_hash()


def test_config_roundtrip_and_unknown_keys(tmp_path):
    cfg = tiny_config(learning_rate=3.25e-4, seed=7)
    path = tmp_path / "config.json"
    cfg.save(path)
    again = ModelConfig.load(path)
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()
    bad = path.read_text().replace('"seed": 7', '"seed": 7, "typo_field": 1')
    with pytest.raises(ConfigError, match="typo_field"):
        ModelConfig.from_json(bad)


def test_arch_hash_ignores_training_fields():
    a = tiny_config()
    b = tiny_config(learning_rate=1.0, seed=99)
    c = tiny_config(stage1_width=32, head_hidden=64)
    assert a.arch_hash() == b.arch_hash()
    assert a.arch_hash() != c.arch_hash()
    assert a.config_hash() != b.config_hash()
