import re
import sys
import threading

import numpy as np
import pytest

from agegender import tensor as T
from agegender.config import micro_config, tiny_config
from agegender.errors import DimensionError, InputError
from agegender.fusion import (
    CropPair,
    FaceBodyModel,
    cross_attention_unit,
    enhance,
    init_enhancer,
)
from agegender.gradcheck import check_gradients
from agegender.losses import combined_loss, gender_loss, weighted_mse
from agegender.tensor import Tape


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def tokens(rng, cfg, batch=1):
    return T.constant(rng.standard_normal((batch, cfg.token_count, cfg.stage1_width)))


# ---------------------------------------------------------------------------
# enhancer


def test_cross_attention_zero_value_path_passes_through(rng):
    cfg = tiny_config()
    params = {}
    init_enhancer(params, rng, cfg)
    # zero body tokens with zeroed value/proj biases: the value path
    # contributes exactly nothing, queries pass through the residual
    params["enhancer.face_from_body.v.bias"].data[:] = 0.0
    params["enhancer.face_from_body.proj.bias"].data[:] = 0.0
    face = tokens(rng, cfg)
    body = T.constant(np.zeros(face.shape))
    out = cross_attention_unit(params, "enhancer.face_from_body", face, body, cfg)
    np.testing.assert_array_equal(out.data, face.data)


def test_enhance_output_width(rng):
    cfg = tiny_config()
    params = {}
    init_enhancer(params, rng, cfg)
    out = enhance(params, tokens(rng, cfg, 2), tokens(rng, cfg, 2), cfg)
    assert out.shape == (2, cfg.token_count, cfg.stage1_width)


def test_enhance_shape_mismatch(rng):
    cfg = tiny_config()
    params = {}
    init_enhancer(params, rng, cfg)
    with pytest.raises(DimensionError):
        enhance(params, tokens(rng, cfg), T.constant(np.zeros((1, 4, cfg.stage1_width))), cfg)


def test_enhance_gradients(rng):
    cfg = micro_config()
    params = {}
    init_enhancer(params, rng, cfg)
    face = tokens(rng, cfg)
    body = tokens(rng, cfg)
    w = T.constant(rng.standard_normal((1, cfg.token_count, cfg.stage1_width)))

    def loss():
        return (enhance(params, face, body, cfg) * w).mean()

    worst, _ = check_gradients(loss, params, coords_per_param=6, rng=np.random.default_rng(1))
    assert worst < 1e-4


def test_cross_attention_rows_sum_to_one(rng):
    from agegender.volo import linear, lnorm

    cfg = tiny_config()
    params = {}
    init_enhancer(params, rng, cfg)
    face = tokens(rng, cfg)
    body = tokens(rng, cfg)
    prefix = "enhancer.face_from_body"
    b, t, c = face.shape
    heads = cfg.enhancer_heads
    hd = c // heads
    qn = lnorm(params, prefix + ".norm_q", face)
    kn = lnorm(params, prefix + ".norm_kv", body)
    q = T.transpose(T.reshape(linear(params, prefix + ".q", qn), (b, t, heads, hd)), (0, 2, 1, 3))
    k = T.transpose(T.reshape(linear(params, prefix + ".k", kn), (b, t, heads, hd)), (0, 2, 1, 3))
    att = T.softmax((q @ T.transpose(k, (0, 1, 3, 2))) * float(hd**-0.5), axis=-1)
    sums = att.data.sum(axis=-1)
    np.testing.assert_allclose(sums, np.ones_like(sums), atol=1e-12)


# ---------------------------------------------------------------------------
# crop pairs


def test_crop_pair_needs_one_side():
    with pytest.raises(InputError):
        CropPair()
    side = np.zeros((8, 8, 3))
    assert CropPair(face=side).face_present
    assert not CropPair(face=side).body_present


def test_crop_pair_zero_fill():
    face = np.ones((8, 8, 3))
    f, b = CropPair(face=face).as_arrays(8, np.float64)
    np.testing.assert_array_equal(f, face)
    np.testing.assert_array_equal(b, np.zeros((8, 8, 3)))


# ---------------------------------------------------------------------------
# full model forward


def crops(rng, cfg, n=1):
    return rng.random((n, cfg.image_side, cfg.image_side, 3))


def test_channels_first_input_names_the_expected_layout(rng):
    cfg = micro_config()
    model = FaceBodyModel(cfg)
    s = cfg.image_side
    want = f"[B, {s}, {s}, 3]"
    good = crops(rng, cfg, 2)
    bad = np.moveaxis(good, -1, 1)  # [B, 3, S, S]
    for faces, bodies, skip, side in (
        (bad, good, None, "face"),
        (good, bad, None, "body"),
        (good, bad, "face", "body"),
        (bad, bad, "body", "face"),
    ):
        with pytest.raises(DimensionError, match=re.escape(f"{side} images must be channels-last {want}")):
            model.forward_batch(faces, bodies, skip=skip)
    # a skipped side is never read, whatever its layout
    model.forward_batch(bad, good, skip="face")
    for pair in (CropPair(face=bad[0]), CropPair(face=good[0], body=bad[0])):
        with pytest.raises(DimensionError, match=re.escape(want)):
            model.forward_pair(pair)
    with pytest.raises(DimensionError, match=re.escape(want)):
        model.forward_pair_skip(CropPair(face=bad[0]))


def test_forward_pair_single_sides_are_valid(rng):
    cfg = micro_config()
    model = FaceBodyModel(cfg)
    img = crops(rng, cfg)[0]
    for pair in (CropPair(face=img), CropPair(body=img), CropPair(face=img, body=img)):
        logits, age = model.forward_pair(pair)
        assert logits.shape == (2,) and np.isfinite(logits).all() and np.isfinite(age)


def test_forward_pair_deterministic(rng):
    cfg = micro_config()
    model = FaceBodyModel(cfg)
    pair = CropPair(face=crops(rng, cfg)[0], body=crops(rng, cfg)[0])
    l1, a1 = model.forward_pair(pair)
    l2, a2 = model.forward_pair(pair)
    np.testing.assert_array_equal(l1, l2)
    assert a1 == a2


def test_fusion_path_is_live(rng):
    cfg = micro_config()
    model = FaceBodyModel(cfg)
    face = crops(rng, cfg)[0]
    body = crops(rng, cfg)[0]
    _, a_both = model.forward_pair(CropPair(face=face, body=body))
    _, a_face = model.forward_pair(CropPair(face=face))
    assert a_both != a_face


def test_absent_flag_equals_zero_image(rng):
    cfg = micro_config()
    model = FaceBodyModel(cfg)
    img = crops(rng, cfg)[0]
    zero = np.zeros_like(img)
    l1, a1 = model.forward_pair(CropPair(face=img))
    l2, a2 = model.forward_pair(CropPair(face=img, body=zero))
    np.testing.assert_array_equal(l1, l2)
    assert a1 == a2


def test_skip_path_bit_exact_both_sides(rng):
    cfg = micro_config()
    model = FaceBodyModel(cfg)
    for _ in range(25):
        img = crops(rng, cfg)[0]
        body_only = CropPair(body=img)
        np.testing.assert_array_equal(
            model.forward_pair(body_only)[0], model.forward_pair_skip(body_only)[0]
        )
        assert model.forward_pair(body_only)[1] == model.forward_pair_skip(body_only)[1]
        face_only = CropPair(face=img)
        np.testing.assert_array_equal(
            model.forward_pair(face_only)[0], model.forward_pair_skip(face_only)[0]
        )
        assert model.forward_pair(face_only)[1] == model.forward_pair_skip(face_only)[1]


def test_skip_path_follows_in_place_bias_updates(rng):
    # optimizer steps write parameters in place; the skip path must see them
    cfg = micro_config()
    model = FaceBodyModel(cfg)
    img = crops(rng, cfg)[0]
    for side, pair in (("face", CropPair(body=img)), ("body", CropPair(face=img))):
        model.forward_pair_skip(pair)
        model.params[f"{side}_embed.bias"].data += rng.standard_normal(cfg.stage1_width)
        direct, skipped = model.forward_pair(pair), model.forward_pair_skip(pair)
        np.testing.assert_array_equal(direct[0], skipped[0])
        assert direct[1] == skipped[1]


def test_skip_path_misuse(rng):
    cfg = micro_config()
    model = FaceBodyModel(cfg)
    img = crops(rng, cfg)[0]
    with pytest.raises(InputError):
        model.forward_pair_skip(CropPair(face=img, body=img))


@pytest.mark.parametrize("skip", ["both", "Face", "", 0, False])
def test_forward_batch_refuses_unknown_skip(skip, rng):
    # anything but None, "face" or "body" would silently run the full path
    cfg = micro_config()
    model = FaceBodyModel(cfg)
    faces = crops(rng, cfg, 2)
    with pytest.raises(InputError, match=re.escape(f"skip must be None, 'face' or 'body', got {skip!r}")):
        model.forward_batch(faces, faces, skip=skip)


def test_gradients_reach_both_embeddings(rng):
    cfg = micro_config()
    model = FaceBodyModel(cfg)
    faces = crops(rng, cfg, 2)
    bodies = crops(rng, cfg, 2)
    with Tape() as tape:
        logits, age = model.forward_batch(faces, bodies)
        loss = combined_loss(
            weighted_mse(age, np.array([0.2, 0.8]), np.ones(2)),
            gender_loss(logits, [0, 1]),
            0.03,
        )
        tape.backward(loss)
    for name in ("face_embed.weight", "body_embed.weight"):
        grad = model.params[name].grad
        assert grad is not None and np.linalg.norm(grad) > 0


def test_model_gradcheck_micro(rng):
    # targets near the initial predictions keep the loss value small,
    # which keeps finite-difference cancellation noise away from the
    # 1e-8 denominator floor; h=1e-5 needs float64
    cfg = micro_config(dtype="float64")
    model = FaceBodyModel(cfg)
    faces = crops(rng, cfg, 2)
    bodies = crops(rng, cfg, 2)
    g0, a0 = model.forward_batch(faces, bodies)
    ages = a0.data + np.array([0.05, -0.05])
    labels = list(np.argmax(g0.data, axis=1))

    def loss():
        g, a = model.forward_batch(faces, bodies)
        return combined_loss(weighted_mse(a, ages, np.ones(2)), gender_loss(g, labels), 0.03)

    worst, per = check_gradients(loss, model.params, coords_per_param=4, rng=np.random.default_rng(2))
    # micro width has visibly higher curvature; the acceptance-grade
    # 1e-4 bound at h=1e-5 is asserted on the tiny config in the
    # acceptance suite
    assert worst < 5e-3, per


def test_float32_model_computes_in_float32_end_to_end(rng):
    # one taped step with dropout and drop-path on, then an untaped forward:
    # a float64 constant anywhere would promote its node and everything
    # downstream of it
    from agegender.volo import TrainContext

    cfg = tiny_config()
    assert cfg.dtype == "float32" and cfg.drop_rate > 0 and cfg.drop_path_rate > 0
    model = FaceBodyModel(cfg)
    faces, bodies = crops(rng, cfg, 4), crops(rng, cfg, 4)  # float64 images
    ctx = TrainContext(rng=np.random.default_rng(1), drop_rate=cfg.drop_rate, drop_path_rate=cfg.drop_path_rate)
    with Tape() as tape:
        logits, age = model.forward_batch(faces, bodies, ctx=ctx)
        loss = combined_loss(
            weighted_mse(age, np.array([0.2, 0.8, 0.4, 0.6]), np.array([1.0, 0.5, 2.0, 1.0])),
            gender_loss(logits, [0, 1, 1, 0]),
            cfg.gender_loss_weight,
        )
        tape.backward(loss)
    float32 = np.dtype(np.float32)
    assert {node.output.data.dtype for node in tape._nodes} == {float32}
    assert {node.output.grad.dtype for node in tape._nodes if node.output.grad is not None} == {float32}
    assert all(p.data.dtype == float32 and p.grad.dtype == float32 for p in model.params.values())
    logits, age = model.forward_batch(faces, bodies)
    assert logits.data.dtype == float32 and age.data.dtype == float32


def test_freeze_blocks_grads_and_updates(rng):
    cfg = micro_config()
    model = FaceBodyModel(cfg)
    model.freeze("face_embed")
    faces = crops(rng, cfg, 1)
    bodies = crops(rng, cfg, 1)
    with Tape() as tape:
        logits, age = model.forward_batch(faces, bodies)
        tape.backward(combined_loss(weighted_mse(age, np.array([0.5]), np.ones(1)), gender_loss(logits, [0]), 0.03))
    assert model.params["face_embed.weight"].grad is None
    assert model.params["body_embed.weight"].grad is not None
    with pytest.raises(InputError):
        model.freeze("nonexistent_prefix")


def test_training_thread_and_inferring_thread_share_weights(rng):
    # one thread trains under a tape while another infers untaped on the
    # same weights; neither sees the other's tape
    cfg = micro_config()
    model = FaceBodyModel(cfg)
    faces = crops(rng, cfg, 2)
    bodies = crops(rng, cfg, 2)

    def train_step():
        with Tape() as tape:
            logits, age = model.forward_batch(faces, bodies)
            loss = combined_loss(
                weighted_mse(age, np.array([0.2, 0.8]), np.ones(2)), gender_loss(logits, [0, 1]), 0.03
            )
            model.zero_grads()
            tape.backward(loss)
        return {name: p.grad.copy() for name, p in model.params.items()}

    want_logits, want_age = model.forward_batch(faces, bodies)
    want_grads = train_step()
    inferred, trained = [], []
    start = threading.Barrier(2, timeout=30)

    def infer():
        start.wait()
        for _ in range(20):
            inferred.append(model.forward_batch(faces, bodies))

    def trainer():
        start.wait()
        for _ in range(5):
            trained.append(train_step())

    threads = [threading.Thread(target=infer), threading.Thread(target=trainer)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(inferred) == 20 and len(trained) == 5
    for logits, age in inferred:
        assert not logits.requires_grad and not age.requires_grad
        assert logits.data.tobytes() == want_logits.data.tobytes()
        assert age.data.tobytes() == want_age.data.tobytes()
    for grads in trained:
        assert all(grads[name].tobytes() == want_grads[name].tobytes() for name in want_grads)
