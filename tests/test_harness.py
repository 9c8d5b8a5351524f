import re

import numpy as np
import pytest

from agegender.augment import augment, input_dropout, jitter_bbox, random_erase_region
from agegender import volo
from agegender.checkpoint import (
    init_from_single_input,
    load_checkpoint,
    load_model,
    save_checkpoint,
    save_model,
)
from agegender.config import micro_config, tiny_config
from agegender.data import SampleRecord, synth_sample
from agegender.errors import InputError, NumericalError
from agegender.fusion import CropPair, FaceBodyModel
from agegender.optim import BETA1, BETA2, EPS, AdamW, warmup_lr
from agegender.pairing import BBox
from agegender.preprocess import CHANNEL_MEAN
from agegender.tensor import Tensor
from oracles import adamw_scalar_reference


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# ---------------------------------------------------------------------------
# optimizer


def test_adamw_zero_grad_zero_decay_is_noop():
    cfg = tiny_config(weight_decay=0.0)
    p = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    opt = AdamW({"p": p}, cfg)
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0, -2.0, 3.0])


def test_adamw_scalar_matches_reference():
    cfg = tiny_config(learning_rate=0.1, weight_decay=0.05)
    p = Tensor([1.7], requires_grad=True)
    p.grad = np.array([0.4])
    opt = AdamW({"p": p}, cfg)
    opt.step()
    expected = adamw_scalar_reference(1.7, 0.4, 0.1, 0.05, BETA1, BETA2, EPS)
    np.testing.assert_allclose(p.data, [expected], rtol=1e-14)
    # and a second step with the same gradient
    p.grad = np.array([0.4])
    opt.step()
    expected2 = adamw_scalar_reference(1.7, 0.4, 0.1, 0.05, BETA1, BETA2, EPS, steps=2)
    np.testing.assert_allclose(p.data, [expected2], rtol=1e-13)


def test_adamw_decay_only_shrinks():
    cfg = tiny_config(learning_rate=0.01, weight_decay=0.1)
    p = Tensor([2.0], requires_grad=True)
    opt = AdamW({"p": p}, cfg)
    opt.step()
    np.testing.assert_allclose(p.data, [2.0 - 0.01 * 0.1 * 2.0], rtol=1e-15)


def test_adamw_nan_grad_aborts():
    cfg = tiny_config()
    p = Tensor([1.0], requires_grad=True)
    p.grad = np.array([np.nan])
    opt = AdamW({"p": p}, cfg)
    with pytest.raises(NumericalError, match="p"):
        opt.step()


def test_adamw_float32_master_matches_float64_run():
    cfg = tiny_config(learning_rate=0.01, weight_decay=0.05)
    rng = np.random.default_rng(3)
    init = rng.standard_normal(40).astype(np.float32)
    p32 = Tensor(init, requires_grad=True)
    p64 = Tensor(init.astype(np.float64), requires_grad=True)
    opt32 = AdamW({"p": p32}, cfg)
    opt64 = AdamW({"p": p64}, cfg)
    assert opt64.master["p"] is p64.data  # a float64 parameter is its own master
    for step in range(25):
        g = rng.standard_normal(40).astype(np.float32)
        p32.grad = g
        p64.grad = g.astype(np.float64)
        lr = warmup_lr(step, cfg)
        opt32.step(lr)
        opt64.step(lr)
        assert p32.data.dtype == np.float32
        assert opt32.master["p"].dtype == np.float64
        assert opt32.master["p"].tobytes() == p64.data.tobytes()
        assert p32.data.tobytes() == p64.data.astype(np.float32).tobytes()


def test_adamw_float32_keeps_decay_below_float32_resolution():
    # the default lr * weight_decay (7.5e-10) is below half an ulp of 1.0
    # in float32: the decay survives in the master and shows in the
    # parameter once it has built up to a float32 step
    cfg = tiny_config()
    p = Tensor(np.ones(1, dtype=np.float32), requires_grad=True)
    opt = AdamW({"p": p}, cfg)
    opt.step()
    assert opt.master["p"][0] == 1.0 - cfg.learning_rate * cfg.weight_decay
    assert p.data[0] == 1.0
    for _ in range(100):
        opt.step()
    assert p.data[0] < 1.0


def test_adamw_skips_frozen():
    cfg = tiny_config(learning_rate=0.1, weight_decay=0.1)
    p = Tensor([1.0], requires_grad=True)
    q = Tensor([1.0], requires_grad=False)
    p.grad = np.array([0.5])
    q.grad = np.array([0.5])
    opt = AdamW({"p": p, "q": q}, cfg)
    for _ in range(3):
        opt.step()
    assert q.data[0] == 1.0
    assert p.data[0] != 1.0
    assert list(opt.master) == ["p"]


# ---------------------------------------------------------------------------
# warmup


def test_warmup_endpoints_and_midpoint():
    cfg = tiny_config(learning_rate=1.5e-5, warmup_start_lr=1e-6, warmup_steps=10)
    assert warmup_lr(0, cfg) == 1e-6
    assert warmup_lr(10, cfg) == 1.5e-5
    assert warmup_lr(25, cfg) == 1.5e-5
    mid = warmup_lr(5, cfg)
    assert abs(mid - (1e-6 + 1.5e-5) / 2) < 1e-12


# ---------------------------------------------------------------------------
# augmentation


def _sample_record():
    return SampleRecord(
        image="x.ppm",
        face_bbox=BBox(32, 8, 64, 40),
        body_bbox=BBox(0, 0, 96, 96),
        age=40.0,
        gender="male",
    )


def test_jitter_zero_magnitude_identity(rng):
    box = BBox(10, 20, 30, 50)
    assert jitter_bbox(box, 0.0, rng, 100, 100) == box


def test_jitter_stays_in_bounds(rng):
    box = BBox(40, 40, 70, 90)
    for _ in range(1000):
        j = jitter_bbox(box, 0.45, rng, 100, 120)
        assert 0 <= j.x0 < j.x1 <= 100
        assert 0 <= j.y0 < j.y1 <= 120


def test_jitter_falls_back_when_box_collapses(rng):
    # a 1x1 box at the far corner jitters into degenerate boxes often;
    # after the resample budget it must return the clamped original
    box = BBox(99, 99, 100, 100)
    for _ in range(50):
        j = jitter_bbox(box, 0.45, rng, 100, 100)
        assert j.x1 > j.x0 and j.y1 > j.y0


def test_random_erase_fills_mean(rng):
    crop = np.ones((32, 32, 3)) * 0.9
    erased = random_erase_region(crop, rng)
    filled = np.all(erased == CHANNEL_MEAN, axis=-1)
    frac = filled.mean()
    assert 0.0 < frac <= 0.25
    # untouched pixels identical
    np.testing.assert_array_equal(erased[~filled], crop[~filled])


def test_augment_identity_when_disabled(rng):
    cfg = tiny_config(jitter=0.0, hflip_prob=0.0, erase_prob=0.0)
    img, _, _ = synth_sample(np.random.default_rng(1))
    rec = _sample_record()
    pair = augment(rec, img, rng, cfg)
    from agegender.preprocess import prepare_crop

    np.testing.assert_array_equal(pair.face, prepare_crop(img, rec.face_bbox, 64))
    np.testing.assert_array_equal(pair.body, prepare_crop(img, rec.body_bbox, 64))


def test_augment_deterministic_under_seed():
    cfg = tiny_config()
    img, _, _ = synth_sample(np.random.default_rng(2))
    rec = _sample_record()
    p1 = augment(rec, img, np.random.default_rng(7), cfg)
    p2 = augment(rec, img, np.random.default_rng(7), cfg)
    np.testing.assert_array_equal(p1.face, p2.face)
    np.testing.assert_array_equal(p1.body, p2.body)


# ---------------------------------------------------------------------------
# input dropout


def _full_pair():
    z = np.zeros((8, 8, 3))
    return CropPair(face=z + 1.0, body=z + 2.0)


def test_input_dropout_face_only_never_altered(rng):
    cfg = tiny_config()
    pair = CropPair(face=np.ones((8, 8, 3)))
    for _ in range(200):
        out = input_dropout(pair, rng, cfg)
        assert out.face_present and not out.body_present


def test_input_dropout_zero_probs_identity(rng):
    cfg = tiny_config(body_input_dropout=0.0, face_input_dropout=0.0)
    pair = _full_pair()
    out = input_dropout(pair, rng, cfg)
    assert out.face_present and out.body_present


def test_input_dropout_never_both_and_marginals():
    cfg = tiny_config()  # body 0.1, face 0.5
    rng = np.random.default_rng(0)
    pair = _full_pair()
    face_drops = body_drops = 0
    trials = 10000
    for _ in range(trials):
        out = input_dropout(pair, rng, cfg)
        assert out.face_present or out.body_present
        if not out.face_present:
            face_drops += 1
        if not out.body_present:
            body_drops += 1
    assert abs(face_drops / trials - 0.5) < 0.01
    assert abs(body_drops / trials - 0.1) < 0.01


# ---------------------------------------------------------------------------
# checkpointing


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg = micro_config(seed=3)
    model = FaceBodyModel(cfg)
    model.freeze("face_embed")
    path = tmp_path / "m.ckpt"
    save_model(path, model)
    again = load_model(path)
    assert again.config == cfg
    assert again.frozen == model.frozen
    assert set(again.params) == set(model.params)
    for name, p in model.params.items():
        np.testing.assert_array_equal(again.params[name].data, p.data)
        assert again.params[name].requires_grad == p.requires_grad


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_checkpoint_payload_is_in_config_dtype(dtype, tmp_path):
    model = FaceBodyModel(micro_config(dtype=dtype))
    path = tmp_path / "m.ckpt"
    save_model(path, model)
    blob = path.read_bytes()
    payload = blob[blob.index(b"\n") + 1:]
    itemsize = np.dtype(dtype).itemsize
    assert len(payload) == model.parameter_count() * itemsize
    arrays, config, _ = load_checkpoint(path)
    assert config.dtype == dtype
    assert all(arr.dtype == np.dtype(dtype).newbyteorder("<") for arr in arrays.values())
    # the length check counts items of the config's size
    for edited in (payload + bytes(itemsize), payload[:-itemsize]):
        path.write_bytes(blob[:blob.index(b"\n") + 1] + edited)
        with pytest.raises(InputError, match=f"needs {len(payload)} "):
            load_checkpoint(path)


def test_float32_checkpoint_roundtrip_bit_exact_fresh_and_trained(tmp_path):
    from agegender.losses import combined_loss, gender_loss, weighted_mse
    from agegender.tensor import Tape

    cfg = micro_config(seed=4)
    assert cfg.dtype == "float32"
    model = FaceBodyModel(cfg)
    opt = AdamW(model.params, cfg)
    rng = np.random.default_rng(1)
    for trained in (False, True):
        if trained:
            for _ in range(3):
                with Tape() as tape:
                    logits, age = model.forward_batch(rng.random((2, 32, 32, 3)), rng.random((2, 32, 32, 3)))
                    tape.backward(combined_loss(weighted_mse(age, np.array([0.3, 0.6]), np.ones(2)),
                                                gender_loss(logits, [0, 1]), 0.03))
                opt.step(0.01)
                model.zero_grads()
        path = tmp_path / f"trained_{trained}.ckpt"
        save_model(path, model)
        again = load_model(path)
        assert again.config == cfg
        for name, p in model.params.items():
            assert p.data.dtype == np.float32
            assert again.params[name].data.dtype == np.float32
            assert again.params[name].data.tobytes() == p.data.tobytes()


@pytest.mark.parametrize("source_dtype, target_dtype", [("float64", "float32"), ("float32", "float64")])
def test_init_from_single_input_casts_between_dtypes(source_dtype, target_dtype, tmp_path):
    source = FaceBodyModel(micro_config(seed=11, dtype=source_dtype))
    src_path = tmp_path / "face.ckpt"
    save_model(src_path, source)
    model = init_from_single_input(src_path, micro_config(seed=5, dtype=target_dtype))
    assert all(p.data.dtype == np.dtype(target_dtype) for p in model.params.values())
    for name, source_name in (("body_embed.weight", "face_embed.weight"), ("head.fc2.weight", "head.fc2.weight")):
        want = source.params[source_name].data.astype(target_dtype)
        assert model.params[name].data.tobytes() == want.tobytes()


def test_load_model_draws_no_random_init(tmp_path, monkeypatch):
    model = FaceBodyModel(micro_config(seed=6))
    model.freeze("face_embed")
    path = tmp_path / "m.ckpt"
    save_model(path, model)

    def no_draws(*args, **kwargs):
        raise AssertionError("load_model drew a random init")

    monkeypatch.setattr(volo, "trunc_normal", no_draws)
    again = load_model(path)
    assert list(again.params) == list(model.params)  # init order, as the optimizer sees it
    for name, p in model.params.items():
        assert again.params[name].data.tobytes() == p.data.tobytes()
        assert again.params[name].requires_grad == p.requires_grad
    assert again.frozen == model.frozen
    with pytest.raises(AssertionError, match="random init"):
        FaceBodyModel(micro_config())  # the patch is live: a fresh model draws


def test_load_model_checks_names_and_shapes_against_the_architecture(tmp_path):
    # the header's table must equal the architecture's; the error names the
    # file and the first entry that differs (in sorted name order)
    cfg = micro_config()
    params = dict(FaceBodyModel(cfg).params)
    path = tmp_path / "m.ckpt"
    missing = {n: p for n, p in params.items() if n != "head.fc2.bias"}
    save_checkpoint(path, missing, cfg)
    with pytest.raises(InputError, match=re.escape(
            f"{path}: params table has ['head.fc2.weight', [16, 3]] where the architecture has ['head.fc2.bias', [3]]")):
        load_model(path)
    save_checkpoint(path, {**params, "head.extra": Tensor(np.zeros(2))}, cfg)
    with pytest.raises(InputError, match=re.escape(
            f"{path}: params table has ['head.extra', [2]] where the architecture has ['head.fc1.bias', [16]]")):
        load_model(path)
    save_checkpoint(path, {**params, "head.fc2.bias": Tensor(np.zeros(4))}, cfg)
    with pytest.raises(InputError, match=re.escape(
            f"{path}: params table has ['head.fc2.bias', [4]] where the architecture has ['head.fc2.bias', [3]]")):
        load_model(path)
    # a checkpoint of another architecture under this config's header
    save_checkpoint(path, FaceBodyModel(micro_config(stage1_width=16)).params, cfg)
    with pytest.raises(InputError, match=re.escape(
            f"{path}: params table has ['body_embed.bias', [16]] where the architecture has ['body_embed.bias', [8]]")):
        load_model(path)


def test_checkpoint_detects_tampering(tmp_path):
    cfg = micro_config()
    model = FaceBodyModel(cfg)
    path = tmp_path / "m.ckpt"
    save_model(path, model)
    blob = path.read_bytes()
    header_end = blob.index(b"\n")
    header = blob[:header_end].replace(b'"seed": 0', b'"seed": 1')
    path.write_bytes(header + blob[header_end:])
    with pytest.raises(InputError, match="hash"):
        load_checkpoint(path)


LOAD_WIDENED = """
import json, resource, sys
from agegender.checkpoint import load_checkpoint
from agegender.config import ModelConfig
from agegender.errors import InputError

path, key, value = sys.argv[1], sys.argv[2], int(sys.argv[3])
line, payload = open(path, "rb").read().split(b"\\n", 1)
header = json.loads(line)
header["config"][key] = value
header["config_hash"] = ModelConfig.from_dict(header["config"]).config_hash()
open(path, "wb").write(json.dumps(header).encode() + b"\\n" + payload)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
try:
    load_checkpoint(path)
except InputError as exc:
    print(exc)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


@pytest.mark.parametrize("key, value, refusal", [
    # placeholders of this width would take about 580 MB: the layout's shapes must cost nothing
    ("stage1_width", 1024, "params table has ['body_embed"),
    # a layout of this many blocks took 14 s and 711 MB to build: more blocks than entries cannot match
    ("transformer_blocks", 100000, "params table has 68 entries, fewer than the architecture's 100001 blocks"),
], ids=["width", "blocks"])
def test_checkpoint_naming_a_huge_architecture_is_refused_without_allocating_it(tmp_path, key, value, refusal):
    # a micro file whose config names a huge architecture, re-hashed
    import os
    import subprocess
    import sys

    path = tmp_path / "m.ckpt"
    save_model(path, FaceBodyModel(micro_config()))
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", LOAD_WIDENED, str(path), key, str(value)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    message, grown_kb = done.stdout.splitlines()
    assert message.startswith(f"{path}: {refusal}"), message
    assert int(grown_kb) < 50 * 1024


def test_init_from_single_input(tmp_path):
    source = FaceBodyModel(micro_config(seed=11))
    src_path = tmp_path / "face.ckpt"
    save_model(src_path, source)

    model = init_from_single_input(src_path, micro_config(seed=5))
    # body embedding is a bitwise copy of the trained face embedding
    np.testing.assert_array_equal(model.params["body_embed.weight"].data,
                                  source.params["face_embed.weight"].data)
    np.testing.assert_array_equal(model.params["body_embed.bias"].data,
                                  source.params["face_embed.bias"].data)
    # trunk and head copied
    np.testing.assert_array_equal(model.params["head.fc2.weight"].data,
                                  source.params["head.fc2.weight"].data)
    # the enhancer is fresh: different from the source and seed-dependent
    assert not np.array_equal(model.params["enhancer.fuse.fc1.weight"].data,
                              source.params["enhancer.fuse.fc1.weight"].data)
    other = init_from_single_input(src_path, micro_config(seed=6))
    assert not np.array_equal(model.params["enhancer.fuse.fc1.weight"].data,
                              other.params["enhancer.fuse.fc1.weight"].data)
    # drawn from the config seed, as a fresh model's enhancer is
    fresh = FaceBodyModel(micro_config(seed=5))
    assert model.params["enhancer.fuse.fc1.weight"].data.tobytes() == \
        fresh.params["enhancer.fuse.fc1.weight"].data.tobytes()
    # the face embedding is frozen
    assert "face_embed.weight" in model.frozen
    assert not model.params["face_embed.weight"].requires_grad


def test_init_from_single_input_refuses_arch_mismatch(tmp_path):
    src_path = tmp_path / "face.ckpt"
    save_model(src_path, FaceBodyModel(micro_config()))
    with pytest.raises(InputError, match="hash"):
        init_from_single_input(src_path, micro_config(stage1_width=16))


def test_frozen_weights_unchanged_by_training_steps(tmp_path):
    from agegender.losses import combined_loss, gender_loss, weighted_mse
    from agegender.tensor import Tape

    cfg = micro_config(seed=2)
    src_path = tmp_path / "face.ckpt"
    save_model(src_path, FaceBodyModel(cfg))
    model = init_from_single_input(src_path, cfg)
    frozen_before = {n: model.params[n].data.copy() for n in model.frozen}
    opt = AdamW(model.params, cfg)
    rng = np.random.default_rng(0)
    for _ in range(3):
        faces = rng.random((2, 32, 32, 3))
        bodies = rng.random((2, 32, 32, 3))
        with Tape() as tape:
            logits, age = model.forward_batch(faces, bodies)
            loss = combined_loss(weighted_mse(age, np.array([0.3, 0.6]), np.ones(2)),
                                 gender_loss(logits, [0, 1]), 0.03)
            tape.backward(loss)
        opt.step(0.01)
        model.zero_grads()
    for name, before in frozen_before.items():
        np.testing.assert_array_equal(model.params[name].data, before)
        assert model.params[name].grad is None
