import os

import numpy as np
import pytest

import oracles
from agegender import tensor, volo
from agegender import train as train_module
from agegender.checkpoint import load_model, save_model
from agegender.config import micro_config, tiny_config
from agegender.data import (
    SampleRecord,
    generate_synthetic_dataset,
    read_sample_manifest,
    write_sample_manifest,
)
from agegender.errors import InputError
from agegender.fusion import FaceBodyModel
from agegender.pairing import BBox
from agegender.train import TrainResult, evaluate, train


def fast_config(**overrides):
    base = dict(
        learning_rate=1e-3,
        weight_decay=0.0,
        warmup_steps=2,
        batch_size=4,
        max_steps=6,
        log_every=2,
        jitter=0.1,
        erase_prob=0.5,
        hflip_prob=0.5,
        seed=5,
    )
    base.update(overrides)
    return micro_config(**base)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    manifest = generate_synthetic_dataset(root, 12, seed=9)
    return manifest


def test_train_runs_and_writes_outputs(dataset, tmp_path):
    result = train(dataset, fast_config(), tmp_path / "run")
    assert isinstance(result, TrainResult)
    assert os.path.exists(result.checkpoint_path)
    assert os.path.exists(result.metrics_path)
    assert len(result.losses) == 6
    assert all(np.isfinite(result.losses))


def test_train_seeded_reruns_are_bit_identical(dataset, tmp_path):
    r1 = train(dataset, fast_config(), tmp_path / "a")
    r2 = train(dataset, fast_config(), tmp_path / "b")
    assert r1.log_lines == r2.log_lines
    assert r1.losses == r2.losses
    with open(r1.checkpoint_path, "rb") as f1, open(r2.checkpoint_path, "rb") as f2:
        assert f1.read() == f2.read()


def test_train_rejects_out_of_range_ages(tmp_path):
    manifest = tmp_path / "bad.jsonl"
    write_sample_manifest(
        manifest,
        [SampleRecord("x.ppm", BBox(0, 0, 8, 8), None, 150.0, "male")],
    )
    with pytest.raises(InputError, match="150"):
        train(manifest, fast_config(), tmp_path / "run")


def test_checkpoint_roundtrip_preserves_eval_metrics(dataset, tmp_path):
    result = train(dataset, fast_config(), tmp_path / "run")
    model = load_model(result.checkpoint_path)
    direct, _ = evaluate(dataset, model, mode="both")
    resaved = tmp_path / "resaved.ckpt"
    save_model(resaved, model)
    from_disk, _ = evaluate(dataset, str(resaved), mode="both")
    assert direct == from_disk


def test_evaluate_modes_mask_and_skip(tmp_path):
    # records with mixed availability: body-mode must skip face-only ones
    root = tmp_path / "data"
    manifest_all = generate_synthetic_dataset(root, 6, seed=1)
    from agegender.data import read_sample_manifest

    records = read_sample_manifest(manifest_all)
    records[0].body_bbox = None
    records[1].face_bbox = None
    mixed = root / "mixed.jsonl"
    write_sample_manifest(mixed, records)

    result = train(manifest_all, fast_config(), tmp_path / "run")
    by_mode = {}
    for mode in ("face", "body", "both"):
        report, skipped = evaluate(mixed, result.checkpoint_path, mode=mode)
        by_mode[mode] = (report, skipped)
    assert by_mode["face"][1] == 1  # the record with no face
    assert by_mode["body"][1] == 1
    assert by_mode["both"][1] == 2
    assert by_mode["face"][0]["n"] == 5
    assert by_mode["both"][0]["n"] == 4
    assert by_mode["face"][0]["mode"] == "face"


def test_evaluate_never_reads_the_image_of_a_skipped_record(tmp_path):
    manifest = generate_synthetic_dataset(tmp_path, 4, seed=2)
    records = read_sample_manifest(manifest)
    faceless = SampleRecord("missing.ppm", None, BBox(0, 40, 96, 96), 30.0, "male")
    with_faceless = tmp_path / "with_faceless.jsonl"
    write_sample_manifest(with_faceless, records + [faceless])
    model = FaceBodyModel(micro_config())
    report, skipped = evaluate(with_faceless, model, mode="face")
    assert skipped == 1
    assert report == {**evaluate(manifest, model, mode="face")[0], "skipped": 1}
    with pytest.raises(FileNotFoundError, match="missing.ppm"):
        evaluate(with_faceless, model, mode="body")


def test_evaluate_unknown_mode(dataset, tmp_path):
    result = train(dataset, fast_config(), tmp_path / "run")
    with pytest.raises(InputError):
        evaluate(dataset, result.checkpoint_path, mode="profile")


def test_evaluate_single_mode_differs_from_both(dataset, tmp_path):
    # masking an input changes predictions (the fusion path is live)
    result = train(dataset, fast_config(), tmp_path / "run")
    both, _ = evaluate(dataset, result.checkpoint_path, mode="both")
    face, _ = evaluate(dataset, result.checkpoint_path, mode="face")
    assert both["mae"] != face["mae"]


# every leaner kernel and its out-of-place oracle, as the module attribute
# the training and evaluation paths look up
ORACLE_PATCHES = [
    (train_module, "augment", oracles.augment_oracle),
    (train_module, "prepare_crop", oracles.prepare_crop_oracle),
    (tensor, "_softmax", oracles.softmax_oracle),
    (tensor, "linear", oracles.fused_linear_oracle),
    (tensor, "gelu", oracles.gelu_oracle),
    (tensor, "space_to_depth", oracles.space_to_depth_oracle),
    (volo, "_dropout", oracles.dropout_oracle),
    (volo, "_drop_path", oracles.drop_path_oracle),
]


def _train_and_evaluate(manifest, config, out_dir):
    result = train(manifest, config, out_dir)
    reports = [evaluate(manifest, result.checkpoint_path, mode=mode) for mode in ("face", "body", "both")]
    with open(result.checkpoint_path, "rb") as fh:
        return fh.read(), result.log_lines, result.losses, reports


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_training_is_bitwise_the_same_with_the_oracle_kernels(dataset, tmp_path, monkeypatch, dtype):
    # tiny_config keeps jitter, flips, erasing, input dropout, dropout and
    # drop path on
    config = tiny_config(batch_size=6, max_steps=3, log_every=1, seed=17, dtype=dtype)
    assert config.drop_rate > 0 and config.drop_path_rate > 0 and config.erase_prob > 0 and config.hflip_prob > 0
    got = _train_and_evaluate(dataset, config, tmp_path / "kernels")
    for module, name, oracle in ORACLE_PATCHES:
        monkeypatch.setattr(module, name, oracle)
    want = _train_and_evaluate(dataset, config, tmp_path / "oracles")
    assert got[0] == want[0]  # checkpoint bytes
    assert got[1:] == want[1:]  # log lines, losses and the three eval reports
