"""Seeded training loop and the three-mode evaluation protocol.

Everything downstream of the config seed is deterministic: one generator
drives shuffling, augmentation, input dropout and regularization masks in
a fixed order, so a rerun of `train` is reproducible bit-exactly and the
metrics log can be compared as text.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from typing import List

import numpy as np

from .augment import augment, input_dropout
from .checkpoint import init_from_single_input, load_model, save_model
from .config import ModelConfig
from .data import load_image, read_sample_manifest
from .errors import InputError
from .fusion import CropPair, FaceBodyModel
from .losses import AgeNormalizer, LdsWeights, combined_loss, gender_loss, weighted_mse
from .metrics import metrics_report
from .optim import AdamW, warmup_lr
from .preprocess import prepare_crop
from .tensor import Tape, check_finite
from .volo import TrainContext

GENDER_INDEX = {"male": 0, "female": 1}
# passes over the data when the config's max_steps is 0
EPOCHS = 220
EVAL_MODES = ("face", "body", "both")


@dataclass
class TrainResult:
    checkpoint_path: str
    metrics_path: str
    steps: int
    losses: List[float] = field(default_factory=list)
    log_lines: List[str] = field(default_factory=list)


def _image_loader(manifest_path):
    """Desk-scale datasets fit in memory: load each file, named relative
    to the manifest's directory, once."""
    root = os.path.dirname(os.path.abspath(manifest_path))
    return functools.cache(lambda name: load_image(os.path.join(root, name)))


def _validate_ages(records, config):
    for r in records:
        if not (config.y_min <= r.age <= config.y_max):
            raise InputError(f"{r.image}: age {r.age} outside [{config.y_min}, {config.y_max}]")


def _batch_arrays(pairs, side, dtype):
    arrays = [p.as_arrays(side, dtype) for p in pairs]
    return np.stack([face for face, _ in arrays]), np.stack([body for _, body in arrays])


def train(manifest_path, config: ModelConfig, out_dir, init_from=None):
    """Full loop: augment -> input dropout -> forward -> loss -> backward ->
    optimizer step, with warmup. Writes checkpoint + metrics log."""
    os.makedirs(out_dir, exist_ok=True)
    records = read_sample_manifest(manifest_path)
    _validate_ages(records, config)

    if init_from is not None:
        model = init_from_single_input(init_from, config)
    else:
        model = FaceBodyModel(config)

    normalizer = AgeNormalizer.from_config(config)
    lds = LdsWeights([r.age for r in records])
    optimizer = AdamW(model.params, config)
    rng = np.random.default_rng(config.seed)
    image_of = _image_loader(manifest_path)

    n = len(records)
    batch = min(config.batch_size, n)
    steps_per_epoch = max(1, n // batch)
    total_steps = config.max_steps or EPOCHS * steps_per_epoch

    losses = []
    log_lines = []
    order = []
    step = 0
    while step < total_steps:
        if len(order) < batch:
            order = list(rng.permutation(n))
        picked = [records[order.pop()] for _ in range(batch)]

        pairs = []
        targets = []
        labels = []
        weights = []
        for rec in picked:
            pair = augment(rec, image_of(rec.image), rng, config)
            pair = input_dropout(pair, rng, config)
            pairs.append(pair)
            targets.append(normalizer.normalize(rec.age))
            labels.append(GENDER_INDEX[rec.gender])
            weights.append(lds.weight_for(rec.age))

        faces, bodies = _batch_arrays(pairs, config.image_side, model.dtype)
        ctx = TrainContext(rng=rng, drop_rate=config.drop_rate, drop_path_rate=config.drop_path_rate)
        with Tape() as tape:
            logits, age_norm = model.forward_batch(faces, bodies, ctx=ctx)
            loss = combined_loss(
                weighted_mse(age_norm, np.array(targets), np.array(weights)),
                gender_loss(logits, labels),
                config.gender_loss_weight,
            )
            tape.backward(loss)

        lr = warmup_lr(step, config)
        optimizer.step(lr)
        model.zero_grads()

        loss_value = loss.item()
        losses.append(loss_value)
        if step % config.log_every == 0 or step == total_steps - 1:
            batch_mae = float(
                np.mean(np.abs(normalizer.denormalize(age_norm.data) - normalizer.denormalize(np.array(targets))))
            )
            log_lines.append(f"step {step} lr {lr!r} loss {loss_value!r} batch_age_mae {batch_mae!r}")
        step += 1

    checkpoint_path = os.path.join(out_dir, "model.ckpt")
    save_model(checkpoint_path, model)
    metrics_path = os.path.join(out_dir, "train_log.txt")
    with open(metrics_path, "w") as fh:
        fh.write("\n".join(log_lines) + "\n")
    return TrainResult(
        checkpoint_path=checkpoint_path,
        metrics_path=metrics_path,
        steps=total_steps,
        losses=losses,
        log_lines=log_lines,
    )


# ---------------------------------------------------------------------------
# evaluation


def evaluate(manifest_path, model_or_checkpoint, mode="both"):
    """Metrics report for one evaluation mode.

    Modes mask the complementary input; records lacking a required side
    are skipped and counted, mirroring the three-column test protocol.
    A skipped record is decided from its boxes alone: its image is never
    read. A non-finite predicted age or gender logit raises
    NumericalError. Returns (report dict, skipped count).
    """
    if mode not in EVAL_MODES:
        raise InputError(f"unknown eval mode {mode!r} (want face, body or both)")
    model = model_or_checkpoint
    if not isinstance(model, FaceBodyModel):
        model = load_model(model_or_checkpoint)
    config = model.config
    records = read_sample_manifest(manifest_path)
    _validate_ages(records, config)
    normalizer = AgeNormalizer.from_config(config)
    image_of = _image_loader(manifest_path)

    use_face, use_body = mode != "body", mode != "face"
    kept = []
    skipped = 0
    for rec in records:
        face = rec.face_bbox if use_face else None
        body = rec.body_bbox if use_body else None
        if (use_face and face is None) or (use_body and body is None):
            skipped += 1
            continue
        image = image_of(rec.image)
        pair = CropPair(
            face=prepare_crop(image, face, config.image_side) if face else None,
            body=prepare_crop(image, body, config.image_side) if body else None,
        )
        kept.append((rec, pair))
    if not kept:
        raise InputError(f"no records usable in mode {mode!r}")

    # single-side modes can take the skip path for the absent embedding
    skip = {"face": "body", "body": "face", "both": None}[mode]
    pred_years = []
    pred_gender = []
    for start in range(0, len(kept), config.batch_size):
        chunk = [pair for _, pair in kept[start:start + config.batch_size]]
        faces, bodies = _batch_arrays(chunk, config.image_side, model.dtype)
        logits, age_norm = model.forward_batch(faces, bodies, skip=skip)
        years = check_finite(normalizer.denormalize(age_norm.data), "predicted ages")
        check_finite(logits, "predicted gender logits")
        pred_years.extend(years.tolist())
        pred_gender.extend("male" if row[0] >= row[1] else "female" for row in logits.data)

    target_years = [rec.age for rec, _ in kept]
    target_gender = [rec.gender for rec, _ in kept]
    report = {"mode": mode, "skipped": skipped}
    report.update(metrics_report(pred_years, target_years, pred_gender, target_gender))
    return report, skipped
