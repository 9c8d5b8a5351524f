import functools
import hashlib
import io
import json

import numpy as np
import pytest

from agegender.cli import main
from agegender.config import micro_config, tiny_config
from agegender.checkpoint import save_checkpoint, save_model
from agegender.data import (
    read_ppm,
    read_sample_manifest,
    write_detection_manifest,
    write_ppm,
)
from agegender.fusion import FaceBodyModel
from agegender.pairing import BBox, Detection
from agegender.tensor import Tensor
from agegender.votes import BASELINE_METHODS


def run(argv):
    return main(argv)


def test_synth_and_train_and_eval(tmp_path):
    data = tmp_path / "data"
    assert run(["synth", "--n", "8", "--out", str(data), "--seed", "3"]) == 0
    manifest = data / "manifest.jsonl"
    assert manifest.exists()
    assert len(read_sample_manifest(manifest)) == 8

    cfg_path = tmp_path / "config.json"
    micro_config(max_steps=3, batch_size=4, learning_rate=1e-3, log_every=1, seed=1).save(cfg_path)
    out = tmp_path / "run"
    assert run(["train", "--manifest", str(manifest), "--config", str(cfg_path), "--out", str(out)]) == 0
    ckpt = out / "model.ckpt"
    assert ckpt.exists()

    report_path = tmp_path / "report.txt"
    assert run([
        "eval", "--manifest", str(manifest), "--checkpoint", str(ckpt),
        "--mode", "both", "--out", str(report_path),
    ]) == 0
    text = report_path.read_text()
    assert "mae " in text and "cs@5 " in text and "gender_acc " in text


def test_eval_missing_checkpoint_is_input_error(tmp_path):
    data = tmp_path / "data"
    run(["synth", "--n", "2", "--out", str(data)])
    code = run(["eval", "--manifest", str(data / "manifest.jsonl"),
                "--checkpoint", str(tmp_path / "nope.ckpt")])
    assert code == 1


def _edit_header(edit):
    def apply(blob):
        line, payload = blob.split(b"\n", 1)
        header = json.loads(line)
        return json.dumps(edit(header)).encode() + b"\n" + payload
    return apply


def _set(key, value):
    return _edit_header(lambda h: {**h, key: value})


def _drop(key):
    return _edit_header(lambda h: {k: v for k, v in h.items() if k != key})


def _v1_text(blob):
    header = json.loads(blob.split(b"\n", 1)[0])
    header["format"] = "agegender-weights/1"
    del header["params"]
    return (json.dumps(header) + "\nhead.fc2.bias\t3\t0.0 0.0 0.0\n").encode()


def _rehash_config(edit):
    """A config edited past its own checks, with the config hash to match."""
    def apply(header):
        config = edit(dict(header["config"]))
        blob = json.dumps(config, sort_keys=True)
        return {**header, "config": config, "config_hash": hashlib.sha256(blob.encode()).hexdigest()[:16]}
    return _edit_header(apply)


MALFORMED_CHECKPOINTS = {
    "not_json": lambda blob: b"\xff\xfe{{\n" + blob,
    "header_not_object": lambda blob: b"[1, 2]\n" + blob.split(b"\n", 1)[1],
    "v1_text": _v1_text,
    "missing_config": _drop("config"),
    "config_not_object": _set("config", [1, 2]),
    "config_rehashed_bad_value": _rehash_config(lambda c: {**c, "image_side": None}),
    "header_too_deep": lambda blob: b"[" * 100_000 + b"]" * 100_000 + b"\n" + blob.split(b"\n", 1)[1],
    "missing_params": _drop("params"),
    "missing_frozen": _drop("frozen"),
    "unknown_frozen": _set("frozen", ["no.such.param"]),
    "bad_shape": _edit_header(lambda h: {**h, "params": [[h["params"][0][0], [-1]]] + h["params"][1:]}),
    "truncated_payload": lambda blob: blob[:-8],
    "overlong_payload": lambda blob: blob + bytes(8),
}


@pytest.fixture(scope="module")
def eval_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("ckpt")
    run(["synth", "--n", "2", "--out", str(root / "data")])
    ckpt = root / "model.ckpt"
    save_model(ckpt, FaceBodyModel(micro_config()))
    return root / "data" / "manifest.jsonl", ckpt.read_bytes()


def _eval_code(eval_inputs, blob, tmp_path):
    manifest, _ = eval_inputs
    path = tmp_path / "edited.ckpt"
    path.write_bytes(blob)
    return run(["eval", "--manifest", str(manifest), "--checkpoint", str(path)])


@pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
def test_eval_malformed_checkpoint_is_input_error(case, eval_inputs, tmp_path, capsys):
    blob = MALFORMED_CHECKPOINTS[case](eval_inputs[1])
    assert _eval_code(eval_inputs, blob, tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "edited.ckpt" in err
    if case == "v1_text":
        assert "agegender-weights/5" in err
    if case == "config_not_object":
        assert "config must be a JSON object" in err


# format 4: this layout under a config with nine more fields; format 3:
# four more again; format 2: also an always-float64 payload and no dtype
FORMAT_4_ONLY_FIELDS = {"lds_kernel_size": 5, "lds_sigma": 2.0, "lds_bin_width": 1.0, "beta1": 0.9,
                        "beta2": 0.999, "adam_eps": 1e-8, "epochs": 220, "erase_area_min": 0.02,
                        "erase_area_max": 0.2}
FORMAT_3_ONLY_FIELDS = {"enhancer_bidirectional": True, "pool": "mean", "base_batch_size": 192,
                       "scale_lr_with_batch": False}


@pytest.mark.parametrize("version", [2, 3, 4])
def test_eval_old_format_checkpoint_names_format_5(version, eval_inputs, tmp_path, capsys):
    line, payload = eval_inputs[1].split(b"\n", 1)
    header = json.loads(line)
    header["format"] = f"agegender-weights/{version}"
    header["config"].update(FORMAT_4_ONLY_FIELDS)
    if version <= 3:
        header["config"].update(FORMAT_3_ONLY_FIELDS)
    if version == 2:
        del header["config"]["dtype"]
        payload = np.frombuffer(payload, dtype="<f4").astype("<f8").tobytes()
    assert _eval_code(eval_inputs, json.dumps(header).encode() + b"\n" + payload, tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "edited.ckpt" in err
    assert f"agegender-weights/{version}" in err and "agegender-weights/5" in err


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_eval_non_finite_weight_is_numerical_failure(value, eval_inputs, tmp_path, capsys):
    blob = eval_inputs[1]
    blob = blob[:-8] + np.array([value], dtype="<f8").tobytes()
    assert _eval_code(eval_inputs, blob, tmp_path) == 2
    assert "non-finite" in capsys.readouterr().err


def test_eval_non_finite_prediction_is_numerical_failure(tmp_path, capsys):
    # finite float32 weights whose head overflows to inf, then nan: the
    # checkpoint saves and loads cleanly, the predictions do not
    run(["synth", "--n", "4", "--out", str(tmp_path / "data")])
    model = FaceBodyModel(tiny_config())
    for name in ("head.fc1.weight", "head.fc2.weight"):
        model.params[name].data *= np.float32(3e37)
        assert np.isfinite(model.params[name].data).all()
    save_model(tmp_path / "model.ckpt", model)
    argv = ["eval", "--manifest", str(tmp_path / "data" / "manifest.jsonl"), "--checkpoint", str(tmp_path / "model.ckpt")]
    with np.errstate(over="ignore", invalid="ignore"):
        assert run(argv + ["--mode", "both"]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("numerical failure: ") and "non-finite" in err and "mae" not in out


MALFORMED_CONFIGS = {
    "unknown_key": b'{"learning_rate": 0.001, "mystery": 3}\n',
    "not_utf8": b'{"learning_rate": 0.001, "seed": "\xff"}\n',
    "too_deep": b'{"seed": ' + b"[" * 100_000 + b"]" * 100_000 + b"}\n",
    "huge_integer": b'{"seed": ' + b"7" * 5_000 + b"}\n",
    # a rate of 1 keeps nothing: the dropout mask would divide by zero
    "drop_rate_one": b'{"drop_rate": 1.0}\n',
    "drop_path_rate_one": b'{"drop_path_rate": 1.0}\n',
    # not a setting: AdamW's beta1 is the constant optim.BETA1
    "removed_key": b'{"beta1": 0.9}\n',
    # Python's json reads NaN and Infinity; every float must be finite
    "jitter_nan": b'{"jitter": NaN}\n',
    "learning_rate_inf": b'{"learning_rate": Infinity}\n',
    "y_min_minus_inf": b'{"y_min": -Infinity}\n',
    "y_max_nan": b'{"y_max": NaN}\n',
    "y_max_too_large_for_a_float": b'{"y_max": 1' + b"0" * 400 + b'}\n',
    # rates, weights and magnitudes that must not be negative
    "gender_loss_weight_negative": b'{"gender_loss_weight": -1}\n',
    "learning_rate_negative": b'{"learning_rate": -1e-3}\n',
    "warmup_start_lr_negative": b'{"warmup_start_lr": -1e-6}\n',
    "weight_decay_negative": b'{"weight_decay": -0.1}\n',
    "jitter_negative": b'{"jitter": -0.2}\n',
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
def test_train_malformed_config_is_input_error(case, tmp_path, capsys):
    data = tmp_path / "data"
    run(["synth", "--n", "2", "--out", str(data)])
    capsys.readouterr()
    cfg_path = tmp_path / "config.json"
    cfg_path.write_bytes(MALFORMED_CONFIGS[case])
    code = run(["train", "--manifest", str(data / "manifest.jsonl"),
                "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(cfg_path) in err and len(err.splitlines()) == 1
    if case == "removed_key":
        assert "beta1" in err


# a warm-start source saved under its own (matching) config, with one
# parameter added, dropped or misshapen
WARM_START_EDITS = {
    "extra": lambda params: {**params, "head.extra": params["head.fc2.bias"]},
    "missing_enhancer": lambda params: {n: p for n, p in params.items() if n != "enhancer.fuse.fc2.bias"},
    "misshapen": lambda params: {**params, "head.fc2.bias": Tensor(np.zeros(4))},
}


@pytest.mark.parametrize("case", sorted(WARM_START_EDITS))
def test_train_init_from_checks_the_source_against_the_architecture(case, tmp_path, capsys):
    data = tmp_path / "data"
    run(["synth", "--n", "2", "--out", str(data)])
    cfg = micro_config(max_steps=1, batch_size=2)
    cfg.save(tmp_path / "config.json")
    source = tmp_path / "face.ckpt"
    save_checkpoint(source, WARM_START_EDITS[case](FaceBodyModel(cfg).params), cfg)
    capsys.readouterr()
    code = run(["train", "--manifest", str(data / "manifest.jsonl"), "--config", str(tmp_path / "config.json"),
                "--out", str(tmp_path / "run"), "--init-from", str(source)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {source}: params table has ") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "name,value",
    [
        ("image_side", '"x"'),
        ("drop_rate", '"0.1"'),
        ("patch_size", "true"),
        ("seed", "1.5"),
        ("learning_rate", "null"),
        ("dtype", "3"),
        ("dtype", "true"),
        # sizes, counts and head numbers the model cannot run
        ("patch_size", "0"),
        ("batch_size", "0"),
        ("outlook_heads", "0"),
        ("attn_heads", "0"),
        ("log_every", "0"),
        ("batch_size", "-4"),
        ("stage1_width", "0"),
        ("mlp_ratio", "0"),
        ("head_hidden", "0"),
        ("seed", "-1"),
        ("max_steps", "-1"),
    ],
)
def test_train_wrong_config_type_is_input_error(name, value, tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(f'{{"{name}": {value}}}\n')
    code = run(["train", "--manifest", str(tmp_path / "manifest.jsonl"),
                "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err and len(err.splitlines()) == 1


GOOD_SAMPLE = {"image": "sample_00000.ppm", "face_bbox": [32, 8, 64, 40], "body_bbox": None, "age": 30.0, "gender": "male"}

MALFORMED_SAMPLES = {
    "row_not_object": [1, 2],
    "age_not_number": {**GOOD_SAMPLE, "age": "abc"},
    "age_null": {**GOOD_SAMPLE, "age": None},
    "age_digits": {**GOOD_SAMPLE, "age": "30"},
    "age_bool": {**GOOD_SAMPLE, "age": True},
    "image_not_string": {**GOOD_SAMPLE, "image": 5},
    "image_with_nul": {**GOOD_SAMPLE, "image": "a\0.ppm"},
    "image_with_lone_surrogate": {**GOOD_SAMPLE, "image": "\ud800.ppm"},
    "bbox_overflows": {**GOOD_SAMPLE, "face_bbox": [0, 0, float("inf"), 5]},
    "bbox_string_of_digits": {**GOOD_SAMPLE, "face_bbox": "3247"},
    "bbox_with_bool": {**GOOD_SAMPLE, "face_bbox": [True, 0, 5, 5]},
    "bbox_with_float": {**GOOD_SAMPLE, "face_bbox": [0, 0, 5.5, 5]},
    "gender_unknown": {**GOOD_SAMPLE, "gender": "abc"},
    "no_bbox": {**GOOD_SAMPLE, "face_bbox": None, "body_bbox": None},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SAMPLES))
def test_eval_malformed_sample_manifest_is_input_error(case, eval_inputs, tmp_path, capsys):
    # the bad row is line 2; "inf" is written as 1e400, which JSON reads as inf
    manifest = tmp_path / "manifest.jsonl"
    bad = json.dumps(MALFORMED_SAMPLES[case]).replace("Infinity", "1e400")
    manifest.write_text(json.dumps(GOOD_SAMPLE) + "\n" + bad + "\n")
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(eval_inputs[1])
    assert run(["eval", "--manifest", str(manifest), "--checkpoint", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "manifest.jsonl:2: " in err and len(err.splitlines()) == 1


def test_eval_directory_as_checkpoint_is_input_error(eval_inputs, tmp_path, capsys):
    code = run(["eval", "--manifest", str(eval_inputs[0]), "--checkpoint", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_is_numerical_failure(tmp_path):
    data = tmp_path / "data"
    run(["synth", "--n", "4", "--out", str(data)])
    cfg_path = tmp_path / "config.json"
    micro_config(max_steps=40, batch_size=4, learning_rate=1e12, warmup_steps=0, seed=0).save(cfg_path)
    code = run(["train", "--manifest", str(data / "manifest.jsonl"),
                "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert code == 2


def test_pair_command(tmp_path):
    rng = np.random.default_rng(0)
    image = rng.random((120, 120, 3))
    write_ppm(tmp_path / "scene.ppm", image)
    entries = [
        {
            "image": "scene.ppm",
            "detections": [
                Detection(BBox(30, 10, 60, 40), "face", 0.95),
                Detection(BBox(20, 5, 80, 115), "person", 0.9),
                Detection(BBox(90, 90, 119, 119), "person", 0.8),
            ],
        }
    ]
    det_path = tmp_path / "detections.jsonl"
    write_detection_manifest(det_path, entries)
    out_path = tmp_path / "pairs.jsonl"
    assert run(["pair", "--detections", str(det_path), "--out", str(out_path)]) == 0
    rows = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert len(rows) == 2  # one matched pair + one unmatched person
    matched = rows[0]
    assert matched["face_bbox"] == [30, 10, 60, 40]
    assert matched["body_bbox"] is not None
    x0, y0, x1, y1 = matched["body_bbox"]
    assert 20 <= x0 < x1 <= 80 and 5 <= y0 < y1 <= 115


PAIR_SCENE = {
    "image": "scene.ppm",
    "detections": [
        {"kind": "face", "x0": 30, "y0": 10, "x1": 50, "y1": 30, "score": 0.9},
        {"kind": "person", "x0": 20, "y0": 5, "x1": 70, "y1": 60, "score": 0.8},
    ],
}


def _with_detection(**fields):
    return [{**PAIR_SCENE, "detections": [{**PAIR_SCENE["detections"][0], **fields}]}]


MALFORMED_DETECTIONS = {
    "coordinate_text": (_with_detection(x0="a"), "detections.jsonl:1"),
    "coordinate_null": (_with_detection(x0=None), "detections.jsonl:1"),
    "coordinate_infinity": (_with_detection(x1=float("inf")), "detections.jsonl:1"),
    "score_text": (_with_detection(score="x"), "detections.jsonl:1"),
    "row_is_list": ([PAIR_SCENE, [1, 2]], "detections.jsonl:2"),
    "detections_number": ([{**PAIR_SCENE, "detections": 5}], "detections.jsonl:1"),
    "detection_number": ([{**PAIR_SCENE, "detections": [5]}], "detections.jsonl:1"),
    "image_number": ([{**PAIR_SCENE, "image": 5}], "detections.jsonl:1"),
    "image_with_nul": ([{**PAIR_SCENE, "image": "scene\u0000.ppm"}], "detections.jsonl:1"),
    "face_outside_image": (_with_detection(x0=200, y0=200, x1=210, y1=210), "scene.ppm: detection 0"),
    "person_left_of_image": ([{**PAIR_SCENE, "detections": PAIR_SCENE["detections"] + [
        {"kind": "person", "x0": -30, "y0": 0, "x1": 0, "y1": 40}]}], "scene.ppm: detection 2"),
}


def _pair_code(tmp_path, rows, ppm):
    (tmp_path / "scene.ppm").write_bytes(ppm)
    det_path = tmp_path / "detections.jsonl"
    det_path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return run(["pair", "--detections", str(det_path), "--out", str(tmp_path / "pairs.jsonl")])


def _scene_ppm(tmp_path):
    path = tmp_path / "source.ppm"
    write_ppm(path, np.random.default_rng(0).random((60, 80, 3)))
    return path.read_bytes()


@pytest.mark.parametrize("case", sorted(MALFORMED_DETECTIONS))
def test_pair_malformed_detections_is_input_error(case, tmp_path, capsys):
    rows, where = MALFORMED_DETECTIONS[case]
    assert _pair_code(tmp_path, rows, _scene_ppm(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err
    assert not (tmp_path / "pairs.jsonl").exists()


@pytest.mark.parametrize("face", [
    {"x0": 30, "y0": 0, "x1": 10**400, "y1": 30},
    {"x0": -10**308, "y0": -(2**63) - 1, "x1": 45, "y1": 2**64},
])
def test_pair_fills_an_occluder_with_coordinates_beyond_int64(face, tmp_path):
    # the face overlaps both persons, so one person's crop erases it, and
    # the trim takes the erased rows or columns off
    from oracles import pair_rows_oracle

    rows = [{"image": "scene.ppm", "detections": [
        {"kind": "person", "x0": 0, "y0": 0, "x1": 40, "y1": 60},
        {"kind": "person", "x0": 40, "y0": 0, "x1": 80, "y1": 60},
        {"kind": "face", **face},
    ]}]
    ppm = _scene_ppm(tmp_path)
    assert _pair_code(tmp_path, rows, ppm) == 0
    got = [json.loads(line) for line in (tmp_path / "pairs.jsonl").read_text().splitlines()]
    dets = [Detection(BBox(d["x0"], d["y0"], d["x1"], d["y1"]), d["kind"]) for d in rows[0]["detections"]]
    assert got == pair_rows_oracle("scene.ppm", read_ppm(tmp_path / "scene.ppm"), dets)
    assert len(got) == 2
    assert {tuple(row["body_bbox"]) for row in got} - {(0, 0, 40, 60), (40, 0, 80, 60)}


MALFORMED_PPMS = {
    "promises_more_pixels": lambda blob: blob.replace(b"80 60", b"80 61", 1),
    "truncated_payload": lambda blob: blob[:-1],
    "zero_by_zero": lambda blob: b"P6\n0 0\n255\n",
    "negative_size": lambda blob: blob.replace(b"80 60", b"-80 -60", 1),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PPMS))
def test_pair_malformed_ppm_is_input_error(case, tmp_path, capsys):
    assert _pair_code(tmp_path, [PAIR_SCENE], MALFORMED_PPMS[case](_scene_ppm(tmp_path))) == 1
    assert capsys.readouterr().err.startswith("error: ")


def _aggregate_code(tmp_path, votes, controls):
    paths = {}
    for name, rows in (("votes", votes), ("controls", controls)):
        paths[name] = tmp_path / f"{name}.jsonl"
        paths[name].write_text("".join(json.dumps(row) + "\n" for row in rows))
    return run(["aggregate", "--votes", str(paths["votes"]), "--controls", str(paths["controls"]),
                "--out", str(tmp_path / "aggregated.jsonl"), "--user-report", str(tmp_path / "users.jsonl")])


VOTES = [{"task": "t1", "user": "u1", "age": 30, "gender": "male"},
         {"task": "t1", "user": "u2", "age": 34, "gender": "male"}]
CONTROLS = [{"user": "u1", "voted": 30, "truth": 30}, {"user": "u2", "voted": 30, "truth": 33}]


BAD_NUMBERS = {
    "age_nan": (VOTES[:1] + [{**VOTES[1], "age": float("nan")}], CONTROLS, "votes.jsonl:2"),
    "age_infinity": ([{**VOTES[0], "age": float("inf")}], CONTROLS, "votes.jsonl:1"),
    "age_text": ([{**VOTES[0], "age": "x"}], CONTROLS, "votes.jsonl:1"),
    "age_list": ([{**VOTES[0], "age": [30]}], CONTROLS, "votes.jsonl:1"),
    "age_digits": ([{**VOTES[0], "age": "12"}], CONTROLS, "votes.jsonl:1"),
    "age_bool": (VOTES[:1] + [{**VOTES[1], "age": True}], CONTROLS, "votes.jsonl:2"),
    "vote_row_number": (VOTES + [5], CONTROLS, "votes.jsonl:3"),
    "voted_nan": (VOTES, [{**CONTROLS[0], "voted": float("nan")}, CONTROLS[1]], "controls.jsonl:1"),
    "voted_text": (VOTES, [CONTROLS[0], {**CONTROLS[1], "voted": "x"}], "controls.jsonl:2"),
    "voted_digits": (VOTES, [CONTROLS[0], {**CONTROLS[1], "voted": "5"}], "controls.jsonl:2"),
    "truth_bool": (VOTES, [{**CONTROLS[0], "truth": False}, CONTROLS[1]], "controls.jsonl:1"),
    "truth_null": (VOTES, [{**CONTROLS[0], "truth": None}, CONTROLS[1]], "controls.jsonl:1"),
    "control_row_list": (VOTES, CONTROLS + [[1, 2]], "controls.jsonl:3"),
}


@pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
def test_aggregate_bad_numbers_are_input_errors(case, tmp_path, capsys):
    votes, controls, where = BAD_NUMBERS[case]
    assert _aggregate_code(tmp_path, votes, controls) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err


UNREADABLE_VOTES = {
    "not_utf8": b"\xff\xfe\x00\n",
    "deep_nesting": b"[" * 100_000 + b"\n",
    "int_too_long": b'{"task": "t1", "user": "u1", "age": ' + b"9" * 5000 + b"}\n",
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_VOTES))
def test_aggregate_unreadable_votes_is_input_error(case, tmp_path, capsys):
    votes = tmp_path / "votes.jsonl"
    votes.write_bytes(UNREADABLE_VOTES[case])
    assert run(["aggregate", "--votes", str(votes), "--method", "median", "--out", str(tmp_path / "o.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "votes.jsonl" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "votes,controls",
    [
        ([{**VOTES[0], "age": 1e308}], CONTROLS),  # times the weight e^2
        (VOTES, [{**CONTROLS[0], "voted": 1e308, "truth": -1e308}, CONTROLS[1]]),
    ],
    ids=["weighted_age", "control_error"],
)
def test_aggregate_overflow_is_numerical_failure(votes, controls, tmp_path, capsys):
    assert _aggregate_code(tmp_path, votes, controls) == 2
    assert capsys.readouterr().err.startswith("numerical failure: ")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_aggregate_max_likelihood_overflow_is_numerical_failure(tmp_path, capsys):
    votes = tmp_path / "votes.jsonl"
    votes.write_text("".join(json.dumps(row) + "\n" for row in [{**VOTES[0], "age": 1e308}, VOTES[1]]))
    assert run(["aggregate", "--votes", str(votes), "--method", "max_likelihood",
                "--out", str(tmp_path / "o.jsonl")]) == 2
    assert capsys.readouterr().err.startswith("numerical failure: ")


@pytest.mark.parametrize("task", ["a\nb", "\x85", "t\u2028", "\r\n"])
def test_error_naming_a_task_with_line_breaks_is_one_line(task, tmp_path, capsys):
    votes = tmp_path / "votes.jsonl"
    votes.write_text(json.dumps({"task": task, "user": "u1"}) + "\n")
    assert run(["aggregate", "--votes", str(votes), "--method", "mean", "--out", str(tmp_path / "o.jsonl")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: task ") and err.endswith(": no votes\n")


def test_aggregate_null_age_is_no_vote(tmp_path):
    votes = VOTES + [{"task": "t1", "user": "u3", "age": None, "gender": "male"}]
    assert _aggregate_code(tmp_path, votes, CONTROLS) == 0
    row = json.loads((tmp_path / "aggregated.jsonl").read_text())
    assert row["gender"] == "male" and 30.0 < row["age"] < 34.0


def test_aggregate_command(tmp_path):
    votes = tmp_path / "votes.jsonl"
    with open(votes, "w") as fh:
        for user, age in (("u1", 30), ("u2", 34), ("u3", 50)):
            fh.write(json.dumps({"task": "t1", "user": user, "age": age, "gender": "male"}) + "\n")
    controls = tmp_path / "controls.jsonl"
    with open(controls, "w") as fh:
        fh.write(json.dumps({"user": "u1", "voted": 30, "truth": 30}) + "\n")
        fh.write(json.dumps({"user": "u2", "voted": 30, "truth": 33}) + "\n")
        fh.write(json.dumps({"user": "u3", "voted": 30, "truth": 50}) + "\n")
    out = tmp_path / "aggregated.jsonl"
    report = tmp_path / "users.jsonl"
    assert run([
        "aggregate", "--votes", str(votes), "--controls", str(controls),
        "--method", "weighted_mean", "--out", str(out), "--user-report", str(report),
    ]) == 0
    row = json.loads(out.read_text().splitlines()[0])
    assert row["task"] == "t1" and row["gender"] == "male"
    assert 30.0 <= row["age"] <= 35.0  # reliable users dominate
    users = [json.loads(line) for line in report.read_text().splitlines()]
    assert {u["user"]: u["mae"] for u in users} == {"u1": 0.0, "u2": 3.0, "u3": 20.0}

    assert run(["aggregate", "--votes", str(votes), "--method", "median", "--out", str(out)]) == 0
    assert json.loads(out.read_text().splitlines()[0])["age"] == 34.0


def test_aggregate_weighted_without_controls_fails(tmp_path):
    votes = tmp_path / "votes.jsonl"
    votes.write_text(json.dumps({"task": "t", "user": "u", "age": 20, "gender": "male"}) + "\n")
    code = run(["aggregate", "--votes", str(votes), "--method", "weighted_mean",
                "--out", str(tmp_path / "o.jsonl")])
    assert code == 1


def test_gradcheck_command_passes_on_default_config():
    assert run(["gradcheck", "--coords", "1", "--seed", "0"]) == 0


@pytest.mark.parametrize("flag,value", [("--coords", "0"), ("--coords", "-1"), ("--h", "nan"),
                                        ("--h", "inf"), ("--h", "0"), ("--h", "-1e-5")])
def test_gradcheck_refuses_arguments_that_check_nothing(flag, value, capsys):
    # zero coordinates compare nothing and a NaN step compares only NaN
    assert run(["gradcheck", f"{flag}={value}"]) == 1
    out, err = capsys.readouterr()
    assert "PASS" not in out and err.startswith("error: gradcheck: ") and len(err.splitlines()) == 1


def test_gradcheck_nan_error_fails(monkeypatch, capsys):
    monkeypatch.setattr("agegender.cli.model_gradcheck", lambda *a, **k: (float("nan"), {"x": float("nan")}))
    assert run(["gradcheck"]) == 2
    out, err = capsys.readouterr()
    assert "PASS" not in out and "FAIL" in err


# a bad row on file line 4, after two blank lines
def _blank_lines_before_bad_row(good, bad):
    return json.dumps(good) + "\n\n  \n" + json.dumps(bad) + "\n"


def test_votes_error_names_file_line_after_blank_lines(tmp_path, capsys):
    (tmp_path / "votes.jsonl").write_text(_blank_lines_before_bad_row(VOTES[0], {**VOTES[1], "age": "x"}))
    assert run(["aggregate", "--votes", str(tmp_path / "votes.jsonl"), "--method", "median",
                "--out", str(tmp_path / "o.jsonl")]) == 1
    assert "votes.jsonl:4: age" in capsys.readouterr().err


def test_controls_error_names_file_line_after_blank_lines(tmp_path, capsys):
    (tmp_path / "votes.jsonl").write_text(json.dumps(VOTES[0]) + "\n")
    (tmp_path / "controls.jsonl").write_text(_blank_lines_before_bad_row(CONTROLS[0], {"user": "u2", "voted": 3}))
    assert run(["aggregate", "--votes", str(tmp_path / "votes.jsonl"), "--controls", str(tmp_path / "controls.jsonl"),
                "--out", str(tmp_path / "o.jsonl")]) == 1
    assert "controls.jsonl:4: missing field 'truth'" in capsys.readouterr().err


def test_detections_error_names_file_line_after_blank_lines(tmp_path, capsys):
    (tmp_path / "scene.ppm").write_bytes(_scene_ppm(tmp_path))
    (tmp_path / "detections.jsonl").write_text(_blank_lines_before_bad_row(PAIR_SCENE, _with_detection(x0="a")[0]))
    assert run(["pair", "--detections", str(tmp_path / "detections.jsonl"), "--out", str(tmp_path / "p.jsonl")]) == 1
    assert "detections.jsonl:4: bad detection" in capsys.readouterr().err


def test_sample_manifest_error_names_file_line_after_blank_lines(tmp_path, capsys):
    good = {"image": "a.ppm", "face_bbox": [0, 0, 4, 4], "body_bbox": None, "age": 30.0, "gender": "male"}
    (tmp_path / "manifest.jsonl").write_text(_blank_lines_before_bad_row(good, {**good, "face_bbox": ["x"]}))
    assert run(["train", "--manifest", str(tmp_path / "manifest.jsonl"), "--out", str(tmp_path / "run")]) == 1
    assert "manifest.jsonl:4: bad bbox" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_aggregate_missing_mae_wins_over_earlier_overflow(tmp_path, capsys):
    votes = [{**VOTES[0], "age": 1e308}, {"task": "t2", "user": "ghost", "age": 20, "gender": None}]
    assert _aggregate_code(tmp_path, votes, CONTROLS) == 1
    assert "task t2: no control MAE for users ['ghost']" in capsys.readouterr().err


# control MAEs on, below and just above the 0.5-year floor
EDGE_CONTROL_MAES = (0.0, 0.25, 0.5, float(np.nextafter(0.5, 1.0)), 0.75)


@functools.lru_cache(maxsize=1)
def _prep_mix_files(seed=31, tasks=2000, users=300, votes_per_task=10):
    """Votes and controls (ndjson text) in the benchmark's prep mix: each
    task gets votes from distinct annotators of varying skill. One vote in
    twenty has a null age and one in twenty a null gender, a tenth of the
    tasks alternate their gender votes (5-5 ties when none is null), and
    users u0-u4 have the control MAEs of EDGE_CONTROL_MAES."""
    rng = np.random.default_rng(seed)
    skill = rng.uniform(0.5, 12.0, users)
    controls = [{"user": f"u{u}", "voted": mae, "truth": 0.0} for u, mae in enumerate(EDGE_CONTROL_MAES)]
    for u in range(len(EDGE_CONTROL_MAES), users):
        truth = rng.integers(1, 90, 10)
        voted = np.clip(np.round(truth + rng.normal(0.0, skill[u], 10)), 0, 100)
        controls += [{"user": f"u{u}", "voted": float(v), "truth": float(t)} for v, t in zip(voted, truth)]
    votes = []
    for t in range(tasks):
        age, tie, gender = rng.uniform(1.0, 90.0), rng.random() < 0.1, int(rng.random() < 0.5)
        for j, u in enumerate(rng.choice(users, votes_per_task, replace=False)):
            vote = float(np.clip(np.round(age + rng.normal(0.0, skill[u])), 0, 100))
            g = ("male", "female")[j % 2 if tie else gender ^ (rng.random() < 0.1)]
            null = rng.random()
            votes.append({"task": f"t{t}", "user": f"u{u}", "age": None if null < 0.05 else vote,
                          "gender": None if 0.05 <= null < 0.1 else g})
    return "".join(json.dumps(row) + "\n" for row in votes), "".join(json.dumps(row) + "\n" for row in controls)


@pytest.mark.parametrize("method", ("weighted_mean",) + BASELINE_METHODS)
def test_aggregate_is_byte_identical_to_the_oracle_pipeline(method, tmp_path):
    from oracles import vote_oracles_in_cli

    votes, controls = _prep_mix_files()
    (tmp_path / "votes.jsonl").write_text(votes)
    (tmp_path / "controls.jsonl").write_text(controls)

    def aggregate(name):
        out, report = tmp_path / f"{name}.jsonl", tmp_path / f"{name}_users.jsonl"
        assert run(["aggregate", "--votes", str(tmp_path / "votes.jsonl"), "--controls",
                    str(tmp_path / "controls.jsonl"), "--method", method, "--out", str(out),
                    "--user-report", str(report)]) == 0
        return out.read_bytes(), report.read_bytes()

    got = aggregate("columnar")
    with vote_oracles_in_cli():
        want = aggregate("oracle")
    assert got == want
    rows = [json.loads(line) for line in got[0].splitlines()]
    assert len(rows) == 2000 and {"male", "female", "rejected"} <= {row["gender"] for row in rows}
    assert {json.loads(line)["mae"] for line in got[1].splitlines()} >= set(EDGE_CONTROL_MAES)


def _npy_bytes(arr):
    buf = io.BytesIO()
    np.save(buf, arr, allow_pickle=True)
    return buf.getvalue()


IMAGE = np.full((60, 80, 3), 0.5)
MALFORMED_NPY = {
    "text": b"not an array\n",
    "truncated": _npy_bytes(IMAGE)[:200],
    "object_array": _npy_bytes(np.array([[[None, 1, 2]]], dtype=object)),
    "complex": _npy_bytes(IMAGE + 0.5j),
    "strings": _npy_bytes(np.full((60, 80, 3), "a")),
    "all_nan": _npy_bytes(np.full((60, 80, 3), np.nan)),
    "one_infinity": _npy_bytes(np.where(np.arange(3) == 2, np.inf, IMAGE)),
    "npz_archive": (lambda buf: (np.savez(buf, image=IMAGE), buf.getvalue())[1])(io.BytesIO()),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_NPY))
def test_pair_malformed_npy_is_input_error(case, tmp_path, capsys):
    (tmp_path / "img.npy").write_bytes(MALFORMED_NPY[case])
    det_path = tmp_path / "detections.jsonl"
    det_path.write_text(json.dumps({**PAIR_SCENE, "image": "img.npy"}) + "\n")
    assert run(["pair", "--detections", str(det_path), "--out", str(tmp_path / "pairs.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "img.npy" in err
    assert not (tmp_path / "pairs.jsonl").exists()


@pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.int64, np.float32, np.float64])
def test_pair_accepts_real_npy(dtype, tmp_path):
    np.save(tmp_path / "img.npy", (IMAGE > 0.2).astype(dtype))
    det_path = tmp_path / "detections.jsonl"
    det_path.write_text(json.dumps({**PAIR_SCENE, "image": "img.npy"}) + "\n")
    assert run(["pair", "--detections", str(det_path), "--out", str(tmp_path / "pairs.jsonl")]) == 0
