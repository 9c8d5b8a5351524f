import json

import numpy as np
import pytest

from agegender.cli import main
from agegender.config import micro_config
from agegender.checkpoint import save_model
from agegender.data import (
    read_sample_manifest,
    write_detection_manifest,
    write_ppm,
)
from agegender.fusion import FaceBodyModel
from agegender.pairing import BBox, Detection


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


MALFORMED_CHECKPOINTS = {
    "not_json": lambda blob: b"\xff\xfe{{\n" + blob,
    "header_not_object": lambda blob: b"[1, 2]\n" + blob.split(b"\n", 1)[1],
    "v1_text": _v1_text,
    "missing_config": _drop("config"),
    "config_not_object": _set("config", [1, 2]),
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
        assert "agegender-weights/2" in err


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_eval_non_finite_weight_is_numerical_failure(value, eval_inputs, tmp_path, capsys):
    blob = eval_inputs[1]
    blob = blob[:-8] + np.array([value], dtype="<f8").tobytes()
    assert _eval_code(eval_inputs, blob, tmp_path) == 2
    assert "non-finite" in capsys.readouterr().err


def test_train_unknown_config_key_is_input_error(tmp_path):
    data = tmp_path / "data"
    run(["synth", "--n", "2", "--out", str(data)])
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text('{"learning_rate": 0.001, "mystery": 3}\n')
    code = run(["train", "--manifest", str(data / "manifest.jsonl"),
                "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert code == 1


@pytest.mark.parametrize(
    "name,value",
    [
        ("image_side", '"x"'),
        ("drop_rate", '"0.1"'),
        ("patch_size", "true"),
        ("seed", "1.5"),
        ("learning_rate", "null"),
        ("enhancer_bidirectional", "1"),
        ("pool", "3"),
    ],
)
def test_train_wrong_config_type_is_input_error(name, value, tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(f'{{"{name}": {value}}}\n')
    code = run(["train", "--manifest", str(tmp_path / "manifest.jsonl"),
                "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err


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
