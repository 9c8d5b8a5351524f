import io
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
    "vote_row_number": (VOTES + [5], CONTROLS, "votes.jsonl:3"),
    "voted_nan": (VOTES, [{**CONTROLS[0], "voted": float("nan")}, CONTROLS[1]], "controls.jsonl:1"),
    "voted_text": (VOTES, [CONTROLS[0], {**CONTROLS[1], "voted": "x"}], "controls.jsonl:2"),
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
