"""Mutated `pair`, `aggregate` and `eval` inputs through the command line.

Fields and rows of detection manifests, votes, controls and sample
manifests, the header and payload length of PPM images, the dtype,
shape, values and length of `.npy` images, and the header fields and
payload bytes of checkpoints, are mutated at random. Every
case must exit 0, 1 or 2 without an exception escaping `cli.main`; a run
that exits 0 must write strict JSON (no NaN or Infinity), and any other
exit must print its reason. A sample manifest with one box of the wrong
JSON type or one unknown gender must exit 1 naming its `path:line`. Every
mutated votes or controls file also goes through the per-line and per-task
oracle pipeline, which must exit alike, print the same reason and write the
same bytes, and the votes and controls readers must give what the per-line
oracle readers give, reading an accepted file of flat rows in one decode.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agegender.checkpoint import save_model
from agegender.cli import main
from agegender.config import ModelConfig, micro_config
from agegender.data import generate_synthetic_dataset, read_controls_file, read_votes_file, write_ppm
from agegender.errors import ConfigError
from agegender.fusion import FaceBodyModel
from oracles import (
    joined_read_outcome,
    read_controls_file_oracle,
    read_ndjson_oracle,
    read_ndjson_pairs,
    read_votes_file_oracle,
    reader_outcome,
    vote_oracles_in_cli,
)

SCENE_W, SCENE_H = 40, 30

DETECTIONS = [
    {
        "image": "scene.ppm",
        "detections": [
            {"kind": "face", "x0": 12, "y0": 2, "x1": 20, "y1": 10, "score": 0.9},
            {"kind": "person", "x0": 8, "y0": 0, "x1": 26, "y1": 30, "score": 0.8},
            {"kind": "person", "x0": 20, "y0": 4, "x1": 40, "y1": 30},
        ],
    },
    {"image": "scene.ppm", "detections": []},
]

VOTES = [
    {"task": t, "user": u, "age": 20.0 + 3 * i + j, "gender": "male" if j else "female"}
    for i, t in enumerate(("t1", "t2", "t3"))
    for j, u in enumerate(("u1", "u2", "u3"))
]

CONTROLS = [
    {"user": u, "voted": 30.0 + j, "truth": 30.0 + 2 * j * k}
    for j, u in enumerate(("u1", "u2", "u3"))
    for k in (0, 1)
]

LEAVES = st.none() | st.booleans() | st.integers(-(10**30), 10**30) | st.floats() | st.text(max_size=4)
NESTED = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)
# values near or past the float range, which overflow sums and products
EXTREMES = st.sampled_from([1e308, -1e308, 10**400, float("inf"), float("nan")])
# a third of the values drawn are extremes
JSON_VALUES = st.sampled_from([EXTREMES, LEAVES, NESTED]).flatmap(lambda values: values)


def _containers(value):
    """Every dict and list inside `value`, itself included."""
    found, stack = [], [value]
    while stack:
        v = stack.pop()
        if isinstance(v, (dict, list)):
            found.append(v)
            stack.extend(v.values() if isinstance(v, dict) else v)
    return found


def _edit(draw, value, values=JSON_VALUES):
    """One edit inside `value`: a field or item of one of its dicts or lists
    set to one of `values`, deleted, or added."""
    holder = draw(st.sampled_from(_containers(value)))
    keys = list(holder) if isinstance(holder, dict) else list(range(len(holder)))
    op = draw(st.sampled_from(("set", "delete", "add")))
    if op != "add" and keys:
        key = draw(st.sampled_from(keys))
        if op == "set":
            holder[key] = draw(values)
        else:
            del holder[key]
    elif isinstance(holder, dict):
        holder[draw(st.text(max_size=3))] = draw(values)
    else:
        holder.append(draw(values))


@st.composite
def mutated_ndjson(draw, rows):
    """`rows` as newline-delimited JSON after one to three edits: a field,
    item or whole row set to any JSON value (NaN and Infinity included),
    deleted, or added; sometimes one line replaced by arbitrary text."""
    rows = copy.deepcopy(rows)
    for _ in range(draw(st.integers(1, 3))):
        _edit(draw, rows)
    lines = [json.dumps(row) for row in rows]
    if lines and draw(st.integers(0, 9)) == 0:
        lines[draw(st.integers(0, len(lines) - 1))] = draw(st.text(max_size=8))
    return "".join(line + "\n" for line in lines)


# JSON values with no object inside; text may hold a brace
FLAT_VALUES = LEAVES | EXTREMES | st.sampled_from([0, 150, 150.0, -0.0, 150.5, -1]) | st.lists(LEAVES, max_size=2)
# what `str.strip` removes around a line: JSON whitespace and more
PADDING = st.text(" \t\x0b\x0c\x1c\x85\xa0\u2028", max_size=2)


@st.composite
def mutated_flat_ndjson(draw, rows):
    """`rows` as newline-delimited JSON after zero to three edits that keep
    every line one flat object (no nested object): a field set to a flat
    value, deleted or added, or a row dropped or repeated. Lines are
    sometimes padded with what `str.strip` removes, separated by blank
    lines, or ended with \\r\\n."""
    rows = copy.deepcopy(rows)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        op = draw(st.sampled_from(("set", "delete", "add", "drop", "repeat")))
        if op in ("set", "delete") and rows[i]:
            key = draw(st.sampled_from(sorted(rows[i])))
            if op == "set":
                rows[i][key] = draw(FLAT_VALUES)
            else:
                del rows[i][key]
        elif op == "add":
            rows[i][draw(st.text(max_size=3))] = draw(FLAT_VALUES)
        elif op == "drop" and len(rows) > 1:
            del rows[i]
        elif op == "repeat":
            rows.insert(i, copy.deepcopy(rows[i]))
    lines = [draw(PADDING) + json.dumps(row) + draw(PADDING) for row in rows]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(PADDING))
    return draw(st.sampled_from(("\n", "\r\n"))).join(lines) + "\n"


PPM_TOKENS = st.one_of(
    st.integers(-3, 10**7).map(lambda n: str(n).encode()),
    st.sampled_from([b"P6", b"P3", b"255", b"65535", b"0", b""]),
    st.binary(max_size=3),
)


@st.composite
def mutated_ppm(draw, payload):
    """A P6 file for a SCENE_W x SCENE_H image with one header token
    replaced, odd separators or comments, and the payload cut or padded."""
    tokens = [b"P6", str(SCENE_W).encode(), str(SCENE_H).encode(), b"255"]
    if draw(st.booleans()):
        tokens[draw(st.integers(0, 3))] = draw(PPM_TOKENS)
    seps = [draw(st.sampled_from([b"\n", b" ", b"\t", b"\n# note\n", b""])) for _ in range(3)]
    header = tokens[0] + seps[0] + tokens[1] + b" " + tokens[2] + seps[1] + tokens[3] + seps[2] + b"\n"
    cut = draw(st.integers(-len(payload), 4))
    return header + (payload[:cut] if cut < 0 else payload + bytes(cut))


NPY_DTYPES = ["<f8", ">f8", "<f4", "<f2", np.longdouble, "<i8", "|u1", "|b1", "<c16", "<U2", "<M8[s]", "|V8", "O"]
NPY_SHAPES = [(SCENE_H, SCENE_W, 3), (SCENE_H, SCENE_W), (SCENE_H, SCENE_W, 4), (2, 2, 3), (0, 0, 3), (), (3,)]
NPY_VALUES = [0.0, 0.5, 1.0, 2.0, -1.0, 1e308, -1e308, float("inf"), float("-inf"), float("nan")]


@st.composite
def mutated_npy(draw):
    """A .npy file of any dtype, shape and values (non-finite ones too),
    sometimes cut short or replaced by text."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=16))
    values = np.array(draw(st.lists(st.sampled_from(NPY_VALUES), min_size=1, max_size=4)))
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        arr = np.resize(values, draw(st.sampled_from(NPY_SHAPES))).astype(draw(st.sampled_from(NPY_DTYPES)))
    buf = io.BytesIO()
    np.save(buf, arr, allow_pickle=True)
    blob = buf.getvalue()
    return blob[: draw(st.integers(0, len(blob)))] if draw(st.booleans()) else blob


def _reject_constant(name):
    raise ValueError(f"non-finite value {name} in output")


def _run(argv, outputs):
    """The exit code and, for a failed run, the last line it printed."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 0:
        for path in outputs:
            with open(path) as fh:
                for line in fh:
                    json.loads(line, parse_constant=_reject_constant)
        return code, None
    last = err.getvalue().splitlines()[-1]
    assert last.startswith(("error: ", "numerical failure: "))
    return code, last


def _scene_ppm():
    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "scene.ppm")
        write_ppm(path, rng.random((SCENE_H, SCENE_W, 3)))
        with open(path, "rb") as fh:
            blob = fh.read()
    return blob


SCENE_PPM = _scene_ppm()
SCENE_PAYLOAD = SCENE_PPM[-SCENE_W * SCENE_H * 3:]


def _pair(detections_text, image_blob, image_name="scene.ppm"):
    with tempfile.TemporaryDirectory() as work:
        det = os.path.join(work, "detections.jsonl")
        with open(det, "w") as fh:
            fh.write(detections_text)
        with open(os.path.join(work, image_name), "wb") as fh:
            fh.write(image_blob)
        out = os.path.join(work, "pairs.jsonl")
        _run(["pair", "--detections", det, "--out", out], [out])


def _aggregate(votes_text, controls_text):
    with tempfile.TemporaryDirectory() as work:
        votes, controls = os.path.join(work, "votes.jsonl"), os.path.join(work, "controls.jsonl")
        for path, text in ((votes, votes_text), (controls, controls_text)):
            with open(path, "w") as fh:
                fh.write(text)
        results = []
        for name, pipeline in (("columnar", contextlib.nullcontext()), ("oracle", vote_oracles_in_cli())):
            out, report = os.path.join(work, f"{name}.jsonl"), os.path.join(work, f"{name}_users.jsonl")
            with pipeline:
                code, last = _run(["aggregate", "--votes", votes, "--controls", controls, "--method",
                                   "weighted_mean", "--out", out, "--user-report", report], [out, report])
            written = []
            for path in (out, report):
                if os.path.exists(path):
                    with open(path, "rb") as fh:
                        written.append(fh.read())
            results.append((code, last, written))
        assert results[0] == results[1]


def _eval_files():
    """Two synthetic images by name, their sample rows plus a face-only
    and a body-only row, and the bytes of an untrained micro checkpoint."""
    with tempfile.TemporaryDirectory() as work:
        with open(generate_synthetic_dataset(work, 2, seed=0)) as fh:
            rows = [json.loads(line) for line in fh]
        save_model(os.path.join(work, "model.ckpt"), FaceBodyModel(micro_config()))
        blobs = {}
        for name in [row["image"] for row in rows] + ["model.ckpt"]:
            with open(os.path.join(work, name), "rb") as fh:
                blobs[name] = fh.read()
    rows += [{**rows[0], "body_bbox": None}, {**rows[1], "face_bbox": None}]
    return rows, blobs


SAMPLES, EVAL_BLOBS = _eval_files()


def _eval(samples_text, mode, checkpoint=EVAL_BLOBS["model.ckpt"]):
    with tempfile.TemporaryDirectory() as work:
        for name, blob in {**EVAL_BLOBS, "model.ckpt": checkpoint}.items():
            with open(os.path.join(work, name), "wb") as fh:
                fh.write(blob)
        manifest = os.path.join(work, "manifest.jsonl")
        with open(manifest, "w") as fh:
            fh.write(samples_text)
        return _run(["eval", "--manifest", manifest, "--checkpoint", os.path.join(work, "model.ckpt"),
                     "--mode", mode], [])


# bbox values of the wrong JSON type: a string of digits, a bool, a float,
# three or five integers, or four entries one of which is a bool, a float
# or a string of digits
DIGITS = st.integers(0, 10**6).map(str)
BAD_BBOXES = st.one_of(
    DIGITS,
    st.booleans(),
    st.floats(),
    st.lists(st.integers(0, 40), min_size=3, max_size=3),
    st.lists(st.integers(0, 40), min_size=5, max_size=5),
    st.tuples(st.lists(st.integers(0, 40), min_size=4, max_size=4), st.integers(0, 3),
              st.booleans() | st.floats() | DIGITS).map(lambda t: t[0][:t[1]] + [t[2]] + t[0][t[1] + 1:]),
)
UNKNOWN_GENDERS = (st.sampled_from(["Male", "FEMALE", "m", "f", "", "unknown"]) | JSON_VALUES).filter(
    lambda g: g not in ("male", "female"))


@st.composite
def sample_manifest_with_a_bad_value(draw):
    """The sample rows with one bbox of the wrong JSON type or one unknown
    gender, and the line number of that row."""
    rows = copy.deepcopy(SAMPLES)
    line = draw(st.integers(0, len(rows) - 1))
    field = draw(st.sampled_from(["face_bbox", "body_bbox", "gender"]))
    rows[line][field] = draw(UNKNOWN_GENDERS if field == "gender" else BAD_BBOXES)
    return _ndjson(rows), line + 1


CHECKPOINT_HEADER, CHECKPOINT_PAYLOAD = EVAL_BLOBS["model.ckpt"].split(b"\n", 1)
# config values small enough that a re-hashed config can only build a
# model of micro size
SMALL_VALUES = st.none() | st.booleans() | st.integers(-2, 9) | st.floats() | st.text(max_size=4)
PAYLOAD_VALUES = [float("nan"), float("inf"), -1e38, 1e30, 0.0]


@st.composite
def mutated_checkpoint(draw):
    """The micro checkpoint after up to three header edits (any field of the
    header or its config; a config edit sometimes with its hash redone, so
    the edited config is read) and up to three payload edits (a byte
    overwritten, a float32 overwritten by an extreme value, or the payload
    cut or padded)."""
    header, payload = json.loads(CHECKPOINT_HEADER), bytearray(CHECKPOINT_PAYLOAD)
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()) or not isinstance(header.get("config"), dict):
            _edit(draw, header)
        else:
            _edit(draw, header["config"], SMALL_VALUES)
            try:
                header["config_hash"] = ModelConfig.from_dict(header["config"]).config_hash()
            except ConfigError:  # an invalid config keeps the old hash
                pass
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(("byte", "float", "length")))
        if op == "byte" and payload:
            payload[draw(st.integers(0, len(payload) - 1))] = draw(st.integers(0, 255))
        elif op == "float" and len(payload) >= 4:
            at = 4 * draw(st.integers(0, len(payload) // 4 - 1))
            payload[at:at + 4] = np.float32(draw(st.sampled_from(PAYLOAD_VALUES))).tobytes()
        elif op == "length":
            cut = draw(st.integers(-8, 8))
            payload = payload[:cut] if cut < 0 else payload + bytes(cut)
    return json.dumps(header).encode() + b"\n" + bytes(payload)


def _ndjson(rows):
    return "".join(json.dumps(row) + "\n" for row in rows)


@settings(max_examples=150, deadline=None)
@given(mutated_ndjson(DETECTIONS))
def test_pair_survives_mutated_detections(text):
    _pair(text, SCENE_PPM)


@settings(max_examples=100, deadline=None)
@given(mutated_ppm(SCENE_PAYLOAD))
def test_pair_survives_mutated_ppm(blob):
    _pair(_ndjson(DETECTIONS), blob)


@settings(max_examples=100, deadline=None)
@given(mutated_npy())
def test_pair_survives_mutated_npy(blob):
    _pair(_ndjson([{**row, "image": "scene.npy"} for row in DETECTIONS]), blob, "scene.npy")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(mutated_ndjson(VOTES))
def test_aggregate_survives_mutated_votes(text):
    _aggregate(text, _ndjson(CONTROLS))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(mutated_ndjson(CONTROLS))
def test_aggregate_survives_mutated_controls(text):
    _aggregate(_ndjson(VOTES), text)


def _one_flat_object_per_line(text):
    """Whether every stripped non-blank line of `text` holds exactly one `{`
    and one `}`, first and last."""
    lines = [line.strip() for line in text.replace("\r\n", "\n").split("\n")]
    return all(line.startswith("{") and line.endswith("}") and line.count("{") == line.count("}") == 1
               for line in lines if line)


@pytest.mark.parametrize("reader,oracle,rows", [
    (read_votes_file, read_votes_file_oracle, VOTES),
    (read_controls_file, read_controls_file_oracle, CONTROLS),
], ids=["votes", "controls"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_readers_equal_the_per_line_oracles(reader, oracle, rows, data):
    # the flat mutations keep the joined decode in play; the others mostly
    # take the per-line path
    text = data.draw(st.one_of(mutated_flat_ndjson(rows), mutated_ndjson(rows)))
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "rows.jsonl")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        got, joined = joined_read_outcome(reader, path)
        want = reader_outcome(oracle, path)
        rows_got = reader_outcome(read_ndjson_pairs, path)
        rows_want = reader_outcome(read_ndjson_oracle, path)
    assert got == want
    assert rows_got == rows_want
    # an accepted file of flat rows, one a line, is read by the joined decode alone
    assert joined == (not want.startswith("InputError") and _one_flat_object_per_line(text))


@settings(max_examples=150, deadline=None)
@given(mutated_ndjson(SAMPLES), st.sampled_from(["face", "body", "both"]))
def test_eval_survives_mutated_sample_manifest(text, mode):
    _eval(text, mode)


@settings(max_examples=100, deadline=None)
@given(sample_manifest_with_a_bad_value(), st.sampled_from(["face", "body", "both"]))
def test_eval_names_the_line_of_a_bad_sample_value(case, mode):
    text, bad_line = case
    code, last = _eval(text, mode)
    assert code == 1 and f"manifest.jsonl:{bad_line}: " in last


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(mutated_checkpoint(), st.sampled_from(["face", "body", "both"]))
def test_eval_survives_mutated_checkpoint(checkpoint, mode):
    _eval(_ndjson(SAMPLES), mode, checkpoint)
