"""Mutated `pair` and `aggregate` inputs through the command line.

Fields and rows of detection manifests, votes and controls, the header
and payload length of PPM images, and the dtype, shape, values and length
of `.npy` images, are mutated at random. Every case must
exit 0, 1 or 2 without an exception escaping `cli.main`; a run that exits
0 must write strict JSON (no NaN or Infinity), and any other exit must
print its reason.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from agegender.cli import main
from agegender.data import write_ppm

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


@st.composite
def mutated_ndjson(draw, rows):
    """`rows` as newline-delimited JSON after one to three edits: a field,
    item or whole row set to any JSON value (NaN and Infinity included),
    deleted, or added; sometimes one line replaced by arbitrary text."""
    rows = copy.deepcopy(rows)
    for _ in range(draw(st.integers(1, 3))):
        holder = draw(st.sampled_from(_containers(rows)))
        keys = list(holder) if isinstance(holder, dict) else list(range(len(holder)))
        op = draw(st.sampled_from(("set", "delete", "add")))
        if op != "add" and keys:
            key = draw(st.sampled_from(keys))
            if op == "set":
                holder[key] = draw(JSON_VALUES)
            else:
                del holder[key]
        elif isinstance(holder, dict):
            holder[draw(st.text(max_size=3))] = draw(JSON_VALUES)
        else:
            holder.append(draw(JSON_VALUES))
    lines = [json.dumps(row) for row in rows]
    if lines and draw(st.integers(0, 9)) == 0:
        lines[draw(st.integers(0, len(lines) - 1))] = draw(st.text(max_size=8))
    return "".join(line + "\n" for line in lines)


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
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 0:
        for path in outputs:
            with open(path) as fh:
                for line in fh:
                    json.loads(line, parse_constant=_reject_constant)
    else:
        assert err.getvalue().splitlines()[-1].startswith(("error: ", "numerical failure: "))


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
        out, report = os.path.join(work, "aggregated.jsonl"), os.path.join(work, "users.jsonl")
        _run(["aggregate", "--votes", votes, "--controls", controls, "--method", "weighted_mean",
              "--out", out, "--user-report", report], [out, report])


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


@settings(max_examples=150, deadline=None)
@given(mutated_ndjson(VOTES))
def test_aggregate_survives_mutated_votes(text):
    _aggregate(text, _ndjson(CONTROLS))


@settings(max_examples=100, deadline=None)
@given(mutated_ndjson(CONTROLS))
def test_aggregate_survives_mutated_controls(text):
    _aggregate(_ndjson(VOTES), text)
