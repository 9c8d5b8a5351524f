"""Dataset I/O: portable-pixmap images, raw tensors, the newline-delimited
manifests every tool consumes, and the synthetic fixture generator.

Synthetic images let convergence be checked without any real data: mean
intensity encodes age (optionally split between the face and body regions)
and channel dominance encodes gender. A test fixture, nothing more.
"""

from __future__ import annotations

import json
import math
import operator
import os
from array import array
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Optional

import numpy as np

from .errors import InputError
from .pairing import BBox, Detection
from .votes import GENDERS


# ---------------------------------------------------------------------------
# images


def write_ppm(path, image):
    """Binary P6, 8-bit; `image` is float [H, W, 3] in [0, 1]."""
    arr = np.clip(np.asarray(image), 0.0, 1.0)
    data = np.round(arr * 255.0).astype(np.uint8)
    h, w = data.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(data.tobytes())


def read_ppm(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(b"P6"):
        raise InputError(f"{path}: not a binary PPM (P6) file")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":  # comment line
            while pos < len(blob) and blob[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        fields.append(blob[start:pos])
    pos += 1  # single whitespace after maxval
    try:
        w, h, maxval = (int(f) for f in fields)
    except ValueError as exc:
        raise InputError(f"{path}: bad PPM header") from exc
    if w < 0 or h < 0:
        raise InputError(f"{path}: bad PPM size {w}x{h}")
    if maxval != 255:
        raise InputError(f"{path}: only maxval 255 is supported, got {maxval}")
    if len(blob) - pos < w * h * 3:
        raise InputError(f"{path}: truncated pixel data")
    pixels = np.frombuffer(blob, dtype=np.uint8, count=w * h * 3, offset=pos)
    return pixels.reshape(h, w, 3).astype(np.float64) / 255.0


def load_image(path):
    """PPM or raw .npy tensor, as float [H, W, 3] in [0, 1].

    A .npy file that NumPy cannot load without pickling, or whose array is
    not [H, W, 3], not real (bool, integer or float) or not finite, raises
    InputError naming the path.
    """
    if str(path).endswith(".npy"):
        try:
            arr = np.load(path)
        except (ValueError, EOFError) as exc:
            raise InputError(f"{path}: not a NumPy array file: {exc}") from exc
        if not isinstance(arr, np.ndarray):  # an .npz archive
            raise InputError(f"{path}: not a NumPy array file")
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise InputError(f"{path}: raw tensor must be [H, W, 3], got {arr.shape}")
        if arr.dtype.kind not in "biuf":
            raise InputError(f"{path}: raw tensor must hold real numbers, got dtype {arr.dtype}")
        image = arr.astype(np.float64)
        if not np.isfinite(image).all():
            raise InputError(f"{path}: raw tensor holds a non-finite value")
        return image
    return read_ppm(path)


# ---------------------------------------------------------------------------
# manifests (newline-delimited JSON records, fixed key order)


def write_ndjson(path, rows):
    """`rows` to `path`, one `json.dumps` a line."""
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def _checked(path, line_nos, rows, check):
    """[check(row), ...] for `rows`, read from lines `line_nos` of `path`.

    The one place a row's error gets its location: an InputError from
    `check` becomes `path:line: <message>`, a KeyError `path:line: missing
    field <key>`, for the first row that raises.
    """
    out = []
    for line_no, row in zip(line_nos, rows):
        try:
            out.append(check(row))
        except InputError as exc:
            raise InputError(f"{path}:{line_no}: {exc}") from exc
        except KeyError as exc:
            raise InputError(f"{path}:{line_no}: missing field {exc}") from exc
    return out


# one decoder for every line: `json.loads` wraps the same `raw_decode`
_DECODER = json.JSONDecoder()


def _decoded(line):
    """The value of a stripped line as `json.loads` decodes it: one value
    and nothing after it, else InputError."""
    try:
        row, end = _DECODER.raw_decode(line)
        if end != len(line):
            raise json.JSONDecodeError("Extra data", line, end)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"bad record: {exc}") from exc
    return row


def _read_ndjson(path):
    """(line numbers, rows) for the non-blank lines of `path`, read once:
    the reader of every manifest.

    Each stripped line decodes as `_decoded` decodes it, else InputError
    naming `path:line`. The lines are decoded by one `json.loads` over
    them joined as an array when every line starts with `{` and ends with
    `}`, and the text holds exactly one `{` and one `}` per line. Then no
    brace is left for a string or a nested object, and a string cannot
    cross a newline, so each line's `{` opens an object that only its
    closing `}` ends: a decode that succeeds holds one object per line,
    each decoded as that line alone decodes, and needs no check of its
    own. Any other file (a nested object, a brace inside a string, two
    objects on a line, a row that is not an object, a bad record) is
    decoded line by line. The line numbers are a `range` unless a blank
    line comes before the last row.
    """
    try:
        with open(path) as fh:
            lines = fh.read().split("\n")  # universal newlines: the lines iterating `fh` gives
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not a text file: {exc}") from exc
    lines = list(map(str.strip, lines))
    while lines and not lines[-1]:
        lines.pop()
    line_nos = range(1, len(lines) + 1)
    if "" in lines:
        line_nos = array("q", compress(line_nos, lines))
        lines = list(filter(None, lines))
    n = len(lines)
    text = "[" + ",\n".join(lines) + "]"
    # a line holds no newline, so each "},\n{" is a line boundary
    if (text[1:2] == "{" and text[-2:-1] == "}" and text.count("},\n{") == n - 1
            and text.count("{") == n == text.count("}")):
        del lines  # the text alone is held through the decode
        try:
            return line_nos, json.loads(text)
        except (ValueError, RecursionError):
            pass
        lines = text[1:-1].split(",\n")
    return line_nos, _checked(path, line_nos, lines, _decoded)


def _finite(value, what):
    """`value` as a finite float, or InputError. Only a JSON number counts:
    an int or a float, not a bool or a string."""
    number = math.nan
    if type(value) is float:  # exact types: a bool is an int subclass; most rows are floats
        number = value
    elif type(value) is int:
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            pass
    if not math.isfinite(number):
        raise InputError(f"{what} must be a finite number, got {value!r}")
    return number


@dataclass
class SampleRecord:
    """One training/evaluation sample: an image plus its boxes and labels."""

    image: str
    face_bbox: Optional[BBox]
    body_bbox: Optional[BBox]
    age: float
    gender: str

    def __post_init__(self):
        if self.face_bbox is None and self.body_bbox is None:
            raise InputError(f"{self.image}: sample needs at least one bbox")
        if self.gender not in GENDERS:
            raise InputError(f"{self.image}: unknown gender {self.gender!r}")


def _bbox_or_none(value):
    """None, or a BBox from a list of four JSON integers (not bools)."""
    if value is None:
        return None
    if not (isinstance(value, list) and len(value) == 4 and all(type(v) is int for v in value)):
        raise InputError(f"bad bbox {value!r}: must be null or a list of four integers")
    try:
        return BBox(*value)
    except InputError as exc:  # a degenerate box
        raise InputError(f"bad bbox {value!r}: {exc}") from exc


def _file_name(row):
    """`row["image"]` if it is a name a file can have, else InputError."""
    image = row["image"]
    if isinstance(image, str) and image and "\0" not in image:
        try:
            os.fsencode(image)  # a lone surrogate has no bytes to open
            return image
        except UnicodeError:
            pass
    raise InputError(f"image must be a file name, got {image!r}")


def write_sample_manifest(path, records):
    rows = []
    for r in records:
        rows.append(
            {
                "image": r.image,
                "face_bbox": r.face_bbox.as_list() if r.face_bbox else None,
                "body_bbox": r.body_bbox.as_list() if r.body_bbox else None,
                "age": r.age,
                "gender": r.gender,
            }
        )
    write_ndjson(path, rows)


def _sample(row):
    if not isinstance(row, dict):
        raise InputError(f"a row must be an object, got {row!r}")
    return SampleRecord(_file_name(row), _bbox_or_none(row.get("face_bbox")), _bbox_or_none(row.get("body_bbox")),
                        _finite(row["age"], "age"), row["gender"])


def read_sample_manifest(path):
    """[SampleRecord, ...]

    A row that is not an object, lacks a field, has an image that is not a
    file name, a bbox that is neither null nor a list of four JSON
    integers, no bbox at all, an age that is not a finite number or an
    unknown gender raises InputError naming `path:line`.
    """
    records = _checked(path, *_read_ndjson(path), _sample)
    if not records:
        raise InputError(f"{path}: empty manifest")
    return records


def _detection(d):
    if not isinstance(d, dict):
        raise InputError(f"a detection must be an object, got {d!r}")
    try:
        return Detection(
            bbox=BBox(int(d["x0"]), int(d["y0"]), int(d["x1"]), int(d["y1"])),
            kind=d["kind"],
            score=float(d.get("score", 1.0)),
        )
    except (TypeError, ValueError, OverflowError) as exc:  # InputError is a ValueError
        raise InputError(f"bad detection {d!r}: {exc}") from exc


def _detections(row):
    if not isinstance(row, dict):
        raise InputError(f"a row must be an object, got {row!r}")
    image, dets = _file_name(row), row["detections"]
    if not isinstance(dets, list):
        raise InputError(f"detections must be a list, got {dets!r}")
    return {"image": image, "detections": list(map(_detection, dets))}


def read_detection_manifest(path):
    """[{image, detections: [Detection, ...]}, ...]

    A row that is not an object, lacks a field, has an image that is not a
    file name or a non-list detections value, or holds a detection that is not an object
    with coordinates that convert to integers, a known kind and a score in
    [0, 1] raises InputError naming `path:line`.
    """
    return _checked(path, *_read_ndjson(path), _detections)


def write_detection_manifest(path, entries):
    rows = []
    for e in entries:
        rows.append(
            {
                "image": e["image"],
                "detections": [
                    {
                        "kind": d.kind,
                        "x0": d.bbox.x0,
                        "y0": d.bbox.y0,
                        "x1": d.bbox.x1,
                        "y1": d.bbox.y1,
                        "score": d.score,
                    }
                    for d in e["detections"]
                ],
            }
        )
    write_ndjson(path, rows)


# vote ages and control answers outside this range of years are refused
VOTE_AGES = (0.0, 150.0)


def _vote_age(value, what):
    """`value` as a float within VOTE_AGES years, or InputError."""
    age = _finite(value, what)
    if not VOTE_AGES[0] <= age <= VOTE_AGES[1]:
        raise InputError(f"{what} must be within [{VOTE_AGES[0]:g}, {VOTE_AGES[1]:g}] years, got {value!r}")
    return age


def _vote_ages(values, nullable=False):
    """`values` as float64 (None as NaN, where `nullable`) if every one
    passes `_vote_age`, else None: one type test per value, then array
    comparisons."""
    allowed = {float, int, type(None)} if nullable else {float, int}
    if not set(map(type, values)) <= allowed:
        return None
    try:
        ages = np.fromiter(values, np.float64, len(values))
    except OverflowError:  # an int beyond the float range
        return None
    outside = np.flatnonzero(~((ages >= VOTE_AGES[0]) & (ages <= VOTE_AGES[1])))
    if not all(values[i] is None for i in outside.tolist()):  # NaN or out of range
        return None
    return ages


def _has_fields(rows, *fields):
    """Whether every row is an object holding every one of `fields`."""
    return set(map(type, rows)) <= {dict} and all(
        all(map(operator.contains, rows, repeat(field))) for field in fields)


def _vote_row(row):
    if not isinstance(row, dict) or "task" not in row or "user" not in row:
        raise InputError("vote rows need task and user fields")
    if row.get("age") is not None:
        _vote_age(row["age"], "age")
    return row


def read_votes_file(path):
    """[{task, user, age, gender}, ...]; a row without task or user, or
    whose age is neither null (no age vote) nor a JSON number within
    [0, 150] years, raises InputError naming `path:line`.

    The rows are checked as columns; only a failed check checks them row
    by row, which names the first bad line."""
    line_nos, rows = _read_ndjson(path)
    if not (_has_fields(rows, "task", "user")
            and _vote_ages(list(map(dict.get, rows, repeat("age"))), nullable=True) is not None):
        _checked(path, line_nos, rows, _vote_row)
    return rows


def _control_answer(row):
    if not isinstance(row, dict):
        raise InputError(f"control rows must be objects, got {row!r}")
    answer = (_vote_age(row["voted"], "voted"), _vote_age(row["truth"], "truth"))
    return str(row["user"]), answer


def read_controls_file(path):
    """{user: [(voted, truth), ...]}; voted and truth are JSON numbers
    within [0, 150] years, else InputError naming `path:line`. Checked as
    `read_votes_file` checks its rows."""
    line_nos, rows = _read_ndjson(path)
    voted = truth = None
    if _has_fields(rows, "user", "voted", "truth"):
        voted, truth = (_vote_ages(list(map(operator.itemgetter(k), rows))) for k in ("voted", "truth"))
    if voted is None or truth is None:
        answers = _checked(path, line_nos, rows, _control_answer)
    else:
        answers = zip(map(str, map(operator.itemgetter("user"), rows)), zip(voted.tolist(), truth.tolist()))
    by_user = {}
    for user, answer in answers:
        by_user.setdefault(user, []).append(answer)
    return by_user


# ---------------------------------------------------------------------------
# synthetic fixtures

SYNTH_IMAGE_SIDE = 96
# disjoint regions, so each view carries only its own signal
SYNTH_FACE_BBOX = BBox(32, 8, 64, 40)
SYNTH_BODY_BBOX = BBox(0, 40, 96, 96)
SYNTH_NOISE = 0.02


def synth_sample(rng, mode="shared"):
    """One synthetic person image with its ground truth."""
    if mode == "shared":
        age = float(rng.uniform(0.0, 100.0))
        face_signal = body_signal = age / 100.0
    elif mode == "split":
        # age information split across the two views: the face encodes one
        # half, the body the other, so neither view alone suffices
        u = float(rng.uniform(0.0, 50.0))
        v = float(rng.uniform(0.0, 50.0))
        age = u + v
        face_signal = u / 50.0
        body_signal = v / 50.0
    else:
        raise InputError(f"unknown synth mode {mode!r}")
    gender = "male" if rng.random() < 0.5 else "female"

    side = SYNTH_IMAGE_SIDE
    img = np.empty((side, side, 3))
    img[:] = 0.1 + 0.6 * body_signal
    fb = SYNTH_FACE_BBOX
    img[:fb.y1] = 0.4  # neutral band above the body region
    img[fb.y0:fb.y1, fb.x0:fb.x1] = 0.1 + 0.6 * face_signal
    channel = 0 if gender == "male" else 2
    img[:, :, channel] += 0.15
    img += rng.normal(0.0, SYNTH_NOISE, img.shape)
    img = np.clip(img, 0.0, 1.0)
    return img, age, gender


def generate_synthetic_dataset(out_dir, n, seed=0, mode="shared"):
    """Write n PPM images plus a sample manifest; returns the manifest path."""
    if n < 1:
        raise InputError(f"need at least one sample, got {n}")
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        img, age, gender = synth_sample(rng, mode)
        name = f"sample_{i:05d}.ppm"
        write_ppm(os.path.join(out_dir, name), img)
        records.append(
            SampleRecord(
                image=name,
                face_bbox=SYNTH_FACE_BBOX,
                body_bbox=SYNTH_BODY_BBOX,
                age=round(age, 2),
                gender=gender,
            )
        )
    manifest = os.path.join(out_dir, "manifest.jsonl")
    write_sample_manifest(manifest, records)
    return manifest
