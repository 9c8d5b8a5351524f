"""Dataset I/O: portable-pixmap images, raw tensors, the newline-delimited
manifests every tool consumes, and the synthetic fixture generator.

Synthetic images let convergence be checked without any real data: mean
intensity encodes age (optionally split between the face and body regions)
and channel dominance encodes gender. A test fixture, nothing more.
"""

from __future__ import annotations

import json
import math
import os
from array import array
from dataclasses import dataclass
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


def _write_ndjson(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


# one decoder for every line: `json.loads` wraps the same `raw_decode`
_DECODER = json.JSONDecoder()


def _read_ndjson(path):
    """(line number, row) pairs for the non-blank lines of `path`, to be
    iterated once.

    Each stripped line is decoded exactly as `json.loads` would decode it:
    one value and nothing after it, else InputError naming `path:line`.
    The pairs are zipped from an array of line numbers and the row list
    rather than stored as tuples, so a large file costs 8 bytes a line
    and adds no objects for the garbage collector to scan.
    """
    decode = _DECODER.raw_decode
    line_nos, rows = array("q"), []
    with open(path) as fh:
        try:
            for line_no, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row, end = decode(line)
                    if end != len(line):
                        raise json.JSONDecodeError("Extra data", line, end)
                except (ValueError, RecursionError) as exc:
                    raise InputError(f"{path}:{line_no}: bad record: {exc}") from exc
                line_nos.append(line_no)
                rows.append(row)
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not a text file: {exc}") from exc
    return zip(line_nos, rows)


def _finite(value, what, path, line):
    """`value` as a finite float, or InputError naming `path:line`. Only a
    JSON number counts: an int or a float, not a bool or a string."""
    number = math.nan
    if type(value) is float:  # exact types: a bool is an int subclass; most rows are floats
        number = value
    elif type(value) is int:
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            pass
    if not math.isfinite(number):
        raise InputError(f"{path}:{line}: {what} must be a finite number, got {value!r}")
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


def _bbox_or_none(value, where):
    """None, or a BBox from a list of four JSON integers (not bools)."""
    if value is None:
        return None
    if not (isinstance(value, list) and len(value) == 4 and all(type(v) is int for v in value)):
        raise InputError(f"{where}: bad bbox {value!r}: must be null or a list of four integers")
    try:
        return BBox(*value)
    except InputError as exc:  # a degenerate box
        raise InputError(f"{where}: bad bbox {value!r}: {exc}") from exc


def _file_name(row, where):
    """`row["image"]` if it is a name a file can have, else InputError."""
    image = row["image"]
    if isinstance(image, str) and image and "\0" not in image:
        try:
            os.fsencode(image)  # a lone surrogate has no bytes to open
            return image
        except UnicodeError:
            pass
    raise InputError(f"{where}: image must be a file name, got {image!r}")


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
    _write_ndjson(path, rows)


def read_sample_manifest(path):
    """[SampleRecord, ...]

    A row that is not an object, lacks a field, has an image that is not a
    file name, a bbox that is neither null nor a list of four JSON
    integers, no bbox at all, an age that is not a finite number or an
    unknown gender raises InputError naming `path:line`.
    """
    records = []
    for i, row in _read_ndjson(path):
        where = f"{path}:{i}"
        try:
            if not isinstance(row, dict):
                raise InputError(f"{where}: a row must be an object, got {row!r}")
            fields = (
                _file_name(row, where),
                _bbox_or_none(row.get("face_bbox"), where),
                _bbox_or_none(row.get("body_bbox"), where),
                _finite(row["age"], "age", path, i),
                row["gender"],
            )
        except KeyError as exc:
            raise InputError(f"{where}: missing field {exc}") from exc
        try:
            records.append(SampleRecord(*fields))
        except InputError as exc:  # no bbox, or an unknown gender
            raise InputError(f"{where}: {exc}") from exc
    if not records:
        raise InputError(f"{path}: empty manifest")
    return records


def _detection(d, where):
    if not isinstance(d, dict):
        raise InputError(f"{where}: a detection must be an object, got {d!r}")
    try:
        return Detection(
            bbox=BBox(int(d["x0"]), int(d["y0"]), int(d["x1"]), int(d["y1"])),
            kind=d["kind"],
            score=float(d.get("score", 1.0)),
        )
    except (TypeError, ValueError, OverflowError) as exc:  # InputError is a ValueError
        raise InputError(f"{where}: bad detection {d!r}: {exc}") from exc


def read_detection_manifest(path):
    """[{image, detections: [Detection, ...]}, ...]

    A row that is not an object, lacks a field, has an image that is not a
    file name or a non-list detections value, or holds a detection that is not an object
    with coordinates that convert to integers, a known kind and a score in
    [0, 1] raises InputError naming `path:line`.
    """
    out = []
    for i, row in _read_ndjson(path):
        where = f"{path}:{i}"
        try:
            if not isinstance(row, dict):
                raise InputError(f"{where}: a row must be an object, got {row!r}")
            image, dets = _file_name(row, where), row["detections"]
            if not isinstance(dets, list):
                raise InputError(f"{where}: detections must be a list, got {dets!r}")
            out.append({"image": image, "detections": [_detection(d, where) for d in dets]})
        except KeyError as exc:
            raise InputError(f"{where}: missing field {exc}") from exc
    return out


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
    _write_ndjson(path, rows)


def write_pair_manifest(path, rows):
    _write_ndjson(path, rows)


def read_votes_file(path):
    """[{task, user, age, gender}, ...]; an age is a finite number or null
    (no age vote), else InputError naming `path:line`."""
    rows = []
    for i, row in _read_ndjson(path):
        if not isinstance(row, dict) or "task" not in row or "user" not in row:
            raise InputError(f"{path}:{i}: vote rows need task and user fields")
        if row.get("age") is not None:
            _finite(row["age"], "age", path, i)
        rows.append(row)
    return rows


def read_controls_file(path):
    """{user: [(voted, truth), ...]}; voted and truth are finite numbers,
    else InputError naming `path:line`."""
    answers = {}
    for i, row in _read_ndjson(path):
        if not isinstance(row, dict):
            raise InputError(f"{path}:{i}: control rows must be objects, got {row!r}")
        try:
            answer = (_finite(row["voted"], "voted", path, i), _finite(row["truth"], "truth", path, i))
            answers.setdefault(str(row["user"]), []).append(answer)
        except KeyError as exc:
            raise InputError(f"{path}:{i}: missing field {exc}") from exc
    return answers


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
