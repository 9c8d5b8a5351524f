import json
import os
import threading

import numpy as np
import pytest

from agegender.data import (
    SYNTH_FACE_BBOX,
    SampleRecord,
    generate_synthetic_dataset,
    load_image,
    read_controls_file,
    read_detection_manifest,
    read_ppm,
    read_sample_manifest,
    read_votes_file,
    synth_sample,
    write_detection_manifest,
    write_ppm,
    write_sample_manifest,
)
from agegender.errors import InputError
from agegender.pairing import BBox, Detection
from oracles import (
    joined_read_outcome,
    read_controls_file_oracle,
    read_ndjson_oracle,
    read_ndjson_pairs,
    read_votes_file_oracle,
    reader_outcome,
)


def test_ppm_roundtrip(tmp_path, ):
    rng = np.random.default_rng(0)
    img = rng.random((17, 23, 3))
    path = tmp_path / "img.ppm"
    write_ppm(path, img)
    back = read_ppm(path)
    assert back.shape == (17, 23, 3)
    # 8-bit quantization is the only loss
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-12
    write_ppm(path, back)
    np.testing.assert_array_equal(read_ppm(path), back)


def test_ppm_rejects_other_formats(tmp_path):
    path = tmp_path / "img.ppm"
    path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
    with pytest.raises(InputError):
        read_ppm(path)


def test_load_raw_tensor(tmp_path):
    img = np.random.default_rng(1).random((5, 6, 3))
    path = tmp_path / "img.npy"
    np.save(path, img)
    np.testing.assert_array_equal(load_image(str(path)), img)
    bad = tmp_path / "bad.npy"
    np.save(bad, np.zeros((5, 6)))
    with pytest.raises(InputError):
        load_image(str(bad))


def test_sample_manifest_roundtrip(tmp_path):
    records = [
        SampleRecord("a.ppm", BBox(1, 2, 3, 4), BBox(0, 0, 10, 10), 31.5, "female"),
        SampleRecord("b.ppm", None, BBox(0, 0, 5, 5), 62.0, "male"),
    ]
    path = tmp_path / "manifest.jsonl"
    write_sample_manifest(path, records)
    back = read_sample_manifest(path)
    assert back == records


def test_sample_record_validation():
    with pytest.raises(InputError):
        SampleRecord("x.ppm", None, None, 30.0, "male")
    with pytest.raises(InputError):
        SampleRecord("x.ppm", BBox(0, 0, 1, 1), None, 30.0, "robot")


def test_sample_manifest_errors(tmp_path):
    path = tmp_path / "manifest.jsonl"
    path.write_text("")
    with pytest.raises(InputError):
        read_sample_manifest(path)
    path.write_text("not json\n")
    with pytest.raises(InputError):
        read_sample_manifest(path)


def test_detection_manifest_roundtrip(tmp_path):
    entries = [
        {
            "image": "scene.ppm",
            "detections": [
                Detection(BBox(0, 0, 10, 10), "face", 0.9),
                Detection(BBox(0, 0, 40, 80), "person", 0.8),
            ],
        }
    ]
    path = tmp_path / "detections.jsonl"
    write_detection_manifest(path, entries)
    back = read_detection_manifest(path)
    assert back == entries
    # field order in the file is fixed
    first = path.read_text().splitlines()[0]
    assert first.index('"kind"') < first.index('"x0"') < first.index('"score"')


def test_votes_and_controls_files(tmp_path):
    votes = tmp_path / "votes.jsonl"
    votes.write_text('{"task": "t1", "user": "u1", "age": 30, "gender": "male"}\n')
    rows = read_votes_file(votes)
    assert rows[0]["task"] == "t1"
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"user": "u1"}\n')
    with pytest.raises(InputError):
        read_votes_file(bad)
    controls = tmp_path / "controls.jsonl"
    controls.write_text(
        '{"user": "u1", "voted": 30, "truth": 32}\n{"user": "u1", "voted": 40, "truth": 40}\n'
    )
    answers = read_controls_file(controls)
    assert answers == {"u1": [(30.0, 32.0), (40.0, 40.0)]}


def outcomes_and_joined_reads(path):
    """[(reader outcome, oracle outcome)] for the votes and controls
    readers of `path`, and for each reader whether it took the joined
    decode alone."""
    pairs, joined = [], []
    for reader, oracle in ((read_votes_file, read_votes_file_oracle), (read_controls_file, read_controls_file_oracle)):
        got, took = joined_read_outcome(reader, path)
        pairs.append((got, reader_outcome(oracle, path)))
        joined.append(took)
    return pairs, joined


# a row both readers accept
ROW = '{"task": "t1", "user": "u1", "age": 30.5, "voted": 30, "truth": 31}'


def row_of(age):
    """A row whose age, voted and truth are all `age` (JSON text)."""
    return f'{{"task": "t1", "user": "u1", "age": {age}, "voted": {age}, "truth": {age}}}'


# a valid line holding two objects, which restores the row count of a
# file whose first two lines join into one object
TWO_OBJECTS = ('{"task": "t2", "user": "u2", "voted": 1, "truth": 2},'
               '{"task": "t3", "user": "u3", "voted": 1, "truth": 2}')

# file bytes, and whether the joined decode may be trusted for them
FORGED_FILES = {
    "row_split_in_a_list": ('{"task":"a","user":"b","x":[{}\n{}]}\n' + TWO_OBJECTS + "\n", False),
    "row_split_in_a_string": ('{"task":"a}\n{","user":"b"}\n' + TWO_OBJECTS + "\n", False),
    "two_objects_on_a_line": (ROW + ROW + "\n" + ROW + "\n", False),
    "two_objects_and_a_comma_on_a_line": (ROW + "," + ROW + "\n", False),
    "brace_in_a_task": (ROW + "\n" + ROW.replace('"t1"', '"t{1"') + "\n", False),
    "braces_in_a_key": ('{"task": "t", "user": "u", "voted": 1, "truth": 2, "{}": 3}\n', False),
    "nested_object": ('{"task": "t", "user": "u", "voted": 1, "truth": 2, "x": {"y": 1}}\n', False),
    "row_not_an_object": (ROW + "\n[1, 2]\n", False),
    "no_newline_at_end": (ROW + "\n" + ROW, True),
    "strip_only_padding": ("\x0c" + ROW + "\xa0\n\xa0 " + ROW + " \x0c\n", True),
    "crlf_endings": (ROW + "\r\n" + ROW + "\r\n", True),
    "cr_endings": (ROW + "\r" + ROW + "\r", True),
    "blank_and_whitespace_lines": ("\n  \n" + ROW + "\n\t\n\n" + ROW + "\n \n", True),
    "line_separator_in_a_string": (ROW.replace('"u1"', '"u\u2028\x85"') + "\n", True),
    "ages_out_of_range_after_blank_lines": (ROW + "\n\n\n" + row_of("1e308") + "\n", False),
    "nan_ages": (row_of("NaN") + "\n", False),
    "ages_at_the_range_ends": (row_of("0") + "\n" + row_of("150.0") + "\n", True),
    # the guard holds, the joined decode fails, the per-line decode names line 3
    "bad_record_after_blank_lines": (ROW + "\n\n" + ROW.replace("}", ",}") + "\n", False),
    "empty": ("", False),
    "only_blank_lines": ("\n \n", False),
}


@pytest.mark.parametrize("case", sorted(FORGED_FILES))
def test_forged_votes_and_controls_files_read_as_the_per_line_oracle(case, tmp_path):
    text, trusted = FORGED_FILES[case]
    path = tmp_path / "rows.jsonl"
    path.write_bytes(text.encode())
    pairs, joined = outcomes_and_joined_reads(path)
    for got, want in pairs:
        assert got == want
    assert joined == [trusted, trusted]


DETECTION_ROW = json.dumps({"image": "scene.ppm", "detections": [{"kind": "face", "x0": 0, "y0": 0, "x1": 4, "y1": 4}]})
SAMPLE_ROW = json.dumps({"image": "a.ppm", "face_bbox": [0, 0, 4, 4], "body_bbox": None, "age": 31.5, "gender": "male"})

# manifests beside the forged votes and controls files: nested rows are
# decoded line by line, flat ones in one decode
MANIFESTS = {
    "nested_detection_manifest": DETECTION_ROW + "\n" + DETECTION_ROW + "\n",
    "nested_rows_between_blank_lines": "\n" + DETECTION_ROW + "\n\n \n" + DETECTION_ROW + "\n\n",
    "bad_nested_row_after_blank_lines": DETECTION_ROW + "\n\n" + DETECTION_ROW[:-1] + "\n",
    "flat_sample_manifest": SAMPLE_ROW + "\n" + SAMPLE_ROW + "\n",
    "flat_rows_between_blank_lines": "\n\n" + SAMPLE_ROW + "\n\t\n" + SAMPLE_ROW + "\n \n",
}


@pytest.mark.parametrize("case", sorted(MANIFESTS) + sorted(FORGED_FILES))
def test_read_ndjson_equals_the_per_line_oracle(case, tmp_path):
    text = MANIFESTS[case] if case in MANIFESTS else FORGED_FILES[case][0]
    path = tmp_path / "rows.jsonl"
    path.write_bytes(text.encode())
    assert reader_outcome(read_ndjson_pairs, path) == reader_outcome(read_ndjson_oracle, path)


def test_split_rows_are_refused_by_the_per_line_reader(tmp_path):
    # each forged file joins into one array of three objects, one per line
    for case in ("row_split_in_a_list", "row_split_in_a_string"):
        text = FORGED_FILES[case][0]
        assert len(json.loads("[" + ",".join(text.splitlines()) + "]")) == 3
        path = tmp_path / f"{case}.jsonl"
        path.write_text(text)
        with pytest.raises(InputError, match=r"\.jsonl:1: bad record"):
            read_votes_file(path)


def test_votes_from_a_pipe_are_read_once(tmp_path):
    # a pipe cannot be read a second time; its one read gives the bad line
    fifo = tmp_path / "votes.jsonl"
    os.mkfifo(fifo)
    outcome = []
    reader = threading.Thread(target=lambda: outcome.append(reader_outcome(read_votes_file, fifo)), daemon=True)
    reader.start()
    fifo.write_text(ROW + "\n" + row_of("151") + "\n")
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert outcome == [f"InputError: {fifo}:2: age must be within [0, 150] years, got 151"]


def test_unreadable_votes_file_names_the_file(tmp_path):
    path = tmp_path / "votes.jsonl"
    path.write_bytes(ROW.encode() + b"\n\xff\n")
    assert reader_outcome(read_votes_file, path) == reader_outcome(read_votes_file_oracle, path)
    with pytest.raises(InputError, match="not a text file"):
        read_votes_file(path)


def test_not_a_text_file_names_the_offset_from_the_start_of_the_file(tmp_path):
    # the file is decoded in one pass, not in 8 KiB blocks
    head = (ROW + "\n") * 200
    assert len(head) > 8192
    path = tmp_path / "votes.jsonl"
    path.write_bytes(head.encode() + b"\xff\n")
    with pytest.raises(InputError, match=f"not a text file: .* in position {len(head)}: invalid start byte"):
        read_votes_file(path)


# ---------------------------------------------------------------------------
# synthetic fixtures


def test_synth_sample_encodings():
    rng = np.random.default_rng(2)
    img, age, gender = synth_sample(rng, mode="shared")
    assert img.shape == (96, 96, 3)
    assert 0.0 <= age <= 100.0
    fb = SYNTH_FACE_BBOX
    face_mean = img[fb.y0:fb.y1, fb.x0:fb.x1].mean()
    # mean intensity tracks age
    expected = 0.1 + 0.6 * age / 100 + 0.05  # + gender bias /3 channels
    assert abs(face_mean - expected) < 0.02
    # channel dominance encodes gender
    r, b = img[..., 0].mean(), img[..., 2].mean()
    assert (r > b) == (gender == "male")


def test_synth_split_mode_splits_information():
    rng = np.random.default_rng(3)
    img, age, _ = synth_sample(rng, mode="split")
    fb = SYNTH_FACE_BBOX
    face = img[fb.y0:fb.y1, fb.x0:fb.x1].mean()
    body = img[fb.y1 + 10:, :].mean()
    # reconstructing age needs both signals (0.1 base + 0.05 mean gender bias)
    u = (face - 0.15) / 0.6 * 50
    v = (body - 0.15) / 0.6 * 50
    assert abs((u + v) - age) < 3.0
    with pytest.raises(InputError):
        synth_sample(rng, mode="nonsense")


def test_generate_synthetic_dataset_deterministic(tmp_path):
    m1 = generate_synthetic_dataset(tmp_path / "a", 5, seed=42)
    m2 = generate_synthetic_dataset(tmp_path / "b", 5, seed=42)
    r1 = read_sample_manifest(m1)
    r2 = read_sample_manifest(m2)
    assert [(r.age, r.gender) for r in r1] == [(r.age, r.gender) for r in r2]
    img1 = load_image(str(tmp_path / "a" / r1[0].image))
    img2 = load_image(str(tmp_path / "b" / r2[0].image))
    np.testing.assert_array_equal(img1, img2)
    with pytest.raises(InputError):
        generate_synthetic_dataset(tmp_path / "c", 0)
