import json

import numpy as np
import pytest

from oracles import (
    augment_oracle,
    bilinear_resize_oracle,
    build_pair_record_oracle,
    crop_image,
    letterbox_oracle,
    normalize_channels_oracle,
    pair_rows_oracle,
    prepare_crop_oracle,
    trim_oracle,
)

from agegender import cli
from agegender.augment import augment
from agegender.config import tiny_config
from agegender.data import SampleRecord, load_image, write_detection_manifest
from agegender.errors import InputError
from agegender.pairing import BBox, Detection, assign
from agegender.preprocess import (
    CHANNEL_MEAN,
    bilinear_resize,
    build_pair_record,
    detach_objects,
    discard_if_small,
    letterbox,
    normalize_channels,
    prepare_crop,
    trim,
)


def random_image(rng, h=100, w=100):
    # keep pixels away from the exact channel mean so fill detection is clean
    img = rng.random((h, w, 3))
    img[np.all(np.isclose(img, CHANNEL_MEAN, atol=1e-3), axis=-1)] = 0.9
    return img


# ---------------------------------------------------------------------------
# detach


def test_detach_no_intersection_keeps_crop():
    rng = np.random.default_rng(0)
    body = BBox(10, 10, 60, 60)
    crop, _ = crop_image(random_image(rng), body)
    out = detach_objects(body, crop, [Detection(BBox(80, 80, 95, 95), "person")])
    np.testing.assert_array_equal(out, crop)


def test_detach_left_half():
    rng = np.random.default_rng(1)
    body = BBox(20, 20, 60, 60)  # 40x40 crop
    crop, _ = crop_image(random_image(rng), body)
    occluder = Detection(BBox(0, 0, 40, 100), "person")  # covers x < 40 -> left half
    out = detach_objects(body, crop, [occluder])
    assert np.all(out[:, :20] == CHANNEL_MEAN)
    np.testing.assert_array_equal(out[:, 20:], crop[:, 20:])


def test_detach_matches_per_pixel_rasterization():
    rng = np.random.default_rng(2)
    body = BBox(10, 5, 70, 80)
    image = random_image(rng)
    crop, _ = crop_image(image, body)
    others = [
        Detection(BBox(0, 0, 30, 30), "person"),
        Detection(BBox(25, 20, 50, 90), "face"),
        Detection(BBox(40, 60, 90, 85), "person"),
    ]
    out = detach_objects(body, crop, others)
    expected = crop.copy()
    for y in range(crop.shape[0]):
        for x in range(crop.shape[1]):
            sx, sy = x + body.x0, y + body.y0
            if any(d.bbox.x0 <= sx < d.bbox.x1 and d.bbox.y0 <= sy < d.bbox.y1 for d in others):
                expected[y, x] = CHANNEL_MEAN
    np.testing.assert_array_equal(out, expected)


# ---------------------------------------------------------------------------
# trim


def test_trim_left_columns():
    rng = np.random.default_rng(3)
    crop = random_image(rng, 100, 100)
    crop[:, :30] = CHANNEL_MEAN
    trimmed, offset = trim(crop)
    assert trimmed.shape == (100, 70, 3)
    assert offset == (30, 0)


def test_trim_clean_crop_unchanged():
    rng = np.random.default_rng(4)
    crop = random_image(rng, 40, 50)
    trimmed, offset = trim(crop)
    np.testing.assert_array_equal(trimmed, crop)
    assert offset == (0, 0)


def test_trim_all_filled_signals_empty():
    crop = np.empty((20, 20, 3))
    crop[:] = CHANNEL_MEAN
    trimmed, offset = trim(crop)
    assert trimmed is None and offset is None


def test_trim_threshold_boundary():
    rng = np.random.default_rng(5)
    crop = random_image(rng, 20, 100)
    crop[:19, 0] = CHANNEL_MEAN  # 95% filled -> removed (inclusive)
    trimmed, offset = trim(crop)
    assert offset == (1, 0)
    crop2 = random_image(rng, 20, 100)
    crop2[:18, 0] = CHANNEL_MEAN  # 90% filled -> kept
    trimmed2, offset2 = trim(crop2)
    assert offset2 == (0, 0)


def test_trim_idempotent_on_random_masks():
    rng = np.random.default_rng(6)
    for _ in range(200):
        h = int(rng.integers(4, 30))
        w = int(rng.integers(4, 30))
        crop = random_image(rng, h, w)
        mask = rng.random((h, w)) < rng.uniform(0.1, 0.9)
        crop[mask] = CHANNEL_MEAN
        first, offset = trim(crop)
        if first is None:
            continue
        second, offset2 = trim(first)
        assert second is not None and offset2 == (0, 0)
        np.testing.assert_array_equal(first, second)


def _border_case(rng, threshold, h, w, case):
    """A random crop whose filled pixels form a random mask, bands along the
    borders (some just under or over the threshold), pixels matching the
    fill in only some channels, or the whole crop."""
    crop = random_image(rng, h, w)
    if case % 40 == 0:
        crop[:] = CHANNEL_MEAN
        return crop
    mask = rng.random((h, w)) < rng.uniform(0.0, 0.7)
    for side in range(4):
        if rng.random() < 0.5:
            continue
        band = rng.random(mask.shape) < threshold + rng.choice([-0.02, 0.0, 0.02])
        depth = int(rng.integers(1, (h if side < 2 else w) + 1))
        if side == 0:
            mask[:depth] |= band[:depth]
        elif side == 1:
            mask[h - depth:] |= band[h - depth:]
        elif side == 2:
            mask[:, :depth] |= band[:, :depth]
        else:
            mask[:, w - depth:] |= band[:, w - depth:]
    crop[mask] = CHANNEL_MEAN
    partial = rng.random((h, w)) < 0.05
    crop[partial] = np.where(rng.random((int(partial.sum()), 3)) < 0.5, CHANNEL_MEAN, crop[partial])
    return crop


@pytest.mark.parametrize("threshold", [0.5, 0.9, 0.95, 1.0])
def test_trim_matches_oracle_on_random_crops(threshold):
    rng = np.random.default_rng([7, int(threshold * 100)])
    for case in range(520):
        h = 1 if case % 13 == 0 else int(rng.integers(1, 61))
        w = 1 if case % 13 == 1 else int(rng.integers(1, 61))
        crop = _border_case(rng, threshold, h, w, case)
        got, offset = trim(crop, threshold=threshold)
        want, want_offset = trim_oracle(crop, threshold)
        assert offset == want_offset
        if want is None:
            assert got is None
        else:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# discard


def test_discard_sliver():
    crop = np.zeros((10, 200, 3))
    assert not discard_if_small(crop, BBox(0, 0, 200, 10))


def test_discard_keeps_untouched():
    crop = np.zeros((50, 50, 3))
    assert discard_if_small(crop, BBox(0, 0, 50, 50))


def test_discard_area_boundary_inclusive():
    # exactly 30% of the original area -> keep
    crop = np.zeros((50, 60, 3))
    assert discard_if_small(crop, BBox(0, 0, 100, 100))
    crop_under = np.zeros((50, 59, 3))
    assert not discard_if_small(crop_under, BBox(0, 0, 100, 100))


def test_discard_min_side_boundary():
    assert discard_if_small(np.zeros((16, 100, 3)), BBox(0, 0, 100, 40))
    assert not discard_if_small(np.zeros((15, 100, 3)), BBox(0, 0, 100, 40))


# ---------------------------------------------------------------------------
# letterbox / normalize


def test_letterbox_square_is_pure_resize():
    rng = np.random.default_rng(7)
    crop = rng.random((50, 50, 3))
    out = letterbox(crop, 224)
    assert out.shape == (224, 224, 3)
    np.testing.assert_allclose(out, bilinear_resize(crop, 224, 224), atol=1e-12)


def test_letterbox_hand_geometry():
    crop = np.ones((100, 50, 3)) * 0.9
    out = letterbox(crop, 224)
    assert out.shape == (224, 224, 3)
    # content 224x112 centered: 56-pixel mean bands on both sides
    assert np.all(out[:, :56] == CHANNEL_MEAN)
    assert np.all(out[:, 168:] == CHANNEL_MEAN)
    np.testing.assert_allclose(out[:, 56:168], 0.9, atol=1e-12)


def test_letterbox_aspect_preserved_fuzz():
    rng = np.random.default_rng(8)
    for _ in range(300):
        h = int(rng.integers(1, 300))
        w = int(rng.integers(1, 300))
        crop = rng.random((h, w, 3))
        target = int(rng.choice([64, 224]))
        out = letterbox(crop, target)
        assert out.shape == (target, target, 3)
        if h >= w:
            expected_w = w * target / h
            content_w = max(1, round(expected_w))
            assert abs(content_w - expected_w) <= 0.5 or (content_w == 1 and expected_w < 1)
        else:
            expected_h = h * target / w
            content_h = max(1, round(expected_h))
            assert abs(content_h - expected_h) <= 0.5 or (content_h == 1 and expected_h < 1)


def test_bilinear_constant_and_errors():
    const = np.full((7, 9, 3), 0.37)
    np.testing.assert_allclose(bilinear_resize(const, 13, 5), 0.37, atol=1e-12)
    with pytest.raises(InputError):
        bilinear_resize(const, 0, 5)


def test_normalize_mean_pixel_is_zero():
    crop = np.empty((4, 4, 3))
    crop[:] = CHANNEL_MEAN
    out = normalize_channels(crop)
    assert out.shape == (4, 4, 3)
    np.testing.assert_array_equal(out, np.zeros((4, 4, 3)))


def test_normalize_white_red_channel():
    crop = np.ones((1, 1, 3))
    out = normalize_channels(crop)
    np.testing.assert_allclose(out[0, 0, 0], (1 - 0.485) / 0.229, atol=1e-12)
    assert out[0, 0, 0] == pytest.approx(2.2489, abs=1e-4)


def test_normalized_padding_is_zero():
    crop = np.ones((100, 50, 3)) * 0.8
    out = normalize_channels(letterbox(crop, 224))
    assert np.all(out[:, :56] == 0.0)
    assert np.all(out[:, 168:] == 0.0)


def test_prepare_crop_shape_and_determinism():
    rng = np.random.default_rng(9)
    image = random_image(rng, 120, 90)
    out1 = prepare_crop(image, BBox(10, 10, 70, 100), 64)
    out2 = prepare_crop(image, BBox(10, 10, 70, 100), 64)
    assert out1.shape == (64, 64, 3)
    np.testing.assert_array_equal(out1, out2)


def _same_bytes(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# sources as [h, w]: 1-px sides, squares, tall and wide, the synthetic
# face and body crops (32x32, 56x96), and sides much longer than a target
RESIZE_SOURCES = [(1, 1), (1, 50), (50, 1), (2, 3), (7, 9), (32, 32), (56, 96), (64, 64), (97, 31), (300, 7), (150, 220)]


def _resize_inputs(rng, h, w):
    """One source as a float64 array, a float32 array, and flipped
    (negative-stride, non-contiguous) views of each."""
    image = rng.random((h, w, 3))
    image32 = image.astype(np.float32)
    return [image, image32, image[:, ::-1], image[::-1], image32[::-1, ::-1], rng.random((h + 4, w + 6, 3))[2:-2, 3:-3]]


@pytest.mark.parametrize("h, w", RESIZE_SOURCES)
def test_bilinear_resize_is_bitwise_the_corner_blend(h, w):
    rng = np.random.default_rng([12, h, w])
    targets = [(1, 1), (1, 64), (64, 1), (5, 3), (64, 64), (h, w), (2 * h, 3 * w), (max(1, h // 3), max(1, w // 2))]
    for image in _resize_inputs(rng, h, w):
        for out_h, out_w in targets:
            _same_bytes(bilinear_resize(image, out_h, out_w), bilinear_resize_oracle(image, out_h, out_w))


@pytest.mark.parametrize("h, w", RESIZE_SOURCES)
def test_letterbox_and_normalize_are_bitwise_the_oracles(h, w):
    rng = np.random.default_rng([13, h, w])
    for image in _resize_inputs(rng, h, w):
        for target in (1, 16, 64, 224):
            boxed = letterbox(image, target)
            _same_bytes(boxed, letterbox_oracle(image, target))
            _same_bytes(normalize_channels(boxed), normalize_channels_oracle(boxed))
        # normalize alone, on the source's own dtype and layout
        _same_bytes(normalize_channels(image), normalize_channels_oracle(image))


def test_prepare_crop_is_bitwise_the_oracle_on_npy_and_float32_images(tmp_path):
    rng = np.random.default_rng(14)
    path = tmp_path / "image.npy"
    np.save(path, rng.random((90, 120, 3)).astype(np.float32))
    loaded = load_image(str(path))
    images = [loaded, np.load(path), np.load(path)[::-1]]
    boxes = [BBox(0, 0, 120, 90), BBox(10, 5, 42, 37), BBox(-20, 30, 40, 200), BBox(119, 89, 120, 90), BBox(3, 4, 4, 60)]
    for image in images:
        for box in boxes:
            for target in (16, 64):
                _same_bytes(prepare_crop(image, box, target), prepare_crop_oracle(image, box, target))


def test_augment_is_bitwise_the_oracle_and_leaves_the_image_alone():
    config = tiny_config(jitter=0.45, hflip_prob=0.5, erase_prob=0.5)
    rng = np.random.default_rng(15)
    image = rng.random((96, 96, 3))
    before = image.copy()
    records = [
        SampleRecord(image="x", face_bbox=BBox(32, 8, 64, 40), body_bbox=BBox(0, 40, 96, 96), age=30.0, gender="male"),
        SampleRecord(image="x", face_bbox=BBox(0, 0, 1, 96), body_bbox=None, age=30.0, gender="male"),
        SampleRecord(image="x", face_bbox=None, body_bbox=BBox(90, 0, 96, 3), age=30.0, gender="male"),
    ]
    for seed in range(60):
        record = records[seed % 3]
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = augment(record, image, rng_a, config)
        want = augment_oracle(record, image, rng_b, config)
        for side in ("face", "body"):
            if getattr(want, side) is None:
                assert getattr(got, side) is None
            else:
                _same_bytes(getattr(got, side), getattr(want, side))
        assert rng_a.random() == rng_b.random()  # the same draws were made
    assert image.tobytes() == before.tobytes()


# ---------------------------------------------------------------------------
# pipeline composition


def test_pipeline_never_enlarges_and_offsets_compose():
    rng = np.random.default_rng(10)
    image = random_image(rng, 200, 200)
    detections = [
        Detection(BBox(20, 20, 120, 180), "person"),
        Detection(BBox(40, 30, 70, 60), "face"),
        Detection(BBox(10, 100, 60, 200), "person"),  # occludes the body's left
    ]
    record = build_pair_record(
        image, detections[1].bbox, detections[0].bbox, detections, self_indices={0, 1}
    )
    assert record["face_bbox"] == [40, 30, 70, 60]
    bb = record["body_bbox"]
    assert bb is not None
    x0, y0, x1, y1 = bb
    assert x1 - x0 <= 100 and y1 - y0 <= 160  # never enlarged
    assert 20 <= x0 and x1 <= 120 and 20 <= y0 and y1 <= 180  # inside original
    # offsets compose: the record's box is the box trim gives on the
    # detached crop, and re-cropping that crop at it reproduces the trim
    ox, oy = record["body_offset"]
    assert (x0, y0) == (20 + ox, 20 + oy)
    body_crop, _ = crop_image(image, BBox(20, 20, 120, 180))
    body_crop = detach_objects(BBox(20, 20, 120, 180), body_crop, [detections[2]])
    trimmed, (tx, ty) = trim(body_crop)
    th, tw = trimmed.shape[:2]
    assert bb == [20 + tx, 20 + ty, 20 + tx + tw, 20 + ty + th]
    np.testing.assert_array_equal(body_crop[y0 - 20:y1 - 20, x0 - 20:x1 - 20], trimmed)


def test_pipeline_discards_destroyed_body():
    rng = np.random.default_rng(11)
    image = random_image(rng, 100, 100)
    body = Detection(BBox(0, 0, 40, 100), "person")
    occluder = Detection(BBox(0, 0, 40, 95), "person")  # leaves a 5-row sliver
    record = build_pair_record(image, None, body.bbox, [body, occluder], self_indices={0})
    assert record["body_bbox"] is None


def _crowded_scene(rng, people=24, w=320, h=240):
    """Overlapping people as noisy colour blocks, each with a face box in
    the top of its person box; about one in five is seen by face only and
    one in eight by body only. Returns (image, detections)."""
    image = rng.uniform(0.2, 0.8, (h, w, 3))
    detections = []
    for _ in range(people):
        pw = int(rng.integers(30, 60))
        ph = min(h - 4, int(pw * rng.uniform(2.0, 2.8)))
        x0, y0 = int(rng.integers(0, w - pw)), int(rng.integers(0, h - ph))
        image[y0:y0 + ph, x0:x0 + pw] = rng.uniform(0.1, 0.9, 3) + rng.normal(0.0, 0.05, (ph, pw, 3))
        side = max(6, int(pw * rng.uniform(0.3, 0.45)))
        fx0, fy0 = x0 + (pw - side) // 2, y0 + int(ph * rng.uniform(0.02, 0.08))
        seen = rng.random()
        if seen >= 0.125:
            detections.append(Detection(BBox(fx0, fy0, fx0 + side, fy0 + side), "face"))
        if seen < 0.8:
            detections.append(Detection(BBox(x0, y0, x0 + pw, y0 + ph), "person"))
    return np.clip(image, 0.0, 1.0), detections


def test_detach_objects_is_bitwise_the_box_loop_on_crowded_scenes():
    from oracles import detach_objects_oracle

    filled = 0
    for seed in range(4):
        image, dets = _crowded_scene(np.random.default_rng([seed, 3]))
        h, w = image.shape[:2]
        for k, det in enumerate(dets):
            # the box itself, and the box shifted half outside the image
            for box in (det.bbox, BBox(det.bbox.x0 - 20, det.bbox.y0 - 30, det.bbox.x1 - 20, det.bbox.y1 - 30)):
                b = box.clamped(w, h)
                others = dets[:k] + dets[k + 1:]
                for crop in (image[b.y0:b.y1, b.x0:b.x1], image[b.y0:b.y1, b.x0:b.x1].astype(np.float32)):
                    got, want = detach_objects(b, crop, others), detach_objects_oracle(b, crop, others)
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                    filled += not np.array_equal(got, crop)
    assert filled > 100
    assert detach_objects(b, crop, []).tobytes() == crop.tobytes()


def test_detach_objects_clips_coordinates_beyond_int64_as_the_box_loop():
    # manifest coordinates are any integers; the parent loop clipped them as Python ints
    from oracles import detach_objects_oracle

    crop = np.random.default_rng(4).random((40, 30, 3))
    body = BBox(100, 200, 130, 240)
    for box in [
        BBox(110, 210, 10**400, 220),
        BBox(-10**308, -10**30, 115, 205),
        BBox(-(2**63) + 5, 210, 120, 2**63 + 5),  # int64 would wrap in `box - body`
        BBox(-(2**63), -(2**63), -(2**63) + 10, -(2**63) + 10),
    ]:
        others = [Detection(box, "face"), Detection(BBox(90, 230, 105, 260), "person")]
        got, want = detach_objects(body, crop, others), detach_objects_oracle(body, crop, others)
        assert got.tobytes() == want.tobytes()
        assert not np.array_equal(got, crop)


def test_pair_record_is_the_oracle_boxes_on_crowded_scenes():
    # every unit `pair` builds from a crowd, matched or single
    keys = ["face_bbox", "body_bbox", "face_offset", "body_offset"]
    kinds = {"trimmed": 0, "discarded": 0, "face only": 0}
    for seed in range(6):
        image, dets = _crowded_scene(np.random.default_rng([seed, 2]))
        h, w = image.shape[:2]
        face_idx = [i for i, d in enumerate(dets) if d.kind == "face"]
        person_idx = [i for i, d in enumerate(dets) if d.kind == "person"]
        result = assign([dets[i].bbox for i in face_idx], [dets[j].bbox for j in person_idx])
        units = [(face_idx[i], person_idx[j]) for i, j in result.pairs]
        units += [(face_idx[i], None) for i in result.unmatched_faces]
        units += [(None, person_idx[j]) for j in result.unmatched_persons]
        for fi, pi in units:
            args = (
                image,
                dets[fi].bbox if fi is not None else None,
                dets[pi].bbox if pi is not None else None,
                dets,
                {i for i in (fi, pi) if i is not None},
            )
            record, want = build_pair_record(*args), build_pair_record_oracle(*args)
            assert list(record) == keys
            assert record == {k: want[k] for k in keys}
            if pi is None:
                kinds["face only"] += 1
            elif record["body_bbox"] is None:
                kinds["discarded"] += 1
            elif record["body_bbox"] != dets[pi].bbox.clamped(w, h).as_list():
                kinds["trimmed"] += 1
    assert min(kinds.values()) > 0, kinds


def _pair_command_rows(tmp_path, image, dets):
    """`agegender pair` on one .npy scene (float64 kept exact)."""
    np.save(tmp_path / "scene.npy", image)
    write_detection_manifest(tmp_path / "detections.jsonl", [{"image": "scene.npy", "detections": dets}])
    out = tmp_path / "pairs.jsonl"
    assert cli.main(["pair", "--detections", str(tmp_path / "detections.jsonl"), "--out", str(out)]) == 0
    return [json.loads(line) for line in out.read_text().splitlines()]


def test_pair_command_is_the_oracle_records_on_crowded_scenes(tmp_path):
    # one fill table per image, cut per body, against every unit's crop
    # copied, filled and trimmed on its own
    for seed in range(6):
        image, dets = _crowded_scene(np.random.default_rng([seed, 2]))
        assert _pair_command_rows(tmp_path, image, dets) == pair_rows_oracle("scene.npy", image, dets)


def _edge_scene():
    """A scene whose bodies meet each edge case of the fill table: boxes
    partly outside the image, a face duplicating a unit's own face,
    boxes that clip to nothing, a row filled exactly to the threshold, and
    pixels equal to CHANNEL_MEAN in all three channels or only some."""
    image = np.random.default_rng(12).uniform(0.2, 0.8, (100, 120, 3))
    image[10:50, 40] = CHANNEL_MEAN  # B's left column: trimmed
    image[10:50, 59, :2] = CHANNEL_MEAN[:2]  # B's right column, two channels: kept
    image[49, 40:60, 0] = CHANNEL_MEAN[0]  # B's bottom row, one channel: kept
    image[20:30:3, 15:25:2] = CHANNEL_MEAN  # inside A: no border
    boxes = [
        ("person", (10, 5, 30, 45)),  # A
        ("face", (10, 5, 30, 10)),  # A's face, the full width of A's top rows
        ("face", (10, 5, 30, 10)),  # the same box again: A erases it
        ("face", (-10, -5, 12, 8)),  # partly outside, over A's corner
        ("person", (40, 10, 60, 50)),  # B
        ("face", (45, 12, 55, 22)),
        ("person", (60, 10, 80, 50)),  # F: touches B and G, each clips the other to nothing
        ("person", (100, 60, 140, 130)),  # C, partly outside
        ("face", (105, 62, 115, 72)),
        ("person", (70, 50, 90, 90)),  # G
        ("person", (70, 50, 89, 51)),  # 19 of G's 20 top pixels: exactly 0.95
    ]
    return image, [Detection(BBox(*box), kind) for kind, box in boxes]


def test_pair_command_is_the_oracle_records_on_edge_cases(tmp_path):
    image, dets = _edge_scene()
    rows = _pair_command_rows(tmp_path, image, dets)
    assert rows == pair_rows_oracle("scene.npy", image, dets)
    bodies = {tuple(row["body_bbox"]) for row in rows if row["body_bbox"] is not None}
    assert {(10, 10, 30, 45), (41, 10, 60, 50), (60, 10, 80, 50), (100, 60, 120, 100), (70, 51, 90, 90)} <= bodies


def test_pair_command_is_the_oracle_records_on_sparse_scenes(tmp_path):
    # the table spans only the bodies' extent, here far from the origin,
    # and an image with faces alone builds none
    image = np.random.default_rng(13).uniform(0.2, 0.8, (120, 160, 3))
    image[70:110, 131] = CHANNEL_MEAN  # the body's right column: trimmed, as are its bottom rows, erased
    one_body = [Detection(BBox(110, 70, 132, 110), "person"), Detection(BBox(112, 70, 132, 74), "face"),
                Detection(BBox(5, 5, 15, 15), "face"), Detection(BBox(100, 100, 140, 118), "face")]
    faces_only = [Detection(BBox(5, 5, 15, 15), "face"), Detection(BBox(150, 110, 170, 130), "face")]
    for dets in (one_body, faces_only):
        assert _pair_command_rows(tmp_path, image, dets) == pair_rows_oracle("scene.npy", image, dets)
    rows = _pair_command_rows(tmp_path, image, one_body)
    assert [row["body_bbox"] for row in rows if row["body_bbox"] is not None] == [[110, 70, 131, 100]]


def test_pair_record_is_the_oracle_with_boxes_outside_the_image():
    # `build_pair_record` also takes boxes that clip to nothing in the image
    image, dets = _edge_scene()
    dets += [Detection(BBox(200, 200, 210, 210), "person"), Detection(BBox(-50, -50, -40, -40), "face")]
    for k, body in enumerate(dets):
        for own in ({k}, {k, 1}, {k, 2}, set()):
            args = (image, None, body.bbox, dets, own)
            assert build_pair_record(*args) == {key: value for key, value in build_pair_record_oracle(*args).items()
                                                if not key.endswith("_crop")}


def test_pair_record_erases_occluders_on_float32_images():
    # the erased boxes count whatever the image dtype; a float32 fill value
    # never equals the float64 mean, so trimming a filled float32 crop saw
    # none. The oracle fills and trims in float64 and must agree.
    image, dets = _crowded_scene(np.random.default_rng([0, 2]))
    trimmed = 0
    for k, det in enumerate(dets):
        if det.kind == "person":
            want = build_pair_record(image, None, det.bbox, dets, {k})
            assert build_pair_record(image.astype(np.float32), None, det.bbox, dets, {k}) == want
            trimmed += want["body_offset"] not in (None, [0, 0])
    assert trimmed > 0
    for image, dets in (_crowded_scene(np.random.default_rng([1, 2])), _edge_scene()):
        image32 = image.astype(np.float32)
        for k, det in enumerate(dets):
            args = (image32, None, det.bbox, dets, {k})
            assert build_pair_record(*args) == {key: value for key, value in build_pair_record_oracle(*args).items()
                                                if not key.endswith("_crop")}
