import numpy as np
import pytest

from oracles import trim_oracle

from agegender.errors import InputError
from agegender.pairing import BBox, Detection
from agegender.preprocess import (
    CHANNEL_MEAN,
    bilinear_resize,
    build_pair_record,
    crop_image,
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
        want, want_offset = trim_oracle(crop, CHANNEL_MEAN, threshold)
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
    assert out.shape == (3, 4, 4)
    np.testing.assert_array_equal(out, np.zeros((3, 4, 4)))


def test_normalize_white_red_channel():
    crop = np.ones((1, 1, 3))
    out = normalize_channels(crop)
    np.testing.assert_allclose(out[0, 0, 0], (1 - 0.485) / 0.229, atol=1e-12)
    assert out[0, 0, 0] == pytest.approx(2.2489, abs=1e-4)


def test_normalized_padding_is_zero():
    crop = np.ones((100, 50, 3)) * 0.8
    out = normalize_channels(letterbox(crop, 224))
    assert np.all(out[:, :, :56] == 0.0)
    assert np.all(out[:, :, 168:] == 0.0)


def test_prepare_crop_shape_and_determinism():
    rng = np.random.default_rng(9)
    image = random_image(rng, 120, 90)
    out1 = prepare_crop(image, BBox(10, 10, 70, 100), 64)
    out2 = prepare_crop(image, BBox(10, 10, 70, 100), 64)
    assert out1.shape == (3, 64, 64)
    np.testing.assert_array_equal(out1, out2)


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
    # offsets compose: re-cropping the source at the post-trim bbox must
    # reproduce the trimmed crop exactly
    ox, oy = record["body_offset"]
    assert (x0, y0) == (20 + ox, 20 + oy)
    body_crop, _ = crop_image(image, BBox(20, 20, 120, 180))
    body_crop = detach_objects(BBox(20, 20, 120, 180), body_crop, [detections[2]])
    trimmed, _ = trim(body_crop)
    np.testing.assert_array_equal(record["body_crop"], trimmed)


def test_pipeline_discards_destroyed_body():
    rng = np.random.default_rng(11)
    image = random_image(rng, 100, 100)
    body = Detection(BBox(0, 0, 40, 100), "person")
    occluder = Detection(BBox(0, 0, 40, 95), "person")  # leaves a 5-row sliver
    record = build_pair_record(image, None, body.bbox, [body, occluder], self_indices={0})
    assert record["body_bbox"] is None
