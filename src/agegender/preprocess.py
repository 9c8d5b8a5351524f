"""Crop preprocessing: occluder removal, border trimming, size filtering,
letterbox resize and channel normalization.

Images are float [H, W, 3] in [0, 1] throughout. Filled/padded regions use
the per-channel dataset mean, which normalization maps to exactly zero:
the same zero-as-absent convention the model uses for missing inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .pairing import BBox

# standard large-scale-pretraining channel statistics for [0, 1] RGB
CHANNEL_MEAN = np.array([0.485, 0.456, 0.406])
CHANNEL_STD = np.array([0.229, 0.224, 0.225])

TRIM_THRESHOLD = 0.95
MIN_CROP_SIDE = 16
MIN_AREA_FRACTION = 0.3


def crop_image(image, bbox: BBox):
    """Extract a bbox (clamped to the image) as a copy."""
    h, w = image.shape[:2]
    b = bbox.clamped(w, h)
    return image[b.y0:b.y1, b.x0:b.x1].copy(), b


def detach_objects(body: BBox, crop, others, fill=CHANNEL_MEAN):
    """Fill every crop pixel covered by any other detection's box.

    `crop` was extracted at `body`; `others` are detections to erase
    (any intersection counts, regardless of size). Returns a new image.
    """
    out = crop.copy()
    h, w = out.shape[:2]
    for det in others:
        b = det.bbox if hasattr(det, "bbox") else det
        x0 = max(b.x0 - body.x0, 0)
        y0 = max(b.y0 - body.y0, 0)
        x1 = min(b.x1 - body.x0, w)
        y1 = min(b.y1 - body.y0, h)
        if x1 > x0 and y1 > y0:
            out[y0:y1, x0:x1] = fill
    return out


def filled_mask(crop, fill=CHANNEL_MEAN):
    eq = crop == fill
    return eq[..., 0] & eq[..., 1] & eq[..., 2]


def trim(crop, fill=CHANNEL_MEAN, threshold=TRIM_THRESHOLD):
    """Strip border rows/columns that are mostly filled.

    Repeatedly removes any outermost row/column whose filled-pixel
    fraction is >= threshold, until none qualifies (which makes the
    operation idempotent). Returns (trimmed, (off_x, off_y)); a fully
    trimmed crop returns (None, None).

    Cost: one O(h*w) pass for the mask and its row and column prefix
    sums, then O(1) per border test. Each fraction is count / length in
    float64, the value `mask[...].mean()` gives, so the same lines go.
    """
    mask = filled_mask(crop, fill)
    y0, x0 = 0, 0
    y1, x1 = mask.shape
    # row_sum[y, x]: filled pixels of row y in [0, x); col_sum[y, x]: of column x in [0, y)
    row_sum = np.zeros((y1, x1 + 1), dtype=np.int64)
    np.cumsum(mask, axis=1, out=row_sum[:, 1:])
    col_sum = np.zeros((y1 + 1, x1), dtype=np.int64)
    np.cumsum(mask, axis=0, out=col_sum[1:])
    changed = True
    while changed and y1 > y0 and x1 > x0:
        changed = False
        if y1 > y0 and (row_sum[y0, x1] - row_sum[y0, x0]) / (x1 - x0) >= threshold:
            y0 += 1
            changed = True
        if y1 > y0 and (row_sum[y1 - 1, x1] - row_sum[y1 - 1, x0]) / (x1 - x0) >= threshold:
            y1 -= 1
            changed = True
        if x1 > x0 and y1 > y0 and (col_sum[y1, x0] - col_sum[y0, x0]) / (y1 - y0) >= threshold:
            x0 += 1
            changed = True
        if x1 > x0 and y1 > y0 and (col_sum[y1, x1 - 1] - col_sum[y0, x1 - 1]) / (y1 - y0) >= threshold:
            x1 -= 1
            changed = True
    if y1 <= y0 or x1 <= x0:
        return None, None
    return crop[y0:y1, x0:x1].copy(), (x0, y0)


def discard_if_small(crop, original: BBox, min_side=MIN_CROP_SIDE, min_area_fraction=MIN_AREA_FRACTION):
    """True to keep: min side >= 16 px and retained area >= 30% of the
    original crop (both boundaries inclusive)."""
    h, w = crop.shape[:2]
    if min(h, w) < min_side:
        return False
    return (h * w) / original.area >= min_area_fraction


def bilinear_resize(image, out_h, out_w):
    """Plain bilinear resampling (half-pixel centers, edges clamped)."""
    h, w = image.shape[:2]
    if out_h < 1 or out_w < 1:
        raise InputError(f"bad resize target {out_h}x{out_w}")
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    ys = np.clip(ys, 0, h - 1)
    xs = np.clip(xs, 0, w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[None, :, None]
    top = image[y0][:, x0] * (1 - wx) + image[y0][:, x1] * wx
    bottom = image[y1][:, x0] * (1 - wx) + image[y1][:, x1] * wx
    return top * (1 - wy) + bottom * wy


def letterbox(crop, target, fill=CHANNEL_MEAN):
    """Aspect-preserving resize of the long side to `target`, centered
    padding of the short side with the dataset mean."""
    h, w = crop.shape[:2]
    if h == 0 or w == 0:
        raise InputError("letterbox of an empty crop")
    if h >= w:
        new_h = target
        new_w = max(1, round(w * target / h))
    else:
        new_w = target
        new_h = max(1, round(h * target / w))
    resized = bilinear_resize(crop, new_h, new_w)
    out = np.empty((target, target, 3))
    out[:] = fill
    top = (target - new_h) // 2
    left = (target - new_w) // 2
    out[top:top + new_h, left:left + new_w] = resized
    return out


def normalize_channels(crop):
    """Z-score per channel on [0, 1] pixels; returns [3, H, W].

    Mean-filled padding maps to exactly 0.
    """
    out = (crop - CHANNEL_MEAN) / CHANNEL_STD
    return np.transpose(out, (2, 0, 1)).copy()


def prepare_crop(image, bbox: BBox, target):
    """Evaluation-path crop pipeline: crop -> letterbox -> normalize."""
    crop, _ = crop_image(image, bbox)
    return normalize_channels(letterbox(crop, target))


def build_pair_record(image, face_bbox, body_bbox, detections, self_indices):
    """Full body/face preprocessing for one matched pair (or single).

    Applies occluder removal against every *other* detection, then trims
    and size-filters the body side. Returns a dict with post-trim boxes in
    source-image coordinates plus retained offsets, or None entries for
    sides that got discarded.
    """
    h, w = image.shape[:2]
    others = [d for i, d in enumerate(detections) if i not in self_indices]
    record = {"face_bbox": None, "body_bbox": None, "face_offset": None, "body_offset": None}

    if face_bbox is not None:
        fb = face_bbox.clamped(w, h)
        face_crop, fb = crop_image(image, fb)
        face_crop = detach_objects(fb, face_crop, others)
        record["face_bbox"] = fb.as_list()
        record["face_offset"] = [0, 0]
        record["face_crop"] = face_crop

    if body_bbox is not None:
        bb = body_bbox.clamped(w, h)
        body_crop, bb = crop_image(image, bb)
        body_crop = detach_objects(bb, body_crop, others)
        trimmed, offset = trim(body_crop)
        if trimmed is None or not discard_if_small(trimmed, bb):
            record["body_bbox"] = None
        else:
            ox, oy = offset
            th, tw = trimmed.shape[:2]
            record["body_bbox"] = [bb.x0 + ox, bb.y0 + oy, bb.x0 + ox + tw, bb.y0 + oy + th]
            record["body_offset"] = [ox, oy]
            record["body_crop"] = trimmed

    return record
