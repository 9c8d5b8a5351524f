"""Training-time augmentation and input dropout.

For paired inputs the flip and erase coin flips are shared between face
and body so the pair stays structurally consistent; bbox jitter is drawn
per box. Input dropout marks a side absent (the zero-image convention):
the face is only dropped when a usable body is present, and the two drops
can never fire together: one uniform draw decides body / face / neither,
which keeps the marginal probabilities exact.
"""

from __future__ import annotations

import numpy as np

from .fusion import CropPair
from .pairing import BBox
from .preprocess import CHANNEL_MEAN, letterbox, normalize_channels

# share of the crop that one random erase covers, drawn uniformly
ERASE_AREA_MIN = 0.02
ERASE_AREA_MAX = 0.2
# jitter draws tried before a collapsed box falls back to the unjittered one
JITTER_ATTEMPTS = 5


def jitter_bbox(bbox: BBox, magnitude, rng, img_w, img_h):
    """Uniform relative shift and scale, clamped to the image.

    A jitter that collapses the box is resampled up to `JITTER_ATTEMPTS`
    times, then the unjittered (clamped) box is used.
    """
    if magnitude == 0.0:
        return bbox.clamped(img_w, img_h)
    w = bbox.width
    h = bbox.height
    cx = (bbox.x0 + bbox.x1) / 2.0
    cy = (bbox.y0 + bbox.y1) / 2.0
    for _ in range(JITTER_ATTEMPTS):
        dx = rng.uniform(-magnitude, magnitude) * w
        dy = rng.uniform(-magnitude, magnitude) * h
        s = 1.0 + rng.uniform(-magnitude, magnitude)
        nw = w * s
        nh = h * s
        x0 = int(round(cx + dx - nw / 2.0))
        y0 = int(round(cy + dy - nh / 2.0))
        x1 = int(round(cx + dx + nw / 2.0))
        y1 = int(round(cy + dy + nh / 2.0))
        x0c, y0c = max(0, x0), max(0, y0)
        x1c, y1c = min(img_w, x1), min(img_h, y1)
        if x1c - x0c >= 1 and y1c - y0c >= 1:
            return BBox(x0c, y0c, x1c, y1c)
    return bbox.clamped(img_w, img_h)


def random_erase_region(crop, rng):
    """One random rectangle, `ERASE_AREA_MIN` to `ERASE_AREA_MAX` of the
    crop, filled with the dataset mean."""
    h, w = crop.shape[:2]
    area = h * w * rng.uniform(ERASE_AREA_MIN, ERASE_AREA_MAX)
    aspect = np.exp(rng.uniform(np.log(0.3), np.log(1.0 / 0.3)))
    eh = max(1, min(h, int(round(np.sqrt(area * aspect)))))
    ew = max(1, min(w, int(round(np.sqrt(area / aspect)))))
    y0 = int(rng.integers(0, h - eh + 1))
    x0 = int(rng.integers(0, w - ew + 1))
    out = crop.copy()
    out[y0:y0 + eh, x0:x0 + ew] = CHANNEL_MEAN
    return out


def augment(record, image, rng, config):
    """Jitter boxes, crop, shared flip, letterbox, shared erase, normalize.

    Returns a CropPair of normalized channels-last [S, S, 3] crops.
    """
    img_h, img_w = image.shape[:2]
    do_flip = config.hflip_prob > 0 and rng.random() < config.hflip_prob
    do_erase = config.erase_prob > 0 and rng.random() < config.erase_prob

    def one_side(bbox):
        if bbox is None:
            return None
        box = jitter_bbox(bbox, config.jitter, rng, img_w, img_h)
        # views: letterbox only reads its input, and the erase copies
        crop = image[box.y0:box.y1, box.x0:box.x1]
        if do_flip:
            crop = crop[:, ::-1]
        crop = letterbox(crop, config.image_side)
        if do_erase:
            crop = random_erase_region(crop, rng)
        return normalize_channels(crop)

    return CropPair(face=one_side(record.face_bbox), body=one_side(record.body_bbox))


def input_dropout(pair: CropPair, rng, config):
    """Randomly mark one side absent during training; never both.

    Single-input pairs pass through untouched (there is nothing to fall
    back on). One uniform draw picks body-drop / face-drop / keep, so the
    marginals equal the configured probabilities exactly.
    """
    if not (pair.face_present and pair.body_present):
        return pair
    u = rng.random()
    if u < config.body_input_dropout:
        return CropPair(face=pair.face, body=None)
    if u < config.body_input_dropout + config.face_input_dropout:
        return CropPair(face=None, body=pair.body)
    return pair
