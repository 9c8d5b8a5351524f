"""Detector output to model-ready crop pairs: Hungarian face-person
assignment, occluder removal, border trimming, size filtering, letterbox
and normalization.

Run: python demos/03_pairing_and_preprocess.py
"""

import numpy as np

from agegender import BBox, Detection, assign
from agegender.preprocess import (
    CHANNEL_MEAN,
    build_pair_record,
    detach_objects,
    letterbox,
    normalize_channels,
    trim,
)

rng = np.random.default_rng(0)

# a synthetic scene: two people side by side, one stray face
scene = rng.random((160, 200, 3)) * 0.4 + 0.5
detections = [
    Detection(BBox(30, 20, 60, 50), "face", 0.97),     # person A's face
    Detection(BBox(120, 25, 150, 55), "face", 0.95),   # person B's face
    Detection(BBox(10, 10, 90, 150), "person", 0.92),  # person A
    Detection(BBox(100, 15, 180, 155), "person", 0.90),  # person B, overlaps A slightly
    Detection(BBox(5, 120, 40, 160), "face", 0.55),    # stray face, bottom-left
]

faces = [d.bbox for d in detections if d.kind == "face"]
persons = [d.bbox for d in detections if d.kind == "person"]
result = assign(faces, persons)
print("== assignment ==")
for i, j in result.pairs:
    print(f"face {i} {faces[i].as_list()} -> person {j} {persons[j].as_list()}")
print("unmatched faces:", result.unmatched_faces, " unmatched persons:", result.unmatched_persons)

print("\n== body preprocessing for person A ==")
body = persons[0]
clamped = body.clamped(scene.shape[1], scene.shape[0])
crop = scene[clamped.y0:clamped.y1, clamped.x0:clamped.x1]
others = [d for k, d in enumerate(detections) if k not in (0, 2)]  # everyone but A and A's face
detached = detach_objects(clamped, crop, others)
occluded = np.all(detached == CHANNEL_MEAN, axis=-1).mean()
print(f"crop {crop.shape[1]}x{crop.shape[0]}, {occluded:.1%} of pixels filled by occluder removal")
trimmed, offset = trim(detached)
print(f"after trim: {trimmed.shape[1]}x{trimmed.shape[0]} at offset {offset}")

boxed = letterbox(trimmed, 64)
tensor = normalize_channels(boxed)
pad_fraction = float(np.all(tensor == 0.0, axis=-1).mean())
print(f"letterboxed to {boxed.shape[1]}x{boxed.shape[0]}, normalized tensor {tensor.shape}")
print(f"{pad_fraction:.1%} of the tensor is padding, and it normalizes to exactly zero")

print("\n== full record (source-image coordinates) ==")
record = build_pair_record(scene, faces[0], persons[0], detections, self_indices={0, 2})
print("face_bbox:", record["face_bbox"])
print("body_bbox (post-trim):", record["body_bbox"], " offset:", record["body_offset"])
