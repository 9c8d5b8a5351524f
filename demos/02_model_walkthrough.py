"""Shape-level walkthrough of the dual-input model: two patch embeddings,
cross-view feature fusion, the outlooker/transformer trunk, and the single
joint head that emits two gender logits plus one normalized age.

Run: python demos/02_model_walkthrough.py
"""

import time

import numpy as np

from agegender import CropPair, FaceBodyModel, tiny_config
from agegender import tensor as T
from agegender.fusion import enhance
from agegender.volo import patch_embed, trunk_forward

cfg = tiny_config()
model = FaceBodyModel(cfg)
rng = np.random.default_rng(0)

print(f"tiny config: {cfg.image_side}px input, patch {cfg.patch_size}, "
      f"stage-1 width {cfg.stage1_width}, stage-2 width {cfg.stage2_width}")
print(f"parameters: {model.parameter_count():,} in {len(model.params)} groups")

faces = rng.random((2, 64, 64, 3))  # channels-last crops
bodies = rng.random((2, 64, 64, 3))

print("\n== stage by stage ==")
f_tokens = patch_embed(model.params, "face_embed", T.constant(faces), cfg)
b_tokens = patch_embed(model.params, "body_embed", T.constant(bodies), cfg)
print("face tokens:", f_tokens.shape, " body tokens:", b_tokens.shape)
fused = enhance(model.params, f_tokens, b_tokens, cfg)
print("fused tokens (after cross-attention + concat + MLP):", fused.shape)
grid = T.reshape(fused, (2, cfg.grid_side, cfg.grid_side, cfg.stage1_width))
tokens = trunk_forward(model.params, grid, cfg)
print("trunk output tokens:", tokens.shape)
logits, age = model.forward_batch(faces, bodies)
print("head output: gender logits", logits.shape, " age_norm", age.shape)
print("sample 0 -> logits", logits.data[0], " age_norm", round(float(age.data[0]), 4))

print("\n== single-view inputs and the skip path ==")
face_only = CropPair(face=faces[0])
l1, a1 = model.forward_pair(face_only)
l2, a2 = model.forward_pair_skip(face_only)
print("face-only forward:      ", l1, a1)
print("face-only skip forward: ", l2, a2)
print("bit-identical:", np.array_equal(l1, l2) and a1 == a2)

batch = rng.random((64, 64, 64, 3))
zeros = np.zeros((64, 64, 64, 3))
model.forward_batch(zeros, batch)            # warm up
model.forward_batch(zeros, batch, skip="face")
t0 = time.perf_counter(); model.forward_batch(zeros, batch); t_full = time.perf_counter() - t0
t0 = time.perf_counter(); model.forward_batch(zeros, batch, skip="face"); t_skip = time.perf_counter() - t0
print(f"64-pair batch: full {t_full*1e3:.0f} ms vs skip {t_skip*1e3:.0f} ms")

print("\n== absent side == zero image, exactly ==")
explicit = CropPair(face=faces[0], body=np.zeros((64, 64, 3)))
l3, a3 = model.forward_pair(explicit)
print("flagged-absent vs explicit-zero bit-identical:", np.array_equal(l1, l3) and a1 == a3)
