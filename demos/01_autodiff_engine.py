"""Tour of the tensor engine: values, the gradient tape, and verifying
every analytic gradient against central finite differences.

Run: python demos/01_autodiff_engine.py
"""

import numpy as np

from agegender import Tape, constant, parameter
from agegender import tensor as T
from agegender.gradcheck import check_gradients

rng = np.random.default_rng(0)

print("== values ==")
a = constant([[1.0, 2.0], [3.0, 4.0]])
b = constant([[0.5, 0.0], [0.0, 0.5]])
print("a @ b =\n", (a @ b).data)
print("softmax of [1000, 0] (stable):", T.softmax(constant([1000.0, 0.0])).data)
print("gelu(0) =", T.gelu(constant([0.0])).data)

print("\n== gradients ==")
x = parameter(rng.standard_normal((3, 3)))
with Tape() as tape:
    y = (T.softmax(x @ x, axis=-1) * constant(rng.standard_normal((3, 3)))).sum()
    tape.backward(y)
print("loss:", y.item())
print("dL/dx:\n", x.grad)

print("\n== the tape runs backward exactly once ==")
with Tape() as tape:
    loss = (x * x).sum()
    tape.backward(loss)
    try:
        tape.backward(loss)
    except Exception as exc:
        print("second backward ->", type(exc).__name__, "-", exc)

print("\n== finite-difference verification ==")
x = parameter(rng.standard_normal((4, 4)))
gamma = parameter(np.ones(4))
beta = parameter(np.zeros(4))
w = constant(rng.standard_normal((4, 4)))


def build_loss():
    h = T.gelu(T.layer_norm(x @ x, gamma, beta))
    return (h * w).mean()


worst, per_param = check_gradients(build_loss, {"x": x, "gamma": gamma, "beta": beta})
for name, err in per_param.items():
    print(f"  {name}: max relative error {err:.2e}")
print(f"worst: {worst:.2e}  (threshold 1e-4)")

print("\n== patches: space_to_depth cuts a grid into non-overlapping p x p blocks ==")
img = constant(np.arange(16.0).reshape(1, 4, 4, 1))
patches = T.space_to_depth(img, 2)  # [1, 4 tokens, 2*2*1 features]
print("4x4 grid:\n", img.data[0, :, :, 0])
print("2x2 patches, one token per row:\n", patches.data[0])

print("\n== local windows: outlook attention over 3x3 windows ==")
k = 3
ones = constant(np.ones((1, 6, 6, 2)))
equal = constant(np.zeros((1, 6, 6, k**4)))  # equal logits: each window row averages its 9 values
out = T.outlook_attention(equal, ones, k=k, heads=1)
print("on a grid of ones, zero padded, averaged over the windows covering each position:")
print(np.round(out.data[0, :, :, 0], 3))
