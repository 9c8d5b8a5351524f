import threading
from functools import partial

import numpy as np
import pytest
from scipy.special import erf

from oracles import (
    attention_oracle,
    drop_path_oracle,
    dropout_oracle,
    fold_oracle,
    fused_linear_oracle,
    gelu_oracle,
    linear_oracle,
    outlook_attention_oracle,
    overlap_counts_oracle,
    softmax_oracle,
    unfold_oracle,
    window_columns_oracle,
    window_fold_oracle,
)

from agegender import Tape, Tensor, constant, parameter
from agegender.errors import DimensionError, NumericalError, TapeError
from agegender.gradcheck import check_gradients, numeric_grad, relative_error
from agegender import tensor as T
from agegender import volo


def fd_check(build_loss, params, tol, h=1e-5):
    worst, per_param = check_gradients(build_loss, params, h=h)
    assert worst < tol, f"finite differences disagree: {per_param}"


def test_check_gradients_keeps_a_nan_error():
    # max() would drop the NaN and report 0 for a check that compared nothing
    x = parameter(np.array([1.0, 2.0]))
    worst, per_param = check_gradients(lambda: (x * x).sum(), {"x": x}, h=float("nan"))
    assert np.isnan(worst) and np.isnan(per_param["x"])


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    a = constant([[1.0, 0.0], [0.0, 1.0]])
    b = constant([[2.0, 3.0], [4.0, 5.0]])
    np.testing.assert_array_equal((a @ b).data, b.data)


def test_matmul_hand():
    out = constant([[1.0, 2.0]]) @ constant([[3.0], [4.0]])
    np.testing.assert_array_equal(out.data, [[11.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
        constant(np.zeros((2, 3))) @ constant(np.zeros((2, 3)))


def test_matmul_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    a = parameter(rng.standard_normal((4, 4)))
    b = parameter(rng.standard_normal((4, 4)))
    fd_check(lambda: (a @ b).sum(), {"a": a, "b": b}, tol=1e-6)


def test_matmul_batched_grad():
    rng = np.random.default_rng(8)
    a = parameter(rng.standard_normal((3, 2, 4)))
    b = parameter(rng.standard_normal((3, 4, 5)))
    fd_check(lambda: (a @ b).sum(), {"a": a, "b": b}, tol=1e-6)


def test_matmul_broadcast_weight_grad():
    # [B, T, C] @ [C, D]: weight grad sums over the batch
    rng = np.random.default_rng(9)
    x = parameter(rng.standard_normal((2, 3, 4)))
    w = parameter(rng.standard_normal((4, 5)))
    fd_check(lambda: (x @ w).sum(), {"x": x, "w": w}, tol=1e-6)


# ---------------------------------------------------------------------------
# softmax / log_softmax


def test_softmax_symmetry():
    out = T.softmax(constant([0.0, 0.0]), axis=-1)
    np.testing.assert_allclose(out.data, [0.5, 0.5], rtol=0, atol=0)


def test_softmax_no_overflow():
    out = T.softmax(constant([1000.0, 0.0]), axis=-1)
    np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    x = constant(rng.standard_normal((5, 7)) * 10)
    out = T.softmax(x, axis=-1)
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(5), atol=1e-12)
    assert (out.data >= 0).all()


def test_softmax_grad():
    rng = np.random.default_rng(1)
    x = parameter(rng.standard_normal((3, 5)))
    w = constant(rng.standard_normal((3, 5)))
    fd_check(lambda: (T.softmax(x, axis=-1) * w).sum(), {"x": x}, tol=1e-6)


def test_log_softmax_grad():
    rng = np.random.default_rng(2)
    x = parameter(rng.standard_normal((4, 3)))
    w = constant(rng.standard_normal((4, 3)))
    fd_check(lambda: (T.log_softmax(x, axis=-1) * w).sum(), {"x": x}, tol=1e-6)


# ---------------------------------------------------------------------------
# layer norm


def test_layer_norm_constant_row_is_zero():
    x = constant(np.full((2, 4), 3.7))
    out = T.layer_norm(x, constant(np.ones(4)), constant(np.zeros(4)))
    np.testing.assert_allclose(out.data, np.zeros((2, 4)), atol=1e-9)


def test_layer_norm_hand():
    out = T.layer_norm(constant([[1.0, 3.0]]), constant(np.ones(2)), constant(np.zeros(2)))
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-6)


def test_layer_norm_param_shape_error():
    with pytest.raises(DimensionError):
        T.layer_norm(constant(np.zeros((2, 4))), constant(np.ones(3)), constant(np.zeros(3)))


def test_layer_norm_grad():
    rng = np.random.default_rng(3)
    x = parameter(rng.standard_normal((3, 6)))
    gamma = parameter(rng.standard_normal(6))
    beta = parameter(rng.standard_normal(6))
    w = constant(rng.standard_normal((3, 6)))
    fd_check(
        lambda: (T.layer_norm(x, gamma, beta) * w).sum(),
        {"x": x, "gamma": gamma, "beta": beta},
        tol=1e-5,
    )


# ---------------------------------------------------------------------------
# elementwise / structural


def test_gelu_zero():
    assert T.gelu(constant([0.0])).data[0] == 0.0


def test_gelu_grad():
    rng = np.random.default_rng(4)
    x = parameter(rng.standard_normal(10))
    fd_check(lambda: T.gelu(x).sum(), {"x": x}, tol=1e-6)


def test_gelu_is_the_exact_gelu_within_4_8e_4():
    x = np.concatenate([np.linspace(-40.0, 40.0, 80001), [1e-30, -1e-30, 40.0, -40.0, 0.0]])
    exact = 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))
    assert np.abs(T.gelu(constant(x)).data - exact).max() <= 4.8e-4


@pytest.mark.parametrize("dtype, big", [(np.float32, 1e20), (np.float64, 1e200)])
def test_gelu_of_huge_inputs_is_x_or_minus_zero_with_gradient_1_or_0(dtype, big):
    x = parameter(np.array([big, -big], dtype=dtype))
    with Tape() as tape:
        out = T.gelu(x)
        tape.backward(out.sum())
    assert out.data.dtype == dtype and out.data[0] == x.data[0]
    assert out.data[1] == 0.0 and np.signbit(out.data[1])
    assert x.grad.tobytes() == np.array([1.0, 0.0], dtype=dtype).tobytes()


def test_add_mul_broadcast_grads():
    rng = np.random.default_rng(5)
    x = parameter(rng.standard_normal((3, 4)))
    b = parameter(rng.standard_normal(4))
    fd_check(lambda: ((x + b) * (x * 0.5)).sum(), {"x": x, "b": b}, tol=1e-6)


def test_concat_shapes():
    a = constant(np.zeros((2, 3)))
    b = constant(np.zeros((2, 5)))
    assert T.concat([a, b], axis=-1).shape == (2, 8)


def test_concat_grad():
    rng = np.random.default_rng(6)
    a = parameter(rng.standard_normal((2, 3)))
    b = parameter(rng.standard_normal((2, 5)))
    w = constant(rng.standard_normal((2, 8)))
    fd_check(lambda: (T.concat([a, b], axis=-1) * w).sum(), {"a": a, "b": b}, tol=1e-6)


def test_narrow_and_grad():
    rng = np.random.default_rng(7)
    x = parameter(rng.standard_normal((3, 5)))
    out = T.narrow(x, 1, 1, 2)
    assert out.shape == (3, 2)
    np.testing.assert_array_equal(out.data, x.data[:, 1:3])
    fd_check(lambda: (T.narrow(x, 1, 1, 2) * 2.0).sum(), {"x": x}, tol=1e-6)


def test_transpose_reshape_are_copies():
    x = constant(np.arange(6.0).reshape(2, 3))
    t = T.transpose(x)
    t.data[0, 0] = 99.0
    assert x.data[0, 0] == 0.0
    r = T.reshape(x, (3, 2))
    r.data[0, 0] = 99.0
    assert x.data[0, 0] == 0.0


def test_sum_mean_grads():
    rng = np.random.default_rng(8)
    x = parameter(rng.standard_normal((4, 3)))
    fd_check(lambda: T.tsum(x, axis=0).mean(), {"x": x}, tol=1e-6)
    fd_check(lambda: T.tmean(x, axis=1).sum(), {"x": x}, tol=1e-6)


# ---------------------------------------------------------------------------
# space_to_depth, and the oracle's taped windows


@pytest.mark.parametrize("k,stride,pad", [(3, 1, 1), (2, 2, 0), (3, 1, 0), (2, 1, 1), (5, 1, 2)])
def test_fold_unfold_equals_overlap_count_scaling(k, stride, pad):
    # the outlook composite divides its fold by these counts
    rng = np.random.default_rng(10)
    for h, w in [(5, 5), (8, 6), (8, 8), (k, k)]:
        hp = h + 2 * pad
        if k > hp or (hp - k) % stride or (w + 2 * pad - k) % stride:
            continue
        x = constant(rng.standard_normal((2, h, w, 3)))
        back = fold_oracle(unfold_oracle(x, k, stride, pad), (h, w), k, stride, pad)
        counts = overlap_counts_oracle(h, w, k, stride, pad)
        np.testing.assert_allclose(back.data, x.data * counts[None, :, :, None], atol=1e-12)


@pytest.mark.parametrize("h,w,k", [(4, 4, 3), (8, 8, 3), (5, 6, 3), (5, 6, 5), (28, 28, 3), (2, 3, 1)])
def test_outlook_mixing_counts_are_the_enumerated_window_counts(h, w, k):
    inv_counts = T._outlook_mixing(h, w, k)[3]
    assert inv_counts.tobytes() == (1.0 / overlap_counts_oracle(h, w, k, 1, (k - 1) // 2)).tobytes()


# (k, stride, pad, h, w): overlapping, tiling (stride == k, as in the patch
# embedding and the downsample), a single window, and strided with padding
WINDOW_CASES = [(3, 1, 1, 5, 6), (2, 2, 0, 4, 6), (8, 8, 0, 16, 8), (3, 3, 0, 3, 3), (3, 2, 1, 7, 5), (1, 1, 0, 2, 3)]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("k,stride,pad,h,w", WINDOW_CASES)
def test_unfold_fold_are_bitwise_the_slice_loops(k, stride, pad, h, w, dtype):
    # the oracle's taped windows are each other's adjoint: the tape
    # gradient of one is the other's slice loop
    rng = np.random.default_rng(12)
    x = parameter(rng.standard_normal((2, h, w, 3)).astype(dtype))
    g = rng.standard_normal(window_columns_oracle(x.data, k, stride, pad).shape).astype(dtype)
    with Tape() as tape:
        cols = unfold_oracle(x, k, stride, pad)
        tape.backward((cols * constant(g)).sum())
    assert cols.data.dtype == dtype and x.grad.dtype == dtype
    assert x.grad.tobytes() == window_fold_oracle(g, (h, w), k, stride, pad).tobytes()
    g = parameter(g)
    with Tape() as tape:
        tape.backward((fold_oracle(g, (h, w), k, stride, pad) * constant(x.data)).sum())
    assert g.grad.dtype == dtype and g.grad.tobytes() == window_columns_oracle(x.data, k, stride, pad).tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("k,stride,pad,h,w", [case for case in WINDOW_CASES if case[1] == case[0]])
def test_space_to_depth_is_bitwise_the_slice_loops(k, stride, pad, h, w, dtype):
    # patches of side k are the window columns with stride k, reshaped
    rng = np.random.default_rng(13)
    x = parameter(rng.standard_normal((2, h, w, 3)).astype(dtype))
    cols = window_columns_oracle(x.data, k, stride, pad)
    g = rng.standard_normal(cols.shape).astype(dtype)
    with Tape() as tape:
        out = T.space_to_depth(x, k)
        tape.backward((out * constant(g.reshape(out.shape))).sum())
    assert out.shape == (2, (h // k) * (w // k), k * k * 3)
    assert out.data.dtype == dtype and out.data.tobytes() == cols.tobytes()
    assert x.grad.dtype == dtype and x.grad.tobytes() == window_fold_oracle(g, (h, w), k, stride, pad).tobytes()
    assert not np.shares_memory(out.data, x.data)


def test_space_to_depth_grad():
    rng = np.random.default_rng(14)
    x = parameter(rng.standard_normal((2, 4, 6, 3)))
    w = constant(rng.standard_normal((2, 6, 12)))
    fd_check(lambda: (T.space_to_depth(x, 2) * w).sum(), {"x": x}, tol=1e-6)


def test_space_to_depth_rejects_sizes_not_divisible_by_p():
    x = constant(np.zeros((1, 4, 6, 1)))
    for p in (3, 4, 0):
        with pytest.raises(DimensionError):
            T.space_to_depth(x, p)
    with pytest.raises(DimensionError):
        T.space_to_depth(constant(np.zeros((4, 6, 1))), 2)


def test_float32_and_float64_are_kept_everything_else_is_float64():
    for data, dtype in [
        (np.ones(3, dtype=np.float32), np.float32),
        (np.ones(3), np.float64),
        (np.ones(3, dtype=np.float16), np.float64),
        (np.ones(3, dtype=np.int32), np.float64),
        ([1, 2], np.float64),
        (2.0, np.float64),
    ]:
        assert Tensor(data).data.dtype == dtype
    x = parameter(np.ones((2, 2), dtype=np.float32))
    for out in (x + 1.0, 1 - x, x * 2.0, -x, T.gelu(x), x.mean()):
        assert out.data.dtype == np.float32


def test_unfold_fold_grads():
    # the outlook composite takes its gradients through the oracle's taped windows
    rng = np.random.default_rng(11)
    x = parameter(rng.standard_normal((1, 4, 4, 2)))
    w = constant(rng.standard_normal((1, 16, 9, 2)))
    fd_check(lambda: (unfold_oracle(x, 3, 1, 1) * w).sum(), {"x": x}, tol=1e-6)
    cols = parameter(rng.standard_normal((1, 16, 9, 2)))
    wf = constant(rng.standard_normal((1, 4, 4, 2)))
    fd_check(lambda: (fold_oracle(cols, (4, 4), 3, 1, 1) * wf).sum(), {"cols": cols}, tol=1e-6)


# ---------------------------------------------------------------------------
# fused layers vs the generic-op composites they replace


def _outlook(k, heads):
    return partial(T.outlook_attention, k=k, heads=heads), partial(outlook_attention_oracle, k=k, heads=heads)


def _attention(heads):
    return partial(T.attention, heads=heads), partial(attention_oracle, heads=heads)


# name: (fused op, oracle, input shapes)
FUSED = {
    "linear_2d": (T.linear, linear_oracle, [(5, 4), (4, 3), (3,)]),
    "linear_4d": (T.linear, linear_oracle, [(2, 3, 5, 4), (4, 3), (3,)]),
    "outlook_1_head": (*_outlook(3, 1), [(2, 5, 4, 81), (2, 5, 4, 6)]),
    "outlook_2_heads": (*_outlook(3, 2), [(2, 4, 5, 162), (2, 4, 5, 8)]),
    "outlook_k5": (*_outlook(5, 1), [(1, 5, 6, 625), (1, 5, 6, 3)]),
    "attention_4_heads": (*_attention(4), [(2, 6, 8)] * 3),
    # queries from one sequence, keys and values from another, as in the
    # enhancer; the lengths differ here too
    "attention_cross": (*_attention(2), [(2, 3, 8), (2, 7, 8), (2, 7, 8)]),
}


def _fused_inputs(case, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape) for shape in FUSED[case][2]], rng


def _taped_run(fn, arrays, weight):
    inputs = [parameter(a.copy()) for a in arrays]
    with Tape() as tape:
        out = fn(*inputs)
        tape.backward((out * constant(weight)).sum())
    return out, inputs


def _assert_close(got, want, rtol):
    # elementwise relative, with a floor of rtol times the largest |want|
    # for entries near zero
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max())


@pytest.mark.parametrize("case", sorted(FUSED))
def test_fused_op_is_bitwise_its_composite(case):
    # outlook attention sums its windows through one L x L mixing matrix,
    # in another order than the composite's fold: it is held to the
    # composite within 1e-12 relative, values and both gradients
    fused, oracle, _ = FUSED[case]
    arrays, rng = _fused_inputs(case, 20)
    weight = rng.standard_normal(oracle(*map(constant, arrays)).shape)
    got, got_inputs = _taped_run(fused, arrays, weight)
    want, want_inputs = _taped_run(oracle, arrays, weight)
    if case.startswith("outlook"):
        _assert_close(got.data, want.data, 1e-12)
        for g, w in zip(got_inputs, want_inputs):
            _assert_close(g.grad, w.grad, 1e-12)
        return
    assert got.shape == want.shape and got.data.tobytes() == want.data.tobytes()
    for g, w in zip(got_inputs, want_inputs):
        assert g.grad.shape == w.grad.shape and g.grad.tobytes() == w.grad.tobytes()


OUTLOOK_CASES = sorted(case for case in FUSED if case.startswith("outlook"))


@pytest.mark.parametrize("case", OUTLOOK_CASES)
def test_outlook_attention_in_float32_is_the_composite_within_1e_5(case):
    fused, oracle, _ = FUSED[case]
    arrays, rng = _fused_inputs(case, 30)
    arrays = [a.astype(np.float32) for a in arrays]
    weight = rng.standard_normal(arrays[1].shape).astype(np.float32)
    got, got_inputs = _taped_run(fused, arrays, weight)
    want, want_inputs = _taped_run(oracle, [a.astype(np.float64) for a in arrays], weight.astype(np.float64))
    assert got.data.dtype == np.float32
    _assert_close(got.data, want.data, 1e-5)
    for g, w in zip(got_inputs, want_inputs):
        assert g.grad.dtype == np.float32
        _assert_close(g.grad, w.grad, 1e-5)


# (logits, values, upstream weight) dtypes: one float32 and one float64
# operand
OUTLOOK_MIXED = [
    (np.float32, np.float64, np.float64),
    (np.float64, np.float32, np.float64),
    (np.float32, np.float64, np.float32),
    (np.float64, np.float32, np.float32),
]


@pytest.mark.parametrize("dtypes", OUTLOOK_MIXED)
def test_outlook_attention_with_mixed_dtypes_promotes_as_the_composite(dtypes):
    fused, oracle, _ = FUSED["outlook_2_heads"]
    arrays, rng = _fused_inputs("outlook_2_heads", 31)
    arrays = [a.astype(dtype) for a, dtype in zip(arrays, dtypes)]
    weight = rng.standard_normal(arrays[1].shape).astype(dtypes[2])
    got, got_inputs = _taped_run(fused, arrays, weight)
    want, want_inputs = _taped_run(oracle, arrays, weight)
    assert got.data.dtype == want.data.dtype == np.float64
    _assert_close(got.data, want.data, 1e-5)
    for g, w in zip(got_inputs, want_inputs):
        assert g.grad.dtype == w.grad.dtype
        _assert_close(g.grad, w.grad, 1e-5)


# k=5 puts 25-wide softmax rows in the logits' gradient, and some entries
# sit near 1e-8, where central differences carry their noise floor (one
# ulp of the loss over 2h); that case is held to its composite bitwise
@pytest.mark.parametrize("case", sorted(set(FUSED) - {"outlook_k5"}))
def test_fused_op_grads_match_finite_differences(case):
    fused = FUSED[case][0]
    arrays, rng = _fused_inputs(case, 21)
    inputs = {f"input{i}": parameter(a) for i, a in enumerate(arrays)}
    weight = constant(rng.standard_normal(fused(*inputs.values()).shape))
    fd_check(lambda: (fused(*inputs.values()) * weight).sum(), inputs, tol=1e-4)


@pytest.mark.parametrize("case", sorted(FUSED))
def test_fused_op_is_one_node_and_skips_inputs_without_grad(case):
    fused = FUSED[case][0]
    arrays, rng = _fused_inputs(case, 22)
    for tracked in range(len(arrays)):
        inputs = [parameter(a) if i == tracked else constant(a) for i, a in enumerate(arrays)]
        with Tape() as tape:
            out = fused(*inputs)
        (node,) = tape._nodes
        grads = node.backward(rng.standard_normal(out.shape))
        assert [g is not None for g in grads] == [i == tracked for i in range(len(arrays))]
        assert grads[tracked].shape == arrays[tracked].shape


@pytest.mark.parametrize("case", sorted(FUSED))
def test_fused_op_writes_no_input_buffer(case):
    fused = FUSED[case][0]
    arrays, rng = _fused_inputs(case, 23)
    inputs = [parameter(a) for a in arrays]
    before = [a.tobytes() for a in arrays]
    with Tape() as tape:
        out = fused(*inputs)
    out_before = out.data.tobytes()
    g = rng.standard_normal(out.shape)
    g_before = g.tobytes()
    tape._nodes[0].backward(g)
    assert [t.data.tobytes() for t in inputs] == before
    assert out.data.tobytes() == out_before and g.tobytes() == g_before


def test_fused_op_shape_errors():
    with pytest.raises(DimensionError):
        T.linear(constant(np.zeros((2, 4))), constant(np.zeros((3, 5))), constant(np.zeros(5)))
    with pytest.raises(DimensionError):
        T.outlook_attention(constant(np.zeros((1, 4, 4, 80))), constant(np.zeros((1, 4, 4, 2))), 3, 1)
    with pytest.raises(DimensionError):
        T.outlook_attention(constant(np.zeros((1, 4, 4, 16))), constant(np.zeros((1, 4, 4, 2))), 2, 1)
    with pytest.raises(DimensionError):
        T.attention(constant(np.zeros((1, 3, 8))), constant(np.zeros((1, 4, 6))), constant(np.zeros((1, 4, 6))), 2)
    with pytest.raises(DimensionError):
        T.attention(constant(np.zeros((1, 3, 6))), constant(np.zeros((1, 4, 6))), constant(np.zeros((1, 4, 6))), 4)


# ---------------------------------------------------------------------------
# in-place kernels against their out-of-place oracles, bit for bit


def _same_bytes(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# outlook logits [B, L, heads, kk, kk], attention scores [B, heads, Tq, Tk],
# and short, long and 1-wide rows
SOFTMAX_SHAPES = [(2, 64, 1, 9, 9), (2, 16, 2, 9, 9), (2, 4, 16, 16), (2, 2, 64, 64), (3, 1), (1, 7), (5, 300), (4, 3, 2)]


@pytest.mark.parametrize("shape", SOFTMAX_SHAPES)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_softmax_is_bitwise_the_oracle_on_every_axis(shape, dtype):
    rng = np.random.default_rng([24, len(shape), shape[-1]])
    x = (rng.standard_normal(shape) * 8).astype(dtype)
    for axis in range(-len(shape), len(shape)):
        _same_bytes(T._softmax(x, axis), softmax_oracle(x, axis))
        _same_bytes(T._softmax(x[..., ::-1], axis), softmax_oracle(x[..., ::-1], axis))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_softmax_is_bitwise_the_oracle_on_nan_inf_and_signed_zero_rows(dtype):
    rng = np.random.default_rng(25)
    x = rng.standard_normal((12, 9)).astype(dtype)
    x[0, 3] = np.nan
    x[1, :] = np.nan
    x[2, 5] = np.inf
    x[3, 0] = -np.inf
    x[4, :] = -np.inf
    x[5, :] = np.inf
    x[6, [1, 4]] = [np.inf, -np.inf]
    x[7, :] = [0.0, -0.0] * 4 + [-0.0]
    x[8, :] = -0.0
    x[9, 2] = np.finfo(dtype).max
    x[10, 7] = -np.nan
    with np.errstate(invalid="ignore"):
        for axis in (-1, 0):
            _same_bytes(T._softmax(x, axis), softmax_oracle(x, axis))
        _same_bytes(T.softmax(constant(x), axis=-1).data, softmax_oracle(x))


# (dtypes of the inputs, dtype of the upstream weight): mixed cases must
# still promote as the out-of-place expressions do
GELU_DTYPES = [(np.float64, np.float64), (np.float32, np.float32), (np.float32, np.float64)]


@pytest.mark.parametrize("x_dtype, g_dtype", GELU_DTYPES)
def test_gelu_and_its_gradient_are_bitwise_the_oracle(x_dtype, g_dtype):
    rng = np.random.default_rng(26)
    x = (rng.standard_normal((4, 16, 48)) * 3).astype(x_dtype)
    x[0, 0, :6] = [0.0, -0.0, 40.0, -40.0, 1e-30, -1e-30]
    weight = rng.standard_normal(x.shape).astype(g_dtype)
    got, (got_x,) = _taped_run(T.gelu, [x], weight)
    want, (want_x,) = _taped_run(gelu_oracle, [x], weight)
    _same_bytes(got.data, want.data)
    assert got.data.dtype == x_dtype
    _same_bytes(got_x.grad, want_x.grad)
    assert got_x.grad.dtype == np.result_type(x_dtype, g_dtype)


# (x, w, b) dtypes; the float32 GEMM meeting a float64 bias must promote
LINEAR_DTYPES = [(np.float64,) * 3, (np.float32,) * 3, (np.float32, np.float32, np.float64), (np.float64, np.float32, np.float32)]


@pytest.mark.parametrize("dtypes", LINEAR_DTYPES)
@pytest.mark.parametrize("shapes", [[(5, 4), (4, 3), (3,)], [(2, 3, 64, 64), (64, 192), (192,)], [(1, 1), (1, 1), (1,)]])
def test_linear_and_its_gradients_are_bitwise_the_oracle(shapes, dtypes):
    rng = np.random.default_rng([27, len(shapes[0])])
    arrays = [rng.standard_normal(shape).astype(dtype) for shape, dtype in zip(shapes, dtypes)]
    expected = np.result_type(*dtypes)
    weight = rng.standard_normal(shapes[0][:-1] + shapes[1][1:]).astype(expected)
    got, got_inputs = _taped_run(T.linear, arrays, weight)
    want, want_inputs = _taped_run(fused_linear_oracle, arrays, weight)
    _same_bytes(got.data, want.data)
    assert got.data.dtype == expected
    for g, w in zip(got_inputs, want_inputs):
        _same_bytes(g.grad, w.grad)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("rate", [0.32, 0.1, 0.5, 0.9])
def test_dropout_masks_are_bitwise_the_oracle(dtype, rate):
    x = constant(np.random.default_rng(28).standard_normal((4, 64, 192)).astype(dtype))
    for drop, oracle, field in ((volo._dropout, dropout_oracle, "drop_rate"), (volo._drop_path, drop_path_oracle, "drop_path_rate")):
        got_ctx = volo.TrainContext(rng=np.random.default_rng(29), **{field: rate})
        want_ctx = volo.TrainContext(rng=np.random.default_rng(29), **{field: rate})
        for _ in range(3):
            _same_bytes(drop(x, got_ctx).data, oracle(x, want_ctx).data)
        assert got_ctx.rng.random() == want_ctx.rng.random()  # the same draws were made
    mask = volo._mask(np.array([0.0, rate, 1.0 - rate, 0.999999]), 1.0 - rate, np.dtype(dtype))
    assert mask.dtype == dtype
    _same_bytes(mask, ((np.array([0.0, rate, 1.0 - rate, 0.999999]) < 1.0 - rate) / (1.0 - rate)).astype(dtype))


# ---------------------------------------------------------------------------
# tape & backward semantics


def test_backward_sum_gives_ones():
    x = parameter(np.zeros((2, 3)))
    with Tape() as tape:
        tape.backward(x.sum())
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_sum_of_squares():
    x = parameter([1.0, 2.0])
    with Tape() as tape:
        tape.backward((x * x).sum())
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_requires_scalar():
    x = parameter(np.ones(3))
    with Tape() as tape:
        y = x * 2.0
        with pytest.raises(TapeError):
            tape.backward(y)


def test_double_backward_without_reset_errors():
    x = parameter([2.0])
    with Tape() as tape:
        loss = (x * x).sum()
        tape.backward(loss)
        with pytest.raises(TapeError):
            tape.backward(loss)
    tape.reset()
    x.zero_grad()
    with Tape() as tape:
        tape.backward((x * x).sum())
    np.testing.assert_array_equal(x.grad, [4.0])


def test_empty_tape_errors():
    with Tape() as tape:
        with pytest.raises(TapeError):
            tape.backward(constant(1.0))


def test_tapes_do_not_nest():
    with Tape():
        with pytest.raises(TapeError):
            with Tape():
                pass


def test_each_thread_has_its_own_tape():
    # a second thread can open a tape while this one holds one, and ops on
    # either thread record only onto their own thread's tape
    x = parameter([3.0])
    y = parameter([2.0])
    errors = []

    def worker():
        try:
            with Tape() as tape:
                tape.backward((y * y).sum())
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    with Tape() as tape:
        loss = (x * x).sum()
        n = len(tape)
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert len(tape) == n
        tape.backward(loss)
    assert errors == []
    np.testing.assert_array_equal(x.grad, [6.0])
    np.testing.assert_array_equal(y.grad, [4.0])


def test_no_tape_means_no_tracking():
    x = parameter([1.0, 2.0])
    y = x * x
    assert not y.requires_grad
    assert y.grad is None


def test_grad_accumulates_across_tapes():
    x = parameter([3.0])
    for _ in range(2):
        with Tape() as tape:
            tape.backward((x * x).sum())
    np.testing.assert_array_equal(x.grad, [12.0])


def test_frozen_leaf_gets_no_grad():
    x = parameter([1.0, 2.0])
    w = Tensor([2.0, 2.0], requires_grad=False)
    with Tape() as tape:
        tape.backward((x * w).sum())
    assert w.grad is None
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])


# ---------------------------------------------------------------------------
# misc


def test_determinism_bit_identical():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((6, 6))

    def run():
        x = parameter(a.copy())
        with Tape() as tape:
            y = T.softmax(T.gelu(x @ x), axis=-1).sum()
            tape.backward(y)
        return y.data.copy(), x.grad.copy()

    y1, g1 = run()
    y2, g2 = run()
    assert np.array_equal(y1, y2) and np.array_equal(g1, g2)


def test_check_finite():
    T.check_finite(constant([1.0, 2.0]))
    with pytest.raises(NumericalError):
        T.check_finite(constant([1.0, np.nan]), "grad of w")


def test_relative_error_floor():
    assert relative_error([0.0], [0.0]) == 0.0
    assert relative_error([1e-12], [0.0]) < 1e-3


def test_numeric_grad_simple():
    x = parameter([3.0])
    g = numeric_grad(lambda: float(x.data[0] ** 2), x)
    np.testing.assert_allclose(g, [6.0], rtol=1e-8)
