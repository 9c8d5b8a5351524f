"""Dense float32/float64 tensors with tape-based reverse-mode differentiation.

Ops record onto the active :class:`Tape` (a context manager). The active
tape is per thread (a context variable), so an op only ever records onto
its own thread's tape. Without an active tape ops only compute values,
which doubles as the inference fast path.

Three layers are fused ops, each one tape node with an analytic backward:
`linear` (x @ W + b over N-d x), `outlook_attention` (VOLO's attention
over overlapping k x k windows, averaged where they overlap) and
`attention` (multi-head scaled dot-product attention). `linear` and
`attention` keep the operand layouts and reduction axes of the generic-op
composite they replace, so values and gradients are bitwise those of the
composite. `outlook_attention` applies one L x L mixing matrix per image
and head instead, which sums in another order. Patches and 2 x 2 token
merges are `space_to_depth`, a re-layout of non-overlapping blocks.

Storage is row-major. A float32 or float64 array is kept in its own
dtype and every other input (lists, ints, bools, float16) becomes float64;
ops compute in their operands' dtype, so a model whose parameters and
constants are all float32 runs in float32 end to end. Constants such as
Python floats never promote (NumPy 2 scalar rules). Structural ops
(reshape, transpose, concat, narrow, space_to_depth) copy instead of
aliasing: correctness over speed at desk scale. No op writes into an
input buffer; an op may reuse a temporary of its own in place, in the
operation order and result dtype of the out-of-place expression, so the
bits are the same.
"""

from __future__ import annotations

import contextvars
import functools
import math

import numpy as np
from numpy.lib.array_utils import normalize_axis_index
from scipy.sparse import csr_matrix

from .errors import DimensionError, NumericalError, TapeError

# Python floats: a NumPy float64 scalar would promote float32 arrays
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_GELU_CUBIC = 0.044715
_GELU_CLAMP = 10.0

_ACTIVE_TAPE = contextvars.ContextVar("agegender_active_tape", default=None)


def _float_dtype(dtype):
    """float32 stays float32; any other dtype computes in float64."""
    return np.float32 if dtype.kind == "f" and dtype.itemsize == 4 else np.float64


class Tensor:
    """N-dimensional float32 or float64 array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False):
        data = np.asarray(data)
        self.data = np.array(data, dtype=_float_dtype(data.dtype), order="C")
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise DimensionError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # operator sugar; all real work happens in the module-level ops
    def __add__(self, other):
        return add(self, _wrap(other, self))

    def __radd__(self, other):
        return add(_wrap(other, self), self)

    def __sub__(self, other):
        return sub(self, _wrap(other, self))

    def __rsub__(self, other):
        return sub(_wrap(other, self), self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, other)
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes or None)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


def _wrap(x, like):
    # a Python number takes the other operand's dtype, as NumPy's weak
    # scalars do, so `t + 1.0` stays float32 for a float32 `t`
    if isinstance(x, Tensor):
        return x
    if isinstance(x, (int, float)):
        return Tensor(np.asarray(x, dtype=like.data.dtype))
    return Tensor(x)


def constant(data):
    """An untracked tensor (inputs, targets, fixed masks)."""
    return Tensor(data, requires_grad=False)


def parameter(data):
    """A tracked leaf tensor."""
    return Tensor(data, requires_grad=True)


class _Node:
    __slots__ = ("inputs", "output", "backward")

    def __init__(self, inputs, output, backward):
        self.inputs = inputs
        self.output = output
        self.backward = backward


class Tape:
    """Records ops in execution order; replays them in reverse on backward.

    A tape is active only in the thread that entered it; every thread can
    have its own. A tape can run backward exactly once; call :meth:`reset`
    (or build a fresh tape) before reusing it.
    """

    def __init__(self):
        self._nodes = []
        self._used = False

    def __enter__(self):
        if _ACTIVE_TAPE.get() is not None:
            raise TapeError("tapes do not nest")
        _ACTIVE_TAPE.set(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE_TAPE.set(None)
        return False

    def __len__(self):
        return len(self._nodes)

    def reset(self):
        self._nodes.clear()
        self._used = False

    def backward(self, loss):
        if not isinstance(loss, Tensor) or loss.size != 1:
            got = loss.shape if isinstance(loss, Tensor) else type(loss)
            raise TapeError(f"backward needs a scalar loss, got {got}")
        if self._used:
            raise TapeError("tape already consumed; reset() before calling backward again")
        if not self._nodes:
            raise TapeError("cannot run backward over an empty tape")
        self._used = True
        loss.grad = np.ones_like(loss.data)
        for node in reversed(self._nodes):
            out_grad = node.output.grad
            if out_grad is None:
                continue
            grads = node.backward(out_grad)
            for t, g in zip(node.inputs, grads):
                if g is None or not t.requires_grad:
                    continue
                t.grad = g if t.grad is None else t.grad + g


def _emit(data, inputs, backward):
    out = Tensor.__new__(Tensor)
    out.data = data if data.dtype == np.float64 or data.dtype == np.float32 else data.astype(np.float64)
    out.requires_grad = False
    out.grad = None
    tape = _ACTIVE_TAPE.get()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape._nodes.append(_Node(tuple(inputs), out, backward))
    return out


def _into(ufunc, a, b, out):
    """ufunc(a, b) written into `out`, a fresh array of the result's shape,
    unless the out-of-place result would take a wider dtype than `out`'s
    (a float32 buffer meeting a float64 operand)."""
    if np.result_type(a, b) != out.dtype:
        return ufunc(a, b)
    return ufunc(a, b, out=out)


def _unbroadcast(g, shape):
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise


def add(a, b):
    def backward(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(g, b.shape) if b.requires_grad else None,
        )

    return _emit(a.data + b.data, (a, b), backward)


def sub(a, b):
    def backward(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(-g, b.shape) if b.requires_grad else None,
        )

    return _emit(a.data - b.data, (a, b), backward)


def mul(a, b):
    def backward(g):
        return (
            _unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.shape) if b.requires_grad else None,
        )

    return _emit(a.data * b.data, (a, b), backward)


def scale(a, s):
    s = float(s)

    def backward(g):
        return (g * s,)

    return _emit(a.data * s, (a,), backward)


def gelu(a):
    """Tanh-form GELU: 0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x^3))).

    It differs from the exact (erf) GELU by at most 4.73e-4 and costs a
    fraction of scipy's per-element `erf`. `x` is clamped to +-10 inside
    the cubic, where tanh is already exactly +-1 in float32 and float64, so
    huge finite inputs give x or -0 and gradients 1 or 0 instead of
    inf * 0. Temporaries are built in place, in the operation order of the
    formula. The backward is the exact derivative,
    0.5 * (1 + t) + 0.5 * x * (1 + t) * (1 - t) * sqrt(2/pi) * (1 + 3 * 0.044715 * x^2),
    from the stored 1 + t and output 0.5 * x * (1 + t), with 1 - t = 2 - (1 + t).
    """
    x = a.data
    xc = np.clip(x, -_GELU_CLAMP, _GELU_CLAMP)
    one_plus_t = xc * xc
    np.multiply(one_plus_t, xc, out=one_plus_t)
    np.multiply(one_plus_t, _GELU_CUBIC, out=one_plus_t)
    np.add(xc, one_plus_t, out=one_plus_t)
    np.multiply(one_plus_t, _SQRT_2_OVER_PI, out=one_plus_t)
    np.tanh(one_plus_t, out=one_plus_t)
    np.add(1.0, one_plus_t, out=one_plus_t)
    out = np.multiply(0.5, x, out=xc)
    np.multiply(out, one_plus_t, out=out)

    def backward(g):
        d = 2.0 - one_plus_t
        np.multiply(out, d, out=d)
        np.multiply(d, _SQRT_2_OVER_PI, out=d)
        slope = np.clip(x, -_GELU_CLAMP, _GELU_CLAMP)
        np.multiply(slope, slope, out=slope)
        np.multiply(3.0 * _GELU_CUBIC, slope, out=slope)
        np.add(1.0, slope, out=slope)
        np.multiply(d, slope, out=d)
        np.add(np.multiply(0.5, one_plus_t, out=slope), d, out=d)
        return (_into(np.multiply, g, d, d),)

    return _emit(out, (a,), backward)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b):
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    try:
        data = a.data @ b.data
    except ValueError as exc:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} and {b.shape}") from exc

    def backward(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return (ga, gb)

    return _emit(data, (a, b), backward)


def linear(x, w, b):
    """x @ w + b over the last axis of an N-d `x`: leading dims are
    flattened into one GEMM, and the whole layer is one node."""
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise DimensionError(f"linear: x {x.shape}, weight {w.shape} and bias {b.shape} do not fit")
    flat = x.data.reshape(-1, w.shape[0])
    out = flat @ w.data
    out = _into(np.add, out, b.data, out)

    def backward(g):
        g = g.reshape(-1, w.shape[1])
        return (
            (g @ w.data.T).reshape(x.shape) if x.requires_grad else None,
            flat.T @ g if w.requires_grad else None,
            g.sum(axis=0) if b.requires_grad else None,
        )

    return _emit(out.reshape(x.shape[:-1] + w.shape[1:]), (x, w, b), backward)


# ---------------------------------------------------------------------------
# structure


def reshape(a, shape):
    try:
        data = a.data.reshape(shape).copy()
    except ValueError as exc:
        raise DimensionError(f"cannot reshape {a.shape} to {shape}") from exc

    def backward(g):
        return (g.reshape(a.shape),)

    return _emit(data, (a,), backward)


def transpose(a, axes=None):
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise DimensionError(f"bad transpose axes {axes} for shape {a.shape}")
    inverse = np.argsort(axes)

    def backward(g):
        return (np.transpose(g, inverse),)

    return _emit(np.transpose(a.data, axes).copy(), (a,), backward)


def concat(tensors, axis):
    tensors = list(tensors)
    if not tensors:
        raise DimensionError("concat of zero tensors")
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as exc:
        raise DimensionError(f"concat: incompatible shapes {[t.shape for t in tensors]}") from exc
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        pieces = np.split(g, splits, axis=axis)
        return tuple(p if t.requires_grad else None for p, t in zip(pieces, tensors))

    return _emit(data, tuple(tensors), backward)


def narrow(a, axis, start, length):
    """Copy-slice `length` entries along `axis` starting at `start`."""
    if not (0 <= start and start + length <= a.shape[axis]):
        raise DimensionError(f"narrow [{start}:{start + length}] out of range for shape {a.shape} axis {axis}")
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def backward(g):
        full = np.zeros(a.shape, dtype=g.dtype)
        full[index] = g
        return (full,)

    return _emit(a.data[index].copy(), (a,), backward)


def space_to_depth(x, p):
    """[B, H, W, C] -> [B, (H/p)*(W/p), p*p*C]: each p x p block of the grid,
    in row-major block order, becomes one token with its features ordered
    (di * p + dj) * C + c. One reshape-transpose copy; the backward is the
    inverse permutation."""
    if x.ndim != 4 or p < 1:
        raise DimensionError(f"space_to_depth expects [B, H, W, C] and p >= 1, got {x.shape} and p={p}")
    b, h, w, c = x.shape
    if h % p or w % p:
        raise DimensionError(f"space_to_depth: a {h}x{w} grid is not divisible by {p}")
    nh, nw = h // p, w // p

    def backward(g):
        return (g.reshape(b, nh, nw, p, p, c).transpose(0, 1, 3, 2, 4, 5).reshape(x.shape),)

    blocks = x.data.reshape(b, nh, p, nw, p, c).transpose(0, 1, 3, 2, 4, 5).copy()
    return _emit(blocks.reshape(b, nh * nw, p * p * c), (x,), backward)


# ---------------------------------------------------------------------------
# reductions


def tsum(a, axis=None, keepdims=False):
    data = a.data.sum(axis=axis, keepdims=keepdims)
    if np.isscalar(data) or data.ndim == 0:
        data = np.asarray(data)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        axes = axis if isinstance(axis, tuple) else (axis,)
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _emit(data, (a,), backward)


def tmean(a, axis=None, keepdims=False):
    if axis is None:
        n = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        n = 1
        for ax in axes:
            n *= a.shape[ax]
    return scale(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


# ---------------------------------------------------------------------------
# normalized maps


def _softmax(x, axis=-1):
    """exp(x - max) / sum along `axis`.

    The row max is an elementwise `np.maximum` over an axis-first
    contiguous copy, so short rows (outlook attention's are k*k = 9 wide)
    reduce in a few long vectorized passes instead of one tiny reduction
    per row. A max is exact, so the values are those of `x.max(axis)`.
    A NaN max is taken again as `x.max(axis)`: which NaN a reduction
    returns (its sign bit) depends on its loop, and this keeps those bits.
    """
    axis = normalize_axis_index(axis, x.ndim)
    lead, n, trail = math.prod(x.shape[:axis]), x.shape[axis], math.prod(x.shape[axis + 1:])
    rows = np.ascontiguousarray(x.reshape(lead, n, trail).transpose(1, 0, 2))
    m = np.maximum.reduce(rows, axis=0).reshape(x.shape[:axis] + (1,) + x.shape[axis + 1:])
    if np.isnan(m).any():
        m = x.max(axis=axis, keepdims=True)
    e = x - m
    np.exp(e, out=e)
    return np.divide(e, e.sum(axis=axis, keepdims=True), out=e)


def _softmax_backward(s, g, axis=-1):
    return s * (g - (g * s).sum(axis=axis, keepdims=True))


def softmax(a, axis=-1):
    s = _softmax(a.data, axis)

    def backward(g):
        return (_softmax_backward(s, g, axis),)

    return _emit(s, (a,), backward)


def log_softmax(a, axis=-1):
    z = a.data - a.data.max(axis=axis, keepdims=True)
    out = z - np.log(np.exp(z).sum(axis=axis, keepdims=True))

    def backward(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return _emit(out, (a,), backward)


def layer_norm(x, gamma, beta, eps=1e-6):
    """Zero mean / unit variance over the last axis, then affine."""
    width = x.shape[-1]
    if gamma.shape != (width,) or beta.shape != (width,):
        raise DimensionError(
            f"layer_norm: gamma {gamma.shape} / beta {beta.shape} must match last axis ({width},)"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv

    def backward(g):
        gx = ggamma = gbeta = None
        lead = tuple(range(g.ndim - 1))
        if gamma.requires_grad:
            ggamma = (g * xhat).sum(axis=lead)
        if beta.requires_grad:
            gbeta = g.sum(axis=lead)
        if x.requires_grad:
            dxh = g * gamma.data
            gx = inv * (
                dxh
                - dxh.mean(axis=-1, keepdims=True)
                - xhat * (dxh * xhat).mean(axis=-1, keepdims=True)
            )
        return (gx, ggamma, gbeta)

    return _emit(xhat * gamma.data + beta.data, (x, gamma, beta), backward)


# ---------------------------------------------------------------------------
# attention


@functools.lru_cache(maxsize=None)
def _outlook_mixing(h, w, k):
    """The index maps of outlook attention on an h x w grid, k x k windows.

    Window n (centred on grid position n) has entry i at flat grid
    position pos[n, i]. Its weight (n, i, j) mixes value q = pos[n, j]
    into output p = pos[n, i], that is, adds into entry (p, q) of an L x L
    mixing matrix, L = h * w. Returns read-only arrays:
    - `scatter`: (float64, float32) CSR [L*L, L*k^4] of ones taking the
      (n, i, j) weights, in that order, to the flat (p, q) entries;
    - `gather` [L*k^4]: the flat (p, q) of each (n, i, j), 0 if dropped;
    - `dropped`: the (n, i, j) with p or q in the zero padding;
    - `inv_counts` [h, w]: 1 / (windows covering each position).
    """
    pad, length, kk = (k - 1) // 2, h * w, k * k
    wy, wx = np.divmod(np.arange(length), w)
    dy, dx = np.divmod(np.arange(kk), k)
    py = wy[:, None] + dy[None, :] - pad
    px = wx[:, None] + dx[None, :] - pad
    inside = (py >= 0) & (py < h) & (px >= 0) & (px < w)
    pos = py * w + px
    gather = (pos[:, :, None] * length + pos[:, None, :]).ravel()
    keep = (inside[:, :, None] & inside[:, None, :]).ravel()
    kept, dropped = np.flatnonzero(keep), np.flatnonzero(~keep)
    gather[dropped] = 0
    ones = csr_matrix((np.ones(kept.size), (gather[kept], kept)), shape=(length * length, gather.size))
    scatter = (ones, ones.astype(np.float32))
    inv_counts = 1.0 / np.bincount(pos[inside], minlength=length).reshape(h, w)
    arrays = [gather, dropped, inv_counts]
    for m in scatter:
        arrays += [m.data, m.indices, m.indptr]
    for array in arrays:
        array.flags.writeable = False
    return scatter, gather, dropped, inv_counts


def outlook_attention(attn_logits, v, k, heads):
    """VOLO outlook attention over a [B, H, W, C] grid of values `v`.

    `attn_logits` [B, H, W, heads*k^4] holds, per position, one k*k x k*k
    weight matrix per head. Each is softmaxed over its rows and applied to
    the k x k window of values around that position (stride 1, zero
    padding (k-1)/2, channels split into `heads` groups); the windows are
    folded back onto the grid and each position divided by the number of
    windows covering it.

    Windowing, attention and folding are linear in the values, so per image
    and head they are one L x L mixing matrix A (L = H * W): the softmaxed
    weights scattered to the (output, value) position pairs they join, by
    one sparse product. The output is A @ v / counts, and the tape keeps A
    rather than k*k copies of the values. The cost is O(L^2 * d) per head:
    at 8 x 8 grids it beats k*k small matmuls per window, but at d1_config's
    28 x 28 grid with 6 heads it is slower than the windowed kernel was
    (float32, batch 1: forward about 17 -> 30 ms, backward 15 -> 16-20 ms).
    """
    if v.ndim != 4 or k % 2 == 0 or v.shape[3] % heads or attn_logits.shape != v.shape[:3] + (heads * k**4,):
        raise DimensionError(
            f"outlook_attention: logits {attn_logits.shape} and values {v.shape} "
            f"do not fit k={k} heads={heads}"
        )
    b, h, w, c = v.shape
    length, kk, d = h * w, k * k, c // heads
    scatter, gather, dropped, inv_counts = _outlook_mixing(h, w, k)
    inv_counts = inv_counts.astype(np.result_type(attn_logits.data, v.data))[None, :, :, None]
    s = _softmax(attn_logits.data.reshape(b, length, heads, kk, kk))
    # the weights as columns (n, i, j) x (image, head), mixed in one product
    weights = np.ascontiguousarray(s.transpose(1, 3, 4, 0, 2)).reshape(length * kk * kk, b * heads)
    mixing = (scatter[1] if s.dtype == np.float32 else scatter[0]) @ weights
    mixing = np.ascontiguousarray(mixing.reshape(length, length, b, heads).transpose(2, 3, 0, 1))
    v_heads = v.data.reshape(b, length, heads, d).transpose(0, 2, 1, 3)
    out = (mixing @ v_heads).transpose(0, 2, 1, 3).reshape(b, h, w, c)

    def backward(g):
        g_heads = (g * inv_counts).reshape(b, length, heads, d).transpose(0, 2, 1, 3)
        ga = gv = None
        if attn_logits.requires_grad:
            g_mixing = (g_heads @ np.swapaxes(v_heads, -1, -2)).reshape(b * heads, length * length)
            gs = np.take(g_mixing, gather, axis=1)
            gs[:, dropped] = 0.0
            gs = gs.reshape(b, heads, length, kk, kk).transpose(0, 2, 1, 3, 4)
            ga = _softmax_backward(s, gs).reshape(attn_logits.shape)
        if v.requires_grad:
            gv = (np.swapaxes(mixing, -1, -2) @ g_heads).transpose(0, 2, 1, 3).reshape(v.shape)
        return (ga, gv)

    return _emit(_into(np.multiply, out, inv_counts, out), (attn_logits, v), backward)


def attention(q, k, v, heads):
    """Multi-head softmax(q k^T / sqrt(d)) v.

    q [B, Tq, C] attends over k, v [B, Tk, C]; channels split into `heads`
    groups of d = C / heads, and the heads are merged back into [B, Tq, C].
    """
    if q.ndim != 3 or k.ndim != 3 or k.shape != v.shape:
        raise DimensionError(f"attention: q {q.shape}, k {k.shape}, v {v.shape} must be [B, T, C]")
    b, tq, c = q.shape
    tk = k.shape[1]
    if k.shape != (b, tk, c) or c % heads:
        raise DimensionError(f"attention: q {q.shape} and k/v {k.shape} do not fit {heads} heads")
    d = c // heads
    scale = float(d**-0.5)
    # contiguous head-major copies, as the composite's matmul operands were
    qh = q.data.reshape(b, tq, heads, d).transpose(0, 2, 1, 3).copy()
    kt = k.data.reshape(b, tk, heads, d).transpose(0, 2, 3, 1).copy()
    vh = v.data.reshape(b, tk, heads, d).transpose(0, 2, 1, 3).copy()
    s = _softmax((qh @ kt) * scale)  # [B, heads, Tq, Tk]

    def backward(g):
        gout = g.reshape(b, tq, heads, d).transpose(0, 2, 1, 3)
        gq = gk = gv = None
        if v.requires_grad:
            gv = (np.swapaxes(s, -1, -2) @ gout).transpose(0, 2, 1, 3).reshape(b, tk, c)
        if q.requires_grad or k.requires_grad:
            glogits = _softmax_backward(s, gout @ np.swapaxes(vh, -1, -2)) * scale
            if q.requires_grad:
                gq = (glogits @ np.swapaxes(kt, -1, -2)).transpose(0, 2, 1, 3).reshape(b, tq, c)
            if k.requires_grad:
                gk = (np.swapaxes(qh, -1, -2) @ glogits).transpose(0, 3, 1, 2).reshape(b, tk, c)
        return (gq, gk, gv)

    return _emit((s @ vh).transpose(0, 2, 1, 3).reshape(b, tq, c), (q, k, v), backward)


# ---------------------------------------------------------------------------
# debugging


def check_finite(t, what="tensor"):
    """Explicit NaN/Inf check; numerical hygiene is opt-in, not per-op."""
    data = t.data if isinstance(t, Tensor) else np.asarray(t)
    if not np.isfinite(data).all():
        bad = int(data.size - np.isfinite(data).sum())
        raise NumericalError(f"{what}: {bad} non-finite value(s)")
    return t
