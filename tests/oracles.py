"""Independently coded reference implementations used as test oracles.

These deliberately avoid the package's own code paths: scipy statistics
where they exist, straight-line transcriptions of the formulas elsewhere.
The exception is the fused layers of the tensor engine, whose oracles are
the composites of generic ops (unfold, fold, softmax, matmul, reshape,
transpose) they replace; those ops have finite-difference tests of their
own.
"""

import numpy as np
from scipy import stats as sps

from agegender import tensor as T

KDE_BANDWIDTH = 2.0
KDE_GRID_STEP = 0.1


def weighted_mean_oracle(votes, maes, floor=0.5):
    votes = np.asarray(votes, dtype=float)
    maes = np.asarray(maes, dtype=float)
    num = 0.0
    den = 0.0
    for v, m in zip(votes, maes):
        w = np.exp(1.0 / max(m, floor))
        num += v * w
        den += w
    return num / den


def kde_density(points, votes, bandwidth=KDE_BANDWIDTH):
    """Oracle-side kernel density (unnormalized argmax target)."""
    points = np.atleast_1d(np.asarray(points, dtype=float))
    votes = np.asarray(votes, dtype=float)
    return sps.norm.pdf(points[:, None], loc=votes[None, :], scale=bandwidth).sum(axis=1)


def is_kde_mode(candidate, votes, rel_tol=1e-9):
    """True when `candidate` attains the oracle's maximum density.

    Two peaks can tie to the last ulp, in which case the argmax location
    is implementation-defined; density equivalence is the well-posed
    comparison.
    """
    xs = np.asarray(votes, dtype=float)
    lo = np.ceil((xs.min() - 3 * KDE_BANDWIDTH) / KDE_GRID_STEP)
    hi = np.floor((xs.max() + 3 * KDE_BANDWIDTH) / KDE_GRID_STEP)
    grid = np.union1d(np.arange(lo, hi + 1) * KDE_GRID_STEP, xs)
    best = kde_density(grid, xs).max()
    return kde_density(candidate, xs)[0] >= best * (1.0 - rel_tol)


def aggregate_oracle(votes, method):
    xs = np.asarray(votes, dtype=np.float64)
    n = len(xs)
    if method == "mean":
        return float(np.mean(xs))
    if method == "median":
        return float(np.median(xs))
    if method == "interquartile_mean":
        return float(sps.trim_mean(xs, 0.25))  # trims int(n/4) per tail
    if method == "mode":
        values, counts = np.unique(xs, return_counts=True)
        return float(values[counts == counts.max()].min())
    if method == "max_likelihood":
        lo = np.ceil((xs.min() - 3 * KDE_BANDWIDTH) / KDE_GRID_STEP)
        hi = np.floor((xs.max() + 3 * KDE_BANDWIDTH) / KDE_GRID_STEP)
        grid = np.union1d(np.arange(lo, hi + 1) * KDE_GRID_STEP, xs)
        dens = sps.norm.pdf(grid[:, None], loc=xs[None, :], scale=KDE_BANDWIDTH).sum(axis=1)
        return float(grid[dens.argmax()])
    if method == "winsorized_mean":
        g = int(n * 0.3)
        if 2 * g >= n:
            return float(np.median(xs))
        return float(np.mean(sps.mstats.winsorize(xs, limits=(0.3, 0.3))))
    if method == "truncated_mean":
        g = int(n * 0.3)
        if 2 * g >= n:
            return float(np.median(xs))
        return float(sps.trim_mean(xs, 0.3))
    raise AssertionError(method)


def adamw_scalar_reference(theta, grad, lr, wd, b1, b2, eps, steps=1):
    """Straight-line transcription of the AdamW update rule for one scalar;
    tests compare the vectorized optimizer against this."""
    m = v = 0.0
    for t in range(1, steps + 1):
        theta = theta - lr * wd * theta
        m = b1 * m + (1 - b1) * grad
        v = b2 * v + (1 - b2) * grad * grad
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        theta = theta - lr * mhat / (vhat**0.5 + eps)
    return theta


def linear_oracle(x, w, b):
    """x @ w + b, leading dims of x flattened around the matmul."""
    if x.ndim == 2:
        return x @ w + b
    flat = T.reshape(x, (-1, x.shape[-1]))
    return T.reshape(flat @ w + b, x.shape[:-1] + (w.shape[1],))


def outlook_attention_oracle(attn_logits, v, k, heads):
    """Outlook attention as unfold -> per-window softmax attention -> fold,
    then division by the overlap counts."""
    b, h, w, c = v.shape
    kk, d, pad = k * k, c // heads, (k - 1) // 2
    attn = T.softmax(T.reshape(attn_logits, (b, h * w, heads, kk, kk)), axis=-1)
    cols = T.reshape(T.unfold(v, k, 1, pad), (b, h * w, kk, heads, d))
    out = attn @ T.transpose(cols, (0, 1, 3, 2, 4))  # [B, L, heads, kk, d]
    out = T.reshape(T.transpose(out, (0, 1, 3, 2, 4)), (b, h * w, kk, c))
    grid = T.fold(out, (h, w), k, 1, pad)
    return grid * T.constant(1.0 / T.overlap_counts(h, w, k, 1, pad)[None, :, :, None])


def attention_oracle(q, k, v, heads):
    """Multi-head attention with explicit head split, q k^T, softmax and merge."""
    d = q.shape[2] // heads

    def to_heads(x):
        b, t, c = x.shape
        return T.transpose(T.reshape(x, (b, t, heads, d)), (0, 2, 1, 3))

    att = T.softmax((to_heads(q) @ T.transpose(to_heads(k), (0, 1, 3, 2))) * float(d**-0.5), axis=-1)
    return T.reshape(T.transpose(att @ to_heads(v), (0, 2, 1, 3)), q.shape)
