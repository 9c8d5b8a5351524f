"""Independently coded reference implementations used as test oracles.

These deliberately avoid the package's own code paths: scipy statistics
where they exist, straight-line transcriptions of the formulas elsewhere.
The exceptions are the fused layers of the tensor engine, whose oracles
are the composites of generic ops (unfold, fold, softmax, matmul, reshape,
transpose) they replace, which have finite-difference tests of their own;
and the per-task vote aggregation and full-range KDE grid, kept as the
references the columnar and windowed versions must equal bit for bit.
"""

import math
from collections import Counter

import numpy as np
from scipy import stats as sps

from agegender import tensor as T
from agegender.errors import InputError, NumericalError
from agegender.votes import GENDERS, MAE_FLOOR, VoteRecord, baseline_aggregate

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


def trim_oracle(crop, fill, threshold):
    """Border trimming that re-reduces each outermost row/column of the
    filled mask with `mean` every time it peels one line."""
    mask = np.all(crop == fill, axis=-1)
    y0, x0 = 0, 0
    y1, x1 = mask.shape
    changed = True
    while changed and y1 > y0 and x1 > x0:
        changed = False
        if y1 > y0 and mask[y0, x0:x1].mean() >= threshold:
            y0 += 1
            changed = True
        if y1 > y0 and mask[y1 - 1, x0:x1].mean() >= threshold:
            y1 -= 1
            changed = True
        if x1 > x0 and y1 > y0 and mask[y0:y1, x0].mean() >= threshold:
            x0 += 1
            changed = True
        if x1 > x0 and y1 > y0 and mask[y0:y1, x1 - 1].mean() >= threshold:
            x1 -= 1
            changed = True
    if y1 <= y0 or x1 <= x0:
        return None, None
    return crop[y0:y1, x0:x1].copy(), (x0, y0)


def max_likelihood_oracle(votes, bandwidth=KDE_BANDWIDTH, step=KDE_GRID_STEP):
    """KDE mode over one grid spanning every vote, whatever the range."""
    votes = np.asarray(votes, dtype=np.float64)
    lo = np.ceil((votes.min() - 3 * bandwidth) / step)
    hi = np.floor((votes.max() + 3 * bandwidth) / step)
    grid = np.union1d(np.arange(lo, hi + 1) * step, votes)
    density = np.exp(-((grid[:, None] - votes[None, :]) ** 2) / (2 * bandwidth**2)).sum(axis=1)
    return float(grid[np.argmax(density)])


def weighted_mean_age_oracle(votes, user_maes, mae_floor=MAE_FLOOR):
    """e^{1/MAE}-weighted mean of one task's votes as a 1-D reduction."""
    votes = np.asarray(votes, dtype=np.float64)
    maes = np.asarray(user_maes, dtype=np.float64)
    if votes.size == 0:
        raise InputError("weighted_mean_age: no votes")
    if votes.shape != maes.shape:
        raise InputError(f"weighted_mean_age: {votes.size} votes vs {maes.size} MAEs")
    weights = np.exp(1.0 / np.maximum(maes, mae_floor))
    return float((votes * weights).sum() / weights.sum())


def aggregate_gender_oracle(votes, min_frequency=0.75):
    votes = list(votes)
    if not votes:
        raise InputError("aggregate_gender: no votes")
    for v in votes:
        if v not in GENDERS:
            raise InputError(f"unknown gender vote {v!r}")
    counts = Counter(votes)
    top = max(counts.values())
    if top / len(votes) < min_frequency:
        return "rejected"
    winners = [g for g, c in counts.items() if c == top]
    return winners[0] if len(winners) == 1 else "rejected"


def collect_vote_records_oracle(rows):
    """Rows grouped per task, with the duplicate and gender checks made
    here before any VoteRecord is built."""
    by_task = {}
    for row in rows:
        task = str(row["task"])
        bucket = by_task.setdefault(task, {"age": [], "gender": []})
        user = str(row["user"])
        if row.get("age") is not None:
            bucket["age"].append((user, float(row["age"])))
        if row.get("gender") is not None:
            bucket["gender"].append((user, row["gender"]))
    for task, bucket in by_task.items():
        for what in ("age", "gender"):
            users = [u for u, _ in bucket[what]]
            if len(users) != len(set(users)):
                raise InputError(f"task {task}: duplicate {what} votes from one user")
        for _, g in bucket["gender"]:
            if g not in GENDERS:
                raise InputError(f"task {task}: unknown gender vote {g!r}")
    return [VoteRecord(task_id=t, age_votes=b["age"], gender_votes=b["gender"]) for t, b in by_task.items()]


def aggregate_tasks_oracle(records, user_stats, method="weighted_mean"):
    """Task by task: one weighted mean or baseline call per task."""
    mae_by_user = {s.user_id: max(s.mae, MAE_FLOOR) for s in user_stats}
    results = []
    for record in records:
        out = {"task": record.task_id, "age": None, "gender": None}
        if record.age_votes:
            votes = [v for _, v in record.age_votes]
            if method == "weighted_mean":
                missing = [u for u, _ in record.age_votes if u not in mae_by_user]
                if missing:
                    raise InputError(f"task {record.task_id}: no control MAE for users {missing}")
                maes = [mae_by_user[u] for u, _ in record.age_votes]
                out["age"] = weighted_mean_age_oracle(votes, maes)
            elif method == "max_likelihood":
                out["age"] = max_likelihood_oracle(votes)
            else:
                out["age"] = baseline_aggregate(votes, method)
            if not math.isfinite(out["age"]):
                raise NumericalError(f"task {record.task_id}: aggregated age is not finite")
        if record.gender_votes:
            out["gender"] = aggregate_gender_oracle([g for _, g in record.gender_votes])
        results.append(out)
    return results
