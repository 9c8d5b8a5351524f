"""Independently coded reference implementations used as test oracles.

These deliberately avoid the package's own code paths: scipy statistics
where they exist, straight-line transcriptions of the formulas elsewhere.
The exceptions are the fused layers of the tensor engine, whose oracles
are the composites of generic ops (softmax, matmul, reshape, transpose, and
the taped window columns and fold built here on the slice loops) they
replace, which have finite-difference tests of their own;
the per-task vote aggregation and full-range KDE grid, kept as the
references the columnar and windowed versions must equal bit for bit; and
the straightforward crop and pair preprocessing, augmentation, softmax, GELU,
out-of-place `linear` and dropout masks, which their leaner replacements
must equal bit for bit.
"""

import contextlib
import math
from collections import Counter
from unittest import mock

import numpy as np
from scipy import stats as sps

from agegender import cli
from agegender import tensor as T
from agegender.augment import jitter_bbox, random_erase_region
from agegender.errors import InputError, NumericalError
from agegender.fusion import CropPair
from agegender.pairing import assign, overlap_cost
from agegender.preprocess import CHANNEL_MEAN, CHANNEL_STD, discard_if_small, trim
from agegender.votes import GENDERS, MAE_FLOOR, baseline_aggregate

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


def window_columns_oracle(x, k, stride, pad):
    """Window columns [B, L, k*k, C] of a [B, H, W, C] array, zero padded
    by `pad`: one strided slice per window offset (di, dj) into column
    di * k + dj."""
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    b, hp, wp, c = xp.shape
    nh, nw = (hp - k) // stride + 1, (wp - k) // stride + 1
    out = np.empty((b, nh, nw, k * k, c), dtype=x.dtype)
    for di in range(k):
        for dj in range(k):
            out[:, :, :, di * k + dj, :] = xp[:, di:di + stride * nh:stride, dj:dj + stride * nw:stride, :]
    return out.reshape(b, nh * nw, k * k, c)


def window_fold_oracle(cols, hw, k, stride, pad):
    """Fold of window columns: each column added back at its offset, in
    column order, onto a zero padded grid, then the padding cut off."""
    h, w = hw
    b, _, _, c = cols.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    nh, nw = (hp - k) // stride + 1, (wp - k) // stride + 1
    blocks = cols.reshape(b, nh, nw, k * k, c)
    acc = np.zeros((b, hp, wp, c), dtype=cols.dtype)
    for di in range(k):
        for dj in range(k):
            acc[:, di:di + stride * nh:stride, dj:dj + stride * nw:stride, :] += blocks[:, :, :, di * k + dj, :]
    return acc[:, pad:hp - pad, pad:wp - pad, :]


def unfold_oracle(x, k, stride, pad):
    """Taped window columns [B, H, W, C] -> [B, L, k*k, C]; the backward is
    the fold loop, their adjoint."""
    hw = x.shape[1:3]
    return T._emit(window_columns_oracle(x.data, k, stride, pad), (x,),
                   lambda g: (window_fold_oracle(g, hw, k, stride, pad),))


def fold_oracle(cols, hw, k, stride, pad):
    """Taped fold [B, L, k*k, C] -> [B, H, W, C], overlaps summed; the
    backward is the window columns loop, their adjoint."""
    return T._emit(window_fold_oracle(cols.data, hw, k, stride, pad), (cols,),
                   lambda g: (window_columns_oracle(g, k, stride, pad),))


def overlap_counts_oracle(h, w, k, stride, pad):
    """How many windows cover each position of an h x w grid, by
    enumerating the windows over the padded grid."""
    counts = np.zeros((h + 2 * pad, w + 2 * pad))
    for i0 in range(0, h + 2 * pad - k + 1, stride):
        for j0 in range(0, w + 2 * pad - k + 1, stride):
            counts[i0:i0 + k, j0:j0 + k] += 1
    return counts[pad:pad + h, pad:pad + w]


def space_to_depth_oracle(x, p):
    """Patches as window columns with stride p, then reshaped to
    [B, (H/p)*(W/p), p*p*C]."""
    b, h, w, c = x.shape
    return T.reshape(unfold_oracle(x, p, p, 0), (b, (h // p) * (w // p), p * p * c))


def outlook_attention_oracle(attn_logits, v, k, heads):
    """Outlook attention as window columns -> per-window softmax attention
    -> fold, then division by the overlap counts."""
    b, h, w, c = v.shape
    kk, d, pad = k * k, c // heads, (k - 1) // 2
    attn = T.softmax(T.reshape(attn_logits, (b, h * w, heads, kk, kk)), axis=-1)
    cols = T.reshape(unfold_oracle(v, k, 1, pad), (b, h * w, kk, heads, d))
    out = attn @ T.transpose(cols, (0, 1, 3, 2, 4))  # [B, L, heads, kk, d]
    out = T.reshape(T.transpose(out, (0, 1, 3, 2, 4)), (b, h * w, kk, c))
    grid = fold_oracle(out, (h, w), k, 1, pad)
    return grid * T.constant(1.0 / overlap_counts_oracle(h, w, k, 1, pad)[None, :, :, None])


def attention_oracle(q, k, v, heads):
    """Multi-head attention with explicit head split, q k^T, softmax and merge."""
    d = q.shape[2] // heads

    def to_heads(x):
        b, t, c = x.shape
        return T.transpose(T.reshape(x, (b, t, heads, d)), (0, 2, 1, 3))

    att = T.softmax((to_heads(q) @ T.transpose(to_heads(k), (0, 1, 3, 2))) * float(d**-0.5), axis=-1)
    return T.reshape(T.transpose(att @ to_heads(v), (0, 2, 1, 3)), q.shape)


def assignment_cost(pairs, faces, persons):
    """Total overlap cost of a pairing, summed in face-index order."""
    total = 0.0
    for i, j in sorted(pairs):
        c = overlap_cost(faces[i], persons[j])
        if c is None:
            raise InputError(f"pair ({i}, {j}) has zero overlap")
        total += c
    return total


def trim_oracle(crop, threshold):
    """Border trimming that re-reduces each outermost row/column of the
    mean-filled mask with `mean` every time it peels one line."""
    mask = np.all(crop == CHANNEL_MEAN, axis=-1)
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
    """Rows grouped into per-task {task, age: [(user, age)], gender:
    [(user, gender)]} buckets in order of first appearance; the first task
    without votes, with a duplicate age or gender vote, or with an unknown
    gender (checked in that order) raises."""
    by_task = {}
    for row in rows:
        task = str(row["task"])
        bucket = by_task.setdefault(task, {"task": task, "age": [], "gender": []})
        user = str(row["user"])
        if row.get("age") is not None:
            bucket["age"].append((user, float(row["age"])))
        if row.get("gender") is not None:
            bucket["gender"].append((user, row["gender"]))
    for task, bucket in by_task.items():
        if not bucket["age"] and not bucket["gender"]:
            raise InputError(f"task {task}: no votes")
        for what in ("age", "gender"):
            users = [u for u, _ in bucket[what]]
            if len(users) != len(set(users)):
                raise InputError(f"task {task}: duplicate {what} votes from one user")
        for _, g in bucket["gender"]:
            if g not in GENDERS:
                raise InputError(f"task {task}: unknown gender vote {g!r}")
    return list(by_task.values())


def aggregate_tasks_oracle(buckets, user_stats, method="weighted_mean"):
    """Task by task: one weighted mean or baseline call per task. For
    weighted_mean every task's MAEs are looked up first, so a missing MAE
    is reported before any age overflows."""
    mae_by_user = {s.user_id: max(s.mae, MAE_FLOOR) for s in user_stats}
    for bucket in buckets if method == "weighted_mean" else ():
        missing = [u for u, _ in bucket["age"] if u not in mae_by_user]
        if missing:
            raise InputError(f"task {bucket['task']}: no control MAE for users {missing}")
    results = []
    for bucket in buckets:
        task = bucket["task"]
        out = {"task": task, "age": None, "gender": None}
        if bucket["age"]:
            votes = [v for _, v in bucket["age"]]
            if method == "weighted_mean":
                maes = [mae_by_user[u] for u, _ in bucket["age"]]
                out["age"] = weighted_mean_age_oracle(votes, maes)
            elif method == "max_likelihood":
                out["age"] = max_likelihood_oracle(votes)
            else:
                out["age"] = baseline_aggregate(votes, method)
            if not math.isfinite(out["age"]):
                raise NumericalError(f"task {task}: aggregated age is not finite")
        if bucket["gender"]:
            out["gender"] = aggregate_gender_oracle([g for _, g in bucket["gender"]])
        results.append(out)
    return results


@contextlib.contextmanager
def vote_oracles_in_cli():
    """`agegender aggregate` through the per-task oracle pipeline: the same
    readers, `score_users` and writer, with `collect_vote_records_oracle`
    and `aggregate_tasks_oracle` in place of the columnar pair."""
    with mock.patch.object(cli, "collect_vote_records", collect_vote_records_oracle), \
            mock.patch.object(cli, "aggregate_tasks", aggregate_tasks_oracle):
        yield


def bilinear_resize_oracle(image, out_h, out_w):
    """Bilinear resampling that gathers the four corner pixels of every
    output pixel and blends them, top and bottom rows first."""
    h, w = image.shape[:2]
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


def letterbox_oracle(crop, target):
    """Letterbox over `bilinear_resize_oracle`, the canvas filled per pixel."""
    h, w = crop.shape[:2]
    if h >= w:
        new_h, new_w = target, max(1, round(w * target / h))
    else:
        new_w, new_h = target, max(1, round(h * target / w))
    out = np.empty((target, target, 3))
    out[:] = CHANNEL_MEAN
    top = (target - new_h) // 2
    left = (target - new_w) // 2
    out[top:top + new_h, left:left + new_w] = bilinear_resize_oracle(crop, new_h, new_w)
    return out


def normalize_channels_oracle(crop):
    """Channels-last z-score, broadcast over the trailing axis of 3."""
    return (crop - CHANNEL_MEAN) / CHANNEL_STD


def crop_image(image, bbox):
    """Extract a bbox (clamped to the image) as a copy."""
    h, w = image.shape[:2]
    b = bbox.clamped(w, h)
    return image[b.y0:b.y1, b.x0:b.x1].copy(), b


def prepare_crop_oracle(image, bbox, target):
    """Copied crop -> letterbox -> normalize, all through the oracles."""
    crop, _ = crop_image(image, bbox)
    return normalize_channels_oracle(letterbox_oracle(crop, target))


def detach_objects_oracle(body, crop, others):
    """Occluder fill one detection at a time: clamp its box to the crop
    with max/min and fill the box through the [h, w, c] layout."""
    out = crop.copy()
    h, w = out.shape[:2]
    for det in others:
        b = det.bbox
        x0, y0 = max(b.x0 - body.x0, 0), max(b.y0 - body.y0, 0)
        x1, y1 = min(b.x1 - body.x0, w), min(b.y1 - body.y0, h)
        if x1 > x0 and y1 > y0:
            out[y0:y1, x0:x1] = CHANNEL_MEAN
    return out


def build_pair_record_oracle(image, face_bbox, body_bbox, detections, self_indices):
    """Pair preprocessing that builds both sides in full, as `pair` once
    did: the face and body crops are clamped twice, copied and
    occluder-filled, the body trimmed and size-filtered, and the crops are
    stored beside the boxes and offsets. The body is filled and trimmed in
    float64, where the fill is exactly CHANNEL_MEAN, so the erased boxes
    count whatever the image dtype."""
    h, w = image.shape[:2]
    others = [d for i, d in enumerate(detections) if i not in self_indices]
    record = {"face_bbox": None, "body_bbox": None, "face_offset": None, "body_offset": None}

    if face_bbox is not None:
        fb = face_bbox.clamped(w, h)
        face_crop, fb = crop_image(image, fb)
        face_crop = detach_objects_oracle(fb, face_crop, others)
        record["face_bbox"] = fb.as_list()
        record["face_offset"] = [0, 0]
        record["face_crop"] = face_crop

    if body_bbox is not None:
        bb = body_bbox.clamped(w, h)
        body_crop, bb = crop_image(image, bb)
        body_crop = detach_objects_oracle(bb, body_crop.astype(np.float64), others)
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


def pair_rows_oracle(image_name, image, detections):
    """The rows `pair` writes for one image: its units in `pair`'s order
    (matched pairs, unmatched faces, unmatched persons), each built in
    full by `build_pair_record_oracle`, keeping those with a side left."""
    keys = ["face_bbox", "body_bbox", "face_offset", "body_offset"]
    face_idx = [i for i, d in enumerate(detections) if d.kind == "face"]
    person_idx = [i for i, d in enumerate(detections) if d.kind == "person"]
    result = assign([detections[i].bbox for i in face_idx], [detections[j].bbox for j in person_idx])
    units = [(face_idx[i], person_idx[j]) for i, j in result.pairs]
    units += [(face_idx[i], None) for i in result.unmatched_faces]
    units += [(None, person_idx[j]) for j in result.unmatched_persons]
    rows = []
    for fi, pi in units:
        record = build_pair_record_oracle(
            image,
            detections[fi].bbox if fi is not None else None,
            detections[pi].bbox if pi is not None else None,
            detections,
            {i for i in (fi, pi) if i is not None},
        )
        if record["face_bbox"] is not None or record["body_bbox"] is not None:
            rows.append({"image": image_name, **{k: record[k] for k in keys}})
    return rows


def augment_oracle(record, image, rng, config):
    """`augment` with copied crops and flips, over the resize oracles; the
    same draws from `rng` in the same order."""
    img_h, img_w = image.shape[:2]
    do_flip = config.hflip_prob > 0 and rng.random() < config.hflip_prob
    do_erase = config.erase_prob > 0 and rng.random() < config.erase_prob

    def one_side(bbox):
        if bbox is None:
            return None
        box = jitter_bbox(bbox, config.jitter, rng, img_w, img_h)
        crop = image[box.y0:box.y1, box.x0:box.x1].copy()
        if do_flip:
            crop = crop[:, ::-1].copy()
        crop = letterbox_oracle(crop, config.image_side)
        if do_erase:
            crop = random_erase_region(crop, rng)
        return normalize_channels_oracle(crop)

    return CropPair(face=one_side(record.face_bbox), body=one_side(record.body_bbox))


def softmax_oracle(x, axis=-1):
    """Array softmax with the row max as `x.max(axis)` and out-of-place
    temporaries."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def fused_linear_oracle(x, w, b):
    """The fused `linear` node with its bias added out of place."""
    flat = x.data.reshape(-1, w.shape[0])
    out = flat @ w.data + b.data

    def backward(g):
        g = g.reshape(-1, w.shape[1])
        return (
            (g @ w.data.T).reshape(x.shape) if x.requires_grad else None,
            flat.T @ g if w.requires_grad else None,
            g.sum(axis=0) if b.requires_grad else None,
        )

    return T._emit(out.reshape(x.shape[:-1] + w.shape[1:]), (x, w, b), backward)


def gelu_oracle(a):
    """Tanh-form GELU node transcribed from the formula, every temporary out
    of place: t = tanh(sqrt(2/pi) (x + 0.044715 x^3)) with x clamped to +-10
    inside the cubic, and its exact derivative with 1 - t taken as
    2 - (1 + t)."""
    x = a.data
    xc = np.clip(x, -10.0, 10.0)
    one_plus_t = 1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (xc + 0.044715 * (xc * xc * xc)))
    out = 0.5 * x * one_plus_t

    def backward(g):
        slope = 1.0 + 3.0 * 0.044715 * (xc * xc)
        return (g * (0.5 * one_plus_t + out * (2.0 - one_plus_t) * math.sqrt(2.0 / math.pi) * slope),)

    return T._emit(out, (a,), backward)


def dropout_oracle(x, ctx):
    """Element dropout with the mask divided in float64, then cast."""
    if ctx is None or ctx.drop_rate <= 0.0:
        return x
    keep = 1.0 - ctx.drop_rate
    mask = (ctx.rng.random(x.shape) < keep) / keep
    return x * T.constant(mask.astype(x.data.dtype, copy=False))


def drop_path_oracle(x, ctx):
    """Per-sample stochastic depth with the mask divided in float64, then cast."""
    if ctx is None or ctx.drop_path_rate <= 0.0:
        return x
    keep = 1.0 - ctx.drop_path_rate
    shape = (x.shape[0],) + (1,) * (x.ndim - 1)
    mask = (ctx.rng.random(shape) < keep) / keep
    return x * T.constant(mask.astype(x.data.dtype, copy=False))
