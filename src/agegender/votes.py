"""Crowd-vote aggregation.

Age votes are combined with an exponential reliability weighting,
A(v) = sum_i v_i * e^{1/MAE(u_i)} / sum_i e^{1/MAE(u_i)}, where MAE(u_i)
is the user's error on control tasks (floored at 0.5 years so a perfect
annotator does not carry infinite weight). Gender is the plain mode,
rejected when the mode frequency drops below 75% (exactly 75% is kept).
The classical baseline aggregators are here too, for comparison runs.

Cost: `aggregate_tasks` computes the weighted mean column-wise. It groups
the tasks by vote count k, flattens each group's votes and MAEs (one
lookup per vote) into a C-contiguous [n_k, k] block and averages it in one
`_weighted_means` call, so the NumPy work is a few calls per distinct vote
count, and the rest is one light Python pass per task (gender by
`list.count`). Each age is bit-identical to `weighted_mean_age` on that
task alone. The baselines run task by task.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .errors import InputError, NumericalError

MAE_FLOOR = 0.5
GENDER_MIN_FREQUENCY = 0.75
KDE_BANDWIDTH = 2.0
KDE_GRID_STEP = 0.1

GENDERS = ("male", "female")

BASELINE_METHODS = (
    "mean",
    "median",
    "interquartile_mean",
    "mode",
    "max_likelihood",
    "winsorized_mean",
    "truncated_mean",
)


@dataclass(frozen=True)
class UserStat:
    user_id: str
    mae: float
    cs3: float
    control_count: int

    def __post_init__(self):
        if self.mae < 0:
            raise InputError(f"user {self.user_id}: negative MAE")
        if self.control_count < 1:
            raise InputError(f"user {self.user_id}: needs at least one control task")


@dataclass
class VoteRecord:
    task_id: str
    age_votes: List[Tuple[str, float]] = field(default_factory=list)
    gender_votes: List[Tuple[str, str]] = field(default_factory=list)

    def __post_init__(self):
        if not self.age_votes and not self.gender_votes:
            raise InputError(f"task {self.task_id}: no votes")
        for votes, what in ((self.age_votes, "age"), (self.gender_votes, "gender")):
            if len({u for u, _ in votes}) != len(votes):
                raise InputError(f"task {self.task_id}: duplicate {what} votes from one user")
        for _, g in self.gender_votes:
            if g not in GENDERS:
                raise InputError(f"task {self.task_id}: unknown gender vote {g!r}")


# ---------------------------------------------------------------------------
# age aggregation


def _weighted_means(votes, maes, mae_floor=MAE_FLOOR):
    """Row-wise reliability-weighted means of votes[n, k] with MAEs [n, k].

    A row sum over a C-contiguous block adds its k entries in the same
    pairwise order as the 1-D sum of those entries, so each row's mean is
    bitwise the mean of that row alone.
    """
    weights = np.exp(1.0 / np.maximum(maes, mae_floor))
    return (votes * weights).sum(axis=1) / weights.sum(axis=1)


def weighted_mean_age(votes, user_maes, mae_floor=MAE_FLOOR):
    """Reliability-weighted mean with weights e^{1/MAE}."""
    votes = np.asarray(votes, dtype=np.float64)
    maes = np.asarray(user_maes, dtype=np.float64)
    if votes.size == 0:
        raise InputError("weighted_mean_age: no votes")
    if votes.shape != maes.shape:
        raise InputError(f"weighted_mean_age: {votes.size} votes vs {maes.size} MAEs")
    return float(_weighted_means(votes.reshape(1, -1), maes.reshape(1, -1), mae_floor)[0])


def _interquartile_mean(votes):
    xs = np.sort(votes)
    cut = len(xs) // 4
    middle = xs[cut:len(xs) - cut]
    if middle.size == 0:
        return float(np.median(xs))
    return float(middle.mean())


def _mode(votes):
    counts = Counter(votes.tolist())
    top = max(counts.values())
    return float(min(v for v, c in counts.items() if c == top))


def _max_likelihood(votes, bandwidth=KDE_BANDWIDTH, step=KDE_GRID_STEP):
    """Mode of a Gaussian kernel density over the votes.

    Evaluated on a 0.1-year grid snapped to multiples of the step, plus
    the vote values themselves so a unanimous vote is returned exactly.
    Only grid points within 3 bandwidths of some vote are evaluated, so
    the work grows with the vote count, not the vote range. A skipped grid
    point lies in a gap between those windows, where every vote is more
    than a bandwidth away; each kernel term, and so the density, is convex
    there, so the grid maximum is never a skipped point.
    """
    lo = np.ceil((votes - 3 * bandwidth) / step)
    hi = np.floor((votes + 3 * bandwidth) / step)
    if not np.isfinite(hi - lo).all():
        raise NumericalError("max_likelihood: a vote is too large for the grid")
    ticks = lo[:, None] + np.arange(int((hi - lo).max()) + 1)
    grid = np.union1d(ticks[ticks <= hi[:, None]] * step, votes)
    density = np.exp(-((grid[:, None] - votes[None, :]) ** 2) / (2 * bandwidth**2)).sum(axis=1)
    return float(grid[np.argmax(density)])


def _winsorized_mean(votes, replaced_per_tail=None, fraction=0.3):
    """Clamp the tails to the surviving order statistics, then average.

    With the ten-vote overlap the default replaces 3 per tail, which
    leaves the 6 central order statistics; other sizes use the fraction.
    """
    xs = np.sort(votes)
    n = len(xs)
    g = int(n * fraction) if replaced_per_tail is None else replaced_per_tail
    if 2 * g >= n:
        return float(np.median(xs))
    xs[:g] = xs[g]
    xs[n - g:] = xs[n - g - 1]
    return float(xs.mean())


def _truncated_mean(votes, fraction=0.3):
    """Drop floor(n*fraction) votes from each end, average the rest."""
    xs = np.sort(votes)
    n = len(xs)
    g = int(n * fraction)
    middle = xs[g:n - g]
    if middle.size == 0:
        return float(np.median(xs))
    return float(middle.mean())


def baseline_aggregate(votes, method):
    """One of the classical statistics over a vote list."""
    votes = np.asarray(votes, dtype=np.float64)
    if votes.size == 0:
        raise InputError("baseline_aggregate: no votes")
    if method == "mean":
        return float(votes.mean())
    if method == "median":
        return float(np.median(votes))
    if method == "interquartile_mean":
        return _interquartile_mean(votes)
    if method == "mode":
        return _mode(votes)
    if method == "max_likelihood":
        return _max_likelihood(votes)
    if method == "winsorized_mean":
        return _winsorized_mean(votes)
    if method == "truncated_mean":
        return _truncated_mean(votes)
    raise InputError(f"unknown aggregation method {method!r}")


# ---------------------------------------------------------------------------
# gender aggregation


def aggregate_gender(votes, min_frequency=GENDER_MIN_FREQUENCY):
    """Mode of the gender votes; "rejected" when the mode frequency is
    below the threshold (exactly at the threshold is retained)."""
    votes = list(votes)
    if not votes:
        raise InputError("aggregate_gender: no votes")
    male, female = votes.count("male"), votes.count("female")
    if male + female != len(votes):
        bad = next(v for v in votes if v not in GENDERS)
        raise InputError(f"unknown gender vote {bad!r}")
    if max(male, female) / len(votes) < min_frequency or male == female:
        return "rejected"
    return "male" if male > female else "female"


# ---------------------------------------------------------------------------
# user reliability


def score_users(control_answers):
    """Per-user control-task quality: MAE and CS@3 (the honeypot rule's
    +-3-year window, boundary inclusive).

    control_answers: {user_id: [(voted_age, true_age), ...]}
    """
    stats = []
    for user_id, answers in control_answers.items():
        if not answers:
            raise InputError(f"user {user_id}: no control answers")
        errors = np.array([abs(v - t) for v, t in answers], dtype=np.float64)
        mae = float(errors.mean())
        if not math.isfinite(mae):
            raise NumericalError(f"user {user_id}: control MAE is not finite")
        stats.append(
            UserStat(
                user_id=str(user_id),
                mae=mae,
                cs3=float((errors <= 3.0).mean() * 100.0),
                control_count=len(answers),
            )
        )
    return stats


def _weighted_mean_ages(records, mae_by_user):
    """e^{1/MAE}-weighted mean age per record, one `_weighted_means` call
    per distinct vote count; entries of records without age votes are
    unused."""
    counts = np.array([len(record.age_votes) for record in records], dtype=np.intp)
    ages = np.empty(len(records))
    try:
        for k in np.unique(counts[counts > 0]).tolist():
            rows = np.flatnonzero(counts == k)
            group = [records[i].age_votes for i in rows.tolist()]
            # filled row by row, so each [n_k, k] block is C-contiguous
            votes = np.fromiter((v for pairs in group for _, v in pairs), np.float64, rows.size * k)
            maes = np.fromiter((mae_by_user[u] for pairs in group for u, _ in pairs), np.float64, rows.size * k)
            ages[rows] = _weighted_means(votes.reshape(-1, k), maes.reshape(-1, k))
    except KeyError:
        for record in records:
            missing = [u for u, _ in record.age_votes if u not in mae_by_user]
            if missing:
                raise InputError(f"task {record.task_id}: no control MAE for users {missing}") from None
        raise
    return ages.tolist()


def aggregate_tasks(records, user_stats, method="weighted_mean"):
    """Aggregate every task's votes; returns [{task, age, gender}, ...].

    weighted_mean is columnar (see the module docstring), so a missing MAE
    anywhere is reported before any age is checked for overflow.
    """
    mae_by_user = {s.user_id: max(s.mae, MAE_FLOOR) for s in user_stats}
    weighted = _weighted_mean_ages(records, mae_by_user) if method == "weighted_mean" else None
    results = []
    for i, record in enumerate(records):
        age = gender = None
        if record.age_votes:
            if weighted is not None:
                age = weighted[i]
            else:
                age = baseline_aggregate([v for _, v in record.age_votes], method)
            if not math.isfinite(age):
                raise NumericalError(f"task {record.task_id}: aggregated age is not finite")
        if record.gender_votes:
            gender = aggregate_gender([g for _, g in record.gender_votes])
        results.append({"task": record.task_id, "age": age, "gender": gender})
    return results


def collect_vote_records(rows):
    """Group flat {task, user, age, gender} rows into VoteRecords."""
    by_task = {}
    for row in rows:
        task = str(row["task"])
        bucket = by_task.get(task)
        if bucket is None:
            bucket = by_task[task] = ([], [])
        user = str(row["user"])
        age = row.get("age")
        if age is not None:
            bucket[0].append((user, float(age)))
        gender = row.get("gender")
        if gender is not None:
            bucket[1].append((user, gender))
    return [VoteRecord(task_id=t, age_votes=a, gender_votes=g) for t, (a, g) in by_task.items()]
