"""Crowd-vote aggregation.

Age votes are combined with an exponential reliability weighting,
A(v) = sum_i v_i * e^{1/MAE(u_i)} / sum_i e^{1/MAE(u_i)}, where MAE(u_i)
is the user's error on control tasks (floored at 0.5 years so a perfect
annotator does not carry infinite weight). Gender is the plain mode,
rejected when the mode frequency drops below 75% (exactly 75% is kept).
The classical baseline aggregators are here too, for comparison runs.

Cost: `collect_vote_records` codes each vote's task and user in one pass
of dict look-ups and groups the votes stably by task into one columnar
`VoteTable` (user, age and gender arrays with per-task offsets), checked
by array operations; no per-vote object outlives the pass.
`aggregate_tasks` looks each user's MAE up once and averages the tasks of
each age-vote count k as one C-contiguous [n_k, k] block, so each age is
bit-identical to `weighted_mean_age` on that task alone. Genders take two
`np.bincount` calls; the baselines run task by task on age slices.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import count

import numpy as np

from .errors import InputError, NumericalError

MAE_FLOOR = 0.5
GENDER_MIN_FREQUENCY = 0.75
KDE_BANDWIDTH = 2.0
KDE_GRID_STEP = 0.1

GENDERS = ("male", "female")
# VoteTable gender codes; 2 (unknown) is reported before a table is built
_GENDER_CODES = {None: -1, "male": 0, "female": 1}
_GENDER_RESULTS = (*GENDERS, "rejected", None)


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


@dataclass(frozen=True)
class VoteTable:
    """Every vote of a votes file, grouped stably by task: task t (of
    `task_ids`, in first-appearance order) owns votes offsets[t]:offsets[t+1]
    of the columns `user` (codes into `user_ids`), `age` (float64, NaN for
    no age vote) and `gender` (codes -1 none, 0 male, 1 female)."""

    task_ids: list
    user_ids: list
    offsets: np.ndarray
    user: np.ndarray
    age: np.ndarray
    gender: np.ndarray


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


def _winsorized_mean(votes, fraction=0.3):
    """Replace floor(n*fraction) votes at each end with the nearest
    surviving order statistic, then average; a fraction under 0.5 always
    leaves one survivor (ten votes: 3 replaced per tail, 4 survive)."""
    xs = np.sort(votes)
    n = len(xs)
    g = int(n * fraction)
    xs[:g] = xs[g]
    xs[n - g:] = xs[n - g - 1]
    return float(xs.mean())


def _truncated_mean(votes, fraction=0.3):
    """Drop floor(n*fraction) votes from each end, average the rest (the
    interquartile mean at fraction 0.25); a fraction under 0.5 always
    leaves one."""
    xs = np.sort(votes)
    n = len(xs)
    g = int(n * fraction)
    return float(xs[g:n - g].mean())


_BASELINES = {
    "mean": lambda votes: float(votes.mean()),
    "median": lambda votes: float(np.median(votes)),
    "interquartile_mean": lambda votes: _truncated_mean(votes, 0.25),
    "mode": _mode,
    "max_likelihood": _max_likelihood,
    "winsorized_mean": _winsorized_mean,
    "truncated_mean": _truncated_mean,
}
BASELINE_METHODS = tuple(_BASELINES)


def baseline_aggregate(votes, method):
    """One of the classical statistics over a vote list."""
    votes = np.asarray(votes, dtype=np.float64)
    if votes.size == 0:
        raise InputError("baseline_aggregate: no votes")
    if method not in _BASELINES:
        raise InputError(f"unknown aggregation method {method!r}")
    return _BASELINES[method](votes)


# ---------------------------------------------------------------------------
# gender aggregation


def _gender_mode(male, female, min_frequency=GENDER_MIN_FREQUENCY):
    """Index into _GENDER_RESULTS of each pair of vote counts: the mode,
    rejected when its frequency is below the threshold (exactly at the
    threshold is retained) or tied, None without votes."""
    total = male + female
    rejected = (np.maximum(male, female) / np.maximum(total, 1) < min_frequency) | (male == female)
    return np.where(total == 0, 3, np.where(rejected, 2, np.where(female > male, 1, 0)))


def aggregate_gender(votes, min_frequency=GENDER_MIN_FREQUENCY):
    """Mode of the gender votes, or "rejected" (see `_gender_mode`)."""
    votes = list(votes)
    if not votes:
        raise InputError("aggregate_gender: no votes")
    male, female = votes.count("male"), votes.count("female")
    if male + female != len(votes):
        bad = next(v for v in votes if v not in GENDERS)
        raise InputError(f"unknown gender vote {bad!r}")
    return _GENDER_RESULTS[int(_gender_mode(male, female, min_frequency))]


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


def collect_vote_records(rows):
    """One VoteTable of flat {task, user, age, gender} rows; InputError for
    the first task that has no votes, two age or two gender votes from one
    user, or an unknown gender vote (checked in that order)."""
    task_codes, user_codes = defaultdict(count().__next__), defaultdict(count().__next__)
    tasks, users, ages, raw_genders = [], [], [], []
    for row in rows:
        tasks.append(task_codes[str(row["task"])])
        users.append(user_codes[str(row["user"])])
        age = row.get("age")
        ages.append(math.nan if age is None else float(age))
        raw_genders.append(row.get("gender"))

    task_ids, n_users, task = list(task_codes), len(user_codes), np.fromiter(tasks, np.intp, len(tasks))
    offsets = np.concatenate(([0], np.cumsum(np.bincount(task, minlength=len(task_ids)))))
    order = np.argsort(task, kind="stable")
    # an unhashable JSON value (a list or an object) is an unknown gender too
    codes = (_GENDER_CODES.get(g, 2) if g.__hash__ else 2 for g in raw_genders)
    task, gender = task[order], np.fromiter(codes, np.int8, len(tasks))[order]
    user = np.fromiter(users, np.intp, len(tasks))[order]
    age = np.fromiter(ages, np.float64, len(tasks))[order]
    has_age, has_gender = ~np.isnan(age), gender >= 0
    failing = [np.flatnonzero(np.bincount(task[has_age | has_gender], minlength=len(task_ids)) == 0)]
    for has in (has_age, has_gender):  # a user voting twice on a task repeats a key
        keys = np.sort((task * n_users + user)[has])
        failing.append(keys[1:][keys[1:] == keys[:-1]] // n_users)
    failing.append(task[gender == 2])
    if any(f.size for f in failing):
        t, check = min((int(f.min()), check) for check, f in enumerate(failing) if f.size)
        bad = raw_genders[order[offsets[t] + np.argmax(gender[offsets[t]:offsets[t + 1]] == 2)]]
        reason = ("no votes", "duplicate age votes from one user", "duplicate gender votes from one user",
                  f"unknown gender vote {bad!r}")[check]
        raise InputError(f"task {task_ids[t]}: {reason}")
    return VoteTable(task_ids, list(user_codes), offsets, user, age, gender)


def aggregate_tasks(table, user_stats, method="weighted_mean"):
    """Aggregate every task's votes; returns [{task, age, gender}, ...].
    A missing MAE (weighted_mean) is reported for the first task that has
    one, before any age is checked for overflow."""
    n_tasks = len(table.task_ids)
    task = np.repeat(np.arange(n_tasks), np.diff(table.offsets))
    has_age = ~np.isnan(table.age)
    age_task, users, votes = task[has_age], table.user[has_age], table.age[has_age]
    counts = np.bincount(age_task, minlength=n_tasks)
    starts = np.concatenate(([0], np.cumsum(counts)))
    if method == "weighted_mean":
        mae_by_user = {s.user_id: max(s.mae, MAE_FLOOR) for s in user_stats}
        missing = np.array([u not in mae_by_user for u in table.user_ids], dtype=bool)[users]
        if missing.any():
            t = age_task[np.argmax(missing)]
            names = [table.user_ids[u] for u in users[missing & (age_task == t)].tolist()]
            raise InputError(f"task {table.task_ids[t]}: no control MAE for users {names}")
        maes = np.array([mae_by_user.get(u, 0.0) for u in table.user_ids], dtype=np.float64)[users]
        weighted = np.empty(n_tasks)
        for k in np.unique(counts[counts > 0]).tolist():
            rows = np.flatnonzero(counts == k)
            block = starts[rows, None] + np.arange(k)  # each [n_k, k] gather is C-contiguous
            weighted[rows] = _weighted_means(votes[block], maes[block])
        weighted = weighted.tolist()

    male, female = (np.bincount(task[table.gender == code], minlength=n_tasks) for code in (0, 1))
    genders = np.array(_GENDER_RESULTS, dtype=object)[_gender_mode(male, female)].tolist()

    results = []
    for t, (task_id, k, start) in enumerate(zip(table.task_ids, counts.tolist(), starts.tolist())):
        age = None
        if k:
            age = weighted[t] if method == "weighted_mean" else baseline_aggregate(votes[start:start + k], method)
            if not math.isfinite(age):
                raise NumericalError(f"task {task_id}: aggregated age is not finite")
        results.append({"task": task_id, "age": age, "gender": genders[t]})
    return results
