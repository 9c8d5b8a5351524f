import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agegender.errors import InputError, NumericalError
from agegender.votes import (
    UserStat,
    VoteRecord,
    aggregate_gender,
    aggregate_tasks,
    baseline_aggregate,
    collect_vote_records,
    score_users,
    weighted_mean_age,
)


# ---------------------------------------------------------------------------
# weighted mean


def test_weighted_mean_symmetry():
    assert weighted_mean_age([20.0, 30.0], [1.0, 1.0]) == pytest.approx(25.0, abs=1e-12)


def test_weighted_mean_reference_value():
    # (20*e^2 + 30*e^0.5) / (e^2 + e^0.5), frozen from a direct evaluation
    # of the weighting formula
    got = weighted_mean_age([20.0, 30.0], [0.5, 2.0])
    e2, e05 = np.exp(2.0), np.exp(0.5)
    assert got == pytest.approx((20 * e2 + 30 * e05) / (e2 + e05), abs=1e-12)
    assert got == pytest.approx(21.824, abs=1e-3)


def test_weighted_mean_single_vote():
    assert weighted_mean_age([47.0], [3.0]) == 47.0


def test_weighted_mean_floors_small_maes():
    # a perfect-control user is floored at 0.5 rather than given
    # infinite weight
    assert weighted_mean_age([20.0, 30.0], [0.0, 0.5]) == pytest.approx(25.0, abs=1e-12)


def test_weighted_mean_equal_maes_is_arithmetic_mean():
    rng = np.random.default_rng(0)
    for _ in range(50):
        votes = rng.uniform(0, 100, size=rng.integers(1, 15))
        m = float(rng.uniform(0.5, 10))
        got = weighted_mean_age(votes, np.full(votes.size, m))
        assert got == pytest.approx(votes.mean(), abs=1e-9)


def test_weighted_mean_convex_combination():
    rng = np.random.default_rng(1)
    for _ in range(100):
        votes = rng.uniform(0, 100, size=rng.integers(1, 12))
        maes = rng.uniform(0.0, 12, size=votes.size)
        got = weighted_mean_age(votes, maes)
        assert votes.min() - 1e-9 <= got <= votes.max() + 1e-9


def test_weighted_mean_monotone_toward_reliable_vote():
    # decreasing one user's MAE pulls the estimate toward their vote
    votes = [20.0, 40.0]
    results = [weighted_mean_age(votes, [m, 2.0]) for m in (4.0, 2.0, 1.0, 0.5)]
    assert all(a > b for a, b in zip(results, results[1:]))
    assert all(20.0 < r < 40.0 for r in results)


def test_weighted_mean_validation():
    with pytest.raises(InputError):
        weighted_mean_age([], [])
    with pytest.raises(InputError):
        weighted_mean_age([1.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# baselines vs independent oracles


def test_median_example():
    assert baseline_aggregate([1, 2, 3, 4, 100], "median") == 3.0


def test_truncated_mean_example():
    assert baseline_aggregate([1, 2, 3, 4, 100], "truncated_mean") == 3.0


def test_all_votes_equal_fixpoint():
    votes = [33.0] * 10
    for method in ("mean", "median", "interquartile_mean", "mode", "max_likelihood",
                   "winsorized_mean", "truncated_mean"):
        assert baseline_aggregate(votes, method) == 33.0, method


def test_mode_smallest_tie():
    assert baseline_aggregate([5.0, 5.0, 9.0, 9.0, 2.0], "mode") == 5.0


def test_unknown_method():
    with pytest.raises(InputError):
        baseline_aggregate([1.0], "geometric")


@pytest.mark.parametrize("method", ["mean", "median", "interquartile_mean", "mode",
                                    "max_likelihood", "winsorized_mean", "truncated_mean"])
def test_baselines_match_oracle(method):
    from oracles import aggregate_oracle, is_kde_mode

    rng = np.random.default_rng(2)
    for _ in range(150):
        n = int(rng.integers(1, 14))
        votes = np.round(rng.uniform(0, 100, size=n), 1)
        got = baseline_aggregate(votes, method)
        if method == "max_likelihood":
            assert is_kde_mode(got, votes)
        else:
            assert got == pytest.approx(aggregate_oracle(votes, method), abs=1e-9)


# ---------------------------------------------------------------------------
# gender


def test_gender_mode_75_boundary_retained():
    assert aggregate_gender(["male", "male", "male", "female"]) == "male"


def test_gender_split_rejected():
    assert aggregate_gender(["male", "male", "female", "female"]) == "rejected"


def test_gender_unanimous():
    assert aggregate_gender(["female"] * 10) == "female"


def test_gender_permutation_invariant():
    rng = np.random.default_rng(3)
    for _ in range(50):
        votes = list(rng.choice(["male", "female"], size=rng.integers(1, 12)))
        shuffled = list(votes)
        rng.shuffle(shuffled)
        assert aggregate_gender(votes) == aggregate_gender(shuffled)


def test_gender_validation():
    with pytest.raises(InputError):
        aggregate_gender([])
    with pytest.raises(InputError):
        aggregate_gender(["man"])


# ---------------------------------------------------------------------------
# user scoring


def test_score_users_mae():
    stats = score_users({"u1": [(30.0, 30.0), (40.0, 44.0)]})
    assert stats[0].mae == 2.0
    assert stats[0].control_count == 2


def test_score_users_perfect_user_not_floored_here():
    stats = score_users({"u1": [(25.0, 25.0)]})
    assert stats[0].mae == 0.0  # floor applies at weighting time only


def test_score_users_cs3_inclusive():
    stats = score_users({"u1": [(10.0, 12.0), (10.0, 13.0), (10.0, 14.0)]})
    assert stats[0].cs3 == pytest.approx(200.0 / 3.0, abs=1e-9)


def test_user_stat_validation():
    with pytest.raises(InputError):
        UserStat("u", -1.0, 50.0, 3)
    with pytest.raises(InputError):
        UserStat("u", 1.0, 50.0, 0)


# ---------------------------------------------------------------------------
# records / end-to-end aggregation


def test_vote_record_validation():
    with pytest.raises(InputError):
        VoteRecord("t")
    with pytest.raises(InputError):
        VoteRecord("t", age_votes=[("u1", 30.0), ("u1", 40.0)])
    with pytest.raises(InputError):
        VoteRecord("t", gender_votes=[("u1", "robot")])


def test_collect_and_aggregate_tasks():
    rows = [
        {"task": "a", "user": "u1", "age": 20.0, "gender": "male"},
        {"task": "a", "user": "u2", "age": 30.0, "gender": "male"},
        {"task": "b", "user": "u1", "age": 50.0, "gender": "female"},
        {"task": "b", "user": "u2", "age": 60.0, "gender": "male"},
    ]
    records = collect_vote_records(rows)
    stats = score_users({"u1": [(30.0, 30.0)], "u2": [(40.0, 44.0)]})  # MAEs 0, 4
    results = aggregate_tasks(records, stats, method="weighted_mean")
    by_task = {r["task"]: r for r in results}
    e2, e025 = np.exp(1 / 0.5), np.exp(1 / 4.0)
    assert by_task["a"]["age"] == pytest.approx((20 * e2 + 30 * e025) / (e2 + e025), abs=1e-9)
    assert by_task["a"]["gender"] == "male"
    assert by_task["b"]["gender"] == "rejected"
    median_results = aggregate_tasks(records, [], method="median")
    assert {r["task"]: r["age"] for r in median_results} == {"a": 25.0, "b": 55.0}


def test_aggregate_tasks_missing_user_mae():
    records = collect_vote_records([{"task": "a", "user": "ghost", "age": 20.0, "gender": None}])
    with pytest.raises(InputError):
        aggregate_tasks(records, [], method="weighted_mean")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0, 100), min_size=1, max_size=12),
       st.lists(st.floats(0, 20), min_size=1, max_size=12))
def test_weighted_mean_stays_in_hull(votes, maes):
    n = min(len(votes), len(maes))
    got = weighted_mean_age(votes[:n], maes[:n])
    assert min(votes[:n]) - 1e-9 <= got <= max(votes[:n]) + 1e-9


# ---------------------------------------------------------------------------
# columnar aggregation vs the per-task oracles

METHODS = ("weighted_mean", "mean", "median", "interquartile_mean", "mode", "max_likelihood",
           "winsorized_mean", "truncated_mean")
# zero, below, at and just above the 0.5-year floor, then ordinary errors
EDGE_MAES = (0.0, 0.25, 0.5, 0.5000000000000001, 0.75)


def _user_stats(n_users, rng):
    maes = [EDGE_MAES[i] if i < len(EDGE_MAES) else float(rng.uniform(0.0, 12.0)) for i in range(n_users)]
    return [UserStat(f"u{i}", mae, 50.0, 3) for i, mae in enumerate(maes)]


def _vote_rows(n_tasks, n_users, rng):
    """Tasks of 1-15 voters: both kinds of vote, age only or gender only,
    with null ages and genders mixed in."""
    rows = []
    for t in range(n_tasks):
        kind = rng.choice(["both", "age", "gender"], p=[0.6, 0.2, 0.2])
        for j, u in enumerate(rng.choice(n_users, int(rng.integers(1, 16)), replace=False)):
            age = float(rng.uniform(0.0, 100.0))
            age = round(age) if rng.random() < 0.5 else age  # ties for the mode
            gender = str(rng.choice(["male", "female"], p=[0.7, 0.3]))
            if kind == "gender" or (j and rng.random() < 0.15):
                age = None
            if kind == "age" or (j and kind == "both" and age is not None and rng.random() < 0.15):
                gender = None
            rows.append({"task": f"t{t}", "user": f"u{u}", "age": age, "gender": gender})
    return rows


@pytest.mark.parametrize("method", METHODS)
def test_aggregate_tasks_equals_per_task_oracle(method):
    from oracles import aggregate_tasks_oracle, collect_vote_records_oracle

    rng = np.random.default_rng(11)
    rows = _vote_rows(2000, 40, rng)
    records = collect_vote_records(rows)
    assert records == collect_vote_records_oracle(rows)
    counts = {len(r.age_votes) for r in records}
    assert counts == set(range(0, 16))
    stats = _user_stats(40, rng)
    assert aggregate_tasks(records, stats, method) == aggregate_tasks_oracle(records, stats, method)


def test_weighted_mean_age_bitwise_equals_oracle():
    from oracles import weighted_mean_age_oracle

    rng = np.random.default_rng(12)
    for k in list(range(1, 40)) + [64, 127, 128, 129, 200, 257, 1000]:
        for _ in range(5):
            votes = rng.uniform(0.0, 100.0, k)
            maes = rng.choice([0.0, 0.3, 0.5, 2.0, 11.0], k) + rng.uniform(0.0, 1.0, k)
            got, want = weighted_mean_age(votes, maes), weighted_mean_age_oracle(votes, maes)
            assert got.hex() == want.hex(), k


def _raised(fn, *args):
    with pytest.raises((InputError, NumericalError)) as info:
        fn(*args)
    return type(info.value), str(info.value)


GOOD_ROWS = [{"task": "t0", "user": "u1", "age": 30.0, "gender": "male"},
             {"task": "t1", "user": "u1", "age": 40.0, "gender": "female"},
             {"task": "t1", "user": "u2", "age": 42.0, "gender": "female"}]


@pytest.mark.parametrize("extra", [
    {"task": "t1", "user": "u2", "age": 44.0, "gender": None},
    {"task": "t1", "user": "u1", "age": None, "gender": "male"},
    {"task": "t0", "user": "u2", "age": None, "gender": "robot"},
], ids=["duplicate_age", "duplicate_gender", "unknown_gender"])
def test_collect_errors_equal_oracle(extra):
    from oracles import collect_vote_records_oracle

    rows = GOOD_ROWS + [extra]
    assert _raised(collect_vote_records, rows) == _raised(collect_vote_records_oracle, rows)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("extra", [
    {"task": "t1", "user": "ghost", "age": 44.0, "gender": None},
    {"task": "t0", "user": "u2", "age": 1e308, "gender": None},
], ids=["missing_mae", "overflowing_age"])
def test_aggregate_errors_equal_oracle(extra):
    from oracles import aggregate_tasks_oracle

    records = collect_vote_records(GOOD_ROWS + [extra])
    stats = [UserStat("u1", 0.0, 100.0, 1), UserStat("u2", 0.4, 100.0, 1)]  # weights e^2
    assert _raised(aggregate_tasks, records, stats) == _raised(aggregate_tasks_oracle, records, stats)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_missing_mae_is_reported_before_an_earlier_overflow():
    # the per-task oracle meets the overflow in t0 first; the columnar path
    # looks every MAE up before it computes any age
    records = collect_vote_records(GOOD_ROWS + [{"task": "t0", "user": "u2", "age": 1e308, "gender": None},
                                                {"task": "t1", "user": "ghost", "age": 44.0, "gender": None}])
    stats = [UserStat("u1", 0.0, 100.0, 1), UserStat("u2", 0.4, 100.0, 1)]  # weights e^2
    assert _raised(aggregate_tasks, records, stats) == (
        InputError, "task t1: no control MAE for users ['ghost']")


def test_aggregate_gender_equals_oracle():
    from oracles import aggregate_gender_oracle

    rng = np.random.default_rng(13)
    for _ in range(500):
        votes = list(rng.choice(["male", "female"], size=int(rng.integers(1, 16))))
        frequency = float(rng.choice([0.0, 0.5, 0.6, 0.75, 1.0]))
        assert aggregate_gender(votes, frequency) == aggregate_gender_oracle(votes, frequency)
    for votes in ([], ["male", "robot", "x"], [None]):
        assert _raised(aggregate_gender, votes) == _raised(aggregate_gender_oracle, votes)


# ---------------------------------------------------------------------------
# max_likelihood: windowed grid vs the full-range grid


def test_max_likelihood_equals_full_grid_oracle():
    from oracles import max_likelihood_oracle

    rng = np.random.default_rng(14)
    for _ in range(1200):
        n = int(rng.integers(1, 16))
        spread = float(rng.uniform(5.0, 1000.0))
        votes = rng.uniform(-50.0, 100.0) + spread * rng.random(n)
        if rng.random() < 0.5:
            votes = np.round(votes, 1)
        assert baseline_aggregate(votes, "max_likelihood") == max_likelihood_oracle(votes)


def test_max_likelihood_cost_follows_vote_count_not_range():
    start = time.perf_counter()
    assert baseline_aggregate([0.0, 10.0, 1e7], "max_likelihood") == 0.0
    assert time.perf_counter() - start < 0.5
