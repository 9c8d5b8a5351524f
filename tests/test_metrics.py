import numpy as np
import pytest

from agegender.errors import InputError
from agegender.metrics import (
    cs_at,
    format_report,
    gender_accuracy,
    mae,
    metrics_report,
    per_bin_mae,
)


def test_mae_basics():
    assert mae([10.0], [15.0]) == 5.0
    assert mae([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0


def test_mae_translation_invariant():
    rng = np.random.default_rng(0)
    p = rng.random(30) * 100
    t = rng.random(30) * 100
    assert abs(mae(p, t) - mae(p + 17.5, t + 17.5)) < 1e-12


def test_mae_validation():
    with pytest.raises(InputError):
        mae([], [])
    with pytest.raises(InputError):
        mae([1.0], [1.0, 2.0])


def test_cs_boundary_inclusive():
    pred = np.array([10.0, 13.0, 15.0, 16.0])
    target = np.array([10.0, 10.0, 10.0, 10.0])  # errors 0, 3, 5, 6
    assert cs_at(pred, target, 5) == 75.0


def test_cs_all_exact():
    assert cs_at([4.0, 5.0], [4.0, 5.0], 0) == 100.0


def test_cs_monotone_in_level():
    rng = np.random.default_rng(1)
    p = rng.random(100) * 100
    t = rng.random(100) * 100
    values = [cs_at(p, t, level) for level in range(0, 120, 3)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert cs_at(p, t, 1e9) == 100.0


def test_cs_validation():
    with pytest.raises(InputError):
        cs_at([1.0], [1.0], -1)
    with pytest.raises(InputError):
        cs_at([], [], 5)


def test_gender_accuracy():
    assert gender_accuracy(["male", "female"], ["male", "male"]) == 50.0
    assert gender_accuracy([0, 1, 1], [0, 1, 1]) == 100.0


# ---------------------------------------------------------------------------
# report


def test_per_bin_mae():
    pred = np.array([5.0, 15.0, 16.0])
    target = np.array([7.0, 12.0, 18.0])
    bins = per_bin_mae(pred, target)
    assert bins[(0, 9)] == 2.0
    assert bins[(10, 19)] == 2.5


def test_metrics_report_keys_and_format():
    pred = np.array([10.0, 20.0, 30.0])
    target = np.array([12.0, 20.0, 27.0])
    report = metrics_report(pred, target, ["male", "male"], ["male", "female"])
    assert report["n"] == 3
    assert report["gender_acc"] == 50.0
    for level in range(1, 11):
        assert f"cs@{level}" in report
    text = format_report(report)
    assert "mae " in text and text.endswith("\n")
    # fixed key order, one key-value pair per line
    keys = [line.split()[0] for line in text.strip().splitlines()]
    assert keys[:2] == ["n", "mae"]
