"""Evaluation metrics: MAE, cumulative score, gender accuracy and per-bin
error curves."""

from __future__ import annotations

import numpy as np

from .errors import InputError


def _paired(pred, target, what):
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.shape != t.shape:
        raise InputError(f"{what}: length mismatch ({p.shape} vs {t.shape})")
    if p.size == 0:
        raise InputError(f"{what}: empty input")
    return p, t


def mae(pred_years, target_years):
    """Mean absolute error in years."""
    p, t = _paired(pred_years, target_years, "mae")
    return float(np.mean(np.abs(p - t)))


def cs_at(pred_years, target_years, level):
    """Cumulative score: percent of samples with |error| <= level years.

    The boundary is inclusive ("does not exceed").
    """
    if level < 0:
        raise InputError(f"cs level must be >= 0, got {level}")
    p, t = _paired(pred_years, target_years, "cs_at")
    return float(np.mean(np.abs(p - t) <= level) * 100.0)


def gender_accuracy(pred_labels, true_labels):
    """Percent of matching labels (labels may be ints or strings)."""
    p = list(pred_labels)
    t = list(true_labels)
    if len(p) != len(t):
        raise InputError(f"gender_accuracy: length mismatch ({len(p)} vs {len(t)})")
    if not p:
        raise InputError("gender_accuracy: empty input")
    hits = sum(1 for a, b in zip(p, t) if a == b)
    return 100.0 * hits / len(p)


def per_bin_mae(pred_years, target_years, bin_width=10):
    """MAE per true-age bin, for error-vs-age curves."""
    p, t = _paired(pred_years, target_years, "per_bin_mae")
    out = {}
    for lo in range(0, int(t.max()) + 1, bin_width):
        mask = (t >= lo) & (t < lo + bin_width)
        if mask.any():
            out[(lo, lo + bin_width - 1)] = float(np.mean(np.abs(p[mask] - t[mask])))
    return out


# ---------------------------------------------------------------------------
# report


def metrics_report(pred_years, target_years, pred_gender=None, true_gender=None, cs_levels=range(1, 11)):
    """Standard evaluation bundle as an ordered {key: value} dict."""
    report = {"n": len(np.atleast_1d(np.asarray(pred_years)))}
    report["mae"] = mae(pred_years, target_years)
    for level in cs_levels:
        report[f"cs@{level}"] = cs_at(pred_years, target_years, level)
    if pred_gender is not None and true_gender is not None and len(list(true_gender)):
        report["gender_acc"] = gender_accuracy(pred_gender, true_gender)
    for (lo, hi), value in per_bin_mae(pred_years, target_years).items():
        report[f"mae[{lo}-{hi}]"] = value
    return report


def format_report(report):
    """Textual key -> value lines (the metrics wire format)."""
    lines = []
    for key, value in report.items():
        if isinstance(value, float):
            lines.append(f"{key} {value:.4f}")
        else:
            lines.append(f"{key} {value}")
    return "\n".join(lines) + "\n"
