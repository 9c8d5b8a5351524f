"""Training objectives: LDS-weighted MSE for age, cross-entropy for the
two gender logits, their weighted combination, and the min-max age
normalizer."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import InputError
from .tensor import Tensor


@dataclass(frozen=True)
class AgeNormalizer:
    """Min-max mapping between years and the model's [0, 1] target."""

    y_min: float = 0.0
    y_max: float = 100.0

    def __post_init__(self):
        if self.y_max <= self.y_min:
            raise InputError(f"y_max ({self.y_max}) must exceed y_min ({self.y_min})")

    @property
    def span(self):
        return self.y_max - self.y_min

    def normalize(self, years):
        return (np.asarray(years, dtype=np.float64) - self.y_min) / self.span

    def denormalize(self, norm):
        """Back to years; predictions are clamped to [y_min, y_max] here and
        only here."""
        years = self.y_min + np.asarray(norm, dtype=np.float64) * self.span
        return np.clip(years, self.y_min, self.y_max)

    @classmethod
    def from_config(cls, cfg):
        return cls(cfg.y_min, cfg.y_max)


# ---------------------------------------------------------------------------
# label distribution smoothing (Yang et al., arXiv:2102.09554)

LDS_BIN_WIDTH = 1.0
LDS_KERNEL_SIZE = 5
LDS_SIGMA = 2.0


def gaussian_kernel(size, sigma):
    """Symmetric normalized Gaussian window; size 1 disables smoothing."""
    if size < 1 or size % 2 == 0:
        raise InputError(f"kernel size must be odd and >= 1, got {size}")
    half = size // 2
    x = np.arange(-half, half + 1, dtype=np.float64)
    k = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return k / k.sum()


class LdsWeights:
    """Inverse kernel-smoothed label density, one weight per age bin.

    The table is mean-normalized to 1 over the populated bins; queries
    outside the histogram support clamp to the nearest bin.
    """

    def __init__(self, ages, bin_width=LDS_BIN_WIDTH, kernel_size=LDS_KERNEL_SIZE, sigma=LDS_SIGMA):
        ages = np.asarray(ages, dtype=np.float64)
        if ages.size == 0:
            raise InputError("LDS needs a non-empty age histogram")
        self.bin_width = float(bin_width)
        self.lo = np.floor(ages.min() / bin_width) * bin_width
        n_bins = int(np.floor((ages.max() - self.lo) / bin_width)) + 1
        idx = np.clip(((ages - self.lo) / bin_width).astype(int), 0, n_bins - 1)
        counts = np.bincount(idx, minlength=n_bins).astype(np.float64)
        kernel = gaussian_kernel(kernel_size, sigma)
        # boundary-corrected smoothing: renormalize by the kernel mass that
        # falls inside the support, so a uniform histogram stays uniform
        half = kernel_size // 2
        num = np.convolve(counts, kernel, mode="full")[half:half + n_bins]
        den = np.convolve(np.ones(n_bins), kernel, mode="full")[half:half + n_bins]
        smoothed = num / den
        valid = smoothed > 0
        inv = np.zeros_like(smoothed)
        inv[valid] = 1.0 / smoothed[valid]
        inv /= inv[valid].mean()
        self.smoothed = smoothed
        self.weights = inv
        self._valid = valid

    def bin_index(self, age):
        return int(np.clip((age - self.lo) / self.bin_width, 0, len(self.weights) - 1))

    def weight_for(self, age):
        i = self.bin_index(age)
        if not self._valid[i]:
            populated = np.flatnonzero(self._valid)
            i = populated[np.abs(populated - i).argmin()]
        return float(self.weights[i])

    def weights_for(self, ages):
        return np.array([self.weight_for(a) for a in np.asarray(ages, dtype=np.float64)])

    @property
    def mean_weight(self):
        return float(self.weights[self._valid].mean())


# ---------------------------------------------------------------------------
# losses (graph-aware: predictions may be Tensors; targets, weights and
# one-hots take the predictions' dtype, so no op mixes float32 and float64)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else T.constant(x)


def weighted_mse(pred_norm, target_norm, weights):
    """mean_i w_i * (pred_i - target_i)^2, as a scalar Tensor."""
    pred = _as_tensor(pred_norm)
    target = np.asarray(target_norm, dtype=pred.data.dtype)
    w = np.asarray(weights, dtype=pred.data.dtype)
    if pred.shape != target.shape or pred.shape != w.shape:
        raise InputError(
            f"weighted_mse: lengths differ (pred {pred.shape}, target {target.shape}, weights {w.shape})"
        )
    if (w <= 0).any():
        raise InputError("weighted_mse: weights must be positive")
    diff = pred - T.constant(target)
    return (diff * diff * T.constant(w)).mean()


def gender_loss(logits, labels):
    """Cross-entropy over the softmaxed 2-logit gender output.

    labels: 0/1 ints, one per sample. Accepts a single [2] vector too.
    """
    logits = _as_tensor(logits)
    single = logits.ndim == 1
    if single:
        logits = T.reshape(logits, (1, 2))
        labels = [labels]
    labels = np.asarray(labels, dtype=int)
    if logits.shape != (len(labels), 2):
        raise InputError(f"gender_loss: logits {logits.shape} do not match {len(labels)} labels")
    onehot = np.zeros((len(labels), 2), dtype=logits.data.dtype)
    onehot[np.arange(len(labels)), labels] = 1.0
    logp = T.log_softmax(logits, axis=-1)
    picked = (logp * T.constant(onehot)).sum(axis=-1)
    return -picked.mean()


def combined_loss(age_loss, gender_loss_value, w_gender=0.03):
    """age + w * gender; w = 0 degenerates to age-only training."""
    if w_gender < 0:
        raise InputError(f"gender loss weight must be >= 0, got {w_gender}")
    return _as_tensor(age_loss) + _as_tensor(gender_loss_value) * float(w_gender)
