"""Desk-scale multi-input (face + body) age & gender estimation lab.

A from-scratch stack: a tape-based autodiff tensor engine, VOLO-style
transformer blocks with cross-view feature fusion, the face-person
pairing and crop-preprocessing pipeline, crowd-vote aggregation, and a
seeded training harness. numpy/scipy are the only dependencies.
"""

from .config import ModelConfig, d1_config, micro_config, tiny_config
from .errors import (
    ConfigError,
    DimensionError,
    InputError,
    NumericalError,
    TapeError,
)
from .fusion import CropPair, FaceBodyModel
from .losses import AgeNormalizer, LdsWeights, combined_loss, gender_loss, weighted_mse
from .metrics import cs_at, mae
from .pairing import AssignmentResult, BBox, Detection, assign, hungarian
from .tensor import Tape, Tensor, constant, parameter
from .votes import aggregate_gender, baseline_aggregate, score_users, weighted_mean_age

__version__ = "0.1.0"

__all__ = [
    "AgeNormalizer",
    "AssignmentResult",
    "BBox",
    "ConfigError",
    "CropPair",
    "Detection",
    "DimensionError",
    "FaceBodyModel",
    "InputError",
    "LdsWeights",
    "ModelConfig",
    "NumericalError",
    "Tape",
    "TapeError",
    "Tensor",
    "aggregate_gender",
    "assign",
    "baseline_aggregate",
    "combined_loss",
    "constant",
    "cs_at",
    "d1_config",
    "gender_loss",
    "hungarian",
    "mae",
    "micro_config",
    "parameter",
    "score_users",
    "tiny_config",
    "weighted_mean_age",
    "weighted_mse",
    "__version__",
]
