"""Model and training configuration: the single source of truth.

Serialization round-trips losslessly (JSON with repr floats) and every
checkpoint stores the config plus its hash so evaluation cannot drift from
training. Two hashes matter: `config_hash` covers every field,
`arch_hash` only the fields that determine parameter shapes, which is what
checkpoint compatibility actually needs. `dtype` is the model's compute
and storage precision; it is not part of `arch_hash`, so weights transfer
between a float32 and a float64 model.

Standard constants that no run changes are not fields; each lives beside
its one reader (`optim`, `losses`, `augment`, `train`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers
import sys
from dataclasses import dataclass

from .errors import ConfigError

_ARCH_FIELDS = (
    "image_side",
    "patch_size",
    "stage1_width",
    "outlooker_blocks",
    "outlook_window",
    "outlook_heads",
    "transformer_blocks",
    "attn_heads",
    "mlp_ratio",
    "head_hidden",
    "enhancer_heads",
)

DTYPES = ("float32", "float64")

_PROBABILITY_FIELDS = (
    "body_input_dropout",
    "face_input_dropout",
    "hflip_prob",
    "erase_prob",
)

# a rate of 1 would keep nothing and rescale the kept part by 1 / 0
_DROP_RATES = ("drop_rate", "drop_path_rate")

# rates, weights and magnitudes that must not be negative
_NON_NEGATIVE = ("learning_rate", "warmup_start_lr", "weight_decay", "gender_loss_weight", "jitter")

# int fields that may be 0; every other int is a size, count or head
# number and must be at least 1
_MAY_BE_ZERO = ("outlooker_blocks", "transformer_blocks", "warmup_steps", "max_steps", "seed")

# field annotation (a string: annotations are postponed here) -> accepted
# value types; no field is a bool, and a bool is rejected as a number
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str}


@dataclass
class ModelConfig:
    # architecture
    image_side: int = 64
    patch_size: int = 8
    stage1_width: int = 64
    outlooker_blocks: int = 2
    outlook_window: int = 3
    outlook_heads: int = 1
    transformer_blocks: int = 2
    attn_heads: int = 4
    mlp_ratio: int = 3
    head_hidden: int = 128
    enhancer_heads: int = 2
    # parameters, activations and gradients; AdamW keeps float64 state
    dtype: str = "float32"
    # age target range (dataset-level, stored in checkpoints)
    y_min: float = 0.0
    y_max: float = 100.0
    # losses
    gender_loss_weight: float = 0.03
    # optimizer
    learning_rate: float = 1.5e-5
    weight_decay: float = 5e-5
    warmup_start_lr: float = 1e-6
    warmup_steps: int = 25
    # schedule
    batch_size: int = 16
    max_steps: int = 0  # 0: train.EPOCHS passes over the data
    log_every: int = 10
    # regularization
    drop_rate: float = 0.32
    drop_path_rate: float = 0.32
    body_input_dropout: float = 0.1
    face_input_dropout: float = 0.5
    # augmentation
    jitter: float = 0.45
    hflip_prob: float = 0.5
    erase_prob: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for field in dataclasses.fields(self):
            v = getattr(self, field.name)
            if isinstance(v, bool) or not isinstance(v, _FIELD_TYPES[field.type]):
                raise ConfigError(f"{field.name} must be {field.type}, got {v!r}")
            low = 0 if field.name in _MAY_BE_ZERO else 1
            if field.type == "int" and v < low:
                raise ConfigError(f"{field.name} must be at least {low}, got {v}")
            # also refuses an int too large for a float
            if field.type == "float" and not abs(v) <= sys.float_info.max:
                raise ConfigError(f"{field.name} must be a finite number, got {v}")
        for name in _NON_NEGATIVE:
            v = getattr(self, name)
            if v < 0:
                raise ConfigError(f"{name} must be at least 0, got {v}")
        for name in _PROBABILITY_FIELDS:
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        for name in _DROP_RATES:
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {v}")
        if self.body_input_dropout + self.face_input_dropout > 1.0:
            raise ConfigError(
                "body_input_dropout + face_input_dropout must not exceed 1 "
                "(the two drops are mutually exclusive)"
            )
        if self.y_max <= self.y_min:
            raise ConfigError(f"y_max ({self.y_max}) must exceed y_min ({self.y_min})")
        if self.image_side % self.patch_size:
            raise ConfigError(
                f"image_side {self.image_side} not divisible by patch_size {self.patch_size}"
            )
        if self.outlook_window % 2 == 0:
            raise ConfigError(f"outlook_window must be odd, got {self.outlook_window}")
        if self.stage1_width % self.outlook_heads:
            raise ConfigError("stage1_width must be divisible by outlook_heads")
        if (2 * self.stage1_width) % self.attn_heads:
            raise ConfigError("stage-2 width (2*stage1_width) must be divisible by attn_heads")
        if self.stage1_width % self.enhancer_heads:
            raise ConfigError("stage1_width must be divisible by enhancer_heads")
        if self.dtype not in DTYPES:
            raise ConfigError(f"dtype must be one of {', '.join(DTYPES)}, got {self.dtype!r}")
        grid = self.image_side // self.patch_size
        if grid < self.outlook_window:
            raise ConfigError(
                f"token grid {grid}x{grid} smaller than outlook window {self.outlook_window}"
            )
        if grid % 2:
            raise ConfigError(f"token grid side {grid} must be even for downsampling")

    # -- serialization ------------------------------------------------------

    def to_dict(self):
        return dataclasses.asdict(self)

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # ValueError also covers an integer past Python's digit limit
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path):
        """Read a UTF-8 JSON config; every fault in it is a ConfigError
        naming the file."""
        try:
            with open(path, encoding="utf-8") as fh:
                return cls.from_json(fh.read())
        except (ConfigError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    # -- hashing -------------------------------------------------------------

    def config_hash(self):
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def arch_hash(self):
        blob = json.dumps({k: getattr(self, k) for k in _ARCH_FIELDS}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    # -- derived geometry ----------------------------------------------------

    @property
    def grid_side(self):
        return self.image_side // self.patch_size

    @property
    def token_count(self):
        return self.grid_side * self.grid_side

    @property
    def stage2_width(self):
        return 2 * self.stage1_width


def tiny_config(**overrides):
    """Desk-scale default: < 1M parameters, finite-difference checkable."""
    return ModelConfig(**overrides)


def micro_config(**overrides):
    """Smallest legal model; exhaustive gradient checks in seconds."""
    base = dict(
        image_side=32,
        patch_size=8,
        stage1_width=8,
        outlooker_blocks=1,
        transformer_blocks=1,
        attn_heads=2,
        head_hidden=16,
        enhancer_heads=2,
        drop_rate=0.0,
        drop_path_rate=0.0,
    )
    base.update(overrides)
    return ModelConfig(**base)


def d1_config(**overrides):
    """Full-scale preset in the published model's parameter class.

    A reference point only; nothing at desk scale instantiates or trains
    it.
    """
    base = dict(
        image_side=224,
        patch_size=8,
        stage1_width=192,
        outlooker_blocks=4,
        transformer_blocks=14,
        attn_heads=12,
        outlook_heads=6,
        head_hidden=384,
        enhancer_heads=6,
    )
    base.update(overrides)
    return ModelConfig(**base)
