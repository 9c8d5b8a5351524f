"""Weight persistence, format `agegender-weights/5`: one JSON header line
(format, full config and its hashes, frozen paths, and `params`, the
[name, shape] pairs in sorted name order), then each parameter's values as
raw little-endian floats of the config's `dtype` (`<f4` or `<f8`) in that
order, so round trips are bit-exact. The `params` table must equal the
layout of the config's architecture, and loading checks it against that
layout and nothing else, for `load_model` and the warm start alike. The
frozen paths are the parameters whose `requires_grad` is off, and loading
turns it off for them again. Earlier formats are refused with a message
naming format 5: format 4 has the same layout under a config with nine
more fields, format 3 with four more again, format 2 an always `<f8`
payload and no dtype.
"""

from __future__ import annotations

import json
import math
from itertools import zip_longest

import numpy as np

from .config import ModelConfig
from .errors import ConfigError, InputError
from .fusion import FaceBodyModel, init_params
from .tensor import Tensor, check_finite

FORMAT = "agegender-weights/5"


def _payload_dtype(config):
    return np.dtype(config.dtype).newbyteorder("<")


def save_checkpoint(path, params, config):
    """Write `params` {name: Tensor}; those that require no gradient are
    recorded as frozen."""
    names = sorted(params)
    header = {
        "format": FORMAT,
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
        "arch_hash": config.arch_hash(),
        "frozen": [name for name in names if not params[name].requires_grad],
        "params": [[name, list(params[name].shape)] for name in names],
    }
    dtype = _payload_dtype(config)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        for name in names:
            fh.write(np.asarray(params[name].data, dtype=dtype).tobytes())


def load_checkpoint(path):
    """Returns (arrays {name: ndarray} in `init_params` order, config,
    frozen set). The header's `params` table must equal the architecture's
    [name, shape] layout in sorted name order. The arrays are read-only
    views of one buffer, in the config's dtype; a non-finite value raises
    NumericalError."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(header_line)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path}: bad checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise InputError(f"{path}: checkpoint header is not a JSON object")
    if header.get("format") != FORMAT:
        raise InputError(
            f"{path}: unknown checkpoint format {header.get('format')!r}, expected {FORMAT!r}"
        )
    try:
        config = ModelConfig.from_dict(header["config"])
    except (KeyError, ConfigError) as exc:
        raise InputError(f"{path}: bad checkpoint config: {exc!r}") from exc
    if config.config_hash() != header.get("config_hash"):
        raise InputError(f"{path}: config hash mismatch (corrupt or edited header)")
    table, frozen = header.get("params"), header.get("frozen")
    if not isinstance(table, list):
        raise InputError(f"{path}: missing or malformed params table")
    # every block has parameters: more blocks than entries cannot match,
    # and refusing them bounds the layout below by the header's size
    blocks = config.outlooker_blocks + config.transformer_blocks
    if blocks > len(table):
        raise InputError(
            f"{path}: params table has {len(table)} entries, fewer than the architecture's {blocks} blocks"
        )
    # the architecture's layout, from placeholders: nothing is drawn or allocated
    shapes = {name: p.shape for name, p in init_params(config, rng=None).items()}
    names = sorted(shapes)
    layout = [[name, list(shapes[name])] for name in names]
    if table != layout:
        got, want = next((a, b) for a, b in zip_longest(table, layout) if a != b)
        raise InputError(f"{path}: params table has {got!r} where the architecture has {want!r}")
    # list membership: an unhashable JSON entry is simply not a name
    if not isinstance(frozen, list) or not all(name in names for name in frozen):
        raise InputError(f"{path}: frozen list missing or naming unknown parameters")
    dtype = _payload_dtype(config)
    sizes = [math.prod(shapes[name]) for name in names]
    expected = sum(sizes) * dtype.itemsize
    if len(payload) != expected:
        raise InputError(
            f"{path}: payload is {len(payload)} bytes, params table needs {expected} ({config.dtype})"
        )
    flat = np.frombuffer(payload, dtype=dtype)
    ends = np.cumsum(sizes)
    arrays = {
        name: check_finite(flat[end - size:end].reshape(shapes[name]), f"{path}: {name}")
        for name, size, end in zip(names, sizes, ends)
    }
    return {name: arrays[name] for name in shapes}, config, set(frozen)


def save_model(path, model: FaceBodyModel):
    save_checkpoint(path, model.params, model.config)


def load_model(path):
    """Rebuild a model from a checkpoint, frozen flags included; no random
    init is drawn."""
    arrays, config, frozen = load_checkpoint(path)
    params = {name: Tensor(arr, requires_grad=name not in frozen) for name, arr in arrays.items()}
    return FaceBodyModel(config, params=params)


def init_from_single_input(face_checkpoint, config):
    """Warm-start the dual-input model from a single-input (face) run.

    The body patch embedding is copied from the face one, the trunk and
    head are copied, the feature enhancer is freshly random, and the face
    patch embedding is frozen (it is already trained). The enhancer is
    drawn from `config.seed`, like a fresh model's. Copied weights are
    cast to the target config's dtype, which may differ from the source's.
    """
    arrays, src_config, _ = load_checkpoint(face_checkpoint)
    if src_config.arch_hash() != config.arch_hash():
        raise InputError(
            f"{face_checkpoint}: architecture hash {src_config.arch_hash()} does not match "
            f"target config {config.arch_hash()}; refusing to transfer weights"
        )
    model = FaceBodyModel(config)
    for name in model.params:
        if name.startswith("enhancer."):
            continue  # keep the fresh random init
        if name.startswith("body_embed."):
            source = "face_embed." + name[len("body_embed."):]
        else:
            source = name
        model.params[name] = Tensor(np.asarray(arrays[source], dtype=model.dtype), requires_grad=True)
    model.freeze("face_embed")
    return model
