"""Span tracing from outside the program.

`Tracer.install` replaces public functions and methods of the `agegender`
modules with wrappers that record one span per call: name, start, end,
parent, the active tape's length at start and end, and an optional count
taken from the call. A function imported by value into another module
(`from .pairing import assign`) is a separate binding there, so every
module binding that holds the original function is replaced.
`uninstall` puts the originals back. Spans stay in memory until `write`.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from time import perf_counter

import agegender.cli  # noqa: F401  (imports every module TARGETS names)
from agegender import tensor


def _skip_info(args, kwargs, out):
    return kwargs.get("skip")


def _dropout_info(args, kwargs, out):
    return "both" if out.face_present and out.body_present else ("face" if out.face_present else "body")


def _file_bytes(args, kwargs, out):
    return os.path.getsize(args[0])


# (module, attribute, span name, info from (args, kwargs, result) or None)
TARGETS = (
    ("tensor", "Tape.backward", "tensor.backward", None),
    ("volo", "outlooker_forward", "volo.outlooker", None),
    ("volo", "downsample_forward", "volo.downsample", None),
    ("volo", "transformer_forward", "volo.transformer", None),
    ("volo", "head_forward", "volo.head", None),
    ("volo", "patch_embed", "fusion.patch_embed", None),
    ("fusion", "enhance", "fusion.enhance", None),
    ("fusion", "FaceBodyModel.forward_batch", "fusion.forward", _skip_info),
    ("losses", "weighted_mse", "losses.loss", None),
    ("losses", "gender_loss", "losses.loss", None),
    ("losses", "combined_loss", "losses.loss", None),
    ("optim", "AdamW.step", "optim.step", None),
    ("augment", "augment", "augment.augment", None),
    ("augment", "input_dropout", "augment.input_dropout", _dropout_info),
    ("checkpoint", "save_model", "checkpoint.save", _file_bytes),
    ("checkpoint", "load_model", "checkpoint.load", None),
    ("preprocess", "trim", "preprocess.trim", None),
    ("preprocess", "build_pair_record", "preprocess.build_pair_record", None),
    ("preprocess", "prepare_crop", "preprocess.prepare_crop", None),
    ("pairing", "assign", "pairing.assign", lambda a, k, out: len(out.pairs)),
    ("pairing", "hungarian", "pairing.hungarian", lambda a, k, out: len(a[0])),
    ("votes", "collect_vote_records", "votes.collect", None),
    ("votes", "score_users", "votes.score_users", None),
    ("votes", "aggregate_tasks", "votes.aggregate_tasks", None),
    ("data", "load_image", "data.load_image", None),
    ("data", "read_sample_manifest", "data.read_manifest", None),
    ("data", "read_detection_manifest", "data.read_manifest", None),
    ("data", "read_votes_file", "data.read_manifest", None),
    ("data", "read_controls_file", "data.read_manifest", None),
    ("metrics", "metrics_report", "metrics.report", None),
    ("train", "train", "train.train", None),
    ("train", "evaluate", "train.evaluate", None),
)

NAME, START, END, PARENT, NODES0, NODES1, INFO = range(7)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, nodes at start, nodes at end, info]
        self._stack = []
        self._tape = None
        self._undo = []

    def _open(self, name):
        tape = self._tape
        n = len(tape) if tape is not None else None
        record = [name, perf_counter(), None, self._stack[-1] if self._stack else -1, n, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record):
        record[END] = perf_counter()
        if record[NODES0] is not None and self._tape is not None:
            record[NODES1] = len(self._tape)
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _wrap(self, name, fn, info):
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(record)
            if info is not None:
                record[INFO] = info(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "agegender" or n.startswith("agegender.")]
        for module_name, attr, name, info in TARGETS:
            module = sys.modules["agegender." + module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, meth, self._wrap(name, getattr(cls, meth), info))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, info)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        self._track_tapes()

    def _track_tapes(self):
        enter, exit_ = tensor.Tape.__enter__, tensor.Tape.__exit__

        def tape_enter(tape):
            out = enter(tape)
            self._tape = tape
            return out

        def tape_exit(tape, *exc):
            self._tape = None
            return exit_(tape, *exc)

        self._set(tensor.Tape, "__enter__", tape_enter)
        self._set(tensor.Tape, "__exit__", tape_exit)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def self_times(self):
        """Each span's duration minus the time its direct children cover."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def roots(self):
        """Index of each span's outermost ancestor."""
        out = []
        for i, s in enumerate(self.spans):
            out.append(i if s[PARENT] < 0 else out[s[PARENT]])
        return out

    def write(self, path):
        """Spans as JSON lines, with self time."""
        self_time = self.self_times()
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                row = {
                    "id": i,
                    "name": s[NAME],
                    "start": s[START],
                    "end": s[END],
                    "parent": s[PARENT],
                    "self": self_time[i],
                }
                if s[NODES1] is not None:
                    row["nodes"] = s[NODES1] - s[NODES0]
                if s[INFO] is not None:
                    row["info"] = s[INFO]
                fh.write(json.dumps(row) + "\n")


def no_span(name):
    return contextlib.nullcontext()

