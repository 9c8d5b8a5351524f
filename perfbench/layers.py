"""Per-layer metrics from the spans of a traced run.

Only spans under the main phase's root spans count, so each workload's
layer figures describe the phase it is named after. A layer that phase
does not run reads 0.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from spans import END, INFO, NAME, NODES0, NODES1, PARENT, START

# (span name, denominator): "call" averages over the span's calls,
# "step" over training steps (Tape.backward calls)
TIMED = (
    ("tensor.backward", "call"),
    ("volo.outlooker", "call"),
    ("volo.downsample", "call"),
    ("volo.transformer", "call"),
    ("volo.head", "call"),
    ("fusion.patch_embed", "call"),
    ("fusion.enhance", "call"),
    ("fusion.forward", "call"),
    ("losses.loss", "step"),
    ("optim.step", "call"),
    ("augment.augment", "step"),
    ("checkpoint.save", "call"),
    ("checkpoint.load", "call"),
    ("preprocess.trim", "call"),
    ("preprocess.build_pair_record", "call"),
    ("preprocess.prepare_crop", "call"),
    ("pairing.assign", "call"),
    ("pairing.hungarian", "call"),
    ("votes.collect", "call"),
    ("votes.score_users", "call"),
    ("votes.aggregate_tasks", "call"),
    ("data.load_image", "call"),
    ("data.read_manifest", "call"),
    ("metrics.report", "call"),
)

BLOCKS = ("volo.outlooker", "volo.downsample", "volo.transformer", "volo.head")

UNITS = {
    "tensor.tape_nodes": "count",
    "fusion.skip_share": "share",
    "augment.dropout_face_only": "share",
    "augment.dropout_body_only": "share",
    "augment.dropout_both": "share",
    "train.step_p50_ms": "ms",
    "train.step_p90_ms": "ms",
    "checkpoint.bytes": "bytes",
    "pairing.matrix_n": "count",
    "pairing.pairs_per_image": "count",
    "proc.minflt_per_step": "faults/step",
}
for name, _ in TIMED:
    UNITS[name + "_ms"] = "ms"
    UNITS[name + "_self_ms"] = "ms"
for block in BLOCKS:
    UNITS[block + "_nodes"] = "count"


def _mean(values):
    return float(np.mean(values)) if len(values) else 0.0


def layer_metrics(tracer, main, minflt_per_step):
    """{metric: value} for every per-layer metric but the overheads."""
    spans = tracer.spans
    roots = tracer.roots()
    self_time = tracer.self_times()
    main_root = "phase." + main
    calls = defaultdict(list)
    for i, s in enumerate(spans):
        if spans[roots[i]][NAME] == main_root:
            calls[s[NAME]].append(i)

    steps = len(calls["tensor.backward"])
    out = {}
    for name, per in TIMED:
        idx = calls[name]
        n = steps if per == "step" else len(idx)
        total = sum(spans[i][END] - spans[i][START] for i in idx)
        own = sum(self_time[i] for i in idx)
        out[name + "_ms"] = 1000.0 * total / n if n else 0.0
        out[name + "_self_ms"] = 1000.0 * own / n if n else 0.0

    def info(name):
        return [spans[i][INFO] for i in calls[name]]

    out["tensor.tape_nodes"] = _mean([spans[i][NODES0] for i in calls["tensor.backward"]])
    for block in BLOCKS:
        taped = [i for i in calls[block] if spans[i][NODES1] is not None]
        out[block + "_nodes"] = _mean([spans[i][NODES1] - spans[i][NODES0] for i in taped])
    out["fusion.skip_share"] = _mean([skip is not None for skip in info("fusion.forward")])
    kept = info("augment.input_dropout")
    out["augment.dropout_face_only"] = _mean([k == "face" for k in kept])
    out["augment.dropout_body_only"] = _mean([k == "body" for k in kept])
    out["augment.dropout_both"] = _mean([k == "both" for k in kept])

    # period between consecutive optimizer steps of one train() call
    periods = []
    for a, b in zip(calls["optim.step"], calls["optim.step"][1:]):
        if spans[a][PARENT] == spans[b][PARENT]:
            periods.append(1000.0 * (spans[b][START] - spans[a][START]))
    p50, p90 = np.percentile(periods, [50, 90]) if periods else (0.0, 0.0)
    out["train.step_p50_ms"] = float(p50)
    out["train.step_p90_ms"] = float(p90)

    out["checkpoint.bytes"] = _mean(info("checkpoint.save"))
    out["pairing.matrix_n"] = _mean(info("pairing.hungarian"))
    out["pairing.pairs_per_image"] = _mean(info("pairing.assign"))
    out["proc.minflt_per_step"] = minflt_per_step
    return out
