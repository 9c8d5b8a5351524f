"""The three phases every benchmark run measures: train, serve and prep.

Each phase drives the program only through its public API. `setup`
does the program-side set-up work (the caller times it), `run` performs
one operation and records its timings, and every check of the outputs
runs outside the timed calls. A failed check fails the operation it
belongs to.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
from dataclasses import dataclass
from time import perf_counter

import numpy as np
from scipy.optimize import linear_sum_assignment

from agegender import checkpoint, cli, data, fusion, pairing, preprocess, train
from agegender.config import micro_config, tiny_config

import inputs

EVAL_MODES = ("face", "body", "both")


@dataclass(frozen=True)
class Sizes:
    """Model preset, input sizes and minimum sample counts."""

    config: object = tiny_config
    train_records: int = 256
    heldout_records: int = 80  # face and body modes score 64, both mode 48
    train_steps: int = 6
    batch: int = 16
    serve_min_scenes: int = 100  # p90 then has at least ten scenes above it
    serve_warmup: int = 3
    prep_images: int = 16
    prep_tasks: int = 6000


TINY = Sizes(
    config=micro_config,
    train_records=16,
    heldout_records=10,
    train_steps=2,
    batch=4,
    serve_min_scenes=5,
    serve_warmup=1,
    prep_images=2,
    prep_tasks=40,
)


def median(values):
    return float(np.median(values))


def bits_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_params(a, b):
    return a.params.keys() == b.params.keys() and all(bits_equal(b.params[k].data, p.data) for k, p in a.params.items())


class Phase:
    name = ""

    def __init__(self, seed, sizes, span, metrics):
        self.seed = seed
        self.sizes = sizes
        self.span = span  # span(name) -> context manager; a no-op when untraced
        self.samples = {name: [] for name in metrics}  # one value per timed operation
        self.attempted = 0
        self.failures = []  # one message per failed operation

    def fail(self, message):
        self.failures.append(f"{self.name}: {message}")

    def prepare(self, work):
        """Untimed input generation, before any clock starts."""

    def warm_up(self):
        """Untimed work after set-up that fills lazy caches."""

    def run(self):
        """One timed operation."""

    def ready(self):
        """True once every metric of the phase has its minimum samples."""
        return all(self.samples.values())

    def metrics(self):
        return {name: median(values) for name, values in self.samples.items()}

    def minflt_per_step(self):
        return 0.0

    def finish(self):
        """Checks that need the whole phase's outputs."""


# ---------------------------------------------------------------------------
# train: train-then-test


class TrainPhase(Phase):
    """Seeded synthetic dataset -> train() -> checkpoint round trip ->
    evaluate() in face, body and both modes on a held-out set."""

    name = "train"

    def __init__(self, seed, sizes, span):
        super().__init__(
            seed, sizes, span, ("train.samples_per_s", "eval.samples_per_s", "ckpt.save_s", "ckpt.load_s")
        )
        self.config = sizes.config(max_steps=sizes.train_steps, batch_size=sizes.batch, seed=seed)
        self.minor_faults = []  # per step, one entry per train() call
        self.ops = 0

    def setup(self, work):
        self.work = work
        self.manifest = data.generate_synthetic_dataset(
            os.path.join(work, "train"), self.sizes.train_records, seed=self.seed
        )
        heldout = os.path.join(work, "heldout")
        generated = data.generate_synthetic_dataset(heldout, self.sizes.heldout_records, seed=self.seed + 1)
        # drop the person box of a fifth of the records and the face box of
        # another fifth (seeded choice, fixed counts), so evaluation modes
        # skip records and single-side inputs reach the model
        records = data.read_sample_manifest(generated)
        order = np.random.default_rng([self.seed, 5]).permutation(len(records))
        fifth = len(records) // 5
        for i in order[:fifth]:
            records[i].body_bbox = None
        for i in order[fifth:2 * fifth]:
            records[i].face_bbox = None
        self.heldout = os.path.join(heldout, "heldout.jsonl")
        data.write_sample_manifest(self.heldout, records)
        self.expected = {
            "face": sum(r.face_bbox is not None for r in records),
            "body": sum(r.body_bbox is not None for r in records),
            "both": sum(r.face_bbox is not None and r.body_bbox is not None for r in records),
        }
        self.total_records = len(records)

    def warm_up(self):
        # the first train() of a process runs at about half the speed of
        # the later ones; it is left out of the samples
        self._train()
        self.samples["train.samples_per_s"].clear()
        self.minor_faults.clear()

    def run(self):
        # checkpoint timings vary the most from call to call, so each
        # train() is followed by two round trips
        op = (self._train, self._roundtrip, self._evaluate, self._roundtrip)[self.ops % 4]
        self.ops += 1
        op()

    def _train(self):
        with self.span("op.train"):
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = perf_counter()
            result = train.train(self.manifest, self.config, os.path.join(self.work, "run"))
            elapsed = perf_counter() - start
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        self.attempted += 1
        self.trained = result.checkpoint_path
        steps = self.sizes.train_steps
        self.samples["train.samples_per_s"].append(self.sizes.batch * steps / elapsed)
        self.minor_faults.append(faults / steps)
        if len(result.losses) != steps or not all(math.isfinite(x) for x in result.losses):
            self.fail("train() produced a non-finite loss or the wrong number of steps")

    def _roundtrip(self):
        """Load the trained checkpoint, save it twice, load that: both
        loads must hold the same bits."""
        path = os.path.join(self.work, "roundtrip.ckpt")
        with self.span("op.roundtrip"):
            start = perf_counter()
            model = checkpoint.load_model(self.trained)
            self.samples["ckpt.load_s"].append(perf_counter() - start)
            for _ in range(2):
                start = perf_counter()
                checkpoint.save_model(path, model)
                self.samples["ckpt.save_s"].append(perf_counter() - start)
            start = perf_counter()
            self.loaded = checkpoint.load_model(path)
            self.samples["ckpt.load_s"].append(perf_counter() - start)
        self.attempted += 4
        if not same_params(model, self.loaded):
            self.fail("checkpoint did not reload bit-identically")

    def _evaluate(self):
        with self.span("op.evaluate"):
            start = perf_counter()
            reports = [train.evaluate(self.heldout, self.loaded, mode=mode) for mode in EVAL_MODES]
            elapsed = perf_counter() - start
        self.attempted += len(EVAL_MODES)
        scored = 0
        for mode, (report, skipped) in zip(EVAL_MODES, reports):
            scored += report["n"]
            want = self.expected[mode]
            if report["n"] != want or skipped != self.total_records - want or report["skipped"] != skipped:
                self.fail(f"evaluate({mode}) scored {report['n']}, skipped {skipped}; want {want}")
        self.samples["eval.samples_per_s"].append(scored / elapsed)

    def properties(self):
        return {
            "heldout_records": self.total_records,
            "heldout_face": self.expected["face"],
            "heldout_body": self.expected["body"],
            "heldout_both": self.expected["both"],
        }

    def minflt_per_step(self):
        return median(self.minor_faults)

    def finish(self):
        """A freshly initialised model, unlike a reloaded one, has values no
        save has rounded yet: its round trip must keep every bit too."""
        model = fusion.FaceBodyModel(self.config)
        path = os.path.join(self.work, "fresh.ckpt")
        checkpoint.save_model(path, model)
        loaded = checkpoint.load_model(path)
        self.attempted += 2
        if not same_params(model, loaded):
            self.fail("a fresh model did not reload bit-identically")


# ---------------------------------------------------------------------------
# serve: one scene at a time through a loaded model


def detections_of(scene):
    return [pairing.Detection(pairing.BBox(*box), kind) for kind, *box in scene.detections]


def units_of(dets):
    """assign() faces to persons; (face index, person index) per unit,
    None for an absent side."""
    face_idx = [i for i, d in enumerate(dets) if d.kind == "face"]
    person_idx = [i for i, d in enumerate(dets) if d.kind == "person"]
    result = pairing.assign([dets[i].bbox for i in face_idx], [dets[j].bbox for j in person_idx])
    units = [(face_idx[i], person_idx[j]) for i, j in result.pairs]
    units.extend((face_idx[i], None) for i in result.unmatched_faces)
    units.extend((None, person_idx[j]) for j in result.unmatched_persons)
    return units


class ServePhase(Phase):
    """assign -> build_pair_record -> prepare_crop -> forward_pair, or
    forward_pair_skip for single-side units, one 320x240 scene at a time."""

    name = "serve"
    SKIP_CHECK_SHARE = 0.1
    SKIP_CHECK_LIMIT = 16

    def __init__(self, seed, sizes, span):
        super().__init__(seed, sizes, span, ("serve.latency_ms",))
        self.latency_ms = self.samples["serve.latency_ms"]
        self.kinds = {"both": 0, "face": 0, "body": 0}
        self.next_scene = 0
        self.skip_samples = []
        self.check_rng = np.random.default_rng([seed, 4])

    def prepare(self, work):
        self.checkpoint = os.path.join(work, "serve.ckpt")
        checkpoint.save_model(self.checkpoint, fusion.FaceBodyModel(self.sizes.config(seed=self.seed)))

    def setup(self, work):
        self.model = checkpoint.load_model(self.checkpoint)

    def warm_up(self):
        # the first scenes fill the model's zero-input token cache
        for _ in range(self.sizes.serve_warmup):
            self.serve(inputs.serve_scene(self.seed, self.next_scene))
            self.next_scene += 1

    def serve(self, scene):
        dets = detections_of(scene)
        image = scene.image
        side = self.model.config.image_side
        outputs = []
        start = perf_counter()
        for fi, pi in units_of(dets):
            record = preprocess.build_pair_record(
                image,
                dets[fi].bbox if fi is not None else None,
                dets[pi].bbox if pi is not None else None,
                dets,
                {i for i in (fi, pi) if i is not None},
            )
            face = record["face_bbox"] and preprocess.prepare_crop(image, pairing.BBox(*record["face_bbox"]), side)
            body = record["body_bbox"] and preprocess.prepare_crop(image, pairing.BBox(*record["body_bbox"]), side)
            if face is None and body is None:
                continue
            pair = fusion.CropPair(face=face, body=body)
            if face is not None and body is not None:
                outputs.append(("both", pair, self.model.forward_pair(pair)))
            else:
                outputs.append(("face" if body is None else "body", pair, self.model.forward_pair_skip(pair)))
        return perf_counter() - start, outputs

    def run(self):
        scene = inputs.serve_scene(self.seed, self.next_scene)
        self.next_scene += 1
        with self.span("op.scene"):
            elapsed, outputs = self.serve(scene)
        self.attempted += 1
        self.latency_ms.append(elapsed * 1000.0)
        finite = True
        for kind, pair, (logits, age) in outputs:
            self.kinds[kind] += 1
            finite = finite and bool(np.isfinite(logits).all()) and math.isfinite(age)
            if (
                kind != "both"
                and len(self.skip_samples) < self.SKIP_CHECK_LIMIT
                and (not self.skip_samples or self.check_rng.random() < self.SKIP_CHECK_SHARE)
            ):
                self.skip_samples.append((pair, logits, age))
        if not finite:
            self.fail(f"scene {self.next_scene - 1}: non-finite prediction")

    def ready(self):
        return len(self.latency_ms) >= self.sizes.serve_min_scenes

    def finish(self):
        for pair, logits, age in self.skip_samples:
            self.attempted += 1
            full_logits, full_age = self.model.forward_pair(pair)
            if not (bits_equal(full_logits, logits) and np.float64(full_age).tobytes() == np.float64(age).tobytes()):
                self.fail("forward_pair_skip differs from forward_pair")

    def metrics(self):
        p50, p90 = np.percentile(self.latency_ms, [50, 90])
        return {"serve.p50_ms": float(p50), "serve.p90_ms": float(p90)}

    def properties(self):
        units = sum(self.kinds.values())
        return {
            "units_per_scene": units / len(self.latency_ms),
            "share_both": self.kinds["both"] / units,
            "share_face_only": self.kinds["face"] / units,
            "share_body_only": self.kinds["body"] / units,
            "skip_path_checks": len(self.skip_samples),
        }


# ---------------------------------------------------------------------------
# prep: dataset building through the command line


def weighted_mean_direct(votes, controls):
    """{task: e^{1/MAE}-weighted mean age}, computed straight from the
    generated rows (MAE floored at 0.5 years)."""
    errors = {}
    for row in controls:
        errors.setdefault(row["user"], []).append(abs(row["voted"] - row["truth"]))
    weight = {u: math.exp(1.0 / max(sum(e) / len(e), 0.5)) for u, e in errors.items()}
    sums = {}
    for row in votes:
        num, den = sums.get(row["task"], (0.0, 0.0))
        w = weight[row["user"]]
        sums[row["task"]] = (num + row["age"] * w, den + w)
    return {task: num / den for task, (num, den) in sums.items()}


def overlap(a, b):
    w = min(a[2], b[2]) - max(a[0], b[0])
    h = min(a[3], b[3]) - max(a[1], b[1])
    return max(w, 0) * max(h, 0)


def assignment_oracle(faces, persons):
    """(matched count, total cost of matched pairs) from scipy on the
    same cost matrix: 1 - overlap / face area, 1e6 where infeasible."""
    n = max(len(faces), len(persons))
    cost = np.full((n, n), pairing.INFEASIBLE)
    for i, f in enumerate(faces):
        area = (f[2] - f[0]) * (f[3] - f[1])
        for j, p in enumerate(persons):
            inter = overlap(f, p)
            if inter > 0:
                cost[i, j] = 1.0 - inter / area
    rows, cols = linear_sum_assignment(cost)
    feasible = cost[rows, cols] < pairing.INFEASIBLE / 2
    return int(feasible.sum()), float(cost[rows, cols][feasible].sum())


class PrepPhase(Phase):
    """`agegender pair` over crowded scenes and `agegender aggregate
    --method weighted_mean` over crowd votes, files on disk, no model."""

    name = "prep"

    def __init__(self, seed, sizes, span):
        super().__init__(seed, sizes, span, ("pair.images_per_s", "aggregate.tasks_per_s"))
        self.ops = 0

    def prepare(self, work):
        self.scenes = [inputs.crowded_scene(self.seed, i) for i in range(self.sizes.prep_images)]
        self.persons = {
            f"scene_{i:03d}.ppm": [d[1:] for d in s.detections if d[0] == "person"] for i, s in enumerate(self.scenes)
        }
        crowd = inputs.crowd_votes(self.seed, self.sizes.prep_tasks)
        self.votes_path = os.path.join(work, "votes.jsonl")
        self.controls_path = os.path.join(work, "controls.jsonl")
        for path, rows in ((self.votes_path, crowd.votes), (self.controls_path, crowd.controls)):
            with open(path, "w") as fh:
                fh.writelines(json.dumps(row) + "\n" for row in rows)
        self.expected_ages = weighted_mean_direct(crowd.votes, crowd.controls)

    def setup(self, work):
        self.work = work
        entries = []
        for i, scene in enumerate(self.scenes):
            name = f"scene_{i:03d}.ppm"
            data.write_ppm(os.path.join(work, name), scene.image)
            entries.append({"image": name, "detections": detections_of(scene)})
        self.detections = os.path.join(work, "detections.jsonl")
        data.write_detection_manifest(self.detections, entries)

    def run(self):
        op = (self._pair, self._aggregate)[self.ops % 2]
        self.ops += 1
        with contextlib.redirect_stdout(io.StringIO()):
            op()

    def _pair(self):
        pairs = os.path.join(self.work, "pairs.jsonl")
        with self.span("op.pair"):
            start = perf_counter()
            code = cli.main(["pair", "--detections", self.detections, "--out", pairs])
            elapsed = perf_counter() - start
        self.attempted += 1
        self.samples["pair.images_per_s"].append(len(self.scenes) / elapsed)
        if code != 0 or not self.pairs_ok(pairs):
            self.fail(f"pair exited {code} or wrote a pair without overlap")

    def _aggregate(self):
        aggregated = os.path.join(self.work, "aggregated.jsonl")
        with self.span("op.aggregate"):
            start = perf_counter()
            code = cli.main([
                "aggregate", "--votes", self.votes_path, "--controls", self.controls_path,
                "--method", "weighted_mean", "--out", aggregated,
            ])
            elapsed = perf_counter() - start
        self.attempted += 1
        self.samples["aggregate.tasks_per_s"].append(self.sizes.prep_tasks / elapsed)
        if code != 0 or not self.ages_ok(aggregated):
            self.fail(f"aggregate exited {code} or an age differs from the weighted mean")

    def pairs_ok(self, path):
        """Every face+body row overlaps a person box that contains its
        (possibly trimmed) body box."""
        with open(path) as fh:
            rows = [json.loads(line) for line in fh]
        for row in rows:
            face, body = row["face_bbox"], row["body_bbox"]
            if face is None or body is None:
                continue
            holders = [
                p for p in self.persons[row["image"]]
                if p[0] <= body[0] and p[1] <= body[1] and body[2] <= p[2] and body[3] <= p[3]
            ]
            if not any(overlap(face, p) > 0 for p in holders):
                return False
        return bool(rows)

    def ages_ok(self, path):
        with open(path) as fh:
            rows = [json.loads(line) for line in fh]
        if len(rows) != len(self.expected_ages):
            return False
        for row in rows:
            want = self.expected_ages[row["task"]]
            if abs(row["age"] - want) > 1e-12 * abs(want):
                return False
        return True

    def finish(self):
        """assign() per image against scipy, and the input properties."""
        self.matrix_n = []
        self.detection_counts = []
        bodies = trimmed = discarded = 0
        for scene in self.scenes:
            dets = detections_of(scene)
            faces = [d[1:] for d in scene.detections if d[0] == "face"]
            persons = [d[1:] for d in scene.detections if d[0] == "person"]
            self.detection_counts.append(len(dets))
            self.matrix_n.append(max(len(faces), len(persons)))
            result = pairing.assign([pairing.BBox(*f) for f in faces], [pairing.BBox(*p) for p in persons])
            got = sum(1.0 - overlap(faces[i], persons[j]) / ((faces[i][2] - faces[i][0]) * (faces[i][3] - faces[i][1]))
                      for i, j in result.pairs)
            want_count, want_cost = assignment_oracle(faces, persons)
            self.attempted += 1
            if len(result.pairs) != want_count or abs(got - want_cost) > 1e-9 * max(1.0, want_cost):
                self.fail(f"assign matched {len(result.pairs)} at cost {got!r}; scipy {want_count} at {want_cost!r}")
            h, w = scene.image.shape[:2]
            for fi, pi in units_of(dets):
                if pi is None:
                    continue
                record = preprocess.build_pair_record(
                    scene.image, dets[fi].bbox if fi is not None else None, dets[pi].bbox, dets,
                    {i for i in (fi, pi) if i is not None},
                )
                bodies += 1
                if record["body_bbox"] is None:
                    discarded += 1
                elif record["body_bbox"] != dets[pi].bbox.clamped(w, h).as_list():
                    trimmed += 1
        self.body_shares = (trimmed / bodies, discarded / bodies)

    def properties(self):
        return {
            "images": len(self.scenes),
            "detections_per_image": float(np.mean(self.detection_counts)),
            "mean_hungarian_n": float(np.mean(self.matrix_n)),
            "body_trimmed_share": self.body_shares[0],
            "body_discarded_share": self.body_shares[1],
            "tasks": self.sizes.prep_tasks,
        }


PHASES = (TrainPhase, ServePhase, PrepPhase)
