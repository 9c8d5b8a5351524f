"""Seeded benchmark inputs: people in scenes, and crowd votes.

Everything here is plain numpy and tuples, built from the workload seed
alone, so the program under test receives only generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SCENE_W = 320
SCENE_H = 240

# share of people seen as face+person, face only (no person box) and
# person only (face not detected)
UNIT_MIX = {"both": 0.7, "face": 0.2, "body": 0.1}

# people per serve scene, in a fixed rotation: the same count mix in every
# run, with the 50th and 90th latency percentiles inside the 3- and
# 4-person groups rather than on a boundary between two groups
SERVE_PEOPLE = (1, 2, 3, 4, 3)

# a crowded prep scene: 24 people, 40 detections
CROWD = ("both",) * 16 + ("face",) * 5 + ("body",) * 3


@dataclass(frozen=True)
class Scene:
    image: np.ndarray  # float [H, W, 3] in [0, 1]
    detections: tuple  # ((kind, x0, y0, x1, y1), ...), kind "face" | "person"


def _person(rng, width_range):
    """One person's (face box, person box) in scene pixels."""
    w = int(rng.integers(*width_range))
    h = min(SCENE_H - 4, int(w * rng.uniform(2.0, 2.8)))
    x0 = int(rng.integers(0, SCENE_W - w))
    y0 = int(rng.integers(0, SCENE_H - h))
    side = max(6, int(w * rng.uniform(0.3, 0.45)))
    fx0 = x0 + (w - side) // 2 + int(rng.integers(-side // 4, side // 4 + 1))
    fy0 = y0 + int(h * rng.uniform(0.02, 0.08))
    face = (fx0, fy0, fx0 + side, fy0 + side)
    return face, (x0, y0, x0 + w, y0 + h)


def scene(rng, kinds, width_range=(40, 72)):
    """A 320x240 scene with one person per entry of `kinds` ("both",
    "face" or "body": which of their boxes the detector reports), drawn as
    noisy colour blocks."""
    image = rng.uniform(0.2, 0.8, (SCENE_H, SCENE_W, 3))
    detections = []
    for kind in kinds:
        face, person = _person(rng, width_range)
        x0, y0, x1, y1 = person
        image[y0:y1, x0:x1] = rng.uniform(0.1, 0.9, 3) + rng.normal(0.0, 0.05, (y1 - y0, x1 - x0, 3))
        fx0, fy0, fx1, fy1 = face
        image[fy0:fy1, fx0:fx1] = rng.uniform(0.3, 0.8, 3)
        if kind != "body":
            detections.append(("face",) + face)
        if kind != "face":
            detections.append(("person",) + person)
    return Scene(np.clip(image, 0.0, 1.0), tuple(detections))


def serve_scene(seed, index):
    """Serve input: 1-4 people, each seen as UNIT_MIX says."""
    rng = np.random.default_rng([seed, 1, index])
    people = SERVE_PEOPLE[index % len(SERVE_PEOPLE)]
    kinds = rng.choice(list(UNIT_MIX), size=people, p=list(UNIT_MIX.values()))
    return scene(rng, kinds)


def crowded_scene(seed, index):
    """Prep input: a crowd whose boxes overlap, so occluder removal and
    trimming fire."""
    rng = np.random.default_rng([seed, 2, index])
    return scene(rng, rng.permutation(CROWD), width_range=(30, 60))


@dataclass(frozen=True)
class Votes:
    votes: list  # [{task, user, age, gender}]
    controls: list  # [{user, voted, truth}]


def crowd_votes(seed, tasks, users=300, votes_per_task=10, controls_per_user=10):
    """Annotators of varying skill: each answers control tasks with a known
    truth, and each task gets votes from distinct random annotators."""
    rng = np.random.default_rng([seed, 3])
    skill = rng.uniform(0.5, 12.0, users)
    controls = []
    for u in range(users):
        truth = rng.integers(1, 90, controls_per_user)
        voted = np.clip(np.round(truth + rng.normal(0.0, skill[u], controls_per_user)), 0, 100)
        controls.extend({"user": f"u{u}", "voted": float(v), "truth": float(t)} for v, t in zip(voted, truth))
    votes = []
    for t in range(tasks):
        age = rng.uniform(1.0, 90.0)
        gender = "male" if rng.random() < 0.5 else "female"
        for u in rng.choice(users, votes_per_task, replace=False):
            vote = float(np.clip(np.round(age + rng.normal(0.0, skill[u])), 0, 100))
            g = gender if rng.random() < 0.9 else ("female" if gender == "male" else "male")
            votes.append({"task": f"t{t}", "user": f"u{u}", "age": vote, "gender": g})
    return Votes(votes, controls)
