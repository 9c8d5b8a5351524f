"""Face <-> person assignment from detector output.

Matching cost is 1 - overlap/face-area: faces sit inside their person's
box, so normalizing by the face area is scale-robust. Zero-overlap pairs
are infeasible. The solver maximizes the number of feasible matches and,
among those, minimizes total cost (a large constant on infeasible edges
makes the square assignment problem encode exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InputError

INFEASIBLE = 1e6


@dataclass(frozen=True)
class BBox:
    """Pixel box, half-open [x0, x1) x [y0, y1)."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self):
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise InputError(f"degenerate box ({self.x0},{self.y0},{self.x1},{self.y1})")

    @property
    def width(self):
        return self.x1 - self.x0

    @property
    def height(self):
        return self.y1 - self.y0

    @property
    def area(self):
        return self.width * self.height

    def intersection_area(self, other: "BBox"):
        w = min(self.x1, other.x1) - max(self.x0, other.x0)
        h = min(self.y1, other.y1) - max(self.y0, other.y0)
        return max(w, 0) * max(h, 0)

    def clamped(self, width, height):
        x0 = max(0, min(self.x0, width - 1))
        y0 = max(0, min(self.y0, height - 1))
        x1 = max(x0 + 1, min(self.x1, width))
        y1 = max(y0 + 1, min(self.y1, height))
        return BBox(x0, y0, x1, y1)

    def as_list(self):
        return [self.x0, self.y0, self.x1, self.y1]


@dataclass(frozen=True)
class Detection:
    bbox: BBox
    kind: str  # "face" | "person"
    score: float = 1.0

    def __post_init__(self):
        if self.kind not in ("face", "person"):
            raise InputError(f"unknown detection kind {self.kind!r}")
        if not 0.0 <= self.score <= 1.0:
            raise InputError(f"score {self.score} outside [0, 1]")


@dataclass
class AssignmentResult:
    pairs: List[Tuple[int, int]] = field(default_factory=list)
    unmatched_faces: List[int] = field(default_factory=list)
    unmatched_persons: List[int] = field(default_factory=list)


def hungarian(cost):
    """Minimum-cost assignment on a square matrix; returns col index per row.

    Delegates to `scipy.optimize.linear_sum_assignment`. Where several
    assignments share the minimum cost, which one comes back is scipy's
    choice.
    """
    cost = np.asarray(cost, dtype=np.float64)
    n = cost.shape[0]
    if cost.shape != (n, n):
        raise InputError(f"hungarian needs a square matrix, got {cost.shape}")
    return linear_sum_assignment(cost)[1]


def overlap_cost(face: BBox, person: BBox):
    """1 - overlap/face-area, or None when the pair is infeasible."""
    inter = face.intersection_area(person)
    if inter <= 0:
        return None
    return 1.0 - inter / face.area


def assign(faces, persons):
    """Hungarian assignment of faces to persons.

    Maximizes the number of positive-overlap matches, minimum total cost
    among those; everything else is left unmatched and stays usable as an
    independent single input.
    """
    faces = list(faces)
    persons = list(persons)
    result = AssignmentResult()
    if not faces or not persons:
        result.unmatched_faces = list(range(len(faces)))
        result.unmatched_persons = list(range(len(persons)))
        return result

    n = max(len(faces), len(persons))
    cost = np.full((n, n), INFEASIBLE)
    for i, f in enumerate(faces):
        for j, p in enumerate(persons):
            c = overlap_cost(f, p)
            if c is not None:
                cost[i, j] = c

    cols = hungarian(cost)
    matched_faces = set()
    matched_persons = set()
    for i in range(len(faces)):
        j = int(cols[i])
        if j < len(persons) and cost[i, j] < INFEASIBLE / 2:
            result.pairs.append((i, j))
            matched_faces.add(i)
            matched_persons.add(j)
    result.unmatched_faces = [i for i in range(len(faces)) if i not in matched_faces]
    result.unmatched_persons = [j for j in range(len(persons)) if j not in matched_persons]
    return result
