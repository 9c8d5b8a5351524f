import itertools

import numpy as np
import pytest

from oracles import assignment_cost

from agegender.errors import InputError
from agegender.pairing import (
    BBox,
    Detection,
    assign,
    hungarian,
    overlap_cost,
)


def brute_force_min_cost(cost):
    """Exhaustive minimum over full permutations of a square matrix."""
    n = cost.shape[0]
    best = None
    for perm in itertools.permutations(range(n)):
        total = sum(cost[i, perm[i]] for i in range(n))
        if best is None or total < best:
            best = total
    return best


def brute_force_assign(faces, persons):
    """Max feasible matches, then min total cost, by brute force."""
    nf, npers = len(faces), len(persons)
    best_key = None
    best_pairs = []
    if nf <= npers:
        for perm in itertools.permutations(range(npers), nf):
            pairs = [(i, j) for i, j in enumerate(perm) if overlap_cost(faces[i], persons[j]) is not None]
            key = (-len(pairs), assignment_cost(pairs, faces, persons))
            if best_key is None or key < best_key:
                best_key, best_pairs = key, pairs
    else:
        for perm in itertools.permutations(range(nf), npers):
            pairs = [(i, j) for j, i in enumerate(perm) if overlap_cost(faces[i], persons[j]) is not None]
            key = (-len(pairs), assignment_cost(pairs, faces, persons))
            if best_key is None or key < best_key:
                best_key, best_pairs = key, pairs
    return best_pairs, best_key


def random_boxes(rng, n, span=100, lo=4, hi=40):
    boxes = []
    for _ in range(n):
        x0 = int(rng.integers(0, span - lo))
        y0 = int(rng.integers(0, span - lo))
        w = int(rng.integers(lo, hi))
        h = int(rng.integers(lo, hi))
        boxes.append(BBox(x0, y0, min(x0 + w, span), min(y0 + h, span)))
    return boxes


# ---------------------------------------------------------------------------
# bbox / detection


def test_bbox_validation():
    with pytest.raises(InputError):
        BBox(10, 10, 10, 20)
    with pytest.raises(InputError):
        BBox(10, 30, 20, 20)


def test_bbox_geometry():
    a = BBox(0, 0, 10, 10)
    b = BBox(5, 5, 15, 15)
    assert a.area == 100
    assert a.intersection_area(b) == 25
    assert a.intersection_area(BBox(20, 20, 30, 30)) == 0


def test_detection_validation():
    with pytest.raises(InputError):
        Detection(BBox(0, 0, 1, 1), "car")
    with pytest.raises(InputError):
        Detection(BBox(0, 0, 1, 1), "face", score=1.5)


# ---------------------------------------------------------------------------
# hungarian on raw matrices


def test_hungarian_two_by_two_example():
    cost = np.array([[0.1, 0.9], [0.8, 0.2]])
    cols = hungarian(cost)
    np.testing.assert_array_equal(cols, [0, 1])
    assert cost[0, cols[0]] + cost[1, cols[1]] == pytest.approx(0.3)


def test_hungarian_matches_brute_force_on_random_matrices():
    rng = np.random.default_rng(0)
    for n in range(1, 8):
        for _ in range(30):
            cost = rng.random((n, n))
            cols = hungarian(cost)
            assert sorted(cols) == list(range(n))
            total = sum(cost[i, cols[i]] for i in range(n))
            assert total == pytest.approx(brute_force_min_cost(cost), abs=1e-12)


def test_hungarian_rejects_non_square():
    with pytest.raises(InputError):
        hungarian(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# assign


def test_assign_face_inside_person():
    faces = [BBox(10, 10, 20, 20)]
    persons = [BBox(0, 0, 50, 80), BBox(200, 200, 240, 280)]
    result = assign(faces, persons)
    assert result.pairs == [(0, 0)]
    assert result.unmatched_faces == []
    assert result.unmatched_persons == [1]


def test_assign_empty_inputs():
    result = assign([], [BBox(0, 0, 5, 5)])
    assert result.pairs == [] and result.unmatched_persons == [0]
    result = assign([BBox(0, 0, 5, 5)], [])
    assert result.pairs == [] and result.unmatched_faces == [0]


def test_assign_never_matches_zero_overlap():
    faces = [BBox(0, 0, 10, 10), BBox(90, 90, 99, 99)]
    persons = [BBox(0, 0, 12, 12)]
    result = assign(faces, persons)
    assert result.pairs == [(0, 0)]
    assert result.unmatched_faces == [1]


def test_assign_prefers_more_matches_over_cheaper_few():
    # perm (0,0)+(1,1) has an infeasible second edge; the solver must keep
    # two feasible matches even though one cheap match would cost less
    faces = [BBox(0, 0, 10, 10), BBox(50, 50, 60, 60)]
    persons = [BBox(0, 0, 11, 11), BBox(5, 5, 58, 58)]
    result = assign(faces, persons)
    assert len(result.pairs) == 2
    expected_pairs, _ = brute_force_assign(faces, persons)
    assert sorted(result.pairs) == sorted(expected_pairs)


def test_assign_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(1)
    for trial in range(120):
        nf = int(rng.integers(1, 6))
        npers = int(rng.integers(1, 6))
        faces = random_boxes(rng, nf)
        persons = random_boxes(rng, npers, lo=10, hi=70)
        got = assign(faces, persons)
        _, best_key = brute_force_assign(faces, persons)
        got_key = (-len(got.pairs), assignment_cost(got.pairs, faces, persons))
        assert got_key[0] == best_key[0]
        assert got_key[1] == pytest.approx(best_key[1], abs=1e-12)
        # bookkeeping: each index exactly once across the three lists
        seen_f = [i for i, _ in got.pairs] + got.unmatched_faces
        seen_p = [j for _, j in got.pairs] + got.unmatched_persons
        assert sorted(seen_f) == list(range(nf))
        assert sorted(seen_p) == list(range(npers))
        for i, j in got.pairs:
            assert overlap_cost(faces[i], persons[j]) is not None
