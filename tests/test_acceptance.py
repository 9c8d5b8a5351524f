"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. The training-based criteria share module-scoped runs.
"""

import itertools
import time

import numpy as np
import pytest

from oracles import aggregate_oracle, assignment_cost, crop_image, is_kde_mode, weighted_mean_oracle

from agegender.checkpoint import load_model, save_model
from agegender.config import micro_config, tiny_config
from agegender.data import generate_synthetic_dataset
from agegender.fusion import CropPair, FaceBodyModel
from agegender.gradcheck import model_gradcheck
from agegender.losses import weighted_mse
from agegender.metrics import cs_at, mae
from agegender.pairing import BBox, assign, overlap_cost
from agegender.preprocess import (
    CHANNEL_MEAN,
    bilinear_resize,
    detach_objects,
    letterbox,
    trim,
)
from agegender.pairing import Detection
from agegender.train import evaluate, train
from agegender.votes import baseline_aggregate, weighted_mean_age


def report(n, detail):
    print(f"\nACCEPTANCE {n} PASS: {detail}")


def overfit_config(**overrides):
    # pure fit-capacity check: augmentation and input dropout off
    base = dict(
        learning_rate=2e-3,
        weight_decay=1e-4,
        warmup_steps=50,
        warmup_start_lr=1e-6,
        batch_size=16,
        max_steps=800,
        log_every=100,
        drop_rate=0.0,
        drop_path_rate=0.0,
        body_input_dropout=0.0,
        face_input_dropout=0.0,
        jitter=0.0,
        erase_prob=0.0,
        hflip_prob=0.0,
        seed=0,
    )
    base.update(overrides)
    return tiny_config(**base)


@pytest.fixture(scope="module")
def overfit_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("overfit")
    manifest = generate_synthetic_dataset(root / "data", 64, seed=1, mode="shared")
    start = time.perf_counter()
    result = train(manifest, overfit_config(), root / "run")
    elapsed = time.perf_counter() - start
    return manifest, result, elapsed


# ---------------------------------------------------------------------------
# 1. gradient integrity


def test_criterion_1_gradient_integrity():
    start = time.perf_counter()
    worst, per_param = model_gradcheck(tiny_config(), coords_per_param=16, h=1e-5, seed=0)
    elapsed = time.perf_counter() - start
    offenders = {k: v for k, v in per_param.items() if v >= 1e-4}
    assert worst < 1e-4, f"max relative error {worst:.3e}; offenders: {offenders}"
    assert len(per_param) == len(FaceBodyModel(tiny_config()).params)  # every group checked
    assert elapsed < 600.0
    report(1, f"max rel err {worst:.2e} over {len(per_param)} parameter groups in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 2. overfit convergence


def test_criterion_2_overfit_convergence(overfit_run):
    manifest, result, elapsed = overfit_run
    assert result.steps <= 2000
    assert elapsed < 900.0
    train_report, _ = evaluate(manifest, result.checkpoint_path, mode="both")
    assert train_report["mae"] < 3.0, f"train MAE {train_report['mae']:.2f}"
    assert train_report["gender_acc"] == 100.0
    # smoothed loss decreases monotonically across 200-step windows
    window = 200
    means = [np.mean(result.losses[i:i + window]) for i in range(0, result.steps, window)]
    assert all(a > b for a, b in zip(means, means[1:])), means
    report(
        2,
        f"{result.steps} steps in {elapsed:.0f}s: train MAE {train_report['mae']:.2f}y, "
        f"gender acc 100%, window means {['%.4f' % m for m in means]}",
    )


# ---------------------------------------------------------------------------
# 3. multi-input benefit


def test_criterion_3_multi_input_benefit(tmp_path_factory):
    root = tmp_path_factory.mktemp("split")
    train_manifest = generate_synthetic_dataset(root / "train", 192, seed=2, mode="split")
    eval_manifest = generate_synthetic_dataset(root / "eval", 96, seed=3, mode="split")
    cfg = overfit_config(
        max_steps=1100, body_input_dropout=0.15, face_input_dropout=0.35, log_every=200
    )
    result = train(train_manifest, cfg, root / "run")
    maes = {}
    for mode in ("face", "body", "both"):
        rep, _ = evaluate(eval_manifest, result.checkpoint_path, mode=mode)
        maes[mode] = rep["mae"]
    assert maes["both"] < maes["face"], maes
    assert maes["both"] < maes["body"], maes
    report(3, "eval MAE face {face:.2f} / body {body:.2f} / both {both:.2f}".format(**maes))


# ---------------------------------------------------------------------------
# 4. skip-path equivalence + direction-only speedup


def test_criterion_4_skip_path():
    cfg = micro_config()
    model = FaceBodyModel(cfg)
    rng = np.random.default_rng(4)
    for trial in range(1000):
        img = rng.random((cfg.image_side, cfg.image_side, 3))
        pair = CropPair(face=img) if trial % 2 else CropPair(body=img)
        full_logits, full_age = model.forward_pair(pair)
        skip_logits, skip_age = model.forward_pair_skip(pair)
        assert np.array_equal(full_logits, skip_logits)
        assert full_age == skip_age

    # direction-only micro-benchmark on a 64-pair single-input batch
    tcfg = tiny_config()
    tmodel = FaceBodyModel(tcfg)
    bodies = rng.random((64, 64, 64, 3))
    zeros = np.zeros((64, 64, 64, 3))
    tmodel.forward_batch(zeros, bodies)
    tmodel.forward_batch(zeros, bodies, skip="face")
    t_full, t_skip = [], []
    for _ in range(15):
        t0 = time.perf_counter()
        tmodel.forward_batch(zeros, bodies)
        t_full.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        tmodel.forward_batch(zeros, bodies, skip="face")
        t_skip.append(time.perf_counter() - t0)
    full_ms = float(np.median(t_full)) * 1e3
    skip_ms = float(np.median(t_skip)) * 1e3
    assert skip_ms < full_ms, f"skip {skip_ms:.1f} ms vs full {full_ms:.1f} ms"
    report(4, f"1000 pairs bit-identical; skip {skip_ms:.0f} ms < full {full_ms:.0f} ms (batch 64)")


# ---------------------------------------------------------------------------
# 5. empty-input equivalence


def test_criterion_5_empty_input_equivalence():
    cfg = micro_config()
    model = FaceBodyModel(cfg)
    rng = np.random.default_rng(5)
    zero = np.zeros((cfg.image_side, cfg.image_side, 3))
    for trial in range(1000):
        img = rng.random((cfg.image_side, cfg.image_side, 3))
        if trial % 2:
            flagged = CropPair(face=img)
            explicit = CropPair(face=img, body=zero)
        else:
            flagged = CropPair(body=img)
            explicit = CropPair(face=zero, body=img)
        fl, fa = model.forward_pair(flagged)
        el, ea = model.forward_pair(explicit)
        assert np.array_equal(fl, el) and fa == ea
    report(5, "absent-side flag == explicit zero image, 1000 random trials, bit-identical")


# ---------------------------------------------------------------------------
# 6. Hungarian vs exhaustive permutations


def _brute_force(faces, persons):
    nf, npers = len(faces), len(persons)
    best = None
    if nf <= npers:
        combos = ((list(enumerate(perm))) for perm in itertools.permutations(range(npers), nf))
    else:
        combos = (
            [(i, j) for j, i in enumerate(perm)] for perm in itertools.permutations(range(nf), npers)
        )
    for combo in combos:
        pairs = [(i, j) for i, j in combo if overlap_cost(faces[i], persons[j]) is not None]
        key = (-len(pairs), assignment_cost(pairs, faces, persons))
        if best is None or key < best:
            best = key
    return best


def test_criterion_6_hungarian_oracle():
    rng = np.random.default_rng(6)
    span = 60
    for _ in range(500):
        nf = int(rng.integers(1, 8))
        npers = int(rng.integers(1, 8))

        def boxes(n, lo, hi):
            out = []
            for _ in range(n):
                x0 = int(rng.integers(0, span - lo))
                y0 = int(rng.integers(0, span - lo))
                w = int(rng.integers(lo, hi))
                h = int(rng.integers(lo, hi))
                out.append(BBox(x0, y0, min(x0 + w, span), min(y0 + h, span)))
            return out

        faces = boxes(nf, 3, 20)
        persons = boxes(npers, 6, 45)
        got = assign(faces, persons)
        got_key = (-len(got.pairs), assignment_cost(got.pairs, faces, persons))
        best_key = _brute_force(faces, persons)
        assert got_key[0] == best_key[0], (got_key, best_key)
        # same summation routine on both sides; 1e-12 absorbs float
        # associativity between tie-equivalent assignments
        assert abs(got_key[1] - best_key[1]) <= 1e-12, (got_key, best_key)
        for i, j in got.pairs:
            assert overlap_cost(faces[i], persons[j]) is not None
    report(6, "assign == exhaustive-permutation optimum on 500 random instances (n <= 7)")


# ---------------------------------------------------------------------------
# 7. aggregator oracles


def test_criterion_7_aggregator_oracles():
    rng = np.random.default_rng(7)
    methods = (
        "mean",
        "median",
        "interquartile_mean",
        "mode",
        "max_likelihood",
        "winsorized_mean",
        "truncated_mean",
    )
    for _ in range(1000):
        n = int(rng.integers(1, 14))
        votes = np.round(rng.uniform(0, 100, size=n), 1)
        for method in methods:
            got = baseline_aggregate(votes, method)
            if method == "max_likelihood":
                # argmax location is ill-posed under last-ulp density ties;
                # require the oracle's maximum density instead
                assert is_kde_mode(got, votes), (got, votes.tolist())
            else:
                assert abs(got - aggregate_oracle(votes, method)) < 1e-9, method
        maes = rng.uniform(0.0, 10.0, size=n)
        got_w = weighted_mean_age(votes, maes)
        assert abs(got_w - weighted_mean_oracle(votes, maes)) < 1e-9
        equal = weighted_mean_age(votes, np.full(n, float(rng.uniform(0.5, 8))))
        assert abs(equal - votes.mean()) < 1e-9
    assert weighted_mean_age([20.0, 30.0], [0.5, 2.0]) == pytest.approx(21.824, abs=1e-3)
    report(7, "8 aggregators == independent oracles (1000 vote sets); A([20,30],[.5,2]) ~= 21.824")


# ---------------------------------------------------------------------------
# 8. metric correctness


def test_criterion_8_metrics():
    pred = np.array([10.0, 13.0, 15.0, 16.0])
    target = np.full(4, 10.0)  # errors 0, 3, 5, 6
    assert cs_at(pred, target, 5) == 75.0
    assert mae([10.0], [15.0]) == 5.0
    rng = np.random.default_rng(8)
    p = rng.uniform(0, 100, 200)
    t = rng.uniform(0, 100, 200)
    values = [cs_at(p, t, level) for level in range(0, 101, 2)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert cs_at(p, t, 1e6) == 100.0
    assert weighted_mse(np.array([0.6]), np.array([0.5]), np.array([2.0])).item() == pytest.approx(0.02, abs=1e-15)
    report(8, "MAE/CS unit suite incl. inclusive boundary (75.0 exact) and CS monotonicity")


# ---------------------------------------------------------------------------
# 9. preprocessing properties


def test_criterion_9_preprocessing():
    rng = np.random.default_rng(9)
    # trim idempotence over 1000 random occlusion masks
    checked = 0
    for _ in range(1000):
        h = int(rng.integers(4, 28))
        w = int(rng.integers(4, 28))
        crop = rng.random((h, w, 3)) * 0.5 + 0.51  # off the fill value
        mask = rng.random((h, w)) < rng.uniform(0.1, 0.95)
        crop[mask] = CHANNEL_MEAN
        first, off1 = trim(crop)
        if first is None:
            continue
        second, off2 = trim(first)
        assert off2 == (0, 0)
        np.testing.assert_array_equal(first, second)
        checked += 1
    assert checked > 500

    # detach matches a per-pixel rasterization oracle
    image = rng.random((80, 80, 3)) * 0.5 + 0.51
    body = BBox(5, 10, 70, 75)
    crop, _ = crop_image(image, body)
    others = [
        Detection(BBox(0, 0, 30, 40), "person"),
        Detection(BBox(20, 30, 60, 55), "face"),
        Detection(BBox(50, 50, 80, 80), "person"),
    ]
    out = detach_objects(body, crop, others)
    expected = crop.copy()
    for y in range(crop.shape[0]):
        for x in range(crop.shape[1]):
            sx, sy = x + body.x0, y + body.y0
            if any(d.bbox.x0 <= sx < d.bbox.x1 and d.bbox.y0 <= sy < d.bbox.y1 for d in others):
                expected[y, x] = CHANNEL_MEAN
    np.testing.assert_array_equal(out, expected)

    # letterbox shape + aspect over 1000 random shapes
    for _ in range(1000):
        h = int(rng.integers(1, 260))
        w = int(rng.integers(1, 260))
        target = int(rng.choice([64, 224]))
        out = letterbox(rng.random((h, w, 3)), target)
        assert out.shape == (target, target, 3)
        long_side, short_side = (h, w) if h >= w else (w, h)
        expected_short = short_side * target / long_side
        content_short = max(1, round(expected_short))
        assert abs(content_short - expected_short) <= 0.5 or content_short == 1
    const = np.full((9, 5, 3), 0.4)
    np.testing.assert_allclose(bilinear_resize(const, 17, 11), 0.4, atol=1e-12)
    report(9, "trim idempotent (1000 masks), detach == rasterization oracle, letterbox fuzz (1000)")


# ---------------------------------------------------------------------------
# 10. determinism & persistence


def test_criterion_10_determinism_and_persistence(tmp_path_factory):
    root = tmp_path_factory.mktemp("determinism")
    manifest = generate_synthetic_dataset(root / "data", 12, seed=10)
    cfg = micro_config(
        learning_rate=1e-3, batch_size=4, max_steps=30, log_every=5, warmup_steps=5, seed=3
    )
    r1 = train(manifest, cfg, root / "a")
    r2 = train(manifest, cfg, root / "b")
    assert r1.log_lines == r2.log_lines
    assert r1.losses == r2.losses
    with open(r1.checkpoint_path, "rb") as f1, open(r2.checkpoint_path, "rb") as f2:
        assert f1.read() == f2.read()

    model = load_model(r1.checkpoint_path)
    direct, _ = evaluate(manifest, model, mode="both")
    resaved = root / "resaved.ckpt"
    save_model(resaved, model)
    roundtrip, _ = evaluate(manifest, str(resaved), mode="both")
    assert direct == roundtrip
    report(10, "seeded reruns bit-identical; checkpoint round-trip preserves eval metrics exactly")
