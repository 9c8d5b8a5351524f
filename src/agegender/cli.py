"""Command-line surface tying the library together.

Exit codes: 0 success, 1 input error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from json.encoder import encode_basestring_ascii

from .config import ModelConfig, tiny_config
from .data import (
    generate_synthetic_dataset,
    load_image,
    read_controls_file,
    read_detection_manifest,
    read_votes_file,
    write_ndjson,
)
from .errors import ConfigError, DimensionError, InputError, NumericalError, TapeError
from .gradcheck import model_gradcheck
from .metrics import format_report
from .pairing import BBox, assign
from .preprocess import FillTable, unit_record
from .train import evaluate, train
from .votes import BASELINE_METHODS, aggregate_tasks, collect_vote_records, score_users

GRADCHECK_TOLERANCE = 1e-4


def _load_config(path):
    if path is None:
        return tiny_config()
    return ModelConfig.load(path)


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args):
    config = _load_config(args.config)
    result = train(args.manifest, config, args.out, init_from=args.init_from)
    print(f"trained {result.steps} steps")
    print(f"checkpoint {result.checkpoint_path}")
    print(f"log {result.metrics_path}")
    return 0


def cmd_eval(args):
    report, _ = evaluate(args.manifest, args.checkpoint, mode=args.mode)
    text = format_report(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


def cmd_pair(args):
    entries = read_detection_manifest(args.detections)
    root = os.path.dirname(os.path.abspath(args.detections))
    rows = []
    for entry in entries:
        image_path = entry["image"]
        image = load_image(os.path.join(root, image_path))
        height, width = image.shape[:2]
        dets = entry["detections"]
        for k, d in enumerate(dets):
            b = d.bbox
            if max(b.x0, 0) >= min(b.x1, width) or max(b.y0, 0) >= min(b.y1, height):
                raise InputError(
                    f"{image_path}: detection {k} {b.as_list()} has no pixel in the {width}x{height} image"
                )
        face_idx = [i for i, d in enumerate(dets) if d.kind == "face"]
        person_idx = [i for i, d in enumerate(dets) if d.kind == "person"]
        result = assign([dets[i].bbox for i in face_idx], [dets[j].bbox for j in person_idx])

        units = []  # (face det index or None, person det index or None)
        units.extend((face_idx[i], person_idx[j]) for i, j in result.pairs)
        units.extend((face_idx[i], None) for i in result.unmatched_faces)
        units.extend((None, person_idx[j]) for j in result.unmatched_persons)

        # one fill table per image, over the extent of its bodies, cut per
        # body; an image without a body builds none
        bodies = [dets[pi].bbox.clamped(width, height) for _, pi in units if pi is not None]
        table = None
        if bodies:
            extent = BBox(min(b.x0 for b in bodies), min(b.y0 for b in bodies),
                          max(b.x1 for b in bodies), max(b.y1 for b in bodies))
            table = FillTable(image, dets, extent)
        for fi, pi in units:
            record = unit_record(
                width,
                height,
                dets[fi].bbox if fi is not None else None,
                dets[pi].bbox if pi is not None else None,
                {i for i in (fi, pi) if i is not None},
                table,
            )
            if record["face_bbox"] is not None or record["body_bbox"] is not None:
                rows.append({"image": image_path, **record})
    write_ndjson(args.out, rows)
    print(f"wrote {len(rows)} pair records to {args.out}")
    return 0


def _aggregated_line(row):
    """`json.dumps` of an aggregated {task, age, gender} row plus a newline,
    from the encoders `json.dumps` uses for a str task, a float or null age
    and a str or null gender."""
    age, gender = row["age"], row["gender"]
    return (f'{{"task": {encode_basestring_ascii(row["task"])}, '
            f'"age": {"null" if age is None else float.__repr__(age)}, '
            f'"gender": {"null" if gender is None else encode_basestring_ascii(gender)}}}\n')


def cmd_aggregate(args):
    records = collect_vote_records(read_votes_file(args.votes))
    stats = score_users(read_controls_file(args.controls)) if args.controls else []
    results = aggregate_tasks(records, stats, method=args.method)
    with open(args.out, "w") as fh:
        fh.writelines(map(_aggregated_line, results))
    if args.user_report:
        write_ndjson(args.user_report, ({"user": s.user_id, "mae": s.mae, "cs3": s.cs3, "controls": s.control_count}
                                        for s in sorted(stats, key=lambda s: s.user_id)))
    print(f"aggregated {len(results)} tasks with {args.method}")
    return 0


def cmd_synth(args):
    manifest = generate_synthetic_dataset(args.out, args.n, seed=args.seed, mode=args.mode)
    print(f"wrote {args.n} samples, manifest {manifest}")
    return 0


def cmd_gradcheck(args):
    config = _load_config(args.config)
    worst, per_param = model_gradcheck(config, coords_per_param=args.coords, h=args.h, seed=args.seed)
    for name in sorted(per_param, key=per_param.get, reverse=True)[: args.top]:
        print(f"{per_param[name]:.3e}  {name}")
    print(f"max relative error {worst:.3e} over {len(per_param)} parameter groups")
    if not worst < GRADCHECK_TOLERANCE:  # a NaN error fails too
        print(f"FAIL: exceeds tolerance {GRADCHECK_TOLERANCE:g}", file=sys.stderr)
        raise NumericalError(f"gradient check failed: {worst:.3e}")
    print(f"PASS: below tolerance {GRADCHECK_TOLERANCE:g}")
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(prog="agegender", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on a sample manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", default=None, help="JSON config (defaults to the tiny preset)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--init-from", default=None, help="single-input checkpoint to warm-start from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mode", choices=["face", "body", "both"], default="both")
    p.add_argument("--out", default=None, help="also write the report here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pair", help="assign faces to persons and preprocess crops")
    p.add_argument("--detections", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("aggregate", help="aggregate crowd votes")
    p.add_argument("--votes", required=True)
    p.add_argument("--controls", default=None, help="control-task answers (needed for weighted_mean)")
    p.add_argument("--method", default="weighted_mean", choices=("weighted_mean",) + BASELINE_METHODS)
    p.add_argument("--out", required=True)
    p.add_argument("--user-report", default=None)
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("synth", help="generate the synthetic fixture dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["shared", "split"], default="shared")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("gradcheck", help="finite-difference check of the model gradient")
    p.add_argument("--config", default=None)
    p.add_argument("--coords", type=int, default=8, help="sampled coordinates per parameter group")
    p.add_argument("--h", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--top", type=int, default=5, help="print the worst N groups")
    p.set_defaults(func=cmd_gradcheck)

    return parser


# every character str.splitlines() breaks at, escaped, so that a name read
# from an input file cannot split an error message over lines
_ESCAPE_LINE_BREAKS = str.maketrans(
    {ch: ch.encode("unicode_escape").decode("ascii") for ch in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}
)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {str(exc).translate(_ESCAPE_LINE_BREAKS)}", file=sys.stderr)
        return 2
    except (InputError, ConfigError, DimensionError, TapeError, OSError) as exc:
        print(f"error: {str(exc).translate(_ESCAPE_LINE_BREAKS)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
