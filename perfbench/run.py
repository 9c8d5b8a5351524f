"""Benchmark of the agegender stack: train, serve and prep.

    python3 perfbench/run.py --workload train --seed 1 --seconds 42 --trace 0

Every run measures all three phases (phases.py), because each result
carries every end-to-end metric. Each phase runs in a worker process of
its own (worker.py) and only one works at a time: the run hands out slices
of about SLICE_S seconds, always to the phase furthest below its SHARE of
the measuring time so far, so that every phase samples the whole run.
The workload names the main phase, whose share is raised by MAIN_BOOST,
whose peak memory is `peak_rss_mb`, and whose spans give the per-layer
metrics. After `--seconds` of slices, only phases
still short of their minimum samples run on.

With `--trace 1` the run is made twice, untraced and then with every
worker traced; the traced pass gives the per-layer metrics and the
tracing overhead on each end-to-end metric. End-to-end figures always
come from the untraced pass. The record also keeps the per-layer
metrics of the other phases, serve's among them.

The program is imported from `src/` beside this directory. The run prints
each metric by name with its unit, writes a full record (machine, input
properties, sample counts, checks) and the spans under
`.perfbench/results/`, and ends with one JSON line: correct, attempted,
failed and metrics. It exits 1 when a correctness check failed.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".perfbench" / "results"
PHASE_NAMES = ("train", "serve", "prep")
# serve is no workload of its own: the time it would take goes into longer
# runs of the other two, which both measure it
WORKLOADS = ("train", "prep")
SETUP_REPEATS = 3
# share of the measuring time per phase: training operations take seconds
# each, so the train phase needs the most time for a steady median; the
# main phase's share is raised by MAIN_BOOST
SHARE = {"train": 2.0, "serve": 1.0, "prep": 1.0}
MAIN_BOOST = 1.5
# each phase runs for a slice of about this many seconds at a time; between
# slices of different phases the run pauses, so the BLAS threads of the
# phase that ran stop spinning before the next one starts
SLICE_S = 1.0
PAUSE_S = 0.1

# name: (unit, higher is better)
END_TO_END = {
    "setup_s": ("s", False),
    "peak_rss_mb": ("MB", False),
    "train.samples_per_s": ("samples/s", True),
    "eval.samples_per_s": ("samples/s", True),
    "ckpt.save_s": ("s", False),
    "ckpt.load_s": ("s", False),
    "serve.p50_ms": ("ms", False),
    "serve.p90_ms": ("ms", False),
    "pair.images_per_s": ("images/s", True),
    "aggregate.tasks_per_s": ("tasks/s", True),
}


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_build": blas.get("openblas configuration"),
        "blas_threads": blas_threads(),
        # the benchmark sets none of these; listed so that a run under a
        # tuned allocator or BLAS shows
        "tuning_env": {
            k: v for k, v in os.environ.items()
            if k.startswith(("MALLOC_", "OPENBLAS_", "OMP_", "MKL_", "GOTO", "LD_PRELOAD"))
        },
    }


class Worker:
    """A worker process and its command pipe."""

    def __init__(self, phase, seed, work, spans, tiny):
        cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--phase", phase, "--seed", str(seed),
               "--work", work]
        if spans:
            cmd += ["--spans", spans]
        if tiny:
            cmd.append("--tiny")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def ask(self, command):
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with {self.proc.wait()} on {command!r}")
        return json.loads(line)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def measure(args, work, traced):
    """Start a worker per phase, set each up, then interleave operations
    for `--seconds`. Returns {phase: worker result}, each with its median
    set-up time added."""
    workers = {}
    try:
        for name in PHASE_NAMES:
            spans = str(RESULTS / f"{args.workload}-seed{args.seed}-{name}.spans.jsonl") if traced else None
            workers[name] = Worker(name, args.seed, os.path.join(work, name), spans, args.tiny)
        setup = {name: [] for name in workers}
        for _ in range(SETUP_REPEATS):
            for name, w in workers.items():
                setup[name].append(w.ask("setup")["seconds"])
        for w in workers.values():
            w.ask("warm")

        weight = {name: SHARE[name] * (MAIN_BOOST if name == args.workload else 1.0) for name in workers}
        used = dict.fromkeys(workers, 0.0)
        ready = dict.fromkeys(workers, False)
        elapsed = 0.0
        last = None
        while elapsed < args.seconds or not all(ready.values()):
            # once the time is up, only phases short of their minimum run
            due = [n for n in workers if elapsed < args.seconds or not ready[n]]
            name = min(due, key=lambda n: used[n] / weight[n])
            if name != last:
                time.sleep(PAUSE_S)
            reply = workers[name].ask(f"run {min(SLICE_S, args.seconds) * weight[name]:g}")
            used[name] += reply["seconds"]
            ready[name] = reply["ready"]
            elapsed += reply["seconds"]
            last = name

        results = {name: w.ask("finish") for name, w in workers.items()}
    finally:
        for w in workers.values():
            w.stop()
    for name, result in results.items():
        result["setup_s"] = statistics.median(setup[name])
    return results


def end_to_end(results, main):
    out = {
        "setup_s": sum(r["setup_s"] for r in results.values()),
        "peak_rss_mb": results[main]["peak_rss_mb"],
    }
    for r in results.values():
        out.update(r["metrics"])
    return out


def slowdown(name, untraced, traced):
    """Share by which tracing made a metric worse (negative: better)."""
    higher = END_TO_END[name][1]
    return untraced / traced - 1.0 if higher else traced / untraced - 1.0


def run(args, work):
    results = measure(args, os.path.join(work, "untraced"), traced=False)
    metrics = end_to_end(results, args.workload)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in metrics.items()},
        "samples": {name: r["samples"] for name, r in results.items()},
        "properties": {name: r["properties"] for name, r in results.items()},
    }
    passes = [results]
    reported = record["end_to_end"]

    if args.trace:
        traced = measure(args, os.path.join(work, "traced"), traced=True)
        passes.append(traced)
        reported = dict(traced[args.workload]["per_layer"])
        record["per_layer_by_phase"] = {name: r["per_layer"] for name, r in traced.items()}
        traced_metrics = end_to_end(traced, args.workload)
        for name in END_TO_END:
            reported["trace_overhead." + name] = {
                "value": slowdown(name, metrics[name], traced_metrics[name]),
                "unit": "share",
            }
        record["properties"]["train"].update(
            {k: v["value"] for k, v in traced["train"]["per_layer"].items() if k.startswith("augment.dropout_")}
        )
        record["per_layer"] = reported
        record["traced_end_to_end"] = traced_metrics
        record["spans"] = [
            f".perfbench/results/{args.workload}-seed{args.seed}-{name}.spans.jsonl" for name in PHASE_NAMES
        ]

    failures = [f for p in passes for r in p.values() for f in r["failures"]]
    attempted = sum(r["attempted"] for p in passes for r in p.values())
    record["checks"] = {"attempted": attempted, "failed": len(failures), "failures": failures}
    return record, reported


def report(record, reported, path):
    m = record["machine"]
    print(f"workload {record['workload']}  seed {record['seed']}  seconds {record['seconds']:g}  "
          f"trace {record['trace']}")
    print(f"machine: nproc {m['nproc']}, python {m['python']}, numpy {m['numpy']}, scipy {m['scipy']}, "
          f"{m['blas']} ({m['blas_threads']} threads)")
    for name, v in record["end_to_end"].items():
        print(f"  {name:<24} {v['value']:>14.6g} {v['unit']}")
    for phase, props in record["properties"].items():
        print(f"  {phase} inputs: " + ", ".join(f"{k} {v:.4g}" for k, v in props.items()))
    for phase, samples in record["samples"].items():
        print(f"  {phase} samples: " + ", ".join(f"{k} {len(v)}" for k, v in samples.items()))
    if record["trace"]:
        for name, v in reported.items():
            print(f"  {name:<40} {v['value']:>14.6g} {v['unit']}")
    for f in record["checks"]["failures"]:
        print(f"FAILED {f}")
    print(f"record: {path.relative_to(ROOT)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "agegender" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    RESULTS.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=ROOT / ".perfbench")
    try:
        record, reported = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    report(record, reported, path)
    checks = record["checks"]
    print(json.dumps({
        "correct": not checks["failed"],
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": reported,
    }))
    return 1 if checks["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
