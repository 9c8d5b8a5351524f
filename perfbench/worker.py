"""One phase of a benchmark run, in a process of its own.

    python3 perfbench/worker.py --phase serve --seed 1 --work DIR [--spans FILE] [--tiny]

Started by run.py, which drives it one command per line on stdin and
reads one JSON reply per line:

    setup   set up once more; reply {"seconds": ...}
    warm    untimed warm-up; reply {}
    run S   timed operations until S seconds have passed (at least one);
            reply {"seconds": ..., "ready": ...}
    finish  run the final checks; reply with the phase's results

A trainer, a server and a dataset-building command are separate processes
in use, and sharing one interpreter skews them: in one process, serve
latency after training ran about 10% slower than serve alone.
The program may print, so the replies go to a duplicate of the original
stdout and fd 1 is pointed at stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from phases import PHASES, TINY, Sizes  # noqa: E402
from spans import Tracer, no_span  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--phase", required=True, choices=[cls.name for cls in PHASES])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spans", default=None, help="trace the phase and write its spans here")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    reply = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)

    def send(obj):
        reply.write(json.dumps(obj) + "\n")

    tracer = Tracer() if args.spans else None
    if tracer:
        tracer.install()
    span = tracer.span if tracer else no_span
    phase = next(cls for cls in PHASES if cls.name == args.phase)(args.seed, TINY if args.tiny else Sizes(), span)
    inputs = os.path.join(args.work, "inputs")
    os.makedirs(inputs)
    phase.prepare(inputs)
    setups = 0

    for line in sys.stdin:
        command = line.strip()
        if command == "setup":
            where = os.path.join(args.work, f"setup{setups}")
            os.makedirs(where)
            setups += 1
            start = perf_counter()
            with span("setup." + phase.name):
                phase.setup(where)
            send({"seconds": perf_counter() - start})
        elif command == "warm":
            phase.warm_up()
            send({})
        elif command.startswith("run "):
            budget = float(command.split()[1])
            used = 0.0
            while used < budget or not used:
                start = perf_counter()
                with span("phase." + phase.name):
                    phase.run()
                used += perf_counter() - start
            send({"seconds": used, "ready": phase.ready()})
        elif command == "finish":
            if tracer:
                tracer.uninstall()
            phase.finish()
            result = {
                "metrics": phase.metrics(),
                "samples": phase.samples,
                "properties": phase.properties(),
                "attempted": phase.attempted,
                "failures": phase.failures,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            if tracer:
                per_layer = layers.layer_metrics(tracer, phase.name, phase.minflt_per_step())
                result["per_layer"] = {k: {"value": v, "unit": layers.UNITS[k]} for k, v in per_layer.items()}
                tracer.write(args.spans)
            send(result)
        else:
            raise SystemExit(f"worker: unknown command {command!r}")


if __name__ == "__main__":
    main()
