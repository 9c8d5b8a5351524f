"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 perfbench/smoke.py

Runs each workload on tiny inputs with the smallest model preset, the
first one traced, and checks that each exits 0, passes its correctness
checks and reports exactly the metrics BENCHMARK.json lists, none of the
end-to-end ones zero. Then checks that the benchmark refuses to run, without
printing a result, when the program source is missing. Exits 1 on any
failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "0",
           "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems = []
    for i, workload in enumerate(w["name"] for w in spec["workloads"]):
        trace = int(i == 0)
        proc = run(ROOT, workload, trace)
        if proc.returncode != 0:
            problems.append(f"{workload}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads((ROOT / ".perfbench" / "results" / f"{workload}-seed7-trace{trace}.json").read_text())
        if not result["correct"] or result["failed"] or not result["attempted"]:
            problems.append(f"{workload}: checks failed: {record['checks']['failures']}")
        want = per_layer if trace else end_to_end
        if set(result["metrics"]) != want:
            problems.append(f"{workload}: metrics differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ want)}")
        untraced = record["end_to_end"]
        if set(untraced) != end_to_end or not all(v["value"] > 0 for v in untraced.values()):
            problems.append(f"{workload}: end-to-end metrics missing or zero: {untraced}")
        print(f"{workload} (trace {trace}): {result['attempted']} operations, {result['failed']} failed")

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"without the program: exit {proc.returncode}, stdout {proc.stdout!r}")
        else:
            print("without the program: refused")

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
