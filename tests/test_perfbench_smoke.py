"""The benchmark still runs against the program.

`perfbench/smoke.py` runs every workload at a tiny size, checks its
correctness checks and its metric names against BENCHMARK.json, and
checks that the benchmark refuses to run without the program. Running it
here makes a renamed traced function or a changed signature that the
benchmark calls (`build_pair_record`, `assign`, `cli.main`, ...) fail the
test suite instead of the next benchmark run. It reads `perfbench/`,
changes nothing there, and writes only under the ignored `.perfbench/`.
About 10 s on a 2-core machine.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    done = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, (done.stdout + done.stderr)[-4000:]
