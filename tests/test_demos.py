"""The narrative demos run to completion against the current library.

Each demo runs as its own process with `src` on PYTHONPATH, as the README
shows. `05_train_and_eval.py` is left out: it trains a model end to end
(about 90 s on a 2-core machine), and the acceptance tests already cover
training and three-mode evaluation.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_autodiff_engine.py", "02_model_walkthrough.py", "03_pairing_and_preprocess.py", "04_vote_aggregation.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
