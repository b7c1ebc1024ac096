"""The gated benchmark under ``perfbench/`` still runs against the library.

``perfbench/run.py`` imports ``harness`` with ``perfbench`` and ``src`` on
``sys.path``, wraps every name in ``spans.BOUNDARIES`` and builds each
workload's ``SamplerConfig`` and ``TrainConfig``. A library change that
breaks any of these fails the benchmark before it measures anything, so
this test repeats those steps in a fresh interpreter. It only reads
``perfbench/``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, sys
from pathlib import Path

root = Path(sys.argv[1])
sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
import harness
from spans import BOUNDARIES

unresolved = [name for owner, attr, name, _ in BOUNDARIES if not callable(getattr(owner, attr, None))]
errors = {}
for entry in json.loads((root / "BENCHMARK.json").read_text())["workloads"]:
    name = entry["name"]
    try:
        run = harness.Run(harness.WORKLOADS[name], 7, root, root)
        _ = (run.sampler_cfg, run.train_cfg)  # each property builds its config
    except Exception as exc:
        errors[name] = f"{type(exc).__name__}: {exc}"
print(json.dumps({"unresolved": unresolved, "config_errors": errors}))
"""


def test_gated_workloads_import_and_configure():
    run = subprocess.run(
        [sys.executable, "-B", "-c", PROBE, str(ROOT)],  # -B: write no bytecode under perfbench/
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == {"unresolved": [], "config_errors": {}}
