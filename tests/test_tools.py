"""Smoke test of the developer tools under ``tools/``."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

GROUPS = [
    "data_io.load_dataset",
    "graph.build",
    "samplers.serial",
    "samplers.workers2",
    "coeffs",
    "exact",
    "caches",
    "cli.train",
    "train.skips",
    "containers.bytes",
    "forward",
    "forward.reused",
    "grads",
    "grads.widening",
    "edge_aggregates.f_16",
    "edge_aggregates.f_2_2",
    "edge_aggregates.f_16_16_16",
    "variance.closed_form",
    "monte_carlo",
    "monte_carlo.given_aggregates",
    "monte_carlo.hidden",
    "monte_carlo.rate_classes",
]


def test_bitident_digests_the_working_tree():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bitident.py"), str(ROOT)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    lines = run.stdout.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == GROUPS
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines[:-1])
    assert lines[-1].startswith("# monte_carlo estimates ")
    digest = dict(line.split() for line in lines[:-1])
    # serial and pooled producers hand out the same draws
    assert digest["samplers.serial"] == digest["samplers.workers2"]
