"""subgcn benchmark: one workload, one seed, one run.

Run from the root of a subgcn checkout (the library is imported from
``src/``):

    python3 perfbench/run.py --workload edge-serial --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer split from a separate traced pass. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from workloads import WORKLOADS  # needs numpy only, not subgcn


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measurement window of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _args(argv)
    root = Path.cwd()
    if not (root / "src" / "subgcn" / "__init__.py").is_file():
        print(f"error: {root / 'src' / 'subgcn'} not found; run from the root of a subgcn checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import harness  # imports subgcn from the checkout
    from spans import LAYER_METRICS

    record, result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    units = {k: u for k, (u, _) in LAYER_METRICS.items()} if args.trace else harness.END_TO_END_UNITS
    metrics = {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()}

    print(json.dumps(record, indent=1, default=str))
    for name, m in metrics.items():
        print(f"{name:<36} {m['value']:>18.6g} {m['unit']}")
    for failure in record["failed_checks"]:
        print(f"FAILED CHECK: {failure}")
    print(f"checks: {result['attempted'] - result['failed']} of {result['attempted']} passed")
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
