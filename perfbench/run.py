"""The repository's benchmark: one command, two workloads.

    python3 perfbench/run.py --workload drift-zipf-1k --seed 1 --seconds 40 --trace 0

Runs one workload against the program's public API for ``--seconds``
seconds (whole rounds of identical work), checks the outputs against
the oracle in ``oracle.py``, and prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` a separate traced run's per-layer
metrics (and writes its spans to ``perfbench/out/``).  A failed
correctness check exits with code 1; a missing program with code 2.
See README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from common import SRC, per_layer_units

WORKLOADS = ("drift-zipf-1k", "gateway-ring")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops the servers and probes it started:
    # SystemExit unwinds through their ``finally`` blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro").is_dir():
        print(f"benchmark: the program's source is missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "gateway-ring":
        import gateway_ring as runner
    else:
        import inproc as runner
    out = runner.run(args.workload, args.seed, args.seconds, bool(args.trace))
    ops, metrics = out["ops"], out["metrics"]
    if args.trace:
        # Layers a workload does not run through read 0 (see README).
        for name, unit in per_layer_units().items():
            metrics.setdefault(name, {"value": 0.0, "unit": unit})
    for err in ops.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    correct = not ops.errors
    print(json.dumps({
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
