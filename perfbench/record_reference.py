"""Record the reference outputs the benchmark checks against.

Run from the root of a checkout, at the commit whose outputs are the
reference (the references in ``reference/`` were recorded from the commit
that introduced the benchmark)::

    PYTHONPATH=src python3 perfbench/record_reference.py [workload ...]

Recording again at a later commit would hide any change in outputs, so do
it only when a change of outputs is intended and explained.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
SIM_SEEDS = range(32)


def records(ops) -> dict[str, dict]:
    return {op.key: op.record(op.run()) for op in ops}


def main(argv: list[str]) -> int:
    root = BENCH.parent
    out_dir = BENCH / "reference"
    out_dir.mkdir(exist_ok=True)
    for workload in argv or workloads.WORKLOADS:
        if workload == "simulate":
            doc = {str(seed): {**records(workloads.simulate_ops(seed, "full")),
                               **records(workloads.simulate_ops(seed, "tiny"))}
                   for seed in SIM_SEEDS}
        else:
            ops = {op.key: op for size in workloads.SIZES
                   for op in workloads.build(workload, 0, size, root)}
            doc = {"*": records(ops.values())}
        path = out_dir / f"{workload}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {path.relative_to(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
