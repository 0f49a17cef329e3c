"""Record the SHA-256 goldens of every verify, atlas and render op, at both sizes.

Run from the checkout root, at a commit whose outputs are known to be right:

    python3 bench/record_goldens.py

It rewrites ``bench/goldens.json``.  Search ops have no golden: they are
checked against the ``classify()`` oracle.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads


def main() -> int:
    os.chdir(run.ROOT)
    os.makedirs(workloads.WORK_DIR, exist_ok=True)
    goldens = {}
    for size in ("full", "tiny"):
        for workload in workloads.WORKLOADS:
            for op in workloads.build_ops(workload, size):
                if op.kind == "search":
                    continue
                _, _, rc, stdout, error = run.run_op(op)
                if error is not None or rc != op.expect_rc:
                    print(f"error: {op.name}: exit code {rc}\n{error or ''}", file=sys.stderr)
                    return 1
                goldens[op.name] = workloads.output_digests(op, stdout)
                if op.out is not None:
                    os.remove(op.out)
    with open(workloads.GOLDENS_PATH, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(goldens)} goldens in {workloads.GOLDENS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
