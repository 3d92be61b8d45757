"""Digest of every benchmark output, to check that a change keeps outputs
bit-identical.

For each workload and seed, every operation of
``benchmarks/workloads.build(workload, seed)`` runs in schedule order
through ``benchmarks/worker.execute`` with no spans, and one sha256 is fed
per operation:

  * ``sol.barrier.all_points().tobytes()``;
  * ``repr((sizes, kind, length.hex(), ratio.hex()))`` of the solution;
  * ``repr(report)``, the verification report (None when not verified);

or, for an operation that raises, ``repr((exception type name, message))``.
The script only reads ``benchmarks/``; it imports ``opaque`` from ``src/``
as the worker does.

    python3 tools/output_digest.py                      # all workloads, seeds 1-3
    python3 tools/output_digest.py --workload small-batch --seed 1 --seed 2

It prints one line per workload and seed: the first 16 hex digits, and the
number of operations and of those that raised.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import worker
import workloads


def output_digest(opaque, workload: str, seed: int) -> tuple[str, int, int]:
    """(sha256 hex digest, operations, operations that raised)."""
    h = hashlib.sha256()
    ops = workloads.build(workload, seed)
    raised = 0
    for op in ops:
        try:
            _, sol, _, report = worker.execute(opaque, op, worker._nospan)
        except Exception as exc:   # a raise is an output too
            raised += 1
            h.update(repr((type(exc).__name__, str(exc))).encode())
            continue
        b = sol.barrier
        h.update(b.all_points().tobytes())
        h.update(repr((b.sizes, b.kind, sol.length.hex(), sol.ratio.hex())).encode())
        h.update(repr(report).encode())
    return h.hexdigest(), len(ops), raised


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=workloads.WORKLOADS,
                    help="workload to digest (repeatable; default all)")
    ap.add_argument("--seed", action="append", type=int,
                    help="seed to digest (repeatable; default 1, 2 and 3)")
    args = ap.parse_args(argv)
    opaque = worker.load_package()
    for workload in args.workload or workloads.WORKLOADS:
        for seed in args.seed or (1, 2, 3):
            digest, ops, raised = output_digest(opaque, workload, seed)
            print(f"{workload} seed {seed}: {digest[:16]} ({ops} operations, {raised} raised)",
                  flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
