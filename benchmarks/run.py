"""Benchmark for the opaque-barriers package.

    python3 benchmarks/run.py --workload certify-mid --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout that holds ``src/opaque``.  Set-up time
is measured over several fresh interpreters, before and after the workload;
the workload itself runs in one more fresh interpreter with the BLAS/OpenMP
thread counts pinned.  The report gives every metric with its unit and
sample count, the failure breakdown and the input digest; details go to
``benchmarks/out/``.  The last stdout line is the machine-readable result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see benchmarks/README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# metrics of the result line; error_rate is 0 on two workloads, so it is
# printed in the report and carried in the result line as failed/attempted
END_TO_END = ("setup_s", "ops_per_s", "op_ms_p50", "op_ms_tail", "peak_rss_mb", "ratio_mean")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PINNED_THREADS = "1"
# set-up-only interpreters before and after the workload; with the
# workload's own interpreter that makes seven samples, spread over the run
SETUP_PROBES = (3, 3)
DEADLINE_S = 170.0        # the whole run, set-up included


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: PINNED_THREADS for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def spawn(args: list[str]):
    """Start a worker; return (process, seconds until it printed ``ready``)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    line = proc.stdout.readline()
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start (exit {proc.returncode})")
    return proc, time.perf_counter() - t0


def finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker overran the deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed with exit code {proc.returncode}")
    return out


def report(args, doc: dict, setup: list[float]) -> list[str]:
    m = doc["metrics"]
    host, raw = doc["host"], doc["host"]["raw"]
    lines = [f"workload {args.workload}  seed {args.seed}  passes {doc['passes']} x "
             f"{doc['ops_per_pass']} ops  inputs sha256 {doc['inputs_sha256']}",
             f"threads pinned to {PINNED_THREADS} ({', '.join(THREAD_VARS)}); "
             f"nproc {doc['nproc']}; closed loop, one client",
             f"host factor {host['factor']:.4f}: reference task median {host['reference_ms']:.4g} ms "
             f"over {host['samples']} runs; the times below are divided by it"]
    notes = {
        "setup_s": (f"median of {len(setup)} fresh interpreters before, in and after the "
                    f"workload: import + one call per method; raw {raw['setup_s']:.6g}"),
        "ops_per_s": (f"n={m['ops_per_s']['samples']} successful operations / busy time; "
                      f"raw {raw['ops_per_s']:.6g}"),
        "op_ms_p50": f"n={m['op_ms_p50']['samples']} successful operations; raw {raw['op_ms_p50']:.6g}",
        "op_ms_tail": (f"p{doc['tail_percentile']:g}, n={m['op_ms_tail']['samples']}, "
                       f"{doc['tail_samples_beyond']} samples beyond; raw {raw['op_ms_tail']:.6g}"),
        "error_rate": (f"{doc['failed']} of {doc['attempted']} operations failed, "
                       f"over {doc['executions']} executions"),
        "peak_rss_mb": "getrusage peak of the workload process, n=1",
        "ratio_mean": f"n={m['ratio_mean']['samples']} canonical-frame operations",
    }
    for name, note in notes.items():
        lines.append(f"  {name:<12} {m[name]['value']:>14.6g} {m[name]['unit']:<6} ({note})")
    f = doc["failures"]
    lines.append(f"failures by exception: {f['by_exception'] or 'none'}")
    lines.append(f"failures by check: {f['by_check'] or 'none'}")
    if f["by_method"]:
        lines.append(f"failed operations by method: {f['by_method']}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "opaque" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'opaque'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    setup: list[float] = []

    def probe(times: int) -> None:
        for _ in range(times):
            proc, ready = spawn(["--setup-only"])
            finish(proc, deadline)
            setup.append(ready)

    try:
        probe(SETUP_PROBES[0])
        worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            worker_args += ["--spans", f"{stem}-spans.jsonl.gz"]
        proc, ready = spawn(worker_args)
        setup.append(ready)
        doc = json.loads(finish(proc, deadline).strip().splitlines()[-1])
        probe(SETUP_PROBES[1])
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    doc["nproc"] = len(os.sched_getaffinity(0))
    doc["threads"] = {var: PINNED_THREADS for var in THREAD_VARS}
    doc["setup_samples_s"] = setup
    # the set-up probes run right before and after the workload, in the same
    # phase of the host as the reference task, so they share its host factor
    doc["host"]["raw"]["setup_s"] = statistics.median(setup)
    doc["metrics"]["setup_s"] = {"value": statistics.median(setup) / doc["host"]["factor"],
                                 "unit": "s", "samples": len(setup)}
    # twins probe similarity invariance; their failures are the package's
    # known defects and count in failed/error_rate, not against correctness
    correct = doc["canonical_failed"] == 0
    doc["correct"] = correct
    with open(f"{stem}.json", "w") as fh:
        json.dump(doc, fh, indent=1)

    if args.trace:
        picked = doc["layers"]
        print(f"workload {args.workload}  seed {args.seed}  traced passes {doc['passes']}  "
              f"spans {doc['spans']}  overhead x{picked['trace.overhead']['value']:.3f}")
        for name, v in picked.items():
            print(f"  {name:<44} {v['value']:>14.6g} {v['unit']}")
    else:
        picked = {k: doc["metrics"][k] for k in END_TO_END}
        print("\n".join(report(args, doc, setup)))
    result = {"correct": correct, "attempted": doc["attempted"], "failed": doc["failed"],
              "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in picked.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
