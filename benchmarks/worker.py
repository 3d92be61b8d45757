"""One isolated workload run, in a fresh interpreter started by run.py.

Imports ``opaque`` from the checkout's ``src/``, makes one warm-up call of
each method (timed by the parent as a set-up sample), prints ``ready``,
builds the workload's inputs from the seed, then runs whole passes over
them in a closed loop (one client, no threads) until the next pass would
overrun ``--seconds``.  A fixed reference task, spread over every pass,
measures the host's speed.  Every operation's output is checked.  The last
stdout line is a JSON document that run.py turns into the report.

With ``--trace 1`` untraced and traced passes alternate; the traced ones
give the per-layer numbers, and the pair gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import tracing
import workloads
from workloads import MUTANT_SHARE, Op

ROOT = Path(__file__).resolve().parent.parent

METHOD_ATTR = {"a1": "algo_a1", "a2": "algo_a2", "a3": "algo_a3", "a4": "algo_a4",
               "interior-arc": "interior_single_arc", "interior-tree": "interior_connected"}

# Passes a run always completes.  The tail percentile is fixed per workload:
# the highest whole percentile that leaves at least ten successful
# operations beyond it (one sample per operation of a pass: 30, 58 and 360
# operations, of which about 4% fail on small-batch at the seed commit).
MIN_PASSES = 3
TAIL_PERCENTILE = {"compute-large": 68.0, "certify-mid": 84.0, "small-batch": 97.0}

RATIO_FLOOR = 1.0 - 1e-9     # length / (per/2) never below the half-perimeter bound
WITNESS_TOL_REL = 1e-9       # relative to the input diameter, as acceptance test 11
TWIN_ULPS = 64.0             # twin length tolerance, in rounding units per point

# The host's speed, measured alongside the operations by a fixed reference
# task that never calls the package: numpy on small arrays and plain Python,
# as the package itself does.  On a shared 2-vCPU VM every operation and
# the reference task slowed down together, by up to 1.7x for minutes at a
# time.  Latencies are divided by the task's median time over the run and
# multiplied by REFERENCE_MS: they read as on a host where the task takes
# REFERENCE_MS.  This cut the spread between runs by a factor of 2 to 3.
REFERENCE_MS = 4.0
REFERENCE_PER_PASS = 12
_REFERENCE_POINTS = np.random.default_rng(7).standard_normal((150, 2))


def load_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import opaque
    if Path(opaque.__file__).resolve().parent != (src / "opaque").resolve():
        raise SystemExit(f"imported opaque from {opaque.__file__}, not from {src}")
    import opaque.barriers
    import opaque.geometry
    import opaque.verify
    return opaque


def warm_up(opaque) -> None:
    """One call of each method, and one verification, on a fixed polygon."""
    poly = opaque.geometry.validate_polygon(workloads.PENTAGON_FIG6)
    for attr in METHOD_ATTR.values():
        sol = getattr(opaque.barriers, attr)(poly)
    opaque.verify.is_opaque(poly, sol.barrier)


def truncate(polylines, target: float):
    """Prefix of the barrier's polylines, in order, of total length target."""
    out, acc = [], 0.0
    for pl in polylines:
        cur = [tuple(pl[0])]
        for a, b in zip(pl[:-1], pl[1:]):
            seg = math.dist(a, b)
            if acc + seg >= target:
                t = (target - acc) / seg
                if t > 0.0:
                    cur.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
                if len(cur) > 1:
                    out.append(tuple(cur))
                return tuple(out)
            cur.append(tuple(b))
            acc += seg
        out.append(tuple(cur))
    return tuple(out)


def reference_task() -> float:
    """Seconds one run of the reference task takes.  Garbage collection is
    held off, so that none of the package's garbage is charged to it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        pts = _REFERENCE_POINTS
        for _ in range(3):
            d = pts[:, None, :] - pts[None, :, :]
            np.sqrt((d ** 2).sum(axis=2)).argmax()
        acc = 0.0
        for i in range(2500):
            acc += math.hypot(i * 0.5, acc % 7.0)
        sorted(range(2500), key=lambda x: (x * 7919) % 2503)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _nospan(name):
    return contextlib.nullcontext()


def execute(opaque, op: Op, span):
    """Run one operation; returns (busy seconds, solution, verified polylines, report)."""
    t0 = time.perf_counter()
    poly = opaque.geometry.validate_polygon(op.points)
    with span("geometry.diameter"):
        poly.diameter
    sol = getattr(opaque.barriers, METHOD_ATTR[op.method])(poly)
    busy = time.perf_counter() - t0
    if not op.verify:
        return busy, sol, None, None
    polylines = sol.barrier.polylines
    if op.mutated:
        polylines = truncate(polylines, MUTANT_SHARE * op.perimeter / 2.0)
    t1 = time.perf_counter()
    barrier = opaque.barriers.Barrier(polylines, "arbitrary") if op.mutated else sol.barrier
    report = opaque.verify.is_opaque(poly, barrier)
    return busy + time.perf_counter() - t1, sol, polylines, report


def witness_ok(op: Op, polylines, witness) -> bool:
    """The witness line crosses the polygon and misses every segment."""
    nrm = np.array([-math.sin(witness.theta), math.cos(witness.theta)])
    tol = WITNESS_TOL_REL * op.diameter
    off = witness.representative_offset
    proj = np.asarray(op.points) @ nrm
    if not proj.min() - tol <= off <= proj.max() + tol:
        return False
    for pl in polylines:
        p = np.asarray(pl, dtype=float) @ nrm
        for lo, hi in zip(np.minimum(p[:-1], p[1:]), np.maximum(p[:-1], p[1:])):
            if lo - tol < off < hi + tol:
                return False
    return True


def twin_tolerance(op: Op, canon: Op, barrier_points: int) -> float:
    """Length difference that rounding of the twin's coordinates (and of
    the canonical copy's) can explain, in the canonical frame."""
    eps = sys.float_info.epsilon
    twin_mag = float(np.abs(np.asarray(op.points)).max()) / op.scale
    canon_mag = float(np.abs(np.asarray(canon.points)).max())
    return TWIN_ULPS * eps * (len(op.points) + barrier_points) * (twin_mag + canon_mag)


def check(op: Op, sol, polylines, report, canon: tuple | None) -> list[str]:
    """Names of the output checks this operation fails."""
    fails = []
    if not sol.ratio >= RATIO_FLOOR:
        fails.append("ratio_below_half_perimeter_bound")
    if op.verify and not op.mutated and not report.opaque:
        fails.append("built_barrier_not_opaque")
    if op.mutated:
        if report.opaque:
            fails.append("mutant_reported_opaque")
        elif not witness_ok(op, polylines, report.witness):
            fails.append("mutant_witness_invalid")
    if canon is not None:
        canon_op, canon_len = canon
        points = sum(len(pl) for pl in sol.barrier.polylines)
        if abs(sol.length / op.scale - canon_len) > twin_tolerance(op, canon_op, points):
            fails.append("twin_length_mismatch")
    return fails


class Tally:
    """Outcomes of the timed operations over all passes.

    An operation's latency is the median of its executions over the run's
    passes; the package keeps no state between calls, so every repeat does
    the same work.  Failures are counted per operation of the schedule, not
    per execution, so a seed's counts do not depend on how many passes fit
    into the run; an operation fails if any of its executions fails.
    """

    def __init__(self, ops: list[Op]):
        self.ops = ops
        self.times: list[list[float]] = [[] for _ in ops]    # seconds per execution
        self.reference: list[float] = []                      # seconds per reference task
        self.raised: list[set[str]] = [set() for _ in ops]    # exception types
        self.checks: list[set[str]] = [set() for _ in ops]    # failed output checks
        self.ratio: list[float | None] = [None] * len(ops)
        self.executions = 0
        self.examples: dict[str, str] = {}

    def add(self, i: int, busy: float, ratio: float | None,
            checks: list[str] = (), raised: str | None = None) -> None:
        self.executions += 1
        self.times[i].append(busy)
        self.ratio[i] = ratio
        self.checks[i].update(checks)
        if raised is not None:
            self.raised[i].add(raised)

    @property
    def ok(self) -> list[bool]:
        return [not (r or c) for r, c in zip(self.raised, self.checks)]

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def breakdown(self) -> dict:
        """Failed operations by exception type, by check and by method."""
        by_method = Counter(op.method for op, ok in zip(self.ops, self.ok) if not ok)
        return {"by_exception": dict(Counter(e for r in self.raised for e in r)),
                "by_check": dict(Counter(c for cs in self.checks for c in cs)),
                "by_method": dict(by_method), "examples": self.examples}

    @property
    def canonical_failed(self) -> int:
        return sum(1 for op, ok in zip(self.ops, self.ok) if op.canonical and not ok)


def run_pass(opaque, ops: list[Op], tally: Tally, rec: tracing.Recorder | None) -> None:
    span = rec.span if rec is not None else _nospan
    lengths: dict[int, float] = {}
    every = max(1, len(ops) // REFERENCE_PER_PASS)
    for i, op in enumerate(ops):
        if i % every == 0:
            tally.reference.append(reference_task())
        if rec is not None:
            rec.op_id += 1
        t0 = time.perf_counter()
        try:
            with span("op"):
                busy, sol, polylines, report = execute(opaque, op, span)
        except Exception as exc:     # a raising operation is a counted failure
            name = type(exc).__name__
            tally.examples.setdefault(name, f"{op.label} {op.method}: {exc}")
            tally.add(i, time.perf_counter() - t0, None, raised=name)
            continue
        if op.canonical:
            lengths[i] = sol.length
        canon = ((ops[op.twin_of], lengths[op.twin_of])
                 if op.twin_of is not None and op.twin_of in lengths else None)
        fails = check(op, sol, polylines, report, canon)
        for f in fails:
            tally.examples.setdefault(f, f"{op.label} {op.method}")
        tally.add(i, busy, sol.ratio, checks=fails)


def run(opaque, ops: list[Op], seconds: float, trace: bool) -> dict:
    """Whole passes until the next would overrun ``seconds``.  Traced runs
    make pairs of an untraced and a traced pass, in alternating order so
    that neither side always runs first on a cold process."""
    tally = Tally(ops)
    rec = tracing.Recorder() if trace else None
    took = {False: 0.0, True: 0.0}
    passes = 0
    start = time.perf_counter()
    while True:
        order = ((False, True) if passes % 2 == 0 else (True, False)) if trace else (False,)
        for traced in order:
            t0 = time.perf_counter()
            if traced:
                with tracing.installed(rec, opaque):
                    run_pass(opaque, ops, Tally(ops), rec)
            else:
                run_pass(opaque, ops, tally, None)
            took[traced] += time.perf_counter() - t0
        passes += 1
        elapsed = time.perf_counter() - start
        if passes >= MIN_PASSES and elapsed * (passes + 1) / passes > seconds:
            break
    return {"passes": passes, "tally": tally, "rec": rec,
            "plain_s": took[False], "traced_s": took[True]}


def summarize(workload: str, res: dict) -> dict:
    t: Tally = res["tally"]
    ok = t.ok
    reference_ms = statistics.median(t.reference) * 1e3
    host = reference_ms / REFERENCE_MS
    median_ms = np.array([statistics.median(ts) for ts in t.times]) * 1e3
    lat_ms = median_ms[np.array(ok)] / host
    ratios = [r for op, r, good in zip(t.ops, t.ratio, ok) if good and op.canonical]
    level = TAIL_PERCENTILE[workload]
    tail = float(np.percentile(lat_ms, level))
    succeeded = len(lat_ms)
    busy_s = median_ms.sum() / host / 1e3
    metrics = {
        "ops_per_s": (succeeded / busy_s, "1/s", succeeded),
        "op_ms_p50": (float(np.percentile(lat_ms, 50.0)), "ms", succeeded),
        "op_ms_tail": (tail, "ms", succeeded),
        "error_rate": (t.failed / t.attempted, "ratio", t.attempted),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        "ratio_mean": (float(np.mean(ratios)), "ratio", len(ratios)),
    }
    doc = {
        "passes": res["passes"], "ops_per_pass": len(t.ops),
        "attempted": t.attempted, "failed": t.failed, "executions": t.executions,
        "host": {"reference_ms": reference_ms, "factor": host, "samples": len(t.reference),
                 "raw": {"ops_per_s": succeeded / (busy_s * host),
                         "op_ms_p50": float(np.median(lat_ms)) * host, "op_ms_tail": tail * host}},
        "tail_percentile": level,
        "tail_samples_beyond": int((lat_ms > tail).sum()),
        "failures": t.breakdown(),
        "canonical_failed": t.canonical_failed,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "operations": [{"label": op.label, "method": op.method, "mutated": op.mutated,
                        "median_ms": m, "executions": len(ts), "ok": good}
                       for op, m, ts, good in zip(t.ops, median_ms, t.times, ok)],
    }
    rec = res["rec"]
    if rec is not None:
        layers = tracing.layer_metrics(rec, res["passes"])
        layers["trace.overhead"] = (res["traced_s"] / res["plain_s"], "ratio")
        doc["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        doc["spans"] = len(rec.spans)
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="write the traced spans here, as gzipped JSON lines")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    opaque = load_package()
    warm_up(opaque)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    ops = workloads.build(args.workload, args.seed)
    res = run(opaque, ops, args.seconds, bool(args.trace))
    doc = summarize(args.workload, res)
    doc["inputs_sha256"] = workloads.digest(ops)
    if args.spans and res["rec"] is not None:
        res["rec"].dump(args.spans)
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
