"""``BENCH_trajectory.json`` records only what the benchmark measures.

Every entry names a workload and an end-to-end metric of
``BENCHMARK.json``, with that metric's unit, so a figure in the
trajectory can be compared with a run of ``benchmarks/run.py``.  The test
reads the two files and runs nothing.
"""

import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_trajectory_entries_name_benchmark_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    entries = json.loads((ROOT / "BENCH_trajectory.json").read_text())["entries"]
    assert entries
    for entry in entries:
        assert entry["workload"] in workloads, entry
        assert entry["metric"] in units, entry
        assert entry["unit"] == units[entry["metric"]], entry
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), entry
        assert isinstance(entry["pairs"], int) and entry["pairs"] >= 1, entry
        assert entry["commit"], entry
