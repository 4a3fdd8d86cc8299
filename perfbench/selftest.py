"""Self-test of the benchmark itself (not of the engine).

    python3 perfbench/selftest.py

Runs every workload in ``workloads.py`` (those BENCHMARK.json lists and
those only run by hand) at a tenth of its size: traced twice on one seed
and once on another, untraced once.  It checks that

- each run passes its own correctness checks and prints a well-formed
  result line whose metric names and units are those in BENCHMARK.json;
- every count-like per-layer metric (``pairs.candidate_pairs``,
  ``pairs.hot_keys``, ``cluster.input_edges``, ``delta.delta_edges``, ...)
  repeats exactly for the same seed;
- without the engine next to it, the benchmark exits non-zero and
  prints no result.

Takes about five minutes on one CPU.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.1"
SECONDS = "1"
SEEDS = (3, 4)
# per-layer metrics that are timings; every other one is a count or a
# ratio of counts and must repeat exactly for a seed
TIMING_UNITS = {"s", "us/page", "us/pair"}
SHOWN = ("pairs.candidate_pairs", "pairs.hot_keys", "cluster.input_edges",
         "delta.delta_edges")


def run(cwd: str, workload: str, seed: int, trace: int):
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace),
         "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return p.returncode, p.stdout.strip().splitlines(), p.stderr


def result(workload, seed, trace, spec) -> dict:
    rc, lines, err = run(ROOT, workload, seed, trace)
    where = f"{workload} seed={seed} trace={trace}"
    if rc != 0 or not lines:
        raise AssertionError(f"{where}: exit {rc}\n{err[-2000:]}")
    res = json.loads(lines[-1])
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"{where}: result keys {sorted(res)}")
    if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
        raise AssertionError(f"{where}: run failed: {res}\n{err[-2000:]}")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        raise AssertionError(f"{where}: metrics {got} != {want}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def main() -> int:
    sys.path.insert(0, ROOT)
    from perfbench.workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = {x["name"] for x in spec["workloads"]}
    if not listed <= set(WORKLOADS):
        raise AssertionError(f"BENCHMARK.json lists unknown workloads "
                             f"{sorted(listed - set(WORKLOADS))}")
    counts = [m["name"] for m in spec["per_layer"]
              if m["unit"] not in TIMING_UNITS]
    for w in WORKLOADS:
        first = result(w, SEEDS[0], 1, spec)
        again = result(w, SEEDS[0], 1, spec)
        differ = {k: (first[k], again[k]) for k in counts
                  if first[k] != again[k]}
        if differ:
            raise AssertionError(f"{w}: counts differ for one seed: {differ}")
        result(w, SEEDS[1], 1, spec)
        result(w, SEEDS[1], 0, spec)
        print(f"ok {w}: " + ", ".join(f"{k}={first[k]}" for k in SHOWN),
              flush=True)

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    rc, lines, _ = run(bare, spec["workloads"][0]["name"], SEEDS[0], 0)
    shutil.rmtree(bare)
    if rc == 0 or any(line.startswith('{"correct"') for line in lines):
        raise AssertionError("benchmark succeeded without the engine")
    print("ok: exits non-zero without the engine")
    return 0


if __name__ == "__main__":
    sys.exit(main())
