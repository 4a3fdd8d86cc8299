"""Cost of an incremental link against a full re-run over base + delta.

    python scripts/delta_cost.py [--workload delta_append web_mix hot_cluster]
                                 [--seed 1 2] [--runs 5]

Run from the repository root.  For each workload and seed it builds
perfbench's inputs (``delta_append``: its 1/``DELTA_SHARE`` url-hash
delta; ``web_mix`` / ``hot_cluster``: the delta the traced benchmark
links, 1/``DELTA_SHARE`` as many fresh families), runs the base once,
then alternates, ``--runs`` times each after one untimed warm-up of
both, the link (``run_incremental`` against the base run's features
and assignments) and a full ``run_reconcile`` over base + delta, each
timed through fetching its assignment blocks.  Ray runs locally with
as many CPUs as ``nproc`` reports, started as the benchmark starts it
(``perfbench.run.start_engine``).  Per workload and seed it prints the
median wall seconds, the median process-tree CPU seconds
(``perfbench.procs.CpuMeter``) and the Ray Data executions per run of
both, and the link's share of the full re-run.  The host stamp carries
``nproc`` and the first-touch probe, read before and after.  The last
line of stdout is one JSON object with every number.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("delta_append", "web_mix", "hot_cluster")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", nargs="+", choices=WORKLOADS,
                   default=list(WORKLOADS))
    p.add_argument("--seed", nargs="+", type=int, default=[1, 2])
    p.add_argument("--runs", type=int, default=5)
    args = p.parse_args(argv)
    if args.runs < 1:
        p.error("--runs must be at least 1")
    sys.path.insert(0, ROOT)
    # Ray workers import the engine from the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        q for q in (ROOT, os.environ.get("PYTHONPATH")) if q)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"

    from perfbench import procs
    from perfbench.run import start_engine, stop_engine
    from perfbench.workloads import WORKLOADS as SHAPES
    from perfbench.workloads import build_inputs, fetch

    ncpu = procs.nproc()
    host = procs.host_stamp(ncpu)
    start_engine(ncpu)
    try:
        import ray.data as rd
        from ray.data._internal.execution.streaming_executor import (
            StreamingExecutor,
        )

        from reconcile_curation_in_cris_systems_ray.config import (
            ReconcileConfig,
        )
        from reconcile_curation_in_cris_systems_ray.pipelines.incremental import (
            run_incremental,
        )
        from reconcile_curation_in_cris_systems_ray.pipelines.reconcile import (
            run_reconcile,
        )

        executions = [0]
        execute = StreamingExecutor.execute

        def counting(self, *a, **k):
            executions[0] += 1
            return execute(self, *a, **k)

        StreamingExecutor.execute = counting
        cfg = ReconcileConfig()
        rows = []
        with procs.CpuMeter() as meter:
            for name in args.workload:
                for seed in args.seed:
                    inputs = build_inputs(SHAPES[name], seed, 1.0,
                                          with_delta=True)
                    base = run_reconcile(inputs.base, cfg)
                    feats = base["features"]
                    asg = base["assignments"]
                    both = rd.from_arrow_refs(
                        list(inputs.base.to_arrow_refs())
                        + list(inputs.delta.to_arrow_refs()))
                    jobs = {
                        "link": lambda: run_incremental(
                            feats, asg, inputs.delta, cfg)["assignments"],
                        "full": lambda: run_reconcile(
                            both, cfg)["assignments"],
                    }
                    samples = {k: {"wall_s": [], "cpu_s": [],
                                   "executions": []} for k in jobs}
                    for i in range(args.runs + 1):
                        for kind, job in jobs.items():
                            executions[0] = 0
                            cpu0, t0 = meter.read(), time.perf_counter()
                            fetch(job().materialize())
                            wall = time.perf_counter() - t0
                            if i:  # the first round warms up
                                s = samples[kind]
                                s["wall_s"].append(wall)
                                s["cpu_s"].append(meter.read() - cpu0)
                                s["executions"].append(executions[0])
                    row = {"workload": name, "seed": seed,
                           "base_pages": inputs.base_pages,
                           "delta_pages": inputs.delta_pages}
                    for kind, s in samples.items():
                        row[kind] = {k: round(statistics.median(v), 4)
                                     for k, v in s.items()}
                    for m in ("wall_s", "cpu_s"):
                        row[f"link_share_{m}"] = round(
                            row["link"][m] / row["full"][m], 3)
                    rows.append(row)
                    print(f"{name} seed {seed}: {row['base_pages']} + "
                          f"{row['delta_pages']} pages  link "
                          f"{row['link']['wall_s']:.3f} s / "
                          f"{row['link']['cpu_s']:.3f} CPU-s / "
                          f"{row['link']['executions']:g} executions  "
                          f"full {row['full']['wall_s']:.3f} s / "
                          f"{row['full']['cpu_s']:.3f} CPU-s / "
                          f"{row['full']['executions']:g} executions  "
                          f"share {row['link_share_wall_s']:.2f} wall, "
                          f"{row['link_share_cpu_s']:.2f} CPU", flush=True)
                    del inputs, base, feats, asg, both
    finally:
        stop_engine()
    host["first_touch_mbs_end"] = round(procs.first_touch_mbs(), 1)
    print(json.dumps({"runs": args.runs, "host": host, "results": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
