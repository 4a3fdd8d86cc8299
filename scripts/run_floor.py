"""Per-run floor of the flagship: wall and CPU time against corpus size.

    python scripts/run_floor.py [--workload web_mix] [--seed 1] [--runs 7]

Run from the repository root.  Reconciles corpora shaped like one of
perfbench's workloads (``--workload``, ``web_mix`` or ``hot_cluster``)
at scales 1/28 to 2 of its family count (``web_mix``: ~85 to ~4.7k
pages) on a local Ray instance with as many CPUs as ``nproc`` reports,
started as the benchmark starts it (``perfbench.run.start_engine``).
Each size runs ``--runs`` times, the first dropped as a warm-up; a run
is ``run_reconcile`` plus fetching the assignment blocks.  Per size it
prints the median wall seconds, the median process-tree CPU seconds
(``perfbench.procs.CpuMeter``) and the Ray Data executions per run;
then the least-squares line of each over the page count, whose
intercept is the fixed per-run cost and whose slope the cost per page.
The host stamp carries ``nproc`` and the first-touch probe, read
before and after.  The last line of stdout is one JSON object with
every number.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# of the workload's family count (web_mix: 800 families, ~2.4k pages)
SCALES = (1 / 28, 1 / 7, 1 / 2, 1, 2)


def _fit(xs, ys) -> tuple[float, float]:
    """``(intercept, slope)`` of the least-squares line through the
    points."""
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
             / sum((x - mx) ** 2 for x in xs))
    return my - slope * mx, slope


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("web_mix", "hot_cluster"),
                   default="web_mix")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--runs", type=int, default=7)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 (the first run is dropped)")
    sys.path.insert(0, ROOT)
    # Ray workers import the engine from the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        q for q in (ROOT, os.environ.get("PYTHONPATH")) if q)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"

    from perfbench import procs
    from perfbench.run import start_engine, stop_engine
    from perfbench.workloads import WORKLOADS, build_inputs, fetch

    ncpu = procs.nproc()
    host = procs.host_stamp(ncpu)
    start_engine(ncpu)
    try:
        from ray.data._internal.execution.streaming_executor import (
            StreamingExecutor,
        )

        from reconcile_curation_in_cris_systems_ray.config import (
            ReconcileConfig,
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
            for scale in SCALES:
                corpus = build_inputs(WORKLOADS[args.workload], args.seed,
                                      scale, with_delta=False).base
                pages = corpus.count()
                walls, cpus, execs = [], [], []
                for _ in range(args.runs):
                    executions[0] = 0
                    cpu0, t0 = meter.read(), time.perf_counter()
                    fetch(run_reconcile(corpus, cfg)["assignments"]
                          .materialize())
                    walls.append(time.perf_counter() - t0)
                    cpus.append(meter.read() - cpu0)
                    execs.append(executions[0])
                row = {"pages": pages,
                       "wall_s": round(statistics.median(walls[1:]), 4),
                       "cpu_s": round(statistics.median(cpus[1:]), 4),
                       "executions": statistics.median(execs[1:])}
                rows.append(row)
                print(f"{pages:6d} pages  wall {row['wall_s']:.3f} s  "
                      f"cpu {row['cpu_s']:.3f} s  "
                      f"executions {row['executions']:g}", flush=True)
                del corpus
    finally:
        stop_engine()
    pages = [r["pages"] for r in rows]
    fit = {}
    for name in ("wall_s", "cpu_s"):
        b, m = _fit(pages, [r[name] for r in rows])
        fit[name] = {"intercept_s": round(b, 4),
                     "slope_ms_per_page": round(m * 1000, 5)}
        print(f"{name}: {b:.3f} s + {m * 1000:.4f} ms/page")
    host["first_touch_mbs_end"] = round(procs.first_touch_mbs(), 1)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "runs": args.runs, "host": host, "sizes": rows,
                      "fit": fit}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
