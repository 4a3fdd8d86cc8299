"""Reconcile benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload web_mix --seed 1 --seconds 25 --trace 0

Run from the repository root.  The engine runs in-process on a local
Ray instance with as many CPUs as ``nproc`` reports.  Each workload is
a closed loop: one job at a time, the next one starting only once the
previous job's assignments are materialized and checked.

``--trace 0`` measures the end-to-end metrics over untraced runs,
split across ``SETUPS`` cold set-ups (Ray start with a spare worker,
corpus generation, warm-up run) so that set-up time is itself a median.
``--trace 1``
alternates untraced runs with traced ones (``layers.py``) and reports
the per-layer metrics; the spans go to ``.bench_build/perfbench/``.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it carries the host stamp, every sample
and the error rate.  Ray's own logging goes to stderr.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import logging
import os
import signal
import statistics
import sys
import time
import traceback
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUPS = 2
OBJECT_STORE_BYTES = 768 * 1024 * 1024
# Ray's unix sockets live under its temp dir and must stay within the
# AF_UNIX path limit (107 bytes): "/session_<date>_<time>_<us>_<pid>"
# plus "/sockets/plasma_store" take up to 66 of them
RAY_TEMP = os.path.join(ROOT, ".ray")
SOCKET_PATH_ROOM = 107 - 66
# A task that blocks on another task's result lends its CPU, and Ray starts
# a spare worker (~1 s cold start) for the task it waits on.  Several
# layers block so, depending on timing; which run paid for the spare, and
# whether Ray's 1 s idle limit had already retired it, moved single
# delta_append runs between 2.0 and 3.9 s.  So set-up starts the spare
# itself (start_engine) and spares live for the session.
IDLE_WORKER_MS = 30 * 60 * 1000
E2E_UNITS = {
    "pages_per_s": "pages/s",
    "cpu_s_per_kpage": "s/kpage",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pairwise_f1": "ratio",
}


class CheckFailed(Exception):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="corpus size factor (the self-test runs tiny ones)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.scale <= 0:
        p.error("--seed must be >= 0, --seconds and --scale > 0")
    return args


def start_engine(ncpu: int) -> None:
    import ray

    kwargs = {}
    if len(RAY_TEMP) <= SOCKET_PATH_ROOM:
        kwargs["_temp_dir"] = RAY_TEMP
    else:
        print(f"checkout path too long for Ray sockets under {RAY_TEMP}; "
              "using Ray's default temp dir", file=sys.stderr)
    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES,
             _system_config={
                 "idle_worker_killing_time_threshold_ms": IDLE_WORKER_MS},
             **kwargs)
    # importing ray.data installs its logging config; quieten it after
    import ray.data  # noqa: F401

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from reconcile_curation_in_cris_systems_ray.config import (
        tune_data_context,
    )
    tune_data_context(quiet=True)
    _start_spare_worker()


def _start_spare_worker() -> None:
    """Block one task on another, so that Ray starts the spare worker
    now; both import the engine, so neither is cold later."""
    import ray

    engine = "reconcile_curation_in_cris_systems_ray.pipelines.incremental"

    @ray.remote
    def awaited():
        importlib.import_module(engine)

    @ray.remote
    def waiting():
        importlib.import_module(engine)
        ray.get(awaited.remote())

    ray.get(waiting.remote())


def _ended(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return True
    return state in ("Z", "X")


def stop_engine() -> None:
    """Shut Ray down and wait until every process it started has ended
    (workers outlive the raylet briefly; stragglers get SIGKILL)."""
    import ray

    from perfbench.procs import tree_pids

    started = [p for p in tree_pids() if p != os.getpid()]
    ray.shutdown()
    deadline = time.monotonic() + 20
    while started:
        started = [p for p in started if not _ended(p)]
        if started and time.monotonic() > deadline:
            for pid in started:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = float("inf")
        time.sleep(0.05)


class Tally:
    """Attempted and failed runs; a run fails by raising or by failing
    its correctness check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None


def checked(ds, truth, reference=None):
    """Fetch assignments, check them against the ground truth and, when
    given, against a reference run's assignments; returns (df, F1)."""
    from perfbench.workloads import canonical, check, fetch

    df = canonical(fetch(ds))
    f1, problems = check(df, truth)
    if reference is not None and not df.equals(reference):
        problems.append("assignments differ from the untraced run's")
    if problems:
        raise CheckFailed("; ".join(problems))
    return df, f1


def timed(fn, meter):
    """(result, wall seconds, process-tree CPU seconds) of ``fn()``."""
    # the previous run's datasets may sit in reference cycles; free them
    # (and their object-store blocks) before the clock starts
    gc.collect()
    cpu0 = meter.read()
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    return out, wall, meter.read() - cpu0


def window_runs(tally: Tally, fn, seconds: float):
    """Results of back-to-back checked runs of ``fn``, started while
    less than ``seconds`` have passed (the last run may overrun)."""
    end = time.perf_counter() + seconds
    while True:
        r = tally.run(fn)
        if r is not None:
            yield r
        if time.perf_counter() >= end:
            return


def median(xs):
    return statistics.median(xs) if xs else 0.0


def end_to_end(w, args, cfg, ncpu, tally: Tally,
               meter) -> tuple[dict, dict]:
    from reconcile_curation_in_cris_systems_ray.pipelines.incremental import (
        run_incremental,
    )
    from reconcile_curation_in_cris_systems_ray.pipelines.reconcile import (
        run_reconcile,
    )

    from perfbench.procs import tree_peak_rss_mb
    from perfbench.workloads import build_inputs

    samples = defaultdict(list)
    window = args.seconds / SETUPS
    for _ in range(SETUPS):
        t_setup = time.perf_counter()
        start_engine(ncpu)
        try:
            inputs = build_inputs(w, args.seed, args.scale, with_delta=False)
            if w.incremental:
                base = run_reconcile(inputs.base, cfg)
                feats = base["features"]
                base_asg = base["assignments"].materialize()
                checked(base_asg, inputs.base_truth)

                def job():
                    return run_incremental(feats, base_asg, inputs.delta,
                                           cfg)["assignments"].materialize()
                pages = inputs.delta_pages
            else:
                def job():
                    return run_reconcile(
                        inputs.base, cfg)["assignments"].materialize()
                pages = inputs.base_pages

            def one():
                asg, wall, cpu = timed(job, meter)
                _, f1 = checked(asg, inputs.truth)
                return wall, cpu, f1

            # warm-up, checked and not timed; the base run of an
            # incremental workload already warmed every worker it uses
            if not w.incremental:
                tally.run(one)
            samples["setup_s"].append(time.perf_counter() - t_setup)
            for r in window_runs(tally, one, window):
                wall, cpu, f1 = r
                samples["pages_per_s"].append(pages / wall)
                samples["cpu_s_per_kpage"].append(cpu / pages * 1000)
                samples["pairwise_f1"].append(f1)
            samples["peak_rss_mb"].append(tree_peak_rss_mb())
        finally:
            stop_engine()
    metrics = {name: median(samples[name]) for name in E2E_UNITS}
    metrics["pairwise_f1"] = min(samples["pairwise_f1"], default=0.0)
    return metrics, dict(samples)


def traced(w, args, cfg, ncpu, tally: Tally, tracer) -> tuple[dict, dict]:
    from reconcile_curation_in_cris_systems_ray.pipelines.incremental import (
        run_incremental,
    )
    from reconcile_curation_in_cris_systems_ray.pipelines.reconcile import (
        run_reconcile,
    )

    from perfbench.layers import LAYER_UNITS, traced_delta, traced_reconcile
    from perfbench.workloads import build_inputs

    ref: dict = {}
    samples = defaultdict(list)
    trace_ids = itertools.count()

    def full_run():
        out = run_reconcile(inputs.base, cfg)
        return out["features"], out["assignments"].materialize()

    def untraced():
        (feats, base_asg), wall, _ = timed(full_run, tracer.meter)
        base_df, _ = checked(base_asg, inputs.base_truth, ref.get("base"))
        final = run_incremental(feats, base_asg, inputs.delta,
                                cfg)["assignments"].materialize()
        final_df, _ = checked(final, inputs.truth, ref.get("final"))
        ref.setdefault("base", base_df)
        ref.setdefault("final", final_df)
        return wall

    def traced_once(trace):
        with tracer.span("run", trace):
            feats, base_asg, m = traced_reconcile(inputs.base, cfg, tracer,
                                                  trace)
            final, dm = traced_delta(feats, base_asg, inputs.delta, cfg,
                                     tracer, trace)
        checked(base_asg, inputs.base_truth, ref["base"])
        checked(final, inputs.truth, ref["final"])
        return {**m, **dm}

    def pair():
        """An untraced run, then a traced one; a failure in either fails
        the pair."""
        wall = untraced()
        return wall, traced_once(next(trace_ids))

    start_engine(ncpu)
    try:
        inputs = build_inputs(w, args.seed, args.scale, with_delta=True)
        if tally.run(untraced) is None:  # warm-up; sets the reference
            raise CheckFailed("untraced warm-up run failed")
        for wall, m in window_runs(tally, pair, args.seconds):
            samples["untraced.wall_s"].append(wall)
            for k, v in m.items():
                samples[k].append(v)
    finally:
        stop_engine()
    metrics = {k: median(samples.get(k, [])) for k in LAYER_UNITS}
    metrics["trace.overhead_s"] = (median(samples["reconcile.wall_s"])
                                   - median(samples["untraced.wall_s"]))
    return metrics, dict(samples)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, ROOT)
    # Ray workers import the engine and perfbench from the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    import reconcile_curation_in_cris_systems_ray as engine
    from reconcile_curation_in_cris_systems_ray.config import ReconcileConfig

    if not os.path.abspath(engine.__file__).startswith(ROOT + os.sep):
        print(f"engine imported from {engine.__file__}, not from {ROOT}",
              file=sys.stderr)
        return 1

    from perfbench import procs
    from perfbench.layers import LAYER_UNITS, Tracer
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    ncpu = procs.nproc()
    host = procs.host_stamp(ncpu)
    tally = Tally()
    report = {"workload": w.name, "seed": args.seed, "trace": args.trace,
              "scale": args.scale, "host": host}
    if args.trace:
        with procs.CpuMeter() as meter:
            tracer = Tracer(meter)
            metrics, samples = traced(w, args, ReconcileConfig(), ncpu,
                                      tally, tracer)
        units = LAYER_UNITS
        out_dir = os.path.join(ROOT, ".bench_build", "perfbench")
        os.makedirs(out_dir, exist_ok=True)
        report["spans"] = os.path.join(
            out_dir, f"spans-{w.name}-{args.seed}.json")
        with open(report["spans"], "w") as f:
            # counts per successful traced run, in trace-id order
            json.dump({**report, "counts": samples, "spans": tracer.spans},
                      f)
    else:
        with procs.CpuMeter() as meter:
            metrics, samples = end_to_end(w, args, ReconcileConfig(), ncpu,
                                          tally, meter)
        units = E2E_UNITS
    host["first_touch_mbs_end"] = round(procs.first_touch_mbs(), 1)
    report["error_rate"] = tally.failed / tally.attempted
    report["samples"] = samples
    print(json.dumps(report))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
