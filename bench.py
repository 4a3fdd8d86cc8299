"""Benchmark harness.

Plain run: executes the headline pipelines over ``$GRAFT_SF_DIR``
(default /root/testdata/sf0.1) with ``ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS)`` (default 32) and prints ONE JSON line:

    {"metric": "...", "value": <headline sec>, "unit": "sec",
     "queries": {...}, "sf": ..., "num_cpus": N,
     "candidate_pairs": P, "pairs_per_sec": R}

``--scaling``: runs the same job in fresh processes at
``$GRAFT_SCALE_LO`` (default 4) and ``$GRAFT_SCALE_HI`` (default 16)
CPUs on the same input and prints throughputs + scaling efficiency
(the sandbox stand-in for N- vs 4N-node clusters; see BASELINE.md for
the single-node memory-bandwidth caveat).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

# operator queries timed alongside the flagship (a cross-section of the
# shuffle/join/dedup/ANN families)
BENCH_QUERIES = [
    "groupby_agg", "hash_join", "priority_dedup", "window_hourly",
    "dedup_exact", "near_dup_docs", "knn_bruteforce",
    "chunk_dedup", "unigram_logprob", "pagerank",
    "snm_pairs", "golden_record", "cc_pivot", "soft_tfidf",
    "threshold_sweep", "minhash_pairs",
    # eighth-session additions: CDC apply, windowed distinct, the
    # 2-D geo grid join, and the interval stream join
    "merge_upsert", "window_distinct", "geo_join", "stream_join",
]


def _box_hygiene() -> None:
    """Best-effort memory compaction before measuring: this sandbox's
    walls drift 25-40% slower as physical memory fragments over hours
    (khugepaged/THP pressure, see BASELINE.md); one compaction pass
    recovers most of it.  No-op without privileges.

    ``GRAFT_NO_HYGIENE=1`` skips both knobs.  ``GRAFT_DROP_CACHES=1``
    additionally drops the page cache first — A/B-measured (round 2,
    2x interleaved): dropping caches cost ~70 s of warmup and ~20 s
    of corpus gen per invocation (everything re-faults through disk)
    while the MEASURED run medians were statistically identical
    (18.1/16.1 s with vs 18.2/24.2 s without in the same phase), so
    it is no longer the default; one earlier deep-degraded phase
    (30.6 s medians) did recover to 12.8 s only after a drop+compact,
    hence the opt-in remains."""
    if os.environ.get("GRAFT_NO_HYGIENE"):
        return
    # Transparent huge pages for anon + shmem (the plasma object
    # store lives in /dev/shm).  Root-caused 2026-08-17: this
    # Firecracker guest's first-touch page faults cost up to ~90us
    # per 4 KiB page in degraded host phases (4 GiB of fresh numpy
    # buffer took 88 s to fault in while steady-state DRAM streamed
    # at 17 GB/s) — THP=always amortizes the fault path 512:1;
    # measured first-touch 193 -> 1485 MB/s in the same phase, and
    # corpus gen 43 s -> 9.5 s.  Idempotent, best-effort.
    for knob, val in (("enabled", "always"), ("shmem_enabled", "always")):
        try:
            with open(f"/sys/kernel/mm/transparent_hugepage/{knob}",
                      "w") as f:
                f.write(val)
        except OSError:
            pass
    if os.environ.get("GRAFT_DROP_CACHES"):
        try:
            with open("/proc/sys/vm/drop_caches", "w") as f:
                f.write("3")
        except OSError:
            pass
    try:
        with open("/proc/sys/vm/compact_memory", "w") as f:
            f.write("1")
    except OSError:
        pass


def _wait_for_healthy_phase() -> tuple[float, float]:
    """Bounded wait for the box to leave a degraded host phase before
    measuring (round-2 lesson: BENCH_r02 was captured at 9 MB/s
    first-touch — 3-10x walls for identical code — and was useless as a
    perf signal).  Probes first-touch speed; below
    ``$GRAFT_PHASE_MIN_MBS`` (default 200, healthy > 800) it applies
    the hygiene knobs, then re-probes every ~20 s up to
    ``$GRAFT_PHASE_MAX_WAIT`` seconds (default 600; 0 disables).
    Returns (first probe, probe at start-of-measurement) — both are
    stamped into the emitted JSON so walls stay interpretable even when
    the wait times out and the bench proceeds degraded."""
    min_mbs = float(os.environ.get("GRAFT_PHASE_MIN_MBS", "200"))
    max_wait = float(os.environ.get("GRAFT_PHASE_MAX_WAIT", "600"))
    first = probe = _phase_probe_mbs()
    deadline = time.time() + max_wait
    while probe < min_mbs and time.time() < deadline:
        _box_hygiene()
        time.sleep(20)
        probe = _phase_probe_mbs()
    return first, probe


def run_bench() -> dict:
    import logging

    import ray

    _box_hygiene()
    probe_first, probe_start = _wait_for_healthy_phase()

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=NUM_CPUS,
                 include_dashboard=False, logging_level="ERROR")
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from reconcile_curation_in_cris_systems_ray.config import (
        ReconcileConfig, tune_data_context,
    )
    from reconcile_curation_in_cris_systems_ray.pipelines.queries import QUERIES
    from reconcile_curation_in_cris_systems_ray.pipelines.reconcile import (
        run_reconcile,
    )
    from reconcile_curation_in_cris_systems_ray.sources.corpus import (
        CorpusConfig, corpus_dataset,
    )

    tune_data_context()

    import pyarrow.parquet as pq
    import ray.data as rd

    # metadata-only row count (no Ray execution before the flagship —
    # measured: parquet-read warmups before the flagship left the
    # session in a state where the first flagship runs were 2-3x
    # slower; table warmup for the operator queries happens after)
    n_docs = pq.read_metadata(f"{SF_DIR}/documents.parquet").num_rows
    # ~3 pages per family on average; 9x documents-count families =>
    # corpus ~= 27x documents rows (~129k pages at sf0.1) — big enough
    # that per-stage compute dominates fixed scheduling overhead (what
    # the scaling criterion actually measures at cluster scale).
    # GRAFT_FAMILY_MULT overrides the multiplier (a 27x run was
    # measured for the data-scale datapoint in BASELINE.md).
    fam_mult = int(os.environ.get("GRAFT_FAMILY_MULT", "9"))
    corpus_cfg = CorpusConfig(n_families=max(200, fam_mult * n_docs))

    t0 = time.time()
    # prune at the source: the pipeline reads (url, warc_ts, html,
    # lang) — materializing the ground-truth text/cluster_id columns
    # would double the corpus' object-store footprint for nothing
    # (mirrors read_parquet(columns=...) pruning on a real corpus)
    corpus = corpus_dataset(corpus_cfg).select_columns(
        ["url", "warc_ts", "html", "lang"]).materialize()
    gen_sec = round(time.time() - t0, 2)
    n_pages = corpus.count()

    # one warm-up pass amortizes worker spin-up / import costs; three
    # measured passes, MEDIAN reported with the full run list alongside
    # (round-1 reported min, which hid a monotone within-session
    # degradation caused by holding the previous run's materialized
    # outputs alive across iterations — hence the explicit del below)
    walls = []
    pairs = 0
    n_assign = 0
    n_runs = 1 + int(os.environ.get("GRAFT_RUNS", "3"))  # warmup + N
    for i in range(n_runs):
        t0 = time.time()
        out = run_reconcile(corpus, ReconcileConfig())
        n_assign = out["assignments"].count()
        wall = round(time.time() - t0, 2)
        if i > 0:
            walls.append(wall)
        else:
            warmup_sec = wall
        pairs = out["metrics"].get("scored_pairs") or 0
        stage_walls = {s["stage"]: s["wall_sec"]
                       for s in out["metrics"]["stages"]
                       if s.get("wall_sec") is not None}
        # drop every ref to this run's materialized datasets before the
        # next run starts: keeping them pins object-store memory and
        # measured +40-90% wall on later same-session runs
        del out
    headline_sec = sorted(walls)[len(walls) // 2]

    timings: dict[str, float] = {"reconcile_flagship": headline_sec,
                                 "reconcile_warmup": warmup_sec,
                                 "reconcile_runs": walls,
                                 "stage_walls_last_run": stage_walls,
                                 "corpus_gen": gen_sec}
    if os.environ.get("GRAFT_SKIP_OPS"):
        # scaling children time only the flagship; the operator-query
        # sweep would just add box noise between the two levels
        return _result(headline_sec, timings, n_pages, n_assign, pairs,
                       probe_first, probe_start)
    # warm the page cache for the operator-query tables (flagship done)
    for t in ("documents", "lineitem", "orders", "events", "embeddings"):
        rd.read_parquet(f"{SF_DIR}/{t}.parquet").count()
    for name in BENCH_QUERIES:
        t0 = time.time()
        res = QUERIES[name](SF_DIR)
        # consume without driver materialization of big payloads
        try:
            res.count()
        except AttributeError:
            len(res)
        timings[name] = round(time.time() - t0, 2)

    return _result(headline_sec, timings, n_pages, n_assign, pairs,
                   probe_first, probe_start)


def _phase_probe_mbs() -> float:
    """First-touch fault speed over a fresh 64 MiB anon buffer — the
    host-phase signal (see BASELINE.md "Box-state drift — root cause").
    > ~800 MB/s = healthy; < ~100 = deep degradation.  Every bench
    JSON carries it so recorded walls are interpretable."""
    import numpy as np

    sz = 64 * 1024 * 1024
    t0 = time.time()
    np.ones(sz // 8, dtype=np.float64)
    return round(sz / (time.time() - t0) / 1e6, 1)


def _result(headline_sec, timings, n_pages, n_assign, pairs,
            probe_first=None, probe_start=None) -> dict:
    return {
        "metric": "reconcile_pipeline_sec",
        "value": headline_sec,
        "unit": "sec",
        "queries": timings,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "corpus_pages": n_pages,
        "assignments": n_assign,
        "candidate_pairs": pairs,
        "pages_per_sec": round(n_pages / headline_sec, 1),
        "pairs_per_sec": round(pairs / headline_sec, 1) if pairs else 0.0,
        "phase_first_touch_mbs": _phase_probe_mbs(),
        "phase_first_touch_mbs_at_invoke": probe_first,
        "phase_first_touch_mbs_at_start": probe_start,
    }


def run_scaling():
    # a child whose start-of-measurement probe is below this is a
    # degraded-phase measurement (walls 3-10x healthy); re-run it a
    # bounded number of times rather than poisoning the efficiency
    min_mbs = float(os.environ.get("GRAFT_PHASE_MIN_MBS", "200"))
    retries = int(os.environ.get("GRAFT_SCALE_RETRIES", "2"))

    def one(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   GRAFT_SKIP_OPS="1")
        for attempt in range(retries + 1):
            out = subprocess.run([sys.executable, os.path.abspath(__file__)],
                                 env=env, capture_output=True, text=True,
                                 check=True).stdout
            r = json.loads(out.strip().splitlines()[-1])
            # phase must be healthy at BOTH ends of the measurement —
            # a mid-run collapse shows up in the end probe
            probe = min(r.get("phase_first_touch_mbs_at_start") or 0.0,
                        r.get("phase_first_touch_mbs") or 0.0)
            if probe >= min_mbs or attempt == retries:
                return r
        return r

    lo = int(os.environ.get("GRAFT_SCALE_LO", "4"))
    hi = int(os.environ.get("GRAFT_SCALE_HI", "16"))
    # INTERLEAVED passes (lo,hi,lo,hi) with per-level best-of: this
    # sandbox's absolute walls drift 2-3x over minutes of sustained
    # load (kernel memory-management churn, see BASELINE.md), so a
    # single lo-then-hi sequence penalizes whichever level runs in the
    # slower phase.  Per-level best across interleaved passes estimates
    # each level's capability under comparable machine state; every
    # child itself reports the median of 3 warm runs, and all raw
    # values are printed for scrutiny.
    passes = int(os.environ.get("GRAFT_SCALE_PASSES", "2"))
    walls_lo, walls_hi = [], []
    probes = []
    pairs_lo = pairs_hi = 0
    pages = 0
    for _ in range(passes):
        r_lo, r_hi = one(lo), one(hi)
        walls_lo.append(r_lo["value"])
        walls_hi.append(r_hi["value"])
        probes.append([r_lo.get("phase_first_touch_mbs_at_start"),
                       r_hi.get("phase_first_touch_mbs_at_start")])
        pairs_lo = max(pairs_lo, r_lo["pairs_per_sec"])
        pairs_hi = max(pairs_hi, r_hi["pairs_per_sec"])
        pages = r_hi["corpus_pages"]
    sec_lo, sec_hi = min(walls_lo), min(walls_hi)
    thr_lo = pages / sec_lo
    thr_hi = pages / sec_hi
    eff = (thr_hi / thr_lo) / (hi / lo)
    print(json.dumps({
        "metric": "scaling_efficiency",
        "cpus_lo": lo, "cpus_hi": hi,
        "sec_lo": sec_lo, "sec_hi": sec_hi,
        "walls_lo": walls_lo, "walls_hi": walls_hi,
        "pages": pages,
        "pages_per_sec_lo": round(thr_lo, 1),
        "pages_per_sec_hi": round(thr_hi, 1),
        "pairs_per_sec_lo": pairs_lo,
        "pairs_per_sec_hi": pairs_hi,
        "phase_probes_lo_hi": probes,
        "scaling_efficiency": round(eff, 3),
    }))


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        run_scaling()
    else:
        result = run_bench()
        print(json.dumps(result))
        import ray

        ray.shutdown()
