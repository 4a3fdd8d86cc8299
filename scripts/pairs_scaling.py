"""Pair-stage scaling microbench.

Measures ONLY the candidate-pair stage (band explode + salted
groupby-pairing + pair-key dedup) at two CPU levels in fresh
processes, on a SHARED pre-generated feature table — the fastest way
to iterate on the pair exchange (the stage where the 4->16-CPU
efficiency bar was being lost) without paying flagship extract /
score / CC walls each probe.

Usage:
    python scripts/pairs_scaling.py            # parent: gen + lo/hi/lo/hi
    GRAFT_PAIRS_FAMILIES=60000 python scripts/pairs_scaling.py

Prints one JSON line: per-level pair-stage walls (median of
GRAFT_PAIRS_RUNS=3 warm runs per child), throughputs and efficiency,
plus phase probes around each child so results stay interpretable on
this phase-drifting box.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

FEAT_DIR = os.environ.get("GRAFT_PAIRS_FEAT_DIR", "/tmp/pairs_bench_feat")


def _probe() -> float:
    import numpy as np

    sz = 64 * 1024 * 1024
    t0 = time.time()
    np.ones(sz // 8, dtype=np.float64)
    return round(sz / (time.time() - t0) / 1e6, 1)


def child(ncpu: int) -> None:
    import logging

    import ray

    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             logging_level="ERROR")
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.config import (
        ReconcileConfig, tune_data_context,
    )
    from reconcile_curation_in_cris_systems_ray.pipelines.reconcile import (
        NARROW_THRESHOLD,
    )
    from reconcile_curation_in_cris_systems_ray.stages.blocking import (
        emit_band_keys,
    )
    from reconcile_curation_in_cris_systems_ray.stages.pairs import (
        generate_candidate_pairs,
    )

    tune_data_context()
    cfg = ReconcileConfig()
    features = rd.read_parquet(FEAT_DIR).materialize()
    n_feat = features.count()
    band_rows = n_feat * cfg.blocking.num_bands
    narrow = band_rows >= NARROW_THRESHOLD
    walls = []
    pairs = 0
    runs = int(os.environ.get("GRAFT_PAIRS_RUNS", "3"))
    for _ in range(1 + runs):  # 1 warmup
        t0 = time.time()
        out = generate_candidate_pairs(
            emit_band_keys(features, cfg.blocking,
                           include_bands=not narrow),
            cfg.blocking, cfg.scoring, dedup_pairs=narrow)
        pairs = out.count()
        walls.append(round(time.time() - t0, 2))
        del out
    walls = walls[1:]
    print(json.dumps({"cpus": ncpu, "walls": walls,
                      "median": sorted(walls)[len(walls) // 2],
                      "pairs": pairs, "features": n_feat,
                      "narrow": narrow, "probe": _probe()}))
    ray.shutdown()


def parent() -> None:
    import shutil

    n_fam = int(os.environ.get("GRAFT_PAIRS_FAMILIES", "40000"))
    if not os.path.isdir(FEAT_DIR) or os.environ.get("GRAFT_PAIRS_REGEN"):
        shutil.rmtree(FEAT_DIR, ignore_errors=True)
        import logging

        import ray

        ray.init(address="local", num_cpus=16, include_dashboard=False,
                 logging_level="ERROR")
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        from reconcile_curation_in_cris_systems_ray.config import (
            ReconcileConfig, tune_data_context,
        )
        from reconcile_curation_in_cris_systems_ray.pipelines.reconcile import (
            _extract_task, _signature_task,
        )
        from reconcile_curation_in_cris_systems_ray.sources.corpus import (
            CorpusConfig, corpus_dataset,
        )
        from functools import partial

        tune_data_context()
        cfg = ReconcileConfig()
        corpus = corpus_dataset(CorpusConfig(n_families=n_fam)) \
            .select_columns(["url", "warc_ts", "html", "lang"])
        feats = corpus.map_batches(_extract_task, batch_format="pyarrow") \
            .map_batches(partial(_signature_task, blocking=cfg.blocking),
                         batch_format="pyarrow")
        feats.write_parquet(FEAT_DIR)
        ray.shutdown()

    lo = int(os.environ.get("GRAFT_SCALE_LO", "4"))
    hi = int(os.environ.get("GRAFT_SCALE_HI", "16"))
    passes = int(os.environ.get("GRAFT_SCALE_PASSES", "2"))
    res = {lo: [], hi: []}
    for _ in range(passes):
        for n in (lo, hi):
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--child",
                 str(n)],
                capture_output=True, text=True, check=True).stdout
            res[n].append(json.loads(out.strip().splitlines()[-1]))
    best = {n: min(r["median"] for r in res[n]) for n in (lo, hi)}
    pairs = res[hi][0]["pairs"]
    eff = (best[lo] / best[hi]) / (hi / lo)
    print(json.dumps({
        "metric": "pairs_stage_scaling",
        "cpus_lo": lo, "cpus_hi": hi,
        "sec_lo": best[lo], "sec_hi": best[hi],
        "runs_lo": [r["median"] for r in res[lo]],
        "runs_hi": [r["median"] for r in res[hi]],
        "probes": {str(n): [r["probe"] for r in res[n]] for n in (lo, hi)},
        "pairs": pairs, "features": res[hi][0]["features"],
        "narrow": res[hi][0]["narrow"],
        "scaling_efficiency": round(eff, 3),
    }))


if __name__ == "__main__":
    if "--child" in sys.argv:
        child(int(sys.argv[sys.argv.index("--child") + 1]))
    else:
        parent()
