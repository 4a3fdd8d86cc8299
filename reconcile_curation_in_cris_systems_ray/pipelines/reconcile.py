"""The flagship pipeline: web-page reconciliation (entity resolution).

Composition (each stage checkpointable via
:class:`..state.manifest.CheckpointManager`):

    corpus (url, warc_ts, html, text, lang)
      -> extract        task map_batches, html -> extracted_text
      -> features       task map_batches: normalize + MinHash sigs,
                        coalesced to one block per exchange bucket
      -> bands          explode to (band_hash, uh[, band_id, bands])
      -> pairs          salted bucketed exchange + cross-band dedup
      -> scored         exact Jaccard by index into the broadcast features
      -> edges          is_match filter
      -> components     large/small-star fixpoint rounds
      -> assignments    (url, cluster_id = min url of component)

Reference lifecycle analogue: §3.3 of SURVEY.md (prescan -> linkage ->
discovery -> combine), re-expressed Ray-Data-first.
"""

from __future__ import annotations

import importlib.metadata
import time
from functools import partial

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..config import ReconcileConfig
from ..state.manifest import CheckpointManager, fingerprint
from ..stages import worker_cached
from ..stages.blocking import SignatureStage, emit_band_keys
from ..stages.cluster import assign_clusters, connected_components
from ..stages.extract import HtmlTextExtractor
from ..stages.pairs import generate_candidate_pairs
from ..stages.scoring import build_feature_lookup, hydrate_score_pairs
from ..stages.shuffle import effective_buckets

# band-row width crossover: below this, band rows carry the full band
# vector (min-band emission, no pair-key exchange); above it, narrow
# 16B rows + a pair-key dedup exchange (measured 2.5-3x at 2.1M rows)
NARROW_THRESHOLD = 500_000


def _extract_task(batch: pa.Table) -> pa.Table:
    return worker_cached("extractor", HtmlTextExtractor)(batch)


def _signature_task(batch: pa.Table, blocking=None) -> pa.Table:
    return worker_cached(("signature", blocking),
                         lambda: SignatureStage(blocking))(batch)


def _library_versions() -> dict[str, str]:
    """Versions of the libraries that shape stage outputs: url hashes
    come from pandas ``hash_array``; shingle hashes from DuckDB's
    ``hash()``; the Arrow kernels from
    pyarrow; Ray writes and reads the checkpoints.  Read per run, so a
    resume after an upgrade recomputes every stage instead of reusing
    stale ones.  DuckDB runs only in the workers: its version comes from
    the installed package's metadata, as importing it here would add
    ~24 MB to the driver."""
    return {"ray": ray.__version__, "pyarrow": pa.__version__,
            "pandas": pd.__version__,
            "duckdb": importlib.metadata.version("duckdb")}


def check_unique_urls(n_rows: int, n_urls_ref, ds, where: str) -> None:
    """Raise ``ValueError`` naming a url that ``ds`` lists twice, when the
    url lookup built over its ``n_rows`` rows (size ref ``n_urls_ref``)
    holds fewer urls.  The lookup keeps a repeated url's first row, so
    the url's other pages would be scored as that one and the url
    assigned twice.  The size ref resolves once the build has run, and
    the scan for the url's name runs only on failure."""
    if ray.get(n_urls_ref) == n_rows:
        return
    urls = pa.chunked_array([b.column("url")
                             for b in ray.get(ds.to_arrow_refs())
                             if b.num_rows])
    counts = pc.value_counts(urls)
    repeated = counts.filter(pc.greater(counts.field("counts"), 1))
    raise ValueError(f"url listed twice in {where}: "
                     f"{repeated[0]['values'].as_py()!r}")


def run_reconcile(corpus_ds, cfg: ReconcileConfig = ReconcileConfig(),
                  checkpoint_root: str | None = None, resume: bool = True,
                  input_fingerprint: str | None = None) -> dict:
    """Run the full reconcile pipeline; returns stage datasets + metrics.

    A checkpointed run (``checkpoint_root`` set) must name its input
    with ``input_fingerprint``: stages resume by fingerprint, so a
    shared default would resume one input's stages for another.

    Raises ``ValueError`` naming a url that the corpus lists twice.  The
    check compares the broadcast feature lookup's url count with the
    feature row count, so it does not run above
    ``lookup.BROADCAST_ROWS`` feature rows, where no lookup is built.
    """
    if checkpoint_root is not None and input_fingerprint is None:
        raise ValueError(
            "run_reconcile: checkpoint_root needs an input_fingerprint "
            "that identifies the input, or a resume could reuse the "
            "stages of a different input")
    t_start = time.time()
    ckpt = CheckpointManager(checkpoint_root, resume=resume)
    versions = _library_versions()
    cfg_fp = fingerprint(cfg, versions)

    base_cols = [c for c in ("url", "warc_ts", "html", "lang")
                 if c in corpus_ds.schema().names]
    corpus = corpus_ds.select_columns(base_cols)

    fp_ex = fingerprint(input_fingerprint, cfg_fp, "extract")
    # without a checkpoint root, extraction streams straight into the
    # signature stage with no barrier and the two task stages FUSE
    # into a single map task per block
    extracted = ckpt.run_stage(
        "extracted", fp_ex,
        lambda: corpus.map_batches(_extract_task, batch_format="pyarrow"),
        materialize=checkpoint_root is not None)

    fp_ft = fingerprint(fp_ex, "features")
    # coalesce the features once, to the exchange's bucket count: band
    # emission, the hot-key scan, the lookup build and the assignment
    # map then each run one task per bucket instead of one per (often
    # tiny) input block, and the pair stage needs no repartition of its
    # own.  The repartition fuses into the signature execution.
    features = ckpt.run_stage("features", fp_ft, lambda: extracted.map_batches(
        partial(_signature_task, blocking=cfg.blocking),
        batch_format="pyarrow").repartition(
            effective_buckets(cfg.blocking.num_buckets)))

    fp_pr = fingerprint(fp_ft, "pairs")
    # launch the broadcast hydration lookup build (one remote task,
    # non-blocking) BEFORE the pair stage so it overlaps that stage's
    # execution; the scorer's merge blocks on the refs naturally
    prebuilt = build_feature_lookup(features)

    # scale-adaptive dedup mode (measured crossover, re-measured on a
    # clean box round 2): below ~500k band rows ship the per-row band
    # vector and dedup via min-band emission (no second exchange);
    # above it, narrow 16B rows + a pair-key dedup exchange win 2.5-3x
    # (2.1M band rows: 4.5-4.9s wide vs 1.8-1.9s narrow at 32 CPUs —
    # pair rows are ~10x fewer than band rows, so deduping pairs costs
    # less than shipping a 128B band vector through the big shuffle)
    n_features = features.count()
    band_rows_hint = n_features * cfg.blocking.num_bands
    narrow = band_rows_hint >= NARROW_THRESHOLD
    pairs = ckpt.run_stage("pairs", fp_pr, lambda: generate_candidate_pairs(
        emit_band_keys(features, cfg.blocking, include_bands=not narrow),
        cfg.blocking, cfg.scoring,
        n_rows_hint=band_rows_hint,
        dedup_pairs=narrow))

    fp_sc = fingerprint(fp_pr, "scored")
    # scored streams straight into edge extraction + clustering when not
    # checkpointing (consumed exactly once; CC materializes the edges).
    # Fused hydrate+score: one task stage resolves each pair to row
    # indices of the broadcast features and emits the scored schema
    # directly; no pair copies its shingle sets
    scored = ckpt.run_stage("scored", fp_sc, lambda: hydrate_score_pairs(
        pairs, features, cfg.scoring,
        est_prefilter=cfg.scoring.est_prefilter, prebuilt=prebuilt),
        materialize=checkpoint_root is not None)

    def to_edges(batch: pa.Table) -> pa.Table:
        m = batch.filter(batch.column("is_match"))
        return pa.table({"u": m.column("url_a"), "v": m.column("url_b")})

    edges = scored.map_batches(to_edges, batch_format="pyarrow")
    # the scored dataset streams (no barrier), so the CC edge
    # materialization below pulls the whole hydrate+score execution
    # through — time it explicitly so the segment is visible in stage
    # metrics (it was the untimed 40-55% of the wall in round-2 bench)
    t_cc = time.time()
    cc_metrics: dict = {}
    # with a checkpoint root, every CC contraction round + the final
    # union-find star become resumable stages of their own (round-4:
    # a crash mid-closure no longer restarts the whole fixpoint)
    star = connected_components(edges, cfg.cluster, metrics_out=cc_metrics,
                                ckpt=ckpt if checkpoint_root else None,
                                fp_base=fingerprint(fp_sc, "cc"))
    ckpt.lineage.append({
        "stage": "score+components", "fingerprint": fp_sc, "rows": None,
        "wall_sec": round(time.time() - t_cc, 3), "resumed": False,
        **cc_metrics,
    })
    # the scorer has read the lookup by now, so its size is ready
    if prebuilt is not None:
        check_unique_urls(n_features, prebuilt[2], features, "the corpus")

    fp_as = fingerprint(fp_sc, "assignments")
    assignments = ckpt.run_stage("assignments", fp_as, lambda: assign_clusters(
        features, star, num_buckets=cfg.cluster.num_buckets))

    ckpt.write_lineage(versions)
    metrics = {
        "stages": ckpt.lineage,
        "total_wall_sec": round(time.time() - t_start, 3),
        "candidate_pairs": next(
            (s["rows"] for s in ckpt.lineage if s["stage"] == "pairs"), None),
        # when scored streams, its row count equals the (materialized)
        # candidate-pair count — the scorer flags rather than drops rows
        "scored_pairs": next(
            (s["rows"] for s in ckpt.lineage
             if s["stage"] == "scored" and s["rows"] is not None),
            next((s["rows"] for s in ckpt.lineage
                  if s["stage"] == "pairs"), None)),
    }
    return {
        "extracted": extracted, "features": features, "pairs": pairs,
        "scored": scored, "assignments": assignments, "metrics": metrics,
    }
