"""The flagship pipeline: web-page reconciliation (entity resolution).

Composition (each stage checkpointable via
:class:`..state.manifest.CheckpointManager`):

    corpus (url, warc_ts, html, text, lang)
      -> extract        html -> extracted_text
      -> features       normalize + MinHash sigs; extract and features
                        run in one task per group of contiguous corpus
                        blocks, at most one group per exchange bucket,
                        balanced by the blocks' row counts; a task cuts
                        its blocks into the fewest runs of at most
                        ``RUN_BYTES`` of html, balanced by bytes, and
                        extracts and signs once per run
      -> pairs          one explode task per features block returns its
                        band rows (band_hash, uh[, band_id, bands]) and
                        partial key counts; the driver merges the counts
                        into the hot keys; the exchange salts them in its
                        split (or single merge) tasks and pairs each
                        bucket; narrow band rows add a pair-key dedup
                        exchange
      -> edges          one score task per pair block (per shard pair
                        when the feature lookup has several shards):
                        exact Jaccard by index into the feature lookup,
                        match edges and their count out
      -> cc_star        ``cluster.components``: one union-find task over
                        the edge blocks; above ``driver_finish_edges``,
                        contraction rounds first (``cc_round_<i>``), each
                        two exchanges over the edge blocks
      -> assignments    a star-lookup build, then one task per features
                        block (per block and shard when sharded):
                        (url, cluster_id = min url of component)

Every stage runs as bare Ray tasks over block refs: an uncheckpointed
run over a materialized corpus launches no Ray Data execution, and a
lazy corpus (``read_parquet``) launches one, its read.  Lookups pass
into tasks as top-level arguments, so Ray orders the dependency and no
task blocks on a ``ray.get``.  Only the features, the pairs and the
assignments are wrapped as Datasets, from the block metadata their
tasks return (``stages.blocks_dataset``: no metadata task, no block
fetched, no execution left for a consumer).  With a checkpoint root
each stage boundary writes its blocks through the manager and continues
from the read-back blocks; without one the refs pass straight through.
The feature and star lookups are split into ``lookup.lookup_shards`` of
the features' bytes (one shard up to ``lookup.LOOKUP_BYTES``): the same
plan at every size, and the run's lineage and metrics report the shard
count.

Reference lifecycle analogue: §3.3 of SURVEY.md (prescan -> linkage ->
discovery -> combine), re-expressed Ray-Data-first.
"""

from __future__ import annotations

import importlib.metadata
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data.dataset import MaterializedDataset

from ..config import ReconcileConfig
from ..sources.corpus import CORPUS_SCHEMA
from ..state.manifest import CheckpointManager, fingerprint
from ..stages import (
    block_meta, blocks_dataset, dataset_blocks, remote_fn, worker_cached,
)
from ..stages.blocking import SignatureStage
from ..stages.cluster import assign_blocks, components
from ..stages.extract import HtmlTextExtractor
from ..stages.pairs import explode_blocks, exploded_pairs
from ..stages.scoring import build_feature_lookup, score_blocks
from ..stages.shuffle import effective_buckets, nonempty_dataset

# band-row width crossover: below this, band rows carry the full band
# vector (min-band emission, no pair-key exchange); above it, narrow
# 16B rows + a pair-key dedup exchange (measured 2.5-3x at 2.1M rows)
NARROW_THRESHOLD = 500_000
# a feature task extracts and signs its blocks in runs of at most about
# this many bytes of html (of extracted text, for checkpointed blocks):
# each extract + signature call pays a fixed ~4 ms (a 1-page block, 1-CPU
# host), so a run of many small blocks pays it once.  A cap, not one run
# per task: one 5.3 MB run gained nothing in Ray, and the peak RSS grew
# ~10 MB per doubling of the cap.  2 MiB had the lowest web_mix CPU of
# 1, 2 and 4 MiB in an in-Ray sweep (CHANGES.md)
RUN_BYTES = 2 << 20


def _extract_task(batch: pa.Table) -> pa.Table:
    return worker_cached("extractor", HtmlTextExtractor)(batch)


def _signature_task(batch: pa.Table, blocking=None) -> pa.Table:
    return worker_cached(("signature", blocking),
                         lambda: SignatureStage(blocking))(batch)


def _row_bytes(col) -> np.ndarray:
    """Bytes of each row of a binary or string column (0 for a null, and
    for every row of another type, e.g. a view type)."""
    if col.type not in (pa.binary(), pa.string(), pa.large_binary(),
                        pa.large_string()):
        return np.zeros(len(col), np.int64)
    return pc.fill_null(pc.binary_length(col), 0).to_numpy().astype(np.int64)


def _runs(blocks: list[pa.Table], col: str) -> list[pa.Table]:
    """The rows of the non-empty ``blocks``, in order, as the fewest
    contiguous runs of at most about ``RUN_BYTES`` of column ``col``,
    balanced by bytes: a row joins the run its middle byte falls in, as
    :func:`_contiguous_groups` places blocks by their rows.  Blocks that
    share a run are concatenated into one chunk (their columns promoted
    to one type: string, large_string and binary html mix); a block
    above the cap is sliced, zero-copy."""
    sizes = np.concatenate([_row_bytes(b.column(col)) for b in blocks])
    total = int(sizes.sum())
    if not total:
        run = np.zeros(sizes.size, np.int64)
    else:
        n = -(-total // RUN_BYTES)
        run = (2 * (np.cumsum(sizes) - sizes) + sizes) * n // (2 * total)
    bounds = [0, *(np.flatnonzero(np.diff(run)) + 1).tolist(), sizes.size]
    starts = np.cumsum([0] + [b.num_rows for b in blocks]).tolist()
    runs = []
    for lo, hi in zip(bounds, bounds[1:]):
        parts = [b.slice(max(lo - s, 0), min(hi, s + b.num_rows) - max(lo, s))
                 for b, s in zip(blocks, starts)
                 if s < hi and s + b.num_rows > lo]
        runs.append(parts[0] if len(parts) == 1 else pa.concat_tables(
            parts, promote_options="permissive").combine_chunks())
    return runs


def _feature_group(cols: list[str] | None, blocking, sign: bool,
                   *blocks: pa.Table) -> tuple[pa.Table, object, int, int]:
    """Task body: a group of blocks, run by run (:func:`_runs`): the
    ``cols`` of raw corpus blocks through the worker's
    ``HtmlTextExtractor`` (``cols`` None: the blocks are extracted
    already), then, with ``sign``, ``_signature_task``.  Returns the
    group's table, its block metadata (:func:`..stages.block_meta`), how
    many of its rows carry an ``extract_error`` (counted by the
    signature step, which drops the column) and how many pages the
    extractor's block path deferred to the per-page scanner.  Empty
    blocks, with or without columns, are skipped; a group with no rows
    yields the typed 0-row table of an empty page table."""
    todo = [b for b in blocks if b.num_rows]
    if not todo:
        cols = ["url", "html"]
        runs = [CORPUS_SCHEMA.empty_table().select(cols)]
    elif cols is None:
        runs = _runs(todo, "extracted_text")
    else:
        runs = _runs([b.select(cols) for b in todo], "html")
    outs, errors, deferred = [], 0, 0
    for b in runs:
        if cols is not None:
            b, n = worker_cached("extractor", HtmlTextExtractor).extract(b)
            deferred += n
        if sign:
            errors += b.num_rows - b.column("extract_error").null_count
            b = _signature_task(b, blocking)
        outs.append(b)
    out = pa.concat_tables(outs)
    return out, block_meta(out), errors, deferred


def _contiguous_groups(rows: list[int], n: int) -> list[list[int]]:
    """The indices of the non-empty blocks of row counts ``rows``, cut
    into at most ``n`` contiguous groups balanced by row count: a block
    joins the group its middle row falls in.  At least one group (empty
    when no block holds rows)."""
    total, seen = sum(rows), 0
    groups: dict[int, list[int]] = {}
    for i, r in enumerate(rows):
        if r:
            groups.setdefault((2 * seen + r) * n // (2 * total),
                              []).append(i)
        seen += r
    return list(groups.values()) or [[]]


def corpus_blocks(corpus_ds) -> tuple[list, list[int], list[str]]:
    """``(block refs, row counts, engine columns)`` of a corpus Dataset.

    A materialized corpus gives its blocks as they are, with no Ray Data
    execution: a ``select_columns`` on it would launch one, so the
    feature tasks select the columns.  Only one not yet executed
    (``rd.from_arrow``) is materialized, which runs no execution either.
    A lazy corpus (``read_parquet``) is read with its engine columns
    selected, that read being its one execution."""
    cols = [c for c in ("url", "warc_ts", "html", "lang")
            if c in corpus_ds.schema().names]
    if not isinstance(corpus_ds, MaterializedDataset):
        corpus_ds = corpus_ds.select_columns(cols)
    if not corpus_ds._plan.has_computed_output():
        corpus_ds = corpus_ds.materialize()
    refs, metas = dataset_blocks(corpus_ds)
    return refs, [m.num_rows for m in metas], cols


def feature_blocks(refs, rows: list[int], cols: list[str] | None,
                   blocking, sign: bool = True) -> list:
    """Launch the feature tasks over the blocks ``refs`` (row counts
    ``rows``, from block metadata: no block is fetched; ``cols`` and
    ``sign`` as in :func:`_feature_group`): one
    :func:`_feature_group` task per group of contiguous blocks, at most
    ``effective_buckets(blocking.num_buckets)`` groups balanced by row
    count, so the stages downstream run at most one task per exchange
    bucket.  Returns one ``(table ref, metadata ref, error-count ref,
    deferred-count ref)`` per group, not waited for."""
    task = remote_fn(_feature_group, num_returns=4)
    groups = _contiguous_groups(
        rows, effective_buckets(blocking.num_buckets))
    return [task.remote(cols, blocking, sign, *[refs[i] for i in g])
            for g in groups]


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


def check_unique_urls(n_rows: int, n_urls_refs, refs, where: str) -> None:
    """Raise ``ValueError`` naming a url that the features blocks
    ``refs`` list twice, when the url lookup built over their
    ``n_rows`` rows (the size refs ``n_urls_refs`` of its shards) holds
    fewer urls.  The lookup keeps a repeated url's first row (a url's
    copies hash to one shard), so the url's other pages would be scored
    as that one and the url assigned twice.  The size refs resolve once
    the builds have run, and the scan for the url's name runs only on
    failure."""
    if sum(ray.get(list(n_urls_refs))) == n_rows:
        return
    urls = pa.chunked_array([b.column("url") for b in ray.get(list(refs))
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

    Raises ``ValueError`` naming a url that the corpus lists twice: the
    check compares the feature lookup's url count with the feature row
    count.
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

    errors: list = []
    deferred: list = []

    def features_of(blocks, sign):
        outs = feature_blocks(*blocks, cfg.blocking, sign)
        if sign:
            errors[:] = [o[2] for o in outs]
        if blocks[2] is not None:  # these tasks extract
            deferred[:] = [o[3] for o in outs]
        return [o[0] for o in outs], [o[1] for o in outs]

    def n_deferred():
        """Pages the block extractor deferred: counted by this run's
        extracting tasks, or read from the extracted stage it resumed."""
        if deferred:
            return sum(ray.get(deferred))
        return next(s for s in ckpt.lineage
                    if s["stage"] == "extracted").get("extract_deferred")

    # the corpus is read only when a stage that needs it is built, so a
    # run that resumes its features reads none of it
    fp_ex = fingerprint(input_fingerprint, cfg_fp, "extract")
    if checkpoint_root is not None:
        # the checkpoint holds the extracted text; it is read back only
        # when the features stage is built
        def extract():
            refs, metas = features_of(corpus_blocks(corpus_ds), False)
            return blocks_dataset(refs, ray.get(metas))

        extracted = ckpt.run_stage(
            "extracted", fp_ex, extract,
            stats=lambda: {"extract_deferred": n_deferred()})

        def source():
            refs, metas = dataset_blocks(extracted.materialize())
            return refs, [m.num_rows for m in metas], None
    else:
        # extraction runs inside the feature tasks
        ckpt.streamed("extracted", fp_ex)

        def source():
            return corpus_blocks(corpus_ds)

    fp_ft = fingerprint(fp_ex, "features")
    feature_refs, feature_metas = ckpt.ref_stage(
        "features", fp_ft, lambda: features_of(source(), True),
        stats=lambda: {"extract_errors": sum(ray.get(errors)),
                       "extract_deferred": n_deferred()})
    features = blocks_dataset(feature_refs, ray.get(feature_metas))
    n_features = features.count()
    # scale-adaptive dedup mode (measured crossover, re-measured on a
    # clean box round 2): below ~500k band rows ship the per-row band
    # vector and dedup via min-band emission (no second exchange);
    # above it, narrow 16B rows + a pair-key dedup exchange win 2.5-3x
    # (2.1M band rows: 4.5-4.9s wide vs 1.8-1.9s narrow at 32 CPUs —
    # pair rows are ~10x fewer than band rows, so deduping pairs costs
    # less than shipping a 128B band vector through the big shuffle)
    band_rows_hint = n_features * cfg.blocking.num_bands
    narrow = band_rows_hint >= NARROW_THRESHOLD
    # the lookup build is launched first so it overlaps the pair stage.
    # Its shard count (from the features' bytes) also serves the star
    # lookup: the star has at most one row per feature row, and smaller
    # rows
    feature_lookup = build_feature_lookup(features)
    n_shards = len(feature_lookup)

    fp_pr = fingerprint(fp_ft, "pairs")
    pair_refs, pair_metas = ckpt.ref_stage(
        "pairs", fp_pr, lambda: _unzip(exploded_pairs(
            explode_blocks(feature_refs, cfg.blocking, not narrow),
            cfg.blocking, narrow)))

    fp_ed = fingerprint(fp_pr, "edges")
    t_cc = time.time()
    edge_refs, edge_metas = ckpt.ref_stage(
        "edges", fp_ed,
        lambda: _unzip(score_blocks(pair_refs, feature_lookup, cfg.scoring,
                                    cfg.scoring.est_prefilter, edges=True)))
    # the union-find finish below needs the edge count: the one wait
    # between the pair stage and the assignments
    n_edges = sum(m.num_rows for m in ray.get(edge_metas))
    fp_cc = fingerprint(fp_ed, "cc")
    star_refs, cc_metrics = components(edge_refs, n_edges, cfg.cluster,
                                       ckpt, fp_cc)
    # the scorer has read the lookup by now, so its sizes are ready
    check_unique_urls(n_features, [n for _, _, n in feature_lookup],
                      feature_refs, "the corpus")

    ckpt.lineage.append({
        "stage": "score+components", "fingerprint": fp_cc, "rows": None,
        "wall_sec": round(time.time() - t_cc, 3), "resumed": False,
        "lookup_shards": n_shards, **cc_metrics,
    })

    fp_as = fingerprint(fp_cc, "assignments")
    asg_refs, asg_metas = ckpt.ref_stage(
        "assignments", fp_as,
        lambda: _unzip(assign_blocks(feature_refs, star_refs, n_shards)))
    pairs = _pairs_dataset(pair_refs, pair_metas)
    n_pairs = pairs.count()
    assignments = blocks_dataset(asg_refs, ray.get(asg_metas))
    # the features stage's error and deferred counts: counted by this
    # run's tasks, or read from the checkpoints it resumed
    feat_stage = next(s for s in ckpt.lineage if s["stage"] == "features")
    if errors:
        feat_stage["extract_errors"] = sum(ray.get(errors))
        feat_stage["extract_deferred"] = n_deferred()

    ckpt.write_lineage(versions)
    metrics = {
        "stages": ckpt.lineage,
        "total_wall_sec": round(time.time() - t_start, 3),
        "candidate_pairs": n_pairs,
        # every candidate pair is scored; est_prefilter only skips the
        # exact Jaccard of some
        "scored_pairs": n_pairs,
        "lookup_shards": n_shards,
        "extract_errors": feat_stage.get("extract_errors"),
        "extract_deferred": feat_stage.get("extract_deferred"),
    }
    return {"features": features, "pairs": pairs,
            "assignments": assignments, "metrics": metrics}


def _unzip(outs) -> tuple[list, list]:
    """``[(table ref, metadata ref), ...]`` -> ``(table refs, metadata
    refs)``."""
    outs = list(outs)
    return [t for t, _ in outs], [m for _, m in outs]


def _pairs_dataset(pair_refs, pair_metas):
    """The pair blocks that hold rows, as a Dataset (one typed 0-row
    block when none does)."""
    return nonempty_dataset(zip(pair_refs, pair_metas),
                            pa.table({"uh_a": pa.array([], pa.uint64()),
                                      "uh_b": pa.array([], pa.uint64())}))
