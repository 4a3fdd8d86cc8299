"""Incremental (delta) reconciliation: link NEW pages against an
existing run's state without re-scoring the whole corpus.

A crawl delta arrives; only the pairs that touch it are scored
(reference analogue: the re-entrant DB workflow, `workflows.py:56-100`
+ `repository.py:516-525`, which re-processes only new input files
against the standing database).  The link runs the flagship's task
graph (:mod:`.reconcile`) over block refs:

1. the delta's features, from the flagship's grouped feature tasks
   (extract + signature once per run of at most ``RUN_BYTES`` of html,
   however many blocks the delta arrives in);
2. band rows: the delta's explode tasks, then one per BASE features
   block, which gets the delta's sorted band keys as a top-level
   argument and keeps only its rows in those touched bands;
3. the flagship's hot-key merge and exchange, then one task per pair
   block that drops the old-old pairs (the base run found them: band
   keys are deterministic per row);
4. the flagship's score tasks against one feature lookup over base +
   delta, whose size also catches a url listed twice across them;
5. the flagship's connected components
   (:func:`..stages.cluster.components`: one union-find task, or
   contraction rounds over block refs above ``driver_finish_edges``)
   over the match edges plus one membership edge ``(url, base cluster
   id)`` per old endpoint, found by one task per base assignments
   block: a component's min url is what a full run assigns, since
   cluster ids ARE min urls and an old url is never below its cluster
   id;
6. one star lookup relabels the base assignments by cluster id and
   labels the delta's urls, one task per block.

Over materialized inputs a link launches no Ray Data execution, and no
task blocks on a ``ray.get``: every lookup is a top-level task
argument.  The delta's features and the assignments are wrapped as
Datasets from the block metadata their tasks return
(``stages.blocks_dataset``), with no ``rd.from_arrow_refs``.  Base data
is read by one explode task per features block (its band keys are
re-exploded on every link) and two tasks per assignments block; the
feature and star lookups shard by the features' bytes as in a full
run.  Equivalence with a from-scratch run over
base + delta is pinned by tests/test_pipeline.py.
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data.dataset import MaterializedDataset

from ..config import ReconcileConfig
from ..stages import blocks_dataset, dataset_blocks, remote_fn
from ..stages.cluster import components, label_blocks
from ..stages.lookup import (
    broadcast_lookup, concat_pairs, key_hash, probe, sharded_lookup,
)
from ..stages.pairs import explode_blocks, exploded_pairs
from ..stages.scoring import build_feature_lookup, score_blocks
from ..state.manifest import CheckpointManager
from .reconcile import (NARROW_THRESHOLD, check_unique_urls, corpus_blocks,
                        feature_blocks)


def _new_pairs(block, new: np.ndarray) -> pa.Table:
    """The pairs of one pair block with at least one endpoint among the
    sorted url hashes ``new``."""
    pairs = concat_pairs([block])
    return pairs.filter(pa.array(probe(new, pairs.column("uh_a"))[1]
                                 | probe(new, pairs.column("uh_b"))[1]))


def _endpoint_keys(*edges: pa.Table) -> np.ndarray:
    """The sorted distinct url hashes of the edge blocks' endpoints."""
    keys = [key_hash(b.column(c)) for b in edges if b.num_rows
            for c in ("u", "v")]
    return np.unique(np.concatenate(keys)) if keys \
        else np.empty(0, np.uint64)


def _members(block: pa.Table, ends: np.ndarray) -> tuple[pa.Table, int]:
    """Membership edges ``(u = url, v = cluster_id)`` of the rows of one
    base assignments block whose url hash is in ``ends``, roots (url ==
    cluster id) left out, and their count."""
    if not block.num_rows:
        block = pa.table({"url": pa.array([], pa.string()),
                          "cluster_id": pa.array([], pa.string())})
    urls = block.column("url").combine_chunks().cast(pa.string())
    cids = block.column("cluster_id").combine_chunks().cast(pa.string())
    root = pc.equal(urls, cids).to_numpy(zero_copy_only=False)
    mask = pa.array(probe(ends, urls)[1] & ~root)
    out = pa.table({"u": urls.filter(mask), "v": cids.filter(mask)})
    return out, out.num_rows


def _materialized(ds) -> MaterializedDataset:
    return ds if isinstance(ds, MaterializedDataset) else ds.materialize()


def run_incremental(base_features, base_assignments, delta_corpus_ds,
                    cfg: ReconcileConfig = ReconcileConfig()) -> dict:
    """Link a corpus delta against an existing run's state.

    ``base_features`` / ``base_assignments``: the ``features`` and
    ``assignments`` datasets of a prior :func:`run_reconcile` (live, or
    read back from its per-stage Parquet checkpoints).  Returns
    ``{"assignments": Dataset, "delta_features": Dataset, "metrics": dict}``
    where assignments covers base + delta urls with full-run-equivalent
    cluster ids.  Raises ``ValueError`` naming a delta url that is
    already in the base or listed twice in the delta.
    """
    t0 = time.time()
    base_features = _materialized(base_features)
    base_refs, base_metas = dataset_blocks(base_features)
    asg_refs, _ = dataset_blocks(_materialized(base_assignments))
    delta = feature_blocks(*corpus_blocks(delta_corpus_ds), cfg.blocking)
    delta_refs = [o[0] for o in delta]
    delta_feat = blocks_dataset(delta_refs, ray.get([o[1] for o in delta]))
    n_delta = delta_feat.count()
    metrics: dict = {"delta_rows": n_delta}
    # launched first, so the build overlaps the pair stage; its shard
    # count also serves the star lookup, as in a full run
    lookup = build_feature_lookup(base_features, delta_feat)
    metrics["lookup_shards"] = len(lookup)

    # --- touched-band candidate generation -------------------------------
    # sizing is delta-driven: touched rows ~= delta bands plus the base
    # rows sharing those keys (a small multiple of the delta for
    # non-pathological corpora — hot boilerplate keys are capped by the
    # pair stage's salting/clique guard regardless)
    narrow = n_delta * cfg.blocking.num_bands * 4 >= NARROW_THRESHOLD
    bands = explode_blocks(delta_refs, cfg.blocking, not narrow)
    # band_hash alone identifies a band group: the band index is mixed in
    touched, _, n_touched = broadcast_lookup([r for r, _ in bands],
                                             "band_hash")
    bands += explode_blocks(base_refs, cfg.blocking, not narrow, touched)
    new = broadcast_lookup(delta_refs, "url")[0]
    new_pairs = [remote_fn(_new_pairs).remote(p, new)
                 for p, _ in exploded_pairs(bands, cfg.blocking, narrow)]
    metrics["touched_bands"] = ray.get(n_touched)

    # --- score pairs with >= 1 new endpoint --------------------------------
    edges = score_blocks(new_pairs, lookup, cfg.scoring,
                         cfg.scoring.est_prefilter, edges=True)
    edge_refs = [e for e, _ in edges]
    metrics["delta_edges"] = sum(m.num_rows
                                 for m in ray.get([m for _, m in edges]))
    check_unique_urls(sum(m.num_rows for m in base_metas) + n_delta,
                      [n for _, _, n in lookup], base_refs + delta_refs,
                      "the base and the delta")

    # --- components over the delta edges + old endpoints' memberships ------
    ends = remote_fn(_endpoint_keys).remote(*edge_refs)
    members = [remote_fn(_members, num_returns=2).remote(b, ends)
               for b in asg_refs]
    n_members = sum(ray.get([n for _, n in members]))
    star_refs, cc = components(
        edge_refs + [m for m, _ in members],
        metrics["delta_edges"] + n_members, cfg.cluster,
        CheckpointManager(None), "incremental")
    metrics["cc_rounds"] = cc["rounds"]

    # --- relabel old clusters + label new urls -----------------------------
    # star nodes are new urls, old endpoints and their cluster ids; a
    # base cluster id is never a new url (urls are unique across base
    # and delta), so one star lookup relabels both
    star = sharded_lookup(star_refs, "u", ["v"], len(lookup))
    labelled = (label_blocks(asg_refs, star, "cluster_id")
                + label_blocks(delta_refs, star))
    # the star's rows whose node is a new url or an old cluster id (an
    # old endpoint below its root is a star row too, one per membership)
    metrics["merged_labels"] = sum(ray.get([n for _, _, n in star])) \
        - n_members
    assignments = blocks_dataset([t for t, _ in labelled],
                                 ray.get([m for _, m in labelled]))
    metrics["total_wall_sec"] = round(time.time() - t0, 3)
    return {"assignments": assignments, "delta_features": delta_feat,
            "metrics": metrics}
