"""Incremental (delta) reconciliation: link NEW pages against an
existing run's state without re-scoring the whole corpus.

The production shape of the flagship at 10^12 docs is not "re-run
everything nightly" — it is "a crawl delta arrives; score only pairs
that touch it".  This module composes the flagship's stages into that
plan (reference analogue: the incremental run stats / re-entrant DB
workflow, `workflows.py:56-100` + `repository.py:516-525`, which
re-processes only new input files against the standing database):

1. extract + signature the delta (the same grouped feature tasks as
   :func:`..pipelines.reconcile.run_reconcile`, so features are
   byte-identical with a full run);
2. emit the delta's band keys; the distinct delta band_hash set
   key set is small (O(delta x num_bands)) and is broadcast once;
3. re-emit the BASE corpus's band keys (a narrow streaming recompute
   over the checkpointed features — cheaper at scale than persisting
   the exploded band table) and keep only rows in TOUCHED bands;
4. run the normal salted pair generator over touched bands only, then
   drop old-old pairs (already discovered by the base run: band keys
   are deterministic per row, so any old-old pair sharing a band now
   also shared it then);
5. hydrate + score surviving pairs (>= 1 new endpoint each);
6. contract old endpoints to their existing cluster_id and run
   connected components over the contracted delta graph — old
   clusters act as single nodes, so cluster merges caused by a new
   bridge page are found without touching old edges;
7. relabel: merged old clusters get the new component min (cluster
   ids ARE min-urls, so the merged label equals what a full run would
   assign), new urls get their component label, untouched base
   assignments stream through unchanged.

Equivalence with a from-scratch run over base+delta is pinned by
tests/test_pipeline.py (same clustering, pairwise-identical).

Scale notes: the only full passes over base data are streaming
map_batches (band re-emission, assignment relabel) — no base-sized
shuffle, no driver materialization of base data.  Every membership set
and label map is a broadcast lookup (:mod:`..stages.lookup`) built in
one remote task from the owning dataset's blocks; the driver holds only
object refs.  Broadcast object sizes stay bounded by the DELTA (its
url hashes, touched band keys, touched-component labels); for deltas
too large to broadcast, swap the membership lookups for the Bloom
prefilter (stages/bloom.py) or a distributed semi-join — same
semantics.
"""

from __future__ import annotations

import time

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from ..config import ReconcileConfig
from ..stages.blocking import emit_band_keys
from ..stages.cluster import connected_components
from ..stages.lookup import broadcast_lookup, key_hash, probe
from ..stages.pairs import generate_candidate_pairs
from ..stages.scoring import hydrate_score_pairs, match_edges
from .reconcile import (NARROW_THRESHOLD, check_unique_urls, corpus_blocks,
                        feature_blocks)


def _delta_features(delta_corpus_ds, cfg: ReconcileConfig):
    outs = feature_blocks(*corpus_blocks(delta_corpus_ds), cfg.blocking)
    return rd.from_arrow_refs([o[0] for o in outs]).materialize()


def run_incremental(base_features, base_assignments, delta_corpus_ds,
                    cfg: ReconcileConfig = ReconcileConfig()) -> dict:
    """Link a corpus delta against an existing run's state.

    ``base_features`` / ``base_assignments``: the ``features`` and
    ``assignments`` datasets of a prior :func:`run_reconcile` (live, or
    read back from its per-stage Parquet checkpoints).  Returns
    ``{"assignments": Dataset, "delta_features": Dataset, "metrics": dict}``
    where assignments covers base + delta urls with full-run-equivalent
    cluster ids.  Raises ``ValueError`` naming a delta url that is
    already in ``base_assignments`` or listed twice in the delta.
    """
    t0 = time.time()
    metrics: dict = {}

    delta_feat = _delta_features(delta_corpus_ds, cfg)
    n_delta = delta_feat.count()
    metrics["delta_rows"] = n_delta

    # --- touched-band candidate generation -------------------------------
    # sizing is delta-driven: touched rows ~= delta bands plus the base
    # rows sharing those keys (a small multiple of the delta for
    # non-pathological corpora — hot boilerplate keys are capped by the
    # pair stage's salting/clique guard regardless)
    touched_hint = n_delta * cfg.blocking.num_bands * 4
    narrow = touched_hint >= NARROW_THRESHOLD
    delta_bands = emit_band_keys(delta_feat, cfg.blocking,
                                 include_bands=not narrow).materialize()
    # the distinct delta band keys (band_hash alone identifies a band
    # group: the band index is mixed in)
    keys_ref, _, n_keys_ref = broadcast_lookup(delta_bands.to_arrow_refs(),
                                               "band_hash")
    metrics["touched_bands"] = ray.get(n_keys_ref)

    def touched_only(batch: pa.Table) -> pa.Table:
        if not batch.num_rows:
            return batch
        _, found = probe(ray.get(keys_ref), batch.column("band_hash"))
        return batch.filter(pa.array(found))

    base_touched = emit_band_keys(base_features, cfg.blocking,
                                  include_bands=not narrow) \
        .map_batches(touched_only, batch_format="pyarrow")
    touched = base_touched.union(delta_bands)

    pairs = generate_candidate_pairs(touched, cfg.blocking, cfg.scoring,
                                     dedup_pairs=narrow)

    # --- keep only pairs with >= 1 NEW endpoint --------------------------
    new_ref, _, n_new_ref = broadcast_lookup(delta_feat.to_arrow_refs(),
                                             "url")

    def has_new(batch: pa.Table) -> pa.Table:
        s = ray.get(new_ref)
        return batch.filter(pa.array(probe(s, batch.column("uh_a"))[1]
                                     | probe(s, batch.column("uh_b"))[1]))

    pairs_new = pairs.map_batches(has_new, batch_format="pyarrow")

    # --- hydrate + score ---------------------------------------------------
    features_all = base_features.union(delta_feat)
    scored = hydrate_score_pairs(pairs_new, features_all, cfg.scoring,
                                 est_prefilter=cfg.scoring.est_prefilter)

    edges = scored.map_batches(match_edges, batch_format="pyarrow") \
        .materialize()
    metrics["delta_edges"] = edges.count()
    # new_ref's build ran alongside the edges' execution
    check_unique_urls(n_delta, [n_new_ref], delta_feat, "the delta")

    # --- contract old endpoints to their cluster ids ----------------------
    def _relabel(h_ref, t_ref, urls: np.ndarray) -> np.ndarray:
        """urls -> their label in the lookup where present, else
        identity."""
        i, found = probe(ray.get(h_ref), urls)
        out = urls.copy()
        out[found] = ray.get(t_ref).column(0).take(
            pa.array(i[found])).to_numpy(zero_copy_only=False)
        return out

    # old endpoints of delta edges (endpoint not in the delta url set),
    # distinct — stays a Dataset end-to-end
    def old_eps(df: pd.DataFrame) -> pd.DataFrame:
        urls = pd.concat([df["u"], df["v"]], ignore_index=True) \
            .to_numpy(dtype=object)
        old = urls[~probe(ray.get(new_ref), urls)[1]]
        return pd.DataFrame({"url": pd.unique(old)})

    old_nodes = edges.map_batches(old_eps, batch_format="pandas")
    inv_ref = broadcast_lookup(old_nodes.materialize().to_arrow_refs(),
                               "url")[0]

    def involved_only(df: pd.DataFrame) -> pd.DataFrame:
        uh = key_hash(df["url"].to_numpy(dtype=object))
        # this pass sees every base url, so it also flags delta urls
        # already in the base (each would get two assignment rows)
        again = probe(ray.get(new_ref), uh)[1]
        keep = probe(ray.get(inv_ref), uh)[1] | again
        return df[keep].assign(again=again[keep])

    def _first_again(*blocks):
        for b in blocks:
            if b.num_rows:
                hit = b.filter(b.column("again"))
                if hit.num_rows:
                    return hit.column("url")[0].as_py()
        return None

    touched_refs = base_assignments.map_batches(
        involved_only, batch_format="pandas").materialize().to_arrow_refs()
    # one bare task over the small touched set, not a Ray Data execution
    again_url = ray.get(ray.remote(_first_again).remote(*touched_refs))
    if again_url is not None:
        raise ValueError(f"delta url already in the base: {again_url!r}")
    old_h, old_t, _ = broadcast_lookup(touched_refs, "url", ["cluster_id"])

    def contract(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "u": _relabel(old_h, old_t, df["u"].to_numpy(dtype=object)),
            "v": _relabel(old_h, old_t, df["v"].to_numpy(dtype=object))})

    contracted_edges = edges.map_batches(contract, batch_format="pandas")
    star = connected_components(contracted_edges, cfg.cluster) \
        .materialize()
    metrics["merged_labels"] = star.count()

    # --- relabel old clusters + label new urls -----------------------------
    # star nodes are exactly {old cluster ids, new urls}; base cluster
    # ids never equal new urls (urls are unique across base and delta),
    # so one label lookup over every star node serves both
    lab_h, lab_t, _ = broadcast_lookup(star.to_arrow_refs(), "u", ["v"])

    def relabel(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["cluster_id"] = _relabel(
            lab_h, lab_t, df["cluster_id"].to_numpy(dtype=object))
        return out

    old_updated = base_assignments.map_batches(relabel,
                                               batch_format="pandas")

    def label_new(df: pd.DataFrame) -> pd.DataFrame:
        urls = df["url"].to_numpy(dtype=object)
        return pd.DataFrame({
            "url": urls,
            "cluster_id": _relabel(lab_h, lab_t, urls),
        })

    new_assign = delta_feat.select_columns(["url"]).map_batches(
        label_new, batch_format="pandas")

    metrics["total_wall_sec"] = round(time.time() - t0, 3)
    return {"assignments": old_updated.union(new_assign),
            "delta_features": delta_feat, "metrics": metrics}
