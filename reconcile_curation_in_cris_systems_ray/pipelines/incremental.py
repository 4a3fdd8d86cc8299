"""Incremental (delta) reconciliation: link NEW pages against an
existing run's state without re-scoring the whole corpus.

The production shape of the flagship at 10^12 docs is not "re-run
everything nightly" — it is "a crawl delta arrives; score only pairs
that touch it".  This module composes the flagship's stages into that
plan (reference analogue: the incremental run stats / re-entrant DB
workflow, `workflows.py:56-100` + `repository.py:516-525`, which
re-processes only new input files against the standing database):

1. extract + signature the delta (same fused task stages as
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
shuffle, no driver materialization of base data.  Round-4: the driver
no longer holds ANY Python set/dict of urls, edges or labels — every
membership/label structure is a (sorted url-hash, aligned values)
broadcast lookup built in one remote task from the owning dataset's
blocks (the ``build_feature_lookup`` pattern); the driver holds only
object refs.  Broadcast object sizes stay bounded by the DELTA (its
url hashes, touched band keys, touched-component labels); for deltas
too large to broadcast, swap the membership lookups for the Bloom
prefilter (stages/bloom.py) or a distributed semi-join — same
semantics.
"""

from __future__ import annotations

import time
from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ..config import ReconcileConfig
from ..functions.similarity import stable_hash_strings
from ..stages.blocking import emit_band_keys
from ..stages.cluster import connected_components
from ..stages.pairs import generate_candidate_pairs
from ..stages.scoring import hydrate_score_pairs
from .reconcile import NARROW_THRESHOLD, _extract_task, _signature_task


def _delta_features(delta_corpus_ds, cfg: ReconcileConfig):
    base_cols = [c for c in ("url", "warc_ts", "html", "lang")
                 if c in delta_corpus_ds.schema().names]
    return (delta_corpus_ds.select_columns(base_cols)
            .map_batches(_extract_task, batch_format="pyarrow")
            .map_batches(partial(_signature_task, blocking=cfg.blocking,
                                 scoring=cfg.scoring),
                         batch_format="pyarrow"))


def _build_band_key_set(band_ds):
    """Sorted distinct band_hash array of the DELTA (band_hash alone
    identifies a band group — the band index is mixed in), built in ONE
    remote task from the delta's own materialized blocks.  Round-5: the
    last driver DataFrame landing in this module is gone; the driver
    holds only (object ref, count ref) — the same pattern as
    ``_build_str_lookup`` below."""
    def build(*blocks):
        good = [b.select(["band_hash"]) for b in blocks if b.num_rows]
        if not good:
            return np.empty(0, dtype=np.int64), 0
        arr = pa.concat_tables(good).column("band_hash") \
            .to_numpy(zero_copy_only=False)
        u = np.unique(arr)  # sorted — searchsorted-ready
        return np.ascontiguousarray(u, dtype=np.int64), int(len(u))

    return ray.remote(num_returns=2)(build).remote(
        *band_ds.to_arrow_refs())


def run_incremental(base_features, base_assignments, delta_corpus_ds,
                    cfg: ReconcileConfig = ReconcileConfig()) -> dict:
    """Link a corpus delta against an existing run's state.

    ``base_features`` / ``base_assignments``: the ``features`` and
    ``assignments`` datasets of a prior :func:`run_reconcile` (live, or
    read back from its per-stage Parquet checkpoints).  Returns
    ``{"assignments": Dataset, "delta_features": Dataset, "metrics": dict}``
    where assignments covers base + delta urls with full-run-equivalent
    cluster ids.  Raises ``ValueError`` naming a delta url that is
    already in ``base_assignments``.
    """
    t0 = time.time()
    metrics: dict = {}

    delta_feat = _delta_features(delta_corpus_ds, cfg).materialize()
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
    keys_ref, n_keys_ref = _build_band_key_set(delta_bands)
    metrics["touched_bands"] = ray.get(n_keys_ref)

    def touched_only(batch: pa.Table) -> pa.Table:
        # vectorized semi-join against the broadcast SORTED delta key
        # array (searchsorted membership); Arrow filter end-to-end —
        # no pandas round-trip
        keys = ray.get(keys_ref)
        if not len(keys) or not batch.num_rows:
            return batch.slice(0, 0)
        bh = batch.column("band_hash").to_numpy(zero_copy_only=False)
        i = np.clip(np.searchsorted(keys, bh), 0, len(keys) - 1)
        return batch.filter(pa.array(keys[i] == bh))

    base_touched = emit_band_keys(base_features, cfg.blocking,
                                  include_bands=not narrow) \
        .map_batches(touched_only, batch_format="pyarrow")
    touched = base_touched.union(delta_bands)

    pairs = generate_candidate_pairs(
        touched, cfg.blocking, cfg.scoring,
        n_rows_hint=touched_hint, dedup_pairs=narrow)

    # --- keep only pairs with >= 1 NEW endpoint --------------------------
    # delta url-hash membership as a SORTED ARRAY built in one remote
    # task from the delta's own blocks (round-4: no take_all of delta
    # urls to the driver; the driver holds only the object ref)
    def _build_uh(*blocks):
        good = [b.select(["url"]) for b in blocks
                if "url" in b.schema.names and b.num_rows]
        if not good:
            return np.empty(0, dtype=np.uint64)
        urls = pa.concat_tables(good).column("url") \
            .to_numpy(zero_copy_only=False).astype(object, copy=False)
        return np.sort(stable_hash_strings(urls))

    new_uh = ray.remote(_build_uh).remote(*delta_feat.to_arrow_refs())

    def _in_sorted(sorted_arr: np.ndarray, vals: np.ndarray) -> np.ndarray:
        if not len(sorted_arr):
            return np.zeros(len(vals), dtype=bool)
        i = np.clip(np.searchsorted(sorted_arr, vals), 0,
                    len(sorted_arr) - 1)
        return sorted_arr[i] == vals

    def has_new(df: pd.DataFrame) -> pd.DataFrame:
        s = ray.get(new_uh)
        a = df["uh_a"].to_numpy(np.uint64)
        b = df["uh_b"].to_numpy(np.uint64)
        return df[_in_sorted(s, a) | _in_sorted(s, b)]

    pairs_new = pairs.map_batches(has_new, batch_format="pandas")

    # --- hydrate + score ---------------------------------------------------
    features_all = base_features.union(delta_feat)
    scored = hydrate_score_pairs(pairs_new, features_all, cfg.scoring,
                                 est_prefilter=cfg.scoring.est_prefilter)

    def to_edges(batch: pa.Table) -> pa.Table:
        m = batch.filter(batch.column("is_match"))
        return pa.table({"u": m.column("url_a"), "v": m.column("url_b")})

    edges = scored.map_batches(to_edges, batch_format="pyarrow") \
        .materialize()
    metrics["delta_edges"] = edges.count()

    # --- contract old endpoints to their cluster ids ----------------------
    # Round-4: the former driver dicts (old_map / label_map) are now
    # (sorted url-hash, aligned value) broadcast lookups built in ONE
    # remote task each from the datasets' own blocks — the driver holds
    # only object refs; no driver structure proportional to touched
    # components remains.  All maps are url-hash keyed (64-bit; a
    # collision costs one wrong relabel within the touched set —
    # negligible, same bound the flagship's pair hydration documents).
    def _build_str_lookup(key_col, val_col, *blocks):
        good = [b.select([key_col, val_col]) for b in blocks
                if key_col in b.schema.names and b.num_rows]
        if not good:
            return (np.empty(0, dtype=np.uint64),
                    np.empty(0, dtype=object))
        tbl = pa.concat_tables(good).combine_chunks()
        kh = stable_hash_strings(
            tbl.column(key_col).to_numpy(zero_copy_only=False)
            .astype(object, copy=False))
        order = np.argsort(kh, kind="mergesort")
        vals = tbl.column(val_col).to_numpy(zero_copy_only=False) \
            .astype(object, copy=False)
        return np.ascontiguousarray(kh[order]), vals[order]

    _lookup_task = ray.remote(num_returns=2)(_build_str_lookup)

    def _apply_lookup(h_ref, v_ref, urls: np.ndarray) -> np.ndarray:
        """urls -> mapped value where present, else identity."""
        h = ray.get(h_ref)
        v = ray.get(v_ref)
        out = urls.copy()
        if len(h) and len(urls):
            uh = stable_hash_strings(urls)
            i = np.clip(np.searchsorted(h, uh), 0, len(h) - 1)
            ok = h[i] == uh
            out[ok] = v[i[ok]]
        return out

    # old endpoints of delta edges (endpoint not in the delta url set),
    # distinct — stays a Dataset end-to-end
    def old_eps(df: pd.DataFrame) -> pd.DataFrame:
        urls = pd.concat([df["u"], df["v"]], ignore_index=True) \
            .to_numpy(dtype=object)
        s = ray.get(new_uh)
        old = urls[~_in_sorted(s, stable_hash_strings(urls))]
        return pd.DataFrame({"url": pd.unique(old)})

    old_nodes = edges.map_batches(old_eps, batch_format="pandas")
    inv_h_ref = ray.remote(_build_uh).remote(*[
        b for b in old_nodes.materialize().to_arrow_refs()])

    def involved_only(df: pd.DataFrame) -> pd.DataFrame:
        urls = df["url"].to_numpy(dtype=object)
        uh = stable_hash_strings(urls)
        # this pass sees every base url, so it also flags delta urls
        # already in the base (each would get two assignment rows)
        again = _in_sorted(ray.get(new_uh), uh)
        keep = _in_sorted(ray.get(inv_h_ref), uh) | again
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
    old_h, old_v = _lookup_task.remote("url", "cluster_id", *touched_refs)

    def contract(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "u": _apply_lookup(old_h, old_v,
                               df["u"].to_numpy(dtype=object)),
            "v": _apply_lookup(old_h, old_v,
                               df["v"].to_numpy(dtype=object))})

    contracted_edges = edges.map_batches(contract, batch_format="pandas")
    star = connected_components(contracted_edges, cfg.cluster) \
        .materialize()
    metrics["merged_labels"] = star.count()

    # --- relabel old clusters + label new urls -----------------------------
    # star nodes are exactly {old cluster ids, new urls}; base cluster
    # ids never equal new urls (urls are unique across base and delta),
    # so the full star label lookup is equivalent to the old
    # restricted-to-old-cluster-ids dict
    lab_h, lab_v = _lookup_task.remote("u", "v", *star.to_arrow_refs())

    def relabel(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["cluster_id"] = _apply_lookup(
            lab_h, lab_v, df["cluster_id"].to_numpy(dtype=object))
        return out

    old_updated = base_assignments.map_batches(relabel,
                                               batch_format="pandas")

    def label_new(df: pd.DataFrame) -> pd.DataFrame:
        urls = df["url"].to_numpy(dtype=object)
        return pd.DataFrame({
            "url": urls,
            "cluster_id": _apply_lookup(lab_h, lab_v, urls),
        })

    new_assign = delta_feat.select_columns(["url"]).map_batches(
        label_new, batch_format="pandas")

    metrics["total_wall_sec"] = round(time.time() - t0, 3)
    return {"assignments": old_updated.union(new_assign),
            "delta_features": delta_feat, "metrics": metrics}
