"""Pairwise scoring: exact shingle Jaccard decides a match.

Reference analogue: the fuzzy post-filter applied to join results
(``query_db/udf.py:11-59``, used in the linkage join
``repository.py:112-142``), re-targeted to page text per the north
rule.  A pair matches when the exact Jaccard of its two shingle sets
(sorted uint32 tokens) reaches ``ScoringConfig.jaccard_threshold``; the
scored schema is ``url_a, url_b, est_jaccard, jaccard, is_match`` and no
other score is computed.

Feature hydration: candidate pairs carry only url hashes, so the wide
band-explode shuffle never carries text.  Each scoring task resolves
both pair sides to row indices of the feature lookup sorted by url hash
(:func:`.lookup.sharded_lookup`: one shard up to ``LOOKUP_BYTES`` of
features, one task per pair block; more shards above it, one task per
shard pair), attaches the MinHash estimate, and computes exact Jaccard
by index over the shard's packed shingle buffer
(``jaccard_pairs_by_index``): a pair within one shard copies no
shingle set, and a pair across two shards copies only its task's
referenced sets.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import ScoringConfig
from ..functions.similarity import jaccard_pairs_by_index, packed_u64_column
from .lookup import (
    concat_pairs, lookup_shards, probe_pairs, sharded_lookup,
    sharded_pair_tasks,
)
from .shuffle import nonempty_dataset


_LOOKUP_COLS = ["url", "shingles", "sig"]


def build_feature_lookup(*features) -> list:
    """Start building the feature lookup for pair scoring over the
    features Datasets ``features`` (:func:`.lookup.sharded_lookup`
    keyed by url hash, carrying ``url, shingles, sig``, in
    ``lookup_shards`` of their bytes); returns its shards' object refs.

    NON-BLOCKING: the driver can launch it before the candidate-pair
    stage, so the build overlaps that stage's execution.  A materialized
    Dataset is used as it is: materializing it again costs a Dataset
    init and a stats-actor round trip in the calling process.
    """
    from ray.data.dataset import MaterializedDataset

    feats = [f if isinstance(f, MaterializedDataset) else f.materialize()
             for f in features]
    return sharded_lookup([r for f in feats for r in f.to_arrow_refs()],
                          "url", _LOOKUP_COLS,
                          lookup_shards(sum(f.size_bytes() for f in feats)))


def score_pairs_block(batch: pa.Table, h: np.ndarray, tbl: pa.Table,
                      scoring=None, est_prefilter=None,
                      side_b=None) -> pa.Table:
    """Hydrate + score one candidate-pair block against the feature
    lookup ``(h, tbl)`` (sorted url hashes, row-aligned ``url, shingles,
    sig`` table), or, with ``side_b = (h_b, tbl_b)``, side a against
    ``(h, tbl)`` and side b against that second shard.

    Resolves both url-hash sides to row indices ``ia``, ``ib`` (two
    shards: into one table of the pairs' rows of both, gathered once),
    orients each pair ``url_a < url_b``, attaches the MinHash Jaccard
    estimate and drops pairs under ``est_prefilter``; exact Jaccard then
    runs by index over the table's packed shingle buffer, viewed in
    place.  Only the two url columns are gathered per pair.

    Raises ``ValueError`` naming a url hash that the lookup lacks
    (:func:`.lookup.probe_pairs`).
    """
    from .blocking import binary_matrix

    if not batch.num_rows:
        return _empty_scored()
    h_b = h if side_b is None else side_b[0]
    ia, ib = probe_pairs(batch, h, h_b, "url")
    if side_b is not None:
        # side a's distinct rows, then side b's, as one table
        ra, ia = np.unique(ia, return_inverse=True)
        rb, ib = np.unique(ib, return_inverse=True)
        tbl = pa.concat_tables([tbl.take(pa.array(ra)),
                                side_b[1].take(pa.array(rb))]
                               ).combine_chunks()
        ib = ib + ra.size
    urls = tbl.column("url")
    # re-canonicalize lexicographically (the pair stage ordered by
    # hash); Arrow compares UTF-8 bytes, which order as codepoints do
    swap = pc.greater(urls.take(pa.array(ia)),
                      urls.take(pa.array(ib))).to_numpy()
    ia, ib = np.where(swap, ib, ia), np.where(swap, ia, ib)
    # MinHash Jaccard estimate, attached here rather than shuffled with
    # the band explode (bytes discipline)
    sig = binary_matrix(tbl.column("sig"))
    est = (sig[ia] == sig[ib]).mean(axis=1)
    if est_prefilter is not None:
        keep = est >= est_prefilter
        ia, ib, est = ia[keep], ib[keep], est[keep]
    vals, lens = packed_u64_column(tbl.column("shingles"), np.uint32)
    jac = jaccard_pairs_by_index(vals, lens, ia, ib)
    return _scored(urls.take(pa.array(ia)), urls.take(pa.array(ib)), est,
                   jac, scoring or ScoringConfig())


def match_edges(scored: pa.Table) -> pa.Table:
    """The match edges ``(u, v)`` of a scored table."""
    m = scored.filter(scored.column("is_match"))
    return pa.table({"u": m.column("url_a"), "v": m.column("url_b")})


def _score_task(h, tbl, h_b, tbl_b, args, *parts):
    scoring, est_prefilter, edges = args
    out = score_pairs_block(
        concat_pairs(parts), h, tbl, scoring, est_prefilter,
        None if h_b is None else (h_b, tbl_b))
    if edges:
        out = match_edges(out)
    return out, out.num_rows


def score_blocks(pair_refs, lookup, scoring=None,
                 est_prefilter: float | None = None,
                 edges: bool = False) -> list:
    """Score the candidate-pair blocks ``pair_refs`` against the
    feature lookup shards ``lookup`` (:func:`build_feature_lookup`) as
    bare tasks (:func:`.lookup.sharded_pair_tasks`: one per pair block,
    or one per shard pair), without waiting; returns one ``(table ref,
    metadata ref)`` per task: the scored rows, or with ``edges`` only
    the match edges."""
    return sharded_pair_tasks(_score_task, pair_refs, lookup,
                              (scoring, est_prefilter, edges))


def hydrate_score_pairs(pairs_ds, features_ds, scoring=None,
                        est_prefilter: float | None = None, prebuilt=None):
    """Hydrate candidate pairs and score them: :func:`score_blocks`
    over the pair blocks, against the feature lookup ``prebuilt`` (the
    shards :func:`build_feature_lookup` returns), or built here."""
    lookup = prebuilt if prebuilt is not None \
        else build_feature_lookup(features_ds)
    return nonempty_dataset(
        score_blocks(pairs_ds.materialize().to_arrow_refs(), lookup,
                     scoring, est_prefilter), _empty_scored())


def _scored(url_a, url_b, est, jac: np.ndarray,
            cfg: ScoringConfig) -> pa.Table:
    return pa.table({
        "url_a": url_a,
        "url_b": url_b,
        "est_jaccard": est,
        "jaccard": jac,
        "is_match": jac >= cfg.jaccard_threshold,
    })


def _empty_scored() -> pa.Table:
    return pa.table({
        "url_a": pa.array([], pa.string()),
        "url_b": pa.array([], pa.string()),
        "est_jaccard": pa.array([], pa.float64()),
        "jaccard": pa.array([], pa.float64()),
        "is_match": pa.array([], pa.bool_()),
    })
