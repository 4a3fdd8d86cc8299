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
both pair sides to row indices of one broadcast feature table sorted by
url hash, attaches the MinHash estimate, and computes exact Jaccard by
index over the table's packed shingle buffer
(``jaccard_pairs_by_index``): no pair copies its shingle sets.  Only
above ``lookup.BROADCAST_ROWS`` feature rows are the features joined
back per side with ``Dataset.join`` (hash-partitioned equi-join)
instead, and scored with ``jaccard_pairs_from_binary``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import ScoringConfig
from ..functions.similarity import (
    jaccard_pairs_by_index, jaccard_pairs_from_binary, packed_u64_column,
)
from . import remote_fn
from .lookup import BROADCAST_ROWS, broadcast_lookup, probe
from .shuffle import as_arrow, drop_empty_blocks, nonempty_dataset


_LOOKUP_COLS = ["url", "shingles", "sig"]


def build_feature_lookup(features_ds,
                         broadcast_threshold: int = BROADCAST_ROWS):
    """Start building the broadcast feature lookup for pair scoring
    (:func:`.lookup.broadcast_lookup` keyed by url hash, carrying
    ``url, shingles, sig``); returns its object refs, or None when the
    feature table is too large to broadcast.

    NON-BLOCKING: the driver can launch it before the candidate-pair
    stage, so the build overlaps that stage's execution.
    """
    feats = features_ds.materialize()
    if feats.count() > broadcast_threshold:
        return None
    return broadcast_lookup(feats.to_arrow_refs(), "url", _LOOKUP_COLS)


def hydrate_pairs(pairs_ds, features_ds, num_partitions: int | None = None,
                  est_prefilter: float | None = None):
    """Join (uh_a, uh_b) candidate pairs with both sides' features by
    two hash-partitioned ``Dataset.join``s: the scoring path for
    feature tables above ``lookup.BROADCAST_ROWS``.  Emits ``url_a``,
    ``url_b`` (``url_a < url_b``, the broadcast path's orientation),
    ``shingles_a``, ``shingles_b`` and ``est_jaccard``.
    ``num_partitions`` defaults to half the cluster CPUs: each join
    partition is an aggregator actor, and oversubscribing CPUs
    deadlocks a small cluster.
    """
    import ray
    import ray.data as rd

    from ..functions.similarity import stable_hash_strings

    if num_partitions is None:
        cpus = int(ray.cluster_resources().get("CPU", 8))
        num_partitions = max(2, cpus // 2)

    def add_uh(t: pa.Table) -> pa.Table:
        uh = stable_hash_strings(
            t.column("url").to_pandas().to_numpy(dtype=object))
        return t.append_column("uh", pa.array(uh, pa.uint64()))

    # a join side's 0-row blocks (and an all-empty left side) fail the
    # join's key resolution: empty blocks are dropped first, and no
    # pairs on the left hydrate to no rows without a join
    empty = rd.from_arrow(pa.table({
        "url_a": pa.array([], pa.string()),
        "url_b": pa.array([], pa.string()),
        "shingles_a": pa.array([], pa.binary()),
        "shingles_b": pa.array([], pa.binary()),
        "est_jaccard": pa.array([], pa.float64())}))
    feats = drop_empty_blocks(features_ds.materialize().select_columns(
        _LOOKUP_COLS).map_batches(add_uh, batch_format="pyarrow"))
    a = drop_empty_blocks(pairs_ds)
    if not a.count():
        return empty
    a = a.join(feats, join_type="inner", num_partitions=num_partitions,
               on=("uh_a",), right_on=("uh",))
    a = drop_empty_blocks(a.rename_columns(
        {"shingles": "shingles_a", "sig": "sig_a", "url": "url_a"}))
    if not a.count():
        return empty
    b = a.join(feats, join_type="inner", num_partitions=num_partitions,
               on=("uh_b",), right_on=("uh",))
    b = b.rename_columns({"shingles": "shingles_b", "sig": "sig_b",
                          "url": "url_b"})

    def add_est(batch: pa.Table) -> pa.Table:
        n = len(batch)
        if n:
            # re-canonicalize lexicographically by url: the pair stage
            # ordered by uh hash value, and the broadcast path swaps to
            # url_a < url_b — both join strategies must produce the
            # identical pair orientation (determinism across the
            # broadcast/distributed crossover)
            swap = pc.greater(batch.column("url_a"), batch.column("url_b"))
            if pc.any(swap).as_py():
                cols = {}
                for name in batch.schema.names:
                    if name.endswith("_a"):
                        other = name[:-2] + "_b"
                        cols[name] = pc.if_else(swap, batch.column(other),
                                                batch.column(name))
                    elif name.endswith("_b"):
                        other = name[:-2] + "_a"
                        cols[name] = pc.if_else(swap, batch.column(other),
                                                batch.column(name))
                    else:
                        cols[name] = batch.column(name)
                batch = pa.table(cols)
        if n == 0:
            est = np.empty(0, dtype=np.float64)
        else:
            from .blocking import binary_matrix

            sa = binary_matrix(batch.column("sig_a"))
            sb = binary_matrix(batch.column("sig_b"))
            est = (sa == sb).mean(axis=1)
        drop = [c for c in ("sig_a", "sig_b", "uh_a", "uh_b")
                if c in batch.schema.names]
        out = batch.drop_columns(drop).append_column(
            "est_jaccard", pa.array(est, pa.float64()))
        if est_prefilter is not None and len(out):
            out = out.filter(pc.greater_equal(
                out.column("est_jaccard"), pa.scalar(est_prefilter)))
        return out

    return b.map_batches(add_est, batch_format="pyarrow")


def score_pairs_block(batch: pa.Table, h: np.ndarray, tbl: pa.Table,
                      scoring=None, est_prefilter=None) -> pa.Table:
    """Broadcast hydrate + score of one candidate-pair block against
    the feature lookup ``(h, tbl)`` (sorted url hashes, row-aligned
    ``url, shingles, sig`` table).

    Resolves both url-hash sides to row indices ``ia``, ``ib``, orients
    each pair ``url_a < url_b``, attaches the MinHash Jaccard estimate
    and drops pairs under ``est_prefilter``; exact Jaccard then runs by
    index over the lookup's packed shingle buffer, viewed in place.
    Only the two url columns are gathered per pair.

    Raises ``ValueError`` naming a url hash that the lookup lacks: both
    sides of every pair come from the features the lookup was built
    over, so a dangling hash is a defect, not a pair to drop.
    """
    from .blocking import binary_matrix

    if not batch.num_rows:
        return _empty_scored()
    ia, found_a = probe(h, batch.column("uh_a"))
    ib, found_b = probe(h, batch.column("uh_b"))
    if not (found_a.all() and found_b.all()):
        k = int(np.flatnonzero(~(found_a & found_b))[0])
        side = "uh_a" if not found_a[k] else "uh_b"
        raise ValueError(
            f"candidate pair names url hash "
            f"{batch.column(side)[k].as_py():#x} ({side}), which is not "
            f"in the feature lookup")
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


def _score_task(pairs, h, tbl, scoring, est_prefilter, edges: bool):
    out = score_pairs_block(as_arrow(pairs), h, tbl, scoring, est_prefilter)
    if edges:
        out = match_edges(out)
    return out, out.num_rows


def score_blocks(pair_refs, lookup, scoring=None,
                 est_prefilter: float | None = None,
                 edges: bool = False) -> list:
    """Score each candidate-pair block against the feature lookup
    ``(keys ref, table ref, size ref)`` as one bare task, without
    waiting; returns one ``(table ref, row-count ref)`` per block: the
    scored rows, or with ``edges`` only the match edges.  The lookup
    refs are top-level task arguments, so Ray resolves them before a
    task starts and none blocks on them."""
    h_ref, t_ref, _ = lookup
    task = remote_fn(_score_task, num_returns=2)
    return [tuple(task.remote(p, h_ref, t_ref, scoring, est_prefilter,
                              edges))
            for p in pair_refs]


def hydrate_score_pairs(pairs_ds, features_ds, scoring=None,
                        est_prefilter: float | None = None, prebuilt=None,
                        broadcast_threshold: int = BROADCAST_ROWS):
    """Hydrate candidate pairs and score them.

    Broadcast path: one :func:`score_blocks` task per pair block
    resolves both pair sides against the shared feature lookup
    (``prebuilt``, or built here) and emits the scored schema directly.
    When the feature table exceeds the broadcast threshold, falls back
    to the distributed ``hydrate_pairs`` joins followed by a
    ``PairScorer`` task stage (the scorer fuses onto the join output).
    """
    lookup = prebuilt
    if lookup is None:
        lookup = build_feature_lookup(features_ds, broadcast_threshold)
    if lookup is None:
        hyd = hydrate_pairs(pairs_ds, features_ds,
                            est_prefilter=est_prefilter)
        return hyd.map_batches(PairScorer(scoring or ScoringConfig()),
                               batch_format="pyarrow")
    return nonempty_dataset(
        score_blocks(pairs_ds.materialize().to_arrow_refs(), lookup,
                     scoring, est_prefilter), _empty_scored())


class PairScorer:
    """Batch callable over joined pairs (``url_a``, ``url_b``,
    ``shingles_a``, ``shingles_b``, ``est_jaccard``): exact Jaccard and
    the match flag, the scored schema of the broadcast path."""

    def __init__(self, cfg: ScoringConfig = ScoringConfig()):
        self.cfg = cfg

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return _empty_scored()
        jac = jaccard_pairs_from_binary(batch.column("shingles_a"),
                                        batch.column("shingles_b"),
                                        dtype=np.uint32)
        return _scored(batch.column("url_a"), batch.column("url_b"),
                       batch.column("est_jaccard"), jac, self.cfg)


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
