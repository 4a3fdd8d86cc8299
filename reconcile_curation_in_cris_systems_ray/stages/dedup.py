"""Deduplication family for training-data curation pipelines.

The reference only has exact SQL dedup (D1-D4); these are the
scale-path designs the north rule adds:

- :func:`exact_dedup` — hash-partition by content, keep min id.
- :func:`near_dup_pairs` — MinHash + banded LSH blocking -> salted
  within-key pairing -> exact shingle-Jaccard verify (the flagship's
  blocking, pair and scoring stages, by mapping (id, text) onto the
  pipeline's (url, text) column contract).
- :func:`simhash_dup_pairs` — 64-bit SimHash, 4x16-bit band blocking
  (guarantees recall for Hamming distance <= 3), Hamming verify.
- :func:`embedding_dup_pairs` — random-hyperplane LSH buckets over an
  embedding column + exact cosine verify.

All return canonical pair tables (``id_a < id_b``) or keep-lists;
every stage is map_batches / bucketed-groupby (no driver loops).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..config import BlockingConfig, ScoringConfig
from ..functions.similarity import (
    MinHasher, batch_shingle_sets, hamming64,
    jaccard_pairs_from_binary, simhash64, stable_hash_strings,
)
from ..functions.textnorm import normalize_text_series
from .blocking import feature_columns
from .lookup import (
    concat_pairs, lookup_shards, probe_pairs, sharded_lookup,
    sharded_pair_tasks,
)
from .shuffle import bucketed_map_groups, nonempty_dataset


def exact_dedup(ds, text_col: str, id_col: str, num_buckets: int = 64):
    """Keep one row per distinct ``text_col`` value: the min ``id_col``
    (deterministic, not order-dependent FIRST). Returns (id, text)."""
    projected = ds.select_columns([id_col, text_col])

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        return (df.sort_values([text_col, id_col], kind="mergesort")
                  .drop_duplicates([text_col], keep="first"))

    return bucketed_map_groups(projected, [text_col], pick, num_buckets)


def _doc_features(ds, id_col: str, text_col: str, blocking: BlockingConfig,
                  normalize: bool = True):
    """(id, shingles binary, sig binary) features for near-dup search,
    built as the flagship ``SignatureStage`` builds them (same columns,
    same storage contract — see its docstring)."""
    hasher = MinHasher(blocking.num_bands, blocking.rows_per_band,
                       blocking.minhash_seed)

    def feats(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pandas()
        if normalize:
            texts = normalize_text_series(texts)
        cols = feature_columns(texts.fillna(""), hasher, blocking.shingle_k)
        return pa.table({"url": batch.column(id_col).cast(pa.string()),
                         "shingles": cols["shingles"], "sig": cols["sig"]})

    return ds.select_columns([id_col, text_col]).map_batches(
        feats, batch_format="pyarrow")


def near_dup_pairs(ds, id_col: str, text_col: str,
                   blocking: BlockingConfig = BlockingConfig(),
                   scoring: ScoringConfig = ScoringConfig(),
                   normalize: bool = True):
    """MinHash-LSH near-duplicate pairs with exact-Jaccard verify.

    Returns (id_a, id_b, est_jaccard, jaccard) for pairs with
    ``jaccard >= scoring.jaccard_threshold``. Ids are compared as
    strings — zero-pad numeric ids upstream if ordering matters.
    """
    from .blocking import emit_band_keys
    from .pairs import generate_candidate_pairs
    from .scoring import hydrate_score_pairs

    features = _doc_features(ds, id_col, text_col, blocking,
                             normalize).materialize()
    bands = emit_band_keys(features, blocking, include_bands=False)
    pairs = generate_candidate_pairs(bands, blocking, scoring,
                                     dedup_pairs=True)

    scored = hydrate_score_pairs(pairs, features, scoring,
                                 est_prefilter=scoring.est_prefilter)

    def matches(batch: pa.Table) -> pa.Table:
        m = batch.filter(batch.column("is_match"))
        return pa.table({"id_a": m.column("url_a"), "id_b": m.column("url_b"),
                         "est_jaccard": m.column("est_jaccard"),
                         "jaccard": m.column("jaccard")})

    return scored.map_batches(matches, batch_format="pyarrow")


def dedup_keep_list(ds, id_col: str, text_col: str, **kwargs):
    """Near-dup dedup decision: cluster dup pairs transitively and keep
    the min id per component; returns (id, keep: bool)."""
    from ..config import ClusterConfig
    from .cluster import assign_clusters, connected_components

    pairs = near_dup_pairs(ds, id_col, text_col, **kwargs)
    edges = pairs.map_batches(
        lambda t: pa.table({"u": t.column("id_a"), "v": t.column("id_b")}),
        batch_format="pyarrow")
    star = connected_components(edges, ClusterConfig())
    ids = ds.select_columns([id_col]).map_batches(
        lambda t: pa.table({"url": t.column(id_col).cast(pa.string())}),
        batch_format="pyarrow")
    assigns = assign_clusters(ids, star)

    def keep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "id": batch.column("url"),
            "cluster_id": batch.column("cluster_id"),
            "keep": pa.compute.equal(batch.column("url"),
                                     batch.column("cluster_id")),
        })

    return assigns.map_batches(keep, batch_format="pyarrow")


def simhash_dup_pairs(ds, id_col: str, text_col: str,
                      max_hamming: int = 3, num_buckets: int = 128,
                      normalize: bool = True):
    """SimHash near-dup pairs: 4x16-bit band blocking + Hamming verify.

    Splitting the 64-bit fingerprint into 4 bands guarantees that any
    pair within Hamming distance 3 shares at least one exact band
    (pigeonhole) — recall 1.0 for the advertised radius.
    """

    def sim_features(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pandas()
        texts = (normalize_text_series(texts) if normalize else texts).fillna("")
        sets = batch_shingle_sets(texts.tolist())
        sh = simhash64(sets)
        n = len(batch)
        ids = batch.column(id_col).cast(pa.string())
        band_id = np.tile(np.arange(4, dtype=np.int32), n)
        chunks = np.column_stack([
            (sh >> np.uint64(16 * b)) & np.uint64(0xFFFF) for b in range(4)
        ]).reshape(-1)
        idx = np.repeat(np.arange(n), 4)
        return pa.table({
            "band_id": pa.array(band_id),
            "band_hash": pa.array(chunks.astype(np.int64)),
            "id": ids.take(pa.array(idx)),
            "simhash": pa.array(np.repeat(sh.view(np.int64), 4)),
        })

    bands = ds.select_columns([id_col, text_col]).map_batches(
        sim_features, batch_format="pyarrow")

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        rows_a, rows_b, hams = [], [], []
        for _, g in df.groupby(["band_id", "band_hash"], sort=False):
            if len(g) < 2:
                continue
            ids = g["id"].to_numpy(dtype=object)
            sims = g["simhash"].to_numpy().astype(np.int64).view(np.uint64)
            i, j = np.triu_indices(len(g), k=1)
            d = hamming64(sims[i], sims[j])
            ok = d <= max_hamming
            a, b = ids[i[ok]], ids[j[ok]]
            swap = a > b
            rows_a.extend(np.where(swap, b, a).tolist())
            rows_b.extend(np.where(swap, a, b).tolist())
            hams.extend(d[ok].tolist())
        return pd.DataFrame({"id_a": pd.Series(rows_a, dtype=object),
                             "id_b": pd.Series(rows_b, dtype=object),
                             "hamming": pd.Series(hams, dtype="int64")})

    _empty = pd.DataFrame({"id_a": pd.Series([], dtype="string"),
                           "id_b": pd.Series([], dtype="string"),
                           "hamming": pd.Series([], dtype="int64")})
    pairs = bucketed_map_groups(bands, ["band_id", "band_hash"],
                                bucket_pairs, num_buckets,
                                empty_like=_empty)

    def dd(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(["id_a", "id_b"])

    return bucketed_map_groups(pairs, ["id_a", "id_b"], dd, num_buckets,
                               empty_like=_empty)


def embedding_dup_pairs(ds, id_col: str, vec_col: str,
                        cosine_threshold: float = 0.95,
                        n_planes: int = 12, n_tables: int = 4,
                        seed: int = 7, num_buckets: int = 128):
    """Embedding near-dup: random-hyperplane LSH buckets + exact cosine.

    Each table hashes the normalized vector to an ``n_planes``-bit
    sign key; candidates share a key in any table; verify exact cosine.
    """
    def feats(batch: pa.Table) -> pa.Table:
        vecs = np.asarray(batch.column(vec_col).to_pylist(), dtype=np.float64)
        n, d = vecs.shape
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        unit = vecs / np.maximum(norms, 1e-12)
        local_rng = np.random.default_rng(seed)
        keys, tables, ids_rep, vec_rep = [], [], [], []
        ids = batch.column(id_col).cast(pa.string())
        for t in range(n_tables):
            pl = local_rng.standard_normal((d, n_planes))
            bits = (unit @ pl) > 0
            key = np.zeros(n, dtype=np.int64)
            for b in range(n_planes):
                key = key * 2 + bits[:, b]
            keys.append(key)
            tables.append(np.full(n, t, dtype=np.int32))
        idx = np.tile(np.arange(n), n_tables)
        return pa.table({
            "band_id": pa.array(np.concatenate(tables)),
            "band_hash": pa.array(np.concatenate(keys)),
            "id": ids.take(pa.array(idx)),
            "vec": pa.array([unit[i].tobytes() for i in idx], pa.binary()),
        })

    bands = ds.select_columns([id_col, vec_col]).map_batches(
        feats, batch_format="pyarrow")

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        rows_a, rows_b, sims_out = [], [], []
        for _, g in df.groupby(["band_id", "band_hash"], sort=False):
            if len(g) < 2:
                continue
            ids = g["id"].to_numpy(dtype=object)
            vecs = np.stack([np.frombuffer(b, dtype=np.float64)
                             for b in g["vec"]])
            sims = vecs @ vecs.T
            i, j = np.triu_indices(len(g), k=1)
            ok = sims[i, j] >= cosine_threshold
            a, b = ids[i[ok]], ids[j[ok]]
            swap = a > b
            rows_a.extend(np.where(swap, b, a).tolist())
            rows_b.extend(np.where(swap, a, b).tolist())
            sims_out.extend(sims[i, j][ok].tolist())
        return pd.DataFrame({"id_a": pd.Series(rows_a, dtype=object),
                             "id_b": pd.Series(rows_b, dtype=object),
                             "cosine": pd.Series(sims_out, dtype="float64")})

    _empty = pd.DataFrame({"id_a": pd.Series([], dtype="string"),
                           "id_b": pd.Series([], dtype="string"),
                           "cosine": pd.Series([], dtype="float64")})
    pairs = bucketed_map_groups(bands, ["band_id", "band_hash"],
                                bucket_pairs, num_buckets,
                                empty_like=_empty)

    def dd(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(["id_a", "id_b"])

    return bucketed_map_groups(pairs, ["id_a", "id_b"], dd, num_buckets,
                               empty_like=_empty)


_NGRAM_EMPTY = pa.table({"id_a": pa.array([], pa.int64()),
                         "id_b": pa.array([], pa.int64()),
                         "jac": pa.array([], pa.float64())})


def _ngram_verify(h, tbl, h_b, tbl_b, threshold, *parts):
    """Task body: the pairs of ``parts`` whose token-set Jaccard
    reaches ``threshold``, side a probed in the ``(id, toks)`` lookup
    shard ``(h, tbl)`` and side b in ``(h_b, tbl_b)`` (None: the same
    shard); returns ``(table, num_rows)``."""
    batch = concat_pairs(parts)
    if not batch.num_rows:
        return _NGRAM_EMPTY, 0
    if h_b is None:
        h_b, tbl_b = h, tbl
    ia, ib = probe_pairs(batch, h, h_b, "id")
    ia, ib = pa.array(ia), pa.array(ib)
    toks_a, toks_b = tbl.column("toks").take(ia), tbl_b.column("toks").take(ib)
    jac = jaccard_pairs_from_binary(toks_a, toks_b)
    keep = jac >= threshold
    a = tbl.column("id").take(ia).to_numpy(zero_copy_only=False)[keep]
    b = tbl_b.column("id").take(ib).to_numpy(zero_copy_only=False)[keep]
    swap = a > b
    out = pa.table({
        "id_a": pa.array(np.where(swap, b, a)),
        "id_b": pa.array(np.where(swap, a, b)),
        "jac": pa.array(np.round(jac[keep], 6), pa.float64()),
    })
    return out, out.num_rows


def ngram_jaccard_pairs(ds, id_col: str, text_col: str, block_col: str,
                        n: int = 1, threshold: float = 0.5,
                        num_buckets: int = 64):
    """Token n-gram Jaccard near-dup pairs within an exact blocking key.

    Routed through the SALTED candidate-pair generator
    (``stages/pairs.py``): a skewed ``block_col`` key above the hot-key
    cap is split into salt triangle groups (pair set identical to the
    plain groupby — pinned by tests), and degenerate groups above
    ``MAX_SIDE`` fall back to star+chain pairing (bounded, documented
    recall cap).

    Verification hydrates the (id, token-set) features from the lookup
    keyed by the id's string hash, sharded by byte budget
    (:func:`.lookup.sharded_lookup`), in bare tasks that take the shard
    refs as arguments (:func:`.lookup.sharded_pair_tasks`, the plan of
    the flagship's scorer), and computes exact Jaccard with the
    vectorized packed-pair kernel.  A pair naming an id hash that the
    lookup lacks raises ``ValueError``.

    Returns (id_a, id_b, jac) for within-block pairs with token
    n-gram-set Jaccard >= ``threshold``; pair order = ascending id.
    Reference analogue: equi-key candidate join
    ``query_db/repository.py:297-314`` + fuzzy post-filter.
    """
    from ..functions.similarity import _rolling_combine
    from .pairs import generate_candidate_pairs

    def feats(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        sets = []
        for t in texts:
            toks = (t or "").split()
            if not toks:
                sets.append(b"")
                continue
            h = np.unique(_rolling_combine(stable_hash_strings(toks), n))
            sets.append(h.tobytes())
        ids = batch.column(id_col)
        keys = np.array([str(v) for v in ids.to_pylist()], dtype=object)
        bh = stable_hash_strings(
            batch.column(block_col).cast(pa.string()).to_pandas()
            .fillna("").to_numpy(dtype=object)).view(np.int64)
        return pa.table({
            "id": ids,
            "key": pa.array(keys, pa.string()),
            "uh": pa.array(stable_hash_strings(keys), pa.uint64()),
            "band_hash": pa.array(bh, pa.int64()),
            "toks": pa.array(sets, pa.binary()),
        })

    prepped = ds.select_columns([id_col, text_col, block_col]).map_batches(
        feats, batch_format="pyarrow").materialize()
    shards = sharded_lookup(prepped.to_arrow_refs(), "key", ["id", "toks"],
                            lookup_shards(prepped.size_bytes()))

    blocking = BlockingConfig(num_buckets=num_buckets)
    pairs = generate_candidate_pairs(
        prepped.select_columns(["band_hash", "uh"]), blocking,
        dedup_pairs=False)
    return nonempty_dataset(
        sharded_pair_tasks(_ngram_verify, pairs.materialize().to_arrow_refs(),
                           shards, threshold), _NGRAM_EMPTY)
