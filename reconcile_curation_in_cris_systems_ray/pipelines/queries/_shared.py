"""Shared helpers used by multiple query-family modules."""

from __future__ import annotations

import os

import numpy as np
import pandas as pd

from ...stages import relational as rel


def _rp(sf_dir: str, table: str, columns=None):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def _doc_count(sf_dir: str) -> int:
    """Row count from parquet metadata (free; no read)."""
    import os

    import pyarrow.parquet as pq

    return pq.ParquetFile(
        os.path.join(sf_dir, "documents.parquet")).metadata.num_rows


def _link_graph_inputs(sf_dir: str):
    from ...stages.graph import derive_link_edges

    docs = _rp(sf_dir, "documents", ["doc_id"])
    n = _doc_count(sf_dir)
    edges = derive_link_edges(docs, n_nodes=n)
    nodes = docs.map_batches(
        lambda df: df.rename(columns={"doc_id": "node"}),
        batch_format="pandas")
    return edges, nodes, n


# shared edge-fixture SQL: must mirror derive_link_edges bit-for-bit
_SQL_EDGES_CTE = """
n AS (SELECT count(*) AS nv FROM documents),
raw AS (
  SELECT d.doc_id AS src,
         CAST(hash(CAST(d.doc_id AS VARCHAR) || ':'
                   || CAST(t.j AS VARCHAR))
              % (SELECT nv FROM n) AS BIGINT) AS dst
  FROM documents d,
       unnest(generate_series(1, d.doc_id % 4)) AS t(j)),
edges AS (SELECT DISTINCT src, dst FROM raw WHERE src <> dst),
outd AS (SELECT src AS node, count(*) AS c FROM edges GROUP BY 1)
"""


def _corrupted_twin_pairs(df: pd.DataFrame,
                          id_out: str = "pair_id") -> pd.DataFrame:
    """Fixture builder shared by monge_elkan / soft_tfidf: each part
    name paired with its word-REORDERED, first-token-one-char-
    corrupted twin.  Names with fewer than two space-separated words
    or an empty first word are dropped — mirrored by the
    ``len(arr) >= 2 AND length(arr[1]) > 0`` WHERE in both SQL twins —
    so the pair set is engine-independent for ANY input corpus, not
    just multi-word TPC-H part names (review finding: the unguarded
    variants diverged on one-word names, where SQL's NULL arr[2]
    nulls the whole concat while Python emitted a row)."""
    arr = df["p_name"].astype("string").str.split(" ")
    ok = ((arr.str.len() >= 2) & (arr.str[0].str.len() > 0)).fillna(False)
    df = df[ok.to_numpy(bool)]
    arr = arr[ok]
    w1 = arr.str[0]
    w2 = arr.str[1]
    k = df["p_partkey"].to_numpy(np.int64)
    pos = k % w1.str.len().to_numpy(np.int64)
    w1c = [s[:p] + s[p + 1:] for s, p in zip(w1.to_numpy(), pos)]
    return pd.DataFrame({
        id_out: k,
        "name_a": df["p_name"].to_numpy(dtype=object),
        "name_b": (w2 + " " + pd.Series(w1c, index=w2.index))
        .to_numpy(dtype=object)})


def _md5_lower64(s: bytes) -> int:
    """DuckDB md5_number_lower twin: lower 8 digest bytes, little-endian."""
    import hashlib

    return int.from_bytes(hashlib.md5(s).digest()[8:16], "little")


def _minhash_signatures(ds, k: int):
    """Map-only md5 MinHash signature stage shared by minhash_pairs /
    greedy_match: one md5 per unique token per seed (the oracle's
    md5_number_lower(tok || '#' || seed) twin), per-row min via
    np.minimum.at; empty-token docs are dropped (no signature)."""

    def sign(df: pd.DataFrame) -> pd.DataFrame:
        texts = (df["text"].astype("string").fillna("")
                 .str.lower().reset_index(drop=True))
        toks = texts.str.findall(r"[a-z0-9]+").explode().dropna()
        rt = pd.DataFrame({"r": toks.index.to_numpy(),
                           "t": toks.to_numpy()}).drop_duplicates()
        out = pd.DataFrame({"doc_id": df["doc_id"].to_numpy(),
                            "source": df["source"].to_numpy()})
        if not len(rt):
            return out.iloc[:0].assign(**{f"mh{s}": np.uint64(0)
                                          for s in range(k)})
        uniq, codes = np.unique(rt["t"].to_numpy(dtype=object),
                                return_inverse=True)
        hs = np.array([[_md5_lower64(f"{t}#{s}".encode())
                        for s in range(k)] for t in uniq],
                      dtype=np.uint64)
        sig = np.full((len(df), k), np.iinfo(np.uint64).max,
                      dtype=np.uint64)
        np.minimum.at(sig, rt["r"].to_numpy(), hs[codes])
        has = np.zeros(len(df), dtype=bool)
        has[rt["r"].to_numpy()] = True
        out = out[has].reset_index(drop=True)
        for s in range(k):
            out[f"mh{s}"] = sig[has, s]
        return out

    return ds.map_batches(sign, batch_format="pandas")


def _minhash_block_pairs(g: pd.DataFrame, k: int):
    """All within-group signature pairs: (iu, ju, matching-component
    counts) — one vectorized (m x m x k) broadcast compare."""
    sig = g[[f"mh{s}" for s in range(k)]].to_numpy(dtype=np.uint64)
    iu, ju = np.triu_indices(len(g), 1)
    eq = (sig[iu] == sig[ju]).sum(axis=1).astype(np.int64)
    return iu, ju, eq


def _expand_source_salts(df: pd.DataFrame,
                         hot_s: dict) -> pd.DataFrame:
    """Triangle-salt replication for :func:`_salted_source_pairs`
    (module-level so the mega-source memory pin can exercise it on a
    plain frame): rows of sources in ``hot_s`` (source -> s) are
    replicated s times into triangle groups; all other rows get salt
    (0, 0) untouched."""
    s = df["source"].map(hot_s).fillna(1).to_numpy(dtype=np.int64)
    cold = df[s == 1].copy()
    cold["salt_i"] = np.int32(0)
    cold["salt_j"] = np.int32(0)
    cold["member_salt"] = np.int32(0)
    hot_df = df[s > 1]
    if not len(hot_df):
        return cold
    sh = s[s > 1]
    ids = hot_df["doc_id"].to_numpy(np.int64).astype(np.uint64)
    mine = (((ids * np.uint64(0x9E3779B97F4A7C15))
             >> np.uint64(33)).astype(np.int64) % sh)
    # ragged arange: for each hot row, other = 0..s-1
    rep = np.repeat(np.arange(len(hot_df)), sh)
    ends = np.cumsum(sh)
    other = np.arange(int(ends[-1])) - np.repeat(ends - sh, sh)
    out_hot = hot_df.iloc[rep].copy()
    mine_r = mine[rep]
    out_hot["salt_i"] = np.minimum(mine_r, other).astype(np.int32)
    out_hot["salt_j"] = np.maximum(mine_r, other).astype(np.int32)
    out_hot["member_salt"] = mine_r.astype(np.int32)
    return pd.concat([cold, out_hot], ignore_index=True)


def _salted_source_pairs(sigs, k: int, cap: int = 1024, min_eq: int = 4,
                         num_buckets: int = 32):
    """Every within-source MinHash-signature pair with >= ``min_eq``
    agreeing components, as ``Dataset[id_a, id_b, eq]`` (id_a < id_b,
    all int64) — with TRIANGLE SALTING for oversized sources (round-5
    hardening of the former per-source dense enumeration; the same
    scheme as the flagship's ``stages/pairs.py``).

    A source with m docs gets ``s = ceil(m / cap)`` salts; each doc
    takes ``member_salt = mix64(doc_id) % s`` and is replicated into
    the s triangle groups ``(min(member_salt, t), max(member_salt, t))``
    for t in 0..s-1, so every cross-salt pair is generated EXACTLY once
    and no bucket task ever holds more than ~2*cap signatures of one
    group — per-task memory is flat in the source size (pinned by
    ``tests/test_salted_pairs.py::test_salted_source_pairs_mega_source``).
    Sources at or under ``cap`` take the single-group path with zero
    replication, so the common case pays nothing.
    """
    import ray

    from ...stages.shuffle import bucketed_map_groups

    sigs = sigs.materialize()
    counts = rel.partial_groupby_agg(sigs.select_columns(["source"]),
                                     ["source"], {"n": (None, "count")})
    s_map = {src: int(-(-int(n) // cap))
             for src, n in zip(counts["source"], counts["n"])}
    salted, group_cols = sigs, ["source"]
    if s_map and max(s_map.values()) > 1:
        hot_ref = ray.put({s: v for s, v in s_map.items() if v > 1})

        def expand(df: pd.DataFrame) -> pd.DataFrame:
            return _expand_source_salts(df, ray.get(hot_ref))

        salted = sigs.map_batches(expand, batch_format="pandas")
        group_cols = ["source", "salt_i", "salt_j"]

    empty = pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                          "id_b": pd.Series([], dtype="int64"),
                          "eq": pd.Series([], dtype="int64")})
    mh_cols = [f"mh{s}" for s in range(k)]
    has_salt = len(group_cols) == 3

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        parts = []
        for key, g in df.groupby(group_cols, sort=False):
            if len(g) < 2:
                continue
            if has_salt and key[1] != key[2]:
                # cross-salt tile: members of salt_i vs members of salt_j
                ms = g["member_salt"].to_numpy()
                ga, gb = g[ms == key[1]], g[ms == key[2]]
                if not len(ga) or not len(gb):
                    continue
                sa = ga[mh_cols].to_numpy(np.uint64)
                sb = gb[mh_cols].to_numpy(np.uint64)
                eq = ((sa[:, None, :] == sb[None, :, :]).sum(axis=2)
                      .astype(np.int64))
                ii, jj = np.nonzero(eq >= min_eq)
                if not len(ii):
                    continue
                ia = ga["doc_id"].to_numpy(np.int64)[ii]
                ib = gb["doc_id"].to_numpy(np.int64)[jj]
                parts.append(pd.DataFrame({
                    "id_a": np.minimum(ia, ib),
                    "id_b": np.maximum(ia, ib),
                    "eq": eq[ii, jj]}))
            else:
                g = g.sort_values("doc_id", kind="mergesort")
                iu, ju, eq = _minhash_block_pairs(g, k)
                keep = eq >= min_eq
                if not keep.any():
                    continue
                ids = g["doc_id"].to_numpy(np.int64)
                parts.append(pd.DataFrame({
                    "id_a": ids[iu[keep]], "id_b": ids[ju[keep]],
                    "eq": eq[keep]}))
        return pd.concat(parts, ignore_index=True) if parts else empty

    return bucketed_map_groups(salted, group_cols, pairs,
                               num_buckets=num_buckets, empty_like=empty)
