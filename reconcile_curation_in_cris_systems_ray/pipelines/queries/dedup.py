"""Deduplication family: exact/MinHash/SimHash/chunk/set-similarity.

The ``QUERIES`` / ``ORACLES`` tables at the end register this family.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ...config import BlockingConfig, ScoringConfig
from ...stages import relational as rel
from ...stages import textstats as ts
from ...stages.dedup import exact_dedup, near_dup_pairs, simhash_dup_pairs
from ._shared import _corrupted_twin_pairs, _minhash_block_pairs, _minhash_signatures, _rp


def q_dedup_exact(sf_dir: str):
    """Exact dedup: min doc_id per distinct text."""
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    return exact_dedup(ds, text_col="text", id_col="doc_id")


SQL_DEDUP_EXACT = """
SELECT min(doc_id) AS doc_id, text FROM documents GROUP BY text
"""


# --------------------------------------------------------------------------
# Rows-only queries (no SQL-expressible oracle; driver checks rows>=0,
# correctness covered by pytest)
# --------------------------------------------------------------------------

def _padded_docs(sf_dir: str):
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])

    def pad(t: pa.Table) -> pa.Table:
        ids = [f"{i:012d}" for i in t.column("doc_id").to_pylist()]
        return pa.table({"doc_id": pa.array(ids, pa.string()),
                         "text": t.column("text")})

    return ds.map_batches(pad, batch_format="pyarrow")


def q_near_dup_docs(sf_dir: str):
    """MinHash-LSH near-dup pairs over documents (exact-Jaccard verify).
    ORACLED (round-5, upgraded from rows-only): the oracle replays the
    ENTIRE flagship LSH path bit-for-bit in SQL — shingle hashes as in
    simhash_pairs, the MinHasher's 64 seeded affine permutations
    embedded as literals (s*a+b mod 2^64 via 32-bit-split HUGEINT
    products), uint32-truncated signature minima, 16x4 band-equality
    candidates, est = agreeing components / 64 >= 0.35, exact uint32
    shingle Jaccard >= 0.5."""
    return near_dup_pairs(_padded_docs(sf_dir), "doc_id", "text",
                          BlockingConfig(), ScoringConfig())


def q_simhash_pairs(sf_dir: str):
    """SimHash near-dup pairs (Hamming <= 3).  ORACLED (round-5,
    upgraded from rows-only): the oracle rebuilds the 64-bit SimHash
    bit-for-bit — normalize twin, whitespace tokens, DuckDB hash()
    token hashes, the k=3 polynomial rolling shingle combine emulated
    mod 2^64 via 32-bit-split HUGEINT arithmetic, per-bit majority —
    and takes all pairs at Hamming <= 3 (pigeonhole over the 4x16-bit
    bands guarantees the banded plan returns exactly that set)."""
    return simhash_dup_pairs(_padded_docs(sf_dir), "doc_id", "text")


SQL_SIMHASH_PAIRS = r"""
WITH
norm AS (SELECT doc_id,
         regexp_replace(
           regexp_replace(lower(text), '[^a-z0-9_[:space:]]', '', 'g'),
           '^[[:space:]]+|[[:space:]]+$', '', 'g') AS nt
         FROM documents),
tl AS (SELECT doc_id,
              list_filter(regexp_split_to_array(coalesce(nt, ''), '\s+'),
                          x -> x <> '') AS arr
       FROM norm),
th0 AS (SELECT doc_id, unnest(range(1, len(arr) + 1)) AS i,
               unnest(arr) AS tok
        FROM tl WHERE len(arr) > 0),
th AS (SELECT doc_id, i, hash(tok) AS h FROM th0),
cnt AS (SELECT doc_id, count(*) AS n FROM th GROUP BY 1),
led AS (SELECT th.doc_id, th.i, th.h,
               lead(th.h, 1) OVER w AS h2, lead(th.h, 2) OVER w AS h3,
               cnt.n
        FROM th JOIN cnt USING (doc_id)
        WINDOW w AS (PARTITION BY th.doc_id ORDER BY th.i)),
sh0 AS (SELECT doc_id,
               CASE WHEN n >= 3 THEN ((((((((CAST(h AS HUGEINT)) % 4294967296) * 11400714819323198485 + ((((CAST(h AS HUGEINT)) // 4294967296) * 11400714819323198485) % 4294967296) * 4294967296) % 18446744073709551616 + CAST(h2 AS HUGEINT)) % 18446744073709551616) % 4294967296) * 11400714819323198485 + ((((((((CAST(h AS HUGEINT)) % 4294967296) * 11400714819323198485 + ((((CAST(h AS HUGEINT)) // 4294967296) * 11400714819323198485) % 4294967296) * 4294967296) % 18446744073709551616 + CAST(h2 AS HUGEINT)) % 18446744073709551616) // 4294967296) * 11400714819323198485) % 4294967296) * 4294967296) % 18446744073709551616 + CAST(h3 AS HUGEINT)) % 18446744073709551616
                    WHEN n = 2 THEN ((((CAST(h AS HUGEINT)) % 4294967296) * 11400714819323198485 + ((((CAST(h AS HUGEINT)) // 4294967296) * 11400714819323198485) % 4294967296) * 4294967296) % 18446744073709551616 + CAST(h2 AS HUGEINT)) % 18446744073709551616
                    ELSE CAST(h AS HUGEINT) END AS s
        FROM led
        WHERE (n >= 3 AND i <= n - 2) OR (n < 3 AND i = 1)),
shu AS (SELECT DISTINCT doc_id, CAST(s AS UBIGINT) AS s FROM sh0),
bits AS (SELECT doc_id, b.b,
                sum(CASE WHEN (s >> CAST(b.b AS UBIGINT))
                              & CAST(1 AS UBIGINT) = 1
                         THEN 1 ELSE 0 END) AS cb,
                count(*) AS ns
         FROM shu, unnest(range(64)) AS b(b) GROUP BY 1, 2),
fp0 AS (SELECT doc_id,
               CAST(sum(CASE WHEN 2 * cb > ns
                             THEN CAST(1 AS HUGEINT) << CAST(b AS INT)
                             ELSE 0 END) AS UBIGINT) AS f
        FROM bits GROUP BY 1),
allfp AS (SELECT d.doc_id, printf('%012d', d.doc_id) AS pid,
                 coalesce(f.f, 0) AS f
          FROM documents d LEFT JOIN fp0 f ON f.doc_id = d.doc_id)
SELECT a.pid AS id_a, b.pid AS id_b,
       CAST(bit_count(xor(a.f, b.f)) AS BIGINT) AS hamming
FROM allfp a JOIN allfp b ON b.doc_id > a.doc_id
WHERE bit_count(xor(a.f, b.f)) <= 3
"""


def _near_dup_sql(keep: bool = False) -> str:
    """Exact SQL twin of near_dup_pairs / dedup_keep_list: the shingle
    pipeline (normalize twin, DuckDB hash() tokens, k=3 polynomial
    rolling combine mod 2^64 via 32-bit-split HUGEINT arithmetic), the
    MinHasher(16, 4, 2024) affine permutations embedded as literals,
    uint32-truncated signature minima, band-equality candidates,
    est >= 0.35 prefilter and exact uint32 shingle Jaccard >= 0.5;
    ``keep=True`` appends the recursive component closure + min-id
    keep decision of dedup_keep_list."""
    from ...functions.similarity import MinHasher

    M = 0x9E3779B97F4A7C15
    T32 = 1 << 32
    T64 = 1 << 64
    h = MinHasher(16, 4, 2024)
    perm_rows = ",\n    ".join(
        f"({p}, {int(a) % T32}, {int(a) >> 32}, {int(b)})"
        for p, (a, b) in enumerate(zip(h.a, h.b)))

    def mul(a):
        return (f"((({a}) % {T32}) * {M} "
                f"+ (((({a}) // {T32}) * {M}) % {T32}) * {T32}) % {T64}")

    def step(acc, hh):
        return f"({mul(acc)} + CAST({hh} AS HUGEINT)) % {T64}"

    h1 = "CAST(h AS HUGEINT)"
    s2 = step(h1, "h2")
    s3 = step(s2, "h3")
    prefix = f"""WITH RECURSIVE
norm AS (SELECT doc_id,
         regexp_replace(
           regexp_replace(lower(text), '[^a-z0-9_[:space:]]', '', 'g'),
           '^[[:space:]]+|[[:space:]]+$', '', 'g') AS nt
         FROM documents),
tl AS (SELECT doc_id,
              list_filter(regexp_split_to_array(coalesce(nt, ''), '\\s+'),
                          x -> x <> '') AS arr
       FROM norm),
th0 AS (SELECT doc_id, unnest(range(1, len(arr) + 1)) AS i,
               unnest(arr) AS tok
        FROM tl WHERE len(arr) > 0),
th AS (SELECT doc_id, i, hash(tok) AS h FROM th0),
cnt AS (SELECT doc_id, count(*) AS n FROM th GROUP BY 1),
led AS (SELECT th.doc_id, th.i, th.h,
               lead(th.h, 1) OVER w AS h2, lead(th.h, 2) OVER w AS h3,
               cnt.n
        FROM th JOIN cnt USING (doc_id)
        WINDOW w AS (PARTITION BY th.doc_id ORDER BY th.i)),
sh0 AS (SELECT doc_id,
               CASE WHEN n >= 3 THEN {s3}
                    WHEN n = 2 THEN {s2}
                    ELSE CAST(h AS HUGEINT) END AS s
        FROM led
        WHERE (n >= 3 AND i <= n - 2) OR (n < 3 AND i = 1)),
shu AS (SELECT DISTINCT doc_id, s FROM sh0),
s32 AS (SELECT DISTINCT doc_id, CAST(s % {T32} AS BIGINT) AS s FROM shu),
sz AS (SELECT doc_id, count(*) AS n FROM s32 GROUP BY 1),
perm(p, al, ah, bv) AS (VALUES
    {perm_rows}),
sig AS (SELECT u.doc_id, pm.p,
               CAST(min(((u.s % {T32}) * pm.al
                         + ((u.s // {T32}) * pm.al
                            + (u.s % {T32}) * pm.ah) % {T32} * {T32}
                         + pm.bv) % {T64}) % {T32} AS BIGINT) AS v
        FROM (SELECT doc_id, CAST(s AS HUGEINT) AS s FROM shu) u
        CROSS JOIN perm pm
        GROUP BY 1, 2),
band AS (SELECT doc_id, p // 4 AS b,
                list(v ORDER BY p) AS comps
         FROM sig GROUP BY 1, 2),
cand AS (SELECT DISTINCT a.doc_id AS da, b.doc_id AS db
         FROM band a JOIN band b
           ON b.b = a.b AND b.comps = a.comps AND b.doc_id > a.doc_id),
est AS (SELECT c.da, c.db,
               sum(CASE WHEN sa.v = sb.v THEN 1 ELSE 0 END) / 64.0 AS e
        FROM cand c
        JOIN sig sa ON sa.doc_id = c.da
        JOIN sig sb ON sb.doc_id = c.db AND sb.p = sa.p
        GROUP BY 1, 2),
jac AS (SELECT e.da, e.db, e.e,
               (SELECT count(*) FROM s32 x JOIN s32 y
                ON y.s = x.s AND y.doc_id = e.db
                WHERE x.doc_id = e.da) AS inter,
               coalesce(za.n, 0) AS na, coalesce(zb.n, 0) AS nb
        FROM est e
        LEFT JOIN sz za ON za.doc_id = e.da
        LEFT JOIN sz zb ON zb.doc_id = e.db
        WHERE e.e >= 0.35)"""
    if not keep:
        return prefix + """
SELECT printf('%012d', da) AS id_a, printf('%012d', db) AS id_b,
       e AS est_jaccard,
       CAST(inter AS DOUBLE) / (na + nb - inter) AS jaccard
FROM jac
WHERE na + nb - inter > 0
  AND CAST(inter AS DOUBLE) / (na + nb - inter) >= 0.5
"""
    return prefix + """,
fp AS (
  SELECT da, db FROM jac
  WHERE na + nb - inter > 0
    AND CAST(inter AS DOUBLE) / (na + nb - inter) >= 0.5),
und2 AS (SELECT da AS a, db AS b FROM fp
         UNION SELECT db, da FROM fp),
reach(a, b) AS (
  SELECT a, b FROM und2
  UNION
  SELECT r.a, u.b FROM reach r JOIN und2 u ON u.a = r.b),
comp AS (SELECT a AS node, least(a, min(b)) AS root
         FROM reach GROUP BY a)
SELECT printf('%012d', d.doc_id) AS id,
       printf('%012d', coalesce(c.root, d.doc_id)) AS cluster_id,
       (c.root IS NULL OR c.root = d.doc_id) AS keep
FROM documents d LEFT JOIN comp c ON c.node = d.doc_id
"""


SQL_NEAR_DUP_DOCS = _near_dup_sql(keep=False)
SQL_NEAR_DUP_KEEP = _near_dup_sql(keep=True)


def q_winnow_fingerprint(sf_dir: str):
    """Winnowing document fingerprints (Schleimer et al. 2003):
    (doc_id, n_fingerprints, min_fp) per non-empty document.  Gram
    hash = DuckDB hash(), so the full algorithm (k-gram hash ->
    sliding window min -> consecutive dedup) is oracled in SQL."""
    from ...stages.textstats import winnow_stats_stage

    return winnow_stats_stage(_rp(sf_dir, "documents", ["doc_id", "text"]))


SQL_WINNOW_FINGERPRINT = r"""
WITH toks AS (
  SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS t
  FROM documents WHERE trim(coalesce(text, '')) <> ''
), pos AS (
  SELECT doc_id, t, greatest(len(t) - 4, 1) AS n_grams,
         unnest(generate_series(1, greatest(len(t) - 4, 1))) AS i
  FROM toks
), grams AS (
  SELECT doc_id, i, n_grams,
         hash(array_to_string(t[i:i+4], ' ')) AS h
  FROM pos
), w AS (
  SELECT doc_id, i, n_grams,
         min(h) OVER (PARTITION BY doc_id ORDER BY i
                      ROWS BETWEEN CURRENT ROW AND 3 FOLLOWING) AS m
  FROM grams
), wm AS (
  SELECT doc_id, i, m,
         lag(m) OVER (PARTITION BY doc_id ORDER BY i) AS prev
  FROM w WHERE i <= greatest(n_grams - 3, 1)
)
SELECT doc_id,
       count(*) FILTER (WHERE prev IS NULL OR m <> prev)
         AS n_fingerprints,
       CAST(min(m) AS VARCHAR) AS min_fp
FROM wm GROUP BY doc_id
"""


def q_near_dup_keep(sf_dir: str):
    """Near-dup dedup DECISION pipeline: MinHash-LSH pairs ->
    transitive clusters -> keep min id per component; returns
    (id, cluster_id, keep).  ORACLED (round-5, upgraded from
    rows-only): the near_dup_docs oracle extended with a recursive
    reachability closure over the verified pair set and a min-id
    component label."""
    from ...stages.dedup import dedup_keep_list

    return dedup_keep_list(_padded_docs(sf_dir), "doc_id", "text",
                           blocking=BlockingConfig(),
                           scoring=ScoringConfig())


def q_compression_ratio(sf_dir: str):
    """Compression-ratio quality signal (RefinedWeb/Gopher-style
    boilerplate detector): zlib-compressed size over raw UTF-8 size
    per document — highly repetitive documents compress far below
    ~0.4.  Map-only; the per-row zlib.compress call runs in C (the
    Python loop only dispatches), level pinned so results are
    deterministic.  No SQL oracle (DuckDB has no zlib scalar) —
    rows-only driver check + a direct-computation pin in
    tests/test_queries_oracle.py."""
    import zlib

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        texts = df["text"].astype("string").fillna("")
        raw = texts.str.encode("utf-8")
        n_raw = raw.str.len().to_numpy(dtype=np.int64)
        n_comp = np.fromiter((len(zlib.compress(b, 6)) for b in raw),
                             dtype=np.int64, count=len(raw))
        ratio = np.where(n_raw > 0, n_comp / np.maximum(n_raw, 1), 1.0)
        return pd.DataFrame({"doc_id": df["doc_id"],
                             "n_raw": n_raw,
                             "compress_ratio": ratio.round(6)})

    return ds.map_batches(fn, batch_format="pandas")


def q_chunk_tokens(sf_dir: str):
    """Training-sequence chunking: split each document's token stream
    into fixed 32-token chunks, emitting (doc_id, chunk_id, n_tokens).
    Map-only and fully vectorized (np.repeat over per-doc chunk counts
    — no Python loop, no shuffle at any scale)."""
    B = 32
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        texts = df["text"].astype("string").fillna("").str.strip()
        keep = texts != ""
        ids = df["doc_id"][keep.to_numpy()].to_numpy()
        ntok = texts[keep].str.split().str.len().to_numpy(dtype=np.int64)
        nchunk = -(-ntok // B)
        out_id = np.repeat(ids, nchunk)
        chunk_id = np.concatenate(
            [np.arange(c, dtype=np.int64) for c in nchunk]) \
            if len(nchunk) else np.array([], dtype=np.int64)
        rem = np.repeat(ntok, nchunk) - chunk_id * B
        n_tokens = np.minimum(rem, B)
        return pd.DataFrame({"doc_id": out_id, "chunk_id": chunk_id,
                             "n_tokens": n_tokens})

    return ds.map_batches(fn, batch_format="pandas")


SQL_CHUNK_TOKENS = r"""
WITH t AS (
  SELECT doc_id,
         len(regexp_split_to_array(trim(lower(text)), '\s+')) AS ntok
  FROM documents WHERE trim(coalesce(text, '')) <> ''
)
SELECT doc_id, i AS chunk_id,
       CASE WHEN (i + 1) * 32 <= ntok THEN 32 ELSE ntok - i * 32 END
           AS n_tokens
FROM t, unnest(generate_series(0, CAST(ceil(ntok / 32.0) AS BIGINT) - 1))
     AS u(i)
"""


def q_pack_sequences(sf_dir: str):
    """Sequence packing for LLM training: documents are concatenated
    in doc_id order and cut into fixed 256-token sequences; each doc
    reports the sequence holding its first token and its offset there.
    This is a DISTRIBUTED PREFIX SUM (two-level scan): docs are range-
    bucketed by doc_id, per-range token totals are combined into tiny
    partials whose exclusive scan is broadcast back, and each range
    computes its internal cumsum independently — no global sort, no
    all-to-all beyond the range co-location."""
    B = 256
    n_ranges = 64
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])

    # doc_id span (two scalars) for range bucketing
    import ray.data as rd  # noqa: F401
    lohi = ds.map_batches(
        lambda t: pa.table({
            "lo": pa.array([pc.min(t.column("doc_id")).as_py()]),
            "hi": pa.array([pc.max(t.column("doc_id")).as_py()]),
        }), batch_format="pyarrow").take_all()
    lo = min(r["lo"] for r in lohi if r["lo"] is not None)
    hi = max(r["hi"] for r in lohi if r["hi"] is not None)
    width = max((hi - lo) // n_ranges + 1, 1)

    def ntok_batch(df: pd.DataFrame) -> pd.DataFrame:
        texts = df["text"].astype("string").fillna("").str.strip()
        keep = texts != ""
        ids = df["doc_id"][keep.to_numpy()].to_numpy()
        ntok = texts[keep].str.split().str.len().to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "doc_id": ids,
            "rng": ((ids - lo) // width).astype(np.int64),
            "ntok": ntok,
        })

    narrow = ds.map_batches(ntok_batch, batch_format="pandas").materialize()

    # pass 1: per-range totals (tiny partials; bounded driver scan)
    totals = narrow.map_batches(
        lambda df: df.groupby("rng", sort=False)["ntok"].sum()
        .rename("tot").reset_index(), batch_format="pandas").take_all()
    agg = {}
    for r in totals:
        agg[r["rng"]] = agg.get(r["rng"], 0) + r["tot"]
    offsets = np.zeros(n_ranges + 1, dtype=np.int64)
    for i in range(n_ranges):
        offsets[i + 1] = offsets[i] + agg.get(i, 0)
    import ray as _ray
    off_ref = _ray.put(offsets)

    # pass 2: within-range exclusive cumsum + broadcast range offset
    def pack_range(df: pd.DataFrame) -> pd.DataFrame:
        offs = _ray.get(off_ref)
        outs = []
        for rng, g in df.groupby("rng", sort=False):
            g = g.sort_values("doc_id", kind="mergesort")
            cum0 = offs[int(rng)] + np.concatenate(
                [[0], np.cumsum(g["ntok"].to_numpy())[:-1]])
            outs.append(pd.DataFrame({
                "doc_id": g["doc_id"].to_numpy(),
                "seq_id": cum0 // B,
                "seq_offset": cum0 % B,
            }))
        if not outs:
            return pd.DataFrame({
                "doc_id": pd.Series([], dtype="int64"),
                "seq_id": pd.Series([], dtype="int64"),
                "seq_offset": pd.Series([], dtype="int64")})
        return pd.concat(outs, ignore_index=True)

    from ...stages.shuffle import bucketed_map_groups

    empty = pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                          "seq_id": pd.Series([], dtype="int64"),
                          "seq_offset": pd.Series([], dtype="int64")})
    return bucketed_map_groups(narrow, ["rng"], pack_range,
                               num_buckets=n_ranges, empty_like=empty)


SQL_PACK_SEQUENCES = r"""
WITH t AS (
  SELECT doc_id,
         len(regexp_split_to_array(trim(lower(text)), '\s+')) AS ntok
  FROM documents WHERE trim(coalesce(text, '')) <> ''
), c AS (
  SELECT doc_id, ntok,
         coalesce(sum(ntok) OVER (ORDER BY doc_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS cum0
  FROM t
)
SELECT doc_id, CAST(cum0 // 256 AS BIGINT) AS seq_id,
       CAST(cum0 % 256 AS BIGINT) AS seq_offset
FROM c
"""


def q_chunk_dedup(sf_dir: str):
    """Sub-document (paragraph-grain) exact dedup: one owner per
    distinct 32-token chunk content plus its corpus-wide copy count —
    the CCNet paragraph-hash dedup shape over the documents table."""
    from ...stages.chunks import chunk_dedup

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    return chunk_dedup(ds, "doc_id", "text", chunk_tokens=32)


SQL_CHUNK_DEDUP = r"""
WITH t AS (
  SELECT doc_id, regexp_split_to_array(trim(lower(text)), '\s+') AS arr
  FROM documents WHERE trim(coalesce(text, '')) <> ''),
chunks AS (
  SELECT doc_id, CAST((g - 1) // 32 AS BIGINT) AS chunk_id,
         string_agg(arr[g], ' ' ORDER BY g) AS chunk
  FROM t, unnest(generate_series(1, len(arr))) AS u(g)
  GROUP BY doc_id, CAST((g - 1) // 32 AS BIGINT))
SELECT doc_id, chunk_id, n_copies FROM (
  SELECT doc_id, chunk_id,
         CAST(count(*) OVER (PARTITION BY chunk) AS BIGINT) AS n_copies,
         row_number() OVER (PARTITION BY chunk
                            ORDER BY doc_id, chunk_id) AS rn
  FROM chunks)
WHERE rn = 1
"""


def q_boilerplate(sf_dir: str):
    """C4-style boilerplate detection at chunk grain: per-doc counts of
    32-token chunks whose content recurs in >= 2 distinct documents."""
    from ...stages.chunks import boilerplate_stats

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    return boilerplate_stats(ds, "doc_id", "text", chunk_tokens=32,
                             min_docs=2)


SQL_BOILERPLATE = r"""
WITH t AS (
  SELECT doc_id, regexp_split_to_array(trim(lower(text)), '\s+') AS arr
  FROM documents WHERE trim(coalesce(text, '')) <> ''),
chunks AS (
  SELECT doc_id, CAST((g - 1) // 32 AS BIGINT) AS chunk_id,
         string_agg(arr[g], ' ' ORDER BY g) AS chunk
  FROM t, unnest(generate_series(1, len(arr))) AS u(g)
  GROUP BY doc_id, CAST((g - 1) // 32 AS BIGINT)),
bo AS (
  SELECT chunk FROM chunks GROUP BY chunk
  HAVING count(DISTINCT doc_id) >= 2)
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_chunks,
       CAST(sum(CASE WHEN chunk IN (SELECT chunk FROM bo)
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_boiler
FROM chunks GROUP BY doc_id
HAVING sum(CASE WHEN chunk IN (SELECT chunk FROM bo)
                THEN 1 ELSE 0 END) > 0
"""


def q_setsim_join(sf_dir: str):
    """Prefix-filtered set-similarity self-join (AllPairs/PPJoin):
    all document pairs with word-3-gram-set Jaccard >= 0.6, exact —
    the prefix filter prunes candidates, never results."""
    from ...stages.setsim import setsim_join

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    return setsim_join(ds, "doc_id", "text", threshold=0.6, shingle_n=3)


SQL_SETSIM_JOIN = r"""
WITH t AS (
  SELECT doc_id, regexp_split_to_array(trim(lower(text)), '\s+') AS arr
  FROM documents WHERE trim(coalesce(text, '')) <> ''),
sh AS (
  SELECT DISTINCT doc_id,
         arr[g] || ' ' || arr[g + 1] || ' ' || arr[g + 2] AS shingle
  FROM t, unnest(generate_series(1, len(arr) - 2)) AS u(g)),
sz AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
shared AS (
  SELECT a.doc_id AS da, b.doc_id AS db, count(*) AS s
  FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
  GROUP BY 1, 2)
SELECT da AS doc_a, db AS doc_b,
       round(CAST(s AS DOUBLE) / (sa.n + sb.n - s), 6) AS jaccard
FROM shared
JOIN sz sa ON sa.doc_id = da
JOIN sz sb ON sb.doc_id = db
WHERE CAST(s AS DOUBLE) / (sa.n + sb.n - s) >= 0.6
"""


def q_nearest_dup(sf_dir: str):
    """Nearest-duplicate report: for every doc with at least one
    word-3-gram Jaccard >= 0.5 neighbor, its argmax-(jaccard desc,
    id asc) neighbor — the per-document "closest duplicate" diagnostic
    behind dedup threshold tuning.  EXACT by construction: pairs come
    from the prefix-filtered exact set-similarity join (never the
    approximate LSH path), so the SQL oracle reproduces it
    bit-for-bit; the argmax is a re-aggregable per-batch partial
    (batch-best rows only enter the one bucketed exchange — the
    mutual_best_match discipline)."""
    from ...stages.setsim import setsim_join
    from ...stages.shuffle import bucketed_map_groups

    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    pairs = setsim_join(ds, "doc_id", "text", threshold=0.5, shingle_n=3)

    def sym(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": np.concatenate([df["doc_a"].to_numpy(np.int64),
                                      df["doc_b"].to_numpy(np.int64)]),
            "nbr": np.concatenate([df["doc_b"].to_numpy(np.int64),
                                   df["doc_a"].to_numpy(np.int64)]),
            "jaccard": np.concatenate([df["jaccard"].to_numpy(),
                                       df["jaccard"].to_numpy()])})

    def best(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["doc_id", "jaccard", "nbr"],
                            ascending=[True, False, True],
                            kind="mergesort")
        return df.drop_duplicates("doc_id", ignore_index=True)

    partials = pairs.map_batches(sym, batch_format="pandas") \
        .map_batches(best, batch_format="pandas")
    return bucketed_map_groups(
        partials, ["doc_id"], best,
        empty_like=pd.DataFrame({"doc_id": np.empty(0, np.int64),
                                 "nbr": np.empty(0, np.int64),
                                 "jaccard": np.empty(0, np.float64)}))


SQL_NEAREST_DUP = r"""
WITH t AS (
  SELECT doc_id, regexp_split_to_array(trim(lower(text)), '\s+') AS arr
  FROM documents WHERE trim(coalesce(text, '')) <> ''),
sh AS (
  SELECT DISTINCT doc_id,
         arr[g] || ' ' || arr[g + 1] || ' ' || arr[g + 2] AS shingle
  FROM t, unnest(generate_series(1, len(arr) - 2)) AS u(g)),
sz AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
shared AS (
  SELECT a.doc_id AS da, b.doc_id AS db, count(*) AS s
  FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
  GROUP BY 1, 2),
pairs AS (
  SELECT da, db, round(CAST(s AS DOUBLE) / (sa.n + sb.n - s), 6) AS j
  FROM shared
  JOIN sz sa ON sa.doc_id = da
  JOIN sz sb ON sb.doc_id = db
  WHERE CAST(s AS DOUBLE) / (sa.n + sb.n - s) >= 0.5),
sym AS (
  SELECT da AS doc_id, db AS nbr, j FROM pairs
  UNION ALL
  SELECT db AS doc_id, da AS nbr, j FROM pairs)
SELECT doc_id, nbr, j AS jaccard
FROM (SELECT *, row_number() OVER (PARTITION BY doc_id
        ORDER BY j DESC, nbr) AS rn FROM sym)
WHERE rn = 1
"""


def q_source_overlap(sf_dir: str):
    """Cross-source duplicate-content matrix at 32-token chunk grain:
    distinct shared chunk contents per source pair
    (stages/chunks.py::source_overlap — digest-keyed shuffle, chunk
    text never moves, bounded per-pair counts to the driver)."""
    from ...stages.chunks import source_overlap

    return source_overlap(
        _rp(sf_dir, "documents", ["doc_id", "text", "source"]),
        "doc_id", "text", "source", chunk_tokens=32)


SQL_SOURCE_OVERLAP = r"""
WITH t AS (
  SELECT doc_id, regexp_split_to_array(trim(lower(text)), '\s+') AS arr
  FROM documents WHERE trim(coalesce(text, '')) <> ''),
chunks AS (
  SELECT doc_id, string_agg(arr[g], ' ' ORDER BY g) AS chunk
  FROM t, unnest(generate_series(1, len(arr))) AS u(g)
  GROUP BY doc_id, CAST((g - 1) // 32 AS BIGINT)),
dsrc AS (
  SELECT DISTINCT c.chunk, d.source
  FROM chunks c JOIN documents d USING (doc_id)),
p AS (
  SELECT a.source AS s1, b.source AS s2
  FROM dsrc a JOIN dsrc b
    ON a.chunk = b.chunk AND a.source < b.source)
SELECT s1, s2, CAST(count(*) AS BIGINT) AS shared_chunks
FROM p GROUP BY 1, 2
"""


def q_containment_sets(sf_dir: str):
    """Exact asymmetric set-containment join (|A∩B|/|A| >= 0.8 over
    word-3-gram sets): quotes/partial copies symmetric Jaccard misses
    (stages/setsim.py::containment_sets_join — A-prefix vs full-index
    candidates under the containment prefix lemma, exact verify via
    two digest joins)."""
    from ...stages.setsim import containment_sets_join

    return containment_sets_join(
        _rp(sf_dir, "documents", ["doc_id", "text"]),
        "doc_id", "text", threshold=0.8, shingle_n=3)


SQL_CONTAINMENT_SETS = r"""
WITH t AS (
  SELECT doc_id, regexp_split_to_array(trim(lower(text)), '\s+') AS arr
  FROM documents WHERE trim(coalesce(text, '')) <> ''),
sh AS (
  SELECT DISTINCT doc_id,
         arr[g] || ' ' || arr[g + 1] || ' ' || arr[g + 2] AS shingle
  FROM t, unnest(generate_series(1, len(arr) - 2)) AS u(g)),
sz AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
shared AS (
  SELECT a.doc_id AS da, b.doc_id AS db, count(*) AS s
  FROM sh a JOIN sh b ON a.shingle = b.shingle
                     AND a.doc_id <> b.doc_id
  GROUP BY 1, 2)
SELECT da AS doc_a, db AS doc_b,
       round(CAST(s AS DOUBLE) / za.n, 6) AS containment
FROM shared JOIN sz za ON za.doc_id = da
WHERE CAST(s AS DOUBLE) / za.n >= 0.8
"""


def q_hamming_pairs(sf_dir: str):
    """Exact Hamming-distance pair join over the fixed-format
    customer names (ids differing in at most 2 positions) — the
    identifier-typo case: pigeonhole segment blocking (max_dist+1
    contiguous segments; close pairs must agree on one whole
    segment), vectorized byte-matrix verify
    (stages/pairs.py::hamming_pairs)."""
    from ...stages.pairs import hamming_pairs

    return hamming_pairs(
        _rp(sf_dir, "customer", ["c_custkey", "c_name"]),
        "c_custkey", "c_name", max_dist=2)


SQL_HAMMING_PAIRS = """
SELECT a.c_custkey AS id_a, b.c_custkey AS id_b,
       CAST(hamming(a.c_name, b.c_name) AS BIGINT) AS dist
FROM customer a JOIN customer b
  ON a.c_custkey < b.c_custkey
 AND length(a.c_name) = length(b.c_name)
WHERE hamming(a.c_name, b.c_name) <= 2
"""


def q_dup_spans(sf_dir: str):
    """Exact-substring duplicate-span coverage (ExactSubstr shape, Lee
    et al. 2022, token-8-gram variant): per doc with >= 8 tokens,
    (doc_id, n_grams, n_dup_grams, dup_ratio) where a gram position is
    duplicated iff its 8-gram occurs >= 2 times anywhere in the corpus.
    Gram hash = DuckDB hash(), so the whole transform is SQL-oracled.
    Plan: per-batch (gram_hash, doc, n_pos) combiner -> ONE bucketed
    shuffle on gram_hash -> tiny per-doc sum + hash-join hydration."""
    from ...stages.textstats import dup_span_stats_stage

    return dup_span_stats_stage(_rp(sf_dir, "documents", ["doc_id", "text"]))


SQL_DUP_SPANS = r"""
WITH toks AS (
  SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS t
  FROM documents WHERE trim(coalesce(text, '')) <> ''
), pos AS (
  SELECT doc_id, t, len(t) - 7 AS n_grams,
         unnest(generate_series(1, len(t) - 7)) AS i
  FROM toks WHERE len(t) >= 8
), grams AS (
  SELECT doc_id, n_grams,
         hash(array_to_string(t[i:i+7], ' ')) AS h
  FROM pos
), cnt AS (
  SELECT h, count(*) AS n FROM grams GROUP BY h
)
SELECT g.doc_id,
       any_value(g.n_grams) AS n_grams,
       count(*) FILTER (WHERE c.n > 1) AS n_dup_grams,
       count(*) FILTER (WHERE c.n > 1) * 1.0 / any_value(g.n_grams)
         AS dup_ratio
FROM grams g JOIN cnt c ON g.h = c.h
GROUP BY g.doc_id
"""


def q_dup_span_removal(sf_dir: str):
    """ExactSubstr removal (Lee et al. 2022 output side): strip every
    token covered by a corpus-duplicated 8-gram; per non-empty doc emit
    (doc_id, clean_text, n_kept, n_removed).  Position vectors travel
    the gram shuffle as packed-int32 binary cells; span subtraction is
    map-side after a hash join back onto the documents."""
    from ...stages.textstats import dup_span_removal_stage

    return dup_span_removal_stage(
        _rp(sf_dir, "documents", ["doc_id", "text"]))


SQL_DUP_SPAN_REMOVAL = r"""
WITH toks AS (
  SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS t
  FROM documents WHERE trim(coalesce(text, '')) <> ''
), pos AS (
  SELECT doc_id, t, unnest(generate_series(1, len(t) - 7)) AS i
  FROM toks WHERE len(t) >= 8
), grams AS (
  SELECT doc_id, i, hash(array_to_string(t[i:i+7], ' ')) AS h
  FROM pos
), cnt AS (
  SELECT h, count(*) AS n FROM grams GROUP BY h
), dup AS (
  SELECT g.doc_id, g.i FROM grams g JOIN cnt c ON g.h = c.h
  WHERE c.n > 1
), cov AS (
  SELECT DISTINCT doc_id, unnest(generate_series(i, i + 7)) AS j
  FROM dup
), tok_rows AS (
  SELECT doc_id, t, unnest(generate_series(1, len(t))) AS j
  FROM toks
), marked AS (
  SELECT tr.doc_id, tr.j, tr.t[tr.j] AS tok,
         (c.j IS NOT NULL) AS covered
  FROM tok_rows tr
  LEFT JOIN cov c ON tr.doc_id = c.doc_id AND tr.j = c.j
)
SELECT doc_id,
       coalesce(string_agg(tok, ' ' ORDER BY j)
                  FILTER (WHERE NOT covered), '') AS clean_text,
       count(*) FILTER (WHERE NOT covered) AS n_kept,
       count(*) FILTER (WHERE covered) AS n_removed
FROM marked GROUP BY doc_id
"""


def q_edit_join(sf_dir: str):
    """Edit-distance similarity self-join (Ed-Join shape, Xiao et al.
    2008): all customer-name pairs with levenshtein <= 1, via q-gram
    PREFIX filtering — grams ordered by global frequency (rare first),
    each string emits only its q*d+1 = 3 rarest distinct bigrams, and
    candidates are pairs sharing a prefix gram (provably no false
    negatives; distinct-set prefixes of the same length dominate the
    multiset prefixes the theorem is stated on).  Verified 8.1x
    candidate ratio and 0 missed pairs vs the brute-force oracle at
    sf0.01.

    The 10^12-row shape: gram frequencies are a bounded combine (gram
    domain <= charset^2) broadcast once; prefix emission is a narrow
    map (3 rows/string); candidate generation is ONE bucketed shuffle
    on the gram (rare-first ordering keeps groups small — a skewed
    gram would route through the salted pair generator the flagship
    uses); verification hydrates names with two hash joins and runs a
    vectorized ed<=1 kernel (equal length -> Hamming; length diff 1 ->
    single-gap alignment)."""
    import ray

    from ...stages.relational import hash_join, partial_groupby_agg
    from ...stages.shuffle import bucketed_map_groups

    q, d = 2, 1
    ds = _rp(sf_dir, "customer", ["c_custkey", "c_name"])

    # overlapping q-grams in one vectorized findall (lookahead keeps
    # the window sliding); per-name DISTINCT via drop_duplicates —
    # no Python loop over names in either corpus pass.  (?s) so '.'
    # crosses newlines: a dropped gram would shrink a name's gram set
    # below the q*d+1 bound the prefix filter's no-false-negative
    # guarantee assumes
    _GRAM_RE = "(?s)(?=(" + "." * q + "))"

    def gram_counts(df: pd.DataFrame) -> pd.DataFrame:
        s = (df["c_name"].astype("string").fillna("")
             .reset_index(drop=True))
        ex = s.str.findall(_GRAM_RE).explode().dropna()
        d = pd.DataFrame({"row": ex.index.to_numpy(),
                          "g": ex.to_numpy(dtype=object)}
                         ).drop_duplicates()
        c = d.groupby("g", sort=False).size()
        return pd.DataFrame({"g": c.index.to_numpy(dtype=object),
                             "n": c.to_numpy(np.int64)})

    freq = partial_groupby_agg(
        ds.map_batches(gram_counts, batch_format="pandas"),
        ["g"], {"n": ("n", "sum")})
    freq_ref = ray.put(dict(zip(freq["g"], freq["n"].astype(int))))

    def prefixes(df: pd.DataFrame) -> pd.DataFrame:
        fr = ray.get(freq_ref)
        s = (df["c_name"].astype("string").fillna("")
             .reset_index(drop=True))
        keys = df["c_custkey"].to_numpy(np.int64)
        ex = s.str.findall(_GRAM_RE).explode().dropna()
        t = pd.DataFrame({"row": ex.index.to_numpy(),
                          "g": ex.to_numpy(dtype=object)}
                         ).drop_duplicates()
        t["n"] = t["g"].map(fr).to_numpy(np.int64)
        # rarest-first (n, g) order, keep each name's q*d+1 prefix
        t = t.sort_values(["row", "n", "g"], kind="mergesort")
        t = t[t.groupby("row", sort=False).cumcount() < q * d + 1]
        return pd.DataFrame({"g": t["g"].to_numpy(dtype=object),
                             "k": keys[t["row"].to_numpy()]})

    pref = ds.map_batches(prefixes, batch_format="pandas")

    def gram_pairs(df: pd.DataFrame) -> pd.DataFrame:
        out_i, out_j = [], []
        for _, grp in df.groupby("g", sort=False)["k"]:
            if len(grp) < 2:
                continue
            a = np.sort(grp.to_numpy(np.int64))
            iu, ju = np.triu_indices(len(a), 1)
            out_i.append(a[iu])
            out_j.append(a[ju])
        if not out_i:
            return pd.DataFrame({"i": pd.Series([], dtype="int64"),
                                 "j": pd.Series([], dtype="int64")})
        return pd.DataFrame({"i": np.concatenate(out_i),
                             "j": np.concatenate(out_j)})

    cand = bucketed_map_groups(pref, ["g"], gram_pairs, num_buckets=32)
    cand = bucketed_map_groups(
        cand, ["i", "j"],
        lambda df: df.drop_duplicates(["i", "j"]), num_buckets=16)

    def _rename(col_k: str, col_n: str):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                col_k: df["c_custkey"].astype("int64"),
                col_n: df["c_name"].astype(object)})
        return fn

    na = ds.map_batches(_rename("i", "n_i"), batch_format="pandas")
    nb = ds.map_batches(_rename("j", "n_j"), batch_format="pandas")
    hyd = hash_join(hash_join(cand, na, on=["i"]), nb, on=["j"])

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        eds = np.full(len(df), 2, dtype=np.int64)  # 2 = "> 1"
        for r, (a, b) in enumerate(zip(df["n_i"].to_numpy(object),
                                       df["n_j"].to_numpy(object))):
            la, lb = len(a), len(b)
            if la == lb:
                mism = sum(x != y for x, y in zip(a, b))
                if mism <= 1:
                    eds[r] = mism
            elif abs(la - lb) == 1:
                if la > lb:
                    a, b = b, a
                    la, lb = lb, la
                # single-gap alignment: skip one char of the longer
                p = 0
                while p < la and a[p] == b[p]:
                    p += 1
                if a[p:] == b[p + 1:]:
                    eds[r] = 1
        keep = eds <= d
        return pd.DataFrame({"i": df["i"].to_numpy(np.int64)[keep],
                             "j": df["j"].to_numpy(np.int64)[keep],
                             "ed": eds[keep]})

    return hyd.map_batches(verify, batch_format="pandas")


SQL_EDIT_JOIN = r"""
WITH p AS (SELECT c_custkey AS k, c_name AS n FROM customer)
SELECT a.k AS i, b.k AS j, levenshtein(a.n, b.n) AS ed
FROM p a JOIN p b ON a.k < b.k
WHERE levenshtein(a.n, b.n) <= 1
"""


def q_burst_dedup(sf_dir: str):
    """Windowed burst dedup (D1 at event-stream scale): within each
    (user, event_type), drop an event arriving within 600 s of its
    predecessor in (ts, event_id) order — the standard lag-window
    formulation (each row compares to its immediate predecessor,
    dropped or not).  ONE hash shuffle on the composite key, then a
    vectorized groupby-shift per bucket."""
    from ...stages.shuffle import bucketed_map_groups

    ev = _rp(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])
    gap = pd.Timedelta(seconds=600)

    def bucket_fn(df: pd.DataFrame) -> pd.DataFrame:
        out_cols = ["event_id", "user_id"]
        if len(df) == 0:
            return df[out_cols]
        df = df.sort_values(["user_id", "event_type", "ts", "event_id"],
                            kind="mergesort")
        prev = df.groupby(["user_id", "event_type"], sort=False)["ts"] \
                 .shift(1)
        keep = prev.isna() | ((df["ts"] - prev) > gap)
        return df.loc[keep, out_cols]

    return bucketed_map_groups(
        ev, ["user_id", "event_type"], bucket_fn,
        empty_like=pd.DataFrame({"event_id": np.empty(0, np.int64),
                                 "user_id": np.empty(0, np.int64)}))


SQL_BURST_DEDUP = """
WITH w AS (
  SELECT event_id, user_id, ts,
         lag(ts) OVER (PARTITION BY user_id, event_type
                       ORDER BY ts, event_id) AS pts
  FROM events)
SELECT event_id, user_id FROM w
WHERE pts IS NULL OR ts - pts > INTERVAL 600 SECOND
"""


def q_ncd_pairs(sf_dir: str):
    """Normalized compression distance near-dup pairs (Cilibrasi &
    Vitanyi 2005; the parameter-free similarity used in curation
    literature when token models fail): within-source pairs whose
    n_chars differ by <= 2, NCD = (C(xy) - min(Cx, Cy)) / max(Cx, Cy)
    under zlib level 9.  Rows-only driver check (SQL has no
    compressor); brute-force-pinned in tests/test_ncd.py.

    Scale plan: blocking (source) + the length-band candidate filter
    bound per-group pairs (NCD of very different-length strings is
    meaningless, so the band is semantic, not just cheap); per-member
    compressed sizes are computed once, and the O(band-pairs) concat
    compressions are single C calls.  Group output is final — no
    driver state, no second shuffle."""
    import zlib

    from ...stages.shuffle import bucketed_map_groups

    ds = _rp(sf_dir, "documents", ["doc_id", "text", "source", "n_chars"])

    empty = pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                          "id_b": pd.Series([], dtype="int64"),
                          "ncd": pd.Series([], dtype="float64")})

    def block(df: pd.DataFrame) -> pd.DataFrame:
        parts = []
        for _, g in df.groupby("source", sort=False):
            m = len(g)
            if m < 2:
                continue
            g = g.sort_values(["n_chars", "doc_id"],
                              kind="mergesort").reset_index(drop=True)
            nc = g["n_chars"].to_numpy(dtype=np.int64)
            hi = np.searchsorted(nc, nc + 2, side="right")
            cnt = np.maximum(hi - np.arange(m) - 1, 0)
            total = int(cnt.sum())
            if total == 0:
                continue
            i_idx = np.repeat(np.arange(m), cnt)
            j_idx = (np.arange(total)
                     - np.repeat(cnt.cumsum() - cnt, cnt)
                     + i_idx + 1)
            raw = [s.encode("utf-8", "surrogatepass")
                   for s in g["text"].astype("string").fillna("")]
            cx = np.array([len(zlib.compress(b, 9)) for b in raw],
                          dtype=np.float64)
            cxy = np.array([len(zlib.compress(raw[i] + raw[j], 9))
                            for i, j in zip(i_idx, j_idx)],
                           dtype=np.float64)
            ncd = ((cxy - np.minimum(cx[i_idx], cx[j_idx]))
                   / np.maximum(cx[i_idx], cx[j_idx]))
            ids = g["doc_id"].to_numpy(dtype=np.int64)
            a, b = ids[i_idx], ids[j_idx]
            parts.append(pd.DataFrame({"id_a": np.minimum(a, b),
                                       "id_b": np.maximum(a, b),
                                       "ncd": np.round(ncd, 6)}))
        if not parts:
            return empty
        return pd.concat(parts, ignore_index=True)

    return bucketed_map_groups(ds, ["source"], block, num_buckets=32,
                               empty_like=empty)


def q_minhash_pairs(sf_dir: str):
    """MinHash similarity estimate with an EXACT cross-engine oracle:
    16-component md5 MinHash signatures per document, within-source
    pairs whose matching-component count >= 8 (est >= 0.5).

    This pins the MinHash *math* itself under the driver's value-hash
    gate — the flagship's signatures use a faster numpy 64-bit mixer
    (stages/blocking.py) whose estimates are checked statistically;
    here the hash is md5 so DuckDB reproduces every component
    bit-for-bit (md5_number_lower twin above).

    Scale plan: signatures are MAP-ONLY (a doc's tokens live in its
    row; md5 is one C call per unique-token x seed, k=16); only the
    m x 16 signature matrix enters the blocking-group shuffle — text
    never moves.  Per group the component-match count is a vectorized
    (m x m x 16) broadcast compare.  The real system replaces the
    within-block all-pairs with LSH banding (stages/pairs.py); this
    query is the banding's ground-truth twin at block grain."""
    from ...stages.shuffle import bucketed_map_groups

    k = 16
    sigs = _minhash_signatures(
        _rp(sf_dir, "documents", ["doc_id", "text", "source"]), k)

    empty = pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                          "id_b": pd.Series([], dtype="int64"),
                          "eq": pd.Series([], dtype="int64"),
                          "est": pd.Series([], dtype="float64")})

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        parts = []
        for _, g in df.groupby("source", sort=False):
            m = len(g)
            if m < 2:
                continue
            g = g.sort_values("doc_id", kind="mergesort")
            iu, ju, eq = _minhash_block_pairs(g, k)
            keep = eq >= k // 2
            if not keep.any():
                continue
            ids = g["doc_id"].to_numpy(dtype=np.int64)
            parts.append(pd.DataFrame({
                "id_a": ids[iu[keep]], "id_b": ids[ju[keep]],
                "eq": eq[keep],
                "est": np.round(eq[keep] / float(k), 6)}))
        return pd.concat(parts, ignore_index=True) if parts else empty

    return bucketed_map_groups(sigs, ["source"], pairs, num_buckets=32,
                               empty_like=empty)


SQL_MINHASH_PAIRS = r"""
WITH t AS (
  SELECT doc_id, source,
         unnest(list_distinct(regexp_extract_all(lower(coalesce(text, '')),
                                                 '[a-z0-9]+'))) AS tok
  FROM documents),
s AS (SELECT unnest(range(16)) AS seed),
m AS (SELECT doc_id, source, seed,
             min(md5_number_lower(tok || '#' || seed)) AS mh
      FROM t CROSS JOIN s GROUP BY 1, 2, 3),
p AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b,
             count(*) FILTER (WHERE a.mh = b.mh) AS eq
      FROM m a JOIN m b ON b.source = a.source AND b.seed = a.seed
                        AND b.doc_id > a.doc_id
      GROUP BY 1, 2)
SELECT id_a, id_b, eq, round(eq / 16.0, 6) AS est FROM p WHERE eq >= 8
"""


def q_fingerprint_cluster(sf_dir: str):
    """OpenRefine-style key-collision clustering (the 'cluster & edit'
    cleanup primitive): every value whose FINGERPRINT — sorted unique
    lowercase tokens rejoined — collides with another distinct raw
    value is a merge candidate.  Variants are each part name plus its
    word-ROTATED twin (same token set, different surface), the twin
    fixture discipline, so the collision set is engine-independent.

    Scale plan: the fingerprint is a map-only vectorized pass; only
    (fp, raw) moves through ONE bucketed shuffle on fp, and each group
    collapses to a single (fp, n_rows, n_variants) row — the classic
    count-distinct co-location, output bounded by colliding keys."""
    from ...stages.shuffle import bucketed_map_groups

    parts = _rp(sf_dir, "part", ["p_partkey", "p_name"])

    def variants(df: pd.DataFrame) -> pd.DataFrame:
        name = df["p_name"].astype("string")
        arr = name.str.split(" ")
        ok = (arr.str.len() >= 2).fillna(False).to_numpy(bool)
        rot = (arr[ok].str[1:].str.join(" ") + " " + arr[ok].str[0])
        raw = np.concatenate([name.to_numpy(dtype=object),
                              rot.to_numpy(dtype=object)])
        fps = (pd.Series(raw, dtype="string").str.lower()
               .str.findall(r"[a-z0-9]+")
               .map(lambda t: " ".join(sorted(set(t))))
               .to_numpy(dtype=object))
        return pd.DataFrame({"fp": fps, "raw": raw})

    v = parts.map_batches(variants, batch_format="pandas")

    empty = pd.DataFrame({"fp": pd.Series([], dtype="object"),
                          "n_rows": pd.Series([], dtype="int64"),
                          "n_variants": pd.Series([], dtype="int64")})

    def collapse(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fp", sort=False)["raw"]
        out = pd.DataFrame({"n_rows": g.size(), "n_variants": g.nunique()})
        out = out[out["n_variants"] > 1].reset_index()
        return out[["fp", "n_rows", "n_variants"]]

    return bucketed_map_groups(v, ["fp"], collapse, num_buckets=64,
                               empty_like=empty)


SQL_FINGERPRINT_CLUSTER = r"""
WITH v AS (
  SELECT p_name AS raw FROM part
  UNION ALL
  SELECT array_to_string(list_concat(arr[2:], [arr[1]]), ' ') AS raw
  FROM (SELECT string_split(p_name, ' ') AS arr FROM part)
  WHERE len(arr) >= 2),
f AS (
  SELECT raw,
         array_to_string(list_sort(list_distinct(
             regexp_extract_all(lower(raw), '[a-z0-9]+'))), ' ') AS fp
  FROM v)
SELECT fp, count(*) AS n_rows, count(DISTINCT raw) AS n_variants
FROM f GROUP BY fp HAVING count(DISTINCT raw) > 1
"""


def q_smith_waterman(sf_dir: str):
    """Affine-gap Smith-Waterman (Gotoh) local-alignment similarity on
    the corrupted-twin name pairs — the alignment family's third
    member next to partial_ratio (plain local Levenshtein) and
    Monge-Elkan (token alignment).  ORACLED (round-5, upgraded from
    rows-only): the oracle runs the SAME Gotoh DP as a recursive CTE
    over anti-diagonals — each iteration derives diagonal d+1 from one
    scan of the carried (d, d-1) cell rows via a role-expansion join
    (left/up/diag/keep/boundary), with all scores exact multiples of
    0.5 so comparisons cannot drift.  Recurrence also pinned against
    an independent scalar DP in tests/test_gotoh.py.

    Scale: pure map — the batched kernel runs the DP loops over padded
    name lengths once per batch with every cell update vectorized
    across the pair axis (functions/similarity.py::
    gotoh_local_similarity)."""
    from ...functions.similarity import gotoh_local_similarity

    parts = _rp(sf_dir, "part", ["p_partkey", "p_name"])

    def score(df: pd.DataFrame) -> pd.DataFrame:
        pairs = _corrupted_twin_pairs(df, id_out="pair_id")
        sim = gotoh_local_similarity(pairs["name_a"].to_numpy(object),
                                     pairs["name_b"].to_numpy(object))
        return pd.DataFrame({"pair_id": pairs["pair_id"].to_numpy(),
                             "sim": np.round(sim, 6)})

    return parts.map_batches(score, batch_format="pandas")


SQL_SMITH_WATERMAN = r"""
WITH RECURSIVE
base AS (
  SELECT p_partkey, p_name, string_split(p_name, ' ') AS arr
  FROM part),
pr AS (
  SELECT p_partkey AS pair_id, p_name AS name_a,
         arr[2] || ' ' ||
         substr(arr[1], 1,
                CAST(p_partkey % length(arr[1]) AS INT)) ||
         substr(arr[1],
                CAST(p_partkey % length(arr[1]) AS INT) + 2) AS name_b
  FROM base
  WHERE len(arr) >= 2 AND length(arr[1]) > 0),
dims AS (SELECT pair_id, name_a, name_b,
                length(name_a) AS la, length(name_b) AS lb,
                length(name_a) + length(name_b) AS lt
         FROM pr),
subm AS (SELECT d.pair_id, CAST(i.i AS INT) AS i, CAST(j.j AS INT) AS j,
                CASE WHEN substr(d.name_a, CAST(i.i AS INT), 1)
                          = substr(d.name_b, CAST(j.j AS INT), 1)
                     THEN 2.0 ELSE -1.0 END AS s
         FROM dims d,
              unnest(range(1, d.la + 1)) AS i(i),
              unnest(range(1, d.lb + 1)) AS j(j)),
roles(role, di) AS (VALUES ('L', 0), ('U', 1), ('D', 1),
                           ('K', 0), ('BV', 1), ('BH', 0)),
dp AS (
  SELECT d.pair_id, 0 AS dg, 0 AS i, 0 AS j,
         CAST(0.0 AS DOUBLE) AS h, CAST(-1e18 AS DOUBLE) AS e,
         CAST(-1e18 AS DOUBLE) AS f, 0 AS g,
         d.la, d.lb, d.lt
  FROM dims d
  UNION ALL
  SELECT c.pair_id,
         CASE WHEN c.kk THEN c.dg0 ELSE c.dg0 + 1 END AS dg,
         c.ti AS i,
         CASE WHEN c.kk THEN c.kj
              WHEN c.bv THEN 0
              WHEN c.bh THEN c.dg0 + 1
              ELSE c.dg0 + 1 - c.ti END AS j,
         CASE WHEN c.kk THEN c.kh
              WHEN c.bv OR c.bh THEN 0.0
              ELSE greatest(0.0,
                            coalesce(c.h_diag + sb.s, -1e18),
                            coalesce(c.e_new, -1e18),
                            coalesce(c.f_new, -1e18)) END AS h,
         CASE WHEN c.kk THEN c.ke
              WHEN c.bv OR c.bh THEN -1e18
              ELSE coalesce(c.e_new, -1e18) END AS e,
         CASE WHEN c.kk THEN c.kf
              WHEN c.bv OR c.bh THEN -1e18
              ELSE coalesce(c.f_new, -1e18) END AS f,
         CASE WHEN c.kk THEN 1 ELSE 0 END AS g,
         c.la, c.lb, c.lt
  FROM (
    SELECT w.pair_id,
           (r.role = 'K') AS kk,
           (r.role = 'BV') AS bv,
           (r.role = 'BH') AS bh,
           max(w.dg) AS dg0,
           w.i + r.di AS ti,
           CASE WHEN r.role = 'K' THEN w.j ELSE -1 END AS kj,
           max(CASE WHEN r.role = 'K' THEN w.h END) AS kh,
           max(CASE WHEN r.role = 'K' THEN w.e END) AS ke,
           max(CASE WHEN r.role = 'K' THEN w.f END) AS kf,
           greatest(max(CASE WHEN r.role = 'L' THEN w.h END) - 2.0,
                    max(CASE WHEN r.role = 'L' THEN w.e END) - 0.5)
               AS e_new,
           greatest(max(CASE WHEN r.role = 'U' THEN w.h END) - 2.0,
                    max(CASE WHEN r.role = 'U' THEN w.f END) - 0.5)
               AS f_new,
           max(CASE WHEN r.role = 'D' THEN w.h END) AS h_diag,
           max(w.la) AS la, max(w.lb) AS lb, max(w.lt) AS lt
    FROM dp w
    JOIN roles r
      ON (r.role IN ('L', 'U') AND w.g = 0)
      OR (r.role = 'D' AND w.g = 1)
      OR (r.role = 'K' AND w.g = 0 AND w.dg + 2 <= w.lt)
      OR (r.role = 'BV' AND w.g = 0 AND w.j = 0 AND w.i + 1 <= w.la)
      OR (r.role = 'BH' AND w.g = 0 AND w.i = 0 AND w.j + 1 <= w.lb)
    WHERE w.dg + 1 <= w.lt
    GROUP BY w.pair_id, (r.role = 'K'), (r.role = 'BV'),
             (r.role = 'BH'), w.i + r.di,
             CASE WHEN r.role = 'K' THEN w.j ELSE -1 END
  ) c
  LEFT JOIN subm sb ON sb.pair_id = c.pair_id AND sb.i = c.ti
                    AND sb.j = c.dg0 + 1 - c.ti
  WHERE c.kk OR c.bv OR c.bh
     OR (c.ti >= 1 AND c.dg0 + 1 - c.ti >= 1
         AND c.ti <= c.la AND c.dg0 + 1 - c.ti <= c.lb)
),
best AS (SELECT pair_id, max(h) AS b, max(la) AS la, max(lb) AS lb
         FROM dp WHERE g = 0 GROUP BY 1)
SELECT CAST(pair_id AS BIGINT) AS pair_id,
       round(least(greatest(b / (2.0 * greatest(least(la, lb), 1)),
                            0.0), 1.0), 6) AS sim
FROM best
"""


def q_dup_rate_by_source(sf_dir: str):
    """Per-source duplicate-lead rate — share of documents whose
    8-token opening prefix recurs elsewhere in the corpus (the cheap
    near-dup telemetry a curation dashboard tracks per provider;
    exact-body dup rate is zero on this corpus by construction, the
    prefix grain is where the planted near-dups collide).  One digest
    co-location shuffle marks recurring prefixes; per-source rates
    come from the shuffle-free combiner."""
    from ...stages.shuffle import bucketed_map_groups

    docs = _rp(sf_dir, "documents", ["text", "source"])

    def digests(df: pd.DataFrame) -> pd.DataFrame:
        toks = (df["text"].astype("string").fillna("").str.lower()
                .str.findall(r"[a-z0-9]+").str[:8].str.join(" "))
        return pd.DataFrame({"source": df["source"].to_numpy(object),
                             "dig": toks.to_numpy(object)})

    empty = pd.DataFrame({"source": pd.Series([], dtype="object"),
                          "n_docs": pd.Series([], dtype="int64"),
                          "n_dup": pd.Series([], dtype="int64")})

    def mark(df: pd.DataFrame) -> pd.DataFrame:
        c = df.groupby("dig", sort=False)["dig"].transform("size")
        out = pd.DataFrame({"source": df["source"].to_numpy(object),
                            "dup": (c > 1).to_numpy()})
        g = out.groupby("source", sort=False)["dup"]
        return pd.DataFrame({"n_docs": g.size(),
                             "n_dup": g.sum().astype(np.int64)}) \
            .reset_index()

    per_src = rel.partial_groupby_agg(
        bucketed_map_groups(
            docs.map_batches(digests, batch_format="pandas"),
            ["dig"], mark, num_buckets=64, empty_like=empty),
        ["source"], {"n_docs": ("n_docs", "sum"),
                     "n_dup": ("n_dup", "sum")})
    per_src["dup_rate"] = np.round(
        per_src["n_dup"].to_numpy(np.float64)
        / per_src["n_docs"].to_numpy(np.float64), 6)
    return per_src


SQL_DUP_RATE_BY_SOURCE = r"""
WITH h AS (SELECT source,
           array_to_string((regexp_extract_all(lower(coalesce(text, '')),
                                               '[a-z0-9]+'))[1:8],
                           ' ') AS dig
           FROM documents),
g AS (SELECT dig, count(*) AS c FROM h GROUP BY 1)
SELECT source,
       count(*) AS n_docs,
       count(*) FILTER (WHERE g.c > 1) AS n_dup,
       round(count(*) FILTER (WHERE g.c > 1)::DOUBLE / count(*), 6)
           AS dup_rate
FROM h JOIN g USING (dig)
GROUP BY source
"""


def q_damerau_join(sf_dir: str):
    """Damerau-Levenshtein <= 1 similarity self-join over customer
    names via DELETION-NEIGHBORHOOD blocking (FastSS, Bocek et al.
    2007 / SymSpell): each name emits itself plus its L one-deletion
    variants; any pair within full DL 1 (substitution, adjacent
    transposition, or single indel) provably shares a variant, so
    candidates are pairs co-located on a variant key and NO brute
    cross join ever forms.  Verification is the vectorized closed-form
    capped-DL kernel (functions/similarity.py::damerau_leq1, DuckDB
    parity fuzz-pinned).

    The 10^12-row shape: variant emission is a narrow map (L+1 short
    rows per name); candidate generation is ONE bucketed shuffle on
    the variant string whose group sizes are bounded by the deletion
    neighborhood's fan-in (~alphabet x positions, not corpus size); a
    skewed variant would route through the salted pair generator the
    flagship uses.  Complements edit_join (Levenshtein q-gram prefix
    filtering) with the transposition-aware metric ER actually wants
    for typo'd names."""
    from ...functions.similarity import damerau_leq1
    from ...stages.relational import hash_join
    from ...stages.shuffle import bucketed_map_groups

    ds = _rp(sf_dir, "customer", ["c_custkey", "c_name"])

    def variants(df: pd.DataFrame) -> pd.DataFrame:
        s = df["c_name"].astype("string").fillna("")
        keys = df["c_custkey"].to_numpy(np.int64)
        parts = [pd.DataFrame({"v": s.to_numpy(object), "k": keys})]
        w = int(s.str.len().max() or 0)
        for i in range(w):
            m = (s.str.len() > i).to_numpy()
            if not m.any():
                continue
            d = (s.str.slice(0, i) + s.str.slice(i + 1))[m]
            parts.append(pd.DataFrame({"v": d.to_numpy(object),
                                       "k": keys[m]}))
        return pd.concat(parts, ignore_index=True).drop_duplicates()

    var = ds.map_batches(variants, batch_format="pandas")

    def var_pairs(df: pd.DataFrame) -> pd.DataFrame:
        out_i, out_j = [], []
        for _, grp in df.groupby("v", sort=False)["k"]:
            if len(grp) < 2:
                continue
            a = np.sort(grp.to_numpy(np.int64))
            iu, ju = np.triu_indices(len(a), 1)
            out_i.append(a[iu])
            out_j.append(a[ju])
        if not out_i:
            return pd.DataFrame({"i": pd.Series([], dtype="int64"),
                                 "j": pd.Series([], dtype="int64")})
        return pd.DataFrame({"i": np.concatenate(out_i),
                             "j": np.concatenate(out_j)})

    cand = bucketed_map_groups(var, ["v"], var_pairs, num_buckets=32)
    cand = bucketed_map_groups(
        cand, ["i", "j"],
        lambda df: df.drop_duplicates(["i", "j"]), num_buckets=16)

    def _rename(col_k: str, col_n: str):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                col_k: df["c_custkey"].astype("int64"),
                col_n: df["c_name"].astype(object)})
        return fn

    na = ds.map_batches(_rename("i", "n_i"), batch_format="pandas")
    nb = ds.map_batches(_rename("j", "n_j"), batch_format="pandas")
    hyd = hash_join(hash_join(cand, na, on=["i"]), nb, on=["j"])

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        dl = damerau_leq1(df["n_i"], df["n_j"])
        keep = dl <= 1
        return pd.DataFrame({"i": df["i"].to_numpy(np.int64)[keep],
                             "j": df["j"].to_numpy(np.int64)[keep],
                             "dl": dl[keep]})

    return hyd.map_batches(verify, batch_format="pandas")


SQL_DAMERAU_JOIN = r"""
WITH p AS (SELECT c_custkey AS k, c_name AS n FROM customer)
SELECT a.k AS i, b.k AS j, damerau_levenshtein(a.n, b.n) AS dl
FROM p a JOIN p b ON a.k < b.k
WHERE damerau_levenshtein(a.n, b.n) <= 1
"""


def q_char_jaccard_pairs(sf_dir: str):
    """Character-set Jaccard similarity self-join within market-segment
    blocks (DuckDB ``jaccard()`` semantics: DISTINCT-byte-set overlap,
    case-sensitive).  Each string folds to a 256-bit mask (4 uint64
    words); per block the pair scan is pure bitwise AND/OR + popcount
    over the mask matrix, chunked along the left index so a block of g
    rows costs O(g^2) words but only O(chunk x g) resident memory.

    Scale contract: block = c_mktsegment (bounded domain); blocks that
    grow with the corpus must pre-split through the salted pair
    generator (stages/pairs.py) exactly like ngram_jaccard — the mask
    fold itself is O(1) per string regardless of corpus size."""
    from ...functions.similarity import charset_masks, popcount_rows
    from ...stages.shuffle import bucketed_map_groups

    thr = 0.9
    ds = _rp(sf_dir, "customer",
             ["c_custkey", "c_name", "c_mktsegment"])

    def block_pairs(df: pd.DataFrame) -> pd.DataFrame:
        out_i, out_j, out_s = [], [], []
        for _, grp in df.groupby("c_mktsegment", sort=False):
            g = len(grp)
            if g < 2:
                continue
            order = np.argsort(grp["c_custkey"].to_numpy(np.int64),
                               kind="mergesort")
            keys = grp["c_custkey"].to_numpy(np.int64)[order]
            masks = charset_masks(grp["c_name"])[order]
            for lo in range(0, g - 1, 512):
                hi = min(lo + 512, g - 1)
                blk = masks[lo:hi, None, :]          # (c, 1, 4)
                inter = popcount_rows(
                    (blk & masks[None, :, :]).reshape(-1, 4)
                ).reshape(hi - lo, g)
                union = popcount_rows(
                    (blk | masks[None, :, :]).reshape(-1, 4)
                ).reshape(hi - lo, g)
                sim = inter / np.maximum(union, 1)
                rows, cols = np.nonzero(sim >= thr)
                upper = cols > rows + lo             # strict i < j
                rows, cols = rows[upper], cols[upper]
                out_i.append(keys[rows + lo])
                out_j.append(keys[cols])
                out_s.append(sim[rows, cols])
        if not out_i:
            return pd.DataFrame({"i": pd.Series([], dtype="int64"),
                                 "j": pd.Series([], dtype="int64"),
                                 "jac": pd.Series([], dtype="float64")})
        return pd.DataFrame({"i": np.concatenate(out_i),
                             "j": np.concatenate(out_j),
                             "jac": np.round(np.concatenate(out_s), 6)})

    return bucketed_map_groups(ds, ["c_mktsegment"], block_pairs,
                               num_buckets=8)


SQL_CHAR_JACCARD_PAIRS = r"""
WITH p AS (SELECT c_custkey AS k, c_name AS n, c_mktsegment AS s
           FROM customer)
SELECT a.k AS i, b.k AS j, round(jaccard(a.n, b.n), 6) AS jac
FROM p a JOIN p b ON a.s = b.s AND a.k < b.k
WHERE jaccard(a.n, b.n) >= 0.9
"""


def q_weighted_jaccard(sf_dir: str):
    """Exact WEIGHTED Jaccard pair join over tf vectors
    (Σ min(tf_a, tf_b) / Σ max) for the doc_id<40 probe set, J ≥ 0.5 —
    the exact baseline the ICWS sketch estimates.  Distributed shape:
    (doc, term, tf) cells co-locate by TERM (pair partials
    Σ min(tf_a, tf_b) emitted inside each term group — k ≤ probe-set
    docs per term), one (a, b)-keyed merge sums them, doc norms ride a
    tiny broadcast; identical integer arithmetic on both engines makes
    the J ≥ 0.5 cut exact."""
    from ...stages.shuffle import bucketed_map_groups

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    docs = docs.map_batches(
        lambda t: t.filter(pc.less(t["doc_id"], 40)),
        batch_format="pyarrow")

    def cells(df: pd.DataFrame) -> pd.DataFrame:
        toks = ts._ws_tokens(df["text"]).reset_index(drop=True)
        ex = toks.explode().dropna()
        if ex.empty:
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "term": pd.Series([], dtype="string"),
                                 "tf": pd.Series([], dtype="int64")})
        ids = df["doc_id"].to_numpy(np.int64)
        c = (pd.DataFrame({"row": ex.index.to_numpy(),
                           "term": ex.to_numpy(object)})
             .groupby(["row", "term"], sort=False).size()
             .reset_index(name="tf"))
        return pd.DataFrame({
            "doc_id": ids[c["row"].to_numpy()],
            "term": c["term"].astype("string").to_numpy(),
            "tf": c["tf"].astype("int64").to_numpy()})

    cell_ds = docs.map_batches(cells, batch_format="pandas") \
        .materialize()
    norms = dict(
        rel.partial_groupby_agg(cell_ds, ["doc_id"],
                                {"s": ("tf", "sum")})
        .set_index("doc_id")["s"])

    def term_pairs(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, g in df.groupby("term", sort=False):
            if len(g) < 2:
                continue
            g = g.sort_values("doc_id", kind="mergesort")
            ids = g["doc_id"].to_numpy(np.int64)
            tf = g["tf"].to_numpy(np.int64)
            iu, ju = np.triu_indices(len(g), k=1)
            outs.append(pd.DataFrame({
                "a": ids[iu], "b": ids[ju],
                "smin": np.minimum(tf[iu], tf[ju])}))
        if not outs:
            return pd.DataFrame({"a": pd.Series([], dtype="int64"),
                                 "b": pd.Series([], dtype="int64"),
                                 "smin": pd.Series([], dtype="int64")})
        return pd.concat(outs, ignore_index=True)

    partials = bucketed_map_groups(cell_ds, ["term"], term_pairs,
                                   num_buckets=64)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["a", "b"], sort=False)["smin"].sum() \
            .reset_index()
        na = g["a"].map(norms).to_numpy(np.float64)
        nb = g["b"].map(norms).to_numpy(np.float64)
        smin = g["smin"].to_numpy(np.float64)
        j = smin / (na + nb - smin)
        out = pd.DataFrame({"doc_a": g["a"].to_numpy(np.int64),
                            "doc_b": g["b"].to_numpy(np.int64),
                            "wj": np.round(j, 6)})
        return out[j >= 0.5]

    return bucketed_map_groups(
        partials, ["a", "b"], finish, num_buckets=32,
        empty_like=pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                                 "doc_b": pd.Series([], dtype="int64"),
                                 "wj": pd.Series([], dtype="float64")}))


SQL_WEIGHTED_JACCARD = r"""
WITH toks AS (
  SELECT doc_id, term, count(*) AS tf FROM (
    SELECT doc_id,
           unnest(regexp_split_to_array(trim(lower(text)), '\s+'))
               AS term
    FROM documents
    WHERE trim(coalesce(text, '')) <> '' AND doc_id < 40)
  GROUP BY 1, 2),
norm AS (SELECT doc_id, sum(tf) AS s FROM toks GROUP BY 1),
p AS (SELECT a.doc_id AS a, b.doc_id AS b,
             sum(least(a.tf, b.tf)) AS smin
      FROM toks a JOIN toks b
        ON a.term = b.term AND a.doc_id < b.doc_id
      GROUP BY 1, 2)
SELECT a AS doc_a, b AS doc_b,
       round(smin / (na.s + nb.s - smin), 6) AS wj
FROM p JOIN norm na ON na.doc_id = p.a
       JOIN norm nb ON nb.doc_id = p.b
WHERE smin / (na.s + nb.s - smin) >= 0.5
"""


def q_icws_pairs(sf_dir: str):
    """ICWS weighted-MinHash near-dup pairs (Ioffe 2010,
    stages/sketch.py::icws_signatures): docs whose 64-sample signature
    agreement estimates weighted Jaccard ≥ 0.5, generated end-to-end
    through the DISTRIBUTED banded pair machinery (round-4: r=1 band
    rows -> bucketed co-location -> pair-key dedup -> broadcast-lookup
    verify; signatures never ``.to_pandas()`` to the driver).  Probe
    set doc_id<40 keeps domain parity with the exact weighted_jaccard
    baseline the accuracy pin compares against.  ORACLED (round-5,
    upgraded from rows-only): the sketch is randomized-BY-HASH, so the
    oracle rederives every (r, c, beta) uniform from the same DuckDB
    hash() kernel, runs the Ioffe argmin in SQL (ln/exp on identical
    IEEE inputs), rebuilds the hash(token|t) samples and takes all
    pairs at agreement >= 0.5 (r=1 banding has exact recall)."""
    from ...stages.sketch import icws_signatures, signature_agreement_pairs

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    docs = docs.map_batches(
        lambda t: t.filter(pc.less(t["doc_id"], 40)),
        batch_format="pyarrow")
    sigs = icws_signatures(docs, "doc_id", "text", m=64)
    return signature_agreement_pairs(sigs, "doc_id", "sig",
                                     threshold=0.5)


SQL_ICWS_PAIRS = r"""
WITH docs AS (SELECT doc_id, text FROM documents WHERE doc_id < 40),
tl AS (SELECT doc_id,
              list_filter(regexp_split_to_array(
                  trim(lower(coalesce(text, ''))), '\s+'),
                  x -> x <> '') AS arr
       FROM docs),
tok AS (SELECT doc_id, unnest(arr) AS term FROM tl WHERE len(arr) > 0),
cell AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
uq AS (SELECT DISTINCT term FROM cell),
kk AS (SELECT unnest(range(64)) AS k),
uu AS (SELECT term, k,
        CAST(hash(term || '|' || k || '|0') AS DOUBLE)
            / 18446744073709551616.0 AS u0,
        CAST(hash(term || '|' || k || '|1') AS DOUBLE)
            / 18446744073709551616.0 AS u1,
        CAST(hash(term || '|' || k || '|2') AS DOUBLE)
            / 18446744073709551616.0 AS u2,
        CAST(hash(term || '|' || k || '|3') AS DOUBLE)
            / 18446744073709551616.0 AS u3,
        CAST(hash(term || '|' || k || '|4') AS DOUBLE)
            / 18446744073709551616.0 AS u4
       FROM uq CROSS JOIN kk),
par AS (SELECT term, k, -ln(u0 * u1) AS r, -ln(u2 * u3) AS c,
               u4 AS beta
        FROM uu),
av AS (SELECT c2.doc_id, p.k, c2.term,
              floor(ln(CAST(c2.tf AS DOUBLE)) / p.r + p.beta) AS t,
              p.c / (exp(p.r * (floor(ln(CAST(c2.tf AS DOUBLE)) / p.r
                                      + p.beta) - p.beta))
                     * exp(p.r)) AS a
       FROM cell c2 JOIN par p USING (term)),
pick AS (SELECT doc_id, k, term, t FROM (
          SELECT doc_id, k, term, t,
                 row_number() OVER (PARTITION BY doc_id, k
                                    ORDER BY a, term) AS rn
          FROM av) WHERE rn = 1),
sig AS (SELECT doc_id, k,
               hash(term || '|' || CAST(CAST(t AS BIGINT) AS VARCHAR))
                   AS s
        FROM pick),
ag AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
              sum(CASE WHEN a.s = b.s THEN 1 ELSE 0 END) / 64.0 AS est
       FROM sig a JOIN sig b ON b.doc_id > a.doc_id AND b.k = a.k
       GROUP BY 1, 2)
SELECT CAST(doc_a AS BIGINT) AS doc_a, CAST(doc_b AS BIGINT) AS doc_b,
       round(est, 6) AS est_wj
FROM ag WHERE est >= 0.5
"""


def q_cdc_chunks(sf_dir: str):
    """Content-defined chunking dedup audit (the FastCDC idea at token
    grain): a token ENDS a chunk when its hash ≡ 0 (mod 16), so chunk
    boundaries move with content, not position — an insertion only
    reshapes its own chunk, unlike chunk_dedup's fixed 32-token grid.
    Per doc: chunk count and how many of its chunk slots hold content
    duplicated anywhere in the corpus.  Chunk contents reduce to
    DuckDB-hash digests (bit-for-bit in both engines); corpus-wide
    digest counts merge in one bucketed shuffle and hydrate back via
    a broadcast map (above the broadcast cap, swap to the hash-join
    hydration the unigram-LM path uses)."""
    from ...functions.similarity import hash_strings_fast
    from ...stages.shuffle import bucketed_map_groups

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])

    def doc_chunks(df: pd.DataFrame) -> pd.DataFrame:
        toks = ts._ws_tokens(df["text"]).reset_index(drop=True)
        ex = toks.explode().dropna()
        if ex.empty:
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "ch": pd.Series([], dtype="uint64")})
        rows = ex.index.to_numpy()
        vals = ex.to_numpy(object)
        ends = (hash_strings_fast(vals) % np.uint64(16) == 0)
        # chunk id = boundaries strictly BEFORE this token, per doc
        d = pd.DataFrame({"row": rows, "tok": vals})
        cum = pd.Series(ends).groupby(rows).cumsum().to_numpy()
        d["chunk"] = cum - ends.astype(np.int64)   # exclusive prefix
        joined = d.groupby(["row", "chunk"], sort=False)["tok"] \
            .agg(" ".join).reset_index(name="content")
        ids = df["doc_id"].to_numpy(np.int64)
        return pd.DataFrame({
            "doc_id": ids[joined["row"].to_numpy()],
            "ch": hash_strings_fast(
                joined["content"].to_numpy(object))})

    chunks = docs.map_batches(doc_chunks, batch_format="pandas") \
        .materialize()
    counts = bucketed_map_groups(
        chunks, ["ch"],
        lambda df: df.groupby("ch", sort=False).size()
        .reset_index(name="n"),
        num_buckets=64)
    cmap = dict(zip(*[counts.to_pandas()[c] for c in ("ch", "n")]))

    def per_doc(df: pd.DataFrame) -> pd.DataFrame:
        dup = (df["ch"].map(cmap) > 1).astype(np.int64)
        out = pd.DataFrame({"doc_id": df["doc_id"].to_numpy(np.int64),
                            "n_chunks": np.int64(1), "n_dup": dup})
        return out.groupby("doc_id", sort=False).sum().reset_index()

    g = rel.partial_groupby_agg(
        chunks.map_batches(per_doc, batch_format="pandas"),
        ["doc_id"], {"n_chunks": ("n_chunks", "sum"),
                     "n_dup": ("n_dup", "sum")})
    return pd.DataFrame({
        "doc_id": g["doc_id"].to_numpy(np.int64),
        "n_chunks": g["n_chunks"].to_numpy(np.int64),
        "n_dup": g["n_dup"].to_numpy(np.int64)})


SQL_CDC_CHUNKS = r"""
WITH d AS (
  SELECT doc_id, regexp_split_to_array(trim(lower(text)), '\s+') AS tk
  FROM documents WHERE trim(coalesce(text, '')) <> ''),
pos AS (
  SELECT doc_id, tk[i] AS tok, i,
         CASE WHEN hash(tk[i]) % 16 = 0 THEN 1 ELSE 0 END AS ends
  FROM (SELECT doc_id, tk,
               unnest(generate_series(1, len(tk))) AS i
        FROM d)),
ck AS (
  SELECT doc_id, tok, i,
         sum(ends) OVER (PARTITION BY doc_id ORDER BY i
                         ROWS BETWEEN UNBOUNDED PRECEDING
                         AND 1 PRECEDING) AS chunk
  FROM pos),
content AS (
  SELECT doc_id, coalesce(chunk, 0) AS chunk,
         hash(string_agg(tok, ' ' ORDER BY i)) AS ch
  FROM ck GROUP BY 1, 2),
cnt AS (SELECT ch, count(*) AS n FROM content GROUP BY 1)
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_chunks,
       CAST(sum(CASE WHEN n > 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_dup
FROM content JOIN cnt USING (ch)
GROUP BY doc_id
"""


def q_novelty_score(sf_dir: str):
    """Per-document bigram novelty — the fraction of a document's
    distinct bigrams that appear in NO other document (corpus
    document-frequency 1): the memorization/near-duplication signal
    complementing winnow/minhash dedup (a low-novelty doc is mostly
    recombined corpus text).  Per-doc distinct bigrams are map-only
    (a doc's text lives in one row), the bigram DF is one cell
    combiner, and the per-doc collapse hydrates DF through a
    distributed hash join on the bigram — vocabulary never broadcast
    (the pmi/unigram_logprob discipline)."""
    from ...stages.relational import hash_join
    from ...stages.shuffle import bucketed_map_groups

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])

    def doc_bigrams(df: pd.DataFrame) -> pd.DataFrame:
        toks = ts._ws_tokens(df["text"]).reset_index(drop=True)
        ex = toks.explode().dropna()
        if not len(ex):
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "bg": pd.Series([], dtype="string")})
        idx = ex.index.to_numpy()
        vals = ex.to_numpy(object)
        same = idx[:-1] == idx[1:]
        ids = df["doc_id"].to_numpy(np.int64)
        out = pd.DataFrame({
            "doc_id": ids[idx[:-1][same]],
            "bg": (pd.Series(vals[:-1][same]).astype(str) + " "
                   + pd.Series(vals[1:][same]).astype(str))
            .to_numpy(object)})
        return out.drop_duplicates(ignore_index=True)

    db = docs.map_batches(doc_bigrams, batch_format="pandas") \
        .materialize()
    df_cells = bucketed_map_groups(
        db.map_batches(
            lambda df: df.assign(d=np.int64(1))[["bg", "d"]],
            batch_format="pandas"),
        ["bg"],
        lambda df: df.groupby("bg", sort=False, as_index=False)["d"]
        .sum(),
        num_buckets=32)
    j = hash_join(db, df_cells, on=["bg"])

    def collapse(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(np.int64),
            "n": np.int64(1),
            "u": (df["d"].to_numpy(np.int64) == 1).astype(np.int64)})
        return out.groupby("doc_id", sort=False, as_index=False).sum()

    g = rel.partial_groupby_agg(
        j.map_batches(collapse, batch_format="pandas"),
        ["doc_id"], {"n": ("n", "sum"), "u": ("u", "sum")})
    return pd.DataFrame({
        "doc_id": g["doc_id"].to_numpy(np.int64),
        "n_bigrams": g["n"].to_numpy(np.int64),
        "novelty": np.round(g["u"].to_numpy(np.float64)
                            / g["n"].to_numpy(np.float64), 6)})


SQL_NOVELTY_SCORE = r"""
WITH t AS (SELECT doc_id,
                  regexp_split_to_array(trim(lower(text)), '\s+') AS toks
           FROM documents WHERE trim(coalesce(text, '')) <> ''),
pos AS (SELECT doc_id, toks,
               unnest(generate_series(1, len(toks) - 1)) AS i
        FROM t WHERE len(toks) >= 2),
db AS (SELECT DISTINCT doc_id, toks[i] || ' ' || toks[i+1] AS bg
       FROM pos),
df AS (SELECT bg, count(*) AS d FROM db GROUP BY 1)
SELECT db.doc_id, CAST(count(*) AS BIGINT) AS n_bigrams,
       round(CAST(sum(CASE WHEN df.d = 1 THEN 1 ELSE 0 END) AS DOUBLE)
             / count(*), 6) AS novelty
FROM db JOIN df USING (bg) GROUP BY 1
"""


QUERIES = {
    "dedup_exact": q_dedup_exact,
    "chunk_tokens": q_chunk_tokens,
    "pack_sequences": q_pack_sequences,
    "chunk_dedup": q_chunk_dedup,
    "boilerplate": q_boilerplate,
    "setsim_join": q_setsim_join,
    "nearest_dup": q_nearest_dup,
    "source_overlap": q_source_overlap,
    "containment_sets": q_containment_sets,
    "hamming_pairs": q_hamming_pairs,
    "novelty_score": q_novelty_score,
    "dup_spans": q_dup_spans,
    "dup_span_removal": q_dup_span_removal,
    "edit_join": q_edit_join,
    "compression_ratio": q_compression_ratio,
    "near_dup_keep": q_near_dup_keep,
    "winnow_fingerprint": q_winnow_fingerprint,
    "near_dup_docs": q_near_dup_docs,
    "simhash_pairs": q_simhash_pairs,
    "burst_dedup": q_burst_dedup,
    "ncd_pairs": q_ncd_pairs,
    "minhash_pairs": q_minhash_pairs,
    "smith_waterman": q_smith_waterman,
    "fingerprint_cluster": q_fingerprint_cluster,
    "dup_rate_by_source": q_dup_rate_by_source,
    "damerau_join": q_damerau_join,
    "char_jaccard_pairs": q_char_jaccard_pairs,
    "weighted_jaccard": q_weighted_jaccard,
    "icws_pairs": q_icws_pairs,
    "cdc_chunks": q_cdc_chunks,
}

ORACLES = {
    "dedup_exact": SQL_DEDUP_EXACT,
    "winnow_fingerprint": SQL_WINNOW_FINGERPRINT,
    "dup_spans": SQL_DUP_SPANS,
    "dup_span_removal": SQL_DUP_SPAN_REMOVAL,
    "edit_join": SQL_EDIT_JOIN,
    "chunk_tokens": SQL_CHUNK_TOKENS,
    "pack_sequences": SQL_PACK_SEQUENCES,
    "chunk_dedup": SQL_CHUNK_DEDUP,
    "boilerplate": SQL_BOILERPLATE,
    "setsim_join": SQL_SETSIM_JOIN,
    "nearest_dup": SQL_NEAREST_DUP,
    "simhash_pairs": SQL_SIMHASH_PAIRS,
    "near_dup_docs": SQL_NEAR_DUP_DOCS,
    "near_dup_keep": SQL_NEAR_DUP_KEEP,
    "smith_waterman": SQL_SMITH_WATERMAN,
    "icws_pairs": SQL_ICWS_PAIRS,
    "source_overlap": SQL_SOURCE_OVERLAP,
    "containment_sets": SQL_CONTAINMENT_SETS,
    "hamming_pairs": SQL_HAMMING_PAIRS,
    "novelty_score": SQL_NOVELTY_SCORE,
    "burst_dedup": SQL_BURST_DEDUP,
    "minhash_pairs": SQL_MINHASH_PAIRS,
    "fingerprint_cluster": SQL_FINGERPRINT_CLUSTER,
    "dup_rate_by_source": SQL_DUP_RATE_BY_SOURCE,
    "damerau_join": SQL_DAMERAU_JOIN,
    "char_jaccard_pairs": SQL_CHAR_JACCARD_PAIRS,
    "weighted_jaccard": SQL_WEIGHTED_JACCARD,
    "cdc_chunks": SQL_CDC_CHUNKS,
}
