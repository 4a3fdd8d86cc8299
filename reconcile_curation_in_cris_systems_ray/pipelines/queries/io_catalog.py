"""Ingest, field-extraction, upsert and table-audit queries.

The ``QUERIES`` / ``ORACLES`` tables at the end register this family.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ...stages import relational as rel
from ...stages.fields import extract_fields
from ._shared import _rp


def q_field_extract(sf_dir: str):
    """M1/M2: pattern-trie field extraction over a JSON column."""
    ds = _rp(sf_dir, "events", ["event_id", "props"])
    out = extract_fields(ds, field_spec="k", json_col="props",
                         id_cols=("event_id",))
    return out.select_columns(["event_id", "field_name", "subfield_path",
                               "value"])


SQL_FIELD_EXTRACT = """
SELECT event_id, 'k' AS field_name, 'k' AS subfield_path,
       json_extract_string(props, '$.k') AS value
FROM events
"""


def q_field_extract_nested(sf_dir: str):
    """M1 deep coverage: trie extraction over NESTED JSON — an object
    path (``u.id``), an array-of-objects path (``tags.t`` -> concrete
    ``tags[i].t`` subfield paths), and a dynamic-key wildcard
    (``props.*`` — the reference's ``relation.*`` / abstract-index
    case, crossref ``main.rs:598-606``).  The JSON documents are built
    deterministically from events columns with the same concatenation
    the oracle uses, so DuckDB's json functions extract from the
    identical strings."""
    ds = _rp(sf_dir, "events", ["event_id", "user_id", "event_type"])

    def build(t: pa.Table) -> pa.Table:
        uid = t.column("user_id").to_pylist()
        et = t.column("event_type").to_pylist()
        docs = [
            f'{{"u":{{"id":{u}}},"tags":[{{"t":"{e}"}},{{"t":"evt"}}],'
            f'"props":{{"kind":"{e}","n":{u}}}}}'
            for u, e in zip(uid, et)
        ]
        return pa.table({"event_id": t.column("event_id"),
                         "doc": pa.array(docs, pa.string())})

    built = ds.map_batches(build, batch_format="pyarrow")
    out = extract_fields(built, field_spec="u.id,tags.t,props.*",
                         json_col="doc", id_cols=("event_id",))
    return out.select_columns(["event_id", "field_name", "subfield_path",
                               "value"])


SQL_FIELD_EXTRACT_NESTED = """
WITH j AS (SELECT event_id,
  '{"u":{"id":' || user_id || '},"tags":[{"t":"' || event_type ||
  '"},{"t":"evt"}],"props":{"kind":"' || event_type || '","n":' ||
  user_id || '}}' AS doc
  FROM events)
SELECT event_id, 'u.id' AS field_name, 'u.id' AS subfield_path,
       json_extract_string(doc, '$.u.id') AS value FROM j
UNION ALL
SELECT event_id, 'tags.t', 'tags[' || (g.i - 1) || '].t',
       json_extract_string(doc, '$.tags[' || (g.i - 1) || '].t')
FROM j, generate_series(1, 2) g(i)
UNION ALL
SELECT event_id, 'props.*', 'props.' || k,
       json_extract_string(doc, '$.props."' || k || '"')
FROM (SELECT event_id, doc, unnest(json_keys(doc, '$.props')) AS k FROM j)
"""


def _messy_urls(df: pd.DataFrame) -> pd.Series:
    """Deterministic messy URLs from (doc_id, source) covering the
    canonicalizer's feature space: mixed-case scheme/host, default and
    non-default ports, empty/bare/deep paths, tracking params mixed
    with keepers, fragments.  The SQL oracle constructs the identical
    strings (same CASE arms keyed on doc_id % k)."""
    d = df["doc_id"].astype("int64")
    src = df["source"].astype("string").fillna("")
    base = np.select(
        [d % 3 == 0, d % 3 == 1],
        ["HTTP://WWW." + src + ".COM:80",
         "https://Api." + src + ".Org:443"],
        default="https://cdn." + src + ".net:8443")
    path = np.select(
        [d % 5 == 0, d % 5 == 1],
        ["", "/"],
        default="/Docs/" + d.astype(str))
    tail = np.select(
        [d % 4 == 0, d % 4 == 1, d % 4 == 2],
        ["?utm_source=feed&ref=" + d.astype(str) + "&id=" + d.astype(str)
         + "#sec",
         "?id=" + d.astype(str) + "&UTM_Medium=z",
         "#frag"],
        default="")
    return pd.Series(base + path + tail, index=df.index, dtype="string")


def q_url_canonical(sf_dir: str):
    """M8 slot: identifier/URL canonicalization (scheme/host
    case-fold, default-port drop, tracking-param and fragment strip,
    trailing-slash normalization) over deterministic messy URLs built
    from the documents table — fully oracled in SQL string ops."""
    from ...functions.ids import canonicalize_url

    docs = _rp(sf_dir, "documents", ["doc_id", "source"])

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        urls = _messy_urls(df)
        return pd.DataFrame({
            "doc_id": df["doc_id"],
            "url": urls,
            "canonical_url": [canonicalize_url(u) for u in urls],
        })

    return docs.map_batches(canon, batch_format="pandas")


SQL_URL_CANONICAL = """
WITH u AS (
  SELECT doc_id,
    (CASE doc_id % 3
       WHEN 0 THEN 'HTTP://WWW.' || source || '.COM:80'
       WHEN 1 THEN 'https://Api.' || source || '.Org:443'
       ELSE 'https://cdn.' || source || '.net:8443' END)
    || (CASE doc_id % 5
          WHEN 0 THEN '' WHEN 1 THEN '/'
          ELSE '/Docs/' || CAST(doc_id AS VARCHAR) END)
    || (CASE doc_id % 4
          WHEN 0 THEN '?utm_source=feed&ref=' || CAST(doc_id AS VARCHAR)
                      || '&id=' || CAST(doc_id AS VARCHAR) || '#sec'
          WHEN 1 THEN '?id=' || CAST(doc_id AS VARCHAR) || '&UTM_Medium=z'
          WHEN 2 THEN '#frag' ELSE '' END) AS url
  FROM documents
), parts AS (
  SELECT doc_id, url,
         lower(regexp_extract(url, '^([A-Za-z]+)://', 1)) AS scheme,
         split_part(split_part(regexp_replace(url, '^[A-Za-z]+://', ''),
                               '#', 1), '?', 1) AS hostpath,
         CASE WHEN contains(split_part(regexp_replace(
                     url, '^[A-Za-z]+://', ''), '#', 1), '?')
              THEN split_part(split_part(regexp_replace(
                     url, '^[A-Za-z]+://', ''), '#', 1), '?', 2)
              ELSE '' END AS query
  FROM u
), hp AS (
  SELECT doc_id, url, scheme, query,
         lower(CASE WHEN contains(hostpath, '/')
                    THEN split_part(hostpath, '/', 1)
                    ELSE hostpath END) AS host0,
         CASE WHEN position('/' IN hostpath) > 0
              THEN substr(hostpath, position('/' IN hostpath))
              ELSE '' END AS path0
  FROM parts
), norm AS (
  SELECT doc_id, url, scheme,
         CASE WHEN scheme = 'http' AND ends_with(host0, ':80')
                THEN left(host0, len(host0) - 3)
              WHEN scheme = 'https' AND ends_with(host0, ':443')
                THEN left(host0, len(host0) - 4)
              ELSE host0 END AS host,
         CASE WHEN path0 IN ('', '/') THEN '/' ELSE path0 END AS path,
         array_to_string(
           list_filter(string_split(query, '&'),
             kv -> kv <> '' AND NOT list_contains(
               ['utm_source', 'utm_medium', 'utm_campaign', 'utm_term',
                'utm_content', 'gclid', 'fbclid', 'ref', 'sessionid'],
               lower(string_split(kv, '=')[1]))), '&') AS q
  FROM hp
)
SELECT doc_id, url,
       scheme || '://' || host || path
         || CASE WHEN q <> '' THEN '?' || q ELSE '' END AS canonical_url
FROM norm
"""


def _jsonl_shard_dir(sf_dir: str) -> str:
    """Deterministically dump the events table to gzipped JSONL shards
    (3 corrupt lines injected into shard 0) — the S2/S6 ingest fixture.
    Cached per sf dir under /tmp."""
    import gzip
    import hashlib
    import json
    import os

    import pyarrow.parquet as pq

    tag = hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:10]
    root = f"/tmp/graft_jsonl_{tag}"
    done = os.path.join(root, "_DONE")
    if os.path.exists(done):
        return root
    os.makedirs(root, exist_ok=True)
    tbl = pq.read_table(f"{sf_dir}/events.parquet",
                        columns=["event_id", "event_type", "value"])
    n_shards = 8
    n = tbl.num_rows
    for s in range(n_shards):
        lo = s * n // n_shards
        hi = (s + 1) * n // n_shards
        chunk = tbl.slice(lo, hi - lo).to_pylist()
        lines = [json.dumps(r) for r in chunk]
        if s == 0:
            lines = (["{broken json", "[1,2,3]", "not json at all"]
                     + lines)
        with gzip.open(os.path.join(root, f"part-{s:03d}.jsonl.gz"),
                       "wt") as f:
            f.write("\n".join(lines) + "\n")
    with open(done, "w") as f:
        f.write("ok")
    return root


def q_jsonl_ingest(sf_dir: str):
    """S2/S6/S8/S4 composition: gzip-JSONL shard ingest with quarantine
    of corrupt lines, partitioned Parquet sink, re-read + aggregate.
    The 3 injected bad lines land in quarantine, so the valid-row
    aggregate matches the events oracle exactly."""
    import tempfile

    from ray.data.aggregate import Count, Sum

    from ...sources.jsonl import (
        read_jsonl_gz, split_quarantine, write_partitioned,
    )

    schema = pa.schema([("event_id", pa.int64()),
                        ("event_type", pa.string()),
                        ("value", pa.float64())])
    import glob as globmod

    shards = sorted(globmod.glob(f"{_jsonl_shard_dir(sf_dir)}/part-*.jsonl.gz"))
    raw = read_jsonl_gz(shards, schema)
    valid, errors = split_quarantine(raw)
    assert errors.count() == 3, "expected exactly the 3 injected bad lines"

    import ray.data as rd

    sink = tempfile.mkdtemp(prefix="graft_part_sink_")
    write_partitioned(valid, sink, ["event_type"])
    out = rd.read_parquet(sink).groupby("event_type").aggregate(
        Count(alias_name="n"), Sum("value", alias_name="sum_value"))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["event_type"] = df["event_type"].astype(str)
        df["sum_value"] = df["sum_value"].round(4)
        return df

    return out.map_batches(finish, batch_format="pandas")


SQL_JSONL_INGEST = """
SELECT event_type, count(*) AS n, round(sum(value), 4) AS sum_value
FROM events GROUP BY event_type
"""


def q_csv_roundtrip(sf_dir: str):
    """S5/S7: CSV source + CSV sink roundtrip — events dumped to CSV
    shards once (cached), read back with ``ray.data.read_csv``
    (chunking native via blocks), aggregated, written to a CSV sink
    and re-read; matches the events oracle."""
    import hashlib
    import os
    import tempfile

    import pyarrow.csv as pacsv
    import pyarrow.parquet as pq
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    tag = hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:10]
    root = f"/tmp/graft_csv_{tag}"
    done = os.path.join(root, "_DONE")
    if not os.path.exists(done):
        os.makedirs(root, exist_ok=True)
        tbl = pq.read_table(f"{sf_dir}/events.parquet",
                            columns=["event_id", "user_id", "value"])
        n = tbl.num_rows
        for s in range(4):
            lo, hi = s * n // 4, (s + 1) * n // 4
            pacsv.write_csv(tbl.slice(lo, hi - lo),
                            os.path.join(root, f"part-{s}.csv"))
        with open(done, "w") as f:
            f.write("ok")

    ds = rd.read_csv([f"{root}/part-{s}.csv" for s in range(4)])
    agg = ds.groupby("user_id").aggregate(
        Count(alias_name="n"), Sum("value", alias_name="sum_value"))
    sink = tempfile.mkdtemp(prefix="graft_csv_sink_")
    agg.write_csv(sink)
    out = rd.read_csv(sink)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["sum_value"] = df["sum_value"].round(4)
        return df

    return out.map_batches(finish, batch_format="pandas")


SQL_CSV_ROUNDTRIP = """
SELECT user_id, count(*) AS n, round(sum(value), 4) AS sum_value
FROM events GROUP BY user_id
"""


def q_audit_stats(sf_dir: str):
    """A5 (verify_db.py:74-119 analogue): one-row integrity audit —
    row count, distinct cardinalities, null/empty rates — computed as
    per-batch partials + a tiny driver-side merge (combiner pattern;
    at scale the distinct sets become sketches)."""
    ds = _rp(sf_dir, "documents", ["doc_id", "source", "lang", "text"])

    def partial(t: pa.Table) -> pa.Table:
        return pa.table({
            "n_rows": pa.array([len(t)], pa.int64()),
            "n_empty_text": pa.array(
                [pc.sum(pc.cast(pc.equal(pc.utf8_trim_whitespace(
                    pc.fill_null(t["text"], "")), ""), pa.int64())).as_py()
                 or 0], pa.int64()),
        })

    counts = ds.map_batches(partial, batch_format="pyarrow").to_pandas().sum()
    n_sources = rel.distinct(
        ds.select_columns(["source"]), ["source"]).count()
    n_langs = rel.distinct(ds.select_columns(["lang"]), ["lang"]).count()
    return pd.DataFrame({
        "n_rows": [int(counts["n_rows"])],
        "n_sources": [n_sources],
        "n_langs": [n_langs],
        "n_empty_text": [int(counts["n_empty_text"])],
    })


SQL_AUDIT_STATS = """
SELECT count(*) AS n_rows,
       count(DISTINCT source) AS n_sources,
       count(DISTINCT lang) AS n_langs,
       count(*) FILTER (WHERE trim(coalesce(text, '')) = '')
         AS n_empty_text
FROM documents
"""


def q_bloom_anti_join(sf_dir: str):
    """J4/J5 scale path: exact anti-join with a Bloom-filter prefilter
    (``stages/bloom.py``).  Definite non-members stream through without
    touching the key set; only the possibly-member sliver is verified.
    Result aggregated so the oracle compare stays compact."""
    from ...stages.bloom import bloom_anti_join

    li = _rp(sf_dir, "lineitem",
             ["l_orderkey", "l_returnflag", "l_quantity"])
    urgent = _rp(sf_dir, "orders",
                 ["o_orderkey", "o_orderpriority"]).map_batches(
        lambda t: t.filter(pc.equal(t["o_orderpriority"],
                                    "1-URGENT")).select(["o_orderkey"]),
        batch_format="pyarrow")
    kept = bloom_anti_join(li, urgent, on="l_orderkey",
                           key_col="o_orderkey")
    df = rel.partial_groupby_agg(kept, ["l_returnflag"], {
        "n_rows": (None, "count"),
        "sum_qty": ("l_quantity", "sum"),
    })
    df["sum_qty"] = df["sum_qty"].round(2)
    return df


SQL_BLOOM_ANTI_JOIN = """
SELECT l_returnflag, count(*) AS n_rows,
       round(sum(l_quantity), 2) AS sum_qty
FROM lineitem
WHERE l_orderkey NOT IN (
  SELECT o_orderkey FROM orders WHERE o_orderpriority = '1-URGENT')
GROUP BY l_returnflag
"""


def q_warc_ingest(sf_dir: str):
    """WARC source roundtrip: documents are serialized into WARC shards
    (the Common Crawl container — one fixture shard plain, the rest
    gzipped, HTTP response envelopes included), read back with the
    streaming WARC source, and reduced to (url, text_len).  The oracle
    recomputes both from the documents table, so header parsing,
    Content-Length walking, gzip handling and HTTP-envelope stripping
    are all value-checked."""
    import hashlib as _hl
    import os

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from ...sources.warc import read_warc, write_warc_file

    tbl = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id", "text"])
    tag = _hl.md5(sf_dir.encode()).hexdigest()[:8]
    out_dir = f"/tmp/graft_warc_{tag}"
    os.makedirs(out_dir, exist_ok=True)
    shards: dict[int, list[dict]] = {i: [] for i in range(4)}
    for did, text in zip(tbl.column("doc_id").to_pylist(),
                         tbl.column("text").to_pylist()):
        shards[did % 4].append({
            "url": f"https://example.org/doc/{did}",
            "payload": (text or "").encode("utf-8"),
            "http_headers": b"HTTP/1.1 200 OK\r\nContent-Type: text/html",
        })
    paths = []
    for i, recs in shards.items():
        p = os.path.join(out_dir,
                         f"shard{i}.warc" + (".gz" if i else ""))
        write_warc_file(p, recs, compress=bool(i))
        paths.append(p)

    ds = read_warc(paths)

    def finish(batch):
        ok = batch.filter(pc.is_valid(batch.column("url")))
        return pa.table({
            "url": ok.column("url"),
            "text_len": pc.binary_length(ok.column("payload")).cast(
                pa.int64()),
        })

    return ds.map_batches(finish, batch_format="pyarrow")


SQL_WARC_INGEST = """
SELECT 'https://example.org/doc/' || CAST(doc_id AS VARCHAR) AS url,
       CAST(octet_length(encode(coalesce(text, ''))) AS BIGINT)
           AS text_len
FROM documents
"""


_PROFILE_COLS = ["c_custkey", "c_name", "c_nationkey", "c_acctbal",
                 "c_mktsegment"]


def q_profile_table(sf_dir: str):
    """Column profiling of the customer table — n_rows / n_null /
    exact n_distinct / min / max per column (the reference A5
    verify_db audit generalized; stages/relational.py::
    profile_columns: combiner stats partials + ONE co-location
    shuffle of batch-deduplicated (col, value) cells for the exact
    distinct counts)."""
    from ...stages.relational import profile_columns

    return profile_columns(_rp(sf_dir, "customer", _PROFILE_COLS),
                           _PROFILE_COLS)


def _profile_sql() -> str:
    parts = []
    for c in _PROFILE_COLS:
        parts.append(f"""
SELECT '{c}' AS col, CAST(count(*) AS BIGINT) AS n_rows,
       CAST(sum(CASE WHEN {c} IS NULL THEN 1 ELSE 0 END) AS BIGINT)
           AS n_null,
       CAST(count(DISTINCT {c}) AS BIGINT) AS n_distinct,
       CAST(min({c}) AS VARCHAR) AS vmin,
       CAST(max({c}) AS VARCHAR) AS vmax
FROM customer""")
    return "\nUNION ALL\n".join(parts)


def q_merge_upsert(sf_dir: str):
    """MERGE INTO / CDC changeset apply — the lakehouse upsert
    operator: the events stream is interpreted as a change log keyed
    by 12*user_id (last write per key wins, ordered by ts then
    event_id; 'purchase' = DELETE, anything else = UPSERT of the
    value into c_acctbal; keys absent from the base insert a NEW#
    row).  Plan: one key co-location to resolve the changeset
    (priority_dedup), then a broadcast-scale application against the
    streamed base — at 100 TB the changeset is the small side and
    the base is never shuffled (the incremental-pipeline discipline,
    pipelines/incremental.py)."""
    import ray

    ev = _rp(sf_dir, "events", ["event_id", "ts", "user_id",
                                "event_type", "value"])
    last = rel.priority_dedup(
        ev.map_batches(
            lambda df: pd.DataFrame({
                "key": df["user_id"].to_numpy(np.int64) * 12,
                "ts": df["ts"], "event_id": df["event_id"],
                "event_type": df["event_type"], "value": df["value"]}),
            batch_format="pandas"),
        ["key"], ["ts", "event_id"], ascending=[False, False],
        num_buckets=32).to_pandas()
    upd = last[last["event_type"] != "purchase"]
    dels = set(last.loc[last["event_type"] == "purchase", "key"]
               .astype(np.int64))
    val = dict(zip(upd["key"].astype(np.int64), upd["value"]))
    ref = ray.put((dels, val))

    base = _rp(sf_dir, "customer", ["c_custkey", "c_name", "c_acctbal"])

    def apply_changes(df: pd.DataFrame) -> pd.DataFrame:
        d, v = ray.get(ref)
        k = df["c_custkey"].to_numpy(np.int64)
        keep = ~np.isin(k, list(d)) if d else np.ones(len(k), bool)
        out = df[keep].copy()
        nv = out["c_custkey"].map(v)
        out["c_acctbal"] = np.round(
            nv.fillna(out["c_acctbal"]).to_numpy(np.float64), 6)
        return out

    kept = base.map_batches(apply_changes, batch_format="pandas")

    base_keys = set(
        base.map_batches(lambda df: df[["c_custkey"]],
                         batch_format="pandas").to_pandas()["c_custkey"]
        .astype(np.int64))
    ins = upd[~upd["key"].astype(np.int64).isin(base_keys)]
    inserts = pd.DataFrame({
        "c_custkey": ins["key"].to_numpy(np.int64),
        "c_name": ["NEW#" + str(int(k)) for k in ins["key"]],
        "c_acctbal": np.round(ins["value"].to_numpy(np.float64), 6)})
    import ray.data as rd

    if len(inserts) == 0:
        return kept
    return kept.union(rd.from_pandas(inserts))


SQL_MERGE_UPSERT = """
WITH last AS (
  SELECT * FROM (
    SELECT user_id * 12 AS key, value, event_type,
           row_number() OVER (PARTITION BY user_id
                              ORDER BY ts DESC, event_id DESC) AS rn
    FROM events) WHERE rn = 1),
upd AS (SELECT key, value FROM last WHERE event_type <> 'purchase'),
del AS (SELECT key FROM last WHERE event_type = 'purchase')
SELECT c.c_custkey, c.c_name,
       round(coalesce(u.value, c.c_acctbal), 6) AS c_acctbal
FROM customer c LEFT JOIN upd u ON c.c_custkey = u.key
WHERE c.c_custkey NOT IN (SELECT key FROM del)
UNION ALL
SELECT u.key AS c_custkey,
       'NEW#' || CAST(u.key AS VARCHAR) AS c_name,
       round(u.value, 6) AS c_acctbal
FROM upd u ANTI JOIN customer c ON c.c_custkey = u.key
"""


QUERIES = {
    "field_extract": q_field_extract,
    "jsonl_ingest": q_jsonl_ingest,
    "audit_stats": q_audit_stats,
    "csv_roundtrip": q_csv_roundtrip,
    "field_extract_nested": q_field_extract_nested,
    "bloom_anti_join": q_bloom_anti_join,
    "warc_ingest": q_warc_ingest,
    "profile_table": q_profile_table,
    "merge_upsert": q_merge_upsert,
    "url_canonical": q_url_canonical,
}

ORACLES = {
    "field_extract": SQL_FIELD_EXTRACT,
    "jsonl_ingest": SQL_JSONL_INGEST,
    "audit_stats": SQL_AUDIT_STATS,
    "csv_roundtrip": SQL_CSV_ROUNDTRIP,
    "field_extract_nested": SQL_FIELD_EXTRACT_NESTED,
    "bloom_anti_join": SQL_BLOOM_ANTI_JOIN,
    "url_canonical": SQL_URL_CANONICAL,
    "warc_ingest": SQL_WARC_INGEST,
    "profile_table": _profile_sql(),
    "merge_upsert": SQL_MERGE_UPSERT,
}
