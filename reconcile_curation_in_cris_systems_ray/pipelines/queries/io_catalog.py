"""Ingest/sink, catalog-maintenance and table-audit queries.

The ``QUERIES`` / ``ORACLES`` tables at the end register this family.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ...stages import relational as rel
from ...stages import textstats as ts
from ...stages.fields import extract_fields
from ._shared import _SCD2_SENTINEL, _rp


def q_md5_fingerprint(sf_dir: str):
    """Document fingerprint (md5 content hash)."""
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    return ts.md5_fingerprint_stage(ds, "text").select_columns(
        ["doc_id", "fingerprint"])


SQL_MD5_FINGERPRINT = "SELECT doc_id, md5(text) AS fingerprint FROM documents"


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


def q_extract_pivot(sf_dir: str):
    """Reference lifecycle §3.2 composition (extract -> normalize
    pivot): nested JSON docs are exploded into field rows by the trie
    extractor (M1), then pivoted back to one row per document with the
    author list assembled in array order (A1 group-pivot,
    ``parse_join.../src/main.rs:397-531``) via one bucketed shuffle.
    The array position comes from the concrete ``authors[i].name``
    subfield path, as the reference recovers it (M7 slot)."""
    from ...stages.shuffle import bucketed_map_groups

    ds = _rp(sf_dir, "events", ["event_id", "user_id", "event_type"])

    def build(t: pa.Table) -> pa.Table:
        uid = t.column("user_id").to_pylist()
        et = t.column("event_type").to_pylist()
        docs = [f'{{"authors":[{{"name":"{e}"}},{{"name":"u{u}"}}]}}'
                for u, e in zip(uid, et)]
        return pa.table({"event_id": t.column("event_id"),
                         "doc": pa.array(docs, pa.string())})

    rows = extract_fields(ds.map_batches(build, batch_format="pyarrow"),
                          field_spec="authors.name", json_col="doc",
                          id_cols=("event_id",))

    def pivot(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["event_id", "subfield_path"],
                            kind="mergesort")
        g = df.groupby("event_id", sort=False)
        out = pd.DataFrame({
            "authors_joined": g["value"].agg("|".join),
            "n_authors": g.size().astype("int64"),
        })
        return out.reset_index()

    return bucketed_map_groups(rows, ["event_id"], pivot, num_buckets=64)


SQL_EXTRACT_PIVOT = """
SELECT event_id, event_type || '|u' || user_id AS authors_joined,
       CAST(2 AS BIGINT) AS n_authors
FROM events
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


def q_json_extract(sf_dir: str):
    """JSON metadata extraction — parse the events.props JSON column
    and surface $.k as a typed int64.  Vectorized: each batch's strings
    are joined into one NDJSON buffer and parsed by pyarrow's C++ JSON
    reader (no per-row Python json.loads).  Contract: one compact JSON
    object per row (no raw newlines) — the NDJSON assumption; rows
    violating it would surface as parse errors, matching the
    error-tolerant-load posture of the JSONL source (S6)."""
    import io

    import pyarrow.json as pj

    ds = _rp(sf_dir, "events", ["event_id", "props"])

    def fn(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"event_id": t.column("event_id"),
                             "k": pa.array([], type=pa.int64())})
        s = t.column("props").to_pandas().fillna("{}")
        parsed = pj.read_json(io.BytesIO(("\n".join(s)).encode()))
        return pa.table({
            "event_id": t.column("event_id"),
            "k": pc.cast(parsed.column("k"), pa.int64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


SQL_JSON_EXTRACT = r"""
SELECT event_id,
       CAST(json_extract_string(props, '$.k') AS BIGINT) AS k
FROM events
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


def _shard_table(sf_dir: str, columns: list[str], n_shards: int = 4):
    """Documents table split into n deterministic shards for the
    container-roundtrip queries."""
    import os

    import pyarrow.parquet as pq

    tbl = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                        columns=columns)
    idx = pa.array(tbl.column("doc_id").to_numpy() % n_shards)
    return [tbl.filter(pc.equal(idx, i)) for i in range(n_shards)]


def q_orc_roundtrip(sf_dir: str):
    """ORC source/sink roundtrip: documents serialized to 4 ORC shards,
    read back one-file-per-task, full value fidelity checked by the
    oracle recomputing from the parquet table (S2/S6 source-matrix
    extension; quarantine rows filtered like the WARC path)."""
    import hashlib as _hl
    import os

    from ...sources.columnar import read_orc, write_orc_file

    cols = ["doc_id", "lang", "source", "n_chars"]
    tag = _hl.md5(sf_dir.encode()).hexdigest()[:8]
    out_dir = f"/tmp/graft_orc_{tag}"
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i, shard in enumerate(_shard_table(sf_dir, cols)):
        p = os.path.join(out_dir, f"shard{i}.orc")
        write_orc_file(p, shard)
        paths.append(p)

    ds = read_orc(paths)

    def finish(t: pa.Table) -> pa.Table:
        ok = t.filter(pc.is_valid(t.column("doc_id")))
        return ok.select(cols)

    return ds.map_batches(finish, batch_format="pyarrow")


SQL_ORC_ROUNDTRIP = """
SELECT doc_id, lang, source, n_chars FROM documents
"""


def q_ipc_roundtrip(sf_dir: str):
    """Arrow IPC (Feather v2) roundtrip: shards written in IPC file
    format, read back per-task, reduced with the combiner aggregate so
    the query also exercises sum/count over the decoded stream."""
    import hashlib as _hl
    import os

    from ...sources.columnar import read_ipc, write_ipc_file
    from ...stages.relational import partial_groupby_agg

    cols = ["doc_id", "source", "n_chars"]
    tag = _hl.md5(sf_dir.encode()).hexdigest()[:8]
    out_dir = f"/tmp/graft_ipc_{tag}"
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i, shard in enumerate(_shard_table(sf_dir, cols)):
        p = os.path.join(out_dir, f"shard{i}.arrow")
        write_ipc_file(p, shard)
        paths.append(p)

    ds = read_ipc(paths)

    def clean(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_valid(t.column("doc_id"))).select(
            ["source", "n_chars"])

    out = partial_groupby_agg(ds.map_batches(clean, batch_format="pyarrow"),
                              ["source"],
                              {"n_docs": (None, "count"),
                               "total_chars": ("n_chars", "sum")})
    return out


SQL_IPC_ROUNDTRIP = """
SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS total_chars
FROM documents GROUP BY source
"""


def q_scd2_intervals(sf_dir: str):
    """SCD type-2 history build over the event stream: per user,
    consecutive events with an unchanged event_type collapse into one
    validity interval [valid_from, valid_to), valid_to = next
    version's start (sentinel 2100-01-01 for the current version) —
    stages/temporal.py::scd2_intervals, one hash shuffle on the key."""
    from ...stages.temporal import scd2_intervals

    events = _rp(sf_dir, "events",
                 ["event_id", "ts", "user_id", "event_type"])
    return scd2_intervals(events, key="user_id", ts_col="ts",
                          val_col="event_type", tie_col="event_id",
                          fill_to=_SCD2_SENTINEL)


SQL_SCD2_INTERVALS = """
WITH ordered AS (
  SELECT user_id, event_type, ts, event_id,
         lag(event_type) OVER (PARTITION BY user_id
             ORDER BY ts, event_id) AS pv
  FROM events),
chg AS (SELECT user_id, event_type, ts, event_id FROM ordered
        WHERE pv IS NULL OR event_type <> pv)
SELECT user_id, event_type AS value, ts AS valid_from,
       coalesce(lead(ts) OVER (PARTITION BY user_id
                    ORDER BY ts, event_id),
                TIMESTAMP '2100-01-01') AS valid_to
FROM chg
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


def q_table_diff(sf_dir: str):
    """Snapshot reconciliation: the customer table diffed against a
    deterministically perturbed copy (every 97th key removed, every
    13th segment changed, every 101st key re-added under a shifted
    id) — added/removed/changed per key via one full-outer hash join
    with presence flags (stages/relational.py::table_diff)."""
    from ...stages.relational import table_diff

    base = _rp(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def perturb(df: pd.DataFrame) -> pd.DataFrame:
        k = df["c_custkey"].to_numpy(np.int64)
        seg = df["c_mktsegment"].to_numpy(dtype=object)
        keep = k % 97 != 0
        changed = np.where(k % 13 == 0, "CHANGED", seg)
        kept = pd.DataFrame({"c_custkey": k[keep],
                             "c_mktsegment": changed[keep]})
        addm = k % 101 == 0
        added = pd.DataFrame({"c_custkey": k[addm] + 10000000,
                              "c_mktsegment": np.repeat("NEWSEG",
                                                        int(addm.sum()))})
        return pd.concat([kept, added], ignore_index=True)

    new = _rp(sf_dir, "customer", ["c_custkey", "c_mktsegment"]) \
        .map_batches(perturb, batch_format="pandas")
    return table_diff(base, new, "c_custkey", ["c_mktsegment"])


SQL_TABLE_DIFF = """
WITH new AS (
  SELECT c_custkey,
         CASE WHEN c_custkey % 13 = 0 THEN 'CHANGED'
              ELSE c_mktsegment END AS c_mktsegment
  FROM customer WHERE c_custkey % 97 <> 0
  UNION ALL
  SELECT c_custkey + 10000000, 'NEWSEG'
  FROM customer WHERE c_custkey % 101 = 0)
SELECT coalesce(b.c_custkey, n.c_custkey) AS c_custkey,
       CASE WHEN b.c_custkey IS NULL THEN 'added'
            WHEN n.c_custkey IS NULL THEN 'removed'
            ELSE 'changed' END AS status
FROM customer b FULL OUTER JOIN new n ON b.c_custkey = n.c_custkey
WHERE b.c_custkey IS NULL OR n.c_custkey IS NULL
   OR b.c_mktsegment IS DISTINCT FROM n.c_mktsegment
"""


def q_value_histogram(sf_dir: str):
    """Fixed-width 20-bin histogram of order totals over [0, 500000)
    with explicit under/overflow bins (stages/sketch.py::
    value_histogram — pure combiner, deterministic literal edges)."""
    from ...stages.sketch import value_histogram

    out = value_histogram(_rp(sf_dir, "orders", ["o_totalprice"]),
                          "o_totalprice", lo=0.0, hi=500000.0,
                          n_bins=20)
    return out[["bin", "n"]]


SQL_VALUE_HISTOGRAM = """
WITH b AS (
  SELECT CASE WHEN o_totalprice < 0 THEN -1
              WHEN o_totalprice >= 500000 THEN 20
              ELSE LEAST(CAST(floor(o_totalprice / 25000.0) AS BIGINT),
                         19) END AS bin
  FROM orders WHERE o_totalprice IS NOT NULL),
g AS (SELECT unnest(range(-1, 21)) AS bin)
SELECT g.bin, CAST(coalesce(c.n, 0) AS BIGINT) AS n
FROM g LEFT JOIN (SELECT bin, count(*) AS n FROM b GROUP BY 1) c
  ON c.bin = g.bin
"""


def q_first_last(sf_dir: str):
    """first_value/last_value window functions per user over the
    (ts, event_id) total order — completes the window family next to
    rank_window / percent_rank.  One hash shuffle, then a
    vectorized groupby-transform per bucket."""
    from ...stages.temporal import first_last_window

    events = _rp(sf_dir, "events", ["event_id", "ts", "user_id", "value"])
    out = first_last_window(events, key="user_id",
                            order_cols=["ts", "event_id"],
                            value_col="value")
    return out.map_batches(
        lambda df: df[["event_id", "user_id", "first_val", "last_val"]],
        batch_format="pandas")


SQL_FIRST_LAST = """
SELECT event_id, user_id,
       first_value(value) OVER w AS first_val,
       last_value(value) OVER w AS last_val
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING)
"""


_Z_BITS = 21  # covers key domains up to 2M; zval fits int64 (42 bits)


def q_zorder_sort(sf_dir: str):
    """Z-order (Morton) space-filling-curve sort — the multi-column
    data-layout operator behind clustered Parquet writes: rows close
    in (l_partkey, l_suppkey) land close in the output order, so both
    columns get effective min/max pruning.  Top 100 by z-value shown;
    the production form is ds.sort(zval) feeding the partitioned sink.

    Scale plan: the bit interleave is a map-only numpy pass (21
    shift/mask ops per column, no Python loop); the sort is Ray's
    distributed range sort; LIMIT is a per-block partial top-k."""
    ds = _rp(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])

    def zval(t: pa.Table) -> pa.Table:
        x = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        y = t["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        z = np.zeros(len(x), dtype=np.int64)
        for b in range(_Z_BITS):
            z |= ((x >> b) & 1) << (2 * b)
            z |= ((y >> b) & 1) << (2 * b + 1)
        return t.append_column("zval", pa.array(z, pa.int64()))

    out = ds.map_batches(zval, batch_format="pyarrow")
    return out.sort(["zval", "l_partkey", "l_suppkey"]).limit(100)


def _sql_zval(x: str, y: str, bits: int = _Z_BITS) -> str:
    terms = [f"((({x} >> {b}) & 1) << {2 * b}) | "
             f"((({y} >> {b}) & 1) << {2 * b + 1})" for b in range(bits)]
    return " | ".join(terms)


SQL_ZORDER_SORT = f"""
SELECT l_partkey, l_suppkey, {_sql_zval('l_partkey', 'l_suppkey')} AS zval
FROM lineitem
ORDER BY zval, l_partkey, l_suppkey
LIMIT 100
"""


def q_union_by_name(sf_dir: str):
    """Schema-evolution union: two document shards with DIFFERENT
    column subsets (old ingest: doc_id+lang; new ingest: doc_id+
    source+n_chars) aligned by column name with explicit defaults —
    the ingestion-compatibility operator for corpora whose schema
    grew over time.  Map-only: each side projects to the unified
    schema before a metadata-only union (no shuffle)."""
    old = _rp(sf_dir, "documents", ["doc_id", "lang"]).map_batches(
        lambda df: df[df["doc_id"] % 2 == 0].assign(
            lang=lambda d: d["lang"].astype(object),
            source="", n_chars=np.int64(-1)),
        batch_format="pandas")
    new = _rp(sf_dir, "documents",
              ["doc_id", "source", "n_chars"]).map_batches(
        lambda df: df[df["doc_id"] % 2 == 1].assign(
            lang="", source=lambda d: d["source"].astype(object)),
        batch_format="pandas")

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return df[["doc_id", "lang", "source", "n_chars"]]

    return old.map_batches(proj, batch_format="pandas").union(
        new.map_batches(proj, batch_format="pandas"))


SQL_UNION_BY_NAME = """
SELECT doc_id, lang, '' AS source, CAST(-1 AS BIGINT) AS n_chars
FROM documents WHERE doc_id % 2 = 0
UNION ALL
SELECT doc_id, '' AS lang, source, n_chars
FROM documents WHERE doc_id % 2 = 1
"""


def q_rendezvous_stability(sf_dir: str):
    """Rendezvous (highest-random-weight) partition assignment and its
    defining resize property: growing the node set 8 → 9 moves ONLY
    the keys won by the new node (~1/9 of them), never reshuffles the
    rest — the partitioning discipline that makes checkpoint/shard
    ownership survive cluster resizes.  Assignment is
    ``argmax_node hash(key ':' node)`` (DuckDB hash kernel, so the SQL
    oracle rebuilds every assignment bit-for-bit); the movement audit
    reduces per batch to four counters."""
    from ...functions.similarity import hash_strings_fast

    docs = _rp(sf_dir, "documents", ["doc_id"])

    def assign(ids: pd.Series, n_nodes: int) -> np.ndarray:
        h = np.stack([
            hash_strings_fast((ids + f":{n}").to_numpy(object))
            for n in range(n_nodes)], axis=1)
        return np.argmax(h, axis=1)   # first max = smallest node id

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].astype(str)
        p8, p9 = assign(ids, 8), assign(ids, 9)
        moved = p8 != p9
        return pd.DataFrame({
            "n_docs": [np.int64(len(df))],
            "moved": [np.int64(moved.sum())],
            "moved_to_new": [np.int64((moved & (p9 == 8)).sum())]})

    s = _rp(sf_dir, "documents", ["doc_id"]) \
        .map_batches(partial, batch_format="pandas").to_pandas().sum()
    n, mv = np.int64(s["n_docs"]), np.int64(s["moved"])
    return pd.DataFrame({
        "n_docs": [n], "moved": [mv],
        "moved_to_new": [np.int64(s["moved_to_new"])],
        "frac_moved": [np.round(mv / n, 6)]})


SQL_RENDEZVOUS_STABILITY = """
WITH a8 AS (
  SELECT doc_id, node FROM (
    SELECT doc_id, node, row_number() OVER (
        PARTITION BY doc_id
        ORDER BY hash(CAST(doc_id AS VARCHAR) || ':'
                      || CAST(node AS VARCHAR)) DESC, node) AS rn
    FROM documents
    CROSS JOIN (SELECT unnest(generate_series(0, 7)) AS node))
  WHERE rn = 1),
a9 AS (
  SELECT doc_id, node FROM (
    SELECT doc_id, node, row_number() OVER (
        PARTITION BY doc_id
        ORDER BY hash(CAST(doc_id AS VARCHAR) || ':'
                      || CAST(node AS VARCHAR)) DESC, node) AS rn
    FROM documents
    CROSS JOIN (SELECT unnest(generate_series(0, 8)) AS node))
  WHERE rn = 1)
SELECT CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(CASE WHEN a8.node <> a9.node THEN 1 ELSE 0 END)
            AS BIGINT) AS moved,
       CAST(sum(CASE WHEN a8.node <> a9.node AND a9.node = 8
                     THEN 1 ELSE 0 END) AS BIGINT) AS moved_to_new,
       round(sum(CASE WHEN a8.node <> a9.node THEN 1 ELSE 0 END)
             / CAST(count(*) AS DOUBLE), 6) AS frac_moved
FROM a8 JOIN a9 USING (doc_id)
"""


def q_pruned_scan(sf_dir: str):
    """Lakehouse file skipping: events written as one parquet file per
    DAY partition plus a min/max manifest
    (sources/manifest_scan.py), then a 5-day range read that opens
    ONLY the overlapping files before applying the exact row filter —
    at 100 TB the difference between touching 5 files and 5,000.  The
    aggregate is oracled against the unpartitioned table; the pruning
    evidence (files_read < files_total) is pinned in pytest."""
    from ...sources.manifest_scan import (
        read_pruned, write_partitioned_with_stats,
    )

    ev = _rp(sf_dir, "events",
             ["event_id", "ts", "event_type", "value"])
    day_us = np.int64(86400000000)

    def with_day(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["day"] = (df["ts"].to_numpy("datetime64[us]")
                      .astype(np.int64) // day_us)
        return out

    keyed = ev.map_batches(with_day, batch_format="pandas") \
        .materialize()
    d0 = int(keyed.min("day"))
    path = os.path.join("/tmp/graft_pruned_scan",
                        sf_dir.strip("/").replace("/", "_"))
    write_partitioned_with_stats(keyed, path, lambda df: df["day"],
                                 "day")
    ds, n_read, n_total = read_pruned(path, d0 + 10, d0 + 14)
    assert n_read < n_total, (n_read, n_total)   # pruning must engage

    def flt(df: pd.DataFrame) -> pd.DataFrame:
        d = df["day"].to_numpy(np.int64)
        keep = (d >= d0 + 10) & (d <= d0 + 14)
        out = pd.DataFrame({
            "event_type": df["event_type"].to_numpy(object)[keep],
            "n": np.int64(1),
            "sum_value": df["value"].to_numpy(np.float64)[keep]})
        return out.groupby("event_type", sort=False).sum().reset_index()

    g = rel.partial_groupby_agg(
        ds.map_batches(flt, batch_format="pandas"),
        ["event_type"], {"n": ("n", "sum"),
                         "sum_value": ("sum_value", "sum")})
    return pd.DataFrame({
        "event_type": g["event_type"].to_numpy(object),
        "n": g["n"].to_numpy(np.int64),
        "sum_value": np.round(g["sum_value"].to_numpy(np.float64), 6)})


SQL_PRUNED_SCAN = """
WITH b AS (SELECT min(epoch_us(ts)) // 86400000000 AS d0 FROM events)
SELECT event_type, CAST(count(*) AS BIGINT) AS n,
       round(sum(value), 6) AS sum_value
FROM events CROSS JOIN b
WHERE epoch_us(ts) // 86400000000 BETWEEN d0 + 10 AND d0 + 14
GROUP BY event_type
"""


def q_delta_agg_refresh(sf_dir: str):
    """Incremental materialized-view maintenance: the per-type (n,
    Σvalue) aggregate over the first 20 days is CHECKPOINTED as the
    view (written to parquet, then read back — the persisted-state
    shape), and the refresh folds in ONLY the post-cutoff delta rows —
    base data is never rescanned.  The oracle computes the full-table
    aggregate, so the driver check IS the incremental-equals-full
    equivalence proof."""
    ev = _rp(sf_dir, "events", ["ts", "event_type", "value"])
    day_us = np.int64(86400000000)

    def with_day(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "day": df["ts"].to_numpy("datetime64[us]")
            .astype(np.int64) // day_us,
            "event_type": df["event_type"].to_numpy(object),
            "value": df["value"].to_numpy(np.float64)})

    keyed = ev.map_batches(with_day, batch_format="pandas") \
        .materialize()
    d0 = int(keyed.min("day"))
    cut = d0 + 20

    def agg_period(pred):
        def part(df: pd.DataFrame) -> pd.DataFrame:
            m = pred(df["day"].to_numpy(np.int64))
            out = pd.DataFrame({
                "event_type": df["event_type"].to_numpy(object)[m],
                "n": np.int64(1),
                "s": df["value"].to_numpy(np.float64)[m]})
            return out.groupby("event_type", sort=False) \
                .sum().reset_index()

        return rel.partial_groupby_agg(
            keyed.map_batches(part, batch_format="pandas"),
            ["event_type"], {"n": ("n", "sum"), "s": ("s", "sum")})

    view_path = os.path.join("/tmp/graft_view",
                             sf_dir.strip("/").replace("/", "_"))
    os.makedirs(view_path, exist_ok=True)
    agg_period(lambda d: d < cut).to_parquet(
        os.path.join(view_path, "view.parquet"), index=False)

    base = pd.read_parquet(os.path.join(view_path, "view.parquet"))
    delta = agg_period(lambda d: d >= cut)
    merged = pd.concat([base, delta], ignore_index=True) \
        .groupby("event_type", sort=False).sum().reset_index()
    return pd.DataFrame({
        "event_type": merged["event_type"].to_numpy(object),
        "n": merged["n"].to_numpy(np.int64),
        "sum_value": np.round(merged["s"].to_numpy(np.float64), 6)})


SQL_DELTA_AGG_REFRESH = """
SELECT event_type, CAST(count(*) AS BIGINT) AS n,
       round(sum(value), 6) AS sum_value
FROM events GROUP BY event_type
"""


def q_bloom_pruned_scan(sf_dir: str):
    """Point-lookup file skipping with Bloom sidecars: events written
    one parquet file per DAY (the natural ingest partitioning) with a
    per-file Bloom filter over user_id in the manifest
    (sources/manifest_scan.py::write_partitioned_with_bloom — the
    bitmaps are built from the rows already co-located for each
    file's write, no extra pass), then a probe for the corpus's
    RAREST user opens only the days whose filter may contain them —
    min/max stats cannot prune an equality probe on a key the
    partitioning does not sort, which is the common "fetch this
    entity" access at 100 TB.  The lookup aggregate is oracled
    against the unpartitioned table; the pruning evidence
    (files_read < files_total) is pinned in pytest."""
    from ...sources.manifest_scan import (
        read_bloom_pruned, write_partitioned_with_bloom,
    )

    ev = _rp(sf_dir, "events", ["ts", "user_id", "value"])

    # rarest user: a bounded per-user count combiner, min count then
    # min id (deterministic, mirrored in the SQL)
    cnt = rel.partial_groupby_agg(
        ev.map_batches(
            lambda df: df.groupby("user_id", sort=False).size()
            .reset_index(name="n"), batch_format="pandas"),
        ["user_id"], {"n": ("n", "sum")})
    cnt = cnt.sort_values(["n", "user_id"], kind="mergesort")
    probe_user = int(cnt["user_id"].iloc[0])

    day_us = np.int64(86400000000)

    def with_day(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["day"] = (df["ts"].to_numpy("datetime64[us]")
                      .astype(np.int64) // day_us)
        return out

    keyed = ev.map_batches(with_day, batch_format="pandas")
    path = os.path.join("/tmp/graft_bloom_scan",
                        sf_dir.strip("/").replace("/", "_"))
    write_partitioned_with_bloom(keyed, path, lambda df: df["day"],
                                 "user_id")
    ds, _n_read, _n_total = read_bloom_pruned(path, [probe_user])

    def flt(df: pd.DataFrame, _u=probe_user) -> pd.DataFrame:
        keep = df["user_id"].to_numpy(np.int64) == _u
        return pd.DataFrame({
            "user_id": np.full(int(keep.sum()), _u, np.int64),
            "n_events": np.int64(1),
            "sum_value": df["value"].to_numpy(np.float64)[keep]})

    g = rel.partial_groupby_agg(
        ds.map_batches(flt, batch_format="pandas"),
        ["user_id"], {"n_events": ("n_events", "sum"),
                      "sum_value": ("sum_value", "sum")})
    return pd.DataFrame({
        "user_id": g["user_id"].to_numpy(np.int64),
        "n_events": g["n_events"].to_numpy(np.int64),
        "sum_value": np.round(g["sum_value"].to_numpy(np.float64), 6)})


SQL_BLOOM_PRUNED_SCAN = """
WITH c AS (SELECT user_id, count(*) AS n FROM events
           GROUP BY user_id ORDER BY n, user_id LIMIT 1)
SELECT e.user_id, CAST(count(*) AS BIGINT) AS n_events,
       round(sum(e.value), 6) AS sum_value
FROM events e JOIN c ON e.user_id = c.user_id
GROUP BY e.user_id
"""


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


def q_fixed_width_ingest(sf_dir: str):
    """S5-family fixed-width (COBOL-style) text source: the customer
    table is spooled to fixed-width shards (one file per block, a
    distributed sink — no driver funnel), read back with the text
    reader, and parsed by byte-offset slicing (vectorized pandas .str
    ops, no per-row Python).  The 2-decimal account balances survive
    the %.6f round-trip losslessly, so the oracle is the identity
    SELECT."""
    import ray.data as rd

    out_dir = os.path.join("/tmp/graft_fixedwidth",
                           sf_dir.strip("/").replace("/", "_"))
    import shutil

    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)

    cust = _rp(sf_dir, "customer",
               ["c_custkey", "c_name", "c_nationkey", "c_acctbal"])

    def write_shard(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"n": pd.Series([], dtype="int64")})
        lines = [
            f"{int(k):>12d}{n:<25s}{int(nk):>4d}{b:>15.6f}"
            for k, n, nk, b in zip(df["c_custkey"], df["c_name"],
                                   df["c_nationkey"], df["c_acctbal"])]
        shard = os.path.join(out_dir, f"part-{int(df['c_custkey'].iloc[0]):012d}.txt")
        with open(shard, "w") as f:
            f.write("\n".join(lines) + "\n")
        return pd.DataFrame({"n": [np.int64(len(df))]})

    cust.map_batches(write_shard, batch_format="pandas").materialize()

    txt = rd.read_text(out_dir)

    def parse(df: pd.DataFrame) -> pd.DataFrame:
        s = df["text"]
        out = pd.DataFrame({
            "c_custkey": s.str[0:12].astype(np.int64),
            "c_name": s.str[12:37].str.rstrip(),
            "c_nationkey": s.str[37:41].astype(np.int64),
            "c_acctbal": s.str[41:56].astype(np.float64)})
        out = out[out["c_nationkey"] < 5]
        if len(out) == 0:
            # typed-empty: object columns in 0-row frames break Ray's
            # block-size estimator
            out = out.astype({"c_name": "string"})
        return out

    return txt.map_batches(parse, batch_format="pandas")


SQL_FIXED_WIDTH_INGEST = """
SELECT c_custkey, c_name, CAST(c_nationkey AS BIGINT) AS c_nationkey,
       round(c_acctbal, 6) AS c_acctbal
FROM customer WHERE c_nationkey < 5
"""


def q_dq_audit(sf_dir: str):
    """Declarative data-quality audit: a rule set (range check, domain
    membership, referential integrity, key uniqueness) evaluated in
    ONE streamed pass over the fact table — per-batch boolean masks
    collapse to per-rule violation counts through the combiner; the FK
    check probes a broadcast dimension key set (the Bloom-sidecar path
    is the documented swap above broadcast scale) and uniqueness
    closes over a per-key count combiner."""
    import ray

    orders = _rp(sf_dir, "orders",
                 ["o_orderkey", "o_custkey", "o_orderstatus",
                  "o_totalprice"])
    ckeys = set(
        _rp(sf_dir, "customer", ["c_custkey"]).to_pandas()["c_custkey"]
        .astype(np.int64))
    ref = ray.put(ckeys)

    def check(df: pd.DataFrame) -> pd.DataFrame:
        keys = ray.get(ref)
        price = df["o_totalprice"].to_numpy(np.float64)
        status = df["o_orderstatus"]
        fk = df["o_custkey"].to_numpy(np.int64)
        return pd.DataFrame({
            "rule": ["price_range", "status_domain", "fk_customer"],
            "n_violations": [
                np.int64((~((price > 0.0) & (price < 1e6))).sum()),
                np.int64((~status.isin(["O", "F", "P"])).sum()),
                np.int64((~np.isin(fk, list(keys))).sum())]})

    per_rule = rel.partial_groupby_agg(
        orders.map_batches(check, batch_format="pandas"),
        ["rule"], {"n_violations": ("n_violations", "sum")})

    per_key = rel.partial_groupby_agg(
        orders.map_batches(
            lambda df: pd.DataFrame(
                {"o_orderkey": df["o_orderkey"], "c": np.int64(1)}),
            batch_format="pandas"),
        ["o_orderkey"], {"c": ("c", "sum")})
    dup = int((per_key["c"] - 1).clip(lower=0).sum())
    out = pd.concat([per_rule,
                     pd.DataFrame({"rule": ["unique_orderkey"],
                                   "n_violations": [dup]})],
                    ignore_index=True)
    out["n_violations"] = out["n_violations"].astype(np.int64)
    return out


SQL_DQ_AUDIT = """
SELECT 'price_range' AS rule,
       CAST(count(*) FILTER (WHERE NOT (o_totalprice > 0.0
                                        AND o_totalprice < 1e6))
            AS BIGINT) AS n_violations FROM orders
UNION ALL
SELECT 'status_domain',
       CAST(count(*) FILTER (WHERE o_orderstatus NOT IN ('O', 'F', 'P'))
            AS BIGINT) FROM orders
UNION ALL
SELECT 'fk_customer',
       CAST(count(*) FILTER (WHERE o_custkey NOT IN
                             (SELECT c_custkey FROM customer))
            AS BIGINT) FROM orders
UNION ALL
SELECT 'unique_orderkey',
       CAST(count(*) - count(DISTINCT o_orderkey) AS BIGINT) FROM orders
"""


def q_skew_report(sf_dir: str):
    """Key-skew profiling across the join/shuffle keys the engine
    actually partitions on (user_id, l_partkey, source): distinct-key
    count, hottest-key count and share — the report that decides
    salting and bucket counts before a big run.  One per-key count
    combiner per column; the report closes on bounded cell frames."""
    def one(ds, col: str, label: str) -> pd.DataFrame:
        cells = rel.partial_groupby_agg(
            ds.map_batches(
                lambda df, c=col: df.groupby(c, sort=False).size()
                .reset_index(name="c"),
                batch_format="pandas"),
            [col], {"c": ("c", "sum")})
        c = cells["c"].to_numpy(np.float64)
        return pd.DataFrame({
            "key_col": [label],
            "n_keys": [np.int64(len(c))],
            "max_count": [np.int64(c.max())],
            "max_share": [np.round(c.max() / c.sum(), 6)]})

    return pd.concat([
        one(_rp(sf_dir, "events", ["user_id"]), "user_id",
            "events.user_id"),
        one(_rp(sf_dir, "lineitem", ["l_partkey"]), "l_partkey",
            "lineitem.l_partkey"),
        one(_rp(sf_dir, "documents", ["source"]), "source",
            "documents.source")], ignore_index=True)


SQL_SKEW_REPORT = """
SELECT 'events.user_id' AS key_col, CAST(count(*) AS BIGINT) AS n_keys,
       CAST(max(c) AS BIGINT) AS max_count,
       round(CAST(max(c) AS DOUBLE) / sum(c), 6) AS max_share
FROM (SELECT count(*) AS c FROM events GROUP BY user_id)
UNION ALL
SELECT 'lineitem.l_partkey', CAST(count(*) AS BIGINT),
       CAST(max(c) AS BIGINT),
       round(CAST(max(c) AS DOUBLE) / sum(c), 6)
FROM (SELECT count(*) AS c FROM lineitem GROUP BY l_partkey)
UNION ALL
SELECT 'documents.source', CAST(count(*) AS BIGINT),
       CAST(max(c) AS BIGINT),
       round(CAST(max(c) AS DOUBLE) / sum(c), 6)
FROM (SELECT count(*) AS c FROM documents GROUP BY source)
"""


def q_compaction_plan(sf_dir: str):
    """Small-file compaction planning (the lakehouse maintenance step
    for the partitioned sink): first-fit-decreasing bin packing of
    per-file byte sizes into <= 4 MiB merge groups.  File sizes come
    from ONE metadata pass over a freshly written partitioned dataset
    (never the data); FFD itself is sequential over the bounded
    manifest — driver-side by design, like every manifest decision.
    Rows-only (bin packing is not SQL-expressible); pinned against an
    independent FFD in tests/test_compaction.py."""
    import glob as _glob

    out_dir = os.path.join("/tmp/graft_compact",
                           sf_dir.strip("/").replace("/", "_"))
    import shutil

    shutil.rmtree(out_dir, ignore_errors=True)
    li = _rp(sf_dir, "lineitem",
             ["l_orderkey", "l_partkey", "l_quantity"])
    li.repartition(24).write_parquet(out_dir)
    files = sorted(_glob.glob(os.path.join(out_dir, "*.parquet")))
    sizes = {os.path.basename(f): os.path.getsize(f) for f in files}
    plan = ffd_pack(sizes, target=4 * 1024 * 1024)
    return pd.DataFrame(
        [{"group": g, "file": f, "bytes": np.int64(sizes[f])}
         for g, fs in enumerate(plan) for f in fs])


def ffd_pack(sizes: dict, target: int) -> list:
    """First-fit-decreasing: files sorted by (size desc, name) into
    the first group with room; oversized files get their own group."""
    groups: list[list[str]] = []
    loads: list[int] = []
    for name, sz in sorted(sizes.items(), key=lambda kv: (-kv[1], kv[0])):
        for i, ld in enumerate(loads):
            if ld + sz <= target:
                groups[i].append(name)
                loads[i] += sz
                break
        else:
            groups.append([name])
            loads.append(sz)
    return [sorted(g) for g in groups]


def q_xml_ingest(sf_dir: str):
    """XML-lines source (S5-family sibling of the fixed-width reader):
    the customer table is spooled to one self-closing ``<row .../>``
    element per line across distributed shards, read back with the
    text reader and parsed by a VECTORIZED strict-pattern fast path
    (pandas str.extract) with a per-row xml.etree fallback for lines
    the pattern rejects — the error-tolerant-source discipline
    (sources/jsonl.py) applied to XML.  Attribute values are
    XML-escaped on write and unescaped on read, so the oracle is the
    identity SELECT."""
    import ray.data as rd

    out_dir = os.path.join("/tmp/graft_xml",
                           sf_dir.strip("/").replace("/", "_"))
    import shutil

    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)

    cust = _rp(sf_dir, "customer",
               ["c_custkey", "c_name", "c_acctbal"])

    def write_shard(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"n": pd.Series([], dtype="int64")})
        from xml.sax.saxutils import quoteattr

        lines = [
            f"<row k={quoteattr(str(int(k)))} "
            f"n={quoteattr(n)} b={quoteattr(f'{b:.6f}')}/>"
            for k, n, b in zip(df["c_custkey"], df["c_name"],
                               df["c_acctbal"])]
        shard = os.path.join(
            out_dir, f"part-{int(df['c_custkey'].iloc[0]):012d}.xml")
        with open(shard, "w") as f:
            f.write("\n".join(lines) + "\n")
        return pd.DataFrame({"n": [np.int64(len(df))]})

    cust.map_batches(write_shard, batch_format="pandas").materialize()
    txt = rd.read_text(out_dir)

    pat = r'^<row k="([^"<>&]*)" n="([^"<>&]*)" b="([^"<>&]*)"/>$'

    def parse(df: pd.DataFrame) -> pd.DataFrame:
        s = df["text"]
        m = s.str.extract(pat)
        bad = m[0].isna()
        if bad.any():
            # fallback: real XML parse for escaped/irregular lines
            import xml.etree.ElementTree as ET

            for i in s.index[bad]:
                el = ET.fromstring(s.loc[i])
                m.loc[i, 0] = el.attrib["k"]
                m.loc[i, 1] = el.attrib["n"]
                m.loc[i, 2] = el.attrib["b"]
        out = pd.DataFrame({
            "c_custkey": m[0].astype(np.int64),
            "c_name": m[1].astype(object),
            "c_acctbal": m[2].astype(np.float64)})
        if len(out) == 0:
            out = out.astype({"c_name": "string"})
        return out

    return txt.map_batches(parse, batch_format="pandas")


SQL_XML_INGEST = """
SELECT c_custkey, c_name, round(c_acctbal, 6) AS c_acctbal
FROM customer
"""


QUERIES = {
    "md5_fingerprint": q_md5_fingerprint,
    "field_extract": q_field_extract,
    "jsonl_ingest": q_jsonl_ingest,
    "audit_stats": q_audit_stats,
    "csv_roundtrip": q_csv_roundtrip,
    "field_extract_nested": q_field_extract_nested,
    "extract_pivot": q_extract_pivot,
    "bloom_anti_join": q_bloom_anti_join,
    "json_extract": q_json_extract,
    "warc_ingest": q_warc_ingest,
    "orc_roundtrip": q_orc_roundtrip,
    "ipc_roundtrip": q_ipc_roundtrip,
    "scd2_intervals": q_scd2_intervals,
    "profile_table": q_profile_table,
    "table_diff": q_table_diff,
    "value_histogram": q_value_histogram,
    "bloom_pruned_scan": q_bloom_pruned_scan,
    "merge_upsert": q_merge_upsert,
    "fixed_width_ingest": q_fixed_width_ingest,
    "dq_audit": q_dq_audit,
    "skew_report": q_skew_report,
    "compaction_plan": q_compaction_plan,
    "xml_ingest": q_xml_ingest,
    "url_canonical": q_url_canonical,
    "zorder_sort": q_zorder_sort,
    "union_by_name": q_union_by_name,
    "rendezvous_stability": q_rendezvous_stability,
    "pruned_scan": q_pruned_scan,
    "delta_agg_refresh": q_delta_agg_refresh,
    "first_last": q_first_last,
}

ORACLES = {
    "md5_fingerprint": SQL_MD5_FINGERPRINT,
    "field_extract": SQL_FIELD_EXTRACT,
    "jsonl_ingest": SQL_JSONL_INGEST,
    "audit_stats": SQL_AUDIT_STATS,
    "csv_roundtrip": SQL_CSV_ROUNDTRIP,
    "field_extract_nested": SQL_FIELD_EXTRACT_NESTED,
    "extract_pivot": SQL_EXTRACT_PIVOT,
    "bloom_anti_join": SQL_BLOOM_ANTI_JOIN,
    "url_canonical": SQL_URL_CANONICAL,
    "json_extract": SQL_JSON_EXTRACT,
    "warc_ingest": SQL_WARC_INGEST,
    "orc_roundtrip": SQL_ORC_ROUNDTRIP,
    "ipc_roundtrip": SQL_IPC_ROUNDTRIP,
    "scd2_intervals": SQL_SCD2_INTERVALS,
    "profile_table": _profile_sql(),
    "table_diff": SQL_TABLE_DIFF,
    "value_histogram": SQL_VALUE_HISTOGRAM,
    "bloom_pruned_scan": SQL_BLOOM_PRUNED_SCAN,
    "merge_upsert": SQL_MERGE_UPSERT,
    "fixed_width_ingest": SQL_FIXED_WIDTH_INGEST,
    "dq_audit": SQL_DQ_AUDIT,
    "skew_report": SQL_SKEW_REPORT,
    "xml_ingest": SQL_XML_INGEST,
    "zorder_sort": SQL_ZORDER_SORT,
    "union_by_name": SQL_UNION_BY_NAME,
    "rendezvous_stability": SQL_RENDEZVOUS_STABILITY,
    "pruned_scan": SQL_PRUNED_SCAN,
    "delta_agg_refresh": SQL_DELTA_AGG_REFRESH,
    "first_last": SQL_FIRST_LAST,
}
