"""Relational operators: joins, group-bys, windows, sampling, set ops.

The ``QUERIES`` / ``ORACLES`` tables at the end register this family.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ...stages import relational as rel
from ...stages import textstats as ts
from ._shared import _rp

# --------------------------------------------------------------------------
# SQL-oracled queries (SURVEY §2 operator inventory)
# --------------------------------------------------------------------------


def q_filter_project(sf_dir: str):
    """M4/M9: vectorized filter + projection, pruned at the read."""
    ds = _rp(sf_dir, "lineitem",
             ["l_orderkey", "l_partkey", "l_quantity", "l_extendedprice",
              "l_shipdate"])

    def flt(t: pa.Table) -> pa.Table:
        mask = pc.and_(pc.less(t["l_shipdate"],
                               pa.scalar(pd.Timestamp("1996-01-01"))),
                       pc.greater(t["l_quantity"], 25.0))
        return t.filter(mask).drop_columns(["l_shipdate"])

    return ds.map_batches(flt, batch_format="pyarrow")


SQL_FILTER_PROJECT = """
SELECT l_orderkey, l_partkey, l_quantity, l_extendedprice
FROM lineitem
WHERE l_shipdate < TIMESTAMP '1996-01-01' AND l_quantity > 25
"""


def q_groupby_agg(sf_dir: str):
    """A1/A4 slot: grouped aggregate (TPC-H Q1 shape).  Group count is
    tiny (returnflag x linestatus = 4), so this runs as per-batch
    partials + a driver combine — no shuffle (see
    ``relational.partial_groupby_agg``)."""
    ds = _rp(sf_dir, "lineitem",
             ["l_returnflag", "l_linestatus", "l_quantity",
              "l_extendedprice", "l_discount"])
    df = rel.partial_groupby_agg(
        ds, ["l_returnflag", "l_linestatus"], {
            "sum_qty": ("l_quantity", "sum"),
            "sum_base_price": ("l_extendedprice", "sum"),
            "sum_disc": ("l_discount", "sum"),
            "n": (None, "count"),
        })
    df["avg_disc"] = (df["sum_disc"] / df["n"]).round(6)
    df = df.drop(columns=["sum_disc"])
    df["sum_qty"] = df["sum_qty"].round(2)
    df["sum_base_price"] = df["sum_base_price"].round(2)
    return df


SQL_GROUPBY_AGG = """
SELECT l_returnflag, l_linestatus,
       round(sum(l_quantity), 2) AS sum_qty,
       round(sum(l_extendedprice), 2) AS sum_base_price,
       round(avg(l_discount), 6) AS avg_disc,
       count(*) AS n
FROM lineitem
GROUP BY l_returnflag, l_linestatus
"""


def q_sort_limit(sf_dir: str):
    """O1/O2/O3: global sort + limit (top-k)."""
    ds = _rp(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    return ds.sort(["o_totalprice", "o_orderkey"],
                   descending=[True, False]).limit(100)


SQL_SORT_LIMIT = """
SELECT o_orderkey, o_custkey, o_totalprice
FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 100
"""


def q_distinct(sf_dir: str):
    """D2/D4: multi-column DISTINCT."""
    ds = _rp(sf_dir, "customer", ["c_mktsegment", "c_nationkey"])
    return rel.distinct(ds, ["c_mktsegment", "c_nationkey"])


SQL_DISTINCT = "SELECT DISTINCT c_mktsegment, c_nationkey FROM customer"


def q_broadcast_join(sf_dir: str):
    """J2: small-side broadcast join — the genuinely-constant nation
    lookup (25 rows by schema) ships once via ray.put, while customer,
    which SCALES with the dataset, stays a distributed hash join
    (never collected on the driver)."""
    orders = _rp(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = _rp(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    nation = _rp(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    joined = rel.hash_join(orders, cust, on=["o_custkey"],
                           right_on=["c_custkey"],
                           rows_hint=orders.count() + cust.count())
    joined = rel.broadcast_join(
        joined, nation[["n_nationkey", "n_name"]].rename(
            columns={"n_nationkey": "c_nationkey"}),
        on=["c_nationkey"], how="inner")
    df = rel.partial_groupby_agg(joined, ["n_name"], {
        "n_orders": (None, "count"),
        "total_price": ("o_totalprice", "sum"),
    })
    df["total_price"] = df["total_price"].round(2)
    return df


SQL_BROADCAST_JOIN = """
SELECT n_name, count(*) AS n_orders,
       round(sum(o_totalprice), 2) AS total_price
FROM orders
JOIN customer ON o_custkey = c_custkey
JOIN nation ON c_nationkey = n_nationkey
GROUP BY n_name
"""


def q_hash_join(sf_dir: str):
    """J1/J8: large-large hash-partitioned equi-join + aggregate."""
    li = _rp(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])
    orders = _rp(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    joined = rel.hash_join(li, orders, on=["l_orderkey"],
                           right_on=["o_orderkey"],
                           rows_hint=li.count() + orders.count())
    df = rel.partial_groupby_agg(joined, ["o_orderpriority"], {
        "n_lineitems": (None, "count"),
        "sum_qty": ("l_quantity", "sum"),
    })
    df["sum_qty"] = df["sum_qty"].round(2)
    return df


SQL_HASH_JOIN = """
SELECT o_orderpriority, count(*) AS n_lineitems,
       round(sum(l_quantity), 2) AS sum_qty
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY o_orderpriority
"""


def _typed_or_empty(ds, schema: dict[str, str]):
    """Return ``ds`` unless its result is completely empty, in which
    case return a typed pandas frame: Ray 2.49 strips the schema off
    ANY 0-row Dataset (to_pandas -> zero columns, and typed 0-row
    anchors don't survive from_arrow), so a query whose result can
    legitimately drain to nothing at small scale must carry its own
    output schema.  The materialize is bounded by the query's result
    size (never the input)."""
    out = ds.materialize()
    if out.count() == 0:
        return pd.DataFrame({c: pd.Series([], dtype=t)
                             for c, t in schema.items()})
    return out


def q_anti_join(sf_dir: str):
    """J4/J5: exclusion anti-join via broadcast key set.  At sf0.001
    every customer has a recent order, so the result is legitimately
    empty — routed through the typed-empty guard."""
    cust = _rp(sf_dir, "customer", ["c_custkey", "c_name", "c_mktsegment"])
    recent = _rp(sf_dir, "orders", ["o_custkey", "o_orderdate"]).map_batches(
        lambda t: t.filter(pc.greater_equal(
            t["o_orderdate"], pa.scalar(pd.Timestamp("1997-06-01")))),
        batch_format="pyarrow")
    order_keys = set(recent.unique("o_custkey"))
    return _typed_or_empty(
        rel.broadcast_anti_join(cust, order_keys, on="c_custkey"),
        {"c_custkey": "int64", "c_name": "string",
         "c_mktsegment": "string"})


SQL_ANTI_JOIN = """
SELECT c_custkey, c_name, c_mktsegment FROM customer
WHERE c_custkey NOT IN (
  SELECT o_custkey FROM orders
  WHERE o_orderdate >= TIMESTAMP '1997-06-01')
"""


def q_union_distinct(sf_dir: str):
    """D3: UNION with dedup semantics."""
    c = _rp(sf_dir, "customer", ["c_nationkey"]).map_batches(
        lambda t: pa.table({"nationkey": t["c_nationkey"]}),
        batch_format="pyarrow")
    s = _rp(sf_dir, "supplier", ["s_nationkey"]).map_batches(
        lambda t: pa.table({"nationkey": t["s_nationkey"]}),
        batch_format="pyarrow")
    return rel.distinct(c.union(s), ["nationkey"])


SQL_UNION_DISTINCT = """
SELECT c_nationkey AS nationkey FROM customer
UNION
SELECT s_nationkey AS nationkey FROM supplier
"""


def q_representative_min(sf_dir: str):
    """A2: deterministic representative per key (MIN, not FIRST)."""
    ds = _rp(sf_dir, "customer", ["c_mktsegment", "c_name"])
    return rel.representative_first(ds, "c_mktsegment", "c_name")


SQL_REPRESENTATIVE_MIN = """
SELECT c_mktsegment, min(c_name) AS c_name FROM customer
GROUP BY c_mktsegment
"""


_EVENT_PRIORITY = {"purchase": 1, "signup": 2, "view": 3, "click": 4,
                   "error": 5}


def q_priority_dedup(sf_dir: str):
    """D1: priority window-dedup (best event per user)."""
    ds = _rp(sf_dir, "events", ["event_id", "user_id", "event_type"])

    def add_priority(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["prio"] = df["event_type"].map(_EVENT_PRIORITY).fillna(9).astype("int64")
        return df

    with_prio = ds.map_batches(add_priority, batch_format="pandas")
    out = rel.priority_dedup(with_prio, keys=["user_id"],
                             order_by=["prio", "event_id"])
    return out.select_columns(["user_id", "event_id", "event_type"])


SQL_PRIORITY_DEDUP = """
SELECT user_id, event_id, event_type FROM (
  SELECT user_id, event_id, event_type,
         row_number() OVER (
           PARTITION BY user_id
           ORDER BY CASE event_type
             WHEN 'purchase' THEN 1 WHEN 'signup' THEN 2
             WHEN 'view' THEN 3 WHEN 'click' THEN 4
             WHEN 'error' THEN 5 ELSE 9 END,
           event_id) AS rn
  FROM events) WHERE rn = 1
"""


def q_count_distinct(sf_dir: str):
    """A3/A6: per-group COUNT + COUNT(DISTINCT user_id) in ONE bucketed
    shuffle keyed on (event_type, user_id): every row of a given
    (type, user) combination lands in exactly one bucket, so per-bucket
    ``nunique`` partials sum exactly; a tiny driver-side combine
    finishes.  No join of two grouped aggregates (the round-1 version
    hash-joined two groupbys and died on empty zero-column blocks in
    Ray's join finalize at high partition counts) and one shuffle
    instead of three.  Ref A3: ``repository.py:516-525``."""
    from ...stages.shuffle import bucketed_map_groups

    ds = _rp(sf_dir, "events", ["event_type", "user_id"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("event_type", sort=False)
        out = pd.DataFrame({"n_events": g.size(),
                            "n_users": g["user_id"].nunique()})
        return out.reset_index()

    partials = bucketed_map_groups(ds, ["event_type", "user_id"], partial,
                                   num_buckets=64)
    return rel.partial_groupby_agg(partials, ["event_type"], {
        "n_events": ("n_events", "sum"),
        "n_users": ("n_users", "sum"),
    })


SQL_COUNT_DISTINCT = """
SELECT event_type, count(*) AS n_events,
       count(DISTINCT user_id) AS n_users
FROM events GROUP BY event_type
"""


def q_explode_split(sf_dir: str):
    """M10: multi-value splitter (UNNEST(string_split(...)))."""
    ds = _rp(sf_dir, "part", ["p_type"])
    exploded = rel.explode_split(ds, "p_type", " ", out_col="word")
    return rel.distinct(exploded.select_columns(["word"]), ["word"])


SQL_EXPLODE_SPLIT = """
SELECT DISTINCT word FROM (
  SELECT unnest(string_split(trim(p_type), ' ')) AS word FROM part)
WHERE word <> ''
"""


def q_topk_per_group(sf_dir: str):
    """Top-k per group (window-function analogue)."""
    ds = _rp(sf_dir, "events", ["event_type", "event_id", "value"])
    out = rel.topk_per_group(ds, ["event_type"], "value", k=2,
                             descending=True)
    return out.select_columns(["event_type", "event_id", "value"])


SQL_TOPK_PER_GROUP = """
SELECT event_type, event_id, value FROM (
  SELECT event_type, event_id, value,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY value DESC, event_id) AS rn
  FROM events) WHERE rn <= 2
"""


def q_percentile_filter(sf_dir: str):
    """Curation gate composition: keep documents whose token count
    exceeds the corpus-wide exact p75 — the threshold comes from a
    shuffle-free histogram combiner (exact quantile_disc parity), then
    a broadcast-scalar vectorized filter."""
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    stats = ts.token_count_stage(ds, "text").select_columns(
        ["doc_id", "n_tokens"])
    return ts.quantile_threshold_filter(stats, "n_tokens", 0.75)


SQL_PERCENTILE_FILTER = """
WITH s AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' OR text IS NULL THEN 0
              ELSE len(regexp_split_to_array(trim(text), '\\s+')) END AS n_tokens
  FROM documents
), thr AS (SELECT quantile_disc(n_tokens, 0.75) AS t FROM s)
SELECT doc_id, n_tokens FROM s, thr WHERE n_tokens > thr.t
"""


def q_intersect(sf_dir: str):
    """Set op INTERSECT (distinct): users who both clicked and
    purchased — one bucketed co-location shuffle, no join."""
    ev = _rp(sf_dir, "events", ["user_id", "event_type"])
    clicks = ev.filter(expr="event_type == 'click'")
    buys = ev.filter(expr="event_type == 'purchase'")
    return rel.set_op(clicks.select_columns(["user_id"]),
                      buys.select_columns(["user_id"]),
                      ["user_id"], op="intersect")


SQL_INTERSECT = """
SELECT user_id FROM events WHERE event_type = 'click'
INTERSECT
SELECT user_id FROM events WHERE event_type = 'purchase'
"""


def q_except(sf_dir: str):
    """Set op EXCEPT (distinct): customers with finished orders who
    never appear as clicking users (cross-table key difference)."""
    orders = _rp(sf_dir, "orders", ["o_custkey", "o_orderstatus"])
    fin = (orders.filter(expr="o_orderstatus == 'F'")
                 .select_columns(["o_custkey"])
                 .rename_columns({"o_custkey": "ukey"}))
    ev = _rp(sf_dir, "events", ["user_id", "event_type"])
    clicks = (ev.filter(expr="event_type == 'click'")
                .select_columns(["user_id"])
                .rename_columns({"user_id": "ukey"}))
    return rel.set_op(fin, clicks, ["ukey"], op="except")


SQL_EXCEPT = """
SELECT o_custkey AS ukey FROM orders WHERE o_orderstatus = 'F'
EXCEPT
SELECT user_id AS ukey FROM events WHERE event_type = 'click'
"""


def q_cube_agg(sf_dir: str):
    """GROUP BY CUBE: every subset of (returnflag, linestatus) —
    finest level aggregated once (shuffle-free combiner), all other
    subsets derived from it."""
    ds = _rp(sf_dir, "lineitem",
             ["l_returnflag", "l_linestatus", "l_quantity"])
    df = rel.cube_agg(ds, ["l_returnflag", "l_linestatus"], {
        "sum_qty": ("l_quantity", "sum"),
        "n": (None, "count"),
    })
    df["sum_qty"] = df["sum_qty"].round(2)
    return df


SQL_CUBE_AGG = """
SELECT coalesce(l_returnflag, 'ALL') AS l_returnflag,
       coalesce(l_linestatus, 'ALL') AS l_linestatus,
       round(sum(l_quantity), 2) AS sum_qty,
       count(*) AS n
FROM lineitem
GROUP BY CUBE(l_returnflag, l_linestatus)
"""


def q_rollup_agg(sf_dir: str):
    """GROUP BY ROLLUP: subtotals per (returnflag, linestatus), per
    returnflag, and grand total — aggregated ONCE at the finest level
    (combiner, no shuffle), coarser levels derived from the tiny
    finest frame.  Rolled-up keys carry 'ALL' (source keys non-null),
    so the output hashes identically across engines."""
    ds = _rp(sf_dir, "lineitem",
             ["l_returnflag", "l_linestatus", "l_quantity"])
    df = rel.rollup_agg(ds, ["l_returnflag", "l_linestatus"], {
        "sum_qty": ("l_quantity", "sum"),
        "n": (None, "count"),
    })
    df["sum_qty"] = df["sum_qty"].round(2)
    return df


SQL_ROLLUP_AGG = """
SELECT coalesce(l_returnflag, 'ALL') AS l_returnflag,
       coalesce(l_linestatus, 'ALL') AS l_linestatus,
       round(sum(l_quantity), 2) AS sum_qty,
       count(*) AS n
FROM lineitem
GROUP BY ROLLUP(l_returnflag, l_linestatus)
"""


def q_group_pivot(sf_dir: str):
    """A1 slot: per-group record assembly."""
    ds = _rp(sf_dir, "events", ["user_id", "event_id", "ts", "event_type",
                                "value"])
    out = rel.group_pivot(ds, "user_id", {
        "n_events": ("event_id", "count"),
        "first_ts": ("ts", "min"),
        "last_ts": ("ts", "max"),
        "n_types": ("event_type", "nunique"),
    })

    return out


SQL_GROUP_PIVOT = """
SELECT user_id, count(*) AS n_events, min(ts) AS first_ts,
       max(ts) AS last_ts, count(DISTINCT event_type) AS n_types
FROM events GROUP BY user_id
"""


_ENTITIES = ["green", "blue", "red"]


def q_containment_join(sf_dir: str):
    """J6: substring containment theta-join against a broadcast list."""
    ds = _rp(sf_dir, "part", ["p_partkey", "p_name"])
    out = rel.containment_join(ds, "p_name", _ENTITIES, entity_col="entity")
    return out.select_columns(["p_partkey", "entity"])


SQL_CONTAINMENT_JOIN = """
SELECT p_partkey, entity
FROM part CROSS JOIN (VALUES ('green'), ('blue'), ('red')) AS e(entity)
WHERE p_name LIKE '%' || entity || '%'
"""


def q_quantile_agg(sf_dir: str):
    """Exact per-group quantiles (median + p90, linear interpolation =
    DuckDB quantile_cont)."""
    from ...stages.temporal import quantile_agg

    events = _rp(sf_dir, "events", ["event_type", "value"])
    out = quantile_agg(events, ["event_type"], "value",
                       {"p50": 0.5, "p90": 0.9})

    def rounded(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["p50"] = df["p50"].round(4)
        df["p90"] = df["p90"].round(4)
        return df

    return out.map_batches(rounded, batch_format="pandas")


SQL_QUANTILE_AGG = """
SELECT event_type,
       round(quantile_cont(value, 0.5), 4) AS p50,
       round(quantile_cont(value, 0.9), 4) AS p90
FROM events GROUP BY event_type
"""


def q_hash_sample(sf_dir: str):
    """Deterministic md5-prefix sampling (~10.2% of keys): stable under
    repartition/retry, no RNG coordination, exactly reproducible by the
    oracle."""
    from ...stages.sketch import hash_sample

    ds = _rp(sf_dir, "documents", ["doc_id", "lang"])
    return hash_sample(ds, "doc_id", "1a")


SQL_HASH_SAMPLE = """
SELECT doc_id, lang FROM documents
WHERE substr(md5(CAST(doc_id AS VARCHAR)), 1, 2) < '1a'
"""


def q_stratified_sample(sf_dir: str):
    """Deterministic stratified sampling: 5 customers per market
    segment, picked by smallest md5(custkey) — reproducible on any
    engine, stable under repartition/retry."""
    from ...stages.sketch import stratified_sample

    ds = _rp(sf_dir, "customer", ["c_mktsegment", "c_custkey", "c_name"])
    return stratified_sample(ds, ["c_mktsegment"], "c_custkey", 5)


SQL_STRATIFIED_SAMPLE = """
SELECT c_mktsegment, c_custkey, c_name FROM (
  SELECT c_mktsegment, c_custkey, c_name,
         row_number() OVER (PARTITION BY c_mktsegment
                            ORDER BY md5(CAST(c_custkey AS VARCHAR)),
                                     c_custkey) AS rn
  FROM customer) WHERE rn <= 5
"""


def q_unpivot(sf_dir: str):
    """Wide -> long reshape (SQL UNPIVOT): lineitem measures melted to
    one row per (line, measure)."""
    ds = _rp(sf_dir, "lineitem",
             ["l_orderkey", "l_linenumber", "l_quantity",
              "l_extendedprice", "l_discount"])
    out = rel.unpivot(ds, ["l_orderkey", "l_linenumber"],
                      ["l_quantity", "l_extendedprice", "l_discount"])

    def rounded(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["value"] = df["value"].round(2)
        return df

    return out.map_batches(rounded, batch_format="pandas")


SQL_UNPIVOT = """
SELECT l_orderkey, l_linenumber, 'l_quantity' AS measure,
       round(CAST(l_quantity AS DOUBLE), 2) AS value FROM lineitem
UNION ALL
SELECT l_orderkey, l_linenumber, 'l_extendedprice',
       round(CAST(l_extendedprice AS DOUBLE), 2) FROM lineitem
UNION ALL
SELECT l_orderkey, l_linenumber, 'l_discount',
       round(CAST(l_discount AS DOUBLE), 2) FROM lineitem
"""


def q_group_concat(sf_dir: str):
    """A1 variant: per-group ordered string aggregation (SQL
    string_agg with ORDER BY) — nation names per region."""
    from ...stages.relational import group_concat

    nation = _rp(sf_dir, "nation", ["n_regionkey", "n_name"])
    return group_concat(nation, ["n_regionkey"], "n_name", sep=",",
                        out_col="nations", num_buckets=8)


SQL_GROUP_CONCAT = """
SELECT n_regionkey, string_agg(n_name, ',' ORDER BY n_name) AS nations
FROM nation GROUP BY n_regionkey
"""


def q_cume_sum(sf_dir: str):
    """Window running total per user ordered by (ts, event_id) — SQL
    SUM OVER UNBOUNDED PRECEDING.  The per-group accumulation order
    matches the SQL window's, so float sums are bit-identical."""
    from ...stages.temporal import cumulative_agg

    events = _rp(sf_dir, "events", ["event_id", "ts", "user_id", "value"])
    out = cumulative_agg(events, key="user_id", order_cols=["ts", "event_id"],
                         value_col="value", agg="sum", out_col="running")

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        df = df[["event_id", "user_id", "running"]].copy()
        df["running"] = df["running"].round(4)
        return df

    return out.map_batches(proj, batch_format="pandas")


SQL_CUME_SUM = """
SELECT event_id, user_id,
       round(sum(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
                              ROWS UNBOUNDED PRECEDING), 4) AS running
FROM events
"""


def q_rank_window(sf_dir: str):
    """Window row_number per user ordered by (ts, event_id): every
    event gains its 1-based rank within its user's timeline."""
    from ...stages.temporal import row_number

    events = _rp(sf_dir, "events", ["event_id", "ts", "user_id"])
    out = row_number(events, key="user_id", order_cols=["ts", "event_id"],
                     out_col="rn")
    return out.map_batches(
        lambda df: df[["event_id", "user_id", "rn"]],
        batch_format="pandas")


SQL_RANK_WINDOW = """
SELECT event_id, user_id,
       row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn
FROM events
"""


def q_skew_join(sf_dir: str):
    """Skew-aware join: events fact to customer dimension where a few
    user_ids dominate the event stream.  Hot keys (detected via
    bounded per-batch count partials) take a broadcast map-side path
    and never enter the shuffle; cold keys take the normal hash
    exchange.  Exercises BOTH paths at every sf (the synthetic user
    distribution has heavy and light users)."""
    ev = _rp(sf_dir, "events", ["event_id", "user_id"])
    cust = _rp(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    return rel.skew_join(ev, cust, on=["user_id"], right_on=["c_custkey"],
                         rows_hint=ev.count() + cust.count())


SQL_SKEW_JOIN = """
SELECT e.event_id, e.user_id, c.c_mktsegment
FROM events e JOIN customer c ON e.user_id = c.c_custkey
"""


_SPLIT_FRACTIONS = {"train": 0.8, "val": 0.1, "test": 0.1}


def q_dataset_split(sf_dir: str):
    """Deterministic train/val/test assignment by doc_id hash —
    map-only, stable under repartition and corpus growth (a row's
    split never changes when rows are appended)."""
    from ...stages.sketch import dataset_split

    return dataset_split(_rp(sf_dir, "documents", ["doc_id", "lang"]),
                         "doc_id", _SPLIT_FRACTIONS)


def _dataset_split_sql() -> str:
    names = list(_SPLIT_FRACTIONS)
    bounds = np.cumsum([_SPLIT_FRACTIONS[n] for n in names])
    # embed the EXACT float boundaries the Ray side uses (np.cumsum of
    # the fractions), not re-typed literals — 0.8 + 0.1 != 0.9 in IEEE
    case = "CASE " + " ".join(
        f"WHEN u < {bounds[i]!r} THEN '{names[i]}'"
        for i in range(len(names) - 1)) + f" ELSE '{names[-1]}' END"
    return f"""
SELECT doc_id, lang, {case} AS split
FROM (SELECT doc_id, lang,
             hash(CAST(doc_id AS VARCHAR)) / 18446744073709551616.0 AS u
      FROM documents)
"""


_WSAMPLE_WEIGHTS = {"en": 2.0, "zh": 1.0, "es": 0.5, "de": 1.5, "fr": 1.0}


def q_weighted_sample(sf_dir: str):
    """Weighted sampling without replacement (Efraimidis-Spirakis
    A-Res, k=100, per-language weights, hash-derived uniforms): global
    top-k by ln(u)/w via bounded per-batch partial top-k — no shuffle,
    deterministic, SQL-reproducible."""
    from ...stages.sketch import weighted_sample

    return weighted_sample(_rp(sf_dir, "documents", ["doc_id", "lang"]),
                           "doc_id", _WSAMPLE_WEIGHTS, k=100,
                           group_col="lang")


SQL_WEIGHTED_SAMPLE = """
WITH w(lang, wt) AS (VALUES ('en', 2.0), ('zh', 1.0), ('es', 0.5),
                            ('de', 1.5), ('fr', 1.0)),
b AS (
  SELECT doc_id, d.lang,
         ln((hash(CAST(doc_id AS VARCHAR)) + 1)
            / 18446744073709551616.0) / coalesce(wt, 1.0) AS pri
  FROM documents d LEFT JOIN w USING (lang))
SELECT doc_id, lang FROM b ORDER BY pri DESC LIMIT 100
"""


def q_grouping_sets(sf_dir: str):
    """GROUP BY GROUPING SETS — the generalization ROLLUP/CUBE are
    shorthands for: explicit level list ((rf, ls), (shipmode), ()).
    ONE shuffle-free finest-level combiner aggregate over the union
    of set keys; every requested set derives from that small frame
    (see relational.grouping_sets_agg)."""
    ds = _rp(sf_dir, "orders",
             ["o_orderstatus", "o_orderpriority", "o_totalprice"])
    df = rel.grouping_sets_agg(
        ds,
        [["o_orderstatus", "o_orderpriority"], ["o_orderpriority"], []],
        {"sum_price": ("o_totalprice", "sum"), "n": (None, "count")})
    df["sum_price"] = df["sum_price"].round(2)
    return df


SQL_GROUPING_SETS = """
SELECT coalesce(o_orderstatus, 'ALL') AS o_orderstatus,
       coalesce(o_orderpriority, 'ALL') AS o_orderpriority,
       round(sum(o_totalprice), 2) AS sum_price, count(*) AS n
FROM orders
GROUP BY GROUPING SETS ((o_orderstatus, o_orderpriority),
                        (o_orderpriority), ())
"""


def q_merge_join(sf_dir: str):
    """Sort-merge physical plan for the J1/J8 equi-join
    (stages/relational.py::sort_merge_join): both sides
    range-partition on shared contiguous key boundaries, each range
    sorts locally and zippers with searchsorted runs — no hash table,
    key-ordered output ranges.  Same logical result as hash_join
    (equality pinned in tests); the aggregate here is oracled
    directly."""
    from ...stages.relational import sort_merge_join

    li = _rp(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice"])
    orders = _rp(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    joined = sort_merge_join(li, orders, on="l_orderkey",
                             right_on="o_orderkey")
    df = rel.partial_groupby_agg(joined, ["o_orderpriority"], {
        "n_lineitems": (None, "count"),
        "sum_price": ("l_extendedprice", "sum"),
    })
    df["sum_price"] = df["sum_price"].round(2)
    return df


SQL_MERGE_JOIN = """
SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS n_lineitems,
       round(sum(l_extendedprice), 2) AS sum_price
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY o_orderpriority
"""


def q_coverage_sample(sf_dir: str):
    """Greedy maximum-coverage subset selection (k = 8 docs maximizing
    distinct-token coverage) — the submodular facility-location
    sampler behind coreset/diversity curation (Nemhauser's greedy
    keeps the (1−1/e) guarantee).  Greedy is inherently sequential in
    k, so the distributed shape is k ROUNDS of one combiner pass
    each: the covered-token set broadcasts (as DuckDB-hash digests),
    every batch scores its docs' MARGINAL gain vectorized and emits
    its local argmax, the driver reduces O(batches) candidates.
    ORACLED (round-5, upgraded from rows-only): the k greedy rounds
    run as a recursive CTE — each iteration LATERAL-picks the max
    marginal-gain doc (gain DESC, doc_id) against a carried
    covered-token-hash list; token hashes are DuckDB hash() on both
    sides, so gains are exact integers.  Additionally pinned in
    pytest against a single-process exact greedy run."""
    from ...functions.similarity import hash_strings_fast

    k = 8
    docs = _rp(sf_dir, "documents", ["doc_id", "text"]).materialize()
    covered: set = set()
    picks = []
    for _ in range(k):
        cov = frozenset(covered)

        def best(df: pd.DataFrame, _cov=cov) -> pd.DataFrame:
            toks = ts._ws_tokens(df["text"]).reset_index(drop=True)
            ex = toks.explode().dropna()
            if ex.empty:
                return pd.DataFrame({
                    "doc_id": pd.Series([], dtype="int64"),
                    "gain": pd.Series([], dtype="int64")})
            h = hash_strings_fast(ex.to_numpy(object))
            new = ~np.isin(h, np.fromiter(_cov, dtype=np.uint64,
                                          count=len(_cov))) \
                if _cov else np.ones(len(h), dtype=bool)
            d = pd.DataFrame({"row": ex.index.to_numpy(), "h": h})
            d = d[new].drop_duplicates()
            gain = d.groupby("row", sort=False).size()
            ids = df["doc_id"].to_numpy(np.int64)
            out = pd.DataFrame({"doc_id": ids[gain.index.to_numpy()],
                                "gain": gain.to_numpy(np.int64)})
            out = out.sort_values(["gain", "doc_id"],
                                  ascending=[False, True],
                                  kind="mergesort")
            return out.head(1)

        cands = docs.map_batches(best, batch_format="pandas") \
            .to_pandas()
        if cands.empty or cands["gain"].max() <= 0:
            break
        cands = cands.sort_values(["gain", "doc_id"],
                                  ascending=[False, True],
                                  kind="mergesort")
        pick = int(cands["doc_id"].iloc[0])
        gain = int(cands["gain"].iloc[0])
        picks.append((len(picks) + 1, pick, gain))
        # hydrate the winner's tokens into the covered set (one
        # pushdown read of a single doc)
        row = docs.map_batches(
            lambda t, _p=pick: t.filter(pc.equal(t["doc_id"], _p)),
            batch_format="pyarrow").to_pandas()
        toks = ts._ws_tokens(row["text"]).explode().dropna()
        covered |= set(hash_strings_fast(toks.to_numpy(object))
                       .tolist())
    return pd.DataFrame(picks, columns=["rank", "doc_id", "gain"])


SQL_COVERAGE_SAMPLE = r"""
WITH RECURSIVE
tk AS (SELECT DISTINCT doc_id, hash(t.tok) AS h
       FROM (SELECT doc_id,
                    unnest(regexp_split_to_array(trim(lower(text)),
                                                 '\s+')) AS tok
             FROM documents
             WHERE trim(coalesce(text, '')) <> '') t),
g AS (
  SELECT 0 AS it, CAST([] AS BIGINT[]) AS picked,
         CAST([] AS UBIGINT[]) AS covered,
         CAST([] AS STRUCT(rnk BIGINT, doc_id BIGINT, gain BIGINT)[])
             AS hist
  UNION ALL
  SELECT g.it + 1, list_append(g.picked, w.doc_id),
         list_concat(g.covered, w.hs),
         list_append(g.hist,
                     {'rnk': g.it + 1, 'doc_id': w.doc_id,
                      'gain': w.gain})
  FROM g, LATERAL (
    SELECT t.doc_id, CAST(count(*) AS BIGINT) AS gain, list(t.h) AS hs
    FROM tk t
    WHERE NOT list_contains(g.picked, t.doc_id)
      AND NOT list_contains(g.covered, t.h)
    GROUP BY t.doc_id
    ORDER BY gain DESC, t.doc_id LIMIT 1) w
  WHERE g.it < 8
),
last AS (SELECT hist FROM g ORDER BY it DESC LIMIT 1)
SELECT CAST(u['rnk'] AS BIGINT) AS "rank",
       CAST(u['doc_id'] AS BIGINT) AS doc_id,
       CAST(u['gain'] AS BIGINT) AS gain
FROM (SELECT unnest(hist) AS u FROM last)
"""


QUERIES = {
    "filter_project": q_filter_project,
    "groupby_agg": q_groupby_agg,
    "sort_limit": q_sort_limit,
    "distinct": q_distinct,
    "broadcast_join": q_broadcast_join,
    "hash_join": q_hash_join,
    "anti_join": q_anti_join,
    "union_distinct": q_union_distinct,
    "representative_min": q_representative_min,
    "priority_dedup": q_priority_dedup,
    "count_distinct": q_count_distinct,
    "explode_split": q_explode_split,
    "topk_per_group": q_topk_per_group,
    "percentile_filter": q_percentile_filter,
    "group_pivot": q_group_pivot,
    "containment_join": q_containment_join,
    "quantile_agg": q_quantile_agg,
    "hash_sample": q_hash_sample,
    "stratified_sample": q_stratified_sample,
    "unpivot": q_unpivot,
    "intersect": q_intersect,
    "except_distinct": q_except,
    "rollup_agg": q_rollup_agg,
    "cube_agg": q_cube_agg,
    "group_concat": q_group_concat,
    "cume_sum": q_cume_sum,
    "rank_window": q_rank_window,
    "skew_join": q_skew_join,
    "dataset_split": q_dataset_split,
    "weighted_sample": q_weighted_sample,
    "merge_join": q_merge_join,
    "coverage_sample": q_coverage_sample,
    "grouping_sets": q_grouping_sets,
}

ORACLES = {
    "filter_project": SQL_FILTER_PROJECT,
    "groupby_agg": SQL_GROUPBY_AGG,
    "sort_limit": SQL_SORT_LIMIT,
    "distinct": SQL_DISTINCT,
    "broadcast_join": SQL_BROADCAST_JOIN,
    "hash_join": SQL_HASH_JOIN,
    "anti_join": SQL_ANTI_JOIN,
    "union_distinct": SQL_UNION_DISTINCT,
    "representative_min": SQL_REPRESENTATIVE_MIN,
    "priority_dedup": SQL_PRIORITY_DEDUP,
    "count_distinct": SQL_COUNT_DISTINCT,
    "explode_split": SQL_EXPLODE_SPLIT,
    "topk_per_group": SQL_TOPK_PER_GROUP,
    "percentile_filter": SQL_PERCENTILE_FILTER,
    "group_pivot": SQL_GROUP_PIVOT,
    "containment_join": SQL_CONTAINMENT_JOIN,
    "quantile_agg": SQL_QUANTILE_AGG,
    "hash_sample": SQL_HASH_SAMPLE,
    "stratified_sample": SQL_STRATIFIED_SAMPLE,
    "unpivot": SQL_UNPIVOT,
    "intersect": SQL_INTERSECT,
    "except_distinct": SQL_EXCEPT,
    "rollup_agg": SQL_ROLLUP_AGG,
    "cube_agg": SQL_CUBE_AGG,
    "group_concat": SQL_GROUP_CONCAT,
    "cume_sum": SQL_CUME_SUM,
    "rank_window": SQL_RANK_WINDOW,
    "skew_join": SQL_SKEW_JOIN,
    "coverage_sample": SQL_COVERAGE_SAMPLE,
    "dataset_split": _dataset_split_sql(),
    "weighted_sample": SQL_WEIGHTED_SAMPLE,
    "merge_join": SQL_MERGE_JOIN,
    "grouping_sets": SQL_GROUPING_SETS,
}
