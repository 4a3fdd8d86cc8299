"""Statistics & sketches: tests, moments, calibration, CMS/KMV/HLL.

Split out of the former monolithic pipelines/queries.py (round-4 task 2).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ...config import BlockingConfig, ScoringConfig
from ...stages import relational as rel
from ...stages import textstats as ts
from ...stages.ann import brute_force_topk, ivf_topk
from ...stages.dedup import (
    embedding_dup_pairs, exact_dedup, near_dup_pairs, simhash_dup_pairs,
)
from ...stages.fields import extract_fields
from ._shared import _md5_lower64, _rp



def q_approx_distinct(sf_dir: str):
    """HyperLogLog approximate COUNT DISTINCT (combiner pattern: one
    16 KiB sketch per batch, no shuffle).  ORACLED (round-4, upgraded
    from rows-only): values hash through DuckDB's own ``hash()``
    kernel, register ranks use exact integer bit-length on both
    engines, and the estimator's register sum is exact HUGEINT/big-int
    arithmetic — so SQL rebuilds the registers and the estimate
    bit-for-bit.  Accuracy vs exact stays pinned within 2% in
    tests/test_sketch.py."""
    from ...stages.sketch import hll_count_distinct

    ds = _rp(sf_dir, "lineitem", ["l_orderkey"])
    est = hll_count_distinct(ds, "l_orderkey", hasher="duckdb")
    return pd.DataFrame({"approx_n_orders": [est]})


def _hll_sql(val_expr: str, table: str, p: int, out_col: str,
             group_col: str | None = None) -> str:
    """DuckDB twin of stages/sketch.py HLL: identical registers
    (hash() >> (64-p) index, exact bit-length ranks) and identical
    estimator float ops (exact HUGEINT register sum, one division)."""
    m = 1 << p
    wbits = 64 - p
    rmax_missing = wbits + 1
    grp_sel = f"{group_col}, " if group_col else ""
    grp_by = f"GROUP BY {group_col}" if group_col else ""
    grp_by_idx = f"GROUP BY {grp_sel}idx" if group_col else "GROUP BY idx"
    return f"""
WITH h AS (SELECT {grp_sel}hash({val_expr}) AS hv FROM {table}),
cells AS (SELECT {grp_sel}CAST(hv >> {wbits} AS BIGINT) AS idx,
                 CAST(hv & ((1::UBIGINT << {wbits}) - 1) AS BIGINT) AS w
          FROM h),
regs AS (SELECT {grp_sel}idx,
                max(CASE WHEN w > 0 THEN {wbits} - length(bin(w)) + 1
                    ELSE {rmax_missing} END) AS r
         FROM cells {grp_by_idx}),
agg AS (SELECT {grp_sel}max(r) AS rmax, count(*) AS n_present,
               list(r) AS rs
        FROM regs {grp_by}),
s AS (SELECT {grp_sel}rmax, {m} - n_present AS zeros,
             (SELECT sum(1::HUGEINT << (rmax - x.r))
              FROM unnest(rs) AS x(r))
             + CAST({m} - n_present AS HUGEINT) * (1::HUGEINT << rmax)
             AS s_int
      FROM agg),
est AS (SELECT {grp_sel}zeros,
               ((0.7213 / (1.0 + 1.079 / {m}.0)) * {m}.0 * {m}.0)
               * (CAST(1::HUGEINT << rmax AS DOUBLE)
                  / CAST(s_int AS DOUBLE)) AS e
        FROM s)
SELECT {grp_sel}CAST(floor(
         CASE WHEN e <= 2.5 * {m}.0 AND zeros > 0
              THEN {m}.0 * ln({m}.0 / zeros) ELSE e END + 0.5)
       AS BIGINT) AS {out_col}
FROM est
"""


SQL_APPROX_DISTINCT = _hll_sql("CAST(l_orderkey AS VARCHAR)", "lineitem",
                               14, "approx_n_orders")


def q_outlier_filter(sf_dir: str):
    """Robust outlier detection per group: flag events whose value
    sits more than 3 median-absolute-deviations from the group median
    — the standard robust z-score data-cleaning gate (immune to the
    outliers it hunts, unlike mean/stddev).  Medians are not
    algebraic, so one co-location shuffle per the quantile_agg
    contract (HIGH-cardinality keys spread across buckets; a single
    giant group is the documented limit — switch to the t-digest
    route there)."""
    from ...stages.shuffle import bucketed_map_groups

    ds = _rp(sf_dir, "events", ["event_id", "event_type", "value"])

    def bucket_fn(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, g in df.groupby("event_type", sort=False):
            v = g["value"].to_numpy(dtype=np.float64)
            med = np.median(v)
            mad = np.median(np.abs(v - med))
            keep = np.abs(v - med) > 3.0 * mad
            outs.append(g[keep])
        if not outs:
            return df
        return pd.concat(outs, ignore_index=True)[
            ["event_id", "event_type", "value"]]

    empty = pd.DataFrame({"event_id": pd.Series([], dtype="int64"),
                          "event_type": pd.Series([], dtype="object"),
                          "value": pd.Series([], dtype="float64")})
    return bucketed_map_groups(ds, ["event_type"], bucket_fn,
                               num_buckets=16, empty_like=empty)


SQL_OUTLIER_FILTER = """
WITH s AS (
  SELECT event_type, median(value) AS med, mad(value) AS mad
  FROM events GROUP BY event_type
)
SELECT e.event_id, e.event_type, e.value
FROM events e JOIN s USING (event_type)
WHERE abs(e.value - s.med) > 3 * s.mad
"""


def q_approx_distinct_group(sf_dir: str):
    """Per-event-type approximate distinct users via grouped HLL
    sketches: only bounded 4 KiB registers are shuffled, never the
    user ids.  ORACLED (round-4, upgraded from rows-only) with the
    same DuckDB-hash + exact-integer-estimator discipline as
    ``approx_distinct``; accuracy vs the exact grouped distinct stays
    pinned within 5% in tests/test_sketch.py (the exact shuffle route
    is the `count_distinct` query)."""
    from ...stages.sketch import hll_per_group

    ds = _rp(sf_dir, "events", ["event_type", "user_id"])
    return hll_per_group(ds, ["event_type"], "user_id",
                         out_col="approx_users", hasher="duckdb")


SQL_APPROX_DISTINCT_GROUP = _hll_sql(
    "CAST(user_id AS VARCHAR)", "events", 12, "approx_users",
    group_col="event_type")


def q_quantile_sketch_group(sf_dir: str):
    """Per-event-type approximate p50/p95 via grouped mergeable
    t-digests (sketch.py::tdigest_per_group): each batch compresses
    each group to bounded centroid cells, ONE co-location shuffle
    moves sketches — never raw values — the web-scale complement to
    the exact `quantile_agg` value co-location.  Rows-only driver
    check; accuracy pinned in tests/test_sketch.py."""
    from ...stages.sketch import tdigest_per_group

    ds = _rp(sf_dir, "events", ["event_type", "value"])
    return tdigest_per_group(ds, ["event_type"], "value",
                             {"p50": 0.5, "p95": 0.95})


def q_quantile_sketch(sf_dir: str):
    """Mergeable t-digest approximate global quantiles over event
    values (combiner pattern: per-batch centroid digests, no shuffle).
    Rows-only check — accuracy within 1% of exact p50/p90/p99 is
    pinned by tests/test_sketch.py; the exact-quantile oracle lives in
    the `quantile_agg` query."""
    from ...stages.sketch import tdigest_quantiles

    ds = _rp(sf_dir, "events", ["value"])
    return tdigest_quantiles(ds, "value",
                             {"p50": 0.5, "p90": 0.9, "p99": 0.99})


def q_heavy_hitters(sf_dir: str):
    """Exact corpus top-20 terms WITHOUT shuffling the token stream:
    Misra-Gries candidate sweep (bounded summaries to the driver) +
    broadcast exact verification pass, with a provable-exactness check
    and a bucketed-shuffle fallback.  The genuinely 10^12-row plan for
    "top terms" — contrast ngram_top, which shuffles term partials."""
    from ...stages.sketch import heavy_hitters_topk

    return heavy_hitters_topk(_rp(sf_dir, "documents", ["text"]), "text",
                              k=20)


SQL_HEAVY_HITTERS = r"""
WITH t AS (
  SELECT regexp_split_to_array(trim(lower(text)), '\s+') AS toks
  FROM documents WHERE trim(coalesce(text, '')) <> ''
)
SELECT u.term AS term, count(*) AS n
FROM t, unnest(t.toks) AS u(term)
GROUP BY term ORDER BY n DESC, term LIMIT 20
"""


def q_cms_counts(sf_dir: str):
    """Count-Min sketch frequency estimates (Cormode & Muthukrishnan
    2005) for a fixed probe-term list over the corpus token stream —
    the bounded-memory answer to point-frequency queries when the key
    space dwarfs memory (sketch.py::count_min_estimates: per-batch
    cell partials bounded by the SKETCH size, one combiner merge,
    driver min over depth rows).  Row hash = DuckDB hash(), so the
    whole sketch — including collision overestimates — is reproduced
    by the SQL oracle bit-for-bit."""
    from ...stages.sketch import count_min_estimates

    ds = _rp(sf_dir, "documents", ["text"])
    probes = ["filter", "merge", "the", "data", "spark", "vector",
              "zzz_absent"]
    return count_min_estimates(ds, "text", probes)


SQL_CMS_COUNTS = r"""
WITH toks AS (
  SELECT unnest(regexp_split_to_array(trim(lower(text)), '\s+')) AS term
  FROM documents WHERE trim(coalesce(text, '')) <> ''
), cnt AS (
  SELECT term, count(*) AS n FROM toks GROUP BY term
), rows_ AS (
  SELECT unnest(generate_series(0, 3)) AS r
), cells AS (
  SELECT r, CAST(hash(CAST(r AS VARCHAR) || ':' || term) % 2048
                AS BIGINT) AS c,
         sum(n) AS cell
  FROM cnt CROSS JOIN rows_ GROUP BY r, c
), probes AS (
  SELECT unnest(['filter', 'merge', 'the', 'data', 'spark', 'vector',
                 'zzz_absent']) AS term
), lu AS (
  SELECT p.term, r.r,
         CAST(hash(CAST(r.r AS VARCHAR) || ':' || p.term) % 2048
              AS BIGINT) AS c
  FROM probes p CROSS JOIN rows_ r
)
SELECT lu.term, CAST(min(coalesce(cells.cell, 0)) AS BIGINT) AS est
FROM lu LEFT JOIN cells ON cells.r = lu.r AND cells.c = lu.c
GROUP BY lu.term
"""


def q_impute_median(sf_dir: str):
    """Per-group median null imputation: event values deterministically
    nulled (event_id % 7), then filled with the user's median of the
    surviving values (stages/relational.py::impute_group_median — one
    co-location shuffle, groupby().transform('median') per bucket,
    round-6 float parity with DuckDB's interpolating median())."""
    from ...stages.relational import impute_group_median

    events = _rp(sf_dir, "events", ["event_id", "user_id", "value"])

    def mask(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": df["event_id"].to_numpy(),
            "user_id": df["user_id"].to_numpy(),
            "v": df["value"].where(df["event_id"] % 7 != 0).to_numpy()})

    out = impute_group_median(events.map_batches(mask,
                                                 batch_format="pandas"),
                              "user_id", "v")
    return out.map_batches(
        lambda df: df[["event_id", "user_id", "v_imputed", "was_null"]],
        batch_format="pandas")


SQL_IMPUTE_MEDIAN = """
WITH d AS (
  SELECT event_id, user_id,
         CASE WHEN event_id % 7 = 0 THEN NULL ELSE value END AS v
  FROM events),
m AS (SELECT user_id, median(v) AS med FROM d GROUP BY 1)
SELECT d.event_id, d.user_id,
       round(coalesce(d.v, m.med), 6) AS v_imputed,
       d.v IS NULL AS was_null
FROM d JOIN m USING (user_id)
"""


def q_mode_agg(sf_dir: str):
    """Per-group MODE with pinned ties (count DESC, value ASC): the
    dominant ship mode per (returnflag, linestatus).  Only the
    bounded (keys x values) count cells ever move — the combiner
    two-level plan of relational.group_mode; the row stream never
    shuffles."""
    ds = _rp(sf_dir, "orders", ["o_orderstatus", "o_orderpriority"])
    return rel.group_mode(ds, ["o_orderstatus"], "o_orderpriority")


SQL_MODE_AGG = """
WITH c AS (
  SELECT o_orderstatus, o_orderpriority, count(*) AS cnt
  FROM orders GROUP BY 1, 2
), r AS (
  SELECT *, row_number() OVER (PARTITION BY o_orderstatus
            ORDER BY cnt DESC, o_orderpriority) AS rn
  FROM c)
SELECT o_orderstatus, o_orderpriority AS mode_val,
       CAST(cnt AS BIGINT) AS mode_n
FROM r WHERE rn = 1
"""


def q_kmv_overlap(sf_dir: str):
    """KMV (k-minimum-values) distinct-set sketch with set-operation
    estimates (Beyer et al. 2007): |distinct click users|, |distinct
    view users|, and their union / intersection estimated from the 64
    smallest md5 hashes of the union — deterministic, so the oracle
    reproduces the sketch bit-for-bit (the HLL route estimates the
    same quantities non-reproducibly; this is the exactly-pinned twin).

    Scale plan: each batch contributes its <= k smallest distinct
    (hash, in_click, in_view) rows per side — O(k) per batch, no
    shuffle; the driver merge is a <= k x batches concat + dedup.
    Estimator: union ~= (k-1)/kth_min_normalized, intersection ~=
    (|both among k| / k) x union (mirrored float-op-for-float-op in
    the SQL)."""
    k = 64
    ds = _rp(sf_dir, "events", ["user_id", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["event_type"].isin(["click", "view"])]
        if not len(df):
            return pd.DataFrame({"h": pd.Series([], dtype="uint64"),
                                 "in_c": pd.Series([], dtype=bool),
                                 "in_v": pd.Series([], dtype=bool)})
        flags = (df.assign(in_c=df["event_type"].eq("click"),
                           in_v=df["event_type"].eq("view"))
                 .groupby("user_id", sort=False)[["in_c", "in_v"]].any()
                 .reset_index())
        hs = np.array([_md5_lower64(str(int(u)).encode())
                       for u in flags["user_id"]], dtype=np.uint64)
        out = pd.DataFrame({"h": hs, "in_c": flags["in_c"].to_numpy(),
                            "in_v": flags["in_v"].to_numpy()})
        return out.nsmallest(k, "h")

    rows = ds.map_batches(partial, batch_format="pandas").to_pandas()
    # same user across batches: OR the side flags, then take the k min
    merged = rows.groupby("h", sort=False)[["in_c", "in_v"]].any() \
        .reset_index().nsmallest(k, "h")
    kth = np.uint64(merged["h"].max())
    n_both = int((merged["in_c"] & merged["in_v"]).sum())
    union_est = 63.0 / (np.float64(kth) / 18446744073709551616.0)
    return pd.DataFrame({
        "k": np.array([k], dtype=np.int32),
        "kth": np.array([kth], dtype=np.uint64),
        "n_both": np.array([n_both], dtype=np.int64),
        "union_est": [np.round(union_est, 6)],
        "inter_est": [np.round((n_both / 64.0) * union_est, 6)]})


SQL_KMV_OVERLAP = r"""
WITH c AS (SELECT DISTINCT user_id FROM events WHERE event_type = 'click'),
v AS (SELECT DISTINCT user_id FROM events WHERE event_type = 'view'),
u AS (SELECT user_id FROM c UNION SELECT user_id FROM v),
h AS (SELECT md5_number_lower(user_id::VARCHAR) AS h,
             user_id IN (SELECT user_id FROM c) AS in_c,
             user_id IN (SELECT user_id FROM v) AS in_v
      FROM u),
k AS (SELECT * FROM h ORDER BY h LIMIT 64),
agg AS (SELECT max(h) AS kth,
               count(*) FILTER (WHERE in_c AND in_v) AS n_both
        FROM k)
SELECT 64 AS k, kth, n_both,
       round(63.0 / (kth::DOUBLE / 18446744073709551616.0), 6) AS union_est,
       round((n_both / 64.0)
             * (63.0 / (kth::DOUBLE / 18446744073709551616.0)), 6) AS inter_est
FROM agg
"""


def q_mad_agg(sf_dir: str):
    """Per-group median absolute deviation — the robust spread
    statistic, as two passes of the exact interpolated group-quantile
    operator (stages/temporal.py::quantile_agg, = DuckDB
    quantile_cont): group medians first (a bounded per-group frame,
    broadcast), then the median of |value - group median|.  Matches
    DuckDB's mad() bit-for-bit (verified equal to the two-pass
    quantile_cont formulation)."""
    from ...stages.temporal import quantile_agg

    ev = _rp(sf_dir, "events", ["event_type", "value"])
    med = quantile_agg(ev, ["event_type"], "value", {"med": 0.5})
    if hasattr(med, "to_pandas"):
        med = med.to_pandas()          # bounded: one row per group
    med_map = dict(zip(med["event_type"], med["med"]))

    def absdev(df: pd.DataFrame) -> pd.DataFrame:
        m = df["event_type"].map(med_map).to_numpy(np.float64)
        return pd.DataFrame({
            "event_type": df["event_type"].to_numpy(dtype=object),
            "dev": np.abs(df["value"].to_numpy(np.float64) - m)})

    out = quantile_agg(ev.map_batches(absdev, batch_format="pandas"),
                       ["event_type"], "dev", {"mad": 0.5})

    def rounded(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["mad"] = df["mad"].round(6)
        return df

    if hasattr(out, "map_batches"):
        return out.map_batches(rounded, batch_format="pandas")
    return rounded(out)


SQL_MAD_AGG = """
SELECT event_type, round(mad(value), 6) AS mad
FROM events GROUP BY event_type
"""


def q_assoc_rules(sf_dir: str):
    """A-Priori association rules over document token baskets:
    support / confidence / lift for ordered pairs of FREQUENT tokens
    (item and pair support >= 0.2) — the market-basket statistic, with
    the A-Priori prune doing the scale work: infrequent items never
    enter the pair count.

    Scale plan: item supports via the shuffle-free combiner; the
    frequent-item set broadcasts (bounded by the support threshold —
    at 20% of docs it cannot exceed 5x the basket width); each batch
    then adds one frequent-incidence X'X partial (a |freq|^2 int
    matrix), summed driver-side; ratios mirror the SQL expression
    order exactly."""
    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    min_sup = 0.2

    def items(df: pd.DataFrame) -> pd.DataFrame:
        texts = (df["text"].astype("string").fillna("")
                 .str.lower().reset_index(drop=True))
        toks = texts.str.findall(r"[a-z0-9]+").explode().dropna()
        rt = pd.DataFrame({"r": toks.index.to_numpy(),
                           "tok": toks.to_numpy()}).drop_duplicates()
        vc = rt["tok"].value_counts()
        return pd.DataFrame({"tok": vc.index.to_numpy(dtype=object),
                             "n_a": vc.to_numpy(np.int64),
                             "n_docs": np.int64(len(df))})

    sup = rel.partial_groupby_agg(
        docs.map_batches(items, batch_format="pandas"),
        ["tok"], {"n_a": ("n_a", "sum")})
    n_docs = None  # derived below from a count pass

    counts = docs.map_batches(
        lambda t: pa.table({"n": pa.array([t.num_rows], pa.int64())}),
        batch_format="pyarrow").to_pandas()
    n_docs = float(counts["n"].sum())

    freq = sup[sup["n_a"] >= min_sup * n_docs] \
        .sort_values("tok").reset_index(drop=True)
    vocab = freq["tok"].to_numpy(dtype=object)
    idx = {t: i for i, t in enumerate(vocab)}
    n_a = freq["n_a"].to_numpy(np.float64)

    def pair_partial(df: pd.DataFrame) -> pd.DataFrame:
        texts = (df["text"].astype("string").fillna("")
                 .str.lower().reset_index(drop=True))
        toks = texts.str.findall(r"[a-z0-9]+").explode().dropna()
        rt = pd.DataFrame({"r": toks.index.to_numpy(),
                           "tok": toks.to_numpy()}).drop_duplicates()
        rt = rt[rt["tok"].isin(idx)]
        X = np.zeros((len(df), len(vocab)), dtype=np.float64)
        if len(rt):
            X[rt["r"].to_numpy(),
              [idx[t] for t in rt["tok"]]] = 1.0
        C = X.T @ X
        ai, ci = np.nonzero(C)
        return pd.DataFrame({"ai": ai.astype(np.int64),
                             "ci": ci.astype(np.int64),
                             "n": C[ai, ci].astype(np.int64)})

    pair_counts = rel.partial_groupby_agg(
        docs.map_batches(pair_partial, batch_format="pandas"),
        ["ai", "ci"], {"n": ("n", "sum")})
    M = np.zeros((len(vocab), len(vocab)), dtype=np.float64)
    M[pair_counts["ai"].to_numpy(np.int64),
      pair_counts["ci"].to_numpy(np.int64)] = \
        pair_counts["n"].to_numpy(np.float64)
    ai, ci = np.nonzero((M >= min_sup * n_docs)
                        & ~np.eye(len(vocab), dtype=bool))
    n_ab = M[ai, ci]
    conf = n_ab / n_a[ai]
    return pd.DataFrame({
        "ante": vocab[ai], "cons": vocab[ci],
        "n_ab": n_ab.astype(np.int64),
        "support": np.round(n_ab / n_docs, 6),
        "confidence": np.round(conf, 6),
        "lift": np.round(conf / (n_a[ci] / n_docs), 6)})


SQL_ASSOC_RULES = r"""
WITH t AS (
  SELECT doc_id,
         unnest(list_distinct(regexp_extract_all(lower(coalesce(text, '')),
                                                 '[a-z0-9]+'))) AS tok
  FROM documents),
n AS (SELECT count(*) AS n_docs FROM documents),
s AS (SELECT tok, count(*) AS n_a FROM t GROUP BY 1
      HAVING count(*) >= 0.2 * (SELECT n_docs FROM n)),
p AS (SELECT a.tok AS ante, b.tok AS cons, count(*) AS n_ab
      FROM t a JOIN t b ON b.doc_id = a.doc_id AND b.tok <> a.tok
      WHERE a.tok IN (SELECT tok FROM s) AND b.tok IN (SELECT tok FROM s)
      GROUP BY 1, 2)
SELECT ante, cons, n_ab,
       round_even(n_ab / (SELECT n_docs FROM n)::DOUBLE, 6) AS support,
       round_even(n_ab / sa.n_a::DOUBLE, 6) AS confidence,
       round_even((n_ab / sa.n_a::DOUBLE)
             / (sc.n_a / (SELECT n_docs FROM n)::DOUBLE), 6) AS lift
FROM p JOIN s sa ON sa.tok = p.ante JOIN s sc ON sc.tok = p.cons
WHERE n_ab >= 0.2 * (SELECT n_docs FROM n)
"""


def q_ols_residuals(sf_dir: str):
    """Per-group OLS trend residual outliers: events whose value sits
    more than 150 off the per-event-type value-vs-time regression
    line.  TWO-PASS CENTERED moments (means broadcast, then
    Σ(x-mx)(y-my) / Σ(x-mx)² via the combiner) — the numerically
    stable formulation the corr_agg advice called for: the raw-moment
    form loses the residual's 4th decimal to cancellation once x is
    epoch-seconds (~1.7e9).  Residuals rounded to 4 (stable under the
    driver's round-6 canon against DuckDB's streaming regr_* kernels).
    """
    ev = _rp(sf_dir, "events", ["event_id", "event_type", "ts", "value"])

    def base(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("event_type", sort=False)
        out = g.agg(n=("value", "size"), sy=("value", "sum")).reset_index()
        x = df["ts"].astype("int64").to_numpy(np.float64) / 1e6
        out["sx"] = pd.Series(x).groupby(
            df["event_type"].to_numpy()).sum().reindex(
            out["event_type"]).to_numpy()
        return out

    m1 = rel.partial_groupby_agg(
        ev.map_batches(base, batch_format="pandas"),
        ["event_type"], {"n": ("n", "sum"), "sy": ("sy", "sum"),
                         "sx": ("sx", "sum")})
    m1["mx"] = m1["sx"] / m1["n"]
    m1["my"] = m1["sy"] / m1["n"]
    means = m1.set_index("event_type")[["mx", "my"]].to_dict("index")

    def cent(df: pd.DataFrame) -> pd.DataFrame:
        x = df["ts"].astype("int64").to_numpy(np.float64) / 1e6
        y = df["value"].to_numpy(np.float64)
        mx = df["event_type"].map(lambda t: means[t]["mx"]) \
            .to_numpy(np.float64)
        my = df["event_type"].map(lambda t: means[t]["my"]) \
            .to_numpy(np.float64)
        d = pd.DataFrame({"event_type": df["event_type"].to_numpy(object),
                          "sxy": (x - mx) * (y - my),
                          "sxx": (x - mx) ** 2})
        return d.groupby("event_type", sort=False).sum().reset_index()

    m2 = rel.partial_groupby_agg(
        ev.map_batches(cent, batch_format="pandas"),
        ["event_type"], {"sxy": ("sxy", "sum"), "sxx": ("sxx", "sum")})
    m2["b1"] = m2["sxy"] / m2["sxx"]
    fit = {r.event_type: (means[r.event_type]["mx"],
                          means[r.event_type]["my"], r.b1)
           for r in m2.itertuples()}

    def resid(df: pd.DataFrame) -> pd.DataFrame:
        x = df["ts"].astype("int64").to_numpy(np.float64) / 1e6
        y = df["value"].to_numpy(np.float64)
        mx = df["event_type"].map(lambda t: fit[t][0]).to_numpy(np.float64)
        my = df["event_type"].map(lambda t: fit[t][1]).to_numpy(np.float64)
        b1 = df["event_type"].map(lambda t: fit[t][2]).to_numpy(np.float64)
        r = y - (my + b1 * (x - mx))
        keep = np.abs(r) > 150.0
        return pd.DataFrame({
            "event_id": df["event_id"].to_numpy(np.int64)[keep],
            "resid": np.round(r[keep], 4)})

    return ev.map_batches(resid, batch_format="pandas")


SQL_OLS_RESIDUALS = """
WITH m AS (
  SELECT event_type,
         regr_slope(value, epoch(ts)) AS b1,
         regr_intercept(value, epoch(ts)) AS b0
  FROM events GROUP BY 1)
SELECT e.event_id,
       round(e.value - (m.b0 + m.b1 * epoch(e.ts)), 4) AS resid
FROM events e JOIN m USING (event_type)
WHERE abs(e.value - (m.b0 + m.b1 * epoch(e.ts))) > 150.0
"""


def q_moments_agg(sf_dir: str):
    """Per-group sample skewness and excess kurtosis (the
    bias-corrected g1 / G2 estimators DuckDB's skewness()/kurtosis()
    implement) — two-pass CENTERED moments like ols_residuals: group
    means broadcast, then Σd², Σd³, Σd⁴ through the shuffle-free
    combiner, dof-corrected closed forms on the bounded group frame."""
    ev = _rp(sf_dir, "events", ["event_type", "value"])

    m1 = rel.partial_groupby_agg(
        ev.map_batches(
            lambda df: df.groupby("event_type", sort=False)["value"]
            .agg(n="size", sy="sum").reset_index(),
            batch_format="pandas"),
        ["event_type"], {"n": ("n", "sum"), "sy": ("sy", "sum")})
    mean = dict(zip(m1["event_type"], m1["sy"] / m1["n"]))

    def cent(df: pd.DataFrame) -> pd.DataFrame:
        d = (df["value"].to_numpy(np.float64)
             - df["event_type"].map(mean).to_numpy(np.float64))
        out = pd.DataFrame({"event_type": df["event_type"].to_numpy(object),
                            "m2": d ** 2, "m3": d ** 3, "m4": d ** 4})
        return out.groupby("event_type", sort=False).sum().reset_index()

    m = rel.partial_groupby_agg(
        ev.map_batches(cent, batch_format="pandas"),
        ["event_type"], {"m2": ("m2", "sum"), "m3": ("m3", "sum"),
                         "m4": ("m4", "sum")})
    m = m.merge(m1[["event_type", "n"]], on="event_type")
    n = m["n"].to_numpy(np.float64)
    s = np.sqrt(m["m2"].to_numpy() / (n - 1))
    sk = (n / ((n - 1) * (n - 2))) * m["m3"].to_numpy() / s ** 3
    ku = ((n * (n + 1) / ((n - 1) * (n - 2) * (n - 3)))
          * m["m4"].to_numpy() / s ** 4
          - 3 * (n - 1) ** 2 / ((n - 2) * (n - 3)))
    return pd.DataFrame({"event_type": m["event_type"].to_numpy(object),
                         "sk": np.round(sk, 6), "ku": np.round(ku, 6)})


SQL_MOMENTS_AGG = """
SELECT event_type, round(skewness(value), 6) AS sk,
       round(kurtosis(value), 6) AS ku
FROM events GROUP BY event_type
"""


def q_spearman_agg(sf_dir: str):
    """Per-group Spearman rank correlation between value and event
    time — Pearson over average-ranks (the tie-correct definition).
    Ranks need whole-group co-location: one bucketed shuffle on the
    group key, average ranks vectorized per group, centered dot
    products for the correlation (stable at rank magnitudes).  At a
    cardinality where single groups exceed a block, ranks distribute
    like global_scan's sort+offset plan per key — documented contract,
    same as the repo's other rank windows."""
    from ...stages.shuffle import bucketed_map_groups

    ev = _rp(sf_dir, "events", ["event_type", "ts", "value"])

    empty = pd.DataFrame({"event_type": pd.Series([], dtype="object"),
                          "rho": pd.Series([], dtype="float64")})

    def block(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in df.groupby("event_type", sort=False):
            if len(g) < 2:
                continue
            rx = g["value"].rank(method="average").to_numpy(np.float64)
            ry = (g["ts"].astype("int64") / 1e6) \
                .rank(method="average").to_numpy(np.float64)
            dx = rx - rx.mean()
            dy = ry - ry.mean()
            denom = np.sqrt((dx ** 2).sum() * (dy ** 2).sum())
            if denom == 0:
                continue
            rows.append((et, np.round((dx * dy).sum() / denom, 6)))
        return pd.DataFrame(rows, columns=["event_type", "rho"]) \
            if rows else empty

    return bucketed_map_groups(ev, ["event_type"], block, num_buckets=16,
                               empty_like=empty)


SQL_SPEARMAN_AGG = """
WITH r AS (
  SELECT event_type,
         avg(rn_v) OVER (PARTITION BY event_type, value) AS rx,
         avg(rn_t) OVER (PARTITION BY event_type, epoch(ts)) AS ry
  FROM (SELECT event_type, value, ts,
               row_number() OVER (PARTITION BY event_type
                                  ORDER BY value) AS rn_v,
               row_number() OVER (PARTITION BY event_type
                                  ORDER BY epoch(ts)) AS rn_t
        FROM events))
SELECT event_type, round(corr(rx, ry), 6) AS rho
FROM r GROUP BY event_type
"""


def q_winsorize(sf_dir: str):
    """Per-group winsorization — values clamped to the exact
    interpolated [p5, p95] band (the robust-statistics preprocessing
    step): one group-quantile pass (stages/temporal.py::quantile_agg,
    = quantile_cont), thresholds broadcast (bounded per-group frame),
    then a map-only clip."""
    from ...stages.temporal import quantile_agg

    ev = _rp(sf_dir, "events", ["event_id", "event_type", "value"])
    q = quantile_agg(ev, ["event_type"], "value",
                     {"lo": 0.05, "hi": 0.95})
    if hasattr(q, "to_pandas"):
        q = q.to_pandas()
    lo = dict(zip(q["event_type"], q["lo"]))
    hi = dict(zip(q["event_type"], q["hi"]))

    def clip(df: pd.DataFrame) -> pd.DataFrame:
        l = df["event_type"].map(lo).to_numpy(np.float64)
        h = df["event_type"].map(hi).to_numpy(np.float64)
        v = df["value"].to_numpy(np.float64)
        return pd.DataFrame({
            "event_id": df["event_id"].to_numpy(np.int64),
            "wvalue": np.round(np.minimum(np.maximum(v, l), h), 6)})

    return ev.map_batches(clip, batch_format="pandas")


SQL_WINSORIZE = """
WITH q AS (SELECT event_type, quantile_cont(value, 0.05) AS lo,
                  quantile_cont(value, 0.95) AS hi
           FROM events GROUP BY 1)
SELECT e.event_id, round(least(greatest(e.value, q.lo), q.hi), 6) AS wvalue
FROM events e JOIN q USING (event_type)
"""


def q_welch_t(sf_dir: str):
    """Welch's unequal-variance t statistic (+ Welch-Satterthwaite
    dof) between click and view values — the A/B-comparison aggregate,
    from the same two-pass centered moment combiners as moments_agg
    (means broadcast, Σd² shuffle-free); closed form on a 2-row
    frame."""
    ev = _rp(sf_dir, "events", ["event_type", "value"])

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["event_type"],
                                 pa.array(["click", "view"])))

    ev = ev.map_batches(keep, batch_format="pyarrow")
    m1 = rel.partial_groupby_agg(
        ev.map_batches(
            lambda df: df.groupby("event_type", sort=False)["value"]
            .agg(n="size", sy="sum").reset_index(),
            batch_format="pandas"),
        ["event_type"], {"n": ("n", "sum"), "sy": ("sy", "sum")})
    mean = dict(zip(m1["event_type"], m1["sy"] / m1["n"]))

    def cent(df: pd.DataFrame) -> pd.DataFrame:
        d = (df["value"].to_numpy(np.float64)
             - df["event_type"].map(mean).to_numpy(np.float64))
        out = pd.DataFrame({"event_type": df["event_type"].to_numpy(object),
                            "m2": d ** 2})
        return out.groupby("event_type", sort=False).sum().reset_index()

    m2 = rel.partial_groupby_agg(
        ev.map_batches(cent, batch_format="pandas"),
        ["event_type"], {"m2": ("m2", "sum")}) \
        .merge(m1, on="event_type").set_index("event_type")
    n1, n2 = float(m2.loc["click", "n"]), float(m2.loc["view", "n"])
    v1 = float(m2.loc["click", "m2"]) / (n1 - 1)
    v2 = float(m2.loc["view", "m2"]) / (n2 - 1)
    se2 = v1 / n1 + v2 / n2
    t = (mean["click"] - mean["view"]) / np.sqrt(se2)
    dof = se2 ** 2 / ((v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1))
    return pd.DataFrame({"t": [np.round(t, 6)], "dof": [np.round(dof, 6)]})


SQL_WELCH_T = """
WITH s AS (SELECT event_type, count(*) n, avg(value) m, var_samp(value) v
           FROM events WHERE event_type IN ('click', 'view') GROUP BY 1),
c AS (SELECT max(CASE WHEN event_type = 'click' THEN n END) n1,
             max(CASE WHEN event_type = 'click' THEN m END) m1,
             max(CASE WHEN event_type = 'click' THEN v END) v1,
             max(CASE WHEN event_type = 'view' THEN n END) n2,
             max(CASE WHEN event_type = 'view' THEN m END) m2,
             max(CASE WHEN event_type = 'view' THEN v END) v2
      FROM s)
SELECT round((m1 - m2) / sqrt(v1/n1 + v2/n2), 6) AS t,
       round(pow(v1/n1 + v2/n2, 2)
             / (pow(v1/n1, 2)/(n1-1) + pow(v2/n2, 2)/(n2-1)), 6) AS dof
FROM c
"""


def q_ks_test(sf_dir: str):
    """Two-sample Kolmogorov-Smirnov statistic (click vs view value
    distributions) — EXACT, as a scan-family composition: per-value
    net CDF deltas (+1/n1 for clicks, -1/n2 for views) through the
    shuffle-free combiner, then the keyless Blelloch scan over the
    distinct-value order; KS = max |running sum| (a per-batch partial
    max).  The distribution-drift gate a corpus refresh pipeline runs
    between snapshots, at one narrow pass + one scan."""
    from ...stages.scan import global_scan

    ev = _rp(sf_dir, "events", ["event_type", "value"])

    counts = ev.map_batches(
        lambda df: (df[df["event_type"].isin(["click", "view"])]
                    .groupby("event_type", sort=False).size()
                    .reset_index(name="n")),
        batch_format="pandas")
    nn = rel.partial_groupby_agg(counts, ["event_type"],
                                 {"n": ("n", "sum")}) \
        .set_index("event_type")["n"]
    n1, n2 = float(nn["click"]), float(nn["view"])

    def deltas(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["event_type"].isin(["click", "view"])]
        dd = np.where(df["event_type"].eq("click"), 1.0 / n1, -1.0 / n2)
        out = pd.DataFrame({"value": df["value"].to_numpy(np.float64),
                            "dd": dd})
        return out.groupby("value", sort=False).sum().reset_index()

    per_value = rel.partial_groupby_agg(
        ev.map_batches(deltas, batch_format="pandas"),
        ["value"], {"dd": ("dd", "sum")})
    import ray.data as rd

    scanned = global_scan(rd.from_pandas(per_value), ["value"],
                          "dd", "f")

    def peak(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"ks": pd.Series([], dtype="float64")})
        return pd.DataFrame({"ks": [np.abs(df["f"].to_numpy()).max()]})

    parts = scanned.map_batches(peak, batch_format="pandas").to_pandas()
    return pd.DataFrame({"ks": [np.round(parts["ks"].max(), 6)]})


SQL_KS_TEST = """
WITH a AS (SELECT value FROM events WHERE event_type = 'click'),
b AS (SELECT value FROM events WHERE event_type = 'view'),
n AS (SELECT (SELECT count(*) FROM a) AS n1,
             (SELECT count(*) FROM b) AS n2),
d AS (SELECT value,
             sum(CASE WHEN src = 1 THEN 1.0 / (SELECT n1 FROM n)
                      ELSE -1.0 / (SELECT n2 FROM n) END) AS dd
      FROM (SELECT value, 1 AS src FROM a
            UNION ALL SELECT value, 2 FROM b)
      GROUP BY value),
s AS (SELECT sum(dd) OVER (ORDER BY value
                           ROWS UNBOUNDED PRECEDING) AS f
      FROM d)
SELECT round(max(abs(f)), 6) AS ks FROM s
"""


def q_gini_value(sf_dir: str):
    """Gini coefficient of the click-value distribution — the
    inequality/concentration statistic, via the rank identity
    G = 2 Σ r·x / (n Σ x) − (n+1)/n: global ranks come from the
    keyless scan (delta = 1 in (value, event_id) order; rank-order
    within equal values cancels in Σ r·x, so the statistic is
    tie-stable), then one partial pass sums (n, Σx, Σ r·x)."""
    from ...stages.scan import global_scan

    ev = _rp(sf_dir, "events", ["event_id", "event_type", "value"])
    clicks = ev.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "click"))
        .drop_columns(["event_type"]),
        batch_format="pyarrow")

    def ones(t: pa.Table) -> pa.Table:
        return t.append_column("one", pa.array(
            np.ones(t.num_rows, dtype=np.int64)))

    ranked = global_scan(clicks.map_batches(ones, batch_format="pyarrow"),
                         ["value", "event_id"], "one", "rn")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        v = df["value"].to_numpy(np.float64)
        r = df["rn"].to_numpy(np.float64)
        return pd.DataFrame({"n": [np.int64(len(v))], "sv": [v.sum()],
                             "srv": [(r * v).sum()]})

    p = ranked.map_batches(partial, batch_format="pandas").to_pandas()
    n = float(p["n"].sum())
    sv, srv = float(p["sv"].sum()), float(p["srv"].sum())
    return pd.DataFrame({"gini": [np.round(2.0 * srv / (n * sv)
                                           - (n + 1.0) / n, 6)]})


SQL_GINI_VALUE = """
WITH r AS (SELECT value, row_number() OVER (ORDER BY value, event_id)
               AS rn
           FROM events WHERE event_type = 'click'),
agg AS (SELECT count(*) n, sum(value) sv, sum(rn * value) srv FROM r)
SELECT round(2.0 * srv / (n * sv) - (n + 1.0) / n, 6) AS gini FROM agg
"""


def q_cond_entropy(sf_dir: str):
    """Conditional entropy H(lang | source), nats — how much language
    uncertainty remains once the source is known (the
    information-theoretic profiling statistic complementing
    group_entropy's marginal form): one (source, lang) cell combiner,
    closed form on the bounded cell frame."""
    docs = _rp(sf_dir, "documents", ["source", "lang"])

    cell = rel.partial_groupby_agg(
        docs.map_batches(
            lambda df: df.groupby(["source", "lang"], sort=False)
            .size().reset_index(name="c"),
            batch_format="pandas"),
        ["source", "lang"], {"c": ("c", "sum")})
    nd = float(cell["c"].sum())
    ns = cell.groupby("source")["c"].transform("sum").to_numpy(np.float64)
    c = cell["c"].to_numpy(np.float64)
    h = -((c / nd) * np.log(c / ns)).sum()
    return pd.DataFrame({"h": [np.round(h, 6)]})


SQL_COND_ENTROPY = """
WITH cell AS (SELECT source, lang, count(*) AS c
              FROM documents GROUP BY 1, 2),
s AS (SELECT source, sum(c) AS ns FROM cell GROUP BY 1),
n AS (SELECT count(*) AS nd FROM documents)
SELECT round(-sum((c::DOUBLE / (SELECT nd FROM n))
                  * ln(c::DOUBLE / ns)), 6) AS h
FROM cell JOIN s USING (source)
"""


def q_mann_whitney(sf_dir: str):
    """Mann-Whitney U (click vs view values) with tie-averaged pooled
    ranks — the nonparametric location test: per-value (n_click,
    n_view) cells via the combiner, END ranks from the keyless scan
    over the distinct-value order, tie-block average rank in closed
    form (B + (cnt+1)/2), U = Σ n_click·avgrank − n1(n1+1)/2."""
    from ...stages.scan import global_scan

    ev = _rp(sf_dir, "events", ["event_type", "value"])

    def cells(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["event_type"].isin(["click", "view"])]
        g = (df.assign(c1=df["event_type"].eq("click"),
                       c2=df["event_type"].eq("view"))
             .groupby("value", sort=False)[["c1", "c2"]].sum()
             .astype(np.int64).reset_index())
        return g

    per_value = rel.partial_groupby_agg(
        ev.map_batches(cells, batch_format="pandas"),
        ["value"], {"c1": ("c1", "sum"), "c2": ("c2", "sum")})
    per_value["cnt"] = per_value["c1"] + per_value["c2"]
    import ray.data as rd

    scanned = global_scan(rd.from_pandas(per_value), ["value"],
                          "cnt", "cum")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cnt = df["cnt"].to_numpy(np.float64)
        avg = df["cum"].to_numpy(np.float64) - cnt + (cnt + 1) / 2.0
        return pd.DataFrame({
            "rsum": [(df["c1"].to_numpy(np.float64) * avg).sum()],
            "n1": [np.int64(df["c1"].sum())],
            "n2": [np.int64(df["c2"].sum())]})

    p = scanned.map_batches(partial, batch_format="pandas") \
        .to_pandas().sum()
    n1 = float(p["n1"])
    return pd.DataFrame({"n1": [np.int64(p["n1"])],
                         "n2": [np.int64(p["n2"])],
                         "u": [np.round(float(p["rsum"])
                                        - n1 * (n1 + 1) / 2.0, 6)]})


SQL_MANN_WHITNEY = """
WITH p AS (SELECT value, event_type FROM events
           WHERE event_type IN ('click', 'view')),
r AS (SELECT value, event_type,
             avg(rn) OVER (PARTITION BY value) AS ar
      FROM (SELECT value, event_type,
                   row_number() OVER (ORDER BY value, event_type) AS rn
            FROM p)),
agg AS (SELECT sum(ar) FILTER (WHERE event_type = 'click') AS rsum,
               count(*) FILTER (WHERE event_type = 'click') AS n1,
               count(*) FILTER (WHERE event_type = 'view') AS n2
        FROM r)
SELECT CAST(n1 AS BIGINT) AS n1, CAST(n2 AS BIGINT) AS n2,
       round(rsum - n1*(n1+1)/2.0, 6) AS u
FROM agg
"""


def q_kruskal_wallis(sf_dir: str):
    """Kruskal-Wallis H across all five event types (tie-corrected) —
    mann_whitney's k-group generalization on the same plan: per-value
    per-group cells via the combiner, END ranks from the keyless scan,
    tie-block average ranks and the tie term Σ(c³−c) in closed form."""
    from ...stages.scan import global_scan

    ev = _rp(sf_dir, "events", ["event_type", "value"])
    types = ["click", "error", "purchase", "signup", "view"]

    def cells(df: pd.DataFrame) -> pd.DataFrame:
        x = pd.crosstab(df["value"], df["event_type"])
        x = x.reindex(columns=types, fill_value=0).astype(np.int64)
        return x.reset_index()

    per_value = rel.partial_groupby_agg(
        ev.map_batches(cells, batch_format="pandas"),
        ["value"], {t: (t, "sum") for t in types})
    per_value["cnt"] = per_value[types].sum(axis=1)
    import ray.data as rd

    scanned = global_scan(rd.from_pandas(per_value), ["value"],
                          "cnt", "cum")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cnt = df["cnt"].to_numpy(np.float64)
        avg = df["cum"].to_numpy(np.float64) - cnt + (cnt + 1) / 2.0
        out = {"tt": [(cnt ** 3 - cnt).sum()], "n": [np.int64(cnt.sum())]}
        for t in types:
            c = df[t].to_numpy(np.float64)
            out[f"r_{t}"] = [(c * avg).sum()]
            out[f"n_{t}"] = [np.int64(c.sum())]
        return pd.DataFrame(out)

    p = scanned.map_batches(partial, batch_format="pandas") \
        .to_pandas().sum()
    n = float(p["n"])
    h0 = (12.0 / (n * (n + 1.0))
          * sum(float(p[f"r_{t}"]) ** 2 / float(p[f"n_{t}"])
                for t in types)
          - 3.0 * (n + 1.0))
    h = h0 / (1.0 - float(p["tt"]) / (n ** 3 - n))
    return pd.DataFrame({"h": [np.round(h, 6)]})


SQL_KRUSKAL_WALLIS = """
WITH r AS (SELECT event_type, value,
                  avg(rn) OVER (PARTITION BY value) AS ar
           FROM (SELECT event_type, value,
                        row_number() OVER (ORDER BY value, event_type,
                                           event_id) AS rn
                 FROM events)),
g AS (SELECT event_type, count(*) AS ni, sum(ar) AS ri FROM r GROUP BY 1),
n AS (SELECT count(*) AS nn FROM events),
ties AS (SELECT sum(c*c*c - c) AS tt FROM
         (SELECT count(*) AS c FROM events GROUP BY value)),
h AS (SELECT 12.0/((SELECT nn FROM n)*((SELECT nn FROM n)+1.0))
             * sum(ri*ri/ni) - 3.0*((SELECT nn FROM n)+1.0) AS h0 FROM g)
SELECT round(h0 / (1.0 - (SELECT tt FROM ties)::DOUBLE
                   / (pow((SELECT nn FROM n), 3)
                      - (SELECT nn FROM n))), 6) AS h
FROM h
"""


def q_chisq_independence(sf_dir: str):
    """Chi-square independence test of the lang x source contingency
    (+ dof) — cond_entropy's hypothesis-test sibling: one cell
    combiner, dense grid with zero cells, closed form on the bounded
    frame (integer expected-count numerators keep the mirror exact)."""
    docs = _rp(sf_dir, "documents", ["source", "lang"])

    cell = rel.partial_groupby_agg(
        docs.map_batches(
            lambda df: df.groupby(["source", "lang"], sort=False)
            .size().reset_index(name="c"),
            batch_format="pandas"),
        ["source", "lang"], {"c": ("c", "sum")})
    grid = cell.pivot_table(index="source", columns="lang", values="c",
                            fill_value=0, aggfunc="sum")
    O = grid.to_numpy(np.float64)
    nd = O.sum()
    nr = O.sum(axis=1)
    nc = O.sum(axis=0)
    E = nr[:, None] * nc[None, :] / nd
    chi2 = ((O - E) ** 2 / E).sum()
    dof = (len(nr) - 1) * (len(nc) - 1)
    return pd.DataFrame({"chi2": [np.round(chi2, 6)],
                         "dof": [np.int64(dof)]})


SQL_CHISQ_INDEPENDENCE = """
WITH cell AS (SELECT source, lang, count(*) AS c
              FROM documents GROUP BY 1, 2),
rs AS (SELECT source, sum(c) AS nr FROM cell GROUP BY 1),
cs AS (SELECT lang, sum(c) AS nc FROM cell GROUP BY 1),
n AS (SELECT count(*) AS nd FROM documents),
grid AS (SELECT r.source, l.lang, r.nr, l.nc, coalesce(c.c, 0) AS o
         FROM rs r CROSS JOIN cs l
         LEFT JOIN cell c ON c.source = r.source AND c.lang = l.lang)
SELECT round(sum(pow(o - nr*nc/(SELECT nd FROM n)::DOUBLE, 2)
              / (nr*nc/(SELECT nd FROM n)::DOUBLE)), 6) AS chi2,
       CAST(((SELECT count(*) FROM rs) - 1)
            * ((SELECT count(*) FROM cs) - 1) AS BIGINT) AS dof
FROM grid
"""


def q_benford_digits(sf_dir: str):
    """Benford's-law profiling of l_extendedprice: distribution of the
    first significant digit vs the Benford expectation log10(1 + 1/d)
    — the classic synthetic-data / fraud screen for a numeric column.
    Shuffle-free: per-batch digit bincount partials (the digit is read
    from the integer part's decimal string, no float log in the data
    path) collapse to a 9-row frame on the driver."""
    ds = _rp(sf_dir, "lineitem", ["l_extendedprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = df["l_extendedprice"].to_numpy(np.float64)
        y = np.floor(x[x >= 1.0]).astype(np.int64)
        if y.size == 0:
            return pd.DataFrame({"digit": np.empty(0, np.int64),
                                 "n": np.empty(0, np.int64)})
        d = pd.Series(y).astype(str).str[0].astype(np.int64)
        c = np.bincount(d.to_numpy(), minlength=10)[1:]
        nz = np.flatnonzero(c)
        return pd.DataFrame({"digit": nz + 1, "n": c[nz]})

    cnt = rel.partial_groupby_agg(
        ds.map_batches(partial, batch_format="pandas"),
        ["digit"], {"n": ("n", "sum")})
    cnt = cnt.sort_values("digit").reset_index(drop=True)
    tot = float(cnt["n"].sum())
    dig = cnt["digit"].to_numpy(np.int64)
    return pd.DataFrame({
        "digit": dig,
        "n": cnt["n"].to_numpy(np.int64),
        "obs_freq": np.round(cnt["n"].to_numpy(np.int64) / tot, 6),
        "benford_freq": np.round(np.log10(1.0 + 1.0 / dig), 6)})


SQL_BENFORD_DIGITS = """
WITH d AS (
  SELECT CAST(substr(CAST(CAST(floor(l_extendedprice) AS BIGINT)
                          AS VARCHAR), 1, 1) AS BIGINT) AS digit
  FROM lineitem WHERE l_extendedprice >= 1),
c AS (SELECT digit, count(*) AS n FROM d GROUP BY 1),
t AS (SELECT sum(n) AS tot FROM c)
SELECT digit, CAST(n AS BIGINT) AS n,
       round(n / t.tot, 6) AS obs_freq,
       round(log10(1 + 1.0 / digit), 6) AS benford_freq
FROM c CROSS JOIN t
"""


def q_anova_f(sf_dir: str):
    """One-way ANOVA F statistic of value across event_type — the
    k-group parametric complement to kruskal_wallis/welch_t, from one
    (n, Σx, Σx²) combiner pass (A4 discipline: per-batch partials, a
    k-row driver finish, no shuffle).  The sum-of-squares identities
    (SSB = Σ s_g²/n_g − S²/N, SSW = Σ ss_g − Σ s_g²/n_g) are mirrored
    verbatim in the SQL oracle so both engines share the same float64
    expression tree (round-6 parity; the centered two-pass form is the
    scale-robust alternative documented on moments_agg)."""
    ev = _rp(sf_dir, "events", ["event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = df["value"].to_numpy(np.float64)
        out = pd.DataFrame({"event_type": df["event_type"].to_numpy(object),
                            "n": 1.0, "s": x, "ss": x * x})
        return out.groupby("event_type", sort=False).sum().reset_index()

    g = rel.partial_groupby_agg(
        ev.map_batches(partial, batch_format="pandas"),
        ["event_type"],
        {"n": ("n", "sum"), "s": ("s", "sum"), "ss": ("ss", "sum")})
    n = g["n"].to_numpy(np.float64)
    s = g["s"].to_numpy(np.float64)
    ss = g["ss"].to_numpy(np.float64)
    big_n, big_s, k = n.sum(), s.sum(), float(len(g))
    sq = (s * s / n).sum()
    ssb = sq - big_s * big_s / big_n
    ssw = ss.sum() - sq
    f = (ssb / (k - 1.0)) / (ssw / (big_n - k))
    return pd.DataFrame({"f_stat": [np.round(f, 6)],
                         "df_between": [np.int64(k - 1)],
                         "df_within": [np.int64(big_n - k)]})


SQL_ANOVA_F = """
WITH g AS (SELECT event_type, CAST(count(*) AS DOUBLE) AS n,
                  sum(value) AS s, sum(value * value) AS ss
           FROM events GROUP BY 1),
t AS (SELECT sum(n) AS big_n, sum(s) AS big_s, sum(s * s / n) AS sq,
             sum(ss) AS sss, CAST(count(*) AS DOUBLE) AS k
      FROM g)
SELECT round(((sq - big_s * big_s / big_n) / (k - 1))
             / ((sss - sq) / (big_n - k)), 6) AS f_stat,
       CAST(k - 1 AS BIGINT) AS df_between,
       CAST(big_n - k AS BIGINT) AS df_within
FROM t
"""


def q_levene_bf(sf_dir: str):
    """Brown-Forsythe robust variance-equality test (Levene's test with
    group medians): W = one-way ANOVA F on z = |x − median_g| — the
    heteroscedasticity gate run before trusting anova_f.  Medians via
    the exact per-group quantile kernel (one co-location shuffle);
    the k medians broadcast as a tiny dict; deviations then reduce
    through the same (n, Σz, Σz²) combiner as anova_f."""
    from ...stages.temporal import quantile_agg

    ev = _rp(sf_dir, "events", ["event_type", "value"])
    med_df = quantile_agg(ev, ["event_type"], "value",
                          {"med": 0.5}).to_pandas()
    med = dict(zip(med_df["event_type"], med_df["med"]))

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        z = np.abs(df["value"].to_numpy(np.float64)
                   - df["event_type"].map(med).to_numpy(np.float64))
        out = pd.DataFrame({"event_type": df["event_type"].to_numpy(object),
                            "n": 1.0, "s": z, "ss": z * z})
        return out.groupby("event_type", sort=False).sum().reset_index()

    g = rel.partial_groupby_agg(
        ev.map_batches(partial, batch_format="pandas"),
        ["event_type"],
        {"n": ("n", "sum"), "s": ("s", "sum"), "ss": ("ss", "sum")})
    n = g["n"].to_numpy(np.float64)
    s = g["s"].to_numpy(np.float64)
    ss = g["ss"].to_numpy(np.float64)
    big_n, big_s, k = n.sum(), s.sum(), float(len(g))
    sq = (s * s / n).sum()
    w = ((sq - big_s * big_s / big_n) / (k - 1.0)) \
        / ((ss.sum() - sq) / (big_n - k))
    return pd.DataFrame({"w_stat": [np.round(w, 6)],
                         "df_between": [np.int64(k - 1)],
                         "df_within": [np.int64(big_n - k)]})


SQL_LEVENE_BF = """
WITH m AS (SELECT event_type, median(value) AS med
           FROM events GROUP BY 1),
z AS (SELECT e.event_type, abs(value - med) AS z
      FROM events e JOIN m USING (event_type)),
g AS (SELECT event_type, CAST(count(*) AS DOUBLE) AS n,
             sum(z) AS s, sum(z * z) AS ss
      FROM z GROUP BY 1),
t AS (SELECT sum(n) AS big_n, sum(s) AS big_s, sum(s * s / n) AS sq,
             sum(ss) AS sss, CAST(count(*) AS DOUBLE) AS k
      FROM g)
SELECT round(((sq - big_s * big_s / big_n) / (k - 1))
             / ((sss - sq) / (big_n - k)), 6) AS w_stat,
       CAST(k - 1 AS BIGINT) AS df_between,
       CAST(big_n - k AS BIGINT) AS df_within
FROM t
"""


def q_js_divergence(sf_dir: str):
    """Jensen-Shannon divergence (bits) between the token
    distributions of the even- and odd-doc_id corpus halves — the
    source-drift gate (stages/textstats.py::js_divergence: one
    term-keyed bucketed shuffle, per-bucket contribution partials,
    O(buckets) driver state)."""
    return ts.js_divergence(_rp(sf_dir, "documents", ["doc_id", "text"]))


SQL_JS_DIVERGENCE = r"""
WITH toks AS (
  SELECT doc_id,
         unnest(regexp_split_to_array(trim(lower(text)), '\s+')) AS term
  FROM documents WHERE trim(coalesce(text, '')) <> ''),
c AS (SELECT term,
             sum(CASE WHEN doc_id % 2 = 0 THEN 1 ELSE 0 END) AS ca,
             sum(CASE WHEN doc_id % 2 = 1 THEN 1 ELSE 0 END) AS cb
      FROM toks GROUP BY 1),
t AS (SELECT CAST(sum(ca) AS DOUBLE) AS na,
             CAST(sum(cb) AS DOUBLE) AS nb
      FROM c)
SELECT round(sum(
         CASE WHEN ca > 0 THEN 0.5 * (ca / na)
              * log2((ca / na) / ((ca / na + cb / nb) / 2)) ELSE 0 END
         + CASE WHEN cb > 0 THEN 0.5 * (cb / nb)
              * log2((cb / nb) / ((ca / na + cb / nb) / 2)) ELSE 0 END),
       6) AS js_bits,
       CAST(count(*) AS BIGINT) AS n_terms
FROM c CROSS JOIN t
"""


def q_rfm_segments(sf_dir: str):
    """RFM user segmentation: per-user Recency (days since last event,
    exact int64-microsecond arithmetic), Frequency and Monetary, plus
    an NTILE(5) frequency score with SQL's remainder rule — one user
    co-location shuffle for R/F/M, the global_dense_rank primitive for
    the corpus-wide quintile (no global sort materialization), one
    hash join to attach the score."""
    from ...stages.relational import global_dense_rank, hash_join
    from ...stages.shuffle import bucketed_map_groups

    ev = _rp(sf_dir, "events", ["user_id", "ts", "value"])

    def max_part(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].to_numpy("datetime64[us]").astype(np.int64)
        return pd.DataFrame({"m": [us.max() if len(us) else np.int64(0)]})

    tref = int(ev.map_batches(max_part, batch_format="pandas")
               .to_pandas()["m"].max())

    def rfm(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].to_numpy("datetime64[us]").astype(np.int64)
        d = pd.DataFrame({"user_id": df["user_id"].to_numpy(np.int64),
                          "us": us,
                          "value": df["value"].to_numpy(np.float64)})
        g = d.groupby("user_id", sort=False) \
            .agg(mx=("us", "max"), frequency=("us", "size"),
                 sv=("value", "sum")).reset_index()
        return pd.DataFrame({
            "user_id": g["user_id"].to_numpy(np.int64),
            "recency_days": (tref - g["mx"].to_numpy(np.int64))
            // np.int64(86400000000),
            "frequency": g["frequency"].to_numpy(np.int64),
            "monetary": np.round(g["sv"].to_numpy(np.float64), 6)})

    from ...stages.shuffle import drop_empty_blocks

    base = bucketed_map_groups(ev, ["user_id"], rfm, num_buckets=64)
    ranked, n_users = global_dense_rank(base, "frequency", "user_id")
    # drop schema-less 0-row blocks before the acero join (the tracked
    # empty-block class: Ray strips the schema off 0-row map outputs)
    ranked = drop_empty_blocks(ranked.map_batches(
        lambda df: df.rename(columns={"id": "user_id"}),
        batch_format="pandas").materialize())
    joined = hash_join(base, ranked, on=["user_id"])
    k = 5
    q, r = n_users // k, n_users % k
    big, boundary = q + 1, (q + 1) * r
    q_safe = max(q, 1)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        rn = df["rn"].to_numpy(np.int64)
        f = np.where(rn < boundary, rn // big + 1,
                     (rn - boundary) // q_safe + r + 1)
        out = df[["user_id", "recency_days", "frequency",
                  "monetary"]].copy()
        out["f_score"] = f
        return out

    return joined.map_batches(score, batch_format="pandas")


SQL_RFM_SEGMENTS = """
WITH tr AS (SELECT max(ts) AS m FROM events),
rfm AS (
  SELECT user_id,
         (epoch_us(m) - epoch_us(max(ts))) // 86400000000
             AS recency_days,
         count(*) AS frequency, round(sum(value), 6) AS monetary
  FROM events CROSS JOIN tr GROUP BY user_id, m)
SELECT user_id, CAST(recency_days AS BIGINT) AS recency_days,
       CAST(frequency AS BIGINT) AS frequency, monetary,
       CAST(ntile(5) OVER (ORDER BY frequency, user_id) AS BIGINT)
           AS f_score
FROM rfm
"""


def q_cramers_v(sf_dir: str):
    """Cramér's V effect size of the lang × source association — the
    normalized companion to chisq_independence (same one-combiner cell
    pass, closed form √(χ²/(n·min(r−1, c−1))) on the bounded grid),
    reported with the raw χ² so downstream gating can use either."""
    docs = _rp(sf_dir, "documents", ["source", "lang"])

    cell = rel.partial_groupby_agg(
        docs.map_batches(
            lambda df: df.groupby(["source", "lang"], sort=False)
            .size().reset_index(name="c"),
            batch_format="pandas"),
        ["source", "lang"], {"c": ("c", "sum")})
    grid = cell.pivot_table(index="source", columns="lang", values="c",
                            fill_value=0, aggfunc="sum")
    obs = grid.to_numpy(np.float64)
    nd = obs.sum()
    nr = obs.sum(axis=1)
    nc = obs.sum(axis=0)
    exp = nr[:, None] * nc[None, :] / nd
    chi2 = ((obs - exp) ** 2 / exp).sum()
    mindim = float(min(len(nr) - 1, len(nc) - 1))
    return pd.DataFrame({"chi2": [np.round(chi2, 6)],
                         "cramers_v": [np.round(
                             np.sqrt(chi2 / (nd * mindim)), 6)]})


SQL_CRAMERS_V = """
WITH cell AS (SELECT source, lang, count(*) AS c
              FROM documents GROUP BY 1, 2),
rs AS (SELECT source, sum(c) AS nr FROM cell GROUP BY 1),
cs AS (SELECT lang, sum(c) AS nc FROM cell GROUP BY 1),
t AS (SELECT CAST(sum(c) AS DOUBLE) AS nd FROM cell),
dims AS (SELECT (SELECT count(*) FROM rs) AS r,
                (SELECT count(*) FROM cs) AS k),
grid AS (SELECT rs.source, cs.lang, nr, nc,
                coalesce(c, 0) AS o
         FROM rs CROSS JOIN cs
         LEFT JOIN cell ON cell.source = rs.source
                       AND cell.lang = cs.lang),
x AS (SELECT sum(pow(o - nr * nc / nd, 2) / (nr * nc / nd)) AS chi2
      FROM grid CROSS JOIN t)
SELECT round(chi2, 6) AS chi2,
       round(sqrt(chi2 / (nd * least(r - 1, k - 1))), 6) AS cramers_v
FROM x CROSS JOIN t CROSS JOIN dims
"""


def q_score_calibration(sf_dir: str):
    """Match-score calibration audit (reliability diagram + per-bin
    Brier): the threshold_sweep score (within-source token-set
    Jaccard, truth = same-lang) bucketed into 10 probability bins,
    each reporting observed match rate, mean score and Brier term —
    how a linkage deployment decides whether its scores can be READ
    as probabilities before picking Fellegi-Sunter cutoffs.  Same
    zero-pair-leakage plan as threshold_sweep: each blocking group
    collapses its pairs to ≤ 10 bin partials in place."""
    from ...stages.shuffle import bucketed_map_groups

    ds = _rp(sf_dir, "documents", ["doc_id", "text", "lang", "source"])

    def block(df: pd.DataFrame) -> pd.DataFrame:
        parts = []
        for _, g in df.groupby("source", sort=False):
            m = len(g)
            if m < 2:
                continue
            g = g.sort_values("doc_id", kind="mergesort")
            texts = (g["text"].astype("string").fillna("")
                     .str.lower().reset_index(drop=True))
            toks = texts.str.findall(r"[a-z0-9]+").explode().dropna()
            rt = pd.DataFrame({"r": toks.index.to_numpy(),
                               "t": toks.to_numpy()}).drop_duplicates()
            X = np.zeros((m, 1), dtype=np.float64)
            if len(rt):
                codes, _ = pd.factorize(rt["t"])
                X = np.zeros((m, int(codes.max()) + 1), dtype=np.float64)
                X[rt["r"].to_numpy(), codes] = 1.0
            inter = X @ X.T
            sizes = X.sum(axis=1)
            iu, ju = np.triu_indices(m, 1)
            inter_p = inter[iu, ju]
            union_p = sizes[iu] + sizes[ju] - inter_p
            ok = union_p > 0
            score = inter_p[ok] / union_p[ok]
            lang = g["lang"].to_numpy()
            same = (lang[iu] == lang[ju])[ok].astype(np.float64)
            b = np.minimum(np.floor(score * 10).astype(np.int64), 9)
            parts.append(pd.DataFrame({
                "bin": b, "n": np.int64(1), "n_match": same,
                "s": score, "br": (score - same) ** 2})
                .groupby("bin", sort=False).sum().reset_index())
        if not parts:
            return pd.DataFrame({
                "bin": pd.Series([], dtype="int64"),
                "n": pd.Series([], dtype="int64"),
                "n_match": pd.Series([], dtype="float64"),
                "s": pd.Series([], dtype="float64"),
                "br": pd.Series([], dtype="float64")})
        return pd.concat(parts, ignore_index=True)

    partials = bucketed_map_groups(ds, ["source"], block, num_buckets=32)
    out = rel.partial_groupby_agg(
        partials, ["bin"],
        {"n": ("n", "sum"), "n_match": ("n_match", "sum"),
         "s": ("s", "sum"), "br": ("br", "sum")})
    out = out.sort_values("bin").reset_index(drop=True)
    n = out["n"].to_numpy(np.float64)
    return pd.DataFrame({
        "bin": out["bin"].to_numpy(np.int64),
        "n": out["n"].to_numpy(np.int64),
        "mean_score": np.round(out["s"].to_numpy(np.float64) / n, 6),
        "obs_rate": np.round(out["n_match"].to_numpy(np.float64) / n, 6),
        "brier": np.round(out["br"].to_numpy(np.float64) / n, 6)})


SQL_SCORE_CALIBRATION = r"""
WITH t AS (
  SELECT doc_id, lang, source,
         list_distinct(regexp_extract_all(lower(coalesce(text, '')),
                                          '[a-z0-9]+')) AS toks
  FROM documents),
p AS (
  SELECT len(list_intersect(a.toks, b.toks))::DOUBLE
           / len(list_distinct(list_concat(a.toks, b.toks))) AS score,
         CAST(a.lang = b.lang AS INT) AS sm
  FROM t a JOIN t b ON b.source = a.source AND b.doc_id > a.doc_id
  WHERE len(list_distinct(list_concat(a.toks, b.toks))) > 0),
b AS (SELECT least(CAST(floor(score * 10) AS BIGINT), 9) AS bin,
             score, sm
      FROM p)
SELECT bin, CAST(count(*) AS BIGINT) AS n,
       round(sum(score) / count(*), 6) AS mean_score,
       round(sum(CAST(sm AS DOUBLE)) / count(*), 6) AS obs_rate,
       round(sum(pow(score - sm, 2)) / count(*), 6) AS brier
FROM b GROUP BY bin
"""


def q_psi_drift(sf_dir: str):
    """Population Stability Index between the value distributions of
    the first 15 days (reference) and the rest (current) — the
    standard ML feature-drift gate: decile bins from the EXACT
    reference quantiles, PSI = Σ (q−p)·ln(q/p) with the zero-bin
    guard mirrored in both engines.  One quantile co-location for the
    9 thresholds, then one (period, bin) combiner; strict-inequality
    bin edges (count of thresholds < value) match searchsorted-left
    exactly."""
    from ...stages.temporal import quantile_agg

    ev = _rp(sf_dir, "events", ["ts", "value"])
    day_us = np.int64(86400000000)

    def with_day(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "day": df["ts"].to_numpy("datetime64[us]")
            .astype(np.int64) // day_us,
            "value": df["value"].to_numpy(np.float64)})

    keyed = ev.map_batches(with_day, batch_format="pandas") \
        .materialize()
    d0 = int(keyed.min("day"))
    cut = d0 + 15

    ref = keyed.map_batches(
        lambda df: df[df["day"] < cut].assign(g=0),
        batch_format="pandas")
    qs = {f"t{i}": i / 10.0 for i in range(1, 10)}
    th = quantile_agg(ref, ["g"], "value", qs).to_pandas()
    thresholds = np.array([float(th[f"t{i}"].iloc[0])
                           for i in range(1, 10)])

    def binned(df: pd.DataFrame) -> pd.DataFrame:
        v = df["value"].to_numpy(np.float64)
        out = pd.DataFrame({
            "period": np.where(df["day"].to_numpy(np.int64) < cut,
                               "ref", "cur"),
            "bin": np.searchsorted(thresholds, v, side="left"),
            "n": np.int64(1)})
        return out.groupby(["period", "bin"], sort=False) \
            .sum().reset_index()

    g = rel.partial_groupby_agg(
        keyed.map_batches(binned, batch_format="pandas"),
        ["period", "bin"], {"n": ("n", "sum")})
    pv = g.pivot_table(index="bin", columns="period", values="n",
                       fill_value=0, aggfunc="sum") \
        .reindex(range(10), fill_value=0)
    p = pv["ref"].to_numpy(np.float64)
    q = pv["cur"].to_numpy(np.float64)
    p = np.maximum(p / p.sum(), 1e-12)
    q = np.maximum(q / q.sum(), 1e-12)
    return pd.DataFrame({"psi": [np.round(((q - p)
                                           * np.log(q / p)).sum(), 6)]})


SQL_PSI_DRIFT = """
WITH e AS (SELECT epoch_us(ts) // 86400000000 AS day, value
           FROM events),
b AS (SELECT min(day) AS d0 FROM e),
ref AS (SELECT value FROM e CROSS JOIN b WHERE day < d0 + 15),
th AS (SELECT quantile_cont(value, [0.1, 0.2, 0.3, 0.4, 0.5,
                                    0.6, 0.7, 0.8, 0.9]) AS t
       FROM ref),
binned AS (
  SELECT CASE WHEN day < d0 + 15 THEN 'ref' ELSE 'cur' END AS period,
         (CASE WHEN value > t[1] THEN 1 ELSE 0 END
          + CASE WHEN value > t[2] THEN 1 ELSE 0 END
          + CASE WHEN value > t[3] THEN 1 ELSE 0 END
          + CASE WHEN value > t[4] THEN 1 ELSE 0 END
          + CASE WHEN value > t[5] THEN 1 ELSE 0 END
          + CASE WHEN value > t[6] THEN 1 ELSE 0 END
          + CASE WHEN value > t[7] THEN 1 ELSE 0 END
          + CASE WHEN value > t[8] THEN 1 ELSE 0 END
          + CASE WHEN value > t[9] THEN 1 ELSE 0 END) AS bin
  FROM e CROSS JOIN b CROSS JOIN th),
c AS (SELECT bin,
             sum(CASE WHEN period = 'ref' THEN 1 ELSE 0 END) AS nr,
             sum(CASE WHEN period = 'cur' THEN 1 ELSE 0 END) AS nc
      FROM binned GROUP BY bin),
t2 AS (SELECT CAST(sum(nr) AS DOUBLE) AS tr,
              CAST(sum(nc) AS DOUBLE) AS tc
       FROM c)
SELECT round(sum((greatest(nc / tc, 1e-12) - greatest(nr / tr, 1e-12))
                 * ln(greatest(nc / tc, 1e-12)
                      / greatest(nr / tr, 1e-12))), 6) AS psi
FROM c CROSS JOIN t2
"""


def q_hill_tail(sf_dir: str):
    """Hill tail-index estimate of the token-frequency distribution
    (α̂ = 1 / mean(ln xᵢ − ln x₍k₎) over the top-k order statistics,
    k = 20 — the synthetic corpus vocabulary is small) — the heavy-tail diagnostic that says whether frequency-
    based curation cutoffs are even meaningful on this corpus (web
    text is Zipfian; α complements zipf_slope's regression).  Token
    counts via one term-keyed combiner shuffle; only the top-k counts
    travel to the driver (sort + limit over the bounded cell
    table)."""
    from ...stages.shuffle import bucketed_map_groups

    docs = _rp(sf_dir, "documents", ["text"])

    def cnt_partial(df: pd.DataFrame) -> pd.DataFrame:
        ex = ts._ws_tokens(df["text"]).explode().dropna()
        if len(ex) == 0:
            return pd.DataFrame({"term": pd.Series([], dtype="string"),
                                 "n": pd.Series([], dtype="int64")})
        g = ex.groupby(ex.to_numpy(), sort=False).size()
        return pd.DataFrame({"term": g.index.astype("string"),
                             "n": g.to_numpy()})

    cells = bucketed_map_groups(
        docs.map_batches(cnt_partial, batch_format="pandas"),
        ["term"],
        lambda df: df.groupby("term", sort=False)["n"].sum()
        .reset_index(),
        num_buckets=64)
    k = 20
    top = cells.sort(["n", "term"], descending=[True, False]) \
        .limit(k).to_pandas()
    x = top["n"].to_numpy(np.float64)
    xk = x[-1]
    alpha = 1.0 / np.mean(np.log(x[:-1]) - np.log(xk))
    return pd.DataFrame({"alpha": [np.round(alpha, 6)],
                         "x_k": [np.int64(xk)],
                         "k": [np.int64(k)]})


SQL_HILL_TAIL = r"""
WITH toks AS (
  SELECT unnest(regexp_split_to_array(trim(lower(text)), '\s+'))
      AS term
  FROM documents WHERE trim(coalesce(text, '')) <> ''),
c AS (SELECT term, count(*) AS n FROM toks GROUP BY 1),
top AS (SELECT n, row_number() OVER (ORDER BY n DESC, term) AS rk
        FROM c ORDER BY n DESC, term LIMIT 20),
xk AS (SELECT CAST(n AS DOUBLE) AS v FROM top WHERE rk = 20)
SELECT round(1.0 / avg(ln(CAST(n AS DOUBLE)) - ln(v)), 6) AS alpha,
       CAST(v AS BIGINT) AS x_k, CAST(20 AS BIGINT) AS k
FROM top CROSS JOIN xk WHERE rk < 20
GROUP BY v
"""


def q_naive_bayes(sf_dir: str):
    """Multinomial Naive Bayes language classifier, trained AND scored
    distributed, fully SQL-oracled: per-(token, lang) counts are one
    combiner shuffle (the model), scoring hydrates each doc's tokens
    against the count table and sums add-one-smoothed
    ln((c+1)/(N_l+V)) plus the ln prior per language; argmax with
    scores rounded to 9 decimals first (the truth_discovery guard —
    float summation order can never flip a tie).  Output: per true
    lang (n_docs, n_correct) — the confusion diagonal."""
    from ...stages.shuffle import bucketed_map_groups

    docs = _rp(sf_dir, "documents", ["doc_id", "text", "lang"])

    def cnt_partial(df: pd.DataFrame) -> pd.DataFrame:
        ex = ts._ws_tokens(df["text"]).reset_index(drop=True) \
            .explode().dropna()
        if len(ex) == 0:
            return pd.DataFrame({"term": pd.Series([], dtype="string"),
                                 "lang": pd.Series([], dtype=object),
                                 "c": pd.Series([], dtype="int64")})
        lang = df["lang"].to_numpy(object)
        t = pd.DataFrame({"term": ex.to_numpy(object),
                          "lang": lang[ex.index.to_numpy()],
                          "c": np.int64(1)})
        return t.groupby(["term", "lang"], sort=False).sum() \
            .reset_index()

    cells = bucketed_map_groups(
        docs.map_batches(cnt_partial, batch_format="pandas"),
        ["term"],
        lambda df: df.groupby(["term", "lang"], sort=False)["c"]
        .sum().reset_index(),
        num_buckets=64).materialize()

    # bounded model margins: per-lang token totals, vocab, doc priors
    lang_tot = rel.partial_groupby_agg(cells, ["lang"],
                                       {"nl": ("c", "sum")})
    nl = dict(zip(lang_tot["lang"], lang_tot["nl"].astype(np.float64)))
    v = float(cells.map_batches(
        lambda df: pd.DataFrame({"t": df["term"].unique()}),
        batch_format="pandas").to_pandas()["t"].nunique()) + 1.0
    doc_cnt = rel.partial_groupby_agg(
        docs.map_batches(
            lambda df: df.groupby("lang", sort=False).size()
            .reset_index(name="nd"),
            batch_format="pandas"),
        ["lang"], {"nd": ("nd", "sum")})
    nd_tot = float(doc_cnt["nd"].sum())
    langs = sorted(nl)
    prior = {lg: np.log(float(doc_cnt.set_index("lang")["nd"][lg])
                        / nd_tot) for lg in langs}

    # broadcast the (term, lang) count map — synthetic-vocab-sized
    # here; the documented web-scale swap is the hash-join hydration
    # used by unigram_logprob/bigram_lm (same plan, heavier exchange)
    cmap = cells.to_pandas()
    cmap = {(r.term, r.lang): float(r.c) for r in cmap.itertuples()}

    def score(df: pd.DataFrame) -> pd.DataFrame:
        toks = ts._ws_tokens(df["text"]).reset_index(drop=True)
        ex = toks.explode().dropna()
        ids = df["doc_id"].to_numpy(np.int64)
        true_lang = df["lang"].to_numpy(object)
        n = len(df)
        scores = np.zeros((n, len(langs)))
        for li, lg in enumerate(langs):
            val = np.array([np.log((cmap.get((t, lg), 0.0) + 1.0)
                                   / (nl[lg] + v))
                            for t in ex.to_numpy(object)])
            s = np.zeros(n)
            np.add.at(s, ex.index.to_numpy(), val)
            scores[:, li] = np.round(s + prior[lg], 9)
        pred = np.array(langs, dtype=object)[np.argmax(scores, axis=1)]
        out = pd.DataFrame({"lang": true_lang, "n_docs": np.int64(1),
                            "n_correct": (pred == true_lang)
                            .astype(np.int64)})
        return out.groupby("lang", sort=False).sum().reset_index()

    g = rel.partial_groupby_agg(
        docs.map_batches(score, batch_format="pandas"),
        ["lang"], {"n_docs": ("n_docs", "sum"),
                   "n_correct": ("n_correct", "sum")})
    return pd.DataFrame({
        "lang": g["lang"].to_numpy(object),
        "n_docs": g["n_docs"].to_numpy(np.int64),
        "n_correct": g["n_correct"].to_numpy(np.int64)})


SQL_NAIVE_BAYES = r"""
WITH toks AS (
  SELECT doc_id, lang,
         unnest(regexp_split_to_array(trim(lower(text)), '\s+'))
             AS term
  FROM documents WHERE trim(coalesce(text, '')) <> ''),
cells AS (SELECT term, lang, count(*) AS c FROM toks
          GROUP BY 1, 2),
nlt AS (SELECT lang, CAST(sum(c) AS DOUBLE) AS nl FROM cells
        GROUP BY 1),
vv AS (SELECT CAST(count(DISTINCT term) AS DOUBLE) + 1.0 AS v
       FROM cells),
pri AS (SELECT lang, ln(count(*) / (SELECT CAST(count(*) AS DOUBLE)
                                    FROM documents)) AS lp
        FROM documents GROUP BY 1),
sc AS (
  SELECT t.doc_id, d.lang AS true_lang, nlt.lang AS cand,
         round(sum(ln((coalesce(c, 0) + 1.0) / (nl + v)))
               + any_value(lp), 9) AS s
  FROM toks t
  JOIN documents d USING (doc_id)
  CROSS JOIN nlt CROSS JOIN vv
  LEFT JOIN cells ON cells.term = t.term AND cells.lang = nlt.lang
  JOIN pri ON pri.lang = nlt.lang
  GROUP BY t.doc_id, d.lang, nlt.lang, nl, v),
pred AS (SELECT doc_id, true_lang, cand,
                row_number() OVER (PARTITION BY doc_id
                                   ORDER BY s DESC, cand) AS rn
         FROM sc)
SELECT true_lang AS lang, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(CASE WHEN cand = true_lang THEN 1 ELSE 0 END)
            AS BIGINT) AS n_correct
FROM pred WHERE rn = 1 GROUP BY 1
"""


def q_logreg_train(sf_dir: str):
    """Distributed logistic-regression training (is-CJK from cheap
    char statistics — the only linguistically separable label in the
    synthetic corpus, whose Latin-script languages share one random
    vocabulary): globally standardized features, 10
    full-batch gradient-descent steps — each step ONE combiner pass
    of per-batch gradient/loss partials against the broadcast weight
    vector, the canonical parameter-server-free distributed-GD shape
    (same skeleton as a data-parallel deep-learning step).  ORACLED
    (round-5, upgraded from rows-only): the 10 GD steps unroll as
    chained MATERIALIZED CTEs replaying the identical IEEE feature,
    standardization, sigmoid, gradient and update expressions.
    Monotone loss and above-baseline accuracy stay pinned in pytest.
    Returns one row per iteration (iter, loss, acc)."""
    docs = _rp(sf_dir, "documents", ["text", "lang"])

    def feats(df: pd.DataFrame) -> pd.DataFrame:
        t = df["text"].astype("string").fillna("")
        ln = t.str.len().to_numpy(np.float64)
        digits = t.str.count(r"[0-9]").to_numpy(np.float64)
        spaces = t.str.count(r" ").to_numpy(np.float64)
        ascii_n = t.str.count(r"[a-zA-Z]").to_numpy(np.float64)
        safe = np.maximum(ln, 1.0)
        the_n = t.str.count(r"\bthe\b").to_numpy(np.float64)
        return pd.DataFrame({
            "x1": np.log(safe),
            "x2": digits / safe,
            "x3": spaces / safe,
            "x4": ascii_n / safe,
            "x5": the_n / np.maximum(spaces, 1.0),
            "y": (df["lang"].to_numpy(object) == "zh")
            .astype(np.float64)})

    fx = docs.map_batches(feats, batch_format="pandas").materialize()
    cols = ["x1", "x2", "x3", "x4", "x5"]

    def mom(df: pd.DataFrame) -> pd.DataFrame:
        out = {"n": [np.float64(len(df))]}
        for c in cols:
            v = df[c].to_numpy(np.float64)
            out[f"s_{c}"], out[f"ss_{c}"] = [v.sum()], [(v * v).sum()]
        return pd.DataFrame(out)

    m = fx.map_batches(mom, batch_format="pandas").to_pandas().sum()
    n_tot = float(m["n"])
    mu = np.array([m[f"s_{c}"] / n_tot for c in cols])
    sd = np.array([np.sqrt(max(m[f"ss_{c}"] / n_tot
                               - (m[f"s_{c}"] / n_tot) ** 2, 1e-12))
                   for c in cols])

    w = np.zeros(len(cols) + 1)       # [bias, w1..w5]
    lr = 1.0
    hist = []
    for it in range(10):
        def grad(df: pd.DataFrame, _w=w.copy()) -> pd.DataFrame:
            X = np.column_stack(
                [np.ones(len(df))]
                + [(df[c].to_numpy(np.float64) - mu[i]) / sd[i]
                   for i, c in enumerate(cols)])
            y = df["y"].to_numpy(np.float64)
            z = X @ _w
            p = 1.0 / (1.0 + np.exp(-z))
            g = X.T @ (p - y)
            eps = 1e-12
            loss = -(y * np.log(p + eps)
                     + (1 - y) * np.log(1 - p + eps)).sum()
            acc = ((p >= 0.5) == (y >= 0.5)).sum()
            row = {f"g{i}": [g[i]] for i in range(len(_w))}
            row["loss"], row["acc"] = [loss], [np.float64(acc)]
            return pd.DataFrame(row)

        s = fx.map_batches(grad, batch_format="pandas") \
            .to_pandas().sum()
        gvec = np.array([s[f"g{i}"] for i in range(len(w))])
        hist.append((it, float(s["loss"]) / n_tot,
                     float(s["acc"]) / n_tot))
        w = w - lr * gvec / n_tot

    return pd.DataFrame(hist, columns=["iter", "loss", "acc"]) \
        .assign(loss=lambda d: d["loss"].round(6),
                acc=lambda d: d["acc"].round(6))


def _logreg_sql(iters: int = 10) -> str:
    """Exact SQL twin of q_logreg_train: the same char-statistic
    features, moment standardization and full-batch GD unrolled as
    chained MATERIALIZED CTEs — one sigmoid/gradient scan and one
    weight update per step, identical IEEE expressions."""
    head = r"""WITH
fx AS MATERIALIZED (
  SELECT ln(greatest(CAST(length(t) AS DOUBLE), 1.0)) AS x1,
         CAST(len(regexp_extract_all(t, '[0-9]')) AS DOUBLE)
             / greatest(CAST(length(t) AS DOUBLE), 1.0) AS x2,
         CAST(length(t) - length(replace(t, ' ', '')) AS DOUBLE)
             / greatest(CAST(length(t) AS DOUBLE), 1.0) AS x3,
         CAST(len(regexp_extract_all(t, '[a-zA-Z]')) AS DOUBLE)
             / greatest(CAST(length(t) AS DOUBLE), 1.0) AS x4,
         CAST(len(regexp_extract_all(t, '\bthe\b')) AS DOUBLE)
             / greatest(CAST(length(t) - length(replace(t, ' ', ''))
                             AS DOUBLE), 1.0) AS x5,
         CASE WHEN lang = 'zh' THEN 1.0 ELSE 0.0 END AS y
  FROM (SELECT coalesce(text, '') AS t, lang FROM documents)),
st AS MATERIALIZED (
  SELECT count(*) AS n,
         avg(x1) AS mu1, avg(x2) AS mu2, avg(x3) AS mu3,
         avg(x4) AS mu4, avg(x5) AS mu5,
         sqrt(greatest(sum(x1*x1)/count(*) - (sum(x1)/count(*))^2, 1e-12)) AS sd1,
         sqrt(greatest(sum(x2*x2)/count(*) - (sum(x2)/count(*))^2, 1e-12)) AS sd2,
         sqrt(greatest(sum(x3*x3)/count(*) - (sum(x3)/count(*))^2, 1e-12)) AS sd3,
         sqrt(greatest(sum(x4*x4)/count(*) - (sum(x4)/count(*))^2, 1e-12)) AS sd4,
         sqrt(greatest(sum(x5*x5)/count(*) - (sum(x5)/count(*))^2, 1e-12)) AS sd5
  FROM fx),
z AS MATERIALIZED (
  SELECT (x1 - st.mu1) / st.sd1 AS x1, (x2 - st.mu2) / st.sd2 AS x2,
         (x3 - st.mu3) / st.sd3 AS x3, (x4 - st.mu4) / st.sd4 AS x4,
         (x5 - st.mu5) / st.sd5 AS x5, y, st.n
  FROM fx CROSS JOIN st),
w0 AS MATERIALIZED (SELECT 0.0 AS b, 0.0 AS w1, 0.0 AS w2, 0.0 AS w3,
                           0.0 AS w4, 0.0 AS w5)"""
    parts = [head]
    for t in range(iters):
        parts.append(f"""
p{t} AS MATERIALIZED (
  SELECT z.*, 1.0 / (1.0 + exp(-(w.b + w.w1*z.x1 + w.w2*z.x2
                                 + w.w3*z.x3 + w.w4*z.x4
                                 + w.w5*z.x5))) AS p
  FROM z CROSS JOIN w{t} w),
s{t} AS MATERIALIZED (
  SELECT max(n) AS n,
         sum(p - y) AS g0, sum(x1*(p - y)) AS g1, sum(x2*(p - y)) AS g2,
         sum(x3*(p - y)) AS g3, sum(x4*(p - y)) AS g4,
         sum(x5*(p - y)) AS g5,
         sum(-(y * ln(p + 1e-12) + (1 - y) * ln(1 - p + 1e-12))) AS loss,
         sum(CASE WHEN (p >= 0.5) = (y >= 0.5) THEN 1.0 ELSE 0.0 END)
             AS acc
  FROM p{t}),
w{t + 1} AS MATERIALIZED (
  SELECT w.b - s.g0 / s.n AS b, w.w1 - s.g1 / s.n AS w1,
         w.w2 - s.g2 / s.n AS w2, w.w3 - s.g3 / s.n AS w3,
         w.w4 - s.g4 / s.n AS w4, w.w5 - s.g5 / s.n AS w5
  FROM w{t} w CROSS JOIN s{t} s)""")
    tail = "\nUNION ALL\n".join(
        f"SELECT CAST({t} AS BIGINT) AS iter, round(loss / n, 6) AS loss, "
        f"round(acc / n, 6) AS acc FROM s{t}" for t in range(iters))
    return ",".join(parts) + "\n" + tail


SQL_LOGREG_TRAIN = _logreg_sql()


def q_kendall_tau(sf_dir: str):
    """Per-event-type Kendall tau-b between event time and value —
    the tie-correct concordance rank correlation (the third of the
    correlation trio beside corr_agg/spearman_agg; preferred when the
    ordinal signal is all that's trusted).  One co-location shuffle on
    the group key; inside each group the discordant-pair count comes
    from stages/scan.py::strict_inversions — a fully VECTORIZED
    bottom-up merge (no per-element Python loop), O(n log^2 n) numpy
    work — and the tie corrections are closed-form from value_counts:
    tau_b = ((n0-n1-n2+n3) - 2*dis) / sqrt((n0-n1)(n0-n2))."""
    from ...stages.scan import strict_inversions
    from ...stages.shuffle import bucketed_map_groups

    ev = _rp(sf_dir, "events", ["event_type", "ts", "value"])
    empty = pd.DataFrame({"event_type": pd.Series([], dtype="object"),
                          "tau": pd.Series([], dtype="float64")})

    def block(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in df.groupby("event_type", sort=False):
            n = len(g)
            if n < 2:
                continue
            x = g["ts"].to_numpy("datetime64[us]").astype(np.int64)
            y = g["value"].to_numpy(np.float64)
            order = np.lexsort((y, x))
            dis = strict_inversions(y[order])
            n0 = n * (n - 1) // 2

            def tie_pairs(arr) -> int:
                c = pd.Series(arr).value_counts().to_numpy(np.int64)
                return int((c * (c - 1) // 2).sum())

            n1 = tie_pairs(x)
            n2 = tie_pairs(y)
            n3 = tie_pairs(pd.Series(list(zip(x, y))))
            denom = np.sqrt(float(n0 - n1) * float(n0 - n2))
            if denom == 0:
                continue
            cmd = (n0 - n1 - n2 + n3) - 2 * dis
            rows.append((et, np.round(cmd / denom, 6)))
        return pd.DataFrame(rows, columns=["event_type", "tau"]) \
            if rows else empty

    return bucketed_map_groups(ev, ["event_type"], block,
                               num_buckets=16, empty_like=empty)


SQL_KENDALL_TAU = """
WITH e AS (SELECT event_type, epoch_us(ts) AS x, value AS y, event_id
           FROM events)
SELECT a.event_type,
       round(sum(sign(a.x - b.x) * sign(a.y - b.y))
             / sqrt(sum(CASE WHEN a.x != b.x THEN 1 ELSE 0 END)
                    * sum(CASE WHEN a.y != b.y THEN 1 ELSE 0 END)),
             6) AS tau
FROM e a JOIN e b
  ON a.event_type = b.event_type AND a.event_id < b.event_id
GROUP BY a.event_type
"""


def q_mutual_info(sf_dir: str):
    """Mutual information I(lang; source) in nats — the symmetric
    association strength between the two document partitions
    (cond_entropy's two-sided sibling; chisq_independence's
    information-theoretic twin).  One (source, lang) cell combiner,
    closed form on the bounded cell frame."""
    docs = _rp(sf_dir, "documents", ["source", "lang"])

    cell = rel.partial_groupby_agg(
        docs.map_batches(
            lambda df: df.groupby(["source", "lang"], sort=False)
            .size().reset_index(name="c"),
            batch_format="pandas"),
        ["source", "lang"], {"c": ("c", "sum")})
    n = float(cell["c"].sum())
    ps = cell.groupby("source")["c"].transform("sum") \
        .to_numpy(np.float64) / n
    pl = cell.groupby("lang")["c"].transform("sum") \
        .to_numpy(np.float64) / n
    pij = cell["c"].to_numpy(np.float64) / n
    mi = (pij * np.log(pij / (ps * pl))).sum()
    return pd.DataFrame({"mi": [np.round(mi, 6)]})


SQL_MUTUAL_INFO = """
WITH cell AS (SELECT source, lang, count(*) AS c
              FROM documents GROUP BY 1, 2),
n AS (SELECT CAST(count(*) AS DOUBLE) AS nd FROM documents),
s AS (SELECT source, sum(c) AS cs FROM cell GROUP BY 1),
l AS (SELECT lang, sum(c) AS cl FROM cell GROUP BY 1)
SELECT round(sum((c / n.nd) * ln((c / n.nd)
                                 / ((cs / n.nd) * (cl / n.nd)))), 6) AS mi
FROM cell JOIN s USING (source) JOIN l USING (lang), n
"""


def q_jarque_bera(sf_dir: str):
    """Jarque-Bera normality statistic per event type — population
    skewness g1 and excess kurtosis g2 from the same two-pass CENTERED
    moment combiners as moments_agg (means broadcast, then shuffle-free
    sigma d^2/d^3/d^4 partials), JB = n/6 * (g1^2 + g2^2/4) on the
    bounded group frame."""
    ev = _rp(sf_dir, "events", ["event_type", "value"])

    m1 = rel.partial_groupby_agg(
        ev.map_batches(
            lambda df: df.groupby("event_type", sort=False)["value"]
            .agg(n="size", sy="sum").reset_index(),
            batch_format="pandas"),
        ["event_type"], {"n": ("n", "sum"), "sy": ("sy", "sum")})
    mean = dict(zip(m1["event_type"], m1["sy"] / m1["n"]))

    def cent(df: pd.DataFrame) -> pd.DataFrame:
        d = (df["value"].to_numpy(np.float64)
             - df["event_type"].map(mean).to_numpy(np.float64))
        out = pd.DataFrame({"event_type": df["event_type"].to_numpy(object),
                            "m2": d ** 2, "m3": d ** 3, "m4": d ** 4})
        return out.groupby("event_type", sort=False).sum().reset_index()

    m = rel.partial_groupby_agg(
        ev.map_batches(cent, batch_format="pandas"),
        ["event_type"], {"m2": ("m2", "sum"), "m3": ("m3", "sum"),
                         "m4": ("m4", "sum")})
    m = m.merge(m1[["event_type", "n"]], on="event_type")
    n = m["n"].to_numpy(np.float64)
    m2 = m["m2"].to_numpy() / n
    g1 = (m["m3"].to_numpy() / n) / m2 ** 1.5
    g2 = (m["m4"].to_numpy() / n) / m2 ** 2 - 3.0
    jb = n / 6.0 * (g1 ** 2 + g2 ** 2 / 4.0)
    return pd.DataFrame({"event_type": m["event_type"].to_numpy(object),
                         "g1": np.round(g1, 6), "g2": np.round(g2, 6),
                         "jb": np.round(jb, 6)})


SQL_JARQUE_BERA = """
WITH mu AS (SELECT event_type, avg(value) AS m,
                   CAST(count(*) AS DOUBLE) AS n
            FROM events GROUP BY 1),
d AS (SELECT e.event_type,
             sum(pow(e.value - mu.m, 2)) / any_value(mu.n) AS m2,
             sum(pow(e.value - mu.m, 3)) / any_value(mu.n) AS m3,
             sum(pow(e.value - mu.m, 4)) / any_value(mu.n) AS m4,
             any_value(mu.n) AS n
      FROM events e JOIN mu USING (event_type) GROUP BY 1)
SELECT event_type,
       round(m3 / pow(m2, 1.5), 6) AS g1,
       round(m4 / pow(m2, 2) - 3.0, 6) AS g2,
       round(n / 6.0 * (pow(m3 / pow(m2, 1.5), 2)
                        + pow(m4 / pow(m2, 2) - 3.0, 2) / 4.0), 6) AS jb
FROM d
"""


def q_theil_index(sf_dir: str):
    """Theil T inequality index of order totals — the decomposable
    entropy-based concentration measure (gini_value's information-
    theoretic sibling): T = (1/n) * sum (x/mu) * ln(x/mu).  One
    (n, sum) pass for the mean, one shuffle-free partial pass for the
    entropy sum; positive-domain input (o_totalprice)."""
    ds = _rp(sf_dir, "orders", ["o_totalprice"])
    tot = ds.map_batches(
        lambda df: pd.DataFrame({"n": [np.int64(len(df))],
                                 "s": [df["o_totalprice"].sum()]}),
        batch_format="pandas").to_pandas()
    n = float(tot["n"].sum())
    mu = float(tot["s"].sum()) / n

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        r = df["o_totalprice"].to_numpy(np.float64) / mu
        return pd.DataFrame({"t": [(r * np.log(r)).sum()]})

    p = ds.map_batches(partial, batch_format="pandas").to_pandas()
    return pd.DataFrame({"n": [np.int64(n)],
                         "theil": [np.round(float(p["t"].sum()) / n, 6)]})


SQL_THEIL_INDEX = """
WITH m AS (SELECT avg(o_totalprice) AS mu,
                  CAST(count(*) AS DOUBLE) AS n FROM orders)
SELECT CAST(m.n AS BIGINT) AS n,
       round(sum((o_totalprice / m.mu) * ln(o_totalprice / m.mu)) / m.n,
             6) AS theil
FROM orders, m GROUP BY m.n
"""


def q_isotonic_calibration(sf_dir: str):
    """Isotonic (PAVA) calibration of the Jaro-Winkler match score
    against segment-agreement labels over the within-nation candidate
    pairs — the monotone-regression alternative to the binned
    score_calibration: per-rounded-score (n, n_pos) cells via the
    combiner (the match_auc pair plan), then the linear-time
    Pool-Adjacent-Violators fit on the BOUNDED cell frame.
    ORACLED (round-5, upgraded from rows-only) via the closed-form
    minimax identity — fit(i) = max over j<=i of min over k>=i of the
    weighted segment mean (Σnpos/Σn over cells j..k), computed from
    exact-integer prefix sums over the bounded cell frame; pooling
    and minimax agree exactly in real arithmetic and to 6 decimals in
    doubles.  Additionally pinned against a quadratic repeat-pooling
    reference in tests/test_isotonic.py."""
    from ...stages.metrics import pava_isotonic
    from ...stages.shuffle import bucketed_map_groups

    cust = _rp(sf_dir, "customer",
               ["c_name", "c_nationkey", "c_mktsegment"])

    def pairs_fn(df: pd.DataFrame) -> pd.DataFrame:
        import duckdb

        con = duckdb.connect()
        con.execute("PRAGMA threads=1")
        con.register("t", pa.Table.from_pandas(df, preserve_index=False))
        out = con.execute("""
            SELECT round(jaro_winkler_similarity(a.c_name, b.c_name), 6)
                       AS s,
                   (a.c_mktsegment = b.c_mktsegment) AS pos
            FROM t a JOIN t b
              ON a.c_nationkey = b.c_nationkey AND a.c_name < b.c_name
            WHERE jaro_winkler_similarity(a.c_name, b.c_name) >= 0.8
            """).fetchdf()
        con.close()
        return out

    scored = bucketed_map_groups(
        cust, ["c_nationkey"], pairs_fn, num_buckets=32,
        empty_like=pd.DataFrame({"s": pd.Series([], dtype="float64"),
                                 "pos": pd.Series([], dtype="bool")}))
    cells = rel.partial_groupby_agg(
        scored.map_batches(
            lambda df: df.assign(n=np.int64(1),
                                 npos=df["pos"].astype(np.int64))
            [["s", "n", "npos"]],
            batch_format="pandas"),
        ["s"], {"n": ("n", "sum"), "npos": ("npos", "sum")})
    cells = cells.sort_values("s").reset_index(drop=True)
    fit = pava_isotonic(
        cells["npos"].to_numpy(np.float64) / cells["n"].to_numpy(np.float64),
        cells["n"].to_numpy(np.float64))
    return pd.DataFrame({"s": cells["s"].to_numpy(np.float64),
                         "n": cells["n"].to_numpy(np.int64),
                         "p_cal": np.round(fit, 6)})


SQL_ISOTONIC_CALIBRATION = r"""
WITH pr AS (
  SELECT round(jaro_winkler_similarity(a.c_name, b.c_name), 6) AS s,
         (a.c_mktsegment = b.c_mktsegment) AS pos
  FROM customer a JOIN customer b
    ON a.c_nationkey = b.c_nationkey AND a.c_name < b.c_name
  WHERE jaro_winkler_similarity(a.c_name, b.c_name) >= 0.8),
cells AS (SELECT s, CAST(count(*) AS BIGINT) AS n,
                 CAST(count(*) FILTER (WHERE pos) AS BIGINT) AS npos
          FROM pr GROUP BY 1),
o AS (SELECT s, n, npos, row_number() OVER (ORDER BY s) AS i FROM cells),
ps AS (SELECT i, s, n, npos,
              sum(n) OVER (ORDER BY i) AS cn,
              sum(npos) OVER (ORDER BY i) AS cp
       FROM o),
seg AS (SELECT j.i AS j, k.i AS k,
               (k.cp - coalesce(jp.cp, 0)) * 1.0
               / (k.cn - coalesce(jp.cn, 0)) AS avgv
        FROM ps j JOIN ps k ON k.i >= j.i
        LEFT JOIN ps jp ON jp.i = j.i - 1),
mm AS (SELECT o.i, g.j, min(g.avgv) AS mn
       FROM o JOIN seg g ON g.j <= o.i AND g.k >= o.i
       GROUP BY o.i, g.j),
fit AS (SELECT i, max(mn) AS p FROM mm GROUP BY i)
SELECT o.s, o.n, round(f.p, 6) AS p_cal
FROM o JOIN fit f USING (i)
"""


def q_wasserstein_1d(sf_dir: str):
    """1-D earth-mover (Wasserstein-1) distance between the click and
    view value distributions — EXACT via the CDF-area identity
    W1 = sum |F1(v) - F2(v)| * (v_next - v): the ks_test net-CDF
    combiner, one keyless Blelloch scan WITH the cross-block lead
    (the v_next handoff ships one scalar per block), then a
    shuffle-free partial sum.  The magnitude-aware drift gate beside
    ks_test's sup-norm."""
    from ...stages.scan import global_scan

    ev = _rp(sf_dir, "events", ["event_type", "value"])

    counts = ev.map_batches(
        lambda df: (df[df["event_type"].isin(["click", "view"])]
                    .groupby("event_type", sort=False).size()
                    .reset_index(name="n")),
        batch_format="pandas")
    nn = rel.partial_groupby_agg(counts, ["event_type"],
                                 {"n": ("n", "sum")}) \
        .set_index("event_type")["n"]
    n1, n2 = float(nn["click"]), float(nn["view"])

    def deltas(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["event_type"].isin(["click", "view"])]
        dd = np.where(df["event_type"].eq("click"), 1.0 / n1, -1.0 / n2)
        out = pd.DataFrame({"value": df["value"].to_numpy(np.float64),
                            "dd": dd})
        return out.groupby("value", sort=False).sum().reset_index()

    per_value = rel.partial_groupby_agg(
        ev.map_batches(deltas, batch_format="pandas"),
        ["value"], {"dd": ("dd", "sum")})
    import ray.data as rd

    scanned = global_scan(rd.from_pandas(per_value), ["value"],
                          "dd", "f", lead_of="value", lead_col="v_next")

    def area(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"w": pd.Series([], dtype="float64")})
        m = df["v_next"].notna().to_numpy()
        f = np.abs(df["f"].to_numpy(np.float64)[m])
        gap = (df["v_next"].to_numpy(np.float64)[m]
               - df["value"].to_numpy(np.float64)[m])
        return pd.DataFrame({"w": [(f * gap).sum()]})

    parts = scanned.map_batches(area, batch_format="pandas").to_pandas()
    return pd.DataFrame({"w1": [np.round(float(parts["w"].sum()), 6)]})


SQL_WASSERSTEIN_1D = """
WITH a AS (SELECT value FROM events WHERE event_type = 'click'),
b AS (SELECT value FROM events WHERE event_type = 'view'),
n AS (SELECT (SELECT count(*) FROM a) AS n1,
             (SELECT count(*) FROM b) AS n2),
d AS (SELECT value,
             sum(CASE WHEN src = 1 THEN 1.0 / (SELECT n1 FROM n)
                      ELSE -1.0 / (SELECT n2 FROM n) END) AS dd
      FROM (SELECT value, 1 AS src FROM a
            UNION ALL SELECT value, 2 FROM b)
      GROUP BY value),
s AS (SELECT value,
             sum(dd) OVER (ORDER BY value ROWS UNBOUNDED PRECEDING) AS f,
             lead(value) OVER (ORDER BY value) AS v_next
      FROM d)
SELECT round(sum(abs(f) * (v_next - value)), 6) AS w1
FROM s WHERE v_next IS NOT NULL
"""


def q_simpson_diversity(sf_dir: str):
    """Per-source Simpson diversity 1 - sum p_lang^2 (the
    concentration-complement profiling statistic beside
    group_entropy's Shannon form) — one (source, lang) cell combiner,
    closed form on the bounded frame."""
    docs = _rp(sf_dir, "documents", ["source", "lang"])
    cell = rel.partial_groupby_agg(
        docs.map_batches(
            lambda df: df.groupby(["source", "lang"], sort=False)
            .size().reset_index(name="c"),
            batch_format="pandas"),
        ["source", "lang"], {"c": ("c", "sum")})
    ns = cell.groupby("source")["c"].transform("sum").to_numpy(np.float64)
    p = cell["c"].to_numpy(np.float64) / ns
    cell["p2"] = p * p
    g = cell.groupby("source", as_index=False)["p2"].sum()
    return pd.DataFrame({"source": g["source"].to_numpy(object),
                         "simpson": np.round(1.0 - g["p2"].to_numpy(), 6)})


SQL_SIMPSON_DIVERSITY = """
WITH cell AS (SELECT source, lang, count(*) AS c
              FROM documents GROUP BY 1, 2),
s AS (SELECT source, sum(c) AS ns FROM cell GROUP BY 1)
SELECT cell.source,
       round(1.0 - sum((c::DOUBLE / ns) * (c::DOUBLE / ns)), 6) AS simpson
FROM cell JOIN s ON s.source = cell.source
GROUP BY cell.source
"""


def q_basket_pairs(sf_dir: str):
    """Market-basket co-occurrence projection: part pairs appearing
    together in >= 2 orders — assoc_rules' join-only sibling (no
    frequent-set broadcast; pair generation happens inside each
    co-located basket, bounded by basket size, then one cell
    combiner).  The bipartite order-part graph projected onto parts."""
    from ...stages.shuffle import bucketed_map_groups

    li = _rp(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    items = rel.distinct(
        li.map_batches(lambda df: df.drop_duplicates(ignore_index=True),
                       batch_format="pandas"),
        ["l_orderkey", "l_partkey"], num_buckets=32)

    empty = pd.DataFrame({"part_a": pd.Series([], dtype="int64"),
                          "part_b": pd.Series([], dtype="int64"),
                          "support": pd.Series([], dtype="int64")})

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        m = df.merge(df, on="l_orderkey")
        m = m[m["l_partkey_x"] < m["l_partkey_y"]]
        if not len(m):
            return empty
        g = m.groupby(["l_partkey_x", "l_partkey_y"], sort=False) \
            .size().reset_index(name="support")
        return g.rename(columns={"l_partkey_x": "part_a",
                                 "l_partkey_y": "part_b"})

    cells = bucketed_map_groups(items, ["l_orderkey"], pairs,
                                num_buckets=32, empty_like=empty)
    out = rel.partial_groupby_agg(
        cells, ["part_a", "part_b"], {"support": ("support", "sum")})
    out = out[out["support"] >= 2].reset_index(drop=True)
    out["support"] = out["support"].astype(np.int64)
    if not len(out):
        return empty
    out["part_a"] = out["part_a"].astype(np.int64)
    out["part_b"] = out["part_b"].astype(np.int64)
    return out


SQL_BASKET_PAIRS = """
WITH b AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem)
SELECT a.l_partkey AS part_a, b2.l_partkey AS part_b,
       CAST(count(*) AS BIGINT) AS support
FROM b a JOIN b b2 ON a.l_orderkey = b2.l_orderkey
                  AND a.l_partkey < b2.l_partkey
GROUP BY 1, 2 HAVING count(*) >= 2
"""


def q_trimmed_mean(sf_dir: str):
    """Per-event-type 10% trimmed mean — winsorize's sibling robust
    location estimate (drop, don't clamp, beyond the exact
    interpolated [p10, p90] band): one exact group-quantile pass, the
    k-row band broadcast, then a filtered (n, sum) combiner."""
    from ...stages.temporal import quantile_agg

    ev = _rp(sf_dir, "events", ["event_type", "value"])
    band = quantile_agg(ev, ["event_type"], "value",
                        {"lo": 0.1, "hi": 0.9}).to_pandas()
    lo = dict(zip(band["event_type"], band["lo"]))
    hi = dict(zip(band["event_type"], band["hi"]))

    def part(df: pd.DataFrame) -> pd.DataFrame:
        v = df["value"].to_numpy(np.float64)
        l = df["event_type"].map(lo).to_numpy(np.float64)
        h = df["event_type"].map(hi).to_numpy(np.float64)
        keep = (v >= l) & (v <= h)
        out = pd.DataFrame({"event_type": df["event_type"][keep],
                            "n": np.int64(1),
                            "s": v[keep]})
        return out.groupby("event_type", sort=False, as_index=False) \
            .agg(n=("n", "sum"), s=("s", "sum"))

    g = rel.partial_groupby_agg(
        ev.map_batches(part, batch_format="pandas"),
        ["event_type"], {"n": ("n", "sum"), "s": ("s", "sum")})
    return pd.DataFrame({
        "event_type": g["event_type"].to_numpy(object),
        "n_kept": g["n"].to_numpy(np.int64),
        "tmean": np.round(g["s"].to_numpy(np.float64)
                          / g["n"].to_numpy(np.float64), 6)})


SQL_TRIMMED_MEAN = """
WITH band AS (SELECT event_type,
                     quantile_cont(value, 0.1) AS lo,
                     quantile_cont(value, 0.9) AS hi
              FROM events GROUP BY 1)
SELECT e.event_type, CAST(count(*) AS BIGINT) AS n_kept,
       round(sum(e.value) / count(*), 6) AS tmean
FROM events e JOIN band b USING (event_type)
WHERE e.value >= b.lo AND e.value <= b.hi
GROUP BY e.event_type
"""


def q_woe_iv(sf_dir: str):
    """Weight-of-evidence binning and information value of the
    document-length feature against the is-English label — the
    credit-scoring-style univariate feature-screening audit: per
    length-bucket (n_chars // 200) event/non-event counts via ONE cell
    combiner; WOE = ln((good_i/G)/(bad_i/B)) and IV = sum (g-b)*WOE
    close on the bounded bin frame (zero cells are excluded, the
    standard convention, matching the SQL HAVING)."""
    docs = _rp(sf_dir, "documents", ["n_chars", "lang"])

    def cells(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "bin": df["n_chars"].to_numpy(np.int64) // 200,
            "g": df["lang"].eq("en").to_numpy().astype(np.int64),
            "b": (~df["lang"].eq("en")).to_numpy().astype(np.int64)})
        return out.groupby("bin", sort=False, as_index=False).sum()

    cell = rel.partial_groupby_agg(
        docs.map_batches(cells, batch_format="pandas"),
        ["bin"], {"g": ("g", "sum"), "b": ("b", "sum")})
    G = float(cell["g"].sum())
    B = float(cell["b"].sum())
    keep = (cell["g"] > 0) & (cell["b"] > 0)
    cell = cell[keep]
    g = cell["g"].to_numpy(np.float64)
    b = cell["b"].to_numpy(np.float64)
    woe = np.log((g / G) / (b / B))
    iv_term = (g / G - b / B) * woe
    return pd.DataFrame({"bin": cell["bin"].to_numpy(np.int64),
                         "n_good": cell["g"].to_numpy(np.int64),
                         "n_bad": cell["b"].to_numpy(np.int64),
                         "woe": np.round(woe, 6),
                         "iv_term": np.round(iv_term, 6)})


SQL_WOE_IV = """
WITH cell AS (
  SELECT n_chars // 200 AS bin,
         count(*) FILTER (WHERE lang = 'en') AS g,
         count(*) FILTER (WHERE lang <> 'en') AS b
  FROM documents GROUP BY 1),
t AS (SELECT CAST(sum(g) AS DOUBLE) AS gt,
             CAST(sum(b) AS DOUBLE) AS bt FROM cell)
SELECT bin, CAST(g AS BIGINT) AS n_good, CAST(b AS BIGINT) AS n_bad,
       round(ln((g / gt) / (b / bt)), 6) AS woe,
       round((g / gt - b / bt) * ln((g / gt) / (b / bt)), 6) AS iv_term
FROM cell CROSS JOIN t
WHERE g > 0 AND b > 0
"""


def q_huber_location(sf_dir: str):
    """Per-event-type Huber M-estimator of location (k = 1.345 sigma,
    sigma from the exact per-group MAD x 1.4826) — the
    outlier-resistant mean between trimmed_mean (drop) and winsorize
    (clamp): 3 IRLS rounds, each ONE shuffle-free weighted-moment
    combiner pass against the broadcast current estimate (the
    logreg_train distributed-iteration shape).  Rows-only (iterative
    float fixpoint); pinned against a sequential numpy IRLS in
    tests/test_huber.py."""
    from ...stages.temporal import quantile_agg

    ev = _rp(sf_dir, "events", ["event_type", "value"])
    med = quantile_agg(ev, ["event_type"], "value",
                       {"m": 0.5}).to_pandas()
    med_map = dict(zip(med["event_type"], med["m"]))

    def absdev(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "event_type": df["event_type"].to_numpy(object),
            "value": np.abs(df["value"].to_numpy(np.float64)
                            - df["event_type"].map(med_map)
                            .to_numpy(np.float64))})
        return out

    mad = quantile_agg(ev.map_batches(absdev, batch_format="pandas"),
                       ["event_type"], "value", {"m": 0.5}).to_pandas()
    sigma = {et: 1.4826 * m for et, m in zip(mad["event_type"],
                                             mad["m"])}
    k = 1.345
    mu = dict(med_map)
    for _ in range(3):
        cur = dict(mu)

        def wmom(df: pd.DataFrame, _cur=cur) -> pd.DataFrame:
            v = df["value"].to_numpy(np.float64)
            et = df["event_type"].to_numpy(object)
            m = df["event_type"].map(_cur).to_numpy(np.float64)
            s = df["event_type"].map(sigma).to_numpy(np.float64)
            r = (v - m) / (k * s)
            w = np.minimum(1.0, 1.0 / np.maximum(np.abs(r), 1e-300))
            out = pd.DataFrame({"event_type": et, "wx": w * v, "w": w})
            return out.groupby("event_type", sort=False,
                               as_index=False).sum()

        g = rel.partial_groupby_agg(
            ev.map_batches(wmom, batch_format="pandas"),
            ["event_type"], {"wx": ("wx", "sum"), "w": ("w", "sum")})
        mu = dict(zip(g["event_type"],
                      g["wx"].to_numpy(np.float64)
                      / g["w"].to_numpy(np.float64)))
    ets = sorted(mu)
    return pd.DataFrame({"event_type": np.array(ets, object),
                         "huber_mu": np.round([mu[e] for e in ets], 6)})


def _huber_sql(rounds: int = 3, k: float = 1.345) -> str:
    """DuckDB twin of q_huber_location: same medians (quantile_cont),
    same IRLS weight formula, ``rounds`` unrolled MATERIALIZED CTEs
    (each referenced by the next round — inlining would re-scan
    exponentially).  Float sums may differ from the engine's
    partial-sum order only in final ulps — absorbed by the 6dp
    round."""
    parts = [
        "med AS MATERIALIZED (SELECT event_type, "
        "quantile_cont(value, 0.5) AS mu FROM events GROUP BY 1)",
        "sig AS MATERIALIZED (SELECT e.event_type, "
        "1.4826 * quantile_cont(abs(e.value - m.mu), 0.5) AS sigma "
        "FROM events e JOIN med m USING (event_type) "
        "GROUP BY e.event_type)",
        "base AS MATERIALIZED (SELECT e.event_type, e.value, s.sigma "
        "FROM events e JOIN sig s USING (event_type))",
    ]
    prev = "med"
    for i in range(1, rounds + 1):
        parts.append(
            f"it{i} AS MATERIALIZED (SELECT event_type, "
            f"sum(w * value) / sum(w) AS mu FROM ("
            f"SELECT b.event_type, b.value, "
            f"least(1.0, 1.0 / greatest("
            f"abs((b.value - p.mu) / ({k} * b.sigma)), 1e-300)) AS w "
            f"FROM base b JOIN {prev} p USING (event_type)) "
            f"GROUP BY event_type)")
        prev = f"it{i}"
    return (f"WITH {', '.join(parts)} "
            f"SELECT event_type, round(mu, 6) AS huber_mu FROM {prev}")


SQL_HUBER_LOCATION = _huber_sql()


def q_theil_sen(sf_dir: str):
    """Theil-Sen robust trend slope per event type (median of all
    pairwise slopes — 29% breakdown point, the robust counterpart of
    the OLS trend in ols_residuals): bounded probe (user_id < 20),
    one event-type co-location shuffle, per-group vectorized pairwise
    slope matrix (value units per HOUR over exact integer-microsecond
    dt; simultaneous-timestamp pairs excluded), linear-interpolated
    median.  Scale contract = quantile_agg's: per-group pair count is
    the documented bound — above it, subsample pairs or switch to the
    repeated-median variant."""
    from ...stages.shuffle import bucketed_map_groups

    ev = _rp(sf_dir, "events", ["event_type", "user_id", "ts", "value"]) \
        .map_batches(lambda t: t.filter(pc.less(t["user_id"], 20)),
                     batch_format="pyarrow")

    def slopes(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in df.groupby("event_type", sort=False):
            t = g["ts"].astype("datetime64[us]").astype(np.int64) \
                .to_numpy()
            v = g["value"].to_numpy(np.float64)
            dt = t[None, :] - t[:, None]
            mask = dt > 0
            if not mask.any():
                continue
            dv = v[None, :] - v[:, None]
            sl = dv[mask] / (dt[mask] / 3600000000.0)
            rows.append((et, round(float(np.quantile(sl, 0.5)), 6)))
        return pd.DataFrame(rows, columns=["event_type", "ts_slope"]) \
            if rows else pd.DataFrame({
                "event_type": pd.Series([], dtype="string"),
                "ts_slope": pd.Series([], dtype="float64")})

    empty = pd.DataFrame({"event_type": pd.Series([], dtype="string"),
                          "ts_slope": pd.Series([], dtype="float64")})
    return bucketed_map_groups(ev, ["event_type"], slopes,
                               num_buckets=16, empty_like=empty)


SQL_THEIL_SEN = """
WITH e AS (SELECT event_type, epoch_us(ts) AS t, value AS v
           FROM events WHERE user_id < 20),
p AS (SELECT a.event_type,
             (b.v - a.v) / ((b.t - a.t) / 3600000000.0) AS slope
      FROM e a JOIN e b ON b.event_type = a.event_type AND b.t > a.t)
SELECT event_type, round(quantile_cont(slope, 0.5), 6) AS ts_slope
FROM p GROUP BY 1
"""


def q_mann_kendall(sf_dir: str):
    """Mann-Kendall trend test per event type (the non-parametric
    companion of theil_sen — same bounded probe, same pair domain:
    strictly-later timestamps only): S = Σ sign(v_j - v_i), tie-
    corrected variance, z = (S ∓ 1)/sqrt(var).  One co-location
    shuffle; pair statistics reduce inside the group (S and the
    value-tie histogram are the sufficient statistics — at scale the
    S sum distributes as sorted-rank partials, the documented
    kendall_tau contract)."""
    from ...stages.shuffle import bucketed_map_groups

    ev = _rp(sf_dir, "events", ["event_type", "user_id", "ts", "value"]) \
        .map_batches(lambda t: t.filter(pc.less(t["user_id"], 20)),
                     batch_format="pyarrow")

    def mk(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in df.groupby("event_type", sort=False):
            t = g["ts"].astype("datetime64[us]").astype(np.int64) \
                .to_numpy()
            v = g["value"].to_numpy(np.float64)
            n = len(g)
            if n < 2:
                continue
            dt = t[None, :] - t[:, None]
            dv = v[None, :] - v[:, None]
            mask = dt > 0
            s_stat = int(np.sign(dv[mask]).sum())
            _, tie_counts = np.unique(v, return_counts=True)
            ties = tie_counts[tie_counts > 1].astype(np.float64)
            var = (n * (n - 1) * (2 * n + 5)
                   - float((ties * (ties - 1) * (2 * ties + 5)).sum())) \
                / 18.0
            if s_stat > 0:
                z = (s_stat - 1) / np.sqrt(var)
            elif s_stat < 0:
                z = (s_stat + 1) / np.sqrt(var)
            else:
                z = 0.0
            rows.append((et, s_stat, round(float(z), 6)))
        return pd.DataFrame(rows, columns=["event_type", "s_stat", "z"]) \
            if rows else pd.DataFrame({
                "event_type": pd.Series([], dtype="string"),
                "s_stat": pd.Series([], dtype="int64"),
                "z": pd.Series([], dtype="float64")})

    empty = pd.DataFrame({"event_type": pd.Series([], dtype="string"),
                          "s_stat": pd.Series([], dtype="int64"),
                          "z": pd.Series([], dtype="float64")})
    return bucketed_map_groups(ev, ["event_type"], mk,
                               num_buckets=16, empty_like=empty)


SQL_MANN_KENDALL = """
WITH e AS (SELECT event_type, epoch_us(ts) AS t, value AS v
           FROM events WHERE user_id < 20),
s AS (SELECT a.event_type,
             CAST(sum(CASE WHEN b.v > a.v THEN 1
                           WHEN b.v < a.v THEN -1 ELSE 0 END)
                  AS BIGINT) AS s_stat
      FROM e a JOIN e b ON b.event_type = a.event_type AND b.t > a.t
      GROUP BY 1),
n AS (SELECT event_type, count(*) AS n FROM e GROUP BY 1),
tie AS (SELECT event_type,
               coalesce(sum(c * (c - 1) * (2 * c + 5.0))
                        FILTER (WHERE c > 1), 0) AS corr
        FROM (SELECT event_type, v, count(*) AS c FROM e GROUP BY 1, 2)
        GROUP BY 1),
vr AS (SELECT n.event_type,
              (n.n * (n.n - 1) * (2 * n.n + 5) - tie.corr) / 18.0 AS var
       FROM n JOIN tie USING (event_type))
SELECT s.event_type, s.s_stat,
       round(CASE WHEN s.s_stat > 0 THEN (s.s_stat - 1) / sqrt(vr.var)
                  WHEN s.s_stat < 0 THEN (s.s_stat + 1) / sqrt(vr.var)
                  ELSE 0.0 END, 6) AS z
FROM s JOIN vr USING (event_type)
"""


def q_cliffs_delta(sf_dir: str):
    """Cliff's delta effect size between every ordered pair of event
    types (the non-parametric Cohen's-d: P(x>y) - P(x<y) over value
    pairs, bounded probe): per type-pair, delta from sorted-array rank
    counts (searchsorted — n log n, never the n^2 pair matrix), which
    equals the exact pairwise definition the oracle computes by cross
    join.  All probe rows co-locate in ONE group (bounded panel, the
    documented sequential-close contract for cross-GROUP statistics)."""
    from ...stages.shuffle import bucketed_map_groups

    ev = _rp(sf_dir, "events", ["event_type", "user_id", "value"]) \
        .map_batches(lambda t: t.filter(pc.less(t["user_id"], 20)),
                     batch_format="pyarrow")

    def delta(df: pd.DataFrame) -> pd.DataFrame:
        groups = {et: np.sort(g["value"].to_numpy(np.float64))
                  for et, g in df.groupby("event_type", sort=False)}
        rows = []
        for ta in sorted(groups):
            for tb in sorted(groups):
                if ta >= tb:
                    continue
                x, y = groups[ta], groups[tb]
                # #(x>y) = sum_i #(y < x_i);  #(x<y) = sum_i #(y > x_i)
                gt = np.searchsorted(y, x, side="left").sum()
                lt = len(x) * len(y) - np.searchsorted(
                    y, x, side="right").sum()
                d = (float(gt) - float(lt)) / (len(x) * len(y))
                rows.append((ta, tb, round(d, 6)))
        return pd.DataFrame(rows, columns=["type_a", "type_b", "delta"]) \
            if rows else pd.DataFrame({
                "type_a": pd.Series([], dtype="string"),
                "type_b": pd.Series([], dtype="string"),
                "delta": pd.Series([], dtype="float64")})

    def const(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["__g"] = np.int32(0)
        return out

    empty = pd.DataFrame({"type_a": pd.Series([], dtype="string"),
                          "type_b": pd.Series([], dtype="string"),
                          "delta": pd.Series([], dtype="float64")})
    return bucketed_map_groups(
        ev.map_batches(const, batch_format="pandas"), ["__g"],
        lambda d: delta(d.drop(columns=["__g"], errors="ignore")),
        num_buckets=8, empty_like=empty)


SQL_CLIFFS_DELTA = """
WITH e AS (SELECT event_type, value FROM events WHERE user_id < 20)
SELECT a.event_type AS type_a, b.event_type AS type_b,
       round((CAST(count(*) FILTER (WHERE a.value > b.value) AS DOUBLE)
              - count(*) FILTER (WHERE a.value < b.value))
             / count(*), 6) AS delta
FROM e a JOIN e b ON a.event_type < b.event_type
GROUP BY 1, 2
"""


def q_hodges_lehmann(sf_dir: str):
    """Hodges-Lehmann shift estimator between every ordered pair of
    event types: the MEDIAN of all pairwise differences x_i - y_j —
    the robust location-shift companion of cliffs_delta, same bounded
    probe and one-group panel contract; the oracle materializes the
    cross-join differences and takes quantile_cont."""
    from ...stages.shuffle import bucketed_map_groups

    ev = _rp(sf_dir, "events", ["event_type", "user_id", "value"]) \
        .map_batches(lambda t: t.filter(pc.less(t["user_id"], 20)),
                     batch_format="pyarrow")

    def hl(df: pd.DataFrame) -> pd.DataFrame:
        groups = {et: g["value"].to_numpy(np.float64)
                  for et, g in df.groupby("event_type", sort=False)}
        rows = []
        for ta in sorted(groups):
            for tb in sorted(groups):
                if ta >= tb:
                    continue
                diffs = (groups[ta][:, None]
                         - groups[tb][None, :]).ravel()
                rows.append((ta, tb,
                             round(float(np.quantile(diffs, 0.5)), 6)))
        return pd.DataFrame(rows, columns=["type_a", "type_b", "hl_shift"]) \
            if rows else pd.DataFrame({
                "type_a": pd.Series([], dtype="string"),
                "type_b": pd.Series([], dtype="string"),
                "hl_shift": pd.Series([], dtype="float64")})

    def const(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["__g"] = np.int32(0)
        return out

    empty = pd.DataFrame({"type_a": pd.Series([], dtype="string"),
                          "type_b": pd.Series([], dtype="string"),
                          "hl_shift": pd.Series([], dtype="float64")})
    return bucketed_map_groups(
        ev.map_batches(const, batch_format="pandas"), ["__g"],
        lambda d: hl(d.drop(columns=["__g"], errors="ignore")),
        num_buckets=8, empty_like=empty)


SQL_HODGES_LEHMANN = """
WITH e AS (SELECT event_type, value FROM events WHERE user_id < 20)
SELECT a.event_type AS type_a, b.event_type AS type_b,
       round(quantile_cont(a.value - b.value, 0.5), 6) AS hl_shift
FROM e a JOIN e b ON a.event_type < b.event_type
GROUP BY 1, 2
"""


