"""Sketches (HLL, t-digest, CMS, KMV), ER score calibration, lang-ID.

The ``QUERIES`` / ``ORACLES`` tables at the end register this family.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ...stages import relational as rel
from ...stages import textstats as ts
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


QUERIES = {
    "heavy_hitters": q_heavy_hitters,
    "quantile_sketch": q_quantile_sketch,
    "cms_counts": q_cms_counts,
    "isotonic_calibration": q_isotonic_calibration,
    "approx_distinct": q_approx_distinct,
    "approx_distinct_group": q_approx_distinct_group,
    "quantile_sketch_group": q_quantile_sketch_group,
    "kmv_overlap": q_kmv_overlap,
    "score_calibration": q_score_calibration,
    "naive_bayes": q_naive_bayes,
    "logreg_train": q_logreg_train,
}

ORACLES = {
    "approx_distinct": SQL_APPROX_DISTINCT,
    "approx_distinct_group": SQL_APPROX_DISTINCT_GROUP,
    "heavy_hitters": SQL_HEAVY_HITTERS,
    "cms_counts": SQL_CMS_COUNTS,
    "isotonic_calibration": SQL_ISOTONIC_CALIBRATION,
    "logreg_train": SQL_LOGREG_TRAIN,
    "kmv_overlap": SQL_KMV_OVERLAP,
    "score_calibration": SQL_SCORE_CALIBRATION,
    "naive_bayes": SQL_NAIVE_BAYES,
}
