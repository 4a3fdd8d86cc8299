"""Record-attribute scorers for the query library's entity-resolution
family: fuzzy theta-joins against a broadcast list, Fellegi-Sunter
weights and their EM estimation, value standardization, Monge-Elkan and
Soft TF-IDF name similarity.

Each actor class holds an in-process DuckDB connection and scores with
its C++ ``jaro_winkler_similarity`` kernel, so a SQL oracle reproduces
the scores bit for bit.  The flagship pipeline scores pages by exact
shingle Jaccard (``stages/scoring.py``) and never imports this module.
"""

from __future__ import annotations

import pyarrow as pa


class BroadcastFuzzyJoin:
    """Fuzzy theta-join of a stream against a SMALL broadcast string list
    (reference J7 entity-validation cross join, ``repository.py:569-581``,
    and the F1/F2 fuzzy-UDF slot).

    The right side ships once via ``ray.put``; each actor loads it into
    an in-process DuckDB table in ``__init__`` and cross-joins every
    Arrow batch against it with the C++ ``jaro_winkler_similarity``
    kernel — no shuffle, no per-row Python.
    """

    def __init__(self, names_ref, threshold: float = 0.85,
                 col: str = "name"):
        import duckdb
        import ray

        self.con = duckdb.connect()
        self.con.execute("PRAGMA threads=1")
        self.col = col
        self.threshold = float(threshold)
        names = ray.get(names_ref)
        self.con.register(
            "rhs", pa.table({"name_b": pa.array(names, pa.string())}))

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table({"name_a": pa.array([], pa.string()),
                             "name_b": pa.array([], pa.string()),
                             "jw": pa.array([], pa.float64())})
        self.con.register("lhs", batch.select([self.col]))
        out = self.con.execute(
            f"""
            SELECT {self.col} AS name_a, name_b,
                   round(jaro_winkler_similarity({self.col}, name_b), 6) AS jw
            FROM lhs, rhs
            WHERE {self.col} < name_b
              AND jaro_winkler_similarity({self.col}, name_b) >= {self.threshold}
            """).arrow()
        self.con.unregister("lhs")
        return out


def fellegi_sunter(pairs, spec, upper: float, lower: float,
                   weight_col: str = "fs_weight",
                   decision_col: str = "decision"):
    """Fellegi-Sunter probabilistic record linkage (Fellegi & Sunter
    1969, the canonical ER decision model; public algorithm) over a
    candidate-pair Dataset that already carries boolean per-field
    agreement indicators.

    ``spec``: ``{indicator_col: (m, u)}`` — m = P(agree | match),
    u = P(agree | non-match).  Weight = Σ_field log2(m/u) on agreement
    else log2((1-m)/(1-u)); decision = link / possible / non_link by
    the (upper, lower) thresholds.  Map-only and vectorized — candidate
    generation (the expensive part) stays in the blocking machinery,
    which is the reference's own factoring (J1 joins feed the fuzzy
    filter, SURVEY §2.4).

    Determinism: the per-field log weights are computed ONCE here and
    added left-to-right in ``spec`` order, so a SQL oracle embedding
    the same literals in the same order sums bit-identically.
    """
    import numpy as np

    logs = [(c, float(np.log2(m / u)), float(np.log2((1 - m) / (1 - u))))
            for c, (m, u) in spec.items()]

    def score(df: pd.DataFrame) -> pd.DataFrame:
        w = np.zeros(len(df), dtype=np.float64)
        for c, la, ld in logs:
            w = w + np.where(df[c].to_numpy(dtype=bool), la, ld)
        out = df.copy()
        out[weight_col] = w
        out[decision_col] = np.where(
            w >= upper, "link",
            np.where(w >= lower, "possible", "non_link"))
        return out

    return pairs.map_batches(score, batch_format="pandas")


def fs_log_weights(spec) -> list[tuple[str, float, float]]:
    """The (col, agree, disagree) log2 weights ``fellegi_sunter`` uses —
    exposed so oracles can embed the identical literals."""
    import numpy as np

    return [(c, float(np.log2(m / u)),
             float(np.log2((1 - m) / (1 - u))))
            for c, (m, u) in spec.items()]


class BroadcastAttrPairJoin:
    """Candidate pairs with BOTH sides' attributes: the stream cross-
    joins a small broadcast attribute table per actor (DuckDB C++
    kernels, the BroadcastFuzzyJoin pattern) under an ``a < b`` name
    ordering and a Jaro-Winkler gate, emitting per-field agreement
    indicators ready for :func:`fellegi_sunter`."""

    def __init__(self, rhs_ref, gate: float = 0.9,
                 name_eq_threshold: float = 0.97):
        import duckdb
        import ray

        self.con = duckdb.connect()
        self.con.execute("PRAGMA threads=1")
        self.gate = float(gate)
        self.thr = float(name_eq_threshold)
        self.con.register("rhs", ray.get(rhs_ref))

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table({
                "name_a": pa.array([], pa.string()),
                "name_b": pa.array([], pa.string()),
                "jw": pa.array([], pa.float64()),
                "ind_name": pa.array([], pa.bool_()),
                "ind_nation": pa.array([], pa.bool_()),
                "ind_seg": pa.array([], pa.bool_()),
            })
        self.con.register("lhs", batch)
        out = self.con.execute(f"""
            SELECT l.name AS name_a, r.name AS name_b,
                   round(jaro_winkler_similarity(l.name, r.name), 6) AS jw,
                   (jaro_winkler_similarity(l.name, r.name)
                        >= {self.thr}) AS ind_name,
                   (l.nation = r.nation) AS ind_nation,
                   (l.seg = r.seg) AS ind_seg
            FROM lhs l, rhs r
            WHERE l.name < r.name
              AND jaro_winkler_similarity(l.name, r.name) >= {self.gate}
            """).arrow()
        self.con.unregister("lhs")
        return out


def fs_em(pairs, indicator_cols, iters: int = 100, tol: float = 1e-12,
          init_m: float = 0.8, init_u: float = 0.1,
          init_lambda: float = 0.1):
    """EM estimation of Fellegi-Sunter m/u/λ parameters (Winkler 1988;
    the Splink-style public formulation) from boolean agreement
    indicators.

    Scale shape: the boolean-pattern likelihood depends on rows only
    through their agreement PATTERN, so the sufficient statistic is the
    2^k pattern histogram — ONE distributed combiner pass (per-batch
    bincount partials, driver merge of ≤ 2^k × blocks tiny rows), then
    EM iterates entirely on the k-field pattern table driver-side.
    10^12 candidate pairs cost exactly one data pass.

    Returns ``(params, patterns)``: params dict with ``m``, ``u``
    (np.ndarray per field), ``lambda_``, ``n_pairs``, ``n_iter``;
    patterns the (pattern_id, count) DataFrame.
    """
    import numpy as np
    import pandas as pd

    from .relational import partial_groupby_agg

    k = len(indicator_cols)

    def part(df: pd.DataFrame) -> pd.DataFrame:
        pid = np.zeros(len(df), dtype=np.int64)
        for i, c in enumerate(indicator_cols):
            pid |= df[c].to_numpy(dtype=bool).astype(np.int64) << i
        counts = np.bincount(pid, minlength=2 ** k)
        nz = np.flatnonzero(counts)
        return pd.DataFrame({"pattern": nz, "n": counts[nz]})

    patterns = partial_groupby_agg(pairs.map_batches(part,
                                                     batch_format="pandas"),
                                   ["pattern"], {"n": ("n", "sum")})
    pid = patterns["pattern"].to_numpy(np.int64)
    n_g = patterns["n"].to_numpy(np.float64)
    bits = ((pid[:, None] >> np.arange(k)[None, :]) & 1).astype(np.float64)
    n_total = n_g.sum()

    m = np.full(k, init_m)
    u = np.full(k, init_u)
    lam = float(init_lambda)
    it = 0
    for it in range(1, iters + 1):
        pm = np.prod(np.where(bits == 1, m[None, :], 1 - m[None, :]),
                     axis=1)
        pu = np.prod(np.where(bits == 1, u[None, :], 1 - u[None, :]),
                     axis=1)
        w = lam * pm / (lam * pm + (1 - lam) * pu)
        wm = (n_g * w)
        wu = (n_g * (1 - w))
        new_lam = wm.sum() / n_total
        new_m = (wm[:, None] * bits).sum(axis=0) / max(wm.sum(), 1e-300)
        new_u = (wu[:, None] * bits).sum(axis=0) / max(wu.sum(), 1e-300)
        delta = max(abs(new_lam - lam), np.abs(new_m - m).max(),
                    np.abs(new_u - u).max())
        lam, m, u = new_lam, new_m, new_u
        if delta < tol:
            break
    return ({"m": m, "u": u, "lambda_": lam,
             "n_pairs": int(n_total), "n_iter": it}, patterns)


class ValueStandardizer:
    """Attribute standardization against a canonical dictionary — the
    classic ER preprocessing step (country/org/category names with
    typos folded onto their canonical spelling before blocking).

    The canonical list ships once via ``ray.put``; each actor loads it
    into an in-process DuckDB table in ``__init__`` (the ST3
    per-worker-state pattern) and resolves each batch's DISTINCT
    values with one cross join + argmax on the C++
    ``jaro_winkler_similarity`` kernel — ties by the smallest
    canonical, values below ``threshold`` pass through unchanged.
    Because the scorer IS DuckDB's kernel, a SQL oracle reproduces the
    operator bit-for-bit.  Contract: ``col`` non-null (coalesce
    upstream); canonical list config-scale (every distinct batch value
    is compared to all of it).
    """

    def __init__(self, canon_ref, col: str = "val", out_col: str = "std",
                 threshold: float = 0.85):
        import duckdb
        import ray

        self.con = duckdb.connect()
        self.con.execute("PRAGMA threads=1")
        self.col = col
        self.out_col = out_col
        self.threshold = float(threshold)
        canon = ray.get(canon_ref)
        self.con.register(
            "canon", pa.table({"canon": pa.array(canon, pa.string())}))

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return batch.append_column(
                self.out_col, pa.array([], pa.string())).append_column(
                "std_jw", pa.array([], pa.float64())).append_column(
                "std_matched", pa.array([], pa.bool_()))
        self.con.register("lhs", batch)
        out = self.con.execute(f"""
            WITH vals AS (SELECT DISTINCT {self.col} AS val FROM lhs),
            best AS (
              SELECT val, canon,
                     jaro_winkler_similarity(val, canon) AS jw,
                     row_number() OVER (PARTITION BY val
                         ORDER BY jaro_winkler_similarity(val, canon)
                             DESC, canon) AS rk
              FROM vals CROSS JOIN canon)
            SELECT l.*,
                   CASE WHEN b.jw >= {self.threshold} THEN b.canon
                        ELSE l.{self.col} END AS {self.out_col},
                   round(b.jw, 6) AS std_jw,
                   b.jw >= {self.threshold} AS std_matched
            FROM lhs l JOIN best b ON b.val = l.{self.col} AND b.rk = 1
            """).arrow()
        self.con.unregister("lhs")
        return out


def standardize_values(ds, canon: list[str], col: str, out_col: str = "std",
                       threshold: float = 0.85, batch_size: int = 8192,
                       concurrency=(1, 8)):
    """Actor-pool wrapper for :class:`ValueStandardizer` (canonical
    list broadcast once, loaded per actor)."""
    import ray

    canon_ref = ray.put(list(canon))
    return ds.map_batches(
        ValueStandardizer,
        fn_constructor_kwargs={"canon_ref": canon_ref, "col": col,
                               "out_col": out_col, "threshold": threshold},
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency)


class MongeElkanScorer:
    """Monge-Elkan token-level name similarity (Monge & Elkan 1996):
    ``ME(A, B) = mean over A's tokens of max_b JW(tok_a, tok_b)`` —
    the token-alignment scorer that survives word reorder and partial
    corruption where whole-string JW collapses.  Distinct-token
    semantics (duplicate tokens in A collapse before the mean — the
    same GROUP BY the oracle uses).

    ST3 pattern: per-worker in-process DuckDB; each batch registers
    once and one SQL pass does split -> unnest -> per-token max JW ->
    per-pair mean on the C++ kernel, so the oracle reproduces scores
    bit-for-bit (same engine)."""

    def __init__(self, a_col: str = "name_a", b_col: str = "name_b",
                 id_col: str = "pair_id"):
        import duckdb

        self.con = duckdb.connect()
        self.con.execute("PRAGMA threads=1")
        self.a, self.b, self.id = a_col, b_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table({self.id: pa.array([], pa.int64()),
                             "monge_elkan": pa.array([], pa.float64())})
        self.con.register("lhs", batch)
        out = self.con.execute(f"""
            WITH ta AS (SELECT {self.id} AS pid,
                               unnest(string_split({self.a}, ' ')) AS tok
                        FROM lhs),
            tb AS (SELECT {self.id} AS pid,
                          unnest(string_split({self.b}, ' ')) AS tok
                   FROM lhs),
            best AS (SELECT ta.pid, ta.tok,
                            max(jaro_winkler_similarity(ta.tok, tb.tok))
                                AS b
                     FROM ta JOIN tb ON tb.pid = ta.pid
                     GROUP BY 1, 2)
            SELECT pid AS {self.id}, round(avg(b), 6) AS monge_elkan
            FROM best GROUP BY 1
            """).arrow()
        self.con.unregister("lhs")
        return out


def monge_elkan_scores(pairs, a_col: str = "name_a",
                       b_col: str = "name_b", id_col: str = "pair_id",
                       batch_size: int = 8192, concurrency=(1, 8)):
    """Actor-pool wrapper for :class:`MongeElkanScorer`."""
    return pairs.map_batches(
        MongeElkanScorer,
        fn_constructor_kwargs={"a_col": a_col, "b_col": b_col,
                               "id_col": id_col},
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency)


class SoftTfidfScorer:
    """Soft TF-IDF hybrid name similarity (Cohen, Ravikumar &
    Fienberg 2003): ``sum over a in A with max-JW partner >= theta of
    V(a,A) * V(b*,B) * JW(a,b*)`` where V are L2-normalized
    log-TF x log-IDF token weights over the NAME CORPUS — the hybrid
    scorer that beats both pure-token (TF-IDF cosine) and pure-edit
    (JW) metrics on noisy person/org names in the published ER
    comparisons.

    ST3 pattern with a BROADCAST model: the per-token document
    frequency table (integers — exact) is computed distributedly by a
    combiner pass, ``ray.put`` once, and registered into each
    worker's in-process DuckDB at construction; each batch is one SQL
    pass (split -> TF -> weight -> per-token argmax JW with a fully
    ordered window -> normalized dot) on DuckDB's C++ kernels, so the
    oracle — the same SQL over the same integer inputs — reproduces
    scores bit-for-bit.  The argmax tie-break is total
    (s DESC, wb DESC, btok) so actor-vs-oracle row order cannot
    diverge."""

    def __init__(self, df_ref, n_names: int, theta: float = 0.9,
                 a_col: str = "name_a", b_col: str = "name_b",
                 id_col: str = "pair_id"):
        import duckdb
        import pandas as pd
        import ray

        self.con = duckdb.connect()
        self.con.execute("PRAGMA threads=1")
        df_tbl = ray.get(df_ref) if not isinstance(df_ref,
                                                   pd.DataFrame) else df_ref
        self.con.register("idf", pa.Table.from_pandas(df_tbl))
        self.n = int(n_names)
        self.theta = float(theta)
        self.a, self.b, self.id = a_col, b_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table({self.id: pa.array([], pa.int64()),
                             "soft_tfidf": pa.array([], pa.float64())})
        self.con.register("lhs", batch)
        out = self.con.execute(f"""
            WITH ta AS (
              SELECT pid, tok, count(*) AS tf FROM (
                SELECT {self.id} AS pid,
                       unnest(string_split({self.a}, ' ')) AS tok
                FROM lhs) GROUP BY 1, 2),
            tb AS (
              SELECT pid, tok, count(*) AS tf FROM (
                SELECT {self.id} AS pid,
                       unnest(string_split({self.b}, ' ')) AS tok
                FROM lhs) GROUP BY 1, 2),
            va AS (SELECT pid, tok,
                          ln(tf + 1.0) * ln(1.0 + {self.n}.0
                              / coalesce(i.dfn, 1)) AS w
                   FROM ta LEFT JOIN idf i USING (tok)),
            vb AS (SELECT pid, tok,
                          ln(tf + 1.0) * ln(1.0 + {self.n}.0
                              / coalesce(i.dfn, 1)) AS w
                   FROM tb LEFT JOIN idf i USING (tok)),
            na AS (SELECT pid, sqrt(sum(w * w)) AS nrm FROM va
                   GROUP BY pid),
            nb AS (SELECT pid, sqrt(sum(w * w)) AS nrm FROM vb
                   GROUP BY pid),
            jw AS (SELECT va.pid, va.tok AS atok, va.w AS wa,
                          vb.tok AS btok, vb.w AS wb,
                          jaro_winkler_similarity(va.tok, vb.tok) AS s
                   FROM va JOIN vb ON vb.pid = va.pid),
            best AS (SELECT *, row_number() OVER (
                       PARTITION BY pid, atok
                       ORDER BY s DESC, wb DESC, btok) AS rn FROM jw)
            SELECT b.pid AS {self.id},
                   round(coalesce(sum((b.wa / na.nrm) * (b.wb / nb.nrm)
                                      * b.s)
                           FILTER (WHERE b.s >= {self.theta}), 0.0), 6)
                     AS soft_tfidf
            FROM best b
            JOIN na ON na.pid = b.pid
            JOIN nb ON nb.pid = b.pid
            WHERE b.rn = 1 GROUP BY b.pid
            """).arrow()
        self.con.unregister("lhs")
        return out


def soft_tfidf_scores(pairs, df_ref, n_names: int, theta: float = 0.9,
                      a_col: str = "name_a", b_col: str = "name_b",
                      id_col: str = "pair_id", batch_size: int = 8192,
                      concurrency=(1, 8)):
    """Actor-pool wrapper for :class:`SoftTfidfScorer`."""
    return pairs.map_batches(
        SoftTfidfScorer,
        fn_constructor_kwargs={"df_ref": df_ref, "n_names": n_names,
                               "theta": theta, "a_col": a_col,
                               "b_col": b_col, "id_col": id_col},
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency)
