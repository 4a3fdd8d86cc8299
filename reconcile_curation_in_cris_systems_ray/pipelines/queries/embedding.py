"""Embedding-space ops: ANN, k-means/PCA, SemDeDup, cluster quality.

The ``QUERIES`` / ``ORACLES`` tables at the end register this family.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ...stages import relational as rel
from ...stages import textstats as ts
from ...stages.ann import brute_force_topk, ivf_topk
from ...stages.dedup import embedding_dup_pairs
from ._shared import _rp


def _query_vectors(sf_dir: str, n: int = 3) -> np.ndarray:
    """Fetch the n query vectors via a parquet predicate-pushdown read
    (row-group pruning at the source) — never a full-table row scan."""
    import pyarrow.dataset as pads

    tbl = pads.dataset(f"{sf_dir}/embeddings.parquet").to_table(
        columns=["vec_id", "embedding"],
        filter=pads.field("vec_id") < n)
    order = np.argsort(tbl.column("vec_id").to_numpy())
    return np.stack([np.asarray(v, dtype=np.float64)
                     for v in tbl.column("embedding").to_pylist()])[order]


def q_knn_bruteforce(sf_dir: str):
    """Similarity search baseline: exact cosine top-10 for 3 queries."""
    ds = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = brute_force_topk(ds, _query_vectors(sf_dir), k=10)
    return out.select_columns(["query_id", "vec_id"])


SQL_KNN_BRUTEFORCE = """
SELECT query_id, vec_id FROM (
  SELECT q.vec_id AS query_id, e.vec_id AS vec_id,
         row_number() OVER (
           PARTITION BY q.vec_id
           ORDER BY list_cosine_similarity(e.embedding, q.embedding) DESC,
                    e.vec_id) AS rn
  FROM embeddings e CROSS JOIN
       (SELECT vec_id, embedding FROM embeddings WHERE vec_id < 3) q
) WHERE rn <= 10
"""


def q_cosine_pairs(sf_dir: str):
    """Exact cosine-similarity threshold self-join over the embeddings
    table (brute-force baseline; LSH bucketing is the scale path — see
    embedding_dups).  Threshold 0.46 sits in a wide gap of the
    pairwise-cosine distribution (nearest value >1e-2 away at sf0.01),
    so float32-vs-float64 kernel differences cannot flip membership."""
    from ...stages.ann import cosine_threshold_pairs

    ds = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    return cosine_threshold_pairs(ds, 0.46)


SQL_COSINE_PAIRS = """
SELECT a.vec_id AS id_a, b.vec_id AS id_b
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.46
ORDER BY id_a, id_b
"""


def q_embedding_dups(sf_dir: str):
    """Embedding-cosine near-dup pairs via hyperplane LSH.

    The embeddings table is i.i.d. random (max natural pairwise cosine
    ~0.51 at sf0.01), so a threshold-0.95 search over it alone proves
    nothing.  Near-identical probes are therefore PLANTED
    deterministically — every 25th vector re-emitted as vec_id +
    1_000_000 with a tiny deterministic perturbation (cosine vs the
    original > 0.999) — and the query must recover exactly the planted
    pairs (recovery pinned by ``tests/test_stages.py``).  ORACLED
    (round-5, upgraded from rows-only): the oracle rebuilds the
    planted table with the same sin perturbation and takes all pairs
    at cosine >= 0.95 — exact-threshold semantics; equal to the LSH
    plan whenever the hyperplane tables lose no qualifying pair,
    which the recovery pin asserts (natural pairs top out near 0.5,
    far under the threshold)."""
    ds = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])

    def plant(t: pa.Table) -> pa.Table:
        ids = t.column("vec_id").to_numpy()
        vecs = np.asarray(t.column("embedding").to_pylist(),
                          dtype=np.float64)
        mask = ids % 25 == 0
        dup = vecs[mask] * (1.0 + 0.005 * np.sin(
            np.arange(vecs.shape[1])[None, :] + ids[mask][:, None]))
        all_ids = np.concatenate([ids, ids[mask] + 1_000_000])
        all_vecs = np.concatenate([vecs, dup])
        return pa.table({
            "vec_id": pa.array(all_ids, pa.int64()),
            "embedding": pa.array(list(all_vecs)),
        })

    planted = ds.map_batches(plant, batch_format="pyarrow")
    return embedding_dup_pairs(planted, "vec_id", "embedding",
                               cosine_threshold=0.95)


SQL_EMBEDDING_DUPS = r"""
WITH planted AS (
  SELECT vec_id, embedding FROM embeddings
  UNION ALL
  SELECT e.vec_id + 1000000,
         list_transform(e.embedding,
           (x, j) -> CAST(x AS DOUBLE)
                     * (1.0 + 0.005 * sin(CAST(j - 1 AS DOUBLE)
                                          + CAST(e.vec_id AS DOUBLE))))
  FROM embeddings e WHERE e.vec_id % 25 = 0),
sims AS (
  SELECT CAST(a.vec_id AS VARCHAR) AS sa,
         CAST(b.vec_id AS VARCHAR) AS sb,
         list_cosine_similarity(
             CAST(a.embedding AS DOUBLE[]),
             CAST(b.embedding AS DOUBLE[])) AS cosine
  FROM planted a JOIN planted b ON a.vec_id < b.vec_id)
SELECT least(sa, sb) AS id_a, greatest(sa, sb) AS id_b, cosine
FROM sims WHERE cosine >= 0.95
"""


def q_ann_ivf(sf_dir: str):
    """IVF-partitioned approximate top-k.  ORACLED (round-5, upgraded
    from rows-only): the centroid sample is the 16 vectors with the
    smallest DuckDB-``hash()``ed id strings viewed as int64
    (stages/ann.py::build_ivf_centroids), so the oracle replays the
    ENTIRE plan in SQL — centroid selection, L2 normalization, 4-probe
    assignment per query, nearest-centroid assignment per vector and
    exact cosine top-10 within the probed lists."""
    ds = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    return ivf_topk(ds, _query_vectors(sf_dir), k=10)


SQL_ANN_IVF = r"""
WITH
e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings),
ev AS MATERIALIZED (
  SELECT vec_id, unnest(v) AS x, generate_subscripts(v, 1) AS j FROM e),
en AS (SELECT vec_id, greatest(sqrt(sum(x * x)), 1e-12) AS nrm
       FROM ev GROUP BY vec_id),
nv AS MATERIALIZED (
  SELECT ev.vec_id, ev.j, ev.x / en.nrm AS x
  FROM ev JOIN en USING (vec_id)),
hh AS (SELECT vec_id,
              CASE WHEN CAST(hash(CAST(vec_id AS VARCHAR)) AS HUGEINT)
                        >= 9223372036854775808
                   THEN CAST(CAST(hash(CAST(vec_id AS VARCHAR)) AS HUGEINT)
                             - 18446744073709551616 AS BIGINT)
                   ELSE CAST(hash(CAST(vec_id AS VARCHAR)) AS BIGINT)
              END AS h
       FROM e),
cids AS (SELECT vec_id, row_number() OVER (ORDER BY h) AS cidx
         FROM hh ORDER BY h LIMIT 16),
cn AS MATERIALIZED (
  SELECT c.cidx, nv.j, nv.x AS xc
  FROM cids c JOIN nv ON nv.vec_id = c.vec_id),
qn AS MATERIALIZED (
  SELECT vec_id AS query_id, j, x FROM nv WHERE vec_id < 3),
probe AS (SELECT query_id, cidx FROM (
  SELECT query_id, cidx,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY dot DESC, cidx) AS rn
  FROM (SELECT q.query_id, c.cidx, sum(q.x * c.xc) AS dot
        FROM qn q JOIN cn c ON c.j = q.j GROUP BY 1, 2)) WHERE rn <= 4),
assign AS (SELECT vec_id, cidx FROM (
  SELECT vec_id, cidx,
         row_number() OVER (PARTITION BY vec_id
                            ORDER BY dot DESC, cidx) AS rn
  FROM (SELECT nv.vec_id, c.cidx, sum(nv.x * c.xc) AS dot
        FROM nv JOIN cn c ON c.j = nv.j GROUP BY 1, 2)) WHERE rn = 1),
sims AS (SELECT q.query_id, nv.vec_id, sum(nv.x * q.x) AS score
         FROM nv JOIN qn q ON q.j = nv.j GROUP BY 1, 2)
SELECT query_id, vec_id, score FROM (
  SELECT s.query_id, s.vec_id, s.score,
         row_number() OVER (PARTITION BY s.query_id
                            ORDER BY s.score DESC, s.vec_id) AS rn
  FROM sims s
  JOIN assign a ON a.vec_id = s.vec_id
  JOIN probe p ON p.query_id = s.query_id AND p.cidx = a.cidx)
WHERE rn <= 10
"""


def q_centroid_agg(sf_dir: str):
    """Vector aggregate: per-label embedding centroid (the IVF /
    class-prototype primitive).  Combiner pattern — each batch emits
    one (label, sum-vector, count) partial per label present, so only
    labels x n_blocks tiny rows ever leave the workers; the driver
    finishes and emits long-format (label, pos, avg) for the oracle's
    order-insensitive hash."""
    import ray as _ray  # noqa: F401

    ds = _rp(sf_dir, "embeddings", ["label", "embedding"])
    from ...stages.embcluster import _matrix

    def part(t: pa.Table) -> pa.Table:
        X = _matrix(t.column("embedding"))
        if X.shape[0] == 0:
            return pa.table({"label": pa.array([], type=pa.int64()),
                             "s": pa.array([], type=pa.list_(pa.float64())),
                             "n": pa.array([], type=pa.int64())})
        labs = t.column("label").to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(labs, return_inverse=True)
        onehot = np.zeros((len(uniq), X.shape[0]))
        onehot[inv, np.arange(X.shape[0])] = 1.0
        sums = onehot @ X
        counts = np.bincount(inv).astype(np.int64)
        return pa.table({
            "label": pa.array(uniq.astype(np.int64)),
            "s": pa.array(list(map(list, sums)), type=pa.list_(pa.float64())),
            "n": pa.array(counts),
        })

    rows = ds.map_batches(part, batch_format="pyarrow").take_all()
    acc: dict[int, tuple[np.ndarray, int]] = {}
    for r in rows:
        s = np.asarray(r["s"], dtype=np.float64)
        if r["label"] in acc:
            s0, n0 = acc[r["label"]]
            acc[r["label"]] = (s0 + s, n0 + r["n"])
        else:
            acc[r["label"]] = (s, r["n"])
    out = []
    for lab in sorted(acc):
        s, n = acc[lab]
        for pos, v in enumerate(s / n):
            out.append((lab, pos, round(float(v), 6)))
    return pd.DataFrame(out, columns=["label", "pos", "avg_v"])


SQL_CENTROID_AGG = r"""
SELECT CAST(label AS BIGINT) AS label, pos, round(avg(v), 6) AS avg_v
FROM (SELECT label, unnest(embedding) AS v,
             generate_subscripts(embedding, 1) - 1 AS pos
      FROM embeddings) t
GROUP BY label, pos
"""


def q_kmeans_embed(sf_dir: str):
    """Distributed Lloyd's k-means over the embeddings table (k=10,
    10 iterations, deterministic min-id init): per iteration one
    centroid broadcast + one data pass emitting k-row partials.
    ORACLED (round-5, upgraded from rows-only): the iterations unroll
    as chained MATERIALIZED CTEs replaying the SAME expanded distance
    expression and per-dim grouped centroid means.
    tests/test_embcluster.py additionally pins the assignments against
    an identical-semantics single-node numpy reference."""
    from ...stages.embcluster import kmeans

    _, assigned = kmeans(_rp(sf_dir, "embeddings", ["vec_id", "embedding"]),
                         k=10, iters=10)
    return assigned


def q_semdedup(sf_dir: str):
    """SemDeDup (Abbas et al. 2023): k-means clustering then cosine
    near-dup removal WITHIN clusters only (min-id representative).
    Pairwise work bounded per cluster — the embedding-dedup plan that
    scales by growing k with the corpus.  ORACLED (round-5, upgraded
    from rows-only): the kmeans unroll (iters=5) plus a within-cluster
    normalize-then-dot pair filter at 0.9 and the lower-id drop rule.
    Planted-duplicate recovery stays pinned in
    tests/test_embcluster.py."""
    from ...stages.embcluster import semdedup

    return semdedup(_rp(sf_dir, "embeddings", ["vec_id", "embedding"]),
                    k=10, iters=5, threshold=0.9)


def q_pca_project(sf_dir: str):
    """Distributed PCA projection to 8 components over the embeddings
    table: one shuffle-free matrix-moment combiner pass (each partial
    O(dim²), data-size independent), driver-side eigh on the d×d
    covariance, one broadcast + map projection pass.  Rows-only driver
    check (eigendecomposition is not SQL-expressible);
    tests/test_embcluster.py pins projections exactly against the
    identical-semantics single-node numpy reference."""
    from ...stages.embcluster import pca

    _, _, _, projected = pca(
        _rp(sf_dir, "embeddings", ["vec_id", "embedding"]), k=8)
    return projected


def _pareto_min_max(df: pd.DataFrame, lo: str, hi: str) -> pd.DataFrame:
    """Skyline rows minimizing ``lo`` and maximizing ``hi``: a row is
    dominated iff another row has lo <= and hi >= with one strict.
    Vectorized: per-lo-level max of hi, shifted running max over lo
    ascending, keep levels strictly improving, then the rows at each
    kept level whose hi equals the level max."""
    pm = df.groupby(lo, sort=True)[hi].max()
    prev = pm.cummax().shift(1)
    kept_levels = pm[prev.isna() | (pm > prev)]
    m = df.merge(kept_levels.rename("__mx").reset_index(), on=lo,
                 how="inner")
    return m[m[hi] == m["__mx"]].drop(columns="__mx")


def q_skyline(sf_dir: str):
    """Skyline / Pareto-frontier query (Borzsony, Kossmann, Stocker
    2001): orders not dominated on (minimize o_totalprice, maximize
    o_orderdate).  The textbook distributed plan: the skyline operator
    DISTRIBUTES over union, so each batch computes its local skyline
    (a combiner — output is O(frontier), tiny) and one bounded driver
    finish re-runs the same kernel over the union of local frontiers;
    no shuffle, no sort of the full table, scale-safe at any row
    count (driver state = frontier x batches)."""
    import ray.data as rd

    ds = _rp(sf_dir, "orders",
             ["o_orderkey", "o_totalprice", "o_orderdate"])

    local = ds.map_batches(
        lambda df: _pareto_min_max(df, "o_totalprice", "o_orderdate"),
        batch_format="pandas")
    cand = local.to_pandas()  # bounded: local frontiers only
    return _pareto_min_max(cand, "o_totalprice", "o_orderdate")[
        ["o_orderkey", "o_totalprice", "o_orderdate"]].reset_index(
        drop=True)


SQL_SKYLINE = r"""
WITH pm AS (
  SELECT o_totalprice AS p, max(o_orderdate) AS mq
  FROM orders GROUP BY p
), w AS (
  SELECT p, mq, max(mq) OVER (ORDER BY p
    ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS mprev
  FROM pm
), sk AS (
  SELECT p, mq FROM w WHERE mprev IS NULL OR mq > mprev
)
SELECT o.o_orderkey, o.o_totalprice, o.o_orderdate
FROM orders o JOIN sk ON o.o_totalprice = sk.p AND o.o_orderdate = sk.mq
"""


def q_canopy_cluster(sf_dir: str):
    """Canopy clustering (McCallum, Nigam & Ungar 2000) — the classic
    cheap-metric pre-blocking step: greedy canopies over token-set
    Jaccard with loose threshold T1=0.5 (join the canopy) and tight
    threshold T2=0.75 (leave the candidate pool), centers chosen in
    doc_id order.  A document can belong to several canopies; output
    is (doc_id, canopy_id=center doc_id).  ORACLED (round-5, upgraded
    from rows-only): the greedy runs as a per-source small-step state
    machine in a recursive CTE (the r_swoosh discipline) — each
    iteration takes the min active doc as center, emits T1 members and
    drops T2-tight docs, with both thresholds as exact integer
    comparisons (2*|∩| >= |∪| and 4*|∩| >= 3*|∪|).  Definition also
    pinned against a pure-sequential reference in
    tests/test_canopy.py.

    Scale plan: canopies run independently per blocking group
    (source), the repo's bounded-block contract; within a group the
    T1/T2 tests are one incidence-matrix matmul + per-center
    vectorized mask updates, O(centers x m) not O(m^2) Python."""
    from ...stages.shuffle import bucketed_map_groups

    t1, t2 = 0.5, 0.75
    ds = _rp(sf_dir, "documents", ["doc_id", "text", "source"])

    empty = pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                          "canopy_id": pd.Series([], dtype="int64")})

    def block(df: pd.DataFrame) -> pd.DataFrame:
        parts = []
        for _, g in df.groupby("source", sort=False):
            g = g.sort_values("doc_id", kind="mergesort")
            m = len(g)
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
            union = sizes[:, None] + sizes[None, :] - inter
            jac = np.divide(inter, union, out=np.zeros_like(inter),
                            where=union > 0)
            np.fill_diagonal(jac, 1.0)
            ids = g["doc_id"].to_numpy(dtype=np.int64)
            active = np.ones(m, dtype=bool)
            for i in range(m):
                if not active[i]:
                    continue
                members = active & (jac[i] >= t1)
                parts.append(pd.DataFrame({
                    "doc_id": ids[members],
                    "canopy_id": np.int64(ids[i])}))
                active &= ~(jac[i] >= t2)
                active[i] = False
        return pd.concat(parts, ignore_index=True) if parts else empty

    return bucketed_map_groups(ds, ["source"], block, num_buckets=32,
                               empty_like=empty)


SQL_CANOPY_CLUSTER = r"""
WITH RECURSIVE
tk AS (SELECT DISTINCT doc_id, t.tok FROM (
         SELECT doc_id,
                unnest(regexp_extract_all(lower(coalesce(text, '')),
                                          '[a-z0-9]+')) AS tok
         FROM documents) t),
sz AS (SELECT doc_id, count(*) AS n FROM tk GROUP BY 1),
srcs AS (SELECT source, list(doc_id ORDER BY doc_id) AS ids
         FROM documents GROUP BY 1),
g AS (
  SELECT source, ids AS active,
         CAST([] AS STRUCT(doc_id BIGINT, canopy_id BIGINT)[]) AS hist,
         (len(ids) = 0) AS done, 0 AS it
  FROM srcs
  UNION ALL
  SELECT q.source, q.active2, q.hist2, q.done2, q.it + 1 FROM (
    SELECT p.source, p.it,
           CASE WHEN p.done THEN p.active
                ELSE coalesce(w.remaining, []) END AS active2,
           CASE WHEN p.done THEN p.hist
                ELSE list_concat(p.hist, coalesce(w.memb, [])) END AS hist2,
           CASE WHEN p.done THEN true
                ELSE len(coalesce(w.remaining, [])) = 0 END AS done2,
           max(CASE WHEN p.done THEN 0 ELSE 1 END) OVER () AS any_active
    FROM g p, LATERAL (
      SELECT list({'doc_id': s.did, 'canopy_id': p.active[1]}
                  ORDER BY s.did) FILTER (WHERE s.loose) AS memb,
             list(s.did ORDER BY s.did) FILTER (WHERE NOT s.tight)
                 AS remaining
      FROM (
        SELECT u.did,
               (u.did = p.active[1]
                OR (u.uni > 0 AND 2 * u.inter >= u.uni)) AS loose,
               (u.did = p.active[1]
                OR (u.uni > 0 AND 4 * u.inter >= 3 * u.uni)) AS tight
        FROM (
          SELECT d.did,
                 coalesce((SELECT n FROM sz WHERE doc_id = p.active[1]), 0)
                   + coalesce((SELECT n FROM sz WHERE doc_id = d.did), 0)
                   - (SELECT count(*) FROM tk a JOIN tk b
                      ON b.tok = a.tok AND b.doc_id = d.did
                      WHERE a.doc_id = p.active[1]) AS uni,
                 (SELECT count(*) FROM tk a JOIN tk b
                  ON b.tok = a.tok AND b.doc_id = d.did
                  WHERE a.doc_id = p.active[1]) AS inter
          FROM (SELECT unnest(p.active) AS did) d
        ) u
      ) s
    ) w
  ) q WHERE q.any_active = 1
),
fin AS (SELECT source, hist FROM g
        WHERE it = (SELECT max(it) FROM g)),
un AS (SELECT unnest(hist) AS u FROM fin)
SELECT CAST(u['doc_id'] AS BIGINT) AS doc_id,
       CAST(u['canopy_id'] AS BIGINT) AS canopy_id
FROM un
"""


def q_dbscan_embed(sf_dir: str):
    """DBSCAN over the embedding table, composed from the engine's own
    primitives: eps-neighborhood edges = exact cosine-threshold pairs
    (>= 0.35, stages/ann.py), core points = degree combiner
    (min_samples=3, sklearn convention: the point itself counts),
    clusters = connected components of the core-core subgraph labeled
    by component-min vec_id, borders attach to their minimum-label
    core neighbor, the rest is noise (cluster -1).  ORACLED (round-5,
    upgraded from rows-only): eps edges via list_cosine_similarity
    (the cosine_pairs precedent — round-6-stable vs the numpy matmul),
    cores/borders as plain aggregates, the component closure as a
    recursive reachability CTE.  Also pinned against a sequential
    reference DBSCAN in tests/test_dbscan.py.

    Scale notes: the edge stage is the documented brute-force baseline
    (LSH-bucketed at 10^12 rows); degree and border-attach finishes
    ride the broadcast-lookup discipline (core/label maps bounded by
    core-point count; hash-join swap above the 2M broadcast cap, the
    relational.py contract)."""
    from ...stages.ann import cosine_threshold_pairs
    from ...stages.cluster import assign_clusters, connected_components

    emb = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    edges = cosine_threshold_pairs(emb, 0.35)

    def endpoints(df: pd.DataFrame) -> pd.DataFrame:
        ids = np.concatenate([df["id_a"].to_numpy(np.int64),
                              df["id_b"].to_numpy(np.int64)])
        vc = pd.Series(ids).value_counts()
        return pd.DataFrame({"vec_id": vc.index.to_numpy(np.int64),
                             "deg": vc.to_numpy(np.int64)})

    deg = rel.partial_groupby_agg(
        edges.map_batches(endpoints, batch_format="pandas"),
        ["vec_id"], {"deg": ("deg", "sum")})
    core = set(deg.loc[deg["deg"] >= 2, "vec_id"].astype(np.int64))

    def core_core(df: pd.DataFrame) -> pd.DataFrame:
        m = (df["id_a"].isin(core) & df["id_b"].isin(core)).to_numpy(bool)
        out = df[m]
        return pd.DataFrame({
            "u": out["id_a"].map("{:08d}".format).astype("string"),
            "v": out["id_b"].map("{:08d}".format).astype("string")})

    edges_mat = edges.materialize()   # consumed twice: core CC + borders
    stars = connected_components(
        edges_mat.map_batches(core_core, batch_format="pandas"))

    core_nodes = pd.DataFrame(
        {"url": pd.Series(sorted(core)).map("{:08d}".format)})
    import ray.data as rd

    assigns = assign_clusters(rd.from_pandas(core_nodes), stars) \
        .to_pandas()
    label = {int(r.url): int(r.cluster_id)
             for r in assigns.itertuples()}    # bounded: core points

    def border_partial(df: pd.DataFrame) -> pd.DataFrame:
        a = df["id_a"].to_numpy(np.int64)
        b = df["id_b"].to_numpy(np.int64)
        a_core = df["id_a"].isin(core).to_numpy(bool)
        b_core = df["id_b"].isin(core).to_numpy(bool)
        # edges with exactly one core endpoint: non-core side is a
        # border candidate, labeled by the core side's cluster
        pts = np.concatenate([b[a_core & ~b_core], a[~a_core & b_core]])
        lab = np.concatenate([a[a_core & ~b_core], b[~a_core & b_core]])
        out = pd.DataFrame({"vec_id": pts,
                            "cluster": [label[x] for x in lab]})
        return out.groupby("vec_id", sort=False)["cluster"].min() \
            .reset_index()

    borders = rel.partial_groupby_agg(
        edges_mat.map_batches(border_partial, batch_format="pandas"),
        ["vec_id"], {"cluster": ("cluster", "min")})
    border_map = dict(zip(borders["vec_id"].astype(np.int64),
                          borders["cluster"].astype(np.int64)))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["vec_id"].to_numpy(np.int64)
        is_core = df["vec_id"].isin(core).to_numpy(bool)
        cl = np.full(len(ids), -1, dtype=np.int64)
        role = np.full(len(ids), "noise", dtype=object)
        for i, x in enumerate(ids):
            if is_core[i]:
                cl[i] = label[x]
                role[i] = "core"
            elif x in border_map:
                cl[i] = border_map[x]
                role[i] = "border"
        return pd.DataFrame({"vec_id": ids, "cluster": cl, "role": role})

    return emb.select_columns(["vec_id"]).map_batches(
        finish, batch_format="pandas")


SQL_DBSCAN_EMBED = r"""
WITH RECURSIVE
e AS (SELECT a.vec_id AS ia, b.vec_id AS ib
      FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
      WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.35),
deg AS (SELECT vec_id, count(*) AS d FROM (
          SELECT ia AS vec_id FROM e UNION ALL SELECT ib FROM e)
        GROUP BY 1),
core AS (SELECT vec_id FROM deg WHERE d >= 2),
cc_e AS (SELECT ia, ib FROM e
         WHERE ia IN (SELECT vec_id FROM core)
           AND ib IN (SELECT vec_id FROM core)),
und2 AS (SELECT ia AS a, ib AS b FROM cc_e
         UNION SELECT ib, ia FROM cc_e),
reach(a, b) AS (
  SELECT a, b FROM und2
  UNION
  SELECT r.a, u.b FROM reach r JOIN und2 u ON u.a = r.b),
comp AS (SELECT a AS node, least(a, min(b)) AS root
         FROM reach GROUP BY a),
corelab AS (SELECT c.vec_id, coalesce(cm.root, c.vec_id) AS lab
            FROM core c LEFT JOIN comp cm ON cm.node = c.vec_id),
bord AS (SELECT x.vec_id, min(cl.lab) AS lab FROM (
           SELECT e.ib AS vec_id, e.ia AS core_id FROM e
           WHERE e.ia IN (SELECT vec_id FROM core)
             AND e.ib NOT IN (SELECT vec_id FROM core)
           UNION ALL
           SELECT e.ia, e.ib FROM e
           WHERE e.ib IN (SELECT vec_id FROM core)
             AND e.ia NOT IN (SELECT vec_id FROM core)) x
         JOIN corelab cl ON cl.vec_id = x.core_id
         GROUP BY 1)
SELECT em.vec_id,
       CAST(CASE WHEN cl.lab IS NOT NULL THEN cl.lab
                 WHEN bd.lab IS NOT NULL THEN bd.lab
                 ELSE -1 END AS BIGINT) AS cluster,
       CASE WHEN cl.lab IS NOT NULL THEN 'core'
            WHEN bd.lab IS NOT NULL THEN 'border'
            ELSE 'noise' END AS role
FROM embeddings em
LEFT JOIN corelab cl ON cl.vec_id = em.vec_id
LEFT JOIN bord bd ON bd.vec_id = em.vec_id
"""


def q_ann_pq(sf_dir: str):
    """Product-quantization ANN over the embedding table
    (stages/ann.py::pq_topk): 64-dim floats compressed to 16 uint8
    codes, ADC lookup-table scan, per-batch partial top-k — the
    memory-compression scale path beside ann_ivf.  ORACLED (round-5,
    upgraded from rows-only): the training sample is the 512 smallest
    DuckDB-``hash()``ed ids, so the oracle unrolls the full per-
    subspace Lloyd training (16 subspaces x 8 iterations as chained
    MATERIALIZED CTEs, first-64-by-hash init, empty-cluster carry),
    re-encodes every vector, rebuilds the per-query ADC LUT and takes
    the negated-distance top-10 — the complete PQ plan in SQL.
    Recall vs the exact euclidean top-k stays pinned in
    tests/test_ann_pq.py."""
    from ...stages.ann import _as_matrix, pq_topk

    emb = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    probe = emb.map_batches(
        lambda t: t.filter(pc.less(t["vec_id"], 5)),
        batch_format="pyarrow").take_all()
    queries = np.stack([np.asarray(r["embedding"], dtype=np.float64)
                        for r in sorted(probe,
                                        key=lambda r: r["vec_id"])])
    # i.i.d. embeddings are PQ's hard case (no cluster structure):
    # 16 subspaces x 64 centroids measured mean recall@10 ~0.6 here
    return pq_topk(emb, queries, k=10, m_sub=16, n_cent=64, train_n=512)


def _ann_pq_sql(m_sub: int = 16, dim: int = 64, n_cent: int = 64,
                train_n: int = 512, iters: int = 8, n_q: int = 5) -> str:
    """Exact SQL twin of q_ann_pq / stages/ann.py::pq_topk: the
    per-subspace Lloyd iterations unroll as chained MATERIALIZED CTEs
    (the kmeans_embed discipline), all subspaces trained at once in
    long (sub, c, pos, val) form; argmins replay numpy's first-index
    tie-break via ORDER BY d2, c.  The subspace width derives from
    (dim, m_sub) exactly as pq_topk derives it, so the two parameter
    sets cannot silently disagree."""
    sub_d = dim // m_sub
    parts = [f"""
WITH
e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings),
sv AS MATERIALIZED (
  SELECT vec_id, CAST((p - 1) // {sub_d} AS INT) AS sub,
         CAST((p - 1) % {sub_d} AS INT) AS pos, x
  FROM (SELECT vec_id, unnest(v) AS x,
               generate_subscripts(v, 1) AS p FROM e)),
hh AS (SELECT vec_id,
              CASE WHEN CAST(hash(CAST(vec_id AS VARCHAR)) AS HUGEINT)
                        >= 9223372036854775808
                   THEN CAST(CAST(hash(CAST(vec_id AS VARCHAR)) AS HUGEINT)
                             - 18446744073709551616 AS BIGINT)
                   ELSE CAST(hash(CAST(vec_id AS VARCHAR)) AS BIGINT)
              END AS h
       FROM e),
tr AS (SELECT vec_id, row_number() OVER (ORDER BY h) AS r
       FROM hh ORDER BY h LIMIT {train_n}),
tx AS MATERIALIZED (
  SELECT t.r, s.sub, s.pos, s.x
  FROM tr t JOIN sv s USING (vec_id)),
c0 AS MATERIALIZED (
  SELECT sub, CAST(r - 1 AS INT) AS c, pos, x AS val
  FROM tx WHERE r <= {n_cent})"""]
    for t in range(1, iters + 1):
        parts.append(f""",
a{t} AS MATERIALIZED (
  SELECT r, sub, c FROM (
    SELECT d.r, d.sub, d.c,
           row_number() OVER (PARTITION BY d.r, d.sub
                              ORDER BY d.d2, d.c) AS rn
    FROM (SELECT t.r, t.sub, cc.c,
                 sum((t.x - cc.val) * (t.x - cc.val)) AS d2
          FROM tx t JOIN c{t - 1} cc
            ON cc.sub = t.sub AND cc.pos = t.pos
          GROUP BY 1, 2, 3) d) WHERE rn = 1),
c{t} AS MATERIALIZED (
  SELECT p.sub, p.c, p.pos, coalesce(m.mv, p.val) AS val
  FROM c{t - 1} p
  LEFT JOIN (SELECT a.sub, a.c, t.pos, avg(t.x) AS mv
             FROM a{t} a JOIN tx t ON t.r = a.r AND t.sub = a.sub
             GROUP BY 1, 2, 3) m
    ON m.sub = p.sub AND m.c = p.c AND m.pos = p.pos)""")
    parts.append(f""",
codes AS MATERIALIZED (
  SELECT vec_id, sub, c FROM (
    SELECT d.vec_id, d.sub, d.c,
           row_number() OVER (PARTITION BY d.vec_id, d.sub
                              ORDER BY d.d2, d.c) AS rn
    FROM (SELECT s.vec_id, s.sub, cc.c,
                 sum((s.x - cc.val) * (s.x - cc.val)) AS d2
          FROM sv s JOIN c{iters} cc
            ON cc.sub = s.sub AND cc.pos = s.pos
          GROUP BY 1, 2, 3) d) WHERE rn = 1),
lut AS MATERIALIZED (
  SELECT q.vec_id AS query_id, cc.sub, cc.c,
         sum((q.x - cc.val) * (q.x - cc.val)) AS d2
  FROM sv q JOIN c{iters} cc ON cc.sub = q.sub AND cc.pos = q.pos
  WHERE q.vec_id < {n_q}
  GROUP BY 1, 2, 3)
SELECT query_id, vec_id, score FROM (
  SELECT query_id, vec_id, score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY score DESC, vec_id) AS rn
  FROM (SELECT l.query_id, k.vec_id, -sum(l.d2) AS score
        FROM codes k JOIN lut l ON l.sub = k.sub AND l.c = k.c
        GROUP BY 1, 2)) WHERE rn <= 10
""")
    return "".join(parts)


SQL_ANN_PQ = _ann_pq_sql()


def q_ann_multiprobe(sf_dir: str):
    """Multi-probe hyperplane-LSH top-k (stages/ann.py::
    multiprobe_topk): one hash table, least-confident-bit probing —
    the index-memory-frugal ANN path beside ann_ivf/ann_pq.
    ORACLED (round-5, upgraded from rows-only): at the registered
    config (n_planes=6, n_probes=24) the engine's probe list is every
    mask with <=2 bits flipped (1 + 6 + C(6,2) = 22 <= 24 probes), so
    the probed bucket set is EXACTLY the codes at Hamming distance
    <= 2 from the query's code; the oracle embeds the seeded Gaussian
    planes as literals (the MinHash-constant discipline), rebuilds
    sign-bit codes in SQL and takes the exact cosine top-10 within
    bit_count(xor(code, qcode)) <= 2."""
    from ...stages.ann import multiprobe_topk

    ds = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    return multiprobe_topk(ds, _query_vectors(sf_dir), k=10)


def _ann_multiprobe_sql() -> str:
    """Exact SQL twin of q_ann_multiprobe: the same
    ``default_rng(7).standard_normal((6, 64))`` hyperplanes embedded
    as full-precision literals; codes from strict dot>0 sign bits over
    L2-normalized vectors."""
    rng = np.random.default_rng(7)
    planes = rng.standard_normal((6, 64))
    rows = ",\n    ".join(
        f"({j}, {p + 1}, {float(v)!r})"
        for j in range(planes.shape[0]) for p, v in enumerate(planes[j]))
    return f"""
WITH
e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings),
ev AS MATERIALIZED (
  SELECT vec_id, unnest(v) AS x, generate_subscripts(v, 1) AS j FROM e),
en AS (SELECT vec_id, greatest(sqrt(sum(x * x)), 1e-12) AS nrm
       FROM ev GROUP BY vec_id),
nv AS MATERIALIZED (
  SELECT ev.vec_id, ev.j, ev.x / en.nrm AS x
  FROM ev JOIN en USING (vec_id)),
pl(pj, j, w) AS (VALUES
    {rows}),
codes AS MATERIALIZED (
  SELECT vec_id,
         CAST(sum(CASE WHEN dot > 0 THEN 1 << pj ELSE 0 END) AS BIGINT)
             AS code
  FROM (SELECT nv.vec_id, pl.pj, sum(nv.x * pl.w) AS dot
        FROM nv JOIN pl ON pl.j = nv.j GROUP BY 1, 2)
  GROUP BY vec_id),
qn AS MATERIALIZED (
  SELECT vec_id AS query_id, j, x FROM nv WHERE vec_id < 3),
sims AS (SELECT q.query_id, nv.vec_id, sum(nv.x * q.x) AS score
         FROM nv JOIN qn q ON q.j = nv.j GROUP BY 1, 2)
SELECT query_id, vec_id, score FROM (
  SELECT s.query_id, s.vec_id, s.score,
         row_number() OVER (PARTITION BY s.query_id
                            ORDER BY s.score DESC, s.vec_id) AS rn
  FROM sims s
  JOIN codes cv ON cv.vec_id = s.vec_id
  JOIN codes cq ON cq.vec_id = s.query_id
  WHERE bit_count(xor(cv.code, cq.code)) <= 2)
WHERE rn <= 10
"""


SQL_ANN_MULTIPROBE = _ann_multiprobe_sql()


def q_gh_means(sf_dir: str):
    """Per-language geometric and harmonic means of the document token
    count (docs with >= 1 token) — the scale-robust central-tendency
    pair for heavy-tailed length distributions (geomean is the
    standard Gopher/C4-style length statistic).  Shuffle-free: each
    batch emits one (lang, n, sum_ln, sum_inv) partial and a tiny
    groupby collapses O(batches x langs) rows; closed forms
    exp(sum_ln/n) and n/sum_inv mirror the SQL bit-for-bit (round-6
    before compare)."""
    ds = _rp(sf_dir, "documents", ["lang", "text"])

    def part(df: pd.DataFrame) -> pd.DataFrame:
        toks = ts._ws_tokens(df["text"])
        n_tok = toks.str.len().fillna(0).astype("int64")
        keep = n_tok > 0
        if not keep.any():
            return pd.DataFrame({"lang": pd.Series([], dtype="string"),
                                 "n": pd.Series([], dtype="int64"),
                                 "sum_ln": pd.Series([], dtype="float64"),
                                 "sum_inv": pd.Series([], dtype="float64")})
        d = pd.DataFrame({
            "lang": df["lang"].astype("string")[keep.to_numpy()],
            "ln": np.log(n_tok[keep].to_numpy(np.float64)),
            "inv": 1.0 / n_tok[keep].to_numpy(np.float64)})
        g = d.groupby("lang", sort=False)
        out = g.agg(n=("ln", "size"), sum_ln=("ln", "sum"),
                    sum_inv=("inv", "sum")).reset_index()
        out["n"] = out["n"].astype("int64")
        return out

    parts = ds.map_batches(part, batch_format="pandas").to_pandas()
    g = parts.groupby("lang", sort=False, as_index=False).agg(
        n=("n", "sum"), sum_ln=("sum_ln", "sum"),
        sum_inv=("sum_inv", "sum"))
    return pd.DataFrame({
        "lang": g["lang"],
        "n_docs": g["n"].astype("int64"),
        "geo_mean": np.round(np.exp(g["sum_ln"] / g["n"]), 6),
        "harm_mean": np.round(g["n"] / g["sum_inv"], 6),
    }).sort_values("lang", kind="mergesort").reset_index(drop=True)


SQL_GH_MEANS = r"""
WITH t AS (
  SELECT lang,
         CASE WHEN trim(coalesce(text, '')) = '' THEN 0
              ELSE len(regexp_split_to_array(trim(text), '\s+'))
         END AS n_tok
  FROM documents
)
SELECT lang, count(*) AS n_docs,
       round(exp(sum(ln(n_tok)) / count(*)), 6) AS geo_mean,
       round(count(*) / sum(1.0 / n_tok), 6) AS harm_mean
FROM t WHERE n_tok > 0
GROUP BY lang ORDER BY lang
"""


def q_mmr_select(sf_dir: str):
    """Maximal Marginal Relevance diversified top-k retrieval
    (Carbonell & Goldstein 1998): greedily pick 10 vectors maximizing
    lambda*sim(q, d) - (1-lambda)*max_sim(d, selected).  The greedy
    loop is inherently sequential in k, but each round is one
    distributed partial-argmax pass (per-batch best under the
    broadcast selected-set, driver reduces over O(blocks) candidates);
    the selected matrix is k x dim — tiny — so nothing large is ever
    broadcast or materialized.  ORACLED (round-5, upgraded from
    rows-only): the greedy runs as a recursive CTE with a carried
    selected list, one LATERAL argmax per round; the oracle replays
    the SAME float path (normalize-then-dot via list_inner_product —
    list_cosine_similarity's dot/(|a||b|) order diverged at a round-6
    boundary) so scores agree to the rounded digit.  Also pinned
    against a sequential numpy reference in tests/test_mmr.py."""
    import ray

    emb = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])

    def normalize(df: pd.DataFrame) -> pd.DataFrame:
        m = np.stack(df["embedding"].to_numpy())
        m = m / np.linalg.norm(m, axis=1, keepdims=True)
        return pd.DataFrame({"vec_id": df["vec_id"].to_numpy(np.int64),
                             "unit": list(m.astype(np.float64))})

    unit = emb.map_batches(normalize, batch_format="pandas").materialize()
    q = None
    for b in unit.iter_batches(batch_format="pandas", batch_size=None):
        hit = b[b["vec_id"] == 0]
        if len(hit):
            q = np.asarray(hit["unit"].iloc[0])
            break
    lam = 0.7
    selected_ids: list[int] = []
    selected_mat = np.zeros((0, q.shape[0]))
    rows = []
    for _ in range(10):
        ref = ray.put((q, selected_mat, frozenset(selected_ids)))

        def best(df: pd.DataFrame) -> pd.DataFrame:
            qv, sel, chosen = ray.get(ref)
            mask = ~df["vec_id"].isin(chosen).to_numpy()
            if not mask.any():
                return pd.DataFrame({"vec_id": pd.Series([], dtype="int64"),
                                     "score": pd.Series([], dtype="float64")})
            m = np.stack(df["unit"].to_numpy()[mask])
            ids = df["vec_id"].to_numpy(np.int64)[mask]
            rel_ = m @ qv
            pen = m @ sel.T
            div = pen.max(axis=1) if pen.shape[1] else np.zeros(len(m))
            sc = lam * rel_ - (1.0 - lam) * div
            i = np.lexsort((ids, -sc))[0]
            return pd.DataFrame({"vec_id": [ids[i]], "score": [sc[i]]})

        cand = unit.map_batches(best, batch_format="pandas").to_pandas()
        cand = cand.sort_values(["score", "vec_id"],
                                ascending=[False, True])
        vid, sc = int(cand["vec_id"].iloc[0]), float(cand["score"].iloc[0])
        rows.append({"rank": len(selected_ids) + 1, "vec_id": vid,
                     "score": round(sc, 6)})
        vrow = None
        for b in unit.iter_batches(batch_format="pandas", batch_size=None):
            hit = b[b["vec_id"] == vid]
            if len(hit):
                vrow = np.asarray(hit["unit"].iloc[0])
                break
        selected_ids.append(vid)
        selected_mat = np.vstack([selected_mat, vrow])
    return pd.DataFrame(rows)


SQL_MMR_SELECT = r"""
WITH RECURSIVE
un AS (SELECT vec_id,
              list_transform(
                  CAST(embedding AS DOUBLE[]),
                  x -> x / sqrt(list_inner_product(
                      CAST(embedding AS DOUBLE[]),
                      CAST(embedding AS DOUBLE[])))) AS u
       FROM embeddings),
g AS (
  SELECT 0 AS it, CAST([] AS BIGINT[]) AS sel,
         CAST([] AS STRUCT(rnk BIGINT, vec_id BIGINT, score DOUBLE)[])
             AS hist
  UNION ALL
  SELECT g.it + 1, list_append(g.sel, w.vec_id),
         list_append(g.hist, {'rnk': g.it + 1, 'vec_id': w.vec_id,
                              'score': round(w.sc, 6)})
  FROM g, LATERAL (
    SELECT e.vec_id,
           0.7 * list_inner_product(
                     e.u, (SELECT u FROM un WHERE vec_id = 0))
           - 0.3 * coalesce(
                 (SELECT max(list_inner_product(e.u, s.u))
                  FROM un s
                  WHERE list_contains(g.sel, s.vec_id)), 0.0) AS sc
    FROM un e
    WHERE NOT list_contains(g.sel, e.vec_id)
    ORDER BY sc DESC, e.vec_id LIMIT 1) w
  WHERE g.it < 10
),
last AS (SELECT hist FROM g ORDER BY it DESC LIMIT 1)
SELECT CAST(u['rnk'] AS BIGINT) AS "rank",
       CAST(u['vec_id'] AS BIGINT) AS vec_id,
       u['score'] AS score
FROM (SELECT unnest(hist) AS u FROM last)
"""


def q_silhouette_score(sf_dir: str):
    """Per-cluster centroid silhouette of the k-means clustering
    (k=10) — the internal cluster-quality audit beside the external
    bcubed/ARI measures: one k x dim centroid broadcast, one data
    pass computing s = (b - a)/max(a, b) per point, per-cluster mean
    via the combiner.  ORACLED (round-5, upgraded from rows-only): the
    kmeans unroll feeds direct sqrt-of-squared-diff centroid distances
    (the silhouette stage's own float path) and the closed-form
    per-cluster mean.  Also pinned against a sequential numpy
    reference via tests/test_silhouette.py."""
    from ...stages.embcluster import kmeans, silhouette

    emb = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    C, _assigned = kmeans(emb, k=10, iters=10)
    return silhouette(emb, C)


def _kmeans_sql_prefix(k: int, iters: int) -> tuple[str, str]:
    """Exact SQL twin of stages/embcluster.kmeans: min-id init, per
    iteration an argmin assignment using the SAME expanded
    ``x.x - 2 x.c + c.c`` distance expression and a per-dim grouped
    mean; empty clusters keep their previous centroid.  Every chained
    CTE is MATERIALIZED (each is referenced by the next round, so an
    inlined chain would re-evaluate every earlier round).  Returns
    (prefix, final_centroid_cte)."""
    parts = [f"""WITH
emb AS MATERIALIZED (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e
                     FROM embeddings),
dims AS MATERIALIZED (SELECT vec_id, unnest(range(1, len(e) + 1)) AS j,
                unnest(e) AS val FROM emb),
xx AS MATERIALIZED (SELECT vec_id, list_inner_product(e, e) AS v
                    FROM emb),
c0 AS MATERIALIZED (
       SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cluster,
              e AS cent
       FROM (SELECT vec_id, e FROM emb ORDER BY vec_id LIMIT {k}))"""]
    prev = "c0"
    for t in range(1, iters + 1):
        parts.append(f"""
a{t} AS MATERIALIZED (SELECT vec_id, cluster FROM (
  SELECT em.vec_id, c.cluster,
         row_number() OVER (PARTITION BY em.vec_id
             ORDER BY xx.v - 2.0 * list_inner_product(em.e, c.cent)
                      + list_inner_product(c.cent, c.cent),
                      c.cluster) AS rn
  FROM emb em JOIN xx ON xx.vec_id = em.vec_id CROSS JOIN {prev} c)
  WHERE rn = 1),
m{t} AS MATERIALIZED (SELECT a.cluster, d.j, sum(d.val) / count(*) AS v
         FROM a{t} a JOIN dims d ON d.vec_id = a.vec_id
         GROUP BY 1, 2),
c{t} AS MATERIALIZED (SELECT p.cluster,
                coalesce(nc.cent, p.cent) AS cent
         FROM {prev} p
         LEFT JOIN (SELECT cluster, list(v ORDER BY j) AS cent
                    FROM m{t} GROUP BY 1) nc ON nc.cluster = p.cluster)""")
        prev = f"c{t}"
    return ",".join(parts), prev


def _final_assign_sql(cfin: str, name: str = "fin") -> str:
    return f"""
{name} AS MATERIALIZED (SELECT vec_id, cluster FROM (
  SELECT em.vec_id, c.cluster,
         row_number() OVER (PARTITION BY em.vec_id
             ORDER BY xx.v - 2.0 * list_inner_product(em.e, c.cent)
                      + list_inner_product(c.cent, c.cent),
                      c.cluster) AS rn
  FROM emb em JOIN xx ON xx.vec_id = em.vec_id CROSS JOIN {cfin} c)
  WHERE rn = 1)"""


def _kmeans_sql() -> str:
    pre, cfin = _kmeans_sql_prefix(10, 10)
    return (pre + "," + _final_assign_sql(cfin)
            + "\nSELECT vec_id, CAST(cluster AS BIGINT) AS cluster"
              " FROM fin")


def _silhouette_sql() -> str:
    pre, cfin = _kmeans_sql_prefix(10, 10)
    return pre + f""",
cd AS MATERIALIZED (SELECT cluster, unnest(range(1, len(cent) + 1)) AS j,
              unnest(cent) AS cv FROM {cfin}),
dist AS MATERIALIZED (SELECT d.vec_id, cd.cluster,
                sqrt(sum((d.val - cd.cv) * (d.val - cd.cv))) AS d
         FROM dims d JOIN cd ON cd.j = d.j
         GROUP BY 1, 2),
own AS MATERIALIZED (SELECT vec_id, cluster, d FROM (
          SELECT vec_id, cluster, d,
                 row_number() OVER (PARTITION BY vec_id
                                    ORDER BY d, cluster) AS rn
          FROM dist) WHERE rn = 1),
oth AS MATERIALIZED (SELECT o.vec_id, min(x.d) AS b
        FROM own o JOIN dist x ON x.vec_id = o.vec_id
                              AND x.cluster <> o.cluster
        GROUP BY 1),
s AS (SELECT o.cluster,
             CASE WHEN greatest(o.d, t.b) > 0
                  THEN (t.b - o.d) / greatest(o.d, t.b)
                  ELSE 0.0 END AS sv
      FROM own o JOIN oth t ON t.vec_id = o.vec_id)
SELECT CAST(cluster AS BIGINT) AS cluster,
       CAST(count(*) AS BIGINT) AS n,
       round(sum(sv) / count(*), 6) AS mean_s
FROM s GROUP BY 1 HAVING count(*) > 0"""


def _semdedup_sql() -> str:
    pre, cfin = _kmeans_sql_prefix(10, 5)
    return pre + "," + _final_assign_sql(cfin) + """,
un AS MATERIALIZED (SELECT e.vec_id,
              list_transform(e.e,
                  x -> x / greatest(sqrt(list_inner_product(e.e, e.e)),
                                    1e-12)) AS u
       FROM emb e),
drop0 AS MATERIALIZED (SELECT DISTINCT f2.vec_id
          FROM fin f1 JOIN fin f2 ON f2.cluster = f1.cluster
                                  AND f2.vec_id > f1.vec_id
          JOIN un u1 ON u1.vec_id = f1.vec_id
          JOIN un u2 ON u2.vec_id = f2.vec_id
          WHERE list_inner_product(u1.u, u2.u) >= 0.9)
SELECT f.vec_id, CAST(f.cluster AS BIGINT) AS cluster,
       (d.vec_id IS NULL) AS keep
FROM fin f LEFT JOIN drop0 d ON d.vec_id = f.vec_id"""


SQL_KMEANS_EMBED = _kmeans_sql()
SQL_SILHOUETTE_SCORE = _silhouette_sql()
SQL_SEMDEDUP = _semdedup_sql()


def q_topk_sim_pairs(sf_dir: str):
    """Global top-50 closest name pairs (threshold-free): the ER
    operator behind threshold selection — instead of gating at a fixed
    score, surface the best candidates corpus-wide.  Within-nation
    pair generation (the match_auc DuckDB JW kernel), then a
    distributed sort+limit on (score desc, names) — per-block partial
    top-k under the hood, never a full materialization."""
    from ...stages.shuffle import bucketed_map_groups

    cust = _rp(sf_dir, "customer", ["c_name", "c_nationkey"])

    def pairs_fn(df: pd.DataFrame) -> pd.DataFrame:
        import duckdb

        con = duckdb.connect()
        con.execute("PRAGMA threads=1")
        con.register("t", pa.Table.from_pandas(df, preserve_index=False))
        out = con.execute("""
            SELECT a.c_name AS name_a, b.c_name AS name_b,
                   round(jaro_winkler_similarity(a.c_name, b.c_name), 6)
                       AS jw
            FROM t a JOIN t b
              ON a.c_nationkey = b.c_nationkey AND a.c_name < b.c_name
            WHERE jaro_winkler_similarity(a.c_name, b.c_name) >= 0.8
            """).fetchdf()
        con.close()
        return out

    scored = bucketed_map_groups(
        cust, ["c_nationkey"], pairs_fn, num_buckets=32,
        empty_like=pd.DataFrame({"name_a": pd.Series([], dtype="string"),
                                 "name_b": pd.Series([], dtype="string"),
                                 "jw": pd.Series([], dtype="float64")}))
    return scored.sort(["jw", "name_a", "name_b"],
                       descending=[True, False, False]).limit(50)


SQL_TOPK_SIM_PAIRS = """
SELECT a.c_name AS name_a, b.c_name AS name_b,
       round(jaro_winkler_similarity(a.c_name, b.c_name), 6) AS jw
FROM customer a JOIN customer b
  ON a.c_nationkey = b.c_nationkey AND a.c_name < b.c_name
WHERE jaro_winkler_similarity(a.c_name, b.c_name) >= 0.8
ORDER BY round(jaro_winkler_similarity(a.c_name, b.c_name), 6) DESC,
         name_a, name_b
LIMIT 50
"""


QUERIES = {
    "knn_bruteforce": q_knn_bruteforce,
    "cosine_pairs": q_cosine_pairs,
    "centroid_agg": q_centroid_agg,
    "gh_means": q_gh_means,
    "mmr_select": q_mmr_select,
    "silhouette_score": q_silhouette_score,
    "topk_sim_pairs": q_topk_sim_pairs,
    "skyline": q_skyline,
    "embedding_dups": q_embedding_dups,
    "ann_ivf": q_ann_ivf,
    "kmeans_embed": q_kmeans_embed,
    "semdedup": q_semdedup,
    "pca_project": q_pca_project,
    "canopy_cluster": q_canopy_cluster,
    "dbscan_embed": q_dbscan_embed,
    "ann_pq": q_ann_pq,
    "ann_multiprobe": q_ann_multiprobe,
}

ORACLES = {
    "knn_bruteforce": SQL_KNN_BRUTEFORCE,
    "ann_ivf": SQL_ANN_IVF,
    "ann_multiprobe": SQL_ANN_MULTIPROBE,
    "ann_pq": SQL_ANN_PQ,
    "cosine_pairs": SQL_COSINE_PAIRS,
    "skyline": SQL_SKYLINE,
    "centroid_agg": SQL_CENTROID_AGG,
    "canopy_cluster": SQL_CANOPY_CLUSTER,
    "dbscan_embed": SQL_DBSCAN_EMBED,
    "embedding_dups": SQL_EMBEDDING_DUPS,
    "mmr_select": SQL_MMR_SELECT,
    "kmeans_embed": SQL_KMEANS_EMBED,
    "silhouette_score": SQL_SILHOUETTE_SCORE,
    "semdedup": SQL_SEMDEDUP,
    "gh_means": SQL_GH_MEANS,
    "topk_sim_pairs": SQL_TOPK_SIM_PAIRS,
}
