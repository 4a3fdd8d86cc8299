"""Distributed k-means (Lloyd's) and SemDeDup-style within-cluster
semantic deduplication over an embedding column.

The 100-TB shape of both operators:

- :func:`kmeans` is the textbook distributed Lloyd's iteration — the
  (tiny) k x dim centroid matrix is broadcast once per iteration via
  ``ray.put``, every batch computes assignments and a k-row partial
  (per-cluster vector sum + count) with one matmul, and only those
  k-row partials travel to the driver (k x n_blocks rows per
  iteration, independent of the data size).  The narrow
  (id, vector) projection is materialized ONCE so the object store,
  not repeated parquet scans, feeds the iterations — the standard
  trade for iterative algorithms.
- :func:`semdedup` implements the SemDeDup recipe (Abbas et al. 2023,
  arXiv:2303.09540): cluster first, then compare pairs ONLY within a
  cluster.  The whole point of the design is that k grows with the
  corpus so per-cluster pairwise work stays bounded; the within-
  cluster pass rides the same bucketed exchange as every other
  co-location in this repo.

Reference analogue: the reference's dedup/validation stages operate on
string similarity (`name_matching.py`); these extend the same
pair-generation discipline to embedding space, which the reference
does not cover — included as first-class LLM-curation operators.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from .shuffle import bucketed_map_groups


def _matrix(col) -> np.ndarray:
    """(n, dim) float64 matrix from a list<float> Arrow column —
    zero-copy flatten of the values buffer, reshaped (uniform-length
    lists; embedding columns by construction)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    vals = col.flatten().to_numpy(zero_copy_only=False)
    n = len(col)
    if n == 0:
        return np.zeros((0, 0), dtype=np.float64)
    dim = len(vals) // n
    return vals.reshape(n, dim).astype(np.float64, copy=False)


def _pd_matrix(s: pd.Series) -> np.ndarray:
    """(n, dim) matrix from a pandas object Series of vectors."""
    return np.vstack([np.asarray(v, dtype=np.float64) for v in s])


def _init_centroids(ds, k: int, id_col: str, vec_col: str) -> np.ndarray:
    """Deterministic init: the vectors of the k smallest ids.  Each
    batch forwards its own k-smallest rows, so the driver merge sees at
    most k x n_blocks rows — bounded, data-size independent."""

    def part(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        idx = np.argsort(ids, kind="stable")[:k]
        return t.take(pa.array(idx))

    rows = ds.map_batches(part, batch_format="pyarrow").take_all()
    rows.sort(key=lambda r: r[id_col])
    return np.vstack([np.asarray(r[vec_col], dtype=np.float64)
                      for r in rows[:k]])


def _assign(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """argmin_j ||x - c_j||^2 per row; ties go to the lowest cluster
    index (np.argmin), matching the single-node reference exactly."""
    d2 = (X * X).sum(axis=1)[:, None] - 2.0 * (X @ C.T) \
        + (C * C).sum(axis=1)[None, :]
    return d2.argmin(axis=1)


def kmeans(ds, k: int = 10, iters: int = 10, id_col: str = "vec_id",
           vec_col: str = "embedding"):
    """Lloyd's k-means; returns (centroids, assignment Dataset of
    (id_col, cluster)).  Per iteration: one broadcast (k x dim), one
    pass over the data, k-row partials back.  Empty clusters keep
    their previous centroid (deterministic)."""
    narrow = ds.select_columns([id_col, vec_col]).materialize()
    C = _init_centroids(narrow, k, id_col, vec_col)
    dim = C.shape[1]

    for _ in range(iters):
        ref = ray.put(C)

        def part(t: pa.Table) -> pa.Table:
            cents = ray.get(ref)
            X = _matrix(t.column(vec_col))
            if X.shape[0] == 0:
                return pa.table({
                    "cluster": pa.array([], type=pa.int64()),
                    "s": pa.array([], type=pa.list_(pa.float64(), dim)),
                    "n": pa.array([], type=pa.int64()),
                })
            a = _assign(X, cents)
            onehot = np.zeros((k, X.shape[0]), dtype=np.float64)
            onehot[a, np.arange(X.shape[0])] = 1.0
            sums = onehot @ X                       # (k, dim)
            counts = np.bincount(a, minlength=k).astype(np.int64)
            return pa.table({
                "cluster": pa.array(np.arange(k, dtype=np.int64)),
                "s": pa.FixedSizeListArray.from_arrays(
                    pa.array(sums.ravel()), dim),
                "n": pa.array(counts),
            })

        parts = narrow.map_batches(part, batch_format="pyarrow").take_all()
        sums = np.zeros((k, dim), dtype=np.float64)
        counts = np.zeros(k, dtype=np.int64)
        for r in parts:
            sums[r["cluster"]] += np.asarray(r["s"], dtype=np.float64)
            counts[r["cluster"]] += r["n"]
        nz = counts > 0
        C = np.where(nz[:, None], sums / np.maximum(counts, 1)[:, None], C)

    final_ref = ray.put(C)

    def assign_batch(t: pa.Table) -> pa.Table:
        cents = ray.get(final_ref)
        X = _matrix(t.column(vec_col))
        if X.shape[0] == 0:
            return pa.table({id_col: t.column(id_col),
                             "cluster": pa.array([], type=pa.int64())})
        a = _assign(X, cents)
        return pa.table({id_col: t.column(id_col),
                         "cluster": pa.array(a.astype(np.int64))})

    return C, narrow.map_batches(assign_batch, batch_format="pyarrow")


def kmeans_reference(ids: np.ndarray, X: np.ndarray, k: int,
                     iters: int) -> tuple[np.ndarray, np.ndarray]:
    """Single-node numpy reference with identical semantics (init =
    k smallest ids, lowest-index tie-break, empty clusters frozen).
    Used by tests to pin the distributed path."""
    order = np.argsort(ids, kind="stable")
    C = X[order[:k]].astype(np.float64)
    for _ in range(iters):
        a = _assign(X, C)
        for j in range(k):
            m = a == j
            if m.any():
                C[j] = X[m].mean(axis=0)
    return C, _assign(X, C)


def semdedup(ds, k: int = 10, iters: int = 10, threshold: float = 0.9,
             id_col: str = "vec_id", vec_col: str = "embedding",
             num_buckets: int = 64):
    """SemDeDup: k-means first, then within each cluster drop any
    vector whose cosine similarity to a LOWER-id cluster member meets
    ``threshold`` (min-id representative — the same keep rule as
    exact_dedup / embedding_dup_pairs).  Pairwise work is confined to
    single clusters; k is chosen so clusters stay bounded (the
    SemDeDup scaling premise).  Returns (id_col, cluster, keep)."""
    C, _ = kmeans(ds, k=k, iters=iters, id_col=id_col, vec_col=vec_col)
    ref = ray.put(C)

    def tag(t: pa.Table) -> pa.Table:
        cents = ray.get(ref)
        X = _matrix(t.column(vec_col))
        if X.shape[0] == 0:
            return t.append_column("cluster", pa.array([], type=pa.int64()))
        a = _assign(X, cents)
        return t.append_column("cluster", pa.array(a.astype(np.int64)))

    tagged = ds.select_columns([id_col, vec_col]).map_batches(
        tag, batch_format="pyarrow")

    def dedup_group(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for c, g in df.groupby("cluster", sort=False):
            ids = g[id_col].to_numpy()
            X = _pd_matrix(g[vec_col])
            X = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True),
                               1e-12)
            order = np.argsort(ids, kind="stable")
            S = X[order] @ X[order].T
            # drop j when any i<j (by id) in the cluster is >= threshold
            sim = np.triu(S >= threshold, k=1).any(axis=0)
            keep = np.ones(len(ids), dtype=bool)
            keep[order[sim]] = False
            outs.append(pd.DataFrame({id_col: ids, "cluster": int(c),
                                      "keep": keep}))
        if not outs:
            return pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                                 "cluster": pd.Series([], dtype="int64"),
                                 "keep": pd.Series([], dtype="bool")})
        return pd.concat(outs, ignore_index=True)

    empty = pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                          "cluster": pd.Series([], dtype="int64"),
                          "keep": pd.Series([], dtype="bool")})
    return bucketed_map_groups(tagged, ["cluster"], dedup_group,
                               num_buckets=num_buckets, empty_like=empty)


def pca(ds, k: int = 8, id_col: str = "vec_id",
        vec_col: str = "embedding"):
    """Distributed PCA projection (classic dimensionality reduction for
    embedding curation, e.g. before clustering or ANN indexing).

    Plan: ONE shuffle-free combiner pass accumulates per-batch moment
    partials ``(n, Σx, Σ x xᵀ)`` — each partial is O(dim²) floats,
    data-size independent — merged on the driver into the d×d
    covariance; ``eigh`` there (d is the embedding width, tiny); then
    one broadcast of the (d, k) component matrix and a map pass
    projects every vector.  Nothing wide ever moves: the pattern is
    exactly the centroid_agg re-aggregable-moments combiner
    lifted to matrix moments.

    Determinism: eigenvector signs are fixed by making each
    component's largest-|coefficient| entry positive (ties broken by
    lowest index via argmax), so two runs — and the single-node
    reference in tests — produce identical projections.

    Returns ``(components (d,k), mean (d,), explained_var (k,),
    Dataset(id_col, p0..p{k-1}))``.
    """
    narrow = ds.select_columns([id_col, vec_col]).materialize()

    def part(t: pa.Table) -> pa.Table:
        X = _matrix(t.column(vec_col))
        n, d = X.shape
        if n == 0:
            return pa.table({"n": pa.array([], pa.int64()),
                             "s": pa.array([], pa.list_(pa.float64())),
                             "ss": pa.array([], pa.list_(pa.float64()))})
        return pa.table({
            "n": pa.array([n], pa.int64()),
            "s": pa.array([X.sum(axis=0).tolist()],
                          pa.list_(pa.float64())),
            "ss": pa.array([(X.T @ X).ravel().tolist()],
                           pa.list_(pa.float64())),
        })

    parts = narrow.map_batches(part, batch_format="pyarrow").take_all()
    n_total = sum(r["n"] for r in parts)
    if n_total == 0:
        raise ValueError("pca: empty input")
    d = len(parts[0]["s"])
    s = np.zeros(d)
    ss = np.zeros((d, d))
    for r in parts:
        s += np.asarray(r["s"], dtype=np.float64)
        ss += np.asarray(r["ss"], dtype=np.float64).reshape(d, d)
    mean = s / n_total
    cov = (ss - n_total * np.outer(mean, mean)) / max(n_total - 1, 1)
    evals, evecs = np.linalg.eigh(cov)          # ascending
    order = np.argsort(evals, kind="stable")[::-1][:k]
    W = evecs[:, order]                          # (d, k)
    explained = evals[order]
    # deterministic sign: largest-|coef| entry of each component > 0
    flip = np.sign(W[np.abs(W).argmax(axis=0), np.arange(W.shape[1])])
    flip[flip == 0] = 1.0
    W = W * flip[None, :]

    ref = ray.put((mean, W))

    def project(t: pa.Table) -> pa.Table:
        m, comp = ray.get(ref)
        X = _matrix(t.column(vec_col))
        cols = {id_col: t.column(id_col)}
        if X.shape[0] == 0:
            for j in range(comp.shape[1]):
                cols[f"p{j}"] = pa.array([], pa.float64())
            return pa.table(cols)
        P = (X - m[None, :]) @ comp
        for j in range(comp.shape[1]):
            cols[f"p{j}"] = pa.array(P[:, j])
        return pa.table(cols)

    return W, mean, explained, narrow.map_batches(
        project, batch_format="pyarrow")


def pca_reference(X: np.ndarray, k: int):
    """Single-node numpy PCA with identical semantics (covariance
    eigh, descending eigenvalues, largest-|coef|-positive signs)."""
    mean = X.mean(axis=0)
    Xc = X - mean
    cov = (Xc.T @ Xc) / max(X.shape[0] - 1, 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals, kind="stable")[::-1][:k]
    W = evecs[:, order]
    flip = np.sign(W[np.abs(W).argmax(axis=0), np.arange(W.shape[1])])
    flip[flip == 0] = 1.0
    W = W * flip[None, :]
    return W, mean, evals[order], Xc @ W


def silhouette(ds, C: np.ndarray, id_col: str = "vec_id",
               vec_col: str = "embedding"):
    """Centroid silhouette (the simplified/medoid-free variant used
    at scale — full silhouette is O(n^2)): per point a = distance to
    its own centroid, b = min distance to any OTHER centroid,
    s = (b - a) / max(a, b); returned as per-cluster (n, mean_s)
    via the combiner.  One k x dim broadcast, one data pass."""
    k, dim = C.shape
    ref = ray.put(C)

    def part(t: pa.Table) -> pa.Table:
        cents = ray.get(ref)
        X = _matrix(t.column(vec_col))
        if X.shape[0] == 0:
            return pa.table({"cluster": pa.array([], type=pa.int64()),
                             "n": pa.array([], type=pa.int64()),
                             "ssum": pa.array([], type=pa.float64())})
        d2 = ((X[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        d = np.sqrt(d2)
        own = d.argmin(axis=1)
        a = d[np.arange(len(X)), own]
        d_other = d.copy()
        d_other[np.arange(len(X)), own] = np.inf
        b = d_other.min(axis=1)
        s = (b - a) / np.maximum(a, b)
        s = np.where(np.maximum(a, b) > 0, s, 0.0)
        cnt = np.bincount(own, minlength=k).astype(np.int64)
        ssum = np.bincount(own, weights=s, minlength=k)
        return pa.table({"cluster": pa.array(np.arange(k, dtype=np.int64)),
                         "n": pa.array(cnt),
                         "ssum": pa.array(ssum)})

    parts = ds.select_columns([id_col, vec_col]).map_batches(
        part, batch_format="pyarrow").to_pandas()
    g = parts.groupby("cluster", as_index=False)[["n", "ssum"]].sum()
    g = g[g["n"] > 0]
    return pd.DataFrame({"cluster": g["cluster"].to_numpy(np.int64),
                         "n": g["n"].to_numpy(np.int64),
                         "mean_s": np.round(
                             g["ssum"].to_numpy() / g["n"].to_numpy(), 6)})
