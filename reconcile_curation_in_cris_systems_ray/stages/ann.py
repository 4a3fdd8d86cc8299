"""Approximate-nearest-neighbor search over an embedding column.

- :func:`brute_force_topk` — the exact baseline: broadcast the query
  matrix once (``ray.put``), compute per-batch cosine via one NumPy
  matmul, keep per-batch top-k partials, reduce to global top-k with a
  single small groupby (partial top-k makes the shuffle k*queries
  rows per block, never the full score matrix).
- :func:`ivf_topk` — the scale path: IVF-style partitioning with
  deterministic seeded centroids; index assigns each vector to its
  nearest centroid (one pass), queries probe the ``n_probe`` nearest
  centroid partitions only.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import ray

from .relational import topk_per_group


def _as_matrix(col) -> np.ndarray:
    """(n, dim) float64 from a list<float> column — flatten the values
    buffer and reshape (uniform-length lists by construction), instead
    of a per-row to_pylist round-trip through Python objects."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    try:
        vals = col.flatten().to_numpy(zero_copy_only=False)
        n = len(col)
        if n and len(vals) % n == 0:
            return vals.reshape(n, len(vals) // n).astype(
                np.float64, copy=False)
    except (pa.ArrowInvalid, ValueError):
        pass
    return np.asarray(col.to_pylist(), dtype=np.float64)


def _normalize(m: np.ndarray) -> np.ndarray:
    return m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)


def brute_force_topk(ds, queries: np.ndarray, k: int = 10,
                     id_col: str = "vec_id", vec_col: str = "embedding",
                     metric: str = "cosine"):
    """Exact top-k per query row. Returns (query_id, vec_id, score)."""
    qm = _normalize(np.asarray(queries, dtype=np.float64)) \
        if metric == "cosine" else np.asarray(queries, dtype=np.float64)
    q_ref = ray.put(qm)

    def partial(batch: pa.Table) -> pa.Table:
        q = ray.get(q_ref)
        vecs = _as_matrix(batch.column(vec_col))
        if metric == "cosine":
            vecs = _normalize(vecs)
        sims = vecs @ q.T                      # (n, nq)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        kk = min(k, sims.shape[0])
        top = np.argpartition(-sims, kk - 1, axis=0)[:kk]  # (kk, nq)
        nq = q.shape[0]
        out_q = np.repeat(np.arange(nq, dtype=np.int64), kk)
        out_idx = top.T.reshape(-1)
        return pa.table({
            "query_id": pa.array(out_q),
            id_col: pa.array(ids[out_idx]),
            "score": pa.array(sims[out_idx, out_q]),
        })

    partials = ds.select_columns([id_col, vec_col]).map_batches(
        partial, batch_format="pyarrow")
    return topk_per_group(partials, ["query_id"], "score", k,
                          descending=True, num_buckets=16)


def _blocks_to_matrix(id_col: str, vec_col: str, *blocks):
    """Assemble (ids, L2-normalized matrix) from dataset block refs —
    runs as a remote task so the driver never holds the vectors."""
    ids = np.concatenate([
        b.column(id_col).to_numpy(zero_copy_only=False) for b in blocks])
    mat = np.concatenate([_as_matrix(b.column(vec_col)) for b in blocks])
    return ids, _normalize(mat)


def cosine_threshold_pairs(ds, threshold: float, id_col: str = "vec_id",
                           vec_col: str = "embedding"):
    """Exact all-pairs cosine similarity join: every (id_a < id_b) pair
    with cosine >= ``threshold``.  The brute-force BASELINE for
    embedding near-dup detection: the full normalized matrix is staged
    once in the object store (remote assembly + ``ray.put`` semantics
    via a task ref — never shipped per batch), and each batch computes
    one matmul of its rows against it, keeping only upper-triangle hits.

    Compute is O(n^2 d / batches) per task and broadcast memory is
    O(n d) per node — exact and fine to a few million vectors.  Above
    that, the scale path is hyperplane-LSH bucketing
    (``stages/dedup.py::embedding_dup_pairs``), which bounds candidate
    pairs instead of scoring all of them.
    """
    src = ds.select_columns([id_col, vec_col])
    mat_ref = ray.remote(_blocks_to_matrix).remote(
        id_col, vec_col, *src.to_arrow_refs())

    def pairs(batch: pa.Table) -> pa.Table:
        all_ids, m = ray.get(mat_ref)
        vecs = _normalize(_as_matrix(batch.column(vec_col)))
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        sims = vecs @ m.T                                   # (nb, n)
        hit = (sims >= threshold) & (ids[:, None] < all_ids[None, :])
        bi, oj = np.nonzero(hit)
        return pa.table({
            "id_a": pa.array(ids[bi], pa.int64()),
            "id_b": pa.array(all_ids[oj], pa.int64()),
        })

    out = src.map_batches(pairs, batch_format="pyarrow")
    return out.sort(["id_a", "id_b"])


def _hash_sample(batch: pa.Table, k: int, id_col: str,
                 vec_col: str) -> pa.Table:
    """Per-batch candidates for a deterministic sample: the ``k`` rows
    with the smallest DuckDB ``hash()`` of their id (``h``) and their
    vectors as float64 bytes (``vec``).  Empty batches give 0 rows."""
    from ..functions.similarity import hash_strings_fast

    h = hash_strings_fast(batch.column(id_col).cast(pa.string())) \
        .view(np.int64)
    sel = np.argpartition(h, k - 1)[:k] if len(batch) > k \
        else np.arange(len(batch))
    return pa.table({
        "h": pa.array(h[sel], pa.int64()),
        "vec": pa.array([v.tobytes() for v in
                         _as_matrix(batch.column(vec_col))[sel]],
                        pa.binary())})


def build_ivf_centroids(ds, n_centroids: int = 16,
                        vec_col: str = "embedding",
                        id_col: str = "vec_id") -> np.ndarray:
    """Deterministic centroids: the vectors with the ``n_centroids``
    smallest stable-hashed ids (a seeded sample without an extra pass
    ordering dependence), L2-normalized.  The id hash is DuckDB's
    ``hash()`` kernel (``hash_strings_fast``) viewed as int64, so the
    whole selection — and therefore the whole IVF plan — replays
    exactly in the SQL oracle (``SQL_ANN_IVF``)."""
    rows = (ds.select_columns([id_col, vec_col])
            .map_batches(partial(_hash_sample, k=n_centroids, id_col=id_col,
                                 vec_col=vec_col), batch_format="pyarrow")
            .sort("h").limit(n_centroids).take_all())
    mat = np.stack([np.frombuffer(r["vec"], dtype=np.float64) for r in rows])
    return _normalize(mat)


def ivf_topk(ds, queries: np.ndarray, k: int = 10, n_centroids: int = 16,
             n_probe: int = 4, id_col: str = "vec_id",
             vec_col: str = "embedding"):
    """IVF-partitioned cosine top-k (approximate; probes n_probe lists).

    Returns (query_id, vec_id, score).  Recall vs brute force is
    measured in tests; at scale the assignment column doubles as the
    Parquet partition key for the persisted index.
    """
    centroids = build_ivf_centroids(ds, n_centroids, vec_col, id_col)
    c_ref = ray.put(centroids)
    qm = _normalize(np.asarray(queries, dtype=np.float64))
    probe = np.argsort(-(qm @ centroids.T), axis=1)[:, :n_probe]  # (nq,p)
    probe_ref = ray.put(probe)
    q_ref = ray.put(qm)

    def partial(batch: pa.Table) -> pa.Table:
        cents = ray.get(c_ref)
        q = ray.get(q_ref)
        probes = ray.get(probe_ref)
        vecs = _normalize(_as_matrix(batch.column(vec_col)))
        assign = np.argmax(vecs @ cents.T, axis=1)          # (n,)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        out_q, out_i, out_s = [], [], []
        sims_all = vecs @ q.T                                # (n, nq)
        for qi in range(q.shape[0]):
            mask = np.isin(assign, probes[qi])
            if not mask.any():
                continue
            sims = sims_all[mask, qi]
            kk = min(k, sims.shape[0])
            top = np.argpartition(-sims, kk - 1)[:kk]
            sel_ids = ids[mask][top]
            out_q.extend([qi] * kk)
            out_i.extend(sel_ids.tolist())
            out_s.extend(sims[top].tolist())
        return pa.table({
            "query_id": pa.array(out_q, pa.int64()),
            id_col: pa.array(out_i),
            "score": pa.array(out_s, pa.float64()),
        })

    partials = ds.select_columns([id_col, vec_col]).map_batches(
        partial, batch_format="pyarrow")
    return topk_per_group(partials, ["query_id"], "score", k,
                          descending=True, num_buckets=16)


def pq_topk(ds, queries: np.ndarray, k: int = 10, m_sub: int = 8,
            n_cent: int = 16, train_n: int = 256, iters: int = 8,
            id_col: str = "vec_id", vec_col: str = "embedding"):
    """Product-quantization ANN (Jegou, Douze & Schmid 2011) — the
    memory-compression scale path next to IVF: vectors become m_sub
    uint8 codes (64 dims -> 8 bytes here), queries scan codes with
    per-subspace lookup tables (ADC), exact distances never touch the
    raw matrix after encoding.

    Training follows PQ practice: a deterministic sample (the
    ``train_n`` smallest DuckDB-``hash()``ed ids — the IVF-centroid
    discipline, SQL-replayable like build_ivf_centroids) is broadcast
    once and each subspace's codebook is
    Lloyd-iterated on the driver (train_n x dims/m_sub floats — tiny);
    encode and query are map-only over the broadcast codebooks.
    Returns (query_id, vec_id, score) with score = NEGATED ADC
    distance so the shared top-k keeps the nearest."""
    from .relational import topk_per_group

    rows = (ds.select_columns([id_col, vec_col])
            .map_batches(partial(_hash_sample, k=train_n, id_col=id_col,
                                 vec_col=vec_col), batch_format="pyarrow")
            .sort("h").limit(train_n).take_all())
    train = np.stack([np.frombuffer(r["vec"], dtype=np.float64)
                      for r in rows])
    d = train.shape[1]
    sub_d = d // m_sub

    books = []
    for j in range(m_sub):
        X = train[:, j * sub_d:(j + 1) * sub_d]
        C = X[:n_cent].copy()          # deterministic init: sample order
        for _ in range(iters):
            d2 = ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
            a = d2.argmin(axis=1)
            for c in range(n_cent):
                m = a == c
                if m.any():
                    C[c] = X[m].mean(axis=0)
        books.append(C)
    books_ref = ray.put(np.stack(books))          # (m_sub, n_cent, sub_d)

    def encode(batch: pa.Table) -> pa.Table:
        B = ray.get(books_ref)
        X = _as_matrix(batch.column(vec_col))
        cols = {"vec_id": batch.column(id_col)}
        for j in range(m_sub):
            S = X[:, j * sub_d:(j + 1) * sub_d]
            d2 = ((S[:, None, :] - B[j][None, :, :]) ** 2).sum(axis=2)
            cols[f"c{j}"] = pa.array(d2.argmin(axis=1).astype(np.uint8))
        return pa.table(cols)

    codes = ds.select_columns([id_col, vec_col]).map_batches(
        encode, batch_format="pyarrow")

    qm = np.asarray(queries, dtype=np.float64)
    q_ref = ray.put(qm)

    def adc(batch: pa.Table) -> pa.Table:
        B = ray.get(books_ref)
        Q = ray.get(q_ref)
        nq = Q.shape[0]
        # per-query LUT: (nq, m_sub, n_cent)
        lut = np.stack([((Q[:, j * sub_d:(j + 1) * sub_d][:, None, :]
                          - B[j][None, :, :]) ** 2).sum(axis=2)
                        for j in range(m_sub)], axis=1)
        n = batch.num_rows
        dist = np.zeros((n, nq))
        for j in range(m_sub):
            cj = batch.column(f"c{j}").to_numpy(zero_copy_only=False)
            dist += lut[:, j, :][:, cj].T        # (n, nq)
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        kk = min(k, n)
        top = np.argpartition(dist, kk - 1, axis=0)[:kk]
        out_q = np.repeat(np.arange(nq, dtype=np.int64), kk)
        out_idx = top.T.reshape(-1)
        return pa.table({
            "query_id": pa.array(out_q),
            "vec_id": pa.array(ids[out_idx]),
            "score": pa.array(-dist[out_idx, out_q])})

    partials = codes.map_batches(adc, batch_format="pyarrow")
    return topk_per_group(partials, ["query_id"], "score", k,
                          descending=True, num_buckets=16)


def multiprobe_topk(ds, queries: np.ndarray, k: int = 10,
                    n_planes: int = 6, n_probes: int = 24, seed: int = 7,
                    id_col: str = "vec_id", vec_col: str = "embedding"):
    """Multi-probe hyperplane-LSH cosine top-k (Lv et al. 2007): one
    hash table instead of many — each query probes its own sign-bit
    bucket PLUS the buckets reached by flipping its least-confident
    bits (smallest |q·r| margins, singles then cheapest pairs, in
    increasing total-margin order).  Recall comparable to multi-table
    LSH at 1/n_tables the index memory — the knob that matters when
    the index itself must live in the object store at 10^12 rows.

    Distributed shape mirrors :func:`ivf_topk`: planes + per-query
    probe lists broadcast once (``ray.put``), each batch computes its
    rows' codes with one matmul + sign, candidate rows score exact
    cosine, per-batch partial top-k, one small grouped finish.
    Returns (query_id, vec_id, score)."""
    qm = _normalize(np.asarray(queries, dtype=np.float64))
    nq, dim = qm.shape
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((n_planes, dim))
    weights = (np.int64(1) << np.arange(n_planes, dtype=np.int64))

    margins = qm @ planes.T                           # (nq, h)
    base = (margins > 0).astype(np.int64) @ weights   # (nq,)
    probe_rows = []
    for qi in range(nq):
        cost = np.abs(margins[qi])
        order = np.argsort(cost, kind="stable")       # cheapest first
        cands = [(0.0, np.int64(0))]
        cands += [(cost[j], weights[j]) for j in order]
        cheap = order[:6]
        cands += [(cost[a] + cost[b], weights[a] | weights[b])
                  for i, a in enumerate(cheap) for b in cheap[i + 1:]]
        cands.sort(key=lambda t: t[0])
        masks = np.array([m for _, m in cands[:n_probes]], dtype=np.int64)
        probe_rows.append(base[qi] ^ masks)
    probes_ref = ray.put(probe_rows)
    planes_ref = ray.put(planes)
    q_ref = ray.put(qm)

    def partial(batch: pa.Table) -> pa.Table:
        pl = ray.get(planes_ref)
        q = ray.get(q_ref)
        probes = ray.get(probes_ref)
        vecs = _normalize(_as_matrix(batch.column(vec_col)))
        codes = (vecs @ pl.T > 0).astype(np.int64) @ weights   # (n,)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        sims_all = vecs @ q.T                                  # (n, nq)
        out_q, out_i, out_s = [], [], []
        for qi in range(q.shape[0]):
            mask = np.isin(codes, probes[qi])
            if not mask.any():
                continue
            sims = sims_all[mask, qi]
            kk = min(k, sims.shape[0])
            top = np.argpartition(-sims, kk - 1)[:kk]
            out_q.extend([qi] * kk)
            out_i.extend(ids[mask][top].tolist())
            out_s.extend(sims[top].tolist())
        return pa.table({
            "query_id": pa.array(out_q, pa.int64()),
            id_col: pa.array(out_i),
            "score": pa.array(out_s, pa.float64()),
        })

    partials = ds.select_columns([id_col, vec_col]).map_batches(
        partial, batch_format="pyarrow")
    return topk_per_group(partials, ["query_id"], "score", k,
                          descending=True, num_buckets=16)
