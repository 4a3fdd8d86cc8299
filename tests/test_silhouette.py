"""Centroid-silhouette pin: the distributed one-pass combiner must
equal a sequential numpy reference on the same k-means centroids."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"


def _reference(X: np.ndarray, C: np.ndarray):
    d = np.sqrt(((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2))
    own = d.argmin(axis=1)
    a = d[np.arange(len(X)), own]
    do = d.copy()
    do[np.arange(len(X)), own] = np.inf
    b = do.min(axis=1)
    s = np.where(np.maximum(a, b) > 0,
                 (b - a) / np.maximum(a, b), 0.0)
    rows = []
    for c in range(C.shape[0]):
        m = own == c
        if m.any():
            rows.append((c, int(m.sum()), round(float(s[m].mean()), 6)))
    return rows


def test_silhouette_matches_reference(ray_session):
    from reconcile_curation_in_cris_systems_ray.pipelines.queries.embedding import (
        q_silhouette_score,
    )
    from reconcile_curation_in_cris_systems_ray.stages.embcluster import (
        kmeans_reference,
    )

    got = q_silhouette_score(SF)
    emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)
    X = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
    C, _ = kmeans_reference(emb["vec_id"].to_numpy(np.int64), X,
                            k=10, iters=10)
    want = _reference(X, C)
    assert list(zip(got["cluster"], got["n"], got["mean_s"])) == want
