"""Recall + determinism pins for product-quantization ANN."""

from __future__ import annotations

import numpy as np
import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"


def _exact_top10(X, ids, queries):
    out = []
    for q in queries:
        d = ((X - q[None, :]) ** 2).sum(axis=1)
        out.append(set(ids[np.argsort(d, kind="stable")[:10]]))
    return out


def test_pq_recall_vs_exact(ray_session):
    from reconcile_curation_in_cris_systems_ray.pipelines.queries.embedding import (
        q_ann_pq,
    )

    got = q_ann_pq(SF).to_pandas()
    t = pq.read_table(f"{SF}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = np.array(t.column("vec_id").to_pylist(), dtype=np.int64)
    X = np.array(t.column("embedding").to_pylist(), dtype=np.float64)
    order = np.argsort(ids)
    queries = X[order][:5]
    exact = _exact_top10(X, ids, queries)
    recalls = []
    for qi in range(5):
        approx = set(got.loc[got["query_id"] == qi, "vec_id"]
                     .astype(np.int64))
        assert len(approx) == 10
        recalls.append(len(approx & exact[qi]) / 10.0)
        # the query vector itself must be its own nearest neighbor even
        # under quantization (its code distance to itself is minimal)
        assert int(ids[order][qi]) in approx
    assert np.mean(recalls) >= 0.45, recalls


def test_pq_deterministic(ray_session):
    from reconcile_curation_in_cris_systems_ray.pipelines.queries.embedding import (
        q_ann_pq,
    )

    a = q_ann_pq(SF).to_pandas().sort_values(
        ["query_id", "vec_id"]).reset_index(drop=True)
    b = q_ann_pq(SF).to_pandas().sort_values(
        ["query_id", "vec_id"]).reset_index(drop=True)
    import pandas as pd

    pd.testing.assert_frame_equal(a, b)
