"""Sequential reference pin for the composed DBSCAN pipeline."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"
EPS_COS = 0.35
MIN_SAMPLES = 3


def _sequential_dbscan(ids: np.ndarray, X: np.ndarray) -> pd.DataFrame:
    Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
    S = Xn @ Xn.T
    np.fill_diagonal(S, -1.0)
    adj = S >= EPS_COS
    deg = adj.sum(axis=1)
    is_core = deg + 1 >= MIN_SAMPLES
    # components of the core-core subgraph, label = min core vec_id
    n = len(ids)
    label = {}
    for s in np.argsort(ids):
        if not is_core[s] or ids[s] in label:
            continue
        stack, comp = [s], []
        seen = {s}
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in np.nonzero(adj[u] & is_core)[0]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        lab = int(min(ids[u] for u in comp))
        for u in comp:
            label[ids[u]] = lab
    rows = []
    for i in range(n):
        if is_core[i]:
            rows.append((ids[i], label[ids[i]], "core"))
        else:
            core_nb = [label[ids[v]] for v in np.nonzero(adj[i])[0]
                       if is_core[v]]
            if core_nb:
                rows.append((ids[i], min(core_nb), "border"))
            else:
                rows.append((ids[i], -1, "noise"))
    return (pd.DataFrame(rows, columns=["vec_id", "cluster", "role"])
            .sort_values("vec_id").reset_index(drop=True))


def test_dbscan_matches_sequential(ray_session):
    from reconcile_curation_in_cris_systems_ray.pipelines.queries.embedding import (
        q_dbscan_embed,
    )

    got = (q_dbscan_embed(SF).to_pandas()
           .astype({"vec_id": "int64", "cluster": "int64"})
           .sort_values("vec_id").reset_index(drop=True))
    t = pq.read_table(f"{SF}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = np.array(t.column("vec_id").to_pylist(), dtype=np.int64)
    X = np.array(t.column("embedding").to_pylist(), dtype=np.float64)
    want = _sequential_dbscan(ids, X)
    assert len(got) == len(ids)
    assert set(got["role"]) >= {"core", "noise"}
    pd.testing.assert_frame_equal(got, want)
