"""mmr_select pin: the distributed per-round partial-argmax greedy
must equal a sequential numpy MMR reference exactly (same lambda,
same (score desc, vec_id asc) tie rule)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"


def _reference_mmr(emb: pd.DataFrame, k: int = 10, lam: float = 0.7):
    m = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    ids = emb["vec_id"].to_numpy(np.int64)
    q = m[np.nonzero(ids == 0)[0][0]]
    rel = m @ q
    chosen: list[int] = []
    sel = np.zeros((0, m.shape[1]))
    out = []
    for _ in range(k):
        mask = ~np.isin(ids, chosen)
        pen = m[mask] @ sel.T
        div = pen.max(axis=1) if pen.shape[1] else np.zeros(mask.sum())
        sc = lam * rel[mask] - (1.0 - lam) * div
        cand_ids = ids[mask]
        i = np.lexsort((cand_ids, -sc))[0]
        out.append((int(cand_ids[i]), round(float(sc[i]), 6)))
        chosen.append(int(cand_ids[i]))
        sel = np.vstack([sel, m[np.nonzero(ids == cand_ids[i])[0][0]]])
    return out


def test_mmr_matches_sequential_reference(ray_session):
    from reconcile_curation_in_cris_systems_ray.pipelines.queries.embedding import (
        q_mmr_select,
    )

    got = q_mmr_select(SF)
    emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    want = _reference_mmr(emb)
    assert list(zip(got["vec_id"], got["score"])) == want
    assert got["rank"].tolist() == list(range(1, 11))
