"""Sequential-equivalence pin for canopy_cluster (rows-only at the
driver): a pure-Python greedy canopy pass per source must equal the
distributed result exactly at sf0.001."""

from __future__ import annotations

import re

import pandas as pd
import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"
T1, T2 = 0.5, 0.75


def _jac(a: set, b: set) -> float:
    u = len(a | b)
    return len(a & b) / u if u else 0.0


def _sequential_canopies(df: pd.DataFrame) -> pd.DataFrame:
    rows = []
    for _, g in df.groupby("source"):
        g = g.sort_values("doc_id")
        toks = {r.doc_id: set(re.findall(r"[a-z0-9]+",
                                         (r.text or "").lower()))
                for r in g.itertuples()}
        ids = list(g["doc_id"])
        active = dict.fromkeys(ids, True)
        for cid in ids:
            if not active[cid]:
                continue
            for did in ids:
                if not active[did]:
                    continue
                s = 1.0 if did == cid else _jac(toks[cid], toks[did])
                if s >= T1:
                    rows.append((did, cid))
                if s >= T2:
                    active[did] = False
            active[cid] = False
    return (pd.DataFrame(rows, columns=["doc_id", "canopy_id"])
            .sort_values(["canopy_id", "doc_id"]).reset_index(drop=True))


def test_canopy_matches_sequential(ray_session):
    from reconcile_curation_in_cris_systems_ray.pipelines.queries.embedding import (
        q_canopy_cluster,
    )

    got = (q_canopy_cluster(SF).to_pandas()
           .astype({"doc_id": "int64", "canopy_id": "int64"})
           .sort_values(["canopy_id", "doc_id"]).reset_index(drop=True))
    want = _sequential_canopies(
        pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text", "source"]).to_pandas())
    assert len(got) > 0
    pd.testing.assert_frame_equal(got, want)
    # every doc appears in at least one canopy (T1 includes the center)
    n_docs = pq.read_metadata(f"{SF}/documents.parquet").num_rows
    assert got["doc_id"].nunique() == n_docs
