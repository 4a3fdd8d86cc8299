"""r_swoosh pin: the per-block merge loop must equal an independent
sequential R-Swoosh (buffer-scan formulation) on the same blocks."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"


def _independent_swoosh(ids, texts):
    """Classic R-Swoosh: I = input queue, I' = output buffer; pop a
    record, scan I' for a match; on match remove it, merge, push the
    merge back onto I; else move the record to I'."""
    queue = [(int(i), frozenset(str(t).lower().split()), [int(i)])
             for i, t in sorted(zip(ids, texts), key=lambda p: p[0])]
    done = []
    while queue:
        rid, tk, mem = queue.pop(0)
        hit = None
        for j, (oid, otk, omem) in enumerate(done):
            u = len(tk | otk)
            if u and len(tk & otk) / u >= 0.5:
                hit = j
                break
        if hit is None:
            done.append((rid, tk, mem))
        else:
            oid, otk, omem = done.pop(hit)
            queue.insert(0, (min(rid, oid), frozenset(tk | otk),
                             mem + omem))
    out = {}
    for rid, _tk, mem in done:
        for m in mem:
            out[m] = rid
    return out


def test_swoosh_matches_reference(ray_session):
    from reconcile_curation_in_cris_systems_ray.pipelines.queries.er import (
        q_r_swoosh,
    )

    got = q_r_swoosh(SF).to_pandas()
    docs = pq.read_table(f"{SF}/documents.parquet").to_pandas()
    want = {}
    for _, g in docs.groupby("source"):
        want.update(_independent_swoosh(g["doc_id"].to_numpy(),
                                        g["text"].to_numpy()))
    assert dict(zip(got["doc_id"], got["entity_id"])) == want
    # entity ids are member minima
    m = got.groupby("entity_id")["doc_id"].min()
    assert (m.index == m.values).all()
