"""Brute-force pin for the ncd_pairs query (rows-only at the driver).

Recomputes every within-source, |n_chars diff| <= 2 pair's normalized
compression distance with a plain double loop over pandas rows and
asserts frame equality with the distributed result at sf0.001.
"""

from __future__ import annotations

import zlib

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"


def _brute_ncd(df: pd.DataFrame) -> pd.DataFrame:
    rows = []
    for _, g in df.groupby("source"):
        recs = g.sort_values("doc_id").to_dict("records")
        for i in range(len(recs)):
            for j in range(i + 1, len(recs)):
                a, b = recs[i], recs[j]
                if abs(int(a["n_chars"]) - int(b["n_chars"])) > 2:
                    continue
                ra = (a["text"] or "").encode("utf-8", "surrogatepass")
                rb = (b["text"] or "").encode("utf-8", "surrogatepass")
                ca = len(zlib.compress(ra, 9))
                cb = len(zlib.compress(rb, 9))
                # the distributed op concatenates in (shorter, longer)
                # n_chars order (ties by doc_id), ids emitted min/max
                if (int(a["n_chars"]), a["doc_id"]) <= (int(b["n_chars"]),
                                                        b["doc_id"]):
                    cab = len(zlib.compress(ra + rb, 9))
                else:
                    cab = len(zlib.compress(rb + ra, 9))
                ncd = (cab - min(ca, cb)) / max(ca, cb)
                rows.append((min(a["doc_id"], b["doc_id"]),
                             max(a["doc_id"], b["doc_id"]),
                             round(ncd, 6)))
    out = pd.DataFrame(rows, columns=["id_a", "id_b", "ncd"])
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def test_ncd_pairs_matches_brute_force(ray_session):
    from reconcile_curation_in_cris_systems_ray.pipelines.queries.dedup import (
        q_ncd_pairs,
    )

    got = q_ncd_pairs(SF).to_pandas() \
        .sort_values(["id_a", "id_b"]).reset_index(drop=True)
    want = _brute_ncd(
        pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text", "source", "n_chars"])
        .to_pandas())
    assert len(got) == len(want) and len(got) > 0
    pd.testing.assert_frame_equal(
        got.astype({"id_a": "int64", "id_b": "int64"}), want,
        check_exact=False, atol=1e-9)


def test_ncd_identical_texts_near_zero(ray_session):
    # NCD of a string with itself is near 0 (compressor overhead only)
    rng = np.random.default_rng(7)
    s = bytes(rng.integers(97, 123, size=2000, dtype=np.uint8))
    ca = len(zlib.compress(s, 9))
    cab = len(zlib.compress(s + s, 9))
    assert (cab - ca) / ca < 0.1
