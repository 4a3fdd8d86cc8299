"""PAVA pin: the linear-time stack fit must equal a quadratic
repeat-pooling reference, and the calibration query must reproduce it
on cells extracted independently via DuckDB."""

from __future__ import annotations

import duckdb
import numpy as np

from reconcile_curation_in_cris_systems_ray.stages.metrics import pava_isotonic

SF = "/root/testdata/sf0.001"


def _pava_reference(y, w):
    """O(n^2) repeat-pooling: merge ANY adjacent violator until the
    block means are non-decreasing."""
    blocks = [[float(yi), float(wi), 1] for yi, wi in zip(y, w)]
    changed = True
    while changed:
        changed = False
        for i in range(len(blocks) - 1):
            if blocks[i][0] > blocks[i + 1][0]:
                v1, w1, c1 = blocks[i]
                v2, w2, c2 = blocks[i + 1]
                tw = w1 + w2
                blocks[i:i + 2] = [[(v1 * w1 + v2 * w2) / tw, tw, c1 + c2]]
                changed = True
                break
    return np.repeat([b[0] for b in blocks], [b[2] for b in blocks])


def test_pava_matches_reference():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 60))
        y = rng.random(n)
        w = rng.integers(1, 9, n).astype(float)
        got = pava_isotonic(y, w)
        want = _pava_reference(y, w)
        assert np.allclose(got, want, atol=1e-12)
        assert (np.diff(got) >= -1e-12).all()


def test_isotonic_calibration_query(ray_session):
    from reconcile_curation_in_cris_systems_ray.pipelines.queries.stats import (
        q_isotonic_calibration,
    )

    got = q_isotonic_calibration(SF)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW customer AS SELECT * FROM "
                f"read_parquet('{SF}/customer.parquet')")
    cells = con.execute("""
        SELECT s, count(*) AS n,
               sum(CASE WHEN pos THEN 1 ELSE 0 END) AS npos
        FROM (SELECT round(jaro_winkler_similarity(a.c_name, b.c_name), 6)
                         AS s,
                     (a.c_mktsegment = b.c_mktsegment) AS pos
              FROM customer a JOIN customer b
                ON a.c_nationkey = b.c_nationkey AND a.c_name < b.c_name
              WHERE jaro_winkler_similarity(a.c_name, b.c_name) >= 0.8)
        GROUP BY s ORDER BY s
        """).fetchdf()
    want = _pava_reference(
        cells["npos"].to_numpy(float) / cells["n"].to_numpy(float),
        cells["n"].to_numpy(float))
    assert got["s"].tolist() == cells["s"].tolist()
    assert got["n"].tolist() == cells["n"].astype(int).tolist()
    assert np.allclose(got["p_cal"].to_numpy(), np.round(want, 6),
                       atol=1e-9)
