"""Hungarian pin: brute-force equality on small random instances and
optimality dominance over greedy on the query panel."""

from __future__ import annotations

import itertools

import numpy as np

from reconcile_curation_in_cris_systems_ray.stages.metrics import hungarian_min

SF = "/root/testdata/sf0.001"


def test_hungarian_matches_bruteforce():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(n, 8))
        c = rng.random((n, m))
        cols = hungarian_min(c)
        got = c[np.arange(n), cols].sum()
        assert len(set(cols.tolist())) == n  # proper matching
        best = min(
            sum(c[i, pj] for i, pj in enumerate(perm))
            for perm in itertools.permutations(range(m), n))
        assert abs(got - best) < 1e-9


def test_optimal_assignment_query(ray_session):
    import duckdb

    from reconcile_curation_in_cris_systems_ray.pipelines.queries.er import (
        q_optimal_assignment,
    )

    got = q_optimal_assignment(SF)
    assert got["c_custkey"].is_unique and got["s_suppkey"].is_unique
    total = got["jw"].sum()

    con = duckdb.connect()
    con.execute(f"CREATE VIEW customer AS SELECT * FROM "
                f"read_parquet('{SF}/customer.parquet')")
    con.execute(f"CREATE VIEW supplier AS SELECT * FROM "
                f"read_parquet('{SF}/supplier.parquet')")
    df = con.execute("""
        SELECT c.c_custkey, s.s_suppkey,
               jaro_winkler_similarity(c.c_name, s.s_name) AS jw
        FROM customer c, supplier s
        WHERE c.c_custkey < 10 AND s.s_suppkey < 10""").fetchdf()
    # greedy baseline: repeatedly take the best remaining pair
    pool = df.sort_values(["jw", "c_custkey", "s_suppkey"],
                          ascending=[False, True, True])
    used_c, used_s, greedy = set(), set(), 0.0
    for _, r in pool.iterrows():
        if r["c_custkey"] in used_c or r["s_suppkey"] in used_s:
            continue
        used_c.add(r["c_custkey"])
        used_s.add(r["s_suppkey"])
        greedy += float(r["jw"])
    assert total >= greedy - 1e-9
