"""gale_shapley pin: the panel deferred-acceptance must equal an
independent textbook implementation and produce a STABLE matching."""

from __future__ import annotations

import duckdb
import pandas as pd

SF = "/root/testdata/sf0.001"


def _independent_gs(jw: dict):
    """Textbook proposer-optimal GS, written independently: iterate
    rounds; every free proposer proposes to its best not-yet-tried
    responder; responders keep their best suitor."""
    custs = sorted({c for c, _ in jw})
    supps = sorted({s for _, s in jw})
    pref = {c: sorted(supps, key=lambda s: (-jw[(c, s)], s))
            for c in custs}
    tried = {c: set() for c in custs}
    match_s: dict[int, int] = {}
    while True:
        progressed = False
        matched_c = set(match_s.values())
        for c in custs:
            if c in matched_c:
                continue
            rest = [s for s in pref[c] if s not in tried[c]]
            if not rest:
                continue
            s = rest[0]
            tried[c].add(s)
            progressed = True
            if s not in match_s:
                match_s[s] = c
            else:
                inc = match_s[s]
                if (-jw[(c, s)], c) < (-jw[(inc, s)], inc):
                    match_s[s] = c
            matched_c = set(match_s.values())
        if not progressed:
            break
    return {s: c for s, c in match_s.items()}


def _panel_jw():
    con = duckdb.connect()
    con.execute(f"CREATE VIEW customer AS SELECT * FROM "
                f"read_parquet('{SF}/customer.parquet')")
    con.execute(f"CREATE VIEW supplier AS SELECT * FROM "
                f"read_parquet('{SF}/supplier.parquet')")
    df = con.execute("""
        SELECT c.c_custkey, s.s_suppkey,
               jaro_winkler_similarity(c.c_name, s.s_name) AS jw
        FROM customer c, supplier s
        WHERE c.c_custkey < 30 AND s.s_suppkey < 30""").fetchdf()
    return {(int(r["c_custkey"]), int(r["s_suppkey"])): float(r["jw"])
            for _, r in df.iterrows()}


def test_gale_shapley_matches_reference(ray_session):
    from reconcile_curation_in_cris_systems_ray.pipelines.queries.er import (
        q_gale_shapley,
    )

    got = q_gale_shapley(SF)
    jw = _panel_jw()
    want = _independent_gs(jw)
    assert dict(zip(got["s_suppkey"], got["c_custkey"])) == want

    # stability: no (c, s) both preferring each other over their match
    match_of_c = {c: s for s, c in want.items()}
    for (c, s), v in jw.items():
        if match_of_c.get(c) == s:
            continue
        c_prefers = (c not in match_of_c or
                     (-v, s) < (-jw[(c, match_of_c[c])], match_of_c[c]))
        cur = want.get(s)
        s_prefers = cur is None or (-v, c) < (-jw[(cur, s)], cur)
        assert not (c_prefers and s_prefers), (c, s)
