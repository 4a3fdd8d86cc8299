"""Sequential-equivalence pin for greedy_match: an independent global
greedy pass over the oracle-verified minhash_pairs candidate list must
equal the distributed per-block matching exactly at sf0.001 (valid
because candidate pairs never cross blocking groups)."""

from __future__ import annotations

import pandas as pd

SF = "/root/testdata/sf0.001"


def _sequential_greedy(pairs: pd.DataFrame) -> pd.DataFrame:
    taken: set = set()
    rows = []
    ordered = pairs.sort_values(["eq", "id_a", "id_b"],
                                ascending=[False, True, True])
    for r in ordered.itertuples():
        if r.id_a in taken or r.id_b in taken:
            continue
        taken.add(r.id_a)
        taken.add(r.id_b)
        rows.append((r.id_a, r.id_b, r.eq))
    return (pd.DataFrame(rows, columns=["id_a", "id_b", "eq"])
            .sort_values(["id_a", "id_b"]).reset_index(drop=True))


def test_greedy_match_matches_sequential(ray_session):
    from reconcile_curation_in_cris_systems_ray.pipelines.queries.dedup import (
        q_minhash_pairs,
    )
    from reconcile_curation_in_cris_systems_ray.pipelines.queries.er import (
        q_greedy_match,
    )

    cand = q_minhash_pairs(SF).to_pandas()
    got = (q_greedy_match(SF).to_pandas()
           .astype({"id_a": "int64", "id_b": "int64", "eq": "int64"})
           .sort_values(["id_a", "id_b"]).reset_index(drop=True))
    want = _sequential_greedy(cand)
    assert len(got) > 0
    pd.testing.assert_frame_equal(got, want)
    # one-to-one: no endpoint reused
    ids = pd.concat([got["id_a"], got["id_b"]])
    assert ids.is_unique
