"""The refinement invariant: the flagship's clusters refine the exact
closure.

Every engine edge is a candidate pair whose exact shingle Jaccard
reached ``jaccard_threshold``, so every engine cluster must lie inside
one component of the closure of *all* pairs at that threshold; LSH may
miss links (more, smaller clusters) but never invent one.  A cluster
that spans two closure components is a defect: a wrong row index, a
wrong lookup shard or a silent merge of two pages.  The closure is
brute force (every pair of the gate corpus's 127 pages: 8,001 pairs),
scored with the engine's own ``jaccard_pairs_by_index``.
"""

import collections

import numpy as np
import pyarrow as pa
import pytest

from reconcile_curation_in_cris_systems_ray.config import ReconcileConfig
from reconcile_curation_in_cris_systems_ray.sources.corpus import (
    CorpusConfig, corpus_table,
)

# the gate corpus of tests/test_pipeline.py
GATE_CFG = CorpusConfig(n_families=40, giant_family_variants=24)


def _exact_closure(features, threshold: float) -> dict[str, str]:
    """url -> closure root, over every pair of ``features`` with exact
    Jaccard >= ``threshold``."""
    import ray

    from reconcile_curation_in_cris_systems_ray.functions.similarity import (
        jaccard_pairs_by_index, packed_u64_column,
    )
    from reconcile_curation_in_cris_systems_ray.stages.cluster import (
        union_find_oracle,
    )

    feats = pa.concat_tables(
        [t for t in ray.get(features.to_arrow_refs()) if t.num_rows]
    ).combine_chunks()
    urls = feats.column("url").to_pylist()
    ia, ib = np.triu_indices(len(urls), 1)
    vals, lens = packed_u64_column(feats.column("shingles"), np.uint32)
    jac = jaccard_pairs_by_index(vals, lens, ia, ib)
    hit = np.flatnonzero(jac >= threshold)
    return union_find_oracle([(urls[i], urls[j])
                              for i, j in zip(ia[hit], ib[hit])], urls)


@pytest.mark.parametrize("sharded", [False, True])
def test_clusters_refine_the_exact_closure(ray_session, monkeypatch,
                                           sharded):
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.pipelines.reconcile import (
        run_reconcile,
    )
    from reconcile_curation_in_cris_systems_ray.stages import lookup

    cfg = ReconcileConfig()
    corpus = corpus_table(GATE_CFG)
    if sharded:
        # ~158 KB of features: at least four shards
        monkeypatch.setattr(lookup, "LOOKUP_BYTES", 40_000)
    out = run_reconcile(rd.from_arrow(corpus), cfg)
    assert (out["metrics"]["lookup_shards"] >= 4) == sharded
    _assert_refines(out, corpus, cfg)


def test_forced_rounds_refine_the_exact_closure(ray_session):
    """With the contraction rounds forced (``driver_finish_edges=0``)
    the clusters refine the exact closure too, and equal the union-find
    run's."""
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.config import ClusterConfig
    from reconcile_curation_in_cris_systems_ray.pipelines.reconcile import (
        run_reconcile,
    )

    corpus = corpus_table(GATE_CFG)
    cfg = ReconcileConfig(cluster=ClusterConfig(driver_finish_edges=0))
    rounds = run_reconcile(rd.from_arrow(corpus), cfg)
    cc = next(s for s in rounds["metrics"]["stages"]
              if s["stage"] == "score+components")
    assert cc["rounds"] > 0
    _assert_refines(rounds, corpus, cfg)
    union_find = run_reconcile(rd.from_arrow(corpus))
    assert ({r["url"]: r["cluster_id"]
             for r in rounds["assignments"].take_all()}
            == {r["url"]: r["cluster_id"]
                for r in union_find["assignments"].take_all()})


def _assert_refines(out, corpus, cfg) -> None:
    """Every cluster of the run ``out`` over ``corpus`` lies inside one
    component of the exact closure, non-vacuously."""
    closure = _exact_closure(out["features"],
                             cfg.scoring.jaccard_threshold)
    n = corpus.num_rows
    assert n == 127 and len(closure) == n

    members = collections.defaultdict(list)
    for r in out["assignments"].take_all():
        members[r["cluster_id"]].append(r["url"])
    assert sum(map(len, members.values())) == n
    spanning = {c: sorted({closure[u] for u in urls})
                for c, urls in members.items()
                if len({closure[u] for u in urls}) > 1}
    assert spanning == {}
    # non-vacuous: the engine links pages, and the closure has several
    # components
    assert len(members) < n
    assert 1 < len(set(closure.values())) <= len(members)
