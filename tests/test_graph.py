"""Link-graph operators: PageRank (both hydration paths), triangle
count, KwikCluster pivot and label propagation."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from reconcile_curation_in_cris_systems_ray.stages.graph import (
    derive_link_edges, pagerank,
)


def _docs_ds(n: int):
    import ray.data as rd

    return rd.from_pandas(pd.DataFrame({"doc_id": np.arange(n)}))


def _nodes(docs):
    return docs.map_batches(
        lambda df: df.rename(columns={"doc_id": "node"}),
        batch_format="pandas")


def _edges_df(docs, n):
    return derive_link_edges(docs, n_nodes=n).to_pandas()


def _pagerank_reference(edges: pd.DataFrame, n: int, n_iter: int = 5,
                        d: float = 0.85) -> np.ndarray:
    """Single-node numpy power iteration, identical semantics."""
    outdeg = np.zeros(n)
    np.add.at(outdeg, edges["src"].to_numpy(), 1.0)
    pr = np.full(n, 1.0 / n)
    for _ in range(n_iter):
        dangling = pr[outdeg == 0].sum()
        contrib = np.zeros(n)
        w = pr[edges["src"].to_numpy()] / outdeg[edges["src"].to_numpy()]
        np.add.at(contrib, edges["dst"].to_numpy(), w)
        pr = (1 - d) / n + d * (contrib + dangling / n)
    return pr


def test_edge_fixture_deterministic_and_simple(ray_session):
    n = 97
    docs = _docs_ds(n)
    e1 = _edges_df(docs, n).sort_values(["src", "dst"]).reset_index(drop=True)
    e2 = _edges_df(_docs_ds(n), n).sort_values(["src", "dst"]).reset_index(
        drop=True)
    pd.testing.assert_frame_equal(e1, e2)
    assert (e1["src"] != e1["dst"]).all()
    assert not e1.duplicated().any()
    # out-degree bounded by doc_id % 4
    vc = e1.groupby("src").size()
    assert (vc.to_numpy() <= (vc.index.to_numpy() % 4)).all()


def test_pagerank_matches_numpy_reference(ray_session):
    n = 150
    docs = _docs_ds(n)
    edges = derive_link_edges(docs, n_nodes=n)
    got = pagerank(edges, _nodes(docs), n_nodes=n).to_pandas().sort_values(
        "node").reset_index(drop=True)
    exp = _pagerank_reference(_edges_df(docs, n), n)
    assert len(got) == n
    np.testing.assert_allclose(got["pr"].to_numpy(), exp, rtol=0, atol=1e-12)
    # ranks form a distribution (dangling mass conserved)
    assert got["pr"].sum() == pytest.approx(1.0, abs=1e-9)


def test_pagerank_distributed_equals_broadcast(ray_session):
    n = 150
    docs = _docs_ds(n)
    edges = derive_link_edges(docs, n_nodes=n)
    b = pagerank(edges, _nodes(docs), n_nodes=n).to_pandas().sort_values(
        "node").reset_index(drop=True)
    d = pagerank(derive_link_edges(_docs_ds(n), n_nodes=n),
                 _nodes(_docs_ds(n)), n_nodes=n,
                 broadcast_limit=1).to_pandas().sort_values(
        "node").reset_index(drop=True)
    assert (b["node"].to_numpy() == d["node"].to_numpy()).all()
    np.testing.assert_allclose(b["pr"].to_numpy(), d["pr"].to_numpy(),
                               rtol=0, atol=1e-12)


def test_triangle_count_matches_brute_force(ray_session):
    import itertools

    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.stages.graph import (
        triangle_count,
    )

    # K4 has exactly 4 triangles; add a disconnected edge (no effect)
    k4 = [(a, b) for a, b in itertools.combinations(range(4), 2)]
    edges = pd.DataFrame(k4 + [(10, 11)], columns=["src", "dst"])
    assert triangle_count(rd.from_pandas(edges)) == 4

    # random graph vs brute force (duplicates + reversed orientations)
    rng = np.random.default_rng(5)
    e = rng.integers(0, 25, size=(200, 2))
    e = e[e[:, 0] != e[:, 1]]
    df = pd.DataFrame({"src": e[:, 0], "dst": e[:, 1]})
    und = {tuple(sorted(p)) for p in e.tolist()}
    brute = sum(1 for a, b, c in itertools.combinations(range(25), 3)
                if (a, b) in und and (b, c) in und and (a, c) in und)
    assert triangle_count(rd.from_pandas(df)) == brute


def test_dataset_split_stable_and_proportional(ray_session):
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.stages.sketch import (
        dataset_split,
    )

    frac = {"train": 0.8, "val": 0.1, "test": 0.1}
    small = pd.DataFrame({"doc_id": np.arange(500)})
    big = pd.DataFrame({"doc_id": np.arange(2000)})
    s1 = dataset_split(rd.from_pandas(small), "doc_id", frac).to_pandas()
    s2 = dataset_split(rd.from_pandas(big), "doc_id", frac).to_pandas()
    merged = s1.merge(s2, on="doc_id", suffixes=("_small", "_big"))
    # appending rows never moves an existing row's split
    assert (merged["split_small"] == merged["split_big"]).all()
    counts = s2["split"].value_counts(normalize=True)
    assert abs(counts["train"] - 0.8) < 0.05
    with pytest.raises(ValueError):
        dataset_split(rd.from_pandas(small), "doc_id", {"a": 0.5, "b": 0.4})


def test_weighted_sample_deterministic_and_biased(ray_session):
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.stages.sketch import (
        weighted_sample,
    )

    df = pd.DataFrame({"doc_id": np.arange(4000),
                       "grp": np.where(np.arange(4000) % 2 == 0,
                                       "heavy", "light")})
    w = {"heavy": 5.0, "light": 1.0}
    s1 = weighted_sample(rd.from_pandas(df), "doc_id", w, k=200,
                         group_col="grp")
    s2 = weighted_sample(rd.from_pandas(df), "doc_id", w, k=200,
                         group_col="grp")
    assert len(s1) == 200
    pd.testing.assert_frame_equal(
        s1.sort_values("doc_id").reset_index(drop=True),
        s2.sort_values("doc_id").reset_index(drop=True))
    vc = s1["grp"].value_counts()
    assert vc["heavy"] > 2.5 * vc.get("light", 0)


def test_graph_ops_on_edgeless_graph(ray_session):
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.stages.graph import (
        triangle_count,
    )

    edges = rd.from_pandas(pd.DataFrame(
        {"src": np.empty(0, np.int64), "dst": np.empty(0, np.int64)}))
    nodes = rd.from_pandas(pd.DataFrame({"node": np.arange(3)}))
    p = pagerank(edges, nodes, n_nodes=3, n_iter=3).to_pandas()
    np.testing.assert_allclose(p["pr"].to_numpy(), 1 / 3, atol=1e-12)
    assert triangle_count(rd.from_pandas(pd.DataFrame(
        {"src": np.empty(0, np.int64),
         "dst": np.empty(0, np.int64)}))) == 0


def _kwikcluster_reference(edges: pd.DataFrame) -> dict[int, int]:
    """Sequential KwikCluster (Ailon et al. 2008): process nodes in
    (pi, id) order; an unassigned node becomes a pivot and claims all
    its unassigned neighbors."""
    from reconcile_curation_in_cris_systems_ray.stages.graph import (
        _pivot_rank,
    )

    lo = edges[["src", "dst"]].min(axis=1).to_numpy(np.int64)
    hi = edges[["src", "dst"]].max(axis=1).to_numpy(np.int64)
    keep = lo != hi
    pairs = set(zip(lo[keep].tolist(), hi[keep].tolist()))
    adj: dict[int, set[int]] = {}
    for a, b in pairs:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    nodes = sorted(adj)
    order = sorted(nodes, key=lambda n: (int(_pivot_rank(
        np.asarray([n], np.int64))[0]), n))
    assign: dict[int, int] = {}
    for u in order:
        if u in assign:
            continue
        assign[u] = u
        for v in adj[u]:
            if v not in assign:
                assign[v] = u
    return assign


def test_cc_pivot_equals_sequential_kwikcluster(ray_session):
    from reconcile_curation_in_cris_systems_ray.stages.graph import (
        cc_pivot, derive_link_edges,
    )

    n = 300
    docs = _docs_ds(n)
    edges_df = _edges_df(docs, n)
    got = cc_pivot(derive_link_edges(docs, n_nodes=n))
    want = _kwikcluster_reference(edges_df)
    got_map = dict(zip(got["node"].astype(int), got["cluster"].astype(int)))
    assert got_map == want
    # sanity: clustering is non-trivial (neither all-singletons nor one blob)
    sizes = got.groupby("cluster").size()
    assert len(sizes) > 1 and sizes.max() > 1


def test_cc_pivot_refuses_transitive_chain(ray_session):
    """A path a-b-c with pi(b) smallest: pivot b claims both ends (one
    cluster); with pi(b) largest the ends are separate pivots and b
    joins the min-pi one — unlike connected components, the chain
    never merges a and c without a witness."""
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.stages.graph import (
        _pivot_rank, cc_pivot,
    )

    # find ids so that the middle node has the LARGEST rank
    ranks = {i: int(_pivot_rank(np.asarray([i], np.int64))[0])
             for i in (0, 1, 2)}
    trip = sorted([0, 1, 2], key=lambda n: ranks[n])
    lo_r, mid_r, hi_r = trip  # lo_r has smallest rank
    edges = rd.from_pandas(pd.DataFrame(
        {"src": [hi_r, hi_r], "dst": [lo_r, mid_r]}))
    out = cc_pivot(edges)
    m = dict(zip(out["node"].astype(int), out["cluster"].astype(int)))
    # ends are pivots (both have smaller rank than the middle), middle
    # joins the smaller-rank end; the two ends stay separate clusters
    assert m[lo_r] == lo_r and m[mid_r] == mid_r
    assert m[hi_r] == lo_r
    assert m[lo_r] != m[mid_r]


def _lpa_reference(edges: pd.DataFrame, n_iter: int = 5) -> dict[int, int]:
    """Single-node synchronous LPA, min-label tie-break."""
    lo = edges[["src", "dst"]].min(axis=1).to_numpy(np.int64)
    hi = edges[["src", "dst"]].max(axis=1).to_numpy(np.int64)
    keep = lo != hi
    pairs = sorted(set(zip(lo[keep].tolist(), hi[keep].tolist())))
    adj: dict[int, list[int]] = {}
    for a, b in pairs:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    lab = {n: n for n in adj}
    for _ in range(n_iter):
        new = {}
        for n, nbrs in adj.items():
            cnt: dict[int, int] = {}
            for v in nbrs:
                cnt[lab[v]] = cnt.get(lab[v], 0) + 1
            new[n] = min(cnt, key=lambda k: (-cnt[k], k))
        lab = new
    return lab


def test_label_propagation_equals_reference(ray_session):
    from reconcile_curation_in_cris_systems_ray.stages.graph import (
        derive_link_edges, label_propagation,
    )

    n = 300
    docs = _docs_ds(n)
    edges_df = _edges_df(docs, n)
    got = label_propagation(derive_link_edges(docs, n_nodes=n), n_iter=5)
    want = _lpa_reference(edges_df, n_iter=5)
    got_map = dict(zip(got["node"].astype(int), got["label"].astype(int)))
    assert got_map == want
    sizes = got.groupby("label").size()
    assert sizes.max() > 1
