"""Distributed connected components vs driver union-find oracle."""
import numpy as np
import pytest

from reconcile_curation_in_cris_systems_ray.config import ClusterConfig
from reconcile_curation_in_cris_systems_ray.stages.cluster import (
    assign_clusters, connected_components, union_find_oracle,
)


def _random_edges(seed: int, n_nodes: int, n_edges: int):
    rng = np.random.default_rng(seed)
    nodes = [f"n{i:04d}" for i in range(n_nodes)]
    edges = set()
    while len(edges) < n_edges:
        a, b = rng.choice(n_nodes, 2, replace=False)
        edges.add((nodes[min(a, b)], nodes[max(a, b)]))
    return nodes, sorted(edges)


@pytest.mark.parametrize("seed,n_nodes,n_edges", [
    (1, 40, 20), (2, 100, 60), (3, 200, 220), (4, 50, 49),
])
def test_connected_components_matches_union_find(ray_session, seed, n_nodes,
                                                 n_edges):
    import ray.data as rd

    nodes, edges = _random_edges(seed, n_nodes, n_edges)
    oracle = union_find_oracle(edges, nodes)

    edges_ds = rd.from_items([{"u": u, "v": v} for u, v in edges])
    star = connected_components(edges_ds, ClusterConfig(num_buckets=16))
    urls = rd.from_items([{"url": n} for n in nodes])
    got = {r["url"]: r["cluster_id"]
           for r in assign_clusters(urls, star, num_buckets=16).take_all()}
    assert got == oracle


def test_chain_graph(ray_session):
    """Long chain — worst case for propagation depth."""
    import ray.data as rd

    n = 64
    nodes = [f"c{i:03d}" for i in range(n)]
    edges = [(nodes[i], nodes[i + 1]) for i in range(n - 1)]
    edges_ds = rd.from_items([{"u": u, "v": v} for u, v in edges])
    star = connected_components(edges_ds, ClusterConfig(num_buckets=8))
    urls = rd.from_items([{"url": x} for x in nodes])
    got = {r["url"]: r["cluster_id"]
           for r in assign_clusters(urls, star, num_buckets=8).take_all()}
    assert set(got.values()) == {nodes[0]}


def test_cc_round_checkpoint_resume(ray_session, tmp_path):
    """Round-4: a killed CC round resumes from the last completed
    round's Parquet instead of restarting the fixpoint.  We force
    multiple distributed rounds (driver_finish_edges=0), run once to
    completion, wipe the LAST round's checkpoint, rerun, and require
    (a) identical star edges and (b) the earlier rounds marked
    resumed=True in the manager lineage."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from reconcile_curation_in_cris_systems_ray.config import ClusterConfig
    from reconcile_curation_in_cris_systems_ray.stages.cluster import (
        connected_components,
    )
    from reconcile_curation_in_cris_systems_ray.state.manifest import (
        CheckpointManager,
    )

    rng = np.random.default_rng(0)
    # several chains + rings -> needs a few contraction rounds
    edges = []
    for c in range(8):
        nodes = [f"u{c:02d}_{i:03d}" for i in range(30)]
        edges += list(zip(nodes[:-1], nodes[1:]))
    df = pd.DataFrame(edges, columns=["u", "v"]).sample(
        frac=1.0, random_state=1)
    cfg = ClusterConfig(driver_finish_edges=0, num_buckets=8)

    root = str(tmp_path / "cc_ckpt")
    ck1 = CheckpointManager(root, resume=True)
    out1 = connected_components(rd.from_pandas(df), cfg, ckpt=ck1,
                                fp_base="t").to_pandas() \
        .sort_values(["u", "v"]).reset_index(drop=True)
    rounds_done = [s["stage"] for s in ck1.lineage
                   if s["stage"].startswith("cc_round_")]
    assert len(rounds_done) >= 2, rounds_done

    # simulate a crash that lost the LAST round's output
    import shutil
    shutil.rmtree(f"{root}/{rounds_done[-1]}")

    ck2 = CheckpointManager(root, resume=True)
    out2 = connected_components(rd.from_pandas(df), cfg, ckpt=ck2,
                                fp_base="t").to_pandas() \
        .sort_values(["u", "v"]).reset_index(drop=True)
    assert out1.equals(out2)
    by_stage = {s["stage"]: s for s in ck2.lineage}
    for st in rounds_done[:-1]:
        assert by_stage[st]["resumed"] is True, st
    assert by_stage[rounds_done[-1]]["resumed"] is False


def test_edge_checksum_hashes_u_and_v_apart():
    """The round checksum hashes each endpoint apart: the edges
    ("ab", "c") and ("a", "bc") concatenate alike, yet differ."""
    import pyarrow as pa

    from reconcile_curation_in_cris_systems_ray.stages.cluster import (
        edge_checksum,
    )

    def one(u, v):
        return edge_checksum(pa.table({"u": [u], "v": [v]}))

    assert one("ab", "c") != one("a", "bc")
    assert one("a", "b") != one("b", "a")


def test_rounds_without_fixpoint_raise(ray_session):
    """A 64-node chain needs more than two rounds: with ``max_rounds=2``
    the rounds raise rather than return a non-star edge set."""
    import ray.data as rd

    nodes = [f"c{i:03d}" for i in range(64)]
    edges_ds = rd.from_items([{"u": a, "v": b}
                              for a, b in zip(nodes[:-1], nodes[1:])])
    cfg = ClusterConfig(driver_finish_edges=0, max_rounds=2)
    with pytest.raises(RuntimeError, match=r"after 2 rounds, \d+ edges"):
        connected_components(edges_ds, cfg)


def _degenerate_blocks(case: str):
    """``(edge blocks, nodes, driver_finish_edges)`` of one degenerate
    input of the contraction rounds."""
    import pyarrow as pa

    def edges(pairs):
        return pa.table({"u": pa.array([u for u, _ in pairs], pa.string()),
                         "v": pa.array([v for _, v in pairs], pa.string())})

    columnless = pa.table({})
    if case == "columnless":
        # 0-row blocks without columns among the edge blocks
        nodes, pairs = _random_edges(5, 30, 25)
        return ([columnless, edges(pairs[:10]), columnless,
                 edges(pairs[10:]), columnless], nodes, 0)
    if case == "emptied":
        # every bucket output of every round is empty: self-loops and
        # typed 0-row blocks, with the rounds forced even at 0 edges
        nodes = ["e0", "e1", "e2"]
        return ([edges([]), edges([(n, n) for n in nodes]), columnless],
                nodes, -1)
    if case == "self_loops":
        nodes = [f"s{i}" for i in range(6)]
        return [edges([(n, n) for n in nodes] * 2)], nodes, 0
    # many small blocks of a random graph, in reversed orientation
    nodes, pairs = _random_edges(6, 120, 110)
    pairs = [(v, u) for u, v in pairs]
    return ([edges(pairs[i:i + 3]) for i in range(0, len(pairs), 3)],
            nodes, 0)


@pytest.mark.parametrize("buckets", [1, 4])
@pytest.mark.parametrize("case", ["columnless", "emptied", "self_loops",
                                  "many_blocks"])
def test_forced_rounds_on_degenerate_edges(ray_session, case, buckets):
    """The contraction rounds over degenerate edge blocks (0-row blocks
    without columns, edges that empty every bucket, self-loops only,
    many input blocks) at 1 and 4 buckets give the union-find oracle's
    components."""
    import ray

    from reconcile_curation_in_cris_systems_ray.stages.cluster import (
        components,
    )
    from reconcile_curation_in_cris_systems_ray.state.manifest import (
        CheckpointManager,
    )

    blocks, nodes, finish = _degenerate_blocks(case)
    pairs = [(u, v) for b in blocks if b.num_rows
             for u, v in zip(b.column("u").to_pylist(),
                             b.column("v").to_pylist())]
    cfg = ClusterConfig(num_buckets=buckets, driver_finish_edges=finish)
    star_refs, metrics = components([ray.put(b) for b in blocks],
                                    len(pairs), cfg, CheckpointManager(None),
                                    "degenerate")
    assert metrics["rounds"] > 0
    star = {}
    for b in ray.get(star_refs):
        if b.num_rows:
            star.update(zip(b.column("u").to_pylist(),
                            b.column("v").to_pylist()))
    assert set(star) <= set(nodes)
    assert {n: star.get(n, n) for n in nodes} == \
        union_find_oracle(pairs, nodes)
