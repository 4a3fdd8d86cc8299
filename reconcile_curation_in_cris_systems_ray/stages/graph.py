"""Link-graph clustering operators over an edge list: PageRank,
KwikCluster pivot clustering, label propagation and the triangle count.

The engine's own cluster assembly is connected components over matched
pairs (``stages/cluster.py``, SURVEY §7.1 step 7).  These operators
cluster or rank the same kind of edge list; ``triangle_count`` also
backs the match-transitivity check of ``queries/er.py``.

Physical plan of ``pagerank`` (power iteration): per iteration the
rank state moves, never the edge payload.  Below ``broadcast_limit``
nodes the rank/out-degree vector ships once via ``ray.put`` and each
edge batch emits (dst, contrib) partials into the combiner (one data
pass per iteration); above it, ranks stay a Dataset and each iteration
is two bounded hash joins (edges ⋈ ranks on src; node universe ⋈
contribs on dst) — the rank table is O(nodes), the edge table is
streamed.  Both paths share identical arithmetic (IEEE double, same
expression order) and are pinned equal in tests.  Dangling mass
(out-degree 0) is redistributed uniformly each iteration, the standard
correction.

Edge fixture: ``derive_link_edges`` derives a deterministic synthetic
link graph from an integer id column — out-degree ``id % max_out``,
destinations ``hash(id || ':' || j) % n_nodes`` with DuckDB's
``hash()`` kernel (via ``hash_strings_fast``) so a SQL oracle rebuilds
the identical edge set bit-for-bit.  Self-loops dropped, parallel
edges deduped batch-locally — global, because every edge of a given
src is emitted from that src's single input row.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray

from ..functions.similarity import hash_strings_fast
from .shuffle import bucketed_map_groups

# same 2M-row ceiling as the flagship feature hydration and the
# unigram-LM / TF-IDF model broadcasts
BROADCAST_MAX_NODES = 2_000_000


def derive_link_edges(docs, n_nodes: int, id_col: str = "doc_id",
                      max_out: int = 4):
    """Map-only deterministic edge generator: (src, dst) int64 rows.

    Out-degree of node ``i`` is ``i % max_out`` (so ~1/max_out of the
    nodes are dangling, exercising PageRank's dangling-mass path);
    ``dst = duckdb_hash(f"{i}:{j}") % n_nodes`` for j in 1..k.
    """

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].to_numpy(np.int64)
        k = ids % max_out
        total = int(k.sum())
        if total == 0:
            return pd.DataFrame({"src": np.empty(0, np.int64),
                                 "dst": np.empty(0, np.int64)})
        src = np.repeat(ids, k)
        starts = np.cumsum(k) - k
        j = np.arange(total, dtype=np.int64) - np.repeat(starts, k) + 1
        keys = (pd.Series(src).astype(str) + ":" +
                pd.Series(j).astype(str)).tolist()
        dst = (hash_strings_fast(keys) % np.uint64(n_nodes)).astype(np.int64)
        out = pd.DataFrame({"src": src, "dst": dst})
        out = out[out["src"] != out["dst"]]
        # batch-local dedup is global: each src's edges live in one row
        return out.drop_duplicates(ignore_index=True)

    return docs.map_batches(gen, batch_format="pandas")


def undirected_edges(edges, drop_self: bool = True):
    """Canonical DISTINCT undirected (lo <= hi) edge stream from a
    (src, dst) stream — the shared front door of the whole link-graph
    family (triangles, pivot clustering, LPA).
    Per-batch canonicalize + local dedup is a combiner (bounded by
    batch distincts); ONE bucketed exchange dedupes globally; the
    result is materialized because every caller re-streams it.
    ``drop_self``: filter self-loops (graph ops where a self-edge is
    meaningless); triangle counting keeps them (lo == hi rows
    cannot form a wedge, so they are inert there)."""

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        lo = df[["src", "dst"]].min(axis=1)
        hi = df[["src", "dst"]].max(axis=1)
        out = pd.DataFrame({"lo": lo.to_numpy(np.int64),
                            "hi": hi.to_numpy(np.int64)})
        if drop_self:
            out = out[out["lo"] != out["hi"]]
        return out.drop_duplicates(ignore_index=True)

    empty = pd.DataFrame({"lo": np.empty(0, np.int64),
                          "hi": np.empty(0, np.int64)})
    return bucketed_map_groups(
        edges.map_batches(canon, batch_format="pandas"),
        ["lo", "hi"], lambda df: df.drop_duplicates(ignore_index=True),
        empty_like=empty)


def _outdeg_state(edges, nodes, node_col: str = "node"):
    """(node, outdeg) over the full node universe — per-batch degree
    partials unioned with zero anchors from the node table, merged in
    one bucketed combine."""

    def out_part(df: pd.DataFrame) -> pd.DataFrame:
        o = df.groupby("src", sort=False).size()
        return pd.DataFrame({"node": o.index.to_numpy(np.int64),
                             "outdeg": o.to_numpy(np.int64)})

    def zero_part(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": df[node_col].to_numpy(np.int64),
                             "outdeg": np.zeros(len(df), np.int64)})

    parts = edges.map_batches(out_part, batch_format="pandas").union(
        nodes.map_batches(zero_part, batch_format="pandas"))

    def comb(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("node", sort=False, as_index=False)
        return g.agg(outdeg=("outdeg", "sum"))

    return bucketed_map_groups(parts, ["node"], comb).materialize()


def pagerank(edges, nodes, n_nodes: int, node_col: str = "node",
             n_iter: int = 5, damping: float = 0.85,
             broadcast_limit: int = BROADCAST_MAX_NODES):
    """PageRank by power iteration; returns a Dataset of (node, pr).

    ``PR_t(v) = (1-d)/N + d * (Σ_{(u,v)} PR_{t-1}(u)/outdeg(u) + D/N)``
    with ``D`` the total rank held by dangling nodes.  Plan notes in the
    module docstring; ``broadcast_limit`` picks broadcast vs distributed
    rank hydration (tests pin both paths equal).
    """
    edges = edges.materialize()  # iterated over n_iter times
    state = _outdeg_state(edges, nodes, node_col)

    if edges.count() == 0:
        # closed form: with every node dangling, total mass stays 1 and
        # PR_t(v) = (1-d)/N + d/N = 1/N for every t
        def uniform(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "node": df[node_col].to_numpy(np.int64),
                "pr": np.full(len(df), 1.0 / n_nodes),
            })

        return nodes.map_batches(uniform, batch_format="pandas")
    if n_nodes <= broadcast_limit:
        return _pagerank_broadcast(edges, state, n_nodes, n_iter, damping)
    return _pagerank_distributed(edges, state, n_nodes, n_iter, damping)


def _pagerank_broadcast(edges, state, n_nodes: int, n_iter: int,
                        damping: float):
    """Rank vector held driver-side, shipped once per iteration via
    ray.put; each edge batch emits (dst, contrib) partials (combiner)."""
    from .relational import partial_groupby_agg

    st = state.to_pandas()
    node_idx = pd.Index(st["node"].to_numpy(np.int64))
    outdeg = pd.Series(st["outdeg"].to_numpy(np.float64), index=node_idx)
    rank = pd.Series(np.full(len(st), 1.0 / n_nodes), index=node_idx)
    dangling_mask = outdeg.to_numpy() == 0.0

    for _ in range(n_iter):
        dangling = float(rank.to_numpy()[dangling_mask].sum())
        weight = rank / outdeg.where(outdeg > 0, np.nan)
        ref = ray.put(weight.dropna())

        def contrib_part(df: pd.DataFrame) -> pd.DataFrame:
            w = ray.get(ref)
            c = df["src"].map(w).to_numpy(np.float64)
            g = pd.DataFrame({"node": df["dst"].to_numpy(np.int64),
                              "contrib": c}).groupby(
                "node", sort=False, as_index=False)["contrib"].sum()
            return g

        mapped = edges.map_batches(contrib_part, batch_format="pandas")
        contribs = partial_groupby_agg(mapped, ["node"],
                                       {"contrib": ("contrib", "sum")})
        if len(contribs) == 0:
            c = pd.Series(0.0, index=node_idx)
        else:
            c = (contribs.set_index("node")["contrib"]
                 .reindex(node_idx).fillna(0.0))
        rank = ((1.0 - damping) / n_nodes
                + damping * (c + dangling / n_nodes))

    out = pd.DataFrame({"node": node_idx.to_numpy(np.int64),
                        "pr": rank.to_numpy(np.float64)})
    import ray.data as rd

    return rd.from_pandas(out)


def _pagerank_distributed(edges, state, n_nodes: int, n_iter: int,
                          damping: float):
    """Rank table stays distributed: per iteration one edges⋈ranks hash
    join on src, one bucketed contrib sum, one node-universe left join.
    Edge payload is streamed every pass, never re-shuffled; rank state
    (O(nodes)) is the only table that moves twice."""
    from .relational import hash_join

    def init(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["node", "outdeg"]].copy()
        out["pr"] = 1.0 / n_nodes
        return out

    ranks = state.map_batches(init, batch_format="pandas").materialize()

    for _ in range(n_iter):
        dang_parts = ranks.map_batches(
            lambda df: pd.DataFrame(
                {"d": [df.loc[df["outdeg"] == 0, "pr"].sum()]}),
            batch_format="pandas").to_pandas()
        dangling = float(dang_parts["d"].sum())

        def weight(df: pd.DataFrame) -> pd.DataFrame:
            m = df["outdeg"] > 0
            out = df.loc[m, ["node"]].copy()
            out["w"] = (df.loc[m, "pr"].to_numpy(np.float64)
                        / df.loc[m, "outdeg"].to_numpy(np.float64))
            return out

        w_ds = ranks.map_batches(weight, batch_format="pandas")
        joined = hash_join(edges, w_ds, on=["src"], right_on=["node"])

        def contrib_part(df: pd.DataFrame) -> pd.DataFrame:
            return (pd.DataFrame({"node": df["dst"].to_numpy(np.int64),
                                  "contrib": df["w"].to_numpy(np.float64)})
                    .groupby("node", sort=False, as_index=False)["contrib"]
                    .sum())

        def csum(df: pd.DataFrame) -> pd.DataFrame:
            return df.groupby("node", sort=False,
                              as_index=False)["contrib"].sum()

        empty = pd.DataFrame({"node": np.empty(0, np.int64),
                              "contrib": np.empty(0, np.float64)})
        contribs = bucketed_map_groups(
            joined.map_batches(contrib_part, batch_format="pandas"),
            ["node"], csum, empty_like=empty)

        base = ranks.select_columns(["node", "outdeg"])
        hydrated = hash_join(base, contribs, on=["node"], how="left_outer")

        def step(df: pd.DataFrame) -> pd.DataFrame:
            c = df["contrib"].to_numpy(np.float64)
            c = np.where(np.isnan(c), 0.0, c)
            out = df[["node", "outdeg"]].copy()
            out["pr"] = ((1.0 - damping) / n_nodes
                         + damping * (c + dangling / n_nodes))
            return out

        ranks = hydrated.map_batches(step,
                                     batch_format="pandas").materialize()

    return ranks.select_columns(["node", "pr"])


def triangle_count(edges) -> int:
    """Exact global triangle count: canonical (lo < hi) distinct
    undirected edges, then the two-join wedge-close plan — E(a,b) ⋈
    E(b,c) builds wedges with a < b < c for free (both edges ordered),
    E(a,c) closes them.  Two hash-shuffle joins + a count; never an
    all-pairs.  (For skewed degree distributions the standard
    mitigation is degree-ordering before the join — the fixture's
    hash-random graph does not need it; noted as the scale lever.)
    """
    from .relational import hash_join

    und = undirected_edges(edges, drop_self=False)
    if und.count() == 0:
        return 0

    e2 = und.map_batches(
        lambda df: df.rename(columns={"lo": "mid", "hi": "hi2"}),
        batch_format="pandas")
    wedges = hash_join(und, e2, on=["hi"], right_on=["mid"])
    # wedge (lo, hi, hi2) with lo < hi < hi2; close with edge (lo, hi2)
    closing = und.map_batches(
        lambda df: df.rename(columns={"lo": "lo", "hi": "hi2"}),
        batch_format="pandas")
    tri = hash_join(wedges.select_columns(["lo", "hi2"]), closing,
                    on=["lo", "hi2"])
    return tri.count()


def _pivot_rank(nodes: np.ndarray) -> np.ndarray:
    """Deterministic pseudo-random permutation rank pi(v) for the
    pivot algorithm: the DuckDB uint64 hash of the decimal id.  A
    collision would merely tie two nodes (broken deterministically
    downstream) — it cannot produce an invalid clustering, only a
    different valid one."""
    return hash_strings_fast(pd.Series(nodes).astype(str).tolist())


def cc_pivot(edges, max_rounds: int = 64) -> pd.DataFrame:
    """Correlation clustering by pivot (KwikCluster — Ailon, Charikar
    & Newman 2008; parallel rounds per Chierichetti, Dalvi & Kumar,
    KDD 2014): pivots are the greedy MIS in pseudo-random order pi,
    each non-pivot joins its min-pi pivot neighbor.  The ER
    alternative to transitive closure: where connected components
    chain A-B-C into one entity, pivot clustering only groups nodes
    a single pivot witnesses — the standard guard against
    hub-contaminated clusters (3-approximation in expectation).

    Two phases, both exactly equivalent to the sequential greedy
    (pinned in tests):

    1. MIS rounds (expected O(log n)): the round's pivots are the
       active local pi-minima among active neighbors — the classic
       parallel simulation of greedy MIS (Blelloch, Fineman & Shun
       2012) — then pivots AND their active neighbors deactivate and
       the materialized edge stream is filtered map-side (the edge
       payload never re-shuffles).  Per round: one edge pass for
       min-neighbor-rank combiner partials (O(active nodes) out) and
       one ``ray.put`` broadcast of the round's pivot set.  pi is a
       TRUE permutation — the node universe is densely re-ranked
       ONCE by (DuckDB-hash, id), the exact (pi, id) order the
       sequential greedy processes — so rank comparisons can never
       tie (a raw-hash collision previously stalled tied neighbors
       until the all-tie corner fired) and the per-round passes map
       integer ranks instead of re-hashing id strings.
    2. Attachment: one pass over the ORIGINAL canonical edges with
       the full pivot-rank table broadcast; each non-pivot node picks
       argmin-(pi, id) among its pivot neighbors via the bucketed
       groupby — which IS the sequential assignment (a node's
       earliest-processed pivot neighbor is its min-pi pivot
       neighbor; maximality guarantees one exists).  Nodes isolated
       mid-rounds (all neighbors deactivated first) are MIS members
       and emit as singleton pivots.

    Driver/broadcast state is O(nodes) — the pagerank broadcast
    contract, with the same documented distributed-hash-join swap
    above BROADCAST_MAX_NODES.  Returns (node, cluster) with
    cluster = pivot id, one row per node that appears in any edge."""
    from .relational import partial_groupby_agg

    und = undirected_edges(edges)

    # node universe + collision-free DENSE permutation rank: sort the
    # O(nodes) id array by (hash, id) once — exactly the (pi, id)
    # total order the sequential reference processes in — and use the
    # position as pi.  One driver array, the pagerank O(nodes)
    # broadcast contract; no per-round string re-hashing.
    nodes_df = partial_groupby_agg(
        und.map_batches(
            lambda df: pd.DataFrame({
                "node": np.concatenate([df["lo"].to_numpy(np.int64),
                                        df["hi"].to_numpy(np.int64)]),
                "one": 1}),
            batch_format="pandas"),
        ["node"], {"one": ("one", "min")})
    all_nodes = np.sort(nodes_df["node"].to_numpy(np.int64))
    hr = _pivot_rank(all_nodes)
    order = np.lexsort((all_nodes, hr))
    dense = np.empty(len(all_nodes), np.int64)
    dense[order] = np.arange(len(all_nodes), dtype=np.int64)
    rank_of = dict(zip(all_nodes.tolist(), dense.tolist()))
    rkref = ray.put(rank_of)

    def min_nbr_rank(ds) -> pd.DataFrame:
        def part(df: pd.DataFrame) -> pd.DataFrame:
            rk = ray.get(rkref)
            lo = df["lo"].to_numpy(np.int64)
            hi = df["hi"].to_numpy(np.int64)
            node = np.concatenate([lo, hi])
            nbr = np.concatenate([hi, lo])
            r = pd.Series(nbr).map(rk).to_numpy(np.int64)
            p = pd.DataFrame({"node": node, "r": r})
            g = p.groupby("node", sort=False)["r"].min()
            return pd.DataFrame({"node": g.index.to_numpy(np.int64),
                                 "r": g.to_numpy(np.int64)})

        parts = ds.map_batches(part, batch_format="pandas")
        return partial_groupby_agg(parts, ["node"], {"r": ("r", "min")})

    deactivated: set[int] = set()
    pivots: dict[int, int] = {}   # node -> dense permutation rank

    cur = und
    mnr = min_nbr_rank(und)
    for _ in range(max_rounds):
        if len(mnr) == 0:
            break
        nodes = mnr["node"].to_numpy(np.int64)
        own = pd.Series(nodes).map(rank_of).to_numpy(np.int64)
        nbr_min = mnr["r"].to_numpy(np.int64)
        # dense ranks are a true permutation: strict local minima
        # always exist, no tie corner
        is_piv = own < nbr_min
        round_piv = nodes[is_piv]
        for n, r in zip(round_piv.tolist(), own[is_piv].tolist()):
            pivots[n] = r
        pref = ray.put(frozenset(round_piv.tolist()))

        def dead(df: pd.DataFrame) -> pd.DataFrame:
            pv = ray.get(pref)
            lo = df["lo"].to_numpy(np.int64)
            hi = df["hi"].to_numpy(np.int64)
            lo_p = pd.Series(lo).isin(pv).to_numpy()
            hi_p = pd.Series(hi).isin(pv).to_numpy()
            gone = np.unique(np.concatenate(
                [lo[lo_p], hi[hi_p], lo[hi_p], hi[lo_p]]))
            return pd.DataFrame({"node": gone})

        gone = set(np.unique(np.concatenate([
            b["node"].to_numpy(np.int64) for b in
            cur.map_batches(dead, batch_format="pandas")
            .iter_batches(batch_format="pandas")] or
            [np.empty(0, np.int64)])).tolist())
        deactivated |= gone
        dref = ray.put(frozenset(gone))

        def flt(df: pd.DataFrame) -> pd.DataFrame:
            d = ray.get(dref)
            return df[~df["lo"].isin(d) & ~df["hi"].isin(d)]

        cur = cur.map_batches(flt, batch_format="pandas").materialize()
        if cur.count() == 0:
            break
        mnr = min_nbr_rank(cur)

    # nodes never deactivated are isolated MIS singletons
    for n in all_nodes.tolist():
        if n not in deactivated:
            pivots.setdefault(int(n), rank_of[int(n)])

    pvref = ray.put(pivots)

    def cand(df: pd.DataFrame) -> pd.DataFrame:
        pv = ray.get(pvref)
        lo = df["lo"].to_numpy(np.int64)
        hi = df["hi"].to_numpy(np.int64)
        lo_p = pd.Series(lo).isin(pv).to_numpy()
        hi_p = pd.Series(hi).isin(pv).to_numpy()
        n1, p1 = lo[~lo_p & hi_p], hi[~lo_p & hi_p]
        n2, p2 = hi[~hi_p & lo_p], lo[~hi_p & lo_p]
        node = np.concatenate([n1, n2])
        piv = np.concatenate([p1, p2])
        pr = (pd.Series(piv).map(pv).to_numpy(dtype=np.int64)
              if len(piv) else np.empty(0, np.int64))
        out = pd.DataFrame({"node": node, "pr": pr, "piv": piv})
        out = out.sort_values(["node", "pr", "piv"], kind="mergesort")
        return out.drop_duplicates("node", ignore_index=True)

    def best(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["node", "pr", "piv"], kind="mergesort")
        return df.drop_duplicates("node", ignore_index=True)

    cands = bucketed_map_groups(
        und.map_batches(cand, batch_format="pandas"),
        ["node"], best,
        empty_like=pd.DataFrame({"node": np.empty(0, np.int64),
                                 "pr": np.empty(0, np.int64),
                                 "piv": np.empty(0, np.int64)})
    ).to_pandas()

    assign = {int(n): int(p) for n, p in
              zip(cands["node"].to_numpy(np.int64),
                  cands["piv"].to_numpy(np.int64))}
    for p in pivots:
        assign[int(p)] = int(p)
    node_arr = np.fromiter(assign, np.int64, len(assign))
    out = pd.DataFrame({"node": node_arr,
                        "cluster": np.fromiter(
                            (assign[int(n)] for n in node_arr),
                            np.int64, len(assign))})
    return out.sort_values("node").reset_index(drop=True)


def label_propagation(edges, n_iter: int = 5) -> pd.DataFrame:
    """Synchronous label-propagation community detection (Raghavan,
    Albert & Kumara 2007), made DETERMINISTIC: labels start as node
    ids; each round every node adopts the most frequent label among
    its neighbors, ties broken by the SMALLEST label; fixed
    ``n_iter`` rounds (the async random-order variant is not
    reproducible across partitionings — the sync + total tie-break
    formulation is, and is pinned against a single-node reference).

    Plan per round (pagerank's broadcast-contribution contract): the
    O(nodes) label state is one ``ray.put`` broadcast (documented
    hash-join swap above BROADCAST_MAX_NODES), one pass over the
    materialized undirected edge stream emits per-batch
    (node, nbr_label, cnt) combiner partials — bounded by nodes x
    distinct-neighbor-labels, which shrinks every round as
    communities form — and the per-node argmax-(cnt, -label) finishes
    on the bounded partial table.  Edges never re-shuffle.  Returns
    (node, label)."""
    from .relational import partial_groupby_agg

    und = undirected_edges(edges)

    nodes_df = partial_groupby_agg(
        und.map_batches(
            lambda df: pd.DataFrame({
                "node": np.concatenate([df["lo"].to_numpy(np.int64),
                                        df["hi"].to_numpy(np.int64)]),
                "one": 1}),
            batch_format="pandas"),
        ["node"], {"one": ("one", "min")})
    nodes = np.sort(nodes_df["node"].to_numpy(np.int64))
    labels = {int(n): int(n) for n in nodes}

    for _ in range(n_iter):
        ref = ray.put(labels)

        def contrib(df: pd.DataFrame) -> pd.DataFrame:
            lab = ray.get(ref)
            lo = df["lo"].to_numpy(np.int64)
            hi = df["hi"].to_numpy(np.int64)
            node = np.concatenate([lo, hi])
            nbr = np.concatenate([hi, lo])
            nl = pd.Series(nbr).map(lab).to_numpy(np.int64)
            p = pd.DataFrame({"node": node, "lab": nl})
            c = p.groupby(["node", "lab"], sort=False).size()
            return c.reset_index(name="cnt")

        cells = partial_groupby_agg(
            und.map_batches(contrib, batch_format="pandas"),
            ["node", "lab"], {"cnt": ("cnt", "sum")})
        # argmax count, tie -> smallest label (deterministic)
        cells = cells.sort_values(["node", "cnt", "lab"],
                                  ascending=[True, False, True],
                                  kind="mergesort")
        best = cells.drop_duplicates("node")
        labels = dict(zip(best["node"].astype(int),
                          best["lab"].astype(int)))

    return pd.DataFrame({"node": nodes,
                         "label": np.fromiter(
                             (labels[int(n)] for n in nodes),
                             np.int64, len(nodes))})


