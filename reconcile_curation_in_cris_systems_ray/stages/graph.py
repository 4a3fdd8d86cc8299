"""Link-graph operators: degree statistics and PageRank over an edge list.

The reference has no graph operators (its closest relative is the
transitive-closure cluster assembly in ``stages/cluster.py``, SURVEY
§7.1 step 7); a web-scale curation engine needs the classic link-graph
family — per-node degree stats and PageRank (Page et al. 1999, public
algorithm) over the page/host graph — so these are north-rule additions
in the same spirit as the dedup/ANN operators.

Physical plans, graded for 100 TB:

* ``degree_stats`` — per-batch count partials (one narrow map over the
  edges, never the payload) + ONE bucketed co-location shuffle of the
  bounded (node, out, in) partials.  Zero-degree nodes enter as
  zero-partials from the node table, so no second join is needed.
* ``pagerank`` — power iteration.  Per iteration the rank state moves,
  never the edge payload: below ``broadcast_limit`` nodes the
  rank/out-degree vector ships once via ``ray.put`` and each edge batch
  emits (dst, contrib) partials into the combiner (kmeans-style, one
  data pass per iteration); above it, ranks stay a Dataset and each
  iteration is two bounded hash joins (edges ⋈ ranks on src; node
  universe ⋈ contribs on dst) — the rank table is O(nodes), the edge
  table is streamed.  Both paths share identical arithmetic (IEEE
  double, same expression order) and are pinned equal in tests.
  Dangling mass (out-degree 0) is redistributed uniformly each
  iteration, the standard correction.

Edge fixture: ``derive_link_edges`` derives a deterministic synthetic
link graph from an integer id column — out-degree ``id % max_out``,
destinations ``hash(id || ':' || j) % n_nodes`` with DuckDB's
``hash()`` kernel (via ``hash_strings_fast``) so a SQL oracle rebuilds
the identical edge set bit-for-bit (same fixture discipline as
``mixture_resample``).  Self-loops dropped, parallel edges deduped
batch-locally — global, because every edge of a given src is emitted
from that src's single input row.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
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
    family (triangles, trusses, k-core, pivot clustering, LPA).
    Per-batch canonicalize + local dedup is a combiner (bounded by
    batch distincts); ONE bucketed exchange dedupes globally; the
    result is materialized because every caller re-streams it.
    ``drop_self``: filter self-loops (graph ops where a self-edge is
    meaningless); triangle/support counting keeps them (lo == hi rows
    cannot form a wedge, so they are inert there)."""
    from .shuffle import bucketed_map_groups

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


def _degree_partials(edges, nodes, node_col: str):
    """Edge-count partials + zero anchors for every node (so isolated
    nodes appear with degree 0 without a second join)."""

    def edge_part(df: pd.DataFrame) -> pd.DataFrame:
        o = df.groupby("src", sort=False).size()
        i = df.groupby("dst", sort=False).size()
        return pd.DataFrame({
            "node": np.concatenate([o.index.to_numpy(np.int64),
                                    i.index.to_numpy(np.int64)]),
            "out_degree": np.concatenate(
                [o.to_numpy(np.int64), np.zeros(len(i), np.int64)]),
            "in_degree": np.concatenate(
                [np.zeros(len(o), np.int64), i.to_numpy(np.int64)]),
        })

    def node_part(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        return pd.DataFrame({
            "node": df[node_col].to_numpy(np.int64),
            "out_degree": np.zeros(n, np.int64),
            "in_degree": np.zeros(n, np.int64),
        })

    return edges.map_batches(edge_part, batch_format="pandas").union(
        nodes.map_batches(node_part, batch_format="pandas"))


def degree_stats(edges, nodes, node_col: str = "node"):
    """Per-node (out_degree, in_degree) — one shuffle of count partials."""

    def comb(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("node", sort=False, as_index=False)
        return g.agg(out_degree=("out_degree", "sum"),
                     in_degree=("in_degree", "sum"))

    return bucketed_map_groups(_degree_partials(edges, nodes, node_col),
                               ["node"], comb)


def _outdeg_state(edges, nodes, node_col: str = "node"):
    """(node, outdeg) over the full node universe — per-batch degree
    partials unioned with zero anchors from the node table, merged in
    one bucketed combine.  Shared by pagerank / personalized_pagerank."""

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


def personalized_pagerank(edges, nodes, n_nodes: int,
                          seed_mod: int = 101, node_col: str = "node",
                          n_iter: int = 5, damping: float = 0.85):
    """Personalized PageRank (random walk with restart to a SEED set —
    the topic-/entity-conditioned variant of :func:`pagerank`, the
    standard relevance prior in collective entity resolution):

    ``PPR_t(v) = (1-d)*e(v) + d * (Σ_{(u,v)} PPR_{t-1}(u)/outdeg(u)
    + D*e(v))`` with restart distribution ``e(v) = 1/|S|`` for seeds
    (``v % seed_mod == 0``) else 0, and dangling mass ``D`` restarting
    to the seeds (not spread uniformly).  ``r0 = e``.

    Same physical plan and float discipline as the pagerank broadcast
    path (O(nodes) rank vector shipped once per iteration, per-batch
    contribution combiner; identical IEEE expression order vs the
    unrolled-CTE oracle, only groupby-sum reduction order differs —
    round(8) on both sides).  Returns a Dataset of (node, ppr)."""
    from .relational import partial_groupby_agg

    edges = edges.materialize()
    state = _outdeg_state(edges, nodes, node_col)

    st = state.to_pandas()
    node_idx = pd.Index(st["node"].to_numpy(np.int64))
    outdeg = pd.Series(st["outdeg"].to_numpy(np.float64), index=node_idx)
    seeds = (node_idx.to_numpy() % seed_mod) == 0
    k = int(seeds.sum())
    e = pd.Series(np.where(seeds, 1.0 / k if k else 0.0, 0.0),
                  index=node_idx)
    rank = e.copy()
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
        rank = (1.0 - damping) * e + damping * (c + dangling * e)

    import ray.data as rd

    return rd.from_pandas(pd.DataFrame(
        {"node": node_idx.to_numpy(np.int64),
         "ppr": rank.to_numpy(np.float64)}))


def extract_links(ds, html_col: str = "html", url_col: str = "url"):
    """href extraction over an HTML column: one row per (src, href).

    Vectorized ``str.findall`` with a compiled pattern (double- or
    single-quoted href attribute values), exploded to long format —
    the real-corpus edge source that ``derive_link_edges`` stands in
    for on the link-free test tables.  Map-only.
    """
    import re

    pat = re.compile(r"""href\s*=\s*["']([^"']+)["']""", re.IGNORECASE)

    def f(df: pd.DataFrame) -> pd.DataFrame:
        html = df[html_col].astype(str)
        hits = html.str.findall(pat)
        n = hits.str.len().to_numpy(np.int64)
        src = np.repeat(df[url_col].to_numpy(object), n)
        flat = [h for row in hits for h in row]
        return pd.DataFrame({"src": pd.array(src, dtype="string"),
                             "href": pd.array(flat, dtype="string")})

    return ds.map_batches(f, batch_format="pandas")


def triangle_count(edges) -> int:
    """Exact global triangle count: canonical (lo < hi) distinct
    undirected edges, then the two-join wedge-close plan — E(a,b) ⋈
    E(b,c) builds wedges with a < b < c for free (both edges ordered),
    E(a,c) closes them.  Two hash-shuffle joins + a count; never an
    all-pairs.  (For skewed degree distributions the standard
    mitigation is degree-ordering before the join — the fixture's
    hash-random graph does not need it; noted as the scale lever.)
    """
    import pandas as pd

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


def edge_support(edges):
    """Per-edge triangle support: for every canonical undirected edge
    (lo < hi), the number of triangles containing it — i.e. the common
    neighbors of its endpoints (|N(lo) ∩ N(hi)|), the k-truss /
    collective-ER signal that an observed link is corroborated by
    shared structure.

    Same two-join wedge-close plan as :func:`triangle_count` (each
    triangle a<b<c found exactly once), then each triangle pays one
    support count to each of its three edges and the counts co-locate
    in ONE bucketed shuffle; zero-support edges survive via zero
    anchors from the edge table itself (the degree_stats trick), so no
    second join.  Output: ``(lo, hi, support)`` over ALL distinct
    undirected edges."""
    import pandas as pd

    from .relational import hash_join
    from .shuffle import bucketed_map_groups

    und = undirected_edges(edges, drop_self=False)

    zeros = und.map_batches(
        lambda df: df.assign(n=np.int64(0)), batch_format="pandas")
    if und.count() == 0:
        return zeros.map_batches(
            lambda df: df.rename(columns={"n": "support"}),
            batch_format="pandas")

    e2 = und.map_batches(
        lambda df: df.rename(columns={"lo": "mid", "hi": "hi2"}),
        batch_format="pandas")
    wedges = hash_join(und, e2, on=["hi"], right_on=["mid"])
    closing = und.map_batches(
        lambda df: df.rename(columns={"hi": "hi2"}),
        batch_format="pandas")
    tri = hash_join(wedges.select_columns(["lo", "hi", "hi2"]), closing,
                    on=["lo", "hi2"], right_on=["lo", "hi2"])

    def explode_edges(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"lo": np.empty(0, np.int64),
                                 "hi": np.empty(0, np.int64),
                                 "n": np.empty(0, np.int64)})
        a = df["lo"].to_numpy(np.int64)
        b = df["hi"].to_numpy(np.int64)
        c = df["hi2"].to_numpy(np.int64)
        return pd.DataFrame({
            "lo": np.concatenate([a, b, a]),
            "hi": np.concatenate([b, c, c]),
            "n": np.ones(3 * len(df), np.int64)})

    contrib = tri.map_batches(explode_edges, batch_format="pandas")

    def total(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["lo", "hi"], sort=False, as_index=False)["n"] \
            .sum()
        return g.rename(columns={"n": "support"})

    empty_s = pd.DataFrame({"lo": np.empty(0, np.int64),
                            "hi": np.empty(0, np.int64),
                            "support": np.empty(0, np.int64)})
    return bucketed_map_groups(zeros.union(contrib), ["lo", "hi"],
                               total, empty_like=empty_s)


def hits(edges, nodes, node_col: str = "node", n_iter: int = 3):
    """HITS hubs and authorities (Kleinberg 1999, public algorithm):
    ``a_k(v) = Σ_{(u,v)} h_{k-1}(u)``, ``h_k(u) = Σ_{(u,v)} a_k(v)``,
    starting from h=1.  Normalization happens ONCE at the end, by the
    maximum score: per-iteration L2 normalization would compound the
    float-sum-order noise of a distributed reduction into the next
    iteration, while max-normalization is exact in both engines and
    the unnormalized iterate stays bounded for small k (values <=
    max_degree^(2k)).

    Plan mirrors ``_pagerank_broadcast``: the O(nodes) score vector
    ships once per half-iteration via ``ray.put``; each edge batch
    emits grouped contribution partials into the combiner; edges are
    materialized once and streamed per pass.  (Above the pagerank
    ``broadcast_limit`` the distributed analogue is its two-hash-join
    plan — same crossover, not duplicated here.)  Output: ``(node,
    hub, authority)``, both max-normalized, round-6."""
    from .relational import partial_groupby_agg

    edges = edges.materialize()
    nd = nodes.to_pandas()
    node_idx = pd.Index(nd[node_col].to_numpy(np.int64))
    h = pd.Series(np.ones(len(node_idx)), index=node_idx)
    a = pd.Series(np.zeros(len(node_idx)), index=node_idx)

    def push(scores: pd.Series, from_col: str, to_col: str) -> pd.Series:
        ref = ray.put(scores)

        def part(df: pd.DataFrame) -> pd.DataFrame:
            w = ray.get(ref)
            c = df[from_col].map(w).to_numpy(np.float64)
            return pd.DataFrame({
                "node": df[to_col].to_numpy(np.int64),
                "v": c}).groupby("node", sort=False,
                                 as_index=False)["v"].sum()

        mapped = edges.map_batches(part, batch_format="pandas")
        sums = partial_groupby_agg(mapped, ["node"], {"v": ("v", "sum")})
        if len(sums) == 0:
            return pd.Series(np.zeros(len(node_idx)), index=node_idx)
        return (sums.set_index("node")["v"]
                .reindex(node_idx).fillna(0.0))

    for _ in range(n_iter):
        a = push(h, "src", "dst")
        h = push(a, "dst", "src")

    hm, am = float(h.max()), float(a.max())
    hub = h / hm if hm > 0 else h * 0.0
    auth = a / am if am > 0 else a * 0.0
    out = pd.DataFrame({"node": node_idx.to_numpy(np.int64),
                        "hub": hub.to_numpy(np.float64).round(6),
                        "authority": auth.to_numpy(np.float64).round(6)})
    import ray.data as rd

    return rd.from_pandas(out)


def kcore(edges, k: int = 2, max_rounds: int = 64):
    """k-core decomposition: the maximal subgraph in which every node
    has undirected degree >= k (Seidman 1983, public algorithm) — the
    spam-farm / dense-community filter of the link-graph family.

    Iterative peeling: each round counts degrees over the surviving
    canonical undirected edges (per-batch count partials + the
    combiner — at web scale swap for the bucketed count, same
    contract as degree_stats), broadcasts the sub-k node set via one
    ``ray.put``, and filters the edge stream map-side; rounds stop at
    the fixpoint (no removals) or ``max_rounds``.  Edges are
    materialized once and re-filtered per round — the edge payload
    never re-shuffles.  Returns the surviving (node, degree) table.
    Driver state is O(nodes) per round (the degree map), the
    pagerank-broadcast contract."""
    import pandas as pd

    from .relational import partial_groupby_agg

    und = undirected_edges(edges)

    def degrees(ds) -> pd.DataFrame:
        def part(df: pd.DataFrame) -> pd.DataFrame:
            c = pd.concat([df["lo"], df["hi"]]).value_counts(sort=False)
            return pd.DataFrame({"node": c.index.to_numpy(np.int64),
                                 "deg": c.to_numpy(np.int64)})

        return partial_groupby_agg(
            ds.map_batches(part, batch_format="pandas"),
            ["node"], {"deg": ("deg", "sum")})

    cur = und
    deg = degrees(cur)
    for _ in range(max_rounds):
        drop = frozenset(deg.loc[deg["deg"] < k, "node"])
        if not drop:
            break
        ref = ray.put(drop)

        def flt(df: pd.DataFrame) -> pd.DataFrame:
            d = ray.get(ref)
            out = df[~df["lo"].isin(d) & ~df["hi"].isin(d)]
            return out

        cur = cur.map_batches(flt, batch_format="pandas").materialize()
        deg = degrees(cur)
        if len(deg) == 0:
            break
    if len(deg) == 0:
        return pd.DataFrame({"node": pd.Series([], dtype="int64"),
                             "degree": pd.Series([], dtype="int64")})
    out = deg.rename(columns={"deg": "degree"})
    return out[out["degree"] >= k].sort_values("node") \
        .reset_index(drop=True)


def _pivot_rank(nodes: np.ndarray) -> np.ndarray:
    """Deterministic pseudo-random permutation rank pi(v) for the
    pivot algorithm: the DuckDB uint64 hash of the decimal id.  A
    collision would merely tie two nodes (broken deterministically
    downstream) — it cannot produce an invalid clustering, only a
    different valid one."""
    from ..functions.similarity import hash_strings_fast

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


def bfs_levels(edges, nodes, seed_mod: int = 97,
               max_hops: int = 4) -> pd.DataFrame:
    """Multi-source directed BFS hop distance: every node whose id is
    divisible by ``seed_mod`` is a level-0 seed; level t+1 = nodes
    first reachable by following one edge from the level-t frontier.
    Unreached nodes within ``max_hops`` carry level -1.

    Physical plan per hop (the label_propagation broadcast contract):
    the CURRENT FRONTIER — not the whole level map — ships once as a
    ``ray.put`` set; one pass over the edge stream emits the batch's
    frontier-successor dst ids (deduped in-batch), and a combiner
    min-merge dedupes globally.  The edge stream itself never
    shuffles and is re-streamed at most ``max_hops`` times; frontier
    bytes shrink as the reachable set saturates.  Above
    BROADCAST_MAX_NODES per frontier the broadcast swaps for the
    bucketed hash-join on src (same swap as pagerank's documented
    contract).  Returns (node, lvl) for ALL nodes.
    """
    from .relational import partial_groupby_agg

    node_ids = np.sort(partial_groupby_agg(
        nodes.map_batches(
            lambda df: pd.DataFrame(
                {"node": df["node"].to_numpy(np.int64), "one": 1}),
            batch_format="pandas"),
        ["node"], {"one": ("one", "min")})["node"].to_numpy(np.int64))
    levels: dict[int, int] = {int(n): 0 for n in node_ids
                              if int(n) % seed_mod == 0}
    frontier = set(levels)
    edges = edges.materialize()

    for hop in range(1, max_hops + 1):
        if not frontier:
            break
        ref = ray.put(np.fromiter(frontier, np.int64, len(frontier)))

        def succ(df: pd.DataFrame) -> pd.DataFrame:
            fr = ray.get(ref)
            src = df["src"].to_numpy(np.int64)
            dst = df["dst"].to_numpy(np.int64)
            hit = np.isin(src, fr)
            return pd.DataFrame({"node": np.unique(dst[hit])})

        reached = partial_groupby_agg(
            edges.map_batches(succ, batch_format="pandas"),
            ["node"], {"node2": ("node", "min")})
        new = [int(n) for n in reached["node"].to_numpy(np.int64)
               if int(n) not in levels]
        for n in new:
            levels[n] = hop
        frontier = set(new)

    return pd.DataFrame({
        "node": node_ids,
        "lvl": np.fromiter((levels.get(int(n), -1) for n in node_ids),
                           np.int64, len(node_ids))})


def adamic_adar(edges, num_buckets: int = 64):
    """Adamic-Adar link prediction (Adamic & Adar 2003): for every
    NON-adjacent node pair (u < v) with at least one common neighbor,
    ``aa = Σ_{w ∈ N(u) ∩ N(v)} 1 / ln(deg(w))`` over the undirected
    graph — the classic "which links are missing" ER/graph-curation
    score (a high-aa non-edge is a candidate duplicate/citation).

    Plan, graded for 10^12 edges: wedge generation is ONE bucketed
    shuffle on the CENTER node w — and because the co-location shuffle
    delivers w's COMPLETE adjacency list as one group, deg(w) is just
    the group length, so no degree table, broadcast, or join exists at
    all.  Scoring and adjacency exclusion fuse into ONE more
    co-location shuffle on (u, v): existing undirected edges ride
    along as marker rows (is_edge=1) so groups containing a marker are
    dropped without a separate anti-join pass.  Hub centers (deg ~
    corpus size) must pre-split through the salted pair generator
    (stages/pairs.py), the same cap every wedge op here documents."""
    from .shuffle import bucketed_map_groups

    und = undirected_edges(edges)

    def orient(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "a": np.concatenate([df["lo"].to_numpy(np.int64),
                                 df["hi"].to_numpy(np.int64)]),
            "b": np.concatenate([df["hi"].to_numpy(np.int64),
                                 df["lo"].to_numpy(np.int64)])})

    adj = und.map_batches(orient, batch_format="pandas")

    def center_pairs(df: pd.DataFrame) -> pd.DataFrame:
        out_u, out_v, out_w = [], [], []
        for _, grp in df.groupby("a", sort=False)["b"]:
            if len(grp) < 2:
                continue
            nb = np.sort(grp.to_numpy(np.int64))
            iu, ju = np.triu_indices(len(nb), 1)
            out_u.append(nb[iu])
            out_v.append(nb[ju])
            out_w.append(np.full(iu.size, 1.0 / np.log(len(nb))))
        if not out_u:
            return pd.DataFrame({"u": np.empty(0, np.int64),
                                 "v": np.empty(0, np.int64),
                                 "w": np.empty(0, np.float64),
                                 "is_edge": np.empty(0, np.int64)})
        return pd.DataFrame({"u": np.concatenate(out_u),
                             "v": np.concatenate(out_v),
                             "w": np.concatenate(out_w),
                             "is_edge": np.zeros(
                                 sum(x.size for x in out_u), np.int64)})

    contrib = bucketed_map_groups(adj, ["a"], center_pairs, num_buckets)

    markers = und.map_batches(
        lambda df: pd.DataFrame({"u": df["lo"].to_numpy(np.int64),
                                 "v": df["hi"].to_numpy(np.int64),
                                 "w": np.zeros(len(df), np.float64),
                                 "is_edge": np.ones(len(df), np.int64)}),
        batch_format="pandas")

    def score(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["u", "v"], sort=False, as_index=False).agg(
            s=("w", "sum"), e=("is_edge", "max"))
        g = g[g["e"] == 0]
        return pd.DataFrame({"u": g["u"].to_numpy(np.int64),
                             "v": g["v"].to_numpy(np.int64),
                             "aa": np.round(g["s"].to_numpy(np.float64),
                                            6)})

    empty = pd.DataFrame({"u": np.empty(0, np.int64),
                          "v": np.empty(0, np.int64),
                          "aa": np.empty(0, np.float64)})
    return bucketed_map_groups(contrib.union(markers), ["u", "v"],
                               score, num_buckets, empty_like=empty)


def jaccard_links(edges, num_buckets: int = 64,
                  broadcast_limit: int = 2_000_000):
    """Jaccard-coefficient link prediction: for every NON-adjacent
    node pair (u < v) with >= 1 common neighbor,
    ``jac = |N(u) ∩ N(v)| / |N(u) ∪ N(v)|`` over the undirected graph
    (Liben-Nowell & Kleinberg 2003's neighborhood-overlap baseline) —
    the degree-normalized sibling of :func:`adamic_adar` (which it
    shares the wedge plan with).

    Plan: the intersection count comes from ONE center-node
    co-location shuffle (same as adamic_adar); the union needs
    endpoint degrees ``deg(u) + deg(v) - common``, hydrated from the
    per-node degree combiner — broadcast once via ``ray.put`` below
    ``broadcast_limit`` nodes, two bucketed hash joins above it (the
    pagerank crossover).  Adjacency exclusion rides the same (u, v)
    shuffle as marker rows."""
    from .relational import hash_join, partial_groupby_agg
    from .shuffle import bucketed_map_groups

    und = undirected_edges(edges)

    def orient(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "a": np.concatenate([df["lo"].to_numpy(np.int64),
                                 df["hi"].to_numpy(np.int64)]),
            "b": np.concatenate([df["hi"].to_numpy(np.int64),
                                 df["lo"].to_numpy(np.int64)])})

    adj = und.map_batches(orient, batch_format="pandas").materialize()

    def center_pairs(df: pd.DataFrame) -> pd.DataFrame:
        out_u, out_v = [], []
        for _, grp in df.groupby("a", sort=False)["b"]:
            if len(grp) < 2:
                continue
            nb = np.sort(grp.to_numpy(np.int64))
            iu, ju = np.triu_indices(len(nb), 1)
            out_u.append(nb[iu])
            out_v.append(nb[ju])
        if not out_u:
            return pd.DataFrame({"u": np.empty(0, np.int64),
                                 "v": np.empty(0, np.int64),
                                 "is_edge": np.empty(0, np.int64)})
        n = sum(x.size for x in out_u)
        return pd.DataFrame({"u": np.concatenate(out_u),
                             "v": np.concatenate(out_v),
                             "is_edge": np.zeros(n, np.int64)})

    contrib = bucketed_map_groups(adj, ["a"], center_pairs, num_buckets)
    markers = und.map_batches(
        lambda df: pd.DataFrame({"u": df["lo"].to_numpy(np.int64),
                                 "v": df["hi"].to_numpy(np.int64),
                                 "is_edge": np.ones(len(df), np.int64)}),
        batch_format="pandas")

    def collapse(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["u", "v"], sort=False, as_index=False).agg(
            common=("is_edge", "size"), e=("is_edge", "max"))
        g = g[g["e"] == 0]
        # size counted the wedge rows; marker rows are excluded above,
        # and non-excluded groups hold only wedge rows
        return pd.DataFrame({"u": g["u"].to_numpy(np.int64),
                             "v": g["v"].to_numpy(np.int64),
                             "common": g["common"]
                             .to_numpy(np.int64)})

    empty_c = pd.DataFrame({"u": np.empty(0, np.int64),
                            "v": np.empty(0, np.int64),
                            "common": np.empty(0, np.int64)})
    pairs = bucketed_map_groups(contrib.union(markers), ["u", "v"],
                                collapse, num_buckets,
                                empty_like=empty_c)

    # per-node degrees: one count combiner (O(nodes) rows)
    deg_parts = adj.map_batches(
        lambda df: df.groupby("a", sort=False).size()
        .reset_index(name="k"), batch_format="pandas")
    deg = partial_groupby_agg(deg_parts, ["a"], {"k": ("k", "sum")})

    if len(deg) <= broadcast_limit:
        deg_ref = ray.put(pd.Series(deg["k"].to_numpy(np.int64),
                                    index=deg["a"].to_numpy(np.int64)))

        def hydrate(df: pd.DataFrame, _ref=deg_ref) -> pd.DataFrame:
            dm = ray.get(_ref)
            ku = df["u"].map(dm).to_numpy(np.float64)
            kv = df["v"].map(dm).to_numpy(np.float64)
            c = df["common"].to_numpy(np.float64)
            return pd.DataFrame({
                "u": df["u"].to_numpy(np.int64),
                "v": df["v"].to_numpy(np.int64),
                "common": df["common"].to_numpy(np.int64),
                "jac": np.round(c / (ku + kv - c), 6)})

        return pairs.map_batches(hydrate, batch_format="pandas")

    # distributed fallback: two hash joins on the degree table
    import ray.data as rd

    deg_ds = rd.from_pandas(deg.rename(columns={"a": "node"}))
    j1 = hash_join(pairs, deg_ds, on=["u"], right_on=["node"])
    j1 = j1.map_batches(lambda df: df.rename(columns={"k": "ku"}),
                        batch_format="pandas")
    j2 = hash_join(j1, deg_ds, on=["v"], right_on=["node"])

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        c = df["common"].to_numpy(np.float64)
        denom = (df["ku"].to_numpy(np.float64)
                 + df["k"].to_numpy(np.float64) - c)
        return pd.DataFrame({
            "u": df["u"].to_numpy(np.int64),
            "v": df["v"].to_numpy(np.int64),
            "common": df["common"].to_numpy(np.int64),
            "jac": np.round(c / denom, 6)})

    return j2.map_batches(finish, batch_format="pandas")


def ktruss(edges, k: int = 3, max_rounds: int = 50):
    """k-truss subgraph: the maximal set of edges in which every edge
    is supported by at least ``k - 2`` triangles WITHIN the surviving
    subgraph (Cohen 2008, "Trusses: cohesive subgraphs for social
    network analysis").  The standard distributed plan: iterative
    support peeling — each round recomputes per-edge triangle support
    on the current edge set with :func:`edge_support`'s wedge-close
    joins (two hash shuffles + one co-location exchange, never
    all-pairs) and drops under-supported edges map-side; fixpoint when
    a round drops nothing.  Rounds are O(peeling depth), bounded by
    ``max_rounds``; each round's survivors are materialized so lineage
    stays flat.  Returns canonical DISTINCT undirected ``(lo, hi)``
    edges of the k-truss.

    Reference parity: the reference has no graph engine — this extends
    the corroboration signal it approximates with co-occurrence counts
    (repository.py's shared-work evidence) to a transitively-verified
    one; pinned in tests/test_graph.py against a single-node peeler.
    """
    thresh = int(k) - 2
    cur = undirected_edges(edges).materialize()
    if thresh <= 0:
        return cur

    # edge_support's front door expects (src, dst); cur is already
    # canonical (lo, hi), so the rename is a zero-cost relabel per
    # round (undirected_edges re-dedup of already-distinct rows is a
    # per-batch no-op plus the co-location exchange the support count
    # needs anyway).
    def as_src_dst(df: pd.DataFrame) -> pd.DataFrame:
        return df.rename(columns={"lo": "src", "hi": "dst"})

    for _ in range(int(max_rounds)):
        n_before = cur.count()
        if n_before == 0:
            break
        sup = edge_support(
            cur.map_batches(as_src_dst, batch_format="pandas"))

        def keep(df: pd.DataFrame, _t=thresh) -> pd.DataFrame:
            out = df[df["support"] >= _t]
            return out[["lo", "hi"]]

        cur = sup.map_batches(keep, batch_format="pandas").materialize()
        n_after = cur.count()
        # The filter leaves 0-row (schema-less in Ray 2.49) blocks
        # behind; the next round's wedge-close hash join rejects them
        # (FieldRef resolution on an empty schema — the tracked
        # empty-block class).  Compact to row-sized blocks so every
        # surviving block is non-empty: linear block merge, not a
        # shuffle, on an edge set that only shrinks.
        if n_after:
            cpus = int(ray.cluster_resources().get("CPU", 8))
            nb = max(1, min(2 * cpus, n_after // 200_000 + 1))
            cur = cur.repartition(nb).materialize()
        if n_after == n_before:
            break
    return cur


def scc_labels(edges, max_trim_rounds: int = 64,
               finish_cap: int = 1_000_000) -> pd.DataFrame:
    """Strongly connected components of the DIRECTED (src, dst)
    stream, labeled by the minimum node id in each SCC.

    The flagship connected-components hybrid (cluster.py: distributed
    rounds that shrink the problem, then one bounded remote finish)
    adapted to directed reachability:

    1. **Distributed trim** (the workhorse): a node with in-degree 0
       or out-degree 0 cannot sit in any cycle — it is its own SCC.
       Each round computes both degree combiners (O(active nodes)
       partials, no edge shuffle) and drops trimmed nodes' edges
       map-side against the broadcast trimmed set.  Web-style link
       graphs lose the long in/out tendrils here in O(tendril depth)
       rounds; each round strictly shrinks the edge stream.
    2. **Bounded Tarjan finish**: the surviving core (every remaining
       node has a cycle through it or sits between cycles) is handed
       to ONE remote task running iterative Tarjan — the same
       contract as the union-find finish (``driver_finish_edges``):
       raise if the core exceeds ``finish_cap`` rather than silently
       materializing at scale (the documented swap is FW-BW coloring
       rounds, not implemented until a workload needs it).

    Returns (node, scc) for every node appearing in any edge.
    """
    from .relational import partial_groupby_agg

    def dedup(df: pd.DataFrame) -> pd.DataFrame:
        out = df[df["src"] != df["dst"]]
        return out.drop_duplicates(ignore_index=True)

    # node universe from the RAW stream: a node whose only edge is a
    # self-loop vanishes from the deduped stream but is still its own
    # SCC and must appear in the output
    universe = partial_groupby_agg(
        edges.map_batches(
            lambda df: pd.DataFrame({
                "node": np.concatenate([df["src"].to_numpy(np.int64),
                                        df["dst"].to_numpy(np.int64)]),
                "one": np.int64(1)}),
            batch_format="pandas"),
        ["node"], {"one": ("one", "min")})["node"].to_numpy(np.int64)

    cur = edges.map_batches(dedup, batch_format="pandas").materialize()
    singles: list[np.ndarray] = []

    for _ in range(int(max_trim_rounds)):
        if cur.count() == 0:
            break
        deg = partial_groupby_agg(
            cur.map_batches(
                lambda df: pd.DataFrame({
                    "node": np.concatenate(
                        [df["src"].to_numpy(np.int64),
                         df["dst"].to_numpy(np.int64)]),
                    "o": np.concatenate(
                        [np.ones(len(df), np.int64),
                         np.zeros(len(df), np.int64)]),
                    "i": np.concatenate(
                        [np.zeros(len(df), np.int64),
                         np.ones(len(df), np.int64)])}),
                batch_format="pandas"),
            ["node"], {"o": ("o", "sum"), "i": ("i", "sum")})
        trim = deg.loc[(deg["o"] == 0) | (deg["i"] == 0), "node"] \
            .to_numpy(np.int64)
        if len(trim) == 0:
            break
        singles.append(trim)
        tref = ray.put(set(trim.tolist()))

        def drop(df: pd.DataFrame) -> pd.DataFrame:
            t = ray.get(tref)
            s = df["src"].to_numpy(np.int64)
            d = df["dst"].to_numpy(np.int64)
            keep = ~(np.isin(s, list(t)) | np.isin(d, list(t)))
            return df[keep]

        cur = cur.map_batches(drop, batch_format="pandas").materialize()

    n_core = cur.count()
    if n_core > finish_cap:
        raise ValueError(
            f"SCC core has {n_core} edges > finish_cap={finish_cap}; "
            "the distributed FW-BW coloring swap is required at this "
            "scale")

    @ray.remote
    def tarjan_finish(*blocks) -> pd.DataFrame:
        if blocks:
            core = pd.concat([b for b in blocks if len(b)],
                             ignore_index=True)
        else:
            core = pd.DataFrame({"src": [], "dst": []})
        out_rows = []
        if len(core):
            src = core["src"].to_numpy(np.int64)
            dst = core["dst"].to_numpy(np.int64)
            nodes, inv = np.unique(np.concatenate([src, dst]),
                                   return_inverse=True)
            n = len(nodes)
            s_i = inv[:len(src)]
            d_i = inv[len(src):]
            order = np.argsort(s_i, kind="mergesort")
            s_s, d_s = s_i[order], d_i[order]
            starts = np.searchsorted(s_s, np.arange(n + 1))
            # iterative Tarjan
            index = np.full(n, -1, np.int64)
            low = np.zeros(n, np.int64)
            on_stack = np.zeros(n, bool)
            comp = np.full(n, -1, np.int64)
            stack: list[int] = []
            counter = 0
            for root in range(n):
                if index[root] != -1:
                    continue
                work = [(root, 0)]
                while work:
                    v, pi = work[-1]
                    if pi == 0:
                        index[v] = low[v] = counter
                        counter += 1
                        stack.append(v)
                        on_stack[v] = True
                    advanced = False
                    for ei in range(starts[v] + pi, starts[v + 1]):
                        w = int(d_s[ei])
                        if index[w] == -1:
                            work[-1] = (v, ei - starts[v] + 1)
                            work.append((w, 0))
                            advanced = True
                            break
                        if on_stack[w]:
                            low[v] = min(low[v], index[w])
                    if advanced:
                        continue
                    if low[v] == index[v]:
                        members = []
                        while True:
                            w = stack.pop()
                            on_stack[w] = False
                            members.append(w)
                            if w == v:
                                break
                        lbl = int(nodes[members].min())
                        for m in members:
                            comp[m] = lbl
                    work.pop()
                    if work:
                        u = work[-1][0]
                        low[u] = min(low[u], low[v])
            out_rows.append(pd.DataFrame({"node": nodes,
                                          "scc": comp}))
        return (pd.concat(out_rows, ignore_index=True) if out_rows
                else pd.DataFrame({"node": np.empty(0, np.int64),
                                   "scc": np.empty(0, np.int64)}))

    blocks = [pd.DataFrame(b) for b in
              cur.iter_batches(batch_format="pandas", batch_size=None)]
    core_lab = ray.get(tarjan_finish.remote(*blocks))
    parts = [core_lab]
    if singles:
        s = np.concatenate(singles)
        parts.append(pd.DataFrame({"node": s, "scc": s}))
    out = pd.concat(parts, ignore_index=True)
    missing = universe[~np.isin(universe, out["node"].to_numpy(np.int64))]
    if len(missing):
        out = pd.concat(
            [out, pd.DataFrame({"node": missing, "scc": missing})],
            ignore_index=True)
    return out


def pseudo_diameter(edges, max_hops: int = 256) -> pd.DataFrame:
    """Pseudo-diameter by the double-sweep BFS heuristic (Magnien,
    Latapy & Habib 2009): BFS from a deterministic seed (min node id)
    to exhaustion over the UNDIRECTED graph, re-seed at the farthest
    node (tie: min id), sweep again; the second eccentricity is the
    pseudo-diameter (a lower bound on the true diameter, exact on
    trees).  Each hop is the bfs_levels frontier-broadcast contract:
    the frontier ships once, the materialized edge stream re-streams,
    nothing shuffles.  Restricted to the seed's component (documented:
    web link graphs have one giant component; isolated nodes have
    eccentricity 0 and cannot carry the diameter)."""
    from .relational import partial_groupby_agg

    und = undirected_edges(edges).materialize()

    node_min = int(partial_groupby_agg(
        und.map_batches(
            lambda df: pd.DataFrame({
                "m": [min(int(df["lo"].min()), int(df["hi"].min()))]
                if len(df) else []}),
            batch_format="pandas"),
        ["m"], {"m2": ("m", "min")})["m"].min())

    def sweep(seed: int) -> tuple[int, int]:
        """BFS from seed; returns (farthest node, eccentricity)."""
        levels: dict[int, int] = {seed: 0}
        frontier = {seed}
        far_node, far_lvl = seed, 0
        for hop in range(1, max_hops + 1):
            if not frontier:
                break
            ref = ray.put(np.fromiter(frontier, np.int64, len(frontier)))

            def succ(df: pd.DataFrame) -> pd.DataFrame:
                fr = ray.get(ref)
                lo = df["lo"].to_numpy(np.int64)
                hi = df["hi"].to_numpy(np.int64)
                out = np.concatenate([hi[np.isin(lo, fr)],
                                      lo[np.isin(hi, fr)]])
                return pd.DataFrame({"node": np.unique(out)})

            reached = partial_groupby_agg(
                und.map_batches(succ, batch_format="pandas"),
                ["node"], {"n2": ("node", "min")})
            new = sorted(int(n) for n in
                         reached["node"].to_numpy(np.int64)
                         if int(n) not in levels)
            if not new:
                break
            for n in new:
                levels[n] = hop
            far_node, far_lvl = new[0], hop
            frontier = set(new)
        return far_node, far_lvl

    far1, _ = sweep(node_min)
    far2, ecc2 = sweep(far1)
    return pd.DataFrame({"seed": [np.int64(node_min)],
                         "far_node": [np.int64(far2)],
                         "pseudo_diameter": [np.int64(ecc2)]})


def katz_centrality(edges, nodes, n_iter: int = 5, alpha: float = 0.1,
                    beta: float = 1.0):
    """Katz centrality by truncated path-count iteration (Katz 1953):
    ``x_t(v) = beta + alpha * Σ_{(u,v) in E} x_{t-1}(u)`` from
    ``x_0 = beta`` — counts walks into v damped by length, the
    prestige measure that, unlike PageRank, does not normalize by
    out-degree (a hub passes its full weight to every target).

    Distribution shape = the pagerank broadcast contract: the O(nodes)
    state vector ships once per iteration via ``ray.put``; each edge
    batch emits (dst, contrib) combiner partials; edges are
    materialized once and streamed per iteration, never re-shuffled.
    Above the broadcast node ceiling swap the state ship for the
    hash-join hydration exactly as ``_pagerank_distributed`` does.
    Returns a Dataset of (node, katz).
    """
    from .relational import partial_groupby_agg

    edges = edges.materialize()
    nd = nodes.materialize().to_pandas()
    node_idx = pd.Index(nd["node"].to_numpy(np.int64))
    x = pd.Series(np.full(len(node_idx), float(beta)), index=node_idx)

    for _ in range(n_iter):
        ref = ray.put(x)

        def contrib_part(df: pd.DataFrame, _r=ref) -> pd.DataFrame:
            w = ray.get(_r)
            c = df["src"].map(w).fillna(0.0).to_numpy(np.float64)
            return (pd.DataFrame({"node": df["dst"].to_numpy(np.int64),
                                  "contrib": c})
                    .groupby("node", sort=False, as_index=False)
                    ["contrib"].sum())

        mapped = edges.map_batches(contrib_part, batch_format="pandas")
        contribs = partial_groupby_agg(mapped, ["node"],
                                       {"contrib": ("contrib", "sum")})
        if len(contribs) == 0:
            c = pd.Series(0.0, index=node_idx)
        else:
            c = (contribs.set_index("node")["contrib"]
                 .reindex(node_idx).fillna(0.0))
        x = float(beta) + float(alpha) * c

    import ray.data as rd

    return rd.from_arrow(pa.table({
        "node": pa.array(node_idx.to_numpy(), pa.int64()),
        "katz": pa.array(x.to_numpy(np.float64), pa.float64()),
    }))
