"""Graph analytics: PageRank/PPR/HITS, components, cores, traversals.

Split out of the former monolithic pipelines/queries.py (round-4 task 2).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ...stages import relational as rel
from ._shared import _SQL_EDGES_CTE, _link_graph_inputs, _rp


def q_graph_degree(sf_dir: str):
    """Link-graph degree stats: deterministic hash-derived edge fixture
    (DuckDB hash() parity, same discipline as mixture_resample), then
    per-node out/in degree via count partials + one co-location
    shuffle; isolated nodes kept via zero anchors, no second join."""
    from ...stages.graph import degree_stats

    edges, nodes, _ = _link_graph_inputs(sf_dir)
    return degree_stats(edges, nodes)

SQL_GRAPH_DEGREE = f"""
WITH {_SQL_EDGES_CTE},
ind AS (SELECT dst AS node, count(*) AS c FROM edges GROUP BY 1)
SELECT d.doc_id AS node,
       CAST(coalesce(o.c, 0) AS BIGINT) AS out_degree,
       CAST(coalesce(i.c, 0) AS BIGINT) AS in_degree
FROM documents d
LEFT JOIN outd o ON o.node = d.doc_id
LEFT JOIN ind i ON i.node = d.doc_id
"""


def q_pagerank(sf_dir: str):
    """PageRank (5 damped power iterations, dangling mass redistributed
    uniformly) over the same hash-derived edge fixture; oracle unrolls
    the iterations as chained CTEs.  Rank rounded to 8 decimals on both
    sides (identical IEEE expression order; only groupby-sum reduction
    order differs, ~1e-17 — the corr_agg rounding discipline)."""
    from ...stages.graph import pagerank

    edges, nodes, n = _link_graph_inputs(sf_dir)
    ranks = pagerank(edges, nodes, n_nodes=n, n_iter=5, damping=0.85)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["node"]].copy()
        out["pr"] = df["pr"].to_numpy(np.float64).round(8)
        return out

    return ranks.map_batches(finish, batch_format="pandas")


def _pagerank_sql(n_iter: int = 5, damping: float = 0.85) -> str:
    """Unrolled power-iteration SQL matching stages/graph.pagerank."""
    parts = [f"""WITH {_SQL_EDGES_CTE},
nodes AS (SELECT d.doc_id AS node, coalesce(o.c, 0) AS outdeg
          FROM documents d LEFT JOIN outd o ON o.node = d.doc_id),
r0 AS (SELECT node, 1.0 / (SELECT nv FROM n) AS pr FROM nodes)"""]
    for t in range(1, n_iter + 1):
        parts.append(f"""
dg{t - 1} AS (SELECT coalesce(sum(r.pr), 0) AS dsum
            FROM r{t - 1} r JOIN nodes nd ON nd.node = r.node
            WHERE nd.outdeg = 0),
r{t} AS (
  SELECT nd.node,
         (1 - {damping}) / n.nv
         + {damping} * (coalesce(s.contrib, 0) + dg.dsum / n.nv) AS pr
  FROM nodes nd CROSS JOIN n CROSS JOIN dg{t - 1} dg
  LEFT JOIN (SELECT e.dst AS node, sum(r.pr / nd2.outdeg) AS contrib
             FROM edges e
             JOIN r{t - 1} r ON r.node = e.src
             JOIN nodes nd2 ON nd2.node = e.src
             GROUP BY e.dst) s ON s.node = nd.node)""")
    return (",".join(parts)
            + f"\nSELECT node, round(pr, 8) AS pr FROM r{n_iter}")


SQL_PAGERANK = _pagerank_sql()


def q_katz_centrality(sf_dir: str):
    """Katz centrality (5 truncated path-count iterations, alpha=0.1,
    beta=1) over the hash-derived link graph — the prestige measure
    that, unlike PageRank, gives hubs full (not degree-normalized)
    influence (stages/graph.py::katz_centrality, pagerank broadcast
    contract).  Oracle unrolls the iterations as chained CTEs; rounded
    to 8 decimals on both sides (the pagerank rounding discipline —
    only groupby-sum reduction order differs)."""
    from ...stages.graph import katz_centrality

    edges, nodes, _n = _link_graph_inputs(sf_dir)
    ranks = katz_centrality(edges, nodes, n_iter=5, alpha=0.1, beta=1.0)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["node"]].copy()
        out["katz"] = df["katz"].to_numpy(np.float64).round(8)
        return out

    return ranks.map_batches(finish, batch_format="pandas")


def _katz_sql(n_iter: int = 5, alpha: float = 0.1,
              beta: float = 1.0) -> str:
    """Unrolled Katz iteration matching stages/graph.katz_centrality
    (MATERIALIZED: each x{t} is referenced by the next round)."""
    parts = [f"""WITH {_SQL_EDGES_CTE},
nodes AS MATERIALIZED (SELECT doc_id AS node FROM documents),
x0 AS MATERIALIZED (SELECT node, {beta} AS x FROM nodes)"""]
    for t in range(1, n_iter + 1):
        parts.append(f"""
x{t} AS MATERIALIZED (
  SELECT nd.node, {beta} + {alpha} * coalesce(s.contrib, 0) AS x
  FROM nodes nd
  LEFT JOIN (SELECT e.dst AS node, sum(r.x) AS contrib
             FROM edges e JOIN x{t - 1} r ON r.node = e.src
             GROUP BY e.dst) s ON s.node = nd.node)""")
    return (",".join(parts)
            + f"\nSELECT node, round(x, 8) AS katz FROM x{n_iter}")


SQL_KATZ_CENTRALITY = _katz_sql()


def q_triangle_count(sf_dir: str):
    """Exact global triangle count over the hash-derived link graph:
    canonical-undirected distinct edges, then the wedge-close plan (two
    hash joins, ordered endpoints make each triangle count once)."""
    from ...stages.graph import triangle_count

    edges, _, _ = _link_graph_inputs(sf_dir)
    return pd.DataFrame({"n_triangles": [triangle_count(edges)]})


SQL_TRIANGLE_COUNT = f"""
WITH {_SQL_EDGES_CTE},
und AS (SELECT DISTINCT least(src, dst) AS lo, greatest(src, dst) AS hi
        FROM edges)
SELECT CAST(count(*) AS BIGINT) AS n_triangles
FROM und e1
JOIN und e2 ON e2.lo = e1.hi
JOIN und e3 ON e3.lo = e1.lo AND e3.hi = e2.hi
"""


def q_connected_components(sf_dir: str):
    """Standalone SQL-checkable path through the flagship's transitive
    clustering (stages/cluster.py large/small-star + union-find): the
    hash-derived edge fixture, undirected, labeled by component-min
    node.  Node ids ride as zero-padded strings so the engine's
    lexicographic-min label IS the numeric min; the oracle computes
    reachability with a recursive CTE."""
    from ...stages.cluster import assign_clusters, connected_components

    edges, nodes, _ = _link_graph_inputs(sf_dir)

    def to_str(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "u": df["src"].map("{:08d}".format).astype("string"),
            "v": df["dst"].map("{:08d}".format).astype("string"),
        })

    str_edges = edges.map_batches(to_str, batch_format="pandas")
    stars = connected_components(str_edges)

    def as_url(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"url": df["node"].map("{:08d}".format).astype("string")})

    assigns = assign_clusters(nodes.map_batches(as_url,
                                                batch_format="pandas"),
                              stars)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "node": df["url"].astype("int64"),
            "component": df["cluster_id"].astype("int64"),
        })

    return assigns.map_batches(finish, batch_format="pandas")


SQL_CONNECTED_COMPONENTS = f"""
WITH RECURSIVE {_SQL_EDGES_CTE},
und AS (SELECT src AS a, dst AS b FROM edges
        UNION SELECT dst, src FROM edges),
reach(a, b) AS (
  SELECT a, b FROM und
  UNION
  SELECT r.a, u.b FROM reach r JOIN und u ON u.a = r.b)
SELECT d.doc_id AS node,
       CAST(least(d.doc_id, coalesce(min(r.b), d.doc_id)) AS BIGINT)
           AS component
FROM documents d LEFT JOIN reach r ON r.a = d.doc_id
GROUP BY d.doc_id
"""


def q_edge_support(sf_dir: str):
    """Per-edge triangle support (common neighbors of the endpoints)
    over the hash-derived link graph — the k-truss / collective-ER
    corroboration signal (stages/graph.py::edge_support: wedge-close
    joins, one co-location shuffle of the per-triangle edge
    contributions, zero anchors keep support-0 edges)."""
    from ...stages.graph import edge_support

    edges, _, _ = _link_graph_inputs(sf_dir)
    return edge_support(edges)


SQL_EDGE_SUPPORT = f"""
WITH {_SQL_EDGES_CTE},
und AS (SELECT DISTINCT least(src, dst) AS lo, greatest(src, dst) AS hi
        FROM edges),
tri AS (SELECT e1.lo AS a, e1.hi AS b, e2.hi AS c
        FROM und e1
        JOIN und e2 ON e2.lo = e1.hi
        JOIN und e3 ON e3.lo = e1.lo AND e3.hi = e2.hi),
contrib AS (
  SELECT a AS lo, b AS hi FROM tri
  UNION ALL SELECT b, c FROM tri
  UNION ALL SELECT a, c FROM tri),
cnt AS (SELECT lo, hi, count(*) AS n FROM contrib GROUP BY 1, 2)
SELECT u.lo, u.hi, CAST(coalesce(c.n, 0) AS BIGINT) AS support
FROM und u LEFT JOIN cnt c ON c.lo = u.lo AND c.hi = u.hi
"""


def q_hits(sf_dir: str):
    """HITS hubs/authorities (3 unrolled iterations from h=1,
    end-only max-normalization) over the hash-derived link graph —
    stages/graph.py::hits, pagerank's broadcast-contribution plan;
    the oracle chains each half-iteration as a CTE."""
    from ...stages.graph import hits

    edges, nodes, _ = _link_graph_inputs(sf_dir)
    return hits(edges, nodes, n_iter=3)


def _hits_half_sql(prev: str, out: str, frm: str, to: str) -> str:
    return f"""
{out} AS (
  SELECT n.node, coalesce(x.v, 0) AS v
  FROM nodes n LEFT JOIN (
    SELECT e.{to} AS node, sum(p.v) AS v
    FROM edges e JOIN {prev} p ON p.node = e.{frm}
    GROUP BY 1) x ON x.node = n.node)"""


SQL_HITS = f"""
WITH {_SQL_EDGES_CTE},
nodes AS (SELECT doc_id AS node FROM documents),
h0 AS (SELECT node, 1.0 AS v FROM nodes),
{_hits_half_sql('h0', 'a1', 'src', 'dst')},
{_hits_half_sql('a1', 'h1', 'dst', 'src')},
{_hits_half_sql('h1', 'a2', 'src', 'dst')},
{_hits_half_sql('a2', 'h2', 'dst', 'src')},
{_hits_half_sql('h2', 'a3', 'src', 'dst')},
{_hits_half_sql('a3', 'h3', 'dst', 'src')},
mh AS (SELECT max(v) AS m FROM h3),
ma AS (SELECT max(v) AS m FROM a3)
SELECT n.node,
       round(CASE WHEN mh.m > 0 THEN h3.v / mh.m ELSE 0 END, 6)
           AS hub,
       round(CASE WHEN ma.m > 0 THEN a3.v / ma.m ELSE 0 END, 6)
           AS authority
FROM nodes n
JOIN h3 ON h3.node = n.node
JOIN a3 ON a3.node = n.node
CROSS JOIN mh CROSS JOIN ma
"""


def q_kcore(sf_dir: str):
    """2-core of the hash-derived link graph: iterative peeling until
    every surviving node keeps undirected degree >= 2
    (stages/graph.py::kcore — per-round combiner degrees + broadcast
    sub-k set, edges materialized once and filtered map-side, never
    re-shuffled).  ORACLED (round-4, upgraded from rows-only): the
    peeling rounds unroll as chained degree/filter CTEs — the
    pagerank/label_prop unrolling discipline; the fixture converges in
    4 rounds at every test scale and the oracle unrolls 8 (extra
    rounds are no-ops at the fixpoint).  Peeling additionally pinned
    against a single-node reference in pytest."""
    from ...stages.graph import kcore

    edges, _, _ = _link_graph_inputs(sf_dir)
    return kcore(edges, k=2)


def _kcore_sql(k: int = 2, rounds: int = 8) -> str:
    """Unrolled peeling: each round recounts undirected degrees and
    keeps edges whose BOTH endpoints hold degree >= k; converged
    rounds are no-ops, so any unroll count >= the data's round count
    is exact.  Every CTE is MATERIALIZED: each is referenced 2-3x by
    the next round, so inlining (DuckDB's default) would expand to
    ~3^rounds scans of the base table."""
    parts = ["und AS MATERIALIZED (SELECT DISTINCT least(src, dst) AS lo, "
             "greatest(src, dst) AS hi FROM edges)"]
    prev = "und"
    for i in range(rounds + 1):
        parts.append(
            f"d{i} AS MATERIALIZED (SELECT node, count(*) AS deg FROM "
            f"(SELECT lo AS node FROM {prev} "
            f"UNION ALL SELECT hi AS node FROM {prev}) GROUP BY 1)")
        if i < rounds:
            parts.append(
                f"e{i + 1} AS MATERIALIZED (SELECT lo, hi FROM {prev} "
                f"WHERE lo IN (SELECT node FROM d{i} WHERE deg >= {k}) "
                f"AND hi IN (SELECT node FROM d{i} WHERE deg >= {k}))")
            prev = f"e{i + 1}"
    return (f"WITH {_SQL_EDGES_CTE}, " + ",\n".join(parts)
            + f"\nSELECT node, CAST(deg AS BIGINT) AS degree "
              f"FROM d{rounds} WHERE deg >= {k}")


SQL_KCORE = _kcore_sql(k=2, rounds=8)


def q_label_prop(sf_dir: str):
    """Synchronous label-propagation communities over the
    hash-derived link graph (stages/graph.py::label_propagation —
    deterministic sync variant, 5 rounds, min-label tie-break;
    broadcast label state + combiner contribution cells, edges
    materialized once).  ORACLED (upgraded from rows-only): the sync
    rounds unroll as chained CTEs, each an argmax-by-(count desc,
    label) window over the neighbor-label GROUP BY — the pagerank
    unrolling discipline; equality with a single-node reference is
    additionally pinned in test_graph.py."""
    from ...stages.graph import label_propagation

    edges, _, _ = _link_graph_inputs(sf_dir)
    return label_propagation(edges, n_iter=5)


def _label_prop_sql(n_iter: int = 5) -> str:
    parts = [f"""WITH {_SQL_EDGES_CTE},
und AS (SELECT DISTINCT least(src, dst) AS lo, greatest(src, dst) AS hi
        FROM edges WHERE src <> dst),
adj AS (SELECT lo AS node, hi AS nbr FROM und
        UNION ALL SELECT hi, lo FROM und),
vs AS (SELECT DISTINCT node FROM adj),
l0 AS (SELECT node, node AS lab FROM vs)"""]
    for t in range(1, n_iter + 1):
        parts.append(f""",
l{t} AS (SELECT node, lab FROM (
  SELECT a.node, p.lab, count(*) AS c,
         row_number() OVER (PARTITION BY a.node
                            ORDER BY count(*) DESC, p.lab) AS rn
  FROM adj a JOIN l{t-1} p ON p.node = a.nbr
  GROUP BY a.node, p.lab) WHERE rn = 1)""")
    parts.append(f"""
SELECT node, lab AS label FROM l{n_iter}""")
    return "".join(parts)


SQL_LABEL_PROP = _label_prop_sql(5)


def q_cc_pivot(sf_dir: str):
    """KwikCluster correlation clustering of the hash-derived link
    graph (stages/graph.py::cc_pivot — parallel greedy-MIS pivot
    rounds + one attachment pass; the ER clustering that refuses
    transitive chaining).  Rows-only driver check; exact equality
    with the sequential KwikCluster reference is pinned in pytest
    (test_graph.py)."""
    from ...stages.graph import cc_pivot

    edges, _, _ = _link_graph_inputs(sf_dir)
    return cc_pivot(edges)


SQL_CC_PIVOT = r"""
WITH RECURSIVE
n AS (SELECT count(*) AS nv FROM documents),
raw AS (
  SELECT d.doc_id AS src,
         CAST(hash(CAST(d.doc_id AS VARCHAR) || ':'
                   || CAST(t.j AS VARCHAR))
              % (SELECT nv FROM n) AS BIGINT) AS dst
  FROM documents d,
       unnest(generate_series(1, d.doc_id % 4)) AS t(j)),
edges AS (SELECT DISTINCT src, dst FROM raw WHERE src <> dst),
und AS (SELECT DISTINCT least(src, dst) AS lo,
                        greatest(src, dst) AS hi FROM edges),
adj AS (SELECT lo AS x, hi AS y FROM und UNION ALL SELECT hi, lo FROM und),
pin AS (SELECT x AS node,
               row_number() OVER (ORDER BY hash(CAST(x AS VARCHAR)), x) - 1
                   AS pi
        FROM (SELECT DISTINCT x FROM adj)),
g AS (
  SELECT -1 AS rk, CAST([] AS BIGINT[]) AS piv
  UNION ALL
  SELECT g.rk + 1,
         CASE WHEN t.has = 1 THEN g.piv
              ELSE list_append(g.piv, v.node) END
  FROM g JOIN pin v ON v.pi = g.rk + 1, LATERAL (
    SELECT coalesce(max(CASE WHEN list_contains(g.piv, a.y)
                             THEN 1 ELSE 0 END), 0) AS has
    FROM adj a WHERE a.x = v.node) t
),
fin AS (SELECT piv FROM g ORDER BY rk DESC LIMIT 1),
pv AS (SELECT unnest(piv) AS p FROM fin),
att AS (SELECT a.x AS node, a.y AS pnb, u.pi
        FROM adj a JOIN pv ON pv.p = a.y JOIN pin u ON u.node = a.y
        WHERE a.x NOT IN (SELECT p FROM pv)),
best AS (SELECT node, pnb FROM (
           SELECT node, pnb,
                  row_number() OVER (PARTITION BY node
                                     ORDER BY pi, pnb) AS rn
           FROM att) WHERE rn = 1)
SELECT CAST(pin.node AS BIGINT) AS node,
       CAST(coalesce(b.pnb, pin.node) AS BIGINT) AS cluster
FROM pin LEFT JOIN best b ON b.node = pin.node
"""


def q_bfs_levels(sf_dir: str):
    """Multi-source directed BFS hop distance (4 hops) from the
    doc_id%97==0 seed set over the hash-derived link graph — the
    iterative-frontier graph primitive next to pagerank / CC /
    label_prop.  Per hop: frontier broadcast + one edge-stream pass +
    bounded combiner merge; edges never shuffle (stages/graph.bfs_levels).
    Oracle unrolls the hops as chained min-merge CTEs."""
    from ...stages.graph import bfs_levels

    edges, nodes, _ = _link_graph_inputs(sf_dir)
    return bfs_levels(edges, nodes, seed_mod=97, max_hops=4)


def _bfs_sql(seed_mod: int = 97, max_hops: int = 4) -> str:
    parts = [f"""WITH {_SQL_EDGES_CTE},
k0 AS (SELECT doc_id AS node, 0 AS lvl FROM documents
       WHERE doc_id % {seed_mod} = 0)"""]
    for t in range(1, max_hops + 1):
        parts.append(f"""
k{t} AS (SELECT node, min(lvl) AS lvl FROM (
    SELECT node, lvl FROM k{t - 1}
    UNION ALL
    SELECT e.dst AS node, {t} AS lvl
    FROM edges e JOIN k{t - 1} f ON f.node = e.src AND f.lvl = {t - 1}
  ) u GROUP BY node)""")
    return (",".join(parts) + f"""
SELECT d.doc_id AS node, CAST(coalesce(k.lvl, -1) AS BIGINT) AS lvl
FROM documents d LEFT JOIN k{max_hops} k ON k.node = d.doc_id""")


SQL_BFS_LEVELS = _bfs_sql()


def q_ppr(sf_dir: str):
    """Personalized PageRank: 5 damped power iterations restarting to
    the doc_id%101==0 seed set, dangling mass restarting to the seeds
    — the topic-conditioned relevance prior next to global pagerank
    (stages/graph.personalized_pagerank; identical IEEE expression
    order vs the unrolled-CTE oracle, round(8) both sides)."""
    from ...stages.graph import personalized_pagerank

    edges, nodes, n = _link_graph_inputs(sf_dir)
    ranks = personalized_pagerank(edges, nodes, n_nodes=n, seed_mod=101,
                                  n_iter=5, damping=0.85)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["node"]].copy()
        out["ppr"] = df["ppr"].to_numpy(np.float64).round(8)
        return out

    return ranks.map_batches(finish, batch_format="pandas")


def _ppr_sql(seed_mod: int = 101, n_iter: int = 5,
             damping: float = 0.85) -> str:
    """Unrolled power-iteration SQL matching personalized_pagerank."""
    ev = (f"(CASE WHEN nd.node % {seed_mod} = 0 "
          f"THEN 1.0 / ks.k ELSE 0.0 END)")
    parts = [f"""WITH {_SQL_EDGES_CTE},
nodes AS (SELECT d.doc_id AS node, coalesce(o.c, 0) AS outdeg
          FROM documents d LEFT JOIN outd o ON o.node = d.doc_id),
ks AS (SELECT count(*) AS k FROM documents WHERE doc_id % {seed_mod} = 0),
r0 AS (SELECT nd.node,
              CASE WHEN nd.node % {seed_mod} = 0
                   THEN 1.0 / ks.k ELSE 0.0 END AS pr
       FROM nodes nd CROSS JOIN ks)"""]
    for t in range(1, n_iter + 1):
        parts.append(f"""
dg{t - 1} AS (SELECT coalesce(sum(r.pr), 0) AS dsum
            FROM r{t - 1} r JOIN nodes nd ON nd.node = r.node
            WHERE nd.outdeg = 0),
r{t} AS (
  SELECT nd.node,
         (1 - {damping}) * {ev}
         + {damping} * (coalesce(s.contrib, 0) + dg.dsum * {ev}) AS pr
  FROM nodes nd CROSS JOIN ks CROSS JOIN dg{t - 1} dg
  LEFT JOIN (SELECT e.dst AS node, sum(r.pr / nd2.outdeg) AS contrib
             FROM edges e
             JOIN r{t - 1} r ON r.node = e.src
             JOIN nodes nd2 ON nd2.node = e.src
             GROUP BY e.dst) s ON s.node = nd.node)""")
    return (",".join(parts)
            + f"\nSELECT node, round(pr, 8) AS ppr FROM r{n_iter}")


SQL_PPR = _ppr_sql()


def q_modularity_score(sf_dir: str):
    """Newman modularity Q of a given partition (community = node mod
    10) over the undirected link graph — the clustering-quality score
    for community labelings.  Key identity: both terms need NO
    per-node state — within-community edge count and per-community
    degree mass k_c are direct sums over edge endpoints (community is
    a function of the node id), so after the one undirected-dedup
    exchange the whole statistic is a shuffle-free combiner to a
    10-row frame."""
    from ...stages.graph import undirected_edges

    edges, _, _ = _link_graph_inputs(sf_dir)
    und = undirected_edges(edges)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        lo = df["lo"].to_numpy(np.int64)
        hi = df["hi"].to_numpy(np.int64)
        cl, ch = lo % 10, hi % 10
        inc = pd.Series(np.concatenate([cl, ch])).value_counts()
        out = pd.DataFrame({"c": inc.index.to_numpy(np.int64),
                            "kc": inc.to_numpy(np.int64)})
        out["wc"] = np.int64(0)
        out.loc[out.index[:1], "wc"] = np.int64((cl == ch).sum())
        out["ne"] = np.int64(0)
        out.loc[out.index[:1], "ne"] = np.int64(len(df))
        return out

    agg = rel.partial_groupby_agg(
        und.map_batches(partial, batch_format="pandas"),
        ["c"], {"kc": ("kc", "sum"), "wc": ("wc", "sum"),
                "ne": ("ne", "sum")})
    ne = float(agg["ne"].sum())
    wc = float(agg["wc"].sum())
    kc = agg["kc"].to_numpy(np.float64)
    q = wc / ne - (kc ** 2).sum() / (4.0 * ne * ne)
    return pd.DataFrame({"q": [np.round(q, 6)]})


SQL_MODULARITY_SCORE = f"""
WITH {_SQL_EDGES_CTE},
und AS (SELECT least(src, dst) AS u, greatest(src, dst) AS v FROM edges
        GROUP BY 1, 2),
m AS (SELECT count(*) AS ne FROM und),
deg AS (SELECT node, count(*) AS k FROM
        (SELECT u AS node FROM und UNION ALL SELECT v FROM und)
        GROUP BY 1),
within AS (SELECT count(*) AS wc FROM und WHERE u % 10 = v % 10),
comm AS (SELECT node % 10 AS c, sum(k) AS kc FROM deg GROUP BY 1)
SELECT round((SELECT wc FROM within)::DOUBLE / (SELECT ne FROM m)
             - (SELECT sum(kc * kc) FROM comm)
               / (4.0 * (SELECT ne FROM m) * (SELECT ne FROM m)), 6) AS q
"""


def q_clustering_coeff(sf_dir: str):
    """Per-node local clustering coefficient over the undirected link
    graph — composed from existing primitives: per-edge triangle
    support (graph.py::edge_support) exploded to endpoints gives each
    node's triangle count as a plain sum (t(v) = Σ support(e ∋ v) / 2,
    no new wedge pass); degrees from the incidence combiner; the cc =
    2t / k(k−1) finish runs on the bounded per-node frame.  Nodes with
    degree < 2 are excluded (undefined denominator), as in the SQL."""
    from ...stages.graph import edge_support, undirected_edges

    edges, _, _ = _link_graph_inputs(sf_dir)
    und = undirected_edges(edges)
    sup = edge_support(edges)     # takes the raw (src, dst) stream

    def node_tri(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "node": np.concatenate([df["lo"].to_numpy(np.int64),
                                    df["hi"].to_numpy(np.int64)]),
            "t2": np.tile(df["support"].to_numpy(np.int64), 2)})
        return out.groupby("node", sort=False).sum().reset_index()

    tri = rel.partial_groupby_agg(
        sup.map_batches(node_tri, batch_format="pandas"),
        ["node"], {"t2": ("t2", "sum")})

    def node_deg(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "node": np.concatenate([df["lo"].to_numpy(np.int64),
                                    df["hi"].to_numpy(np.int64)])})
        vc = out["node"].value_counts()
        return pd.DataFrame({"node": vc.index.to_numpy(np.int64),
                             "k": vc.to_numpy(np.int64)})

    deg = rel.partial_groupby_agg(
        und.map_batches(node_deg, batch_format="pandas"),
        ["node"], {"k": ("k", "sum")})
    m = deg.merge(tri, on="node", how="left").fillna({"t2": 0})
    m = m[m["k"] >= 2]
    k = m["k"].to_numpy(np.float64)
    # t2 sums support over both endpoints = 2 x wedge-closing triangles
    # per node in the SQL's (x < y) convention
    cc = m["t2"].to_numpy(np.float64) / (k * (k - 1))
    return pd.DataFrame({"node": m["node"].to_numpy(np.int64),
                         "cc": np.round(cc, 6)})


SQL_CLUSTERING_COEFF = f"""
WITH {_SQL_EDGES_CTE},
undg AS (SELECT least(src, dst) AS u, greatest(src, dst) AS v FROM edges
         GROUP BY 1, 2),
adj AS (SELECT u AS a, v AS b FROM undg UNION ALL SELECT v, u FROM undg),
deg AS (SELECT a AS node, count(*) AS k FROM adj GROUP BY 1),
tri AS (
  SELECT w.node, count(*) AS t2
  FROM (SELECT a AS node, b AS x FROM adj) w
  JOIN adj a2 ON a2.a = w.node AND a2.b > w.x
  JOIN undg e ON e.u = w.x AND e.v = a2.b
  GROUP BY 1)
SELECT d.node, round(coalesce(t.t2, 0) * 2.0 / (d.k * (d.k - 1)), 6) AS cc
FROM deg d LEFT JOIN tri t ON t.node = d.node
WHERE d.k >= 2
"""


def q_assortativity(sf_dir: str):
    """Degree assortativity of the undirected link graph (Newman
    2002): Pearson correlation of endpoint degrees over both edge
    orientations — do high-degree pages link to high-degree pages?
    Degrees from the incidence combiner (bounded frame, broadcast;
    hash-join swap above the broadcast cap), then one edge pass of
    raw-moment partials and the closed form (degree magnitudes are
    small ints, so raw moments are exact)."""
    from ...stages.graph import undirected_edges

    edges, _, _ = _link_graph_inputs(sf_dir)
    und = undirected_edges(edges)

    def node_deg(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.Series(np.concatenate(
            [df["lo"].to_numpy(np.int64),
             df["hi"].to_numpy(np.int64)])).value_counts()
        return pd.DataFrame({"node": out.index.to_numpy(np.int64),
                             "k": out.to_numpy(np.int64)})

    deg = rel.partial_groupby_agg(
        und.map_batches(node_deg, batch_format="pandas"),
        ["node"], {"k": ("k", "sum")})
    kmap = dict(zip(deg["node"].astype(np.int64),
                    deg["k"].astype(np.float64)))

    def moments(df: pd.DataFrame) -> pd.DataFrame:
        lo = df["lo"].map(kmap).to_numpy(np.float64)
        hi = df["hi"].map(kmap).to_numpy(np.float64)
        x = np.concatenate([lo, hi])       # both orientations
        y = np.concatenate([hi, lo])
        return pd.DataFrame({
            "n": [np.int64(len(x))], "sx": [x.sum()], "sy": [y.sum()],
            "sxy": [(x * y).sum()], "sxx": [(x * x).sum()],
            "syy": [(y * y).sum()]})

    p = und.map_batches(moments, batch_format="pandas").to_pandas().sum()
    n = float(p["n"])
    cov = p["sxy"] - p["sx"] * p["sy"] / n
    vx = p["sxx"] - p["sx"] ** 2 / n
    vy = p["syy"] - p["sy"] ** 2 / n
    return pd.DataFrame({"r": [np.round(cov / np.sqrt(vx * vy), 6)]})


SQL_ASSORTATIVITY = f"""
WITH {_SQL_EDGES_CTE},
undg AS (SELECT least(src, dst) AS u, greatest(src, dst) AS v FROM edges
         GROUP BY 1, 2),
adj AS (SELECT u AS a, v AS b FROM undg UNION ALL SELECT v, u FROM undg),
deg AS (SELECT a AS node, count(*) AS k FROM adj GROUP BY 1)
SELECT round(corr(da.k, db.k), 6) AS r
FROM adj j JOIN deg da ON da.node = j.a JOIN deg db ON db.node = j.b
"""


def q_reciprocity(sf_dir: str):
    """Directed-graph reciprocity: the fraction of links whose reverse
    link also exists (mutual-citation rate) — one bucketed co-location
    on the canonical (lo, hi) pair collapsing each pair to
    direction-presence bits, then counting 2 x mutual pairs against
    the directed total."""
    from ...stages.shuffle import bucketed_map_groups

    edges, _, _ = _link_graph_inputs(sf_dir)

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        s = df["src"].to_numpy(np.int64)
        d = df["dst"].to_numpy(np.int64)
        return pd.DataFrame({"lo": np.minimum(s, d),
                             "hi": np.maximum(s, d),
                             "fwd": (s < d), "bwd": (s > d)}) \
            .groupby(["lo", "hi"], sort=False).any().reset_index()

    empty = pd.DataFrame({"mutual": pd.Series([], dtype="int64"),
                          "total": pd.Series([], dtype="int64")})

    def collapse(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["lo", "hi"], sort=False)[["fwd", "bwd"]].any()
        both = int((g["fwd"] & g["bwd"]).sum())
        total = int(g["fwd"].sum()) + int(g["bwd"].sum())
        return pd.DataFrame({"mutual": [np.int64(both)],
                             "total": [np.int64(total)]})

    p = bucketed_map_groups(
        edges.map_batches(canon, batch_format="pandas"),
        ["lo", "hi"], collapse, num_buckets=32,
        empty_like=empty).to_pandas()
    return pd.DataFrame({"reciprocity":
                         [np.round(2.0 * p["mutual"].sum()
                                   / p["total"].sum(), 6)]})


SQL_RECIPROCITY = f"""
WITH {_SQL_EDGES_CTE}
SELECT round(count(*) FILTER (WHERE EXISTS (
           SELECT 1 FROM edges r
           WHERE r.src = e.dst AND r.dst = e.src))::DOUBLE
       / count(*), 6) AS reciprocity
FROM edges e
"""


def q_adamic_adar(sf_dir: str):
    """Adamic-Adar link prediction over the hash-derived link graph:
    every non-adjacent pair with >= 1 common neighbor scored
    Σ 1/ln(deg(w)) — the missing-link/duplicate-candidate signal
    (stages/graph.py::adamic_adar: one center-node co-location shuffle
    emits neighbor pairs weighted by the group's own length, one (u,v)
    shuffle fuses the sum with edge-marker exclusion)."""
    from ...stages.graph import adamic_adar

    edges, _, _ = _link_graph_inputs(sf_dir)
    return adamic_adar(edges)


SQL_ADAMIC_ADAR = f"""
WITH {_SQL_EDGES_CTE},
undg AS (SELECT DISTINCT least(src, dst) AS u, greatest(src, dst) AS v
         FROM edges),
adj AS (SELECT u AS a, v AS b FROM undg UNION ALL SELECT v, u FROM undg),
deg AS (SELECT a AS node, count(*) AS k FROM adj GROUP BY 1),
wedge AS (SELECT a1.b AS u, a2.b AS v, a1.a AS w
          FROM adj a1 JOIN adj a2 ON a1.a = a2.a AND a1.b < a2.b),
aa AS (SELECT wedge.u, wedge.v, sum(1.0 / ln(d.k)) AS s
       FROM wedge JOIN deg d ON d.node = wedge.w GROUP BY 1, 2)
SELECT aa.u, aa.v, round(aa.s, 6) AS aa
FROM aa LEFT JOIN undg e ON e.u = aa.u AND e.v = aa.v
WHERE e.u IS NULL
"""


def q_id_islands(sf_dir: str):
    """Gaps-and-islands: contiguous event_id runs after dropping every
    7th id — the classic sequence-integrity audit, distributed as
    global_dense_rank (order-preserving ranges + driver exclusive scan
    over range counts, no global sort materialization) followed by a
    groupby on the ``id − rn`` island invariant (constant within each
    contiguous run); island extents reduce per bucket."""
    from ...stages.relational import global_dense_rank
    from ...stages.shuffle import bucketed_map_groups

    ev = _rp(sf_dir, "events", ["event_id"])
    def drop_sevens(t: pa.Table) -> pa.Table:
        # pyarrow.compute has no mod kernel in this env's build; the
        # numpy view of the int64 column is zero-copy
        ids = t["event_id"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % 7 != 0))

    ev = ev.map_batches(drop_sevens, batch_format="pyarrow")
    ranked, _ = global_dense_rank(ev, "event_id", "event_id")

    def island_key(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["id"].to_numpy(np.int64)
        return pd.DataFrame({"island": ids - df["rn"].to_numpy(np.int64),
                             "id": ids})

    keyed = ranked.map_batches(island_key, batch_format="pandas")

    def extent(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("island", sort=False)["id"]
        out = g.agg(island_start="min", island_end="max", n_ids="size")
        return out.reset_index(drop=True)

    return bucketed_map_groups(keyed, ["island"], extent, num_buckets=64)


SQL_ID_ISLANDS = """
WITH f AS (SELECT event_id FROM events WHERE event_id % 7 <> 0),
r AS (SELECT event_id,
             CAST(row_number() OVER (ORDER BY event_id) AS BIGINT) - 1
                 AS rn
      FROM f)
SELECT min(event_id) AS island_start, max(event_id) AS island_end,
       CAST(count(*) AS BIGINT) AS n_ids
FROM r GROUP BY event_id - rn
"""


def q_sssp_hops(sf_dir: str):
    """Weighted single-source shortest paths within ≤ 4 hops
    (Bellman-Ford rounds) over the hash-derived link graph with
    integer edge weights 1..9 (hash-derived, so min-sums are exact
    int64 arithmetic — no float tie ambiguity).  Each round is the
    canonical distributed relaxation: edges and the current distance
    table co-locate on the source node (one bucketed exchange — the
    repo's co-location join, which anchors empty-bucket schemas where
    Acero's hash join chokes on schema-less empties), candidate
    (dst, dist+w) rows union the table, one bucketed per-node min —
    the pagerank iteration shape with min instead of sum.  The
    oracle unrolls the four rounds as chained CTEs."""
    from ...functions.similarity import hash_strings_fast
    from ...stages.shuffle import bucketed_map_groups

    edges, _, _ = _link_graph_inputs(sf_dir)

    def weight(df: pd.DataFrame) -> pd.DataFrame:
        keys = (df["src"].astype(str) + ":" + df["dst"].astype(str)
                + ":w").to_numpy(object)
        out = df[["src", "dst"]].copy()
        out["wt"] = (hash_strings_fast(keys)
                     % np.uint64(9)).astype(np.int64) + 1
        return out

    w_edges = edges.map_batches(weight, batch_format="pandas") \
        .materialize()

    import ray.data as rd

    # source = node 3 (out-degree id % 4, so node 0 is dangling)
    dist = rd.from_pandas(pd.DataFrame({"node": [np.int64(3)],
                                        "dist": [np.int64(0)]}))
    empty = pd.DataFrame({"node": pd.Series([], dtype="int64"),
                          "dist": pd.Series([], dtype="int64")})
    def as_edge_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"key": df["src"].to_numpy(np.int64),
                             "dst": df["dst"].to_numpy(np.int64),
                             "wt": df["wt"].to_numpy(np.int64),
                             "dist": np.int64(-1)})

    edge_rows = w_edges.map_batches(as_edge_rows,
                                    batch_format="pandas") \
        .materialize()

    for _ in range(4):
        def as_dist_rows(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "key": df["node"].to_numpy(np.int64),
                "dst": np.int64(-1), "wt": np.int64(-1),
                "dist": df["dist"].to_numpy(np.int64)})

        tagged = edge_rows.union(
            dist.map_batches(as_dist_rows, batch_format="pandas"))

        def relax(df: pd.DataFrame) -> pd.DataFrame:
            d = df[df["wt"] < 0]
            e = df[df["wt"] >= 0]
            if not len(d) or not len(e):
                return empty
            dmin = d.groupby("key", sort=False)["dist"].min()
            dd = e["key"].map(dmin).to_numpy(np.float64)
            ok = ~np.isnan(dd)
            return pd.DataFrame({
                "node": e["dst"].to_numpy(np.int64)[ok],
                "dist": dd[ok].astype(np.int64)
                + e["wt"].to_numpy(np.int64)[ok]})

        cand = bucketed_map_groups(tagged, ["key"], relax,
                                   num_buckets=16,
                                   empty_like=empty).union(dist)
        dist = bucketed_map_groups(
            cand, ["node"],
            lambda df: df.groupby("node", sort=False)["dist"].min()
            .reset_index(),
            num_buckets=16, empty_like=empty).materialize()
    return dist


SQL_SSSP_HOPS = f"""
WITH {_SQL_EDGES_CTE},
w AS (SELECT src, dst,
             1 + CAST(hash(CAST(src AS VARCHAR) || ':'
                           || CAST(dst AS VARCHAR) || ':w') % 9
                      AS BIGINT) AS wt
      FROM edges),
d0 AS (SELECT CAST(3 AS BIGINT) AS node, CAST(0 AS BIGINT) AS dist),
d1 AS (SELECT node, min(dist) AS dist FROM (
        SELECT node, dist FROM d0
        UNION ALL SELECT dst, d0.dist + wt FROM w
        JOIN d0 ON w.src = d0.node) GROUP BY node),
d2 AS (SELECT node, min(dist) AS dist FROM (
        SELECT node, dist FROM d1
        UNION ALL SELECT dst, d1.dist + wt FROM w
        JOIN d1 ON w.src = d1.node) GROUP BY node),
d3 AS (SELECT node, min(dist) AS dist FROM (
        SELECT node, dist FROM d2
        UNION ALL SELECT dst, d2.dist + wt FROM w
        JOIN d2 ON w.src = d2.node) GROUP BY node),
d4 AS (SELECT node, min(dist) AS dist FROM (
        SELECT node, dist FROM d3
        UNION ALL SELECT dst, d3.dist + wt FROM w
        JOIN d3 ON w.src = d3.node) GROUP BY node)
SELECT node, CAST(dist AS BIGINT) AS dist FROM d4
"""


def q_ktruss(sf_dir: str):
    """3-truss of the hash-derived link graph: the maximal edge set
    where every edge closes >= 1 triangle within the surviving
    subgraph (stages/graph.py::ktruss — iterative support peeling,
    each round the edge_support wedge-close joins + a map-side drop,
    fixpoint when nothing drops).  ORACLED (round-5, upgraded from
    rows-only): the peeling unrolls as chained MATERIALIZED CTEs —
    each round recounts triangle contributions on the surviving edge
    set and keeps edges with support >= 1; converged rounds are
    no-ops, so any unroll count >= the data's peel depth is exact (the
    kcore discipline).  Additionally pinned against a single-node
    reference in test_graph.py."""
    from ...stages.graph import ktruss

    edges, _, _ = _link_graph_inputs(sf_dir)
    return ktruss(edges, k=3)


def _ktruss_sql(rounds: int = 8) -> str:
    """Unrolled 3-truss peeling: each round rebuilds the lo<mid<hi
    triangle set of the current edges, credits each triangle to its
    three edges, and keeps edges with >= 1 credit.  MATERIALIZED per
    round — each CTE is referenced 4x by the next round's joins."""
    parts = ["e0 AS MATERIALIZED (SELECT DISTINCT least(src, dst) AS lo, "
             "greatest(src, dst) AS hi FROM edges)"]
    prev = "e0"
    for i in range(1, rounds + 1):
        parts.append(f"""t{i} AS MATERIALIZED (
  SELECT e1.lo AS a, e1.hi AS b, e2.hi AS c
  FROM {prev} e1
  JOIN {prev} e2 ON e2.lo = e1.hi
  JOIN {prev} e3 ON e3.lo = e1.lo AND e3.hi = e2.hi)""")
        parts.append(f"""e{i} AS MATERIALIZED (
  SELECT lo, hi FROM (
    SELECT a AS lo, b AS hi FROM t{i}
    UNION ALL SELECT b, c FROM t{i}
    UNION ALL SELECT a, c FROM t{i})
  GROUP BY 1, 2 HAVING count(*) >= 1)""")
        prev = f"e{i}"
    return (f"WITH {_SQL_EDGES_CTE}, " + ",\n".join(parts)
            + f"\nSELECT lo, hi FROM e{rounds}")


SQL_KTRUSS = _ktruss_sql(rounds=8)


def q_jaccard_links(sf_dir: str):
    """Jaccard-coefficient link prediction over the hash-derived link
    graph: every non-adjacent pair with >= 1 common neighbor scored
    |N(u) ∩ N(v)| / |N(u) ∪ N(v)| (stages/graph.py::jaccard_links —
    the same one-shuffle wedge plan as adamic_adar, with endpoint
    degrees hydrated from the degree combiner: broadcast below 2M
    nodes, two hash joins above)."""
    from ...stages.graph import jaccard_links

    edges, _, _ = _link_graph_inputs(sf_dir)
    return jaccard_links(edges)


SQL_JACCARD_LINKS = f"""
WITH {_SQL_EDGES_CTE},
undg AS (SELECT DISTINCT least(src, dst) AS u, greatest(src, dst) AS v
         FROM edges),
adj AS (SELECT u AS a, v AS b FROM undg UNION ALL SELECT v, u FROM undg),
deg AS (SELECT a AS node, count(*) AS k FROM adj GROUP BY 1),
wedge AS (SELECT a1.b AS u, a2.b AS v
          FROM adj a1 JOIN adj a2 ON a1.a = a2.a AND a1.b < a2.b),
cmn AS (SELECT u, v, count(*) AS common FROM wedge GROUP BY 1, 2)
SELECT cmn.u, cmn.v, CAST(cmn.common AS BIGINT) AS common,
       round(cmn.common * 1.0 / (du.k + dv.k - cmn.common), 6) AS jac
FROM cmn
JOIN deg du ON du.node = cmn.u
JOIN deg dv ON dv.node = cmn.v
LEFT JOIN undg e ON e.u = cmn.u AND e.v = cmn.v
WHERE e.u IS NULL
"""


def q_tree_rollup(sf_dir: str):
    """Hierarchical subtree rollup over the implicit base-10 key trie
    (parent(k) = k // 10, root 0): every node's descendant count and
    balance total.  Instead of D bottom-up iterations, each row
    EXPLODES its O(log N) ancestor chain in one map (5 rows per
    customer at a billion keys) and a single combiner groupby closes
    the rollup — the flat path-explosion plan for bounded-depth
    hierarchies; the oracle is the equivalent recursive CTE."""
    cust = _rp(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def ancestors(df: pd.DataFrame) -> pd.DataFrame:
        k = df["c_custkey"].to_numpy(np.int64)
        b = df["c_acctbal"].to_numpy(np.float64)
        out_nodes, out_bals = [k], [b]
        cur, bb = k, b
        m = cur > 0
        while m.any():
            cur = cur[m] // 10
            bb = bb[m]
            out_nodes.append(cur)
            out_bals.append(bb)
            m = cur > 0
        return pd.DataFrame({"node": np.concatenate(out_nodes),
                             "bal": np.concatenate(out_bals),
                             "c": np.int64(1)})

    g = rel.partial_groupby_agg(
        cust.map_batches(ancestors, batch_format="pandas"),
        ["node"], {"bal": ("bal", "sum"), "c": ("c", "sum")})
    return pd.DataFrame({
        "node": g["node"].to_numpy(np.int64),
        "n_desc": g["c"].to_numpy(np.int64),
        "subtree_bal": np.round(g["bal"].to_numpy(np.float64), 6)})


SQL_TREE_ROLLUP = """
WITH RECURSIVE anc AS (
  SELECT c_custkey AS node, c_acctbal FROM customer
  UNION ALL
  SELECT node // 10, c_acctbal FROM anc WHERE node > 0)
SELECT node, CAST(count(*) AS BIGINT) AS n_desc,
       round(sum(c_acctbal), 6) AS subtree_bal
FROM anc GROUP BY 1
"""


def q_scc_labels(sf_dir: str):
    """Strongly connected components of the DIRECTED link graph
    (min-node-id labels): distributed in/out-degree trim rounds peel
    the acyclic tendrils (each trimmed node is its own SCC), then one
    bounded remote Tarjan task labels the surviving cyclic core — the
    connected-components hybrid contract lifted to directed
    reachability.  Rows-only: iterative directed reachability is not
    SQL-expressible; pinned against an independent sequential Kosaraju
    in tests/test_scc.py."""
    from ...stages.graph import scc_labels

    edges, _nodes, _n = _link_graph_inputs(sf_dir)
    out = scc_labels(edges)
    return out.sort_values("node").reset_index(drop=True)


SQL_SCC_LABELS = r"""
WITH RECURSIVE
n AS (SELECT count(*) AS nv FROM documents),
raw AS (
  SELECT d.doc_id AS src,
         CAST(hash(CAST(d.doc_id AS VARCHAR) || ':'
                   || CAST(t.j AS VARCHAR))
              % (SELECT nv FROM n) AS BIGINT) AS dst
  FROM documents d,
       unnest(generate_series(1, d.doc_id % 4)) AS t(j)),
edges AS (SELECT DISTINCT src, dst FROM raw WHERE src <> dst),
tc AS (
  SELECT src AS a, dst AS b FROM edges
  UNION
  SELECT t.a, e.dst FROM tc t JOIN edges e ON e.src = t.b
),
mut AS (SELECT t1.a AS node, t1.b AS other
        FROM tc t1 JOIN tc t2 ON t2.a = t1.b AND t2.b = t1.a),
lab AS (SELECT node, min(other) AS m FROM mut GROUP BY 1),
nodes AS (SELECT DISTINCT node FROM (
            SELECT src AS node FROM edges
            UNION ALL SELECT dst FROM edges))
SELECT CAST(n2.node AS BIGINT) AS node,
       CAST(least(n2.node, coalesce(l.m, n2.node)) AS BIGINT) AS scc
FROM nodes n2 LEFT JOIN lab l ON l.node = n2.node
"""


def q_pseudo_diameter(sf_dir: str):
    """Pseudo-diameter of the undirected link graph by the
    double-sweep BFS heuristic — BFS from the min node, re-seed at
    the farthest node, sweep again (stages/graph.py::pseudo_diameter;
    frontier-broadcast hops, edge stream never shuffles).  ORACLED
    (round-5, upgraded from rows-only): both sweeps run as recursive
    UNION-dedup BFS CTEs bounded at 64 hops (far above the fixture's
    eccentricity), min(lvl) per node, farthest = (lvl DESC, node)
    LIMIT 1 — the same tie rule as the Ray sweep.  Additionally
    pinned against a sequential BFS in tests/test_diameter.py."""
    from ...stages.graph import pseudo_diameter

    edges, _nodes, _n = _link_graph_inputs(sf_dir)
    return pseudo_diameter(edges)


SQL_PSEUDO_DIAMETER = f"""
WITH RECURSIVE {_SQL_EDGES_CTE},
und AS MATERIALIZED (SELECT DISTINCT least(src, dst) AS lo,
                                     greatest(src, dst) AS hi FROM edges),
adj AS MATERIALIZED (SELECT lo AS x, hi AS y FROM und
                     UNION ALL SELECT hi, lo FROM und),
seed AS (SELECT min(x) AS s FROM adj),
b1(node, lvl) AS (
  SELECT s, 0 FROM seed
  UNION
  SELECT a.y, b.lvl + 1 FROM b1 b JOIN adj a ON a.x = b.node
  WHERE b.lvl < 64),
l1 AS (SELECT node, min(lvl) AS lvl FROM b1 GROUP BY 1),
f1 AS (SELECT node FROM l1 ORDER BY lvl DESC, node LIMIT 1),
b2(node, lvl) AS (
  SELECT node, 0 FROM f1
  UNION
  SELECT a.y, b.lvl + 1 FROM b2 b JOIN adj a ON a.x = b.node
  WHERE b.lvl < 64),
l2 AS (SELECT node, min(lvl) AS lvl FROM b2 GROUP BY 1)
SELECT CAST((SELECT s FROM seed) AS BIGINT) AS seed,
       CAST((SELECT node FROM l2 ORDER BY lvl DESC, node LIMIT 1) AS BIGINT)
           AS far_node,
       CAST((SELECT max(lvl) FROM l2) AS BIGINT) AS pseudo_diameter
"""


def q_random_walks(sf_dir: str):
    """Deterministic graph random walks (the node2vec/DeepWalk
    sampling primitive made reproducible): from every seed node
    (doc_id % 25 = 0), 4 steps where the move from v at step t
    follows the out-edge minimizing hash(t:v:w) — the hash IS the
    random number, shared bit-for-bit with the SQL oracle (DuckDB
    hash() parity via hash_strings_fast, the link-fixture
    discipline).  Per step: one pass over the materialized edge
    stream emits per-batch best moves for the O(seeds) active set,
    the driver reduces a bounded panel; walks end at sinks."""
    import ray

    from ...functions.similarity import hash_strings_fast

    edges, _nodes, _n = _link_graph_inputs(sf_dir)
    edges = edges.materialize()
    docs = _rp(sf_dir, "documents", ["doc_id"])
    seeds = sorted(int(x) for x in docs.map_batches(
        lambda df: df[df["doc_id"] % 25 == 0],
        batch_format="pandas").to_pandas()["doc_id"])

    cur = {s: s for s in seeds}
    rows = [{"seed": s, "step": 0, "node": s} for s in seeds]
    for t in range(4):
        if not cur:
            break
        active = np.array(sorted(set(cur.values())), np.int64)
        ref = ray.put(active)

        def best(df: pd.DataFrame, _t=t) -> pd.DataFrame:
            act = ray.get(ref)
            m = np.isin(df["src"].to_numpy(np.int64), act)
            sub = df[m]
            if not len(sub):
                return pd.DataFrame({
                    "src": pd.Series([], dtype="int64"),
                    "h": pd.Series([], dtype="uint64"),
                    "dst": pd.Series([], dtype="int64")})
            keys = (str(_t) + ":" + sub["src"].astype(str) + ":"
                    + sub["dst"].astype(str)).tolist()
            h = hash_strings_fast(keys)
            out = pd.DataFrame({"src": sub["src"].to_numpy(np.int64),
                                "h": h,
                                "dst": sub["dst"].to_numpy(np.int64)})
            return out.sort_values(["src", "h", "dst"],
                                   kind="mergesort") \
                .drop_duplicates("src", keep="first")

        cand = edges.map_batches(best, batch_format="pandas").to_pandas()
        cand = cand.sort_values(["src", "h", "dst"], kind="mergesort") \
            .drop_duplicates("src", keep="first")
        nxt = dict(zip(cand["src"].astype(np.int64),
                       cand["dst"].astype(np.int64)))
        new_cur = {}
        for s, v in cur.items():
            if v in nxt:
                w = int(nxt[v])
                rows.append({"seed": s, "step": t + 1, "node": w})
                new_cur[s] = w
        cur = new_cur
    out = pd.DataFrame(rows)
    out["step"] = out["step"].astype(np.int64)
    return out


SQL_RANDOM_WALKS = """
WITH n AS (SELECT count(*) AS nv FROM documents),
raw AS (
  SELECT d.doc_id AS src,
         CAST(hash(CAST(d.doc_id AS VARCHAR) || ':'
                   || CAST(t.j AS VARCHAR))
              % (SELECT nv FROM n) AS BIGINT) AS dst
  FROM documents d,
       unnest(generate_series(1, d.doc_id % 4)) AS t(j)),
edges AS (SELECT DISTINCT src, dst FROM raw WHERE src <> dst),
ch AS (SELECT t, src, dst FROM (
  SELECT tt.t, e.src, e.dst,
         row_number() OVER (
           PARTITION BY tt.t, e.src
           ORDER BY hash(CAST(tt.t AS VARCHAR) || ':'
                         || CAST(e.src AS VARCHAR) || ':'
                         || CAST(e.dst AS VARCHAR)), e.dst) AS rn
  FROM edges e CROSS JOIN
       (SELECT unnest(generate_series(0, 3)) AS t) tt) WHERE rn = 1),
w0 AS (SELECT doc_id AS seed, 0 AS step, doc_id AS node
       FROM documents WHERE doc_id % 25 = 0),
w1 AS (SELECT w.seed, 1 AS step, c.dst AS node
       FROM w0 w JOIN ch c ON c.t = 0 AND c.src = w.node),
w2 AS (SELECT w.seed, 2 AS step, c.dst AS node
       FROM w1 w JOIN ch c ON c.t = 1 AND c.src = w.node),
w3 AS (SELECT w.seed, 3 AS step, c.dst AS node
       FROM w2 w JOIN ch c ON c.t = 2 AND c.src = w.node),
w4 AS (SELECT w.seed, 4 AS step, c.dst AS node
       FROM w3 w JOIN ch c ON c.t = 3 AND c.src = w.node)
SELECT seed, CAST(step AS BIGINT) AS step, node FROM (
  SELECT * FROM w0 UNION ALL SELECT * FROM w1
  UNION ALL SELECT * FROM w2 UNION ALL SELECT * FROM w3
  UNION ALL SELECT * FROM w4)
"""
