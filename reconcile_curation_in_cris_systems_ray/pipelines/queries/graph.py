"""Link-graph clustering queries: connected components (the flagship's
cluster assembly), KwikCluster pivot, label propagation and PageRank,
each over the hash-derived link-graph fixture of ``_shared``.

The ``QUERIES`` / ``ORACLES`` tables at the end register this family.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ._shared import _SQL_EDGES_CTE, _link_graph_inputs


def q_pagerank(sf_dir: str):
    """PageRank (5 damped power iterations, dangling mass redistributed
    uniformly) over the hash-derived edge fixture; oracle unrolls
    the iterations as chained CTEs.  Rank rounded to 8 decimals on both
    sides (identical IEEE expression order; only groupby-sum reduction
    order differs, ~1e-17)."""
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


QUERIES = {
    "pagerank": q_pagerank,
    "connected_components": q_connected_components,
    "cc_pivot": q_cc_pivot,
    "label_prop": q_label_prop,
}

ORACLES = {
    "pagerank": SQL_PAGERANK,
    "connected_components": SQL_CONNECTED_COMPONENTS,
    "cc_pivot": SQL_CC_PIVOT,
    "label_prop": SQL_LABEL_PROP,
}
